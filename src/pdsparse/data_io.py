"""Synthetic data generation, CSV ingestion, and model/result serialization.

The synthetic generator mimics sparse expression-style data: each class
owns a disjoint block of informative features carrying its mean signal,
everything else is noise, and a dropout step zeroes entries at random.
Disjoint blocks give a ground-truth signature that recovery tests can
score against.

Every table, here and in the CLI, is read by ``_read_csv`` and written by
``_write_csv`` in one dialect: comma-separated or a given ``delimiter``, LF
line ends, cells quoted when needed.  Blank lines are skipped, rows are
numbered by file line, and a cell that is not a finite number is refused
with its row and column (header name, or 1-based index in a headerless matrix).

Model files are a small self-describing binary container (magic bytes,
version, shapes, little-endian float64 payload, then the class names as an
ASCII JSON list) so that weights round-trip bit-exactly; CSV would not.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from .linalg import _check_scalar, check_matrix
from .losses import LossSpec
from .model import TrainedModel
from .projections import BallSpec

__all__ = [
    "Dataset",
    "SyntheticSpec",
    "generate_synthetic",
    "load_csv",
    "load_matrix_csv",
    "load_model",
    "save_matrix_csv",
    "save_model",
    "write_curve_csv",
    "write_dataset_csv",
]

MODEL_MAGIC = b"PDSM"
MODEL_VERSION = 2
_HEADER = struct.Struct("<4sIBBdddqq")
_BALL_CODES = {"l1": 0, "l21": 1, "l12": 2, "nuclear": 3}
_LOSS_CODES = {"l1": 0, "huber": 1, "frobenius": 2}
_BALL_NAMES = {v: k for k, v in _BALL_CODES.items()}
_LOSS_NAMES = {v: k for k, v in _LOSS_CODES.items()}


@dataclass(frozen=True)
class SyntheticSpec:
    """Shape and noise parameters of a generated dataset."""

    m: int
    d: int
    k: int
    s: int
    separation: float = 1.0
    noise_sd: float = 0.0
    dropout_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("m", "d", "k", "s", "seed"):
            _check_scalar(getattr(self, name), name, "an integer")
        _check_scalar(self.seed, "seed", "nonnegative")
        if self.k < 2:
            raise ValueError(f"need at least 2 classes, got {self.k}")
        if self.m < self.k:
            raise ValueError(f"need at least one sample per class, got m={self.m}, k={self.k}")
        if self.s < 1:
            raise ValueError(f"need at least one informative feature, got s={self.s}")
        if self.s * self.k > self.d:
            raise ValueError(
                f"informative blocks do not fit: s*k={self.s * self.k} > d={self.d}")
        _check_scalar(self.separation, "separation", "positive and finite")
        _check_scalar(self.noise_sd, "noise_sd", "nonnegative and finite")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must lie in [0, 1), got {self.dropout_rate}")


@dataclass(frozen=True)
class Dataset:
    """Feature matrix with integer labels and optional column/label names.

    ``labels`` and ``label_names`` are None for an unlabelled file.
    """

    X: np.ndarray
    labels: np.ndarray | None
    feature_names: list[str] | None = None
    label_names: list[str] | None = None


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Generate a dataset with disjoint per-class informative blocks.

    Class j's samples have mean ``separation`` on its s dedicated features
    and 0 elsewhere; Gaussian noise and independent dropout zeroing follow.
    All randomness flows from the spec's seed through a counter-based
    generator, so identical specs give bitwise-identical datasets.
    """
    rng = np.random.Generator(np.random.Philox(spec.seed))
    labels = np.arange(spec.m, dtype=np.int64) % spec.k
    X = np.zeros((spec.m, spec.d))
    for j in range(spec.k):
        rows = labels == j
        X[rows, j * spec.s:(j + 1) * spec.s] = spec.separation
    X += rng.normal(0.0, spec.noise_sd, size=X.shape) if spec.noise_sd > 0 else 0.0
    if spec.dropout_rate > 0:
        X[rng.random(X.shape) < spec.dropout_rate] = 0.0
    return Dataset(X=X, labels=labels)


def _read_csv(path, delimiter: str = ",") -> list[tuple[int, list[str]]]:
    """The (file line, cells) of each non-blank row, all as wide as the first."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        rows = [(reader.line_num, cells) for cells in reader if cells]
    if not rows:
        raise ValueError(f"{path}: empty file")
    width = len(rows[0][1])
    for line, cells in rows:
        if len(cells) != width:
            raise ValueError(f"{path}: row {line} has {len(cells)} fields, expected {width}")
    return rows


def _parse_matrix(path, rows, columns: dict) -> np.ndarray:
    """The finite floats of each (line, cells) row at the cells ``columns`` maps to names."""
    out = np.empty((len(rows), len(columns)))
    for r, (line, cells) in enumerate(rows):
        for j, (c, name) in enumerate(columns.items()):
            try:
                out[r, j] = val = float(cells[c])
            except ValueError:
                raise ValueError(f"{path}: non-numeric value {cells[c]!r} at row {line}, "
                                 f"column {name}") from None
            if not math.isfinite(val):
                raise ValueError(f"{path}: non-finite value {cells[c]!r} at row {line}, "
                                 f"column {name}")
    return out


def _write_csv(path, rows, delimiter: str = ",") -> None:
    """Write the rows of cells, a header first if any, in the module's dialect."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        minimal = csv.writer(fh, delimiter=delimiter, lineterminator="\n")
        # csv quotes a CR only when the line terminator holds one
        quoted = csv.writer(fh, delimiter=delimiter, lineterminator="\n", quoting=csv.QUOTE_ALL)
        for row in rows:
            (quoted if "\r" in "".join(map(str, row)) else minimal).writerow(row)


def load_csv(path, label_column: str = "label", delimiter: str = ",",
             require_label: bool = True) -> Dataset:
    """Load a dataset from a delimited text file.

    The first row must be a header; ``label_column`` names the label field
    and every other column must be numeric and finite.  Labels are coded
    in order of first appearance in this file, with their names kept as
    ``label_names``; compare labels across files by name, not by code.
    A header without ``label_column`` is refused unless ``require_label``
    is False, which loads every column as a feature and leaves the labels None.
    """
    (_, header), *data = _read_csv(path, delimiter)
    label_idx = header.index(label_column) if label_column in header else None
    if label_idx is None and require_label:
        raise ValueError(f"{path}: label column {label_column!r} not found in header")
    if not data:
        raise ValueError(f"{path}: no data rows")
    columns = {c: repr(h) for c, h in enumerate(header) if c != label_idx}
    X = _parse_matrix(path, data, columns)
    feature_names = [header[c] for c in columns]
    if label_idx is None:
        return Dataset(X=X, labels=None, feature_names=feature_names)
    label_codes: dict[str, int] = {}  # name -> code, in order of first appearance
    labels = np.array([label_codes.setdefault(cells[label_idx], len(label_codes))
                       for _, cells in data], dtype=np.int64)
    return Dataset(X=X, labels=labels, feature_names=feature_names,
                   label_names=list(label_codes))


def write_dataset_csv(path, dataset: Dataset, delimiter: str = ",") -> None:
    """Write a dataset as delimited text, the ``label`` column last.

    Floats are written with ``repr`` so a load round-trips them exactly.  A
    dataset without labels is written without the label column; a label code
    that ``label_names`` does not name is refused before the file is opened.
    """
    X = check_matrix(dataset.X, "X")
    names = dataset.feature_names or [f"f{i}" for i in range(X.shape[1])]
    if len(names) != X.shape[1]:
        raise ValueError("feature_names length does not match the matrix")
    rows = ([repr(float(v)) for v in x] for x in X)
    if dataset.labels is not None:
        names, tags = [*names, "label"], dataset.label_names
        bad = [lab for lab in map(int, dataset.labels) if tags and not 0 <= lab < len(tags)]
        if bad:
            raise ValueError(f"label code {bad[0]} has no name in label_names ({len(tags)} names)")
        rows = ([*row, tags[lab] if tags else str(lab)]
                for row, lab in zip(rows, map(int, dataset.labels)))
    _write_csv(path, itertools.chain([names], rows), delimiter)


def save_model(path, model: TrainedModel) -> None:
    """Serialize a trained model to the versioned binary container."""
    W, mu = model.W, model.mu
    d, k = W.shape
    header = _HEADER.pack(MODEL_MAGIC, MODEL_VERSION, _BALL_CODES[model.ball.kind],
                          _LOSS_CODES[model.loss.kind], model.ball.radius,
                          model.loss.delta, model.feature_scale, d, k)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(W, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(mu, dtype="<f8").tobytes())
        fh.write(json.dumps(list(model.class_names)).encode("ascii"))


def load_model(path) -> TrainedModel:
    """Read a model container; refuses unknown versions and corrupt files.

    A version 1 file ends at the payload; its classes are named ``"0".."k-1"``.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise ValueError(f"{path}: truncated model file")
    magic, version, ball_code, loss_code, radius, delta, scale, d, k = \
        _HEADER.unpack_from(blob)
    if magic != MODEL_MAGIC:
        raise ValueError(f"{path}: not a model file")
    if version not in (1, MODEL_VERSION):
        raise ValueError(f"{path}: unsupported model file version {version}")
    if ball_code not in _BALL_NAMES or loss_code not in _LOSS_NAMES:
        raise ValueError(f"{path}: corrupt model file (unknown ball/loss code)")
    if d < 0 or k < 0:
        raise ValueError(f"{path}: corrupt model file (negative shape)")
    expected = _HEADER.size + 8 * (d * k + k * k)
    if len(blob) < expected:
        raise ValueError(f"{path}: truncated model file")
    names, end = None, expected
    if version > 1:
        try:
            names, used = json.JSONDecoder().raw_decode(blob[expected:].decode("ascii"))
        except ValueError:
            raise ValueError(f"{path}: truncated or corrupt model file (class names)") from None
        end += used
    if len(blob) > end:
        raise ValueError(f"{path}: corrupt model file (trailing data)")
    off = _HEADER.size
    W = np.frombuffer(blob, dtype="<f8", count=d * k, offset=off).reshape(d, k).copy()
    off += 8 * d * k
    mu = np.frombuffer(blob, dtype="<f8", count=k * k, offset=off).reshape(k, k).copy()
    return TrainedModel(W=W, mu=mu, ball=BallSpec(_BALL_NAMES[ball_code], radius),
                        loss=LossSpec(_LOSS_NAMES[loss_code], delta),
                        feature_scale=scale, class_names=names)


def write_curve_csv(path, points) -> None:
    """Write sweep points as ``eta,n_features,accuracy,acc_class_0..``.

    The class count is the points'; refuses no points, or points that
    disagree on it.  Values carry 9 significant digits; rerunning an
    identical sweep yields a byte-identical file.
    """
    counts = {len(p.per_class_accuracy) for p in points}
    if len(counts) != 1:
        raise ValueError("no sweep points to write" if not counts else
                         f"sweep points disagree on the class count: {sorted(counts)}")
    header = ["eta", "n_features", "accuracy"] + [f"acc_class_{j}" for j in range(counts.pop())]
    _write_csv(path, [header, *([f"{p.eta:.9g}", str(int(p.n_features)), f"{p.accuracy:.9g}",
                                 *(f"{v:.9g}" for v in p.per_class_accuracy)] for p in points)])


def load_matrix_csv(path) -> np.ndarray:
    """Load a headerless numeric matrix from comma-separated text."""
    rows = _read_csv(path)
    return _parse_matrix(path, rows, {c: c + 1 for c in range(len(rows[0][1]))})


def save_matrix_csv(path, M) -> None:
    """Write a matrix as headerless comma-separated text with exact floats."""
    _write_csv(path, ([repr(float(v)) for v in row] for row in check_matrix(M, "M")))
