"""Synthetic data generation, CSV ingestion, and model/result serialization.

The synthetic generator mimics sparse expression-style data: each class
owns a disjoint block of informative features carrying its mean signal,
everything else is noise, and a dropout step zeroes entries at random.
Disjoint blocks give a ground-truth signature that recovery tests can
score against.

Model files are a small self-describing binary container (magic bytes,
version, shapes, little-endian float64 payload, then the class names as an
ASCII JSON list) so that weights round-trip bit-exactly; CSV would not.
"""

from __future__ import annotations

import csv
import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from .linalg import check_matrix
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
        if self.k < 2:
            raise ValueError(f"need at least 2 classes, got {self.k}")
        if self.m < self.k:
            raise ValueError(f"need at least one sample per class, got m={self.m}, k={self.k}")
        if self.s < 1:
            raise ValueError(f"need at least one informative feature, got s={self.s}")
        if self.s * self.k > self.d:
            raise ValueError(
                f"informative blocks do not fit: s*k={self.s * self.k} > d={self.d}")
        if not self.separation > 0:
            raise ValueError(f"separation must be positive, got {self.separation}")
        if self.noise_sd < 0:
            raise ValueError(f"noise_sd must be nonnegative, got {self.noise_sd}")
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

    @property
    def n_classes(self) -> int:
        return int(self.labels.max()) + 1


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
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        rows = list(reader)
    if not rows:
        raise ValueError(f"{path}: empty file")
    header = rows[0]
    if label_column in header:
        label_idx = header.index(label_column)
    elif require_label:
        raise ValueError(f"{path}: label column {label_column!r} not found in header")
    else:
        label_idx = None
    feature_names = [h for i, h in enumerate(header) if i != label_idx]
    data_rows = rows[1:]
    if not data_rows:
        raise ValueError(f"{path}: no data rows")

    X = np.empty((len(data_rows), len(feature_names)))
    label_codes: dict[str, int] = {}  # name -> code, in order of first appearance
    labels = np.empty(len(data_rows), dtype=np.int64)
    for r, row in enumerate(data_rows):
        if len(row) != len(header):
            raise ValueError(
                f"{path}: row {r + 2} has {len(row)} fields, expected {len(header)}")
        c_out = 0
        for c, tok in enumerate(row):
            if c == label_idx:
                labels[r] = label_codes.setdefault(tok, len(label_codes))
                continue
            try:
                val = float(tok)
            except ValueError:
                raise ValueError(
                    f"{path}: non-numeric value {tok!r} at row {r + 2}, "
                    f"column {header[c]!r}") from None
            if not math.isfinite(val):
                raise ValueError(
                    f"{path}: non-finite value {tok!r} at row {r + 2}, "
                    f"column {header[c]!r}")
            X[r, c_out] = val
            c_out += 1
    if label_idx is None:
        return Dataset(X=X, labels=None, feature_names=feature_names)
    return Dataset(X=X, labels=labels, feature_names=feature_names,
                   label_names=list(label_codes))


def write_dataset_csv(path, dataset: Dataset, delimiter: str = ",") -> None:
    """Write a dataset as delimited text, the ``label`` column last.

    Floats are written with ``repr`` so a load round-trips them exactly.  A
    dataset without labels is written without the label column.
    """
    X = check_matrix(dataset.X, "X")
    names = dataset.feature_names or [f"f{i}" for i in range(X.shape[1])]
    if len(names) != X.shape[1]:
        raise ValueError("feature_names length does not match the matrix")
    labels = dataset.labels
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, delimiter=delimiter)
        writer.writerow(names if labels is None else [*names, "label"])
        for i in range(X.shape[0]):
            row = [repr(float(v)) for v in X[i]]
            if labels is not None:
                lab = int(labels[i])
                row.append(dataset.label_names[lab] if dataset.label_names else str(lab))
            writer.writerow(row)


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


def write_curve_csv(path, points, n_classes: int) -> None:
    """Write sweep points as ``eta,n_features,accuracy,acc_class_0..``.

    Values carry 9 significant digits; rerunning an identical sweep yields
    a byte-identical file.
    """
    header = ["eta", "n_features", "accuracy"] + \
        [f"acc_class_{j}" for j in range(n_classes)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for p in points:
            cells = [f"{p.eta:.9g}", str(int(p.n_features)), f"{p.accuracy:.9g}"]
            cells += [f"{v:.9g}" for v in p.per_class_accuracy]
            fh.write(",".join(cells) + "\n")


def load_matrix_csv(path) -> np.ndarray:
    """Load a headerless numeric matrix from comma-separated text."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r]
    if not rows:
        raise ValueError(f"{path}: empty file")
    width = len(rows[0])
    out = np.empty((len(rows), width))
    for r, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"{path}: row {r + 1} has {len(row)} fields, expected {width}")
        for c, tok in enumerate(row):
            try:
                out[r, c] = float(tok)
            except ValueError:
                raise ValueError(
                    f"{path}: non-numeric value {tok!r} at row {r + 1}, column {c + 1}"
                ) from None
    return check_matrix(out, path if isinstance(path, str) else "matrix")


def save_matrix_csv(path, M) -> None:
    """Write a matrix as headerless comma-separated text with exact floats."""
    M = check_matrix(M, "M")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for row in M:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
