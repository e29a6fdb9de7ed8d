"""Classification rule, per-class signatures, metrics, CV and radius sweeps.

A query x is assigned to the class whose center row is nearest to x W in
the l1 distance, ties broken toward the smallest class index.  The
signature of class j is the set of features whose weight magnitude in
column j exceeds a threshold; the default threshold is relative to the
largest weight so it survives feature rescaling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import _check_scalar, check_matrix, normalize_features, one_hot
from .model import Problem, ProblemTemplate, TrainedModel
from .projections import BallSpec
from .solver import SolverParams, TrainingHistory, solve

__all__ = [
    "CVResult",
    "EvalReport",
    "Signature",
    "SweepPoint",
    "SweepResult",
    "cross_validate",
    "detect_knee",
    "eta_sweep",
    "evaluate",
    "predict",
    "predict_rows",
    "signature",
    "stratified_folds",
    "train_model",
]

DEFAULT_EPSILON_SCALE = 1e-6


@dataclass(frozen=True)
class Signature:
    """Per-class selected feature indices."""

    selected: tuple[np.ndarray, ...]

    def union(self) -> np.ndarray:
        """Distinct features selected by any class, ascending."""
        if not self.selected:
            return np.array([], dtype=np.int64)
        return np.unique(np.concatenate(self.selected))


@dataclass(frozen=True)
class EvalReport:
    """Confusion matrix on a labelled set; a class with no rows has NaN accuracy."""

    confusion: np.ndarray

    @property
    def global_accuracy(self) -> float:
        return float(np.trace(self.confusion) / self.confusion.sum())

    @property
    def per_class_accuracy(self) -> np.ndarray:
        counts = self.confusion.sum(axis=1)
        return np.where(counts > 0, np.diag(self.confusion) / np.maximum(counts, 1), np.nan)


@dataclass(frozen=True)
class CVResult:
    """Per-fold reports; the mean and standard deviation are of their accuracies."""

    reports: tuple[EvalReport, ...]

    @property
    def mean_accuracy(self) -> float:
        return float(np.mean([r.global_accuracy for r in self.reports]))

    @property
    def std_accuracy(self) -> float:
        return float(np.std([r.global_accuracy for r in self.reports]))


@dataclass(frozen=True)
class SweepPoint:
    """One radius of a sweep: its cross-validation and the full-data fit's selected features."""

    eta: float
    cv: CVResult
    selected_features: np.ndarray

    @property
    def n_features(self) -> int:
        return int(self.selected_features.size)

    @property
    def accuracy(self) -> float:
        return self.cv.mean_accuracy

    @property
    def per_class_accuracy(self) -> np.ndarray:
        return np.nanmean(np.vstack([r.per_class_accuracy for r in self.cv.reports]), axis=0)


@dataclass(frozen=True)
class SweepResult:
    points: tuple[SweepPoint, ...]


def _scores(proj: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """l1 distances from projections (k on the last axis) to each center row."""
    return np.abs(proj[..., None, :] - mu).sum(axis=-1)


def predict_rows(X, model: TrainedModel) -> np.ndarray:
    """Class of every row of X (raw features; the scale divides X W, not X).

    Agrees with ``predict(x / feature_scale)`` except at ties within rounding.
    """
    X = check_matrix(X, "X")
    if X.shape[1] != model.n_features:
        raise ValueError(f"rows must have length {model.n_features}, got {X.shape[1]}")
    return _scores((X @ model.W) / model.feature_scale, model.mu).argmin(axis=1)


def predict(x, model: TrainedModel) -> int:
    """Class of one query, already divided by ``model.feature_scale`` (unlike ``predict_rows``)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != model.n_features:
        raise ValueError(f"query must be a vector of length {model.n_features}")
    if not np.isfinite(x).all():
        raise ValueError("query contains non-finite entries")
    return int(_scores(x @ model.W, model.mu).argmin())


def signature(model: TrainedModel, epsilon: float | None = None) -> Signature:
    """Per-class feature sets: indices i with |W[i, j]| above the threshold.

    Without an explicit epsilon the threshold is 1e-6 times the largest
    weight magnitude, so the selection is invariant under rescaling W.
    """
    W = model.W
    if epsilon is None:
        epsilon = DEFAULT_EPSILON_SCALE * float(np.abs(W).max())
    _check_scalar(epsilon, "epsilon", "nonnegative")
    sel = tuple(np.nonzero(np.abs(W[:, j]) > epsilon)[0] for j in range(W.shape[1]))
    return Signature(selected=sel)


def evaluate(X_test, labels_test, model: TrainedModel) -> EvalReport:
    """Confusion matrix of the model on a labelled set.

    Rows are scored by ``predict_rows`` (raw features; the model's scale is
    applied) and labels are class indices in ``[0, k)``, checked by
    ``one_hot``.  The accuracies are read off the matrix; the selected
    features are ``signature(model)``'s, not the report's.
    """
    preds = predict_rows(X_test, model)
    if preds.shape[0] == 0:
        raise ValueError("empty test set")
    k = model.n_classes
    Y = one_hot(labels_test, k)
    if Y.shape[0] != preds.shape[0]:
        raise ValueError("labels length does not match the number of rows")
    # row i of Y^T one_hot(preds) counts the class-i rows by predicted class
    return EvalReport(confusion=(Y.T @ one_hot(preds, k)).astype(np.int64))


def train_model(X, labels, template: ProblemTemplate,
                params: SolverParams | None = None,
                normalize: bool = True) -> tuple[TrainedModel, TrainingHistory]:
    """Normalize features, build the problem and run the solver.

    The problem is bound to ``normalize_features``' record (to X, at scale
    1.0, without ``normalize``): ``solve`` reads its norm estimate and Gram
    matrix, and the model it returns keeps its scale for scaling queries.
    Every class in ``0..max(labels)`` must have a sample.
    """
    return solve(_bind(X, labels, template, normalize),
                 params if params is not None else SolverParams())


def _bind(X, labels, template: ProblemTemplate, normalize: bool = True) -> Problem:
    """The template bound to all rows and labels, as ``train_model`` fits them."""
    labels = np.asarray(labels)
    Y = one_hot(labels, int(labels.max()) + 1)
    _require_every_class(Y.sum(axis=0))
    return template.bind(normalize_features(X) if normalize else X, Y)


def _require_every_class(class_counts: np.ndarray) -> None:
    """Reject labels that leave one of the classes 0..k-1 without samples."""
    missing = np.nonzero(class_counts == 0)[0]
    if missing.size:
        raise ValueError(f"class {int(missing[0])} has no samples")


def stratified_folds(labels, folds: int, seed: int = 0) -> list[np.ndarray]:
    """Deterministic stratified fold assignment.

    Shuffles each class with a counter-based generator and deals its
    samples round-robin, so fold class proportions deviate from the global
    ones by at most one sample per class; classes smaller than the fold
    count land in distinct folds.
    """
    labels = np.asarray(labels)
    _check_scalar(_check_scalar(seed, "seed", "an integer"), "seed", "nonnegative")
    if _check_scalar(folds, "folds", "an integer") < 2:
        raise ValueError(f"need at least 2 folds, got {folds}")
    if folds > labels.shape[0]:
        raise ValueError(f"cannot make {folds} folds from {labels.shape[0]} samples")
    k = int(labels.max()) + 1
    _require_every_class(one_hot(labels, k).sum(axis=0))
    rng = np.random.Generator(np.random.Philox(seed))
    fold = np.empty(labels.shape[0], dtype=np.int64)
    offset = 0
    for c in range(k):
        idx = rng.permutation(np.nonzero(labels == c)[0])
        fold[idx] = (offset + np.arange(idx.size)) % folds
        # continue dealing where the previous class stopped so no fold
        # stays empty when classes are smaller than the fold count
        offset = (offset + idx.size) % folds
    return [np.flatnonzero(fold == f) for f in range(folds)]


def _bind_folds(X, labels, folds: int, template: ProblemTemplate, seed: int):
    """Per fold, in order: its training rows and all k classes bound, its test rows and labels."""
    X = check_matrix(X, "X")
    labels = np.asarray(labels)
    if X.shape[0] != labels.shape[0]:
        raise ValueError(f"X has {X.shape[0]} rows but Y has {labels.shape[0]}")
    k = int(labels.max()) + 1
    for test_idx in stratified_folds(labels, folds, seed=seed):
        train_idx = np.setdiff1d(np.arange(labels.shape[0]), test_idx)
        yield (template.bind(normalize_features(X[train_idx]), one_hot(labels[train_idx], k)),
               X[test_idx], labels[test_idx])


def cross_validate(X, labels, folds: int, template: ProblemTemplate,
                   params: SolverParams | None = None, seed: int = 0) -> CVResult:
    """Stratified k-fold cross validation, one solver run per fold, in fold order.

    Each fold fits its normalized training rows on all k classes, even on one they miss.
    """
    params = params if params is not None else SolverParams()
    bound = _bind_folds(X, labels, folds, template, seed)
    return CVResult(reports=tuple(evaluate(X_t, y_t, solve(p, params)[0]) for p, X_t, y_t in bound))


def eta_sweep(X, labels, etas, template: ProblemTemplate,
              params: SolverParams | None = None, folds: int = 4,
              seed: int = 0) -> SweepResult:
    """Cross-validate over a grid of constraint radii.

    Each fold and the full data are bound once; every radius fits them as
    ``cross_validate`` (accuracies, per class averaged over the folds that
    hold the class) and ``train_model`` (the signature's feature count) would.
    """
    etas = [BallSpec(template.ball.kind, float(e)).radius for e in etas]
    if not etas:
        raise ValueError("need at least one radius")
    if sorted(etas) != etas:
        raise ValueError("radii must be sorted ascending")
    params = params if params is not None else SolverParams()
    bound = [*_bind_folds(X, labels, folds, template, seed)]
    full = _bind(X, labels, template)
    points = []
    for eta in etas:
        cv = CVResult(reports=tuple(evaluate(X_t, y_t, solve(p.with_radius(eta), params)[0])
                                    for p, X_t, y_t in bound))
        sel = signature(solve(full.with_radius(eta), params)[0]).union()
        points.append(SweepPoint(eta=eta, cv=cv, selected_features=sel))
    return SweepResult(points=tuple(points))


def detect_knee(result: SweepResult) -> int | None:
    """Heuristic knee index: the sharpest drop in accuracy slope.

    Flags the interior point with the most negative second difference of
    accuracy along the sweep.  Purely indicative; returns None for sweeps
    with fewer than three points.
    """
    acc = [p.accuracy for p in result.points]
    if len(acc) < 3:
        return None
    d2 = [acc[i + 1] - 2.0 * acc[i] + acc[i - 1] for i in range(1, len(acc) - 1)]
    return int(np.argmin(d2)) + 1
