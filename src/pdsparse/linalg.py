"""Dense-matrix utilities: validation, one-hot labels, operator-norm estimation.

Matrices are plain 2-D float64 numpy arrays in row-major order.  Every public
entry point validates shapes and finiteness, since mismatched dimensions are
the dominant failure mode when sample, feature and class counts all vary.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "Features",
    "OperatorNormEstimate",
    "check_matrix",
    "one_hot",
    "spectral_norm",
    "label_operator_norm",
    "normalize_features",
]

POWER_TOL = 1e-9
POWER_MAX_ITER = 1000
POWER_SEED = 0
# entries per finiteness test in ``check_matrix``: a 64 KB mask, not one of n x d
FINITE_BLOCK = 65536
# a product reads the rows it needs when at most one in GATHER_RATIO is needed
GATHER_RATIO = 8


def check_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate *a* as a finite 2-D float64 array and return it C-contiguous."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    arr = np.ascontiguousarray(arr)
    flat = arr.reshape(-1)
    for start in range(0, flat.size, FINITE_BLOCK):
        if not np.isfinite(flat[start:start + FINITE_BLOCK]).all():
            raise ValueError(f"{name} contains non-finite entries")
    return arr


_SCALAR_RULES = {"nonnegative": lambda v: v >= 0, "positive": lambda v: v > 0,
                 "nonnegative and finite": lambda v: 0 <= v < np.inf,
                 "positive and finite": lambda v: 0 < v < np.inf,
                 "an integer": lambda v: isinstance(v, numbers.Integral)}


def _check_scalar(value, name: str, rule: str):
    """*value*, if it meets *rule*, a key of ``_SCALAR_RULES``; NaN, unordered, meets none."""
    if not _SCALAR_RULES[rule](value):
        raise ValueError(f"{name} must be {rule}, got {value}")
    return value


@dataclass(frozen=True)
class OperatorNormEstimate:
    """Largest-singular-value estimate from power iteration.

    ``converged`` is False when the iteration hit ``POWER_MAX_ITER`` before the
    Rayleigh-quotient residual dropped below ``POWER_TOL``.
    """

    value: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class Features:
    """A validated data matrix and the facts about it that a fit reads.

    ``scale`` is the divisor applied to the raw matrix (1.0 when unscaled),
    ``x_norm`` the estimate of ||X|| and ``gram`` X X^T when X has more
    columns than rows, else None.  ``normalize_features`` returns one, and
    ``model.Problem`` holds the one it was bound to or builds its own.
    """

    X: np.ndarray
    scale: float
    x_norm: OperatorNormEstimate
    gram: np.ndarray | None


def one_hot(labels, k: int) -> np.ndarray:
    """Encode integer labels into an m x k one-hot matrix.

    Parameters
    ----------
    labels : sequence of int
        Class indices, each in ``[0, k)``.
    k : int
        Number of classes, at least 2.

    Returns
    -------
    np.ndarray
        m x k; row i has a single 1 at column ``labels[i]``.
    """
    lab = np.asarray(labels)
    if lab.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {lab.shape}")
    if k < 2:
        raise ValueError(f"need at least 2 classes, got k={k}")
    if not np.issubdtype(lab.dtype, np.integer):
        if not np.all(lab == lab.astype(np.int64)):
            raise ValueError("labels must be integers")
        lab = lab.astype(np.int64)
    bad = np.nonzero((lab < 0) | (lab >= k))[0]
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"label {int(lab[i])} at index {i} outside [0, {k})")
    m = lab.shape[0]
    mat = np.zeros((m, k))
    mat[np.arange(m), lab] = 1.0
    return mat


def spectral_norm(A, *, _gram=None) -> OperatorNormEstimate:
    """Estimate the operator (spectral) norm of *A* by power iteration.

    The iteration runs on the n x n Gram matrix of the smaller side, n =
    min(m, d): B^T B with B = A when m >= d and B = A^T otherwise, formed
    once in one level-3 product before the first step.  Since n^2 <= m d it
    is never larger than *A*, and each step costs O(n^2) instead of the two
    passes over *A* that B^T (B v) makes.  The start is a random unit vector
    drawn from ``Philox(POWER_SEED)``; the iteration stops once successive
    Rayleigh quotients agree to relative ``POWER_TOL``, or after
    ``POWER_MAX_ITER`` steps.

    Returns an estimate that never exceeds the true largest singular value.
    A zero matrix, or one whose Gram matrix underflows to zero, yields value
    0, flagged converged; one whose Gram matrix overflows is refused.
    """
    # ``_features`` passes the Gram matrix of an A it has already validated,
    # so the estimate neither scans A again nor forms the product
    G = _thin_gram(check_matrix(A, "A"), "A") if _gram is None else _gram
    if not G.any():
        return OperatorNormEstimate(0.0, 0, True)
    n = G.shape[0]
    rng = np.random.Generator(np.random.Philox(POWER_SEED))
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    lam = 0.0
    converged = False
    its = 0
    for its in range(1, POWER_MAX_ITER + 1):
        w = G @ v
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            # start vector landed in the null space; redraw deterministically
            v = rng.standard_normal(n)
            v /= np.linalg.norm(v)
            continue
        v = w / nw
        if abs(nw - lam) <= POWER_TOL * nw:
            lam = nw
            converged = True
            break
        lam = nw
    return OperatorNormEstimate(float(np.sqrt(lam)), its, converged)


def _thin_gram(A: np.ndarray, name: str) -> np.ndarray:
    """B^T B on the thin side of A: B = A when m >= d, else A^T (so A A^T); finite."""
    B = A if A.shape[0] >= A.shape[1] else A.T
    with np.errstate(all="ignore"):
        G = B.T @ B
    if not np.isfinite(G).all():
        raise ValueError(f"the Gram matrix of {name} overflows; rescale {name}")
    return G


def sparse_rows_product(X: np.ndarray, A: np.ndarray) -> np.ndarray:
    """X A, from the nonzero rows of A alone when at most one in eight is nonzero.

    A row holding NaN or inf counts as nonzero.  More than k d / 8 nonzero
    entries in the d x k A imply more than d / 8 nonzero rows, so such an A
    takes the dense product without building the row mask.  The mask
    reduces k rows of ``A.T``, contiguous for a column-major A.  The
    restricted product agrees with the dense one to rounding, not bit for
    bit; the Notes of ``solver.solve`` say why eight.
    """
    d, k = A.shape
    if GATHER_RATIO * np.count_nonzero(A) > k * d:
        return X @ A
    rows = np.flatnonzero(np.logical_or.reduce(A.T != 0, axis=0))
    if GATHER_RATIO * rows.size > d:
        return X @ A
    return X[:, rows] @ A[rows]


def label_operator_norm(Y) -> float:
    """Operator norm of a one-hot label matrix *Y* (m x k).

    The Gram matrix of a one-hot Y is diag(column sums), so the norm is
    sqrt of the largest class count, exactly.
    """
    Y = check_matrix(Y, "Y")
    return float(np.sqrt(Y.sum(axis=0).max()))


def _features(X: np.ndarray) -> Features:
    """Unscaled record of a checked X: one thin-side Gram matrix and ||X|| from it."""
    G = _thin_gram(X, "X")
    return Features(X=X, scale=1.0, x_norm=spectral_norm(X, _gram=G),
                    gram=G if X.shape[1] > X.shape[0] else None)


def normalize_features(X) -> Features:
    """Rescale *X* to unit operator norm.

    X is validated once and its norm estimated by one ``spectral_norm``
    power loop, on the Gram matrix of the raw X.  Returns the scaled X's
    record: the divisor applied, 1.0 with the raw estimate's iteration count
    and ``converged`` flag (the loop's iterates do not depend on scale), and
    the raw Gram matrix over the squared scale.  Raises on an all-zero
    matrix, which cannot be normalized.
    """
    raw = _features(check_matrix(X, "X"))
    s = raw.x_norm.value
    if s == 0.0:
        raise ValueError("cannot normalize a zero matrix")
    return replace(raw, X=raw.X / s, scale=s, x_norm=replace(raw.x_norm, value=1.0),
                   gram=None if raw.gram is None else raw.gram / (s * s))
