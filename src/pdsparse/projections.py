"""Exact Euclidean projections onto the constraint sets used by the solvers.

Implemented balls, for a matrix V with rows v_i:

* l1:       sum_ij |v_ij| <= r     (applied to the flattened matrix)
* l21:      sum_i ||v_i||_2 <= r   (group sparsity; zeroes whole rows)
* l12:      sum_i (sum_j |v_ij|)^2 <= r^2   (exclusive sparsity; rows compete)
* nuclear:  sum of singular values <= r     (low-rank weights)

plus the l-infinity box and the Frobenius unit ball needed by the dual
updates.  The l1 ball, and through it the l21 ball (on the row norms) and
the nuclear ball (on the singular values), is one full sort-and-scan.  The
l12 projection solves for its Lagrange multiplier with a guarded Newton
iteration.

Each ball kind is one entry of ``_BALLS``; ``solver``, ``model`` and
``classify`` name none.  An entry holds the projection, called as (V, radius,
start) through this module's attribute so that a tracer may swap it; the
norm and its dual; l12's ``next_start``, its multiplier read back off a
projection's input and output; nuclear's ``rotation_invariant``, which lets
a wide fit run on a factor of X; and the ``terms``, row ``magnitude`` and
``z_factor`` of the balls ``solver.solve`` screens (l1, l21; its Notes).

Layout: a ball projection returns its output in the memory layout of its
input.  A Fortran-ordered (column-major) matrix, the layout ``solve`` keeps
W in, gives a Fortran-ordered result with the bytes of the result for the
same values in C order; any other input is read, and answered, in C order.
Sums whose bits depend on the order they add in (l21's row norms, l12's row
sums) are taken from a C-ordered copy.  The l1 ball's feasibility total is
not: it adds in memory order, which only a total tied with the radius can
see.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .linalg import _check_scalar, check_matrix

__all__ = [
    "BallSpec",
    "L12NewtonState",
    "NewtonConvergenceError",
    "ball_norm",
    "clip_box",
    "dual_norm",
    "proj_frobenius_unit",
    "proj_l1_matrix",
    "proj_l1_vector",
    "proj_l12",
    "proj_l12_with_state",
    "proj_l21",
    "proj_nuclear",
    "project_ball",
]

L12_TOL = 1e-12
L12_MAX_ITER = 100


@dataclass(frozen=True)
class BallSpec:
    """Constraint descriptor: which ball, and its radius."""

    kind: str
    radius: float

    def __post_init__(self):
        if self.kind not in (kinds := tuple(_BALLS)):
            raise ValueError(f"unknown ball kind {self.kind!r}, expected one of {kinds}")
        _check_scalar(self.radius, "ball radius", "positive")


class NewtonConvergenceError(RuntimeError):
    """Raised when the l12 Newton iteration fails to reach its tolerance."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


def _check_ball_input(V) -> np.ndarray:
    """``check_matrix`` that leaves a Fortran-ordered matrix Fortran-ordered."""
    V = np.asarray(V, dtype=np.float64)
    if V.ndim == 2 and V.flags.f_contiguous:
        return check_matrix(V.T, "V").T
    return check_matrix(V, "V")


def _check_radius(radius) -> float:
    return _check_scalar(float(radius), "radius", "positive")


def proj_l1_vector(v, radius) -> np.ndarray:
    """Project a vector onto the l1 ball of the given radius.

    Sort-and-scan method: sort magnitudes descending, locate the largest
    active set whose soft threshold stays positive, then shrink.  Inputs
    already inside the ball are returned unchanged.
    """
    radius = _check_radius(radius)
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector contains non-finite entries")
    return _proj_l1(v, radius)


def _proj_l1(v: np.ndarray, radius: float) -> np.ndarray:
    """Sort-and-scan l1 projection of a finite float64 array, in its layout; radius checked.

    theta = (css_rho - r) / (rho + 1), where css sums the magnitudes u
    sorted descending and rho is the last index with u_rho (rho + 1) >
    css_rho - r (Duchi, Shalev-Shwartz, Singer & Chandra 2008).  The sort
    and the scan work in the buffer of |v|, which is then taken again: the
    page faults that fresh n-sized temporaries cost can outweigh the
    arithmetic.
    """
    a = np.abs(v)
    if a.sum() <= radius:
        return v.copy(order="K")
    u = a.ravel(order="K")  # a view, in memory order
    u.sort()
    u = u[::-1]
    uj = np.arange(1.0, u.size + 1)
    uj *= u
    excess = np.cumsum(u, out=u)
    excess -= radius
    active = uj > excess
    rho = active.size - 1 - int(np.argmax(active[::-1]))
    theta = excess[rho] / (rho + 1)
    np.abs(v, out=a)
    a -= theta
    np.maximum(a, 0.0, out=a)
    np.copysign(a, v, out=a)
    a[v == 0] = 0.0  # np.sign(v) times the magnitude gave +0.0 for -0.0
    return a


def proj_l1_matrix(V, radius) -> np.ndarray:
    """Project a matrix onto the l1 ball of its flattened entries."""
    return _proj_l1(_check_ball_input(V), _check_radius(radius))


def clip_box(Z) -> np.ndarray:
    """Clamp every entry into [-1, 1], the unit l-infinity box."""
    return np.asarray(Z).clip(-1.0, 1.0)


def proj_frobenius_unit(Z) -> np.ndarray:
    """Project onto the Frobenius-norm unit ball (radial scaling)."""
    Z = np.asarray(Z, dtype=np.float64)
    n = float(np.linalg.norm(Z))
    if n <= 1.0:
        return Z.copy()
    return Z / n


def proj_l21(V, radius) -> np.ndarray:
    """Project onto the ball of the row-wise l21 norm (sum of row 2-norms).

    The vector of row norms is projected onto the l1 ball, and each row is
    rescaled toward the origin accordingly, keeping its direction.  Zero
    rows map to zero rows.
    """
    radius = _check_radius(radius)
    V = _check_ball_input(V)
    norms = np.linalg.norm(np.ascontiguousarray(V), axis=1)
    t = proj_l1_vector(norms, radius)
    denom = np.maximum(t, norms)
    scale = np.divide(t, denom, out=np.zeros_like(t), where=denom > 0)
    return V * scale[:, None]


def proj_nuclear(V, radius) -> np.ndarray:
    """Project onto the nuclear-norm ball (sum of singular values <= radius).

    Thin SVD of the smaller orientation, l1 projection of the spectrum,
    reconstruction.  The SVD is always computed; a feasible input is returned
    unchanged, skipping only the l1 projection and the reconstruction.
    """
    radius = _check_radius(radius)
    V = _check_ball_input(V)
    transposed = V.shape[0] < V.shape[1]
    M = V.T if transposed else V
    try:
        U, s, Vt = np.linalg.svd(M, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"SVD failed during nuclear projection: {exc}") from exc
    if s.sum() <= radius:
        return V.copy(order="K")
    s_proj = proj_l1_vector(s, radius)
    out = (U * s_proj) @ Vt
    out = out.T if transposed else out
    # forming the product in F order changes its bits at k >= 20: copy
    return np.asfortranarray(out) if V.flags.f_contiguous else np.ascontiguousarray(out)


@dataclass
class L12NewtonState:
    """Internals of the l12 multiplier search, kept for diagnostics/tests.

    ``lambdas`` records every multiplier iterate starting from the start,
    else the lower bound, ``p`` the per-row active counts at the final
    multiplier, and ``residual`` the final constraint value minus radius^2.
    """

    prefix_sums: np.ndarray
    lam: float
    p: np.ndarray
    residual: float
    lambdas: list[float] = field(default_factory=list)
    iterations: int = 0


@functools.cache
def _merge_network(k: int) -> tuple[tuple[int, int], ...]:
    """Compare-exchange pairs (i, j), i < j, of Batcher's odd-even merge sort of k items."""
    pairs = []
    p = 1
    while p < k:
        q = p
        while q >= 1:
            for j in range(q % p, k - q, 2 * q):
                for i in range(min(q, k - j - q)):
                    if (i + j) // (2 * p) == (i + j + q) // (2 * p):
                        pairs.append((i + j, i + j + q))
            q //= 2
        p *= 2
    return tuple(pairs)


def proj_l12_with_state(V, radius, *, _start=0.0) -> tuple[np.ndarray, L12NewtonState]:
    """Project onto the l12 ball and return the multiplier-search state.

    The constraint is sum_i (sum_j |w_ij|)^2 <= radius^2.  The multiplier
    lambda starts at a computable lower bound, so the Newton iterates
    increase monotonically toward the root; the per-row active counts are
    refreshed once per multiplier update.  Stops at relative residual
    ``L12_TOL`` and raises ``NewtonConvergenceError`` after ``L12_MAX_ITER``
    updates without convergence.

    A positive ``_start`` whose residual is positive lies below the root
    and is the first iterate; V is then infeasible (a row's best ratio is at
    most its l1 norm), so the feasibility test and the bound are skipped.
    Any other start runs the search from the bound, to the bit.

    The sort (a sorting network on whole columns) and the Newton passes work
    on a k x d array (a view of a Fortran-ordered input, else a copy), since
    numpy is slow on operations along the short axis of a d x k array.  The
    row sums and the column bound stay on C-ordered d x k arrays: numpy sums
    each of those rows pairwise and each column in sequence (pairwise at
    k = 1), orders no k x d reduction keeps.
    """
    radius = _check_radius(radius)
    V = _check_ball_input(V)
    n, m = V.shape
    A = np.abs(V)
    target = radius * radius

    # St[j] sums the j + 1 largest magnitudes of each row.  The sort moves
    # values only, so tied magnitudes cannot change a bit.
    rows = list(np.ascontiguousarray(A.T))
    for i, j in _merge_network(m):
        rows[i], rows[j] = np.maximum(rows[i], rows[j]), np.minimum(rows[i], rows[j])
    St = np.array(rows).reshape(m, n)
    for j in range(1, m):
        St[j] += St[j - 1]
    S = np.ascontiguousarray(St.T)

    p_range = np.arange(1, m + 1, dtype=np.float64)
    # p is the first column of each row's best ratio S_ip / (1 + lam p), as
    # argmax picks it: column j ranks m - j, the first maximum ranks highest
    rank = np.arange(m, 0, -1, dtype=np.min_scalar_type(m))[:, None]
    ratios = np.empty_like(St)

    def evaluate(lam):
        np.divide(St, (1.0 + lam * p_range)[:, None], out=ratios)
        row_best = ratios.max(axis=0)
        p = (m + 1.0) - (rank * (ratios == row_best)).max(axis=0)
        return row_best, p, float((row_best * row_best).sum())

    lam = _start
    # an empty V has no ratios, and is feasible
    first = evaluate(lam) if lam > 0.0 and V.size else None
    if first is None or first[2] <= target:
        row_l1 = np.ascontiguousarray(A).sum(axis=1)
        norm_sq = float((row_l1 * row_l1).sum())
        if norm_sq <= target:
            # feasible: multiplier 0, all entries active
            state = L12NewtonState(prefix_sums=S, lam=0.0, p=np.full(n, m),
                                   residual=norm_sq - target, lambdas=[0.0])
            return V.copy(order="K"), state
        col = np.sqrt((S * S).sum(axis=0))
        lam = max(0.0, float(((col / radius - 1.0) / p_range).max()))
        first = evaluate(lam)
    row_best, p, val = first
    lambdas = [lam]
    for iterations in range(L12_MAX_ITER + 1):
        if val - target <= L12_TOL * target:
            break
        if iterations == L12_MAX_ITER:
            raise NewtonConvergenceError(
                f"l12 multiplier search did not converge in {L12_MAX_ITER} iterations "
                f"(residual {val - target:.3e})",
                residual=val - target,
            )
        deriv = 2.0 * float((p * row_best * row_best / (1.0 + lam * p)).sum())
        lam = lam + (val - target) / deriv
        lambdas.append(lam)
        row_best, p, val = evaluate(lam)

    deltas = lam * row_best
    W = np.sign(V) * np.maximum(A - deltas[:, None], 0.0)
    state = L12NewtonState(
        prefix_sums=S,
        lam=lam,
        p=p.astype(np.int64),
        residual=val - target,
        lambdas=lambdas,
        iterations=iterations,
    )
    return W, state


def proj_l12(V, radius, *, _start=0.0) -> np.ndarray:
    """Project onto the l12 ball: sum_i (sum_j |w_ij|)^2 <= radius^2."""
    W, _ = proj_l12_with_state(V, radius, _start=_start)
    return W


def _row_norms(A: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("ij,ij->i", A, A))


def _l12_start(V: np.ndarray, P: np.ndarray) -> float:
    """lam = max_j (|v_ij| - |p_ij|) / ||p_i||_1 on the row i of P's largest entry (KKT)."""
    A = np.abs(P)
    i = int(A.max(axis=1).argmax())
    norm = float(A[i].sum())
    return float((np.abs(V[i]) - A[i]).max()) / norm if norm > 0.0 else 0.0


# one ball kind's entry in _BALLS; the module docstring says what its fields hold
_Ball = namedtuple("_Ball", "project norm dual_norm next_start rotation_invariant terms "
                   "magnitude z_factor", defaults=(None, False, None, None, None))

# z_factor is an ndarray method: np.max and np.sum cost 1.5 us more a call, each screened step
_BALLS = {
    "l1": _Ball(lambda V, r, s: proj_l1_matrix(V, r), lambda V: np.abs(V).sum(),
                lambda V: np.abs(V).max(), terms=np.abs,
                magnitude=lambda A: np.abs(A).max(axis=1), z_factor=np.ndarray.max),
    "l21": _Ball(lambda V, r, s: proj_l21(V, r), lambda V: np.linalg.norm(V, axis=1).sum(),
                 lambda V: np.linalg.norm(V, axis=1).max(), terms=_row_norms,
                 magnitude=_row_norms, z_factor=np.ndarray.sum),
    "l12": _Ball(lambda V, r, s: proj_l12(V, r, _start=s),
                 lambda V: np.linalg.norm(np.abs(V).sum(axis=1)),
                 lambda V: np.linalg.norm(np.abs(V).max(axis=1)), next_start=_l12_start),
    "nuclear": _Ball(lambda V, r, s: proj_nuclear(V, r),
                     lambda V: np.linalg.svd(V, compute_uv=False).sum(),
                     lambda V: np.sqrt(max(np.linalg.eigvalsh(V.T @ V)[-1], 0.0)),
                     rotation_invariant=True),
}
BALL_KINDS = tuple(_BALLS)


def _ball(kind: str) -> _Ball:
    if kind not in tuple(_BALLS):  # a tuple, so an unhashable kind is refused as unknown
        raise ValueError(f"unknown ball kind {kind!r}")
    return _BALLS[kind]


def ball_norm(V, kind: str) -> float:
    """Evaluate the norm underlying a ball constraint."""
    return float(_ball(kind).norm(check_matrix(V, "V")))


def dual_norm(V, kind: str) -> float:
    """Evaluate the dual of a ball's norm: the max of <V, W> over its unit ball."""
    return float(_ball(kind).dual_norm(check_matrix(V, "V")))


def project_ball(V, ball: BallSpec, *, _start=0.0) -> np.ndarray:
    """Project onto the ball the descriptor names; ``_start`` goes to l12's multiplier search."""
    return _BALLS[ball.kind].project(V, ball.radius, _start)
