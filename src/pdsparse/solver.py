"""Primal-dual saddle-point solvers for constrained robust classification.

One iteration alternates a projected gradient step on the weights W, a
closed-form prox on the centers mu, and a prox ascent step on the dual
variable Z built from extrapolated primal iterates:

    W <- P_ball(W + tau X^T Z)
    mu <- (mu + rho tau_mu I - tau_mu Y^T Z) / (1 + tau_mu rho)
    Z  <- dual_prox(Z + sigma (Y (2 mu - mu_old) - X (2 W - W_old)))

A run departs from it in at most one way: fixed centers (mu pinned to I),
an accelerated step schedule, over-relaxation by a nonzero gamma, an elastic
shrink on W when alpha > 0, or the Frobenius loss's dual prox.  Convergence
requires a strict inequality on (tau, tau_mu, sigma); the solver refuses to
run otherwise.

Every fit starts at W = 0, mu = I, Z = 0.  A nuclear ball with d > m runs
the same iteration on an m x r factor R of X = R Q, Q with orthonormal
rows, r <= m the rank of X: a plain fit of r x k weights B, with
W = Q^T B, at O(m r k) per iteration instead of O(m d k); the Notes of
``solve`` say why it is the same.

When at most one row in eight of the extrapolated W is nonzero, as on the
l1 and l21 balls once they select features, X (2 W - W_old) is formed from
those rows and the matching columns of X alone; the Notes of ``solve`` say
why eight.  It agrees with the dense product to rounding, not bit for bit.

On the l1 and l21 balls the gradient step forms X^T Z only on the rows of
G = (W + tau X^T Z) / (1 + tau alpha) that can clear the projection's
threshold.  Row i's magnitude mag(G_i) (its largest entry on l1, its 2-norm
on l21) is bounded without touching X, from the last full product
C = X^T Z_ref:

    mag(G_i) <= u_i = (mag(W_i) + tau (mag(C_i) + ||x_i|| Delta)) / (1 + tau alpha)

by Cauchy-Schwarz, with x_i the i-th column of X and Delta = max_j
||Z_j - Z_ref,j|| on l1 (columns Z_j) and ||Z - Z_ref||_F on l21.  With t a
fixed fraction (SCREEN_FRACTION) of the previous iteration's threshold, the
candidates S are the rows with u_i >= t and the nonzero rows of W.  If
sum_S max(mag(G) - t, 0) >= r (over entries on l1, rows on l21), the ball's
threshold theta, the root of sum max(mag(G) - theta, 0) = r over all of G,
is at least t: every row outside S lies below it and projects to zero, and
theta is the root over S alone.  So P_ball(G) is P_ball(G_S) scattered into
zero rows.  The Notes of ``solve`` give the rounding margin and the rule for
taking the full product.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .linalg import OperatorNormEstimate, label_operator_norm, spectral_norm
from .linalg import sparse_rows_product as _forward
from .losses import ObjectiveBreakdown, dual_prox, primal_objective
from .model import Problem, TrainedModel
from .projections import dual_norm, project_ball

__all__ = [
    "HistoryRecord",
    "SolverDivergenceError",
    "SolverParams",
    "SolverState",
    "StepConditionError",
    "TrainingHistory",
    "VARIANTS",
    "check_step_condition",
    "default_steps",
    "solve",
]

VARIANTS = ("base", "fixed-mu", "accelerated")

# default_steps picks sigma strictly inside the admissible region
STEP_STRICTNESS = 0.999
# a screened gradient step's candidate rows can clear this fraction of the
# previous iteration's threshold
SCREEN_FRACTION = 0.7
EPS = float(np.finfo(np.float64).eps)


class StepConditionError(ValueError):
    """Raised when the step sizes violate the run's convergence condition."""


class SolverDivergenceError(RuntimeError):
    """Raised when an iterate stops being finite."""

    def __init__(self, iteration: int):
        super().__init__(f"non-finite iterate detected at iteration {iteration}")
        self.iteration = iteration


@dataclass(frozen=True)
class SolverParams:
    """Step sizes, variant, over-relaxation and iteration budget.

    The three steps are set together, or left as None to be derived at
    solve time from the problem's norms.  A nonzero ``gamma`` over-relaxes
    every iterate.  The accelerated variant rescales the steps by
    ``1/sqrt(1 + delta*sigma)``, so under a loss with ``delta = 0`` (the l1
    loss, or huber at zero knee) it runs the base iteration bit for bit.
    The criterion's weights (``rho``, the huber ``delta``, ``alpha``) live
    on the Problem.
    """

    tau: float | None = None
    tau_mu: float | None = None
    sigma: float | None = None
    gamma: float = 0.0
    max_iter: int = 2000
    record_every: int = 50
    variant: str = "base"
    early_stop_tol: float | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}, expected one of {VARIANTS}")
        if not -1.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must lie in (-1, 1), got {self.gamma}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")
        if self.record_every < 1:
            raise ValueError(f"record_every must be at least 1, got {self.record_every}")
        for name in ("tau", "tau_mu", "sigma", "early_stop_tol"):
            v = getattr(self, name)
            if v is not None and not 0 < v < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {v}")
        if len({self.tau is None, self.tau_mu is None, self.sigma is None}) > 1:
            raise ValueError("tau, tau_mu and sigma must be set together")


@dataclass
class SolverState:
    """Iterates, iteration counter and extrapolation weight."""

    W: np.ndarray
    mu: np.ndarray
    Z: np.ndarray
    iter: int = 0
    theta: float = 1.0


@dataclass(frozen=True)
class HistoryRecord:
    """Diagnostics captured at one recorded iteration, with the iterate's duality gap."""

    iteration: int
    objective: ObjectiveBreakdown
    ergodic_objective: ObjectiveBreakdown
    gap: float
    wall_time: float


@dataclass
class TrainingHistory:
    """Per-run diagnostics: recorded objectives and gaps plus the final ergodic W.

    ``params`` holds the resolved starting steps (the accelerated schedule
    rescales them every iteration) and ``step_slack`` the slack of the
    convergence condition they were checked against with ``x_norm``.
    ``early_stop_tol`` ends a run at the first record whose gap is at most
    ``early_stop_tol * max(1, |objective|)``; that record is always written, so
    ``iterations()[-1] < params.max_iter`` identifies a stop on the gap.
    ``full_gradients`` counts the iterations that formed X^T Z over every
    feature rather than over a screened step's candidates (every iteration
    on the l12 and nuclear balls).
    """

    records: list[HistoryRecord] = field(default_factory=list)
    ergodic_W: np.ndarray | None = None
    params: SolverParams | None = None
    step_slack: float | None = None
    x_norm: OperatorNormEstimate | None = None
    full_gradients: int = 0

    def iterations(self) -> list[int]:
        return [r.iteration for r in self.records]


def default_steps(X_norm: float, Y_norm: float, m: int, k: int,
                  rho: float, eta: float) -> tuple[float, float, float]:
    """Step sizes from the ball radius and data norms.

    With the weights confined to a ball of radius eta the primal diameter
    is at most 2 eta, which fixes tau; tau_mu is 1 / (2 sqrt(m) Y_norm -
    rho/4); sigma is then set just inside the convergence boundary.
    Raises when rho is too large for the center step's denominator.
    """
    if X_norm <= 0 or Y_norm <= 0:
        raise ValueError("data norms must be positive")
    if eta <= 0:
        raise ValueError(f"eta must be positive, got {eta}")
    tau = eta / (math.sqrt(m * k) * X_norm)
    den = 2.0 * math.sqrt(m) * Y_norm - 0.25 * rho
    if den <= 0:
        raise ValueError(
            f"center-step denominator is {den:.3e} <= 0; choose a smaller rho")
    tau_mu = 1.0 / den
    sigma = STEP_STRICTNESS / _condition_lhs(tau, tau_mu, 1.0, rho, 0.0,
                                             X_norm, Y_norm, "base")
    return tau, tau_mu, sigma


def _condition_lhs(tau: float, tau_mu: float, sigma: float, rho: float,
                   gamma: float, X_norm: float, Y_norm: float, variant: str) -> float:
    if variant == "fixed-mu":
        return sigma * tau * X_norm**2
    if gamma >= 0.5:
        return sigma * (tau_mu * Y_norm**2 + tau * X_norm**2)
    # at gamma = 0 the factor is exactly 1, giving the base condition bit for bit
    shrink = 1.0 + 0.25 * tau_mu * rho * (1.0 - 2.0 * gamma) / (1.0 - gamma)
    return sigma * (tau_mu * Y_norm**2 / shrink + tau * X_norm**2)


def check_step_condition(params: SolverParams, X_norm: float, Y_norm: float,
                         rho: float) -> tuple[bool, float]:
    """Whether the convergence inequality of ``params``' variant and gamma holds strictly.

    ``rho`` is the problem's center weight.  Returns ``(ok, slack)`` with
    ``slack = 1 - lhs``; the condition passes only when the slack is
    strictly positive.
    """
    if params.tau is None:
        raise ValueError("params must carry explicit tau, tau_mu and sigma")
    lhs = _condition_lhs(params.tau, params.tau_mu, params.sigma, rho,
                         params.gamma, X_norm, Y_norm, params.variant)
    return lhs < 1.0, 1.0 - lhs


def _gradient(X: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """X^T Z, Fortran-ordered: the transpose of the row-major product Z^T X.

    OpenBLAS gives it the bits of ``X.T @ Z`` at every shape tested, and at
    d = 20000 in about a quarter of the time; ``TestByteIdentity`` guards
    both.  The copy of Z^T is small and makes the product faster at d = 1000.
    """
    return (np.ascontiguousarray(Z.T) @ X).T


def _shift(C: np.ndarray, W: np.ndarray, tau: float, alpha: float) -> np.ndarray:
    """(W + tau C) / (1 + tau alpha), in C's buffer: the input of the W step."""
    C *= tau
    C += W
    if alpha > 0:
        C /= 1.0 + tau * alpha
    return C


def _extrapolate(W, W_old, theta, out=None, tmp=None) -> np.ndarray:
    """W + theta (W - W_old), as (1 + theta) W - theta W_old, into ``out`` if given."""
    W_ext = np.multiply(W, 1.0 + theta, out=out)
    W_ext -= W_old if theta == 1.0 else np.multiply(W_old, theta, out=tmp)
    return W_ext


class _PrimalStep:
    """The W step P_ball((W + tau X^T Z) / (1 + tau alpha)) and the coupling X W_ext.

    On the l1 and l21 balls the W step is screened (the Notes of ``solve``):
    it keeps Z_ref and the row magnitudes of the last full product X^T Z_ref
    and the threshold theta of the last projection, and forms X^T Z from the
    columns of X on the candidate rows when they certify.  The candidates
    hold every nonzero row of the W they step from, so the new W, and its
    extrapolation, are zero outside them: ``rows`` and ``columns`` keep them
    and X[:, rows] for the coupling product, and are None after a full step.
    ``full`` counts the steps that formed all of X^T Z.
    """

    def __init__(self, X: np.ndarray, ball, k: int):
        m, d = X.shape
        self.X, self.ball = X, ball
        self.screens = ball.kind in ("l1", "l21")
        self.full = 0
        self.theta = 0.0
        self.rows = self.columns = None
        # overwritten by every coupling product after a full step
        self.W_ext = np.empty((d, k), order="F")
        self.W_tmp = np.empty_like(self.W_ext)
        if self.screens:
            self.col_norms = np.sqrt(np.einsum("ij,ij->j", X, X))
            self.slack = ((d + 2) * k + m + 20) * EPS

    def _terms(self, A: np.ndarray) -> np.ndarray:
        """The magnitudes the threshold is taken over: entries on l1, row 2-norms on l21."""
        return np.abs(A) if self.ball.kind == "l1" else np.sqrt(np.einsum("ij,ij->i", A, A))

    def _size(self, Z: np.ndarray) -> float:
        """max_j ||Z_j|| over columns on l1, ||Z||_F on l21: the bound's factor of ||x_i||."""
        squares = np.einsum("ij,ij->j", Z, Z)
        return math.sqrt(squares.max() if self.ball.kind == "l1" else squares.sum())

    def __call__(self, W, Z, tau, alpha):
        if self.theta > 0.0:
            W_new = self._candidate_step(W, Z, tau, alpha)
            if W_new is not None:
                return W_new
        self.full += 1
        self.rows = self.columns = None
        C = _gradient(self.X, Z)
        if self.screens:
            self.Z_ref, self.ref_size = Z.copy(), self._size(Z)
            self.ref_magnitudes = (np.abs(C).max(axis=1) if self.ball.kind == "l1"
                                   else self._terms(C))
        G = _shift(C, W, tau, alpha)
        W_new = project_ball(G, self.ball)
        if self.screens:
            self.theta = float((self._terms(G) - self._terms(W_new)).max())
        return W_new

    def _candidate_step(self, W, Z, tau, alpha):
        """The step from the rows that can clear t.

        Returns None when more than d / 8 rows can, or when they fail to certify.
        """
        X, r = self.X, self.ball.radius
        m, d = X.shape
        z_size = self._size(Z)
        drift = self._size(Z - self.Z_ref) + m * EPS * (z_size + self.ref_size)
        # u_i (1 + tau alpha) / tau on the zero rows of W; the others are candidates
        bound = self.col_norms * drift
        bound += self.ref_magnitudes
        if self.rows is None:
            bound[np.logical_or.reduce(W.T != 0, axis=0)] = np.inf
        else:
            bound[self.rows[np.logical_or.reduce(W[self.rows].T != 0, axis=0)]] = np.inf
        shrink = 1.0 + tau * alpha
        t = SCREEN_FRACTION * self.theta
        rows = np.flatnonzero(bound >= ((t * (1.0 - self.slack) - EPS * r) * shrink) / tau)
        if 8 * rows.size > d:
            return None
        columns = X[:, rows]
        G = _shift(_gradient(columns, Z), W[rows], tau, alpha)
        terms = self._terms(G)
        n = terms.size
        x_max = float(self.col_norms[rows].max(initial=0.0))
        # rounding of both products, the shift and the norms (Notes)
        beta = EPS * (2 * m * (tau / shrink) * x_max * z_size
                      + (G.shape[1] + 4) * terms.max(initial=0.0))
        if np.maximum(terms - t, 0.0).sum() < (r + n * beta) * (1.0 + (n + 2) * EPS):
            return None
        P = project_ball(G, self.ball)
        self.theta = float((terms - self._terms(P)).max())
        self.rows, self.columns = rows, columns
        W_new = np.zeros_like(W)
        W_new[rows] = P
        return W_new

    def forward(self, W, W_old, theta, out):
        """X W_ext, W_ext = W + theta (W - W_old), into ``out``; over ``columns`` when kept."""
        if self.rows is None:
            return _forward(self.X, _extrapolate(W, W_old, theta, self.W_ext, self.W_tmp), out)
        return _forward(self.columns, _extrapolate(W[self.rows], W_old[self.rows], theta), out)


def _duality_gap(primal: float, Z: np.ndarray, problem: Problem, fixed_mu: bool) -> float:
    """Primal value minus the dual value D(Z); no step size enters, so any variant.

    D(Z) = -(delta/2)||Z||^2 + tr(Y^T Z) - ||Y^T Z||^2/(2 rho) - eta ||X^T Z||_*; fixed centers
    drop the ||Y^T Z||^2 term, free ones give +inf at rho = 0.  A positive alpha swaps the last
    term for min over the ball of (alpha/2)||W||^2 - <X^T Z, W>, reached at P_ball(X^T Z/alpha).
    """
    YtZ = problem.Y.T @ Z
    dual = float(np.trace(YtZ)) - 0.5 * problem.loss.delta * float(np.sum(Z * Z))
    if not fixed_mu:
        if problem.rho == 0:
            return math.inf
        dual -= float(np.sum(YtZ * YtZ)) / (2.0 * problem.rho)
    # C order: the sums below add in memory order
    V = np.ascontiguousarray(_gradient(problem.X, Z))
    if problem.alpha > 0:
        W = project_ball(V / problem.alpha, problem.ball)
        return primal - dual + float(np.sum(V * W)) - 0.5 * problem.alpha * float(np.sum(W * W))
    return primal - dual + problem.ball.radius * dual_norm(V, problem.ball.kind)


def solve(problem: Problem, params: SolverParams, callback=None
          ) -> tuple[TrainedModel, TrainingHistory]:
    """Run the primal-dual iteration for ``params.max_iter`` iterations.

    Parameters
    ----------
    problem : Problem
        Training instance; its ball picks the projection, its loss the
        dual prox, and a positive alpha adds the elastic shrink.
    params : SolverParams
        Steps, variant, gamma and budget.  Missing step sizes are derived
        from the problem norms; the iteration's convergence condition is
        checked before iterating and the solver refuses to run when it fails.
    callback : callable, optional
        Called after every iteration with a live SolverState view; copy
        anything you keep.

    Returns
    -------
    (TrainedModel, TrainingHistory)
        The final (non-ergodic) weights and centers, and diagnostics with
        recorded objectives and duality gaps and the final ergodic W.

    Notes
    -----
    Every fit starts at W = 0, mu = I, Z = 0.  Under fixed centers mu
    stays I, so the dual step's Y (2 mu - mu_old) is exactly Y.

    The estimate of ||X|| behind the derived steps, the step condition and
    ``history.x_norm`` is ``spectral_norm(X)``, and a wide nuclear fit
    (below) factors X from ``eigh(X @ X.T)``.  A problem built by
    ``classify.train_model`` carries both from ``normalize_features``
    instead (1.0 with the raw estimate's iteration count and ``converged``
    flag, and the raw Gram matrix over the squared scale), so a fit forms
    the Gram matrix and runs the power loop once.  These differ from what
    ``solve`` would form on the scaled X only by rounding.

    Any two departures from the base iteration (a non-base variant, a
    nonzero gamma, a positive alpha, the Frobenius loss) raise ValueError
    naming both: each is written and checked against the base alone.

    Over-relaxation keeps the feasible pre-relaxation iterates for the
    ergodic averages, the recorded diagnostics and the returned model;
    only the internal recursion sees the relaxed variables.

    A nuclear fit with more features than samples (d > m) runs on a
    factor of X.  ``solve`` takes the eigenpairs (lam, V) of K = X X^T and
    keeps the r with lam > lam_max m eps: the others are zero up to
    rounding, as one is for a column-centred X of rank m - 1.
    R = V_r diag(lam_r)^(1/2) and T = V_r diag(lam_r)^(-1/2) give
    X = R Q with Q = T^T X, whose rows are orthonormal, and the loop is a
    plain fit of r x k weights B on ``replace(problem, X=R)``, with the
    steps from the estimate of ||X||.  It is the same iteration: from W = 0
    every update stays in the row space of X (X^T Z = Q^T R^T Z; the matrix
    representer theorem), and W = Q^T B maps B's products with R, Frobenius
    norm and singular values to W's with X, so the nuclear projection, the
    objective and the duality gap are those of B.  W = X^T (T B) is formed,
    column-major, only for the callback, the returned model and the ergodic
    average.  Results agree with the d-space iteration to rounding, not bit
    for bit.

    After a full W step, every fit forms the coupling product X W_ext from
    the nonzero rows of the extrapolated iterate W_ext and the matching
    columns of X alone whenever at most one row in eight is nonzero, and
    multiplies by all of X otherwise; the choice is made every iteration
    from W_ext itself (after a screened step, below, from the candidate
    rows' block of W_ext and the columns the step gathered), and
    an iterate with more than k d / 8 nonzero entries takes the dense
    product without building the row mask.  Each record forms X W of its
    iterate and of the ergodic average by the same rule.  Eight because
    gathering columns of the row-major X reads one 64-byte line per 8-byte
    entry, so at that density the gather touches as many lines as the
    dense product streams (measured at k = 4, it stops paying between one
    row in ten at d = 20000 and one in seven at d = 1000).  The restricted
    product agrees with the dense one to rounding, not bit for bit.

    On the l1 and l21 balls the W step is screened (module docstring).
    Each full product C = X^T Z_ref is kept as Z_ref and its row magnitudes
    mag(C_i), and the column norms ||x_i|| are formed once per fit.  While
    the previous projection's threshold theta is positive, a step bounds
    every row by u_i and takes the candidates S, t = SCREEN_FRACTION theta;
    S also holds every nonzero row of the W it steps from, so that the new W
    and W_ext are zero outside S and the coupling product can use X[:, S]
    too.  When 8 |S| <= d (the one-in-eight rule above) it forms G_S from
    X[:, S] and, if sum_S max(mag(G_S) - t, 0) reaches r, projects G_S and
    scatters it into a zero W.  Otherwise, and while theta = 0 (the first
    step, or a ball the step's input lies inside), it forms all of X^T Z,
    projects it and keeps it as the new reference.  Either path projects
    once per step.
    ``history.full_gradients`` counts the steps that formed all of X^T Z;
    on the l12 and nuclear balls that is every step.  theta is read back off
    the projection as max(mag(G) - mag(P_ball(G))), which is the threshold
    on the terms it shrinks and at most it on the ones it zeroes.

    Rounding.  A computed dot product of x_i with a column z, in any order
    of summation, lies within m eps ||x_i|| ||z|| of the exact one, so Delta
    carries m eps (||Z|| + ||Z_ref||) (the largest column norms on l1, the
    Frobenius norms on l21), and u_i bounds row i of the exact G and of every
    computed one, up to the rounding of u_i itself and of the norms, at most
    (m + 2k + 18) eps relative.  The threshold a projection computes lies
    within eps (r + (n + 2) theta) of the exact one, n <= d k the number of
    terms.  So the candidates are the rows with u_i >= t (1 - slack) - eps r,
    slack = ((d + 2) k + m + 20) eps.  The certificate asks the computed sum
    of the n terms to reach (r + n beta)(1 + (n + 2) eps), where beta = eps
    (2 m tau' max_S ||x_i|| ||Z|| + (k + 4) max mag(G_S)), tau' = tau / (1 +
    tau alpha), bounds how far a term of G_S lies from the full product's.
    Then the full G's exact threshold is at least t, its computed threshold
    is above every excluded row, and the excluded rows are zero in P_ball of
    the full G as well.  The product over X[:, S] and the projection of the
    shorter G_S round differently from the full ones, so screened fits agree
    with the unscreened iteration to rounding, not bit for bit.
    """
    variant = params.variant
    departures = [name for name, on in [
        (f"variant {variant!r}", variant != "base"),
        (f"gamma={params.gamma:g}", params.gamma != 0.0),
        (f"alpha={problem.alpha:g}", problem.alpha > 0),
        ("the frobenius loss", problem.loss.kind == "frobenius")] if on]
    if len(departures) > 1:
        raise ValueError(f"cannot combine {' and '.join(departures)}: "
                         f"a run departs from the base iteration in at most one way")
    X, Y, ball, loss = problem.X, problem.Y, problem.ball, problem.loss
    m, d = X.shape
    k = Y.shape[1]
    rho, delta, alpha, gamma = problem.rho, loss.delta, problem.alpha, params.gamma

    x_norm = problem._x_norm if problem._x_norm is not None else spectral_norm(X)
    X_norm = x_norm.value
    Y_norm = label_operator_norm(Y)
    if params.tau is not None:
        tau, tau_mu, sigma = params.tau, params.tau_mu, params.sigma
    else:
        tau, tau_mu, sigma = default_steps(X_norm, Y_norm, m, k, rho, ball.radius)
        # derived defaults target the base condition; shrink sigma when the
        # run's condition (variant and gamma) is stricter
        lhs = _condition_lhs(tau, tau_mu, sigma, rho, gamma, X_norm, Y_norm, variant)
        if lhs >= STEP_STRICTNESS:
            sigma *= STEP_STRICTNESS / lhs
    resolved = replace(params, tau=tau, tau_mu=tau_mu, sigma=sigma)
    ok, slack = check_step_condition(resolved, X_norm, Y_norm, rho)
    if not ok:
        condition = variant if gamma == 0.0 else f"gamma={gamma:g}"
        raise StepConditionError(
            f"step sizes violate the {condition} convergence condition "
            f"(slack {slack:.3e}); reduce sigma or the primal steps")

    # A wide nuclear fit runs on the factor R of X = R Q (Notes), whose
    # weights B give W = Q^T B = X^T (T B); W is formed only where it is seen.
    T = None
    if ball.kind == "nuclear" and d > m:
        lam, V = np.linalg.eigh(problem._gram if problem._gram is not None else X @ X.T)
        keep = lam > lam[-1] * m * EPS
        root = np.sqrt(lam[keep])
        T = V[:, keep] / root
        problem = replace(problem, X=V[:, keep] * root)
    X_full, X = X, problem.X

    def weights(W):
        return W if T is None else _gradient(X_full, T @ W)

    # W and every array derived from it are Fortran-ordered (k rows in
    # memory), the layout of the gradient (Z^T X)^T; the projections keep it.
    W = np.zeros((X.shape[1], k), order="F")
    mu = np.eye(k)
    Z = np.zeros((m, k))

    I_k = np.eye(k)
    sum_W = np.zeros_like(W)
    sum_mu = np.zeros_like(mu)
    fixed_mu = variant == "fixed-mu"
    accelerated = variant == "accelerated"

    # the coupling is overwritten every iteration; W, mu and Z are new
    # arrays each time, as the callback and model keep them
    coupling = np.empty_like(Z)

    step = _PrimalStep(X, ball, k)
    history = TrainingHistory(params=resolved, step_slack=slack, x_norm=x_norm)
    theta = 1.0
    t0 = time.perf_counter()

    n = 0
    for n in range(1, params.max_iter + 1):
        W_old, mu_old, Z_old = W, mu, Z

        W = step(W, Z, tau, alpha)
        if not fixed_mu:
            mu = (mu_old + (rho * tau_mu) * I_k - tau_mu * (Y.T @ Z)) / (1.0 + tau_mu * rho)

        if accelerated:
            theta = 1.0 / math.sqrt(1.0 + delta * sigma)
        step.forward(W, W_old, theta, coupling)
        np.subtract(Y @ ((1.0 + theta) * mu - theta * mu_old), coupling, out=coupling)
        coupling *= sigma
        coupling += Z
        Z = dual_prox(coupling, sigma, loss)

        if accelerated:
            sigma *= theta
            tau /= theta
            tau_mu /= theta
            lhs = _condition_lhs(tau, tau_mu, sigma, rho, gamma, X_norm, Y_norm, variant)
            if lhs >= 1.0:
                raise StepConditionError(
                    f"accelerated step rescaling violated the convergence "
                    f"condition at iteration {n}")

        # feasible iterates drive the averages, diagnostics and the output
        W_f, mu_f, Z_f = W, mu, Z
        if not (np.isfinite(W_f).all() and np.isfinite(mu_f).all()
                and np.isfinite(Z_f).all()):
            raise SolverDivergenceError(n)
        sum_W += W_f
        sum_mu += mu_f

        if gamma != 0.0:
            W = W_f + gamma * (W_f - W_old)
            mu = mu_f + gamma * (mu_f - mu_old)
            Z = Z_f + gamma * (Z_f - Z_old)

        if callback is not None:
            callback(SolverState(W=weights(W_f), mu=mu_f, Z=Z_f, iter=n, theta=theta))
        if n % params.record_every == 0 or n == params.max_iter:
            objective = primal_objective(W_f, mu_f, problem)
            gap = _duality_gap(objective.total, Z_f, problem, fixed_mu)
            history.records.append(HistoryRecord(
                iteration=n,
                objective=objective,
                ergodic_objective=primal_objective(sum_W / n, sum_mu / n, problem),
                gap=gap,
                wall_time=time.perf_counter() - t0,
            ))
            tol = params.early_stop_tol
            if tol is not None and gap <= tol * max(1.0, abs(objective.total)):
                break

    history.full_gradients = step.full
    history.ergodic_W = np.ascontiguousarray(weights(sum_W / n))
    # TrainedModel keeps a C-ordered copy of the column-major W
    model = TrainedModel(W=weights(W_f), mu=mu_f, ball=ball, loss=loss)
    return model, history
