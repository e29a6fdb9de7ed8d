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

A nuclear ball with d > m and no starting W runs the same iteration on the
m x k coefficients A of W = X^T A, in the row space of X, at O(m^2 k) per
iteration instead of O(m d k); the Notes of ``solve`` say why it is the same.

When at most one row in eight of the extrapolated W is nonzero, as on the
l1 and l21 balls once they select features, X (2 W - W_old) is formed from
those rows and the matching columns of X alone; the Notes of ``solve`` say
why eight.  It agrees with the dense product to rounding, not bit for bit.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .linalg import OperatorNormEstimate, label_operator_norm, spectral_norm
from .losses import ObjectiveBreakdown, dual_prox, primal_objective
from .model import Problem, TrainedModel
from .projections import RowSpaceBall, dual_norm, project_ball

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
    """

    records: list[HistoryRecord] = field(default_factory=list)
    ergodic_W: np.ndarray | None = None
    params: SolverParams | None = None
    step_slack: float | None = None
    x_norm: OperatorNormEstimate | None = None

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


def _forward(X: np.ndarray, A: np.ndarray, out: np.ndarray) -> np.ndarray:
    """X A into ``out``, from the nonzero rows of A alone when at most one in eight is nonzero.

    A row holding NaN or inf counts as nonzero.  ``A.T`` is a C view of the
    column-major iterate, so the row mask reduces k contiguous rows.
    """
    rows = np.flatnonzero(np.logical_or.reduce(A.T != 0, axis=0))
    if 8 * rows.size > A.shape[0]:
        return np.matmul(X, A, out=out)
    return np.matmul(X[:, rows], A[rows], out=out)


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


def solve(problem: Problem, params: SolverParams,
          initial: SolverState | None = None, callback=None
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
    initial : SolverState, optional
        Starting iterates; defaults to W = 0, mu = I, Z = 0.  Ergodic
        averaging always restarts.
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
    Any two departures from the base iteration (a non-base variant, a
    nonzero gamma, a positive alpha, the Frobenius loss) raise ValueError
    naming both: each is written and checked against the base alone.

    Over-relaxation keeps the feasible pre-relaxation iterates for the
    ergodic averages, the recorded diagnostics and the returned model;
    only the internal recursion sees the relaxed variables.

    A nuclear fit with more features than samples (d > m) and no
    ``initial`` state iterates the m x k coefficients A of W = X^T A.  The
    nuclear norm is invariant under orthogonal maps of R^d, so from W = 0
    every iterate stays in the row space of X (the matrix representer
    theorem), and it is the same iteration: every update but the projection
    is linear in W, and the nuclear projection of X^T B is X^T B C, where
    C = V diag(s'/s) V^T comes from the eigenpairs (s^2, V) of B^T K B,
    K = X X^T, and s' is the l1 projection of s.  W is formed, column-major,
    only for the callback, the records, and the returned model and ergodic
    average.  Results agree with the d-space iteration to rounding, not bit
    for bit.

    Every other fit forms the coupling product X W_ext from the nonzero rows
    of the extrapolated iterate W_ext and the matching columns of X alone
    whenever at most one row in eight is nonzero, and multiplies by all of
    X otherwise; the choice is made every iteration from W_ext itself.
    Eight because gathering columns of the row-major X reads one 64-byte
    line per 8-byte entry, so at that density the gather touches as many
    lines as the dense product streams (measured at k = 4, it stops paying
    between one row in ten at d = 20000 and one in seven at d = 1000).  The
    restricted product agrees with the dense one to rounding, not bit for
    bit.
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

    x_norm = spectral_norm(X)
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

    # The loop updates A: W itself, or in the row space the coefficients of
    # W = X^T A, where the gradient X^T Z becomes Z and X W becomes K A.
    # W and every d x k array derived from it are Fortran-ordered (k x d rows
    # in memory), the layout of the gradient (Z^T X)^T; the projections keep
    # it.  Only the state holds the starting W, so it is freed once replaced.
    row_space = ball.kind == "nuclear" and d > m and initial is None
    if initial is not None:
        A = np.array(initial.W, dtype=np.float64, order="F")
        mu = np.array(initial.mu, dtype=np.float64)
        Z = np.array(initial.Z, dtype=np.float64)
        if A.shape != (d, k) or mu.shape != (k, k) or Z.shape != (m, k):
            raise ValueError("initial state shapes do not match the problem")
        for name, a in (("W", A), ("mu", mu), ("Z", Z)):
            if not np.isfinite(a).all():
                raise ValueError(f"initial.{name} contains non-finite entries")
    else:
        A = np.zeros((m, k)) if row_space else np.zeros((d, k), order="F")
        mu = np.eye(k)
        Z = np.zeros((m, k))
    if row_space:
        K = X @ X.T
        constraint = RowSpaceBall(ball.radius, K)
    else:
        constraint = ball

    def weights(A):
        return _gradient(X, A) if row_space else A

    I_k = np.eye(k)
    sum_A = np.zeros_like(A)
    sum_mu = np.zeros_like(mu)
    fixed_mu = variant == "fixed-mu"
    accelerated = variant == "accelerated"

    # the extrapolation and the coupling are overwritten every iteration;
    # A, mu and Z are new arrays each time, as the callback and model keep them
    A_ext = np.empty_like(A)
    A_tmp = np.empty_like(A)
    coupling = np.empty_like(Z)

    history = TrainingHistory(params=resolved, step_slack=slack, x_norm=x_norm)
    state = SolverState(W=weights(A), mu=mu, Z=Z)
    theta = 1.0
    t0 = time.perf_counter()

    n = 0
    for n in range(1, params.max_iter + 1):
        A_old, mu_old, Z_old = A, mu, Z

        G = Z.copy() if row_space else _gradient(X, Z)
        G *= tau
        G += A
        if alpha > 0:
            G /= 1.0 + tau * alpha
        A = project_ball(G, constraint)
        if not fixed_mu:
            mu = (mu_old + (rho * tau_mu) * I_k - tau_mu * (Y.T @ Z)) / (1.0 + tau_mu * rho)

        if accelerated:
            theta = 1.0 / math.sqrt(1.0 + delta * sigma)
        np.multiply(A, 1.0 + theta, out=A_ext)
        A_ext -= A_old if theta == 1.0 else np.multiply(A_old, theta, out=A_tmp)
        if row_space:
            np.matmul(K, A_ext, out=coupling)
        else:
            _forward(X, A_ext, coupling)
        if fixed_mu:
            np.subtract(Y, coupling, out=coupling)
        else:
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
        A_f, mu_f, Z_f = A, mu, Z
        if not (np.isfinite(A_f).all() and np.isfinite(mu_f).all()
                and np.isfinite(Z_f).all()):
            raise SolverDivergenceError(n)
        sum_A += A_f
        sum_mu += mu_f

        if gamma != 0.0:
            A = A_f + gamma * (A_f - A_old)
            mu = mu_f + gamma * (mu_f - mu_old)
            Z = Z_f + gamma * (Z_f - Z_old)

        record = n % params.record_every == 0 or n == params.max_iter
        # the row space forms W only where the callback or a record sees it
        if row_space and callback is None and not record:
            continue
        W_f = weights(A_f)
        state.W, state.mu, state.Z = W_f, mu_f, Z_f
        state.iter = n
        state.theta = theta

        if callback is not None:
            callback(state)
        if record:
            objective = primal_objective(W_f, mu_f, problem)
            gap = _duality_gap(objective.total, Z_f, problem, fixed_mu)
            history.records.append(HistoryRecord(
                iteration=n,
                objective=objective,
                ergodic_objective=primal_objective(weights(sum_A / n), sum_mu / n, problem),
                gap=gap,
                wall_time=time.perf_counter() - t0,
            ))
            tol = params.early_stop_tol
            if tol is not None and gap <= tol * max(1.0, abs(objective.total)):
                break

    history.ergodic_W = np.ascontiguousarray(weights(sum_A / n))
    # TrainedModel keeps a C-ordered copy of the column-major W
    model = TrainedModel(W=state.W, mu=state.mu, ball=ball, loss=loss)
    return model, history
