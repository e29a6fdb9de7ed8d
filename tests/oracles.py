"""Slow, independently coded routines used as test oracles.

None shares code with the routine it checks: ``l1_threshold_bisection``
bisects the l1 soft threshold directly, ``proj_l1_vector_scan`` is a
sort-free pruning scan against the sort-based l1 projection,
``proj_l12_bisection`` a double bisection against the Newton multiplier
search of ``proj_l12``, and ``spectral_norm_matrix_free`` the power
iteration of ``spectral_norm`` without forming the Gram matrix, and
``solve_reference`` the primal-dual iteration written plainly in the d x k
weights, multiplying by all of X, where ``solve`` runs a nuclear ball on an
m x r factor of X once d > m and multiplies X by the nonzero rows of a
sparse iterate, or by a certified step's rows, only.  ``proj_l1_exact``
runs the sort-and-scan in exact rationals, so no radius is lost in rounding.

``proj_l12_with_state_reference``, ``proj_l1_reference`` and
``stratified_folds_reference`` are the exceptions: they are the l12
projection as written before its search moved to feature-major prefix sums,
the l1 projection as written before it sorted only its candidates, and the
fold deal as written before it kept one fold index per row, kept verbatim
so the tests can assert that the rewrites changed no bit.
``eta_sweep_reference`` is the radius sweep as written when every radius
re-entered ``cross_validate`` and ``train_model`` (both kept verbatim as its
helpers, with ``signature``), binding each fold and the full data again per
radius, so the tests can assert that binding them once changed no bit.
``scores_reference`` is the nearest-center scoring in its old order,
dividing the n x d rows by the feature scale before projecting them, so the
tests can bound how far scaling the n x k projection instead rounds.
"""

from fractions import Fraction

import numpy as np

from pdsparse.classify import (DEFAULT_EPSILON_SCALE, CVResult, Signature, SweepPoint, SweepResult,
                               _require_every_class, evaluate, stratified_folds)
from pdsparse.linalg import (OperatorNormEstimate, _check_scalar, check_matrix, normalize_features,
                             one_hot)
from pdsparse.losses import dual_prox, primal_objective
from pdsparse.projections import (L12_TOL, L12NewtonState, NewtonConvergenceError,
                                  _check_radius, project_ball)
from pdsparse.solver import SolverParams, _duality_gap, solve


def l1_threshold_bisection(v, radius, iters=200):
    """Independent l1 oracle: bisect the threshold t with sum (|v|-t)^+ = radius."""
    a = np.abs(v)
    if a.sum() <= radius:
        return np.asarray(v, dtype=float).copy()
    lo, hi = 0.0, float(a.max())
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if np.maximum(a - mid, 0.0).sum() > radius:
            lo = mid
        else:
            hi = mid
    t = 0.5 * (lo + hi)
    return np.sign(v) * np.maximum(a - t, 0.0)


def proj_l1_vector_scan(v, radius) -> np.ndarray:
    """Project onto the l1 ball with a sort-free pruning scan.

    Single pass maintaining a candidate active set and a running threshold
    estimate, followed by cleanup passes that evict entries falling below
    the threshold.  Expected linear time; kept as an independent code path
    to cross-validate the sort-based method.
    """
    radius = _check_radius(radius)
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector contains non-finite entries")
    a = np.abs(v)
    if a.sum() <= radius:
        return v.copy()

    y = a.tolist()
    active = [y[0]]
    waiting: list[float] = []
    rho = y[0] - radius
    for x in y[1:]:
        if x > rho:
            rho += (x - rho) / (len(active) + 1)
            if rho > x - radius:
                active.append(x)
            else:
                waiting.extend(active)
                active = [x]
                rho = x - radius
    for x in waiting:
        if x > rho:
            active.append(x)
            rho += (x - rho) / len(active)
    # evict entries at or below the threshold until a fixed point is reached
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(active):
            x = active[i]
            if x <= rho:
                active[i] = active[-1]
                active.pop()
                rho += (rho - x) / len(active)
                changed = True
            else:
                i += 1
    return np.sign(v) * np.maximum(a - rho, 0.0)


def proj_l1_reference(v: np.ndarray, radius: float) -> np.ndarray:
    """Sort-and-scan l1 projection of a finite float64 vector; radius checked."""
    a = np.abs(v)
    if a.sum() <= radius:
        return v.copy()
    u = np.sort(a)[::-1]
    css = np.cumsum(u)
    j = np.arange(1, u.size + 1)
    rho = int(np.nonzero(u * j > css - radius)[0][-1])
    theta = (css[rho] - radius) / (rho + 1)
    return np.sign(v) * np.maximum(a - theta, 0.0)


def proj_l1_exact(v, radius) -> np.ndarray:
    """The l1 projection by sort-and-scan in exact rationals, rounded once at the end."""
    u = sorted((Fraction(abs(float(x))) for x in v), reverse=True)
    r = Fraction(float(radius))
    if sum(u) <= r:
        return np.array(v, dtype=np.float64)
    css = theta = Fraction(0)
    for j, uj in enumerate(u):
        css += uj
        if uj > (t := (css - r) / (j + 1)):
            theta = t
    return np.sign(v) * np.array([float(max(Fraction(abs(float(x))) - theta, 0)) for x in v])


def proj_l12_bisection(V, radius, lam_iters: int = 100,
                       threshold_iters: int = 72) -> np.ndarray:
    """Slow independent l12 projection for cross-checking (test oracle).

    For a fixed multiplier the per-row soft threshold solves the scalar
    fixed point d = lam * sum_j (|v_j| - d)^+, found here by bisection; the
    constraint value is decreasing in the multiplier, so an outer bisection
    on lam closes the loop.  No sorting, prefix sums or Newton steps are
    shared with ``proj_l12``.
    """
    radius = _check_radius(radius)
    V = check_matrix(V, "V")
    A = np.abs(V)
    target = radius * radius
    row_l1 = A.sum(axis=1)
    if float((row_l1 * row_l1).sum()) <= target:
        return V.copy()

    row_max = A.max(axis=1)

    def thresholds(lam: float) -> np.ndarray:
        lo = np.zeros(A.shape[0])
        hi = row_max.copy()
        for _ in range(threshold_iters):
            mid = 0.5 * (lo + hi)
            g = lam * np.maximum(A - mid[:, None], 0.0).sum(axis=1) - mid
            grow = g > 0
            lo = np.where(grow, mid, lo)
            hi = np.where(grow, hi, mid)
        return 0.5 * (lo + hi)

    def constraint(lam: float) -> float:
        d = thresholds(lam)
        W = np.maximum(A - d[:, None], 0.0)
        s = W.sum(axis=1)
        return float((s * s).sum())

    lo, hi = 0.0, 1.0
    while constraint(hi) > target:
        hi *= 2.0
        if hi > 1e18:  # pragma: no cover - defensive
            raise RuntimeError("l12 bisection could not bracket the multiplier")
    for _ in range(lam_iters):
        mid = 0.5 * (lo + hi)
        if constraint(mid) > target:
            lo = mid
        else:
            hi = mid
    lam = hi
    d = thresholds(lam)
    return np.sign(V) * np.maximum(A - d[:, None], 0.0)


def _l12_row_state(S: np.ndarray, lam: float):
    """Active counts and per-row best ratios S_ip / (1 + lam p) at fixed lam."""
    n, m = S.shape
    p_range = np.arange(1, m + 1, dtype=np.float64)
    ratios = S / (1.0 + lam * p_range)
    p_idx = np.argmax(ratios, axis=1)
    row_best = ratios[np.arange(n), p_idx]
    return p_idx + 1, row_best


def proj_l12_with_state_reference(V, radius, max_iter: int = 100) -> tuple[np.ndarray, L12NewtonState]:
    """Project onto the l12 ball and return the multiplier-search state.

    The constraint is sum_i (sum_j |w_ij|)^2 <= radius^2.  The multiplier
    lambda starts at a computable lower bound, so the Newton iterates
    increase monotonically toward the root; the per-row active counts are
    refreshed once per multiplier update.  Stops at relative residual
    ``L12_TOL`` and raises ``NewtonConvergenceError`` after ``max_iter``
    updates without convergence.
    """
    radius = _check_radius(radius)
    V = check_matrix(V, "V")
    m = V.shape[1]
    A = np.abs(V)
    target = radius * radius

    row_l1 = A.sum(axis=1)
    if float((row_l1 * row_l1).sum()) <= target:
        # feasible: multiplier 0, all entries active
        return V.copy(), L12NewtonState([0.0], float((row_l1 * row_l1).sum()) - target)

    # stable descending sort: ties keep original column order
    order = np.argsort(-A, axis=1, kind="stable")
    srt = np.take_along_axis(A, order, axis=1)
    S = np.cumsum(srt, axis=1)

    p_range = np.arange(1, m + 1, dtype=np.float64)
    col = np.sqrt((S * S).sum(axis=0))
    lam = max(0.0, float(((col / radius - 1.0) / p_range).max()))
    lambdas = [lam]

    p, row_best = _l12_row_state(S, lam)
    val = float((row_best * row_best).sum())
    if val - target > L12_TOL * target:
        for _ in range(max_iter):
            deriv = 2.0 * float((p * row_best * row_best / (1.0 + lam * p)).sum())
            lam = lam + (val - target) / deriv
            lambdas.append(lam)
            p, row_best = _l12_row_state(S, lam)
            val = float((row_best * row_best).sum())
            if val - target <= L12_TOL * target:
                break
        else:
            raise NewtonConvergenceError(
                f"l12 multiplier search did not converge in {max_iter} iterations "
                f"(residual {val - target:.3e})",
                residual=val - target,
            )

    deltas = lam * row_best
    W = np.sign(V) * np.maximum(A - deltas[:, None], 0.0)
    return W, L12NewtonState(lambdas, val - target)


def spectral_norm_matrix_free(A, max_iter: int = 1000) -> OperatorNormEstimate:
    """``spectral_norm``'s power iteration applied as B^T (B v).

    Same seeded start, stopping rule and null-space redraw as
    ``spectral_norm``, but every step streams the matrix twice; it never
    switches to a precomputed Gram matrix.
    """
    A = check_matrix(A, "A")
    tol = 1e-9
    if not A.any():
        return OperatorNormEstimate(0.0, 0, True)
    B = A if A.shape[0] >= A.shape[1] else A.T
    n = B.shape[1]
    rng = np.random.Generator(np.random.Philox(0))
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    lam = 0.0
    converged = False
    its = 0
    for its in range(1, max_iter + 1):
        w = B.T @ (B @ v)
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            v = rng.standard_normal(n)
            v /= np.linalg.norm(v)
            continue
        v = w / nw
        if abs(nw - lam) <= tol * nw:
            lam = nw
            converged = True
            break
        lam = nw
    return OperatorNormEstimate(float(np.sqrt(lam)), its, converged)


def solve_reference(problem, params, callback=None):
    """``solve``'s iteration written plainly in the d x k weights, for any ball.

    ``params`` carries resolved steps (a solve's ``history.params``).  Every
    iteration forms X^T Z, projects with ``project_ball`` onto the problem's
    ball and multiplies the extrapolated W by all of X; W starts at 0, mu at
    I and Z at 0; ``callback``, if given, sees each iteration's W.  Returns
    the final W and mu, the ergodic W, and for each record its objective,
    its ergodic objective and its duality gap.
    """
    X, Y, loss = problem.X, problem.Y, problem.loss
    m, d = X.shape
    k = Y.shape[1]
    rho, alpha, gamma = problem.rho, problem.alpha, params.gamma
    tau, tau_mu, sigma = params.tau, params.tau_mu, params.sigma
    fixed_mu = params.variant == "fixed-mu"
    W, mu, Z = np.zeros((d, k)), np.eye(k), np.zeros((m, k))
    sum_W, sum_mu = np.zeros((d, k)), np.zeros((k, k))
    records = []
    for n in range(1, params.max_iter + 1):
        W_old, mu_old, Z_old = W, mu, Z
        W = project_ball((W + tau * (X.T @ Z)) / (1.0 + tau * alpha), problem.ball)
        if not fixed_mu:
            mu = (mu + rho * tau_mu * np.eye(k) - tau_mu * (Y.T @ Z)) / (1.0 + tau_mu * rho)
        theta = 1.0
        if params.variant == "accelerated":
            theta = 1.0 / np.sqrt(1.0 + loss.delta * sigma)
        W_bar = W + theta * (W - W_old)
        mu_bar = mu + theta * (mu - mu_old)
        Z = dual_prox(Z + sigma * (Y @ mu_bar - X @ W_bar), sigma, loss)
        sigma, tau, tau_mu = sigma * theta, tau / theta, tau_mu / theta
        sum_W += W
        sum_mu += mu
        if callback is not None:
            callback(W)
        if n % params.record_every == 0 or n == params.max_iter:
            objective = primal_objective(W, mu, problem)
            records.append((objective, primal_objective(sum_W / n, sum_mu / n, problem),
                            _duality_gap(objective.total, Z, problem, fixed_mu)))
        if n < params.max_iter:
            W, mu, Z = (W + gamma * (W - W_old), mu + gamma * (mu - mu_old),
                        Z + gamma * (Z - Z_old))
    return W, mu, sum_W / params.max_iter, records


def scores_reference(X, model) -> np.ndarray:
    """l1 distances of each raw row's projection to each center, scaling X first."""
    W, mu, s = model.W, model.mu, model.feature_scale
    return np.abs(((X / s) @ W)[:, None, :] - mu[None]).sum(axis=2)


def stratified_folds_reference(labels, folds: int, seed: int = 0) -> list[np.ndarray]:
    """The fold deal one sample at a time into per-fold lists, each sorted at the end."""
    labels = np.asarray(labels)
    rng = np.random.Generator(np.random.Philox(seed))
    assignment = [[] for _ in range(folds)]
    offset = 0
    for c in range(int(labels.max()) + 1):
        idx = rng.permutation(np.nonzero(labels == c)[0])
        for j, sample in enumerate(idx):
            assignment[(offset + j) % folds].append(int(sample))
        offset = (offset + idx.size) % folds
    return [np.sort(np.array(a, dtype=np.int64)) for a in assignment]


def _signature_reference(model, epsilon=None):
    """``classify.signature`` as written before it walked the columns of ``W.T``."""
    W = model.W
    if epsilon is None:
        epsilon = DEFAULT_EPSILON_SCALE * float(np.abs(W).max())
    _check_scalar(epsilon, "epsilon", "nonnegative")
    sel = tuple(np.nonzero(np.abs(W[:, j]) > epsilon)[0] for j in range(W.shape[1]))
    return Signature(selected=sel)


def _train_model_reference(X, labels, template, params=None, normalize=True):
    """``classify.train_model`` as written before the sweep bound its data once."""
    labels = np.asarray(labels)
    Y = one_hot(labels, int(labels.max()) + 1)
    _require_every_class(Y.sum(axis=0))
    problem = template.bind(normalize_features(X) if normalize else X, Y)
    return solve(problem, params if params is not None else SolverParams())


def _cross_validate_reference(X, labels, folds, template, params=None, seed=0):
    """``classify.cross_validate`` as written before the sweep bound its folds once."""
    X = check_matrix(X, "X")
    labels = np.asarray(labels)
    k = int(labels.max()) + 1
    params = params if params is not None else SolverParams()
    reports = []
    for test_idx in stratified_folds(labels, folds, seed=seed):
        train_idx = np.setdiff1d(np.arange(labels.shape[0]), test_idx)
        model, _ = solve(template.bind(normalize_features(X[train_idx]),
                                       one_hot(labels[train_idx], k)), params)
        reports.append(evaluate(X[test_idx], labels[test_idx], model))
    return CVResult(reports=tuple(reports))


def eta_sweep_reference(X, labels, etas, template, params=None, folds=4, seed=0):
    """The sweep binding every fold and the full data again for each radius."""
    etas = [float(e) for e in etas]
    if not etas:
        raise ValueError("need at least one radius")
    if sorted(etas) != etas:
        raise ValueError("radii must be sorted ascending")
    points = []
    for eta in etas:
        t = template.with_radius(eta)
        cv = _cross_validate_reference(X, labels, folds, t, params=params, seed=seed)
        full_model, _ = _train_model_reference(X, labels, t, params=params)
        sel = _signature_reference(full_model).union()
        points.append(SweepPoint(eta=eta, cv=cv, selected_features=sel))
    return SweepResult(points=tuple(points))
