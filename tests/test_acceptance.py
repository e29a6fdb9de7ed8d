"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from pdsparse.classify import cross_validate, signature, train_model
from pdsparse.data_io import SyntheticSpec, generate_synthetic
from pdsparse.linalg import normalize_features, one_hot
from pdsparse.losses import LossSpec
from pdsparse.model import Problem, ProblemTemplate
from pdsparse.projections import (
    BallSpec,
    ball_norm,
    clip_box,
    proj_frobenius_unit,
    proj_l1_matrix,
    proj_l12,
    proj_l12_with_state,
    proj_l21,
    proj_nuclear,
)
from pdsparse.solver import (
    SolverParams,
    StepConditionError,
    check_step_condition,
    default_steps,
    solve,
)

from conftest import make_rng, random_feasible
from oracles import l1_threshold_bisection, proj_l1_vector_scan, proj_l12_bisection


def report(n, text):
    print(f"criterion {n:02d} PASS - {text}")


def l21_row_formula_oracle(V, radius):
    norms = np.sqrt((V * V).sum(axis=1))
    t = l1_threshold_bisection(norms, radius)
    out = np.zeros_like(V)
    for i in range(V.shape[0]):
        denom = max(t[i], norms[i])
        if denom > 0:
            out[i] = t[i] * V[i] / denom
    return out


def test_criterion_01_projection_oracle_equivalence():
    t0 = time.time()
    rng = make_rng(1001)
    worst = {"l1": 0.0, "l21": 0.0, "l12": 0.0, "nuclear": 0.0}
    for _ in range(200):
        n = int(rng.integers(2, 51))
        k = int(rng.integers(1, 9))
        V = rng.standard_normal((n, k)) * float(rng.uniform(0.3, 3.0))

        r = float(rng.uniform(0.1, 0.95)) * np.abs(V).sum()
        got = proj_l1_matrix(V, r)
        oracle = l1_threshold_bisection(V.ravel(), r).reshape(V.shape)
        scan = proj_l1_vector_scan(V.ravel(), r).reshape(V.shape)
        worst["l1"] = max(worst["l1"], np.abs(got - oracle).max(),
                          np.abs(got - scan).max())

        r = float(rng.uniform(0.1, 0.95)) * ball_norm(V, "l21")
        worst["l21"] = max(worst["l21"],
                           np.abs(proj_l21(V, r) - l21_row_formula_oracle(V, r)).max())

        r = float(rng.uniform(0.1, 0.95)) * ball_norm(V, "l12")
        worst["l12"] = max(worst["l12"],
                           np.abs(proj_l12(V, r) - proj_l12_bisection(V, r)).max())

        diag = rng.standard_normal(min(n, k)) * 2.0
        D = np.zeros((min(n, k), min(n, k)))
        np.fill_diagonal(D, diag)
        r = float(rng.uniform(0.1, 0.95)) * np.abs(diag).sum()
        analytic = np.zeros_like(D)
        np.fill_diagonal(analytic, np.sign(diag) * l1_threshold_bisection(np.abs(diag), r))
        worst["nuclear"] = max(worst["nuclear"],
                               np.abs(proj_nuclear(D, r) - analytic).max())
    elapsed = time.time() - t0
    assert all(w <= 1e-7 for w in worst.values()), worst
    assert elapsed <= 60.0
    report(1, f"oracle equivalence, worst errors {worst} in {elapsed:.1f}s")


PROJECTIONS = {
    "l1": (lambda V, r: proj_l1_matrix(V, r), lambda V: ball_norm(V, "l1")),
    "l21": (lambda V, r: proj_l21(V, r), lambda V: ball_norm(V, "l21")),
    "l12": (lambda V, r: proj_l12(V, r), lambda V: ball_norm(V, "l12")),
    "nuclear": (lambda V, r: proj_nuclear(V, r), lambda V: ball_norm(V, "nuclear")),
    "frobenius-unit": (lambda V, r: proj_frobenius_unit(V), np.linalg.norm),
    "box": (lambda V, r: clip_box(V), lambda V: np.abs(V).max() if V.size else 0.0),
}


def _feasible_point(rng, shape, name, radius):
    if name in ("l1", "l21", "l12", "nuclear"):
        return random_feasible(rng, shape, name, radius)
    if name == "frobenius-unit":
        V = rng.standard_normal(shape)
        return V * float(rng.uniform(0.05, 0.99)) / max(np.linalg.norm(V), 1e-12)
    return rng.uniform(-1, 1, shape)


def test_criterion_02_projection_property_suite():
    t0 = time.time()
    rng = make_rng(1002)
    for name, (proj, norm) in PROJECTIONS.items():
        for _ in range(1000):
            V = rng.standard_normal((int(rng.integers(2, 9)), int(rng.integers(2, 5)))) * 2
            radius = 1.0 if name in ("frobenius-unit", "box") else \
                float(rng.uniform(0.2, 1.2)) * max(norm(V), 1e-9)
            P = proj(V, radius)
            assert norm(P) <= radius * (1 + 1e-9)
            assert np.abs(proj(P, radius) - P).max() <= 1e-10
            U = rng.standard_normal(V.shape) * 2
            PU = proj(U, radius)
            assert np.linalg.norm(PU - P) <= np.linalg.norm(U - V) * (1 + 1e-9)
            slack = 1e-8 * np.linalg.norm(V) ** 2
            for _ in range(5):
                Wf = _feasible_point(rng, V.shape, name, radius)
                assert np.sum((V - P) * (Wf - P)) <= slack
    elapsed = time.time() - t0
    assert elapsed <= 60.0
    report(2, f"feasibility/idempotence/non-expansiveness/variational x1000 "
              f"for {len(PROJECTIONS)} projections in {elapsed:.1f}s")


def test_criterion_03_l12_newton_monotone_and_convergent():
    rng = make_rng(1003)
    trials = 10_000
    monotone = 0
    converged = 0
    for _ in range(trials):
        n = int(rng.integers(1, 13))
        m = int(rng.integers(1, 7))
        V = rng.standard_normal((n, m)) * float(rng.uniform(0.5, 3.0))
        norm = ball_norm(V, "l12")
        radius = float(rng.uniform(0.05, 1.0)) * norm if norm > 0 else 1.0
        radius = max(radius, 1e-6)
        _, state = proj_l12_with_state(V, radius)
        if np.all(np.diff(np.array(state.lambdas)) >= 0):
            monotone += 1
        if abs(state.residual) <= 1e-8 * radius * radius and state.iterations <= 100:
            converged += 1
    assert monotone == trials
    assert converged >= 0.999 * trials
    report(3, f"multiplier nondecreasing in {monotone}/{trials} trials, "
              f"converged in {converged}/{trials}")


def _rate_instance():
    rng = make_rng(42)
    m, d, k = 100, 200, 4
    X = normalize_features(rng.standard_normal((m, d))).X
    Y = one_hot(np.arange(m) % k, k)
    return Problem(X=X, Y=Y, loss=LossSpec("huber", 1.0),
                   ball=BallSpec("l1", 2.0), rho=1.0)


def test_criterion_04_ergodic_rate():
    t0 = time.time()
    prob = _rate_instance()
    params = SolverParams(max_iter=2000, record_every=250)
    _, hist = solve(prob, params)
    erg = {r.iteration: r.ergodic_objective.total for r in hist.records}

    ref_params = SolverParams(max_iter=30000, record_every=5000)
    _, ref_hist = solve(prob, ref_params)
    ref = min(min(r.objective.total for r in ref_hist.records),
              ref_hist.records[-1].ergodic_objective.total)

    ratios = {}
    for N in (250, 500, 1000):
        gap_n = erg[N] - ref
        gap_2n = erg[2 * N] - ref
        assert gap_n > 0
        ratios[N] = gap_2n / gap_n
        assert ratios[N] <= 0.75
    elapsed = time.time() - t0
    assert elapsed <= 30.0
    report(4, "ergodic gap ratios " +
           ", ".join(f"gap({2 * n})/gap({n})={r:.3f}" for n, r in ratios.items()) +
           f" in {elapsed:.1f}s")


def test_criterion_05_step_condition_enforcement():
    rng = make_rng(1005)
    for _ in range(100):
        m = int(rng.integers(4, 500))
        k = int(rng.integers(2, 12))
        Y_norm = float(np.sqrt(rng.integers(1, m + 1)))
        rho = float(rng.uniform(0, 3))
        eta = float(rng.uniform(0.1, 20))
        tau, tau_mu, sigma = default_steps(1.0, Y_norm, m, k, rho, eta)
        ok, slack = check_step_condition(
            SolverParams(tau=tau, tau_mu=tau_mu, sigma=sigma), 1.0, Y_norm, rho=rho)
        assert ok and slack > 0

    prob = _rate_instance()
    for variant, gamma, alpha in [("base", 0.0, 0.0), ("fixed-mu", 0.0, 0.0),
                                  ("accelerated", 0.0, 0.0), ("base", 0.4, 0.0),
                                  ("base", 0.0, 0.3)]:
        params = SolverParams(tau=5.0, tau_mu=5.0, sigma=5.0, variant=variant, gamma=gamma)
        with pytest.raises(StepConditionError):
            solve(replace(prob, alpha=alpha), params)
    report(5, "default steps strict on 100 draws; violating steps refused "
              "for every variant")


def test_criterion_06_variant_reduction_identities():
    rng = make_rng(1006)
    m, d, k = 30, 20, 3
    X = normalize_features(rng.standard_normal((m, d))).X
    Y = one_hot(np.arange(m) % k, k)
    prob = Problem(X=X, Y=Y, loss=LossSpec("l1"), ball=BallSpec("l1", 2.0),
                   rho=1.0, alpha=0.0)

    def iterates(variant):
        out = []
        params = SolverParams(variant=variant, max_iter=200)
        solve(prob, params, callback=lambda s: out.append(
            (s.W.copy(), s.mu.copy(), s.Z.copy())))
        return out

    diff = max(np.abs(a - b).max() for ta, tb in zip(iterates("accelerated"), iterates("base"))
               for a, b in zip(ta, tb))
    assert diff <= 1e-12
    report(6, f"reduction identity over 200 iterations: accelerated(delta=0) diff={diff:.1e}")


def test_criterion_07_huber_smoothing():
    oscs = []
    for seed in range(5):
        ds = generate_synthetic(SyntheticSpec(
            m=60, d=40, k=3, s=5, separation=1.5, noise_sd=1.0,
            dropout_rate=0.2, seed=seed))
        X = normalize_features(ds.X).X
        Y = one_hot(ds.labels, 3)
        osc = {}
        for delta in (0.0, 1.0):
            loss = LossSpec("huber", delta) if delta else LossSpec("l1")
            prob = Problem(X=X, Y=Y, loss=loss, ball=BallSpec("l1", 2.0), rho=1.0)
            params = SolverParams(variant="fixed-mu", max_iter=800, record_every=1)
            _, hist = solve(prob, params)
            f = np.array([r.objective.total for r in hist.records])
            f = f / f[0]
            half = f[len(f) // 2:]
            osc[delta] = float(np.abs(np.diff(half)).sum())
        assert osc[1.0] < osc[0.0], f"seed {seed}: {osc}"
        oscs.append(osc)
    report(7, "huber loss sequence strictly smoother on all 5 seeds, e.g. " +
           f"seed0 l1={oscs[0][0.0]:.2e} huber={oscs[0][1.0]:.2e}")


def _anisotropic_dataset(seed, scales=(0.4, 1.0, 2.5, 6.0)):
    spec = SyntheticSpec(m=120, d=80, k=4, s=5, separation=1.0, noise_sd=0.6,
                         dropout_rate=0.2, seed=seed)
    ds = generate_synthetic(spec)
    X = ds.X.copy()
    for j, c in enumerate(scales):
        X[:, j * 5:(j + 1) * 5] *= c
    return X, ds.labels


def test_criterion_08_adaptive_centers_beat_fixed():
    tpl = ProblemTemplate(loss=LossSpec("huber", 1.0), ball=BallSpec("l1", 2.0),
                          rho=1.0)
    full, fixed = [], []
    for seed in range(5):
        X, labels = _anisotropic_dataset(seed)
        cv_full = cross_validate(X, labels, 4, tpl,
                                 params=SolverParams(max_iter=1500), seed=seed)
        cv_fixed = cross_validate(X, labels, 4, tpl,
                                  params=SolverParams(max_iter=1500,
                                                      variant="fixed-mu"),
                                  seed=seed)
        full.append(cv_full.mean_accuracy)
        fixed.append(cv_fixed.mean_accuracy)
    assert np.mean(full) >= np.mean(fixed)
    report(8, f"adaptive centers mean acc {np.mean(full):.3f} >= "
              f"fixed-identity {np.mean(fixed):.3f} over 5 seeds")


END_TO_END = SyntheticSpec(m=200, d=1000, k=4, s=20, separation=2.0,
                           noise_sd=1.0, dropout_rate=0.3, seed=0)
SUITABLE_ETA = 8.0


def test_criterion_09_end_to_end_synthetic():
    t0 = time.time()
    ds = generate_synthetic(END_TO_END)
    tpl = ProblemTemplate(loss=LossSpec("huber", 1.0),
                          ball=BallSpec("l1", SUITABLE_ETA), rho=1.0)
    params = SolverParams(max_iter=1500)
    cv = cross_validate(ds.X, ds.labels, 4, tpl, params=params, seed=0)
    assert cv.mean_accuracy >= 0.95

    model, _ = train_model(ds.X, ds.labels, tpl, params=params)
    selected = set(signature(model).union().tolist())
    true_features = set(range(END_TO_END.s * END_TO_END.k))
    recall = len(selected & true_features) / len(true_features)
    assert recall >= 0.80
    elapsed = time.time() - t0
    assert elapsed <= 120.0
    report(9, f"4-fold CV accuracy {cv.mean_accuracy:.3f} >= 0.95, signature "
              f"recall {recall:.2f} >= 0.80 at eta={SUITABLE_ETA} in {elapsed:.0f}s")


def test_criterion_10_slope_break():
    from pdsparse.classify import eta_sweep

    ds = generate_synthetic(END_TO_END)
    tpl = ProblemTemplate(loss=LossSpec("huber", 1.0), ball=BallSpec("l1", 1.0),
                          rho=1.0)
    etas = [0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0]
    sweep = eta_sweep(ds.X, ds.labels, etas, tpl,
                      params=SolverParams(max_iter=1500), folds=4, seed=0)
    acc = [p.accuracy for p in sweep.points]
    counts = [p.n_features for p in sweep.points]
    assert counts == sorted(counts) or all(
        counts[i + 1] >= counts[i] for i in range(len(counts) - 2))
    peak = max(acc)
    knee = next(i for i, a in enumerate(acc) if a >= peak - 0.015)
    rise = acc[knee] - acc[0]
    plateau_dev = max(abs(a - acc[knee]) for a in acc[knee:])
    assert rise >= 0.2
    assert plateau_dev <= 0.03
    report(10, f"accuracy rises {rise:.3f} >= 0.2 to the knee "
               f"(eta={sweep.points[knee].eta:g}, {counts[knee]} features), "
               f"plateau deviation {plateau_dev:.3f} <= 0.03")


def _median_ms(fn, V, radius, reps=7):
    import statistics

    fn(V, radius)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn(V, radius)
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def test_criterion_11_benchmark_trends():
    rng = make_rng(1011)
    V = rng.standard_normal((8000, 10))
    l1_ms = _median_ms(proj_l1_matrix, V, 0.5 * ball_norm(V, "l1"))
    l21_ms = _median_ms(proj_l21, V, 0.5 * ball_norm(V, "l21"))
    assert l21_ms < l1_ms

    V10 = rng.standard_normal((1000, 10))
    V100 = rng.standard_normal((1000, 100))
    nuc_ratio = (_median_ms(proj_nuclear, V100, 0.5 * ball_norm(V100, "nuclear"))
                 / _median_ms(proj_nuclear, V10, 0.5 * ball_norm(V10, "nuclear")))
    l21_ratio = (_median_ms(proj_l21, V100, 0.5 * ball_norm(V100, "l21"))
                 / _median_ms(proj_l21, V10, 0.5 * ball_norm(V10, "l21")))
    assert nuc_ratio > l21_ratio
    report(11, f"l21 {l21_ms:.2f}ms < l1 {l1_ms:.2f}ms at d=8000,k=10; nuclear "
               f"k100/k10 ratio {nuc_ratio:.1f} > l21 ratio {l21_ratio:.1f} at d=1000")
