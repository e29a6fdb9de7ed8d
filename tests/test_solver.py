import functools
import itertools
import json
import math
import os
import subprocess
import sys
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import pdsparse
from pdsparse import projections
from pdsparse.linalg import normalize_features, one_hot, spectral_norm
from pdsparse.losses import LossSpec, dual_prox
from pdsparse.model import Problem, ProblemTemplate
from pdsparse.projections import BallSpec, ball_norm, project_ball
from pdsparse.solver import (
    SolverDivergenceError,
    SolverParams,
    StepConditionError,
    VARIANTS,
    _PrimalStep,
    _forward,
    _gradient,
    _shift,
    check_step_condition,
    default_steps,
    solve,
)

from conftest import make_rng
from oracles import solve_reference
from record_solve_digests import CASES, DIGEST_PATH, ITERS, RECORD_EVERY, environment

# iterations of each digest fit that formed X^T Z over every feature: all of
# them on the l12 and nuclear balls, which are not screened
FULL_GRADIENTS = {"l1": 12, "l21": 19, "l12": ITERS, "nuclear": ITERS, "fixed-mu": 3,
                  "accelerated": 15, "gamma": 12, "alpha": 149, "frobenius-loss": 95,
                  "l1-loss": ITERS}


def small_problem(seed=0, m=30, d=20, k=3, delta=1.0, eta=2.0, rho=1.0,
                  alpha=0.0, kind="l1"):
    rng = make_rng(seed)
    X = normalize_features(rng.standard_normal((m, d))).X
    Y = one_hot(np.arange(m) % k, k)
    loss = LossSpec("huber", delta) if delta > 0 else LossSpec("l1", 0.0)
    return Problem(X=X, Y=Y, loss=loss, ball=BallSpec(kind, eta), rho=rho, alpha=alpha)


# every ball on small_problem's 30 x 20 X, then a nuclear ball at d > m, which
# solve iterates in the row space of X
BALLS_AND_WIDE_NUCLEAR = ([pytest.param(kind, 20, id=kind)
                           for kind in ("l1", "l21", "l12", "nuclear")]
                          + [pytest.param("nuclear", 40, id="nuclear-wide")])


def collect_iterates(problem, params, n):
    out = []
    solve(problem, params, callback=lambda s: out.append(
        (s.W.copy(), s.mu.copy(), s.Z.copy())) if s.iter <= n else None)
    return out[:n]


class TestDefaultSteps:
    def test_worked_example(self):
        # m=100, k=4 balanced so the label norm is 5; rho=1, eta=1
        tau, tau_mu, sigma = default_steps(1.0, 5.0, 100, 4, 1.0, 1.0)
        assert tau == pytest.approx(2.0 / (2.0 * 20.0), rel=1e-15)
        assert tau_mu == pytest.approx(1.0 / 99.75, rel=1e-12)
        expect_sigma = 0.999 / (tau_mu * 25.0 / (1.0 + tau_mu / 4.0) + tau)
        assert sigma == pytest.approx(expect_sigma, rel=1e-12)
        params = SolverParams(tau=tau, tau_mu=tau_mu, sigma=sigma)
        ok, slack = check_step_condition(params, 1.0, 5.0, rho=1.0)
        assert ok and slack > 0

    def test_rho_zero_degenerates(self):
        _, tau_mu, _ = default_steps(1.0, 5.0, 100, 4, 0.0, 1.0)
        assert tau_mu == pytest.approx(1.0 / (2.0 * 10.0 * 5.0), rel=1e-15)

    def test_random_draws_always_strict(self):
        rng = make_rng(77)
        for _ in range(100):
            m = int(rng.integers(4, 500))
            k = int(rng.integers(2, 12))
            Y_norm = float(np.sqrt(rng.integers(1, m + 1)))
            rho = float(rng.uniform(0, 3))
            eta = float(rng.uniform(0.1, 20))
            tau, tau_mu, sigma = default_steps(1.0, Y_norm, m, k, rho, eta)
            params = SolverParams(tau=tau, tau_mu=tau_mu, sigma=sigma)
            ok, slack = check_step_condition(params, 1.0, Y_norm, rho=rho)
            assert ok and slack > 0

    def test_oversized_rho_rejected(self):
        # 2 sqrt(m) Y_norm = 4, so rho = 16 puts the denominator at zero
        for rho in (16.0, 100.0):
            with pytest.raises(ValueError, match="<= 0; choose a smaller rho"):
                default_steps(1.0, 1.0, 4, 2, rho, 1.0)
        assert default_steps(1.0, 1.0, 4, 2, 15.0, 1.0)[1] == 4.0


class TestCheckStepCondition:
    def test_boundary_fails_fixed_mu(self):
        params = SolverParams(tau=1.0, tau_mu=1.0, sigma=1.0, variant="fixed-mu")
        ok, slack = check_step_condition(params, 1.0, 5.0, rho=1.0)
        assert not ok
        assert slack == 0.0

    def test_interior_passes_fixed_mu(self):
        params = SolverParams(tau=0.5, tau_mu=1.0, sigma=0.5, variant="fixed-mu")
        ok, slack = check_step_condition(params, 1.0, 5.0, rho=1.0)
        assert ok
        assert slack == pytest.approx(0.75)

    def test_over_relaxed_switches_condition_at_half(self):
        params = dict(tau=0.1, tau_mu=0.05, sigma=1.0)
        lo = SolverParams(**params, gamma=0.2)
        hi = SolverParams(**params, gamma=0.6)
        _, slack_lo = check_step_condition(lo, 1.0, 2.0, rho=2.0)
        _, slack_hi = check_step_condition(hi, 1.0, 2.0, rho=2.0)
        # gamma >= 1/2 drops the center-strong-convexity boost, shrinking slack
        assert slack_hi < slack_lo
        base = SolverParams(**params)
        _, slack_base = check_step_condition(base, 1.0, 2.0, rho=2.0)
        zero_gamma = SolverParams(**params, gamma=0.0)
        _, slack_zero = check_step_condition(zero_gamma, 1.0, 2.0, rho=2.0)
        assert slack_zero == slack_base

    @pytest.mark.parametrize("gamma", [0.5, 0.6, 0.9, 0.99])
    def test_from_half_on_the_condition_has_no_shrink(self, gamma):
        rng = make_rng(41)
        for _ in range(50):
            tau, tau_mu, sigma, rho, X_norm, Y_norm = map(float, rng.uniform(0.01, 3.0, 6))
            params = SolverParams(tau=tau, tau_mu=tau_mu, sigma=sigma, gamma=gamma)
            _, slack = check_step_condition(params, X_norm, Y_norm, rho=rho)
            want = 1 - sigma * (tau_mu * Y_norm**2 + tau * X_norm**2)
            assert slack.hex() == want.hex()

    def test_missing_steps_rejected(self):
        with pytest.raises(ValueError, match="explicit"):
            check_step_condition(SolverParams(), 1.0, 1.0, rho=1.0)


class TestSolveBasics:
    def test_zero_data_first_iterates_exact(self):
        m, d, k = 6, 4, 2
        X = np.zeros((m, d))
        Y = one_hot(np.arange(m) % k, k)
        prob = Problem(X=X, Y=Y, loss=LossSpec("huber", 1.0),
                       ball=BallSpec("l1", 1.0), rho=1.0)
        sigma, tau, tau_mu = 0.3, 0.1, 0.05
        params = SolverParams(tau=tau, tau_mu=tau_mu, sigma=sigma, max_iter=1)
        states = []
        solve(prob, params, callback=lambda s: states.append(
            (s.W.copy(), s.mu.copy(), s.Z.copy())))
        W1, mu1, Z1 = states[0]
        assert np.array_equal(W1, np.zeros((d, k)))
        assert np.array_equal(mu1, np.eye(k))
        expect_Z = np.where(Y == 1.0, min(sigma / (1.0 + sigma), 1.0), 0.0)
        assert np.array_equal(Z1, expect_Z)

    def test_separable_instance_reaches_full_accuracy(self):
        from pdsparse.classify import evaluate, train_model
        from pdsparse.data_io import SyntheticSpec, generate_synthetic

        ds = generate_synthetic(SyntheticSpec(m=40, d=10, k=2, s=3,
                                              separation=2.0, noise_sd=0.1,
                                              dropout_rate=0.0, seed=1))
        tpl = ProblemTemplate(loss=LossSpec("huber", 1.0), ball=BallSpec("l1", 50.0))
        model, _ = train_model(ds.X, ds.labels, tpl,
                               params=SolverParams(max_iter=2000))
        assert evaluate(ds.X, ds.labels, model).global_accuracy == 1.0

    def test_refuses_bad_step_sizes(self):
        prob = small_problem()
        params = SolverParams(tau=10.0, tau_mu=10.0, sigma=10.0)
        with pytest.raises(StepConditionError):
            solve(prob, params)

    def test_history_keeps_checked_slack(self):
        prob = small_problem(seed=4, rho=0.6)
        _, hist = solve(prob, SolverParams(gamma=0.3, max_iter=5))
        X_norm = spectral_norm(prob.X).value
        Y_norm = float(np.sqrt(prob.Y.sum(axis=0).max()))
        _, slack = check_step_condition(hist.params, X_norm, Y_norm, rho=prob.rho)
        assert hist.step_slack == slack > 0

    def test_deterministic_histories(self):
        prob = small_problem(seed=5)
        params = SolverParams(max_iter=300, record_every=50)
        _, h1 = solve(prob, params)
        _, h2 = solve(prob, params)
        t1 = [(r.iteration, r.objective.total, r.ergodic_objective.total, r.gap)
              for r in h1.records]
        t2 = [(r.iteration, r.objective.total, r.ergodic_objective.total, r.gap)
              for r in h2.records]
        assert t1 == t2
        its = h1.iterations()
        assert all(b > a for a, b in zip(its, its[1:]))

    def test_mu_prox_stationarity(self):
        # the closed-form center update minimizes its prox objective
        prob = small_problem(seed=6, rho=0.8)
        rng = make_rng(8)
        k = prob.n_classes
        Z = np.clip(rng.standard_normal(prob.Y.shape), -1, 1)
        mu_n = rng.standard_normal((k, k))
        tau_mu = 0.07
        mu_plus = (mu_n + (prob.rho * tau_mu) * np.eye(k)
                   - tau_mu * (prob.Y.T @ Z)) / (1.0 + tau_mu * prob.rho)
        grad = (mu_plus - mu_n) / tau_mu + prob.rho * (mu_plus - np.eye(k)) + prob.Y.T @ Z
        assert np.abs(grad).max() <= 1e-10

    def test_overflowing_iterate_aborts_with_iteration(self, monkeypatch):
        prob = small_problem(seed=7)
        monkeypatch.setattr(pdsparse.solver, "dual_prox",
                            lambda V, sigma, loss: np.full_like(V, np.nan))
        with pytest.raises(SolverDivergenceError) as exc:
            solve(prob, SolverParams(max_iter=10))
        assert exc.value.iteration == 1

    @pytest.mark.parametrize("variant, gamma", [("base", 0.0), ("fixed-mu", 0.0), ("base", 0.3)])
    def test_in_place_iteration_keeps_inputs_and_outputs_apart(self, variant, gamma):
        prob = small_problem(seed=9)
        before = [a.copy() for a in (prob.X, prob.Y)]
        states = []
        model, hist = solve(prob, SolverParams(max_iter=40, record_every=20, variant=variant,
                                               gamma=gamma), callback=states.append)
        for a, b in zip((prob.X, prob.Y), before):
            assert a.tobytes() == b.tobytes()
        arrays = [model.W, model.mu, hist.ergodic_W, prob.X, prob.Y]
        for a, b in itertools.combinations(arrays, 2):
            assert not np.shares_memory(a, b)
        # each iteration hands the callback a new W and Z, never a reused buffer
        prev, last = states[-2], states[-1]
        for a, b in itertools.combinations([prev.W, prev.Z, last.W, last.Z], 2):
            assert not np.shares_memory(a, b)

    def test_early_stop_breaks_before_budget(self):
        prob = small_problem(seed=10)
        params = SolverParams(max_iter=5000, record_every=100, early_stop_tol=1e-8)
        _, hist = solve(prob, params)
        assert hist.records[-1].iteration < 5000

    def test_early_stop_at_first_record_within_tolerance(self):
        prob = small_problem(seed=10)
        _, full = solve(prob, SolverParams(max_iter=3000, record_every=100))
        first = next(i for i, r in enumerate(full.records)
                     if r.gap <= 1e-6 * max(1.0, abs(r.objective.total)))
        _, hist = solve(prob, SolverParams(max_iter=3000, record_every=100,
                                           early_stop_tol=1e-6))
        assert hist.iterations() == full.iterations()[:first + 1]
        assert hist.iterations()[-1] < hist.params.max_iter
        assert [r.gap for r in hist.records] == [r.gap for r in full.records[:first + 1]]

    @pytest.mark.parametrize("name, value", [("early_stop_tol", 0.0),
                                             ("early_stop_tol", -1.0),
                                             ("early_stop_tol", math.nan),
                                             ("tau", math.inf)])
    def test_optional_values_must_be_positive_finite(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            SolverParams(**{name: value})

    @pytest.mark.parametrize("name", ["tau", "tau_mu", "sigma"])
    def test_lone_step_rejected(self, name):
        with pytest.raises(ValueError, match="tau, tau_mu and sigma must be set together"):
            SolverParams(**{name: 1e-3})


class TestFeasibilityMaintenance:
    @pytest.mark.parametrize("kind, d", BALLS_AND_WIDE_NUCLEAR)
    def test_primal_and_dual_feasible_every_iteration(self, kind, d):
        prob = small_problem(seed=12, d=d, kind=kind, eta=1.5)
        params = SolverParams(max_iter=150)
        radii, duals = [], []
        solve(prob, params, callback=lambda s: (
            radii.append(ball_norm(s.W, kind)), duals.append(np.abs(s.Z).max())))
        assert max(radii) <= 1.5 * (1 + 1e-9)
        assert max(duals) <= 1.0 + 1e-12

    def test_frobenius_dual_stays_in_unit_ball(self):
        prob = small_problem(seed=13, delta=0.0)
        prob = Problem(X=prob.X, Y=prob.Y, loss=LossSpec("frobenius"),
                       ball=prob.ball, rho=1.0)
        params = SolverParams(max_iter=150)
        norms = []
        solve(prob, params, callback=lambda s: norms.append(np.linalg.norm(s.Z)))
        assert max(norms) <= 1.0 + 1e-12

    def test_over_relaxed_output_feasible(self):
        prob = small_problem(seed=14)
        params = SolverParams(gamma=0.8, max_iter=200)
        model, hist = solve(prob, params)
        assert ball_norm(model.W, "l1") <= prob.ball.radius * (1 + 1e-9)
        assert ball_norm(hist.ergodic_W, "l1") <= prob.ball.radius * (1 + 1e-9)


class TestVariantReductions:
    def test_accelerated_delta_zero_equals_base(self):
        prob = small_problem(seed=15, delta=0.0)
        base = collect_iterates(prob, SolverParams(max_iter=200), 200)
        acc = collect_iterates(prob, SolverParams(variant="accelerated", max_iter=200), 200)
        worst = max(np.abs(a - b).max() for ta, tb in zip(acc, base)
                    for a, b in zip(ta, tb))
        assert worst <= 1e-12

    @pytest.mark.parametrize("params, loss, named", [
        pytest.param({"variant": "fixed-mu"}, None, "variant 'fixed-mu' and alpha=0.5",
                     id="fixed-mu"),
        pytest.param({"variant": "accelerated"}, None,
                     "variant 'accelerated' and alpha=0.5", id="accelerated"),
        pytest.param({"gamma": 0.5}, None, "gamma=0.5 and alpha=0.5", id="over-relaxed"),
        pytest.param({}, LossSpec("frobenius"), "alpha=0.5 and the frobenius loss",
                     id="frobenius"),
    ])
    def test_alpha_rejected_outside_elastic(self, params, loss, named):
        # the elastic shrink is the run's one departure from the base iteration
        prob = small_problem(seed=17, alpha=0.5)
        _, hist = solve(prob, SolverParams(max_iter=5))
        assert hist.records[-1].objective.elastic_term > 0
        if loss is not None:
            prob = replace(prob, loss=loss)
        with pytest.raises(ValueError) as err:
            solve(prob, SolverParams(max_iter=5, **params))
        assert str(err.value) == (f"cannot combine {named}: a run departs from "
                                  f"the base iteration in at most one way")

    @pytest.mark.parametrize("params, loss, named", [
        ({"variant": "fixed-mu", "gamma": 0.5}, None, "variant 'fixed-mu' and gamma=0.5"),
        ({"variant": "accelerated", "gamma": -0.25}, None,
         "variant 'accelerated' and gamma=-0.25"),
        ({"variant": "fixed-mu"}, LossSpec("frobenius"),
         "variant 'fixed-mu' and the frobenius loss"),
        ({"variant": "accelerated"}, LossSpec("frobenius"),
         "variant 'accelerated' and the frobenius loss"),
        ({"gamma": 0.5}, LossSpec("frobenius"), "gamma=0.5 and the frobenius loss"),
    ])
    def test_other_departure_pairs_refused(self, params, loss, named):
        prob = small_problem(seed=17)
        if loss is not None:
            prob = replace(prob, loss=loss)
        with pytest.raises(ValueError) as err:
            solve(prob, SolverParams(max_iter=5, **params))
        assert str(err.value) == (f"cannot combine {named}: a run departs from "
                                  f"the base iteration in at most one way")

    def test_fixed_mu_pins_centers(self):
        prob = small_problem(seed=18)
        mus = []
        solve(prob, SolverParams(variant="fixed-mu", max_iter=50),
              callback=lambda s: mus.append(s.mu.copy()))
        for mu in mus:
            assert np.array_equal(mu, np.eye(prob.n_classes))

    def test_variant_loss_consistency_enforced(self):
        prob = small_problem(seed=19)
        # the frobenius loss picks its dual prox; it is not a variant
        with pytest.raises(ValueError, match="unknown variant 'frobenius'"):
            SolverParams(variant="frobenius")
        frob = Problem(X=prob.X, Y=prob.Y, loss=LossSpec("frobenius"),
                       ball=prob.ball, rho=1.0)
        with pytest.raises(ValueError, match="base"):
            solve(frob, SolverParams(variant="accelerated"))

    def test_frobenius_step_error_names_base(self):
        prob = small_problem(seed=19)
        frob = Problem(X=prob.X, Y=prob.Y, loss=LossSpec("frobenius"),
                       ball=prob.ball, rho=1.0)
        with pytest.raises(StepConditionError, match="violate the base convergence"):
            solve(frob, SolverParams(tau=10.0, tau_mu=10.0, sigma=10.0))

    def test_over_relaxed_step_error_names_gamma(self):
        params = SolverParams(tau=10.0, tau_mu=10.0, sigma=10.0, gamma=0.5)
        with pytest.raises(StepConditionError, match="violate the gamma=0.5 convergence"):
            solve(small_problem(seed=19), params)


@functools.cache
def row_space_data(shape):
    """Normalised X and one-hot Y for the fits compared with ``solve_reference``."""
    if shape == "200x2000":
        ds = pdsparse.generate_synthetic(pdsparse.SyntheticSpec(
            m=200, d=2000, k=4, s=20, separation=2.0, noise_sd=1.0, dropout_rate=0.3, seed=1))
        X, labels = ds.X, ds.labels
    elif shape == "rank-deficient":
        # 40 rows that repeat 30 distinct ones: rank 30 < m
        X = make_rng(40).standard_normal((30, 60))[np.arange(40) % 30]
        labels = np.arange(40) % 3
    elif shape == "centred":
        # column means removed, as for gene data: rank m - 1
        X = make_rng(42).standard_normal((30, 60))
        X -= X.mean(axis=0)
        labels = np.arange(30) % 3
    else:
        X = make_rng(41).standard_normal((30, 31))  # d = m + 1
        labels = np.arange(30) % 3
    X = normalize_features(X).X
    return X, one_hot(labels, int(labels.max()) + 1)


# one fit per departure from the base iteration, all checked against solve_reference
REFERENCE_CASES = pytest.mark.parametrize("case", [
    {}, {"variant": "fixed-mu"}, {"variant": "accelerated"}, {"gamma": 0.3},
    {"alpha": 0.5}, {"loss": LossSpec("frobenius")}, {"loss": LossSpec("l1")},
], ids=["base", "fixed-mu", "accelerated", "gamma", "alpha", "frobenius-loss", "l1-loss"])


def assert_matches_reference(X, Y, kind, case):
    """Fit ``case`` on a radius-0.5 ``kind`` ball and compare with the plain d-space loop."""
    radius = 0.5
    prob = Problem(X=X, Y=Y, loss=case.get("loss", LossSpec("huber", 1.0)),
                   ball=BallSpec(kind, radius), alpha=case.get("alpha", 0.0))
    params = SolverParams(max_iter=300, record_every=50,
                          variant=case.get("variant", "base"), gamma=case.get("gamma", 0.0))
    model, hist = solve(prob, params)
    W, mu, ergodic_W, records = solve_reference(prob, hist.params)
    # the ball is active, so the projection was exercised
    assert ball_norm(W, kind) >= radius * (1 - 1e-9)
    for got, ref in [(model.W, W), (model.mu, mu), (hist.ergodic_W, ergodic_W)]:
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
    assert len(hist.records) == len(records)
    for r, (objective, ergodic, gap) in zip(hist.records, records):
        for got, ref in [(r.objective, objective), (r.ergodic_objective, ergodic)]:
            for a, b in zip(astuple(got), astuple(ref)):
                assert abs(a - b) <= 1e-12 * max(1.0, abs(b))
        # the gap cancels the objective's leading digits: scale by the objective
        assert abs(r.gap - gap) <= 1e-12 * max(1.0, abs(objective.total))
    return hist


class TestRowSpaceNuclear:
    """A nuclear fit at d > m runs on an m x r factor of X and follows the d-space iteration."""

    @pytest.mark.parametrize("shape", ["200x2000", "rank-deficient", "d=m+1", "centred"])
    @REFERENCE_CASES
    def test_matches_d_space_iteration(self, shape, case):
        X, Y = row_space_data(shape)
        assert_matches_reference(X, Y, "nuclear", case)

    def test_column_centred_x_keeps_m_minus_1_directions(self, monkeypatch):
        shapes = []
        monkeypatch.setattr(pdsparse.solver, "project_ball",
                            lambda V, ball, **kw: shapes.append(V.shape)
                            or project_ball(V, ball, **kw))
        X, Y = row_space_data("centred")
        solve(Problem(X=X, Y=Y, loss=LossSpec("huber", 1.0), ball=BallSpec("nuclear", 0.5)),
              SolverParams(max_iter=5))
        # the centred rows span m - 1 directions; rounding puts the last
        # eigenvalue of X X^T near zero, below the rank cut
        assert shapes == [(29, 3)] * 5

    def test_callback_sees_the_d_space_iterates(self):
        X, Y = row_space_data("200x2000")
        prob = Problem(X=X, Y=Y, loss=LossSpec("huber", 1.0), ball=BallSpec("nuclear", 0.5))
        params = SolverParams(max_iter=60, record_every=20)
        seen = collect_iterates(prob, params, 60)
        _, hist = solve(prob, params)
        ref = []
        solve_reference(prob, hist.params, callback=lambda W: ref.append(W.copy()))
        assert len(seen) == len(ref) == 60
        for (W, _, _), W_ref in zip(seen, ref):
            assert np.linalg.norm(W - W_ref) <= 1e-12 * np.linalg.norm(W_ref)
        assert np.linalg.norm(ref[-1]) > 0

    @pytest.mark.parametrize("record_every", [1, 7, 60])
    def test_full_x_only_multiplies_the_results(self, record_every, monkeypatch):
        X, Y = row_space_data("200x2000")
        full = []

        def spy(name, x_of):
            fn = getattr(pdsparse.solver, name)

            def wrapped(*args):
                if x_of(*args) is X:
                    full.append(name)
                return fn(*args)
            return wrapped

        # every solver product with a data matrix goes through one of these
        for name, x_of in [("_gradient", lambda X, Z: X), ("_forward", lambda X, W: X),
                           ("primal_objective", lambda W, mu, p: p.X),
                           ("_duality_gap", lambda primal, Z, p, fixed: p.X)]:
            monkeypatch.setattr(pdsparse.solver, name, spy(name, x_of))
        prob = Problem(X=X, Y=Y, loss=LossSpec("huber", 1.0), ball=BallSpec("nuclear", 0.5))
        assert prob.X is X
        _, hist = solve(prob, SolverParams(max_iter=60, record_every=record_every))
        assert len(hist.records) == math.ceil(60 / record_every)
        # once for the returned W, once for the ergodic W
        assert full == ["_gradient", "_gradient"]


class TestSparseForwardProduct:
    """X W_ext comes from the nonzero rows of W_ext alone while at most one in eight is nonzero."""

    @pytest.mark.parametrize("order", ["F", "C"])
    @pytest.mark.parametrize("nonzero, restricted", [
        (0, True), (1, True), (250, True), (251, False), (2000, False),
    ], ids=["none", "one", "d/8", "d/8+1", "all"])
    def test_matches_dense_product(self, nonzero, restricted, order):
        rng = make_rng(nonzero)
        X = rng.standard_normal((30, 2000))
        A = np.zeros((2000, 4), order=order)
        rows = np.sort(rng.choice(2000, nonzero, replace=False))
        A[rows] = rng.standard_normal((nonzero, 4))
        out = _forward(X, A)
        # the bits say which product ran
        path = X[:, rows] @ A[rows] if restricted else X @ A
        assert out.tobytes() == path.tobytes()
        ref = X @ A
        assert np.linalg.norm(out - ref) <= 1e-15 * np.linalg.norm(ref)

    class NoRowMask(np.ndarray):
        """An iterate that fails when compared with 0, the row mask's first step."""

        def __ne__(self, other):
            raise AssertionError("built the row mask")

    @pytest.mark.parametrize("order", ["F", "C"])
    @pytest.mark.parametrize("entries", [1001, 8000], ids=["kd/8+1", "all"])
    def test_dense_iterate_skips_the_row_mask(self, entries, order):
        # more than k d / 8 nonzero entries imply more than d / 8 nonzero rows
        rng = make_rng(entries)
        X = rng.standard_normal((30, 2000))
        A = np.zeros((2000, 4), order=order)
        A.flat[rng.choice(8000, entries, replace=False)] = rng.standard_normal(entries)
        out = _forward(X, A.view(self.NoRowMask))
        assert out.tobytes() == (X @ A).tobytes()

    def test_row_mask_built_at_k_d_over_8_entries(self):
        A = np.zeros((2000, 4))
        A[:250] = 1.0
        with pytest.raises(AssertionError, match="row mask"):
            _forward(np.ones((30, 2000)), A.view(self.NoRowMask))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_counts_as_nonzero(self, value):
        X = make_rng(3).standard_normal((30, 2000))
        A = np.zeros((2000, 4), order="F")
        A[7, 2] = value
        out = _forward(X, A)
        assert not np.isfinite(out[:, 2]).any()
        assert np.array_equal(out[:, [0, 1, 3]], np.zeros((30, 3)))

    @pytest.mark.parametrize("kind", ["l1", "l21"])
    @REFERENCE_CASES
    def test_sparse_fit_matches_dense_iteration(self, kind, case, monkeypatch):
        # per coupling product: whether it multiplied the kept X[:, rows]
        kept = []
        forward = _PrimalStep.forward

        def spy(self, W, W_old, theta):
            rows = self.rows
            kept.append(rows is not None and 8 * rows.size <= self.X.shape[1])
            return forward(self, W, W_old, theta)

        monkeypatch.setattr(_PrimalStep, "forward", spy)
        X, Y = row_space_data("200x2000")
        hist = assert_matches_reference(X, Y, kind, case)
        assert len(kept) == 300 and 0 < sum(kept) < 300
        # the screened W step took both paths: some steps formed all of
        # X^T Z, the others only the candidates' rows (TestScreenedGradient)
        assert 0 < hist.full_gradients < 300


def assert_projection_on_rows(W_new, full, rows):
    """A certified step's W: P_ball(G)'s bits on ``rows``, +0.0 elsewhere, equal in value."""
    assert W_new.flags.f_contiguous
    assert W_new[rows].tobytes() == full[rows].tobytes()
    excluded = np.setdiff1d(np.arange(W_new.shape[0]), rows)
    assert W_new[excluded].tobytes() == bytes(8 * excluded.size * W_new.shape[1])
    assert np.array_equal(W_new, full)


def planted_step_inputs(seed, kind, planted=True):
    """A 20 x 400 X whose first 10 columns dominate, and a step that took its first full product."""
    rng = make_rng(seed)
    X = rng.standard_normal((20, 400))
    if planted:
        X[:, 10:] *= 0.05
    X = normalize_features(X).X
    step = _PrimalStep(X, BallSpec(kind, 0.5), 3)
    Z_ref = rng.uniform(-1.0, 1.0, (20, 3))
    W = step(np.zeros((400, 3), order="F"), Z_ref, 1.0, 0.0)
    return rng, X, step, Z_ref, W


class TestScreenedGradient:
    """On the l1 and l21 balls X^T Z is formed on the candidate rows when they certify.

    ``TestSparseForwardProduct.test_sparse_fit_matches_dense_iteration``
    compares screened fits with ``solve_reference``.
    """

    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["l1", "l21"]),
           drift=st.floats(0.0, 1.0), tau=st.floats(0.25, 4.0),
           alpha=st.sampled_from([0.0, 0.5]))
    @settings(max_examples=150, deadline=None)
    def test_excluded_rows_are_zero_in_the_full_projection(self, seed, kind, drift, tau, alpha):
        rng, X, step, Z_ref, W = planted_step_inputs(seed, kind)
        Z = np.clip(Z_ref + drift * rng.standard_normal(Z_ref.shape), -1.0, 1.0)
        W_new = step(W, Z, tau, alpha)
        assume(step.full == 1)  # the candidates certified
        full = project_ball(_shift(_gradient(X, Z), W, tau, alpha), step.ball)
        excluded = np.setdiff1d(np.arange(X.shape[1]), step.rows)
        assert excluded.size >= 7 * X.shape[1] // 8
        assert not full[excluded].any()
        assert np.linalg.norm(W_new - full) <= 1e-12 * np.linalg.norm(full)

    @pytest.mark.parametrize("kind", ["l1", "l21"])
    @pytest.mark.parametrize("planted, scale", [(True, 0.0), (False, 1.0)],
                             ids=["uncertified", "too-many-candidates"])
    def test_otherwise_the_full_product(self, kind, planted, scale):
        # at Z = 0 the step projects W, which is inside the ball, so the
        # candidates cannot certify; without planted columns more than d / 8
        # rows clear t, and the rows of the exact G certify instead
        # (TestCertifiedFullStep)
        _, X, step, Z_ref, W = planted_step_inputs(3, kind, planted)
        Z = scale * Z_ref[::-1]
        W_new = step(W, Z, 1.0, 0.0)
        assert step.full == 2 and (step.rows is None) == planted
        full = project_ball(_shift(_gradient(X, Z), W, 1.0, 0.0), step.ball)
        if planted:
            assert W_new.tobytes() == full.tobytes()
        else:
            assert_projection_on_rows(W_new, full, step.rows)

    @pytest.mark.parametrize("name", list(CASES))
    def test_full_gradient_counts_on_the_digest_instance(self, name):
        X, Y = row_space_data("200x2000")
        case = CASES[name]
        problem = Problem(X=X, Y=Y, loss=case.get("loss", LossSpec("huber", 1.0)),
                          ball=BallSpec(case["ball"], 8.0), alpha=case.get("alpha", 0.0))
        params = SolverParams(max_iter=ITERS, record_every=RECORD_EVERY,
                              variant=case.get("variant", "base"), gamma=case.get("gamma", 0.0))
        _, hist = solve(problem, params)
        assert hist.full_gradients == FULL_GRADIENTS[name]


def full_step_inputs(seed, kind, planted_rows=0):
    """``planted_step_inputs`` with a step whose screened attempt fails, so it forms all of X^T Z.

    ``planted_rows`` rows outside the first 10 of W get tiny nonzero
    entries, which no threshold would keep.
    """
    rng, X, step, Z_ref, W = planted_step_inputs(seed, kind)
    step._candidate_step = lambda *args: None
    if planted_rows:
        W = W.copy(order="F")
        W[10 + rng.choice(390, planted_rows, replace=False)] = 1e-9
    return rng, X, step, Z_ref, W


class TestCertifiedFullStep:
    """A full step with a previous threshold projects only the exact G's candidate rows."""

    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["l1", "l21"]),
           drift=st.floats(0.0, 1.0), tau=st.floats(0.25, 4.0),
           alpha=st.sampled_from([0.0, 0.5]), planted_rows=st.sampled_from([0, 3]))
    @settings(max_examples=150, deadline=None)
    def test_certified_block_is_the_full_projection(self, seed, kind, drift, tau, alpha,
                                                    planted_rows):
        rng, X, step, Z_ref, W = full_step_inputs(seed, kind, planted_rows)
        Z = np.clip(Z_ref + drift * rng.standard_normal(Z_ref.shape), -1.0, 1.0)
        W_new = step(W, Z, tau, alpha)
        assert step.full == 2
        assume(step.rows is not None)  # the candidates certified
        full = project_ball(_shift(_gradient(X, Z), W, tau, alpha), step.ball)
        assert_projection_on_rows(W_new, full, step.rows)
        assert step.block.tobytes() == full[step.rows].tobytes()
        assert step.rows.size < X.shape[1]
        # every nonzero row of the input W is a candidate, so W and W_ext
        # are zero outside step.rows
        assert np.isin(np.flatnonzero(W.any(axis=1)), step.rows).all()

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    @pytest.mark.parametrize("kind", ["l1", "l21"])
    def test_uncertified_takes_the_full_projection(self, kind, alpha):
        # at Z = 0, G = W / (1 + tau alpha) lies inside the ball
        _, X, step, Z_ref, W = full_step_inputs(5, kind)
        W_new = step(W, np.zeros_like(Z_ref), 1.0, alpha)
        assert step.full == 2 and step.rows is None and step.block is None
        full = project_ball(_shift(_gradient(X, np.zeros_like(Z_ref)), W, 1.0, alpha), step.ball)
        assert W_new.tobytes() == full.tobytes()

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    @pytest.mark.parametrize("kind", ["l1", "l21"])
    def test_rows_hold_the_input_support(self, kind, alpha):
        _, X, step, Z_ref, W = full_step_inputs(7, kind, planted_rows=5)
        W_new = step(W, Z_ref, 1.0, alpha)
        assert step.full == 2 and step.rows is not None
        support = np.flatnonzero(W.any(axis=1))
        assert support.size >= 5 and np.isin(support, step.rows).all()
        full = project_ball(_shift(_gradient(X, Z_ref), W, 1.0, alpha), step.ball)
        assert_projection_on_rows(W_new, full, step.rows)


def screened_fit(kind="l1", gamma=0.0, callback=None, iters=150):
    X, Y = row_space_data("200x2000")
    problem = Problem(X=X, Y=Y, loss=LossSpec("huber", 1.0), ball=BallSpec(kind, 8.0))
    return solve(problem, SolverParams(max_iter=iters, record_every=50, gamma=gamma),
                 callback=callback)


class TestBlockPath:
    """While a step holds a block, the divergence check and the ergodic sum run on it."""

    @pytest.mark.parametrize("gamma", [0.0, 0.3])
    def test_ergodic_w_is_the_in_order_sum(self, gamma):
        Ws = []
        _, hist = screened_fit(gamma=gamma, callback=lambda s: Ws.append(s.W.copy()))
        total = np.zeros_like(Ws[0])
        for W in Ws:
            total += W
        assert 0 < hist.full_gradients < len(Ws)
        assert hist.ergodic_W.tobytes() == np.ascontiguousarray(total / len(Ws)).tobytes()

    @pytest.mark.parametrize("gamma", [0.0, 0.3])
    def test_non_finite_block_aborts_at_its_iteration(self, gamma, monkeypatch):
        calls, screened, poisoned = [], [], []
        candidate_step = _PrimalStep._candidate_step

        def in_screened_step(self, *args):
            screened.append(True)
            try:
                return candidate_step(self, *args)
            finally:
                screened.pop()

        def project(V, ball, **kw):
            # one projection per iteration, so the call count is the iteration
            calls.append(True)
            P = project_ball(V, ball, **kw)
            if screened and len(calls) >= 40 and not poisoned:
                poisoned.append(len(calls))
                P[0, 0] = np.nan
            return P

        monkeypatch.setattr(_PrimalStep, "_candidate_step", in_screened_step)
        monkeypatch.setattr(pdsparse.solver, "project_ball", project)
        with pytest.raises(SolverDivergenceError) as exc:
            screened_fit(gamma=gamma)
        assert exc.value.iteration == poisoned[0] == len(calls)

    class CountingGathers(np.ndarray):
        """An X that counts the column gathers X[:, rows] taken of it."""

        gathers = 0

        def __getitem__(self, key):
            if isinstance(key, tuple) and any(isinstance(i, np.ndarray) for i in key):
                TestBlockPath.CountingGathers.gathers += 1
            return super().__getitem__(key)

    @pytest.mark.parametrize("kind", ["l1", "l21"])
    def test_columns_gathered_only_when_the_rows_change(self, kind, monkeypatch):
        counter = self.CountingGathers
        counter.gathers = 0
        kept, changed, certified = None, 0, 0

        class Step(_PrimalStep):
            def __init__(self, X, ball, k):
                super().__init__(X.view(counter), ball, k)

            def __call__(self, W, Z, tau, alpha):
                nonlocal kept, changed, certified
                full, gathers = self.full, counter.gathers
                W_new = super().__call__(W, Z, tau, alpha)
                if self.full > full:
                    assert counter.gathers == gathers
                # the steps whose coupling product multiplies the kept columns
                if self.rows is not None and 8 * self.rows.size <= self.X.shape[1]:
                    certified += 1
                    changed += kept is None or not np.array_equal(self.rows, kept)
                    kept = self.rows
                return W_new

        # sparse_rows_product's own gathers, after the other steps, go uncounted
        monkeypatch.setattr(pdsparse.solver, "_forward",
                            lambda X, A: _forward(X.view(np.ndarray), A))
        monkeypatch.setattr(pdsparse.solver, "_PrimalStep", Step)
        screened_fit(kind)
        # one gather per change of a certified step's rows, in the step or its coupling product
        assert counter.gathers == changed and 0 < changed < certified


class TestAccelerated:
    def test_theta_schedule_shrinks_sigma_and_grows_tau(self):
        prob = small_problem(seed=20, delta=1.0)
        params = SolverParams(variant="accelerated", max_iter=300)
        thetas = []
        solve(prob, params, callback=lambda s: thetas.append(s.theta))
        assert all(0 < t < 1 for t in thetas)
        # theta climbs toward 1 as sigma decays
        assert thetas[-1] > thetas[0]

    def test_objective_still_converges(self):
        prob = small_problem(seed=21, delta=1.0)
        params = SolverParams(variant="accelerated", max_iter=800, record_every=100)
        _, hist = solve(prob, params)
        totals = [r.objective.total for r in hist.records]
        assert totals[-1] <= totals[0]


class TestErgodicDiagnostics:
    def test_ergodic_average_matches_callback_mean(self):
        # the second problem averages nuclear iterates in the row space of X
        for prob in (small_problem(seed=25), small_problem(seed=25, d=40, kind="nuclear")):
            params = SolverParams(max_iter=80)
            Ws = []
            _, hist = solve(prob, params, callback=lambda s: Ws.append(s.W.copy()))
            assert np.allclose(hist.ergodic_W, np.mean(Ws, axis=0), atol=1e-12)

    def test_ergodic_objective_monotone_trend(self):
        for seed in range(5):
            prob = small_problem(seed=700 + seed, m=40, d=30, k=3)
            params = SolverParams(max_iter=1500, record_every=25)
            _, hist = solve(prob, params)
            erg = [r.ergodic_objective.total for r in hist.records]
            assert all(erg[i + 1] <= erg[i] + 1e-6 for i in range(len(erg) - 1))


class TestDualityGap:
    def test_gap_nonnegative_for_every_loss_ball_variant(self):
        prob = small_problem(seed=29)
        fits = 0
        runs = [(v, 0.0, 0.0) for v in VARIANTS] + [("base", 0.5, 0.0), ("base", 0.0, 0.3)]
        for loss, kind, (variant, gamma, alpha) in itertools.product(
                [LossSpec("huber", 1.0), LossSpec("l1"), LossSpec("frobenius")],
                ["l1", "l21", "l12", "nuclear"], runs):
            if loss.kind == "frobenius" and (variant, gamma, alpha) != ("base", 0.0, 0.0):
                continue
            p = Problem(X=prob.X, Y=prob.Y, loss=loss, ball=BallSpec(kind, 2.0), alpha=alpha)
            params = SolverParams(variant=variant, max_iter=200, record_every=20, gamma=gamma)
            _, hist = solve(p, params)
            for r in hist.records:
                assert np.isfinite(r.gap)
                assert r.gap >= -1e-12 * max(1.0, abs(r.objective.total)), \
                    (loss.kind, kind, variant, gamma, alpha, r.iteration)
            fits += 1
        assert fits == 44

    def test_gap_bounds_suboptimality_and_closes(self):
        prob = small_problem(seed=30)
        _, hist = solve(prob, SolverParams(max_iter=1500, record_every=100))
        best = min(r.objective.total for r in hist.records)
        for r in hist.records:
            # the gap bounds the distance to the optimum, so to any later objective
            assert r.objective.total - best <= r.gap + 1e-12
        final = hist.records[-1]
        assert final.gap <= 1e-9 * max(1.0, abs(final.objective.total))
        assert hist.records[0].gap > 1e-3

    def test_rho_zero_gives_infinite_gap_with_free_centers(self):
        prob = small_problem(seed=31, rho=0.0)
        _, base = solve(prob, SolverParams(max_iter=100, record_every=50))
        assert all(r.gap == math.inf for r in base.records)
        _, fixed = solve(prob, SolverParams(variant="fixed-mu", max_iter=100,
                                            record_every=50))
        assert all(np.isfinite(r.gap) and r.gap >= 0 for r in fixed.records)

    def test_accelerated_records_finite_nonnegative_gaps(self):
        prob = small_problem(seed=27)
        _, hist = solve(prob, SolverParams(variant="accelerated", max_iter=400))
        gaps = [r.gap for r in hist.records]
        assert all(np.isfinite(g) and g >= 0 for g in gaps)
        assert gaps[-1] < gaps[0]


class TestProblemTemplate:
    def test_bound_problem_is_a_template(self):
        template = _template(rho=2.0, alpha=0.5)
        problem = template.bind(np.ones((4, 3)), Y_2)
        assert isinstance(problem, ProblemTemplate)
        assert (problem.loss, problem.ball, problem.rho, problem.alpha) == \
            (template.loss, template.ball, 2.0, 0.5)

    def test_with_radius_of_a_problem_fits_like_the_template_bound(self):
        prob = small_problem(seed=35)
        template = ProblemTemplate(loss=prob.loss, ball=prob.ball, rho=prob.rho)
        params = SolverParams(max_iter=60, record_every=20)
        narrowed = prob.with_radius(0.5)
        assert type(narrowed) is Problem and narrowed.ball == BallSpec("l1", 0.5)
        direct, direct_hist = solve(narrowed, params)
        bound, bound_hist = solve(template.with_radius(0.5).bind(prob.X, prob.Y), params)
        assert direct.W.tobytes() == bound.W.tobytes()
        assert direct.mu.tobytes() == bound.mu.tobytes()
        assert direct_hist.ergodic_W.tobytes() == bound_hist.ergodic_W.tobytes()

    def test_with_radius_keeps_the_features_record(self):
        ds = pdsparse.generate_synthetic(pdsparse.SyntheticSpec(
            m=60, d=80, k=3, s=5, separation=2.0, noise_sd=0.5, seed=1))
        template = ProblemTemplate(loss=LossSpec("huber"), ball=BallSpec("l1", 8.0))
        prob = template.bind(normalize_features(ds.X), one_hot(ds.labels, 3))
        copy = prob.with_radius(8.0)
        assert copy.features is prob.features
        params = SolverParams(max_iter=300)
        (model, hist), (copy_model, copy_hist) = solve(prob, params), solve(copy, params)
        assert model.feature_scale == copy_model.feature_scale > 1.0
        assert model.W.tobytes() == copy_model.W.tobytes()
        assert model.mu.tobytes() == copy_model.mu.tobytes()
        assert hist.ergodic_W.tobytes() == copy_hist.ergodic_W.tobytes()


class TestNormEstimate:
    def test_history_keeps_the_estimate_solve_used(self):
        prob = small_problem(seed=28)
        _, hist = solve(prob, SolverParams(max_iter=5))
        assert hist.x_norm == spectral_norm(prob.X)
        assert hist.x_norm.converged

    def test_unconverged_estimate_is_reported(self):
        # singular values spread evenly over [0.99, 1]: power iteration
        # stalls at its 1000-step budget about 1.6e-4 below the true norm
        X = np.zeros((30, 20))
        X[:20] = np.diag(np.linspace(1.0, 0.99, 20))
        Y = one_hot(np.arange(30) % 3, 3)
        prob = Problem(X=X, Y=Y, loss=LossSpec("huber", 1.0), ball=BallSpec("l1", 2.0))
        _, hist = solve(prob, SolverParams(max_iter=5))
        assert not hist.x_norm.converged
        assert hist.x_norm.iterations == 1000
        assert 1e-4 < 1.0 - hist.x_norm.value < 3e-4


def _leaves(tree, path=""):
    """(path, value) of every leaf of a fit's digests, as ``records[2].objective.total``."""
    if isinstance(tree, dict):
        for key, value in tree.items():
            yield from _leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(tree, list):
        for i, value in enumerate(tree):
            yield from _leaves(value, f"{path}[{i}]")
    else:
        yield path, tree


def moved_fields(fresh: dict, recorded: dict) -> list[str]:
    """The digest fields of one fit that differ: W, mu, ergodic_W or a record's term."""
    a, b = dict(_leaves(fresh)), dict(_leaves(recorded))
    return [path for path in {**b, **a} if a.get(path) != b.get(path)]


class TestByteIdentity:
    """The iterates' bits, pinned by the gradient's layout and the recorded fit digests.

    A speed-up re-records a digest only where it changes rounding on
    purpose, as the sparse forward product did for the accelerated, alpha and
    frobenius-loss fits, the Gram-first norm estimate for all ten and the
    screened gradient for the seven on the l1 and l21 balls;
    ``TestSparseForwardProduct``, ``TestSpectralNormMatchesMatrixFree`` and
    ``TestScreenedGradient`` bound those changes.  A certified full step's
    +0.0 rows moved the final W of the alpha and frobenius-loss fits by the
    sign of zero alone (``TestCertifiedFullStep``).  A failure names each
    field that moved, per fit.
    """

    @pytest.mark.parametrize("k", [2, 4])
    @pytest.mark.parametrize("d", [1000, 4000, 20000])
    def test_gradient_has_the_bits_of_xt_z(self, d, k):
        rng = make_rng(d + k)
        X = rng.standard_normal((200, d))
        Z = dual_prox(2.0 * rng.standard_normal((200, k)), 0.5, LossSpec("huber", 1.0))
        G, ref = _gradient(X, Z), X.T @ Z
        # solve keeps W and the gradient column-major; tobytes() reads both in C order
        assert G.flags.f_contiguous
        assert np.array_equal(G, ref) and G.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("kind, d", BALLS_AND_WIDE_NUCLEAR)
    def test_iterates_stay_column_major_and_results_are_c_ordered(self, kind, d):
        prob = small_problem(seed=9, d=d, kind=kind)
        layouts = []
        model, hist = solve(prob, SolverParams(max_iter=10, record_every=5),
                            callback=lambda s: layouts.append(s.W.flags.f_contiguous))
        # every projection kept the column-major W it was given
        assert len(layouts) == 10 and all(layouts)
        assert model.W.flags.c_contiguous and hist.ergodic_W.flags.c_contiguous

    def test_fits_match_recorded_digests(self, tmp_path):
        recorded = json.loads(DIGEST_PATH.read_text())
        if recorded["environment"] != environment():
            pytest.skip(f"digests recorded under {recorded['environment']}; "
                        f"re-record with tests/record_solve_digests.py")
        out = tmp_path / "digests.json"
        src = str(Path(pdsparse.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, str(Path(__file__).parent / "record_solve_digests.py"),
                               "--out", str(out)], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        fresh = json.loads(out.read_text())["fits"]
        assert set(fresh) == set(recorded["fits"]) == set(CASES)
        moved = [f"{name}: {field}" for name in CASES
                 for field in moved_fields(fresh[name], recorded["fits"][name])]
        assert not moved, f"no longer byte-identical: {'; '.join(moved)}"


def _problem(Y, rows=4, radius=1.0, **weights):
    return Problem(X=np.ones((rows, 3)), Y=Y, loss=LossSpec("huber", 1.0),
                   ball=BallSpec("l1", radius), **weights)


def _template(**weights):
    return ProblemTemplate(loss=LossSpec("huber", 1.0), ball=BallSpec("l1", 1.0), **weights)


Y_2 = one_hot([0, 1, 0, 1], 2)
INPUT_CHECKS = [
    pytest.param(lambda: SolverParams(gamma=1.0),
                 "gamma must lie in (-1, 1), got 1.0", id="gamma-1"),
    pytest.param(lambda: SolverParams(gamma=-1.0),
                 "gamma must lie in (-1, 1), got -1.0", id="gamma-minus-1"),
    pytest.param(lambda: SolverParams(max_iter=0),
                 "max_iter must be at least 1, got 0", id="max-iter"),
    pytest.param(lambda: SolverParams(record_every=0),
                 "record_every must be at least 1, got 0", id="record-every"),
    pytest.param(lambda: SolverParams(max_iter=math.nan),
                 "max_iter must be an integer, got nan", id="max-iter-nan"),
    pytest.param(lambda: SolverParams(max_iter=2.5),
                 "max_iter must be an integer, got 2.5", id="max-iter-fraction"),
    pytest.param(lambda: SolverParams(record_every=math.nan),
                 "record_every must be an integer, got nan", id="record-every-nan"),
    pytest.param(lambda: SolverParams(record_every=10.0),
                 "record_every must be an integer, got 10.0", id="record-every-float"),
    pytest.param(lambda: default_steps(0.0, 1.0, 4, 2, 1.0, 1.0),
                 "X_norm must be positive and finite, got 0.0", id="steps-x-norm"),
    pytest.param(lambda: default_steps(1.0, 0.0, 4, 2, 1.0, 1.0),
                 "Y_norm must be positive and finite, got 0.0", id="steps-y-norm"),
    pytest.param(lambda: default_steps(math.nan, 1.0, 4, 2, 1.0, 1.0),
                 "X_norm must be positive and finite, got nan", id="steps-x-norm-nan"),
    pytest.param(lambda: default_steps(1.0, 1.0, 4, 2, math.nan, 1.0),
                 "rho must be nonnegative and finite, got nan", id="steps-rho-nan"),
    pytest.param(lambda: default_steps(1.0, 1.0, 4, 2, -1.0, 1.0),
                 "rho must be nonnegative and finite, got -1.0", id="steps-rho-negative"),
    pytest.param(lambda: default_steps(1.0, 1.0, 4, 2, math.inf, 1.0),
                 "rho must be nonnegative and finite, got inf", id="steps-rho-inf"),
    pytest.param(lambda: default_steps(1.0, 1.0, 4, 2, 1.0, 0.0),
                 "eta must be positive and finite, got 0.0", id="steps-eta"),
    pytest.param(lambda: default_steps(1.0, 1.0, 4, 2, 1.0, math.nan),
                 "eta must be positive and finite, got nan", id="steps-eta-nan"),
    pytest.param(lambda: solve(_problem(Y_2, radius=math.inf), SolverParams()),
                 "eta must be positive and finite, got inf", id="solve-eta-inf"),
    pytest.param(lambda: _problem(Y_2, rows=3),
                 "X has 3 rows but Y has 4", id="problem-rows"),
    pytest.param(lambda: _problem(np.ones((4, 1))),
                 "Y must have at least 2 classes", id="problem-one-class"),
    pytest.param(lambda: _problem(np.ones((4, 2))),
                 "Y must be one-hot: binary entries, one 1 per row", id="problem-not-one-hot"),
    pytest.param(lambda: _problem(Y_2, rho=-1.0),
                 "rho must be nonnegative and finite, got -1.0", id="problem-rho"),
    pytest.param(lambda: _problem(Y_2, alpha=-1.0),
                 "alpha must be nonnegative and finite, got -1.0", id="problem-alpha"),
    pytest.param(lambda: _problem(Y_2, rho=math.nan),
                 "rho must be nonnegative and finite, got nan", id="problem-rho-nan"),
    pytest.param(lambda: _problem(Y_2, alpha=math.nan),
                 "alpha must be nonnegative and finite, got nan", id="problem-alpha-nan"),
    pytest.param(lambda: _problem(Y_2, rho=math.inf),
                 "rho must be nonnegative and finite, got inf", id="problem-rho-inf"),
    pytest.param(lambda: _problem(Y_2, alpha=math.inf),
                 "alpha must be nonnegative and finite, got inf", id="problem-alpha-inf"),
    # a template is refused when it is made, before any fold is built
    pytest.param(lambda: _template(rho=-1.0),
                 "rho must be nonnegative and finite, got -1.0", id="template-rho"),
    pytest.param(lambda: _template(alpha=math.nan),
                 "alpha must be nonnegative and finite, got nan", id="template-alpha-nan"),
]


class TestInputChecks:
    @pytest.mark.parametrize("call, message", INPUT_CHECKS)
    def test_refused_with_message(self, call, message):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message


def _frobenius_entry():
    """The Frobenius ball ||W||_F <= r as a table entry: radial scaling, self-dual norm."""
    def project(V, radius, start):
        norm = np.linalg.norm(V)
        return V * (radius / norm) if norm > radius else V.copy(order="K")
    return projections._Ball(project=project, norm=np.linalg.norm, dual_norm=np.linalg.norm,
                             rotation_invariant=True)


class TestFifthBall:
    """A ball is one entry of the projections table: a fifth one fits with no other change."""

    @pytest.mark.parametrize("d, factor_rows", [(30, None), (80, 40)], ids=["d<m", "d>m"])
    def test_frobenius_ball_fits_to_a_certified_gap(self, d, factor_rows, monkeypatch):
        monkeypatch.setitem(projections._BALLS, "frobenius", _frobenius_entry())
        shapes = []
        monkeypatch.setattr(pdsparse.solver, "project_ball",
                            lambda V, ball, **kw: shapes.append(V.shape)
                            or project_ball(V, ball, **kw))
        X = normalize_features(make_rng(43).standard_normal((40, d))).X
        radius = 0.5
        prob = Problem(X=X, Y=one_hot(np.arange(40) % 3, 3), loss=LossSpec("huber", 1.0),
                       ball=BallSpec("frobenius", radius))
        model, hist = solve(prob, SolverParams(max_iter=3000, record_every=10,
                                               early_stop_tol=1e-6))
        final = hist.records[-1]
        assert final.iteration < 3000
        assert final.gap <= 1e-6 * max(1.0, abs(final.objective.total))
        # the ball is active, and a wide fit projected the m x k factor weights
        assert radius * (1 - 1e-6) <= np.linalg.norm(model.W) <= radius * (1 + 1e-9)
        assert set(shapes) == {(factor_rows or d, 3)}
