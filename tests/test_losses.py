import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pdsparse.losses
from pdsparse.linalg import sparse_rows_product
from pdsparse.losses import LossSpec, dual_prox, huber_value, loss_matrix, primal_objective
from pdsparse.model import Problem
from pdsparse.projections import BallSpec

from conftest import make_rng


class TestHuberValue:
    def test_quadratic_branch(self):
        assert huber_value(0.5, 1.0) == pytest.approx(0.125, abs=1e-15)

    def test_linear_branch(self):
        assert huber_value(2.0, 1.0) == pytest.approx(1.5, abs=1e-15)

    def test_continuity_at_knee(self):
        for delta in (0.5, 1.0, 3.0):
            assert huber_value(delta, delta) == pytest.approx(delta / 2, abs=1e-15)
            assert huber_value(-delta, delta) == pytest.approx(delta / 2, abs=1e-15)

    def test_delta_zero_is_absolute_value(self):
        assert huber_value(-3.0, 0.0) == 3.0

    @given(st.floats(-100, 100), st.floats(-100, 100), st.floats(0, 1),
           st.floats(0.01, 10))
    @settings(max_examples=300, deadline=None)
    def test_convexity(self, t1, t2, w, delta):
        mix = huber_value(w * t1 + (1 - w) * t2, delta)
        assert mix <= w * huber_value(t1, delta) + (1 - w) * huber_value(t2, delta) + 1e-12

    @given(st.floats(-1000, 1000), st.floats(0.001, 10))
    @settings(max_examples=300, deadline=None)
    def test_approaches_absolute_value(self, t, delta):
        assert abs(huber_value(t, delta) - abs(t)) <= delta / 2 + 1e-12

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            huber_value(1.0, -0.1)


class TestLossSpec:
    def test_delta_only_for_huber(self):
        with pytest.raises(ValueError):
            LossSpec("l1", 0.5)
        with pytest.raises(ValueError):
            LossSpec("frobenius", 1.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            LossSpec("hinge")

    def test_delta_defaults_by_kind(self):
        assert LossSpec("huber").delta == 1.0
        assert LossSpec("l1").delta == 0.0
        assert LossSpec("frobenius").delta == 0.0
        assert LossSpec("huber", 0.0).delta == 0.0


class TestLossMatrix:
    def test_l1(self):
        assert loss_matrix(np.array([[1.0, -1.0]]), LossSpec("l1")) == 2.0

    def test_frobenius_is_not_squared(self):
        assert loss_matrix(np.array([[3.0, 4.0]]), LossSpec("frobenius")) == pytest.approx(5.0)

    def test_huber_sums_entries(self):
        got = loss_matrix(np.array([[0.5, 2.0]]), LossSpec("huber", 1.0))
        assert got == pytest.approx(1.625, abs=1e-15)

    def test_frobenius_equals_sqrt_sum_squares(self):
        rng = make_rng(9)
        R = rng.standard_normal((7, 3))
        want = float(np.sqrt((R * R).sum()))
        assert abs(loss_matrix(R, LossSpec("frobenius")) - want) <= 1e-12 * want


class TestDualProx:
    def test_huber_shrink_then_clip(self):
        out = dual_prox(np.array([[4.0]]), 1.0, LossSpec("huber", 1.0))
        assert out[0, 0] == 1.0

    def test_delta_zero_is_pure_clipping(self):
        out = dual_prox(np.array([[-3.0, 0.25]]), 2.0, LossSpec("l1"))
        assert np.array_equal(out, [[-1.0, 0.25]])

    def test_frobenius_interior_unchanged(self):
        rng = make_rng(3)
        Z = rng.standard_normal((4, 2))
        Z *= 0.5 / np.linalg.norm(Z)
        assert np.array_equal(dual_prox(Z, 1.0, LossSpec("frobenius")), Z)

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(ValueError):
            dual_prox(np.zeros((2, 2)), 0.0, LossSpec("l1"))

    def test_matches_grid_search_minimizer(self):
        # scalar case: prox minimizes (z - zbar)^2 / (2 sigma) + delta z^2 / 2 on [-1, 1]
        grid = np.linspace(-1.0, 1.0, 2_000_001)
        for zbar, sigma, delta in [(4.0, 1.0, 1.0), (-0.7, 0.5, 2.0),
                                   (0.3, 2.0, 0.0), (-2.5, 0.25, 3.0)]:
            vals = (grid - zbar) ** 2 / (2 * sigma) + delta * grid**2 / 2
            best = grid[np.argmin(vals)]
            got = dual_prox(np.array([[zbar]]), sigma, LossSpec("huber", delta))[0, 0]
            assert abs(got - best) <= 2e-6


class TestPrimalObjective:
    def _problem(self, X, Y, loss=None, ball=None, rho=1.0, alpha=0.0):
        return Problem(X=X, Y=Y, loss=loss or LossSpec("huber", 1.0),
                       ball=ball or BallSpec("l1", 1.0), rho=rho, alpha=alpha)

    def test_identity_centers_have_no_penalty(self):
        rng = make_rng(17)
        X = rng.standard_normal((6, 5))
        Y = np.zeros((6, 2))
        Y[np.arange(6), np.arange(6) % 2] = 1.0
        prob = self._problem(X, Y)
        br = primal_objective(np.zeros((5, 2)), np.eye(2), prob)
        assert br.center_penalty == 0.0
        assert br.data_term == pytest.approx(
            float(np.sum(np.where(np.abs(Y) <= 1, Y * Y / 2, np.abs(Y) - 0.5))))

    def test_zero_centers_penalty_is_half_rho_k(self):
        rng = make_rng(18)
        X = rng.standard_normal((4, 3))
        Y = np.zeros((4, 2))
        Y[np.arange(4), [0, 1, 0, 1]] = 1.0
        prob = self._problem(X, Y, rho=2.0)
        br = primal_objective(np.zeros((3, 2)), np.zeros((2, 2)), prob)
        assert br.center_penalty == pytest.approx(2.0 / 2 * 2)  # rho/2 * k

    def test_total_matches_naive_reevaluation(self):
        rng = make_rng(19)
        m, d, k = 9, 6, 3
        X = rng.standard_normal((m, d))
        labels = rng.integers(0, k, m)
        Y = np.zeros((m, k))
        Y[np.arange(m), labels] = 1.0
        W = rng.standard_normal((d, k)) * 0.1
        mu = rng.standard_normal((k, k))
        prob = self._problem(X, Y, rho=0.7, alpha=0.3)
        br = primal_objective(W, mu, prob)

        # straight-line reevaluation from definitions
        delta = 1.0
        R = Y @ mu - X @ W
        data = 0.0
        for t in R.ravel():
            data += t * t / (2 * delta) if abs(t) <= delta else abs(t) - delta / 2
        center = 0.7 / 2 * np.sum((np.eye(k) - mu) ** 2)
        elastic = 0.3 / 2 * np.sum(W**2)
        assert br.data_term == pytest.approx(data, rel=1e-12)
        assert br.total == pytest.approx(data + center + elastic, rel=1e-12)
        assert br.total == pytest.approx(
            br.data_term + br.center_penalty + br.elastic_term, rel=1e-15)
        assert br.constraint_violation == pytest.approx(
            max(0.0, np.abs(W).sum() - 1.0), rel=1e-12)

    def test_data_term_takes_the_sparse_rows_product(self, monkeypatch):
        rng = make_rng(20)
        X = rng.standard_normal((30, 2000))
        Y = np.zeros((30, 3))
        Y[np.arange(30), np.arange(30) % 3] = 1.0
        W = np.zeros((2000, 3))
        W[rng.choice(2000, 250, replace=False)] = 0.1 * rng.standard_normal((250, 3))
        mu = np.eye(3) + 0.1 * rng.standard_normal((3, 3))
        prob = self._problem(X, Y)
        calls = []

        def spy(X, A):
            calls.append(X is prob.X)
            return sparse_rows_product(X, A)

        monkeypatch.setattr(pdsparse.losses, "sparse_rows_product", spy)
        br = primal_objective(W, mu, prob)
        # one product, which sparse_rows_product restricts to W's 250 nonzero rows
        assert calls == [True]
        dense = loss_matrix(Y @ mu - X @ W, LossSpec("huber", 1.0))
        assert br.data_term == pytest.approx(dense, rel=1e-14)

    def test_shape_mismatch_rejected(self):
        rng = make_rng(21)
        X = rng.standard_normal((5, 4))
        Y = np.zeros((5, 2))
        Y[np.arange(5), np.arange(5) % 2] = 1.0
        prob = self._problem(X, Y)
        with pytest.raises(ValueError):
            primal_objective(np.zeros((3, 2)), np.eye(2), prob)
        with pytest.raises(ValueError):
            primal_objective(np.zeros((4, 2)), np.eye(3), prob)


INPUT_CHECKS = [
    pytest.param(lambda: LossSpec("huber", -1.0),
                 "delta must be nonnegative, got -1.0", id="loss-negative-delta"),
]


class TestInputChecks:
    @pytest.mark.parametrize("call, message", INPUT_CHECKS)
    def test_refused_with_message(self, call, message):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message
