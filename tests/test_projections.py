import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdsparse import (LossSpec, ProblemTemplate, SolverParams, SyntheticSpec, generate_synthetic,
                      normalize_features, one_hot, projections, solve)
from pdsparse.projections import (
    BallSpec,
    L12NewtonState,
    NewtonConvergenceError,
    ball_norm,
    clip_box,
    dual_norm,
    proj_frobenius_unit,
    proj_l1_matrix,
    proj_l1_vector,
    proj_l12,
    proj_l12_with_state,
    proj_l21,
    proj_nuclear,
    project_ball,
)

from conftest import make_rng, random_feasible
from oracles import (_l12_row_state, l1_threshold_bisection, proj_l1_reference,
                     proj_l1_vector_scan, proj_l12_bisection, proj_l12_with_state_reference)


class TestProjL1Vector:
    def test_feasible_returned_unchanged(self):
        v = np.array([0.5, -0.3])
        out = proj_l1_vector(v, 1.0)
        assert np.array_equal(out, v)

    def test_infeasible_two_entries(self):
        out = proj_l1_vector(np.array([3.0, 1.0]), 2.0)
        oracle = l1_threshold_bisection(np.array([3.0, 1.0]), 2.0)
        assert np.allclose(out, [2.0, 0.0], atol=1e-12)
        assert np.allclose(out, oracle, atol=1e-9)

    def test_symmetric_entries_share_budget(self):
        out = proj_l1_vector(np.array([1.0, 1.0, 1.0]), 1.5)
        assert np.allclose(out, [0.5, 0.5, 0.5], atol=1e-12)

    def test_scan_matches_sort_and_bisection(self):
        rng = make_rng(21)
        for _ in range(300):
            n = int(rng.integers(1, 60))
            v = rng.standard_normal(n) * float(rng.uniform(0.2, 5))
            radius = float(rng.uniform(0.05, 1.2)) * max(np.abs(v).sum(), 1e-3)
            a = proj_l1_vector(v, radius)
            b = proj_l1_vector_scan(v, radius)
            c = l1_threshold_bisection(v, radius)
            assert np.abs(a - b).max() <= 1e-10
            assert np.abs(a - c).max() <= 1e-9

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            proj_l1_vector(np.ones(3), -1.0)

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=30),
           st.floats(0.01, 20))
    @settings(max_examples=200, deadline=None)
    def test_feasibility_and_idempotence(self, vals, radius):
        v = np.array(vals)
        out = proj_l1_vector(v, radius)
        assert np.abs(out).sum() <= radius * (1 + 1e-12) + 1e-12
        again = proj_l1_vector(out, radius)
        assert np.abs(again - out).max() <= 1e-10


class TestProjL1Matrix:
    def test_identity_on_boundary_unchanged(self):
        V = np.eye(2)
        assert np.array_equal(proj_l1_matrix(V, 2.0), V)

    def test_identity_shrunk(self):
        out = proj_l1_matrix(np.eye(2), 1.0)
        assert np.allclose(out, 0.5 * np.eye(2), atol=1e-12)

    def test_zero_matrix_fixed(self):
        Z = np.zeros((3, 2))
        assert np.array_equal(proj_l1_matrix(Z, 0.7), Z)


class TestClipBox:
    @pytest.mark.parametrize("x,lo,hi,want", [(-2.0, -1, 1, -1.0),
                                              (0.5, -1, 1, 0.5),
                                              (3.0, -1, 1, 1.0)])
    def test_scalar_entries(self, x, lo, hi, want):
        # the box is fixed at [lo, hi] = [-1, 1]
        assert clip_box(np.array([[x]]))[0, 0] == want == np.clip(x, lo, hi)

    def test_idempotent(self):
        rng = make_rng(5)
        Z = rng.standard_normal((6, 4)) * 3
        once = clip_box(Z)
        assert np.array_equal(clip_box(once), once)


class TestProjFrobeniusUnit:
    def test_interior_unchanged(self):
        rng = make_rng(1)
        Z = rng.standard_normal((4, 3))
        Z *= 0.5 / np.linalg.norm(Z)
        assert np.array_equal(proj_frobenius_unit(Z), Z)

    def test_radial_scaling(self):
        rng = make_rng(2)
        Z = rng.standard_normal((4, 3))
        Z *= 4.0 / np.linalg.norm(Z)
        assert np.allclose(proj_frobenius_unit(Z), Z / 4.0)

    def test_zero_fixed(self):
        Z = np.zeros((2, 2))
        assert np.array_equal(proj_frobenius_unit(Z), Z)


class TestProjL21:
    def test_boundary_feasible_unchanged(self):
        V = np.array([[3.0, 4.0], [0.0, 0.0]])
        assert np.array_equal(proj_l21(V, 5.0), V)

    def test_row_shrinkage(self):
        V = np.array([[3.0, 4.0], [0.0, 0.0]])
        out = proj_l21(V, 2.5)
        assert np.allclose(out, [[1.5, 2.0], [0.0, 0.0]], atol=1e-12)

    def test_rows_keep_direction(self):
        rng = make_rng(31)
        V = rng.standard_normal((8, 5))
        out = proj_l21(V, 0.4 * ball_norm(V, "l21"))
        for r_in, r_out in zip(V, out):
            n_out = np.linalg.norm(r_out)
            if n_out > 0:
                cos = r_in @ r_out / (np.linalg.norm(r_in) * n_out)
                assert cos == pytest.approx(1.0, abs=1e-10)

    def test_single_column_reduces_to_l1_on_magnitudes(self):
        rng = make_rng(32)
        for _ in range(50):
            v = rng.standard_normal(int(rng.integers(1, 20)))
            radius = float(rng.uniform(0.1, 0.9)) * max(np.abs(v).sum(), 1e-6)
            via_l21 = proj_l21(v[:, None], radius)[:, 0]
            via_l1 = proj_l1_vector(v, radius)
            assert np.abs(via_l21 - via_l1).max() <= 1e-10


def nuclear_diag_oracle(diag, radius):
    """Analytic nuclear projection of a diagonal matrix."""
    t = l1_threshold_bisection(np.abs(diag), radius)
    return np.diag(np.sign(diag) * t)


class TestProjNuclear:
    def test_diagonal_case(self):
        out = proj_nuclear(np.diag([3.0, 1.0]), 2.0)
        assert np.allclose(out, np.diag([2.0, 0.0]), atol=1e-9)

    def test_rank_one_scales_radially(self):
        rng = make_rng(41)
        u = rng.standard_normal(7)
        v = rng.standard_normal(3)
        M = np.outer(u, v)
        M *= 5.0 / np.linalg.svd(M, compute_uv=False)[0]
        out = proj_nuclear(M, 2.0)
        assert np.allclose(out, M * (2.0 / 5.0), atol=1e-9)

    def test_feasible_unchanged(self):
        rng = make_rng(42)
        V = rng.standard_normal((6, 4))
        V *= 0.9 * 3.0 / ball_norm(V, "nuclear")
        assert np.array_equal(proj_nuclear(V, 3.0), V)

    def test_wide_matrix_transposed_internally(self):
        rng = make_rng(43)
        V = rng.standard_normal((3, 9))
        out = proj_nuclear(V, 0.5 * ball_norm(V, "nuclear"))
        assert out.shape == V.shape
        assert ball_norm(out, "nuclear") <= 0.5 * ball_norm(V, "nuclear") * (1 + 1e-9)

    def test_random_diagonal_matches_analytic(self):
        rng = make_rng(44)
        for _ in range(40):
            diag = rng.standard_normal(int(rng.integers(2, 8))) * 3
            radius = float(rng.uniform(0.2, 0.9)) * np.abs(diag).sum()
            out = proj_nuclear(np.diag(diag), radius)
            assert np.abs(out - nuclear_diag_oracle(diag, radius)).max() <= 1e-8


class TestProjL12:
    def test_feasible_unchanged(self):
        V = np.array([[0.5, 0.2], [0.1, -0.1]])
        out, state = proj_l12_with_state(V, 5.0)
        assert np.array_equal(out, V)
        assert state.lam == 0.0

    def test_single_row_reduces_to_l1(self):
        out = proj_l12(np.array([[3.0, 1.0]]), 2.0)
        assert np.allclose(out, [[2.0, 0.0]], atol=1e-9)
        rng = make_rng(51)
        for _ in range(30):
            v = rng.standard_normal(int(rng.integers(1, 12))) * 2
            radius = float(rng.uniform(0.1, 0.9)) * max(np.abs(v).sum(), 1e-6)
            assert np.abs(proj_l12(v[None, :], radius)[0]
                          - proj_l1_vector(v, radius)).max() <= 1e-8

    def test_single_column_reduces_to_radial_l2(self):
        out = proj_l12(np.array([[3.0], [4.0]]), 2.5)
        assert np.allclose(out, [[1.5], [2.0]], atol=1e-9)
        rng = make_rng(52)
        for _ in range(30):
            v = rng.standard_normal(int(rng.integers(1, 12))) * 2
            norm = np.linalg.norm(v)
            radius = float(rng.uniform(0.1, 0.9)) * max(norm, 1e-6)
            assert np.abs(proj_l12(v[:, None], radius)[:, 0]
                          - v * (radius / norm)).max() <= 1e-8

    def test_agrees_with_bisection_oracle(self):
        rng = make_rng(53)
        for _ in range(60):
            V = rng.standard_normal((int(rng.integers(1, 11)), int(rng.integers(1, 5)))) * 2
            norm = ball_norm(V, "l12")
            radius = float(rng.uniform(0.1, 0.95)) * max(norm, 1e-6)
            a = proj_l12(V, radius)
            b = proj_l12_bisection(V, radius)
            assert np.abs(a - b).max() <= 1e-7

    def test_multiplier_iterates_nondecreasing_and_residual_small(self):
        rng = make_rng(54)
        for _ in range(100):
            V = rng.standard_normal((int(rng.integers(2, 12)), int(rng.integers(2, 6)))) * 3
            radius = float(rng.uniform(0.1, 0.8)) * ball_norm(V, "l12")
            _, state = proj_l12_with_state(V, radius)
            lams = np.array(state.lambdas)
            assert np.all(np.diff(lams) >= 0)
            assert abs(state.residual) <= 1e-8 * radius**2

    def test_soft_threshold_structure(self):
        rng = make_rng(55)
        V = rng.standard_normal((6, 4)) * 2
        out, state = proj_l12_with_state(V, 0.5 * ball_norm(V, "l12"))
        # every output entry is a soft threshold of the input at its row's level
        deltas = state.lam * np.take_along_axis(
            state.prefix_sums, (state.p - 1)[:, None], axis=1)[:, 0] / (1.0 + state.lam * state.p)
        expect = np.sign(V) * np.maximum(np.abs(V) - deltas[:, None], 0.0)
        assert np.abs(out - expect).max() <= 1e-12

    def test_nonconvergence_raises_with_residual(self, monkeypatch):
        rng = make_rng(56)
        # spread row scales so the multiplier search needs several steps
        V = rng.standard_normal((20, 6)) * np.exp(rng.uniform(-2, 2, (20, 1)))
        monkeypatch.setattr(projections, "L12_MAX_ITER", 1)
        with pytest.raises(NewtonConvergenceError) as exc:
            proj_l12(V, 0.2 * ball_norm(V, "l12"))
        assert exc.value.residual > 0


def _bits(x):
    """A value's exact bits: dtype, shape and C-order bytes of arrays, hex of floats.

    The bytes include the sign bit of every zero.
    """
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, list):
        return [_bits(v) for v in x]
    return x


def _layout(a):
    return a.flags.c_contiguous, a.flags.f_contiguous


def assert_l12_bits_unchanged(V, radius):
    W, state = proj_l12_with_state(V, radius)
    W_ref, state_ref = proj_l12_with_state_reference(V, radius)
    assert _bits(W) == _bits(W_ref)
    assert _layout(W) == _layout(V)
    assert state.prefix_sums.flags.c_contiguous
    for f in dataclasses.fields(L12NewtonState):
        assert _bits(getattr(state, f.name)) == _bits(getattr(state_ref, f.name)), f.name


# Both searches stop within L12_TOL r^2 of the radius, which moves the
# multiplier, and W with it, far less than this share of the radius.
WARM_RTOL = 1e-10


def assert_warm_agrees(W, W_cold, radius):
    assert W.shape == W_cold.shape and _layout(W) == _layout(W_cold)
    assert np.abs(W - W_cold).max(initial=0.0) <= WARM_RTOL * radius


class TestProjL12ByteIdentity:
    """The feature-major search returns the bits of the d x k one it replaced."""

    # numpy's pairwise sums can take a different order from a sequential one at k >= 8
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 8, 10, 16])
    @pytest.mark.parametrize("n", [1, 2, 7, 1000])
    def test_random_rows_across_radii(self, n, k):
        rng = make_rng(1000 * n + k)
        V = rng.standard_normal((n, k)) * np.exp(rng.uniform(-2, 2, (n, 1)))
        norm = ball_norm(V, "l12")
        for frac in (0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95, 1.0, 1.5):
            assert_l12_bits_unchanged(V, frac * norm)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 8, 10, 16])
    @pytest.mark.parametrize("n", [1, 2, 7, 1000])
    def test_ties_zero_rows_and_signed_zeros(self, n, k):
        rng = make_rng(2000 * n + k)
        # few distinct magnitudes: tied entries within rows and tied ratios across them
        V = rng.integers(-2, 3, (n, k)).astype(np.float64)
        V[rng.random(n) < 0.2] = 0.0
        V[rng.random((n, k)) < 0.1] = -0.0
        V[0] = 1.0
        norm = ball_norm(V, "l12")
        for frac in (0.05, 0.3, 0.6, 0.95, 1.2):
            assert_l12_bits_unchanged(V, frac * norm)

    @pytest.mark.parametrize("shape", [(3, 0), (0, 3), (0, 0)])
    def test_empty_shapes(self, shape):
        assert_l12_bits_unchanged(np.zeros(shape), 1.0)

    def test_every_projection_of_an_l12_fit(self, monkeypatch):
        problem = small_fit_problem("l12")
        calls = []

        def checked(V, radius, *, _start=0.0):
            assert_l12_bits_unchanged(V, radius)
            W_cold, state = proj_l12_with_state(V, radius)
            calls.append(state.iterations)
            W, _ = proj_l12_with_state(V, radius, _start=_start)
            assert_warm_agrees(W, W_cold, radius)
            return W

        monkeypatch.setattr(projections, "proj_l12", checked)
        solve(problem, SolverParams(max_iter=60, record_every=30))
        assert len(calls) == 60 and sum(calls) > 60

    def test_merge_network_sorts_every_width(self):
        rng = make_rng(57)
        for k in range(1, 41):
            values = rng.integers(0, 4, (k, 50)).astype(np.float64)
            rows = list(values)
            for i, j in projections._merge_network(k):
                rows[i], rows[j] = np.maximum(rows[i], rows[j]), np.minimum(rows[i], rows[j])
            assert np.array_equal(np.array(rows), -np.sort(-values, axis=0)), k

    def test_nonconvergence_has_the_same_residual(self, monkeypatch):
        rng = make_rng(56)
        V = rng.standard_normal((20, 6)) * np.exp(rng.uniform(-2, 2, (20, 1)))
        radius = 0.2 * ball_norm(V, "l12")
        monkeypatch.setattr(projections, "L12_MAX_ITER", 1)
        with pytest.raises(NewtonConvergenceError) as exc:
            proj_l12_with_state(V, radius)
        with pytest.raises(NewtonConvergenceError) as exc_ref:
            proj_l12_with_state_reference(V, radius, max_iter=1)
        assert exc.value.residual.hex() == exc_ref.value.residual.hex()


def residual_at(state, lam, radius):
    """The constraint value minus radius^2 at multiplier lam, from the cold call's prefix sums."""
    _, row_best = _l12_row_state(state.prefix_sums, lam)
    return float((row_best * row_best).sum()) - radius * radius


class TestProjL12Start:
    """A start with a positive residual begins the search; any other gives the cold call's bits."""

    @pytest.mark.parametrize("k", [1, 2, 4, 8, 16])
    @pytest.mark.parametrize("n", [1, 7, 1000])
    def test_starts_around_the_root(self, n, k):
        rng = make_rng(1000 * n + k)
        V = rng.standard_normal((n, k)) * np.exp(rng.uniform(-2, 2, (n, 1)))
        norm = ball_norm(V, "l12")
        warm = cold_bits = 0
        for frac in (0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95, 1.0, 1.5):
            radius = frac * norm
            W_cold, cold = proj_l12_with_state(V, radius)
            root = cold.lam
            for start in (0.0, 0.5 * root, root * (1.0 - 1e-9), root, 2.0 * root):
                W, state = proj_l12_with_state(V, radius, _start=start)
                if start > 0.0 and residual_at(cold, start, radius) > 0.0:
                    warm += 1
                    assert state.lambdas[0] == start
                    assert np.all(np.diff(state.lambdas) >= 0)
                    assert state.residual <= projections.L12_TOL * radius**2
                    assert_warm_agrees(W, W_cold, radius)
                else:
                    cold_bits += 1
                    assert _bits(W) == _bits(W_cold)
                    for f in dataclasses.fields(L12NewtonState):
                        assert _bits(getattr(state, f.name)) == _bits(getattr(cold, f.name)), f.name
        assert warm > 0 and cold_bits > 0

    @pytest.mark.parametrize("shape", [(1, 1), (7, 4), (1000, 16), (3, 0), (0, 3)])
    def test_feasible_input_ignores_the_start(self, shape):
        V = make_rng(58).standard_normal(shape)
        radius = max(1.5 * ball_norm(V, "l12"), 1.0)
        for start in (0.0, 1e-300, 1e-3, 1.0, 1e6):
            W, state = proj_l12_with_state(V, radius, _start=start)
            assert _bits(W) == _bits(V)
            assert state.lam == 0.0 and state.lambdas == [0.0]

    def test_a_carried_start_halves_the_newton_updates(self, monkeypatch):
        # the benchmark's paper shape: m = 200, d = 1000, k = 4, 1500 iterations
        ds = generate_synthetic(SyntheticSpec(m=200, d=1000, k=4, s=20, separation=2.0,
                                              noise_sd=1.0, dropout_rate=0.3, seed=1))
        problem = ProblemTemplate(LossSpec("huber", 1.0), BallSpec("l12", 8.0)).bind(
            normalize_features(ds.X), one_hot(ds.labels, 4))
        updates = {}
        for carried in (True, False):
            calls = []

            def counted(V, radius, *, _start=0.0):
                W, state = proj_l12_with_state(V, radius, _start=_start if carried else 0.0)
                calls.append(state.iterations)
                return W

            monkeypatch.setattr(projections, "proj_l12", counted)
            solve(problem, SolverParams(max_iter=1500))
            assert len(calls) == 1500
            updates[carried] = sum(calls)
        assert 2 * updates[True] <= updates[False], updates


def small_fit_problem(kind, d=300):
    ds = generate_synthetic(SyntheticSpec(m=80, d=d, k=4, s=20, separation=2.0,
                                          noise_sd=1.0, dropout_rate=0.3, seed=3))
    X = normalize_features(ds.X).X
    return ProblemTemplate(LossSpec("huber", 1.0), BallSpec(kind, 8.0)).bind(
        X, one_hot(ds.labels, 4))


def assert_l1_bits_unchanged(v, radius):
    out = proj_l1_vector(v, radius)
    assert _bits(out) == _bits(proj_l1_reference(v, radius))


class TestProjL1ByteIdentity:
    """The in-buffer sort-and-scan gives the bits of the plain full sort in ``oracles``."""

    RADII = (1e-3, 0.01, 0.05, 0.1, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95, 0.999, 1.0, 1.5)

    @pytest.mark.parametrize("n", [1, 2, 255, 256, 257, 4000, 80000])
    def test_random_vectors_across_radii(self, n):
        rng = make_rng(3000 + n)
        dense = rng.standard_normal(n)
        # solver-like: a few large entries over many small ones
        spiky = rng.standard_normal(n) * np.exp(rng.uniform(-8, 2, n))
        for v in (dense, spiky):
            norm = float(np.abs(v).sum())
            for frac in self.RADII:
                assert_l1_bits_unchanged(v, frac * norm)

    @pytest.mark.parametrize("n", [1, 2, 255, 256, 257, 4000, 80000])
    def test_ties_at_the_threshold_zeros_and_signed_zeros(self, n):
        rng = make_rng(4000 + n)
        levels = np.array([0.0, 0.1, 0.3, 0.7, 1.1])
        v = rng.choice(levels, n) * rng.choice([-1.0, 1.0], n)
        v[rng.random(n) < 0.1] = -0.0
        v[0] = -1.1
        norm = float(np.abs(v).sum())
        # sum (|v| - t)^+ as the radius puts the threshold on the tied level t
        radii = [float(np.maximum(np.abs(v) - t, 0.0).sum()) for t in levels[1:]]
        for radius in [r for r in radii if r > 0] + [f * norm for f in self.RADII]:
            assert_l1_bits_unchanged(v, radius)

    def test_entries_active_by_a_hair(self):
        # 257 active entries: the 256th and 257th largest sit only just above
        # the threshold of 1.0
        k = 256
        v = np.concatenate([np.full(k - 1, 2.0), [1.0 + 1e-6, 1.0 + 0.5e-6], np.full(2000, 0.5)])
        v *= np.where(np.arange(v.size) % 3 == 0, -1.0, 1.0)
        radius = 2.0 * (k - 1) + 2.0000015 - (k + 1)
        out = proj_l1_vector(v, radius)
        assert np.count_nonzero(out) == k + 1
        assert _bits(out) == _bits(proj_l1_reference(v, radius))

    @pytest.mark.parametrize("kind", ["l1", "l21"])
    def test_every_projection_input_of_a_fit(self, kind, monkeypatch):
        calls = []
        new = projections._proj_l1

        def checked(v, radius):
            out = new(v, radius)
            ref = proj_l1_reference(np.ravel(v), radius).reshape(v.shape)
            assert _bits(out) == _bits(ref)
            assert _layout(out) == _layout(v)
            calls.append(v.size)
            return out

        monkeypatch.setattr(projections, "_proj_l1", checked)
        solve(small_fit_problem(kind, d=1000), SolverParams(max_iter=100, record_every=30))
        # a full step projects 1000 x 4 iterates (l1) or 1000 row norms (l21),
        # a screened step the block of at most 1000 / 8 candidate rows
        full = 4000 if kind == "l1" else 1000
        assert len(calls) == 100 and 0 < calls.count(full) < 100
        assert min(calls) <= full // 8


BALLS = ["l1", "l21", "l12", "nuclear"]


def project_by_kind(V, kind, radius):
    return project_ball(V, BallSpec(kind, radius))


LAYOUT_PROJECTIONS = [
    ("l1", proj_l1_matrix), ("l21", proj_l21), ("l12", proj_l12), ("nuclear", proj_nuclear),
] + [(kind, lambda V, r, kind=kind: project_by_kind(V, kind, r)) for kind in BALLS]


class TestFortranOrderedInput:
    """A column-major input comes back column-major, with the bytes of its C-order result."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 8, 10, 16])
    @pytest.mark.parametrize("n", [1, 2, 7, 1000])
    def test_bytes_and_layout(self, n, k):
        rng = make_rng(1000 * n + k)
        V = rng.standard_normal((n, k)) * np.exp(rng.uniform(-2, 2, (n, 1)))
        for kind, project in LAYOUT_PROJECTIONS:
            norm = ball_norm(V, kind)
            # l1's feasibility total adds in memory order: a radius tied with it is tested below
            fracs = (0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95, 1.5) + ((1.0,) if kind != "l1" else ())
            for frac in fracs:
                out_c = project(V, frac * norm)
                out_f = project(np.asfortranarray(V), frac * norm)
                assert out_c.flags.c_contiguous, (kind, frac)
                assert out_f.flags.f_contiguous, (kind, frac)
                assert _bits(out_f) == _bits(out_c), (kind, frac)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 8, 10, 16, 32])
    def test_l1_radius_tied_with_the_total(self, k):
        # the F-order total may land an ulp either side of the C-order one: the
        # result is then the input or a shrink by a threshold of that order
        rng = make_rng(5000 + k)
        V = rng.standard_normal((1000, k))
        radius = ball_norm(V, "l1")
        out = proj_l1_matrix(np.asfortranarray(V), radius)
        assert out.flags.f_contiguous
        assert np.abs(out - V).max() <= 1e-15 * radius
        assert ball_norm(out, "l1") <= radius * (1 + 1e-15)


class TestSharedProjectionProperties:
    @pytest.mark.parametrize("kind", BALLS)
    def test_feasibility(self, kind):
        rng = make_rng(61)
        for _ in range(100):
            V = rng.standard_normal((int(rng.integers(2, 12)), int(rng.integers(2, 6)))) * 3
            radius = float(rng.uniform(0.1, 1.5)) * max(ball_norm(V, kind), 1e-6)
            out = project_by_kind(V, kind, radius)
            assert ball_norm(out, kind) <= radius * (1 + 1e-9)

    @pytest.mark.parametrize("kind", BALLS)
    def test_idempotence(self, kind):
        rng = make_rng(62)
        for _ in range(50):
            V = rng.standard_normal((8, 4)) * 3
            radius = float(rng.uniform(0.2, 0.9)) * ball_norm(V, kind)
            once = project_by_kind(V, kind, radius)
            twice = project_by_kind(once, kind, radius)
            assert np.abs(twice - once).max() <= 1e-10

    @pytest.mark.parametrize("kind", BALLS)
    def test_feasible_fixed_point(self, kind):
        rng = make_rng(63)
        for _ in range(30):
            V = random_feasible(rng, (7, 4), kind, 2.0)
            out = project_by_kind(V, kind, 2.0)
            if kind == "nuclear":
                assert np.abs(out - V).max() <= 1e-12
            else:
                assert np.array_equal(out, V)

    @pytest.mark.parametrize("kind", BALLS)
    def test_non_expansive(self, kind):
        rng = make_rng(64)
        for _ in range(50):
            U = rng.standard_normal((6, 4)) * 3
            V = rng.standard_normal((6, 4)) * 3
            radius = float(rng.uniform(0.3, 1.0)) * ball_norm(U, kind)
            pu = project_by_kind(U, kind, radius)
            pv = project_by_kind(V, kind, radius)
            assert np.linalg.norm(pu - pv) <= np.linalg.norm(U - V) * (1 + 1e-9)

    @pytest.mark.parametrize("kind", BALLS)
    def test_variational_optimality(self, kind):
        # <v - P(v), w - P(v)> <= 0 for every feasible w characterizes the projection
        rng = make_rng(65)
        for _ in range(10):
            V = rng.standard_normal((6, 4)) * 3
            radius = float(rng.uniform(0.3, 0.9)) * ball_norm(V, kind)
            P = project_by_kind(V, kind, radius)
            slack = 1e-8 * np.linalg.norm(V) ** 2
            for _ in range(100):
                Wf = random_feasible(rng, V.shape, kind, radius)
                assert np.sum((V - P) * (Wf - P)) <= slack


def dual_maximiser(V, kind, radius):
    """A point of the ball that maximises <V, W>, built by hand per ball."""
    W = np.zeros_like(V)
    if kind == "l1":
        i, j = np.unravel_index(np.argmax(np.abs(V)), V.shape)
        W[i, j] = radius * np.sign(V[i, j])
    elif kind == "l21":
        i = np.argmax(np.linalg.norm(V, axis=1))
        W[i] = radius * V[i] / np.linalg.norm(V[i])
    elif kind == "l12":
        # each row spends its l1 mass on its largest entry, mass proportional to it
        j = np.argmax(np.abs(V), axis=1)
        a = np.abs(V).max(axis=1)
        rows = np.arange(V.shape[0])
        W[rows, j] = radius * a / np.linalg.norm(a) * np.sign(V[rows, j])
    else:
        U, _, Vt = np.linalg.svd(V)
        W = radius * np.outer(U[:, 0], Vt[0])
    return W


class TestDualNorm:
    @pytest.mark.parametrize("kind", BALLS)
    def test_attained_at_explicit_maximiser(self, kind):
        rng = make_rng(66)
        for shape in [(9, 4), (3, 5), (1, 3)]:
            V = rng.standard_normal(shape) * 3
            W = dual_maximiser(V, kind, 2.0)
            assert ball_norm(W, kind) == pytest.approx(2.0, rel=1e-12)
            assert dual_norm(V, kind) == pytest.approx(np.sum(V * W) / 2.0, rel=1e-12)

    @pytest.mark.parametrize("kind", BALLS)
    def test_bounds_inner_product_over_the_ball(self, kind):
        rng = make_rng(67)
        for _ in range(20):
            V = rng.standard_normal((6, 4)) * 3
            bound = 1.5 * dual_norm(V, kind)
            for _ in range(50):
                W = random_feasible(rng, V.shape, kind, 1.5)
                assert np.sum(V * W) <= bound * (1 + 1e-12)

    def test_zero_matrix_and_unknown_kind(self):
        assert all(dual_norm(np.zeros((4, 2)), kind) == 0.0 for kind in BALLS)
        with pytest.raises(ValueError, match="unknown ball kind 'l3'"):
            dual_norm(np.eye(2), "l3")


class TestBallSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            BallSpec("l3", 1.0)

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(ValueError):
            BallSpec("l1", 0.0)

    def test_ball_norm_values(self):
        V = np.array([[3.0, 4.0], [0.0, 0.0]])
        assert ball_norm(V, "l1") == 7.0
        assert ball_norm(V, "l21") == 5.0
        assert ball_norm(V, "l12") == 7.0
        assert ball_norm(V, "nuclear") == pytest.approx(5.0, rel=1e-12)


INPUT_CHECKS = [
    pytest.param(lambda: proj_l1_vector(np.ones((2, 2)), 1.0),
                 "expected a vector, got shape (2, 2)", id="l1-vector-matrix"),
    pytest.param(lambda: proj_l1_vector([1.0, np.nan], 1.0),
                 "vector contains non-finite entries", id="l1-vector-non-finite"),
    pytest.param(lambda: ball_norm(np.eye(2), "l3"),
                 "unknown ball kind 'l3'", id="ball-norm-kind"),
]


class TestInputChecks:
    @pytest.mark.parametrize("call, message", INPUT_CHECKS)
    def test_refused_with_message(self, call, message):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message
