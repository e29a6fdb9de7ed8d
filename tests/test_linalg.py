import tracemalloc

import numpy as np
import pytest

from pdsparse import linalg
from pdsparse.linalg import (
    check_matrix,
    label_operator_norm,
    normalize_features,
    one_hot,
    spectral_norm,
)

from conftest import make_rng
from oracles import spectral_norm_matrix_free


class TestOneHot:
    def test_basic_encoding(self):
        enc = one_hot([0, 1, 0], 2)
        assert np.array_equal(enc, [[1, 0], [0, 1], [1, 0]])
        assert np.array_equal(enc.sum(axis=0), [2, 1])

    def test_single_sample(self):
        enc = one_hot([2], 3)
        assert np.array_equal(enc, [[0, 0, 1]])

    def test_out_of_range_label_rejected(self):
        with pytest.raises(ValueError, match="label 3 at index 1"):
            one_hot([0, 3], 3)

    def test_negative_label_rejected(self):
        with pytest.raises(ValueError):
            one_hot([0, -1], 2)

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            one_hot([0], 1)

    def test_row_sums_are_one(self):
        rng = make_rng(3)
        labels = rng.integers(0, 5, 40)
        enc = one_hot(labels, 5)
        assert np.array_equal(enc.sum(axis=1), np.ones(40))
        assert np.array_equal(enc.sum(axis=0), np.bincount(labels, minlength=5))


class TestSpectralNorm:
    def test_identity(self):
        est = spectral_norm(np.eye(3))
        assert est.value == pytest.approx(1.0, abs=1e-12)
        assert est.converged

    def test_diagonal(self):
        est = spectral_norm(np.diag([3.0, 1.0]))
        assert est.value == pytest.approx(3.0, rel=1e-9)

    def test_zero_matrix_flagged_exact(self):
        est = spectral_norm(np.zeros((4, 4)))
        assert est.value == 0.0
        assert est.converged
        assert est.iterations == 0

    def test_against_svd_oracle(self):
        rng = make_rng(11)
        A = rng.standard_normal((20, 50))
        truth = np.linalg.svd(A, compute_uv=False)[0]
        est = spectral_norm(A)
        assert abs(est.value - truth) <= 1e-6 * truth

    def test_transpose_invariance(self):
        for seed in range(5):
            rng = make_rng(100 + seed)
            A = rng.standard_normal((rng.integers(2, 100), rng.integers(2, 100)))
            a = spectral_norm(A).value
            b = spectral_norm(A.T).value
            assert abs(a - b) <= 1e-8 * max(a, b)

    def test_scaling_homogeneity(self):
        for seed in range(5):
            rng = make_rng(200 + seed)
            A = rng.standard_normal((30, 17))
            c = float(rng.uniform(-5, 5))
            a = spectral_norm(c * A).value
            b = abs(c) * spectral_norm(A).value
            assert abs(a - b) <= 1e-8 * max(a, b, 1e-30)

    def test_bounded_by_frobenius(self):
        for seed in range(10):
            rng = make_rng(300 + seed)
            A = rng.standard_normal((12, 9))
            assert spectral_norm(A).value <= np.linalg.norm(A) * (1 + 1e-12)


class TestSpectralNormMatchesMatrixFree:
    """Iterating on the Gram matrix reproduces the matrix-free run step for step."""

    @staticmethod
    def _assert_same(A, **kw):
        got = spectral_norm(A)
        want = spectral_norm_matrix_free(A, **kw)
        assert got.value == pytest.approx(want.value, rel=1e-12)
        assert got.iterations == want.iterations
        assert got.converged == want.converged
        return got

    # square pins the side rule, B = A when m >= d: a draft that iterated on
    # A A^T for square input moved the value by up to 2.9e-10 and failed here
    @pytest.mark.parametrize("shape", [(60, 25), (25, 60), (40, 40)],
                             ids=["tall", "wide", "square"])
    def test_random_shapes(self, shape):
        for seed in range(4):
            A = make_rng(400 + seed).standard_normal(shape)
            assert self._assert_same(A).converged

    def test_rank_one(self):
        # a rank-one Gram matrix maps every start onto its top eigenvector,
        # so the quotient settles by step 3
        rng = make_rng(410)
        A = np.outer(rng.standard_normal(60), rng.standard_normal(48))
        est = self._assert_same(A)
        assert est.iterations == 3
        assert est.value == pytest.approx(np.linalg.norm(A), rel=1e-12)

    @pytest.mark.parametrize("max_iter", [3, 20], ids=["3-steps", "20-steps"])
    def test_stopped_at_max_iter(self, monkeypatch, max_iter):
        # a budget far below convergence, ending at step 3 or step 20
        monkeypatch.setattr(linalg, "POWER_MAX_ITER", max_iter)
        A = make_rng(420).standard_normal((50, 70))
        est = self._assert_same(A, max_iter=max_iter)
        assert est.iterations == max_iter and not est.converged


class TestLabelOperatorNorm:
    def test_closed_form_matches_power_iteration(self):
        rng = make_rng(7)
        labels = rng.integers(0, 4, 100)
        enc = one_hot(labels, 4)
        closed = label_operator_norm(enc)
        iterated = spectral_norm(enc).value
        assert closed == pytest.approx(iterated, rel=1e-9)
        assert closed == np.sqrt(np.bincount(labels).max())


class TestNormalizeFeatures:
    def test_uniform_diagonal(self):
        norm = normalize_features(np.diag([2.0, 2.0]))
        assert norm.scale == pytest.approx(2.0, rel=1e-9)
        assert np.allclose(norm.X, np.eye(2))

    def test_already_unit_norm_unchanged(self):
        # identity and permutation matrices have exactly unit operator norm
        for X in (np.eye(3), np.eye(4)[[2, 0, 3, 1]]):
            norm = normalize_features(X)
            assert norm.scale == 1.0
            assert np.array_equal(norm.X, X)

    def test_random_matrix_lands_on_unit_norm(self):
        rng = make_rng(13)
        X = rng.standard_normal((30, 40)) * 3.7
        norm = normalize_features(X)
        renorm = spectral_norm(norm.X).value
        assert 1 - 1e-6 <= renorm <= 1 + 1e-6
        assert norm.scale == pytest.approx(np.linalg.svd(X, compute_uv=False)[0], rel=1e-6)

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError, match="zero matrix"):
            normalize_features(np.zeros((3, 3)))


class TestCheckMatrix:
    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            check_matrix(np.array([[1.0, np.nan]]))

    def test_rejects_vector(self):
        with pytest.raises(ValueError, match="2-D"):
            check_matrix(np.ones(3))

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("at", [0, 65535, 65536, -1], ids=["first", "block-end",
                                                              "block-start", "last"])
    def test_rejects_non_finite_in_any_block(self, at, order):
        X = np.ones((300, 500), order=order)
        X.flat[at] = np.inf
        with pytest.raises(ValueError, match="X contains non-finite entries"):
            check_matrix(X, "X")

    def test_empty_matrix_passes(self):
        assert check_matrix(np.zeros((0, 2))).shape == (0, 2)

    def test_checks_finiteness_without_a_full_mask(self):
        X = make_rng(12).standard_normal((4096, 1000))
        tracemalloc.start()
        try:
            assert check_matrix(X) is X
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # an n x d boolean mask would be X.nbytes / 8
        assert peak < X.nbytes / 64


INPUT_CHECKS = [
    pytest.param(lambda: one_hot([[0, 1]], 2),
                 "labels must be 1-D, got shape (1, 2)", id="one-hot-2d-labels"),
    # finite entries whose squares overflow: the power loop would return NaN
    pytest.param(lambda: spectral_norm(np.full((4, 3), 1e160)),
                 "the Gram matrix of A overflows; rescale A", id="norm-gram-overflow-tall"),
    pytest.param(lambda: spectral_norm(np.full((3, 5), 1e160)),
                 "the Gram matrix of A overflows; rescale A", id="norm-gram-overflow-wide"),
    pytest.param(lambda: normalize_features(np.full((3, 5), 1e160)),
                 "the Gram matrix of X overflows; rescale X", id="normalize-gram-overflow"),
]


class TestInputChecks:
    @pytest.mark.parametrize("call, message", INPUT_CHECKS)
    def test_refused_with_message(self, call, message):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message
