import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from pdsparse import classify, linalg, model as model_module, solver
from pdsparse.classify import (
    CVResult,
    Signature,
    cross_validate,
    detect_knee,
    eta_sweep,
    evaluate,
    predict,
    predict_rows,
    signature,
    stratified_folds,
    train_model,
)
from pdsparse.data_io import SyntheticSpec, generate_synthetic
from pdsparse.linalg import OperatorNormEstimate, normalize_features, one_hot, spectral_norm
from pdsparse.losses import LossSpec
from pdsparse.model import ProblemTemplate, TrainedModel
from pdsparse.projections import BallSpec
from pdsparse.solver import SolverParams, solve

from conftest import make_rng
from oracles import eta_sweep_reference, scores_reference, stratified_folds_reference


def toy_model(W, mu, radius=None, scale=1.0):
    W = np.asarray(W, dtype=float)
    radius = radius if radius is not None else np.abs(W).sum() + 1.0
    return TrainedModel(W=W, mu=np.asarray(mu, dtype=float),
                        ball=BallSpec("l1", radius), loss=LossSpec("huber", 1.0),
                        feature_scale=scale)


class TestPredict:
    def test_exact_center_match(self):
        model = toy_model(np.eye(2), np.eye(2))
        assert predict([1.0, 0.0], model) == 0
        assert predict([0.0, 1.0], model) == 1

    def test_tie_breaks_to_smaller_index(self):
        # projected query is equidistant from both centers
        model = toy_model(np.eye(2), np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert predict([0.5, 0.5], model) == 0

    def test_scale_invariance_of_rule(self):
        rng = make_rng(2)
        W = rng.standard_normal((6, 3))
        mu = rng.standard_normal((3, 3))
        for c in (0.1, 3.0, 17.0):
            m1 = toy_model(W, mu)
            m2 = toy_model(c * W, c * mu)
            for _ in range(50):
                x = rng.standard_normal(6)
                assert predict(x, m1) == predict(x, m2)

    def test_permutation_equivariance(self):
        rng = make_rng(3)
        W = rng.standard_normal((5, 4))
        mu = rng.standard_normal((4, 4))
        perm = np.array([2, 0, 3, 1])
        m1 = toy_model(W, mu)
        m2 = toy_model(W[:, perm], mu[np.ix_(perm, perm)])
        inv = np.argsort(perm)
        for _ in range(50):
            x = rng.standard_normal(5)
            assert predict(x, m2) == inv[predict(x, m1)]

    def test_rejects_bad_query(self):
        model = toy_model(np.eye(2), np.eye(2))
        with pytest.raises(ValueError):
            predict([1.0, 2.0, 3.0], model)


class TestSignature:
    def test_zero_weights_select_nothing(self):
        sig = signature(toy_model(np.zeros((4, 2)), np.eye(2)), epsilon=0.1)
        assert all(s.size == 0 for s in sig.selected)

    def test_single_entry(self):
        W = np.zeros((5, 3))
        W[3, 1] = 0.5
        sig = signature(toy_model(W, np.eye(3)), epsilon=0.1)
        assert sig.selected[0].size == 0
        assert np.array_equal(sig.selected[1], [3])
        assert sig.selected[2].size == 0
        assert np.array_equal(sig.union(), [3])

    def test_epsilon_dominating_selects_nothing(self):
        rng = make_rng(4)
        W = rng.standard_normal((6, 2))
        sig = signature(toy_model(W, np.eye(2)), epsilon=np.abs(W).max() + 1)
        assert sig.union().size == 0

    def test_epsilon_zero_accepted_negative_rejected(self):
        W = np.zeros((3, 2))
        W[1, 0] = 1e-300
        model = toy_model(W, np.eye(2))
        assert np.array_equal(signature(model, epsilon=0.0).union(), [1])
        with pytest.raises(ValueError, match="epsilon must be nonnegative, got -1"):
            signature(model, epsilon=-1.0)

    def test_default_epsilon_is_relative(self):
        W = np.zeros((4, 2))
        W[0, 0] = 100.0
        W[1, 1] = 1e-3  # above 1e-6 * 100
        W[2, 0] = 1e-5  # below 1e-6 * 100 is 1e-4, so this is below
        sig = signature(toy_model(W, np.eye(2)))
        assert np.array_equal(sig.union(), [0, 1])

    def test_empty_selection_has_empty_union(self):
        union = Signature(selected=()).union()
        assert union.dtype == np.int64 and union.shape == (0,)


class TestEvaluate:
    def test_constant_predictor_on_balanced_two_classes(self):
        # zero weights project everything to the origin; class 0 always wins ties
        model = toy_model(np.zeros((3, 2)), np.eye(2))
        X = make_rng(5).standard_normal((10, 3))
        labels = np.array([0, 1] * 5)
        rep = evaluate(X, labels, model)
        assert rep.global_accuracy == 0.5

    def test_confusion_identities(self):
        rng = make_rng(6)
        W = rng.standard_normal((4, 3))
        mu = rng.standard_normal((3, 3))
        model = toy_model(W, mu)
        X = rng.standard_normal((30, 4))
        labels = rng.integers(0, 3, 30)
        rep = evaluate(X, labels, model)
        assert rep.confusion.sum() == 30
        assert np.array_equal(rep.confusion.sum(axis=1), np.bincount(labels, minlength=3))
        assert rep.global_accuracy == np.trace(rep.confusion) / 30
        # class-count weighted per-class accuracies average to the global one
        counts = rep.confusion.sum(axis=1)
        present = counts > 0
        weighted = np.sum(rep.per_class_accuracy[present] * counts[present]) / 30
        assert abs(weighted - rep.global_accuracy) <= 1e-12

    def test_absent_class_reported_as_nan(self):
        model = toy_model(np.eye(3), np.eye(3))
        X = np.eye(3)[:2]
        rep = evaluate(X, [0, 1], model)
        assert np.isnan(rep.per_class_accuracy[2])

    def test_empty_test_set_rejected(self):
        model = toy_model(np.eye(2), np.eye(2))
        with pytest.raises(ValueError, match="empty"):
            evaluate(np.zeros((0, 2)), [], model)

    def test_wrong_width_rejected_like_predict_rows(self):
        model = toy_model(np.eye(2), np.eye(2))
        with pytest.raises(ValueError, match="rows must have length 2, got 3"):
            evaluate(np.zeros((4, 3)), [0, 1, 0, 1], model)

    def test_fractional_labels_rejected(self):
        model = toy_model(np.eye(2), np.eye(2))
        with pytest.raises(ValueError, match="^labels must be integers$"):
            evaluate(np.eye(2), np.array([0.5, 1.5]), model)

    def test_feature_scale_applied(self):
        # model trained on X/2 must see queries divided by 2
        model = toy_model(np.eye(2), np.eye(2), scale=2.0)
        rep = evaluate(np.array([[2.0, 0.0], [0.0, 2.0]]), [0, 1], model)
        assert rep.global_accuracy == 1.0

    def test_integral_float_labels_score_like_int_labels(self):
        rng = make_rng(41)
        model = toy_model(rng.standard_normal((4, 3)), rng.standard_normal((3, 3)))
        X, labels = rng.standard_normal((30, 4)), rng.integers(0, 3, 30)
        as_int = evaluate(X, labels, model).confusion
        as_float = evaluate(X, labels.astype(float), model).confusion
        assert as_float.dtype == np.int64 and np.array_equal(as_float, as_int)

    def test_never_reads_the_signature(self, monkeypatch):
        def spy(*args, **kwargs):
            raise AssertionError("evaluate called signature")
        monkeypatch.setattr(classify, "signature", spy)
        assert evaluate(np.eye(2), [0, 1], toy_model(np.eye(2), np.eye(2))).global_accuracy == 1.0


def scored_reports():
    """Five reports of one toy model: four interleaved slices, then the class-0/1 rows alone."""
    rng = make_rng(40)
    model = toy_model(rng.standard_normal((5, 3)), rng.standard_normal((3, 3)))
    X, labels = rng.standard_normal((37, 5)), rng.integers(0, 3, 37)
    two = labels < 2
    return ([evaluate(X[i::4], labels[i::4], model) for i in range(4)]
            + [evaluate(X[two], labels[two], model)])


class TestAccuracyBits:
    """The accuracies read off a report keep the bits they had as stored fields.

    The constants were recorded when ``evaluate`` stored the global and
    per-class accuracies it computed and ``cross_validate`` stored the mean
    and standard deviation of its folds' accuracies.
    """

    REPORTS = [
        ("0x1.3333333333333p-2", "555555555555e53f000000000000e03f0000000000000000"),
        ("0x1.c71c71c71c71cp-4", "000000000000000000000000000000009a9999999999c93f"),
        ("0x1.5555555555555p-1", "555555555555e53f000000000000e03f000000000000f03f"),
        ("0x1.c71c71c71c71cp-3", "000000000000d03f555555555555d53f0000000000000000"),
        ("0x1.aaaaaaaaaaaabp-2", "dedddddddddddd3f555555555555d53f000000000000f87f"),
    ]

    def test_report_accuracies(self):
        bits = [(r.global_accuracy.hex(), r.per_class_accuracy.tobytes().hex())
                for r in scored_reports()]
        assert bits == self.REPORTS

    def test_cv_mean_and_std(self):
        cv = CVResult(reports=tuple(scored_reports()))
        assert (cv.mean_accuracy.hex(), cv.std_accuracy.hex()) == (
            "0x1.5f92c5f92c5f9p-2", "0x1.8501c24eac58bp-3")


PAPER_SHAPE = SyntheticSpec(m=200, d=1000, k=4, s=20, separation=2.0,
                            noise_sd=1.0, dropout_rate=0.3, seed=0)


@pytest.fixture(scope="module")
def paper_l1_model():
    """An l1 model fitted on ``paper``-shape data, as the scoring benchmark fits it."""
    ds = generate_synthetic(PAPER_SHAPE)
    tpl = ProblemTemplate(loss=LossSpec("huber", 1.0), ball=BallSpec("l1", 8.0), rho=1.0)
    model, _ = train_model(ds.X, ds.labels, tpl, params=SolverParams(max_iter=1500))
    assert model.feature_scale != 1.0
    return model


class TestScoringRoutes:
    """``predict`` on scaled queries and ``predict_rows`` on raw rows share one kernel."""

    def test_routes_agree_with_the_scale_first_oracle(self, paper_l1_model):
        model = paper_l1_model
        X = generate_synthetic(replace(PAPER_SHAPE, m=2048, seed=1000)).X
        reference = scores_reference(X, model)
        expected = reference.argmin(axis=1)
        one_per_call = np.array([predict(x / model.feature_scale, model) for x in X])
        assert np.array_equal(one_per_call, expected)
        assert np.array_equal(predict_rows(X, model), expected)
        assert evaluate(X, expected, model).global_accuracy == 1.0
        rows = classify._scores((X @ model.W) / model.feature_scale, model.mu)
        queries = np.array([classify._scores((x / model.feature_scale) @ model.W, model.mu)
                            for x in X])
        np.testing.assert_allclose(rows, reference, rtol=1e-12, atol=0)
        np.testing.assert_allclose(queries, reference, rtol=1e-12, atol=0)

    def test_predict_rows_makes_no_scaled_copy(self, paper_l1_model):
        X = make_rng(9).standard_normal((4096, paper_l1_model.n_features))
        assert X.flags.c_contiguous
        tracemalloc.start()
        try:
            predict_rows(X, paper_l1_model)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the finiteness check's n x d mask is X.nbytes / 8; a scaled copy
        # of X would add X.nbytes
        assert peak < X.nbytes / 4


class TestStratifiedFolds:
    def test_partition_and_proportions(self):
        rng = make_rng(7)
        labels = rng.integers(0, 3, 61)
        folds = stratified_folds(labels, 4, seed=0)
        allidx = np.sort(np.concatenate(folds))
        assert np.array_equal(allidx, np.arange(61))
        for c in range(3):
            per_fold = [int((labels[f] == c).sum()) for f in folds]
            assert max(per_fold) - min(per_fold) <= 1

    def test_small_class_spread_round_robin(self):
        labels = np.array([0] * 20 + [1] * 3)
        folds = stratified_folds(labels, 4, seed=1)
        hit = [int((labels[f] == 1).sum()) for f in folds]
        assert max(hit) <= 1 and sum(hit) == 3

    def test_deterministic_under_seed(self):
        labels = make_rng(8).integers(0, 4, 40)
        a = stratified_folds(labels, 4, seed=5)
        b = stratified_folds(labels, 4, seed=5)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_equals_the_per_sample_deal(self):
        rng = make_rng(43)
        ran = small = 0
        for seed in range(120):
            k, folds = int(rng.integers(2, 7)), int(rng.integers(2, 8))
            # every class present, some of them smaller than the fold count
            sizes = rng.integers(1, 3 * folds, k)
            labels = rng.permutation(np.repeat(np.arange(k), sizes))
            if labels.size < folds:
                continue
            ran, small = ran + 1, small + int((sizes < folds).any())
            got = stratified_folds(labels, folds, seed=seed)
            want = stratified_folds_reference(labels, folds, seed=seed)
            assert len(got) == len(want) == folds
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and np.array_equal(g, w)
        assert ran >= 100 and small >= 20

    def test_empty_class_rejected(self):
        with pytest.raises(ValueError, match="class 1"):
            stratified_folds(np.array([0, 0, 2, 2]), 2)

    def test_fractional_labels_rejected(self):
        labels = np.arange(12) % 3 + 0.5
        with pytest.raises(ValueError, match="^labels must be integers$"):
            stratified_folds(labels, 3)


SEPARABLE = SyntheticSpec(m=48, d=12, k=2, s=3, separation=2.0, noise_sd=0.1,
                          dropout_rate=0.0, seed=3)
FAST = SolverParams(max_iter=600)
TPL = ProblemTemplate(loss=LossSpec("huber", 1.0), ball=BallSpec("l1", 10.0))


def _missing_class_set():
    """Classes 0 and 1 of a k=3 set and one class-2 sample, so one fold trains without class 2."""
    ds = generate_synthetic(SyntheticSpec(m=30, d=12, k=3, s=3, separation=2.0, noise_sd=0.1,
                                          dropout_rate=0.0, seed=3))
    keep = np.sort(np.r_[np.nonzero(ds.labels < 2)[0], np.nonzero(ds.labels == 2)[0][:1]])
    return replace(ds, X=ds.X[keep], labels=ds.labels[keep])


MISSING_CLASS = _missing_class_set()


class TestCrossValidate:
    def test_separable_reaches_high_accuracy(self):
        ds = generate_synthetic(SEPARABLE)
        res = cross_validate(ds.X, ds.labels, 4, TPL, params=FAST, seed=0)
        assert res.mean_accuracy >= 0.95
        assert len(res.reports) == 4

    def test_deterministic(self):
        ds = generate_synthetic(SEPARABLE)
        a = cross_validate(ds.X, ds.labels, 3, TPL, params=FAST, seed=2)
        b = cross_validate(ds.X, ds.labels, 3, TPL, params=FAST, seed=2)
        assert a.mean_accuracy == b.mean_accuracy
        assert a.std_accuracy == b.std_accuracy

    def test_leave_one_out_runs_one_fit_per_sample(self):
        spec = SyntheticSpec(m=8, d=6, k=2, s=2, separation=2.0, noise_sd=0.05,
                             dropout_rate=0.0, seed=4)
        ds = generate_synthetic(spec)
        res = cross_validate(ds.X, ds.labels, 8, TPL,
                             params=SolverParams(max_iter=100), seed=0)
        assert len(res.reports) == 8
        for rep in res.reports:
            assert rep.confusion.sum() == 1

    def test_fold_missing_a_class_still_fits_every_class(self, monkeypatch):
        class_counts = []

        def spy(problem, params):
            class_counts.append(problem.Y.sum(axis=0))
            return solve(problem, params)
        monkeypatch.setattr(classify, "solve", spy)
        res = cross_validate(MISSING_CLASS.X, MISSING_CLASS.labels, 3, TPL, params=FAST, seed=0)
        assert [c.shape for c in class_counts] == [(3,)] * 3
        assert sorted(int(c[2]) for c in class_counts) == [0, 1, 1]
        assert all(r.confusion.shape == (3, 3) for r in res.reports)
        assert sorted(int(r.confusion[2].sum()) for r in res.reports) == [0, 0, 1]

    def test_mean_and_std_consistent_with_reports(self):
        ds = generate_synthetic(SEPARABLE)
        res = cross_validate(ds.X, ds.labels, 4, TPL, params=FAST, seed=1)
        accs = [r.global_accuracy for r in res.reports]
        assert res.mean_accuracy == pytest.approx(np.mean(accs), abs=1e-15)
        assert res.std_accuracy == pytest.approx(np.std(accs), abs=1e-15)

    @pytest.mark.parametrize("kind,radius", [("l1", 10.0), ("l21", 6.0),
                                             ("l12", 6.0), ("nuclear", 4.0)])
    def test_every_ball_kind_learns_separable_data(self, kind, radius):
        ds = generate_synthetic(SEPARABLE)
        tpl = ProblemTemplate(loss=LossSpec("huber", 1.0),
                              ball=BallSpec(kind, radius))
        res = cross_validate(ds.X, ds.labels, 3, tpl, params=FAST, seed=0)
        assert res.mean_accuracy >= 0.9

    @pytest.mark.parametrize("fit", [
        lambda X, labels: cross_validate(X, labels, 4, TPL, params=FAST),
        lambda X, labels: eta_sweep(X, labels, [1.0, 2.0], TPL, params=FAST)],
        ids=["cross_validate", "eta_sweep"])
    @pytest.mark.parametrize("rows, n_labels", [(48, 40), (40, 48)], ids=["longer-X", "shorter-X"])
    def test_row_count_must_match_labels(self, monkeypatch, fit, rows, n_labels):
        # a longer X once lost its extra rows silently, a shorter one raised IndexError
        ds = generate_synthetic(SEPARABLE)
        fits = []
        monkeypatch.setattr(classify, "solve", lambda *a: fits.append(a))
        with pytest.raises(ValueError) as exc:
            fit(ds.X[:rows], ds.labels[:n_labels])
        assert str(exc.value) == f"X has {rows} rows but Y has {n_labels}"
        assert fits == []

    def test_frobenius_loss_learns_separable_data(self):
        ds = generate_synthetic(SEPARABLE)
        tpl = ProblemTemplate(loss=LossSpec("frobenius"), ball=BallSpec("l1", 10.0))
        params = SolverParams(max_iter=600)
        res = cross_validate(ds.X, ds.labels, 3, tpl, params=params, seed=0)
        assert res.mean_accuracy >= 0.9


class TestEtaSweep:
    def test_single_radius_single_row(self):
        ds = generate_synthetic(SEPARABLE)
        res = eta_sweep(ds.X, ds.labels, [5.0], TPL, params=FAST, folds=3, seed=0)
        assert len(res.points) == 1
        assert res.points[0].eta == 5.0
        assert res.points[0].n_features >= 1

    def test_single_point_matches_cross_validate(self):
        ds = generate_synthetic(SEPARABLE)
        sweep = eta_sweep(ds.X, ds.labels, [5.0], TPL, params=FAST, folds=3, seed=0)
        cv = cross_validate(ds.X, ds.labels, 3, TPL.with_radius(5.0),
                            params=FAST, seed=0)
        assert sweep.points[0].accuracy == cv.mean_accuracy

    def test_feature_count_mostly_nondecreasing(self):
        spec = SyntheticSpec(m=60, d=60, k=3, s=4, separation=1.5, noise_sd=0.5,
                             dropout_rate=0.1, seed=5)
        ds = generate_synthetic(spec)
        etas = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0]
        res = eta_sweep(ds.X, ds.labels, etas, TPL, params=FAST, folds=3, seed=0)
        counts = [p.n_features for p in res.points]
        violations = sum(1 for i in range(len(counts) - 1) if counts[i + 1] < counts[i])
        assert violations <= max(1, int(0.05 * len(counts)))

    @pytest.mark.parametrize("ds", [
        pytest.param(generate_synthetic(SEPARABLE), id="two-classes"),
        pytest.param(MISSING_CLASS, id="fold-missing-a-class")])
    def test_equals_the_per_radius_sweep(self, ds):
        etas, params = [0.5, 2.0, 8.0], SolverParams(max_iter=200)
        got = eta_sweep(ds.X, ds.labels, etas, TPL, params=params, folds=3, seed=1)
        want = eta_sweep_reference(ds.X, ds.labels, etas, TPL, params=params, folds=3, seed=1)
        assert len(got.points) == len(want.points) == len(etas)
        for g, w in zip(got.points, want.points):
            assert g.eta.hex() == w.eta.hex() and g.accuracy.hex() == w.accuracy.hex()
            assert g.n_features == w.n_features
            assert g.per_class_accuracy.tobytes() == w.per_class_accuracy.tobytes()
            assert g.selected_features.tobytes() == w.selected_features.tobytes()
            assert [r.confusion.tobytes() for r in g.cv.reports] == \
                   [r.confusion.tobytes() for r in w.cv.reports]
        if ds is MISSING_CLASS:
            # the fold that tests the one class-2 sample trains without class 2
            assert sorted(int(r.confusion[2].sum()) for r in got.points[0].cv.reports) == [0, 0, 1]

    @pytest.mark.parametrize("etas", [[2.0], [0.5, 1.0, 2.0, 4.0, 8.0]], ids=["1-radius", "5-radii"])
    def test_binds_each_fold_once(self, monkeypatch, etas):
        ds = generate_synthetic(SEPARABLE)
        normalized = []

        def spy(X):
            normalized.append(X.shape)
            return normalize_features(X)
        monkeypatch.setattr(classify, "normalize_features", spy)
        eta_sweep(ds.X, ds.labels, etas, TPL, params=SolverParams(max_iter=20), folds=3)
        assert len(normalized) == 3 + 1 and normalized[-1] == ds.X.shape

    def test_bad_radius_refused_before_any_fit(self, monkeypatch):
        ds = generate_synthetic(SEPARABLE)
        fits = []
        monkeypatch.setattr(classify, "solve", lambda *a: fits.append(a))
        with pytest.raises(ValueError, match="^ball radius must be positive, got nan$"):
            eta_sweep(ds.X, ds.labels, [1.0, np.nan], TPL, params=FAST)
        assert fits == []

    def test_unsorted_radii_rejected(self):
        ds = generate_synthetic(SEPARABLE)
        with pytest.raises(ValueError, match="ascending"):
            eta_sweep(ds.X, ds.labels, [2.0, 1.0], TPL, params=FAST)

    def test_knee_detector(self):
        ds = generate_synthetic(SEPARABLE)
        res = eta_sweep(ds.X, ds.labels, [0.1, 1.0, 10.0], TPL, params=FAST,
                        folds=3, seed=0)
        knee = detect_knee(res)
        assert knee is None or 0 < knee < 3
        two = eta_sweep(ds.X, ds.labels, [1.0, 2.0], TPL, params=FAST, folds=3, seed=0)
        assert detect_knee(two) is None


class TestTrainModel:
    def test_feature_scale_recorded(self):
        ds = generate_synthetic(SEPARABLE)
        model, _ = train_model(ds.X * 4.0, ds.labels, TPL, params=FAST)
        # spectral norm of the scaled data is 4x, so the stored scale reflects it
        base, _ = train_model(ds.X, ds.labels, TPL, params=FAST)
        assert model.feature_scale == pytest.approx(4.0 * base.feature_scale, rel=1e-6)

    def test_no_normalize_keeps_unit_scale(self):
        ds = generate_synthetic(SEPARABLE)
        X = ds.X / np.linalg.svd(ds.X, compute_uv=False)[0]
        model, _ = train_model(X, ds.labels, TPL, params=FAST, normalize=False)
        assert model.feature_scale == 1.0

    def test_label_gap_rejected_when_classes_inferred(self):
        X = make_rng(21).standard_normal((6, 4))
        with pytest.raises(ValueError, match="class 2 has no samples"):
            train_model(X, [0, 1, 5, 0, 1, 5], TPL, params=FAST)


def stalled_matrix():
    """Singular values spread evenly over [0.99, 1], times 3.7.

    Power iteration stalls at its 1000-step budget on it, as on the matrix
    of ``TestNormEstimate::test_unconverged_estimate_is_reported``.
    """
    X = np.zeros((30, 20))
    X[:20] = np.diag(np.linspace(1.0, 0.99, 20))
    return 3.7 * X


def hand_off_template(kind):
    return ProblemTemplate(loss=LossSpec("huber", 1.0), ball=BallSpec(kind, 2.0))


def counting(calls, key, fn):
    """*fn*, adding one to ``calls[key]`` per call."""
    def counted(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)
    return counted


class TestNormHandOff:
    """A fit reads ||X|| and the Gram matrix off ``problem.features`` alone."""

    @pytest.mark.parametrize("X, converged", [
        (3.7 * make_rng(30).standard_normal((30, 40)), True), (stalled_matrix(), False)],
        ids=["converged", "stalled"])
    def test_history_keeps_the_raw_estimate_at_unit_scale(self, X, converged):
        raw = spectral_norm(X)
        assert raw.converged == converged
        model, hist = train_model(X, np.arange(30) % 3, hand_off_template("l1"),
                                  params=SolverParams(max_iter=5))
        assert hist.x_norm == OperatorNormEstimate(1.0, raw.iterations, raw.converged)
        assert model.feature_scale == raw.value

    # nuclear-wide factors X from the record's Gram matrix (d > m); nuclear
    # at d < m has no Gram matrix to take
    @pytest.mark.parametrize("kind, d", [("l1", 60), ("l12", 60), ("nuclear", 60),
                                         ("nuclear", 20)],
                             ids=["l1", "l12", "nuclear-wide", "nuclear-tall"])
    def test_fit_matches_solve_on_the_scaled_matrix(self, kind, d):
        X = make_rng(31).standard_normal((30, d))
        labels = np.arange(30) % 3
        params = SolverParams(max_iter=300, record_every=20)
        template = hand_off_template(kind)
        model, hist = train_model(X, labels, template, params=params)
        norm = normalize_features(X)
        # bound to the record, solve is train_model's fit bit for bit
        direct, direct_hist = solve(template.bind(norm, one_hot(labels, 3)), params)
        assert np.array_equal(model.W, direct.W) and np.array_equal(model.mu, direct.mu)
        assert np.array_equal(hist.ergodic_W, direct_hist.ergodic_W)
        untimed = [[replace(r, wall_time=0.0) for r in h.records] for h in (hist, direct_hist)]
        assert untimed[0] == untimed[1]
        # bound to the bare scaled array, it estimates ||X|| again: to rounding
        bare, bare_hist = solve(template.bind(norm.X, one_hot(labels, 3)), params)
        got = [r.objective.total for r in hist.records]
        want = [r.objective.total for r in bare_hist.records]
        assert got == pytest.approx(want, rel=1e-12)
        assert np.abs(model.W - bare.W).max() <= 1e-12 * np.abs(bare.W).max()

    def test_solve_on_the_record_scores_raw_rows_like_train_model(self):
        ds = generate_synthetic(SyntheticSpec(m=200, d=1000, k=4, s=20, separation=2.0,
                                              noise_sd=1.0, dropout_rate=0.3, seed=1))
        template = ProblemTemplate(loss=LossSpec("huber", 1.0), ball=BallSpec("l1", 8.0))
        params = SolverParams(max_iter=300)
        model, _ = train_model(ds.X, ds.labels, template, params=params)
        record = normalize_features(ds.X)
        direct, _ = solve(template.bind(record, one_hot(ds.labels, 4)), params)
        assert direct.feature_scale == model.feature_scale == record.scale
        accuracy = [evaluate(ds.X, ds.labels, fit).global_accuracy for fit in (model, direct)]
        assert accuracy == [1.0, 1.0]

    @pytest.mark.parametrize("kind, d", [("l1", 60), ("nuclear", 60), ("nuclear", 20)],
                             ids=["l1", "nuclear-wide", "nuclear-tall"])
    def test_one_gram_product_and_one_estimate(self, monkeypatch, kind, d):
        X = make_rng(32).standard_normal((30, d))
        calls = {"gram": 0, "estimate": 0, "scans": 0}
        eigh_inputs, handed = [], []
        check, normalize, factor = linalg.check_matrix, linalg.normalize_features, np.linalg.eigh

        def check_matrix(a, name="matrix"):
            calls["scans"] += np.shape(a) == X.shape
            return check(a, name)

        def normalize_features(A):
            handed.append(normalize(A))
            return handed[-1]

        def eigh(a):
            eigh_inputs.append(a)
            return factor(a)

        monkeypatch.setattr(linalg, "_thin_gram", counting(calls, "gram", linalg._thin_gram))
        estimate = counting(calls, "estimate", linalg.spectral_norm)
        monkeypatch.setattr(linalg, "spectral_norm", estimate)
        monkeypatch.setattr(solver, "spectral_norm", estimate)
        for module in (linalg, model_module, classify):
            monkeypatch.setattr(module, "check_matrix", check_matrix)
        monkeypatch.setattr(classify, "normalize_features", normalize_features)
        monkeypatch.setattr(np.linalg, "eigh", eigh)
        train_model(X, np.arange(30) % 3, hand_off_template(kind),
                    params=SolverParams(max_iter=5))
        # the raw X in normalize_features alone: Problem takes the record's X as checked
        assert calls == {"gram": 1, "estimate": 1, "scans": 1}
        wide_nuclear = kind == "nuclear" and d > 30
        assert len(eigh_inputs) == wide_nuclear
        if wide_nuclear:
            assert eigh_inputs[0] is handed[0].gram

    @pytest.mark.parametrize("kind, d", [("l1", 60), ("nuclear", 60)],
                             ids=["l1", "nuclear-wide"])
    def test_solves_of_one_problem_estimate_once(self, monkeypatch, kind, d):
        problem = hand_off_template(kind).bind(make_rng(33).standard_normal((30, d)),
                                               one_hot(np.arange(30) % 3, 3))
        calls = {"gram": 0, "estimate": 0}
        eigh_inputs, factor = [], np.linalg.eigh

        def eigh(a):
            eigh_inputs.append(a)
            return factor(a)

        monkeypatch.setattr(linalg, "_thin_gram", counting(calls, "gram", linalg._thin_gram))
        monkeypatch.setattr(linalg, "spectral_norm",
                            counting(calls, "estimate", linalg.spectral_norm))
        monkeypatch.setattr(np.linalg, "eigh", eigh)
        params = SolverParams(max_iter=5)
        (first, first_hist), (second, _) = solve(problem, params), solve(problem, params)
        assert calls == {"gram": 1, "estimate": 1}
        assert first_hist.x_norm is problem.features.x_norm
        assert np.array_equal(first.W, second.W)
        # each wide nuclear fit factors the record's Gram matrix and forms no other
        assert len(eigh_inputs) == (2 if kind == "nuclear" else 0)
        assert all(a is problem.features.gram for a in eigh_inputs)


INPUT_CHECKS = [
    pytest.param(lambda: predict([np.nan, 0.0], toy_model(np.eye(2), np.eye(2))),
                 "query contains non-finite entries", id="predict-non-finite"),
    pytest.param(lambda: predict([np.inf, 0.0], toy_model(np.eye(2), np.eye(2))),
                 "query contains non-finite entries", id="predict-inf"),
    pytest.param(lambda: predict(np.eye(2), toy_model(np.eye(2), np.eye(2))),
                 "query must be a vector of length 2", id="predict-2d-query"),
    pytest.param(lambda: predict([1.0, 0.0, 0.0], toy_model(np.eye(2), np.eye(2))),
                 "query must be a vector of length 2", id="predict-wrong-length"),
    pytest.param(lambda: predict_rows([[np.nan, 0.0]], toy_model(np.eye(2), np.eye(2))),
                 "X contains non-finite entries", id="predict-rows-non-finite"),
    pytest.param(lambda: evaluate(np.eye(2), [0], toy_model(np.eye(2), np.eye(2))),
                 "labels length does not match the number of rows", id="evaluate-label-count"),
    pytest.param(lambda: evaluate(np.eye(2), [0, 2], toy_model(np.eye(2), np.eye(2))),
                 "label 2 at index 1 outside [0, 2)", id="evaluate-label-range"),
    pytest.param(lambda: stratified_folds([0, 1, 0, 1], 1),
                 "need at least 2 folds, got 1", id="folds-below-2"),
    pytest.param(lambda: stratified_folds([0, 1, 0, 1], 5),
                 "cannot make 5 folds from 4 samples", id="folds-above-m"),
    pytest.param(lambda: stratified_folds([0, 1, 0, 1], 2.5),
                 "folds must be an integer, got 2.5", id="folds-fraction"),
    pytest.param(lambda: stratified_folds([0, 1, 0, 1], 2, seed=-1),
                 "seed must be nonnegative, got -1", id="folds-seed-negative"),
    pytest.param(lambda: stratified_folds([0, 1, 0, 1], 2, seed=1.5),
                 "seed must be an integer, got 1.5", id="folds-seed-fraction"),
    pytest.param(lambda: cross_validate(np.eye(4), [0, 1, 0, 1], 2, TPL, seed=-1),
                 "seed must be nonnegative, got -1", id="cv-seed-negative"),
    pytest.param(lambda: eta_sweep(np.eye(4), [0, 1, 0, 1], [1.0], TPL, folds=2, seed=-1),
                 "seed must be nonnegative, got -1", id="sweep-seed-negative"),
    pytest.param(lambda: eta_sweep(np.eye(4), [0, 1, 0, 1], [], TPL),
                 "need at least one radius", id="sweep-no-radius"),
    # X is finite; only its Gram matrix overflows
    pytest.param(lambda: train_model(1e160 * make_rng(34).standard_normal((6, 8)),
                                     [0, 1, 0, 1, 0, 1], TPL),
                 "the Gram matrix of X overflows; rescale X", id="train-gram-overflow"),
    pytest.param(lambda: toy_model(np.eye(2), np.eye(3)),
                 "mu has shape (3, 3), expected (2, 2)", id="model-mu-shape"),
    pytest.param(lambda: toy_model(np.eye(2), np.eye(2), radius=1.0),
                 "W violates the model's ball constraint", id="model-outside-ball"),
    pytest.param(lambda: toy_model(np.ones((2, 1)), np.eye(1)),
                 "W must have a row and at least 2 classes, got shape (2, 1)",
                 id="model-one-class"),
    pytest.param(lambda: signature(toy_model(np.eye(2), np.eye(2)), epsilon=np.nan),
                 "epsilon must be nonnegative, got nan", id="signature-nan-epsilon"),
] + [
    pytest.param(lambda scale=scale: toy_model(np.eye(2), np.eye(2), scale=scale),
                 f"feature_scale must be positive and finite, got {scale}",
                 id=f"model-scale-{scale}")
    for scale in (0.0, -1.0, np.inf, np.nan)
]


class TestInputChecks:
    @pytest.mark.parametrize("call, message", INPUT_CHECKS)
    def test_refused_with_message(self, call, message):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message
