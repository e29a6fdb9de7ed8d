import numpy as np
import pytest

from pdsparse.data_io import (
    _HEADER,
    Dataset,
    SyntheticSpec,
    generate_synthetic,
    load_csv,
    load_matrix_csv,
    load_model,
    save_matrix_csv,
    save_model,
    write_curve_csv,
    write_dataset_csv,
)
from pdsparse.classify import SweepPoint, CVResult
from pdsparse.losses import LossSpec
from pdsparse.model import TrainedModel
from pdsparse.projections import BallSpec

from conftest import make_rng


class TestGenerateSynthetic:
    def test_noise_free_blocks_are_exact_indicators(self):
        spec = SyntheticSpec(m=12, d=20, k=3, s=4, separation=1.0,
                             noise_sd=0.0, dropout_rate=0.0, seed=0)
        ds = generate_synthetic(spec)
        for i in range(12):
            j = ds.labels[i]
            expect = np.zeros(20)
            expect[j * 4:(j + 1) * 4] = 1.0
            assert np.array_equal(ds.X[i], expect)

    def test_same_seed_bitwise_identical(self):
        spec = SyntheticSpec(m=30, d=50, k=3, s=5, separation=2.0,
                             noise_sd=1.0, dropout_rate=0.3, seed=9)
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.labels, b.labels)

    def test_different_seed_differs(self):
        base = dict(m=30, d=50, k=3, s=5, separation=2.0, noise_sd=1.0,
                    dropout_rate=0.3)
        a = generate_synthetic(SyntheticSpec(**base, seed=1))
        b = generate_synthetic(SyntheticSpec(**base, seed=2))
        assert not np.array_equal(a.X, b.X)

    def test_class_balance(self):
        ds = generate_synthetic(SyntheticSpec(m=14, d=20, k=4, s=2, seed=0))
        counts = np.bincount(ds.labels, minlength=4)
        assert counts.max() - counts.min() <= 1
        assert counts.sum() == 14

    def test_dropout_fraction_within_3_sigma(self):
        rate = 0.3
        spec = SyntheticSpec(m=200, d=100, k=2, s=30, separation=5.0,
                             noise_sd=0.0, dropout_rate=rate, seed=7)
        ds = generate_synthetic(spec)
        informative = np.zeros(100, dtype=bool)
        informative[:60] = True
        zeroed = 0
        total = 0
        for i in range(200):
            block = slice(ds.labels[i] * 30, (ds.labels[i] + 1) * 30)
            vals = ds.X[i, block]
            zeroed += int((vals == 0).sum())
            total += 30
        frac = zeroed / total
        sigma = np.sqrt(rate * (1 - rate) / total)
        assert abs(frac - rate) <= 3 * sigma

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError, match="blocks do not fit"):
            SyntheticSpec(m=10, d=5, k=3, s=2)
        with pytest.raises(ValueError):
            SyntheticSpec(m=2, d=50, k=4, s=2)
        with pytest.raises(ValueError):
            SyntheticSpec(m=10, d=50, k=2, s=2, dropout_rate=1.0)


class TestCsvRoundTrip:
    def test_loader_inverts_writer(self, tmp_path):
        rng = make_rng(11)
        ds = Dataset(X=rng.standard_normal((7, 4)) * np.pi,
                     labels=np.array([0, 1, 2, 0, 1, 2, 0]),
                     feature_names=["a", "b", "c", "d"],
                     label_names=["x", "y", "z"])
        path = tmp_path / "data.csv"
        write_dataset_csv(path, ds)
        back = load_csv(path)
        assert np.array_equal(back.X, ds.X)
        assert np.array_equal(back.labels, ds.labels)
        assert back.feature_names == ds.feature_names
        assert back.label_names == ds.label_names

    def test_factor_encoding_by_first_appearance(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("f0,f1,label\n1.5,2.5,a\n0.5,1.0,b\n2.0,3.0,a\n")
        ds = load_csv(path)
        assert np.array_equal(ds.labels, [0, 1, 0])
        assert ds.label_names == ["a", "b"]
        assert np.array_equal(ds.X, [[1.5, 2.5], [0.5, 1.0], [2.0, 3.0]])

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1\n1.0,2.0\n")
        with pytest.raises(ValueError, match="'label' not found"):
            load_csv(path)

    def test_unlabelled_file_loads_when_label_optional(self, tmp_path):
        path = tmp_path / "nolabel.csv"
        path.write_text("f0,f1\n1.0,2.0\n3.0,4.5\n")
        ds = load_csv(path, require_label=False)
        assert ds.labels is None and ds.label_names is None
        assert ds.feature_names == ["f0", "f1"]
        assert np.array_equal(ds.X, [[1.0, 2.0], [3.0, 4.5]])
        labelled = tmp_path / "tiny.csv"
        labelled.write_text("f0,label,f1\n1.0,a,2.0\n")
        assert load_csv(labelled, require_label=False).label_names == ["a"]

    def test_unlabelled_dataset_round_trips(self, tmp_path):
        # as load_csv(require_label=False) returns an unlabelled file
        ds = Dataset(X=make_rng(12).standard_normal((5, 3)) * np.e, labels=None,
                     feature_names=["a", "b", "c"])
        out = tmp_path / "written.csv"
        write_dataset_csv(out, ds, delimiter=";")
        assert out.read_text().splitlines()[0] == "a;b;c"
        back = load_csv(out, delimiter=";", require_label=False)
        assert back.labels is None
        assert back.feature_names == ds.feature_names
        assert back.X.tobytes() == ds.X.tobytes()

    def test_nan_token_rejected_with_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,label\n1.0,nan,a\n")
        with pytest.raises(ValueError, match="row 2.*'f1'"):
            load_csv(path)

    def test_non_numeric_rejected_with_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,label\n1.0,oops,a\n")
        with pytest.raises(ValueError, match="'oops'"):
            load_csv(path)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,label\n1.0,2.0,a\n1.0,a\n")
        with pytest.raises(ValueError, match="row 3 has 2 fields"):
            load_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_csv(path)
        path.write_text("f0,label\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_csv(path)


class TestModelRoundTrip:
    @staticmethod
    def _model():
        rng = make_rng(13)
        W = rng.standard_normal((6, 3)) * 0.1
        return TrainedModel(W=W, mu=rng.standard_normal((3, 3)),
                            ball=BallSpec("l21", 7.25), loss=LossSpec("huber", 0.5),
                            feature_scale=3.375, class_names=("x", "\u00df", "z z"))

    def test_round_trip_bit_exact(self, tmp_path):
        model = self._model()
        path = tmp_path / "model.bin"
        save_model(path, model)
        back = load_model(path)
        assert np.array_equal(back.W, model.W)
        assert np.array_equal(back.mu, model.mu)
        assert back.ball == model.ball
        assert back.loss == model.loss
        assert back.feature_scale == model.feature_scale
        assert back.class_names == ("x", "\u00df", "z z")

    def test_version_one_file_names_classes_by_index(self, tmp_path):
        model = self._model()
        path = tmp_path / "model.bin"
        save_model(path, model)
        blob = bytearray(path.read_bytes())
        names = b'["x", "\\u00df", "z z"]'
        assert blob.endswith(names)
        blob[4:8] = (1).to_bytes(4, "little")
        path.write_bytes(bytes(blob[:-len(names)]))
        back = load_model(path)
        assert back.class_names == ("0", "1", "2")
        assert np.array_equal(back.W, model.W) and np.array_equal(back.mu, model.mu)

    def test_class_names_must_be_k_distinct_strings(self, tmp_path):
        model = self._model()
        assert TrainedModel(W=model.W, mu=model.mu, ball=model.ball,
                            loss=model.loss).class_names == ("0", "1", "2")
        for names in (("a", "b"), ("a", "b", "a"), ("a", "b", 3), 5):
            with pytest.raises(ValueError, match="class_names must be 3 distinct strings"):
                TrainedModel(W=model.W, mu=model.mu, ball=model.ball, loss=model.loss,
                             class_names=names)
        # a names block that is valid JSON but not a list of strings
        path = tmp_path / "model.bin"
        save_model(path, model)
        blob = path.read_bytes()
        path.write_bytes(blob[:blob.rindex(b"[")] + b"[1, 2, 3]")
        with pytest.raises(ValueError, match="class_names must be 3 distinct strings"):
            load_model(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        save_model(path, self._model())
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 9])
        with pytest.raises(ValueError, match="truncated"):
            load_model(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        save_model(path, self._model())
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(ValueError, match="trailing"):
            load_model(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        save_model(path, self._model())
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="not a model file"):
            load_model(path)

    def test_infinite_feature_scale_rejected(self, tmp_path):
        path = _model_file(tmp_path / "model.bin", scale=np.inf)
        with pytest.raises(ValueError, match="^feature_scale must be positive and finite, got inf$"):
            load_model(path)

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        save_model(path, self._model())
        blob = bytearray(path.read_bytes())
        blob[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="version 99"):
            load_model(path)


def _model_file(path, cut=None, **header):
    """A saved model file with some header fields replaced, cut to ``cut`` bytes."""
    save_model(path, TestModelRoundTrip._model())
    blob = bytearray(path.read_bytes())
    names = ("magic", "version", "ball", "loss", "radius", "delta", "scale", "d", "k")
    fields = dict(zip(names, _HEADER.unpack_from(blob)))
    fields.update(header)
    _HEADER.pack_into(blob, 0, *fields.values())
    path.write_bytes(bytes(blob[:cut]))
    return path


def _points(k=2):
    cv = CVResult(reports=(), mean_accuracy=0.5, std_accuracy=0.0)
    return [
        SweepPoint(eta=0.5, n_features=3, accuracy=0.75,
                   per_class_accuracy=np.array([0.5, 1.0]), cv=cv,
                   selected_features=np.array([0, 1, 2])),
        SweepPoint(eta=1.0, n_features=5, accuracy=0.875,
                   per_class_accuracy=np.array([0.75, 1.0]), cv=cv,
                   selected_features=np.arange(5)),
    ]


class TestCurveCsv:
    def test_empty_sweep_writes_header_only(self, tmp_path):
        path = tmp_path / "curve.csv"
        write_curve_csv(path, [], 3)
        assert path.read_text() == "eta,n_features,accuracy,acc_class_0,acc_class_1,acc_class_2\n"

    def test_single_point_two_lines(self, tmp_path):
        path = tmp_path / "curve.csv"
        write_curve_csv(path, _points()[:1], 2)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[1] == "0.5,3,0.75,0.5,1"

    def test_rewrite_is_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_curve_csv(p1, _points(), 2)
        write_curve_csv(p2, _points(), 2)
        assert p1.read_bytes() == p2.read_bytes()


class TestMatrixCsv:
    def test_round_trip(self, tmp_path):
        rng = make_rng(17)
        M = rng.standard_normal((5, 3)) * 11.7
        path = tmp_path / "m.csv"
        save_matrix_csv(path, M)
        assert np.array_equal(load_matrix_csv(path), M)

    def test_ragged_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(ValueError, match="row 2"):
            load_matrix_csv(path)


def _written(path, data: bytes):
    path.write_bytes(data)
    return path


INPUT_CHECKS = [
    pytest.param(lambda path: SyntheticSpec(m=4, d=10, k=1, s=2),
                 "need at least 2 classes, got 1", id="spec-k"),
    pytest.param(lambda path: SyntheticSpec(m=4, d=10, k=2, s=0),
                 "need at least one informative feature, got s=0", id="spec-s"),
    pytest.param(lambda path: SyntheticSpec(m=4, d=10, k=2, s=2, separation=0.0),
                 "separation must be positive, got 0.0", id="spec-separation"),
    pytest.param(lambda path: SyntheticSpec(m=4, d=10, k=2, s=2, noise_sd=-1.0),
                 "noise_sd must be nonnegative, got -1.0", id="spec-noise"),
    pytest.param(lambda path: write_dataset_csv(path, Dataset(
                     X=np.zeros((2, 3)), labels=np.array([0, 1]), feature_names=["a", "b"])),
                 "feature_names length does not match the matrix", id="feature-name-count"),
    pytest.param(lambda path: load_model(_written(path, b"PDSM")),
                 "{path}: truncated model file", id="model-truncated-header"),
    pytest.param(lambda path: load_model(_model_file(path, ball=9)),
                 "{path}: corrupt model file (unknown ball/loss code)", id="model-unknown-code"),
    pytest.param(lambda path: load_model(_model_file(path, cut=_HEADER.size + 8)),
                 "{path}: truncated model file", id="model-truncated-payload"),
    pytest.param(lambda path: load_matrix_csv(_written(path, b"")),
                 "{path}: empty file", id="matrix-empty"),
    pytest.param(lambda path: load_matrix_csv(_written(path, b"1.0,x\n")),
                 "{path}: non-numeric value 'x' at row 1, column 2", id="matrix-non-numeric"),
]


class TestInputChecks:
    @pytest.mark.parametrize("call, message", INPUT_CHECKS)
    def test_refused_with_message(self, call, message, tmp_path):
        path = tmp_path / "file"
        with pytest.raises(ValueError) as exc:
            call(path)
        assert str(exc.value) == message.format(path=path)
