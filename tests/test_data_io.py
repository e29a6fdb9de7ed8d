import json

import numpy as np
import pytest

from pdsparse import data_io
from pdsparse.data_io import (
    _HEADER,
    MODEL_MAGIC,
    MODEL_VERSION,
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
from pdsparse.classify import CVResult, EvalReport, SweepPoint
from pdsparse.losses import LOSS_KINDS, LossSpec
from pdsparse.model import TrainedModel
from pdsparse.projections import BALL_KINDS, BallSpec

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

    def test_crlf_file_loads_bit_exact(self, tmp_path):
        # the line ends an earlier write_dataset_csv wrote
        X = make_rng(14).standard_normal((4, 3)) * np.pi
        path = tmp_path / "crlf.csv"
        lines = ["f0,f1,f2,label"] + [",".join([*(repr(float(v)) for v in x), lab])
                                      for x, lab in zip(X, "abba")]
        path.write_bytes("".join(line + "\r\n" for line in lines).encode())
        back = load_csv(path)
        assert back.X.tobytes() == X.tobytes()
        assert np.array_equal(back.labels, [0, 1, 1, 0]) and back.label_names == ["a", "b"]

    def test_label_names_with_delimiter_quote_and_line_ends_round_trip(self, tmp_path):
        names = ["a,b", 'say "hi"', "cr\rlf\n"]
        ds = Dataset(X=make_rng(15).standard_normal((3, 2)), labels=np.array([2, 0, 1]),
                     label_names=names)
        path = tmp_path / "names.csv"
        write_dataset_csv(path, ds)
        back = load_csv(path)
        assert [back.label_names[j] for j in back.labels] == [names[j] for j in ds.labels]
        assert back.X.tobytes() == ds.X.tobytes()

    def test_written_lines_end_in_lf(self, tmp_path):
        path = tmp_path / "data.csv"
        write_dataset_csv(path, Dataset(X=np.eye(2), labels=np.array([0, 1])))
        assert path.read_bytes() == b"f0,f1,label\n1.0,0.0,0\n0.0,1.0,1\n"

    def test_blank_lines_skipped_and_rows_numbered_by_file_line(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("f0,label\n1.0,a\n\n2.0,b\n")
        ds = load_csv(path)
        assert np.array_equal(ds.X, [[1.0], [2.0]]) and ds.label_names == ["a", "b"]
        path.write_text("f0,label\n1.0,a\n\n2.0,b\nx,a\n")
        with pytest.raises(ValueError) as exc:
            load_csv(path)
        assert str(exc.value) == f"{path}: non-numeric value 'x' at row 5, column 'f0'"

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

    def test_file_codes_cover_every_ball_and_loss(self):
        for codes, names, kinds in ((data_io._BALL_CODES, data_io._BALL_NAMES, BALL_KINDS),
                                    (data_io._LOSS_CODES, data_io._LOSS_NAMES, LOSS_KINDS)):
            assert sorted(codes) == sorted(kinds)
            assert len(names) == len(codes)

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


def _crafted_model(path, d, k):
    """A well-formed version-2 file of a d x k zero W, mu = I and classes "0".."k-1".

    Under a negative d or k the payload is the d k + k^2 zero entries the
    header implies, none where that is negative.
    """
    blob = _HEADER.pack(MODEL_MAGIC, MODEL_VERSION, 0, 1, 1.0, 1.0, 1.0, d, k)
    if min(d, k) < 0:
        blob += bytes(8 * max(d * k + k * k, 0))
    else:
        blob += np.zeros(d * k, dtype="<f8").tobytes() + np.eye(k, dtype="<f8").tobytes()
    return _written(path, blob + json.dumps([str(j) for j in range(k)]).encode("ascii"))


def _point(eta, confusion, selected):
    """A sweep point whose one fold has the given confusion matrix."""
    return SweepPoint(eta=eta, cv=CVResult(reports=(EvalReport(np.array(confusion)),)),
                      selected_features=np.array(selected))


def _points():
    return [_point(0.5, [[1, 1], [0, 2]], [0, 1, 2]),
            _point(1.0, [[3, 1], [0, 4]], np.arange(5))]


class TestCurveCsv:
    def test_empty_sweep_refused(self, tmp_path):
        path = tmp_path / "curve.csv"
        with pytest.raises(ValueError, match="no sweep points"):
            write_curve_csv(path, [])
        assert not path.exists()

    def test_points_of_different_class_counts_refused(self, tmp_path):
        path = tmp_path / "curve.csv"
        three = _point(2.0, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [0])
        with pytest.raises(ValueError, match=r"disagree on the class count: \[2, 3\]"):
            write_curve_csv(path, [*_points(), three])
        assert not path.exists()

    def test_header_counts_the_points_classes(self, tmp_path):
        path = tmp_path / "curve.csv"
        write_curve_csv(path, _points())
        assert path.read_text().splitlines()[0] == \
            "eta,n_features,accuracy,acc_class_0,acc_class_1"

    def test_single_point_two_lines(self, tmp_path):
        path = tmp_path / "curve.csv"
        write_curve_csv(path, _points()[:1])
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[1] == "0.5,3,0.75,0.5,1"

    def test_rewrite_is_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_curve_csv(p1, _points())
        write_curve_csv(p2, _points())
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

    def test_blank_lines_skipped_and_rows_numbered_by_file_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0,2.0\n\n3.0,4.0\n")
        assert np.array_equal(load_matrix_csv(path), [[1.0, 2.0], [3.0, 4.0]])
        path.write_text("1.0,2.0\n\n3.0,x\n")
        with pytest.raises(ValueError) as exc:
            load_matrix_csv(path)
        assert str(exc.value) == f"{path}: non-numeric value 'x' at row 3, column 2"


def _written(path, data: bytes):
    path.write_bytes(data)
    return path


UNNAMED_CODE = [Dataset(X=np.eye(3), labels=np.array(codes), label_names=["a", "b"])
                for codes in ([0, 1, 2], [0, -1, 1])]

INPUT_CHECKS = [
    pytest.param(lambda path: SyntheticSpec(m=4, d=10, k=1, s=2),
                 "need at least 2 classes, got 1", id="spec-k"),
    pytest.param(lambda path: SyntheticSpec(m=4, d=10, k=2, s=0),
                 "need at least one informative feature, got s=0", id="spec-s"),
    pytest.param(lambda path: SyntheticSpec(m=4.5, d=10, k=2, s=2),
                 "m must be an integer, got 4.5", id="spec-m-fraction"),
    pytest.param(lambda path: SyntheticSpec(m=4, d=10.5, k=2, s=2),
                 "d must be an integer, got 10.5", id="spec-d-fraction"),
    pytest.param(lambda path: SyntheticSpec(m=4, d=10, k=2.0, s=2),
                 "k must be an integer, got 2.0", id="spec-k-float"),
    pytest.param(lambda path: SyntheticSpec(m=4, d=10, k=2, s=np.nan),
                 "s must be an integer, got nan", id="spec-s-nan"),
    pytest.param(lambda path: SyntheticSpec(m=4, d=10, k=2, s=2, seed=1.5),
                 "seed must be an integer, got 1.5", id="spec-seed-fraction"),
    pytest.param(lambda path: SyntheticSpec(m=4, d=10, k=2, s=2, seed=-1),
                 "seed must be nonnegative, got -1", id="spec-seed-negative"),
    pytest.param(lambda path: SyntheticSpec(m=4, d=10, k=2, s=2, separation=0.0),
                 "separation must be positive and finite, got 0.0", id="spec-separation"),
    pytest.param(lambda path: SyntheticSpec(m=4, d=10, k=2, s=2, separation=np.inf),
                 "separation must be positive and finite, got inf", id="spec-separation-inf"),
    pytest.param(lambda path: SyntheticSpec(m=4, d=10, k=2, s=2, noise_sd=-1.0),
                 "noise_sd must be nonnegative and finite, got -1.0", id="spec-noise"),
    pytest.param(lambda path: SyntheticSpec(m=4, d=10, k=2, s=2, noise_sd=np.nan),
                 "noise_sd must be nonnegative and finite, got nan", id="spec-noise-nan"),
    pytest.param(lambda path: SyntheticSpec(m=4, d=10, k=2, s=2, noise_sd=np.inf),
                 "noise_sd must be nonnegative and finite, got inf", id="spec-noise-inf"),
    pytest.param(lambda path: write_dataset_csv(path, Dataset(
                     X=np.zeros((2, 3)), labels=np.array([0, 1]), feature_names=["a", "b"])),
                 "feature_names length does not match the matrix", id="feature-name-count"),
    pytest.param(lambda path: write_dataset_csv(path, UNNAMED_CODE[0]),
                 "label code 2 has no name in label_names (2 names)", id="label-code-unnamed"),
    pytest.param(lambda path: write_dataset_csv(path, UNNAMED_CODE[1]),
                 "label code -1 has no name in label_names (2 names)", id="label-code-negative"),
    pytest.param(lambda path: load_model(_written(path, b"PDSM")),
                 "{path}: truncated model file", id="model-truncated-header"),
    pytest.param(lambda path: load_model(_model_file(path, ball=9)),
                 "{path}: corrupt model file (unknown ball/loss code)", id="model-unknown-code"),
    pytest.param(lambda path: load_model(_model_file(path, cut=_HEADER.size + 8)),
                 "{path}: truncated model file", id="model-truncated-payload"),
    pytest.param(lambda path: load_model(_crafted_model(path, d=0, k=0)),
                 "W must have a row and at least 2 classes, got shape (0, 0)",
                 id="model-no-classes"),
    pytest.param(lambda path: load_model(_crafted_model(path, d=0, k=2)),
                 "W must have a row and at least 2 classes, got shape (0, 2)",
                 id="model-no-features"),
    pytest.param(lambda path: load_model(_crafted_model(path, d=-2, k=-2)),
                 "{path}: corrupt model file (negative shape)", id="model-negative-shape"),
    pytest.param(lambda path: load_model(_crafted_model(path, d=-3, k=2)),
                 "{path}: corrupt model file (negative shape)", id="model-negative-rows"),
    pytest.param(lambda path: load_matrix_csv(_written(path, b"")),
                 "{path}: empty file", id="matrix-empty"),
    pytest.param(lambda path: load_matrix_csv(_written(path, b"1.0,x\n")),
                 "{path}: non-numeric value 'x' at row 1, column 2", id="matrix-non-numeric"),
    pytest.param(lambda path: load_matrix_csv(_written(path, b"1.0,inf\n")),
                 "{path}: non-finite value 'inf' at row 1, column 2", id="matrix-non-finite"),
    pytest.param(lambda path: load_matrix_csv(str(_written(path, b"1.0,inf\n"))),
                 "{path}: non-finite value 'inf' at row 1, column 2",
                 id="matrix-non-finite-str-path"),
]


class TestInputChecks:
    @pytest.mark.parametrize("call, message", INPUT_CHECKS)
    def test_refused_with_message(self, call, message, tmp_path):
        path = tmp_path / "file"
        with pytest.raises(ValueError) as exc:
            call(path)
        assert str(exc.value) == message.format(path=path)

    @pytest.mark.parametrize("dataset", UNNAMED_CODE)
    def test_unnamed_label_code_leaves_no_file(self, dataset, tmp_path):
        path = tmp_path / "data.csv"
        with pytest.raises(ValueError, match="has no name"):
            write_dataset_csv(path, dataset)
        assert not path.exists()
