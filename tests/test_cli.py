import argparse
import ast
import csv
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from pdsparse import classify, cli, data_io
from pdsparse.cli import build_parser, main
from pdsparse.linalg import normalize_features, one_hot
from pdsparse.losses import LossSpec
from pdsparse.model import ProblemTemplate
from pdsparse.projections import BALL_KINDS, BallSpec
from pdsparse.solver import SolverParams, solve

from record_help_snapshots import NAMES, SNAPSHOT_DIR, help_text


@pytest.fixture
def dataset_csv(tmp_path):
    spec = data_io.SyntheticSpec(m=48, d=12, k=2, s=3, separation=2.0,
                                 noise_sd=0.1, dropout_rate=0.0, seed=3)
    ds = data_io.generate_synthetic(spec)
    path = tmp_path / "data.csv"
    data_io.write_dataset_csv(path, ds)
    return path


class TestHelpSnapshots:
    @pytest.mark.parametrize("name", NAMES)
    def test_help_matches_snapshot(self, name, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        assert help_text(name) == (SNAPSHOT_DIR / f"{name}.txt").read_text(), (
            f"help of {name!r} differs from its snapshot; if the change is meant, "
            f"re-record with tests/record_help_snapshots.py and check the diff")


class TestGenSynthetic:
    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            rc = main(["gen-synthetic", "--out", str(out), "--samples", "20",
                       "--features", "30", "--classes", "2", "--informative", "4",
                       "--seed", "11"])
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("flag, message", [
        ("--noise-sd", "noise_sd must be nonnegative and finite, got nan"),
        ("--separation", "separation must be positive and finite, got nan")],
        ids=["noise-sd", "separation"])
    def test_nan_setting_refused(self, flag, message, tmp_path, capsys):
        out = tmp_path / "a.csv"
        assert main(["gen-synthetic", "--out", str(out), "--samples", "20", "--features",
                     "30", "--classes", "2", "--informative", "4", flag, "nan"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_negative_seed_refused(self, tmp_path, capsys):
        out = tmp_path / "a.csv"
        assert main(["gen-synthetic", "--out", str(out), "--samples", "20", "--features",
                     "30", "--classes", "2", "--informative", "4", "--seed", "-1"]) == 1
        assert capsys.readouterr().err == "error: seed must be nonnegative, got -1\n"
        assert not out.exists()


class TestTrainPredict:
    def test_train_then_self_predict(self, dataset_csv, tmp_path, capsys):
        model_path = tmp_path / "model.bin"
        hist_path = tmp_path / "hist.csv"
        rc = main(["train", "--data", str(dataset_csv), "--model-out",
                   str(model_path), "--history-out", str(hist_path),
                   "--eta", "10", "--iters", "600"])
        assert rc == 0
        out = capsys.readouterr().out
        acc_line = next(l for l in out.splitlines() if l.startswith("training accuracy"))
        assert float(acc_line.split()[2]) >= 0.95
        assert "step-condition slack" in out
        assert model_path.exists() and hist_path.exists()
        assert hist_path.read_text().startswith("iteration,total")

        rc = main(["predict", "--model", str(model_path), "--data",
                   str(dataset_csv), "--output", str(tmp_path / "preds.csv")])
        assert rc == 0
        out = capsys.readouterr().out
        assert float(out.split("accuracy: ")[1].split()[0]) >= 0.95

    def test_fixed_mu_variant_runs(self, dataset_csv, tmp_path, capsys):
        rc = main(["train", "--data", str(dataset_csv), "--model-out",
                   str(tmp_path / "m.bin"), "--eta", "10", "--iters", "300",
                   "--variant", "fixed-mu"])
        assert rc == 0
        model = data_io.load_model(tmp_path / "m.bin")
        assert np.array_equal(model.mu, np.eye(2))

    def test_invalid_ball_name_is_usage_error(self, dataset_csv, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--data", str(dataset_csv), "--model-out",
                  str(tmp_path / "m.bin"), "--ball", "l3"])
        assert exc.value.code != 0

    def test_predictions_match_per_row_predict(self, dataset_csv, tmp_path, capsys):
        model_path, preds_path = tmp_path / "model.bin", tmp_path / "preds.csv"
        assert main(["train", "--data", str(dataset_csv), "--model-out",
                     str(model_path), "--eta", "2", "--iters", "300"]) == 0
        assert main(["predict", "--model", str(model_path), "--data",
                     str(dataset_csv), "--output", str(preds_path)]) == 0
        capsys.readouterr()
        model = data_io.load_model(model_path)
        ds = data_io.load_csv(dataset_csv)
        expect = "index,predicted_class\n" + "".join(
            f"{i},{classify.predict(x / model.feature_scale, model)}\n"
            for i, x in enumerate(ds.X))
        assert preds_path.read_text() == expect

    def test_predict_compares_labels_by_name(self, tmp_path, capsys):
        # the scored file starts at a class-z row, so it numbers its labels
        # z, x, y where the training file had x, y, z
        ds = data_io.generate_synthetic(data_io.SyntheticSpec(
            m=60, d=12, k=3, s=3, separation=3.0, noise_sd=0.1, dropout_rate=0.0, seed=4))
        names = ["x", "y", "z"]
        train_csv, shifted_csv = tmp_path / "train.csv", tmp_path / "shifted.csv"
        data_io.write_dataset_csv(train_csv, data_io.Dataset(X=ds.X, labels=ds.labels,
                                                             label_names=names))
        data_io.write_dataset_csv(shifted_csv, data_io.Dataset(
            X=ds.X[2:], labels=ds.labels[2:], label_names=names))
        assert data_io.load_csv(shifted_csv).label_names == ["z", "x", "y"]
        model_path, preds_path = tmp_path / "m.bin", tmp_path / "p.csv"
        assert main(["train", "--data", str(train_csv), "--model-out", str(model_path),
                     "--eta", "10", "--iters", "600"]) == 0
        assert "training accuracy: 1.0000" in capsys.readouterr().out
        assert data_io.load_model(model_path).class_names == ("x", "y", "z")
        assert main(["predict", "--model", str(model_path), "--data", str(shifted_csv),
                     "--output", str(preds_path)]) == 0
        assert "accuracy: 1.0000 on 58 samples" in capsys.readouterr().out
        assert preds_path.read_text() == "index,predicted_class\n" + "".join(
            f"{i},{names[c]}\n" for i, c in enumerate(ds.labels[2:]))

    def test_predictions_quote_class_names(self, tmp_path, capsys):
        ds = data_io.generate_synthetic(data_io.SyntheticSpec(
            m=30, d=9, k=3, s=3, separation=3.0, noise_sd=0.1, dropout_rate=0.0, seed=5))
        names = ["a,b", 'say "hi"', "c"]
        train_csv, model_path, preds_path = (tmp_path / "t.csv", tmp_path / "m.bin",
                                             tmp_path / "p.csv")
        data_io.write_dataset_csv(train_csv, data_io.Dataset(X=ds.X, labels=ds.labels,
                                                             label_names=names))
        assert main(["train", "--data", str(train_csv), "--model-out", str(model_path),
                     "--eta", "10", "--iters", "300"]) == 0
        assert main(["predict", "--model", str(model_path), "--data", str(train_csv),
                     "--output", str(preds_path)]) == 0
        capsys.readouterr()
        model = data_io.load_model(model_path)
        assert model.class_names == tuple(names)
        with open(preds_path, newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["index", "predicted_class"]
        expect = np.array(model.class_names)[classify.predict_rows(ds.X, model)]
        assert rows == [[str(i), p] for i, p in enumerate(expect)]

    def test_predict_refuses_unknown_label(self, dataset_csv, tmp_path, capsys):
        model_path, preds_path = tmp_path / "m.bin", tmp_path / "p.csv"
        assert main(["train", "--data", str(dataset_csv), "--model-out",
                     str(model_path), "--iters", "50"]) == 0
        other = tmp_path / "other.csv"
        other.write_text("f0,f1,f2,f3,f4,f5,f6,f7,f8,f9,f10,f11,label\n"
                         + ",".join(["0.5"] * 12) + ",1\n" + ",".join(["0.5"] * 12) + ",7\n")
        capsys.readouterr()
        assert main(["predict", "--model", str(model_path), "--data", str(other),
                     "--output", str(preds_path)]) == 1
        assert capsys.readouterr().err == (
            f"error: {other}: label '7' is not a class of the model (classes: 0, 1)\n")
        assert not preds_path.exists()

    def test_predict_scores_unlabelled_file(self, dataset_csv, tmp_path, capsys):
        model_path = tmp_path / "m.bin"
        assert main(["train", "--data", str(dataset_csv), "--model-out",
                     str(model_path), "--eta", "2", "--iters", "300"]) == 0
        # the same rows without the label column, which write_dataset_csv puts last
        unlabelled = tmp_path / "nolabel.csv"
        unlabelled.write_text("".join(line.rsplit(",", 1)[0] + "\n"
                                      for line in dataset_csv.read_text().splitlines()))
        outputs = []
        for data, preds_path in ((dataset_csv, tmp_path / "a.csv"),
                                 (unlabelled, tmp_path / "b.csv")):
            capsys.readouterr()
            assert main(["predict", "--model", str(model_path), "--data", str(data),
                         "--output", str(preds_path)]) == 0
            outputs.append((capsys.readouterr().out, preds_path.read_bytes()))
        assert outputs[0][1] == outputs[1][1]
        assert "accuracy: " in outputs[0][0]
        assert outputs[1][0] == f"predictions written to {tmp_path / 'b.csv'}\n"

    @pytest.mark.parametrize("command", ["train", "cv", "sweep-eta"])
    def test_training_commands_refuse_unlabelled_file(self, command, tmp_path, capsys):
        unlabelled = tmp_path / "nolabel.csv"
        unlabelled.write_text("f0,f1\n1.0,2.0\n3.0,4.0\n")
        extra = {"train": ["--model-out", str(tmp_path / "m.bin")], "cv": [],
                 "sweep-eta": ["--etas", "1", "--out", str(tmp_path / "s.csv")]}
        assert main([command, "--data", str(unlabelled), *extra[command]]) == 1
        assert capsys.readouterr().err == (
            f"error: {unlabelled}: label column 'label' not found in header\n")

    def test_predict_reads_version_one_model(self, dataset_csv, tmp_path, capsys):
        v2, v1 = tmp_path / "v2.bin", tmp_path / "v1.bin"
        assert main(["train", "--data", str(dataset_csv), "--model-out", str(v2),
                     "--iters", "50"]) == 0
        # a version 1 file is the same container without the trailing names
        blob = bytearray(v2.read_bytes())
        assert blob.endswith(b'["0", "1"]')
        blob[4:8] = (1).to_bytes(4, "little")
        v1.write_bytes(bytes(blob[:-len(b'["0", "1"]')]))
        outputs = []
        for model_path in (v2, v1):
            preds_path = tmp_path / f"{model_path.stem}.csv"
            capsys.readouterr()
            assert main(["predict", "--model", str(model_path), "--data", str(dataset_csv),
                         "--output", str(preds_path)]) == 0
            outputs.append((capsys.readouterr().out.splitlines()[-1], preds_path.read_text()))
        assert outputs[0] == outputs[1]

    def test_frobenius_loss_trains(self, dataset_csv, tmp_path, capsys):
        rc = main(["train", "--data", str(dataset_csv), "--model-out",
                   str(tmp_path / "m.bin"), "--eta", "10", "--iters", "300",
                   "--loss", "frobenius"])
        assert rc == 0
        assert "step-condition slack" in capsys.readouterr().out

    def test_frobenius_loss_rejects_other_variants(self, dataset_csv, tmp_path, capsys):
        rc = main(["train", "--data", str(dataset_csv), "--model-out",
                   str(tmp_path / "m.bin"), "--loss", "frobenius",
                   "--variant", "accelerated"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == ("error: cannot combine variant 'accelerated' and the frobenius loss: "
                       "a run departs from the base iteration in at most one way\n")
        assert not (tmp_path / "m.bin").exists()

    def test_unconverged_norm_estimate_is_flagged(self, dataset_csv, tmp_path, capsys):
        assert main(["train", "--data", str(dataset_csv), "--model-out",
                     str(tmp_path / "m.bin"), "--iters", "5"]) == 0
        slack = next(l for l in capsys.readouterr().out.splitlines()
                     if l.startswith("step-condition slack"))
        assert "unconverged" not in slack
        # singular values spread evenly over [0.99, 1] stall the power iteration
        X = np.zeros((30, 20))
        X[:20] = np.diag(np.linspace(1.0, 0.99, 20))
        path = tmp_path / "flat.csv"
        data_io.write_dataset_csv(path, data_io.Dataset(X=X, labels=np.arange(30) % 3))
        assert main(["train", "--data", str(path), "--model-out", str(tmp_path / "f.bin"),
                     "--iters", "5", "--no-normalize"]) == 0
        slack = next(l for l in capsys.readouterr().out.splitlines()
                     if l.startswith("step-condition slack"))
        assert slack.endswith(" (operator-norm estimate unconverged after 1000 iterations)")

    def test_accelerated_history_has_no_gap_bound(self, dataset_csv, tmp_path, capsys):
        for variant in ("base", "accelerated"):
            hist = tmp_path / f"{variant}.csv"
            assert main(["train", "--data", str(dataset_csv), "--model-out",
                         str(tmp_path / "m.bin"), "--iters", "100", "--variant", variant,
                         "--history-out", str(hist)]) == 0
            header, *rows = hist.read_text().splitlines()
            assert "gap_bound" not in header.split(",")
            col = header.split(",").index("gap")
            totals = [abs(float(r.split(",")[1])) for r in rows]
            gaps = [float(r.split(",")[col]) for r in rows]
            assert all(np.isfinite(g) and g >= -1e-12 * max(1.0, t)
                       for g, t in zip(gaps, totals))
            out = capsys.readouterr().out
            assert "dual residual" not in out
            line = next(l for l in out.splitlines() if l.startswith("duality gap: "))
            assert float(line.split()[2]) == pytest.approx(gaps[-1], rel=1e-3)
            rel = float(line.split("relative ")[1].rstrip(")"))
            assert rel == pytest.approx(gaps[-1] / max(1.0, totals[-1]), rel=1e-3)

    def test_departure_pairs_rejected_like_the_library(self, dataset_csv,
                                                       tmp_path, capsys):
        ds = data_io.load_csv(dataset_csv)
        departures = [("--variant", "fixed-mu"), ("--variant", "accelerated"),
                      ("--gamma", "0.5"), ("--alpha", "0.5"), ("--loss", "frobenius")]
        pairs = [(a, b) for i, a in enumerate(departures) for b in departures[i + 1:]
                 if a[0] != b[0]]
        assert len(pairs) == 9
        for a, b in pairs:
            args = build_parser().parse_args(["train", "--data", "x", "--model-out", "x",
                                              *a, *b])
            template, params = cli._template_params(args)
            with pytest.raises(ValueError) as lib:
                classify.train_model(ds.X, ds.labels, template, params=params)
            rc = main(["train", "--data", str(dataset_csv), "--model-out",
                       str(tmp_path / "m.bin"), *a, *b])
            assert rc == 1
            assert capsys.readouterr().err == f"error: {lib.value}\n"
            assert "cannot combine" in str(lib.value)
            assert not (tmp_path / "m.bin").exists()
        rc = main(["train", "--data", str(dataset_csv), "--model-out",
                   str(tmp_path / "m.bin"), "--alpha", "0.5", "--eta", "10", "--iters", "300"])
        assert rc == 0
        out = capsys.readouterr().out
        final = next(l for l in out.splitlines() if l.startswith("final objective"))
        assert float(final.split("elastic ")[1].rstrip(")")) > 0

    @pytest.mark.parametrize("loss", ["l1", "frobenius"])
    def test_delta_outside_huber_rejected_like_the_library(self, loss, dataset_csv,
                                                           tmp_path, capsys):
        with pytest.raises(ValueError) as lib:
            LossSpec(loss, 2.0)
        model_path = tmp_path / "m.bin"
        train = ["train", "--data", str(dataset_csv), "--model-out", str(model_path),
                 "--loss", loss, "--iters", "50"]
        assert main([*train, "--delta", "2"]) == 1
        assert capsys.readouterr().err == f"error: {lib.value}\n"
        assert not model_path.exists()
        assert main(train) == 0
        assert model_path.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--rho", "nan", "rho must be nonnegative and finite, got nan"),
        ("--alpha", "nan", "alpha must be nonnegative and finite, got nan"),
        ("--delta", "nan", "delta must be nonnegative and finite, got nan"),
        ("--eta", "nan", "ball radius must be positive, got nan"),
        ("--eta", "inf", "eta must be positive and finite, got inf")],
        ids=["rho-nan", "alpha-nan", "delta-nan", "eta-nan", "eta-inf"])
    def test_out_of_range_setting_refused(self, flag, value, message, dataset_csv,
                                          tmp_path, capsys):
        model_path = tmp_path / "m.bin"
        assert main(["train", "--data", str(dataset_csv), "--model-out", str(model_path),
                     flag, value]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not model_path.exists()

    @pytest.mark.parametrize("flag, settings", [
        ("--rho", lambda v: ProblemTemplate(LossSpec("huber"), BallSpec("l1", 1.0), rho=v)),
        ("--alpha", lambda v: ProblemTemplate(LossSpec("huber"), BallSpec("l1", 1.0), alpha=v)),
        ("--delta", lambda v: LossSpec("huber", v))], ids=["rho", "alpha", "delta"])
    def test_infinite_weight_refused_like_the_library(self, flag, settings, dataset_csv,
                                                      tmp_path, capsys):
        with pytest.raises(ValueError) as lib:
            settings(float("inf"))
        model_path = tmp_path / "m.bin"
        assert main(["train", "--data", str(dataset_csv), "--model-out", str(model_path),
                     flag, "inf"]) == 1
        assert capsys.readouterr().err == f"error: {lib.value}\n"
        assert not model_path.exists()

    def test_delta_defaults_by_loss(self):
        def loss_of(*argv):
            args = build_parser().parse_args(["train", "--data", "x", "--model-out", "x",
                                              *argv])
            return cli._template_params(args)[0].loss
        assert loss_of() == LossSpec("huber", 1.0)
        assert loss_of("--delta", "0.5") == LossSpec("huber", 0.5)
        assert loss_of("--loss", "l1") == LossSpec("l1", 0.0)
        assert loss_of("--loss", "frobenius") == LossSpec("frobenius", 0.0)

    def test_missing_file_reports_one_line_error(self, tmp_path, capsys):
        rc = main(["train", "--data", str(tmp_path / "nope.csv"),
                   "--model-out", str(tmp_path / "m.bin")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1


class TestEveryOptionIsRead:
    """Each option a subcommand parses is read by the code it runs."""

    def test_every_parsed_option_is_read(self, dataset_csv, tmp_path, capsys):
        matrix = tmp_path / "in.csv"
        data_io.save_matrix_csv(matrix, np.array([[1.0, -2.0], [0.5, 0.0]]))
        model = tmp_path / "m.bin"
        runs = {
            "gen-synthetic": ["--out", str(tmp_path / "g.csv"), "--samples", "12",
                              "--features", "6", "--classes", "2", "--informative", "2"],
            "train": ["--data", str(dataset_csv), "--model-out", str(model),
                      "--history-out", str(tmp_path / "h.csv"), "--iters", "5"],
            "predict": ["--model", str(model), "--data", str(dataset_csv),
                        "--output", str(tmp_path / "p.csv")],
            "cv": ["--data", str(dataset_csv), "--folds", "2", "--iters", "5"],
            "sweep-eta": ["--data", str(dataset_csv), "--etas", "1", "--folds", "2",
                          "--iters", "5", "--out", str(tmp_path / "s.csv")],
            "project": ["--input", str(matrix), "--output", str(tmp_path / "o.csv"),
                        "--ball", "l1", "--radius", "1"],
            "bench-proj": ["--dims", "8", "--k", "2", "--reps", "1",
                           "--out", str(tmp_path / "b.csv")],
        }
        assert set(runs) == set(build_parser()._subparsers._group_actions[0].choices)
        unread = {}
        for command, argv in runs.items():  # train runs before predict
            args = build_parser().parse_args([command, *argv])
            read = set()

            class Recorder:
                def __getattr__(self, name):
                    read.add(name)
                    return getattr(args, name)

            assert args.func(Recorder()) == 0
            unread[command] = set(vars(args)) - {"command", "func"} - read
        capsys.readouterr()
        assert unread == {command: set() for command in runs}

    @pytest.mark.parametrize("argv", [["cv", "--data", "x"],
                                      ["sweep-eta", "--data", "x", "--etas", "1", "--out", "y"]],
                             ids=["cv", "sweep-eta"])
    def test_no_normalize_is_train_only(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--no-normalize"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --no-normalize" in capsys.readouterr().err


# A valid non-default value for each SolverParams field (the three steps are
# one setting) and for each solver flag of the CLI.  A field or flag without
# an entry fails its case, so a new setting needs one that runs.
FIELD_VALUES = {"steps": dict(tau=0.05, tau_mu=0.01, sigma=1.0), "gamma": 0.4,
                "max_iter": 60, "record_every": 7, "variant": "accelerated",
                "early_stop_tol": 1e-3}
FLAG_VALUES = {"--eta": "3", "--ball": "nuclear", "--loss": "l1", "--delta": "0.5",
               "--rho": "2", "--alpha": "0.3", "--gamma": "0.4", "--variant": "fixed-mu",
               "--iters": "60"}
STEP_FIELDS = ("tau", "tau_mu", "sigma")


def _settings():
    names = [f.name for f in fields(SolverParams) if f.name not in STEP_FIELDS]
    parser = argparse.ArgumentParser()
    cli._add_solver_flags(parser)
    flags = [a.option_strings[0] for a in parser._actions if a.dest != "help"]
    cases = [("field", "steps")] + [("field", n) for n in names] + [("flag", f) for f in flags]
    return [pytest.param(kind, name, id=f"{kind}-{name}") for kind, name in cases]


class TestEverySettingRuns:
    """Each setting of ``solve`` and each solver flag of ``train`` runs when set alone."""

    @pytest.mark.parametrize("kind, name", _settings())
    def test_setting_alone_runs(self, kind, name, dataset_csv, tmp_path, capsys):
        if kind == "field":
            value = FIELD_VALUES[name]
            params = SolverParams(**(value if name == "steps" else {name: value}))
            ds = data_io.load_csv(dataset_csv)
            Xn = normalize_features(ds.X).X
            problem = ProblemTemplate(loss=LossSpec("huber", 1.0),
                                      ball=BallSpec("l1", 2.0)).bind(Xn, one_hot(ds.labels, 2))
            model, history = solve(problem, params)
            assert history.records and np.isfinite(model.W).all()
        else:
            model_path = tmp_path / "m.bin"
            assert main(["train", "--data", str(dataset_csv), "--model-out",
                         str(model_path), name, FLAG_VALUES[name]]) == 0
            capsys.readouterr()
            assert model_path.exists()


class TestCvAndSweep:
    def test_cv_default_four_folds(self, dataset_csv, capsys):
        rc = main(["cv", "--data", str(dataset_csv), "--eta", "10",
                   "--iters", "400"])
        assert rc == 0
        out = capsys.readouterr().out
        assert sum(1 for l in out.splitlines() if l.startswith("fold ")) == 4
        assert "mean accuracy" in out

    def test_cv_negative_seed_refused(self, dataset_csv, capsys):
        assert main(["cv", "--data", str(dataset_csv), "--seed", "-1"]) == 1
        assert capsys.readouterr().err == "error: seed must be nonnegative, got -1\n"

    def test_single_point_sweep_matches_cv(self, dataset_csv, tmp_path, capsys):
        rc = main(["cv", "--data", str(dataset_csv), "--eta", "5",
                   "--folds", "3", "--iters", "400", "--seed", "7"])
        assert rc == 0
        cv_out = capsys.readouterr().out
        mean = float(cv_out.split("mean accuracy: ")[1].split()[0])

        curve = tmp_path / "curve.csv"
        rc = main(["sweep-eta", "--data", str(dataset_csv), "--etas", "5",
                   "--out", str(curve), "--folds", "3", "--iters", "400",
                   "--seed", "7"])
        assert rc == 0
        capsys.readouterr()
        lines = curve.read_text().splitlines()
        assert len(lines) == 2
        assert float(lines[1].split(",")[2]) == pytest.approx(mean, abs=5e-5)

    def test_sweep_deterministic_output_files(self, dataset_csv, tmp_path, capsys):
        paths = [tmp_path / "c1.csv", tmp_path / "c2.csv"]
        for p in paths:
            rc = main(["sweep-eta", "--data", str(dataset_csv), "--etas", "2,8",
                       "--out", str(p), "--folds", "3", "--iters", "300",
                       "--seed", "3"])
            assert rc == 0
        capsys.readouterr()
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_sweep_names_its_knee(self, dataset_csv, tmp_path, capsys):
        curve = tmp_path / "curve.csv"
        rc = main(["sweep-eta", "--data", str(dataset_csv), "--etas", "1,4,16",
                   "--out", str(curve), "--folds", "3", "--iters", "300"])
        assert rc == 0
        # three points have one interior point, the knee
        n_features = curve.read_text().splitlines()[2].split(",")[1]
        assert capsys.readouterr().out.splitlines()[-1] == (
            f"knee (heuristic, largest second difference): eta 4 with {n_features} features")


class TestProject:
    def test_l1_feasible_input_unchanged(self, tmp_path, capsys):
        src, dst = tmp_path / "in.csv", tmp_path / "out.csv"
        data_io.save_matrix_csv(src, np.array([[0.25, -0.25], [0.0, 0.1]]))
        rc = main(["project", "--input", str(src), "--output", str(dst),
                   "--ball", "l1", "--radius", "10"])
        assert rc == 0
        capsys.readouterr()
        assert np.array_equal(data_io.load_matrix_csv(dst),
                              [[0.25, -0.25], [0.0, 0.1]])

    def test_nuclear_diagonal(self, tmp_path, capsys):
        src, dst = tmp_path / "in.csv", tmp_path / "out.csv"
        data_io.save_matrix_csv(src, np.diag([3.0, 1.0]))
        rc = main(["project", "--input", str(src), "--output", str(dst),
                   "--ball", "nuclear", "--radius", "2"])
        assert rc == 0
        capsys.readouterr()
        assert np.allclose(data_io.load_matrix_csv(dst), np.diag([2.0, 0.0]),
                           atol=1e-9)

    def test_svd_failure_exits_1(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        src, dst = tmp_path / "in.csv", tmp_path / "out.csv"
        data_io.save_matrix_csv(src, np.diag([3.0, 1.0]))
        monkeypatch.setattr(np.linalg, "svd", fail)
        rc = main(["project", "--input", str(src), "--output", str(dst),
                   "--ball", "nuclear", "--radius", "2"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: SVD failed during nuclear projection: SVD did not converge\n")
        assert not dst.exists()

    def test_l12_single_row_matches_l1(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        row = np.array([[3.0, 1.0, -2.0]])
        data_io.save_matrix_csv(src, row)
        out_l12, out_l1 = tmp_path / "a.csv", tmp_path / "b.csv"
        for ball, dst in (("l12", out_l12), ("l1", out_l1)):
            rc = main(["project", "--input", str(src), "--output", str(dst),
                       "--ball", ball, "--radius", "2.5"])
            assert rc == 0
        capsys.readouterr()
        assert np.allclose(data_io.load_matrix_csv(out_l12),
                           data_io.load_matrix_csv(out_l1), atol=1e-8)


class TestDelimiter:
    def test_semicolon_round_trip(self, tmp_path, capsys):
        gen = tmp_path / "data.csv"
        rc = main(["gen-synthetic", "--out", str(gen), "--samples", "24",
                   "--features", "10", "--classes", "2", "--informative", "3",
                   "--separation", "2", "--noise-sd", "0.1", "--dropout", "0",
                   "--delimiter", ";"])
        assert rc == 0
        assert ";" in gen.read_text().splitlines()[0]
        rc = main(["train", "--data", str(gen), "--model-out",
                   str(tmp_path / "m.bin"), "--eta", "10", "--iters", "300",
                   "--delimiter", ";"])
        assert rc == 0
        capsys.readouterr()


class TestListAndCountFlags:
    @pytest.mark.parametrize("argv, message", [
        (["sweep-eta", "--etas", "1,x"], "--etas must be a comma-separated list of float "
                                         "values, got '1,x'"),
        (["sweep-eta", "--etas", ","], "--etas must be a comma-separated list of float "
                                       "values, got ','"),
        (["bench-proj", "--dims", "50,x"], "--dims must be a comma-separated list of int "
                                           "values, got '50,x'"),
        (["bench-proj", "--dims", ","], "--dims must be a comma-separated list of int "
                                        "values, got ','"),
        (["bench-proj", "--dims", "0"], "--dims must be positive, got 0"),
        (["bench-proj", "--k", "2.5"], "--k must be a comma-separated list of int "
                                       "values, got '2.5'"),
        (["bench-proj", "--k", "4,0"], "--k must be positive, got 0"),
        (["bench-proj", "--reps", "0"], "--reps must be positive, got 0")],
        ids=["etas-non-numeric", "etas-empty", "dims-non-numeric", "dims-empty", "dims-0",
             "k-fraction", "k-0", "reps-0"])
    def test_bad_value_refused_naming_the_flag(self, argv, message, dataset_csv,
                                               tmp_path, capsys):
        out = tmp_path / "out.csv"
        extra = {"sweep-eta": ["--data", str(dataset_csv)], "bench-proj": ["--dims", "8"]}
        assert main([argv[0], *extra[argv[0]], *argv[1:], "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


def test_cli_opens_no_file():
    """The CLI reads and writes its files through data_io alone, and projects by project_ball."""
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    opens = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
             and (getattr(node.func, "id", None) == "open"
                  or getattr(node.func, "attr", None) == "open")]
    assert opens == [], f"cli.py calls open on lines {opens}"
    projs = [node.lineno for node in ast.walk(tree)
             if (isinstance(node, ast.ImportFrom)
                 and any(alias.name.startswith("proj_") for alias in node.names))
             or getattr(node, "attr", "").startswith("proj_")]
    assert projs == [], f"cli.py names a proj_* function on lines {projs}"


def test_only_projections_names_a_ball_kind():
    """solver, model and classify read every rule of a ball off the projections table."""
    for name in ("solver.py", "model.py", "classify.py"):
        tree = ast.parse(Path(cli.__file__).with_name(name).read_text(encoding="utf-8"))
        named = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Constant) and node.value in BALL_KINDS]
        assert named == [], f"{name} names a ball kind on lines {named}"


class TestBenchProj:
    def test_smoke_writes_timings(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        rc = main(["bench-proj", "--dims", "200,400", "--k", "4", "--reps", "3",
                   "--out", str(out)])
        assert rc == 0
        capsys.readouterr()
        lines = out.read_text().splitlines()
        assert lines[0] == "projection,d,k,median_ms"
        assert len(lines) == 1 + 2 * 4  # two sizes x four projections
        for line in lines[1:]:
            assert float(line.split(",")[3]) >= 0.0

    def test_rows_follow_ball_kinds(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        assert main(["bench-proj", "--dims", "30,20", "--k", "3,2", "--reps", "1",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        rows = [line.split(",")[:3] for line in out.read_text().splitlines()[1:]]
        assert rows == [[kind, d, k] for d in ("30", "20") for k in ("3", "2")
                        for kind in BALL_KINDS]

    def test_l1_time_roughly_doubles_with_d(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        rc = main(["bench-proj", "--dims", "8000,16000", "--k", "10",
                   "--reps", "9", "--out", str(out)])
        assert rc == 0
        capsys.readouterr()
        times = {}
        for line in out.read_text().splitlines()[1:]:
            name, d, _, ms = line.split(",")
            times[(name, int(d))] = float(ms)
        ratio = times[("l1", 16000)] / times[("l1", 8000)]
        assert 1.4 <= ratio <= 3.0, (
            f"l1 medians {times[('l1', 8000)]} ms at d=8000 and {times[('l1', 16000)]} ms "
            f"at d=16000: ratio {ratio:.3f}")
