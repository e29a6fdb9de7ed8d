"""Command-line front end: train, predict, cross-validate, sweep, project, bench."""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from dataclasses import replace

import numpy as np

from . import classify, data_io, projections, solver
from .linalg import _check_scalar
from .losses import LOSS_KINDS, LossSpec
from .model import ProblemTemplate
from .projections import BALL_KINDS, BallSpec, ball_norm


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="input dataset CSV")
    p.add_argument("--label-column", default="label",
                   help="label column name in the dataset CSV (default: label)")
    p.add_argument("--delimiter", default=",",
                   help="dataset CSV field delimiter (default: ,)")


def _load_dataset(args, require_label: bool = True) -> data_io.Dataset:
    return data_io.load_csv(args.data, label_column=args.label_column,
                            delimiter=args.delimiter, require_label=require_label)


def _add_cv_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--folds", type=int, default=4, help="number of folds (default: 4)")
    p.add_argument("--seed", type=int, default=0, help="fold-assignment seed (default: 0)")


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--eta", type=float, default=1.0, help="constraint radius (default: 1.0)")
    p.add_argument("--ball", choices=BALL_KINDS, default="l1",
                   help="constraint ball (default: l1)")
    p.add_argument("--loss", choices=LOSS_KINDS, default="huber",
                   help="data loss (default: huber)")
    p.add_argument("--delta", type=float, default=None,
                   help="huber knee; the other losses take none (default: "
                        f"{LossSpec('huber').delta} for huber)")
    p.add_argument("--rho", type=float, default=ProblemTemplate.rho,
                   help="center-anchoring weight (default: %(default)s)")
    p.add_argument("--alpha", type=float, default=ProblemTemplate.alpha,
                   help="elastic-net weight (default: %(default)s)")
    p.add_argument("--gamma", type=float, default=solver.SolverParams.gamma,
                   help="over-relaxation in (-1,1) (default: %(default)s)")
    p.add_argument("--variant", choices=solver.VARIANTS, default=solver.SolverParams.variant,
                   help="iteration variant; accelerated is the base iteration "
                        "when delta is 0, as under the l1 loss (default: %(default)s)")
    p.add_argument("--iters", type=int, default=solver.SolverParams.max_iter,
                   help="iteration budget (default: %(default)s)")


def _list_flag(text: str, flag: str, kind) -> list:
    """The comma-separated values of ``flag``; refuses a bad token or an empty list."""
    try:
        values = [kind(tok) for tok in text.split(",") if tok]
    except ValueError:
        values = []
    if not values:
        raise ValueError(f"{flag} must be a comma-separated list of {kind.__name__} values, "
                         f"got {text!r}")
    return values


def _template_params(args) -> tuple[ProblemTemplate, solver.SolverParams]:
    template = ProblemTemplate(loss=LossSpec(args.loss, args.delta),
                               ball=BallSpec(args.ball, args.eta),
                               rho=args.rho, alpha=args.alpha)
    params = solver.SolverParams(gamma=args.gamma, max_iter=args.iters,
                                 variant=args.variant)
    return template, params


def cmd_gen_synthetic(args) -> int:
    spec = data_io.SyntheticSpec(m=args.samples, d=args.features, k=args.classes,
                                 s=args.informative, separation=args.separation,
                                 noise_sd=args.noise_sd, dropout_rate=args.dropout,
                                 seed=args.seed)
    dataset = data_io.generate_synthetic(spec)
    data_io.write_dataset_csv(args.out, dataset, delimiter=args.delimiter)
    print(f"wrote {args.samples} x {args.features} dataset "
          f"({args.classes} classes) to {args.out}")
    return 0


def cmd_train(args) -> int:
    dataset = _load_dataset(args)
    template, params = _template_params(args)
    model, history = classify.train_model(dataset.X, dataset.labels, template,
                                          params=params,
                                          normalize=not args.no_normalize)
    model = replace(model, class_names=tuple(dataset.label_names))
    data_io.save_model(args.model_out, model)
    if args.history_out:
        data_io._write_csv(args.history_out, [
            ["iteration", "total", "data_term", "center_penalty", "elastic_term",
             "constraint_violation", "ergodic_total", "gap", "wall_time_s"],
            *([str(r.iteration), *(f"{v:.9g}" for v in (
                r.objective.total, r.objective.data_term, r.objective.center_penalty,
                r.objective.elastic_term, r.objective.constraint_violation,
                r.ergodic_objective.total, r.gap)), f"{r.wall_time:.6f}"]
              for r in history.records)])
    report = classify.evaluate(dataset.X, dataset.labels, model)
    final = history.records[-1]
    print(f"final objective: {final.objective.total:.6g} "
          f"(data {final.objective.data_term:.6g}, "
          f"centers {final.objective.center_penalty:.6g}, "
          f"elastic {final.objective.elastic_term:.6g})")
    print(f"constraint residual: {final.objective.constraint_violation:.3e}")
    print(f"duality gap: {final.gap:.3e} "
          f"(relative {final.gap / max(1.0, abs(final.objective.total)):.3e})")
    est = history.x_norm
    unconverged = "" if est.converged else \
        f" (operator-norm estimate unconverged after {est.iterations} iterations)"
    print(f"step-condition slack: {history.step_slack:.6g}{unconverged}")
    print(f"training accuracy: {report.global_accuracy:.4f} "
          f"({classify.signature(model).union().size} features selected)")
    print(f"model written to {args.model_out}")
    return 0


def cmd_predict(args) -> int:
    model = data_io.load_model(args.model)
    dataset = _load_dataset(args, require_label=False)
    # the file numbers its labels by first appearance, so compare them by name
    unknown = [name for name in dataset.label_names or () if name not in model.class_names]
    if unknown:
        raise ValueError(f"{args.data}: label {unknown[0]!r} is not a class of the model "
                         f"(classes: {', '.join(model.class_names)})")
    preds = np.array(model.class_names)[classify.predict_rows(dataset.X, model)]
    if args.output:
        data_io._write_csv(args.output, [["index", "predicted_class"],
                                         *([str(i), p] for i, p in enumerate(preds))])
        print(f"predictions written to {args.output}")
    if dataset.labels is not None:
        acc = float((preds == np.array(dataset.label_names)[dataset.labels]).mean())
        print(f"accuracy: {acc:.4f} on {len(preds)} samples")
    return 0


def cmd_cv(args) -> int:
    dataset = _load_dataset(args)
    template, params = _template_params(args)
    result = classify.cross_validate(dataset.X, dataset.labels, args.folds,
                                     template, params=params, seed=args.seed)
    for i, rep in enumerate(result.reports):
        print(f"fold {i}: accuracy {rep.global_accuracy:.4f}")
    print(f"mean accuracy: {result.mean_accuracy:.4f} +/- {result.std_accuracy:.4f}")
    return 0


def cmd_sweep_eta(args) -> int:
    etas = _list_flag(args.etas, "--etas", float)
    dataset = _load_dataset(args)
    template, params = _template_params(args)
    result = classify.eta_sweep(dataset.X, dataset.labels, etas, template,
                                params=params, folds=args.folds, seed=args.seed)
    for p in result.points:
        print(f"eta {p.eta:g}: {p.n_features} features, accuracy {p.accuracy:.4f}")
    data_io.write_curve_csv(args.out, result.points)
    print(f"curve written to {args.out}")
    knee = classify.detect_knee(result)
    if knee is not None:
        p = result.points[knee]
        print(f"knee (heuristic, largest second difference): eta {p.eta:g} "
              f"with {p.n_features} features")
    return 0


def cmd_project(args) -> int:
    V = data_io.load_matrix_csv(args.input)
    ball = BallSpec(args.ball, args.radius)
    out = projections.project_ball(V, ball)
    data_io.save_matrix_csv(args.output, out)
    residual = max(0.0, ball_norm(out, ball.kind) - ball.radius)
    print(f"projected {V.shape[0]} x {V.shape[1]} matrix onto the {args.ball} "
          f"ball of radius {args.radius:g}; feasibility residual {residual:.3e}")
    print(f"output written to {args.output}")
    return 0


def _bench_one(V, ball: BallSpec, reps: int) -> float:
    projections.project_ball(V, ball)  # warm-up, discarded
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        projections.project_ball(V, ball)
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def cmd_bench_proj(args) -> int:
    dims, ks = _list_flag(args.dims, "--dims", int), _list_flag(args.k, "--k", int)
    for flag, values in (("--reps", [args.reps]), ("--dims", dims), ("--k", ks)):
        for value in values:
            _check_scalar(value, flag, "positive")
    rows = [["projection", "d", "k", "median_ms"]]
    for d in dims:
        for k in ks:
            rng = np.random.Generator(np.random.Philox(args.seed + d * 131 + k))
            V = rng.standard_normal((d, k))
            for name in BALL_KINDS:
                ms = _bench_one(V, BallSpec(name, 0.5 * ball_norm(V, name)), args.reps)
                rows.append([name, str(d), str(k), f"{ms:.6f}"])
                print(f"{name:8s} d={d:<6d} k={k:<5d} median {ms:.3f} ms")
    data_io._write_csv(args.out, rows)
    print(f"timings written to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdsparse",
        description="Primal-dual training of sparse robust classifiers "
                    "with structured-sparsity ball constraints.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synthetic", help="generate a synthetic dataset CSV")
    p.add_argument("--out", required=True, help="output dataset CSV")
    p.add_argument("--samples", type=int, default=200, help="number of samples (default: 200)")
    p.add_argument("--features", type=int, default=1000, help="number of features (default: 1000)")
    p.add_argument("--classes", type=int, default=4, help="number of classes (default: 4)")
    p.add_argument("--informative", type=int, default=20,
                   help="informative features per class (default: 20)")
    p.add_argument("--separation", type=float, default=2.0,
                   help="class mean offset on informative features (default: 2.0)")
    p.add_argument("--noise-sd", type=float, default=1.0,
                   help="additive noise standard deviation (default: 1.0)")
    p.add_argument("--dropout", type=float, default=0.3,
                   help="probability of zeroing an entry (default: 0.3)")
    p.add_argument("--seed", type=int, default=0, help="generator seed (default: 0)")
    p.add_argument("--delimiter", default=",",
                   help="dataset CSV field delimiter (default: ,)")
    p.set_defaults(func=cmd_gen_synthetic)

    p = sub.add_parser("train", help="train a model and write it to disk")
    _add_data_flags(p)
    p.add_argument("--model-out", required=True, help="output model file")
    p.add_argument("--history-out", default=None, help="optional training history CSV")
    p.add_argument("--no-normalize", action="store_true",
                   help="skip rescaling features to unit operator norm")
    _add_solver_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="score a dataset with a saved model")
    p.add_argument("--model", required=True, help="model file from train")
    _add_data_flags(p)
    p.add_argument("--output", default=None, help="optional per-sample predictions CSV")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("cv", help="stratified k-fold cross validation")
    _add_data_flags(p)
    _add_cv_flags(p)
    _add_solver_flags(p)
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser("sweep-eta", help="cross-validated sweep over constraint radii")
    _add_data_flags(p)
    p.add_argument("--etas", required=True, help="comma-separated ascending radii")
    p.add_argument("--out", required=True, help="output curve CSV")
    _add_cv_flags(p)
    _add_solver_flags(p)
    p.set_defaults(func=cmd_sweep_eta)

    p = sub.add_parser("project", help="project a matrix CSV onto a ball")
    p.add_argument("--input", required=True, help="input matrix CSV (no header)")
    p.add_argument("--output", required=True, help="output matrix CSV")
    p.add_argument("--ball", choices=BALL_KINDS, required=True, help="constraint ball")
    p.add_argument("--radius", type=float, required=True, help="ball radius")
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("bench-proj", help="median projection wall times")
    p.add_argument("--dims", default="1000,2000,4000,8000",
                   help="comma-separated row counts (default: 1000,2000,4000,8000)")
    p.add_argument("--k", default="10", help="comma-separated column counts (default: 10)")
    p.add_argument("--reps", type=int, default=11,
                   help="timed repetitions, median reported (default: 11)")
    p.add_argument("--seed", type=int, default=0, help="matrix seed (default: 0)")
    p.add_argument("--out", required=True, help="output timing CSV")
    p.set_defaults(func=cmd_bench_proj)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
