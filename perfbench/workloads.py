"""Workloads of the pdsparse benchmark: generated inputs, timed passes, checks.

Every workload draws its data from the criterion-09 generator
(m=200, k=4, s=20, separation 2, noise 1, dropout 0.3) and trains with the
huber loss (delta 1), rho 1 and the base iteration.  A workload has a
``setup`` that builds its inputs from the data seed and a ``run_pass`` that
performs one unit of timed work and checks every result it returns.  Only
calls into the library are inside the timed regions, each bracketed by
``ops.start``/``ops.stop`` so a tracer can attribute its spans; checks run
outside them.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import pdsparse as pd

# Inputs are drawn from a fixed family of data seeds so that a reference
# objective trajectory can be stored for every input the benchmark can make.
DATA_SEEDS = tuple(range(32))
# The wide workload exists for the case where power iteration stops at
# max_iter without converging; these are the seeds of DATA_SEEDS on which
# it does at d=20000.  On the others the estimate converges after 220-930
# iterations, which alone moves a pass by up to a third from seed to seed.
WIDE_DATA_SEEDS = (0, 4, 7, 8, 9, 12, 18, 23, 24, 25, 29)
# Held-out rows and scoring queries use their own seeds, disjoint from
# every training seed in the family.
HELDOUT_SEED_OFFSET = 1000

GENERATOR = dict(m=200, k=4, s=20, separation=2.0, noise_sd=1.0, dropout_rate=0.3)
PAPER_D = 1000
WIDE_D = 20000
ETA = 8.0
BALLS = ("l1", "l21", "l12", "nuclear")
WIDE_BALLS = ("l1", "nuclear")
PAPER_ITERS = 1500
WIDE_ITERS = 300
SWEEP_ETAS = (0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
SWEEP_FOLDS = 4
# 16384 x 1000 float64 rows are 131 MB, more than the 105 MB last-level
# cache of the reference machine, so scoring streams the block from memory.
QUERY_ROWS = 16384
BATCH_ROWS = 1024

# Recorded objectives must match the reference to this relative tolerance,
# the same one the library uses for ball feasibility.
TRAJECTORY_RTOL = 1e-9
FEASIBILITY_RTOL = 1e-9
# Criterion 10: accuracy rises by at least RISE from the smallest radius to
# the knee and stays within PLATEAU of the knee value afterwards.
SWEEP_RISE = 0.2
SWEEP_PLATEAU = 0.03
SWEEP_KNEE_SLACK = 0.015

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Calibration kernel iterations on the workload's data matrix, and the
# seconds they take on the reference machine (2-vCPU Intel Xeon KVM guest,
# 105 MB L3, OpenBLAS on 2 threads).
CALIB_PAPER = (1000, 0.15)
CALIB_WIDE = (90, 1.2)
# Scoring calibration: one row in this many of the query block, scored the
# way predict scores a row, and the reference seconds it takes.
CALIB_ROWS = (2, 0.08)
# Set-up calibration: normal and uniform draws of this many values from the
# generator the library's data generation uses, and their reference seconds.
CALIB_SETUP = (1 << 21, 0.06)


def data_seed(seed: int, family=DATA_SEEDS) -> int:
    """The data seed of the family that the benchmark seed selects."""
    return family[seed % len(family)]


def template(ball: str, eta: float = ETA) -> pd.ProblemTemplate:
    return pd.ProblemTemplate(loss=pd.LossSpec("huber", 1.0),
                              ball=pd.BallSpec(ball, eta), rho=1.0)


def generate(d: int, seed: int, m: int = GENERATOR["m"]) -> pd.Dataset:
    spec = dict(GENERATOR, m=m)
    return pd.generate_synthetic(pd.SyntheticSpec(d=d, seed=seed, **spec))


def true_features() -> set[int]:
    return set(range(GENERATOR["s"] * GENERATOR["k"]))


def recall(selected) -> float:
    truth = true_features()
    return len(set(np.asarray(selected).tolist()) & truth) / len(truth)


def objectives(history) -> list[float]:
    return [r.objective.total for r in history.records]


@functools.cache
def load_reference() -> dict:
    """The recorded trajectories, parsed once per process."""
    if not REFERENCE_PATH.exists():
        return {}
    return json.loads(REFERENCE_PATH.read_text())


def calibration_s(X, iters: int) -> float:
    """Seconds for a fixed numpy kernel on a workload's own data matrix.

    Products with X and its transpose and small elementwise updates, as in
    one solver iteration, in numpy alone, so no change to pdsparse can move
    it.
    """
    Z = np.zeros((X.shape[0], GENERATOR["k"]))
    t0 = time.perf_counter()
    for _ in range(iters):
        G = X.T @ Z
        W = np.sign(G) * np.maximum(np.abs(G) - 0.01, 0.0)
        Z = np.clip(Z + 0.1 * (1.0 - X @ W), -1.0, 1.0)
    return time.perf_counter() - t0


def setup_calibration_s(n: int) -> float:
    """Seconds for a fixed numpy kernel shaped like data generation.

    Philox normal and uniform draws and a masked store, single-threaded like
    the library's generator, in numpy alone, so no change to pdsparse can
    move it.
    """
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(0))
    values = rng.normal(0.0, 1.0, size=n)
    values[rng.random(n) < 0.3] = 0.0
    return time.perf_counter() - t0


def rows_calibration_s(Q, step: int) -> float:
    """Seconds for a fixed numpy kernel shaped like one-per-call scoring.

    Every ``step``-th row of the query block in turn is checked and scored
    against a fixed weight matrix, with the small numpy calls per row that
    dominate predict, so the kernel slows with the interpreter and with
    streaming the block from memory.  Numpy alone: no change to pdsparse
    can move it.
    """
    W = np.ones((Q.shape[1], GENERATOR["k"]))
    t0 = time.perf_counter()
    for x in Q[::step]:
        x = np.asarray(x, dtype=np.float64)
        if not np.all(np.isfinite(x)):
            raise ValueError("non-finite query row")
        int(np.argmin(((x[None, :] @ W) ** 2)[0]))
    return time.perf_counter() - t0


class Untraced:
    """The ``ops`` of an untraced run: operation boundaries cost nothing."""

    def start(self, name: str) -> None:
        pass

    def stop(self, seconds: float) -> None:
        pass


class Checks:
    """Counts timed operations and the ones whose results failed a check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, op: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.messages.append(f"{op}: " + "; ".join(problems))


def fit_problems(model, history, ball: str, eta: float, reference) -> list[str]:
    """Ball feasibility and, when a reference is given, trajectory agreement."""
    problems = []
    norm = pd.ball_norm(model.W, ball)
    if norm > eta * (1.0 + FEASIBILITY_RTOL):
        problems.append(f"W has {ball} norm {norm!r} > radius {eta}")
    got = objectives(history)
    if reference is None:
        problems.append("no reference trajectory recorded for this input")
    elif len(got) != len(reference):
        problems.append(f"{len(got)} recorded objectives, reference has {len(reference)}")
    else:
        worst = max(abs(g - r) / max(1.0, abs(r)) for g, r in zip(got, reference))
        if worst > TRAJECTORY_RTOL:
            problems.append(f"objective trajectory off the reference by {worst:.3e} "
                            f"(tolerance {TRAJECTORY_RTOL:g})")
    return problems


def sweep_problems(sweep) -> list[str]:
    """Criterion 10: monotone feature counts, a rise to the knee, a plateau."""
    problems = []
    acc = [p.accuracy for p in sweep.points]
    counts = [p.n_features for p in sweep.points]
    if not all(counts[i + 1] >= counts[i] for i in range(len(counts) - 2)):
        problems.append(f"feature counts not monotone: {counts}")
    peak = max(acc)
    knee = next(i for i, a in enumerate(acc) if a >= peak - SWEEP_KNEE_SLACK)
    rise = acc[knee] - acc[0]
    plateau = max(abs(a - acc[knee]) for a in acc[knee:])
    if rise < SWEEP_RISE:
        problems.append(f"accuracy rises {rise:.3f} < {SWEEP_RISE} to the knee")
    if plateau > SWEEP_PLATEAU:
        problems.append(f"plateau deviation {plateau:.3f} > {SWEEP_PLATEAU}")
    return problems


@dataclass
class Passes:
    """Per-pass timings and the quality figures the passes produced."""

    pass_s: list[float] = field(default_factory=list)
    fit_s: dict[str, list[float]] = field(default_factory=dict)
    sweep_s: list[float] = field(default_factory=list)
    predict_rows_per_s: list[float] = field(default_factory=list)
    batch_rows_per_s: list[float] = field(default_factory=list)
    accuracy: float | None = None
    cv_accuracy: float | None = None
    signature_recall: float | None = None

    def add_fit(self, ball: str, seconds: float) -> None:
        self.fit_s.setdefault(ball, []).append(seconds)


class FitWorkload:
    """One ``train_model`` per ball at a fixed iteration budget."""

    def __init__(self, name: str, d: int, balls, iters: int, data_seeds=DATA_SEEDS):
        self.name, self.d, self.balls, self.iters = name, d, balls, iters
        self.data_seeds = data_seeds
        self.calib_iters, self.calib_ref_s = CALIB_WIDE if d == WIDE_D else CALIB_PAPER

    def setup(self, seed: int):
        s = data_seed(seed, self.data_seeds)
        ds = generate(self.d, s)
        held = generate(self.d, s + HELDOUT_SEED_OFFSET)
        return {"ds": ds, "held": held, "data_seed": s, "X": ds.X,
                "bytes": {"x_bytes": ds.X.nbytes}}

    def calibrate(self, state) -> float:
        """Seconds of the calibration kernel; calib_ref_s on the reference machine."""
        return calibration_s(state["X"], self.calib_iters)

    def reference(self, state) -> dict:
        """Recorded trajectories of this input, looked up outside any timing."""
        return load_reference().get(self.name, {}).get(str(state["data_seed"]), {})

    def fit(self, state, ball: str, ops):
        """The timed call: returns (model, history, seconds)."""
        ds = state["ds"]
        params = pd.SolverParams(max_iter=self.iters)
        ops.start(f"fit.{ball}")
        t0 = time.perf_counter()
        model, history = pd.train_model(ds.X, ds.labels, template(ball), params=params)
        dt = time.perf_counter() - t0
        ops.stop(dt)
        return model, history, dt

    def run_pass(self, state, passes: Passes, checks: Checks, ops) -> float:
        total = 0.0
        reference = self.reference(state)
        for ball in self.balls:
            model, history, dt = self.fit(state, ball, ops)
            total += dt
            passes.add_fit(ball, dt)
            checks.record(f"{self.name} fit {ball}", fit_problems(
                model, history, ball, ETA, reference.get(ball)))
            if ball == "l1":
                held = state["held"]
                passes.accuracy = pd.evaluate(held.X, held.labels, model).global_accuracy
                passes.signature_recall = recall(pd.signature(model).union())
        return total


class SweepWorkload:
    """The criterion-10 radius sweep: 9 radii x (4 folds + 1 full fit)."""

    name = "sweep"
    calib_iters, calib_ref_s = CALIB_PAPER
    calibrate = FitWorkload.calibrate

    def setup(self, seed: int):
        ds = generate(PAPER_D, data_seed(seed))
        return {"ds": ds, "X": ds.X, "bytes": {"x_bytes": ds.X.nbytes}}

    def run_pass(self, state, passes: Passes, checks: Checks, ops) -> float:
        ds = state["ds"]
        ops.start("sweep")
        t0 = time.perf_counter()
        sweep = pd.eta_sweep(ds.X, ds.labels, SWEEP_ETAS, template("l1", 1.0),
                             params=pd.SolverParams(max_iter=PAPER_ITERS),
                             folds=SWEEP_FOLDS, seed=0)
        dt = time.perf_counter() - t0
        ops.stop(dt)
        passes.sweep_s.append(dt)
        checks.record("sweep", sweep_problems(sweep))
        at_eta = next(p for p in sweep.points if p.eta == ETA)
        passes.accuracy = passes.cv_accuracy = at_eta.accuracy
        passes.signature_recall = recall(at_eta.selected_features)
        return dt


class ScoreWorkload:
    """Score a held-out block one row per ``predict`` call and in batches."""

    name = "score"
    calib_ref_s = CALIB_PAPER[1] + CALIB_ROWS[1]

    def calibrate(self, state) -> float:
        """The fit kernel plus a kernel shaped like one-per-call scoring."""
        return (calibration_s(state["X"], CALIB_PAPER[0])
                + rows_calibration_s(state["scaled"], CALIB_ROWS[0]))

    def setup(self, seed: int):
        s = data_seed(seed)
        ds = generate(PAPER_D, s)
        model, _ = pd.train_model(ds.X, ds.labels, template("l1"),
                                  params=pd.SolverParams(max_iter=PAPER_ITERS))
        queries = generate(PAPER_D, s + HELDOUT_SEED_OFFSET, m=QUERY_ROWS)
        # predict takes queries already divided by the model's feature scale
        scaled = queries.X / model.feature_scale
        return {"model": model, "queries": queries, "scaled": scaled, "X": ds.X,
                "bytes": {"x_bytes": ds.X.nbytes, "query_bytes": queries.X.nbytes}}

    def run_pass(self, state, passes: Passes, checks: Checks, ops) -> float:
        model, queries, scaled = state["model"], state["queries"], state["scaled"]
        predict_s = batch_s = 0.0
        correct = 0
        for lo in range(0, QUERY_ROWS, BATCH_ROWS):
            hi = min(lo + BATCH_ROWS, QUERY_ROWS)
            classes = np.empty(hi - lo, dtype=np.int64)
            ops.start("score.batch")
            t0 = time.perf_counter()
            for i in range(lo, hi):
                classes[i - lo] = pd.predict(scaled[i], model)
            t1 = time.perf_counter()
            report = pd.evaluate(queries.X[lo:hi], queries.labels[lo:hi], model)
            t2 = time.perf_counter()
            ops.stop(t2 - t0)
            predict_s += t1 - t0
            batch_s += t2 - t1
            correct += int(np.trace(report.confusion))
            # the batched path must assign every row the class predict gave it
            agree = pd.evaluate(queries.X[lo:hi], classes, model).global_accuracy
            checks.record(f"score rows {lo}:{hi}", [] if agree == 1.0 else [
                f"batched classes differ from one-per-call classes on "
                f"{round((1.0 - agree) * (hi - lo))} rows"])
        passes.predict_rows_per_s.append(QUERY_ROWS / predict_s)
        passes.batch_rows_per_s.append(QUERY_ROWS / batch_s)
        passes.accuracy = correct / QUERY_ROWS
        passes.signature_recall = recall(pd.signature(model).union())
        return predict_s + batch_s


WORKLOADS = {
    "paper": FitWorkload("paper", PAPER_D, BALLS, PAPER_ITERS),
    "wide": FitWorkload("wide", WIDE_D, WIDE_BALLS, WIDE_ITERS, WIDE_DATA_SEEDS),
    "sweep": SweepWorkload(),
    "score": ScoreWorkload(),
}
