"""Benchmark of pdsparse, run from the root of a source checkout.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 20 --trace 0

One caller, one process, a closed loop: each timed library call starts when
the previous one has returned.  The library is imported from ``src/`` of the
checkout (never from an installed copy) with BLAS pinned to a fixed thread
count.  The run sets up the workload's inputs from ``--seed`` several times,
then repeats passes of timed work until ``--seconds`` have elapsed, checking
every result.  ``setup_s`` is the median set-up and ``pass_s`` the median
pass, each scaled to the reference machine's speed by calibration kernels
timed next to it (see ScaledClock).  The report line gives the unscaled
median set-up and the unscaled figures of the fastest pass.

With ``--trace 0`` the last line of standard output is the JSON result with
every end-to-end metric of BENCHMARK.json; the lines before it give the
environment and the full per-workload report.  With ``--trace 1`` untraced
and traced passes alternate, and the result holds every per-layer metric,
including the tracing overhead.  Spans and results are also written under
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
# BLAS threads: at most two, and never more than the cores this process
# may run on.  Fixed before numpy loads so every run uses the same count.
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
# Set-up repeats at least SETUP_REPS times and until SETUP_MIN_S seconds of
# set-up have been measured; setup_s is the median of the set-ups, each
# scaled like a pass by a data-generation kernel timed before and after it.
SETUP_REPS = 5
SETUP_MIN_S = 2.0
# A timed run calibrates the host's speed at least once per this many
# seconds of timed work (see ScaledClock).
CALIB_EVERY_S = 0.5


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_library():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import pdsparse

    if not Path(pdsparse.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"pdsparse was imported from {pdsparse.__file__}, not {src}")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def llc_bytes() -> int | None:
    """Size of the level-3 cache as the kernel reports it, if it does."""
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            if (index / "level").read_text().strip() == "3":
                size = (index / "size").read_text().strip()
                scale = {"K": 1 << 10, "M": 1 << 20}.get(size[-1], 1)
                return int(size.rstrip("KM")) * scale
    except (OSError, ValueError):
        pass
    return None


def environment(input_bytes: dict) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        vendor = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": vendor,
        "blas_threads": BLAS_THREADS,
        "cpu": cpu_model(),
        "llc_bytes": llc_bytes(),
        **input_bytes,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class ScaledClock:
    """The ``ops`` of a timed run: scales measured seconds to the reference
    machine's speed.

    On a shared host other tenants slow the same work by up to a factor of
    two, in phases that last from seconds to many minutes.  A calibration
    kernel on the workload's own data runs once after the set-ups, then
    after each operation that brings the timed work since the last one to
    CALIB_EVERY_S, and at the end of every pass.  Timed work is scaled by
    the kernel's reference time over the mean of the calibrations on either
    side of it, which cancels most of the phase it ran in.
    """

    def __init__(self, wl, state):
        self.wl, self.state = wl, state
        self.last = wl.calibrate(state)
        self.pending = 0.0  # raw seconds timed since the last calibration
        self.scaled = 0.0  # scaled seconds of the current pass

    def _flush(self) -> None:
        now = self.wl.calibrate(self.state)
        self.scaled += self.pending * self.wl.calib_ref_s * 2.0 / (self.last + now)
        self.last, self.pending = now, 0.0

    def start(self, name: str) -> None:
        pass

    def stop(self, seconds: float) -> None:
        self.pending += seconds
        if self.pending >= CALIB_EVERY_S:
            self._flush()

    def end_pass(self) -> float:
        """The scaled seconds of the pass that has just ended."""
        if self.pending:
            self._flush()
        scaled, self.scaled = self.scaled, 0.0
        return scaled


def timed_run(wl, args, checks):
    import workloads

    n, ref_s = workloads.CALIB_SETUP
    calib = [workloads.setup_calibration_s(n)]
    setup_raw, setup_scaled = [], []
    state = None
    while len(setup_raw) < SETUP_REPS or sum(setup_raw) < SETUP_MIN_S:
        state = None  # free the previous inputs before building new ones
        t0 = time.perf_counter()
        state = wl.setup(args.seed)
        setup_raw.append(time.perf_counter() - t0)
        calib.append(workloads.setup_calibration_s(n))
        setup_scaled.append(setup_raw[-1] * ref_s * 2.0 / (calib[-2] + calib[-1]))
    clock = ScaledClock(wl, state)
    passes = workloads.Passes()
    pass_s = []
    deadline = time.perf_counter() + args.seconds
    while True:
        passes.pass_s.append(wl.run_pass(state, passes, checks, clock))
        pass_s.append(clock.end_pass())
        if time.perf_counter() >= deadline:
            break
    rss = peak_rss_mb()
    metrics = {
        "setup_s": statistics.median(setup_scaled),
        "pass_s": statistics.median(pass_s),
        "accuracy": passes.accuracy,
        "peak_rss_mb": rss,
    }

    def fastest(values, best=min):
        return best(values) if values else None

    report = {
        "setup_s": statistics.median(setup_raw),
        **{f"fit_s.{b}": fastest(passes.fit_s.get(b)) for b in workloads.BALLS},
        "sweep_s": fastest(passes.sweep_s),
        "predict_rows_per_s": fastest(passes.predict_rows_per_s, max),
        "batch_rows_per_s": fastest(passes.batch_rows_per_s, max),
        "cv_accuracy": passes.cv_accuracy,
        "signature_recall": passes.signature_recall,
        "fail_frac": checks.failed / max(checks.attempted, 1),
        "peak_rss_mb": rss,
        "passes": len(passes.pass_s),
    }
    return state, metrics, report


def traced_run(wl, args, checks, spans_path):
    import tracing
    import workloads

    tracer = tracing.Tracer()
    with tracer.installed():
        tracer.start("setup")
        t0 = time.perf_counter()
        state = wl.setup(args.seed)
        tracer.stop(time.perf_counter() - t0)
    tracer.phase = "pass"
    untraced, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        untraced.append(wl.run_pass(state, workloads.Passes(), checks, workloads.Untraced()))
        with tracer.installed():
            traced.append(wl.run_pass(state, workloads.Passes(), checks, tracer))
        if time.perf_counter() >= deadline:
            break
    metrics = tracer.metrics(len(traced))
    overhead = min(traced) - min(untraced)
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_frac"] = overhead / min(untraced)
    metrics["trace.unattributed_frac"] = tracer.unattributed_frac()
    tracer.write(spans_path)
    errors = tracer.accounting_errors()
    if errors:
        raise SystemExit("trace accounting failed: " + "; ".join(errors))
    return state, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import_library()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}, "
                         f"expected one of {sorted(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        raise SystemExit("--seconds must be positive")
    wl = workloads.WORKLOADS[args.workload]
    checks = workloads.Checks()
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = None
    if args.trace:
        state, values = traced_run(wl, args, checks, stem.with_suffix(".spans.jsonl"))
        wanted = spec["per_layer"]
    else:
        state, values, report = timed_run(wl, args, checks)
        wanted = spec["end_to_end"]
    names = {m["name"] for m in wanted}
    if set(values) != names:
        raise SystemExit(f"metrics {sorted(set(values) ^ names)} do not match BENCHMARK.json")
    env = environment(state["bytes"])
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    stem.with_suffix(".json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "env": env, "report": report,
         "failures": checks.messages, "result": result}, indent=1))
    for message in checks.messages:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps({"env": env}))
    if report is not None:
        print(json.dumps({"report": {"workload": args.workload, **report}}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
