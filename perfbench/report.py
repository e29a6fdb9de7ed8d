"""Print the benchmark's report: every end-to-end figure, one row per workload.

    python3 perfbench/report.py [--seed 1]

Runs ``run.py`` once per workload, untraced, for BENCHMARK.json's
``run_seconds``, and prints one row per workload
with the figures each run reports (a dash where the workload does not do
that operation), followed by the environment of the first run.  Besides the
workloads of BENCHMARK.json it runs ``sweep``, the one workload too noisy
to gate.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper", "wide", "sweep", "score")

COLUMNS = [
    ("setup_s", "s"),
    ("fit_s.l1", "s"),
    ("fit_s.l21", "s"),
    ("fit_s.l12", "s"),
    ("fit_s.nuclear", "s"),
    ("sweep_s", "s"),
    ("predict_rows_per_s", "1/s"),
    ("batch_rows_per_s", "1/s"),
    ("cv_accuracy", "frac"),
    ("signature_recall", "frac"),
    ("fail_frac", "frac"),
    ("peak_rss_mb", "MB"),
]


def run_workload(name: str, seed: int, seconds: float) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    env = next(line["env"] for line in lines if "env" in line)
    report = next(line["report"] for line in lines if "report" in line)
    return env, report


def fmt(value) -> str:
    if value is None:
        return "-"
    if abs(value) >= 1000:
        return f"{value:.0f}"
    return f"{value:.4g}"


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)

    headers = ["workload"] + [f"{name} [{unit}]" for name, unit in COLUMNS]
    rows, envs = [], []
    for name in WORKLOADS:
        env, report = run_workload(name, args.seed, spec["run_seconds"])
        envs.append(env)
        rows.append([name] + [fmt(report[col]) for col, _ in COLUMNS])
    widths = [max(len(r[i]) for r in [headers] + rows) for i in range(len(headers))]
    for row in [headers] + rows:
        print("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
    print(json.dumps({"env": envs[0], "inputs": {n: {k: v for k, v in e.items()
                                                       if k.endswith("_bytes")}
                                                   for n, e in zip(WORKLOADS, envs)}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
