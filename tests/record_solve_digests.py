"""Record the digests of the small solver fits that ``tests/test_solver.py`` checks.

    PYTHONPATH=src python tests/record_solve_digests.py [--out PATH]

Runs every fit of ``CASES`` with BLAS pinned to two threads and writes, for
each, the sha256 of the final ``W``, ``mu`` and ``ergodic_W`` and the
``float.hex`` of every recorded objective term and duality gap to
``tests/data/solve_digests.json`` (or ``PATH``).  The test reruns this
script and passes only when the iterates are byte-identical to the
recorded ones.  Re-record only for a change that is meant to alter the
iterates (new steps, a new iteration) or their rounding, and then only the
fits it was meant to move, with a tolerance test against a reference; any
other speed-up must pass against the digests it found.

The bits depend on numpy, on its BLAS build and on the BLAS thread count.
The thread count is pinned here; the build is recorded in the file, and
the test skips, naming this script, under another one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
from dataclasses import asdict
from pathlib import Path

if __name__ == "__main__":
    # OpenBLAS reads its thread count once, when numpy loads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "2"

import numpy as np

from pdsparse import (BallSpec, LossSpec, Problem, SolverParams, SyntheticSpec,
                      generate_synthetic, normalize_features, one_hot, solve)

DIGEST_PATH = Path(__file__).parent / "data" / "solve_digests.json"

# each ball on the base iteration, then one fit per departure from it
CASES = {
    "l1": {"ball": "l1"},
    "l21": {"ball": "l21"},
    "l12": {"ball": "l12"},
    "nuclear": {"ball": "nuclear"},
    "fixed-mu": {"ball": "l1", "variant": "fixed-mu"},
    "accelerated": {"ball": "l21", "variant": "accelerated"},
    "gamma": {"ball": "l1", "gamma": 0.3},
    "alpha": {"ball": "l21", "alpha": 0.5},
    "frobenius-loss": {"ball": "l1", "loss": LossSpec("frobenius", 0.0)},
    "l1-loss": {"ball": "nuclear", "loss": LossSpec("l1", 0.0)},
}
ITERS = 150
RECORD_EVERY = 30


def environment() -> dict:
    """The numpy and BLAS build the digests are recorded under."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "machine": platform.machine()}


def _sha(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def _hex_terms(objective) -> dict:
    return {name: float.hex(v) for name, v in asdict(objective).items()}


def fit_digests(X: np.ndarray, Y: np.ndarray, case: dict) -> dict:
    """Digests of one fit: final iterates by sha256, recorded values by float.hex."""
    problem = Problem(X=X, Y=Y, loss=case.get("loss", LossSpec("huber", 1.0)),
                      ball=BallSpec(case["ball"], 8.0), alpha=case.get("alpha", 0.0))
    params = SolverParams(max_iter=ITERS, record_every=RECORD_EVERY,
                          variant=case.get("variant", "base"), gamma=case.get("gamma", 0.0))
    model, history = solve(problem, params)
    records = [{"iteration": r.iteration, "gap": float.hex(r.gap),
                "objective": _hex_terms(r.objective),
                "ergodic_objective": _hex_terms(r.ergodic_objective)}
               for r in history.records]
    return {"W": _sha(model.W), "mu": _sha(model.mu), "ergodic_W": _sha(history.ergodic_W),
            "records": records}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=DIGEST_PATH,
                        help=f"output JSON (default: {DIGEST_PATH.name} in tests/data)")
    args = parser.parse_args(argv)
    # a 200 x 2000, 4-class instance from the synthetic generator, normalised
    ds = generate_synthetic(SyntheticSpec(m=200, d=2000, k=4, s=20, separation=2.0,
                                          noise_sd=1.0, dropout_rate=0.3, seed=1))
    X = normalize_features(ds.X).X
    Y = one_hot(ds.labels, 4)
    fits = {name: fit_digests(X, Y, case) for name, case in CASES.items()}
    args.out.write_text(json.dumps({"environment": environment(), "fits": fits},
                                   indent=1) + "\n")
    print(f"wrote {len(fits)} fit digests to {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
