"""Record the reference objective trajectories the fit checks compare against.

    python3 perfbench/record_reference.py

Runs every fit of the ``paper`` and ``wide`` workloads on each data seed of
the family and writes the recorded objective totals to
``perfbench/reference.json``.  Rerun it only when a change is meant to alter
the iterates; a speed-up must leave the recorded trajectories unchanged.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run.import_library()
    import workloads

    reference = {}
    for name in ("paper", "wide"):
        wl = workloads.WORKLOADS[name]
        per_seed = reference[name] = {}
        # benchmark seed i selects data seed wl.data_seeds[i]
        for i, seed in enumerate(wl.data_seeds):
            state = wl.setup(i)
            per_seed[str(seed)] = {
                ball: workloads.objectives(wl.fit(state, ball, workloads.Untraced())[1])
                for ball in wl.balls}
            print(f"{name} seed {seed} recorded", file=sys.stderr, flush=True)
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
