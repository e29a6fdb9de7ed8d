"""Record the CLI help texts that ``tests/test_cli.py`` compares against.

    PYTHONPATH=src python tests/record_help_snapshots.py [--out DIR]

Formats the help of the top-level parser and of every subcommand from
``build_parser()`` at ``COLUMNS=80`` and writes each to ``NAME.txt`` in
``tests/data/help`` (or ``DIR``).  ``TestHelpSnapshots`` passes only when
the help is identical to the recorded text; re-record after a change to a
flag, its help or its default, and check the diff of the snapshots.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from pdsparse.cli import build_parser

SNAPSHOT_DIR = Path(__file__).parent / "data" / "help"
NAMES = ("main", "gen-synthetic", "train", "predict", "cv", "sweep-eta", "project",
         "bench-proj")


def help_text(name: str) -> str:
    """The help of subcommand ``name`` (``"main"``: the top-level parser) at the
    terminal width in ``COLUMNS``."""
    parser = build_parser()
    if name == "main":
        return parser.format_help()
    return parser._subparsers._group_actions[0].choices[name].format_help()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=SNAPSHOT_DIR,
                        help="output directory (default: tests/data/help)")
    args = parser.parse_args(argv)
    os.environ["COLUMNS"] = "80"
    args.out.mkdir(parents=True, exist_ok=True)
    for name in NAMES:
        (args.out / f"{name}.txt").write_text(help_text(name))
    print(f"wrote {len(NAMES)} help snapshots to {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
