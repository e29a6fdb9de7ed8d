"""Record the parameters of the public API that ``tests/test_parameters.py`` compares against.

    PYTHONPATH=src python tests/record_parameter_snapshot.py [--out FILE]

Writes one line per callable named in the ``__all__`` of a ``pdsparse``
module (dataclasses included, by their generated ``__init__``) to
``tests/data/parameters.txt`` (or ``FILE``): ``module.name`` followed by
its ``inspect.signature`` without annotations, so names, kinds and defaults
show, and reports on standard error how many signatures and parameters it
wrote.  A class that takes the arguments of a built-in base has no
signature and is listed by name alone.  ``TestParameterSnapshot`` passes
only when the listing is identical to the recorded file; re-record after
adding, dropping, renaming or re-defaulting a parameter or field, and check
the diff.  The CLI's flags are pinned by the help snapshots instead.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

import pdsparse

SNAPSHOT_PATH = Path(__file__).parent / "data" / "parameters.txt"


def _unannotated(sig: inspect.Signature) -> inspect.Signature:
    params = [p.replace(annotation=inspect.Parameter.empty) for p in sig.parameters.values()]
    return sig.replace(parameters=params, return_annotation=inspect.Signature.empty)


def public_signatures() -> list[tuple[str, inspect.Signature | None]]:
    """``(module.name, signature)`` for every public callable, modules in name order.

    The signature is unannotated, and None for a class without one.
    """
    signatures = []
    for info in sorted(pkgutil.iter_modules(pdsparse.__path__), key=lambda i: i.name):
        module = importlib.import_module(f"pdsparse.{info.name}")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if not callable(obj):
                continue
            try:
                sig = _unannotated(inspect.signature(obj))
            except ValueError:
                sig = None
            signatures.append((f"{info.name}.{name}", sig))
    return signatures


def parameter_lines() -> list[str]:
    """``module.name(signature)`` for every public callable, modules in name order."""
    return [f"{name}{'' if sig is None else sig}" for name, sig in public_signatures()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=SNAPSHOT_PATH,
                        help="output file (default: tests/data/parameters.txt)")
    args = parser.parse_args(argv)
    lines = parameter_lines()
    n_parameters = sum(len(sig.parameters) for _, sig in public_signatures() if sig is not None)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(lines)} signatures with {n_parameters} parameters to {args.out}",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
