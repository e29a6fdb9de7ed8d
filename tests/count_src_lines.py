"""Count the lines of each module of ``src/pdsparse``, in total and of code only.

    python tests/count_src_lines.py [DIR]

Prints one row per module in name order, then the totals: the module's
line count as ``wc -l`` gives it, and its code-only lines.  A line is code
unless it is blank, holds only a comment, or lies in a docstring (a string
statement that opens a module, class or function body).  DIR defaults to
the package directory next to this script's ``tests/``.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE_DIR = Path(__file__).resolve().parent.parent / "src" / "pdsparse"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def count_lines(source: str) -> tuple[int, int]:
    """(``wc -l`` count, code-only count) of one module's source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                code.difference_update(range(first.lineno, first.end_lineno + 1))
    return source.count("\n"), len(code)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    directory = Path(argv[0]) if argv else PACKAGE_DIR
    totals = [0, 0]
    print(f"{'module':<16}{'wc -l':>8}{'code':>8}")
    for path in sorted(directory.glob("*.py")):
        counts = count_lines(path.read_text())
        totals = [t + c for t, c in zip(totals, counts)]
        print(f"{path.name:<16}{counts[0]:>8}{counts[1]:>8}")
    print(f"{'total':<16}{totals[0]:>8}{totals[1]:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
