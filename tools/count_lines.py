"""Count code, docstring, comment and blank lines per Python module.

Run from anywhere: ``python tools/count_lines.py [FILE ...]``; with no
arguments it counts src/tpg/*.py.  A docstring is the string that opens a
module, class or function body, by its ast span, blank lines within it
included.  A line holding any other token is code, a line inside any other
string among them; a line holding only a comment is a comment line.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
SKIP = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENDMARKER, tokenize.COMMENT}


def count(source: str) -> dict[str, int]:
    """Lines of each kind in source, in KINDS order."""
    docstrings: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None)
        if (isinstance(body, list) and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            docstrings.update(range(body[0].lineno, body[0].end_lineno + 1))
    code, comment = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    for line in range(1, len(source.splitlines()) + 1):
        kind = ("docstring" if line in docstrings else "code" if line in code
                else "comment" if line in comment else "blank")
        counts[kind] += 1
    return counts


def main(argv: list[str]) -> int:
    root = Path(__file__).resolve().parent.parent
    paths = [Path(p) for p in argv] or sorted((root / "src" / "tpg").glob("*.py"))
    total = dict.fromkeys(KINDS, 0)
    print(f"{'module':<16}" + "".join(f"{k:>10}" for k in KINDS) + f"{'total':>8}")
    for path in paths:
        counts = count(path.read_text())
        for k in KINDS:
            total[k] += counts[k]
        print(f"{path.name:<16}" + "".join(f"{counts[k]:>10}" for k in KINDS)
              + f"{sum(counts.values()):>8}")
    print(f"{'total':<16}" + "".join(f"{total[k]:>10}" for k in KINDS)
          + f"{sum(total.values()):>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
