#!/usr/bin/env python3
"""Count the lines of each module under src/ and split them by kind.

For every .py file, print its `wc -l` count and how many of those lines are
docstring, comment-only, blank and code lines, then the totals.  A docstring
line is any line of a module, class or function docstring, blank lines
inside it included.  A comment-only line holds a comment and nothing else.
A blank line is empty outside a docstring.  Every other line is code.

Usage:  python scripts/src_lines.py [ROOT]   (default: the repo's src/)
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def split(text: str) -> dict[str, int]:
    """The line counts of one module's source text, by kind."""
    lines = text.splitlines()
    kinds = ["code"] * len(lines)
    for i, line in enumerate(lines):
        if not line.strip():
            kinds[i] = "blank"
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT and not tok.line[: tok.start[1]].strip():
            kinds[tok.start[0] - 1] = "comment"
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            first = body[0] if body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                for i in range(first.lineno - 1, first.end_lineno):
                    kinds[i] = "docstring"
    counts = {kind: kinds.count(kind) for kind in ("docstring", "comment", "blank", "code")}
    return {"lines": len(lines), **counts}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", nargs="?", default=str(ROOT / "src"))
    args = parser.parse_args(argv)
    columns = ("lines", "docstring", "comment", "blank", "code")
    total = dict.fromkeys(columns, 0)
    print(f"{'module':<32}" + "".join(f"{c:>11}" for c in columns))
    for path in sorted(Path(args.root).rglob("*.py")):
        counts = split(path.read_text())
        for c in columns:
            total[c] += counts[c]
        name = str(path.relative_to(args.root))
        print(f"{name:<32}" + "".join(f"{counts[c]:>11}" for c in columns))
    print(f"{'total':<32}" + "".join(f"{total[c]:>11}" for c in columns))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
