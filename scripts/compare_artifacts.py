#!/usr/bin/env python3
"""Compare two artifact trees written by scripts/dump_artifacts.py.

For each file that differs, print the largest relative and absolute move of
every numeric CSV column or JSON key path (list indices written as []), and
name every difference that is not a number's move: a file on one side only,
a changed header, row count, key set, string or binary payload.  The
relative move of a against b is |a - b| / max(|a|, |b|).

Exit status: 0 only when the trees hold the same files, byte for byte; 1
otherwise.  With --rel TOL, also 0 when every difference is a number's move
of at most TOL relative; every move is printed either way.

Usage:  python scripts/compare_artifacts.py A B [--rel TOL]
"""

import argparse
import csv
import io
import json
import math
import sys
from pathlib import Path


class Moves:
    """The largest moves of the numeric fields of one file that moved, and its
    other differences."""

    def __init__(self):
        self.numeric: dict[str, tuple[float, float]] = {}
        self.other: list[str] = []

    def compare(self, field: str, a, b) -> None:
        numbers = all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (a, b))
        if not numbers or not all(math.isfinite(x) for x in (a, b)):
            if a != b and not (a != a and b != b):  # NaN on both sides is no move
                self.other.append(f"{field}: {a!r} -> {b!r}")
            return
        gap = abs(a - b)
        if gap:
            old = self.numeric.get(field, (0.0, 0.0))
            self.numeric[field] = (max(old[0], gap / max(abs(a), abs(b))), max(old[1], gap))


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _compare_csv(a: str, b: str, moves: Moves) -> None:
    rows_a, rows_b = (list(csv.reader(io.StringIO(t))) for t in (a, b))
    if rows_a[:1] != rows_b[:1] or len(rows_a) != len(rows_b):
        moves.other.append(f"header or row count: {rows_a[:1]} x {len(rows_a)} rows -> "
                           f"{rows_b[:1]} x {len(rows_b)} rows")
        return
    header = rows_a[0] if rows_a else []
    for row_a, row_b in zip(rows_a[1:], rows_b[1:]):
        for name, x, y in zip(header, row_a, row_b):
            moves.compare(name, _number(x), _number(y))


def _compare_json(a, b, path: str, moves: Moves) -> None:
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            moves.other.append(f"{path or '.'}: keys {sorted(a)} -> {sorted(b)}")
        for key in a.keys() & b.keys():
            _compare_json(a[key], b[key], f"{path}.{key}" if path else key, moves)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            moves.other.append(f"{path}: {len(a)} entries -> {len(b)}")
        for x, y in zip(a, b):
            _compare_json(x, y, f"{path}[]", moves)
    else:
        moves.compare(path, a, b)


def compare_files(a: Path, b: Path) -> Moves:
    moves = Moves()
    if a.suffix in (".csv", ".json"):
        text_a, text_b = a.read_text(), b.read_text()
        if a.suffix == ".csv":
            _compare_csv(text_a, text_b, moves)
        else:
            _compare_json(json.loads(text_a), json.loads(text_b), "", moves)
    if not moves.numeric and not moves.other:
        moves.other.append("bytes differ")  # a binary file, or a change of layout alone
    return moves


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a", type=Path)
    ap.add_argument("b", type=Path)
    ap.add_argument("--rel", type=float, default=None, metavar="TOL",
                    help="pass trees whose only differences are numeric moves of at most TOL "
                         "relative")
    args = ap.parse_args()
    files = [{p.relative_to(root) for p in root.rglob("*") if p.is_file()}
             for root in (args.a, args.b)]
    only = sorted(files[0] ^ files[1])
    for rel in only:
        print(f"{rel}: only in {args.a if rel in files[0] else args.b}")
    differ, beyond = 0, 0  # files that differ, and those that differ past --rel
    for rel in sorted(files[0] & files[1]):
        a, b = args.a / rel, args.b / rel
        if a.read_bytes() == b.read_bytes():
            continue
        differ += 1
        moves = compare_files(a, b)
        print(f"{rel}:")
        for field, (rel_move, abs_move) in sorted(moves.numeric.items()):
            print(f"  {field}: rel {rel_move:.3g}, abs {abs_move:.3g}")
        for what in moves.other:
            print(f"  non-numeric: {what}")
        beyond += bool(moves.other) or args.rel is None or any(
            rel_move > args.rel for rel_move, _ in moves.numeric.values())
    print(f"{differ} of {len(files[0] & files[1])} common files differ, "
          f"{len(only)} on one side only")
    if args.rel is not None:
        print(f"{beyond} differ by more than numeric moves of rel {args.rel:g}")
    return 1 if beyond or only else 0


if __name__ == "__main__":
    sys.exit(main())
