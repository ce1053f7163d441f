"""Cell-by-cell differences between two trees of run outputs.

    python3 tools/output_diff.py DIR_A DIR_B

Each tree holds ``config/file`` outputs, one directory per config, as
``cli.run`` writes them.  For every ``config/file`` in either tree it prints
``same`` when the bytes agree, ``only in A`` or ``only in B``, and otherwise
what changed, indented below the file's name:

* the ``#`` echo lines that differ, as lines: ``- `` from A, ``+ `` from B;
* a changed header or number of rows, in which case no cells are compared;
* per column, the number of changed cells and the largest absolute and
  relative difference, each with its row.

Rows of a ``.csv`` file are its comma-separated lines after the header.
Rows of ``report.txt`` are its lines; a check line is split into the
check's name, status, measured value, relation and bound.  A cell that is
not a finite number on both sides is compared as text.  Exits 0 only when
every file is the same.
"""

from __future__ import annotations

import argparse
import difflib
import math
import re
import sys
from pathlib import Path

_CHECK = re.compile(r"^(PASS|FAIL) (.+): measured=(.+) (<=|>=) bound=(.+)$")
_REPORT_COLUMNS = ["check", "status", "measured", "relation", "bound"]


def _table(name: str, text: str) -> tuple[list[str], list[str], list[list[str]]]:
    """The ``#`` lines, the column names and the rows of one output file."""
    lines = text.splitlines()
    comments = [line for line in lines if line.startswith("#")]
    body = [line for line in lines if not line.startswith("#")]
    if name.endswith(".csv"):
        header, *rows = [line.split(",") for line in body] or [[]]
        return comments, header, rows
    rows = []
    for line in body:
        match = _CHECK.match(line)
        rows.append([match[2], match[1], match[3], match[4], match[5]] if match else [line])
    return comments, _REPORT_COLUMNS, rows


def _number(cell: str) -> float | None:
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _column_lines(column: str, cells: list[tuple[str, str, str]]) -> list[str]:
    """Summary lines of one column's changed cells, given as (row, A, B)."""
    numeric, text = [], []
    for row, a, b in cells:
        x, y = _number(a), _number(b)
        if x is None or y is None:
            text.append((row, a, b))
        else:
            numeric.append((row, abs(y - x), abs(y - x) / abs(x) if x else math.inf))
    out = []
    if numeric:
        row_abs, largest_abs, _ = max(numeric, key=lambda cell: cell[1])
        row_rel, _, largest_rel = max(numeric, key=lambda cell: cell[2])
        out.append(
            f"{column}: {len(numeric)} changed cell(s); largest |B - A| {largest_abs:.3g} at {row_abs}, "
            f"largest relative {largest_rel:.3g} at {row_rel}"
        )
    if text:
        row, a, b = text[0]
        out.append(f"{column}: {len(text)} changed text cell(s); first at {row}: {a!r} -> {b!r}")
    return out


def diff_file(name: str, a: bytes, b: bytes) -> list[str]:
    """Lines saying how file ``name`` differs from A to B; empty when the bytes agree."""
    if a == b:
        return []
    comments_a, header_a, rows_a = _table(name, a.decode("utf-8"))
    comments_b, header_b, rows_b = _table(name, b.decode("utf-8"))
    out = [line for line in difflib.ndiff(comments_a, comments_b) if line[:2] in ("- ", "+ ")]
    if header_a != header_b:
        return out + [f"header: {','.join(header_a)} -> {','.join(header_b)}"]
    if len(rows_a) != len(rows_b):
        return out + [f"rows: {len(rows_a)} in A, {len(rows_b)} in B"]
    changed: dict[str, list[tuple[str, str, str]]] = {}
    for i, (row_a, row_b) in enumerate(zip(rows_a, rows_b), 1):
        label = f"row {i} ({row_a[0]})"
        if len(row_a) != len(row_b):
            out.append(f"{label}: {len(row_a)} cells in A, {len(row_b)} in B")
            continue
        for j, (cell_a, cell_b) in enumerate(zip(row_a, row_b)):
            if cell_a != cell_b:
                column = header_a[j] if j < len(header_a) else f"cell {j + 1}"
                changed.setdefault(column, []).append((label, cell_a, cell_b))
    for column, cells in changed.items():
        out += _column_lines(column, cells)
    return out or ["bytes differ outside the # lines and the cells"]


def _files(root: Path) -> set[str]:
    return {path.relative_to(root).as_posix() for path in root.rglob("*") if path.is_file()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("dir_a", type=Path, help="tree A, for example the parent revision's outputs")
    parser.add_argument("dir_b", type=Path, help="tree B, compared against A")
    args = parser.parse_args(argv)
    for root in (args.dir_a, args.dir_b):
        if not root.is_dir():
            parser.error(f"{root} is not a directory")
    in_a, in_b = _files(args.dir_a), _files(args.dir_b)
    if not in_a | in_b:
        print("no files in either tree")
        return 1
    all_same = True
    for name in sorted(in_a | in_b):
        if name not in in_b or name not in in_a:
            lines = ["only in A" if name in in_a else "only in B"]
            print(f"{name}: {lines[0]}")
        else:
            lines = diff_file(name, (args.dir_a / name).read_bytes(), (args.dir_b / name).read_bytes())
            print(f"{name}: {'differs' if lines else 'same'}")
            for line in lines:
                print(f"  {line}")
        all_same = all_same and not lines
    return 0 if all_same else 1


if __name__ == "__main__":
    sys.exit(main())
