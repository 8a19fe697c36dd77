"""Compare two outputs of ``jobs/tables.py`` cell by cell.

    python jobs/diff_tables.py OLD NEW

Blocks are paired by their ``== title ==`` line and columns by their
header name; rows are paired in order. Every cell of a column whose name
starts with ``t_`` (a running time) is skipped. Each other cell that
differs is printed, as is a block, column or row that only one side has.
Exits 1 if anything differs, else 0. Standard library only.
"""
from __future__ import annotations

import re
import sys


def parse(text: str) -> dict:
    """{title: (header names, [{name: cell}])} of one runner output.

    ``fmt_table`` left-justifies every cell to its column's width and
    joins the columns with two spaces, so each column starts where its
    header name does, even when a cell holds spaces.
    """
    blocks: dict = {}
    lines = iter(text.splitlines())
    for line in lines:
        m = re.fullmatch(r"== (.*) ==", line)
        if not m:
            continue
        header = next(lines, "")
        cols = [(c.group(), c.start()) for c in re.finditer(r"\S+", header)]
        names = [name for name, _ in cols]
        bounds = [start for _, start in cols[1:]] + [None]
        rows = []
        for row in lines:
            if not row.strip():
                break
            rows.append({name: row[start:end].strip()
                         for (name, start), end in zip(cols, bounds)})
        blocks[m.group(1)] = (names, rows)
    return blocks


def diff(old: dict, new: dict) -> tuple[int, list]:
    """(non-time cells compared, lines describing each difference)."""
    compared, out = 0, []
    for title in [*old, *(t for t in new if t not in old)]:
        if title not in old or title not in new:
            out.append(f"{title}: only in {'NEW' if title in new else 'OLD'}")
            continue
        (names_a, rows_a), (names_b, rows_b) = old[title], new[title]
        names = [c for c in names_a if not c.startswith("t_")]
        for c in names_b:
            if c not in names_a and not c.startswith("t_"):
                out.append(f"{title}: column {c} only in NEW")
        for c in names:
            if c not in names_b:
                out.append(f"{title}: column {c} only in OLD")
        if len(rows_a) != len(rows_b):
            out.append(f"{title}: {len(rows_a)} rows in OLD, "
                       f"{len(rows_b)} in NEW")
        for k, (ra, rb) in enumerate(zip(rows_a, rows_b)):
            for c in names:
                if c not in names_b:
                    continue
                compared += 1
                if ra[c] != rb[c]:
                    out.append(f"{title}: row {k} {c}: {ra[c]!r} -> {rb[c]!r}")
    return compared, out


def main(argv: list) -> int:
    if len(argv) != 2:
        print("usage: python jobs/diff_tables.py OLD NEW", file=sys.stderr)
        return 2
    with open(argv[0]) as fa, open(argv[1]) as fb:
        compared, out = diff(parse(fa.read()), parse(fb.read()))
    for line in out:
        print(line)
    print(f"{compared} non-time cells compared, {len(out)} differ")
    return 1 if out else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
