"""Golden rows of the shipped sweeps.

``tests/golden/<name>.csv`` holds columns 1-7 of ``irscrb sweep --config
configs/<name>.ini``, every column but ``wall_ms``.  A sweep's CSV matches it
when both have the same header and the same rows in the same order, each
with the same vary, value, scheme, trials and status and a crb within
``CRB_RTOL`` relative; an infinite crb must stay infinite.  ``crb_db`` is
``10 log10(crb)`` and is not compared on its own.  The module needs only the
standard library, so it also runs where pytest is not installed::

    python tests/golden_rows.py sweep.csv tests/golden/point_p0.csv
"""

from __future__ import annotations

import csv
import sys

CRB_RTOL = 1e-9


def _rows(path) -> list[list[str]]:
    """Columns 1-7: vary, value, scheme, crb, crb_db, trials, status."""
    with open(path, encoding="utf-8", newline="") as fh:
        return [row[:7] for row in csv.reader(fh)]


def _matches(row: list[str], gold: list[str]) -> bool:
    if row[:3] + row[5:] != gold[:3] + gold[5:]:
        return False
    crb, ref = float(row[3]), float(gold[3])
    return crb == ref or abs(crb - ref) <= CRB_RTOL * abs(ref)


def golden_mismatches(csv_path, golden_path) -> list[str]:
    """One line for each row of the sweep CSV at ``csv_path`` that differs from
    its golden row at ``golden_path``; empty when every row matches."""
    (header, *rows), (golden_header, *golden) = _rows(csv_path), _rows(golden_path)
    if header != golden_header or len(rows) != len(golden):
        return [f"{csv_path} has header {header} and {len(rows)} rows; {golden_path} "
                f"has {golden_header} and {len(golden)}"]
    return [f"line {line}: {','.join(row)} is golden {','.join(gold)}"
            for line, (row, gold) in enumerate(zip(rows, golden), start=2)
            if not _matches(row, gold)]


if __name__ == "__main__":
    mismatches = golden_mismatches(*sys.argv[1:])
    print("\n".join(mismatches) or f"{sys.argv[1]} matches {sys.argv[2]}")
    sys.exit(1 if mismatches else 0)
