"""Compare two ``funcdeconv table1 --out`` CSVs cell by cell.

Cells are matched on (f1, f2, M, sigma, mode) and must also agree on runs
and seed. ``mean_mise`` and ``sd_mise`` agree when they differ by at most
RTOL relative to the first table's value. Prints the worst cell, by
relative difference, and exits 0 when every cell agrees, 1 when one does
not or the tables hold different cells.

Run: python3 scripts/compare_tables.py A.csv B.csv --rtol 1e-10
"""

import argparse
import csv
import sys

KEY = ("f1", "f2", "M", "sigma", "mode")
EXACT = ("runs", "seed")
VALUES = ("mean_mise", "sd_mise")


def read_cells(path) -> dict:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    missing = [c for c in KEY + EXACT + VALUES if rows and c not in rows[0]]
    if not rows or missing:
        raise SystemExit(f"error: {path}: not a table1 CSV (missing {missing or 'rows'})")
    return {tuple(row[c] for c in KEY): row for row in rows}


def rel_diff(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / abs(a) if a else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="reference table CSV")
    parser.add_argument("b", help="table CSV to compare")
    parser.add_argument("--rtol", type=float, default=1e-10,
                        help="largest relative difference that still agrees")
    args = parser.parse_args(argv)
    a, b = read_cells(args.a), read_cells(args.b)
    if a.keys() != b.keys():
        only = sorted(a.keys() ^ b.keys())
        print(f"cells differ: {len(only)} in one table only, first {only[0]}")
        return 1
    for key in a:
        for col in EXACT:
            if a[key][col] != b[key][col]:
                print(f"cell {key}: {col} {a[key][col]} vs {b[key][col]}")
                return 1
    worst, cell, col = max((rel_diff(float(a[k][c]), float(b[k][c])), k, c)
                           for k in a for c in VALUES)
    verdict = "" if worst <= args.rtol else "not all "
    print(f"{verdict}{len(a)} cells agree within rtol {args.rtol:g}; worst {col} "
          f"{worst:.3g} relative at {dict(zip(KEY, cell))}: "
          f"{a[cell][col]} vs {b[cell][col]}")
    return 0 if worst <= args.rtol else 1


if __name__ == "__main__":
    sys.exit(main())
