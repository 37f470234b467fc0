#!/usr/bin/env python3
"""Compare two directories of figure CSVs, column by column.

Usage: python scripts/compare_figures.py a/ b/

For every CSV in either directory, prints whether the two files are
byte-identical and, per column, the maximum absolute and relative
deviation of b from a.  A cell passes when it is within 1e-12 relative
or 1e-15 absolute of a.  Exits 1 when any cell fails, a file is missing
on one side, or the headers or shapes differ; 0 otherwise.
"""

import pathlib
import sys

import numpy as np

RTOL = 1e-12
ATOL = 1e-15


def load(path: pathlib.Path) -> tuple[list[str], np.ndarray]:
    header = path.read_text().splitlines()[0].split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def compare(a: pathlib.Path, b: pathlib.Path) -> bool:
    """Print the per-column report for one file pair; True when it passes."""
    if a.read_bytes() == b.read_bytes():
        print(f"{a.name}: byte-identical")
        return True
    (head_a, data_a), (head_b, data_b) = load(a), load(b)
    if head_a != head_b or data_a.shape != data_b.shape:
        print(f"{a.name}: FAIL header {head_a} / {head_b}, shape {data_a.shape} / {data_b.shape}")
        return False
    diff = np.abs(data_b - data_a)
    diff[np.isnan(data_a) & np.isnan(data_b)] = 0.0
    scale = np.abs(data_a)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(diff == 0.0, 0.0, diff / scale)
    bad = ~((diff <= ATOL) | (diff <= RTOL * scale))
    print(f"{a.name}: differs in bytes, {'FAIL' if bad.any() else 'within tolerance'}")
    for j, name in enumerate(head_a):
        print(f"  {name:>14}  max abs {diff[:, j].max(initial=0.0):.3e}  "
              f"max rel {rel[:, j].max(initial=0.0):.3e}  failing cells {bad[:, j].sum()}")
    return not bad.any()


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    dir_a, dir_b = (pathlib.Path(d) for d in argv)
    names = sorted({p.name for p in dir_a.glob("*.csv")} | {p.name for p in dir_b.glob("*.csv")})
    ok = bool(names)
    for name in names:
        a, b = dir_a / name, dir_b / name
        if not (a.exists() and b.exists()):
            print(f"{name}: FAIL only in {dir_a if a.exists() else dir_b}")
            ok = False
            continue
        ok = compare(a, b) and ok
    print(f"{len(names)} CSV files: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
