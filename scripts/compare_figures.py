#!/usr/bin/env python3
"""Compare two directories of figure CSVs and run manifests.

Usage: python scripts/compare_figures.py a/ b/

For every CSV in either directory, prints whether the two files are
byte-identical and, per column, the maximum absolute and relative
deviation of b from a.  A cell passes when it is within 1e-12 relative
or 1e-15 absolute of a.  For every .manifest.json, the command, the output
list and the warning list must be equal and every summary value must pass
the same rule; wall_time_s is not compared, and null (how a non-finite
value is written) matches any non-finite value.  Exits 1 when any cell or summary value fails, a file
or a summary key is missing on one side, or the headers, shapes, commands,
output lists or warning lists differ; 0 otherwise.  The last line counts
the CSV files, the byte-identical ones among them and the manifests.
"""

import json
import math
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


def _matches(a, b) -> bool:
    finite = [v is not None and math.isfinite(v) for v in (a, b)]
    if not any(finite):
        return True
    return all(finite) and (abs(b - a) <= ATOL or abs(b - a) <= RTOL * abs(a))


def compare_manifest(a: pathlib.Path, b: pathlib.Path) -> bool:
    """Print the report for one manifest pair; True when it passes."""
    man_a, man_b = (json.loads(p.read_text()) for p in (a, b))
    ok = True
    for key in ("command", "outputs", "warnings"):
        if man_a[key] != man_b[key]:
            print(f"{a.name}: FAIL {key} {man_a[key]} / {man_b[key]}")
            ok = False
    sum_a, sum_b = man_a["summary"], man_b["summary"]
    for key in sorted(sum_a.keys() | sum_b.keys()):
        if key not in sum_a or key not in sum_b:
            side = a.parent if key in sum_a else b.parent
            print(f"{a.name}: FAIL summary key {key} only in {side}")
            ok = False
        elif not _matches(sum_a[key], sum_b[key]):
            print(f"{a.name}: FAIL summary {key} = {sum_a[key]!r} / {sum_b[key]!r}")
            ok = False
    if ok:
        same = sum(sum_a[k] == sum_b[k] for k in sum_a)
        print(f"{a.name}: command, outputs and warnings equal, {len(sum_a)} summary values "
              f"within tolerance, {same} identical")
    return ok


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    dir_a, dir_b = (pathlib.Path(d) for d in argv)
    ok, identical = True, 0
    counts = []
    for pattern, check in (("*.csv", compare), ("*.manifest.json", compare_manifest)):
        names = sorted({p.name for d in (dir_a, dir_b) for p in d.glob(pattern)})
        ok = ok and bool(names)
        for name in names:
            a, b = dir_a / name, dir_b / name
            if not (a.exists() and b.exists()):
                print(f"{name}: FAIL only in {dir_a if a.exists() else dir_b}")
                ok = False
                continue
            ok = check(a, b) and ok
            identical += check is compare and a.read_bytes() == b.read_bytes()
        counts.append(len(names))
    print(f"{counts[0]} CSV files ({identical} byte-identical), {counts[1]} manifests: "
          f"{'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
