"""Set-up probe: import fermi_lattice and write one workload's inputs.

The benchmark times this script from process spawn to exit; that is the
set-up cost every CLI user pays before the first result.

    python3 perfbench/probe.py --workload figures --seed 0 --work <dir>
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import bootstrap


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    root = Path.cwd()
    bootstrap.prepare(root)
    import fermi_lattice  # noqa: F401  (the import is what is being timed)

    bootstrap.check_import(root)
    import scenarios

    scenarios.generate(args.workload, args.seed, Path(args.work), args.tiny)
    return 0


if __name__ == "__main__":
    sys.exit(main())
