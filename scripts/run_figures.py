#!/usr/bin/env python3
"""Run every figure config in figures/ through the CLI.

Usage: python scripts/run_figures.py [output_dir]

Writes one CSV (or a few, for sweep configs) per scenario file into
output_dir (default: ./figure_data), plus the run manifests.  Prints each
config's wall time and, at the end, the peak resident memory of the process.
"""

import pathlib
import resource
import sys
import time

from fermi_lattice import cli

COMMANDS = {
    "fig1": "causality",
    "fig1_rscan": "causality",
    "fig2": "causality",
    "fig3": "bare",
    "fig4": "bare",
    "fig5": "dressed",
    "fig5_gmin": "dressed",
    "fig6": "dressed",
    "fig7": "dressed",
    "figB1": "cloud",
    "ion2": "ion2",
    "oracle_check": "oracle-check",
}


def main() -> int:
    out_dir = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "figure_data")
    out_dir.mkdir(parents=True, exist_ok=True)
    fig_dir = pathlib.Path(__file__).resolve().parent.parent / "figures"
    worst = 0
    for scenario in sorted(fig_dir.glob("*.json")):
        command = COMMANDS[scenario.stem]
        out = out_dir / f"{scenario.stem}.csv"
        print(f"== {scenario.name} -> {command}")
        started = time.perf_counter()
        code = cli.main([command, "--scenario", str(scenario), "--out", str(out)])
        print(f"== {scenario.name}: {time.perf_counter() - started:.3f} s wall, exit {code}")
        worst = max(worst, code)
    # ru_maxrss is in kilobytes on Linux
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"== peak RSS {peak_mb:.1f} MB")
    return worst


if __name__ == "__main__":
    sys.exit(main())
