"""Process set-up shared by every benchmark entry point.

This module imports nothing numerical: the BLAS thread cap only takes
effect when it is in the environment before numpy loads its BLAS library,
so ``prepare`` must run before anything imports numpy or fermi_lattice.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Scratch space for generated scenarios, CLI outputs and span dumps,
# relative to the checkout root.
WORK_DIR = ".perfbench_work"


class MissingSources(Exception):
    """The working directory holds no fermi_lattice sources to benchmark."""


def prepare(root: Path) -> dict:
    """Cap the BLAS pool, pin the CLI to its default fan-out and put
    ``root/src`` first on the import path.

    The sweep fan-out is left at the CLI default; the BLAS pool gets what
    is left of the cores, so sweep threads times BLAS threads never exceed
    the core count.  Returns the settings for the run record.
    """
    src = root / "src"
    if not (src / "fermi_lattice" / "__init__.py").is_file():
        raise MissingSources(f"no fermi_lattice sources under {src}; "
                             "run the benchmark from the repository root")
    nproc = os.cpu_count() or 1
    os.environ.pop("FERMI_LATTICE_THREADS", None)
    fan_out = min(4, nproc)  # fermi_lattice.cli.thread_count() without the variable
    blas = max(1, nproc // fan_out)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(blas)
    sys.path.insert(0, str(src))
    return {"nproc": nproc, "cli_fan_out": fan_out, "blas_threads": blas}


def check_import(root: Path) -> None:
    """Refuse to benchmark a fermi_lattice imported from anywhere but root/src."""
    import fermi_lattice

    where = Path(fermi_lattice.__file__).resolve()
    if (root / "src").resolve() not in where.parents:
        raise MissingSources(f"fermi_lattice was imported from {where}, not from {root / 'src'}")
