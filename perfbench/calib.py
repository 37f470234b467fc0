"""Host-speed calibration: a fixed piece of work timed between operations.

The benchmark shares its cores with other tenants of a virtual machine,
and the speed of those cores drifts by up to a factor of two over seconds
to minutes (CPU time drifts with wall time, so there is no steal time to
subtract).  A run's wall time therefore says as much about the host as
about the program.  ``calibrate`` times the same work every call -- a
pure-Python loop, a small in-cache matrix product and a copy of an array
beyond cache -- between operations, and ``normalise`` scales an
operation's wall time by how much slower that work ran around the
operation than it does on the reference host.  It takes the median of
several calibrations on either side, not just the two next to the
operation: a calibration of a few milliseconds can catch a stall that an
operation of seconds averages out, and scaling by the neighbours alone
once shrank a whole run by a fifth.  Of the kernels tried, this mix
followed the drift of the three workloads best; it touches nothing of
fermi_lattice, so no change to the program can move it.

Set-up time is mostly process start and imports, which that work does not
follow (its ratio to set-up time spread more than set-up time itself), so
set-up is scaled by ``calibrate_import`` instead: a fresh interpreter that
imports only the third-party modules fermi_lattice loads at import time.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

# Seconds one calibrate() takes on the reference host (2-core Xeon VM,
# numpy 2.4.6, Python 3.11) in its fast state; normalised times are wall
# seconds on that host.
CAL_REF_S = 0.016

# Seconds one calibrate_import() takes on the reference host in its fast state.
IMPORT_REF_S = 0.45
IMPORT_ARGV = [sys.executable, "-c", "import numpy, scipy.sparse, scipy.special"]

# calibrations on each side of an operation that set its scale
WINDOW = 4

_LOOP = 100_000
_SMALL = np.random.default_rng(0).random((120, 120))
_BIG = np.ones(2_000_000)
_BIG_OUT = np.empty_like(_BIG)


def calibrate() -> float:
    """Time the fixed calibration work once; return seconds."""
    t0 = time.perf_counter()
    x = 0
    for i in range(_LOOP):
        x += i * i
    for _ in range(10):
        _SMALL @ _SMALL
    for _ in range(3):
        np.copyto(_BIG_OUT, _BIG)
    return time.perf_counter() - t0


def calibrate_import(timeout: float) -> float:
    """Time a fresh interpreter importing fermi_lattice's third-party
    dependencies, from spawn to exit; return seconds."""
    t0 = time.perf_counter()
    subprocess.run(IMPORT_ARGV, check=True, capture_output=True, timeout=timeout)
    return time.perf_counter() - t0


def normalise(timings: list[tuple[float, int]], calibrations: list[float],
              ref: float = CAL_REF_S) -> list[float]:
    """Scale each timing ``(elapsed, i)``, made between calibrations i and
    i + 1, to the reference host, on which one calibration takes ``ref``
    seconds: by the median of the WINDOW calibrations before it and the
    WINDOW after it."""
    return [elapsed * ref / statistics.median(calibrations[max(0, i + 1 - WINDOW):i + 1 + WINDOW])
            for elapsed, i in timings]
