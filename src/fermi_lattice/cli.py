"""Scenario-file-driven command line front end.

    fermi-lattice <command> --scenario <file.json> --out <file.csv> [--quiet]

Commands: causality, bare, dressed, ion2, cloud, oracle-check.  A scenario
file is one JSON object with the sections system (chain or trap), scenario
(sites, splittings, epsilon, openings, duration) and run (command options);
the tables below are its whole format (README, "Scenario files").  Every
command writes plot-ready CSV (header row, then each cell as the "%.17g"
text of its float64 value, which write_csv encodes a column at a time) plus
a small .manifest.json next to it, which also lists every warning the
command raised; identical scenario files produce byte-identical CSV.  Exit
codes: 0 success, 2 schema or usage error (NaN or Infinity in a scenario
included), 3 numerical failure (a non-finite result included).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import operator
import sys
import time
import warnings
from collections import namedtuple
from functools import cache
from pathlib import Path

import numpy as np

from . import __version__
from .amplitude import bare_amplitude, windowed_amplitude
from .causality import (SWEEP_ELEMENT_LIMIT, causality_trace, commutator, lightcone_estimate,
                        nominal_causal_time, resolved_samples, rise_estimate)
from .cloud import excitation_distribution, single_site_distributions
from .dressing import (DressingScheme, _require_equal_splittings, _shared_opening,
                       dressed_amplitude, g_min, static_dressing_amplitude)
from .errors import FermiLatticeError, InvalidParametersError, NumericalFailureError, SchemaError
from .ion2 import PulseSpec, swap_probability, swap_probability_full, symplectic_temperature
from .modes import (ChainParams, ModeBasis, Scenario, TrapParams, build_harmonic_chain,
                    build_ion_trap)
from .openings import OpeningFunction
from .oracle import CUTOFF_START, check_fock_size, residual_slope


# ---------------------------------------------------------------------------
# scenario-file schema
# ---------------------------------------------------------------------------
#
# A table maps each key of one JSON object to (kind, default, *bounds).
#   kind:    int, float, a nested table, [kind] for a non-empty list, or a
#            tuple of literal strings optionally ending in one other kind;
#   default: REQUIRED, None (absent; the command works the value out),
#            SameAs(key) (the value read for that key) or a value of kind;
#   bounds:  "> x", ">= x" or "<= x", on a number and on every number in a list.
# A Variants table takes its keys from tables[value of its selector key].

REQUIRED = object()
Variants = namedtuple("Variants", "key default tables")


class SameAs(str):
    """Default: the value read for the named key of the same object."""


_SCHEMES = tuple(s.name.lower() for s in DressingScheme)
_BOUNDS = {">": operator.gt, ">=": operator.ge, "<=": operator.le}

# Upper bounds of the counts, each set from the peak RSS of one run at the
# bound (numpy on a 2-core Xeon):
#   COUNT_LIMIT on run.n_times, run.n_samples and run.alpha_num: bare on a
#     100-site chain 561 MB, dressed 456 MB, oracle-check 177 MB, causality
#     on a 2-site chain 270 MB, ion2 243 MB (1.9 GB at 10**7);
#   CLOUD_ELEMENT_LIMIT on the cloud's times x sites: 585 MB at 1000 x 2000;
#   TRAP_IONS_LIMIT on system.trap.n_ions: 252 MB and 4.4 s for the trap's
#     Newton steps and eigh, which hold n x n arrays (420 MB and 11 s at 3000);
#   CHAIN_SITES_LIMIT on system.chain.n_sites and each run.n_values entry:
#     1.30 GB and 87 s for bare at the default n_times.
COUNT_LIMIT = 10**6
CLOUD_ELEMENT_LIMIT = 2 * 10**6
TRAP_IONS_LIMIT = 2000
CHAIN_SITES_LIMIT = 10**6
# a ring offset r is written through %.17g, which holds every |r| < 2**53 exactly
R_LIMIT = 2**53 - 1
_COUNT = f"<= {COUNT_LIMIT}"
_SITES = f"<= {CHAIN_SITES_LIMIT}"
_OFFSETS = (("all", [int]), "all", f">= {-R_LIMIT}", f"<= {R_LIMIT}")

_OPENING = Variants("variant", REQUIRED, {
    "constant": {},
    "sin_sq_window": {"window": (float, REQUIRED, ">= 0")},
    "cos_sq_window": {"window": (float, REQUIRED, ">= 0")},
    "exp_ramp": {"ramp_time": (float, REQUIRED, "> 0")},
})
_OPENING.tables["exp_ramp"]["inner"] = (_OPENING, REQUIRED)

_SYSTEM = Variants("kind", REQUIRED, {
    "chain": {"chain": ({"n_sites": (int, REQUIRED, ">= 2", _SITES), "length": (float, 1.0, "> 0"),
                         "pinning": (float, 1.0, "> 0"), "speed": (float, 1.0, "> 0")},
                        REQUIRED)},
    "trap": {"trap": ({"n_ions": (int, REQUIRED, ">= 2", f"<= {TRAP_IONS_LIMIT}"),
                       "omega0": (float, 1.0, "> 0")}, REQUIRED)},
})

_SCENARIO = {
    "site_a": (int, 0, ">= 0"), "site_b": (int, 1, ">= 0"),
    "omega": (float, 1.0), "omega_a": (float, SameAs("omega")),
    "omega_b": (float, SameAs("omega")), "epsilon": (float, 1.0, ">= 0"),
    "opening": (_OPENING, {"variant": "constant"}), "opening_a": (_OPENING, SameAs("opening")),
    "opening_b": (_OPENING, SameAs("opening")), "duration": (float, 0.0, ">= 0"),
}

_RUNS = {
    "causality": Variants("mode", "tau_scan", {
        "tau_scan": {"n_samples": (int, 2000, ">= 2", _COUNT), "tau_max": (float, None, "> 0"),
                     "n_values": ([int], None, ">= 2", _SITES),
                     "separation_fraction": (float, None)},
        "r_scan": {"tau": (float, REQUIRED), "r_values": _OFFSETS},
    }),
    "bare": {"t_max": (float, None, ">= 0"), "n_times": (int, 201, ">= 1", _COUNT)},
    "dressed": Variants("mode", "trace", {
        "trace": {"t_max": (float, None, ">= 0"), "n_times": (int, 201, ">= 1", _COUNT),
                  "schemes": ([_SCHEMES], list(_SCHEMES))},
        "g_scan": {"r_values": _OFFSETS},
        "gmin_scan": {"n_values": ([int], REQUIRED, ">= 2", _SITES)},
    }),
    "ion2": {"alpha_start": (float, 0.0), "alpha_stop": (float, 3.0),
             "alpha_num": (int, 301, ">= 1", _COUNT), "schmidt_cutoff": (int, 2, ">= 2")},
    "cloud": {"scheme": (_SCHEMES, "bare"), "component": (("total", "up", "down"), "total"),
              "t_values": ([float], None, ">= 0"), "t_max": (float, None, ">= 0"),
              "n_times": (int, None, ">= 1", _COUNT)},
    "oracle-check": {"epsilons": ([float], [1e-2, 5e-3, 2.5e-3], ">= 0"),
                     "t_max": (float, 1.5, "> 0"), "n_times": (int, 15, ">= 1", _COUNT),
                     "method": (("auto",), "auto"),
                     "cutoff": (("auto", int), "auto", ">= 2")},
}


def _describe(kind) -> str:
    if isinstance(kind, tuple):
        return " or ".join(repr(k) if isinstance(k, str) else _describe(k) for k in kind)
    if isinstance(kind, list):
        return "a non-empty list, each " + _describe(kind[0])
    return "an integer" if kind is int else "a finite number"


def _check(value, kind, bounds, where: str):
    """value read as kind within bounds, or a SchemaError naming where."""
    if isinstance(kind, (dict, Variants)):
        return _read(value, kind, where)
    if isinstance(kind, tuple):
        if isinstance(value, str) and value in kind:
            return value
        if not isinstance(value, str) and not isinstance(kind[-1], str):
            return _check(value, kind[-1], bounds, where)
    elif isinstance(kind, list):
        if isinstance(value, list) and value:
            return [_check(v, kind[0], bounds, f"{where}[{i}]") for i, v in enumerate(value)]
    # the range test compares an int exactly, where math.isfinite(10**400) raises
    elif (isinstance(value, (int, float)) and not isinstance(value, bool)
          and abs(value) <= sys.float_info.max and (kind is float or float(value).is_integer())):
        value = kind(value)
        for bound in bounds:
            op, limit = bound.split()
            if not _BOUNDS[op](value, float(limit)):
                raise SchemaError(f"{where} must be {bound}, got {value!r}")
        return value
    raise SchemaError(f"{where} must be {_describe(kind)}, got {value!r}")


def _value(section: dict, key: str, spec: tuple, where: str, read: dict):
    kind, default, *bounds = spec
    name = f"{where}.{key}" if where else key
    if key in section:
        return _check(section[key], kind, bounds, name)
    if default is REQUIRED:
        raise SchemaError(f"missing key {name}")
    if isinstance(default, SameAs):
        return read[default]
    return None if default is None else _check(default, kind, bounds, name)


def _read(section, table, where: str) -> dict:
    """One JSON object checked against its table: every key of the table,
    defaults filled in; an unknown key is an error."""
    if not isinstance(section, dict):
        raise SchemaError(f"{where or 'a scenario file'} must be a JSON object, "
                          f"got {type(section).__name__}")
    if isinstance(table, Variants):
        selector = (tuple(table.tables), table.default)
        choice = _value(section, table.key, selector, where, {})
        table = {table.key: selector, **table.tables[choice]}
    for key in section:
        if key not in table:
            raise SchemaError(f"unknown key {where + '.' if where else ''}{key} "
                              f"(expected one of {', '.join(table)})")
    read: dict = {}
    for key, spec in table.items():
        read[key] = _value(section, key, spec, where, read)
    return read


def apply_schema(doc, command: str) -> dict:
    """The scenario file as the command reads it: every section checked
    against its table, defaults filled in, absent optional values None."""
    table = {"system": (_SYSTEM, REQUIRED), "run": (_RUNS[command], {})}
    if command != "ion2":  # the two-ion swap reads no scenario section
        table["scenario"] = (_SCENARIO, {})
    return _read(doc, table, "")


def _reject_constant(name: str):
    raise SchemaError(f"{name} is not a valid number in a scenario file")


def _parse_int(digits: str):
    # past Python's 4300-digit limit, an infinite float that the schema refuses by key
    try:
        return int(digits)
    except ValueError:
        return float(digits)


def load_scenario_file(path: str | Path):
    """The parsed JSON of a scenario file; apply_schema checks its contents."""
    try:
        return json.loads(Path(path).read_text(), parse_int=_parse_int,
                          parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
                          f"{exc.msg}") from exc


def _opening(doc: dict) -> OpeningFunction:
    if "inner" in doc:
        doc = dict(doc, inner=_opening(doc["inner"]))
    return OpeningFunction(**doc)


def _system_params(doc: dict) -> ChainParams | TrapParams:
    """The ChainParams or TrapParams of a checked scenario file."""
    kind = doc["system"]["kind"]
    try:
        return (ChainParams if kind == "chain" else TrapParams)(**doc["system"][kind])
    except FermiLatticeError as exc:
        raise SchemaError(f"system.{kind}: {exc}") from exc


def build_basis(doc: dict) -> ModeBasis:
    """The mode basis of a checked scenario file (see apply_schema)."""
    build = build_harmonic_chain if doc["system"]["kind"] == "chain" else build_ion_trap
    return build(_system_params(doc))


def build_scenario(doc: dict) -> Scenario:
    """The Scenario of a checked scenario file (see apply_schema), its sites
    checked against the system's size before any basis is built."""
    sc, kind = doc["scenario"], doc["system"]["kind"]
    try:
        scenario = Scenario(sc["site_a"], sc["site_b"], sc["omega_a"], sc["omega_b"],
                            sc["epsilon"], _opening(sc["opening_a"]), _opening(sc["opening_b"]),
                            sc["duration"])
        scenario.check_sites(doc["system"][kind]["n_sites" if kind == "chain" else "n_ions"])
    except (FermiLatticeError, IndexError) as exc:
        raise SchemaError(f"scenario section: {exc}") from exc
    return scenario


def scenario_hash(doc: dict) -> str:
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

# A CSV cell is the "%.17g" text of its float64 value: the 17 significant
# digits D (an integer, 10**16 <= D < 10**17, or 0) and the decimal
# exponent k of |value| = D 10**(k-16), laid out in a 32-byte record as
#   bytes 0-5 sign and 0.000 prefix, 6-23 digits and '.', 24-28 e+XX, 31 separator
# whose unused bytes are NUL and deleted on output.  Fixed notation holds
# -4 <= k < 17; trailing fraction zeros are dropped, and so is a '.' left
# with no digit after it.
_POW10_LOW = -294  # exponent of the first power of ten in the table


@cache
def _cell_tables():
    """The encoder's constant tables, built on first use: powers of ten
    (long double, correctly rounded), the texts of the 10**4 four-digit groups
    and their trailing zero counts, the sign and 0.000 prefixes, the exponent
    texts, and masks of the first r bytes of the digit field."""
    ld = np.longdouble
    powers = np.array([ld(f"1e{n}") for n in range(_POW10_LOW, 343)])
    group = np.arange(10**4, dtype=np.uint16)
    quad_text = np.stack([group // 10**i % 10 + ord("0") for i in (3, 2, 1, 0)], axis=1)
    quad_zeros = np.sum([group % 10**i == 0 for i in range(1, 5)], axis=0)

    def words(texts):  # each text NUL-padded to a little-endian 64-bit word
        return np.array([t.encode() for t in texts], "S8").view("<u8")

    # the sign and prefix end at byte 5, where the digit field begins
    heads = words([(sign + ("0." + "0" * (zeros - 1) if zeros else "")).rjust(6, "\0")
                   for sign in ("", "-") for zeros in range(5)])
    tails = words([f"e{k:+03d}" for k in range(-324, 309)] + [""])
    first = np.where(np.arange(32) - 6 < np.arange(19)[:, None], 255, 0) * (np.arange(32) >= 6)
    return (powers, quad_text.astype(np.uint8).view(np.uint32).ravel(), quad_zeros, heads, tails,
            first.astype(np.uint8).view("<u8"))


def _python_digits(a: np.ndarray):
    """D and k of each value of a >= 0, read from Python's "%.16e" text,
    "d.<16 digits>e-XX" or, with a third exponent digit, e-XXX."""
    text = np.array(["%.16e" % x for x in a.tolist()], "S23").view(np.uint8).reshape(-1, 23)
    digit = text.astype(np.int64) - ord("0")
    d = digit[:, np.r_[0, 2:18]] @ 10 ** np.arange(16, -1, -1)
    e = digit[:, 20:23]
    k = np.where(text[:, 22], 100 * e[:, 0] + 10 * e[:, 1] + e[:, 2], 10 * e[:, 0] + e[:, 1])
    return d, np.where(text[:, 19] == ord("-"), -k, k)


def _digits(a: np.ndarray):
    """The 17 significant digits D and decimal exponent k of each finite a >= 0.

    One long-double product y = a 10**(16-k) gives them where its rounding is
    certain: the table entry and the product each round once, by at most
    epsneg = 2**-64 relative on x86-64, so y is within 2 epsneg y (< 0.011) of
    the exact value, and D = rint(y) is the correctly rounded digit string
    unless y lies within twice that, 4 epsneg y (< 0.0217), of a half-integer.
    Those cells, ties among them, take D and k from Python's own formatting;
    where long double is plain double that margin exceeds 1/2 and every cell
    does."""
    powers = _cell_tables()[0]
    zero = a == 0
    k = np.floor(np.log10(np.where(zero, 1.0, a))).astype(np.int64)
    wide = a.astype(np.longdouble)
    # the table overflows only where long double is double, and there no cell is sure
    with np.errstate(over="ignore", invalid="ignore"):
        y = wide * powers.take(16 - k - _POW10_LOW)
        # log10 may be one off near a power of ten
        off = np.flatnonzero(((y >= 1e17) | (y < 1e16)) & ~zero)
        k[off] += np.where(y[off] >= 1e17, 1, -1)
        y[off] = wide[off] * powers.take(16 - k[off] - _POW10_LOW)
        d = np.rint(y)
        unsure = np.flatnonzero(~(np.abs(y - d) < 0.5 - 4 * np.finfo(wide.dtype).epsneg * y))
        d = d.astype(np.int64)
    if unsure.size:
        d[unsure], k[unsure] = _python_digits(a[unsure])
    carry = d == 10**17  # rounded up to the next power of ten
    d[carry] = 10**16
    k[carry] += 1
    return d, k


def _encode(values: np.ndarray) -> np.ndarray:
    """One 32-byte record per value: its "%.17g" text padded with NUL, the
    last byte left for the separator."""
    _, quad_text, quad_zeros, heads, tails, first = _cell_tables()
    n = values.size
    d, k = _digits(np.abs(values))
    exponent = (k < -4) | (k >= 17)
    whole = np.where(exponent, 1, np.maximum(k + 1, 0))  # digits before the '.'
    records = np.zeros((n, 4), "<u8")  # little-endian words: byte i of a word is text byte i
    text = records.view(np.uint8)
    # digit j of D at byte 7 + j: the lead digit, then four groups of four
    lead, rest = np.divmod(d, 10**16)
    text[:, 7] = lead + ord("0")
    zeros, trailing = 0, True
    for word in (5, 4, 3, 2):
        rest, group = np.divmod(rest, 10**4)
        records.view(np.uint32)[:, word] = quad_text.take(group)
        zeros = zeros + trailing * quad_zeros.take(group)
        trailing = trailing & (group == 0)
    kept = np.maximum(whole, 17 - zeros)  # the integer part and the fraction's last nonzero digit
    records &= first.take(kept + 1, axis=0)
    # bytes 6 .. 5 + whole take the digit after them; the '.' (or NUL) follows
    flat = text.ravel()
    flat[:-1] += (flat[1:] - flat[:-1]) & first.take(whole, axis=0).view(np.uint8).ravel()[:-1]
    text[np.arange(n), 6 + whole] = np.where((kept > whole) & (whole > 0), ord("."), 0)
    records[:, 0] |= heads.take(5 * np.signbit(values) + np.where(exponent, 0, np.clip(-k, 0, 4)))
    records[:, 3] = tails.take(np.where(exponent, k + 324, 633))
    return text


# rows encoded per write: for the 52 000-row, 3-column cloud CSV the
# writer's traced peak is 2.6 MB (5.8 MB at 16 384 rows; the per-value
# formatter it replaced peaked at 6.6 MB), and 2048 to 16 384 rows take
# the same time
CSV_BLOCK_ROWS = 4096


def write_csv(path: Path, header: list[str], columns) -> Path:
    """Write one 1-D column per header name as 17-digit CSV rows; a NaN or
    infinite cell is a numerical failure and leaves no file behind.

    Every cell is the "%.17g" text of its float64 value (see _digits and
    _encode).  A column whose distinct values (told apart by their bits, so
    -0.0 keeps its own text) are fewer than half its rows is encoded once per
    distinct value and its records gathered; the other columns are encoded
    together, CSV_BLOCK_ROWS rows at a time, as the body is written."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    finite = np.logical_and.reduce([np.isfinite(c) for c in columns])
    if not np.all(finite):
        raise NumericalFailureError(f"{path.name}: non-finite value in data row "
                                    f"{np.argmin(finite) + 1}")
    rows = finite.size
    tables = {}
    for j, column in enumerate(columns):
        bits = column.view(np.int64)
        ordered = np.sort(bits)
        # the first of each run of equal bits; [:rows] keeps none of an empty column
        distinct = ordered[np.r_[True, ordered[1:] != ordered[:-1]][:rows]]
        if 2 * distinct.size < rows:
            records = np.concatenate([_encode(distinct[i:i + CSV_BLOCK_ROWS].view(float))
                                      for i in range(0, distinct.size, CSV_BLOCK_ROWS)])
            tables[j] = records, np.searchsorted(distinct, bits)
    direct = [j for j in range(len(columns)) if j not in tables]
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, rows, CSV_BLOCK_ROWS):
            stop = min(start + CSV_BLOCK_ROWS, rows)
            block = np.empty((stop - start, len(columns), 32), np.uint8)
            if direct:
                values = np.stack([columns[j][start:stop] for j in direct], axis=1)
                block[:, direct] = _encode(values.ravel()).reshape(stop - start, len(direct), -1)
            for j, (records, inverse) in tables.items():
                block[:, j] = records.take(inverse[start:stop], axis=0)
            block[:, :, -1] = ord(",")
            block[:, -1, -1] = ord("\n")
            fh.write(block.tobytes().translate(None, b"\0"))
    return path


def out_variant(out: Path, suffix: str) -> Path:
    return out.with_name(out.stem + suffix + out.suffix)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _window_t_max(run: dict, scenario: Scenario) -> float:
    """run.t_max, by default the later end of the two opening windows."""
    t_max = run["t_max"]
    if t_max is None:
        t_max = max(op.post_ramp().window_end for op in (scenario.opening_a, scenario.opening_b))
    if not math.isfinite(t_max):
        raise SchemaError("run.t_max is required when the opening never closes")
    return t_max


def cmd_causality(doc: dict, out: Path, summary: dict) -> list[Path]:
    run = doc["run"]
    if run.get("separation_fraction") is not None and run["n_values"] is None:
        raise SchemaError("run.separation_fraction needs run.n_values (it places site_b "
                          "for each chain size of the sweep)")
    scenario = build_scenario(doc)
    ring = "run.mode 'r_scan'" if run["mode"] == "r_scan" else run["n_values"] and "run.n_values"
    if ring and doc["system"]["kind"] != "chain":
        raise SchemaError(f"{ring} needs system.kind 'chain', got 'trap'")

    if run["mode"] == "r_scan":
        n_sites = doc["system"]["chain"]["n_sites"]
        r_values = range(1, n_sites) if run["r_values"] == "all" else run["r_values"]
        for r in r_values:
            if r % n_sites == 0:
                raise SchemaError(f"run.r_values: r = {r} puts site_b on site_a "
                                  f"(r must not be a multiple of n_sites = {n_sites})")
        basis = build_basis(doc)
        sites = (scenario.site_a + np.asarray(r_values)) % n_sites
        f_c = commutator(basis, scenario.site_a, sites, run["tau"])
        return [write_csv(out, ["r", "f_c"], [r_values, f_c])]

    # one point (system, site_a, site_b, CSV suffix) per chain size, a single chain being a
    # one-point sweep; a chain is built only to be summed, so a refused run builds none
    if doc["system"]["kind"] == "trap":  # a trap's spectrum needs the build
        points = [(build_basis(doc), scenario.site_a, scenario.site_b, "")]
    else:
        system, frac = _system_params(doc), run["separation_fraction"]
        n_values = run["n_values"] or [system.n_sites]
        if len(set(n_values)) < len(n_values):
            raise SchemaError("run.n_values lists a chain size twice; each size writes one CSV")
        points = []
        for n in n_values:
            try:
                chain = ChainParams(n, system.length, system.pinning, system.speed)
                if frac is None:
                    scenario.check_sites(n)
            except (FermiLatticeError, IndexError) as exc:
                raise SchemaError(f"run.n_values: n = {n}: {exc}") from exc
            site_a, site_b = ((scenario.site_a, scenario.site_b) if frac is None
                              else (0, int(round(frac * n)) % n))
            if site_b == site_a:  # the scenario's own sites differ
                raise SchemaError(f"run.separation_fraction = {frac} puts site_b on "
                                  f"site_a for n = {n}")
            points.append((chain, site_a, site_b, f"_n{n}" if run["n_values"] else ""))

    n_samples = run["n_samples"]
    grid = max(n_samples, 100)
    plans, elements = [], 0
    for system, site_a, site_b, _ in points:
        if isinstance(system, ChainParams):  # n sites have n // 2 + 1 distinct frequencies
            w_max, n_freqs = system.max_frequency, system.n_sites // 2 + 1
            causal_time = system.causal_time(site_a, site_b)
        else:
            w_max, n_freqs = float(np.max(system.frequencies)), system.distinct_frequencies.size
            causal_time = nominal_causal_time(system, site_a, site_b)
        tau_max = run["tau_max"] or 2.0 * causal_time
        estimate_samples = resolved_samples(w_max, tau_max, grid)
        widen = estimate_samples != n_samples  # else the trace's own grid serves the estimate
        plans.append((tau_max, widen))
        elements += (n_samples + widen * estimate_samples) * n_freqs
    if elements > SWEEP_ELEMENT_LIMIT:
        raise SchemaError(f"{ring or 'run.n_samples'}: the mode sums need {elements:.3g} (tau x "
                          f"frequency) elements, over the limit of {SWEEP_ELEMENT_LIMIT:.3g}; "
                          f"use fewer samples or smaller chains")
    outputs = []
    for (system, site_a, site_b, suffix), (tau_max, widen) in zip(points, plans):
        b = (system if isinstance(system, ModeBasis)
             else build_harmonic_chain(system) if suffix else build_basis(doc))
        trace = causality_trace(b, site_a, site_b, np.linspace(0.0, tau_max, n_samples))
        est = (lightcone_estimate(b, site_a, site_b, tau_max, grid) if widen
               else rise_estimate(b, trace))
        del b  # before the next point builds its chain
        outputs.append(write_csv(out_variant(out, suffix), ["tau", "f_a", "f_c"],
                                 [trace.taus, trace.f_a, trace.f_c]))
        for name in ("rise_time", "nominal_causal_time", "sharpness"):
            summary[f"{suffix.lstrip('_') or 'lightcone'}.{name}"] = getattr(est, name)
    return outputs


def cmd_bare(doc: dict, out: Path, summary: dict) -> list[Path]:
    scenario = build_scenario(doc)
    run = doc["run"]
    t_max = _window_t_max(run, scenario)
    basis = build_basis(doc)
    if run["t_max"] is None:  # windowed_amplitude ends at the same window end
        trace = windowed_amplitude(basis, scenario, n_times=run["n_times"])
    else:
        trace = bare_amplitude(basis, scenario, np.linspace(0.0, t_max, run["n_times"]))

    summary["ac_over_a0"] = trace.commutator_ratio()
    summary["p_final"] = float(trace.probability[-1])
    columns = [trace.times, trace.a0.real, trace.a0.imag, trace.ac.real, trace.ac.imag,
               trace.probability]
    return [write_csv(out, ["t", "re_a0", "im_a0", "re_ac", "im_ac", "probability"], columns)]


def cmd_dressed(doc: dict, out: Path, summary: dict) -> list[Path]:
    run = doc["run"]
    if run["mode"] != "trace" and doc["system"]["kind"] != "chain":
        raise SchemaError(f"run.mode {run['mode']!r} needs system.kind 'chain': its offsets "
                          "r from site 0 and antipodal sites N/2 are taken around a ring")
    scenario = build_scenario(doc)
    omega = _require_equal_splittings(scenario)

    if run["mode"] == "g_scan":  # one synthesis over the ring, like a causality r_scan
        basis = build_basis(doc)
        r_values = range(basis.n_sites // 2 + 1) if run["r_values"] == "all" else run["r_values"]
        g = static_dressing_amplitude(basis, omega, 0, np.asarray(r_values))
        return [write_csv(out, ["r", "g"], [r_values, g])]

    if run["mode"] == "gmin_scan":  # one chain per entry of run.n_values, not the system's
        chain = _system_params(doc)
        try:
            values = g_min(run["n_values"], omega, chain.length, chain.pinning, chain.speed)
        except FermiLatticeError as exc:
            raise SchemaError(f"run.n_values: {exc}") from exc
        return [write_csv(out, ["n", "g_min"], [run["n_values"], values])]

    _shared_opening(scenario)
    times = np.linspace(0.0, _window_t_max(run, scenario), run["n_times"])
    basis = build_basis(doc)
    names = run["schemes"]
    traces = dressed_amplitude(basis, scenario, [DressingScheme[n.upper()] for n in names], times)
    for name, trace in zip(names, traces):
        summary[f"p_final.{name}"] = float(trace.probability[-1])
    header = ["t"] + [f"p{i + 1}" for i in range(len(traces))]
    return [write_csv(out, header, [times] + [tr.probability for tr in traces])]


def cmd_ion2(doc: dict, out: Path, summary: dict) -> list[Path]:
    system = doc["system"]
    if system["kind"] != "trap":
        raise SchemaError(f"ion2 needs system.kind 'trap', got {system['kind']!r}")
    if system["trap"]["n_ions"] != 2:
        raise SchemaError(f"ion2 needs system.trap.n_ions = 2, got {system['trap']['n_ions']}")
    basis = build_basis(doc)
    run = doc["run"]
    thermal = symplectic_temperature(float(basis.frequencies[0]), float(basis.frequencies[1]))

    # cutoff 2 keeps the leading Schmidt pair, any larger one keeps them all
    swap = swap_probability if run["schmidt_cutoff"] == 2 else swap_probability_full

    def prob(alpha: float) -> float:
        return swap(PulseSpec(alpha, alpha), thermal)[1]

    alphas = np.linspace(run["alpha_start"], run["alpha_stop"], run["alpha_num"])
    probs = [prob(alpha) for alpha in alphas.tolist()]
    scan = write_csv(out, ["alpha", "probability"], [alphas, probs])

    values = {"lambda": thermal.lambda_symp, "beta": thermal.beta,
              "e_minus_beta": thermal.e_minus_beta, "p_at_alpha_1": prob(1.0)}
    summary.update(values)
    table = write_csv(out_variant(out, "_summary"), list(values),
                      [[value] for value in values.values()])
    return [scan, table]


def cmd_cloud(doc: dict, out: Path, summary: dict) -> list[Path]:
    run = doc["run"]
    for key in ("t_max", "n_times"):
        if run["t_values"] is not None and run[key] is not None:
            raise SchemaError(f"run.{key} cannot be set with run.t_values, which lists the times")
    kind = doc["system"]["kind"]
    n_sites = doc["system"][kind]["n_sites" if kind == "chain" else "n_ions"]
    n_times, key = ((len(run["t_values"]), "run.t_values") if run["t_values"]
                    else (run["n_times"] or 26, "run.n_times"))
    if n_times * n_sites > CLOUD_ELEMENT_LIMIT:
        raise SchemaError(f"{key}: {n_times} times x {n_sites} sites is over the cloud's "
                          f"limit of {CLOUD_ELEMENT_LIMIT:.3g} (time, site) elements")
    scenario = build_scenario(doc)
    _require_equal_splittings(scenario)
    _shared_opening(scenario)
    t_values = run["t_values"] or np.linspace(0.0, _window_t_max(run, scenario), n_times)
    t_values = np.asarray(t_values, dtype=float)
    basis = build_basis(doc)
    scheme = DressingScheme[run["scheme"].upper()]
    component = run["component"]

    if component == "total":
        d = excitation_distribution(basis, scenario, scheme, t_values)
    else:
        up, down = single_site_distributions(basis, scenario, scheme, t_values)
        d = up if component == "up" else down
    summary["d_max"] = float(np.max(d))
    t = np.repeat(t_values, basis.n_sites)
    n = np.tile(np.arange(basis.n_sites), t_values.size)
    return [write_csv(out, ["t", "n", "d_n"], [t, n, d.ravel()])]


def cmd_oracle_check(doc: dict, out: Path, summary: dict) -> list[Path]:
    scenario = build_scenario(doc)
    run = doc["run"]
    times = np.linspace(0.0, run["t_max"], run["n_times"] + 1)[1:]
    if np.any(np.diff(times) <= 0):
        raise SchemaError(f"run.t_max = {run['t_max']!r} is too small for run.n_times times")
    cutoff, kind = run["cutoff"], doc["system"]["kind"]
    try:
        # the first cutoff's Fock space is sized from the file, before the basis is built
        check_fock_size(doc["system"][kind]["n_sites" if kind == "chain" else "n_ions"],
                        scenario, CUTOFF_START if cutoff == "auto" else cutoff)
        residuals, slope = residual_slope(build_basis(doc), scenario, run["epsilons"], times,
                                          max_total_phonons=None if cutoff == "auto" else cutoff)
    except InvalidParametersError as exc:
        # with the scenario and times checked above, what is left to refuse is the
        # phonon cutoff: the Fock size or the static path's dense memory
        raise SchemaError(f"run.cutoff = {cutoff!r}: {exc}") from exc
    summary["fitted_slope"] = slope
    return [write_csv(out, ["epsilon", "residual"], [run["epsilons"], residuals])]


_COMMANDS = {
    "causality": cmd_causality,
    "bare": cmd_bare,
    "dressed": cmd_dressed,
    "ion2": cmd_ion2,
    "cloud": cmd_cloud,
    "oracle-check": cmd_oracle_check,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fermi-lattice",
        description="Excitation-swap simulations on harmonic chains and ion traps",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--scenario", required=True, help="scenario JSON file")
    parser.add_argument("--out", required=True, help="output CSV path")
    parser.add_argument("--quiet", action="store_true", help="suppress summary output")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    summary: dict = {}
    failure = None
    caught: list[warnings.WarningMessage] = []
    # the warnings the caller's filters let through go to the manifest, and
    # are shown once the command ends, however it ends
    try:
        with warnings.catch_warnings(record=True) as caught:
            try:
                raw = load_scenario_file(args.scenario)
                outputs = _COMMANDS[args.command](apply_schema(raw, args.command),
                                                  Path(args.out), summary)
            except (NumericalFailureError, ArithmeticError) as exc:
                failure = 3, f"numerical failure: {exc}"
            except (FermiLatticeError, ValueError, TypeError, IndexError, OSError) as exc:
                failure = 2, f"error: {exc}"
    finally:
        for w in caught:
            warnings.showwarning(w.message, w.category, w.filename, w.lineno, w.file, w.line)
    if failure is not None:
        print(failure[1], file=sys.stderr)
        return failure[0]

    manifest = {
        "tool_version": __version__,
        "command": args.command,
        "scenario_hash": scenario_hash(raw),
        "wall_time_s": round(time.perf_counter() - started, 6),
        "outputs": [p.name for p in outputs],
        # strict JSON: a non-finite summary value is written as null
        "summary": {k: v if math.isfinite(v) else None for k, v in summary.items()},
        "warnings": [f"{w.category.__name__}: {w.message}" for w in caught],
    }
    manifest_path = Path(args.out).with_suffix(".manifest.json")
    manifest_path.write_text(json.dumps(manifest, indent=2, default=float, allow_nan=False) + "\n")
    if not args.quiet:
        for key, value in summary.items():
            print(f"{key} = {value}")
        for p in outputs:
            print(f"wrote {p}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
