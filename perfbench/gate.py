"""Correctness gate: every output must be finite, and outputs of scenarios
that have a stored reference must match it.

References are keyed by operation name and a hash of the scenario file,
so an operation is referenced exactly when its input bytes equal those the
reference was produced from (the default seed, one held-out seed, and
every seed of ``figures``, whose inputs do not depend on the seed).  The
distance from the reference is a pass/fail gate, not a metric: legitimate
reordering of arithmetic moves it inside the tolerance.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# north-star tolerance: 1e-12 relative or 1e-15 absolute
RTOL = 1e-12
ATOL = 1e-15

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_SEEDS = (0, 1)  # the default seed and the held-out seed


@dataclass
class Verdict:
    ok: bool
    referenced: bool
    reason: str = ""


def cli_outputs(out: Path) -> dict[str, np.ndarray]:
    """The CSVs a CLI run listed in its manifest, plus its numeric summary."""
    manifest = json.loads(out.with_suffix(".manifest.json").read_text())
    arrays = {}
    for name in manifest["outputs"]:
        arrays[name] = np.loadtxt(out.parent / name, delimiter=",", skiprows=1, ndmin=2)
    for key, value in manifest.get("summary", {}).items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            arrays[f"summary.{key}"] = np.array([[float(value)]])
    return arrays


def compare(got: np.ndarray, want: np.ndarray) -> str:
    """Empty string when got matches want within the tolerance."""
    if got.shape != want.shape:
        return f"shape {got.shape} != reference {want.shape}"
    diff = np.abs(got - want)
    bad = ~((diff <= ATOL) | (diff <= RTOL * np.abs(want)))
    if np.any(bad):
        i = np.unravel_index(np.argmax(np.where(bad, diff, -1.0)), got.shape)
        return f"{np.count_nonzero(bad)} values off, worst at {i}: {got[i]!r} vs {want[i]!r}"
    return ""


def verdict(outputs: dict[str, np.ndarray], reference: dict[str, np.ndarray] | None) -> Verdict:
    for name, arr in outputs.items():
        if not np.all(np.isfinite(arr)):
            return Verdict(False, reference is not None, f"non-finite value in {name}")
    if reference is None:
        return Verdict(True, False)
    # outputs the reference does not know (a newer manifest, say) are only
    # checked for finiteness above
    missing = sorted(set(reference) - set(outputs))
    if missing:
        return Verdict(False, True, f"outputs missing: {missing}")
    for name, want in reference.items():
        why = compare(outputs[name], want)
        if why:
            return Verdict(False, True, f"{name}: {why}")
    return Verdict(True, True)


class Reference:
    """Reference outputs of one workload, read from an .npz archive whose
    keys are ``<op>|<input hash>|<output name>``."""

    def __init__(self, entries: dict[tuple[str, str], dict[str, np.ndarray]]):
        self.entries = entries

    @classmethod
    def load(cls, path: Path) -> "Reference":
        entries: dict[tuple[str, str], dict[str, np.ndarray]] = {}
        if path.is_file():
            with np.load(path) as archive:
                for key in archive.files:
                    op, digest, name = key.split("|", 2)
                    entries.setdefault((op, digest), {})[name] = archive[key]
        return cls(entries)

    def get(self, op: str, digest: str) -> dict[str, np.ndarray] | None:
        return self.entries.get((op, digest))

    def put(self, op: str, digest: str, outputs: dict[str, np.ndarray]) -> None:
        self.entries[(op, digest)] = outputs

    def save(self, path: Path) -> None:
        flat = {f"{op}|{digest}|{name}": arr
                for (op, digest), outputs in sorted(self.entries.items())
                for name, arr in sorted(outputs.items())}
        np.savez_compressed(path, **flat)
