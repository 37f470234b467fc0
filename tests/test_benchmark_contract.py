"""The package as the benchmark sees it: perfbench/ wraps fermi_lattice
functions by name and reduces their results, so a name it reads must keep
resolving.  These tests read perfbench/ and change nothing in it."""

import importlib
import importlib.util
import pathlib
import sys

import numpy as np
import pytest

from fermi_lattice import (
    ChainParams,
    OpeningFunction,
    Scenario,
    build_harmonic_chain,
    dressed_ground_state,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def load(name):
    """perfbench/<name>.py as a module, without writing bytecode there."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


@pytest.fixture(scope="module")
def spans():
    return load("spans")


def test_every_traced_name_resolves(spans):
    missing = []
    for module_name, attr, *_ in spans.WRAPPED:
        owner = importlib.import_module(f"fermi_lattice.{module_name}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"fermi_lattice.{module_name}.{attr}")
    assert missing == []


def test_the_expansion_reducers_read_the_dressed_ground_state(spans):
    scenarios = load("scenarios")
    basis = build_harmonic_chain(ChainParams(3))
    scenario = Scenario.symmetric(0, 1, 2.0, 0.1, OpeningFunction.constant(), 1.0)
    ground = dressed_ground_state(basis, scenario)
    table = scenarios._reduce_expansion(ground)["groups"]
    # one row per (order, spin pattern) group, with SpinPattern's member index:
    # |dd>, 3 |1_k> per flipped site, then |uu> and |dd> with two phonons
    assert np.array_equal(table[:, :2], [[0, 0], [1, 1], [1, 2], [2, 0], [2, 3]])
    assert table[:, 2].sum() == ground.coeff.size == 20
    assert spans._count_expansion((), {}, ground) == {"expansion_terms": 20}


def test_the_figure_configs_are_the_benchmark_copies():
    # the benchmark runs its own copies, so an edit to one side only would
    # leave it timing configs users no longer run
    ours = sorted(p.name for p in (ROOT / "figures").glob("*.json"))
    theirs = sorted(p.name for p in (PERFBENCH / "inputs" / "figures").glob("*.json"))
    assert ours == theirs and len(ours) == 12
    for name in ours:
        assert ((ROOT / "figures" / name).read_bytes()
                == (PERFBENCH / "inputs" / "figures" / name).read_bytes()), name


def test_run_figures_runs_each_config_with_the_benchmark_command():
    spec = importlib.util.spec_from_file_location("run_figures", ROOT / "scripts" / "run_figures.py")
    run_figures = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run_figures)
    assert run_figures.COMMANDS == load("scenarios").FIGURE_COMMANDS
