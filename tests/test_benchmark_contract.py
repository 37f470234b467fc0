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


def test_bench_summary_reads_each_operations_normalised_median():
    spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)

    def run(wall, fig2, cloud):
        return {"workload": "continuum", "seed": 0, "trace": False,
                "result": {"metrics": {"norm_wall_s": {"value": wall, "unit": "s"}}},
                "report": ["norm_wall_s: sum of per-operation medians 0.3 s",
                           f"  op fig2: median 0.0090 s raw, {fig2} s normalised, over 68",
                           f"  op sigma_x_cloud: median 0.2 s raw, {cloud} s normalised, over 7",
                           "calibration: median 18.32 ms over 817, 16.00 ms on the reference host"]}

    summary = bench.summarise([run(0.3, 0.0078, 0.1), run(0.5, 0.0082, 1e-1),
                               run(0.4, 0.008, 0.12)])["continuum/seed0"]
    assert set(summary) == {"runs", "norm_wall_s", "op.fig2", "op.sigma_x_cloud"}
    assert summary["runs"] == 3
    assert summary["op.fig2"]["median"] == 0.008
    assert summary["op.sigma_x_cloud"]["median"] == 0.1
    assert summary["op.sigma_x_cloud"]["q3"] == 0.12


def test_bench_compare_pairs_the_runs_of_each_group():
    spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)

    def runs(walls, yields, fig2):
        return [{"workload": "figures", "seed": 0, "trace": False,
                 "result": {"metrics": {"norm_wall_s": {"value": w, "unit": "s"},
                                        "oracle.fock_yield": {"value": y, "unit": "ratio"},
                                        "cloud.warnings": {"value": 0, "unit": "count"}}},
                 "report": [f"  op fig2: median 0.0090 s raw, {f} s normalised, over 68"]}
                for w, y, f in zip(walls, yields, fig2)]

    walls = [1.0, 1.1, 0.9, 1.0, 1.05, 0.95, 1.0, 1.02, 0.98, 1.0]
    base = runs(walls, [0.5] * 10, [0.008] * 10)
    # nine pairs faster by 0.2 s, one tied; fock_yield is higher-better and falls
    change = runs([w - 0.2 for w in walls[:9]] + [1.0], [0.4] * 10, [0.008] * 10)
    lines = bench.compare(base, change, {"norm_wall_s": "lower", "oracle.fock_yield": "higher"})
    assert len(lines) == 3  # no direction is given for cloud.warnings
    wall, fock, fig2 = lines
    assert wall.startswith("figures/seed0 norm_wall_s (lower is better): base 1 ")
    assert "change won 9/10 pairs" in wall and "better by 0.2, beyond the base IQR" in wall
    assert "change won 0/10 pairs" in fock and "worse by 0.1, beyond the base IQR 0" in fock
    assert fig2.startswith("figures/seed0 op.fig2 (lower is better)")
    assert "change won 0/10 pairs" in fig2 and "equal by 0, within the base IQR 0" in fig2
