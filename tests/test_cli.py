import concurrent.futures
import contextlib
import json
import reprlib
import subprocess
import sys
import time
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fermi_lattice
from fermi_lattice import causality, cli, dressing, oracle
from fermi_lattice.causality import (SWEEP_ELEMENT_LIMIT, causality_trace, lightcone_estimate,
                                     nominal_causal_time, resolved_samples, rise_estimate)
from fermi_lattice.errors import NumericalFailureError
from fermi_lattice.ion2 import (PulseSpec, swap_probability, swap_probability_full,
                                symplectic_temperature)
from fermi_lattice.modes import ChainParams, TrapParams, build_harmonic_chain, build_ion_trap

FIGURES = Path(__file__).resolve().parent.parent / "figures"

FIG4 = {
    "system": {"kind": "chain", "chain": {"n_sites": 100}},
    "scenario": {"site_a": 0, "site_b": 31, "omega": 2.0, "epsilon": 1.0,
                 "opening": {"variant": "sin_sq_window", "window": 0.1},
                 "duration": 0.1},
    "run": {"n_times": 51},
}


@contextlib.contextmanager
def unlimited_int_digits():
    """Python's int-to-str conversion without its 4300-digit limit, so that a
    scenario may be written with a longer integer."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    with unlimited_int_digits():
        path.write_text(json.dumps(doc))
    return path


def run_cli(tmp_path, command, doc, out_name="out.csv", extra=()):
    scen = write_scenario(tmp_path, doc)
    out = tmp_path / out_name
    code = cli.main([command, "--scenario", str(scen), "--out", str(out), "--quiet", *extra])
    return code, out


def test_bare_command_roundtrip(tmp_path):
    code, out = run_cli(tmp_path, "bare", FIG4)
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,re_a0,im_a0,re_ac,im_ac,probability"
    assert len(lines) == 52
    manifest = json.loads(out.with_suffix(".manifest.json").read_text())
    assert manifest["summary"]["ac_over_a0"] < 0.05
    assert manifest["outputs"] == ["out.csv"]
    assert manifest["tool_version"]


# sites 0 and 3 of 100 are x/c = 0.03 apart, inside the 0.1 window
OUTSIDE_CONE = dict(FIG4, scenario=dict(FIG4["scenario"], site_b=3))


def test_warnings_reach_the_manifest(tmp_path):
    with pytest.warns(UserWarning, match="not inside the nominal causal time") as shown:
        code, out = run_cli(tmp_path, "bare", OUTSIDE_CONE)
    assert code == 0
    assert len(shown) == 1
    manifest = json.loads(out.with_suffix(".manifest.json").read_text())
    assert len(manifest["warnings"]) == 1
    assert manifest["warnings"][0].startswith("UserWarning: interaction window T = 0.1 "
                                              "is not inside the nominal causal time x/c = 0.03")
    _, clean = run_cli(tmp_path, "bare", FIG4, "clean.csv")
    assert json.loads(clean.with_suffix(".manifest.json").read_text())["warnings"] == []


def test_a_rise_on_the_windows_last_sample_is_warned(tmp_path):
    # from one end of a 21-ion trap to the other, F_c still rises at tau_max = 2
    doc = {"system": {"kind": "trap", "trap": {"n_ions": 21}},
           "scenario": {"site_a": 0, "site_b": 20}}
    with pytest.warns(UserWarning, match=r"sites \(0, 20\).* last step up to tau_max = 2;"):
        code, out = run_cli(tmp_path, "causality", doc)
    assert code == 0
    manifest = json.loads(out.with_suffix(".manifest.json").read_text())
    assert manifest["summary"]["lightcone.rise_time"] == pytest.approx(1.999, abs=1e-3)
    assert len(manifest["warnings"]) == 1 and "last step" in manifest["warnings"][0]


@pytest.mark.filterwarnings("error")
def test_warnings_keep_the_callers_filters(tmp_path):
    # an error filter stops the command at the warning, before any output
    with pytest.raises(UserWarning, match="not inside the nominal causal time"):
        run_cli(tmp_path, "bare", OUTSIDE_CONE)
    assert not (tmp_path / "out.csv").exists()
    assert not (tmp_path / "out.manifest.json").exists()


def test_warnings_are_shown_when_the_command_raises(tmp_path, monkeypatch):
    def broken_write(*args):
        raise KeyError("disk gone")

    monkeypatch.setattr(cli, "write_csv", broken_write)
    with pytest.warns(UserWarning, match="not inside the nominal causal time") as shown:
        with pytest.raises(KeyError, match="disk gone"):
            run_cli(tmp_path, "bare", OUTSIDE_CONE)
    assert len(shown) == 1


def test_determinism_byte_identical(tmp_path):
    _, out1 = run_cli(tmp_path, "bare", FIG4, "first.csv")
    _, out2 = run_cli(tmp_path, "bare", FIG4, "second.csv")
    assert out1.read_bytes() == out2.read_bytes()


def test_threaded_sweep_is_deterministic(tmp_path, monkeypatch):
    doc = {
        "system": {"kind": "chain", "chain": {"n_sites": 60}},
        "scenario": {"site_a": 0, "site_b": 18},
        "run": {"mode": "tau_scan", "n_values": [40, 60, 80],
                "separation_fraction": 0.3, "tau_max": 0.5, "n_samples": 400},
    }
    monkeypatch.setattr(causality, "WORKERS", 1)
    run_cli(tmp_path, "causality", doc, "serial.csv")
    monkeypatch.setattr(causality, "WORKERS", 3)
    run_cli(tmp_path, "causality", doc, "threaded.csv")
    for n in (40, 60, 80):
        a = (tmp_path / f"serial_n{n}.csv").read_bytes()
        b = (tmp_path / f"threaded_n{n}.csv").read_bytes()
        assert a == b


CHAIN1000 = {"kind": "chain", "chain": {"n_sites": 1000}}


@pytest.mark.parametrize("command, doc, pools", [
    ("ion2", {"system": {"kind": "trap", "trap": {"n_ions": 2}}, "run": {"alpha_num": 41}}, 0),
    ("causality", {"system": CHAIN1000, "scenario": {"site_a": 0, "site_b": 300},
                   "run": {"tau_max": 0.6, "n_samples": 2001}}, 0),
    ("causality", {"system": CHAIN1000, "scenario": {"site_a": 0, "site_b": 300},
                   "run": {"mode": "r_scan", "tau": 0.31}}, 0),
    ("cloud", dict(FIG4, scenario=dict(FIG4["scenario"], site_b=50),
                   run={"scheme": "sigma_x", "n_times": 26}), 0),
    ("dressed", {"system": CHAIN1000, "scenario": {"site_a": 0, "site_b": 500, "omega": 2.0},
                 "run": {"mode": "g_scan", "r_values": [0, 1, 250, 500]}}, 0),
    # 201 times on 1000 sites: 4 row blocks, shared by the workers
    ("bare", dict(FIG4, system=CHAIN1000, scenario=dict(FIG4["scenario"], site_b=300),
                  run={"n_times": 201}), 1),
], ids=["ion2", "tau_scan", "r_scan", "cloud", "g_scan", "bare"])
def test_only_the_amplitude_row_blocks_make_a_worker_pool(tmp_path, monkeypatch,
                                                            command, doc, pools):
    made = []
    pool = concurrent.futures.ThreadPoolExecutor
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                        lambda **kwargs: made.append(kwargs) or pool(**kwargs))
    monkeypatch.setattr(causality, "WORKERS", 2)
    code, _ = run_cli(tmp_path, command, doc)
    assert code == 0
    assert made == [{"max_workers": 2}] * pools


def test_causality_r_scan(tmp_path):
    doc = {
        "system": {"kind": "chain", "chain": {"n_sites": 50}},
        "scenario": {"site_a": 0, "site_b": 15},
        "run": {"mode": "r_scan", "tau": 0.31},
    }
    code, out = run_cli(tmp_path, "causality", doc)
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "r,f_c"
    assert len(lines) == 50  # header + r = 1..49


def test_causality_on_a_60_ion_trap(tmp_path):
    # the equilibrium of 57 ions or more sits at a force floor above 1e-13
    doc = {"system": {"kind": "trap", "trap": {"n_ions": 60}},
           "scenario": {"site_a": 0, "site_b": 59}, "run": {"n_samples": 200}}
    code, out = run_cli(tmp_path, "causality", doc)
    assert code == 0
    assert len(out.read_text().splitlines()) == 201


@pytest.mark.parametrize("n_samples, widened", [(50, True), (200, False)])
def test_a_trap_tau_scan_is_its_trace_and_rise(tmp_path, n_samples, widened):
    trap = build_ion_trap(TrapParams(10))
    doc = {"system": {"kind": "trap", "trap": {"n_ions": 10}},
           "scenario": {"site_a": 2, "site_b": 7}, "run": {"n_samples": n_samples}}
    code, out = run_cli(tmp_path, "causality", doc)
    assert code == 0
    tau_max = 2 * nominal_causal_time(trap, 2, 7)
    trace = causality_trace(trap, 2, 7, np.linspace(0, tau_max, n_samples))
    got = np.loadtxt(out, delimiter=",", skiprows=1)
    want = np.column_stack([trace.taus, trace.f_a, trace.f_c])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    # the estimate widens the grid to 100 samples, or takes the trace's own
    grid = max(n_samples, 100)
    assert (resolved_samples(float(np.max(trap.frequencies)), tau_max, grid) != n_samples
            ) == widened
    est = (lightcone_estimate(trap, 2, 7, tau_max, grid) if widened
           else rise_estimate(trap, trace))
    summary = json.loads(out.with_suffix(".manifest.json").read_text())["summary"]
    assert summary == {"lightcone.rise_time": est.rise_time,
                       "lightcone.nominal_causal_time": est.nominal_causal_time,
                       "lightcone.sharpness": est.sharpness}


@pytest.mark.parametrize("run, key", [
    ({"n_samples": 200}, "run.n_samples"),
    ({"mode": "r_scan", "tau": 0.3}, "run.mode"),
    ({"n_values": [10]}, "run.n_values"),
], ids=["over_the_work_guard", "r_scan", "n_values"])
def test_a_trap_causality_run_is_refused_by_its_key(tmp_path, monkeypatch, capsys, run, key):
    # 200 samples x 10 distinct frequencies are over this limit; a ring scan
    # and a chain-size sweep need a chain
    monkeypatch.setattr(cli, "SWEEP_ELEMENT_LIMIT", 1000)
    doc = {"system": {"kind": "trap", "trap": {"n_ions": 10}},
           "scenario": {"site_a": 2, "site_b": 7}, "run": run}
    code, _ = run_cli(tmp_path, "causality", doc)
    assert code == 2
    assert key in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_r_scan_onto_source_site_rejected(tmp_path, capsys):
    doc = {
        "system": {"kind": "chain", "chain": {"n_sites": 10}},
        "scenario": {"site_a": 0, "site_b": 3},
        "run": {"mode": "r_scan", "tau": 0.3, "r_values": [0, 10]},
    }
    code, out = run_cli(tmp_path, "causality", doc)
    assert code == 2
    assert "run.r_values" in capsys.readouterr().err
    assert not out.exists()


def test_r_scan_reduces_offsets_modulo_n_sites(tmp_path):
    # offsets up to the largest the CSV column holds exactly (|r| < 2**53);
    # both large offsets here reduce to r = 7
    doc = {
        "system": {"kind": "chain", "chain": {"n_sites": 50}},
        "scenario": {"site_a": 0, "site_b": 15},
        "run": {"mode": "r_scan", "tau": 0.31,
                "r_values": [7, 50 * 2**46 + 7, -50 * 2**46 - 43]},
    }
    code, out = run_cli(tmp_path, "causality", doc)
    assert code == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [r for r, _ in rows] == [format(float(r), ".17g") for r in doc["run"]["r_values"]]
    assert [int(r) for r, _ in rows] == doc["run"]["r_values"]
    assert rows[1][1] == rows[2][1] == rows[0][1]


def test_separation_fraction_onto_source_site_rejected(tmp_path, capsys):
    doc = {
        "system": {"kind": "chain", "chain": {"n_sites": 100}},
        "scenario": {"site_a": 0, "site_b": 3},
        "run": {"mode": "tau_scan", "n_values": [10, 100],
                "separation_fraction": 0.001, "tau_max": 0.5, "n_samples": 200},
    }
    code, _ = run_cli(tmp_path, "causality", doc)
    assert code == 2
    assert "run.separation_fraction" in capsys.readouterr().err
    assert not list(tmp_path.glob("out*.csv"))


def test_sweep_sites_outside_a_chain_exit_2_before_any_csv(tmp_path, capsys):
    # every chain of the sweep is checked before the first one is summed
    doc = {
        "system": {"kind": "chain", "chain": {"n_sites": 100}},
        "scenario": {"site_a": 0, "site_b": 50},
        "run": {"mode": "tau_scan", "n_values": [100, 10], "tau_max": 0.5, "n_samples": 200},
    }
    code, _ = run_cli(tmp_path, "causality", doc)
    assert code == 2
    err = capsys.readouterr().err
    assert "scenario.site_b" in err and "n = 10" in err
    assert not list(tmp_path.glob("*.csv"))
    code, _ = run_cli(tmp_path, "causality", _with(doc, "scenario.site_a", 12))
    assert code == 2
    assert "scenario.site_a" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_dressed_trace_columns(tmp_path):
    doc = {
        "system": {"kind": "chain", "chain": {"n_sites": 100}},
        "scenario": {"site_a": 0, "site_b": 31, "omega": 2.0, "epsilon": 1.0,
                     "opening": {"variant": "cos_sq_window", "window": 0.1},
                     "duration": 0.1},
        "run": {"mode": "trace", "n_times": 21},
    }
    code, out = run_cli(tmp_path, "dressed", doc)
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,p1,p2,p3"
    first = [float(x) for x in lines[1].split(",")]
    assert first[1] > 0 and first[2] == 0 and first[3] == 0


@pytest.mark.parametrize("names", [["sigma_x", "sigma_plus", "bare"], ["bare", "sigma_x"]])
def test_dressed_notes_and_columns_follow_the_schemes(tmp_path, names):
    from fermi_lattice import dressing

    doc = json.loads((FIGURES / "fig7.json").read_text())
    doc["run"].update(n_times=31, schemes=names)
    code, out = run_cli(tmp_path, "dressed", doc)
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(["t"] + [f"p{i + 1}" for i in range(len(names))])
    summary = json.loads(out.with_suffix(".manifest.json").read_text())["summary"]
    assert list(summary) == [f"p_final.{name}" for name in names]
    basis = build_harmonic_chain(ChainParams(100))
    scenario = cli.build_scenario(cli.apply_schema(doc, "dressed"))
    for name in names:
        trace = dressing.dressed_amplitude(basis, scenario, dressing.DressingScheme[name.upper()],
                                           np.linspace(0.0, 0.1, 31))
        assert summary[f"p_final.{name}"] == float(trace.probability[-1])


def test_ion2_summary(tmp_path):
    doc = {"system": {"kind": "trap", "trap": {"n_ions": 2}},
           "run": {"alpha_num": 31}}
    code, out = run_cli(tmp_path, "ion2", doc)
    assert code == 0
    summary = (out.parent / "out_summary.csv").read_text().splitlines()
    assert summary[0] == "lambda,beta,e_minus_beta,p_at_alpha_1"
    lam, beta, emb, p1 = (float(x) for x in summary[1].split(","))
    assert p1 == pytest.approx(0.0100819, abs=2e-7)
    scan = np.loadtxt(out, delimiter=",", skiprows=1)
    assert scan[np.argmax(scan[:, 1]), 0] == pytest.approx(1.0, abs=0.05)


def test_cloud_rows(tmp_path):
    doc = {
        "system": {"kind": "chain", "chain": {"n_sites": 40}},
        "scenario": {"site_a": 20, "site_b": 0, "omega": 2.0, "epsilon": 1.0,
                     "opening": {"variant": "sin_sq_window", "window": 0.1},
                     "duration": 0.1},
        "run": {"scheme": "bare", "component": "up", "t_values": [0.0, 0.1]},
    }
    code, out = run_cli(tmp_path, "cloud", doc)
    assert code == 0
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    assert data.shape == (80, 3)
    at_zero = data[data[:, 0] == 0.0][:, 2]
    assert np.all(at_zero == 0)


@pytest.mark.parametrize("component", ["total", "up", "down"])
def test_cloud_asks_the_library_once_per_run(tmp_path, monkeypatch, component):
    calls = []

    def spy(fn):
        def wrapped(*args):
            calls.append(np.shape(args[3]))
            return fn(*args)
        return wrapped

    for name in ("excitation_distribution", "single_site_distributions"):
        monkeypatch.setattr(cli, name, spy(getattr(cli, name)))
    doc = {"system": {"kind": "chain", "chain": {"n_sites": 40}},
           "scenario": {"site_a": 20, "site_b": 0, "omega": 2.0,
                        "opening": {"variant": "sin_sq_window", "window": 0.1}},
           "run": {"scheme": "sigma_x", "component": component, "n_times": 7}}
    code, out = run_cli(tmp_path, "cloud", doc)
    assert code == 0
    assert calls == [(7,)]
    assert np.loadtxt(out, delimiter=",", skiprows=1).shape == (7 * 40, 3)


def test_oracle_check_zero_epsilon(tmp_path):
    doc = {
        "system": {"kind": "chain", "chain": {"n_sites": 3}},
        "scenario": {"site_a": 0, "site_b": 1, "omega": 2.0,
                     "opening": {"variant": "constant"}},
        "run": {"epsilons": [0.0, 0.01], "t_max": 1.0, "n_times": 4},
    }
    code, out = run_cli(tmp_path, "oracle-check", doc)
    assert code == 0
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    assert data[0, 1] == 0.0
    assert data[1, 1] > 0.0


# ------------------------------------------------------------- error paths

def test_schema_error_exit_code(tmp_path):
    bad = dict(FIG4)
    bad["run"] = {"n_times": 51}
    bad = json.loads(json.dumps(bad))
    bad["scenario"] = dict(bad["scenario"], site_b=100)
    code, _ = run_cli(tmp_path, "bare", bad)
    assert code == 2


def test_bad_json_reports_line(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "system": {,}\n}')
    code = cli.main(["bare", "--scenario", str(path), "--out", str(tmp_path / "o.csv")])
    assert code == 2
    assert "line 2" in capsys.readouterr().err


def test_unknown_scheme_rejected(tmp_path):
    doc = json.loads(json.dumps(FIG4))
    doc["scenario"]["opening"] = {"variant": "cos_sq_window", "window": 0.1}
    doc["run"] = {"mode": "trace", "schemes": ["sigma_y"], "n_times": 5}
    code, _ = run_cli(tmp_path, "dressed", doc)
    assert code == 2


def test_negative_cutoff_rejected(tmp_path):
    doc = {"system": {"kind": "trap", "trap": {"n_ions": 2}},
           "run": {"schmidt_cutoff": -3}}
    code, _ = run_cli(tmp_path, "ion2", doc)
    assert code == 2


def test_oversize_fock_request_rejected(tmp_path, capsys):
    doc = {
        "system": {"kind": "chain", "chain": {"n_sites": 3}},
        "scenario": {"site_a": 0, "site_b": 1, "omega": 2.0,
                     "opening": {"variant": "constant"}},
        "run": {"epsilons": [0.01], "t_max": 0.5, "n_times": 3, "cutoff": 200},
    }
    code, _ = run_cli(tmp_path, "oracle-check", doc)
    assert code == 2
    err = capsys.readouterr().err
    assert "run.cutoff" in err and "reduce the cutoff" in err


def test_oversize_static_solve_rejected_before_the_build(tmp_path, capsys, monkeypatch):
    # Fock dimension 21 824 passes the Fock size guard, but its dense
    # Hamiltonian alone would take 7.6 GB
    def refuse(*args, **kwargs):
        raise AssertionError("build_hamiltonian was called")

    monkeypatch.setattr(oracle, "build_hamiltonian", refuse)
    code, _ = run_cli(tmp_path, "oracle-check", _with(ORACLE, "run.cutoff", 30))
    assert code == 2
    err = capsys.readouterr().err
    assert "run.cutoff" in err and "reduce the cutoff" in err


def test_auto_cutoff_refusal_names_the_key_and_the_cutoff_reached(tmp_path, capsys,
                                                                  monkeypatch):
    # with room for dimension 100, a 4-mode chain passes cutoff 2 (dimension 60)
    # and is refused at cutoff 3 (dimension 140)
    monkeypatch.setattr(oracle, "DENSE_BYTES_LIMIT", 5 * 16 * 100**2)
    doc = _with(ORACLE, "system.chain.n_sites", 4)
    code, out = run_cli(tmp_path, "oracle-check", doc)
    assert code == 2
    err = capsys.readouterr().err
    assert "run.cutoff = 'auto'" in err
    assert "Fock dimension 140 at phonon cutoff 3" in err
    assert "rk4" not in err
    assert not out.exists()


@pytest.mark.parametrize("system, cutoff", [
    ({"kind": "trap", "trap": {"n_ions": cli.TRAP_IONS_LIMIT}}, "auto"),
    ({"kind": "chain", "chain": {"n_sites": cli.CHAIN_SITES_LIMIT}}, 3),
    ({"kind": "chain", "chain": {"n_sites": 3}}, 30),
], ids=["trap_fock_size", "chain_fock_size", "static_memory"])
def test_an_oversize_fock_space_is_refused_before_the_basis(tmp_path, monkeypatch, capsys,
                                                            system, cutoff):
    # the first cutoff's Fock dimension, 4 C(n_modes + cutoff, cutoff), and the
    # static path's dense memory need only the system's size: no basis is built
    def stop(doc):
        raise _Built

    monkeypatch.setattr(cli, "build_basis", stop)
    doc = _with({**ORACLE, "system": system}, "run.cutoff", cutoff)
    code, out = run_cli(tmp_path, "oracle-check", doc)
    assert code == 2
    err = capsys.readouterr().err
    assert f"run.cutoff = {cutoff!r}" in err and "reduce the cutoff" in err
    assert not out.exists()


def test_a_cutoff_of_thousands_of_digits_is_refused_by_key(tmp_path, capsys):
    doc = _with(_with(ORACLE, "system.chain.n_sites", 10**4), "run.cutoff", 10**4)
    code, _ = run_cli(tmp_path, "oracle-check", doc)
    assert code == 2
    assert "run.cutoff = 10000" in capsys.readouterr().err


def test_bare_needs_t_max_when_the_opening_never_closes(tmp_path, capsys):
    doc = _with(FIG4, "scenario.opening_b", {"variant": "constant"})
    code, out = run_cli(tmp_path, "bare", doc)
    assert code == 2
    assert "run.t_max is required when the opening never closes" in capsys.readouterr().err
    assert not out.exists()
    assert run_cli(tmp_path, "bare", _with(doc, "run.t_max", 0.1))[0] == 0


def test_bare_window_ends_at_the_later_opening(tmp_path):
    late = {"variant": "sin_sq_window", "window": 0.2}
    code, out = run_cli(tmp_path, "bare", _with(FIG4, "scenario.opening_b", late))
    assert code == 0
    assert float(out.read_text().splitlines()[-1].split(",")[0]) == 0.2


def test_empty_tau_grid_rejected(tmp_path):
    doc = {"system": {"kind": "chain", "chain": {"n_sites": 20}},
           "scenario": {"site_a": 0, "site_b": 5},
           "run": {"mode": "tau_scan", "n_samples": 1}}
    code, _ = run_cli(tmp_path, "causality", doc)
    assert code == 2


def test_missing_system_rejected(tmp_path):
    path = write_scenario(tmp_path, {"scenario": {}})
    code = cli.main(["bare", "--scenario", str(path), "--out", str(tmp_path / "o.csv")])
    assert code == 2


def test_exactly_one_system_section(tmp_path, capsys):
    doc = {"system": {"kind": "chain",
                      "chain": {"n_sites": 10},
                      "trap": {"n_ions": 2}},
           "scenario": {"site_a": 0, "site_b": 3}}
    code, _ = run_cli(tmp_path, "causality", doc)
    assert code == 2


def test_numerical_failure_exit_code(tmp_path, monkeypatch):
    from fermi_lattice.errors import NumericalFailureError

    def boom(doc, out, report):
        raise NumericalFailureError("synthetic divergence")

    monkeypatch.setitem(cli._COMMANDS, "bare", boom)
    code, _ = run_cli(tmp_path, "bare", FIG4)
    assert code == 3


def test_seventeen_digit_format(tmp_path):
    code, out = run_cli(tmp_path, "bare", FIG4)
    probability_cell = out.read_text().splitlines()[-1].split(",")[-1]
    assert len(probability_cell.split("e")[0].replace(".", "").replace("-", "")) >= 15


# ------------------------------------------------------------- fail-closed inputs and results

@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_json_constant_rejected(tmp_path, capsys, constant):
    text = json.dumps(FIG4).replace('"epsilon": 1.0', f'"epsilon": {constant}')
    assert constant in text
    path = tmp_path / "scenario.json"
    path.write_text(text)
    out = tmp_path / "o.csv"
    code = cli.main(["bare", "--scenario", str(path), "--out", str(out), "--quiet"])
    assert code == 2
    assert constant in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value, message", [("abc", "abc"), ("nan", "epsilon")])
def test_bad_epsilon_string_rejected(tmp_path, capsys, value, message):
    doc = json.loads(json.dumps(FIG4))
    doc["scenario"]["epsilon"] = value
    code, out = run_cli(tmp_path, "bare", doc)
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_unknown_oracle_method_rejected(tmp_path, capsys):
    doc = {
        "system": {"kind": "chain", "chain": {"n_sites": 3}},
        "scenario": {"site_a": 0, "site_b": 1, "omega": 2.0,
                     "opening": {"variant": "constant"}},
        "run": {"epsilons": [0.01], "t_max": 0.5, "n_times": 3, "method": "rk5"},
    }
    code, _ = run_cli(tmp_path, "oracle-check", doc)
    assert code == 2
    assert "rk5" in capsys.readouterr().err


@pytest.mark.parametrize("section", ["system", "scenario", "run"])
def test_non_object_section_rejected(tmp_path, capsys, section):
    doc = json.loads(json.dumps(FIG4))
    doc[section] = [1]
    code, _ = run_cli(tmp_path, "bare", doc)
    assert code == 2
    assert f"{section} must be a JSON object" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_infinite_result_exit_code(tmp_path, capsys):
    doc = json.loads(json.dumps(FIG4))
    doc["scenario"]["epsilon"] = 1e150
    code, out = run_cli(tmp_path, "bare", doc)
    assert code == 3
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


def test_overflow_exit_code(tmp_path):
    doc = json.loads(json.dumps(FIG4))
    doc["scenario"]["epsilon"] = 1e200
    code, out = run_cli(tmp_path, "bare", doc)
    assert code == 3
    assert not out.exists()


def test_write_csv_cells_read_as_format_17g(tmp_path):
    rows = [(0, -0.0, 5e-324), (1.7976931348623157e308, -7, 0.1),
            (np.float64(1 / 3), np.int64(12), 10**20)]
    out = cli.write_csv(tmp_path / "o.csv", ["a", "b", "c"], list(zip(*rows)))
    want = "".join(",".join(format(float(v), ".17g") for v in row) + "\n" for row in rows)
    assert out.read_text() == "a,b,c\n" + want
    assert want.splitlines()[0] == "0,-0,4.9406564584124654e-324"


def test_write_csv_column_of_repeats_matches_per_row_format(tmp_path, monkeypatch):
    # repeated values take their text from the table of distinct ones, beside
    # a column of distinct values; 35 rows in blocks of 8
    monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", 8)
    t = np.repeat(np.linspace(0.0, 0.1, 7), 5)
    n = np.tile(np.arange(5), 7)
    d = np.tile([1 / 3, 0.1, 1 / 3, 2e-300, 0.1], 7) * np.repeat(np.arange(7), 5)
    x = np.arange(35) / 7
    out = cli.write_csv(tmp_path / "o.csv", ["t", "n", "d_n", "x"], [t, n, d, x])
    want = "".join("%.17g,%.17g,%.17g,%.17g\n" % row
                   for row in zip(t.tolist(), n.tolist(), d.tolist(), x.tolist()))
    assert out.read_bytes() == ("t,n,d_n,x\n" + want).encode()


def test_write_csv_keeps_the_sign_of_zero(tmp_path):
    out = cli.write_csv(tmp_path / "o.csv", ["x", "y"],
                        [[0.0, -0.0, 0.0, -0.0, 1.0], [-0.0, -0.0, 0.0, 0.0, 0.0]])
    assert out.read_text().splitlines()[1:] == ["0,-0", "-0,-0", "0,0", "-0,0", "1,0"]


def test_write_csv_of_no_rows_writes_the_header(tmp_path):
    out = cli.write_csv(tmp_path / "o.csv", ["t", "p1"], [np.empty(0), []])
    assert out.read_text() == "t,p1\n"


def per_cell_text(header, columns) -> bytes:
    """The reference CSV: each cell's own "%.17g" text, joined by ',' and newlines."""
    rows = zip(*(np.asarray(c, dtype=float).tolist() for c in columns))
    return (",".join(header) + "\n" + "".join(",".join("%.17g" % v for v in row) + "\n"
                                            for row in rows)).encode()


def test_write_csv_is_the_same_at_every_block_edge(tmp_path, monkeypatch):
    # a column of few distinct values (encoded once each) whose run of 1e-5
    # repeats crosses block edges, beside distinct values in both notations
    t = np.array([0.0, 0.0, -0.0, 1e-5, 1e-5, 1e-5, 1e-5, -0.0, 2.5e20, 0.0, 1e-5, 1e-5, 0.0])
    x = np.array([1 / 3, -0.0, 0.0, 1e-300, 1.2345678901234567e22, -2.5e-5, 1e16, 1e17,
                  12.5, -7.0, 5e-324, 0.1, 2**53])
    y = -np.arange(13) / 7
    header = ["t", "x", "y"]
    assert np.unique(t).size * 2 < t.size  # t takes the table of distinct values
    want = cli.write_csv(tmp_path / "default.csv", header, [t, x, y]).read_bytes()
    assert want == per_cell_text(header, [t, x, y])
    for rows in (1, 2, 3):
        monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", rows)
        assert cli.write_csv(tmp_path / f"{rows}.csv", header, [t, x, y]).read_bytes() == want


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                          st.floats(allow_nan=False, allow_infinity=False, width=32)),
                min_size=1, max_size=40))
def test_write_csv_equals_per_cell_format_on_any_floats(tmp_path_factory, rows):
    columns = list(zip(*rows))
    path = tmp_path_factory.mktemp("csv") / "o.csv"
    assert cli.write_csv(path, ["a", "b"], columns).read_bytes() == per_cell_text(["a", "b"],
                                                                                 columns)


def _edge_values(rng, n):
    """n values from each class where a shortcut in the digits could go wrong."""
    tens = 10.0 ** np.arange(-323, 309)
    classes = [
        rng.uniform(-1.0, 1.0, n),
        np.exp(rng.uniform(np.log(1e-320), np.log(1e308), n)) * rng.choice([-1, 1], n),
        rng.integers(0, 2**64, n, dtype=np.uint64).view(float),  # any bit pattern
        rng.integers(-2**62, 2**62, n).astype(float),
        rng.integers(0, 2**52, n, dtype=np.uint64).view(float),  # subnormals
        np.resize(np.concatenate([tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf),
                                  [0.0, -0.0, 5e-324, 2.2250738585072014e-308]]), n),
    ]
    values = np.concatenate(classes)
    values[~np.isfinite(values)] = 0.5
    return rng.permutation(values)


def test_write_csv_equals_per_cell_format_over_a_million_values(tmp_path):
    values = _edge_values(np.random.default_rng(20261020), 170_000)
    assert values.size >= 10**6
    columns = list(values.reshape(4, -1))
    # three quarters of one column from a few values, so that it is encoded through its table
    head = columns[3].size * 3 // 4
    columns[3][:head] = np.resize([-0.0, 0.0, 1e-5, 2.5e300, -1.0], head)
    assert np.unique(columns[3]).size * 2 < columns[3].size
    header = ["a", "b", "c", "d"]
    got = cli.write_csv(tmp_path / "o.csv", header, columns).read_bytes().split(b"\n")
    want = per_cell_text(header, columns).split(b"\n")
    assert len(got) == len(want)
    assert [(i, g, w) for i, (g, w) in enumerate(zip(got, want)) if g != w] == []


def test_non_finite_row_exits_3_naming_the_data_row(tmp_path, monkeypatch, capsys):
    def nan_in_row_3(doc, out, report):
        return [cli.write_csv(out, ["x"], [[0.0, 1.0, float("nan")]])]

    monkeypatch.setitem(cli._COMMANDS, "bare", nan_in_row_3)
    code, out = run_cli(tmp_path, "bare", FIG4)
    assert code == 3
    assert "non-finite value in data row 3" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_write_csv_refuses_non_finite_cells(tmp_path, bad):
    out = tmp_path / "o.csv"
    with pytest.raises(NumericalFailureError, match="row 2"):
        cli.write_csv(out, ["x", "y"], [[0.0, 1.0], [1.0, bad]])
    assert not out.exists()


def test_write_csv_names_the_row_of_a_nan_among_repeats(tmp_path):
    out = tmp_path / "o.csv"
    column = np.tile([0.5, 0.25], 4)
    column[5] = np.nan
    with pytest.raises(NumericalFailureError, match="data row 6$"):
        cli.write_csv(out, ["t", "d"], [np.zeros(8), column])
    assert not out.exists()


# ------------------------------------------------------------- the scenario schema

ORACLE = {
    "system": {"kind": "chain", "chain": {"n_sites": 3}},
    "scenario": {"site_a": 0, "site_b": 1, "omega": 2.0, "opening": {"variant": "constant"}},
    "run": {"epsilons": [0.01], "t_max": 0.5, "n_times": 3},
}
DRESSED = {**FIG4, "run": {"mode": "trace", "n_times": 5}}
ION2 = {"system": {"kind": "trap", "trap": {"n_ions": 2}}, "run": {"alpha_num": 5}}
R_SCAN = {"system": {"kind": "chain", "chain": {"n_sites": 10}},
          "scenario": {"site_a": 0, "site_b": 3}, "run": {"mode": "r_scan", "tau": 0.3}}
TAU_SCAN = {"system": {"kind": "chain", "chain": {"n_sites": 20}},
            "scenario": {"site_a": 0, "site_b": 5}, "run": {"tau_max": 0.5, "n_samples": 200}}
# a chain of 2 sites refuses this length (alpha < 0); one of 20 takes it
SWEEP = {"system": {"kind": "chain", "chain": {"n_sites": 20, "length": 3.0}},
         "scenario": {"site_a": 0, "site_b": 5},
         "run": {"tau_max": 0.5, "n_samples": 200, "n_values": [20]}}
G_SCAN = {**FIG4, "run": {"mode": "g_scan", "r_values": [0, 1]}}
CLOUD_AT_TIMES = {**FIG4, "run": {"t_values": [0.0, 0.05]}}
GMIN_SCAN = {**FIG4, "run": {"mode": "gmin_scan", "n_values": [10, 12]}}
TRAP_TRACE = {"system": {"kind": "trap", "trap": {"n_ions": 3}},
              "scenario": {"site_a": 0, "site_b": 2, "omega": 2.0}, "run": {"n_times": 5}}


def _with(doc, path, value):
    """A deep copy of doc with the key at the dotted path set to value."""
    doc = json.loads(json.dumps(doc))
    *parents, last = path.split(".")
    node = doc
    for key in parents:
        node = node[key]
    node[last] = value
    return doc


BAD_INPUTS = [
    ("bare", FIG4, "runs", {}),
    ("bare", FIG4, "system.chain.lenght", 1.0),
    ("bare", FIG4, "scenario.epsilom", 0.5),
    ("bare", FIG4, "scenario.opening.windw", 0.1),
    ("bare", FIG4, "run.n_time", 5),
    ("bare", FIG4, "scenario.site_b", 31.9),
    ("bare", FIG4, "system.chain.n_sites", 100.7),
    ("bare", FIG4, "scenario.epsilon", True),
    ("bare", FIG4, "scenario.epsilon", "0.5"),
    ("ion2", ION2, "run.alpha_num", 0),
    ("ion2", ION2, "scenario", {}),
    ("oracle-check", ORACLE, "run.epsilons", []),
    ("dressed", DRESSED, "run.n_times", 0),
    ("dressed", DRESSED, "run.schemes", []),
    ("cloud", FIG4, "run.n_times", 0),
    ("cloud", CLOUD_AT_TIMES, "run.t_max", 7.0),
    ("cloud", CLOUD_AT_TIMES, "run.n_times", 7),
    ("oracle-check", ORACLE, "run.n_times", 0),
    ("oracle-check", ORACLE, "run.method", "static"),
    ("oracle-check", ORACLE, "run.method", "rk4"),
    ("oracle-check", ORACLE, "run.t_max", 5e-324),
    ("causality", R_SCAN, "run.r_values", "al"),
    ("causality", TAU_SCAN, "run.separation_fraction", 0.5),
    ("ion2", ION2, "system.trap.n_ions", 3),
    ("dressed", DRESSED, "scenario.omega_b", 3.0),
    ("dressed", DRESSED, "scenario.omega", -1.0),
    # the scans check the splittings as the trace does, before any sum
    ("dressed", _with(G_SCAN, "scenario.omega_b", 3.0), "scenario.omega_a", 2.0),
    ("dressed", G_SCAN, "scenario.omega", 0.0),
    ("dressed", _with(G_SCAN, "scenario.omega_b", -1.0), "scenario.omega_a", -1.0),
    ("dressed", GMIN_SCAN, "scenario.omega_a", 3.0),
    ("dressed", GMIN_SCAN, "scenario.omega", -1.0000000000000002),
    ("cloud", FIG4, "scenario.omega_a", 3.0),
    ("cloud", FIG4, "scenario.omega", 0.0),
    ("cloud", FIG4, "scenario.opening_b", {"variant": "cos_sq_window", "window": 0.1}),
    ("dressed", {**TRAP_TRACE, "run": {}}, "run.mode", "g_scan"),
    ("dressed", {**TRAP_TRACE, "run": {"n_values": [10]}}, "run.mode", "gmin_scan"),
    ("dressed", GMIN_SCAN, "run.n_values", [10, 11]),
    ("causality", SWEEP, "run.n_values", [20, 2]),
    ("causality", _with(SWEEP, "system.chain.length", 1.0), "run.n_values", [94_906_266]),
    ("bare", FIG4, "system.chain", {"n_sites": 94_906_266}),
    ("causality", R_SCAN, "run.r_values", [1, 2**53]),
    ("dressed", G_SCAN, "run.r_values", [-2**53]),
    ("dressed", G_SCAN, "run.r_values", [10**16 + 1]),
    # integers beyond float range are refused by the schema, not by float()
    ("bare", FIG4, "run.n_times", 10**400),
    ("bare", FIG4, "system.chain.n_sites", 10**400),
    ("bare", FIG4, "scenario.epsilon", -10**400),
    # past Python's 4300-digit limit for int(str), read as an infinite float
    ("bare", FIG4, "system.chain.n_sites", 5 * 10**5000),
    # alpha rounds to 1 at n_sites >= 94 906 L (nu = c = 1), under the chain bound
    ("bare", FIG4, "system.chain", {"n_sites": 10**5, "length": 1e-3}),
]


with unlimited_int_digits():
    BAD_IDS = [f"{case[0]}:{case[2]}={reprlib.repr(case[3])}" for case in BAD_INPUTS]


@pytest.mark.parametrize("command, doc, path, value", BAD_INPUTS, ids=BAD_IDS)
def test_bad_key_or_value_names_the_key(tmp_path, capsys, command, doc, path, value):
    code, out = run_cli(tmp_path, command, _with(doc, path, value))
    assert code == 2
    assert path in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_a_cloud_without_times_takes_26_of_them(tmp_path):
    code, out = run_cli(tmp_path, "cloud", {**FIG4, "run": {}})
    assert code == 0
    assert len(out.read_text().splitlines()) == 1 + 26 * 100


def test_ring_scans_take_offsets_just_below_2_to_the_53(tmp_path):
    big = 2**53 - 1
    for command, doc in (("causality", R_SCAN), ("dressed", G_SCAN)):
        code, out = run_cli(tmp_path, command, _with(doc, "run.r_values", [big, -big]))
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [int(r) for r, _ in rows] == [big, -big]


class _Built(Exception):
    """Raised in place of the system build, once the size guards have passed."""


# command, base scenario, key, the largest value the guard takes, a value it refuses
OVERSIZE = [
    ("bare", FIG4, "run.n_times", cli.COUNT_LIMIT, 2 * 10**9),
    ("dressed", DRESSED, "run.n_times", cli.COUNT_LIMIT, 2 * 10**9),
    ("oracle-check", ORACLE, "run.n_times", cli.COUNT_LIMIT, 2 * 10**9),
    ("causality", TAU_SCAN, "run.n_samples", cli.COUNT_LIMIT, 2 * 10**9),
    ("ion2", ION2, "run.alpha_num", cli.COUNT_LIMIT, 3 * 10**9),
    # a run.t_max, as the constant opening never closes and that refusal comes first
    ("bare", _with(TRAP_TRACE, "run.t_max", 1.0), "system.trap.n_ions", cli.TRAP_IONS_LIMIT,
     10**5),
    # the cloud's times x sites: 100 sites here, then 2 sites
    ("cloud", FIG4, "run.n_times", cli.CLOUD_ELEMENT_LIMIT // 100, 10**6),
    ("cloud", CLOUD_AT_TIMES, "run.t_values", [0.0] * (cli.CLOUD_ELEMENT_LIMIT // 100),
     [0.0] * (cli.CLOUD_ELEMENT_LIMIT // 100 + 1)),
    ("cloud", _with(_with(FIG4, "system.chain.n_sites", 2), "scenario.site_b", 1),
     "run.n_times", cli.COUNT_LIMIT, cli.COUNT_LIMIT + 1),
    # a g_scan's offsets, each within +-R_LIMIT; their count is free, as the
    # scan is one transform over the ring
    ("dressed", G_SCAN, "run.r_values", [cli.R_LIMIT, -cli.R_LIMIT], [0, cli.R_LIMIT + 1]),
]


@pytest.mark.parametrize("command, doc, key, largest, refused", [
    pytest.param(*case, id=f"{case[0]}:{case[2]}") for case in OVERSIZE])
def test_counts_over_their_limit_exit_2_before_the_build(tmp_path, monkeypatch, capsys,
                                                         command, doc, key, largest,
                                                         refused):
    def stop(doc):
        raise _Built

    # a guard that let an oversize count through stops here, before any grid
    monkeypatch.setattr(cli, "build_basis", stop)
    with pytest.raises(_Built):
        run_cli(tmp_path, command, _with(doc, key, largest))
    code, _ = run_cli(tmp_path, command, _with(doc, key, refused))
    assert code == 2
    assert key in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("command", ["bare", "dressed", "cloud"])
def test_an_opening_that_never_closes_needs_t_max_before_the_build(tmp_path, monkeypatch,
                                                                   capsys, command):
    def stop(doc):
        raise _Built

    # the largest trap, whose build takes seconds; its constant opening gives no window end
    monkeypatch.setattr(cli, "build_basis", stop)
    doc = _with(TRAP_TRACE, "system.trap.n_ions", cli.TRAP_IONS_LIMIT)
    code, _ = run_cli(tmp_path, command, doc)
    assert code == 2
    assert "run.t_max" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


# command, base scenario, key, the largest chain size it takes, one it refuses
CHAIN_SIZES = [
    ("bare", FIG4, "system.chain.n_sites", cli.CHAIN_SITES_LIMIT, cli.CHAIN_SITES_LIMIT + 1),
    ("causality", SWEEP, "run.n_values", [cli.CHAIN_SITES_LIMIT],
     [20, cli.CHAIN_SITES_LIMIT + 2]),
    ("dressed", GMIN_SCAN, "run.n_values", [10, cli.CHAIN_SITES_LIMIT],
     [cli.CHAIN_SITES_LIMIT + 2]),
]


@pytest.mark.parametrize("command, doc, key, largest, refused", [
    pytest.param(*case, id=f"{case[0]}:{case[2]}") for case in CHAIN_SIZES])
def test_chain_sizes_over_their_limit_exit_2_before_the_build(tmp_path, monkeypatch, capsys,
                                                              command, doc, key, largest,
                                                              refused):
    def spy(params):
        # the base scenario's own small chain builds; the largest one stops here
        if params.n_sites == cli.CHAIN_SITES_LIMIT:
            raise _Built
        assert params.n_sites < 1000
        return build_harmonic_chain(params)

    monkeypatch.setattr(cli, "build_harmonic_chain", spy)
    monkeypatch.setattr(dressing, "build_harmonic_chain", spy)  # g_min's chains
    # a causality sweep's work guard, planned from the chain parameters, would
    # refuse the largest chain before its build; lifted, the chain reaches it
    monkeypatch.setattr(cli, "SWEEP_ELEMENT_LIMIT", 2**63)
    with pytest.raises(_Built):
        run_cli(tmp_path, command, _with(doc, key, largest))
    code, _ = run_cli(tmp_path, command, _with(doc, key, refused))
    assert code == 2
    assert key in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_every_benchmark_config_stays_far_below_the_count_limits(tmp_path):
    # the figures, continuum and oracle workloads' CLI runs, each count at most
    # a tenth of its limit (largest: 2000 samples, 401 times, 301 alphas and a
    # 26 x 2000 cloud)
    from test_benchmark_contract import load

    scenarios = load("scenarios")
    ops = [op for workload in ("figures", "continuum", "oracle")
           for op in scenarios.generate(workload, 0, tmp_path / workload) if op.is_cli]
    assert len(ops) == 12 + 4 + 2
    for op in ops:
        doc = cli.apply_schema(json.loads(op.scenario.read_text()), op.command)
        run, system = doc["run"], doc["system"]
        for key in ("n_times", "n_samples", "alpha_num"):
            assert 10 * run.get(key, 0) <= cli.COUNT_LIMIT, op.name
        if system["kind"] == "trap":
            assert 10 * system["trap"]["n_ions"] <= cli.TRAP_IONS_LIMIT, op.name
        else:
            for n in [system["chain"]["n_sites"], *(run.get("n_values") or [])]:
                assert 10 * n <= cli.CHAIN_SITES_LIMIT, op.name
        if op.command == "cloud":
            n_times = len(run["t_values"]) if run["t_values"] else run["n_times"]
            assert 10 * n_times * system["chain"]["n_sites"] <= cli.CLOUD_ELEMENT_LIMIT, op.name


def test_ion2_schmidt_cutoff_above_two_keeps_every_schmidt_pair(tmp_path):
    thermal = symplectic_temperature(1.0, np.sqrt(3.0))
    alphas = np.linspace(0.0, 3.0, 5)
    rows = {}
    for cutoff, swap in ((2, swap_probability), (12, swap_probability_full)):
        code, out = run_cli(tmp_path, "ion2", _with(ION2, "run.schmidt_cutoff", cutoff),
                            out_name=f"cutoff{cutoff}.csv")
        assert code == 0
        want = tmp_path / f"want{cutoff}.csv"
        cli.write_csv(want, ["alpha", "probability"],
                      [alphas, [swap(PulseSpec(a, a), thermal)[1] for a in alphas]])
        assert out.read_bytes() == want.read_bytes()
        rows[cutoff] = np.loadtxt(out, delimiter=",", skiprows=1)
    # the two differ by the higher Schmidt pairs, of relative order e^{-2 beta}
    assert 0 < abs(rows[12][2, 1] / rows[2][2, 1] - 1) < 0.1


def test_ion2_scans_pulse_areas_whose_square_overflows(tmp_path):
    # alpha^2 is inf past about 1.3e154; the swap there is 0 in both forms
    doc = _with(ION2, "run.alpha_stop", 1e200)
    for cutoff in (2, 3):
        code, out = run_cli(tmp_path, "ion2", _with(doc, "run.schmidt_cutoff", cutoff))
        assert code == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert np.all(rows[:, 1] == 0.0)
        assert json.loads(out.with_suffix(".manifest.json").read_text())["warnings"] == []


def test_the_cli_imports_no_scipy_special():
    # scipy.sparse still loads through the oracle
    src = str(Path(fermi_lattice.__file__).resolve().parent.parent)
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import fermi_lattice.cli; "
             "print(sorted(m for m in sys.modules if m.startswith('scipy.special')))")
    done = subprocess.run([sys.executable, "-c", probe, src], capture_output=True, text=True,
                          check=True)
    assert done.stdout.strip() == "[]"


def test_ion2_rejects_the_ion_count_before_building_a_trap(tmp_path, monkeypatch):
    def refuse(params):
        raise AssertionError("ion2 built a trap it then rejected")

    monkeypatch.setattr(cli, "build_ion_trap", refuse)
    code, _ = run_cli(tmp_path, "ion2", _with(ION2, "system.trap.n_ions", 3))
    assert code == 2


def test_opening_is_the_default_of_each_site_opening(tmp_path):
    window = {"variant": "sin_sq_window", "window": 0.1}
    other = {"variant": "cos_sq_window", "window": 0.05}
    both = _with(FIG4, "scenario.opening_a", other)
    split = _with(_with(_with(FIG4, "scenario.opening_a", other), "scenario.opening_b", window),
                  "scenario.opening", {"variant": "constant"})
    assert run_cli(tmp_path, "bare", both, "both.csv")[0] == 0
    assert run_cli(tmp_path, "bare", split, "split.csv")[0] == 0
    assert run_cli(tmp_path, "bare", FIG4, "plain.csv")[0] == 0
    assert (tmp_path / "both.csv").read_bytes() == (tmp_path / "split.csv").read_bytes()
    assert (tmp_path / "both.csv").read_bytes() != (tmp_path / "plain.csv").read_bytes()


def test_manifest_is_strict_json(tmp_path):
    code, out = run_cli(tmp_path, "oracle-check", _with(ORACLE, "run.epsilons", [0.0, 0.01]))
    assert code == 0

    def refuse(name):
        raise ValueError(f"{name} in the manifest")

    manifest = json.loads(out.with_suffix(".manifest.json").read_text(), parse_constant=refuse)
    assert manifest["summary"]["fitted_slope"] is None


@pytest.mark.parametrize("n_samples, widened_calls", [(2000, 0), (150, 1)])
def test_causality_reuses_the_trace_for_the_rise(tmp_path, monkeypatch, n_samples,
                                                 widened_calls):
    calls = []

    def counted(*args):
        calls.append(args)
        return lightcone_estimate(*args)

    monkeypatch.setattr(cli, "lightcone_estimate", counted)
    doc = {"system": {"kind": "chain", "chain": {"n_sites": 100}},
           "scenario": {"site_a": 0, "site_b": 31},
           "run": {"tau_max": 1.0, "n_samples": n_samples}}
    code, out = run_cli(tmp_path, "causality", doc)
    assert code == 0
    assert len(calls) == widened_calls
    want = lightcone_estimate(build_harmonic_chain(ChainParams(100)), 0, 31, 1.0,
                              max(n_samples, 100))
    summary = json.loads(out.with_suffix(".manifest.json").read_text())["summary"]
    assert summary == {"lightcone.rise_time": want.rise_time,
                       "lightcone.nominal_causal_time": want.nominal_causal_time,
                       "lightcone.sharpness": want.sharpness}


class _SumsStarted(Exception):
    """Raised in place of the first mode sum, once the work guard has passed."""


def _stop_at_the_sums(monkeypatch):
    def stop(*args):
        raise _SumsStarted
    monkeypatch.setattr(cli, "causality_trace", stop)


def test_causality_work_guard_exits_2_before_any_mode_sum(tmp_path, monkeypatch, capsys):
    _stop_at_the_sums(monkeypatch)
    sweep = json.loads((FIGURES / "fig1.json").read_text())
    sweep["run"]["n_values"] = [100, 300, 10**6]
    single = {"system": {"kind": "chain", "chain": {"n_sites": 10**6}},
              "scenario": {"site_a": 0, "site_b": 300_000}, "run": {"tau_max": 0.6}}
    for doc, key in ((sweep, "run.n_values"), (single, "run.n_samples")):
        started = time.perf_counter()
        code, _ = run_cli(tmp_path, "causality", doc)
        assert time.perf_counter() - started < 1.0
        assert code == 2
        assert key in capsys.readouterr().err


@pytest.mark.parametrize("limit", [SWEEP_ELEMENT_LIMIT, 1000], ids=["accepted", "refused"])
def test_a_causality_sweep_holds_one_chain_at_a_time(tmp_path, monkeypatch, capsys, limit):
    built = []

    def spy(params):
        # the sweep builds no system chain, and every sweep chain must be gone
        # before the next one is built
        alive = [ref().n_sites for ref in built if ref() is not None]
        assert not alive, f"sweep chains of {alive} sites alive at a new build"
        chain = build_harmonic_chain(params)
        built.append(weakref.ref(chain))
        return chain

    monkeypatch.setattr(cli, "build_harmonic_chain", spy)
    monkeypatch.setattr(cli, "SWEEP_ELEMENT_LIMIT", limit)
    doc = _with(json.loads((FIGURES / "fig1.json").read_text()), "run.n_values", [40, 60, 80])
    code, _ = run_cli(tmp_path, "causality", _with(doc, "run.n_samples", 200))
    # the sweep is planned from its chains' parameters: each chain is built
    # once, to sum, and a refused sweep builds none
    if limit == SWEEP_ELEMENT_LIMIT:
        assert code == 0 and len(built) == 3
    else:
        assert code == 2 and "run.n_values" in capsys.readouterr().err
        assert not built
        assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("limit", [SWEEP_ELEMENT_LIMIT, 1000], ids=["accepted", "refused"])
def test_a_single_chain_tau_scan_is_planned_before_its_build(tmp_path, monkeypatch, capsys,
                                                             limit):
    built = []
    monkeypatch.setattr(cli, "build_harmonic_chain", lambda params: built.append(params.n_sites)
                        or build_harmonic_chain(params))
    monkeypatch.setattr(cli, "SWEEP_ELEMENT_LIMIT", limit)
    doc = {"system": {"kind": "chain", "chain": {"n_sites": 40}},
           "scenario": {"site_a": 0, "site_b": 12}, "run": {"tau_max": 0.6, "n_samples": 200}}
    code, _ = run_cli(tmp_path, "causality", doc)
    # the chain is planned from its parameters: built once, to sum, and not at all
    # when the run is refused
    if limit == SWEEP_ELEMENT_LIMIT:
        assert code == 0 and built == [40]
    else:
        assert code == 2 and "run.n_samples" in capsys.readouterr().err
        assert not built
        assert not list(tmp_path.glob("*.csv"))


def test_a_causality_sweep_refuses_a_repeated_chain_size(tmp_path, monkeypatch, capsys):
    # each size writes out_n<N>.csv and its summary keys, so a repeat is refused
    # before any chain is built
    def stop(params):
        raise _Built

    monkeypatch.setattr(cli, "build_harmonic_chain", stop)
    code, _ = run_cli(tmp_path, "causality", _with(SWEEP, "run.n_values", [20, 100, 20]))
    assert code == 2
    assert "run.n_values" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


# the largest trap the schema takes; each command's base run below reaches its build
TRAP_AT_LIMIT = {"system": {"kind": "trap", "trap": {"n_ions": cli.TRAP_IONS_LIMIT}},
                 "scenario": {"site_a": 0, "site_b": 1, "omega": 2.0,
                              "opening": {"variant": "sin_sq_window", "window": 0.1}}}
# the largest trap the oracle takes at its first phonon cutoff, 2: 4 C(1000, 2) =
# 1 998 000 states.  A larger one is refused from the file, before its build
ORACLE_IONS = 998
# command, its run section, the refused key and its value
REFUSED_SCENARIOS = [
    ("bare", {}, "scenario.site_b", cli.TRAP_IONS_LIMIT),
    ("dressed", {"n_times": 5}, "scenario.site_a", cli.TRAP_IONS_LIMIT + 7),
    ("dressed", {"n_times": 5}, "scenario.omega_b", 2.5),
    ("dressed", {"n_times": 5}, "scenario.opening_b", {"variant": "cos_sq_window", "window": 0.1}),
    ("cloud", {}, "scenario.omega_b", 2.5),
    ("cloud", {}, "scenario.opening_b", {"variant": "cos_sq_window", "window": 0.1}),
    ("oracle-check", {"epsilons": [0.01], "t_max": 0.5, "n_times": 3}, "scenario.site_a",
     ORACLE_IONS),
    ("causality", {"tau_max": 0.5, "n_samples": 200}, "scenario.site_b", cli.TRAP_IONS_LIMIT),
]


@pytest.mark.parametrize("command, run, key, value", [
    pytest.param(*case, id=f"{case[0]}:{case[2]}") for case in REFUSED_SCENARIOS])
def test_a_refused_scenario_exits_2_before_the_basis(tmp_path, monkeypatch, capsys,
                                                     command, run, key, value):
    def stop(doc):
        raise _Built

    # a trap at the size limit takes seconds to build, so a scenario the
    # command refuses is refused from the file alone
    monkeypatch.setattr(cli, "build_basis", stop)
    doc = {**TRAP_AT_LIMIT, "run": run}
    if command == "oracle-check":
        doc = _with(doc, "system.trap.n_ions", ORACLE_IONS)
    with pytest.raises(_Built):
        run_cli(tmp_path, command, doc)
    code, _ = run_cli(tmp_path, command, _with(doc, key, value))
    assert code == 2
    assert key in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_a_g_scan_over_the_work_guard_exits_2_before_the_build(tmp_path, monkeypatch, capsys):
    def stop(doc):
        raise _Built

    # a g_scan's work is one transform over the ring, so the chain's size is
    # its guard: fig5 on the largest chain reaches the build, one site more
    # is refused before it
    monkeypatch.setattr(cli, "build_basis", stop)
    doc = json.loads((FIGURES / "fig5.json").read_text())
    with pytest.raises(_Built):
        run_cli(tmp_path, "dressed", _with(doc, "system.chain.n_sites", cli.CHAIN_SITES_LIMIT))
    code, _ = run_cli(tmp_path, "dressed",
                      _with(doc, "system.chain.n_sites", cli.CHAIN_SITES_LIMIT + 1))
    assert code == 2
    assert "system.chain.n_sites" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_a_g_scan_over_half_a_large_ring_is_one_transform(tmp_path):
    from test_dressing import _g_reference

    # fig5 on 10**5 sites: 50 001 offsets, 5e9 (offset, site) pairs, from
    # one synthesis over the ring
    doc = _with(json.loads((FIGURES / "fig5.json").read_text()), "system.chain.n_sites", 10**5)
    code, out = run_cli(tmp_path, "dressed", doc)
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 50_001
    basis = build_harmonic_chain(ChainParams(10**5))
    for r in (0, 1, 14_285, 25_000, 50_000):
        row_r, g = lines[1 + r].split(",")
        assert int(row_r) == r
        want = _g_reference(basis, 2.0, r)
        assert abs(float(g) - want) <= 2e-15 * abs(want)


def test_causality_configs_stay_well_under_the_work_guard(tmp_path, monkeypatch, capsys):
    _stop_at_the_sums(monkeypatch)
    # the continuum benchmark's largest sweep point: a 2000-sample trace and
    # the 7641-sample widened grid, each over 1001 distinct frequencies
    doc = {"system": {"kind": "chain", "chain": {"n_sites": 2000}},
           "scenario": {"site_a": 0, "site_b": 1},
           "run": {"mode": "tau_scan", "n_values": [2000], "separation_fraction": 0.3,
                   "tau_max": 0.6, "n_samples": 2000}}
    basis = build_harmonic_chain(ChainParams(2000))
    widened = resolved_samples(float(np.max(basis.frequencies)), 0.6, 2000)
    elements = (2000 + widened) * basis.distinct_frequencies.size
    assert 9e6 < elements < SWEEP_ELEMENT_LIMIT / 100
    monkeypatch.setattr(cli, "SWEEP_ELEMENT_LIMIT", elements - 1)
    assert run_cli(tmp_path, "causality", doc)[0] == 2
    assert "run.n_values" in capsys.readouterr().err
    monkeypatch.setattr(cli, "SWEEP_ELEMENT_LIMIT", elements)
    with pytest.raises(_SumsStarted):
        run_cli(tmp_path, "causality", doc)

    # the whole continuum sweep and every tau-scan figure config, at 1% of the budget
    monkeypatch.setattr(cli, "SWEEP_ELEMENT_LIMIT", SWEEP_ELEMENT_LIMIT // 100)
    doc["run"]["n_values"] = [500, 1000, 2000]
    configs = [json.loads(p.read_text()) for p in sorted(FIGURES.glob("*.json"))]
    scans = [c for c in configs if c["run"].get("mode") == "tau_scan"]
    assert len(scans) == 2  # fig1 and fig2
    for config in [doc, *scans]:
        with pytest.raises(_SumsStarted):
            run_cli(tmp_path, "causality", config)


def _table_words(table, seen):
    """Every key and variant name in a schema table, nested tables included."""
    if id(table) in seen:
        return
    seen.add(id(table))
    if isinstance(table, cli.Variants):
        yield table.key
        for choice, sub in table.tables.items():
            yield choice
            yield from _table_words(sub, seen)
        return
    for key, (kind, *_) in table.items():
        yield key
        if isinstance(kind, (dict, cli.Variants)):
            yield from _table_words(kind, seen)


def test_readme_lists_every_scenario_key():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Scenario files", 1)[1].split("\n## ", 1)[0]
    top = {"system": (cli._SYSTEM, None), "scenario": (cli._SCENARIO, None), "run": ({}, None)}
    tables = [top, *cli._RUNS.values()]
    missing = {word for table in tables for word in _table_words(table, set())
               if f"`{word}`" not in section}
    assert not missing
