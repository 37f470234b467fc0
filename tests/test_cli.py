import json
from pathlib import Path

import numpy as np
import pytest

from fermi_lattice import cli
from fermi_lattice.errors import NumericalFailureError

FIG4 = {
    "system": {"kind": "chain", "chain": {"n_sites": 100}},
    "scenario": {"site_a": 0, "site_b": 31, "omega": 2.0, "epsilon": 1.0,
                 "opening": {"variant": "sin_sq_window", "window": 0.1},
                 "duration": 0.1},
    "run": {"n_times": 51},
}


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
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
    monkeypatch.setenv("FERMI_LATTICE_THREADS", "1")
    run_cli(tmp_path, "causality", doc, "serial.csv")
    monkeypatch.setenv("FERMI_LATTICE_THREADS", "3")
    run_cli(tmp_path, "causality", doc, "threaded.csv")
    for n in (40, 60, 80):
        a = (tmp_path / f"serial_n{n}.csv").read_bytes()
        b = (tmp_path / f"threaded_n{n}.csv").read_bytes()
        assert a == b


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
    assert "reduce the cutoff" in capsys.readouterr().err


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


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_write_csv_refuses_non_finite_cells(tmp_path, bad):
    out = tmp_path / "o.csv"
    with pytest.raises(NumericalFailureError, match="row 2"):
        cli.write_csv(out, ["x", "y"], [(0.0, 1.0), (1.0, bad)])
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
    ("cloud", FIG4, "run.n_times", 0),
    ("oracle-check", ORACLE, "run.n_times", 0),
    ("causality", R_SCAN, "run.r_values", "al"),
    ("causality", TAU_SCAN, "run.separation_fraction", 0.5),
    ("ion2", ION2, "system.trap.n_ions", 3),
]


@pytest.mark.parametrize("command, doc, path, value", [
    pytest.param(*case, id=f"{case[0]}:{case[2]}={case[3]!r}") for case in BAD_INPUTS])
def test_bad_key_or_value_names_the_key(tmp_path, capsys, command, doc, path, value):
    code, out = run_cli(tmp_path, command, _with(doc, path, value))
    assert code == 2
    assert path in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


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
    from fermi_lattice.causality import lightcone_estimate
    from fermi_lattice.modes import ChainParams, build_harmonic_chain

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
