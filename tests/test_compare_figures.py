"""scripts/compare_figures.py, on which the "same numbers" rule rests: its
exit code for identical, nearly identical and differing output directories."""

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "compare_figures.py"
_spec = importlib.util.spec_from_file_location("compare_figures", _SCRIPT)
compare_figures = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_figures)

ROWS = [[0.0, 0.25, -1.5e-3], [0.5, 0.125, 2.0e-3]]
SUMMARY = {"p_final": 0.375, "ratio": 1.25e-2}


def write_run(directory: Path, rows=ROWS, header=("t", "a", "b"), summary=SUMMARY,
              command="bare", warnings=()) -> Path:
    directory.mkdir()
    text = ",".join(header) + "\n" + "".join(",".join("%.17g" % v for v in row) + "\n"
                                              for row in rows)
    (directory / "fig.csv").write_text(text)
    manifest = {"command": command, "outputs": ["fig.csv"], "summary": summary,
                "warnings": list(warnings), "wall_time_s": 0.1}
    (directory / "fig.manifest.json").write_text(json.dumps(manifest))
    return directory


def exit_code(tmp_path, **change) -> int:
    return compare_figures.main([str(write_run(tmp_path / "a")),
                                 str(write_run(tmp_path / "b", **change))])


def scaled(relative: float):
    return [[v * (1 + relative) for v in row] for row in ROWS]


def test_byte_identical_outputs_pass(tmp_path):
    assert exit_code(tmp_path) == 0


def test_a_change_within_1e_12_relative_passes(tmp_path, capsys):
    assert exit_code(tmp_path, rows=scaled(1e-13)) == 0
    assert "within tolerance" in capsys.readouterr().out


def test_a_change_of_1e_11_relative_fails(tmp_path):
    assert exit_code(tmp_path, rows=scaled(1e-11)) == 1


@pytest.mark.parametrize("summary", [{"p_final": 0.375}, {**SUMMARY, "ratio": 1.25e-2 * 1.1}])
def test_a_missing_or_moved_summary_value_fails(tmp_path, summary):
    assert exit_code(tmp_path, summary=summary) == 1


def test_a_header_mismatch_fails(tmp_path):
    assert exit_code(tmp_path, header=("t", "a", "c")) == 1


@pytest.mark.parametrize("change", [{"command": "dressed"},
                                    {"warnings": ["RuntimeWarning: overflow in exp"]}])
def test_a_changed_command_or_warning_list_fails(tmp_path, change):
    assert exit_code(tmp_path, **change) == 1
