"""tools/builtin_outputs.py: the CSV and pin comparisons and the timing filter."""

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "builtin_outputs.py"
_spec = importlib.util.spec_from_file_location("builtin_outputs", _SCRIPT)
builtin_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(builtin_outputs)

_BASE_CSV = "tau,x,dbeta_x\n0.0,1.0,-4.0\n1.0,2.0,3.0\n"


def _tree(root: Path, csvs: dict) -> Path:
    """An OUT tree with one run directory per CSV."""
    for name, text in csvs.items():
        run = root / f"solve_{name}"
        run.mkdir(parents=True)
        (run / f"{name}.csv").write_text(text)
        (run / "exit_code").write_text("0\n")
    return root


def _compare(tmp_path, base: dict, out: dict, capsys) -> str:
    assert builtin_outputs.main(["--compare", str(_tree(tmp_path / "base", base)),
                                 str(_tree(tmp_path / "out", out))]) == 0
    return capsys.readouterr().out


def test_identical_csvs_print_nothing(tmp_path, capsys):
    csvs = {"a": _BASE_CSV, "b": "tau,x\n0.0,0.0\n"}
    assert _compare(tmp_path, csvs, csvs, capsys) == ""


def test_a_changed_column_prints_its_largest_relative_difference(tmp_path, capsys):
    changed = "tau,x,dbeta_x\n0.0,1.0,-4.0\n1.0,2.5,3.0\n"
    # |2.5 - 2.0| over the largest |x| of the base, 2.0
    assert _compare(tmp_path, {"a": _BASE_CSV}, {"a": changed}, capsys) == (
        "solve_a/a.csv: tau 0, x 0.25, dbeta_x 0\n")


def test_a_missing_copy_prints_nan(tmp_path, capsys):
    printed = _compare(tmp_path, {"a": _BASE_CSV, "b": _BASE_CSV}, {"a": _BASE_CSV}, capsys)
    assert printed == "solve_b/b.csv: tau nan, x nan, dbeta_x nan\n"


_BASE_PIN = {"slope_raw": 2.0, "slope_spread": 0.5, "grid": {"n_steps": 64, "t_end": 20.0}}


def _compare_pins(tmp_path, base: dict, out: dict, capsys) -> str:
    """--compare of two OUT trees with one pin run directory per pin."""
    for root, pins in (("base", base), ("out", out)):
        for name, pin in pins.items():
            run = tmp_path / root / f"pin_{name}"
            run.mkdir(parents=True)
            (run / f"{name}.json").write_text(json.dumps(pin, indent=2, sort_keys=True))
    assert builtin_outputs.main(["--compare", str(tmp_path / "base"),
                                 str(tmp_path / "out")]) == 0
    return capsys.readouterr().out


def test_identical_pins_print_nothing(tmp_path, capsys):
    pins = {"a": _BASE_PIN, "b": {"slope_raw": 0.0}}
    assert _compare_pins(tmp_path, pins, pins, capsys) == ""


def test_a_changed_pin_value_prints_its_relative_move(tmp_path, capsys):
    moved = dict(_BASE_PIN, slope_raw=2.0 + 4e-10)
    # |2 + 4e-10 - 2| / 2, the nested grid keys by their dotted names
    assert _compare_pins(tmp_path, {"a": _BASE_PIN}, {"a": moved}, capsys) == (
        "pin_a/a.json: grid.n_steps 0, grid.t_end 0, slope_raw 2e-10, slope_spread 0\n")


def test_a_missing_pin_key_prints_nan(tmp_path, capsys):
    fewer = {key: value for key, value in _BASE_PIN.items() if key != "slope_spread"}
    more = dict(_BASE_PIN, slope_accelerated=1.0)
    assert _compare_pins(tmp_path, {"a": _BASE_PIN, "b": _BASE_PIN},
                         {"a": fewer, "b": more}, capsys) == (
        "pin_a/a.json: grid.n_steps 0, grid.t_end 0, slope_raw 0, slope_spread nan\n"
        "pin_b/b.json: grid.n_steps 0, grid.t_end 0, slope_raw 0, slope_spread 0, "
        "slope_accelerated nan\n")


def test_a_missing_pin_prints_nan_for_every_key(tmp_path, capsys):
    assert _compare_pins(tmp_path, {"a": {"slope_raw": 2.0}}, {}, capsys) == (
        "pin_a/a.json: slope_raw nan\n")


@pytest.mark.parametrize("text, kept", [
    ("timing solve 0.1 s\nOVERALL PASS\n", "OVERALL PASS\n"),
    ("a timing line\n timing indented\ntimings 3\n",
     "a timing line\n timing indented\ntimings 3\n"),
    ("OVERALL PASS\ntiming solve 0.1 s", "OVERALL PASS\n"),
    ("", ""),
])
def test_untimed_drops_only_lines_that_start_with_timing(text, kept):
    assert builtin_outputs._untimed(text) == kept


def test_every_solve_builtin_is_pinned_at_both_grids_and_no_study_is(tmp_path):
    (tmp_path / "a.json").write_text(json.dumps({"checks": [{"name": "residual"}]}))
    (tmp_path / "b.json").write_text(json.dumps({"checks": [{"name": "order"}]}))
    assert list(builtin_outputs._runs(tmp_path)) == [
        ("catalog", ["catalog"]),
        ("solve_a", ["solve", "a"]),
        ("solve_a_n32768", ["solve", "a", "--n-steps", "32768"]),
        ("pin_a", ["pin", "a"]),
        ("pin_a_n32768", ["pin", "a", "--n-steps", "32768"]),
        ("study_b", ["study", "b"]),
        ("study_b_n8192", ["study", "b", "--n-steps", "8192"]),
    ]
