"""tools/builtin_outputs.py: the CSV comparison and the timing filter."""

import importlib.util
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


@pytest.mark.parametrize("text, kept", [
    ("timing solve 0.1 s\nOVERALL PASS\n", "OVERALL PASS\n"),
    ("a timing line\n timing indented\ntimings 3\n",
     "a timing line\n timing indented\ntimings 3\n"),
    ("OVERALL PASS\ntiming solve 0.1 s", "OVERALL PASS\n"),
    ("", ""),
])
def test_untimed_drops_only_lines_that_start_with_timing(text, kept):
    assert builtin_outputs._untimed(text) == kept
