import json
import math
import os
import subprocess
import sys
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import fracasym
from fracasym import (BoundReport, ComparisonFunction, ConfigError, GridFunction,
                      RightHandSide, StepFailure, solve_direct, solve_sequential)
from fracasym import bounds, catalog, cli, harness
from fracasym.bounds import TailIntegrand


def _builtin_json(ident):
    """The parsed document of a builtin config."""
    return json.loads(resources.files("fracasym.configs").joinpath(f"{ident}.json")
                      .read_text())


def make_config(**overrides):
    doc = {
        "id": "unit",
        "problem": {
            "kind": "direct", "alpha": 0.5, "beta": 0.25, "b1": 3.0,
            "rhs": {"name": "zero"},
        },
        "grid": {"t_end": 20.0, "n_steps": 64},
        "checks": [{"name": "closed_form", "tolerance": 1e-10}],
        "output": {},
        "seed": 1,
    }
    doc.update(overrides)
    return doc


# --------------------------------------------------------------------------
# config validation

def test_unknown_top_level_key():
    with pytest.raises(ConfigError, match="unknown key"):
        harness.load_config(make_config(extra=1))


def test_unknown_problem_key():
    doc = make_config()
    doc["problem"]["mystery"] = 2
    with pytest.raises(ConfigError, match="mystery"):
        harness.load_config(doc)


def test_unknown_check_name():
    doc = make_config(checks=[{"name": "vibes"}])
    with pytest.raises(ConfigError, match="vibes"):
        harness.load_config(doc)


def test_unknown_check_key():
    doc = make_config(checks=[{"name": "residual", "tolerance": 1.0, "huh": 0}])
    with pytest.raises(ConfigError, match="huh"):
        harness.load_config(doc)


def test_nonpositive_tolerance():
    doc = make_config(checks=[{"name": "residual", "tolerance": 0.0}])
    with pytest.raises(ConfigError, match="tolerance"):
        harness.load_config(doc)


def test_unknown_rhs():
    doc = make_config()
    doc["problem"]["rhs"] = {"name": "nonsense"}
    with pytest.raises(ConfigError, match="nonsense"):
        harness.load_config(doc)


def test_regression_requires_producing_check():
    doc = make_config(checks=[{"name": "regression", "key": "sup_x",
                               "tolerance": 1e-6}])
    with pytest.raises(ConfigError, match="sup_x"):
        harness.load_config(doc)


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc["problem"]["rhs"].update(params=[1.0]),
     r"problem\.rhs\.params must be an object"),
    (lambda doc: doc.update(checks=[["closed_form"]]), r"checks\[0\] must be an object"),
], ids=["params", "check"])
def test_config_input_checks(edit, message):
    doc = make_config()
    edit(doc)
    with pytest.raises(ConfigError, match=message):
        harness.load_config(doc)


def test_closed_form_requires_exact_solution():
    doc = make_config()
    doc["problem"]["rhs"] = {"name": "exp_decay_power",
                             "params": {"rate": 1.0, "exponent": 0.5}}
    with pytest.raises(ConfigError, match="exact solution"):
        harness.load_config(doc)


def test_builtin_configs_all_load():
    from fracasym.catalog import builtin_config_ids
    for ident in builtin_config_ids():
        config = harness.load_builtin_config(ident)
        assert config.ident == ident
    with pytest.raises(ConfigError):
        harness.load_builtin_config("not_a_config")


def _edited(edit):
    doc = make_config()
    edit(doc)
    return json.dumps(doc)


def _builtin_with(ident, check_index, **changes):
    """The document of a builtin config that keeps one check, with changes."""
    config = harness.load_builtin_config(ident)
    check = dict(config.checks[check_index], **changes)
    return {"id": ident, "problem": config.problem, "grid": dict(config.grid),
            "checks": [check]}


def _builtin_edited(ident, check_index, edit=lambda doc: None, **changes):
    doc = _builtin_with(ident, check_index, **changes)
    edit(doc)
    return json.dumps(doc)


_BOUNDEDNESS_WITHOUT_PHI1 = {
    "name": "boundedness", "tolerance": 1e-9, "q": 2.0,
    "phi2": {"name": "power", "params": {"exponent": 1.0}},
    "weight": {"name": "exp_decay", "params": {"rate": 1.0}}}


@pytest.mark.parametrize("text", [
    pytest.param(_edited(lambda d: d["problem"].pop("b1")), id="missing_b1"),
    pytest.param(_edited(lambda d: d["grid"].pop("t_end")), id="missing_t_end"),
    pytest.param(_edited(lambda d: d.update(checks=[{"name": "closed_form"}])),
                 id="check_without_tolerance"),
    pytest.param(_edited(lambda d: d.update(checks=[_BOUNDEDNESS_WITHOUT_PHI1])),
                 id="boundedness_without_phi1"),
    pytest.param(_edited(lambda d: d["grid"].update(n_steps=None)), id="null_n_steps"),
    pytest.param(_edited(lambda d: d.update(checks=5)), id="checks_not_a_list"),
    pytest.param(_edited(lambda d: d["problem"].update(alpha="x")),
                 id="alpha_not_a_number"),
    pytest.param(_edited(lambda d: d.update(problem=[])), id="problem_not_an_object"),
    pytest.param(json.dumps(make_config())[:60], id="truncated_json"),
    pytest.param(_edited(lambda d: d["grid"].update(n_steps=float("inf"))),
                 id="infinite_n_steps"),
    pytest.param(_edited(lambda d: d["grid"].update(n_steps=512.9)),
                 id="fractional_n_steps"),
    # a step below the smallest normal float rounds node 1 onto tau = 0
    pytest.param(_edited(lambda d: d["grid"].update(t_end=1e-320, n_steps=4099)),
                 id="subnormal_step"),
    pytest.param(_edited(lambda d: d["grid"].update(t_end=2e-301, n_steps=2 ** 16,
                                                    refinement_levels=9)),
                 id="subnormal_finest_step"),
    pytest.param(_edited(lambda d: d["grid"].update(refinement_levels=0.5))
                 .replace("0.5}", "1e400}"), id="huge_refinement_levels"),
    pytest.param(_edited(lambda d: d["grid"].update(n_steps=10 ** 400)),
                 id="huge_integer_n_steps"),
    pytest.param(_edited(lambda d: d["checks"][0].update(tolerance=10 ** 400)),
                 id="huge_integer_tolerance"),
    pytest.param(_edited(lambda d: d["checks"][0].update(tolerance="1_0")),
                 id="string_tolerance"),
    pytest.param(_edited(lambda d: d.update(seed=-float("inf"))), id="infinite_seed"),
    pytest.param(_edited(lambda d: d["checks"][0].update(tolerance=float("inf"))),
                 id="infinite_tolerance"),
    pytest.param(_builtin_edited("example46", 0, window_fraction=0.95),
                 id="window_fraction_above_0.9"),
    pytest.param(_builtin_edited("example46", 0, window_fraction=0.0),
                 id="window_fraction_zero"),
    pytest.param(_builtin_edited("example63_forced", 0, tau0=-1.0), id="negative_tau0"),
    pytest.param(_builtin_edited("example63_forced", 0, tau0=0.0), id="zero_tau0"),
    pytest.param(_builtin_edited("example63", 0, split=-1.0), id="negative_split"),
    # the growth envelope is the sequential problem's bound, the uniform bound
    # the direct problem's
    pytest.param(_edited(lambda d: d.update(
        checks=[harness.load_builtin_config("example46").checks[2]])),
        id="bound_envelope_on_a_direct_problem"),
    pytest.param(_builtin_edited("example46", 0, edit=lambda d: d.update(
        checks=[harness.load_builtin_config("example63").checks[1]])),
        id="boundedness_on_a_sequential_problem"),
    # alpha - beta = 1/3 in example63_forced, so q must exceed 3
    pytest.param(_builtin_edited("example63_forced", 0, q=2.0),
                 id="q_below_one_over_alpha_minus_beta"),
    pytest.param(_builtin_edited("example46", 0, edit=lambda d: d["grid"].update(t_end=9.5)),
                 id="slope_horizon_below_10"),
    # window_fraction 0.25 of 4 steps leaves nodes 3 and 4 in the trailing window
    pytest.param(_builtin_edited("example46", 0, edit=lambda d: d["grid"].update(n_steps=4)),
                 id="slope_window_below_3_nodes"),
    pytest.param(_builtin_edited("example46", 2, edit=lambda d: d["grid"].update(t_end=0.5)),
                 id="bound_envelope_horizon_below_1"),
    # a JSON boolean is no number
    pytest.param(_edited(lambda d: d["checks"][0].update(tolerance=True)),
                 id="boolean_tolerance"),
    pytest.param(_edited(lambda d: d["problem"].update(b1=True)), id="boolean_b1"),
    pytest.param(_edited(lambda d: d["grid"].update(refinement_levels=True)),
                 id="boolean_refinement_levels"),
    pytest.param(_edited(lambda d: d.update(seed=False)), id="boolean_seed"),
    pytest.param(_builtin_edited("example63_forced", 0, tau0=True), id="boolean_tau0"),
    pytest.param(_edited(lambda d: d["problem"].update(
        b1=0.0, rhs={"name": "manufactured_power_mu", "params": {"mu": True}})),
        id="boolean_rhs_param"),
    # the id names the pin file and the expectations
    *(pytest.param(_edited(lambda d: d.update(id=ident)), id=f"id_{name}")
      for name, ident in [("null", None), ("list", []), ("object", {"a": 1}), ("number", 5),
                          ("boolean", True), ("empty", ""), ("slash", "a/b"),
                          ("backslash", "a\\b")]),
])
def test_cli_reports_malformed_config_as_config_error(text, tmp_path, capsys, monkeypatch):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(ConfigError):
        harness.load_config(path)

    def unreachable(*args):
        raise AssertionError("solved before the config was checked")

    monkeypatch.setattr(harness, "solve_direct", unreachable)
    monkeypatch.setattr(harness, "solve_sequential", unreachable)
    assert cli.main(["solve", str(path), "--out-dir", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == ""
    assert len(err) == 1 and err[0].startswith("config error:")


def _rhs_params(**params):
    return lambda doc: doc["problem"]["rhs"]["params"].update(params)


def _envelope_phi(name, **params):
    return lambda doc: doc["checks"][2].update(phi={"name": name, "params": params})


def _ref(check, key, **ref):
    return lambda doc: doc["checks"][check][key].update(ref)


# each guard of a catalog factory, and the zero-data guard of the manufactured
# exact solution, which the closed_form check asks for at load
@pytest.mark.parametrize("ident, edit, message", [
    ("example46", _rhs_params(rate=0.0), "exp_decay_power needs rate > 0, got 0.0"),
    ("example46", _rhs_params(exponent=1.5),
     "exp_decay_power needs exponent in (0, 1], got 1.5"),
    ("example63", _rhs_params(rate=-1.0), "damped_singular_product needs rate > 0, got -1.0"),
    ("manufactured_tau2", _rhs_params(mu=0.4), "manufactured power needs mu > alpha, got mu=0.4"),
    ("manufactured_tau2_seq", _rhs_params(mu=1.2),
     "sequential manufactured power needs mu >= alpha + 1, got mu=1.2"),
    ("example46", _envelope_phi("power", exponent=2.0),
     "power comparison function needs exponent in (0,1], got 2.0"),
    ("example46", _envelope_phi("constant", value=0.0),
     "constant comparison function needs value > 0, got 0.0"),
    ("manufactured_tau2", lambda doc: doc["problem"].update(b1=1.0),
     "manufactured problems need zero initial data"),
    ("example46", _ref(2, "weight", params={"rate": -1}), "exp_decay needs rate > 0, got -1.0"),
    ("example63", _ref(1, "weight", name="power_exp", params={"exponent": 0.5, "rate": 0}),
     "power_exp needs rate > 0, got 0.0"),
    # a weight or tail integrand is looked up like an rhs or a phi, with the same errors
    ("example46", _ref(2, "weight", name="exp_decayy"),
     "unknown integrand 'exp_decayy'; known: ['exp_decay', 'power', 'power_exp']"),
    ("example63", _ref(0, "integrand", name="powr"),
     "unknown integrand 'powr'; known: ['exp_decay', 'power', 'power_exp']"),
    ("example46", _ref(2, "weight", params={"rat": 1.0}), "bad parameters for integrand "
     "'exp_decay': _exp_decay() got an unexpected keyword argument 'rat'"),
    ("example63", _ref(0, "integrand", params={"exponent": -0.9, "rate": 1.0}),
     "bad parameters for integrand 'power': _power() got an unexpected keyword argument 'rate'"),
    # a name or regression key that is not a string never reaches a lookup
    ("example46", lambda doc: doc["problem"]["rhs"].update(name=["zero"]),
     "problem.rhs.name must be a string, got ['zero']"),
    ("example46", _ref(2, "phi", name=["power"]), "checks[2].phi.name must be a string, "
     "got ['power']"),
    ("example63", _ref(1, "weight", name={"exp_decay": 1}),
     "checks[1].weight.name must be a string, got {'exp_decay': 1}"),
    ("example46", lambda doc: doc["checks"][3].update(key=["a"]),
     "checks[3].key must be a string, got ['a']"),
])
def test_a_catalog_guard_is_one_config_error_line(ident, edit, message, tmp_path, capsys):
    path = tmp_path / "bad.json"
    doc = _builtin_json(ident)
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError) as info:
        harness.load_config(path)
    assert str(info.value) == message
    command = "study" if ident.startswith("manufactured") else "solve"
    assert cli.main([command, str(path), "--out-dir", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"config error: {message}\n")


@pytest.mark.parametrize("grid", [
    {"n_steps": 2 ** 24 + 1},
    {"n_steps": 2 ** 23 + 1, "refinement_levels": 2},
    {"n_steps": 2, "refinement_levels": 25},
    {"n_steps": 64, "refinement_levels": 1e300},
    {"n_steps": 1e300},
])
def test_a_finest_grid_above_2_24_steps_does_not_load(grid):
    doc = make_config()
    doc["grid"].update(grid)
    with pytest.raises(ConfigError, match="finest grid"):
        harness.load_config(doc)


@pytest.mark.parametrize("grid", [
    {"n_steps": 2 ** 24},
    {"n_steps": 2 ** 23, "refinement_levels": 2},
    {"n_steps": 2, "refinement_levels": 24},
])
def test_a_finest_grid_of_2_24_steps_loads(grid):
    doc = make_config()
    doc["grid"].update(grid)
    assert harness.load_config(doc).grid == {"t_end": 20.0, **grid}


@pytest.mark.parametrize("ident, index, changes", [
    ("example46", 0, {"window_fraction": 0.9}),
    ("example63_forced", 0, {"tau0": 0.5}),
    ("example63_forced", 0, {"tau0": "step"}),
    ("example63_forced", 0, {"q": 3.5}),
    ("example63", 0, {"split": 0.0}),
])
def test_check_numbers_at_the_edges_of_their_ranges_load(ident, index, changes):
    check, = harness.load_config(_builtin_with(ident, index, **changes)).checks
    assert all(check[key] == value for key, value in changes.items())


def test_slope_at_a_horizon_of_ten_loads():
    doc = _builtin_with("example46", 0)
    doc["grid"]["t_end"] = 10.0
    assert harness.load_config(doc).t_end == 10.0


def test_check_defaults_are_filled_in_at_load():
    doc = make_config(checks=[{"name": "hypothesis", "expect": "converges",
                               "integrand": {"name": "exp_decay"}}])
    check, = harness.load_config(doc).checks
    assert (check["weight_power"], check["split"]) == (0.0, 1.0)
    doc = _builtin_with("example46", 0)
    del doc["checks"][0]["window_fraction"]
    check, = harness.load_config(doc).checks
    assert check["window_fraction"] == 0.25


def test_config_numbers_are_converted_at_load():
    # an integer JSON number of a float key loads as a float, an integral one
    # of an integer key as an int
    doc = make_config(seed=7.0)
    doc["grid"].update(t_end=20, n_steps=64.0)
    doc["problem"]["alpha"] = 0.5
    config = harness.load_config(doc)
    assert (config.t_end, config.n_steps, config.seed) == (20.0, 64, 7)
    assert (type(config.t_end), type(config.n_steps), type(config.seed)) == (float, int, int)
    assert config.problem["alpha"] == 0.5
    assert config.checks[0]["tolerance"] == 1e-10


# --------------------------------------------------------------------------
# running

def test_smoke_run_passes(tmp_path):
    doc = make_config(output={"csv_path": "unit.csv", "report_path": "unit.txt"})
    doc["checks"].append({"name": "residual", "tolerance": 1e-12})
    report = harness.run(harness.load_config(doc), out_dir=tmp_path)
    assert report.overall_pass
    assert report.exit_code == 0
    assert len(report.checks) == 2


def test_csv_contract(tmp_path):
    doc = make_config(output={"csv_path": "unit.csv"})
    config = harness.load_config(doc)
    report = harness.run(config, out_dir=tmp_path)
    lines = report.csv_path.read_text().splitlines()
    assert lines[0] == "tau,x,dbeta_x,dalpha_x,bound_curve,x_over_tau_alpha"
    assert len(lines) == config.n_steps + 2  # header + n_steps+1 rows
    row = lines[5].split(",")
    assert len(row) == 6
    tau, x = float(row[0]), float(row[1])
    assert x == 3.0
    assert float(row[5]) == pytest.approx(x / tau ** 0.5, rel=1e-12)


def test_csv_determinism(tmp_path):
    doc = make_config(output={"csv_path": "unit.csv"})
    config = harness.load_config(doc)
    r1 = harness.run(config, out_dir=tmp_path / "a")
    r2 = harness.run(config, out_dir=tmp_path / "b")
    assert r1.csv_path.read_bytes() == r2.csv_path.read_bytes()


def test_csv_writer_matches_row_by_row_format(tmp_path):
    config = harness.load_builtin_config("example46")
    spec = catalog.build_problem_spec(config.problem)
    sol = solve_sequential(spec, 50.0, 256)
    path = tmp_path / "out.csv"
    harness._write_csv(path, sol, None)  # no bound curve: a NaN column

    taus = sol.x.taus
    ratio = np.full(taus.size, np.nan)
    ratio[1:] = sol.x.values[1:] / taus[1:] ** spec.alpha
    cols = (taus, sol.x.values, sol.dbeta_x.values, sol.dalpha_x.values,
            np.full(taus.size, np.nan), ratio)
    lines = [harness.CSV_HEADER]
    for i in range(taus.size):
        lines.append(",".join(f"{col[i]:.16e}" for col in cols))
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")
    assert path.read_text().splitlines()[1].endswith(",nan,nan")


def test_csv_writer_bytes_do_not_depend_on_the_chunk_size(tmp_path, monkeypatch):
    config = harness.load_builtin_config("example63_forced")
    sol = solve_direct(catalog.build_problem_spec(config.problem), 50.0, 300)
    curve = np.linspace(1.0, 2.0, 301)
    curve[::3] = np.nan  # NaN fields in some rows of a chunk only
    written = []
    for rows in (1, 7, 4096):
        monkeypatch.setattr(harness, "_CSV_CHUNK_ROWS", rows)
        path = tmp_path / f"chunk{rows}.csv"
        harness._write_csv(path, sol, curve)
        written.append(path.read_bytes())
    assert written[0] == written[1] == written[2]
    assert len(written[0].splitlines()) == 302


def test_cli_csv_fields_round_trip_through_percent_format(tmp_path, capsys):
    # 32768 steps put about 12 % of the values, in dalpha_x, below 1e-6,
    # outside the range where 10**q is a double.  The sup_x pin holds at the
    # config's 2048 steps, so its check is skipped and the run exits 0.
    assert cli.main(["solve", "example63_forced", "--n-steps", "32768",
                     "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "CHECK boundedness: PASS" in out
    assert "CHECK regression_sup_x: SKIP pinned at t_end=50 n_steps=2048" in out
    lines = (tmp_path / "example63_forced.csv").read_text().splitlines()
    assert lines[0] == harness.CSV_HEADER and len(lines) == 32770
    fields = ",".join(lines[1:]).split(",")
    assert len(fields) == 6 * 32769
    assert sum(0.0 < abs(float(f)) < 1e-6 for f in fields) > 20000
    assert [f for f in fields if "%.16e" % float(f) != f] == []


def _example46_lhopital(t_end, b1, tolerance):
    base = harness.load_builtin_config("example46")
    problem = dict(base.problem, b1=b1)
    config = harness.load_config({
        "id": "lhopital", "problem": problem,
        "grid": {"t_end": t_end, "n_steps": 4096},
        "checks": [{"name": "lhopital", "tolerance": tolerance}]})
    return harness.run(config, expectations={})


def test_lhopital_verdict_bounds_the_lemma_term():
    # T = 50: the raw residual 0.119 holds the floor b1/T^alpha = 0.141;
    # the lemma term is about -1.1/T
    report = _example46_lhopital(50.0, 1.0, 0.1)
    check, = report.checks
    lemma = report.measured["lhopital_lemma_term"]
    raw = report.measured["lhopital_residual"]
    assert check.status == "PASS"
    assert check.measured == abs(lemma)
    assert lemma == pytest.approx(-0.0223, abs=5e-4)
    assert raw == pytest.approx(0.119132286, rel=1e-6)
    assert lemma == pytest.approx(raw - 1.0 / 50.0 ** 0.5, rel=1e-12)  # signed residual > 0


def test_lhopital_fails_when_the_lemma_term_exceeds_tolerance():
    # b1 = 0.2, T = 20: floor 0.0447 and lemma term -0.047 nearly cancel, so
    # the raw residual (0.0025) is under the tolerance and the lemma is not
    report = _example46_lhopital(20.0, 0.2, 0.01)
    check, = report.checks
    assert report.measured["lhopital_residual"] < 0.01
    assert check.measured == abs(report.measured["lhopital_lemma_term"]) > 0.01
    assert check.status == "FAIL"
    assert report.exit_code == 1


def test_boundedness_check_applies_its_tolerance(monkeypatch, tmp_path):
    config = harness.load_builtin_config("example63_forced")
    sup_x = harness.run(config, out_dir=tmp_path).measured["sup_x"]

    def tight_bound(*args, **kwargs):  # C just under sup |x|
        return BoundReport(constants={"C": sup_x / (1.0 + 1e-6), "tau0": 0.0})

    monkeypatch.setattr(harness, "uniform_bound_constant", tight_bound)
    statuses = {}
    for tol in (1e-9, 1e-5):
        check = dict(config.checks[0], tolerance=tol)
        doc = {"id": "bounded", "problem": config.problem, "grid": config.grid,
               "checks": [check]}
        statuses[tol] = harness.run(harness.load_config(doc)).checks[0].status
    assert statuses == {1e-9: "FAIL", 1e-5: "PASS"}


def test_report_line_format(tmp_path):
    doc = make_config(output={"report_path": "unit.txt"})
    report = harness.run(harness.load_config(doc), out_dir=tmp_path)
    text = report.report_path.read_text()
    heads = [line.split(":")[0] for line in text.splitlines()[:4]]
    assert heads == ["experiment", "seed", "grid", "config"]
    assert "CHECK closed_form: PASS measured=" in text
    assert "OVERALL: PASS" in text
    # every configured check appears exactly once
    assert text.count("CHECK ") == 1


def test_failed_check_exit_code(tmp_path):
    doc = make_config()
    doc["problem"]["b1"] = 1.0
    doc["checks"] = [{"name": "slope", "tolerance": 1e-9}]  # spread gate too tight
    report = harness.run(harness.load_config(doc), out_dir=tmp_path)
    assert not report.overall_pass
    assert report.exit_code == 1


def test_hypothesis_violation_keeps_running(tmp_path):
    config = harness.load_builtin_config("hypothesis_violation")
    report = harness.run(config, out_dir=tmp_path)
    statuses = [c.status for c in report.checks]
    assert "FAILED-HYPOTHESIS" in statuses
    assert report.exit_code == 2


def test_regression_roundtrip(tmp_path):
    doc = make_config(output={})
    doc["checks"] = [
        {"name": "residual", "tolerance": 1e-9},
        {"name": "regression", "key": "integral_defect", "tolerance": 1e-9},
    ]
    config = harness.load_config(doc)
    # no expectations yet: regression fails with a missing pin
    report = harness.run(config, expectations={})
    assert [c.status for c in report.checks] == ["PASS", "FAIL"]
    # pin, then rerun against the written expectations
    path = harness.pin(config, tmp_path)
    pinned = json.loads(path.read_text())
    assert "integral_defect" in pinned
    report = harness.run(config, expectations=pinned)
    assert report.overall_pass


def test_a_pin_applies_to_the_grid_it_was_taken_on(tmp_path):
    doc = make_config(output={})
    doc["checks"] = [
        {"name": "residual", "tolerance": 1e-9},
        {"name": "regression", "key": "integral_defect", "tolerance": 1e-9},
    ]
    path = harness.pin(harness.load_config(doc), tmp_path)
    pinned = json.loads(path.read_text())
    assert pinned["grid"] == {"n_steps": 64, "t_end": 20.0}
    # on the pinned grid the check keeps its verdict and exit code
    wrong = dict(pinned, integral_defect=2.0 * pinned["integral_defect"] + 1.0)
    report = harness.run(harness.load_config(doc), expectations=wrong)
    assert [c.status for c in report.checks] == ["PASS", "FAIL"]
    assert report.exit_code == 1
    # off it, a changed n_steps or t_end alike, the check gives no verdict
    for grid in ({"t_end": 20.0, "n_steps": 128}, {"t_end": 10.0, "n_steps": 64}):
        report = harness.run(harness.load_config(dict(doc, grid=grid)), expectations=wrong)
        assert report.checks[1].status == "SKIP pinned at t_end=20 n_steps=64"
        assert report.overall_pass and report.exit_code == 0
        assert report.render().splitlines()[-1] == "OVERALL: PASS"


def test_cli_run_off_the_pinned_grid_skips_the_regression_checks(tmp_path, capsys):
    code = cli.main(["solve", "example46", "--n-steps", "8192", "--out-dir", str(tmp_path)])
    lines = capsys.readouterr().out.splitlines()
    skipped = [line for line in lines if line.startswith("CHECK regression_")]
    assert len(skipped) == 3
    assert all(": SKIP pinned at t_end=400 n_steps=4096 measured=" in line
               for line in skipped)
    assert lines[-1] == "OVERALL: PASS"
    assert code == 0


def test_regression_of_a_value_whose_check_failed_its_hypothesis_is_not_measured():
    doc = _builtin_json("hypothesis_violation")
    doc["output"] = {}
    doc["checks"].append({"name": "regression", "key": "sup_x", "tolerance": 1e-6})
    report = harness.run(harness.load_config(doc), expectations={"sup_x": 1.0})
    assert [(c.status, c.measured, c.expected) for c in report.checks[1:]] == [
        ("FAIL", "not-measured", 1.0)]
    assert report.checks[0].status == "FAILED-HYPOTHESIS"
    assert report.exit_code == 2


# --------------------------------------------------------------------------
# convergence study

def test_study_manufactured(tmp_path):
    config = harness.load_builtin_config("manufactured_tau2")
    report = harness.convergence_study(config, out_dir=tmp_path)
    assert report.overall_pass
    orders = [line for line in report.info_lines if line.startswith("order")]
    assert len(orders) == config.refinement_levels - 1


def test_run_and_study_evaluate_closed_form_alike(tmp_path):
    # the study's closed_form check reads its finest grid
    config = harness.load_builtin_config("manufactured_tau2")
    study = harness.convergence_study(config, out_dir=tmp_path)
    finest = config.n_steps * 2 ** (config.refinement_levels - 1)
    doc = {"id": "finest", "problem": config.problem,
           "grid": {"t_end": config.t_end, "n_steps": finest},
           "checks": [config.checks[0]]}
    solved = harness.run(harness.load_config(doc))
    assert solved.measured == study.measured
    assert solved.checks == study.checks[:1]


@pytest.mark.parametrize("kind, beta", [("direct", 0.2), ("direct", 0.0),
                                        ("sequential", 0.2)])
def test_every_study_level_equals_its_standalone_solve(kind, beta, monkeypatch):
    # the levels share one weight table per order, built at the finest grid
    # (4096 steps, four 1024-node blocks), and one time grid per solve
    problem = {"kind": kind, "alpha": 0.6, "beta": beta, "b1": 0.0,
               "rhs": {"name": "manufactured_power_mu", "params": {"mu": 2.0}}}
    if kind == "sequential":
        problem["b2"] = 0.0
    config = harness.load_config(make_config(
        problem=problem, grid={"t_end": 1.0, "n_steps": 1024, "refinement_levels": 3},
        checks=[{"name": "closed_form", "tolerance": 1e-3}]))
    name = f"solve_{kind}"
    solve, levels = getattr(harness, name), []

    def recorded(*args, **kwargs):
        levels.append(solve(*args, **kwargs))
        return levels[-1]

    monkeypatch.setattr(harness, name, recorded)
    report = harness.convergence_study(config)
    spec = catalog.build_problem_spec(config.problem)
    assert [sol.x.n_steps for sol in levels] == [1024, 2048, 4096]
    for sol in levels:
        alone = solve(spec, 1.0, sol.x.n_steps)
        for got, want in ((sol.x, alone.x), (sol.dbeta_x, alone.dbeta_x),
                          (sol.dalpha_x, alone.dalpha_x)):
            assert np.array_equal(got.values, want.values)
            assert np.array_equal(got.taus, want.taus)
        assert np.array_equal(sol.rhs_history, alone.rhs_history)
        assert np.array_equal(sol.corrector_iterations, alone.corrector_iterations)
    # the closed_form check reads the error the study measured at its finest level
    finest = levels[-1]
    error = float(np.max(np.abs(finest.x.values - finest.x.taus ** 2.0)))
    assert report.measured["closed_form_error"] == error
    assert report.info_lines[2] == f"level n_steps=4096 max_error={error:.9e}"


def test_study_of_the_sequential_zero_problem_matches_its_closed_form(tmp_path):
    # x = b1 + b2 tau^alpha / Gamma(alpha + 1)
    doc = make_config(grid={"t_end": 20.0, "n_steps": 32, "refinement_levels": 2},
                      checks=[{"name": "closed_form", "tolerance": 1e-10},
                              {"name": "order", "min_order": 1.0}])
    doc["problem"].update(kind="sequential", b1=3.0, b2=-2.0)
    config = harness.load_config(doc)
    exact = catalog.exact_solution(config.problem)
    assert exact(np.array([0.0, 4.0])) == pytest.approx(
        [3.0, 3.0 - 2.0 * 2.0 / math.gamma(1.5)], rel=1e-15)
    report = harness.convergence_study(config, out_dir=tmp_path)
    assert [c.status for c in report.checks] == ["PASS", "PASS"]


def test_study_roundoff_reports_exact(tmp_path):
    doc = make_config(grid={"t_end": 20.0, "n_steps": 32, "refinement_levels": 2},
                      checks=[{"name": "closed_form", "tolerance": 1e-10},
                              {"name": "order", "min_order": 1.0}])
    report = harness.convergence_study(harness.load_config(doc), out_dir=tmp_path)
    assert report.overall_pass
    assert any("exact" in line for line in report.info_lines)


def test_order_check_needs_two_refinement_levels(tmp_path, monkeypatch, capsys):
    doc = make_config(checks=[{"name": "order", "min_order": 5.0}])
    doc["problem"]["rhs"] = {"name": "manufactured_power_mu", "params": {"mu": 2.0}}
    doc["grid"] = {"t_end": 1.0, "n_steps": 16}
    with pytest.raises(ConfigError, match="refinement_levels"):
        harness.load_config(doc)

    def no_solve(*args):
        raise AssertionError("solved before the config was checked")

    monkeypatch.setattr(harness, "solve_direct", no_solve)
    path = tmp_path / "order.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["study", str(path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")
    doc["grid"]["refinement_levels"] = 2
    assert harness.load_config(doc).refinement_levels == 2


def test_a_manufactured_power_of_high_degree_loads():
    # Gamma(mu + 1) / Gamma(mu + 1 - alpha) is finite for every mu up to about
    # 170.6; the rhs constant is built at load
    doc = _builtin_json("manufactured_tau2")
    doc["problem"]["rhs"]["params"]["mu"] = 150.0
    config = harness.load_config(doc)
    rhs = catalog.build_problem_spec(config.problem).rhs
    assert rhs.fn(1.0, 0.0, 0.0) == pytest.approx(
        math.gamma(151.0) / math.gamma(150.5), rel=1e-14)


@pytest.mark.parametrize("key, value", [("alpha", 0.9), ("kind", 1)])
def test_cli_rejects_a_manufactured_rhs_param_the_problem_sets(key, value, tmp_path, capsys,
                                                               monkeypatch):
    # the source is built for the problem's alpha and kind; a param of the
    # same name would build another problem's source
    doc = _builtin_json("manufactured_tau2")
    doc["problem"]["rhs"]["params"][key] = value
    path = tmp_path / "shadow.json"
    path.write_text(json.dumps(doc))

    def unreachable(*args):
        raise AssertionError("solved before the config was checked")

    monkeypatch.setattr(harness, "solve_direct", unreachable)
    monkeypatch.setattr(harness, "solve_sequential", unreachable)
    assert cli.main(["study", str(path), "--out-dir", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"config error: rhs 'manufactured_power_mu' takes {key} from "
                            f"the problem, not from its param {key!r}\n")


def test_study_requires_exact_solution():
    doc = make_config()
    doc["problem"]["rhs"] = {"name": "exp_decay_power",
                             "params": {"rate": 1.0, "exponent": 0.5}}
    doc["checks"] = []
    with pytest.raises(ConfigError, match="exact solution"):
        harness.convergence_study(harness.load_config(doc))


# --------------------------------------------------------------------------
# catalog listing and CLI

def test_list_catalog_mentions_builtins():
    text = harness.list_catalog()
    assert "example46" in text
    assert "example63" in text
    assert "manufactured_tau2" in text


# parameters that build one entry of each catalog table
_CATALOG_SAMPLES = {
    "rhs": {"damped_singular_product": {"pre_exponent": -0.2}, "exp_decay_power": {},
            "manufactured_power_mu": {"mu": 2.0}, "zero": {}},
    "phi": {"constant": {}, "identity": {}, "power": {"exponent": 0.5},
            "power_plus_one": {"exponent": 0.5}},
    "integrand": {"exp_decay": {}, "power": {"exponent": -2.0},
                  "power_exp": {"exponent": 0.5}},
}


def _listed_names(text: str, header: str) -> list[str]:
    section = text.split(header + "\n", 1)[1]
    lines = []
    for line in section.splitlines():
        if not line.startswith("  "):
            break
        lines.append(line.strip())
    return lines


def test_catalog_listing_and_lookups_read_one_table_per_name_space():
    text = harness.list_catalog()
    rhs_lines = _listed_names(text, "right-hand sides (problem.rhs.name):")
    phi_lines = _listed_names(text, "comparison functions (phi.name):")
    integrand_lines = _listed_names(
        text, "weight/tail integrands (weight.name, integrand.name):")

    for lines, table in ((rhs_lines, catalog.RHS), (phi_lines, catalog.PHI),
                         (integrand_lines, catalog.INTEGRANDS)):
        assert lines == [f"{n}: {table[n][1]}" for n in sorted(table)]

    for name in catalog.RHS:
        rhs = catalog.make_rhs(name, _CATALOG_SAMPLES["rhs"][name], 0.5, "direct")
        assert isinstance(rhs, RightHandSide)
    for name in catalog.PHI:
        phi = catalog.make_phi(name, _CATALOG_SAMPLES["phi"][name])
        assert isinstance(phi, ComparisonFunction) and phi(2.0) > 0
    for name in catalog.INTEGRANDS:
        weight = catalog.make_integrand(name, _CATALOG_SAMPLES["integrand"][name])
        assert isinstance(weight, TailIntegrand) and weight.ident == name


@pytest.mark.parametrize("name,params", [
    ("power", {}),
    ("power_plus_one", None),
    ("power", {"exponent": 0.5, "scale": 2.0}),
    ("identity", {"exponent": 1.0}),
    ("constant", {"level": 1.0}),
    ("cubic", {}),
])
def test_phi_with_missing_or_unknown_parameters_is_a_config_error(name, params):
    with pytest.raises(ConfigError):
        catalog.make_phi(name, params)


def test_cli_catalog(capsys):
    assert cli.main(["catalog"]) == 0
    assert "example46" in capsys.readouterr().out


# exit 2 is kept for a violated hypothesis, so argparse's usage errors exit 1
@pytest.mark.parametrize("argv", [
    ["solve"],
    ["solve", "zero_rhs", "--n-steps", "abc"],
    ["solve", "zero_rhs", "--bogus", "1"],
    ["frobnicate"],
])
def test_a_cli_usage_error_exits_1_with_the_usage_on_stderr(argv, capsys):
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: fracasym")
    assert "error:" in captured.err


def test_cli_help_exits_0(capsys):
    assert cli.main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: fracasym")


def test_cli_solve_builtin(tmp_path, capsys):
    code = cli.main(["solve", "zero_rhs", "--out-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "OVERALL: PASS" in out
    assert (tmp_path / "zero_rhs.csv").exists()


def test_cli_overrides(tmp_path, capsys):
    code = cli.main(["solve", "zero_rhs", "--out-dir", str(tmp_path),
                     "--n-steps", "128", "--t-end", "10"])
    assert code == 0
    lines = (tmp_path / "zero_rhs.csv").read_text().splitlines()
    assert len(lines) == 130  # header + 129 nodes


def test_cli_exit_code_hypothesis(tmp_path):
    assert cli.main(["solve", "hypothesis_violation",
                     "--out-dir", str(tmp_path)]) == 2


def test_cli_pin_writes_the_measured_values(tmp_path, capsys):
    exp_dir = tmp_path / "pins"
    code = cli.main(["pin", "example63_forced", "--expectations-dir", str(exp_dir),
                     "--out-dir", str(tmp_path)])
    path = exp_dir / "example63_forced.json"
    assert code == 0
    assert capsys.readouterr().out == f"pinned expectations written to {path}\n"
    report = harness.run(harness.load_builtin_config("example63_forced"), out_dir=tmp_path,
                         expectations={})
    assert json.loads(path.read_text()) == dict(report.measured,
                                                grid={"n_steps": 2048, "t_end": 50.0})
    assert set(report.measured) | {"grid"} == set(
        harness.load_expectations("example63_forced"))


def test_cli_pin_defaults_to_the_expectations_directory_beside_the_cli(
        tmp_path, capsys, monkeypatch):
    package_pins = Path(cli.__file__).parent / "expectations"
    before = {path.name: path.read_bytes() for path in package_pins.iterdir()}
    monkeypatch.setattr(cli, "__file__", str(tmp_path / "cli.py"))
    monkeypatch.chdir(tmp_path)
    assert cli.main(["pin", "zero_rhs"]) == 0
    path = tmp_path / "expectations" / "zero_rhs.json"
    assert capsys.readouterr().out == f"pinned expectations written to {path}\n"
    assert json.loads(path.read_text())["grid"] == {"n_steps": 512, "t_end": 50.0}
    assert [p.name for p in tmp_path.iterdir()] == ["expectations"]  # no CSV, no report
    assert {path.name: path.read_bytes() for path in package_pins.iterdir()} == before


def test_cli_reports_a_solver_failure_as_one_line(tmp_path, capsys, monkeypatch):
    def failing(*args, **kwargs):
        raise StepFailure(7, 0.5, "corrector diverged")

    monkeypatch.setattr(harness, "solve_direct", failing)
    assert cli.main(["solve", "zero_rhs", "--out-dir", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "solver failure: step 7 (tau=0.5): corrector diverged\n"


def test_cli_reports_an_out_dir_that_is_a_file_as_one_io_error_line(tmp_path, capsys):
    not_a_dir = tmp_path / "taken"
    not_a_dir.write_text("")
    assert cli.main(["solve", "zero_rhs", "--out-dir", str(not_a_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("io error:") and str(not_a_dir) in err[0]


def test_cli_bad_override_is_a_config_error(tmp_path, capsys):
    code = cli.main(["solve", "zero_rhs", "--out-dir", str(tmp_path), "--t-end", "-1"])
    assert code == 1
    assert capsys.readouterr().err.startswith("config error: grid.t_end")


@pytest.mark.parametrize("command, ident, err", [
    ("solve", "manufactured_tau2", "config error: check 'order' is not valid for run()\n"),
    ("study", "zero_rhs",
     "config error: check 'residual' is not valid for convergence_study()\n"),
], ids=["solve", "study"])
def test_cli_rejects_a_check_the_command_cannot_evaluate_before_solving(
        command, ident, err, tmp_path, capsys, monkeypatch):
    def unreachable(*args):
        raise AssertionError("solved before the checks were validated")

    monkeypatch.setattr(harness, "solve_direct", unreachable)
    monkeypatch.setattr(harness, "solve_sequential", unreachable)
    assert cli.main([command, ident, "--out-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err == err


def test_cli_reports_an_overflowing_tail_integrand_as_one_error_line(tmp_path, capsys):
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(make_config(checks=[
        {"name": "hypothesis", "integrand": {"name": "exp_decay"}, "weight_power": 400,
         "expect": "converges"}])))
    assert cli.main(["solve", str(path), "--out-dir", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: tail integrand overflows a float on the piece "
                            "[4, 8]\n")


# one number of a builtin config set to 1e300, and where it overflows
@pytest.mark.parametrize("ident, path, command, err", [
    ("manufactured_tau2", ("problem", "rhs", "params", "mu"), "study",
     "config error:"),  # the rhs constant, at load
    ("manufactured_tau2_seq", ("grid", "t_end"), "study",
     "error: corrector weight h^mu / Gamma(mu+2) overflows a float"),  # h^mu
    ("example46", ("problem", "b1"), "solve",
     "error: OverflowError in asymptotics.power_slope: "),  # slope check
    ("example46", ("problem", "b2"), "solve",
     "error: growth envelope constant C1 overflows a float"),  # the envelope's first branch
    ("example63", ("problem", "b1"), "solve", "error:"),  # L^q Bihari bound
    ("example63", ("checks", 1, "q"), "solve",
     "error: OverflowError in bounds.uniform_bound_constant: "),  # uniform bound constant
    ("example46", ("grid", "t_end"), "solve",
     "error: corrector weight h^mu / Gamma(mu+2) overflows a float"),  # h^mu
])
def test_cli_reports_an_overflow_of_a_huge_config_number_as_one_error_line(
        ident, path, command, err, tmp_path, capsys):
    doc = _builtin_json(ident)
    leaf = doc
    for key in path[:-1]:
        leaf = leaf[key]
    leaf[path[-1]] = 1e300
    config = tmp_path / "huge.json"
    config.write_text(json.dumps(doc))
    assert cli.main([command, str(config), "--n-steps", "32", "--out-dir", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(err), lines


@pytest.mark.parametrize("ident", ["manufactured_tau2", "manufactured_tau2_seq"])
def test_cli_reports_an_overflowing_solution_as_one_solver_failure(ident, tmp_path, capsys):
    # the corrector weights stay finite, but the solution overflows a float
    args = ["study", ident, "--t-end", "1e200", "--n-steps", "32", "--out-dir", str(tmp_path)]
    assert cli.main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("solver failure: "), lines


# a finite number that loads but makes a constant of the run overflow, and
# the one line that names that constant
@pytest.mark.parametrize("ident, edits, err", [
    ("example46", {("problem", "b2"): 1.7e308},
     "error: initial-value coefficient b2 / Gamma(alpha+1) overflows a float"),
    ("example63", {("problem", "b1"): 1e308, ("checks", 1, "variant"): "literal"},
     "error: L^q bound constant 2^(q-1) K overflows a float"),
])
def test_cli_names_an_overflowing_constant_in_one_error_line(ident, edits, err, tmp_path,
                                                             capsys):
    doc = _builtin_json(ident)
    for path, value in edits.items():
        leaf = doc
        for key in path[:-1]:
            leaf = leaf[key]
        leaf[path[-1]] = value
    config = tmp_path / "huge.json"
    config.write_text(json.dumps(doc))
    assert cli.main(["solve", str(config), "--n-steps", "32", "--out-dir", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == err + "\n"


def test_cli_reports_a_doubling_piece_past_the_float_range_as_one_error_line(tmp_path,
                                                                            capsys):
    doc = _builtin_json("example46")
    doc["checks"] = [{"name": "hypothesis", "integrand": {"name": "exp_decay"},
                      "split": 1e308, "expect": "converges"}]
    config = tmp_path / "huge_split.json"
    config.write_text(json.dumps(doc))
    assert cli.main(["solve", str(config), "--n-steps", "32", "--out-dir", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: the piece [1e+308, inf] of a tail integral has no "
                            "finite upper end\n")


def test_cli_reports_an_overflowing_doubling_piece_as_one_error_line(tmp_path, capsys):
    # phi1^q phi2^q of the boundedness check overflows on the first piece of
    # its reciprocal-integral verdict
    doc = _builtin_json("example63_forced")
    doc["checks"][0]["q"] = 1024
    config = tmp_path / "huge_q.json"
    config.write_text(json.dumps(doc))
    assert cli.main(["solve", str(config), "--n-steps", "32", "--out-dir", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: tail integrand overflows a float on the piece "
                            "[3.43597e+10, 6.87195e+10]\n")


def test_cli_names_the_function_that_encloses_an_overflowing_closure():
    # the weighted majorant integrand is a lambda of bounds.linear_class_bound,
    # named from the enclosing frame that holds its code object
    zero = bounds.LipschitzClassFunction(lambda tau, s: 0.0, lambda tau: 0.0)
    h = GridFunction(2.0, np.zeros(17))
    with pytest.raises(OverflowError) as info:
        bounds.linear_class_bound(1.0, 1.0, 1.0, 1.0, 1e300, zero, zero, h, 2.0)
    assert cli._innermost(info.value) == "bounds.linear_class_bound.<locals>.<lambda>"


def test_cli_names_itself_when_no_package_frame_was_passed():
    with pytest.raises(OverflowError) as info:
        math.exp(1000.0)
    assert cli._innermost(info.value) == "cli.main"


def test_cli_names_a_closure_called_after_its_maker_returned():
    # no frame of the maker is left in the traceback; the closure's own
    # function object carries the enclosing name
    phi = bounds._composite_power_nonlinearity(
        catalog.make_phi("constant", {"value": 1e200}), catalog.make_phi("identity"), 2.0)
    with pytest.raises(OverflowError) as info:
        phi(4.0)
    assert cli._innermost(info.value) == "bounds._composite_power_nonlinearity.<locals>.fn"


# a weight with a pole at 0: the envelope's weighted tail diverges (-0.5 +
# alpha >= -1), or its tail converges (-2 + alpha < -1) but the grid holds
# the pole; the boundedness weight is sampled at 0 too
@pytest.mark.parametrize("ident, index, exponent, reason", [
    ("example46", 2, -0.5, "weighted tail integral of power must converge (verdict: diverges)"),
    ("example46", 2, -2.0, "weight power must be finite on the grid, got inf at tau = 0"),
    ("example63", 1, -0.5, "weight power must be finite on the grid, got inf at tau = 0"),
])
def test_cli_a_weight_with_a_pole_fails_its_hypothesis(ident, index, exponent, reason,
                                                        tmp_path, capsys):
    doc = _builtin_json(ident)
    check = dict(doc["checks"][index], weight={"name": "power",
                                               "params": {"exponent": exponent}})
    doc.update(checks=[check], output={})
    config = tmp_path / "pole.json"
    config.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would reach stderr
        code = cli.main(["solve", str(config), "--n-steps", "256"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (2, "")
    assert (f"CHECK {check['name']}: FAILED-HYPOTHESIS measured={reason} "
            f"expected=hypothesis holds tol=-") in captured.out.splitlines()


@pytest.mark.parametrize("params, b1, line", [
    pytest.param({"v_exponent": -0.5}, 1.0, "solver failure: step 1 (tau=3.125): "
                 "rhs returned non-finite value nan", id="node_1_of_a_singular_rhs"),
    pytest.param({"pre_exponent": 0.5, "u_exponent": -0.5}, 0.0, "solver failure: "
                 "step 0 (tau=0): rhs returned non-finite value nan", id="node_0"),
])
def test_a_nonfinite_rhs_at_the_lead_node_is_one_stderr_line(params, b1, line, tmp_path):
    # in a fresh interpreter with the default warning filters, so that a
    # numpy warning would reach stderr as it does for a user
    doc = _builtin_json("example63")
    doc["problem"]["b1"] = b1
    doc["problem"]["rhs"]["params"].update(params)
    path = tmp_path / "lead.json"
    path.write_text(json.dumps(doc))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = str(Path(fracasym.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-m", "fracasym.cli", "solve", str(path),
                           "--n-steps", "64", "--out-dir", str(tmp_path)],
                          env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", line + "\n")


@pytest.mark.parametrize("ident", catalog.builtin_config_ids())
def test_builtin_config_runs_end_to_end(ident, tmp_path, capsys):
    command = "study" if harness.load_builtin_config(ident).refinement_levels >= 2 else "solve"
    code = cli.main([command, ident, "--out-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert captured.err == ""  # no warning or message leaks from a builtin run
    verdicts = [line.split()[2] for line in captured.out.splitlines()
                if line.startswith("CHECK ")]
    if ident == "hypothesis_violation":
        assert (code, verdicts) == (2, ["FAILED-HYPOTHESIS"])
    else:
        assert code == 0
        assert verdicts and all(v == "PASS" for v in verdicts), verdicts


def test_cli_evaluates_the_hypothesis_check_before_solving(tmp_path, capsys, monkeypatch):
    # the hypothesis check reads no solution, so its error must come
    # before a solve (here of 4096 steps)
    def unreachable(*args):
        raise AssertionError("solved before the hypothesis check was evaluated")

    monkeypatch.setattr(harness, "solve_direct", unreachable)
    monkeypatch.setattr(harness, "solve_sequential", unreachable)
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(make_config(
        grid={"t_end": 20.0, "n_steps": 4096},
        checks=[{"name": "closed_form", "tolerance": 1e-10},
                {"name": "hypothesis", "integrand": {"name": "exp_decay"},
                 "weight_power": 400, "expect": "converges"}])))
    assert cli.main(["solve", str(path), "--out-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err == ("error: tail integrand overflows a float on the "
                                       "piece [4, 8]\n")


def test_hypothesis_check_keeps_its_place_in_the_report():
    config = harness.load_config(make_config(checks=[
        {"name": "closed_form", "tolerance": 1e-10},
        {"name": "hypothesis", "integrand": {"name": "exp_decay"}, "expect": "converges"},
        {"name": "residual", "tolerance": 1e-10}]))
    report = harness.run(config)
    assert [c.name for c in report.checks] == ["closed_form", "hypothesis", "residual"]
    assert report.exit_code == 0


def test_cli_bad_config(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(make_config(extra=1)))
    assert cli.main(["solve", str(bad), "--out-dir", str(tmp_path)]) == 1


def test_cli_file_config(tmp_path, capsys):
    path = tmp_path / "ok.json"
    path.write_text(json.dumps(make_config()))
    assert cli.main(["solve", str(path), "--out-dir", str(tmp_path)]) == 0
