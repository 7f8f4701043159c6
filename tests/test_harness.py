import json

import numpy as np
import pytest

from fracasym import BoundReport, ConfigError, solve_sequential
from fracasym import catalog, cli, harness


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
])
def test_cli_reports_malformed_config_as_config_error(text, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(ConfigError):
        harness.load_config(path)
    assert cli.main(["solve", str(path), "--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")


def test_config_numbers_are_converted_at_load():
    doc = make_config(seed="7")
    doc["grid"].update(t_end="20", n_steps=64.0)
    doc["problem"]["alpha"] = "0.5"
    config = harness.load_config(doc)
    assert (config.t_end, config.n_steps, config.seed) == (20.0, 64, 7)
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
        return BoundReport(source="uniform_bound",
                           constants={"C": sup_x / (1.0 + 1e-6), "tau0": 0.0})

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


# --------------------------------------------------------------------------
# convergence study

def test_study_manufactured(tmp_path):
    config = harness.load_builtin_config("manufactured_tau2")
    report = harness.convergence_study(config, out_dir=tmp_path)
    assert report.overall_pass
    orders = [line for line in report.info_lines if line.startswith("order")]
    assert len(orders) == config.refinement_levels - 1


def test_study_roundoff_reports_exact(tmp_path):
    doc = make_config(grid={"t_end": 20.0, "n_steps": 32, "refinement_levels": 2},
                      checks=[{"name": "closed_form", "tolerance": 1e-10},
                              {"name": "order", "min_order": 1.0}])
    report = harness.convergence_study(harness.load_config(doc), out_dir=tmp_path)
    assert report.overall_pass
    assert any("exact" in line for line in report.info_lines)


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


def test_cli_catalog(capsys):
    assert cli.main(["catalog"]) == 0
    assert "example46" in capsys.readouterr().out


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


def test_cli_bad_override_is_a_config_error(tmp_path, capsys):
    code = cli.main(["solve", "zero_rhs", "--out-dir", str(tmp_path), "--t-end", "-1"])
    assert code == 1
    assert capsys.readouterr().err.startswith("config error: grid.t_end")


def test_cli_bad_config(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(make_config(extra=1)))
    assert cli.main(["solve", str(bad), "--out-dir", str(tmp_path)]) == 1


def test_cli_file_config(tmp_path, capsys):
    path = tmp_path / "ok.json"
    path.write_text(json.dumps(make_config()))
    assert cli.main(["solve", str(path), "--out-dir", str(tmp_path)]) == 0
