"""Tests of the benchmark itself, at smoke sizes.

    python -m pytest perfbench/test_perfbench.py

Every workload runs in both modes and passes its correctness gate; every
metric named in BENCHMARK.json is emitted with its unit; in an untraced run
every operation is followed by reference passes that take at least as long;
counts and the closed-form error repeat exactly between two runs with the
same seed; the gate flags a perturbed reference and accepts a change far
inside its tolerance; traced self times add up to the operation time.
"""

import copy
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# Largest share of a traced operation's time that may fall outside every
# layer span: the benchmark's own bookkeeping around the call.
UNATTRIBUTED_MARGIN = 0.02

sys.path[:0] = [str(ROOT / "src"), str(HERE)]
import workloads  # noqa: E402


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--smoke",
         "--trace", str(trace), "--seed", "3"],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def results(request):
    name = request.param
    # two runs per mode, both with seed 3; the spans file is the second
    # traced run's
    return name, {trace: [_run(name, trace) for _ in range(2)] for trace in (0, 1)}


def test_workload_runs_and_passes_its_gate(results):
    _, by_trace = results
    for result in by_trace[0] + by_trace[1]:
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1


def test_every_metric_is_emitted_with_its_unit(results):
    _, by_trace = results
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        metrics = by_trace[trace][0]["metrics"]
        assert {k: v["unit"] for k, v in metrics.items()} == {
            m["name"]: m["unit"] for m in BENCHMARK[group]}
        assert all(math.isfinite(v["value"]) for v in metrics.values())


def test_each_operation_is_followed_by_as_long_a_reference(results):
    name, _ = results
    record = json.loads((ROOT / ".perfbench_run" / f"BENCH_{name}_trace0.json").read_text())
    assert len(record["refs"]) == len(record["ops"])
    for (_, wall, _), (ref_wall, passes) in zip(record["ops"], record["refs"]):
        assert passes >= 1 and ref_wall >= wall


def test_counts_and_closed_form_error_repeat_between_runs(results):
    _, by_trace = results
    for runs in by_trace.values():
        first, second = (run["metrics"] for run in runs)
        exact = [k for k, v in first.items()
                 if v["unit"] in ("count", "B") or k == "closed_form_err_max"]
        assert exact
        assert {k: first[k] for k in exact} == {k: second[k] for k in exact}


def test_traced_self_times_add_up_to_the_operation_time(results):
    name, by_trace = results
    assert by_trace[1][1]["metrics"]["trace.unattributed_frac"]["value"] <= UNATTRIBUTED_MARGIN
    with np.load(ROOT / ".perfbench_run" / f"spans_{name}.npz") as data:
        names = data["names"][data["name"]]
        dur = data["end"] - data["start"]
        parent, op = data["parent"], data["op"]
    child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=dur.size)
    self_time = dur - child
    assert self_time.min() > -1e-9  # spans nest: children never outlast parents
    for i in np.flatnonzero(names == "op"):
        layers = self_time[(op == op[i]) & (names != "op")].sum()
        assert (1 - UNATTRIBUTED_MARGIN) * dur[i] <= layers <= dur[i] + 1e-9


def test_gate_flags_a_perturbed_reference(tmp_path):
    large = workloads.SolveLarge(0, True, tmp_path)
    large.load()
    assert large.run("sl_example46").failures == []
    large.refs["sl_example46"]["measured"]["slope_accelerated"] *= 1 + 1e-4
    assert large.run("sl_example46").failures
    row = large.refs["sl_example63_forced"]["samples"]["2048"]
    row[1] *= 1 + 1e-4
    assert large.run("sl_example63_forced").failures
    large.refs["sl_example63_forced"]["checks"][0][1] = "FAIL"
    assert any("checks" in f for f in large.run("sl_example63_forced").failures)


def test_gate_accepts_changes_far_inside_its_tolerance():
    ref = workloads.load_references("solve_large")["4096"]["sl_example46"]
    nudged = copy.deepcopy(ref)
    nudged["measured"] = {k: v * (1 + 1e-9) for k, v in ref["measured"].items()}
    nudged["samples"] = {row: [None if v is None else v * (1 + 1e-9) for v in values]
                         for row, values in ref["samples"].items()}
    assert workloads.compare(nudged, ref) == []
    assert workloads.compare(nudged, ref, rtol=1e-12)
