"""fracasym benchmark: end-to-end and per-layer metrics for two workloads.

    python3 perfbench/run.py --workload {solve_large,sweep_small}
        [--seed N] [--seconds S] [--trace 0|1] [--smoke]

Run from anywhere; the package is imported from the `src/` directory next to
`perfbench/`.  Each run sets up, warms up, then runs whole cycles over the
workload's inputs until --seconds (by default run_seconds of BENCHMARK.json)
have passed, checking every operation's outputs; untraced runs time a
reference loop after each operation (see end_to_end).  The last line of standard
output is one JSON object with the keys `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1.  The line before it stamps the environment.  A full record
goes to `.perfbench_run/` at the root of the checkout, and with --trace 1 so
do the spans.  --smoke runs one cycle at tiny sizes.  See perfbench/README.md
for what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_run"

# Set-up is timed in this many fresh interpreters, and the fastest counts.
SETUP_RUNS = 10
SCALING_OP = -2  # op id of the extra traced solves that only feed the scaling fit
# Each is set to 1 unless the caller set it: the client is single-threaded,
# and on two shared cores multi-threaded BLAS dot products ran slower and
# spread two to three times wider than single-threaded ones.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SOLVER_SPANS = ("solvers.solve_direct", "solvers.solve_sequential")
# The CPUs the benchmark may use, before it pins itself to the first of them:
# the ratio of operation to reference time differed by about 4 % between the
# two CPUs of a shared host, and a process left free could land on either.
CPUS = sorted(os.sched_getaffinity(0))


def measure_setup(name: str, seed: int, smoke: bool) -> list[dict]:
    """Fresh interpreters that import fracasym and load the workload's configs."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    runs = []
    for _ in range(1 if smoke else SETUP_RUNS):
        spawned = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), name, str(seed),
             "1" if smoke else "0"],
            capture_output=True, text=True, env=env, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup child failed: {proc.stderr.strip()}")
        info = json.loads(proc.stdout.strip().splitlines()[-1])
        info["setup_s"] = info.pop("ready") - spawned
        runs.append(info)
    return runs


def run_cycles(wl, seconds: float, trace: bool, smoke: bool, tracer):
    """Whole cycles over wl.inputs until `seconds` have passed.  When tracing,
    cycles alternate traced and untraced, starting traced.  Otherwise each
    operation is followed by passes of the reference loop until they have
    taken as long as the operation; they are recorded as [wall, passes]."""
    ops, cycles, refs = [], [], []
    started = time.perf_counter()
    while True:
        traced = trace and len(cycles) % 2 == 0
        first = len(ops)
        with spans.instrumented(tracer) if traced else nullcontext():
            for key in wl.inputs:
                if traced:
                    tracer.op_id = len(ops)
                op = wl.run(key, tracer if traced else None)
                op.traced = traced
                ops.append(op)
                if not trace:
                    refs.append([0.0, 0])
                    while refs[-1][0] < op.wall:
                        refs[-1][0] += workloads.reference_loop(wl.ref_sizes)
                        refs[-1][1] += 1
        cycles.append((traced, list(range(first, len(ops)))))
        enough = len(cycles) >= (2 if trace else 1)
        if enough and (smoke or time.perf_counter() - started >= seconds):
            return ops, cycles, refs


def end_to_end(wl, setup, ops, refs, failed_frac: float) -> dict:
    # Operation time is reported relative to a reference loop that runs, for
    # as long again, after every operation.  On a shared host, interference
    # slows single-core speed, at times to about half, in bursts far shorter
    # than a solve_large operation and at a level that drifts over minutes.
    # A 2.5 s operation averages over the bursts, so even the fastest one of
    # a 30 s run follows the drift (quartile spread 0.11 to 0.29 over sets of
    # ten runs), while the ratio of the mean operation to the mean reference
    # pass, timed in alternation over the same run, cancels it.  Whole cycles
    # run, so the mix of inputs is fixed.  Wall times, their median and p90 go
    # to the run record.  Set-up is the fastest of SETUP_RUNS fresh processes.
    op_mean = statistics.fmean(op.wall for op in ops)
    ref_pass = sum(wall for wall, _ in refs) / sum(passes for _, passes in refs)
    return {
        "setup_s": (min(r["setup_s"] for r in setup), "s"),
        "op_time_rel": (op_mean / ref_pass, "1"),
        "peak_rss_mb": (wl.peak_rss_mb(), "MB"),
        "ok_frac": (1.0 - failed_frac, "frac"),
        "closed_form_err_max": (wl.closed_form_err_max, "1"),
    }


def per_layer(setup, ops, cycles, tracer, failed_frac: float) -> tuple[dict, list[str], dict, dict]:
    import numpy as np

    t = tracer.table()
    traced_ops = [i for traced, ids in cycles if traced for i in ids]
    in_ops = np.isin(t["op"], traced_ops)
    names, layer = t["names"], t["layer"]

    def per_op(mask, col="dur"):
        return float(t[col][mask & in_ops].sum() / len(traced_ops))

    def cycle_counts(ids):
        m = np.isin(t["op"], ids)
        pc = m & (names == "core.pc_sums")
        c = {"rhs_evals": int((m & (names == "rhs")).sum()),
             "pc_sums_calls": int(pc.sum()), "pc_sums_madds": int(t["work"][pc].sum()),
             "trap_apply_madds": int(t["work"][m & (names == "core.trap_apply")].sum()),
             "quad_calls": int((m & (names == "bounds.quad")).sum()),
             "corrector_iters": 0, "corrector_nodes": 0, "fallback_nodes": 0}
        for i in ids:
            for key, value in tracer.counts.get(i, {}).items():
                c[key] += value
        return c

    failures = []
    counts = [cycle_counts(ids) for traced, ids in cycles if traced]
    if any(c != counts[0] for c in counts):
        failures.append(f"per-cycle counts differ between cycles: {counts}")
    counts = counts[0]
    scipy_counts = {r["scipy_modules_at_import"] for r in setup}
    if len(scipy_counts) != 1:
        failures.append(f"scipy module count differs between imports: {scipy_counts}")

    # log-log fit of the median solve time per N, over every traced solve
    solve = np.isin(names, SOLVER_SPANS) & (in_ops | (t["op"] == SCALING_OP))
    sizes = np.unique(t["work"][solve])
    med = [np.median(t["dur"][solve & (t["work"] == n)]) for n in sizes]
    exponent = float(np.polyfit(np.log(sizes), np.log(med), 1)[0]) if sizes.size > 1 else float("nan")

    traced_walls = [ops[i].wall for i in traced_ops]
    untraced_walls = [ops[i].wall for traced, ids in cycles if not traced for i in ids]
    op_spans = in_ops & (names == "op")
    metrics = {
        "cli.import_s": (min(r["import_s"] for r in setup), "s"),
        "cli.scipy_modules_at_import": (setup[0]["scipy_modules_at_import"], "count"),
        "harness.load_config_s": (min(r["load_config_s"] for r in setup), "s"),
        "harness.self_s": (per_op(layer == "harness", "self"), "s"),
        "solvers.solve_s": (per_op(np.isin(names, SOLVER_SPANS)), "s"),
        "solvers.self_s": (per_op(layer == "solvers", "self"), "s"),
        "solvers.rhs_evals": (counts["rhs_evals"], "count"),
        "solvers.rhs_s": (per_op(names == "rhs"), "s"),
        "solvers.corrector_iters_mean": (counts["corrector_iters"]
                                         / max(counts["corrector_nodes"], 1), "count"),
        "solvers.fallback_nodes": (counts["fallback_nodes"], "count"),
        "solvers.scaling_exponent": (exponent, "1"),
        "core.pc_sums_s": (per_op(names == "core.pc_sums"), "s"),
        "core.pc_sums_calls": (counts["pc_sums_calls"], "count"),
        "core.pc_sums_madds": (counts["pc_sums_madds"], "count"),
        "core.pc_sums_bytes": (16 * counts["pc_sums_madds"], "B"),
        "core.trap_apply_s": (per_op(names == "core.trap_apply"), "s"),
        "core.trap_apply_madds": (counts["trap_apply_madds"], "count"),
        "fracops.weights_s": (per_op(names == "fracops.weights"), "s"),
        "fracops.rl_integral_s": (per_op(names == "fracops.rl_integral"), "s"),
        "bounds.s": (per_op(layer == "bounds", "self"), "s"),
        "bounds.quad_calls": (counts["quad_calls"], "count"),
        "asymptotics.s": (per_op(layer == "asymptotics", "self"), "s"),
        "trace.overhead_frac": (min(traced_walls) / min(untraced_walls) - 1.0, "frac"),
        "trace.unattributed_frac": (float(t["self"][op_spans].sum() / t["dur"][op_spans].sum()),
                                    "frac"),
        "failed_frac": (failed_frac, "frac"),
    }
    # each layer's self time, and the named spans' time, as shares of the
    # traced operations' time
    op_time = t["dur"][op_spans].sum()
    shares = {key: float(t["self"][in_ops & (layer == key)].sum() / op_time)
              for key in spans.LAYERS}
    shares["core.pc_sums"] = float(t["dur"][in_ops & (names == "core.pc_sums")].sum() / op_time)
    return metrics, failures, shares, counts


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".pyx", ".json"):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(wl, args) -> dict:
    import numpy
    import scipy

    import fracasym

    return {
        "workload": wl.name, "seed": args.seed, "n": wl.size, "smoke": args.smoke,
        "seconds": args.seconds, "trace": args.trace,
        "backend": fracasym.backend_name(),
        "FRACASYM_PURE_PYTHON": os.environ.get("FRACASYM_PURE_PYTHON"),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "cpus_usable": len(CPUS), "pinned_cpu": CPUS[0],
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": git_commit(), "source_digest": source_digest(),
        "machine": platform.machine(), "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one cycle at tiny sizes, for testing the benchmark")
    args = parser.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir()
    try:
        setup = measure_setup(args.workload, args.seed, args.smoke)
        wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke, tmp)
        wl.load()
        env = environment(wl, args)
        print("env " + json.dumps(env, sort_keys=True), flush=True)

        warm = wl.warmup()
        tracer = spans.Tracer() if args.trace else None
        ops, cycles, refs = run_cycles(wl, args.seconds, bool(args.trace), args.smoke, tracer)
        failures = [f"{op.key}: {p}" for op in warm + ops for p in op.failures]
        attempted = len(warm) + len(ops)
        failed = sum(1 for op in warm + ops if op.failures)
        shares = counts = None
        if args.trace:
            tracer.op_id = SCALING_OP
            with spans.instrumented(tracer):
                wl.scaling_ops()
            metrics, more, shares, counts = per_layer(setup, ops, cycles, tracer,
                                                      failed / attempted)
            failures += more
            tracer.save(OUT / f"spans_{wl.name}.npz")
        else:
            metrics = end_to_end(wl, setup, ops, refs, failed / attempted)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    walls = [op.wall for op in ops]
    record = {"env": env, "metrics": metrics, "failures": failures, "setup": setup,
              "layer_shares": shares, "cycle_counts": counts,
              "ops": [[op.key, op.wall, op.traced] for op in ops], "refs": refs,
              "op_min_s": min(walls), "op_p50_s": statistics.median(walls),
              "grid_steps_per_s": max(op.steps / op.wall for op in ops),
              "op_p90_s": statistics.quantiles(walls, n=10)[-1] if len(walls) > 1 else None,
              "samples_beyond_p90": len(walls) // 10,
              "grid_steps_per_s_all_ops": sum(op.steps for op in ops) / sum(walls)}
    (OUT / f"BENCH_{wl.name}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    for p in failures:
        print("FAILED " + p, file=sys.stderr)
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    if not (SRC / "fracasym" / "__init__.py").is_file():
        sys.exit(f"perfbench: no fracasym sources in {SRC}")
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    os.sched_setaffinity(0, CPUS[:1])
    sys.path.insert(0, str(SRC))
    import fracasym

    if Path(fracasym.__file__).resolve().parent != (SRC / "fracasym").resolve():
        sys.exit(f"perfbench: imported fracasym from {fracasym.__file__}, not {SRC}")
    import spans
    import workloads

    sys.exit(main())
