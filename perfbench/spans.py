"""In-memory span tracer that times fracasym's layers from outside.

A span is (name, start, end, parent span, operation id, work).  Spans live in
flat in-memory columns and are written out once, when the run ends.  `work`
is a count computed from the call's arguments: multiply-adds for the
`_core` kernels, grid steps for the solvers, 0 elsewhere.

`instrumented(tracer)` replaces each layer's public entry points, in the
namespace of the module that calls them, with timing wrappers, and puts the
originals back on exit.  No code under src/ changes.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import types
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

_COLUMNS = (("name", "i"), ("start", "d"), ("end", "d"), ("parent", "i"),
            ("op", "i"), ("work", "q"))

# Layer prefix of every span name.  "rhs" is the problem's right-hand side,
# called by the solvers; "op" is the benchmark's own operation span.
LAYERS = ("op", "harness", "solvers", "rhs", "core", "fracops", "bounds", "asymptotics")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.cols = {key: array(code) for key, code in _COLUMNS}
        self.counts: dict[int, Counter] = {}  # op id -> counters reported by wrappers
        self._stack: list[int] = []
        self.op_id = -1
        c = self.cols
        self._ends = c["end"]
        self._appends = (c["name"].append, c["parent"].append, c["op"].append,
                         c["work"].append, c["end"].append, c["start"].append)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, nid: int, work: int = 0) -> int:
        stack = self._stack
        i = len(self._ends)
        name, parent, op, work_, end, start = self._appends
        name(nid)
        parent(stack[-1] if stack else -1)
        op(self.op_id)
        work_(work)
        end(0.0)
        stack.append(i)
        start(perf_counter())
        return i

    def finish(self, i: int) -> None:
        self._ends[i] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, work: int = 0):
        i = self.begin(self.name_id(name), work)
        try:
            yield i
        finally:
            self.finish(i)

    def count(self, key: str, value: int) -> None:
        self.counts.setdefault(self.op_id, Counter())[key] += value

    def wrap(self, fn, name: str, work=None, after=None):
        """`fn` timed as span `name`; `work(*args)` sizes it, `after(result)`
        reads counters off the result."""
        nid = self.name_id(name)
        begin, finish = self.begin, self.finish

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = begin(nid, work(*args) if work else 0)
            try:
                out = fn(*args, **kwargs)
            finally:
                finish(i)
            if after is not None:
                after(out)
            return out

        return traced

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names, dtype=str),
                 counts=json.dumps({str(k): v for k, v in self.counts.items()}),
                 **{key: np.frombuffer(col, dtype=col.typecode)
                    for key, col in self.cols.items()})

    def table(self) -> dict[str, np.ndarray]:
        """Columns as numpy arrays plus each span's duration and self time."""
        t = {key: np.frombuffer(col, dtype=col.typecode).copy()
             for key, col in self.cols.items()}
        t["dur"] = t["end"] - t["start"]
        has_parent = t["parent"] >= 0
        child = np.bincount(t["parent"][has_parent], weights=t["dur"][has_parent],
                            minlength=t["dur"].size)
        t["self"] = t["dur"] - child
        t["names"] = np.array(self.names, dtype=object)[t["name"]]
        t["layer"] = np.array([n.split(".", 1)[0] for n in self.names], dtype=object)[t["name"]]
        return t


@contextmanager
def instrumented(tracer: Tracer):
    """Wrap fracasym's layer entry points as their callers see them."""
    from fracasym import asymptotics, bounds, catalog, fracops, harness, solvers

    w = tracer.wrap
    cap = solvers._FIXED_POINT_CAP  # iterations == cap marks a root-finding fallback

    def solution_counts(sol):
        iters = sol.corrector_iterations[1:]
        tracer.count("corrector_iters", int(iters.sum()))
        tracer.count("corrector_nodes", int(iters.size))
        tracer.count("fallback_nodes", int((iters >= cap).sum()))

    def solver(name):
        return w(getattr(harness, name), f"solvers.{name}",
                 work=lambda spec, t_end, n_steps: int(n_steps), after=solution_counts)

    k = solvers.kernels
    kernels = types.SimpleNamespace(
        pc_sums=w(k.pc_sums, "core.pc_sums",
                  work=lambda bx, ax, bv, av, f, n, j0: (2 * n - j0 - 1) * (2 if bv.size else 1)),
        trap_apply=w(k.trap_apply, "core.trap_apply",
                     work=lambda a, c, f, s: (f.size - 1) * (f.size - 2) // 2),
        conv_lower=w(k.conv_lower, "core.conv_lower",
                     work=lambda b, g, s: g.size * (g.size + 1) // 2))

    build_spec = catalog.build_problem_spec

    def traced_spec(problem):
        spec = build_spec(problem)
        rhs = dataclasses.replace(spec.rhs, fn=w(spec.rhs.fn, "rhs"))
        return dataclasses.replace(spec, rhs=rhs)

    patches = [
        (solvers, "kernels", kernels),
        (fracops, "kernels", kernels),
        (catalog, "build_problem_spec", traced_spec),
        (bounds, "quad", w(bounds.quad, "bounds.quad")),
        (harness, "solve_direct", solver("solve_direct")),
        (harness, "solve_sequential", solver("solve_sequential")),
        (harness, "residual_check", w(harness.residual_check, "solvers.residual_check")),
        (harness, "run", w(harness.run, "harness.run")),
        (harness, "convergence_study", w(harness.convergence_study,
                                         "harness.convergence_study")),
        (harness, "load_config", w(harness.load_config, "harness.load_config")),
    ]
    for name in ("rectangle_coefficients", "trapezoid_coefficients"):
        for module in (solvers, fracops):
            patches.append((module, name, w(getattr(module, name), "fracops.weights")))
    for module in (solvers, asymptotics):
        patches.append((module, "rl_integral", w(module.rl_integral, "fracops.rl_integral")))
    for name in ("power_slope", "lhopital_residual", "improper_tail", "boundedness_verdict"):
        patches.append((harness, name, w(getattr(harness, name), f"asymptotics.{name}")))
    for name in ("growth_envelope_constants", "uniform_bound_constant"):
        patches.append((harness, name, w(getattr(harness, name), f"bounds.{name}")))

    saved = [(module, name, getattr(module, name)) for module, name, _ in patches]
    try:
        for module, name, value in patches:
            setattr(module, name, value)
        yield
    finally:
        for module, name, value in saved:
            setattr(module, name, value)
