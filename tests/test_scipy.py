"""No part of the package imports scipy.

The quadrature of the bound checks is the package's own
(`fracasym._quadrature`), and the Bihari inverse takes Newton steps on the
transform instead of calling a root finder; scipy is only a test oracle, and
this file imports none of it, so that it runs where scipy is not installed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# a fresh interpreter whose first import finder refuses scipy runs every
# builtin through the CLI: the bound_envelope, boundedness and hypothesis
# checks among them
_PROBE = """
import json, sys, tempfile

refused = []


class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            refused.append(name)
            raise ImportError(f"import of {name} refused")
        return None


sys.meta_path.insert(0, RefuseScipy())

from fracasym import catalog, cli
from fracasym.catalog import signed_power
from fracasym.solvers import ProblemKind, ProblemSpec, RightHandSide, solve_direct

studies = ("manufactured_tau2", "manufactured_tau2_seq")
with tempfile.TemporaryDirectory() as tmp:
    codes = {"catalog": cli.main(["catalog"])}
    for ident in catalog.builtin_config_ids():
        codes[ident] = cli.main(["study" if ident in studies else "solve", ident,
                                 "--out-dir", tmp])
    # a stiff right-hand side without partials: the corrector's own sweeps,
    # on the difference quotients of its fn
    stiff = RightHandSide(lambda t, u, v: 5.0 * signed_power(v, 1.0 / 3.0) + 1.0)
    solve_direct(ProblemSpec(ProblemKind.DIRECT, 0.6, 0.4, 0.0, stiff), 2.0, 128)
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"codes": codes, "refused": refused, "loaded": loaded}))
"""


def test_no_run_imports_scipy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", _PROBE], env=env, check=True,
                          capture_output=True, text=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == {"catalog": 0, "example46": 0, "example63": 0,
                               "example63_forced": 0, "hypothesis_violation": 2,
                               "manufactured_tau2": 0, "manufactured_tau2_seq": 0,
                               "zero_rhs": 0}
    for line in ("CHECK bound_envelope: PASS", "CHECK hypothesis: PASS",
                 "CHECK boundedness: PASS", "CHECK boundedness: FAILED-HYPOTHESIS"):
        assert line in proc.stdout
    assert proc.stderr == ""
    assert result["refused"] == []
    assert result["loaded"] == []
