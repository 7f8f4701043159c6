"""Record the correctness-gate references from the current sources.

    python3 perfbench/record_references.py

Writes perfbench/references.json: for solve_large, at the full and the
smoke N, each problem's verdicts, measured values and sampled CSV rows, with
the scales the comparisons use.  References change
only on purpose; review the diff before committing it.
"""

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    tmp = HERE.parent / ".perfbench_run" / "record"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    refs = {"solve_large": {}}
    try:
        for smoke in (False, True):
            large = workloads.SolveLarge(0, smoke, tmp)
            large.load()
            refs["solve_large"][str(large.size)] = {
                key: large.observe(key)[0] for key in sorted(large.inputs)}
            print("solve_large", large.size)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    workloads.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
