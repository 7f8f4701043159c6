"""Fresh-interpreter set-up probe for the benchmark; not meant to be run by hand.

    child.py WORKLOAD SEED SMOKE

Import fracasym and fracasym.cli, load the workload's configs, and print one
JSON line: the perf_counter reading when it was ready (the clock is
system-wide, so the parent can subtract its spawn time), the import and
config-load times and the number of scipy modules the import loaded.
"""

import json
import sys
import time


def main(workload: str, seed: int, smoke: bool) -> int:
    t0 = time.perf_counter()
    import fracasym  # noqa: F401
    import fracasym.cli  # noqa: F401
    t1 = time.perf_counter()
    scipy_modules = sum(1 for m in sys.modules if m == "scipy" or m.startswith("scipy."))

    import workloads

    t2 = time.perf_counter()
    workloads.WORKLOADS[workload](seed, smoke, tmp=None).load()
    ready = time.perf_counter()
    print(json.dumps({"ready": ready, "import_s": t1 - t0, "load_config_s": ready - t2,
                      "scipy_modules_at_import": scipy_modules}))
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit(f"usage: child.py WORKLOAD SEED SMOKE, not {sys.argv[1:]}")
    sys.exit(main(sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"))
