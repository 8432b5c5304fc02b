"""Record the golden outputs the benchmark compares against.

Run from the repository root, once per commit whose outputs define
"correct" (each case builds all six tables, about a minute)::

    python3 perfbench/make_golden.py            # every case
    python3 perfbench/make_golden.py 0 2 4 6    # some cases

Writes ``perfbench/golden/case<k>.json`` with the seeded inputs, a
digest of every table, every ``optimize`` result and every chain.
"""

import json
import sys
from pathlib import Path

import workloads as wl

ROOT = Path(__file__).resolve().parent.parent


def record(pkg, case: int) -> dict:
    inputs = wl.case_inputs(case)
    eta = inputs["eta"]
    golden = {"inputs": inputs, "tables": {}, "optimize": {}, "chains": {}}
    for kind in inputs["kinds"]:
        golden["tables"][kind] = wl.table_digest(wl.build_table(pkg, kind, eta))
    for item in inputs["optimize"]:
        found = wl.run_optimize(pkg, eta, item)
        golden["optimize"][wl.config_key(item)] = wl.optimize_digest(found)
    for item in inputs["chains"]:
        for waiting in ("deterministic", "mc"):
            result = wl.run_chain(pkg, eta, item, waiting)
            golden["chains"][f"{wl.config_key(item)}-{waiting}"] = wl.chain_digest(result)
    return golden


def main(argv: list[str]) -> int:
    pkg = wl.load_package(ROOT)
    cases = [int(a) for a in argv] or list(range(wl.N_CASES))
    wl.GOLDEN_DIR.mkdir(exist_ok=True)
    for case in cases:
        path = wl.GOLDEN_DIR / f"case{case}.json"
        path.write_text(json.dumps(record(pkg, case), indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(ROOT)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
