"""Run the benchmark over several seeds and report each metric's spread.

Run from the repository root::

    python3 perfbench/spread.py --workloads single_chain --seeds 1-5
    python3 perfbench/spread.py --seeds 1-10 --out perfbench/baseline.json

For every workload and metric it prints the median of the per-run
values and the spread (q3 - q1) / median, with quartiles as
``statistics.quantiles(values, n=4)`` gives them.  Runs are sequential.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_of(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return {"report": json.loads(lines[-2])["report"], "result": json.loads(lines[-1])}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write runs and summary as JSON")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out = {}
    for workload in args.workloads:
        runs = []
        for seed in seeds_of(args.seeds):
            run = run_once(workload, seed, args.seconds, args.trace)
            runs.append(run)
            print(f"{workload} seed {seed}: correct={run['result']['correct']} "
                  + " ".join(f"{k}={v['value']:.6g}"
                             for k, v in run["result"]["metrics"].items()), flush=True)
        summary = {}
        for name in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else 0.0
            summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread}
            bound = bounds.get(name)
            flag = "" if bound is None else f"  bound {bound} ({spread / bound:.0%} of it)"
            print(f"  {name}: median {median:.6g} spread {spread:.4f}{flag}", flush=True)
        out[workload] = {"summary": summary,
                         "runs": [{"seed": s, **r} for s, r in zip(seeds_of(args.seeds), runs)]}
    if args.out:
        args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
