"""Benchmark for ensemble-repeater: cold table builds, optimize sweeps, single chains.

Run from the repository root::

    python3 perfbench/run.py --workload single_chain --seed 3 --seconds 10 --trace 0

One process, one caller, closed loop, ``workers=1``; BLAS/OpenMP threads
are capped at the CPUs this process may use.  The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``: end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.  The
line before it is a report with provenance and the named timings of
README.md; both also go to ``.perfbench_out/``.  ``--quick`` runs every
workload at its smallest size.  See README.md for the workloads and
metric definitions.
"""

import time

import speed

SLOW_START = speed.slowness(with_numpy=False)  # machine speed as the process starts
T0 = time.perf_counter()  # set-up time is measured from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

NPROC = len(os.sched_getaffinity(0))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

import workloads as wl  # noqa: E402
from spans import TABLE_KINDS, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("cold_tables", "optimize_sweep", "single_chain")
# extra fresh-process set-ups: with the main one a median of 3, or of 7
# for cold_tables, whose set-up is an import of about 0.1 s
SETUP_CHILDREN = {"cold_tables": 6, "optimize_sweep": 2, "single_chain": 2}
CHILD_TIMEOUT_S = 170

E2E_UNITS = {
    "setup_s": "s",
    "tables_cold_s": "s",
    "op_ms": "ms",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}
LAYER_UNITS = {
    "fock.states": "count",
    "fock.loss_s": "s",
    "fock.unitary_s": "s",
    "fock.pbs_s": "s",
    "fock.measure_s": "s",
    "fock.tensor_s": "s",
    "patterns.project_s": "s",
    **{f"circuits.entries.{k}": "count" for k in TABLE_KINDS},
    **{f"circuits.entry_s.{k}": "s" for k in TABLE_KINDS},
    **{f"tables.build_s.{k}": "s" for k in TABLE_KINDS},
    "tables.builds": "count",
    "tables.cache_hits": "count",
    "protocols.step_s": "s",
    "protocols.steps": "count",
    "protocols.eng_s": "s",
    "patterns.state_ops_s": "s",
    "chain.self_s": "s",
    "chain.calls": "count",
    "chain.mc_s": "s",
    "sweep.self_s": "s",
    "sweep.grid_points": "count",
    "sweep.zero_success": "count",
    "sweep.useful_ratio": "ratio",
    "trace.spans": "count",
    "trace.overhead_ms": "ms",
}


# ---------------------------------------------------------------------------
# helpers


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = ROOT / ".git" / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args, inputs) -> dict:
    import numpy

    return {
        "workload": args.workload, "seed": args.seed, "case": inputs["case"],
        "eta": inputs["eta"], "quick": args.quick, "trace": args.trace,
        "seconds": args.seconds, "nproc": NPROC,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "git_sha": git_sha(),
    }


def emit(payload: dict) -> None:
    print(json.dumps(payload), flush=True)


def child(kind: str, args, trace: int = 0, kinds: tuple = ()) -> dict:
    """Run one fresh interpreter and return its report."""
    cmd = [sys.executable, str(HERE / "run.py"), "--child", kind,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace)]
    if args.quick:
        cmd.append("--quick")
    if kinds:
        cmd += ["--kinds", ",".join(kinds)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise SystemExit(f"perfbench: {kind} child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# per-layer metrics


def snapshot(tracer: Tracer, pkg) -> tuple[dict, dict]:
    agg, counters = tracer.snapshot()
    counters["tables.cache_hits"], counters["tables.builds"] = pkg.cache_counts()
    return agg, counters


def delta(after, before):
    agg = {k: [v - w for v, w in zip(vals, before[0].get(k, [0, 0.0, 0.0]))]
           for k, vals in after[0].items()}
    counters = {k: v - before[1].get(k, 0) for k, v in after[1].items()}
    return agg, counters


def per_unit(setup, loop, cycles: int):
    """Set-up once plus one cycle of the timed loop."""
    agg = {k: list(v) for k, v in setup[0].items()}
    for k, vals in loop[0].items():
        base = agg.setdefault(k, [0, 0.0, 0.0])
        agg[k] = [b + v / cycles for b, v in zip(base, vals)]
    counters = dict(setup[1])
    for k, v in loop[1].items():
        counters[k] = counters.get(k, 0) + v / cycles
    return agg, counters


def layer_metrics(unit) -> dict:
    agg, counters = unit

    def self_s(*names):
        return sum(agg.get(n, [0, 0.0, 0.0])[2] for n in names)

    def calls(name):
        return agg.get(name, [0, 0.0, 0.0])[0]

    values = {
        "fock.states": counters.get("fock.states", 0),
        "fock.loss_s": self_s("fock.loss"),
        "fock.unitary_s": self_s("fock.unitary"),
        "fock.pbs_s": self_s("fock.pbs"),
        "fock.measure_s": self_s("fock.measure"),
        "fock.tensor_s": self_s("fock.tensor"),
        "patterns.project_s": self_s("patterns.project"),
        "tables.builds": counters.get("tables.builds", 0),
        "tables.cache_hits": counters.get("tables.cache_hits", 0),
        "protocols.step_s": self_s("protocols.step"),
        "protocols.steps": calls("protocols.step"),
        "protocols.eng_s": self_s("protocols.eng"),
        "patterns.state_ops_s": self_s("patterns.state_ops"),
        "chain.self_s": self_s("chain"),
        "chain.calls": calls("chain"),
        "chain.mc_s": self_s("chain.mc"),
        "sweep.self_s": self_s("sweep"),
        "sweep.grid_points": counters.get("sweep.grid_points", 0),
        "sweep.zero_success": counters.get("sweep.zero_success", 0),
        "trace.spans": sum(v[0] for v in agg.values()),
    }
    grid = values["sweep.grid_points"]
    values["sweep.useful_ratio"] = counters.get("sweep.useful", 0) / grid if grid else 0.0
    for kind in TABLE_KINDS:
        entry = agg.get("circuits.entry." + kind, [0, 0.0, 0.0])
        values["circuits.entries." + kind] = entry[0]
        values["circuits.entry_s." + kind] = entry[1]
        values["tables.build_s." + kind] = counters.get("tables.build_s." + kind, 0.0)
    return values


# ---------------------------------------------------------------------------
# set-up and child processes


def scale_layers(layers: dict, slowness: float) -> dict:
    return {k: v / slowness if LAYER_UNITS[k] in ("s", "ms") else v
            for k, v in layers.items()}


def import_package():
    """Import the package; returns it, the speed clock and the import piece."""
    clock = speed.SpeedClock(first=SLOW_START)
    token = clock.start(at=T0)
    pkg = wl.load_package(ROOT)
    piece = clock.stop(token, fresh=True)
    return pkg, clock, {"import": (clock.scaled(piece), piece[0])}


def build_tables(pkg, clock, kinds, eta, pieces: dict, checker=None) -> dict:
    """Build tables one by one; each build is a (scaled, raw) piece."""
    built = {}
    with clock.probing(pkg.tables, ("enc_entry", "enp_entry", "pme_entry")):
        for kind in kinds:
            token = clock.start()
            try:
                table = wl.build_table(pkg, kind, eta)
            except Exception as exc:  # a failed build is a failed operation
                if checker is None:
                    raise
                checker.record([f"{kind}: {exc!r}"])
                clock.sample()
                continue
            piece = clock.stop(token, fresh=True)
            pieces[kind] = (clock.scaled(piece), piece[0])
            built[kind] = table
    return built


def setup_sample(pieces: dict) -> dict:
    """Set-up and table time of one process, scaled and raw."""
    tables = [v for k, v in pieces.items() if k != "import"]
    return {"setup_s": sum(v[0] for v in pieces.values()),
            "tables_s": sum(v[0] for v in tables),
            "raw_setup_s": sum(v[1] for v in pieces.values()),
            "raw_tables_s": sum(v[1] for v in tables)}


def child_main(args) -> None:
    pkg, clock, pieces = import_package()
    inputs = wl.case_inputs(args.seed, args.quick)
    if args.child == "setup":
        kinds = [] if args.workload == "cold_tables" else wl.workload_kinds(args.workload, inputs)
        build_tables(pkg, clock, kinds, inputs["eta"], pieces)
        emit({**setup_sample(pieces), "rss_mb": rss_mb()})
        return

    # cold: build the workload's tables in this fresh interpreter
    tracer = Tracer(pkg) if args.trace else None
    if tracer:
        tracer.install()
    checker = wl.Checker(pkg, wl.load_golden(inputs["case"]))
    kinds = args.kinds.split(",") if args.kinds else inputs["kinds"]
    built = build_tables(pkg, clock, kinds, inputs["eta"], pieces, checker)
    report = {**setup_sample(pieces),
              "build_s": {k: v[0] for k, v in pieces.items() if k != "import"},
              "raw_build_s": {k: v[1] for k, v in pieces.items() if k != "import"},
              "slowness": clock.median(),
              "entries": sum(len(t.entries) for t in built.values())}
    if tracer:
        tracer.uninstall()
        report["layers"] = scale_layers(layer_metrics(snapshot(tracer, pkg)), clock.median())
        report["fock_states"] = {k: v for k, v in tracer.counters.items()
                                 if k.startswith("fock.states.")}
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-cold_tables-seed{args.seed}.npz")
    for kind, table in built.items():
        checker.record(checker.table(kind, table))
    report.update(attempted=checker.attempted, failed=checker.failed,
                  reasons=checker.reasons, rss_mb=rss_mb())
    emit(report)


# ---------------------------------------------------------------------------
# workloads


def ops_outcome(ops) -> dict:
    return {"attempted": sum(op["attempted"] for op in ops),
            "failed": sum(op["failed"] for op in ops),
            "reasons": [r for op in ops for r in op["reasons"]][:20]}


def cold_tables(args, inputs) -> tuple[dict, dict, dict]:
    """Fresh interpreters that build all six tables at the seeded eta.

    One operation is one interpreter's import plus its table builds.
    """
    if args.trace:
        # the overhead is taken on one mid-sized table, so that the
        # untraced reference costs one table, not all six
        kind = "enc_level1" if "enc_level1" in inputs["kinds"] else inputs["kinds"][0]
        plain, traced = child("cold", args, 0, (kind,)), child("cold", args, 1)
        layers = traced["layers"]
        layers["trace.overhead_ms"] = 1000.0 * (traced["build_s"][kind] - plain["build_s"][kind])
        return layers, ops_outcome([plain, traced]), {"fock_states": traced["fock_states"]}

    setups = [] if args.quick else [child("setup", args)
                                    for _ in range(SETUP_CHILDREN[args.workload])]
    ops, start = [], time.monotonic()
    while not ops or time.monotonic() - start < args.seconds:
        ops.append(child("cold", args))
    imports = setups + ops

    def median(key, samples):
        return statistics.median(s[key] for s in samples)

    metrics = {
        "setup_s": statistics.median(s["setup_s"] - s["tables_s"] for s in imports),
        "tables_cold_s": median("tables_s", ops),
        "op_ms": 1000.0 * median("setup_s", ops),
        "items_per_s": sum(op["entries"] for op in ops) / sum(op["tables_s"] for op in ops),
        "peak_rss_mb": max(op["rss_mb"] for op in ops),
    }
    detail = {
        "import_s": wl.summary([s["setup_s"] - s["tables_s"] for s in imports], "s"),
        "tables_cold_s": wl.summary([op["tables_s"] for op in ops], "s"),
        "build_s": {k: statistics.median(op["build_s"][k] for op in ops)
                    for k in ops[0]["build_s"]},
        "entries_per_op": ops[0]["entries"],
        "raw": {"import_s": statistics.median(s["raw_setup_s"] - s["raw_tables_s"]
                                              for s in imports),
                "tables_cold_s": median("raw_tables_s", ops),
                "op_ms": 1000.0 * median("raw_setup_s", ops),
                "build_s": {k: statistics.median(op["raw_build_s"][k] for op in ops)
                            for k in ops[0]["raw_build_s"]}},
        "slowness": statistics.median(op["slowness"] for op in ops),
    }
    return metrics, ops_outcome(ops), detail


def timed_loop(pkg, args, inputs, checker, clock, seconds, tracer=None) -> dict:
    """Closed loop over whole cycles of the workload's configurations.

    ``primary`` holds the latencies op_ms is taken from (optimize calls,
    deterministic chains), ``secondary`` the Monte-Carlo chains; both in
    scaled seconds, with the raw wall times alongside.
    """
    eta = inputs["eta"]
    pieces = {"primary": {}, "secondary": {}}
    items, cycles, op_id = 0, 0, 0
    start = time.monotonic()

    def timed(bucket, key, fn, *fn_args):
        nonlocal op_id
        op_id += 1
        if tracer:
            tracer.run_id = op_id
        token = clock.start()
        out = fn(*fn_args)
        pieces[bucket].setdefault(key, []).append(clock.stop(token))
        return out

    # speed samples are taken as chains start, so long optimize calls get many
    with clock.probing(pkg.chain, ("simulate_chain",)):
        while cycles == 0 or time.monotonic() - start < seconds:
            if args.workload == "optimize_sweep":
                for item in inputs["optimize"]:
                    key = wl.config_key(item)
                    try:
                        found = timed("primary", key, wl.run_optimize, pkg, eta, item)
                    except Exception as exc:
                        checker.record([f"optimize {key}: {exc!r}"])
                        continue
                    items += wl.grid_chains(pkg, item)
                    checker.record(checker.optimized(item, found))
            else:
                for item in inputs["chains"]:
                    key = wl.config_key(item)
                    for waiting, bucket in (("deterministic", "primary"), ("mc", "secondary")):
                        try:
                            result = timed(bucket, key, wl.run_chain, pkg, eta, item, waiting)
                        except Exception as exc:
                            checker.record([f"chain {key} {waiting}: {exc!r}"])
                            continue
                        items += 1
                        checker.record(checker.chained(item, waiting, result))
            cycles += 1
    clock.sample()  # closes the last operations
    out = {"items": items, "cycles": cycles}
    # a Monte-Carlo chain spends about 80 % of its time in the numpy sampler
    # (median 11 ms against 2 ms for the same deterministic chain)
    for bucket, share in (("primary", 0.0), ("secondary", 0.8)):
        out[bucket] = {k: [clock.scaled(p, share) for p in v] for k, v in pieces[bucket].items()}
        out["raw_" + bucket] = {k: [p[0] for p in v] for k, v in pieces[bucket].items()}
    return out


def per_cycle_rate(loop: dict) -> float:
    """Items of one cycle over the sum of its operations' median latencies."""
    seconds = sum(statistics.median(v) for bucket in ("primary", "secondary")
                  for v in loop[bucket].values())
    return loop["items"] / loop["cycles"] / seconds


def chain_workload(args, inputs) -> tuple[dict, dict, dict]:
    """optimize_sweep and single_chain: warm tables, then a timed loop."""
    pkg, clock, pieces = import_package()
    tracer = Tracer(pkg) if args.trace else None
    if tracer:
        tracer.install()
    built = build_tables(pkg, clock, wl.workload_kinds(args.workload, inputs),
                         inputs["eta"], pieces)
    setups = [setup_sample(pieces)]
    if tracer:
        tracer.uninstall()
        setup_snap = snapshot(tracer, pkg)
    golden = wl.load_golden(inputs["case"])
    checker = wl.Checker(pkg, golden)
    checker.record([] if golden and wl.same(wl.case_inputs(args.seed), golden["inputs"])
                   else ["seeded inputs differ from the golden record"])
    for kind, table in built.items():
        checker.record(checker.table(kind, table))
    if not args.trace and not args.quick:
        setups += [child("setup", args) for _ in range(SETUP_CHILDREN[args.workload])]
        clock.sample()

    builds_before = pkg.cache_counts()[1]
    if tracer:
        # untraced reference on the first configuration, for the overhead
        first = {**inputs, "optimize": inputs["optimize"][:1], "chains": inputs["chains"][:1]}
        plain = timed_loop(pkg, args, first, checker, clock, args.seconds / 2)
        before = snapshot(tracer, pkg)
        tracer.install()
        loop = timed_loop(pkg, args, inputs, checker, clock, args.seconds, tracer)
        tracer.uninstall()
    else:
        loop = timed_loop(pkg, args, inputs, checker, clock, args.seconds)
    if pkg.cache_counts()[1] != builds_before:
        checker.record(["a table was built inside the timed loop"])
    op_ms = 1000.0 * wl.per_config_median_mean(loop["primary"])
    outcome = {"attempted": checker.attempted, "failed": checker.failed,
               "reasons": checker.reasons}
    if tracer:
        unit = per_unit(setup_snap, delta(snapshot(tracer, pkg), before), loop["cycles"])
        layers = scale_layers(layer_metrics(unit), clock.median())
        key = next(iter(plain["primary"]))
        layers["trace.overhead_ms"] = 1000.0 * (
            statistics.median(loop["primary"][key]) - statistics.median(plain["primary"][key]))
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz")
        return layers, outcome, {"fock_states": {
            k: v for k, v in tracer.counters.items() if k.startswith("fock.states.")}}

    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "tables_cold_s": statistics.median(s["tables_s"] for s in setups),
        "op_ms": op_ms,
        "items_per_s": per_cycle_rate(loop),
        "peak_rss_mb": rss_mb(),
    }

    def ms(bucket):
        return wl.summary([1000.0 * x for v in loop[bucket].values() for x in v], "ms")

    detail = {
        "setup_s": wl.summary([s["setup_s"] for s in setups], "s"),
        "tables_cold_s": wl.summary([s["tables_s"] for s in setups], "s"),
        "cycles": loop["cycles"],
        "per_config_median_ms": {k: 1000.0 * statistics.median(v)
                                 for k, v in loop["primary"].items()},
        "raw": {"setup_s": statistics.median(s["raw_setup_s"] for s in setups),
                "tables_cold_s": statistics.median(s["raw_tables_s"] for s in setups),
                "op_ms": 1000.0 * wl.per_config_median_mean(loop["raw_primary"]),
                "primary_ms": ms("raw_primary")},
        "slowness": clock.median(),
    }
    if args.workload == "optimize_sweep":
        detail["optimize_s"] = wl.summary([x for v in loop["primary"].values() for x in v], "s")
        detail["chains_per_s"] = {"value": metrics["items_per_s"], "unit": "1/s"}
    else:
        detail["chain_ms"] = ms("primary")
        detail["mc_chain_ms"] = ms("secondary")
        detail["raw"]["mc_chain_ms"] = ms("raw_secondary")
    return metrics, outcome, detail


# ---------------------------------------------------------------------------
# entry point


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="smallest size of each workload (smoke test)")
    parser.add_argument("--child", choices=("setup", "cold"), help=argparse.SUPPRESS)
    parser.add_argument("--kinds", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        child_main(args)
        return 0
    inputs = wl.case_inputs(args.seed, args.quick)
    if args.workload == "cold_tables":
        metrics, outcome, detail = cold_tables(args, inputs)
    else:
        metrics, outcome, detail = chain_workload(args, inputs)
    attempted, failed = outcome["attempted"], outcome["failed"]
    if not args.trace:
        metrics["ok_frac"] = (attempted - failed) / attempted
    units = LAYER_UNITS if args.trace else E2E_UNITS
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    report = {"provenance": provenance(args, inputs),
              "fail_frac": {"value": failed / attempted, "unit": "ratio"},
              "failures": outcome["reasons"], **detail}
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps({"report": report, "result": result}, indent=1))
    emit({"report": report})
    emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
