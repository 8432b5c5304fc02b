"""Workload inputs, set-up, timed operations and output checks.

Inputs come from the seed through a fixed pool of cases: ``case =
seed % N_CASES`` and ``random.Random(case)`` draws eta and the
per-configuration parameters.  Golden outputs for every case live in
``golden/`` (written by ``make_golden.py``), so every seed is checked
against recorded outputs, not only against invariants.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
GOLDEN_DIR = HERE / "golden"
N_CASES = 8
RTOL = 1e-12
ATOL = 1e-15  # floor for probabilities that are zero up to rounding

ALL_KINDS = ("enc_dlcz", "pme", "enc_level1", "enc_higher", "enp_bit", "enp_phase")
SCHEME_KINDS = {"dlcz": ("enc_dlcz", "pme"), "new": ("enc_level1", "enc_higher")}
# Every optimize_sweep cycle runs these four (scheme, L) pairs: each scheme
# at two lengths and every length of {640, 1280, 2560} km once or twice,
# so that a cycle fits the run budget; two-cell 1280 km is the reference.
OPT_PAIRS = (("new", 640.0), ("new", 1280.0), ("dlcz", 1280.0), ("dlcz", 2560.0))
CHAIN_LENGTHS = (640.0, 1280.0, 2560.0, 5120.0, 10240.0)
CHAIN_L0 = 40.0
MC_SAMPLES = 16384


# ---------------------------------------------------------------------------
# package loading


def load_package(root: Path) -> SimpleNamespace:
    """Import the package from ``root/src`` and nowhere else."""
    src = root / "src"
    if not (src / "ensemble_repeater" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source under {src}")
    sys.path.insert(0, str(src))
    import ensemble_repeater as er
    from ensemble_repeater import chain, circuits, fock, patterns, protocols, tables

    if not Path(er.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"perfbench: imported {er.__file__}, not the checkout's copy")
    caches = [
        fn
        for fn in (getattr(tables, "_enc_table", None), tables.enp_table, tables.pme_table)
        if hasattr(fn, "cache_info")
    ]

    def cache_counts() -> tuple[int, int]:
        """(hits, misses) summed over the table caches."""
        infos = [fn.cache_info() for fn in caches]
        return sum(i.hits for i in infos), sum(i.misses for i in infos)

    return SimpleNamespace(
        er=er, chain=chain, circuits=circuits, fock=fock, patterns=patterns,
        protocols=protocols, tables=tables, cache_counts=cache_counts,
    )


# ---------------------------------------------------------------------------
# inputs


def case_inputs(seed: int, quick: bool = False) -> dict:
    """Every input of every workload for one seed."""
    case = seed % N_CASES
    rng = random.Random(case)
    eta = rng.uniform(0.85, 0.97)
    opt = list(OPT_PAIRS)
    rng.shuffle(opt)
    optimize = [
        {"scheme": s, "L": L, "F_target": rng.uniform(0.85, 0.95)} for s, L in opt
    ]
    # p_c follows the scaling schedule of ``scaling_fit`` (0.26 * L0 / L)
    chains = [
        {"scheme": s, "L": L, "p_c": 0.26 * CHAIN_L0 / L}
        for s in ("new", "dlcz")
        for L in CHAIN_LENGTHS
    ]
    rng.shuffle(chains)
    for i, c in enumerate(chains):
        c["mc_seed"] = 1000 * case + i
    kinds = ALL_KINDS
    if quick:
        # smallest size: single-rail tables and the shortest single-rail configs
        kinds = SCHEME_KINDS["dlcz"]
        optimize = [c for c in optimize if c["scheme"] == "dlcz" and c["L"] == 1280.0]
        chains = [c for c in chains if c["scheme"] == "dlcz" and c["L"] == 640.0]
    return {"case": case, "eta": eta, "kinds": list(kinds), "optimize": optimize,
            "chains": chains}


def workload_kinds(workload: str, inputs: dict) -> list[str]:
    """Tables a workload needs; cold_tables builds them as its timed work."""
    if workload == "cold_tables":
        return inputs["kinds"]
    items = inputs["optimize"] if workload == "optimize_sweep" else inputs["chains"]
    schemes = {c["scheme"] for c in items}
    return [k for s in ("dlcz", "new") if s in schemes for k in SCHEME_KINDS[s]]


def load_golden(case: int) -> dict | None:
    path = GOLDEN_DIR / f"case{case}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text())


# ---------------------------------------------------------------------------
# operations and digests


def build_table(pkg, kind: str, eta: float):
    tables, S = pkg.tables, pkg.er.SchemeKind
    if kind == "enc_dlcz":
        return tables.enc_table(S.DLCZ, eta)
    if kind == "enc_level1":
        return tables.enc_table(S.NEW, eta, first_level=True)
    if kind == "enc_higher":
        return tables.enc_table(S.NEW, eta)
    if kind == "pme":
        return tables.pme_table(eta)
    return tables.enp_table(kind.removeprefix("enp_"), eta)


def table_digest(table) -> dict:
    entries = list(table.entries.values())
    patterns: dict[str, float] = {}
    bell = [0.0] * 4
    for entry in entries:
        for pattern, mass in entry.masses:
            patterns[pattern.value] = patterns.get(pattern.value, 0.0) + mass
        bell = [b + w for b, w in zip(bell, entry.bell)]
    return {"entries": len(entries), "totals": [e.total for e in entries],
            "patterns": patterns, "bell": bell}


def table_invariants(table) -> list[str]:
    bad = []
    for key, entry in table.entries.items():
        values = [m for _, m in entry.masses] + list(entry.bell) + [entry.total]
        if not all(-ATOL <= v <= 1.0 + RTOL for v in values):
            bad.append(f"mass outside [0, 1] at {key}")
    return bad


def run_optimize(pkg, eta: float, item: dict):
    chain = pkg.chain
    return chain.optimize(
        pkg.er.SchemeKind(item["scheme"]), item["L"], item["F_target"],
        noise=pkg.er.NoiseParams(eta=eta),
    )


def optimize_digest(found) -> dict | None:
    if found is None:
        return None
    config, result = found
    return {"L0": config.L0, "p_c": config.p_c, "t_avg": result.t_avg,
            "F": result.fidelity}


def grid_chains(pkg, item: dict) -> int:
    scheme = pkg.er.SchemeKind(item["scheme"])
    return len(pkg.chain.feasible_l0(scheme, item["L"])) * len(pkg.chain.pc_grid())


def run_chain(pkg, eta: float, item: dict, waiting: str):
    er = pkg.er
    config = er.RepeaterConfig(
        scheme=er.SchemeKind(item["scheme"]), L=item["L"], L0=CHAIN_L0,
        p_c=item["p_c"], noise=er.NoiseParams(eta=eta),
    )
    return pkg.chain.simulate_chain(
        config, waiting=waiting, n_samples=MC_SAMPLES, seed=item["mc_seed"]
    )


def chain_digest(result) -> dict:
    return {"t_avg": result.t_avg, "F": result.fidelity,
            "P": [rec.success_prob for rec in result.per_level]}


def same(a, b) -> bool:
    """Structural equality with floats compared to RTOL relative."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, float) or isinstance(b, float):
        if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
            return False
        return abs(a - b) <= max(RTOL * max(abs(a), abs(b)), ATOL)
    return a == b


def config_key(item: dict) -> str:
    return f"{item['scheme']}-{item['L']:g}"


# ---------------------------------------------------------------------------
# checking


class Checker:
    """Counts attempted and failed operations; keeps the first few reasons.

    Each check returns the reasons an output is wrong; ``record`` counts
    one operation and fails it if there is any reason.
    """

    def __init__(self, pkg, golden: dict | None) -> None:
        self.keys = pkg.tables.canonical_keys
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, reasons: list[str]) -> None:
        self.attempted += 1
        if reasons:
            self.failed += 1
            self.reasons.extend(reasons[: max(0, 20 - len(self.reasons))])

    def versus_golden(self, section: str, key: str, digest) -> list[str]:
        if self.golden is None:
            return [f"no golden record for {section}/{key}"]
        if key not in self.golden[section]:
            return [f"golden record lacks {section}/{key}"]
        if not same(digest, self.golden[section][key]):
            return [f"{section}/{key} differs from golden"]
        return []

    def table(self, kind: str, table) -> list[str]:
        reasons = [f"{kind}: {r}" for r in table_invariants(table)]
        expected = len(self.keys(table.scheme)) ** 2
        if len(table.entries) != expected:
            reasons.append(f"{kind}: {len(table.entries)} entries, expected {expected}")
        return reasons + self.versus_golden("tables", kind, table_digest(table))

    def optimized(self, item: dict, found) -> list[str]:
        reasons = []
        if found is not None and not item["F_target"] <= found[1].fidelity <= 1.0:
            reasons.append(f"optimize {config_key(item)}: F outside [F_target, 1]")
        return reasons + self.versus_golden(
            "optimize", config_key(item), optimize_digest(found)
        )

    def chained(self, item: dict, waiting: str, result) -> list[str]:
        reasons = []
        if not 0.0 <= result.fidelity <= 1.0:
            reasons.append(f"chain {config_key(item)}: F outside [0, 1]")
        return reasons + self.versus_golden(
            "chains", f"{config_key(item)}-{waiting}", chain_digest(result)
        )


# ---------------------------------------------------------------------------
# statistics


def summary(samples: list[float], unit: str) -> dict:
    """Median, the highest percentile with ten samples beyond it, count."""
    out = {"median": statistics.median(samples) if samples else None, "unit": unit,
           "n": len(samples)}
    if len(samples) > 10:
        ordered = sorted(samples)
        out["tail"] = ordered[-11]
        out["tail_pct"] = round(100.0 * (len(samples) - 10) / len(samples), 2)
    return out


def per_config_median_mean(latencies: dict[str, list[float]]) -> float:
    """Mean over configurations of each configuration's median latency."""
    return statistics.fmean(statistics.median(v) for v in latencies.values())
