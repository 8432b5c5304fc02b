"""The benchmark tracer still finds every layer boundary it patches.

``perfbench/spans.py`` wraps the names each module looks up from its
collaborators.  A refactor that renames or stops calling one of them
breaks ``perfbench/run.py --trace 1`` without failing any other test, so
this test installs the tracer, runs one chain through it and checks the
span counts and that uninstalling restores every original attribute.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_chain_stages_and_restores_patches():
    workloads, spans = _load("workloads"), _load("spans")
    pkg = workloads.load_package(ROOT)
    chain = pkg.chain
    config = chain.RepeaterConfig(
        scheme=pkg.patterns.SchemeKind.NEW,
        L=320.0,
        L0=40.0,
        p_c=5e-3,
        noise=pkg.er.NoiseParams(eta=0.9),
        enp_schedule=((1, "bit"),),
    )
    tracer = spans.Tracer(pkg)
    tracer.install()
    try:
        patched = list(tracer._patches)
        result = chain.simulate_chain(config)
    finally:
        tracer.uninstall()

    stages = [rec.stage for rec in result.per_level]
    assert stages == ["eng", "enc", "enp", "enc"]
    counts = {name: int(entry[0]) for name, entry in tracer.agg.items()}
    assert counts["chain"] == 1
    assert counts["protocols.eng"] == 1
    assert counts["protocols.step"] == len(stages) - 1
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, attr


def test_tracer_counts_every_table_build_by_kind():
    """``tables._build`` calls ``enc_entry``, ``enp_entry`` or
    ``pme_entry`` once per entry, and each kind's first table lookup
    misses its cache, so the tracer sees one entry span per key pair and
    one build per kind.  The eta is one no other test builds at."""
    workloads, spans = _load("workloads"), _load("spans")
    pkg = workloads.load_package(ROOT)
    _, misses = pkg.cache_counts()
    tracer = spans.Tracer(pkg)
    tracer.install()
    try:
        for kind in workloads.ALL_KINDS:
            workloads.build_table(pkg, kind, 0.8123)
    finally:
        tracer.uninstall()

    counts = {name: int(entry[0]) for name, entry in tracer.agg.items()}
    entries = {"enc_dlcz": 49, "pme": 49}
    for kind in workloads.ALL_KINDS:
        assert counts["circuits.entry." + kind] == entries.get(kind, 169), kind
    builds = {name for name in tracer.counters if name.startswith("tables.build_s.")}
    assert builds == {"tables.build_s." + kind for kind in workloads.ALL_KINDS}
    assert pkg.cache_counts()[1] - misses == 6


def test_traced_optimize_runs_one_chain_per_grid_point():
    """A sweep evaluates every grid point through ``simulate_chain``, so the
    tracer counts one chain span and one grid point per (L0, p_c)."""
    workloads, spans = _load("workloads"), _load("spans")
    pkg = workloads.load_package(ROOT)
    chain = pkg.chain
    scheme = pkg.patterns.SchemeKind.NEW
    tracer = spans.Tracer(pkg)
    tracer.install()
    try:
        found = chain.optimize(scheme, 160.0, 0.9, noise=pkg.er.NoiseParams(eta=0.95))
    finally:
        tracer.uninstall()

    assert found is not None  # optimize re-simulates its optimum once
    points = len(chain.feasible_l0(scheme, 160.0)) * len(chain.pc_grid())
    assert points == 4 * 302
    assert tracer.counters["sweep.grid_points"] == points
    counts = {name: int(entry[0]) for name, entry in tracer.agg.items()}
    assert counts["chain"] == points + 1
    assert counts["sweep"] == 1


def test_traced_optimize_counts_the_rows_that_reach_the_target():
    """The tracer counts a grid point as useful where its chain's result
    reaches the target fidelity, so that count is the number of sweep
    rows whose F reaches it: each per-point result carries its row's F."""
    workloads, spans = _load("workloads"), _load("spans")
    pkg = workloads.load_package(ROOT)
    chain = pkg.chain
    scheme = pkg.patterns.SchemeKind.NEW
    noise = pkg.er.NoiseParams(eta=0.95)
    tracer = spans.Tracer(pkg)
    tracer.install()
    try:
        found = chain.optimize(scheme, 160.0, 0.9, noise=noise)
    finally:
        tracer.uninstall()

    assert found is not None
    per_l0 = chain._sweep_spacings(
        dict(scheme=scheme, L=160.0, noise=noise),
        tuple(float(p) for p in chain.pc_grid()),
    )
    useful = sum(
        row is not None and row[1] >= 0.9 for _, rows in per_l0 for row in rows
    )
    assert 0 < useful < 4 * 302
    assert tracer.counters["sweep.useful"] == useful


def test_traced_optimize_counts_every_zero_success_grid_point():
    """At eta = 1e-200 every connection's success underflows to zero, so
    each grid point's chain raises ``ZeroDivisionError`` and the tracer
    counts every grid point as a zero-success one."""
    workloads, spans = _load("workloads"), _load("spans")
    pkg = workloads.load_package(ROOT)
    chain = pkg.chain
    tracer = spans.Tracer(pkg)
    tracer.install()
    try:
        found = chain.optimize(
            pkg.patterns.SchemeKind.NEW, 160.0, 0.9,
            noise=pkg.er.NoiseParams(eta=1e-200),
        )
    finally:
        tracer.uninstall()

    assert found is None
    counters = tracer.counters
    assert counters["sweep.zero_success"] == counters["sweep.grid_points"] == 4 * 302


def test_tracer_counts_oracle_projections_and_restores_patches():
    """One oracle entry runs its circuit through the ``fock`` boundaries
    and projects each accepted branch once."""
    workloads, spans = _load("workloads"), _load("spans")
    pkg = workloads.load_package(ROOT)
    circuits, patterns = pkg.circuits, pkg.patterns
    logical = (patterns.ExcitationPattern.P10, patterns.BellState.PSI_PLUS)
    error = (patterns.ExcitationPattern.P11, None)
    branches = circuits._entry_branches("enc_dlcz", logical, error, 0.9)
    accepted = sum(prob > 0.0 for _, prob in branches)
    assert accepted == 2  # one click at either detector

    tracer = spans.Tracer(pkg)
    tracer.install()
    try:
        patched = list(tracer._patches)
        traced = circuits.oracle_entry("enc_dlcz", logical, error, 0.9)
    finally:
        tracer.uninstall()

    assert traced.row.tobytes() == circuits.oracle_entry(
        "enc_dlcz", logical, error, 0.9
    ).row.tobytes()
    counts = {name: int(entry[0]) for name, entry in tracer.agg.items()}
    assert counts["patterns.project"] == accepted
    assert counts["fock.tensor"] == 1
    assert counts["fock.loss"] == 2
    assert counts["fock.measure"] == 1
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, attr
