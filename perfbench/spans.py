"""In-memory span recorder for the benchmark's traced runs.

Every module of the package imports its collaborators with
``from .x import y``, so a call is intercepted by replacing the name in
the *caller's* module namespace.  :meth:`Tracer.install` does that for
each layer boundary and :meth:`Tracer.uninstall` restores the originals;
nothing under ``src/`` changes.

A span is (name, start, end, parent, run id).  Spans are kept in flat
arrays while the run lasts and written out once at the end.  Self time
is a span's duration minus the time covered by its direct children.
"""

from __future__ import annotations

import time
from array import array

# Layer boundaries: (module attribute path, span name).  Each entry is
# patched where the caller looks it up.
FOCK_OPS = (
    ("circuits", "apply_loss", "fock.loss"),
    ("circuits", "apply_mode_unitary", "fock.unitary"),
    ("circuits", "apply_pbs", "fock.pbs"),
    ("circuits", "measure_modes", "fock.measure"),
    ("circuits", "project_total_photons", "fock.measure"),
    ("circuits", "tensor", "fock.tensor"),
    ("circuits", "project_from_fock", "patterns.project"),
)
CHAIN_OPS = (
    ("chain", "enc", "protocols.step"),
    ("chain", "enp", "protocols.step"),
    ("chain", "postselect_pme", "protocols.step"),
    ("chain", "eng", "protocols.eng"),
    ("chain", "normalize", "patterns.state_ops"),
    ("chain", "apply_bell_channel", "patterns.state_ops"),
    ("chain", "aggregate", "patterns.state_ops"),
    ("chain", "fidelity", "patterns.state_ops"),
)
TABLE_KINDS = ("enc_dlcz", "enc_level1", "enc_higher", "pme", "enp_bit", "enp_phase")


def enc_kind(scheme, first_level: bool) -> str:
    if scheme.value == "dlcz":
        return "enc_dlcz"
    return "enc_level1" if first_level else "enc_higher"


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self, pkg) -> None:
        self.pkg = pkg  # namespace with the package modules as attributes
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.run_id = 0
        self._stack: list[list] = []  # [span index, time covered by children]
        self.agg: dict[str, list[float]] = {}  # name -> [count, total, self]
        self.counters: dict[str, float] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._build_kind: str | None = None
        self._sweep_target: float | None = None

    # -- recording -------------------------------------------------------

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def call(self, name: str, fn, args, kwargs):
        idx = len(self.start)
        name_id = self._ids.get(name)
        if name_id is None:
            name_id = self._ids[name] = len(self.names)
            self.names.append(name)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.run.append(self.run_id)
        self.start.append(0.0)
        self.end.append(0.0)
        frame = [idx, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.start[idx] = t0
            self.end[idx] = t1
            duration = t1 - t0
            if self._stack:
                self._stack[-1][1] += duration
            entry = self.agg.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - frame[1]

    def snapshot(self) -> tuple[dict, dict]:
        return (
            {k: list(v) for k, v in self.agg.items()},
            dict(self.counters),
        )

    def write(self, path) -> None:
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            run=np.frombuffer(self.run, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )

    # -- patching --------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper_for) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper_for(original))

    def _plain(self, name: str):
        def wrapper_for(fn):
            def traced(*args, **kwargs):
                return self.call(name, fn, args, kwargs)

            return traced

        return wrapper_for

    def install(self) -> None:
        pkg = self.pkg
        for module, attr, name in FOCK_OPS + CHAIN_OPS:
            self._patch(getattr(pkg, module), attr, self._plain(name))
        for module in (pkg.tables, pkg.protocols):
            self._patch(module, "enc_table", self._table(
                lambda a, k: enc_kind(a[0], k.get("first_level", a[2] if len(a) > 2 else False))))
            self._patch(module, "enp_table", self._table(lambda a, k: "enp_" + str(a[0])))
            self._patch(module, "pme_table", self._table(lambda a, k: "pme"))
        self._patch(pkg.tables, "enc_entry", self._entry(
            lambda a, k: enc_kind(a[0], k.get("first_level", a[4] if len(a) > 4 else False))))
        self._patch(pkg.tables, "enp_entry", self._entry(
            lambda a, k: "enp_phase" if k.get("phase_variant", a[3] if len(a) > 3 else False)
            else "enp_bit"))
        self._patch(pkg.tables, "pme_entry", self._entry(lambda a, k: "pme"))
        self._patch(pkg.fock.FockDensityOperator, "__init__", self._state_counter)
        self._patch(pkg.chain, "simulate_chain", self._chain)
        self._patch(pkg.chain._McTimes, "elementary", self._plain("chain.mc"))
        self._patch(pkg.chain._McTimes, "combine", self._plain("chain.mc"))
        self._patch(pkg.chain, "optimize", self._sweep)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _table(self, kind_of):
        """Table lookups; a lookup that misses the cache is a build."""
        tracer = self

        def wrapper_for(fn):
            def traced(*args, **kwargs):
                kind = kind_of(args, kwargs)
                before = tracer.pkg.cache_counts()[1]
                tracer._build_kind = kind
                t0 = time.perf_counter()
                try:
                    return tracer.call("tables.table", fn, args, kwargs)
                finally:
                    tracer._build_kind = None
                    if tracer.pkg.cache_counts()[1] > before:
                        tracer.count("tables.build_s." + kind, time.perf_counter() - t0)

            return traced

        return wrapper_for

    def _entry(self, kind_of):
        tracer = self

        def wrapper_for(fn):
            def traced(*args, **kwargs):
                kind = kind_of(args, kwargs)
                return tracer.call("circuits.entry." + kind, fn, args, kwargs)

            return traced

        return wrapper_for

    def _state_counter(self, init):
        tracer = self

        def counted(state, *args, **kwargs):
            tracer.count("fock.states")
            if tracer._build_kind is not None:
                tracer.count("fock.states." + tracer._build_kind)
            init(state, *args, **kwargs)

        return counted

    def _chain(self, fn):
        tracer = self

        def traced(config, *args, **kwargs):
            in_sweep = tracer._sweep_target is not None
            try:
                result = tracer.call("chain", fn, (config,) + args, kwargs)
            except ZeroDivisionError:
                if in_sweep:
                    tracer.count("sweep.grid_points")
                    tracer.count("sweep.zero_success")
                raise
            if in_sweep:
                tracer.count("sweep.grid_points")
                if result.fidelity >= tracer._sweep_target:
                    tracer.count("sweep.useful")
            return result

        return traced

    def _sweep(self, fn):
        tracer = self

        def traced(scheme, L, F_target, *args, **kwargs):
            tracer._sweep_target = F_target
            try:
                found = tracer.call("sweep", fn, (scheme, L, F_target) + args, kwargs)
            finally:
                tracer._sweep_target = None
            if found is not None:
                # optimize re-simulates its best grid point once; that
                # call is not a grid point.
                tracer.count("sweep.grid_points", -1)
                tracer.count("sweep.useful", -1)
            return found

        return traced
