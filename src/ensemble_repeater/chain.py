"""Repeater-chain performance: nesting recursion, times, and optimization.

A chain over final distance L with station half-spacing L0 consists of
L/(2*L0) elementary segments, so there are n = log2(L/L0) - 1 connection
levels.  Entanglement generation and every connection/purification step
are heralded; average waiting times follow the standard recursion
t_{m+1} = 1.5 * t_m / P_m, where P_m is the step's success probability
on the simulated pattern state and the factor 1.5 is the waiting-time
overhead for two pairs to be ready simultaneously.  A Monte-Carlo
waiting mode replaces the 1.5 recursion by direct sampling of geometric
attempt counts and maxima of independent sub-times, which matters for
deep chains where the constant-factor approximation drifts.

The single-rail protocol ends with the post-selected mapping of two
parallel full-length chains onto one polarization pair; the two-cell
protocol carries polarization pairs throughout.

The grid sweeps compute the pair states of a whole sweep at once, in
one block of ``(n, k)`` rows in the ``PatternState.row`` layout, one
row set of the p_c grid per station spacing.  Each plan step is one
batched step (``_step``) over the rows of the spacings that reach it,
a prefix, as the spacings go deepest first, with every check of the
per-state path run on each live row and a row whose step never
succeeds masked dead.  The pair after a stage depends on the spacing
only through the elementary pair, whose phase error q(D L0) vanishes
at D = 0.  So at D = 0 the chain at spacing 2 L0 is a prefix of the
chain at L0, and the block holds one row set, which every spacing
reads at its own depth.  The single-rail final mapping is one batched
step over every spacing's rows at its depth.  The time recursion, each
row's error, if any, and the fidelity and logical-fidelity columns are
then computed once over the ``(spacings, p_cs)`` grid.  Each grid point
still gets its own ``simulate_chain`` call, which takes its row and
raises the error or returns a result holding the three figures.
Per-stage records have one source, the chain run on its own: such a
result runs it only when its records are read.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .noise import NoiseParams, dark_count_error, misalignment_channel
from .patterns import (
    BellState,
    PatternState,
    SchemeKind,
    aggregate,
    apply_bell_channel,
    check_bell_channel,
    check_rows,
    fidelity,
    fidelity_rows,
    logical_fidelity,
    logical_fidelity_rows,
    normalize,
    row_totals,
)
from .protocols import (
    EnpKind,
    apply_table_rows,
    enc,
    eng,
    eng_rows,
    enp,
    postselect_pme,
    step_table,
)
from .tables import ConnectionTable

TWO_PAIR_OVERHEAD = 1.5

# Largest argument math.exp accepts without overflow.
_MAX_EXP_ARG = math.log(sys.float_info.max)

# Value at which numpy saturates a geometric draw.
_SATURATED_DRAW = np.iinfo(np.int64).max

# Most sub-pair times one Monte-Carlo step may draw: each draw takes
# about 40 bytes of arrays, so a step stays under 1 GB.  The largest
# total of the tests, demos and benchmark cases is about 4.7e5 draws.
MC_MAX_DRAWS = 2**24

# Number of detection windows whose dark counts can fake a herald in one
# connection or purification step (two accepted detectors per step).
_DETECTIONS_PER_STEP = 2


@dataclass(frozen=True)
class RepeaterConfig:
    """Chain geometry, source strength, and imperfection parameters.

    ``L`` must be a power-of-two multiple of ``L0``; elementary pairs
    span ``2*L0`` so the chain has ``log2(L/L0) - 1`` connection levels.
    ``enp_schedule`` lists (after-level, kind) purification insertions.
    ``t0``, set at construction, is the checked elementary time of
    the configuration; it is no field, so it takes no part in ``__init__``,
    equality or ``repr``.

    Construction runs ``_check_chain_fields`` on the fields a sweep holds
    fixed (scheme, L, noise, L_att, c_fiber, schedule) and then
    ``_check_point`` on L0 and p_c.  A sweep runs the first once and the
    second on its p_c column (see ``_sweep_spacings``), and builds each
    grid point's configuration in place, with neither.
    """

    scheme: SchemeKind
    L: float
    L0: float
    p_c: float
    noise: NoiseParams = field(default_factory=NoiseParams)
    L_att: float = 20.0
    c_fiber: float = 2.0e5
    enp_schedule: Tuple[Tuple[int, EnpKind], ...] = ()

    def __post_init__(self) -> None:
        schedule = _check_chain_fields(
            self.scheme, self.L, self.noise, self.L_att, self.c_fiber,
            self.enp_schedule,
        )
        t0 = _check_point(
            self.scheme, self.L, self.L0, self.p_c, self.noise.eta, self.L_att,
            self.c_fiber, schedule,
        )
        object.__setattr__(self, "enp_schedule", schedule)
        object.__setattr__(self, "t0", t0)

    @property
    def num_levels(self) -> int:
        """Number of connection levels, log2(L/L0) - 1."""
        return _num_levels(self.L, self.L0)


def _check_chain_fields(
    scheme: SchemeKind,
    L: float,
    noise: NoiseParams,
    L_att: float,
    c_fiber: float,
    enp_schedule: Iterable[Tuple[int, str]],
) -> Tuple[Tuple[int, EnpKind], ...]:
    """``RepeaterConfig``'s checks of the fields a sweep holds fixed.

    Returns the normalized purification schedule.
    """
    _check_length(L)
    for name, value in (("L_att", L_att), ("c_fiber", c_fiber)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if L_att <= 0.0 or c_fiber <= 0.0:
        raise ValueError("L_att and c_fiber must be positive")
    if noise.eta <= 0.0:
        raise ValueError(f"eta must be positive, got {noise.eta}")
    check_step_noise(scheme, noise)
    schedule = _normalized_schedule(enp_schedule)
    _check_enp_schedule(scheme, schedule)
    return schedule


def _check_length(L: float) -> None:
    """Reject a chain length that is not finite or not positive."""
    if not math.isfinite(L):
        raise ValueError(f"L must be finite, got {L}")
    if L <= 0.0:
        raise ValueError("L and L0 must be positive")


def _check_point(
    scheme: SchemeKind,
    L: float,
    L0: float,
    p_c: float,
    eta: float,
    L_att: float,
    c_fiber: float,
    schedule: Tuple[Tuple[int, EnpKind], ...],
) -> float:
    """``RepeaterConfig``'s checks of L0 and p_c, on checked other fields.

    Returns the elementary time.  ``_sweep_spacings`` runs the same
    checks with p_c as a column: ``sweep_l0`` keeps only the spacings
    ``_check_spacing`` passes, ``_p_c_problem`` runs at the first bad
    p_c, and ``_elementary_times`` per spacing.
    """
    _check_spacing(scheme, L, L0, schedule)
    problem = _p_c_problem(p_c)
    if problem is not None:
        raise ValueError(problem)
    if L0 / L_att > _MAX_EXP_ARG:
        raise OverflowError(
            f"L0 / L_att = {L0 / L_att:g} is too large:"
            " the elementary time exp(L0 / L_att) overflows"
        )
    # L0 > 0 and 0 < p_c < 1 are checked above, and eta, L_att and
    # c_fiber > 0 by _check_chain_fields; p_c eta can still underflow to 0.
    t0 = _elementary_time(p_c, eta, L0, L_att, c_fiber) if p_c * eta else math.inf
    if not math.isfinite(t0):
        raise OverflowError(
            "the elementary time (L0 / c_fiber) exp(L0 / L_att) / (p_c eta)"
            f" overflows for L0 = {L0:g}, L_att = {L_att:g},"
            f" p_c = {p_c:g}, eta = {eta:g}"
        )
    return t0


def _check_spacing(
    scheme: SchemeKind,
    L: float,
    L0: float,
    schedule: Tuple[Tuple[int, EnpKind], ...],
) -> None:
    """Reject an L0 that is no usable spacing of L for the scheme and schedule."""
    if not math.isfinite(L0):
        raise ValueError(f"L0 must be finite, got {L0}")
    if L0 <= 0.0:
        raise ValueError("L and L0 must be positive")
    problem = _spacing_problem(scheme, L, L0)
    if problem is not None:
        raise ValueError(problem)
    levels = _num_levels(L, L0)
    for m, _ in schedule:
        if not 1 <= m <= levels:
            raise ValueError(f"purification level {m} outside 1..{levels}")


def _p_c_problem(p_c: float) -> Optional[str]:
    """Why p_c is no excitation probability, or None if it is one."""
    if not math.isfinite(p_c):
        return f"p_c must be finite, got {p_c}"
    if not 0.0 < p_c < 1.0:
        return "p_c must lie in (0, 1)"
    return None


def _num_levels(L: float, L0: float) -> int:
    return round(math.log2(L / L0)) - 1


def _normalized_schedule(
    schedule: Iterable[Tuple[int, str]],
) -> Tuple[Tuple[int, EnpKind], ...]:
    return tuple((int(m), EnpKind(kind)) for m, kind in schedule)


def format_enp_schedule(schedule: Tuple[Tuple[int, EnpKind], ...]) -> str:
    if not schedule:
        return "none"
    return ", ".join(f"{kind.value}-after-{level}" for level, kind in schedule)


def _check_enp_schedule(
    scheme: SchemeKind, schedule: Tuple[Tuple[int, EnpKind], ...]
) -> None:
    """Reject a purification schedule on a chain that cannot be purified.

    Purification consumes two polarization pairs, which only the
    two-cell scheme carries before the final mapping.
    """
    if scheme is SchemeKind.DLCZ and schedule:
        raise ValueError(
            "the single-rail (dlcz) scheme has no purification step,"
            f" got enp_schedule = {format_enp_schedule(schedule)}"
        )


def check_step_noise(scheme: SchemeKind, noise: NoiseParams) -> None:
    """Reject step noise the scheme's pattern bookkeeping cannot carry.

    The misalignment and dark-count channel mixes all four Bell states,
    but a single-rail pair carries only the two odd-parity ones.
    """
    if scheme is SchemeKind.DLCZ and (noise.p_misalign > 0.0 or noise.p_dark > 0.0):
        raise ValueError(
            "p_misalign and p_dark must be 0 for the single-rail (dlcz) scheme,"
            f" got p_misalign = {noise.p_misalign}, p_dark = {noise.p_dark}"
        )


def _spacing_problem(scheme: SchemeKind, L: float, L0: float) -> Optional[str]:
    """Why L/L0 is no usable power of two for the scheme, or None if it is."""
    ratio = L / L0
    if not 0.0 < ratio < math.inf:  # L/L0 overflows or underflows
        return "L/L0 must be a power of 2 (at least 2)"
    k = round(math.log2(ratio))
    if abs(ratio - 2.0**k) > 1e-9 * ratio or k < 1:
        return "L/L0 must be a power of 2 (at least 2)"
    if scheme is SchemeKind.NEW and k < 2:
        return "two-cell chains need at least one connection level"
    return None


class LevelRecord(NamedTuple):
    """State and timing snapshot after one stage of the chain."""

    level: int
    stage: str  # "eng", "enc", "enp", "pme"
    p_logic: float
    p_vac: float
    p_multi: float
    bell: Tuple[float, float, float, float]
    fidelity: float
    logical_fidelity: float
    success_prob: float
    t_avg: float


@dataclass(frozen=True)
class RunResult:
    """Full chain simulation output: the final pair, and per-stage records.

    ``t_avg`` and ``fidelity`` are the last stage's average time and
    fidelity, and ``final_logical_fidelity`` the delivered pair's weight
    on its target Bell state.  ``per_level`` derives the ``LevelRecord``
    of every stage on first read, from the private inputs a fresh chain
    builds as it runs: ``_stages``, one ``(level, stage, target,
    success, t, F)`` tuple per stage, and ``_states``, the normalized
    pair after each stage.  A sweep grid point's result holds no stages;
    its ``per_level`` is that of ``simulate_chain(config)``, run on
    first read, which a sweep row equals.
    """

    config: RepeaterConfig
    t_avg: float
    fidelity: float
    final_logical_fidelity: float
    _stages: Tuple[tuple, ...] = field(default=(), repr=False, compare=False)
    _states: Tuple[PatternState, ...] = field(default=(), repr=False, compare=False)

    @cached_property
    def per_level(self) -> Tuple[LevelRecord, ...]:
        if not self._stages:
            return simulate_chain(self.config).per_level
        return tuple(
            _record(*stage, state) for stage, state in zip(self._stages, self._states)
        )


def check_seed(seed: int) -> None:
    """Raise unless ``seed`` is a valid sampling seed, an integer of 0 or more."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")


def _zero_success(level: int, stage: str) -> ZeroDivisionError:
    """The error of a chain whose step at this stage never succeeds."""
    return ZeroDivisionError(f"{stage} at level {level} has zero success probability")


def _time_overflow(level: int, stage: str) -> OverflowError:
    """The error of a chain whose average time at this stage is not finite."""
    return OverflowError(f"the average time of {stage} at level {level} overflows")


def _elementary_time(p_c, eta: float, L0: float, L_att: float, c_fiber: float):
    """Average time to herald one elementary pair, (L0/c) e^{L0/L_att} / (p_c eta).

    Unchecked: ``_check_point`` checks its inputs.  p_c may be a float or
    an array.
    """
    return (L0 / c_fiber) * math.exp(L0 / L_att) / (p_c * eta)


def scaling_exponent(eta: float) -> float:
    """Polynomial time exponent 1 + log2(1.5) + log2(1/p_enc-stable).

    p_enc-stable = eta^2 (3 - 2 eta) / (2 (2 - eta)^4) is the paper's
    closed form of the connection success probability in the stable
    regime.  The simulated two-cell chains do not use it: at vanishing
    p_c their connections from the second level on succeed with
    eta^2 / (2 (2 - eta)^2), and the closed form is (3 - 2 eta)/(2 - eta)^2
    times that, 0.889 at eta = 0.5 and 0.992 at eta = 0.9.
    """
    return 1.0 + math.log2(TWO_PAIR_OVERHEAD) + math.log2(
        2.0 * (2.0 - eta) ** 4 / (eta**2 * (3.0 - 2.0 * eta))
    )


def empirical_time(config: RepeaterConfig) -> float:
    """Closed-form time estimate t0 * (L/L0)^(alpha - 1).

    The exponent collapses the per-level overhead 1.5/P at the stable
    connection success probability; deviations from the simulated chain
    come from the first connection level and the constant 1.5.
    """
    exponent = scaling_exponent(config.noise.eta) - 1.0
    return config.t0 * (config.L / config.L0) ** exponent


def _step_channel(noise: NoiseParams) -> Optional[np.ndarray]:
    """Bell channel applied after each heralded step, or None if trivial."""
    p_extra = _DETECTIONS_PER_STEP * dark_count_error(noise.p_dark, noise.eta_s)
    p = noise.p_misalign + min(p_extra, 1.0)
    if p <= 0.0:
        return None
    return misalignment_channel(min(p, 1.0))


def _target_bell(scheme: SchemeKind, connected: bool) -> BellState:
    """Target Bell state of a chain stage.

    Single-rail connections preserve the odd-parity target and the
    final mapping delivers the odd-parity polarization pair; two-cell
    connections map a pair of odd-parity inputs to the even-parity Phi+.
    The argument is the chain's scheme, not the state's.
    """
    if scheme is SchemeKind.DLCZ:
        return BellState.PSI_PLUS
    return BellState.PHI_PLUS if connected else BellState.PSI_PLUS


def _record(
    level: int,
    stage: str,
    target: BellState,
    success: float,
    t: float,
    F: float,
    state: PatternState,
) -> LevelRecord:
    agg = aggregate(state)
    bell = tuple(state.logical.tolist())
    return LevelRecord(
        level=level,
        stage=stage,
        p_logic=agg.p_logic,
        p_vac=agg.p_vac,
        p_multi=agg.p_multi,
        bell=bell,
        fidelity=F,
        logical_fidelity=bell[target.index],
        success_prob=success,
        t_avg=t,
    )


class _McTimes:
    """Empirical waiting-time samples propagated through the chain.

    numpy saturates a geometric draw at the int64 maximum when the
    success probability is tiny.  A stage with such a draw, or whose
    attempt counts sum beyond the int64 maximum, gets infinite times,
    which ``simulate_chain`` reports as that stage's overflow.  A stage
    whose total is below that but above ``MC_MAX_DRAWS`` is refused
    before it draws: its draws might not fit in memory.  Such chains
    would need the exact waiting-time distribution of each stage,
    propagated without drawing one sample per attempt.
    """

    def __init__(self, rng: np.random.Generator, n_samples: int) -> None:
        self.rng = rng
        self.n = n_samples

    @staticmethod
    def mean(times: np.ndarray) -> float:
        """The average time, inf where the sum overflows, with no warning;
        ``simulate_chain`` reports it as the stage's overflow."""
        with np.errstate(over="ignore"):
            return float(times.mean())

    def elementary(self, config: RepeaterConfig) -> np.ndarray:
        eta = config.noise.eta
        p_att = config.p_c * eta * math.exp(-config.L0 / config.L_att)
        cycle = config.L0 / config.c_fiber
        draws = 2 if config.scheme is SchemeKind.NEW else 1
        attempts = self.rng.geometric(min(p_att, 1.0), size=(draws, self.n))
        if attempts.max() == _SATURATED_DRAW:
            return np.full(self.n, math.inf)
        with np.errstate(over="ignore"):  # inf, reported as the overflow
            t = attempts * cycle
        return t.max(axis=0)

    def combine(
        self, times: np.ndarray, success: float, level: int, stage: str
    ) -> np.ndarray:
        """Times for one heralded step consuming two sub-pairs per attempt.

        Raises ``ValueError`` naming the step when its attempts would
        draw more than ``MC_MAX_DRAWS`` sub-pair times.
        """
        attempts = self.rng.geometric(min(success, 1.0), size=self.n)
        # a sum that overflows is inf, which ``simulate_chain`` reports
        with np.errstate(over="ignore"):
            # a saturated draw, or a total an int64 sum would wrap negative
            if attempts.sum(dtype=float) >= _SATURATED_DRAW:
                return np.full(self.n, math.inf)
            total = int(attempts.sum())
            if total > MC_MAX_DRAWS:
                raise ValueError(
                    f"mc waiting times of {stage} at level {level} would draw"
                    f" {total} sub-pair times, more than {MC_MAX_DRAWS}"
                )
            a = self.rng.choice(times, size=total)
            b = self.rng.choice(times, size=total)
            pair = np.maximum(a, b)
            starts = np.concatenate(([0], np.cumsum(attempts)[:-1]))
            return np.add.reduceat(pair, starts)


@lru_cache(maxsize=64)
def _plan(
    scheme: SchemeKind, levels: int, schedule: Tuple[Tuple[int, EnpKind], ...]
) -> Tuple[Tuple[str, int, Optional[EnpKind]], ...]:
    """(stage, level, kind) of every step after generation: a connection
    per level, each followed by the purification rounds scheduled after
    it, and the single-rail final mapping.

    Cached per (scheme, levels, schedule), as ``_eng_factors`` is, so a
    chain and each spacing of a sweep look their plan up; it is a tuple,
    so no caller can change a cached plan for the chains after it."""
    plan: list[Tuple[str, int, Optional[EnpKind]]] = []
    for level in range(1, levels + 1):
        plan.append(("enc", level, None))
        for m, kind in schedule:
            if m == level:
                plan.append(("enp", level, kind))
    if scheme is SchemeKind.DLCZ:
        plan.append(("pme", levels + 1, None))
    return tuple(plan)


def simulate_chain(
    config: RepeaterConfig,
    waiting: str = "deterministic",
    n_samples: int = 16384,
    seed: int = 0,
    *,
    pairs: Optional[tuple] = None,
) -> RunResult:
    """Simulate the full chain and return its per-stage results.

    ``waiting`` selects the time model: "deterministic" applies the
    1.5/P recursion, "mc" samples geometric attempt counts and maxima of
    independent sub-pair times (seeded, vectorized).  The quantum state
    evolution is identical in both modes.  The chain runs one state and
    one step at a time, and its result keeps what every ``per_level``
    record derives from: each stage's tuple and normalized pair.

    ``pairs`` hands in one row of a sweep's block, as ``_sweep_spacings``
    makes it: the error the chain raises or None, and the final
    deterministic time, fidelity and logical fidelity.  The call raises
    the error, or returns a result that holds the three figures and no
    stages, built in place without ``RunResult.__init__``; the other
    arguments do not apply.
    """
    if pairs is not None:
        verdict, t_avg, F, logical_F = pairs
        if verdict is not None:
            raise verdict
        result = RunResult.__new__(RunResult)
        values = result.__dict__
        values["config"] = config
        values["t_avg"] = t_avg
        values["fidelity"] = F
        values["final_logical_fidelity"] = logical_F
        return result
    if waiting not in ("deterministic", "mc"):
        raise ValueError("waiting must be 'deterministic' or 'mc'")
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    if waiting == "mc" and n_samples > MC_MAX_DRAWS:
        # every mc step draws at least one sub-pair time per sample
        raise ValueError(f"n_samples must be at most {MC_MAX_DRAWS}, got {n_samples}")
    check_seed(seed)
    mc = _McTimes(np.random.default_rng(seed), n_samples) if waiting == "mc" else None
    scheme = config.scheme
    noise = config.noise
    eta = noise.eta
    channel = _step_channel(noise)

    if mc:
        times = mc.elementary(config)
        t = mc.mean(times)
    else:
        t = config.t0
        if scheme is SchemeKind.NEW:
            t *= TWO_PAIR_OVERHEAD
    state = eng(scheme, config.p_c, noise, config.L0)
    target = _target_bell(scheme, False)
    stages = [(0, "eng", target, 1.0, t, fidelity(state, target))]
    states = [state]
    target = _target_bell(scheme, True)
    for stage, level, kind in _plan(scheme, config.num_levels, config.enp_schedule):
        if stage == "enc":
            out = enc(scheme, state, state, eta, level=level)
        elif stage == "enp":
            out = enp(kind, state, state, eta)
        else:
            out = postselect_pme(state, state, eta)
        success = out.total
        if success <= 0.0:
            raise _zero_success(level, stage)
        state = normalize(out)
        if channel is not None:
            state = apply_bell_channel(state, channel)
        F = fidelity(state, target)
        if mc:
            times = mc.combine(times, success, level, stage)
            t = mc.mean(times)
        else:
            t = TWO_PAIR_OVERHEAD * t / success
        stages.append((level, stage, target, success, t, F))
        states.append(state)

    for level, stage, _, _, t, _ in stages:
        if not math.isfinite(t):
            raise _time_overflow(level, stage)

    logical_F = logical_fidelity(state, target)
    return RunResult(config, *stages[-1][4:], logical_F, tuple(stages), tuple(states))


def _step(
    table: ConnectionTable,
    rows: np.ndarray,
    live: np.ndarray,
    channel: Optional[np.ndarray],
    target: BellState,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One plan step of ``table`` on every row of a sweep's block: the
    normalized ``(n, k)`` rows after it, each row's success and
    fidelity, and which rows are still alive.

    The step runs the checks of the per-state path on every ``live``
    row: the step output's and the normalized pair's ``_set_row``, the
    Bell channel's output's (``channel`` is checked already) and
    ``fidelity``'s.  A row whose step has zero success is masked dead,
    as ``simulate_chain`` raises at it; a dead row is zero from then on
    and no check reads it.
    """
    scheme = table.output_scheme
    out = apply_table_rows(table, rows, rows)
    check_rows(scheme, out, live)
    success = row_totals(scheme, out)
    live = live & ~(success <= 0.0)
    rows = out / np.where(live, success, 1.0)[:, None]
    rows[~live] = 0.0
    check_rows(scheme, rows, live)
    if channel is not None:
        rows[:, -4:] = np.einsum("ij,nj->ni", channel, rows[:, -4:])
        check_rows(scheme, rows, live)
    return rows, success, fidelity_rows(scheme, rows, live, target), live


# ---------------------------------------------------------------------------
# Optimization and sweeps

L0_GRID = (5.0, 10.0, 20.0, 40.0, 80.0, 160.0)
_PC_DECADES = (1e-5, 0.5)
_PC_POINTS_PER_DECADE = 64
_INFIDELITY_WINDOW = (0.01, 0.1)  # fit_tf_slope's: the high-fidelity branch
_P_C_SCALE = 0.26  # scaling_fit's p_c, as a multiple of L0 / L


def pc_grid() -> np.ndarray:
    """Logarithmic excitation-probability grid, 64 points per decade."""
    lo, hi = (math.log10(x) for x in _PC_DECADES)
    n = int(round((hi - lo) * _PC_POINTS_PER_DECADE)) + 1
    return np.logspace(lo, hi, n)


def feasible_l0(scheme: SchemeKind, L: float) -> Tuple[float, ...]:
    """Grid spacings giving an integer number of doublings for this L."""
    _check_length(L)
    return tuple(L0 for L0 in L0_GRID if _spacing_problem(scheme, L, L0) is None)


def sweep_l0(
    scheme: SchemeKind,
    L: float,
    enp_schedule: Tuple[Tuple[int, EnpKind], ...] = (),
) -> Tuple[float, ...]:
    """Feasible spacings with every connection level the schedule purifies after.

    A spacing with too few levels is skipped.  If the schedule leaves no
    feasible spacing, a ``ValueError`` names it.
    """
    spacings = feasible_l0(scheme, L)
    schedule = _normalized_schedule(enp_schedule)
    _check_enp_schedule(scheme, schedule)
    usable = tuple(
        L0 for L0 in spacings
        if all(1 <= m <= _num_levels(L, L0) for m, _ in schedule)
    )
    if spacings and not usable:
        raise ValueError(
            f"enp_schedule = {format_enp_schedule(schedule)} purifies after a"
            f" level that no grid spacing gives at L = {L:g} km (levels 1.."
            f"{_num_levels(L, spacings[0])})"
        )
    return usable


def _sweep_spacings(chain: dict, p_cs: Tuple[float, ...]) -> list:
    """(L0, grid rows) for every spacing ``sweep_l0`` keeps, in grid order.

    ``chain`` holds the other ``RepeaterConfig`` arguments.  The rows
    hold (t_avg, F, logical F) for every p_c, in order, or None where a
    step never succeeds, or the elementary time or a stage time
    overflows.  One block holds the pair states of the whole sweep (see
    the module docstring): per plan step one ``_step`` over the spacings
    that reach it, and for single-rail chains one final mapping over
    every spacing's rows at its own depth.  The time, verdict, fidelity
    and logical-fidelity columns are then computed once over the
    ``(spacings, p_cs)`` grid, with the IEEE operations ``simulate_chain``
    takes on one chain: a row's error is the ``ZeroDivisionError`` of its
    first step without success, or else the ``OverflowError`` of its
    first stage whose time is not finite.  A check of the per-state path
    raises as soon as it fails, so its error is that of the first step
    and check to fail, on the first failing row in grid order.

    Every check of ``RepeaterConfig`` runs, with its message, but not
    per point: ``_check_chain_fields`` once, before any spacing; the p_c
    checks once on the p_c column, where the first bad p_c raises;
    ``_check_spacing`` through ``sweep_l0``, which keeps only grid
    spacings of L that have every scheduled level; and the elementary
    times, where a non-finite time, as where ``L0 / L_att`` overflows,
    makes its row None.  Every other grid point gets its configuration,
    equal to a fresh one and built in place from one field dict per
    spacing, and one ``simulate_chain`` call with its row as ``pairs``,
    which raises the row's error or returns its final figures as a
    result; the grid row is read from that result.
    """
    scheme, L = chain["scheme"], chain["L"]
    noise = chain.get("noise", NoiseParams())
    L_att = chain.get("L_att", RepeaterConfig.L_att)
    c_fiber = chain.get("c_fiber", RepeaterConfig.c_fiber)
    schedule = _check_chain_fields(
        scheme, L, noise, L_att, c_fiber, chain.get("enp_schedule", ())
    )
    fields = dict(
        scheme=scheme, L=L, noise=noise, L_att=L_att, c_fiber=c_fiber,
        enp_schedule=schedule,
    )
    grid = np.array(p_cs, dtype=float)
    bad = ~((grid > 0.0) & (grid < 1.0))
    if bad.any():
        raise ValueError(_p_c_problem(p_cs[int(bad.argmax())]))
    spacings = sweep_l0(scheme, L, schedule)
    channel = _step_channel(noise)
    if channel is not None:
        channel = check_bell_channel(channel)
    if not spacings:
        return []
    n, eta = len(p_cs), noise.eta
    levels = [_num_levels(L, L0) for L0 in spacings]
    connections = _plan(scheme, levels[0], schedule)
    if scheme is SchemeKind.DLCZ:
        connections = connections[:-1]
    depths = [sum(level <= m for _, level, _ in connections) for m in levels]
    t0s = np.array([_elementary_times(L0, grid, eta, L_att, c_fiber) for L0 in spacings])
    valid = np.isfinite(t0s)
    # one row set per spacing; at D = 0 the elementary pair does not
    # depend on L0, and every spacing reads one set at its own depth
    sets = len(spacings) if noise.D != 0.0 else 1
    rows = np.concatenate([eng_rows(scheme, grid, noise, L0) for L0 in spacings[:sets]])
    live = valid[:sets].ravel()
    check_rows(scheme, rows, live)
    rows[~live] = 0.0
    stages = [(rows, fidelity_rows(scheme, rows, live, _target_bell(scheme, False)), live)]
    steps = [(0, "eng"), *((level, stage) for stage, level, _ in connections)]
    successes = []  # (spacings reached, one success row per row set)
    target = _target_bell(scheme, True)
    for j, (stage, level, kind) in enumerate(connections, 1):
        reach = sum(depth >= j for depth in depths)  # a prefix: deepest first
        m = min(reach, sets)
        table = step_table(stage, scheme, eta, level, kind)
        rows, success, F, live = _step(table, rows[: m * n], live[: m * n], channel, target)
        stages.append((rows, F, live))
        successes.append((reach, success.reshape(m, n)))
    ends = [(stages[depth], min(i, sets - 1) * n) for i, depth in enumerate(depths)]
    rows, F, live = (
        np.concatenate([stage[c][at : at + n] for stage, at in ends]) for c in range(3)
    )
    delivered = scheme
    if scheme is SchemeKind.DLCZ:
        table = step_table("pme", scheme, eta)
        rows, success, F, _ = _step(table, rows, live & valid.ravel(), channel, target)
        successes.append((len(spacings), success.reshape(len(spacings), n)))
        delivered = table.output_scheme
    logical = logical_fidelity_rows(delivered, rows, target)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        t = t0s * TWO_PAIR_OVERHEAD if scheme is SchemeKind.NEW else t0s.copy()
        failed, overflowed = [np.zeros_like(valid)], [~np.isfinite(t)]
        for reach, success in successes:
            t[:reach] = TWO_PAIR_OVERHEAD * t[:reach] / success
            failed.append(np.zeros_like(valid))
            failed[-1][:reach] = success <= 0.0
            overflowed.append(~np.isfinite(t))
    failed = np.array(failed).reshape(len(failed), -1)
    overflowed = np.array(overflowed).reshape(len(overflowed), -1)
    verdicts: list = [None] * failed.shape[1]
    for i in np.flatnonzero(failed.any(axis=0) | overflowed.any(axis=0)).tolist():
        error, at = (
            (_zero_success, failed[:, i]) if failed[:, i].any()
            else (_time_overflow, overflowed[:, i])
        )
        j = int(at.argmax())
        verdicts[i] = error(*steps[j]) if j < len(steps) else error(levels[i // n] + 1, "pme")
    cells = zip(
        valid.ravel().tolist(), t0s.ravel().tolist(),
        zip(verdicts, t.ravel().tolist(), F.tolist(), logical.tolist()),
    )
    new = RepeaterConfig.__new__
    out = []
    for L0 in spacings:
        point = dict(fields, L0=L0)
        column = []
        for p_c, (ok, t0, pairs) in zip(p_cs, cells):
            if not ok:
                column.append(None)
                continue
            config = new(RepeaterConfig)
            values = config.__dict__
            values.update(point)
            values["p_c"] = p_c
            values["t0"] = t0
            try:
                result = simulate_chain(config, pairs=pairs)
            except ArithmeticError:
                column.append(None)
                continue
            column.append(
                (result.t_avg, result.fidelity, result.final_logical_fidelity)
            )
        out.append((L0, column))
    return out


def _elementary_times(
    L0: float, p_cs: np.ndarray, eta: float, L_att: float, c_fiber: float
) -> np.ndarray:
    """The elementary time of every p_c, not finite where the grid point's
    ``RepeaterConfig`` raises an ``ArithmeticError``.

    Each value takes the same IEEE operations as ``_elementary_time`` on
    one p_c, so it is bit-identical to a configuration's ``t0``.  Where
    ``L0 / L_att`` overflows the exponential, every value is inf; where
    p_c eta underflows to 0, a division by zero, the value is inf or nan.
    """
    if L0 / L_att > _MAX_EXP_ARG:
        return np.full(len(p_cs), math.inf)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return _elementary_time(p_cs, eta, L0, L_att, c_fiber)


def optimize(
    scheme: SchemeKind,
    L: float,
    F_target: float,
    noise: NoiseParams = NoiseParams(),
    enp_schedule: Tuple[Tuple[int, EnpKind], ...] = (),
    L_att: float = RepeaterConfig.L_att,
    c_fiber: float = RepeaterConfig.c_fiber,
) -> Optional[Tuple[RepeaterConfig, RunResult]]:
    """Fastest configuration reaching the target fidelity.

    Grid search over station spacings and the logarithmic p_c grid;
    deterministic tie-break toward smaller L0, then smaller p_c.
    Returns None when no grid point reaches the target.
    """
    if not 0.0 < F_target < 1.0:
        raise ValueError("F_target must lie in (0, 1)")
    chain = dict(
        scheme=scheme, L=L, noise=noise, L_att=L_att, c_fiber=c_fiber,
        enp_schedule=enp_schedule,
    )
    p_cs = tuple(pc_grid().tolist())
    best = None  # (t, L0, p_c)
    for L0, rows in _sweep_spacings(chain, p_cs):
        for p_c, row in zip(p_cs, rows):
            if row is None:
                continue
            t, F, _ = row
            if F < F_target:
                continue
            key = (t, L0, p_c)
            if best is None or key < best:
                best = key
    if best is None:
        return None
    _, L0, p_c = best
    config = RepeaterConfig(L0=L0, p_c=p_c, **chain)
    return config, simulate_chain(config)


def tf_curve(
    scheme: SchemeKind,
    L: float,
    noise: NoiseParams = NoiseParams(),
    enp_schedule: Tuple[Tuple[int, EnpKind], ...] = (),
    p_c_sweep: Optional[Sequence[float]] = None,
    L_att: float = RepeaterConfig.L_att,
    c_fiber: float = RepeaterConfig.c_fiber,
) -> list:
    """Time/fidelity trade-off swept over p_c with per-point L0 choice.

    For each p_c every feasible station spacing is simulated and the
    spacing placing the point on the overall time/fidelity Pareto
    frontier is kept (the cheapest such spacing; if none is
    non-dominated, the fastest).  The reported fidelity is that of the
    delivered pair after the final post-selection, which is the
    convention of time-fidelity trade-off plots.  Returns a list of
    (t_avg, F, p_c, L0) tuples sorted by p_c.
    """
    sweep = pc_grid() if p_c_sweep is None else np.asarray(p_c_sweep, dtype=float)
    p_cs = tuple(sweep.tolist())
    chain = dict(
        scheme=scheme, L=L, noise=noise, L_att=L_att, c_fiber=c_fiber,
        enp_schedule=enp_schedule,
    )
    per_l0 = _sweep_spacings(chain, p_cs)

    candidates = []  # (t, F, p_c index, L0)
    for i in range(len(sweep)):
        for L0, rows in per_l0:
            if rows[i] is not None:
                t, _, F_log = rows[i]
                candidates.append((t, F_log, i, L0))
    frontier = _pareto_indices(candidates)

    by_pc: list = [[] for _ in p_cs]  # (candidate index, candidate)
    for j, c in enumerate(candidates):
        by_pc[c[2]].append((j, c))

    points = []
    for p_c, mine in zip(p_cs, by_pc):
        if not mine:
            continue
        on_front = [c for j, c in mine if j in frontier]
        pick = min(on_front or [c for _, c in mine], key=lambda c: (c[0], c[3]))
        points.append((pick[0], pick[1], p_c, pick[3]))
    points.sort(key=lambda point: point[2])  # stable: equal p_c keep sweep order
    return points


def _pareto_indices(candidates: Sequence[Tuple]) -> set:
    """Indices of points not dominated in (time lower, fidelity higher)."""
    order = sorted(range(len(candidates)), key=lambda j: (candidates[j][0], -candidates[j][1]))
    best_f = -math.inf
    front = set()
    for j in order:
        f = candidates[j][1]
        if f > best_f:
            front.add(j)
            best_f = f
    return front


def fit_tf_slope(points: Sequence[Tuple]) -> float:
    """Slope of log t vs log(1-F) over ``_INFIDELITY_WINDOW``."""
    lo, hi = _INFIDELITY_WINDOW
    xs, ys = [], []
    for t, F, *_ in points:
        if lo <= 1.0 - F <= hi:
            xs.append(math.log(1.0 - F))
            ys.append(math.log(t))
    if len(xs) < 3:
        raise ValueError("not enough points in the infidelity window")
    return float(np.polyfit(xs, ys, 1)[0])


def scaling_fit(
    scheme: SchemeKind,
    noise: NoiseParams,
    L_values: Sequence[float],
    L0: float = 40.0,
    waiting: str = "deterministic",
    seed: int = 0,
    L_att: float = RepeaterConfig.L_att,
    c_fiber: float = RepeaterConfig.c_fiber,
) -> Tuple[float, list]:
    """Fitted slope of log t_avg vs log L with p_c = ``_P_C_SCALE`` L0/L.

    Every chain is configured, and so checked, before any is simulated,
    and a line through fewer than two distinct lengths is no fit.
    Returns (slope, [(L, t_avg), ...]).
    """
    configs = []
    for L in L_values:
        _check_length(L)  # before p_c divides by it
        configs.append(
            RepeaterConfig(
                scheme=scheme, L=float(L), L0=L0, p_c=_P_C_SCALE * L0 / L,
                noise=noise, L_att=L_att, c_fiber=c_fiber,
            )
        )
    lengths = sorted({config.L for config in configs})
    if len(lengths) < 2:
        raise ValueError(
            "the scaling fit needs at least two distinct lengths, got"
            f" {', '.join(f'{L:g}' for L in lengths) or 'none'}"
        )
    points = []
    for config in configs:
        result = simulate_chain(config, waiting=waiting, seed=seed)
        points.append((config.L, result.t_avg))
    logs = np.log([p[0] for p in points])
    logt = np.log([p[1] for p in points])
    slope = float(np.polyfit(logs, logt, 1)[0])
    return slope, points


# ---------------------------------------------------------------------------
# Tabular output

CSV_COLUMNS = (
    "scheme", "L_km", "L0_km", "p_c", "eta", "D", "level",
    "p_logic", "p_vac", "p_multi", "F", "P_success", "t_avg_s",
)


def run_result_rows(result: RunResult) -> list:
    """One CSV row per chain stage, in the documented column order."""
    config = result.config
    rows = []
    for rec in result.per_level:
        rows.append(
            [
                config.scheme.value,
                config.L,
                config.L0,
                config.p_c,
                config.noise.eta,
                config.noise.D,
                rec.level,
                rec.p_logic,
                rec.p_vac,
                rec.p_multi,
                rec.fidelity,
                rec.success_prob,
                rec.t_avg,
            ]
        )
    return rows


def format_csv(rows: Iterable[Sequence], header: Sequence[str] = CSV_COLUMNS) -> str:
    lines = [", ".join(_csv_cell(x) for x in header)]
    for row in rows:
        lines.append(", ".join(_csv_cell(x) for x in row))
    return "\n".join(lines) + "\n"


def _csv_cell(x) -> str:
    """A float's repr, or the text of any other value, quoted as RFC 4180
    asks where it holds a comma, a double quote or a line break."""
    if isinstance(x, float):
        return repr(x)
    text = str(x)
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def run_result_payload(result: RunResult) -> dict:
    """The JSON payload of one chain: its configuration and per-stage records."""
    config = result.config
    return {
        "scheme": config.scheme.value,
        "L_km": config.L,
        "L0_km": config.L0,
        "p_c": config.p_c,
        "eta": config.noise.eta,
        "D": config.noise.D,
        "enp_schedule": [[m, kind.value] for m, kind in config.enp_schedule],
        "levels": [
            {
                "level": rec.level,
                "stage": rec.stage,
                "p_logic": rec.p_logic,
                "p_vac": rec.p_vac,
                "p_multi": rec.p_multi,
                "bell": list(rec.bell),
                "F": rec.fidelity,
                "F_logical": rec.logical_fidelity,
                "P_success": rec.success_prob,
                "t_avg_s": rec.t_avg,
            }
            for rec in result.per_level
        ],
        "final": {"t_avg_s": result.t_avg, "F": result.fidelity},
    }
