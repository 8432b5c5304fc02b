"""Chain assembly, timing model, and optimization sweeps."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ensemble_repeater.chain import (
    CSV_COLUMNS,
    L0_GRID,
    RepeaterConfig,
    _McTimes,
    _sweep_spacings,
    check_step_noise,
    empirical_time,
    feasible_l0,
    fit_tf_slope,
    format_csv,
    optimize,
    pc_grid,
    run_result_payload,
    run_result_rows,
    scaling_exponent,
    scaling_fit,
    simulate_chain,
    sweep_l0,
    tf_curve,
)
from ensemble_repeater import chain as chain_module
from ensemble_repeater import protocols
from ensemble_repeater.noise import NoiseParams
from ensemble_repeater.patterns import ExcitationPattern, SchemeKind
from ensemble_repeater.protocols import EnpKind
from ensemble_repeater.tables import ConnectionTable, canonical_keys, enc_table, kind_table

NEW = SchemeKind.NEW
DLCZ = SchemeKind.DLCZ


def _config(**kwargs):
    base = dict(scheme=NEW, L=320.0, L0=40.0, p_c=5e-3, noise=NoiseParams(eta=0.9))
    base.update(kwargs)
    return RepeaterConfig(**base)


# ----------------------------------------------------------------------
# configuration


def test_config_requires_power_of_two_ratio():
    with pytest.raises(ValueError):
        _config(L=300.0)
    with pytest.raises(ValueError):
        _config(L=40.0, L0=40.0)


def test_two_cell_chain_needs_a_connection_level():
    # L = 2*L0 has no connection step, which only the single-rail chain
    # (with its final two-pair mapping) supports.
    with pytest.raises(ValueError):
        _config(L=80.0, L0=40.0)
    cfg = _config(scheme=DLCZ, L=80.0, L0=40.0)
    assert cfg.num_levels == 0


def test_num_levels():
    assert _config(L=160.0).num_levels == 1
    assert _config(L=1280.0).num_levels == 4
    assert _config(scheme=DLCZ, L=1280.0, L0=80.0).num_levels == 3


def test_config_validates_parameters():
    with pytest.raises(ValueError):
        _config(p_c=0.0)
    with pytest.raises(ValueError):
        _config(p_c=1.0)
    with pytest.raises(ValueError):
        _config(L0=-40.0)
    with pytest.raises(ValueError):
        _config(L_att=0.0)
    for name in ("L", "L0", "p_c", "L_att", "c_fiber"):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                _config(**{name: bad})


def test_config_rejects_overflowing_elementary_time():
    with pytest.raises(OverflowError, match=r"^L0 / L_att = 1000 is too large"):
        _config(L0=20000.0, L=80000.0)
    with pytest.raises(OverflowError, match=r"exp\(L0 / L_att\) overflows"):
        _config(L_att=40.0 / 710.0)
    _config(L_att=40.0 / 709.0)  # exp(709) is still a float


def test_config_rejects_infinite_elementary_time():
    """exp(L0 / L_att) is finite here, but the elementary time is not."""
    config = dict(scheme=DLCZ, L=2836.0, L0=709.0, L_att=1.0, p_c=1e-3)
    assert math.isinf(chain_module._elementary_time(1e-3, 0.9, 709.0, 1.0, 2.0e5))
    with pytest.raises(OverflowError, match=r"^the elementary time .* overflows for L0 = 709"):
        _config(**config)
    _config(**config, c_fiber=2.0e6)  # ten times faster fiber keeps it finite


def test_single_rail_chains_reject_step_noise():
    """The step channel mixes all four Bell states; a single-rail pair
    carries only the odd-parity two, so such chains are refused up front."""
    for noise in (NoiseParams(p_misalign=0.01), NoiseParams(p_dark=1e-3)):
        with pytest.raises(ValueError, match="^p_misalign and p_dark must be 0"):
            _config(scheme=DLCZ, noise=noise)
        with pytest.raises(ValueError, match="single-rail"):
            check_step_noise(DLCZ, noise)
        check_step_noise(NEW, noise)
        _config(noise=noise)
    check_step_noise(DLCZ, NoiseParams(D=1e-3))


def test_enp_schedule_validation():
    cfg = _config(L=1280.0, enp_schedule=((2, "phase"),))
    assert cfg.enp_schedule == ((2, EnpKind.PHASE),)
    with pytest.raises(ValueError):
        _config(L=1280.0, enp_schedule=((5, "phase"),))
    with pytest.raises(ValueError):
        _config(L=1280.0, enp_schedule=((0, "bit"),))


def test_single_rail_chains_reject_a_purification_schedule():
    """Only two-cell pairs can be purified; a single-rail schedule is
    refused up front, naming the scheme and the schedule."""
    message = (
        r"^the single-rail \(dlcz\) scheme has no purification step,"
        r" got enp_schedule = bit-after-1, phase-after-2$"
    )
    with pytest.raises(ValueError, match=message):
        _config(scheme=DLCZ, L=1280.0, enp_schedule=((1, "bit"), (2, "phase")))
    with pytest.raises(ValueError, match=message):
        sweep_l0(DLCZ, 1280.0, ((1, "bit"), (2, "phase")))


# ----------------------------------------------------------------------
# timing model


def test_elementary_time_closed_form():
    t0 = _config(p_c=0.01).t0
    assert t0 == pytest.approx((40.0 / 2.0e5) * math.exp(2.0) / (0.01 * 0.9))
    with pytest.raises(ValueError, match=r"^p_c must lie in \(0, 1\)$"):
        _config(p_c=0.0)


def _stable_success(eta):
    """Stable-regime connection success probability eta^2(3-2eta)/(2(2-eta)^4)."""
    return eta**2 * (3 - 2 * eta) / (2 * (2 - eta) ** 4)


def test_stable_connection_success():
    """From the second level on, a two-cell chain's connections succeed
    within 1 % of the paper's stable-regime closed form, which
    ``scaling_exponent`` uses, at eta = 0.9 and 1.  The simulator does
    not use that form: its connections follow the law of
    ``test_stable_connection_law``, which the closed form undershoots by
    the factor (3 - 2 eta)/(2 - eta)^2, 0.992 at eta = 0.9."""
    for eta in (0.9, 1.0):
        result = simulate_chain(_config(L=1280.0, p_c=1e-3, noise=NoiseParams(eta=eta)))
        later = [r.success_prob for r in result.per_level if r.stage == "enc"][1:]
        assert len(later) == 3
        assert later == pytest.approx([_stable_success(eta)] * 3, rel=1e-2)
    assert _stable_success(1.0) == 0.5


@pytest.mark.parametrize("eta", [0.5, 0.7, 0.9, 0.95])
def test_stable_connection_law(eta):
    """At vanishing p_c a two-cell chain's connections from the second
    level on succeed with eta^2 / (2 (2 - eta)^2), not with the paper's
    closed form, which is (3 - 2 eta)/(2 - eta)^2 times that: 0.889 at
    eta = 0.5."""
    result = simulate_chain(_config(L=1280.0, p_c=1e-9, noise=NoiseParams(eta=eta)))
    later = [r.success_prob for r in result.per_level if r.stage == "enc"][1:]
    assert len(later) == 3
    law = eta**2 / (2 * (2 - eta) ** 2)
    assert later == pytest.approx([law] * 3, rel=1e-8)
    assert _stable_success(eta) == pytest.approx(
        law * (3 - 2 * eta) / (2 - eta) ** 2, rel=1e-12
    )


def test_scaling_exponent_consistency():
    for eta in (0.9, 0.95, 1.0):
        expect = 1.0 + math.log2(1.5) + math.log2(1.0 / _stable_success(eta))
        assert scaling_exponent(eta) == pytest.approx(expect)
    # At unit efficiency: 1 + log2(1.5) + 1 = 2.585.
    assert scaling_exponent(1.0) == pytest.approx(2.0 + math.log2(1.5))


def test_empirical_time_reference_point():
    """Closed-form chain time for the standard 1280 km configuration."""
    config = _config(L=1280.0, p_c=8.1e-3, noise=NoiseParams(eta=0.9))
    t = empirical_time(config)
    assert t == pytest.approx(381.9, rel=5e-3)
    # One power of (L/L0) less than the full exponent.
    assert t == pytest.approx(config.t0 * 32.0 ** (scaling_exponent(0.9) - 1.0))


def test_deterministic_time_recursion():
    result = simulate_chain(_config(L=160.0))
    t0 = result.config.t0
    eng_rec, enc_rec = result.per_level
    assert eng_rec.t_avg == pytest.approx(1.5 * t0)
    assert enc_rec.t_avg == pytest.approx(1.5 * eng_rec.t_avg / enc_rec.success_prob)
    assert result.t_avg == enc_rec.t_avg


# ----------------------------------------------------------------------
# chain simulation


def test_stage_sequence_two_cell():
    result = simulate_chain(
        _config(L=1280.0, enp_schedule=((2, "phase"), (3, "bit")))
    )
    stages = [(rec.level, rec.stage) for rec in result.per_level]
    assert stages == [
        (0, "eng"),
        (1, "enc"),
        (2, "enc"),
        (2, "enp"),
        (3, "enc"),
        (3, "enp"),
        (4, "enc"),
    ]


def test_stage_sequence_single_rail_ends_with_mapping():
    result = simulate_chain(_config(scheme=DLCZ, L=320.0))
    stages = [rec.stage for rec in result.per_level]
    assert stages == ["eng", "enc", "enc", "pme"]
    assert result.per_level[-1].level == 3


def test_records_are_normalized_probabilities():
    result = simulate_chain(_config(L=640.0))
    for rec in result.per_level:
        assert rec.p_logic + rec.p_vac + rec.p_multi == pytest.approx(1.0)
        assert 0.0 < rec.success_prob <= 1.0
        assert sum(rec.bell) == pytest.approx(1.0)
        assert 0.0 <= rec.fidelity <= rec.logical_fidelity <= 1.0
    times = [rec.t_avg for rec in result.per_level]
    assert times == sorted(times)
    assert result.fidelity == pytest.approx(result.per_level[-1].fidelity)


def test_final_fidelity_uses_post_mapping_state():
    result = simulate_chain(_config(scheme=DLCZ, L=320.0, p_c=2e-3))
    last = result.per_level[-1]
    assert last.stage == "pme"
    assert result.fidelity == pytest.approx(last.fidelity)
    assert result.final_logical_fidelity == pytest.approx(last.logical_fidelity)


def test_purification_trades_time_for_fidelity():
    noise = NoiseParams(eta=0.9, D=1e-3)
    plain = simulate_chain(_config(L=1280.0, noise=noise))
    purified = simulate_chain(
        _config(L=1280.0, noise=noise, enp_schedule=((2, "phase"),))
    )
    assert purified.final_logical_fidelity > plain.final_logical_fidelity
    assert purified.t_avg > plain.t_avg


def test_misalignment_depolarizes_each_step():
    clean = simulate_chain(_config(L=320.0))
    noisy = simulate_chain(
        _config(L=320.0, noise=NoiseParams(eta=0.9, p_misalign=0.02))
    )
    assert noisy.final_logical_fidelity < clean.final_logical_fidelity
    # Timing is unaffected by the Bell channel.
    assert noisy.t_avg == pytest.approx(clean.t_avg)


# (t_avg, F, per-stage success probabilities) of six chains, recorded
# with tables applied entry by entry (the reference sum of
# test_protocol_tables._reference_step), not as one dense contraction.
_CHAIN_DIGESTS = {
    "two-cell-1280": (
        dict(scheme=NEW, L=1280.0, L0=40.0, p_c=5e-3, noise=NoiseParams(eta=0.9)),
        544.241686121995,
        0.8174468762529187,
        (1.0, 0.12259589879401304, 0.33435378187503323, 0.33434464952212073,
         0.3343446498672664),
    ),
    "single-rail-1280": (
        dict(scheme=DLCZ, L=1280.0, L0=40.0, p_c=5e-3, noise=NoiseParams(eta=0.9)),
        365.30398713581445,
        0.38148936460646204,
        (1.0, 0.4903471828547068, 0.4821347279930994, 0.4616506954945844,
         0.42581014862266964, 0.14689490312110076),
    ),
    "single-rail-phase-noise": (
        dict(scheme=DLCZ, L=640.0, L0=20.0, p_c=2e-2,
             noise=NoiseParams(eta=0.95, D=1e-3)),
        9.14456582012282,
        0.2833177067694529,
        (1.0, 0.4776277593894567, 0.4777189601485152, 0.4776581216213565,
         0.47755725620255474, 0.228259800434615),
    ),
    "two-cell-phase-purified": (
        dict(scheme=NEW, L=1280.0, L0=40.0, p_c=1e-2,
             noise=NoiseParams(eta=0.9, D=1e-3), enp_schedule=((2, "phase"),)),
        2889.911891282597,
        0.5320798596034956,
        (1.0, 0.12267903340026512, 0.3339979559817326, 0.2990776079662518,
         0.2179681944988757, 0.24229710355530332),
    ),
    "two-cell-bit-purified": (
        dict(scheme=NEW, L=640.0, L0=20.0, p_c=3e-3,
             noise=NoiseParams(eta=0.9, D=5e-4),
             enp_schedule=((1, "bit"), (3, "phase"))),
        14950.404845863695,
        0.43663059481887667,
        (1.0, 0.1225625710397266, 0.3563819962780268, 0.23852220839511937,
         0.2710001167108295, 0.2680826142903705, 0.15201134770486158),
    ),
    "two-cell-misaligned": (
        dict(scheme=NEW, L=2560.0, L0=80.0, p_c=2e-3,
             noise=NoiseParams(eta=0.9, p_misalign=0.02, p_dark=1e-3)),
        20076.12664952611,
        0.6602927596543835,
        (1.0, 0.12254589128962551, 0.33456782232566373, 0.3345641703101192,
         0.3345641703654027),
    ),
}


@pytest.mark.parametrize("name", sorted(_CHAIN_DIGESTS))
def test_chain_matches_recorded_digest(name):
    kwargs, t_avg, F, success = _CHAIN_DIGESTS[name]
    result = simulate_chain(RepeaterConfig(**kwargs))
    assert result.t_avg == pytest.approx(t_avg, rel=1e-12, abs=0.0)
    assert result.fidelity == pytest.approx(F, rel=1e-12, abs=0.0)
    got = tuple(rec.success_prob for rec in result.per_level)
    assert got == pytest.approx(success, rel=1e-12, abs=0.0)


# Chains whose per-stage records are derived on first read.
_RECORD_CHAINS = {
    "two-cell": dict(scheme=NEW, L=640.0, noise=NoiseParams(eta=0.9)),
    "single-rail": dict(scheme=DLCZ, L=640.0, noise=NoiseParams(eta=0.9)),
    "two-cell-phase-noise": dict(
        scheme=NEW, L=640.0, noise=NoiseParams(eta=0.9, D=1e-4)
    ),
    "single-rail-phase-noise": dict(
        scheme=DLCZ, L=640.0, noise=NoiseParams(eta=0.9, D=1e-4)
    ),
    "two-cell-purified": dict(
        scheme=NEW, L=640.0, noise=NoiseParams(eta=0.9),
        enp_schedule=((1, "bit"), (3, "phase")),
    ),
    "two-cell-misaligned": dict(
        scheme=NEW, L=640.0, noise=NoiseParams(eta=0.9, p_misalign=0.02, p_dark=1e-3)
    ),
}


@pytest.mark.parametrize("name", sorted(_RECORD_CHAINS))
def test_final_figures_equal_the_last_record(name):
    result = simulate_chain(RepeaterConfig(L0=20.0, p_c=3e-3, **_RECORD_CHAINS[name]))
    last = result.per_level[-1]
    assert result.fidelity == last.fidelity
    assert result.final_logical_fidelity == last.logical_fidelity
    assert result.t_avg == last.t_avg
    assert result.per_level is result.per_level


@pytest.mark.parametrize("name", sorted(_RECORD_CHAINS))
def test_grid_rows_equal_per_point_chains(name):
    """The sweep shares pair states between spacings; every row is still
    exactly what a fresh chain at that grid point gives."""
    chain = _RECORD_CHAINS[name]
    p_cs = tuple(float(p) for p in pc_grid()[::30])
    per_l0 = _sweep_spacings(chain, p_cs)
    spacings = sweep_l0(chain["scheme"], chain["L"], chain.get("enp_schedule", ()))
    assert [L0 for L0, _ in per_l0] == list(spacings)
    for L0, rows in per_l0:
        assert len(rows) == len(p_cs)
        for p_c, row in zip(p_cs, rows):
            result = simulate_chain(RepeaterConfig(L0=L0, p_c=p_c, **chain))
            assert row == (
                result.t_avg, result.fidelity, result.final_logical_fidelity
            )


def _record_results(monkeypatch):
    """The list every later ``simulate_chain`` result is appended to."""
    results = []
    original = chain_module.simulate_chain

    def recording(config, *args, **kwargs):
        result = original(config, *args, **kwargs)
        results.append(result)
        return result

    monkeypatch.setattr(chain_module, "simulate_chain", recording)
    return results


@pytest.mark.parametrize("name", sorted(_RECORD_CHAINS))
def test_a_sweep_row_result_is_the_fresh_chain_result(monkeypatch, name):
    """A grid point's chain call returns a result whose per-stage records,
    which it gets from a fresh chain only when read, equal a fresh
    chain's, and whose final figures, its batch row's, do too."""
    results = _record_results(monkeypatch)
    chain = _RECORD_CHAINS[name]
    p_cs = tuple(float(p) for p in pc_grid()[::30])
    per_l0 = _sweep_spacings(chain, p_cs)
    assert len(results) == len(per_l0) * len(p_cs)
    for result in results[::3]:
        config = result.config
        fresh = simulate_chain(RepeaterConfig(L0=config.L0, p_c=config.p_c, **chain))
        assert result.per_level == fresh.per_level
        assert result.t_avg == fresh.t_avg
        assert result.fidelity == fresh.fidelity
        assert result.final_logical_fidelity == fresh.final_logical_fidelity


def test_a_sweep_point_runs_its_chain_once_when_its_records_are_read(monkeypatch):
    """A grid point's result holds no stages: the first read of
    ``per_level`` makes one ``simulate_chain`` call, and a second none."""
    results = _record_results(monkeypatch)
    _sweep_spacings(dict(scheme=NEW, L=640.0, noise=NoiseParams(eta=0.9)), (3e-3,))
    point = results[-1]
    calls = _count_calls(monkeypatch, "simulate_chain")
    records = point.per_level
    assert [(config.L0, config.p_c) for config, *_ in calls] == [(point.config.L0, 3e-3)]
    assert point.per_level is records
    assert len(calls) == 1


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(chain_module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(chain_module, name, counted)
    return calls


def _steps_of(calls, kind, eta):
    """The batched steps among ``apply_table_rows`` calls that apply one table."""
    table = kind_table(kind, eta)
    return [args for args in calls if args[0] is table]


@pytest.mark.parametrize("D, levels", [(0.0, 7), (1e-4, 7 + 6 + 5 + 4 + 3 + 2)])
def test_sweep_shares_connections_only_without_phase_noise(monkeypatch, D, levels):
    """A two-cell 1280 km sweep at D = 0 runs the deepest chain's seven
    connection levels once, as batched steps over the whole p_c grid,
    and every other spacing reads its states off that batch; at D > 0
    every spacing runs its own."""
    calls = _count_calls(monkeypatch, "apply_table_rows")
    chain = dict(scheme=NEW, L=1280.0, noise=NoiseParams(eta=0.9, D=D))
    _sweep_spacings(chain, tuple(float(p) for p in pc_grid()))
    assert len(calls) == levels
    assert all(len(args[1]) == 302 for args in calls)


def test_sweep_runs_every_final_mapping(monkeypatch):
    """The single-rail final mapping is one batched step per spacing."""
    calls = _count_calls(monkeypatch, "apply_table_rows")
    chain = dict(scheme=DLCZ, L=1280.0, noise=NoiseParams(eta=0.9))
    _sweep_spacings(chain, tuple(float(p) for p in pc_grid()))
    assert len(_steps_of(calls, "enc_dlcz", 0.9)) == 7
    assert len(_steps_of(calls, "pme", 0.9)) == len(feasible_l0(DLCZ, 1280.0))
    assert len(calls) == 7 + len(feasible_l0(DLCZ, 1280.0))


def _fresh_row(config_kwargs):
    """(t_avg, F, logical F) of a chain run on its own, or None where the
    configuration or the chain raises an ``ArithmeticError``."""
    try:
        result = simulate_chain(RepeaterConfig(**config_kwargs))
    except ArithmeticError:
        return None
    return result.t_avg, result.fidelity, result.final_logical_fidelity


def _assert_rows_equal_fresh_chains(chain, p_cs):
    for L0, rows in _sweep_spacings(chain, p_cs):
        assert rows == [_fresh_row(dict(chain, L0=L0, p_c=p_c)) for p_c in p_cs]


_SCHEDULES = ((), ((1, "bit"),), ((2, "phase"),), ((1, "bit"), (3, "phase")))


@st.composite
def _sweeps(draw):
    scheme = draw(st.sampled_from([NEW, DLCZ]))
    D = draw(st.one_of(st.just(0.0), st.floats(1e-6, 3e-3)))
    kwargs = dict(eta=draw(st.floats(0.6, 1.0)), D=D)
    schedule = ()
    if scheme is NEW:
        kwargs["p_misalign"] = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.05)))
        kwargs["p_dark"] = draw(st.one_of(st.just(0.0), st.floats(0.0, 1e-2)))
        schedule = draw(st.sampled_from(_SCHEDULES))
    grid = pc_grid()
    indices = draw(st.lists(st.integers(0, len(grid) - 1), min_size=1, max_size=6))
    chain = dict(
        scheme=scheme, L=draw(st.sampled_from([640.0, 1280.0])),
        noise=NoiseParams(**kwargs), enp_schedule=schedule,
    )
    if draw(st.booleans()):
        # exp(L0 / L_att) overflows beyond about L0 / L_att = 709.8: the
        # wider spacings overflow, and near the edge the elementary time
        # of the small p_c does too
        L0 = draw(st.sampled_from(L0_GRID))
        chain["L_att"] = L0 / draw(st.floats(690.0, 715.0))
        chain["c_fiber"] = draw(st.floats(2.0e4, 2.0e6))
    return chain, tuple(float(grid[i]) for i in indices)


@settings(max_examples=40, deadline=None)
@given(sweep=_sweeps())
def test_every_batched_sweep_row_equals_a_fresh_chain(sweep):
    """The batched path equals the batch of one: every row of a sweep,
    over any p_c subset, noise and schedule, is exactly what a chain run
    on its own gives at that grid point."""
    _assert_rows_equal_fresh_chains(*sweep)


def test_a_sweep_makes_one_chain_call_per_valid_grid_point(monkeypatch):
    """Each grid point with a valid configuration gets one ``simulate_chain``
    call, which the benchmark's tracer counts as a grid point, and
    ``optimize`` one more for its optimum; a spacing whose
    ``exp(L0 / L_att)`` overflows gets none."""
    calls = _count_calls(monkeypatch, "simulate_chain")
    noise = NoiseParams(eta=0.9)
    assert optimize(DLCZ, 1280.0, 0.9, noise=noise) is not None
    assert len(calls) == 6 * 302 + 1
    grid = [(config.L0, config.p_c) for config, *_ in calls[:-1]]
    assert grid == [(L0, float(p_c)) for L0 in L0_GRID for p_c in pc_grid()]
    config = calls[1][0]
    fresh = RepeaterConfig(scheme=DLCZ, L=1280.0, L0=5.0, p_c=config.p_c, noise=noise)
    assert config == fresh and config.t0 == fresh.t0
    calls.clear()
    rows = dict(_sweep_spacings(dict(scheme=NEW, L=1280.0, L_att=0.2), (1e-3, 1e-2)))
    assert rows[160.0] == [None, None]
    assert [config.L0 for config, *_ in calls] == [
        L0 for L0 in L0_GRID[:-1] for _ in range(2)
    ]


@pytest.mark.parametrize(
    "scheme, eta",
    [(NEW, 1e-200), (DLCZ, 1e-200), (NEW, 1e-160), (DLCZ, 1e-160)],
    ids=["two-cell-zero-success", "single-rail-zero-success",
         "two-cell-overflow", "single-rail-overflow"],
)
def test_every_grid_point_raises_what_its_chain_raises_alone(
    monkeypatch, scheme, eta
):
    """At eta = 1e-200 a step's success underflows to zero, and at
    eta = 1e-160 a stage time overflows; a single-rail chain at 1e-200
    overflows before its final mapping fails, and the zero success
    wins.  Every configuration is valid, and each grid point's
    ``simulate_chain`` call raises the class and message of the same
    chain run on its own."""
    raised = []
    original = chain_module.simulate_chain

    def recording(config, *args, **kwargs):
        try:
            return original(config, *args, **kwargs)
        except ArithmeticError as error:
            raised.append((config, error))
            raise

    monkeypatch.setattr(chain_module, "simulate_chain", recording)
    chain = dict(scheme=scheme, L=640.0, noise=NoiseParams(eta=eta))
    p_cs = tuple(float(p) for p in pc_grid()[::50])
    per_l0 = _sweep_spacings(chain, p_cs)
    assert all(row is None for _, rows in per_l0 for row in rows)
    assert [(config.L0, config.p_c) for config, _ in raised] == [
        (L0, p_c) for L0, _ in per_l0 for p_c in p_cs
    ]
    for config, error in raised:
        with pytest.raises(ArithmeticError) as fresh:
            original(RepeaterConfig(L0=config.L0, p_c=config.p_c, **chain))
        assert type(error) is type(fresh.value)
        assert str(error) == str(fresh.value)


def test_sweeps_raise_configuration_errors_where_every_spacing_overflows():
    """A single-rail chain with step noise is no configuration; a sweep
    says so whether or not its spacings' elementary times overflow, and
    the fixed fields' message comes before a bad p_c's."""
    noise = NoiseParams(eta=0.9, p_misalign=0.02)
    message = "^p_misalign and p_dark must be 0 for the single-rail"
    for L_att in (RepeaterConfig.L_att, 0.001):
        with pytest.raises(ValueError, match=message):
            optimize(DLCZ, 1280.0, 0.8, noise=noise, L_att=L_att)
        with pytest.raises(ValueError, match=message):
            tf_curve(DLCZ, 1280.0, noise=noise, L_att=L_att, p_c_sweep=(1e-3,))
    with pytest.raises(ValueError, match=message):
        tf_curve(DLCZ, 1280.0, noise=noise, p_c_sweep=(1.5,))


@pytest.mark.parametrize("position", [0, 2])
@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, 1.0, -1.0, 1.5])
def test_sweeps_reject_a_bad_p_c_as_its_configuration_does(bad, position):
    p_cs = [1e-3, 1e-2, 3e-2]
    p_cs[position] = bad
    with pytest.raises(ValueError) as fresh:
        RepeaterConfig(scheme=NEW, L=160.0, L0=40.0, p_c=bad)
    with pytest.raises(ValueError) as swept:
        tf_curve(NEW, 160.0, p_c_sweep=p_cs)
    assert str(swept.value) == str(fresh.value)


def test_sweeps_report_the_first_bad_p_c_in_grid_order():
    with pytest.raises(ValueError, match=r"^p_c must lie in \(0, 1\)$"):
        tf_curve(NEW, 160.0, p_c_sweep=(1e-3, 1.5, math.nan))
    with pytest.raises(ValueError, match="^p_c must be finite, got nan$"):
        tf_curve(NEW, 160.0, p_c_sweep=(1e-3, math.nan, 1.5))


def _with_tensor(table, tensor):
    """A copy of ``table`` that applies ``tensor``."""
    patched = ConnectionTable(table.kind, table.eta, table.entries)
    patched.__dict__["tensor"] = tensor
    return patched


def _multi_pair_table(table):
    """``table`` with every entry dropped but those of two multi-excitation
    inputs: its success is of order p_c squared."""
    multi = (ExcitationPattern.P21_PAR, ExcitationPattern.P21_PERP)
    keep = np.array([pattern in multi for pattern, _ in canonical_keys(table.scheme)])
    return _with_tensor(table, table.tensor * np.logical_and.outer(keep, keep))


def test_dead_rows_raise_no_warning_and_are_the_failing_chains(monkeypatch):
    """A sweep whose batch has dead rows: at p_c = 1e-170 the first
    connection's success, of order p_c squared with a patched table,
    underflows to exactly zero, and at L_att = 0.2 km the wide spacings'
    elementary times overflow.  The batch masks those rows without a
    numpy warning, and each None row is a chain that raises on its own."""
    level1 = _multi_pair_table(enc_table(NEW, 0.9, first_level=True))
    original = protocols.enc_table

    def patched(scheme, eta, first_level=False):
        return level1 if first_level else original(scheme, eta, first_level)

    monkeypatch.setattr(protocols, "enc_table", patched)
    chain = dict(
        scheme=NEW, L=640.0, noise=NoiseParams(eta=0.9), L_att=0.2, c_fiber=2.0e5,
        enp_schedule=(),
    )
    p_cs = (1e-170, 1e-3, 5e-2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        per_l0 = dict(_sweep_spacings(chain, p_cs))
    assert per_l0[5.0][0] is None and per_l0[5.0][1] is not None
    assert per_l0[160.0] == [None, None, None]
    with pytest.raises(ZeroDivisionError, match="^enc at level 1 has zero success"):
        simulate_chain(RepeaterConfig(L0=5.0, p_c=1e-170, **chain))
    with pytest.raises(OverflowError):
        RepeaterConfig(L0=160.0, p_c=1e-3, **chain)
    _assert_rows_equal_fresh_chains(chain, p_cs)


def _broken_table(table, output, value):
    """``table`` with every input pair feeding ``value`` into one output column."""
    tensor = table.tensor.copy()
    tensor[output] = value
    return _with_tensor(table, tensor)


@pytest.mark.parametrize(
    "output, value, message",
    [
        (0, -1.0, r"^negative pattern probability: ExcitationPattern\.P00 = -"),
        (-1, -1e-3, "^Bell weights must be non-negative$"),
    ],
    ids=["negative-mass", "negative-bell-weight"],
)
def test_sweep_raises_the_check_error_of_its_first_chain(
    monkeypatch, output, value, message
):
    """The batched steps run the per-state checks: a sweep whose second
    connection table breaks them raises what the chain at its first grid
    point raises."""
    higher = _broken_table(enc_table(NEW, 0.9), output, value)
    original = protocols.enc_table

    def patched(scheme, eta, first_level=False):
        return original(scheme, eta, first_level) if first_level else higher

    monkeypatch.setattr(protocols, "enc_table", patched)
    chain = dict(scheme=NEW, L=640.0, noise=NoiseParams(eta=0.9))
    p_cs = (1e-3, 1e-2)
    with pytest.raises(ValueError, match=message) as fresh:
        simulate_chain(RepeaterConfig(L0=5.0, p_c=p_cs[0], **chain))
    with pytest.raises(ValueError) as swept:
        _sweep_spacings(chain, p_cs)
    assert str(swept.value) == str(fresh.value)


# (L0, p_c, t_avg, F) of the optimum at eta = 0.9, recorded before the
# per-stage records were derived on first read.  Two-cell chains reach
# no F_target = 0.9 at 1280 km on the grid, so that case records None and
# a second one aims at the paper's 78 %.
_OPTIMUM_DIGESTS = {
    "two-cell-1280-F90": ((NEW, 1280.0, 0.9), None),
    "two-cell-1280-F78": (
        (NEW, 1280.0, 0.78),
        (40.0, 0.026233239853074002, 104.86730425754067, 0.7806811748423153),
    ),
    "single-rail-1280-F90": (
        (DLCZ, 1280.0, 0.9),
        (80.0, 0.000995939807889688, 7609.802176779822, 0.9021212299194934),
    ),
}


@pytest.mark.parametrize("name", sorted(_OPTIMUM_DIGESTS))
def test_optimize_matches_recorded_optimum(name):
    (scheme, L, F_target), expected = _OPTIMUM_DIGESTS[name]
    found = optimize(scheme, L, F_target, noise=NoiseParams(eta=0.9))
    if expected is None:
        assert found is None
        return
    config, result = found
    L0, p_c, t_avg, F = expected
    assert (config.L0, config.p_c) == (L0, p_c)
    assert result.t_avg == pytest.approx(t_avg, rel=1e-12, abs=0.0)
    assert result.fidelity == pytest.approx(F, rel=1e-12, abs=0.0)


def test_mc_waiting_is_seeded_and_close_to_deterministic():
    config = _config(L=320.0)
    a = simulate_chain(config, waiting="mc", n_samples=4096, seed=42)
    b = simulate_chain(config, waiting="mc", n_samples=4096, seed=42)
    c = simulate_chain(config, waiting="mc", n_samples=4096, seed=43)
    assert a.t_avg == b.t_avg
    assert a.t_avg != c.t_avg
    det = simulate_chain(config)
    assert a.t_avg == pytest.approx(det.t_avg, rel=0.35)
    # State evolution is identical in both modes.
    assert a.fidelity == pytest.approx(det.fidelity, abs=1e-12)
    with pytest.raises(ValueError):
        simulate_chain(config, waiting="jitter")


def test_mc_waiting_reports_saturated_draws_as_overflow():
    """numpy saturates geometric draws at the int64 maximum for tiny
    success probabilities; the chain reports an overflow, not 3e16 s."""
    config = _config(scheme=DLCZ, L0=700.0, L=89600.0, L_att=1.0, p_c=1e-3)
    with pytest.raises(OverflowError, match=r"^the average time of eng at level 0 overflows$"):
        simulate_chain(config, waiting="mc")
    mc = _McTimes(np.random.default_rng(0), 8)
    assert np.isinf(mc.combine(np.ones(8), 1e-300, 1, "enc")).all()
    assert np.isfinite(mc.combine(np.ones(8), 0.5, 1, "enc")).all()


def test_mc_attempt_totals_past_int64_are_overflow():
    """16384 draws of about 1e15 attempts each sum past the int64
    maximum, where an int64 sum wraps negative; the stage's times are
    infinite, as for a saturated draw, and the chain reports them."""
    n = 16384
    assert np.random.default_rng(0).geometric(1e-15, size=n).sum() < 0
    times = _McTimes(np.random.default_rng(0), n).combine(np.ones(n), 1e-15, 1, "enc")
    assert times.shape == (n,) and np.isinf(times).all()


def test_mc_refuses_a_step_past_the_draw_bound(monkeypatch):
    """A step whose attempts would draw more sub-pair times than
    ``MC_MAX_DRAWS`` raises before it draws, naming the step and the
    count; so do more samples than that, which every step draws.  A
    deterministic chain draws nothing and takes any sample count."""
    config = _config()
    monkeypatch.setattr(chain_module, "MC_MAX_DRAWS", 64)
    with pytest.raises(
        ValueError,
        match=r"^mc waiting times of enc at level 1 would draw \d+ sub-pair"
        r" times, more than 64$",
    ):
        simulate_chain(config, waiting="mc", n_samples=64)
    with pytest.raises(ValueError, match=r"^n_samples must be at most 64, got 65$"):
        simulate_chain(config, waiting="mc", n_samples=65)
    assert simulate_chain(config, n_samples=65).t_avg == simulate_chain(config).t_avg


def test_mc_waiting_needs_at_least_one_sample():
    config = _config(L=320.0)
    for n in (0, -5):
        with pytest.raises(ValueError, match="n_samples must be at least 1"):
            simulate_chain(config, waiting="mc", n_samples=n)


def test_a_negative_seed_is_rejected_by_name():
    config = _config(L=320.0)
    for waiting in ("deterministic", "mc"):
        with pytest.raises(ValueError, match=r"^seed must be non-negative, got -1$"):
            simulate_chain(config, waiting=waiting, seed=-1)


# ----------------------------------------------------------------------
# sweeps


def test_pc_grid_shape():
    grid = pc_grid()
    assert len(grid) == 302
    assert grid[0] == pytest.approx(1e-5)
    assert grid[-1] == pytest.approx(0.5)
    assert np.all(np.diff(np.log(grid)) > 0)


def test_feasible_l0():
    assert feasible_l0(NEW, 1280.0) == (5.0, 10.0, 20.0, 40.0, 80.0, 160.0)
    # 80 km would leave a single doubling, allowed only for single rail.
    assert feasible_l0(NEW, 160.0) == (5.0, 10.0, 20.0, 40.0)
    assert feasible_l0(DLCZ, 160.0) == (5.0, 10.0, 20.0, 40.0, 80.0)
    assert set(feasible_l0(NEW, 96.0)) == set()
    assert all(L0 in L0_GRID for L0 in feasible_l0(NEW, 1280.0))
    for bad, message in (
        (math.nan, "L must be finite"),
        (math.inf, "L must be finite"),
        (0.0, "L and L0 must be positive"),
        (-640.0, "L and L0 must be positive"),
    ):
        with pytest.raises(ValueError, match=message):
            feasible_l0(DLCZ, bad)


def test_optimize_returns_fastest_feasible_point():
    noise = NoiseParams(eta=0.95)
    found = optimize(NEW, 160.0, 0.9, noise=noise)
    assert found is not None
    config, result = found
    assert result.fidelity >= 0.9
    # Any slower grid answer would contradict optimality; spot-check a
    # handful of alternatives at the same spacing.
    for p_c in (config.p_c * 0.5, config.p_c * 2.0):
        alt = simulate_chain(
            RepeaterConfig(scheme=NEW, L=160.0, L0=config.L0, p_c=p_c, noise=noise)
        )
        if alt.fidelity >= 0.9:
            assert alt.t_avg >= result.t_avg * (1.0 - 1e-9)


def test_optimize_honours_attenuation_length():
    noise = NoiseParams(eta=0.95)
    default = optimize(NEW, 160.0, 0.9, noise=noise)
    short = optimize(NEW, 160.0, 0.9, noise=noise, L_att=10.0, c_fiber=1.0e5)
    assert default is not None and short is not None
    config, result = short
    assert (config.L_att, config.c_fiber) == (10.0, 1.0e5)
    assert result.t_avg != default[1].t_avg
    again = simulate_chain(config)
    assert (again.t_avg, again.fidelity) == (result.t_avg, result.fidelity)


def test_sweeps_pass_attenuation_and_fiber_speed_on():
    noise = NoiseParams(eta=0.95)
    points = tf_curve(NEW, 160.0, noise=noise, p_c_sweep=(1e-3,), L_att=10.0)
    t, _, p_c, L0 = points[0]
    config = RepeaterConfig(
        scheme=NEW, L=160.0, L0=L0, p_c=p_c, noise=noise, L_att=10.0
    )
    assert t == simulate_chain(config).t_avg
    _, fast = scaling_fit(NEW, noise, (160.0, 320.0), c_fiber=4.0e5)
    _, slow = scaling_fit(NEW, noise, (160.0, 320.0))
    for (_, t_fast), (_, t_slow) in zip(fast, slow):
        assert t_fast == pytest.approx(0.5 * t_slow, rel=1e-12)


def test_stage_time_overflow_is_an_error():
    """Every stage time is finite here except the final mapping's."""
    config = _config(scheme=DLCZ, L0=700.0, L=89600.0, L_att=1.0, p_c=1e-3)
    message = r"^the average time of pme at level 7 overflows$"
    with pytest.raises(OverflowError, match=message):
        simulate_chain(config)


def test_grid_skips_points_whose_stage_time_overflows():
    """At L0 = 160 km and L_att = 160/700 km every elementary time is
    finite; at p_c = 1e-3 the final mapping's time is not."""
    chain = dict(
        scheme=DLCZ, L=20480.0, noise=NoiseParams(), L_att=160.0 / 700.0,
        c_fiber=2.0e5, enp_schedule=(),
    )
    overflowing, finite = dict(_sweep_spacings(chain, (1e-3, 1e-2)))[160.0]
    assert overflowing is None
    assert math.isfinite(finite[0])


def test_grid_skips_spacings_whose_elementary_time_overflows():
    """At L_att = 0.2 km the 160 km spacing's exp(L0 / L_att) overflows;
    the sweep records None there and keeps the other spacings."""
    chain = dict(
        scheme=NEW, L=1280.0, noise=NoiseParams(), L_att=0.2, c_fiber=2.0e5,
        enp_schedule=(),
    )
    rows = dict(_sweep_spacings(chain, (1e-3, 1e-2)))
    assert rows[160.0] == [None, None]
    assert all(row is not None for row in rows[5.0])
    found = optimize(NEW, 1280.0, 0.78, L_att=0.2)
    assert found is not None and found[0].L0 < 160.0


def test_sweeps_skip_spacings_without_the_scheduled_levels():
    """The 160 km spacing of a 1280 km chain has two connection levels,
    too few for a purification round after level 3; the other spacings
    carry it."""
    schedule = ((3, EnpKind.PHASE),)
    assert sweep_l0(NEW, 1280.0, schedule) == (5.0, 10.0, 20.0, 40.0, 80.0)
    noise = NoiseParams(eta=0.95)
    chain = dict(scheme=NEW, L=1280.0, noise=noise, enp_schedule=schedule)
    per_l0 = _sweep_spacings(chain, (1e-3,))
    assert [L0 for L0, _ in per_l0] == [5.0, 10.0, 20.0, 40.0, 80.0]
    found = optimize(NEW, 1280.0, 0.8, noise=noise, enp_schedule=schedule)
    assert found is not None and found[0].L0 <= 80.0
    assert tf_curve(NEW, 1280.0, enp_schedule=schedule, p_c_sweep=(1e-3,))


def test_sweeps_refuse_a_schedule_no_spacing_carries():
    """At 160 km the deepest two-cell spacing has four levels."""
    message = (
        r"^enp_schedule = phase-after-5 purifies after a level that no grid"
        r" spacing gives at L = 160 km \(levels 1..4\)$"
    )
    schedule = ((5, EnpKind.PHASE),)
    with pytest.raises(ValueError, match=message):
        sweep_l0(NEW, 160.0, schedule)
    with pytest.raises(ValueError, match=message):
        optimize(NEW, 160.0, 0.9, enp_schedule=schedule)
    with pytest.raises(ValueError, match=message):
        tf_curve(NEW, 160.0, enp_schedule=schedule)
    # A length with no grid spacing at all stays an infeasible target.
    assert sweep_l0(NEW, 96.0, schedule) == ()
    assert optimize(NEW, 96.0, 0.9, enp_schedule=schedule) is None


def test_optimize_reports_infeasible_targets():
    noise = NoiseParams(eta=0.95, D=3e-3)
    assert optimize(NEW, 160.0, 0.995, noise=noise) is None
    with pytest.raises(ValueError):
        optimize(NEW, 160.0, 1.5)


def test_tf_curve_is_a_trade_off():
    points = tf_curve(
        NEW,
        160.0,
        noise=NoiseParams(eta=0.95, D=1e-3),
        p_c_sweep=np.logspace(-4, -1, 13),
    )
    assert points
    for t, F, p_c, L0 in points:
        assert t > 0.0 and 0.0 < F <= 1.0
        assert L0 in L0_GRID
    # Sorted by p_c; fidelity degrades toward large p_c while time drops.
    pcs = [p for _, _, p, _ in points]
    assert pcs == sorted(pcs)
    assert points[0][1] > points[-1][1]
    assert points[0][0] > points[-1][0]


def test_tf_curve_sorts_an_unsorted_sweep_by_p_c():
    noise = NoiseParams(eta=0.9)
    points = tf_curve(NEW, 640.0, noise=noise, p_c_sweep=[0.01, 0.001, 0.005])
    assert [p_c for _, _, p_c, _ in points] == [0.001, 0.005, 0.01]
    assert points == tf_curve(NEW, 640.0, noise=noise, p_c_sweep=[0.001, 0.005, 0.01])


def test_a_plan_is_one_cached_tuple():
    """Every chain of a (scheme, levels, schedule) reads one cached plan,
    so the plan must be immutable."""
    schedule = ((2, EnpKind.PHASE),)
    plan = chain_module._plan(NEW, 3, schedule)
    assert type(plan) is tuple
    assert plan == (
        ("enc", 1, None), ("enc", 2, None), ("enp", 2, EnpKind.PHASE), ("enc", 3, None),
    )
    assert chain_module._plan(NEW, 3, schedule) is plan
    assert chain_module._plan(DLCZ, 2, ()) == (
        ("enc", 1, None), ("enc", 2, None), ("pme", 3, None),
    )


def test_fit_tf_slope_recovers_synthetic_exponent():
    infid = np.logspace(-2, -1, 12)
    points = [(float(0.5 * e**-1.07), float(1.0 - e), 0.0, 40.0) for e in infid]
    assert fit_tf_slope(points) == pytest.approx(-1.07, abs=1e-9)
    with pytest.raises(ValueError):
        fit_tf_slope(points[:2])


@pytest.mark.parametrize("L_values", [(640.0,), (640.0, 640.0)])
def test_scaling_fit_needs_two_distinct_lengths(monkeypatch, L_values):
    """A line through one length is rank-deficient; the fit refuses it
    before any chain is simulated."""
    calls = _count_calls(monkeypatch, "simulate_chain")
    message = r"^the scaling fit needs at least two distinct lengths, got 640$"
    with pytest.raises(ValueError, match=message):
        scaling_fit(NEW, NoiseParams(eta=0.95), L_values)
    assert calls == []


def test_scaling_fit_matches_stable_exponent():
    slope, points = scaling_fit(
        NEW, NoiseParams(eta=0.95), (160.0, 320.0, 640.0, 1280.0)
    )
    assert len(points) == 4
    assert slope == pytest.approx(scaling_exponent(0.95), abs=0.3)


# ----------------------------------------------------------------------
# tabular output


def test_run_result_rows_and_csv():
    result = simulate_chain(_config(L=160.0))
    rows = run_result_rows(result)
    assert len(rows) == len(result.per_level)
    assert all(len(row) == len(CSV_COLUMNS) for row in rows)
    text = format_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0].replace(" ", "") == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + len(rows)
    # Floats are emitted with full repr precision for byte-stable reruns.
    assert repr(result.per_level[0].t_avg) in lines[1]


def test_run_result_json_round_trips():
    result = simulate_chain(_config(L=160.0, enp_schedule=((1, "bit"),)))
    payload = json.loads(json.dumps(run_result_payload(result)))
    assert payload["scheme"] == "new"
    assert payload["enp_schedule"] == [[1, "bit"]]
    assert payload["final"]["F"] == pytest.approx(result.fidelity)
    assert len(payload["levels"]) == len(result.per_level)
    assert payload["levels"][0]["stage"] == "eng"
