"""Tests for the excitation-pattern state representation."""

import numpy as np
import pytest

from ensemble_repeater.noise import misalignment_channel
from ensemble_repeater.patterns import (
    WEIGHT_TOL,
    BellState,
    ExcitationPattern,
    LogicalBlock,
    PatternState,
    SchemeKind,
    aggregate,
    apply_bell_channel,
    classify_dlcz,
    classify_new,
    fidelity,
    from_text,
    logical_fidelity,
    logical_pattern,
    normalize,
    scheme_patterns,
    to_text,
)


def test_bell_state_order():
    assert [b.index for b in BellState] == [0, 1, 2, 3]
    assert BellState.PSI_PLUS.index == 2


def test_scheme_patterns_contain_logical_and_overflow():
    for scheme in SchemeKind:
        pats = scheme_patterns(scheme)
        assert logical_pattern(scheme) in pats
        assert ExcitationPattern.OVERFLOW in pats
    assert logical_pattern(SchemeKind.DLCZ) is ExcitationPattern.P10
    assert logical_pattern(SchemeKind.NEW) is ExcitationPattern.P11


def test_logical_block_pure_and_mixed():
    pure = LogicalBlock.pure(BellState.PSI_PLUS)
    assert pure.weight(BellState.PSI_PLUS) == pytest.approx(1.0)
    assert pure.weight(BellState.PHI_PLUS) == 0.0
    mixed = LogicalBlock.mixed()
    assert np.allclose(mixed.as_array(), 0.25)
    assert mixed.total == pytest.approx(1.0)


def test_logical_block_from_array_normalizes_on_request():
    raw = LogicalBlock.from_array([0.2, 0.1, 0.6, 0.1])
    assert raw.as_array()[2] == pytest.approx(0.6)
    scaled = LogicalBlock.from_array([2.0, 1.0, 6.0, 1.0]).normalized()
    assert scaled.weight(BellState.PSI_PLUS) == pytest.approx(0.6)


def test_logical_block_rejects_negative_weights():
    with pytest.raises(ValueError):
        LogicalBlock.from_array([0.5, 0.6, -0.1, 0.0])


def test_pattern_state_validation():
    with pytest.raises(
        ValueError,
        match=r"^pattern ExcitationPattern\.P20_PERP not valid for scheme SchemeKind\.DLCZ$",
    ):
        PatternState(SchemeKind.DLCZ, {ExcitationPattern.P20_PERP: 1.0})
    with pytest.raises(
        ValueError, match=r"^negative pattern probability: ExcitationPattern\.P10 = -0\.5$"
    ):
        PatternState(SchemeKind.DLCZ, {ExcitationPattern.P10: -0.5})
    with pytest.raises(ValueError, match=r"^logical block weights sum to 0\.5, expected 1$"):
        PatternState(
            SchemeKind.NEW, {ExcitationPattern.P11: 1.0}, LogicalBlock(0.5, 0.0, 0.0, 0.0)
        )
    # The first offending pattern in input order is named.
    with pytest.raises(ValueError, match=r"P20 = -0\.25$"):
        PatternState(
            SchemeKind.DLCZ, {ExcitationPattern.P20: -0.25, ExcitationPattern.P00: -0.5}
        )


def test_pattern_state_masses_follow_scheme_order():
    probs = {
        ExcitationPattern.P21_PERP: 0.125,
        ExcitationPattern.P00: 0.25,
        ExcitationPattern.P11: 0.625,
        ExcitationPattern.P10: 0.0,
    }
    state = PatternState(SchemeKind.NEW, probs, LogicalBlock.pure(BellState.PHI_PLUS))
    assert state.probs == {p: v for p, v in probs.items() if v != 0.0}
    assert list(state.probs) == [
        ExcitationPattern.P00, ExcitationPattern.P11, ExcitationPattern.P21_PERP
    ]
    assert state.masses.tolist() == [
        probs.get(p, 0.0) for p in scheme_patterns(SchemeKind.NEW)
    ]
    assert state.total == 1.0 and state.normalized
    same = PatternState.from_masses(
        SchemeKind.NEW, state.masses, LogicalBlock.pure(BellState.PHI_PLUS)
    )
    assert same == state
    assert same != PatternState.from_masses(
        SchemeKind.NEW, state.masses, LogicalBlock.pure(BellState.PSI_PLUS)
    )
    with pytest.raises(ValueError, match="expected 7 pattern masses"):
        PatternState.from_masses(SchemeKind.DLCZ, state.masses, LogicalBlock())


def test_pattern_state_is_immutable():
    masses = np.array([0.25, 0.75, 0.0, 0.0, 0.0, 0.0, 0.0])
    state = PatternState.from_masses(
        SchemeKind.DLCZ, masses, LogicalBlock.pure(BellState.PSI_PLUS)
    )
    masses[0] = 1.0  # the state keeps its own copy
    assert state.prob(ExcitationPattern.P00) == 0.25
    with pytest.raises(AttributeError):
        state.scheme = SchemeKind.NEW
    with pytest.raises(AttributeError):
        state.total = 2.0
    with pytest.raises(AttributeError):
        del state.logical
    with pytest.raises(ValueError):
        state.masses[0] = 0.5
    with pytest.raises(TypeError):
        state.probs[ExcitationPattern.P00] = 0.5
    assert state.masses.tolist() == [0.25, 0.75, 0.0, 0.0, 0.0, 0.0, 0.0]


def test_from_masses_rejects_negative_mass():
    """Array-built states, as every step builds, keep the negativity check."""
    masses = [0.0] * len(scheme_patterns(SchemeKind.NEW))
    masses[0] = -0.5 * WEIGHT_TOL  # within tolerance: kept as is
    masses[4] = -2.0 * WEIGHT_TOL
    masses[6] = -0.25
    with pytest.raises(
        ValueError,
        match=r"^negative pattern probability: ExcitationPattern\.P20_PERP = -2e-12$",
    ):
        PatternState.from_masses(SchemeKind.NEW, masses, LogicalBlock())
    masses[4] = masses[6] = 0.0
    state = PatternState.from_masses(SchemeKind.NEW, masses, LogicalBlock())
    assert state.probs == {ExcitationPattern.P00: -0.5 * WEIGHT_TOL}


def test_pattern_state_total_and_normalize():
    state = PatternState(
        SchemeKind.DLCZ,
        {ExcitationPattern.P10: 0.3, ExcitationPattern.P00: 0.1},
        LogicalBlock.pure(BellState.PSI_PLUS),
    )
    assert state.total == pytest.approx(0.4)
    assert not state.normalized
    unit = normalize(state)
    assert unit.normalized
    assert unit.prob(ExcitationPattern.P10) == pytest.approx(0.75)
    # Normalization leaves the conditional Bell weights untouched.
    assert unit.logical.weight(BellState.PSI_PLUS) == pytest.approx(1.0)


def test_bell_masses_scale_with_logical_probability():
    state = PatternState(
        SchemeKind.NEW,
        {ExcitationPattern.P11: 0.5, ExcitationPattern.P00: 0.5},
        LogicalBlock.from_array([0.1, 0.2, 0.6, 0.1]),
    )
    masses = state.bell_masses()
    assert masses.sum() == pytest.approx(0.5)
    assert masses[BellState.PSI_PLUS.index] == pytest.approx(0.3)


def test_state_is_one_row_of_masses_then_bell_masses():
    state = PatternState(
        SchemeKind.NEW,
        {ExcitationPattern.P11: 0.5, ExcitationPattern.P00: 0.5},
        LogicalBlock.from_array([0.125, 0.125, 0.75, 0.0]),
    )
    assert state.row.tolist() == [
        *state.masses.tolist(), *state.bell_masses().tolist()
    ]
    assert state.bell_masses().tolist() == [0.0625, 0.0625, 0.375, 0.0]
    assert np.shares_memory(state.masses, state.row)
    assert np.shares_memory(state.bell_masses(), state.row)
    assert state.logical == LogicalBlock.from_array([0.125, 0.125, 0.75, 0.0])
    assert fidelity(state, BellState.PSI_PLUS) == 0.375


def test_state_without_logical_mass_reports_scheme_default():
    for scheme, default in (
        (SchemeKind.DLCZ, BellState.PSI_PLUS),
        (SchemeKind.NEW, BellState.PHI_PLUS),
    ):
        state = PatternState(scheme, {ExcitationPattern.P00: 1.0}, LogicalBlock.mixed())
        assert state.bell_masses().tolist() == [0.0, 0.0, 0.0, 0.0]
        assert state.logical == LogicalBlock.pure(default)
        assert logical_fidelity(state, default) == 1.0
        assert fidelity(state, default) == 0.0


def test_aggregate_groups_vacuum_by_scheme():
    dlcz = PatternState(
        SchemeKind.DLCZ,
        {
            ExcitationPattern.P00: 0.2,
            ExcitationPattern.P10: 0.5,
            ExcitationPattern.P11: 0.3,
        },
    )
    agg = aggregate(dlcz)
    assert agg.p_logic == pytest.approx(0.5)
    assert agg.p_vac == pytest.approx(0.2)
    assert agg.p_multi == pytest.approx(0.3)
    # In the two-cell scheme a single stray excitation still counts as
    # vacuum: it can never pass the final post-selection.
    new = PatternState(
        SchemeKind.NEW,
        {
            ExcitationPattern.P00: 0.1,
            ExcitationPattern.P10: 0.2,
            ExcitationPattern.P11: 0.6,
            ExcitationPattern.P21_PERP: 0.1,
        },
    )
    agg = aggregate(new)
    assert agg.p_vac == pytest.approx(0.3)
    assert agg.p_multi == pytest.approx(0.1)


def test_fidelity_vs_logical_fidelity():
    state = PatternState(
        SchemeKind.NEW,
        {ExcitationPattern.P11: 0.8, ExcitationPattern.P00: 0.2},
        LogicalBlock.from_array([0.05, 0.05, 0.9, 0.0]),
    )
    assert fidelity(state, BellState.PSI_PLUS) == pytest.approx(0.72)
    assert logical_fidelity(state, BellState.PSI_PLUS) == pytest.approx(0.9)
    sub = PatternState(SchemeKind.NEW, {ExcitationPattern.P11: 0.5})
    with pytest.raises(ValueError):
        fidelity(sub, BellState.PSI_PLUS)


def test_apply_bell_channel_is_stochastic():
    state = PatternState(
        SchemeKind.NEW,
        {ExcitationPattern.P11: 1.0},
        LogicalBlock.pure(BellState.PHI_PLUS),
    )
    out = apply_bell_channel(state, misalignment_channel(0.2))
    assert out.logical.total == pytest.approx(1.0)
    assert out.logical.weight(BellState.PHI_PLUS) < 1.0
    ident = apply_bell_channel(state, np.eye(4))
    assert ident.logical.weight(BellState.PHI_PLUS) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        apply_bell_channel(state, np.ones((4, 4)))


def test_classify_dlcz():
    assert classify_dlcz(0, 0) is ExcitationPattern.P00
    assert classify_dlcz(1, 0) is ExcitationPattern.P10
    assert classify_dlcz(0, 1) is ExcitationPattern.P10
    assert classify_dlcz(1, 1) is ExcitationPattern.P11
    assert classify_dlcz(2, 0) is ExcitationPattern.P20
    assert classify_dlcz(2, 1) is ExcitationPattern.P21
    assert classify_dlcz(2, 2) is ExcitationPattern.P22
    assert classify_dlcz(3, 0) is ExcitationPattern.OVERFLOW


def test_classify_new():
    assert classify_new((0, 0), (0, 0)) is ExcitationPattern.P00
    assert classify_new((1, 0), (0, 0)) is ExcitationPattern.P10
    assert classify_new((1, 0), (0, 1)) is ExcitationPattern.P11
    # Two photons in one cell versus one in each cell of a node.
    assert classify_new((2, 0), (0, 0)) is ExcitationPattern.P20_PAR
    assert classify_new((1, 1), (0, 0)) is ExcitationPattern.P20_PERP
    assert classify_new((0, 2), (1, 0)) is ExcitationPattern.P21_PAR
    assert classify_new((1, 1), (1, 0)) is ExcitationPattern.P21_PERP
    assert classify_new((1, 1), (2, 0)) is ExcitationPattern.P22_PAR_PERP
    assert classify_new((3, 0), (0, 0)) is ExcitationPattern.OVERFLOW


def test_classification_is_symmetric_between_nodes():
    assert classify_new((1, 1), (1, 0)) is classify_new((1, 0), (1, 1))
    assert classify_dlcz(2, 1) is classify_dlcz(1, 2)


def test_text_round_trip():
    state = PatternState(
        SchemeKind.NEW,
        {
            ExcitationPattern.P11: 0.625,
            ExcitationPattern.P00: 0.25,
            ExcitationPattern.P21_PERP: 0.125,
        },
        LogicalBlock.from_array([0.125, 0.125, 0.75, 0.0]),
    )
    text = to_text(state)
    back = from_text(text)
    assert back.scheme is state.scheme
    for pat in scheme_patterns(state.scheme):
        assert back.prob(pat) == pytest.approx(state.prob(pat), abs=0.0)
    assert np.array_equal(back.logical.as_array(), state.logical.as_array())


def test_from_text_rejects_unknown_fields():
    with pytest.raises(ValueError):
        from_text("scheme: new\nbogus: 1.0\n")
    with pytest.raises(ValueError):
        from_text("P11: 1.0\n")
