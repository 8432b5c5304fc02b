"""Tests for the excitation-pattern state representation, and for the
pattern table that builds and classifies the Fock oracle's states."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ensemble_repeater.circuits import canonical_state, classify, project_from_fock
from ensemble_repeater.patterns import (
    WEIGHT_TOL,
    BellState,
    ExcitationPattern,
    PatternState,
    SchemeKind,
    aggregate,
    apply_bell_channel,
    apply_bell_channel_rows,
    check_row,
    fidelity,
    logical_column,
    logical_fidelity,
    logical_fidelity_rows,
    logical_pattern,
    normalize,
    row_totals,
    scheme_patterns,
)
from ensemble_repeater.tables import canonical_keys


def test_bell_state_order():
    assert [b.index for b in BellState] == [0, 1, 2, 3]
    assert BellState.PSI_PLUS.index == 2


def test_pattern_layer_enums_hash_by_identity():
    """Their members are singletons, so the table caches keyed on them
    hash with ``object.__hash__``, not the Python-level ``Enum.__hash__``."""
    for kind in (SchemeKind, BellState, ExcitationPattern):
        assert kind.__hash__ is object.__hash__, kind
        assert all(hash(member) == object.__hash__(member) for member in kind)


def test_scheme_patterns_contain_logical_and_overflow():
    for scheme in SchemeKind:
        pats = scheme_patterns(scheme)
        assert logical_pattern(scheme) in pats
        assert ExcitationPattern.OVERFLOW in pats
    assert logical_pattern(SchemeKind.DLCZ) is ExcitationPattern.P10
    assert logical_pattern(SchemeKind.NEW) is ExcitationPattern.P11


def _pure(bell):
    """One-hot conditional Bell weights."""
    weights = [0.0] * 4
    weights[bell.index] = 1.0
    return weights


def _nonzero(state):
    """The state's nonzero pattern masses by pattern, in scheme order."""
    patterns = scheme_patterns(state.scheme)
    return {p: m for p, m in zip(patterns, state.masses.tolist()) if m != 0.0}


def _mass(state, pattern):
    """The state's mass of one pattern of its scheme."""
    return float(state.masses[scheme_patterns(state.scheme).index(pattern)])


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
        PatternState(SchemeKind.NEW, {ExcitationPattern.P11: 1.0}, (0.5, 0.0, 0.0, 0.0))
    with pytest.raises(ValueError, match=r"^expected four Bell weights$"):
        PatternState(SchemeKind.NEW, {ExcitationPattern.P11: 1.0}, (0.5, 0.5, 0.0))
    # Negative weights are rejected even where no logical mass scales them.
    for probs in ({ExcitationPattern.P11: 1.0}, {ExcitationPattern.P00: 1.0}):
        with pytest.raises(ValueError, match=r"^Bell weights must be non-negative$"):
            PatternState(SchemeKind.NEW, probs, [0.5, 0.6, -0.1, 0.0])
    # Weights are taken as given, never renormalized.
    with pytest.raises(ValueError, match=r"^logical block weights sum to 10\.0, expected 1$"):
        PatternState(SchemeKind.NEW, {ExcitationPattern.P11: 1.0}, [2.0, 1.0, 6.0, 1.0])
    # Any float sequence of four weights summing to 1 is accepted as is.
    for weights in ((0.25, 0.25, 0.25, 0.25), np.array([0.2, 0.1, 0.6, 0.1])):
        state = PatternState(SchemeKind.NEW, {ExcitationPattern.P11: 1.0}, weights)
        assert state.logical.tolist() == list(weights)
    pure = PatternState(
        SchemeKind.DLCZ, {ExcitationPattern.P10: 1.0}, _pure(BellState.PSI_PLUS)
    )
    assert pure.logical.tolist() == [0.0, 0.0, 1.0, 0.0]
    # The default is pure Phi+.
    default = PatternState(SchemeKind.NEW, {ExcitationPattern.P11: 1.0})
    assert default.logical.tolist() == [1.0, 0.0, 0.0, 0.0]


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize(
    "scheme, probs, message",
    [
        (
            SchemeKind.DLCZ,
            [(ExcitationPattern.P20, -0.25), (ExcitationPattern.P00, -0.5)],
            r"^negative pattern probability: ExcitationPattern\.P00 = -0\.5$",
        ),
        (
            SchemeKind.NEW,
            [(ExcitationPattern.P10, -0.5), (ExcitationPattern.P00, -0.25)],
            r"^negative pattern probability: ExcitationPattern\.P00 = -0\.25$",
        ),
    ],
)
def test_pattern_state_names_the_first_negative_mass_in_scheme_order(
    scheme, probs, message, reverse
):
    """The constructor leaves the mass check to the state rule, so the
    message names P00, first in scheme order, whatever the mapping's order."""
    with pytest.raises(ValueError, match=message):
        PatternState(scheme, dict(probs[::-1] if reverse else probs))


def test_pattern_state_masses_follow_scheme_order():
    probs = {
        ExcitationPattern.P21_PERP: 0.125,
        ExcitationPattern.P00: 0.25,
        ExcitationPattern.P11: 0.625,
        ExcitationPattern.P10: 0.0,
    }
    state = PatternState(SchemeKind.NEW, probs, _pure(BellState.PHI_PLUS))
    assert _nonzero(state) == {p: v for p, v in probs.items() if v != 0.0}
    assert state.masses.tolist() == [
        probs.get(p, 0.0) for p in scheme_patterns(SchemeKind.NEW)
    ]
    assert state.total == 1.0 and state.normalized
    same = PatternState(SchemeKind.NEW, dict(reversed(probs.items())))
    assert same == state
    assert same != PatternState(SchemeKind.NEW, probs, _pure(BellState.PSI_PLUS))


def test_pattern_state_is_immutable():
    weights = np.array([0.0, 0.0, 1.0, 0.0])
    state = PatternState(
        SchemeKind.DLCZ,
        {ExcitationPattern.P00: 0.25, ExcitationPattern.P10: 0.75},
        weights,
    )
    weights[:] = 0.25  # the state keeps its own copy
    assert state.logical.tolist() == [0.0, 0.0, 1.0, 0.0]
    with pytest.raises(AttributeError):
        state.scheme = SchemeKind.NEW
    with pytest.raises(AttributeError):
        state.total = 2.0
    with pytest.raises(AttributeError):
        del state.logical
    with pytest.raises(ValueError):
        state.masses[0] = 0.5
    with pytest.raises(ValueError):
        state.logical[0] = 0.5
    assert state.masses.tolist() == [0.25, 0.75, 0.0, 0.0, 0.0, 0.0, 0.0]


def test_step_row_rejects_negative_mass():
    """Rows built by the steps, through ``PatternState._from_row``, keep
    the negativity check."""
    masses = [0.0] * len(scheme_patterns(SchemeKind.NEW))
    masses[0] = -0.5 * WEIGHT_TOL  # within tolerance: kept as is
    masses[4] = -2.0 * WEIGHT_TOL
    masses[6] = -0.25
    with pytest.raises(
        ValueError,
        match=r"^negative pattern probability: ExcitationPattern\.P20_PERP = -2e-12$",
    ):
        PatternState._from_row(SchemeKind.NEW, np.array(masses + [0.0] * 4))
    masses[4] = masses[6] = 0.0
    state = PatternState._from_row(SchemeKind.NEW, np.array(masses + [0.0] * 4))
    assert _nonzero(state) == {ExcitationPattern.P00: -0.5 * WEIGHT_TOL}


@pytest.mark.parametrize(
    "mass, bell, accepted",
    [
        pytest.param(-5e-13, (1e-13, 0.0, 0.0, 0.0), False, id="negative-mass-positive-bell"),
        pytest.param(-5e-13, (-1e-13, 0.0, 0.0, 0.0), True, id="negative-mass-negative-bell"),
        pytest.param(5e-13, (-1e-13, 0.0, 0.0, 0.0), False, id="positive-mass-negative-bell"),
    ],
)
def test_step_row_checks_bell_weights_on_both_signs_of_the_logical_mass(
    mass, bell, accepted
):
    """A Bell weight is a Bell mass over the logical mass, which a step may
    leave slightly negative; the weight's sign then flips with it."""
    masses = [0.0] * len(scheme_patterns(SchemeKind.NEW))
    masses[logical_column(SchemeKind.NEW)] = mass
    row = np.array(masses + list(bell))
    if accepted:
        state = PatternState._from_row(SchemeKind.NEW, row)
        assert state.row[-4:].tolist() == list(bell)
    else:
        with pytest.raises(ValueError, match="^Bell weights must be non-negative$"):
            PatternState._from_row(SchemeKind.NEW, row)


# Row entries: mostly ordinary masses, some exact zeros of either sign,
# some just inside and some just outside -WEIGHT_TOL, and some far below
# it.  -0.0 is not below 0, so a state of such entries runs no
# ``check_row``; -1e-300 is, so a row holding it takes the full check,
# though as a mass it is within tolerance.  No entry is
# subnormal, so that a Bell mass over a logical mass stays finite.
_ENTRY = st.one_of(
    st.floats(0.0, 1.0, allow_subnormal=False),
    st.just(0.0),
    st.sampled_from(
        [-0.5 * WEIGHT_TOL, -2.0 * WEIGHT_TOL, -0.25, 1e-300, -0.0, -1e-300]
    ),
)


def _rule_error(scheme, row):
    """The state rule on one row, entry by entry: the message a state
    built from ``row`` raises, or None.

    A pattern mass below -WEIGHT_TOL fails, naming the first in scheme
    order; otherwise, when the logical mass is nonzero, a Bell weight
    (Bell mass over logical mass) below -WEIGHT_TOL fails.  A NaN Bell
    mass passes the weights: the extreme weight of the row is then NaN.
    """
    patterns = scheme_patterns(scheme)
    values = row.tolist()
    for pattern, p in zip(patterns, values):
        if p < -WEIGHT_TOL:
            return f"negative pattern probability: {pattern} = {p}"
    mass = values[logical_column(scheme)]
    bell = values[len(patterns):]
    if mass != 0.0 and not any(math.isnan(b) for b in bell):
        if any(b / mass < -WEIGHT_TOL for b in bell):
            return "Bell weights must be non-negative"
    return None


@st.composite
def _batches(draw):
    scheme = draw(st.sampled_from(list(SchemeKind)))
    width = len(scheme_patterns(scheme)) + 4
    n = draw(st.integers(1, 6))
    rows = np.array([[draw(_ENTRY) for _ in range(width)] for _ in range(n)])
    return scheme, rows


def _state_error(scheme, row):
    try:
        PatternState._from_row(scheme, row.copy())
    except ValueError as exc:
        return str(exc)
    return None


def _row_error(scheme, row):
    try:
        check_row(scheme, row)
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=120, deadline=None)
@given(batch=_batches())
def test_row_check_and_state_give_the_rule_verdict_on_every_row(batch):
    scheme, rows = batch
    for row in rows:
        expected = _rule_error(scheme, row)
        assert _row_error(scheme, row) == expected
        assert _state_error(scheme, row) == expected


@st.composite
def _rows_with_non_finite_entries(draw):
    """One row of ``_ENTRY`` values with NaN or +-inf at random positions."""
    scheme = draw(st.sampled_from(list(SchemeKind)))
    width = len(scheme_patterns(scheme)) + 4
    row = [draw(_ENTRY) for _ in range(width)]
    positions = draw(st.lists(st.integers(0, width - 1), min_size=1, max_size=3))
    for i in positions:
        row[i] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return scheme, np.array(row)


@settings(max_examples=200, deadline=None)
@given(case=_rows_with_non_finite_entries())
def test_row_and_state_checks_give_the_rule_verdict_on_non_finite_rows(case):
    """A state and ``check_row`` give the rule's verdict on NaN and
    infinite entries wherever they sit: a NaN mass first or second in the
    row gets the same verdict."""
    scheme, row = case
    expected = _rule_error(scheme, row)
    with np.errstate(all="ignore"):
        assert _row_error(scheme, row) == expected
        assert _state_error(scheme, row) == expected


def test_state_check_ignores_the_position_of_a_nan_mass():
    masses = [0.0] * len(scheme_patterns(SchemeKind.NEW))
    for first, second in ((np.nan, -0.25), (-0.25, np.nan)):
        masses[0], masses[1] = first, second
        with pytest.raises(ValueError, match="^negative pattern probability: "):
            PatternState._from_row(SchemeKind.NEW, np.array(masses + [0.0] * 4))


def _matrix_channel_row(state, p):
    """The state's row after the depolarizing channel built as a 4x4
    matrix, each Bell mass its matrix row's four products added left to
    right: the arithmetic ``apply_bell_channel`` must keep."""
    channel = (1.0 - p) * np.eye(4) + p * np.full((4, 4), 0.25)
    row = state.row.copy()
    m0, m1, m2, m3 = row[-4:].tolist()
    row[-4:] = [c0 * m0 + c1 * m1 + c2 * m2 + c3 * m3 for c0, c1, c2, c3 in channel.tolist()]
    return row


@settings(max_examples=200, deadline=None)
@given(batch=_batches(), p=st.floats(0.0, 1.0))
def test_apply_bell_channel_is_the_matrix_channel_to_the_bit(batch, p):
    scheme, rows = batch
    for row in np.abs(rows):
        state = PatternState._from_row(scheme, row)
        assert apply_bell_channel(state, p).row.tolist() == _matrix_channel_row(state, p).tolist()


@settings(max_examples=100, deadline=None)
@given(batch=_batches(), target=st.sampled_from(list(BellState)), p=st.floats(0.0, 1.0))
def test_batch_figures_equal_each_states_to_the_bit(batch, target, p):
    scheme, rows = batch
    rows[:, : len(scheme_patterns(scheme))] = np.abs(rows[:, : len(scheme_patterns(scheme))])
    rows[:, -4:] = np.abs(rows[:, -4:])
    states = [PatternState._from_row(scheme, row.copy()) for row in rows]
    mixed = rows.copy()
    apply_bell_channel_rows(mixed, p)
    assert mixed.tolist() == [apply_bell_channel(s, p).row.tolist() for s in states]
    assert row_totals(scheme, rows).tolist() == [state.total for state in states]
    weights = logical_fidelity_rows(scheme, rows, target).tolist()
    assert weights == [logical_fidelity(state, target) for state in states]
    assert weights == [float(state.logical[target.index]) for state in states]


def test_a_state_total_adds_its_masses_left_to_right():
    """1 + 2**-53 rounds to 1 twice over; a compensated sum, which
    ``sum`` is from Python 3.12 on, gives 1 + 2**-52 instead."""
    row = np.zeros(len(scheme_patterns(SchemeKind.NEW)) + 4)
    row[:3] = 1.0, 2.0**-53, 2.0**-53
    state = PatternState._from_row(SchemeKind.NEW, row.copy())
    assert state.total == row_totals(SchemeKind.NEW, row[None])[0] == 1.0


def test_pattern_state_total_and_normalize():
    state = PatternState(
        SchemeKind.DLCZ,
        {ExcitationPattern.P10: 0.3, ExcitationPattern.P00: 0.1},
        _pure(BellState.PSI_PLUS),
    )
    assert state.total == pytest.approx(0.4)
    assert not state.normalized
    unit = normalize(state)
    assert unit.normalized
    assert _mass(unit, ExcitationPattern.P10) == pytest.approx(0.75)
    # Normalization leaves the conditional Bell weights untouched.
    assert unit.logical[BellState.PSI_PLUS.index] == pytest.approx(1.0)


def test_normalize_applies_the_state_rule_to_a_callers_state():
    """A caller's state may hold a P00 mass of -1e-12; normalizing it by
    its total, 0.5 less that mass, takes the mass past -WEIGHT_TOL, and
    the normalized state is refused.  Engine rows hold no negative mass,
    so only such states can fail here."""
    row = np.zeros(len(scheme_patterns(SchemeKind.NEW)) + 4)
    row[0] = -1e-12
    row[scheme_patterns(SchemeKind.NEW).index(ExcitationPattern.P20_PERP)] = 0.5
    state = PatternState._from_row(SchemeKind.NEW, row)
    message = r"^negative pattern probability: ExcitationPattern\.P00 = -2\.0000000000039997e-12$"
    with pytest.raises(ValueError, match=message):
        normalize(state)


def test_bell_masses_scale_with_logical_probability():
    state = PatternState(
        SchemeKind.NEW,
        {ExcitationPattern.P11: 0.5, ExcitationPattern.P00: 0.5},
        [0.1, 0.2, 0.6, 0.1],
    )
    masses = state.row[-4:]
    assert masses.sum() == pytest.approx(0.5)
    assert masses[BellState.PSI_PLUS.index] == pytest.approx(0.3)


def test_state_is_one_row_of_masses_then_bell_masses():
    state = PatternState(
        SchemeKind.NEW,
        {ExcitationPattern.P11: 0.5, ExcitationPattern.P00: 0.5},
        [0.125, 0.125, 0.75, 0.0],
    )
    assert state.masses.tolist() == state.row[:-4].tolist()
    assert state.row[-4:].tolist() == [0.0625, 0.0625, 0.375, 0.0]
    assert np.shares_memory(state.masses, state.row)
    assert state.logical.tolist() == [0.125, 0.125, 0.75, 0.0]
    assert fidelity(state, BellState.PSI_PLUS) == 0.375


def test_empty_logical_pattern_reports_scheme_default():
    for scheme, default in (
        (SchemeKind.DLCZ, BellState.PSI_PLUS),
        (SchemeKind.NEW, BellState.PHI_PLUS),
    ):
        state = PatternState(scheme, {ExcitationPattern.P00: 1.0}, [0.25] * 4)
        assert state.row[-4:].tolist() == [0.0, 0.0, 0.0, 0.0]
        assert state.logical.tolist() == _pure(default)
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
        [0.05, 0.05, 0.9, 0.0],
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
        _pure(BellState.PHI_PLUS),
    )
    out = apply_bell_channel(state, 0.2)
    assert out.logical.sum() == pytest.approx(1.0)
    assert out.logical[BellState.PHI_PLUS.index] < 1.0
    ident = apply_bell_channel(state, 0.0)
    assert ident.logical[BellState.PHI_PLUS.index] == 1.0


@pytest.mark.parametrize(
    "p", [-1e-300, 1.0 + 2.0**-52, math.nan], ids=["negative", "above_one", "nan"]
)
def test_apply_bell_channel_rejects_bad_channels(p):
    """A depolarizing probability outside [0, 1], or NaN, is no channel."""
    state = PatternState(SchemeKind.NEW, {ExcitationPattern.P11: 1.0})
    message = rf"^depolarizing probability must lie in \[0, 1\], got {p}$"
    with pytest.raises(ValueError, match=message):
        apply_bell_channel(state, p)


def _dlcz(n_left, n_right):
    return classify(SchemeKind.DLCZ, (n_left, n_right))


def _new(left, right):
    return classify(SchemeKind.NEW, left + right)


def test_classify_dlcz():
    assert _dlcz(0, 0) is ExcitationPattern.P00
    assert _dlcz(1, 0) is ExcitationPattern.P10
    assert _dlcz(0, 1) is ExcitationPattern.P10
    assert _dlcz(1, 1) is ExcitationPattern.P11
    assert _dlcz(2, 0) is ExcitationPattern.P20
    assert _dlcz(2, 1) is ExcitationPattern.P21
    assert _dlcz(2, 2) is ExcitationPattern.P22
    assert _dlcz(3, 0) is ExcitationPattern.OVERFLOW


def test_classify_new():
    assert _new((0, 0), (0, 0)) is ExcitationPattern.P00
    assert _new((1, 0), (0, 0)) is ExcitationPattern.P10
    assert _new((1, 0), (0, 1)) is ExcitationPattern.P11
    # Two photons in one cell versus one in each cell of a node.
    assert _new((2, 0), (0, 0)) is ExcitationPattern.P20_PAR
    assert _new((1, 1), (0, 0)) is ExcitationPattern.P20_PERP
    assert _new((0, 2), (1, 0)) is ExcitationPattern.P21_PAR
    assert _new((1, 1), (1, 0)) is ExcitationPattern.P21_PERP
    assert _new((1, 1), (2, 0)) is ExcitationPattern.P22_PAR_PERP
    assert _new((3, 0), (0, 0)) is ExcitationPattern.OVERFLOW


def test_classification_is_symmetric_between_nodes():
    assert _new((1, 1), (1, 0)) is _new((1, 0), (1, 1))
    assert _dlcz(2, 1) is _dlcz(1, 2)


_MEMORIES = {
    SchemeKind.DLCZ: ("x", "y"),
    SchemeKind.NEW: (("xH", "xV"), ("yH", "yV")),
}


@pytest.mark.parametrize(
    "scheme, pattern, bell",
    [
        pytest.param(scheme, pattern, bell, id=f"{scheme.value}-{pattern.value}-{bell}")
        for scheme in SchemeKind
        for pattern, bell in canonical_keys(scheme)
    ],
)
def test_canonical_state_projects_back_onto_its_label(scheme, pattern, bell):
    """A pattern's canonical Fock state classifies as that pattern alone,
    and the logical one as its Bell label alone, with nothing discarded."""
    left, right = _MEMORIES[scheme]
    rho = canonical_state(scheme, pattern, left, right, bell)
    state, residue = project_from_fock(rho, scheme, left, right)
    assert _nonzero(state) == {pattern: pytest.approx(1.0, abs=1e-15)}
    if bell is not None:
        want = np.zeros(4)
        want[bell.index] = 1.0
        assert state.logical.tolist() == pytest.approx(want.tolist(), abs=1e-15)
    assert residue == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize(
    "scheme, mode_map, message",
    [
        (SchemeKind.NEW, (("x", "y", "z"), ("u", "v")), r"\(H, V\) mode pairs"),
        (SchemeKind.DLCZ, (("x",), "y"), "single mode labels"),
        (SchemeKind.NEW, ("x", "y"), r"\(H, V\) mode pairs"),
        (SchemeKind.DLCZ, ("x", "z"), "does not match the memory modes"),
    ],
)
def test_projection_checks_its_mode_map(scheme, mode_map, message):
    """``mode_map`` is the (left, right) memory modes the projection
    reads the state on."""
    rho = canonical_state(SchemeKind.DLCZ, ExcitationPattern.P11, "x", "y")
    with pytest.raises(ValueError, match=message):
        project_from_fock(rho, scheme, *mode_map)


@pytest.mark.parametrize(
    "scheme, pattern, bell, message",
    [
        pytest.param(
            SchemeKind.DLCZ, ExcitationPattern.OVERFLOW, None, "no canonical state",
            id="overflow",
        ),
        pytest.param(
            SchemeKind.NEW, ExcitationPattern.P11, None, "needs one of the Bell labels",
            id="logical-without-bell",
        ),
        pytest.param(
            SchemeKind.DLCZ, ExcitationPattern.P10, BellState.PHI_PLUS,
            "needs one of the Bell labels", id="single-rail-phi-plus",
        ),
        pytest.param(
            SchemeKind.DLCZ, ExcitationPattern.P00, BellState.PSI_MINUS,
            "P00 is not the logical pattern", id="bell-on-non-logical",
        ),
    ],
)
def test_canonical_state_rejects_a_key_that_is_not_canonical(scheme, pattern, bell, message):
    """Only the keys of ``canonical_keys`` have a canonical state: a Bell
    label on any pattern but the logical one is an error, not ignored."""
    left, right = _MEMORIES[scheme]
    with pytest.raises(ValueError, match=message):
        canonical_state(scheme, pattern, left, right, bell)
