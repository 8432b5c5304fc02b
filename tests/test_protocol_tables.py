"""Connection, purification and post-selection tables.

The reference values here were computed once by the brute-force Fock
simulation at eta = 0.9 and are frozen as literals, so any regression in
the circuit layer shows up as a numeric mismatch rather than just a
broken invariant.
"""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ensemble_repeater.chain import pc_grid
from ensemble_repeater.circuits import oracle_table
from ensemble_repeater.noise import (
    NoiseParams,
    gaussian_phase_average,
    misalignment_channel,
    phase_error_prob,
)
from ensemble_repeater.patterns import (
    BellState,
    ExcitationPattern,
    PatternState,
    SchemeKind,
    apply_bell_channel,
    logical_column,
    logical_pattern,
    normalize,
    scheme_patterns,
)
from ensemble_repeater.protocols import (
    ENG_MULTI_WEIGHT_DLCZ,
    ENG_MULTI_WEIGHT_NEW,
    EnpKind,
    _apply_table,
    _component_masses,
    apply_table_rows,
    enc,
    eng,
    eng_rows,
    enp,
    postselect_pme,
    predicted_logical_error,
)
from ensemble_repeater.tables import (
    KINDS,
    ConnectionTable,
    canonical_keys,
    enc_table,
    enp_table,
    kind_table,
    pme_table,
    selected_columns,
)
from ensemble_repeater.verify import bell_xor

ETA = 0.9

B = BellState
P = ExcitationPattern
NEW = SchemeKind.NEW
DLCZ = SchemeKind.DLCZ
# One-hot conditional Bell weights (Phi+, Phi-, Psi+, Psi-).
PHI_PLUS = (1.0, 0.0, 0.0, 0.0)
PSI_PLUS = (0.0, 0.0, 1.0, 0.0)


def _masses(entry):
    return {pattern: mass for pattern, mass in entry.masses}


def _nonzero(state):
    """The state's nonzero pattern masses by pattern, in scheme order."""
    patterns = scheme_patterns(state.scheme)
    return {p: m for p, m in zip(patterns, state.masses.tolist()) if m != 0.0}


def _mass(state, pattern):
    """The state's mass of one pattern of its scheme."""
    return float(state.masses[scheme_patterns(state.scheme).index(pattern)])


# ----------------------------------------------------------------------
# two-cell connection, frozen at eta = 0.9


def test_two_cell_connection_logical_inputs():
    table = enc_table(NEW, ETA)
    entry = table.entry((P.P11, B.PSI_PLUS), (P.P11, B.PSI_PLUS))
    assert _masses(entry) == {P.P11: pytest.approx(0.405)}
    assert entry.bell == pytest.approx((0.405, 0.0, 0.0, 0.0))
    entry = table.entry((P.P11, B.PSI_PLUS), (P.P11, B.PSI_MINUS))
    assert entry.bell == pytest.approx((0.0, 0.405, 0.0, 0.0))


def test_two_cell_connection_error_inputs():
    table = enc_table(NEW, ETA)
    cases = {
        ((P.P11, B.PHI_PLUS), (P.P10, None)): {P.P10: 0.2025},
        ((P.P11, B.PHI_PLUS), (P.P20_PAR, None)): {P.P10: 0.0405},
        ((P.P11, B.PHI_PLUS), (P.P20_PERP, None)): {P.P10: 0.081},
        ((P.P11, B.PHI_PLUS), (P.P21_PAR, None)): {P.P21_PAR: 0.2025, P.P11: 0.0405},
        ((P.P11, B.PHI_PLUS), (P.P21_PERP, None)): {P.P21_PERP: 0.2025, P.P11: 0.081},
        ((P.P10, None), (P.P10, None)): {P.P00: 0.10125},
        ((P.P10, None), (P.P21_PAR, None)): {P.P10: 0.02025, P.P20_PAR: 0.10125},
        ((P.P10, None), (P.P21_PERP, None)): {
            P.P11: 0.2025,
            P.P10: 0.0405,
            P.P20_PERP: 0.10125,
        },
        ((P.P00, None), (P.P21_PERP, None)): {P.P10: 0.405},
        ((P.P00, None), (P.P20_PERP, None)): {P.P00: 0.405},
        ((P.P11, B.PHI_PLUS), (P.P00, None)): {},
        ((P.P10, None), (P.P00, None)): {},
        ((P.P00, None), (P.P21_PAR, None)): {},
        ((P.P00, None), (P.P20_PAR, None)): {},
    }
    for (alpha, beta), want in cases.items():
        got = _masses(table.entry(alpha, beta))
        assert set(got) == set(want), (alpha, beta)
        for pattern, mass in want.items():
            assert got[pattern] == pytest.approx(mass), (alpha, beta, pattern)


def test_logical_output_of_mixed_inputs_is_depolarized():
    """A logical photon surviving next to an error component carries no
    usable Bell correlation: the conditional block is fully mixed."""
    table = enc_table(NEW, ETA)
    entry = table.entry((P.P11, B.PHI_PLUS), (P.P21_PERP, None))
    assert entry.bell == pytest.approx((0.02025,) * 4)


def test_connection_bell_group_law():
    """Logical x logical connection obeys the Bell XOR group law exactly,
    with coefficient 1/2 at unit efficiency, at both connection levels."""
    for first_level in (False, True):
        table = enc_table(NEW, 1.0, first_level=first_level)
        for a, b in itertools.product(BellState, repeat=2):
            entry = table.entry((P.P11, a), (P.P11, b))
            want = [0.0, 0.0, 0.0, 0.0]
            want[bell_xor(a, b).index] = 0.5
            assert entry.bell == pytest.approx(tuple(want), abs=1e-12)
            assert _masses(entry) == {P.P11: pytest.approx(0.5)}


def test_first_level_rotations_reject_cross_cell_doubles():
    """The 45 degree rotations make both photons of a cross-cell double
    bunch, so first-level connection rejects those components."""
    lvl1 = enc_table(NEW, 1.0, first_level=True)
    higher = enc_table(NEW, 1.0, first_level=False)
    alpha = (P.P20_PERP, None)
    assert lvl1.entry(alpha, alpha).total == 0.0
    assert _masses(higher.entry(alpha, alpha)) == {P.P20_PERP: pytest.approx(0.5)}


def test_first_level_success_from_ideal_source():
    """Ideal heralded sources put half their mass on the cross-cell
    double; only the logical x logical quarter survives the rotated
    connection, at coefficient 1/2: total success 1/8."""
    src = PatternState(NEW, {P.P11: 0.5, P.P20_PERP: 0.5}, PSI_PLUS)
    out = enc(NEW, src, src, 1.0, level=1)
    assert out.total == pytest.approx(0.125)
    assert _nonzero(out) == {P.P11: pytest.approx(0.125)}
    assert out.logical[B.PHI_PLUS.index] == pytest.approx(1.0)
    higher = enc(NEW, src, src, 1.0, level=2)
    assert higher.total == pytest.approx(0.25)


# ----------------------------------------------------------------------
# single-rail connection, frozen at eta = 0.9


def test_single_rail_connection_logical_inputs():
    table = enc_table(DLCZ, ETA)
    entry = table.entry((P.P10, B.PSI_PLUS), (P.P10, B.PSI_MINUS))
    assert _masses(entry) == {
        P.P10: pytest.approx(0.45),
        P.P00: pytest.approx(0.045),
    }
    assert entry.bell == pytest.approx((0.0, 0.0, 0.0, 0.45))
    same = table.entry((P.P10, B.PSI_PLUS), (P.P10, B.PSI_PLUS))
    assert same.bell == pytest.approx((0.0, 0.0, 0.45, 0.0))


def test_single_rail_connection_error_inputs():
    table = enc_table(DLCZ, ETA)
    cases = {
        ((P.P10, B.PSI_PLUS), (P.P00, None)): {P.P00: 0.45},
        ((P.P10, B.PSI_PLUS), (P.P11, None)): {P.P11: 0.45, P.P10: 0.09},
        ((P.P10, B.PSI_PLUS), (P.P20, None)): {
            P.P20: 0.225,
            P.P10: 0.045,
            P.P00: 0.00675,
        },
        ((P.P00, None), (P.P00, None)): {},
        ((P.P00, None), (P.P11, None)): {P.P10: 0.9},
        ((P.P00, None), (P.P20, None)): {P.P00: 0.09},
    }
    for (alpha, beta), want in cases.items():
        got = _masses(table.entry(alpha, beta))
        assert set(got) == set(want), (alpha, beta)
        for pattern, mass in want.items():
            assert got[pattern] == pytest.approx(mass), (alpha, beta, pattern)


# ----------------------------------------------------------------------
# purification, frozen at eta = 0.9


def test_bit_purification_parity_rule():
    table = enp_table("bit", ETA)
    keep = table.entry((P.P11, B.PSI_PLUS), (P.P11, B.PSI_MINUS))
    assert keep.bell == pytest.approx((0.0, 0.0, 0.0, 0.32805))
    assert _masses(keep)[P.P11] == pytest.approx(0.32805)
    # Mismatched bit parities never pass in the logical sector; the
    # residual mass is all sub-logical (photons lost before comparison).
    reject = table.entry((P.P11, B.PHI_PLUS), (P.P11, B.PSI_PLUS))
    assert reject.bell == pytest.approx((0.0, 0.0, 0.0, 0.0))
    assert _masses(reject) == {
        P.P00: pytest.approx(0.0081),
        P.P10: pytest.approx(0.0729),
    }


def test_phase_purification_parity_rule():
    table = enp_table("phase", ETA)
    keep = table.entry((P.P11, B.PHI_PLUS), (P.P11, B.PHI_PLUS))
    assert keep.bell == pytest.approx((0.32805, 0.0, 0.0, 0.0))
    assert _masses(keep) == {
        P.P11: pytest.approx(0.32805),
        P.P10: pytest.approx(0.0729),
        P.P00: pytest.approx(0.01215),
    }
    crossed = table.entry((P.P11, B.PSI_MINUS), (P.P11, B.PHI_MINUS))
    assert crossed.bell == pytest.approx((0.0, 0.0, 0.0, 0.32805))
    mismatch = table.entry((P.P11, B.PHI_PLUS), (P.P11, B.PHI_MINUS))
    assert mismatch.bell == pytest.approx((0.0, 0.0, 0.0, 0.0))


def test_purification_truth_table_at_unit_efficiency():
    """Bit rounds keep equal bit parity, phase rounds keep equal sign,
    all with coefficient 1/2; everything else is rejected outright."""
    code = {
        B.PHI_PLUS: (0, 0),
        B.PHI_MINUS: (0, 1),
        B.PSI_PLUS: (1, 0),
        B.PSI_MINUS: (1, 1),
    }
    for kind in ("bit", "phase"):
        table = enp_table(kind, 1.0)
        for a, b in itertools.product(BellState, repeat=2):
            entry = table.entry((P.P11, a), (P.P11, b))
            (bit_a, sign_a), (bit_b, sign_b) = code[a], code[b]
            accepted = (bit_a == bit_b) if kind == "bit" else (sign_a == sign_b)
            if not accepted:
                assert entry.total == 0.0, (kind, a, b)
                continue
            if kind == "bit":
                out = (bit_a, sign_a ^ sign_b)
            else:
                out = (bit_a ^ bit_b, sign_a)
            want = [0.0, 0.0, 0.0, 0.0]
            want[[*code.values()].index(out)] = 0.5
            assert entry.bell == pytest.approx(tuple(want), abs=1e-12), (kind, a, b)


# ----------------------------------------------------------------------
# final post-selected mapping


def test_post_selected_mapping():
    table = pme_table(ETA)
    assert table.output_scheme is NEW
    entry = table.entry((P.P10, B.PSI_PLUS), (P.P10, B.PSI_MINUS))
    assert _masses(entry) == {P.P11: pytest.approx(0.405)}
    assert entry.bell == pytest.approx((0.0, 0.0, 0.0, 0.405))
    entry = table.entry((P.P10, B.PSI_MINUS), (P.P10, B.PSI_MINUS))
    assert entry.bell == pytest.approx((0.0, 0.0, 0.405, 0.0))


# ----------------------------------------------------------------------
# structural properties


def test_tables_are_symmetric_in_their_inputs():
    table = enc_table(NEW, ETA)
    for alpha, beta in itertools.combinations(canonical_keys(NEW), 2):
        ab = table.entry(alpha, beta)
        ba = table.entry(beta, alpha)
        assert ab.total == pytest.approx(ba.total, abs=1e-12)
        assert sum(ab.bell) == pytest.approx(sum(ba.bell), abs=1e-12)


def test_two_cell_connection_closes_on_bell_diagonal_states():
    """Every two-cell connection entry stays exactly Bell-diagonal, so
    iterating the table through a nested chain loses nothing.  Residues
    come from the oracle: they are not polynomials in eta."""
    for kind in ("enc_higher", "enc_level1"):
        assert oracle_table(kind, ETA).max_residue() <= 1e-10


def test_purification_closes_on_the_logical_sector():
    """Purification and the final mapping are Bell-diagonal on logical
    inputs; fake coincidences involving error patterns leave (reported)
    coherence that the bookkeeping deliberately drops."""
    tables = [oracle_table(kind, ETA) for kind in ("enp_bit", "enp_phase", "pme")]
    for table in tables:
        for (alpha, beta), entry in table.entries.items():
            if alpha[1] is not None and beta[1] is not None:
                assert entry.residue <= 1e-10, (table.kind, alpha, beta)
        assert table.max_residue() > 1e-3


def test_single_rail_error_entries_drop_known_coherence():
    """Connections fed by single-rail error patterns leave coherence
    between the odd-parity outputs that the Bell-diagonal bookkeeping
    discards; the residue diagnostic reports it instead of hiding it."""
    table = oracle_table("enc_dlcz", ETA)
    entry = table.entry((P.P00, None), (P.P11, None))
    assert entry.residue > 0.1
    assert entry.bell == pytest.approx((0.0, 0.0, 0.45, 0.45))


# ----------------------------------------------------------------------
# the dense step kernel against the per-entry bilinear sum


def _reference_step(table, left, right):
    """Reference step: pattern masses and absolute Bell masses summed
    entry by entry over ``table.entries``."""

    def components(state):
        logical = logical_pattern(state.scheme)
        masses = {}
        for pattern, prob in _nonzero(state).items():
            if pattern is P.OVERFLOW:
                continue
            if pattern is logical:
                for bell in BellState:
                    weight = state.logical[bell.index]
                    if weight > 0.0:
                        masses[(pattern, bell)] = prob * weight
            elif prob > 0.0:
                masses[(pattern, None)] = prob
        return masses

    logical_out = logical_pattern(table.output_scheme)
    masses = {}
    bell = [0.0] * 4
    for key_l, mass_l in components(left).items():
        for key_r, mass_r in components(right).items():
            entry = table.entry(key_l, key_r)
            weight = mass_l * mass_r
            for pattern, mass in entry.masses:
                if pattern is not logical_out:
                    masses[pattern] = masses.get(pattern, 0.0) + weight * mass
            bell = [b + weight * w for b, w in zip(bell, entry.bell)]
    return masses, bell


_MASS = st.one_of(st.just(0.0), st.floats(1e-6, 1.0))


@st.composite
def _pattern_states(draw, scheme):
    probs = {pattern: draw(_MASS) for pattern in scheme_patterns(scheme)}
    n_bells = 2 if scheme is DLCZ else 4
    weights = [draw(_MASS) for _ in range(n_bells)]
    if sum(weights) == 0.0:
        weights[0] = 1.0
    weights = [w / sum(weights) for w in weights]
    block = [0.0, 0.0, *weights] if scheme is DLCZ else weights
    return PatternState(scheme, probs, block)


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_dense_step_matches_per_entry_sum(kind, data):
    """The step on a left and a right state, equal or not, is the
    entry-by-entry sum, for every table."""
    table = kind_table(kind, ETA)
    left = data.draw(_pattern_states(table.scheme), label="left")
    if data.draw(st.booleans(), label="same pair"):
        right = left
    else:
        right = data.draw(_pattern_states(table.scheme), label="right")
    out = _apply_table(table, left, right)
    masses, bell = _reference_step(table, left, right)
    logical = logical_pattern(table.output_scheme)
    assert out.scheme is table.output_scheme
    for pattern in scheme_patterns(table.output_scheme):
        if pattern is not logical:
            want = masses.get(pattern, 0.0)
            assert _mass(out, pattern) == pytest.approx(want, rel=1e-12, abs=0.0)
    p_logical = sum(bell)
    assert _mass(out, logical) == pytest.approx(p_logical, rel=1e-12, abs=0.0)
    if p_logical > 0.0:
        want = [b / p_logical for b in bell]
        assert out.logical.tolist() == pytest.approx(want, rel=1e-12, abs=0.0)
    else:
        fallback = PSI_PLUS if table.output_scheme is DLCZ else PHI_PLUS
        assert out.logical.tolist() == list(fallback)


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_batched_step_equals_the_step_of_each_row(kind, data):
    """Row i of one batched step is the step on the states of row i, to
    the bit, for one pair per row and for each row with itself."""
    table = kind_table(kind, ETA)
    n = data.draw(st.integers(1, 5), label="rows")
    lefts = [data.draw(_pattern_states(table.scheme), label="left") for _ in range(n)]
    left_rows = np.stack([state.row for state in lefts])
    if data.draw(st.booleans(), label="each row with itself"):
        rights, right_rows = lefts, left_rows
    else:
        rights = [
            data.draw(_pattern_states(table.scheme), label="right") for _ in range(n)
        ]
        right_rows = np.stack([state.row for state in rights])
    out = apply_table_rows(table, left_rows, right_rows)
    assert out.shape == (n, len(scheme_patterns(table.output_scheme)) + 4)
    for row, left, right in zip(out, lefts, rights):
        assert np.array_equal(row, _apply_table(table, left, right).row)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_the_step_contracts_the_left_input_over_a_and_the_right_over_b(kind):
    """Every table is exactly symmetric in its two inputs, so a step
    with its inputs exchanged passes every check on real tables; a
    random tensor in the table's shape pins which input is which."""
    table = kind_table(kind, ETA)
    rng = np.random.default_rng(11)
    tensor = rng.random(table.tensor.shape)
    assert not np.allclose(tensor, tensor.transpose(0, 2, 1))
    patched = ConnectionTable(table.kind, table.eta, table.entries)
    patched.__dict__["tensor"] = tensor
    left_rows, right_rows = (_random_rows(rng, table.scheme, 5) for _ in range(2))
    x_left = _component_masses(table.scheme, left_rows)
    x_right = _component_masses(table.scheme, right_rows)
    want = np.einsum("oab,na,nb->no", tensor, x_left, x_right)
    got = apply_table_rows(patched, left_rows, right_rows)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 255, 256, 257, 302, 604, 906, 1208, 1510, 1812])
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_batch_size_leaves_each_rows_step_unchanged(kind, n):
    """At batch sizes from none to the 302 rows of the p_c grid, and up
    to a sweep's block of 302 rows for each of six station spacings,
    where one BLAS product over the whole batch would block its sums
    differently from a single row's, row i of a batched step is the
    step on the states of row i, to the bit: for one pair per row and
    for each row with itself.  The single step runs on the 1-d rows
    with ``np.dot``, the batch stacks its rows with ``np.matmul``, and
    both must reach the same BLAS matrix-vector call."""
    table = kind_table(kind, ETA)
    rng = np.random.default_rng(302)
    left_rows, right_rows = (_random_rows(rng, table.scheme, n) for _ in range(2))
    lefts = [PatternState._from_row(table.scheme, row) for row in left_rows]
    rights = [PatternState._from_row(table.scheme, row) for row in right_rows]
    k_out = len(scheme_patterns(table.output_scheme)) + 4
    for others, other_states in ((right_rows, rights), (left_rows, lefts)):
        out = apply_table_rows(table, left_rows, others)
        assert out.shape == (n, k_out)
        for row, left, right in zip(out, lefts, other_states):
            assert np.array_equal(row, _apply_table(table, left, right).row)


def _random_rows(rng, scheme, n):
    """``n`` valid state rows of random masses: the Bell masses split the
    logical mass, with none of a single-rail row's on even parity."""
    patterns = scheme_patterns(scheme)
    rows = np.zeros((n, len(patterns) + 4))
    rows[:, : len(patterns)] = rng.random((n, len(patterns)))
    bells = rng.random((n, 4))
    if scheme is DLCZ:
        bells[:, :2] = 0.0
    mass = rows[:, logical_column(scheme)]
    rows[:, -4:] = bells / bells.sum(axis=1, keepdims=True) * mass[:, None]
    return rows


def _assert_row_invariant(state):
    """The logical mass is the Bell masses' sum, and ``logical`` their
    conditional weights or, without logical mass, the scheme default."""
    mass = _mass(state, logical_pattern(state.scheme))
    assert mass == pytest.approx(float(state.row[-4:].sum()), rel=1e-12, abs=0.0)
    assert state.logical.sum() == pytest.approx(1.0, rel=1e-12, abs=0.0)
    if mass == 0.0:
        default = PSI_PLUS if state.scheme is DLCZ else PHI_PLUS
        assert state.logical.tolist() == list(default)


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_state_row_invariant_holds_through_every_operation(kind, data):
    table = kind_table(kind, ETA)
    state = data.draw(_pattern_states(table.scheme), label="state")
    assume(state.total > 0.0)
    p = data.draw(st.floats(0.0, 1.0), label="p_misalign")
    unit = normalize(state)
    for out in (
        state,
        unit,
        apply_bell_channel(unit, misalignment_channel(p)),
        _apply_table(table, unit, unit),
    ):
        _assert_row_invariant(out)


# ----------------------------------------------------------------------
# protocol-level wrappers


@pytest.mark.parametrize("scheme", [NEW, DLCZ])
def test_selected_columns_read_each_keys_mass(scheme):
    columns = selected_columns(scheme)
    assert selected_columns(scheme) is columns
    assert not columns.flags.writeable
    patterns = scheme_patterns(scheme)
    keys = canonical_keys(scheme)
    assert len(columns) == len(keys)
    for column, (pattern, bell) in zip(columns.tolist(), keys):
        if bell is None:
            assert column == patterns.index(pattern)
        else:
            assert pattern is logical_pattern(scheme)
            assert column == len(patterns) + bell.index


def test_component_masses_clip_small_negative_masses_to_zero():
    state = PatternState(
        NEW,
        {P.P11: 0.6, P.P00: -1e-13, P.P20_PERP: 0.4 + 1e-13},
        (0.5 + 1e-13, -1e-13, 0.25, 0.25),
    )
    rows = _component_masses(NEW, state.row[None])
    masses = dict(zip(canonical_keys(NEW), rows[0].tolist()))
    assert masses[(P.P00, None)] == 0.0
    assert masses[(P.P11, B.PHI_MINUS)] == 0.0
    assert masses[(P.P20_PERP, None)] == 0.4 + 1e-13
    assert masses[(P.P11, B.PHI_PLUS)] == state.row[-4]


def test_step_outcome_mass_is_success_probability():
    noise = NoiseParams(eta=ETA)
    pair = eng(NEW, 0.01, noise, 40.0)
    out = enc(NEW, pair, pair, ETA, level=1)
    assert not out.normalized and 0.0 < out.total < 1.0
    kept = enp(EnpKind.PHASE, normalize(out), normalize(out), ETA)
    assert not kept.normalized and 0.0 < kept.total < 1.0
    dlcz_pair = eng(DLCZ, 0.01, noise, 40.0)
    joined = normalize(enc(DLCZ, dlcz_pair, dlcz_pair, ETA))
    final = postselect_pme(joined, joined, ETA)
    assert not final.normalized and 0.0 < final.total < 1.0
    assert final.scheme is NEW


def test_enp_accepts_string_kinds():
    pair = PatternState(NEW, {P.P11: 1.0}, PHI_PLUS)
    out = enp("phase", pair, pair, 1.0)
    assert out.total == pytest.approx(0.5)
    with pytest.raises(ValueError):
        enp("parity", pair, pair, 1.0)


def test_enc_rejects_bad_level_and_scheme_mismatch():
    pair = PatternState(NEW, {P.P11: 1.0}, PSI_PLUS)
    with pytest.raises(ValueError):
        enc(NEW, pair, pair, ETA, level=0)
    dlcz_pair = PatternState(DLCZ, {P.P10: 1.0}, PSI_PLUS)
    with pytest.raises(ValueError):
        enc(NEW, pair, dlcz_pair, ETA)


def test_single_rail_states_cannot_carry_even_parity_weight():
    bad = PatternState(DLCZ, {P.P10: 1.0}, [0.5, 0.0, 0.5, 0.0])
    with pytest.raises(ValueError):
        enc(DLCZ, bad, bad, ETA)


def test_step_checks_keep_their_messages():
    """The scheme, parity and state checks still run on the array a step
    reads and writes."""
    pair = eng(NEW, 0.01, NoiseParams(eta=ETA), 40.0)
    dlcz_pair = PatternState(DLCZ, {P.P10: 1.0}, PSI_PLUS)
    with pytest.raises(ValueError, match="^input scheme does not match table scheme$"):
        enc(NEW, pair, dlcz_pair, ETA)
    even = PatternState(DLCZ, {P.P10: 1.0}, (0.0, 1.0, 0.0, 0.0))
    with pytest.raises(
        ValueError, match="^single-rail pairs carry only odd-parity Bell weight$"
    ):
        enc(DLCZ, even, dlcz_pair, ETA)
    even_right = PatternState(DLCZ, {P.P10: 1.0}, (1.0, 0.0, 0.0, 0.0))
    with pytest.raises(
        ValueError, match="^single-rail pairs carry only odd-parity Bell weight$"
    ):
        enc(DLCZ, dlcz_pair, even_right, ETA)
    table = enc_table(NEW, ETA)
    broken = ConnectionTable(table.kind, table.eta, table.entries)
    tensor = table.tensor.copy()
    tensor[0] = -1.0  # every input pair now feeds negative P00 mass
    broken.__dict__["tensor"] = tensor
    assert _mass(_apply_table(table, pair, pair), P.P00) >= 0.0
    message = r"^negative pattern probability: ExcitationPattern\.P00 = -"
    with pytest.raises(ValueError, match=message):
        _apply_table(broken, pair, pair)


def test_single_rail_step_accepts_even_parity_mass_without_logical_mass():
    """The parity rule weighs Bell mass by the logical mass, so a row
    whose logical mass is zero passes whatever its Phi+ and Phi- mass,
    on either side; the step does not read that mass."""
    plain = np.zeros(len(scheme_patterns(DLCZ)) + 4)
    plain[[0, 2]] = 0.5  # P00 and P11
    even = plain.copy()
    even[-4:-2] = 0.25, 0.5
    pair = PatternState(DLCZ, {P.P10: 1.0}, PSI_PLUS)
    want = enc(DLCZ, PatternState._from_row(DLCZ, plain.copy()), pair, ETA)
    assert want.total > 0.0
    got = enc(DLCZ, PatternState._from_row(DLCZ, even.copy()), pair, ETA)
    assert got == want
    got = enc(DLCZ, pair, PatternState._from_row(DLCZ, even.copy()), ETA)
    assert got == enc(DLCZ, pair, PatternState._from_row(DLCZ, plain), ETA)


def test_step_rejects_negative_bell_weight():
    pair = eng(NEW, 0.01, NoiseParams(eta=ETA), 40.0)
    table = enc_table(NEW, ETA)
    broken = ConnectionTable(table.kind, table.eta, table.entries)
    tensor = table.tensor.copy()
    tensor[-1] = -1e-3  # every input pair now feeds negative Psi- mass
    broken.__dict__["tensor"] = tensor
    with pytest.raises(ValueError, match="^Bell weights must be non-negative$"):
        _apply_table(broken, pair, pair)


def test_generation_composition():
    noise = NoiseParams(eta=ETA, D=0.0)
    new = eng(NEW, 0.01, noise, 40.0)
    assert new.normalized
    r = 0.2 * 0.01
    assert _mass(new, P.P11) == pytest.approx(0.5 / (1 + r))
    assert _mass(new, P.P20_PERP) == pytest.approx(0.5 / (1 + r))
    assert _mass(new, P.P21_PAR) == pytest.approx(0.5 * r / (1 + r))
    assert _mass(new, P.P21_PERP) == pytest.approx(0.5 * r / (1 + r))
    assert new.logical[B.PSI_PLUS.index] == pytest.approx(1.0)

    dlcz = eng(DLCZ, 0.01, noise, 40.0)
    r = 5.5 * 0.01
    assert _mass(dlcz, P.P10) == pytest.approx(1.0 / (1 + r))
    assert _mass(dlcz, P.P11) == pytest.approx(0.5 * r / (1 + r))
    assert _mass(dlcz, P.P20) == pytest.approx(0.5 * r / (1 + r))


@pytest.mark.parametrize("scheme", [NEW, DLCZ], ids=["two-cell", "single-rail"])
@pytest.mark.parametrize(
    "p_c, L0, D", [(1e-5, 5.0, 0.0), (0.01, 40.0, 1e-3), (0.3, 160.0, 0.02)]
)
def test_generation_row_equals_the_mapping_built_state(scheme, p_c, L0, D):
    """``eng`` writes its row directly; it must be the state the mapping
    constructor builds from the same masses and conditional weights."""
    if scheme is DLCZ:
        q = phase_error_prob(D, L0)
        extra = ENG_MULTI_WEIGHT_DLCZ * p_c
        norm = 1.0 + extra
        probs = {P.P10: 1.0 / norm, P.P11: 0.5 * extra / norm, P.P20: 0.5 * extra / norm}
    else:
        q = gaussian_phase_average(4.0 * D * L0)
        extra = ENG_MULTI_WEIGHT_NEW * p_c
        norm = 1.0 + extra
        probs = {
            P.P11: 0.5 / norm,
            P.P20_PERP: 0.5 / norm,
            P.P21_PAR: 0.5 * extra / norm,
            P.P21_PERP: 0.5 * extra / norm,
        }
    state = eng(scheme, p_c, NoiseParams(eta=ETA, D=D), L0)
    assert state == PatternState(scheme, probs, (0.0, 0.0, 1.0 - q, q))
    assert not state.row.flags.writeable


@pytest.mark.parametrize("D", [0.0, 1e-4])
@pytest.mark.parametrize("scheme", [NEW, DLCZ], ids=["two-cell", "single-rail"])
def test_generation_at_one_p_c_is_its_grid_row(scheme, D):
    """``eng`` at a float p_c takes its own products, which must be the
    grid's row of ``eng_rows`` to the bit at every p_c of the grid."""
    noise = NoiseParams(eta=ETA, D=D)
    grid = pc_grid()
    rows = eng_rows(scheme, grid, noise, 40.0)
    for p_c, row in zip(grid.tolist(), rows):
        assert eng(scheme, p_c, noise, 40.0).row.tobytes() == row.tobytes(), p_c


def test_generation_phase_noise_mixes_the_sign():
    import math

    noise = NoiseParams(eta=ETA, D=1e-3)
    dlcz = eng(DLCZ, 0.01, noise, 10.0)
    q = 0.5 * (1.0 - math.exp(-1e-3 * 10.0))
    assert dlcz.logical[B.PSI_MINUS.index] == pytest.approx(q)
    # The two-cell pattern compares two independent links, doubling the
    # phase variance entering the Gaussian average.
    new = eng(NEW, 0.01, noise, 10.0)
    q2 = 0.5 * (1.0 - math.exp(-2.0 * 1e-3 * 10.0))
    assert new.logical[B.PSI_MINUS.index] == pytest.approx(q2)


def test_generation_validation():
    noise = NoiseParams()
    with pytest.raises(ValueError):
        eng(NEW, 0.0, noise, 40.0)
    with pytest.raises(ValueError):
        eng(NEW, 1.0, noise, 40.0)
    with pytest.raises(ValueError):
        eng(NEW, 0.01, noise, 0.0)
    # An array p_c is checked as one column: one bad entry rejects it.
    for bad in (np.nan, 0.0, 1.0):
        column = pc_grid()
        column[len(column) // 2] = bad
        for scheme in (NEW, DLCZ):
            with pytest.raises(ValueError, match=r"^p_c must lie in \(0, 1\)$"):
                eng_rows(scheme, column, noise, 40.0)


def test_predicted_logical_error():
    assert predicted_logical_error(0, 0.9, 0.01) == 0.0
    assert predicted_logical_error(3, 0.9, 0.01) == pytest.approx(7 * 0.1 * 0.01)
    with pytest.raises(ValueError):
        predicted_logical_error(-1, 0.9, 0.01)
