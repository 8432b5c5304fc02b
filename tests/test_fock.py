"""Unit checks for the sparse Fock-space layer.

These exercise the exact linear-optics primitives (beamsplitters, PBS
routing, loss, photon counting) on small states where the expected
output is known in closed form.
"""

import math

import numpy as np
import pytest

from ensemble_repeater import circuits
from ensemble_repeater.fock import (
    BS_5050,
    LEDGER,
    PAULI_X,
    PAULI_Z,
    ROTATE_45,
    FockDensityOperator,
    apply_loss,
    apply_mode_unitary,
    apply_pbs,
    measure_modes,
    project_total_photons,
    relabel_modes,
    tensor,
)
from ensemble_repeater.patterns import BellState, ExcitationPattern
from ensemble_repeater.tables import KINDS, canonical_keys

HERMITICITY_TOL = 1e-12
PSD_TOL = 1e-10
TRACE_TOL = 1e-12


def occupied(state: FockDensityOperator) -> list[tuple[int, ...]]:
    """Sorted occupation tuples with nonzero amplitude somewhere."""
    return sorted(state.occupation_probabilities())


def matrix(state: FockDensityOperator) -> np.ndarray:
    """Dense Hermitian matrix over the ``occupied`` tuples, in that order."""
    return state.block(occupied(state))


def verify_invariants(state: FockDensityOperator) -> None:
    """Raise AssertionError if density-operator invariants fail.

    Checks Hermiticity (1e-12), positive semidefiniteness (smallest
    eigenvalue >= -1e-10) and trace <= 1 + 1e-12 on the dense matrix.
    """
    m = matrix(state)
    if m.size:
        herm = np.max(np.abs(m - m.conj().T))
        assert herm <= HERMITICITY_TOL, f"hermiticity violated by {herm:.3e}"
        lo = float(np.min(np.linalg.eigvalsh((m + m.conj().T) / 2.0)))
        assert lo >= -PSD_TOL, f"negative eigenvalue {lo:.3e}"
    assert state.trace <= 1.0 + TRACE_TOL, f"trace {state.trace} exceeds 1"


def vacuum(modes: tuple[str, ...]) -> FockDensityOperator:
    """The vacuum on ``modes``."""
    return FockDensityOperator(modes, [{(0,) * len(modes): 1.0}])


def _single_photon_pair():
    """|1,1> on modes a, b."""
    return FockDensityOperator.from_occupations(("a", "b"), {"a": 1, "b": 1})


def test_vacuum_is_normalized():
    vac = vacuum(("a", "b", "c"))
    assert vac.trace == pytest.approx(1.0)
    verify_invariants(vac)


def test_rotation_matrix_is_unitary():
    assert np.allclose(BS_5050.conj().T @ BS_5050, np.eye(2), atol=1e-12)
    # The cell rotation is self-inverse.
    assert np.allclose(BS_5050 @ BS_5050, np.eye(2), atol=1e-12)


def test_hom_bunching_on_balanced_beamsplitter():
    """Two indistinguishable photons on a 50/50 splitter never split.

    |1,1> maps to (|2,0> - |0,2>) / sqrt(2) up to phases: the
    coincidence probability vanishes and the bunched outcomes carry
    half the weight each.
    """
    state = apply_mode_unitary(_single_photon_pair(), ("a", "b"), BS_5050)
    probs = state.occupation_probabilities()
    assert probs.get((1, 1), 0.0) == pytest.approx(0.0, abs=1e-12)
    assert probs[(2, 0)] == pytest.approx(0.5)
    assert probs[(0, 2)] == pytest.approx(0.5)
    assert state.trace == pytest.approx(1.0)
    verify_invariants(state)


def test_beamsplitter_single_photon_splits_evenly():
    one = FockDensityOperator.from_occupations(("a", "b"), {"a": 1})
    out = apply_mode_unitary(one, ("a", "b"), BS_5050)
    probs = out.occupation_probabilities()
    assert probs[(1, 0)] == pytest.approx(0.5)
    assert probs[(0, 1)] == pytest.approx(0.5)


def test_mode_unitary_rejects_non_unitary():
    with pytest.raises(ValueError):
        apply_mode_unitary(
            _single_photon_pair(), ("a", "b"), np.array([[1.0, 0.0], [0.0, 2.0]])
        )


def test_pauli_phases_on_single_mode():
    plus = FockDensityOperator.from_ket(
        ("a", "b"), {(1, 0): 1 / math.sqrt(2), (0, 1): 1 / math.sqrt(2)}
    )
    flipped = apply_mode_unitary(plus, ("a", "b"), PAULI_X)
    assert np.allclose(matrix(flipped), matrix(plus), atol=1e-12)
    signed = apply_mode_unitary(plus, ("a", "b"), PAULI_Z)
    block = signed.block([(1, 0), (0, 1)])
    assert block[0, 1] == pytest.approx(-0.5)


def test_loss_channel_binomial_weights():
    two = FockDensityOperator.from_occupations(("a",), {"a": 2})
    eta = 0.7
    out = apply_loss(two, "a", eta)
    probs = out.occupation_probabilities()
    assert probs[(2,)] == pytest.approx(eta**2)
    assert probs[(1,)] == pytest.approx(2 * eta * (1 - eta))
    assert probs[(0,)] == pytest.approx((1 - eta) ** 2)
    assert out.trace == pytest.approx(1.0)
    verify_invariants(out)


def test_loss_channels_compose():
    """Loss eta1 followed by eta2 equals a single loss of eta1 * eta2."""
    state = FockDensityOperator.from_ket(
        ("a", "b"),
        {(2, 0): 0.6, (1, 1): 0.64, (0, 2): 0.48},
    )
    twice = apply_loss(apply_loss(state, "a", 0.8), "a", 0.55)
    once = apply_loss(state, "a", 0.8 * 0.55)
    assert np.allclose(
        twice.block(occupied(once)), once.block(occupied(once)), atol=1e-12
    )


def test_loss_edge_cases():
    state = apply_mode_unitary(_single_photon_pair(), ("a", "b"), BS_5050)
    intact = apply_loss(state, "a", 1.0)
    assert np.allclose(intact.block(occupied(state)), state.block(occupied(state)))
    dead = apply_loss(state, "a", 0.0)
    assert all(occ[0] == 0 for occ in occupied(dead))
    assert dead.trace == pytest.approx(1.0)
    with pytest.raises(ValueError):
        apply_loss(state, "a", 1.5)


def test_tagged_loss_records_kept_and_lost_photons():
    """With eta=None each branch keeps its binomial weight and the
    ledger counts its photons; weighting a ledger outcome by
    eta^kept (1 - eta)^lost gives the loss channel at that eta."""
    state = FockDensityOperator.from_ket(("a", "b"), {(2, 0): 0.6, (1, 1): 0.8})
    tagged = apply_loss(apply_loss(state, "a", None), "b", None)
    assert tagged.modes == ("a", "b") + LEDGER
    eta = 0.7
    exact = apply_loss(apply_loss(state, "a", eta), "b", eta)
    occs = occupied(exact)
    weighted = np.zeros((len(occs), len(occs)), dtype=complex)
    for (kept, lost), (part, _) in measure_modes(tagged, LEDGER).items():
        assert kept + lost == 2
        weighted += eta**kept * (1 - eta) ** lost * part.block(occs)
    assert np.allclose(weighted, exact.block(occs), atol=1e-15)


@pytest.mark.parametrize(
    "modes",
    [
        pytest.param(("a", "#lost"), id="lost-only"),
        # a ledger that no longer ends the register
        pytest.param(("a", "b") + LEDGER + ("c",), id="ledger-inside"),
    ],
)
def test_tagged_loss_rejects_ledger_labels_it_does_not_own(modes):
    state = FockDensityOperator.from_occupations(modes, {"a": 1})
    with pytest.raises(ValueError, match="duplicate mode labels"):
        apply_loss(state, "a", None)


def test_loss_destroys_coherence_between_photon_numbers():
    """A superposition of |0> and |1> partially decoheres under loss."""
    s = 1 / math.sqrt(2)
    state = FockDensityOperator.from_ket(("a",), {(0,): s, (1,): s})
    out = apply_loss(state, "a", 0.36)
    block = out.block([(0,), (1,)])
    assert block[0, 1] == pytest.approx(0.5 * math.sqrt(0.36))
    assert block[0, 0] == pytest.approx(0.5 + 0.5 * 0.64)


def test_pbs_routes_h_transmit_v_reflect():
    state = FockDensityOperator.from_occupations(
        ("aH", "aV", "bH", "bV"), {"aH": 1, "bV": 1}
    )
    out = apply_pbs(
        state, ("aH", "aV"), ("bH", "bV"), ("1H", "1V"), ("2H", "2V")
    )
    probs = out.occupation_probabilities()
    # aH transmits into output 1, bV reflects into output 1 as well.
    idx_1h = out.mode_index("1H")
    idx_1v = out.mode_index("1V")
    (occ,) = probs
    assert occ[idx_1h] == 1 and occ[idx_1v] == 1
    assert probs[occ] == pytest.approx(1.0)


def test_pbs_rejects_overlapping_labels():
    state = vacuum(("aH", "aV", "bH", "bV"))
    with pytest.raises(ValueError):
        apply_pbs(state, ("aH", "aV"), ("aH", "bV"), ("1H", "1V"), ("2H", "2V"))


def test_tensor_and_relabel():
    a = FockDensityOperator.from_occupations(("x",), {"x": 1})
    b = vacuum(("y",))
    joint = tensor(a, b)
    assert joint.modes == ("x", "y")
    assert joint.trace == pytest.approx(1.0)
    renamed = relabel_modes(joint, {"x": "u"})
    assert renamed.modes == ("u", "y")


def test_measure_modes_probabilities_sum_to_trace():
    state = apply_loss(
        apply_mode_unitary(_single_photon_pair(), ("a", "b"), BS_5050), "a", 0.6
    )
    outcomes = measure_modes(state, ("a",))
    total = sum(p for _, p in outcomes.values())
    assert total == pytest.approx(state.trace)
    assert sorted(outcomes) == [(0,), (1,), (2,)]
    for cond, p in outcomes.values():
        assert cond.trace == pytest.approx(p)
        assert "a" not in cond.modes


def test_project_total_photons_keeps_coherence():
    """Projection keeps the projected modes and their coherences."""
    s = 1 / math.sqrt(2)
    state = FockDensityOperator.from_ket(
        ("a", "b"), {(1, 0): s, (0, 1): s * 1j}
    )
    kept = project_total_photons(state, ("a", "b"), 1)
    assert kept.trace == pytest.approx(1.0)
    block = kept.block([(1, 0), (0, 1)])
    assert abs(block[0, 1]) == pytest.approx(0.5)
    none = project_total_photons(state, ("a", "b"), 2)
    assert none.trace == pytest.approx(0.0)


def test_photon_number_is_not_truncated():
    five = FockDensityOperator.from_occupations(("a", "b"), {"a": 5})
    out = apply_mode_unitary(five, ("a", "b"), BS_5050)
    assert out.trace == pytest.approx(1.0)
    assert {sum(occ) for occ in occupied(out)} == {5}


def test_relabel_rejects_merged_modes():
    with pytest.raises(ValueError, match="duplicate mode labels"):
        relabel_modes(_single_photon_pair(), {"a": "b"})


def _one_photon_superposition():
    """0.6|10> + 0.8|01> on modes a, b."""
    return FockDensityOperator.from_ket(("a", "b"), {(1, 0): 0.6, (0, 1): 0.8})


def test_projection_rejects_repeated_labels():
    """A repeated label would count its photons twice."""
    with pytest.raises(ValueError, match="projected modes must be distinct"):
        project_total_photons(_one_photon_superposition(), ("a", "a"), 2)


def test_measurement_rejects_repeated_labels():
    """A repeated label would report its count twice."""
    with pytest.raises(ValueError, match="measured modes must be distinct"):
        measure_modes(_one_photon_superposition(), ("a", "a"))


def test_operations_skip_the_checking_constructor(monkeypatch):
    """One oracle entry checks its two canonical inputs and nothing else."""
    calls = []
    init = FockDensityOperator.__init__

    def counted(state, *args, **kwargs):
        calls.append(args)
        init(state, *args, **kwargs)

    monkeypatch.setattr(FockDensityOperator, "__init__", counted)
    logical = (ExcitationPattern.P10, BellState.PSI_PLUS)
    circuits.oracle_entry("enc_dlcz", logical, (ExcitationPattern.P11, None), 0.9)
    assert len(calls) == 2


@pytest.mark.parametrize(
    "kets, message",
    [
        pytest.param([{(1, 0, 0): 1.0}], "does not match register", id="length"),
        pytest.param([{(1, -1): 1.0}], "must be non-negative", id="negative"),
        # A pruned amplitude does not exempt its occupation from the checks.
        pytest.param(
            [{(0, 0): 1.0, (-1, 0): 0.0}], "must be non-negative", id="zero-amplitude"
        ),
        # The offending tuple only appears in a later ket, beside tuples
        # the earlier kets share.
        pytest.param(
            [
                {(1, 0): 0.6, (0, 1): 0.8},
                {(0, 1): 0.5, (1, 0): 0.5},
                {(1, 0): 0.1, (4, 1, 0): 0.1},
            ],
            "does not match register",
            id="later-ket",
        ),
        # The first offender in ket order decides the message.
        pytest.param(
            [{(0, 1): 1.0}, {(0, 1): 0.1, (-1, 0): 0.1, (5,): 0.1}],
            "must be non-negative",
            id="first-offender-negative",
        ),
        pytest.param(
            [{(0, 1): 1.0}, {(0, 1): 0.1, (5,): 0.1, (-1, 0): 0.1}],
            "does not match register",
            id="first-offender-length",
        ),
    ],
)
def test_bad_occupations_rejected(kets, message):
    with pytest.raises(ValueError, match=message):
        FockDensityOperator(("a", "b"), kets)


def _shared_tuple_ensemble():
    """Three kets on (a, b, c) that reuse the same occupation tuples."""
    return FockDensityOperator(
        ("a", "b", "c"),
        [
            {(1, 1, 0): 0.5, (2, 0, 0): 0.3j, (0, 1, 1): 0.2},
            {(1, 1, 0): 0.1, (0, 1, 1): -0.4, (0, 0, 2): 0.3, (2, 0, 0): 0.05},
            {(2, 0, 0): 0.2 - 0.1j, (1, 0, 1): 0.25, (1, 1, 0): -0.15},
        ],
    )


def test_multi_ket_round_trip_with_shared_tuples():
    state = _shared_tuple_ensemble()
    back = apply_mode_unitary(
        apply_mode_unitary(state, ("a", "b"), ROTATE_45), ("a", "b"), ROTATE_45
    )
    occs = sorted(set(occupied(state)) | set(occupied(back)))
    assert np.allclose(back.block(occs), state.block(occs), rtol=0.0, atol=1e-12)
    assert back.trace == pytest.approx(state.trace, rel=1e-12)


def test_multi_ket_measurement_sums_to_trace():
    state = apply_loss(
        apply_mode_unitary(_shared_tuple_ensemble(), ("b", "c"), ROTATE_45), "a", 0.7
    )
    outcomes = measure_modes(state, ("a", "c"))
    assert sum(p for _, p in outcomes.values()) == pytest.approx(state.trace, rel=1e-12)
    for counts, (cond, p) in outcomes.items():
        assert cond.modes == ("b",)
        assert cond.trace == p
        # The outcome, keyed by its counts on (a, c), is the state's block
        # over the occupations with those counts, the counters stripped.
        hits = [occ for occ in occupied(state) if (occ[0], occ[2]) == counts]
        assert state.block(hits).tolist() == matrix(cond).tolist()
    by_total = [project_total_photons(state, ("a", "c"), n).trace for n in range(5)]
    assert sum(by_total) == pytest.approx(state.trace, rel=1e-12)


_INPUT_MEMORIES = ("a1H", "a1V", "b1H", "b1V", "a2H", "a2V", "b2H", "b2V")


@pytest.mark.parametrize("eta", [0.9, None], ids=["float", "tagged"])
@pytest.mark.parametrize(
    "kind, retrieved",
    [
        ("enc_dlcz", ("c1", "c2")),
        ("enc_level1", ("c1H", "c1V", "c2H", "c2V")),
        ("enc_higher", ("c1H", "c1V", "c2H", "c2V")),
        ("enp_bit", _INPUT_MEMORIES),
        ("enp_phase", _INPUT_MEMORIES),
        ("pme", ("x1", "y1", "x2", "y2")),
    ],
)
def test_retrieval_loss_acts_on_each_input_memory_the_output_does_not_keep(
    monkeypatch, kind, retrieved, eta
):
    """One entry loses photons on every input memory that is not one of
    the output pair's, once each, in register order."""
    calls = []
    original = circuits.apply_loss

    def recorded(state, mode, loss_eta):
        calls.append((mode, loss_eta))
        return original(state, mode, loss_eta)

    monkeypatch.setattr(circuits, "apply_loss", recorded)
    key = canonical_keys(KINDS[kind][0])[0]
    circuits._entry_branches(kind, key, key, eta)
    assert calls == [(mode, eta) for mode in retrieved]


def _herald_input():
    """An H photon in the kept pair (kH, kV), mixed over the counter
    outcomes (c, d) = (0, 0), (2, 0), (1, 0) and (0, 1) with weights
    0.1 to 0.4."""
    outcomes = ((0, 0), (2, 0), (1, 0), (0, 1))
    kets = [
        {(1, 0) + outcome: math.sqrt(w)}
        for outcome, w in zip(outcomes, (0.1, 0.2, 0.3, 0.4))
    ]
    return FockDensityOperator(("kH", "kV", "c", "d"), kets)


_KEPT_BASIS = [(1, 0), (0, 1)]


@pytest.mark.parametrize("undo", [(), (("kH", "kV"),)], ids=["plain", "undo"])
def test_herald_accepts_one_photon_per_pair_and_flips_on_the_second_counter(undo):
    """(0, 0) and (2, 0) are rejected; (1, 0) is kept as it is and (0, 1)
    with the flip, each after the ``undo`` rotation: the flipped branch
    holds |+>, where a rotation after the flip would leave |->."""
    accepted = circuits._herald(
        _herald_input(), (("c", "d"),), ("kH", "kV"), PAULI_X, undo
    )
    assert sorted(prob for _, prob in accepted) == pytest.approx([0.3, 0.4])
    h = FockDensityOperator.from_occupations(("kH", "kV"), {"kH": 1})
    if undo:
        h = apply_mode_unitary(h, ("kH", "kV"), ROTATE_45)
    for weight, flipped in ((0.3, False), (0.4, True)):
        expected = apply_mode_unitary(h, ("kH", "kV"), PAULI_X) if flipped else h
        (cond,) = [cond for cond, prob in accepted if prob == pytest.approx(weight)]
        assert cond.modes == ("kH", "kV")
        np.testing.assert_allclose(
            cond.block(_KEPT_BASIS), weight * expected.block(_KEPT_BASIS), atol=1e-15
        )

