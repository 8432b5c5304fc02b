"""Oracle circuits for the repeater primitives.

Each protocol step (entanglement connection, purification, final
post-selection) is expressed here as an explicit Fock-space circuit:
retrieval loss, interference optics, photon counting over all detection
outcomes, and the measurement-conditioned corrections. Feeding canonical
pattern states through these circuits produces the exact superoperator
entries of the connection tables, each the sum of the classified
``PatternState`` rows of its accepted branches. Run once with tagged
loss (``entry_terms``), they give each entry's exact polynomial in eta,
which :mod:`.freeze` stores for :mod:`.tables`; run at a given eta, one
entry of any table at a time (``oracle_entry``) or a whole table
(``oracle_table``), they back the verification suite.

Canonical pattern states
------------------------
The superoperator algebra is bilinear over excitation patterns, so each
pattern label is represented by a canonical Fock state: the uniform
mixture over all cell arrangements consistent with the label, with both
side orientations weighted equally. The logical pattern is represented
by each Bell state in turn, which spans every Bell-diagonal block by
linearity.

Detection conventions
---------------------
Counting in the +/-45 degree basis is realized by a 45 degree rotation
on the output (H, V) pair followed by photon counting, so the H counter
registers "+" photons and the V counter registers "-" photons. The
parity of "-" clicks across the accepted detectors fixes the
feed-forward correction.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .fock import (
    LEDGER,
    FockDensityOperator,
    ModeLabel,
    PAULI_X,
    PAULI_Z,
    ROTATE_45,
    BS_5050,
    apply_loss,
    apply_mode_unitary,
    apply_pbs,
    measure_modes,
    project_total_photons,
    relabel_modes,
    tensor,
)
from .patterns import (
    BellState,
    ExcitationPattern,
    SchemeKind,
    logical_coherence_residue,
    project_from_fock,
    scheme_patterns,
)
from .tables import KINDS, ConnectionTable, Key, TableEntry, canonical_keys

SQRT_HALF = 1.0 / math.sqrt(2.0)

#: Sign flip on a single mode (pi phase on every photon in it).
PHASE_FLIP = np.array([[-1.0]])


# ----------------------------------------------------------------------
# canonical pattern states


def canonical_dlcz(
    pattern: ExcitationPattern,
    left: ModeLabel = "x",
    right: ModeLabel = "y",
    bell: BellState | None = None,
    cutoff: int = 4,
) -> FockDensityOperator:
    """Canonical single-rail Fock state for a DLCZ pattern label.

    The logical pattern P10 requires a Bell label (PSI_PLUS or
    PSI_MINUS) selecting (|10> +- |01>)/sqrt2; other patterns are the
    uniform mixture over node arrangements.
    """
    modes = (left, right)

    def basis(n_l: int, n_r: int) -> FockDensityOperator:
        return FockDensityOperator.from_occupations(
            modes, {left: n_l, right: n_r}, cutoff
        )

    if pattern is ExcitationPattern.P00:
        return FockDensityOperator.vacuum(modes, cutoff)
    if pattern is ExcitationPattern.P10:
        if bell is BellState.PSI_PLUS:
            sign = 1.0
        elif bell is BellState.PSI_MINUS:
            sign = -1.0
        else:
            raise ValueError("DLCZ logical pattern needs a Psi+ or Psi- label")
        return FockDensityOperator.from_ket(
            modes, {(1, 0): SQRT_HALF, (0, 1): sign * SQRT_HALF}, cutoff
        )
    if pattern is ExcitationPattern.P11:
        return basis(1, 1)
    if pattern is ExcitationPattern.P20:
        return FockDensityOperator.mixture([(0.5, basis(2, 0)), (0.5, basis(0, 2))])
    if pattern is ExcitationPattern.P21:
        return FockDensityOperator.mixture([(0.5, basis(2, 1)), (0.5, basis(1, 2))])
    if pattern is ExcitationPattern.P22:
        return basis(2, 2)
    raise ValueError(f"no canonical state for {pattern} in the DLCZ scheme")


def _bell_ket_new(
    modes: tuple[ModeLabel, ModeLabel, ModeLabel, ModeLabel], bell: BellState
) -> dict[tuple[int, ...], complex]:
    # modes ordered (lH, lV, rH, rV); basis kets H/V per node
    hh = (1, 0, 1, 0)
    hv = (1, 0, 0, 1)
    vh = (0, 1, 1, 0)
    vv = (0, 1, 0, 1)
    if bell is BellState.PHI_PLUS:
        return {hh: SQRT_HALF, vv: SQRT_HALF}
    if bell is BellState.PHI_MINUS:
        return {hh: SQRT_HALF, vv: -SQRT_HALF}
    if bell is BellState.PSI_PLUS:
        return {hv: SQRT_HALF, vh: SQRT_HALF}
    return {hv: SQRT_HALF, vh: -SQRT_HALF}


def canonical_new(
    pattern: ExcitationPattern,
    left: tuple[ModeLabel, ModeLabel] = ("xH", "xV"),
    right: tuple[ModeLabel, ModeLabel] = ("yH", "yV"),
    bell: BellState | None = None,
    cutoff: int = 4,
) -> FockDensityOperator:
    """Canonical two-cell Fock state for a pattern label.

    The logical pattern P11 requires a Bell label; the remaining labels
    are uniform mixtures over the cell arrangements consistent with the
    pattern, symmetrized over the two node orientations.
    """
    modes = left + right
    l_h, l_v = left
    r_h, r_v = right

    def basis(**occ: int) -> FockDensityOperator:
        return FockDensityOperator.from_occupations(modes, occ, cutoff)

    def uniform(parts: Sequence[FockDensityOperator]) -> FockDensityOperator:
        w = 1.0 / len(parts)
        return FockDensityOperator.mixture([(w, p) for p in parts])

    singles_l = [basis(**{l_h: 1}), basis(**{l_v: 1})]
    singles_r = [basis(**{r_h: 1}), basis(**{r_v: 1})]
    par_l = [basis(**{l_h: 2}), basis(**{l_v: 2})]
    par_r = [basis(**{r_h: 2}), basis(**{r_v: 2})]
    perp_l = basis(**{l_h: 1, l_v: 1})
    perp_r = basis(**{r_h: 1, r_v: 1})

    def pair(a: Sequence[FockDensityOperator], b: Sequence[FockDensityOperator]):
        return [tensor_occ(x, y) for x in a for y in b]

    def tensor_occ(
        a: FockDensityOperator, b: FockDensityOperator
    ) -> FockDensityOperator:
        # both states live on the full register already; combine by
        # adding occupations (each is a basis state)
        occ_a = next(iter(a.occupation_probabilities()))
        occ_b = next(iter(b.occupation_probabilities()))
        combined = tuple(na + nb for na, nb in zip(occ_a, occ_b))
        return FockDensityOperator.from_ket(modes, {combined: 1.0}, cutoff)

    if pattern is ExcitationPattern.P00:
        return FockDensityOperator.vacuum(modes, cutoff)
    if pattern is ExcitationPattern.P10:
        return uniform(singles_l + singles_r)
    if pattern is ExcitationPattern.P11:
        if bell is None:
            raise ValueError("logical pattern needs a Bell label")
        return FockDensityOperator.from_ket(
            modes, _bell_ket_new(modes, bell), cutoff
        )
    if pattern is ExcitationPattern.P20_PAR:
        return uniform(par_l + par_r)
    if pattern is ExcitationPattern.P20_PERP:
        return uniform([perp_l, perp_r])
    if pattern is ExcitationPattern.P21_PAR:
        return uniform(pair(par_l, singles_r) + pair(singles_l, par_r))
    if pattern is ExcitationPattern.P21_PERP:
        return uniform(pair([perp_l], singles_r) + pair(singles_l, [perp_r]))
    if pattern is ExcitationPattern.P22_PAR_PAR:
        return uniform(pair(par_l, par_r))
    if pattern is ExcitationPattern.P22_PAR_PERP:
        return uniform(pair(par_l, [perp_r]) + pair([perp_l], par_r))
    if pattern is ExcitationPattern.P22_PERP_PERP:
        return tensor_occ(perp_l, perp_r)
    raise ValueError(f"no canonical state for {pattern} in the two-cell scheme")


# ----------------------------------------------------------------------
# circuits

# Each run_* circuit takes eta=None for tagged loss (see fock.apply_loss).

AcceptedBranch = tuple[FockDensityOperator, float]


def run_enc_dlcz(
    left: FockDensityOperator, right: FockDensityOperator, eta: float | None
) -> list[AcceptedBranch]:
    """Single-rail connection: retrieve the central memories, interfere
    on a balanced beamsplitter, accept exactly one click.

    ``left`` lives on modes (aL, c1), ``right`` on (c2, aR). A click at
    the second port heralds a sign flip, undone by a pi phase on aL.
    Returns the corrected conditional states on (aL, aR) with their
    probabilities.
    """
    st = tensor(left, right)
    st = apply_loss(st, "c1", eta)
    st = apply_loss(st, "c2", eta)
    st = apply_mode_unitary(st, ("c1", "c2"), BS_5050)
    accepted = []
    for pattern, (cond, prob) in measure_modes(st, ("c1", "c2")).items():
        if pattern.total != 1:
            continue
        if pattern.count("c2") == 1:
            cond = apply_mode_unitary(cond, ("aL",), PHASE_FLIP)
        accepted.append((cond, prob))
    return accepted


def run_enc_new(
    left: FockDensityOperator,
    right: FockDensityOperator,
    eta: float | None,
    first_level: bool,
) -> list[AcceptedBranch]:
    """Two-cell connection: retrieve both central qubits, overlap them on
    a PBS, count both outputs in the +/- basis, accept one photon per
    output.

    ``left`` lives on (aLH, aLV, c1H, c1V), ``right`` on
    (c2H, c2V, aRH, aRV). At the first nesting level an additional 45
    degree rotation acts on each retrieved central qubit before the PBS
    and the heralded correction is a bit flip; at higher levels no input
    rotation is applied and the correction is a phase flip. Returns the
    corrected conditional states on (aLH, aLV, aRH, aRV).
    """
    st = tensor(left, right)
    for mode in ("c1H", "c1V", "c2H", "c2V"):
        st = apply_loss(st, mode, eta)
    if first_level:
        st = apply_mode_unitary(st, ("c1H", "c1V"), ROTATE_45)
        st = apply_mode_unitary(st, ("c2H", "c2V"), ROTATE_45)
    st = apply_pbs(
        st, ("c1H", "c1V"), ("c2H", "c2V"), ("o1H", "o1V"), ("o2H", "o2V")
    )
    st = apply_mode_unitary(st, ("o1H", "o1V"), ROTATE_45)
    st = apply_mode_unitary(st, ("o2H", "o2V"), ROTATE_45)
    accepted = []
    detectors = ("o1H", "o1V", "o2H", "o2V")
    for pattern, (cond, prob) in measure_modes(st, detectors).items():
        n1 = pattern.count("o1H") + pattern.count("o1V")
        n2 = pattern.count("o2H") + pattern.count("o2V")
        if (n1, n2) != (1, 1):
            continue
        minus_clicks = pattern.count("o1V") + pattern.count("o2V")
        if minus_clicks % 2 == 1:
            flip = PAULI_X if first_level else PAULI_Z
            cond = apply_mode_unitary(cond, ("aLH", "aLV"), flip)
        accepted.append((cond, prob))
    return accepted


def run_enp(
    pair1: FockDensityOperator,
    pair2: FockDensityOperator,
    eta: float | None,
    phase_variant: bool,
) -> list[AcceptedBranch]:
    """Entanglement purification between two pairs spanning nodes a, b.

    ``pair1`` lives on (a1H, a1V, b1H, b1V), ``pair2`` on
    (a2H, a2V, b2H, b2V). All eight memories are retrieved (efficiency
    eta each); at each node the two retrieved qubits overlap on a PBS;
    the lower outputs are counted in the +/- basis and exactly one
    photon at each lower output is accepted; the upper outputs are
    stored back as the surviving pair.

    The bit variant filters bit errors directly. The phase variant
    conjugates the same interferometer by 45 degree rotations on all
    four retrieved qubits (undone on the surviving pair), which swaps
    the roles of bit and phase errors; the heralded correction is then a
    bit flip instead of a phase flip.

    Returns the corrected conditional states on (auH, auV, buH, buV).
    """
    st = tensor(pair1, pair2)
    for mode in st.modes:
        st = apply_loss(st, mode, eta)
    if phase_variant:
        for pair in (("a1H", "a1V"), ("a2H", "a2V"), ("b1H", "b1V"), ("b2H", "b2V")):
            st = apply_mode_unitary(st, pair, ROTATE_45)
    st = apply_pbs(st, ("a1H", "a1V"), ("a2H", "a2V"), ("auH", "auV"), ("adH", "adV"))
    st = apply_pbs(st, ("b1H", "b1V"), ("b2H", "b2V"), ("buH", "buV"), ("bdH", "bdV"))
    st = apply_mode_unitary(st, ("adH", "adV"), ROTATE_45)
    st = apply_mode_unitary(st, ("bdH", "bdV"), ROTATE_45)
    accepted = []
    detectors = ("adH", "adV", "bdH", "bdV")
    for pattern, (cond, prob) in measure_modes(st, detectors).items():
        n_a = pattern.count("adH") + pattern.count("adV")
        n_b = pattern.count("bdH") + pattern.count("bdV")
        if (n_a, n_b) != (1, 1):
            continue
        if phase_variant:
            cond = apply_mode_unitary(cond, ("auH", "auV"), ROTATE_45)
            cond = apply_mode_unitary(cond, ("buH", "buV"), ROTATE_45)
        minus_clicks = pattern.count("adV") + pattern.count("bdV")
        if minus_clicks % 2 == 1:
            flip = PAULI_X if phase_variant else PAULI_Z
            cond = apply_mode_unitary(cond, ("auH", "auV"), flip)
        accepted.append((cond, prob))
    return accepted


def run_pme(
    pair1: FockDensityOperator, pair2: FockDensityOperator, eta: float | None
) -> list[AcceptedBranch]:
    """Final DLCZ post-selection onto a polarization-entangled pair.

    ``pair1`` lives on single-rail modes (x1, y1), ``pair2`` on
    (x2, y2); the two memories at each node are retrieved into
    orthogonal polarizations of one output channel (pair 1 to H, pair 2
    to V) and the coincidence "one photon at each node" is
    post-selected coherently, since the surviving photons carry the
    polarization qubits. Returns the projected state on
    (xH, xV, yH, yV).
    """
    st = tensor(pair1, pair2)
    for mode in st.modes:
        st = apply_loss(st, mode, eta)
    st = relabel_modes(st, {"x1": "xH", "x2": "xV", "y1": "yH", "y2": "yV"})
    st = project_total_photons(st, ("xH", "xV"), 1)
    st = project_total_photons(st, ("yH", "yV"), 1)
    return [(st, st.trace)]


# ----------------------------------------------------------------------
# superoperator table entries


def accumulate_entry(
    branches: Iterable[AcceptedBranch],
    scheme: SchemeKind,
    mode_map: dict[str, object],
) -> TableEntry:
    """Sum the classified rows of accepted circuit branches into a TableEntry."""
    row = np.zeros(len(scheme_patterns(scheme)) + 4)
    residue = 0.0
    for cond, prob in branches:
        if prob <= 0.0:
            continue
        row += project_from_fock(cond, scheme, mode_map).row
        residue = max(residue, logical_coherence_residue(cond, scheme, mode_map))
    return TableEntry(scheme, row, residue)


ENC_OUT_MAP_DLCZ = {"left": "aL", "right": "aR"}
ENC_OUT_MAP_NEW = {"left": ("aLH", "aLV"), "right": ("aRH", "aRV")}
ENP_OUT_MAP = {"left": ("auH", "auV"), "right": ("buH", "buV")}
PME_OUT_MAP = {"left": ("xH", "xV"), "right": ("yH", "yV")}


def _entry_branches(
    kind: str, alpha: Key, beta: Key, eta: float | None, cutoff: int = 4
) -> tuple[list[AcceptedBranch], SchemeKind, dict[str, object]]:
    """Accepted branches of one entry of a table of ``tables.KINDS``,
    with the scheme and mode map that classify them.  ``eta=None``
    runs the circuit with tagged loss (see ``fock.apply_loss``);
    ``cutoff`` is the per-mode Fock cutoff of the input states."""
    pat_a, bell_a = alpha
    pat_b, bell_b = beta
    if kind == "enc_dlcz":
        left = canonical_dlcz(pat_a, "aL", "c1", bell_a, cutoff)
        right = canonical_dlcz(pat_b, "c2", "aR", bell_b, cutoff)
        return run_enc_dlcz(left, right, eta), SchemeKind.DLCZ, ENC_OUT_MAP_DLCZ
    if kind in ("enc_level1", "enc_higher"):
        left = canonical_new(pat_a, ("aLH", "aLV"), ("c1H", "c1V"), bell_a, cutoff)
        right = canonical_new(pat_b, ("c2H", "c2V"), ("aRH", "aRV"), bell_b, cutoff)
        first_level = kind == "enc_level1"
        return run_enc_new(left, right, eta, first_level), SchemeKind.NEW, ENC_OUT_MAP_NEW
    if kind in ("enp_bit", "enp_phase"):
        pair1 = canonical_new(pat_a, ("a1H", "a1V"), ("b1H", "b1V"), bell_a, cutoff)
        pair2 = canonical_new(pat_b, ("a2H", "a2V"), ("b2H", "b2V"), bell_b, cutoff)
        branches = run_enp(pair1, pair2, eta, kind == "enp_phase")
        return branches, SchemeKind.NEW, ENP_OUT_MAP
    if kind == "pme":
        pair1 = canonical_dlcz(pat_a, "x1", "y1", bell_a, cutoff)
        pair2 = canonical_dlcz(pat_b, "x2", "y2", bell_b, cutoff)
        # inputs are DLCZ patterns, the output a polarization pair
        return run_pme(pair1, pair2, eta), SchemeKind.NEW, PME_OUT_MAP
    raise ValueError(f"unknown table kind {kind!r}")


def oracle_entry(
    kind: str, alpha: Key, beta: Key, eta: float, cutoff: int = 4
) -> TableEntry:
    """One entry of a table of ``tables.KINDS``, built by the Fock oracle
    at eta with input states truncated at ``cutoff`` photons per mode."""
    return accumulate_entry(*_entry_branches(kind, alpha, beta, eta, cutoff))


def entry_terms(kind: str, alpha: Key, beta: Key) -> dict[tuple[int, int], TableEntry]:
    """One entry as its exact polynomial in eta.

    Runs the circuit once with tagged loss and splits the accepted
    output by the ledger's (kept, lost) photon counts.  The entry at any
    eta is the sum over the returned parts of part * eta**kept *
    (1 - eta)**lost.
    """
    branches, scheme, mode_map = _entry_branches(kind, alpha, beta, None)
    parts: dict[tuple[int, int], list[AcceptedBranch]] = {}
    for cond, _ in branches:
        for counts, branch in measure_modes(cond, LEDGER).items():
            exponents = (counts.count(LEDGER[0]), counts.count(LEDGER[1]))
            parts.setdefault(exponents, []).append(branch)
    return {
        exponents: accumulate_entry(part, scheme, mode_map)
        for exponents, part in sorted(parts.items())
    }


@lru_cache(maxsize=None)
def oracle_table(kind: str, eta: float) -> ConnectionTable:
    """A table of ``tables.KINDS`` built entry by entry by the Fock
    oracle at eta, residues included."""
    scheme, op, variant = KINDS[kind]
    keys = canonical_keys(scheme)
    entries = {
        (alpha, beta): oracle_entry(kind, alpha, beta, eta)
        for alpha in keys
        for beta in keys
    }
    return ConnectionTable(scheme, op, variant, eta, entries)
