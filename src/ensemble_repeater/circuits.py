"""Oracle circuits for the repeater primitives.

Each protocol step (entanglement connection, purification, final
post-selection) is expressed here as an explicit Fock-space circuit:
retrieval loss, interference optics, photon counting over all detection
outcomes, and the measurement-conditioned corrections.  Retrieval is
one rule (``_entry_branches``): every input memory that the output pair
does not keep is read out at efficiency eta.  Feeding canonical
pattern states through these circuits produces the exact superoperator
entries of the connection tables, each the sum of the classified
``PatternState`` rows of its accepted branches. Run once with tagged
loss (``entry_terms``), they give each entry's exact polynomial in eta,
which :mod:`.freeze` stores for :mod:`.tables`; run at a given eta, one
entry of any table at a time (``oracle_entry``) or a whole table
(``oracle_table``), they back the verification suite.

Excitation patterns
-------------------
The pattern labels and the logical Bell labels are defined in
:mod:`.patterns`: each label as its pair of node signatures.  One table
here gives, per scheme, the cell occupations of a node with each
signature.  From the two follow each label's occupations of the memory
modes, left node first, which give both the oracle's inputs and the
classification of its outputs.  The superoperator algebra is bilinear
over excitation patterns, so each label is represented by a canonical
Fock state (``canonical_state``): the uniform mixture over its
occupations, with both side orientations weighted equally. The logical
pattern is represented by each of its Bell labels in turn, which spans
every Bell-diagonal block by linearity.  An output occupation's label
is a lookup (``classify``), and ``project_from_fock`` turns an accepted
branch into its ``PatternState`` and residue.

Detection conventions
---------------------
Counting in the +/-45 degree basis is realized by a 45 degree rotation
on the output (H, V) pair followed by photon counting, so the H counter
registers "+" photons and the V counter registers "-" photons. The
parity of "-" clicks across the accepted detectors fixes the
feed-forward correction; ``_herald`` is this rule, with one photon
accepted per pair of counters.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Iterable, NamedTuple

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
    LOGICAL_BELLS,
    SIGNATURES,
    BellState,
    ExcitationPattern,
    PatternState,
    SchemeKind,
    logical_pattern,
    scheme_patterns,
)
from .tables import KINDS, ConnectionTable, Key, TableEntry, canonical_keys

SQRT_HALF = 1.0 / math.sqrt(2.0)

#: Sign flip on a single mode (pi phase on every photon in it).
PHASE_FLIP = np.array([[-1.0]])


# ----------------------------------------------------------------------
# excitation patterns

#: Per scheme, the cell occupations of a node with each signature (its
#: excitation count, and for two excitations in two cells whether they
#: share one), in build order: one memory per node for DLCZ, the node's
#: (H, V) cells for the two-cell scheme.
_CELLS = {
    SchemeKind.DLCZ: {0: ((0,),), 1: ((1,),), 2: ((2,),)},
    SchemeKind.NEW: {
        "0": ((0, 0),),
        "1": ((1, 0), (0, 1)),
        "par": ((2, 0), (0, 2)),
        "perp": ((1, 1),),
    },
}

def _occupations(scheme: SchemeKind) -> dict[ExcitationPattern, list[tuple[int, ...]]]:
    """Each pattern's memory occupations (left cells, then right cells):
    every cell arrangement of each orientation, in build order."""
    cells = _CELLS[scheme]
    out = {}
    for pattern, (a, b) in SIGNATURES[scheme].items():
        sides = [(a, b)] if a == b else [(a, b), (b, a)]
        out[pattern] = [l + r for x, y in sides for l in cells[x] for r in cells[y]]
    return out


_OCCUPATIONS = {scheme: _occupations(scheme) for scheme in SchemeKind}

#: Memory occupation -> pattern; any other occupation is OVERFLOW.
_PATTERN_OF = {
    scheme: {occ: p for p, occs in by_pattern.items() for occ in occs}
    for scheme, by_pattern in _OCCUPATIONS.items()
}

#: Per scheme, as rows in ``LOGICAL_BELLS`` order, the vectors of the
#: logical Bell labels over the logical pattern's occupations: (|10>,
#: |01>) for DLCZ, (HH, HV, VH, VV) for the two-cell scheme.
_BELL_VECTORS = {
    SchemeKind.DLCZ: SQRT_HALF * np.array([[1, 1], [1, -1]]),
    SchemeKind.NEW: SQRT_HALF * np.array(
        [[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]]
    ),
}


def classify(scheme: SchemeKind, occupation: tuple[int, ...]) -> ExcitationPattern:
    """Pattern label of a memory occupation: the left node's cell counts,
    then the right node's."""
    return _PATTERN_OF[scheme].get(occupation, ExcitationPattern.OVERFLOW)


def _memory_modes(scheme: SchemeKind, left: object, right: object) -> tuple[ModeLabel, ...]:
    """The two nodes' memory modes as one register, left node first: a
    single label per node for DLCZ, an (H, V) label pair per node for the
    two-cell scheme."""
    if scheme is SchemeKind.DLCZ:
        if not isinstance(left, str) or not isinstance(right, str):
            raise ValueError("DLCZ memory modes must be single mode labels")
        return left, right
    if (
        not isinstance(left, (tuple, list))
        or not isinstance(right, (tuple, list))
        or len(left) != 2
        or len(right) != 2
    ):
        raise ValueError("two-cell memory modes must be (H, V) mode pairs")
    return (*left, *right)


def canonical_state(
    scheme: SchemeKind,
    pattern: ExcitationPattern,
    left: object,
    right: object,
    bell: BellState | None = None,
) -> FockDensityOperator:
    """Canonical Fock state of a pattern label on the nodes' memory modes.

    ``left`` and ``right`` are a mode label per node (DLCZ) or an (H, V)
    label pair (two-cell scheme).  The logical pattern needs one of the
    scheme's ``LOGICAL_BELLS`` and is that Bell state; any other pattern
    takes no Bell label and is the uniform mixture over its occupations.
    """
    modes = _memory_modes(scheme, left, right)
    occs = _OCCUPATIONS[scheme].get(pattern)
    if occs is None:
        raise ValueError(f"no canonical state for {pattern} in the {scheme.value} scheme")
    if pattern is logical_pattern(scheme):
        labels = LOGICAL_BELLS[scheme]
        if bell not in labels:
            raise ValueError(f"the logical pattern needs one of the Bell labels {labels}")
        amps = _BELL_VECTORS[scheme][labels.index(bell)].tolist()
        return FockDensityOperator.from_ket(
            modes, {occ: a for occ, a in zip(occs, amps) if a != 0.0}
        )
    if bell is not None:
        raise ValueError(f"{pattern} is not the logical pattern and takes no Bell label")
    root = math.sqrt(1.0 / len(occs))
    return FockDensityOperator(modes, [{occ: root} for occ in occs])


# ----------------------------------------------------------------------
# circuits

AcceptedBranch = tuple[FockDensityOperator, float]
ModePairs = tuple[tuple[ModeLabel, ModeLabel], ...]


def _herald(
    st: FockDensityOperator, counters: ModePairs, kept: tuple, flip: np.ndarray,
    undo: ModePairs = (),
) -> list[AcceptedBranch]:
    """Count the ``counters`` pairs and accept exactly one photon per
    pair; on each accepted state rotate every ``undo`` pair by 45
    degrees, then apply ``flip`` to ``kept`` if the second counters
    clicked an odd number of times.  Returns the corrected conditional
    states with their probabilities."""
    accepted = []
    detectors = tuple(mode for pair in counters for mode in pair)
    for clicks, (cond, prob) in measure_modes(st, detectors).items():
        if any(a + b != 1 for a, b in zip(clicks[::2], clicks[1::2])):
            continue
        for pair in undo:
            cond = apply_mode_unitary(cond, pair, ROTATE_45)
        if sum(clicks[1::2]) % 2 == 1:
            cond = apply_mode_unitary(cond, kept, flip)
        accepted.append((cond, prob))
    return accepted


def run_enc_dlcz(st: FockDensityOperator) -> list[AcceptedBranch]:
    """Single-rail connection: interfere the retrieved central memories
    on a balanced beamsplitter, accept exactly one click.

    ``st`` lives on (aL, c1, c2, aR). A click at the second port heralds
    a sign flip, undone by a pi phase on aL. Returns the corrected
    conditional states on (aL, aR) with their probabilities.
    """
    st = apply_mode_unitary(st, ("c1", "c2"), BS_5050)
    return _herald(st, (("c1", "c2"),), ("aL",), PHASE_FLIP)


def run_enc_new(st: FockDensityOperator, first_level: bool) -> list[AcceptedBranch]:
    """Two-cell connection: overlap both retrieved central qubits on a
    PBS, count both outputs in the +/- basis, accept one photon per
    output.

    ``st`` lives on (aLH, aLV, c1H, c1V, c2H, c2V, aRH, aRV). At the
    first nesting level an additional 45 degree rotation acts on each
    retrieved central qubit before the PBS and the heralded correction
    is a bit flip; at higher levels no input rotation is applied and the
    correction is a phase flip. Returns the corrected conditional states
    on (aLH, aLV, aRH, aRV).
    """
    if first_level:
        st = apply_mode_unitary(st, ("c1H", "c1V"), ROTATE_45)
        st = apply_mode_unitary(st, ("c2H", "c2V"), ROTATE_45)
    st = apply_pbs(
        st, ("c1H", "c1V"), ("c2H", "c2V"), ("o1H", "o1V"), ("o2H", "o2V")
    )
    st = apply_mode_unitary(st, ("o1H", "o1V"), ROTATE_45)
    st = apply_mode_unitary(st, ("o2H", "o2V"), ROTATE_45)
    flip = PAULI_X if first_level else PAULI_Z
    return _herald(st, (("o1H", "o1V"), ("o2H", "o2V")), ("aLH", "aLV"), flip)


def run_enp(st: FockDensityOperator, phase_variant: bool) -> list[AcceptedBranch]:
    """Entanglement purification between two pairs spanning nodes a, b.

    ``st`` lives on the retrieved qubits of pair 1, (a1H, a1V, b1H,
    b1V), then of pair 2, (a2H, a2V, b2H, b2V). At each node the two
    retrieved qubits overlap on a PBS; the lower outputs are counted in
    the +/- basis and exactly one photon at each lower output is
    accepted; the upper outputs are stored back as the surviving pair.

    The bit variant filters bit errors directly. The phase variant
    conjugates the same interferometer by 45 degree rotations on all
    four retrieved qubits (undone on the surviving pair), which swaps
    the roles of bit and phase errors; the heralded correction is then a
    bit flip instead of a phase flip.

    Returns the corrected conditional states on (auH, auV, buH, buV).
    """
    if phase_variant:
        for pair in (("a1H", "a1V"), ("a2H", "a2V"), ("b1H", "b1V"), ("b2H", "b2V")):
            st = apply_mode_unitary(st, pair, ROTATE_45)
    st = apply_pbs(st, ("a1H", "a1V"), ("a2H", "a2V"), ("auH", "auV"), ("adH", "adV"))
    st = apply_pbs(st, ("b1H", "b1V"), ("b2H", "b2V"), ("buH", "buV"), ("bdH", "bdV"))
    st = apply_mode_unitary(st, ("adH", "adV"), ROTATE_45)
    st = apply_mode_unitary(st, ("bdH", "bdV"), ROTATE_45)
    surviving = (("auH", "auV"), ("buH", "buV"))
    flip, undo = (PAULI_X, surviving) if phase_variant else (PAULI_Z, ())
    return _herald(st, (("adH", "adV"), ("bdH", "bdV")), surviving[0], flip, undo)


def run_pme(st: FockDensityOperator) -> list[AcceptedBranch]:
    """Final DLCZ post-selection onto a polarization-entangled pair.

    ``st`` lives on the retrieved single-rail modes of pair 1, (x1, y1),
    then of pair 2, (x2, y2); the two memories at each node go into
    orthogonal polarizations of one output channel (pair 1 to H, pair 2
    to V) and the coincidence "one photon at each node" is
    post-selected coherently, since the surviving photons carry the
    polarization qubits. Returns the projected state on
    (xH, xV, yH, yV).
    """
    st = relabel_modes(st, {"x1": "xH", "x2": "xV", "y1": "yH", "y2": "yV"})
    st = project_total_photons(st, ("xH", "xV"), 1)
    st = project_total_photons(st, ("yH", "yV"), 1)
    return [(st, st.trace)]


# ----------------------------------------------------------------------
# superoperator table entries


def project_from_fock(
    rho: FockDensityOperator, scheme: SchemeKind, left: object, right: object
) -> tuple[PatternState, float]:
    """Classify an oracle state into a PatternState, with its residue.

    Pattern masses are the traces of the pattern-subspace projections,
    so the total trace is kept exactly.  The logical block, the density
    matrix over the logical pattern's occupations, gives the masses of
    the scheme's ``LOGICAL_BELLS``; the residue is the Frobenius norm of
    its non-diagonal part in the Bell basis, the coherence the pattern
    decomposition discards.

    ``left`` and ``right`` are the nodes' memory modes, as for
    ``canonical_state``: a single label per node for DLCZ, an (H, V)
    label pair per node for the two-cell scheme.  The state register
    must contain exactly these modes.
    """
    modes = _memory_modes(scheme, left, right)
    if set(rho.modes) != set(modes):
        raise ValueError(
            f"state register {rho.modes} does not match the memory modes {sorted(modes)}"
        )
    index = [rho.mode_index(m) for m in modes]

    probs: dict[ExcitationPattern, float] = {}
    for occ, p in rho.occupation_probabilities().items():
        pat = classify(scheme, tuple(occ[i] for i in index))
        probs[pat] = probs.get(pat, 0.0) + p

    basis = []
    for cells in _OCCUPATIONS[scheme][logical_pattern(scheme)]:
        occ = [0] * len(rho.modes)
        for i, n in zip(index, cells):
            occ[i] = n
        basis.append(tuple(occ))
    block = rho.block(basis)
    vecs = _BELL_VECTORS[scheme]
    bell = np.zeros(4)
    bell[[label.index for label in LOGICAL_BELLS[scheme]]] = np.real(
        np.einsum("ij,jk,ik->i", vecs.conj(), block, vecs)
    )
    # elementwise sums, not a BLAS product: the residue's bits follow no kernel
    in_bell = np.einsum("ij,jk,lk->il", vecs.conj(), block, vecs)
    residue = float(np.linalg.norm(in_bell - np.diag(np.diag(in_bell))))

    mass = float(bell.sum())
    # The logical pattern's mass stays the exact subspace trace in probs;
    # the Bell diagonal supplies only the conditional weights.
    weights = np.maximum(bell, 0.0) / mass if mass > 0.0 else None
    return PatternState(scheme, probs, weights), residue


class _Circuit(NamedTuple):
    """A circuit and its three registers, each a pair's memory modes
    (left node, right node) as ``canonical_state`` takes them: the left
    input pair's, the right input pair's and the output pair's.  ``run``
    takes the lossy tensor of the input registers and the variant
    arguments (see ``_entry_branches``)."""

    run: Callable[..., list[AcceptedBranch]]
    left: tuple[object, object]
    right: tuple[object, object]
    out: tuple[object, object]


_ENC_DLCZ = _Circuit(run_enc_dlcz, ("aL", "c1"), ("c2", "aR"), ("aL", "aR"))
_ENC_NEW = _Circuit(
    run_enc_new,
    (("aLH", "aLV"), ("c1H", "c1V")),
    (("c2H", "c2V"), ("aRH", "aRV")),
    (("aLH", "aLV"), ("aRH", "aRV")),
)
_ENP = _Circuit(
    run_enp,
    (("a1H", "a1V"), ("b1H", "b1V")),
    (("a2H", "a2V"), ("b2H", "b2V")),
    (("auH", "auV"), ("buH", "buV")),
)
_PME = _Circuit(run_pme, ("x1", "y1"), ("x2", "y2"), (("xH", "xV"), ("yH", "yV")))

#: Each table kind's circuit and the variant arguments it runs with.
_KIND_CIRCUITS = {
    "enc_dlcz": (_ENC_DLCZ, ()),
    "enc_level1": (_ENC_NEW, (True,)),
    "enc_higher": (_ENC_NEW, (False,)),
    "enp_bit": (_ENP, (False,)),
    "enp_phase": (_ENP, (True,)),
    "pme": (_PME, ()),
}


def accumulate_entry(branches: Iterable[AcceptedBranch], kind: str) -> TableEntry:
    """Sum the classified rows of accepted branches of a kind's circuit
    into a TableEntry of the kind's output scheme, whose residue is the
    largest branch residue."""
    scheme = KINDS[kind][1]
    out = _KIND_CIRCUITS[kind][0].out
    row = np.zeros(len(scheme_patterns(scheme)) + 4)
    residue = 0.0
    for cond, prob in branches:
        if prob <= 0.0:
            continue
        state, branch_residue = project_from_fock(cond, scheme, *out)
        row += state.row
        residue = max(residue, branch_residue)
    row.flags.writeable = False
    return TableEntry(scheme, row, residue)


def _entry_branches(
    kind: str, alpha: Key, beta: Key, eta: float | None
) -> list[AcceptedBranch]:
    """Accepted branches of one entry of a table of ``tables.KINDS``: the
    kind's circuit run on the canonical states of the two keys, after
    retrieval loss at eta on every input mode, in register order, that
    is not one of the output pair's memories.  ``eta=None`` runs the
    circuit with tagged loss (see ``fock.apply_loss``)."""
    circuit, variant = _KIND_CIRCUITS[kind]
    scheme, out_scheme = KINDS[kind]
    st = tensor(
        canonical_state(scheme, alpha[0], *circuit.left, alpha[1]),
        canonical_state(scheme, beta[0], *circuit.right, beta[1]),
    )
    stored = _memory_modes(out_scheme, *circuit.out)
    for mode in [m for m in st.modes if m not in stored]:
        st = apply_loss(st, mode, eta)
    return circuit.run(st, *variant)


def oracle_entry(kind: str, alpha: Key, beta: Key, eta: float) -> TableEntry:
    """One entry of a table of ``tables.KINDS``, built by the Fock oracle
    at eta."""
    return accumulate_entry(_entry_branches(kind, alpha, beta, eta), kind)


def entry_terms(kind: str, alpha: Key, beta: Key) -> dict[tuple[int, int], TableEntry]:
    """One entry as its exact polynomial in eta.

    Runs the circuit once with tagged loss and splits the accepted
    output by the ledger's (kept, lost) photon counts.  The entry at any
    eta is the sum over the returned parts of part * eta**kept *
    (1 - eta)**lost.
    """
    parts: dict[tuple[int, int], list[AcceptedBranch]] = {}
    for cond, _ in _entry_branches(kind, alpha, beta, None):
        for exponents, branch in measure_modes(cond, LEDGER).items():
            parts.setdefault(exponents, []).append(branch)
    return {
        exponents: accumulate_entry(part, kind) for exponents, part in sorted(parts.items())
    }


@lru_cache(maxsize=None)
def oracle_table(kind: str, eta: float) -> ConnectionTable:
    """A table of ``tables.KINDS`` built entry by entry by the Fock
    oracle at eta, residues included."""
    keys = canonical_keys(KINDS[kind][0])
    entries = {
        (alpha, beta): oracle_entry(kind, alpha, beta, eta)
        for alpha in keys
        for beta in keys
    }
    return ConnectionTable(kind, eta, entries)
