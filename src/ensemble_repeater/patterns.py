"""Pattern-decomposed repeater-pair states.

The scalable recursion does not track full density matrices. A repeater
pair is summarized by probabilities over excitation patterns (how many
spin waves sit at each node, and how they are arranged over the node's
cells) plus the four Bell-diagonal weights of the pattern that carries
the qubit. Inter-pattern coherence is dropped by construction; within
the logical pattern only the Bell-basis diagonal is kept, and the
discarded off-diagonal magnitude is available as a diagnostic (the
residue of an oracle-built table entry).

Pattern labels
--------------
For the single-rail DLCZ scheme a node holds 0, 1 or 2 excitations, so
a pair is one of P00, P10, P11, P20, P21, P22 (unordered node counts).
The logical qubit lives in P10.

For the two-cell scheme a node with two excitations is either "par"
(both in the same cell) or "perp" (one per cell), giving P00, P10, P11,
P20_par, P20_perp, P21_par, P21_perp and the doubly excited P22
combinations. The logical qubit lives in P11 (one excitation at each
node, in the H or V cell).

States with more than two excitations at a node appear only at second
order in the excitation probability; they are kept as an explicit
OVERFLOW bucket so that classification preserves trace exactly, and are
treated as absorbing failure mass by the connection tables.  Each
label is defined once, in ``SIGNATURES``, as its pair of node
signatures, to which :mod:`.circuits` gives cell occupations; the
logical pattern's Bell labels are defined once, in ``LOGICAL_BELLS``.

Array layout
------------
A :class:`PatternState` is one read-only float row: the pattern masses
in ``scheme_patterns(scheme)`` order (overflow last, the logical
pattern's mass included), then the four absolute Bell masses of the
logical pattern, which sum to its mass.  It is the only pair-state
type: the protocol steps read this row and return their unnormalized
output as a new one, whose total mass is the step's success
probability.  The conditional Bell weights ``logical`` (a read-only
float array) are derived from the row.  A state with no logical mass
reports the scheme's pure default weights: Psi+ for DLCZ, Phi+ for the
two-cell scheme.  The one Bell channel, ``apply_bell_channel``, is
depolarizing and is given by its probability.

A batch of pairs is an ``(n, k)`` array of such rows.  The row
functions (``row_totals``, ``apply_bell_channel_rows``,
``logical_fidelity_rows``) are the state operations on every row at
once, with the same arithmetic; ``apply_bell_channel_rows`` takes a
probability that is checked already.  A normalized row's ``fidelity``
is its target's Bell column.

The state rule
--------------
A row is a pair state unless a pattern mass is below ``-WEIGHT_TOL``,
a Bell weight (a Bell mass over the logical mass) is below
``-WEIGHT_TOL``, or a single-rail pair's Phi+ or Phi- weight is above 0:
its one excitation, shared by two ensembles, holds only Psi+ and Psi-.
A state a caller builds (``PatternState(...)``, ``_from_row``) may hold
masses down to ``-WEIGHT_TOL``, and the weights' sign then flips with
its logical mass.  NaN passes the rule, and the zero-success and
overflow verdicts are separate checks.

A row the engines build holds no negative mass.  Every table value is
0 or more, as ``verify.check_frozen_certificates`` shows at every eta
and ``ConnectionTable.matrix`` checks once per table, so each such row
is a sum of products of non-negative floats: a step's output, as
``protocols._component_masses`` clips its inputs to 0 or more; the
``eng_rows`` masses, 1 - q and q with q at most 0.5; the Bell channel's
factors (1 - p) + p/4 and p/4; and ``normalize``, a division by a
positive total.  Nor does a single-rail one hold Phi+ or Phi- mass:
``eng_rows`` puts none there, ``enc_dlcz`` has no such coefficient (the
certificates show it, and ``matrix`` checks it), and the Bell channel
never runs on a single-rail row (``chain.check_step_noise``).  And a
live row is normalized: adding its k masses left to right, dividing
each by the total and adding again leaves the total within (2k - 1)
2**-53 of 1, recursive summation's rounding bound (2.3e-15 at k = 11,
430 times below ``WEIGHT_TOL``), as sums of subnormals are exact and
the Bell channel moves only Bell mass.  So a sweep's block runs no row
check, and ``PatternState._set_row`` runs the rule, at the cost of one
``min``, on every state it freezes: a caller's, and ``normalize``'s
output, which can break it (a P00 mass of -1e-12 in a state of total
0.5 becomes -2e-12).

``check_row`` is the rule's one implementation, and ``_set_row`` runs
it only on a row with an entry below 0, or a single-rail row with
nonzero Phi+ or Phi- mass.  That is sound: in a row with neither, no
mass is below ``-WEIGHT_TOL``, every Bell mass over a mass is 0 or more,
or NaN (a NaN mass or Bell mass), and NaN is not below ``-WEIGHT_TOL``
either; and 0 over a mass is not above 0.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, NamedTuple, Optional, Sequence

import numpy as np

WEIGHT_TOL = 1e-12


class SchemeKind(enum.Enum):
    """Repeater flavor: single-rail DLCZ or the two-cell logical-qubit scheme."""

    DLCZ = "dlcz"
    NEW = "new"

    __hash__ = object.__hash__  # as BellState's; the table caches are keyed on it


class BellState(enum.Enum):
    PHI_PLUS = "phi_plus"
    PHI_MINUS = "phi_minus"
    PSI_PLUS = "psi_plus"
    PSI_MINUS = "psi_minus"

    # Members are singletons compared by identity, so they hash by
    # identity too: Enum.__hash__, a Python call that hashes the name,
    # was most of a table-key lookup.
    __hash__ = object.__hash__

    @cached_property
    def index(self) -> int:
        """Position in the (Phi+, Phi-, Psi+, Psi-) order of Bell arrays."""
        return tuple(BellState).index(self)


class ExcitationPattern(enum.Enum):
    P00 = "P00"
    P10 = "P10"
    P11 = "P11"
    P20 = "P20"
    P21 = "P21"
    P22 = "P22"
    P20_PAR = "P20_par"
    P20_PERP = "P20_perp"
    P21_PAR = "P21_par"
    P21_PERP = "P21_perp"
    P22_PAR_PAR = "P22_par_par"
    P22_PAR_PERP = "P22_par_perp"
    P22_PERP_PERP = "P22_perp_perp"
    OVERFLOW = "overflow"

    __hash__ = object.__hash__  # as BellState's


_P = ExcitationPattern

#: Per scheme, each pattern label's pair of node signatures, left-first
#: orientation first, in canonical order.  A signature is a node's
#: excitation count, and for two excitations in two cells whether they
#: share one ("par") or not ("perp"); the oracle's circuits give each
#: signature its cell occupations.
SIGNATURES = {
    SchemeKind.DLCZ: {
        _P.P00: (0, 0), _P.P10: (1, 0), _P.P11: (1, 1),
        _P.P20: (2, 0), _P.P21: (2, 1), _P.P22: (2, 2),
    },
    SchemeKind.NEW: {
        _P.P00: ("0", "0"), _P.P10: ("1", "0"), _P.P11: ("1", "1"),
        _P.P20_PAR: ("par", "0"), _P.P20_PERP: ("perp", "0"),
        _P.P21_PAR: ("par", "1"), _P.P21_PERP: ("perp", "1"),
        _P.P22_PAR_PAR: ("par", "par"), _P.P22_PAR_PERP: ("par", "perp"),
        _P.P22_PERP_PERP: ("perp", "perp"),
    },
}

_PATTERNS = {scheme: (*labels, _P.OVERFLOW) for scheme, labels in SIGNATURES.items()}

#: Per scheme, the Bell labels the logical pattern can carry, the pure
#: default first: Psi+ and Psi- for single-rail pairs, all four for
#: two-cell pairs.
LOGICAL_BELLS = {
    SchemeKind.DLCZ: (BellState.PSI_PLUS, BellState.PSI_MINUS),
    SchemeKind.NEW: tuple(BellState),
}


def scheme_patterns(scheme: SchemeKind) -> tuple[ExcitationPattern, ...]:
    """Pattern labels valid for the scheme, in canonical order: the
    labels of ``SIGNATURES``, then OVERFLOW."""
    return _PATTERNS[scheme]


def logical_pattern(scheme: SchemeKind) -> ExcitationPattern:
    """The pattern carrying the logical qubit: P10 (DLCZ) or P11 (two-cell)."""
    return (
        ExcitationPattern.P10 if scheme is SchemeKind.DLCZ else ExcitationPattern.P11
    )


_VACUUM_PATTERNS = {
    SchemeKind.DLCZ: (ExcitationPattern.P00,),
    SchemeKind.NEW: (ExcitationPattern.P00, ExcitationPattern.P10),
}


class _Layout(NamedTuple):
    """Columns of a scheme's patterns in ``PatternState.row``, and the
    scheme's pure Bell weights for a state without logical mass."""

    column: Mapping[ExcitationPattern, int]
    logical: int
    vacuum: tuple[int, ...]
    default_logical: np.ndarray


def _make_layout(scheme: SchemeKind) -> _Layout:
    column = {p: i for i, p in enumerate(scheme_patterns(scheme))}
    vacuum = tuple(column[p] for p in _VACUUM_PATTERNS[scheme])
    weights = np.zeros(4)
    weights[LOGICAL_BELLS[scheme][0].index] = 1.0
    weights.flags.writeable = False
    return _Layout(column, column[logical_pattern(scheme)], vacuum, weights)


_LAYOUTS = {scheme: _make_layout(scheme) for scheme in SchemeKind}


def logical_column(scheme: SchemeKind) -> int:
    """Position of the logical pattern in ``scheme_patterns(scheme)``."""
    return _LAYOUTS[scheme].logical


@dataclass(frozen=True, init=False, eq=False)
class PatternState:
    """A pair's pattern masses and Bell masses as one read-only float row.

    ``row`` is laid out as the module docstring describes: ``masses``
    is a view of its pattern masses, and ``row[-4:]`` holds the absolute
    Bell masses of the logical pattern.  ``logical`` is derived: the
    Bell masses over the logical mass, or the scheme's pure default when
    that mass is zero.  ``total`` is the summed pattern mass.  A
    protocol step returns its output unnormalized, so that ``total`` is
    the step's success probability; ``normalized`` reports whether the
    mass sums to 1.  States are immutable.

    ``PatternState(scheme, probs, logical)`` builds a state from a
    pattern -> mass mapping and four conditional Bell weights in the
    order (Phi+, Phi-, Psi+, Psi-), by default those ``logical`` reports
    at zero logical mass.  It rejects patterns outside the scheme and
    Bell weights that are negative or do not sum to 1; the state rule
    then rejects the rest, a mass below ``-WEIGHT_TOL`` naming the first.
    """

    scheme: SchemeKind
    row: np.ndarray
    total: float

    def __init__(
        self,
        scheme: SchemeKind,
        probs: Mapping[ExcitationPattern, float],
        logical: Optional[Sequence[float]] = None,
    ) -> None:
        layout = _LAYOUTS[scheme]
        masses = np.zeros(len(layout.column))
        for pat, p in probs.items():
            if pat not in layout.column:
                raise ValueError(f"pattern {pat} not valid for scheme {scheme}")
            masses[layout.column[pat]] = p
        if logical is None:
            logical = layout.default_logical
        weights = np.asarray(logical, dtype=float)
        if weights.shape != (4,):
            raise ValueError("expected four Bell weights")
        values = weights.tolist()
        if min(values) < -WEIGHT_TOL:
            raise ValueError("Bell weights must be non-negative")
        block = sum(values)
        if abs(block - 1.0) > 1e-9:
            raise ValueError(f"logical block weights sum to {block}, expected 1")
        row = np.concatenate((masses, masses[layout.logical] * weights))
        self._set_row(scheme, row)

    @classmethod
    def _from_row(cls, scheme: SchemeKind, row: np.ndarray) -> "PatternState":
        """State owning ``row``, a fresh array; ``eng`` and
        ``apply_bell_channel`` build their output here."""
        state = cls.__new__(cls)
        state._set_row(scheme, row)
        return state

    def _set_row(self, scheme: SchemeKind, row: np.ndarray) -> None:
        """Check ``row`` with ``check_row`` and freeze it as this state's.

        A row with no entry below 0, and if single-rail no Phi+ or Phi-
        mass, passes every check, so only another row pays for the array
        call.  ``min`` skips a NaN after the first entry and returns NaN
        for a NaN first entry, so it is below 0 or NaN whenever some
        entry is below 0.  ``setflags`` freezes the row, a method call
        that costs less than setting ``row.flags.writeable``.  The masses
        are added left to right, as ``row_totals`` adds its columns;
        ``sum`` compensates float sums from Python 3.12 on.

        The steps and ``normalize`` build their state with
        ``object.__new__`` and this method, without ``_from_row``.
        """
        values = row.tolist()
        if not min(values) >= 0.0 or (scheme is SchemeKind.DLCZ and (values[-4] or values[-3])):
            check_row(scheme, row)
        row.setflags(write=False)
        total = 0.0
        for mass in values[:-4]:
            total += mass
        fields = self.__dict__
        fields["scheme"] = scheme
        fields["row"] = row
        fields["total"] = total

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PatternState):
            return NotImplemented
        return self.scheme is other.scheme and np.array_equal(self.row, other.row)

    @property
    def masses(self) -> np.ndarray:
        """Read-only view of the pattern masses in scheme order."""
        return self.row[:-4]

    @property
    def logical(self) -> np.ndarray:
        """Read-only Bell weights (Phi+, Phi-, Psi+, Psi-) conditioned on
        the logical pattern; they sum to 1."""
        layout = _LAYOUTS[self.scheme]
        mass = self.row[layout.logical]
        if mass == 0.0:
            return layout.default_logical
        weights = self.row[-4:] / mass
        weights.flags.writeable = False
        return weights

    @property
    def normalized(self) -> bool:
        return abs(self.total - 1.0) <= WEIGHT_TOL


class PatternAggregate(NamedTuple):
    p_logic: float
    p_vac: float
    p_multi: float


def aggregate(state: PatternState) -> PatternAggregate:
    """Group pattern mass into (p_logic, p_vac, p_multi).

    DLCZ: logical is P10, vacuum is P00, everything else is multi.
    Two-cell scheme: logical is P11, vacuum is P00 + P10 (states with at
    most one excitation between both pairs of cells), rest is multi.
    """
    layout = _LAYOUTS[state.scheme]
    masses = state.row.tolist()
    p_logic = masses[layout.logical]
    p_vac = sum(masses[i] for i in layout.vacuum)
    p_multi = state.total - p_logic - p_vac
    return PatternAggregate(p_logic, p_vac, float(p_multi))


def fidelity(state: PatternState, target: BellState) -> float:
    """Full-state fidelity with a Bell target: the target's Bell mass.

    Vacuum and multi-excitation mass count as errors; see
    ``logical_fidelity`` for the post-selected figure.
    """
    if not state.normalized:
        raise ValueError("fidelity requires a normalized state")
    return state.row.item(target.index - 4)


def logical_fidelity(state: PatternState, target: BellState) -> float:
    """Fidelity conditioned on the logical pattern (post-selected): the
    target's weight in ``state.logical``.

    It divides the target's Bell mass by the logical mass as two Python
    floats, the one IEEE division ``state.logical`` takes for that
    weight, and reads the scheme's default weight when the mass is zero.
    """
    layout = _LAYOUTS[state.scheme]
    mass = state.row.item(layout.logical)
    if mass == 0.0:
        return layout.default_logical.item(target.index)
    return state.row.item(target.index - 4) / mass


def normalize(state: PatternState) -> PatternState:
    total = state.total
    if total <= 0.0:
        raise ValueError("cannot normalize a zero-trace pattern state")
    normalized = object.__new__(PatternState)
    normalized._set_row(state.scheme, state.row / total)
    return normalized


def apply_bell_channel(state: PatternState, p: float) -> PatternState:
    """Depolarize the Bell masses with probability ``p`` in [0, 1]: each
    Bell state is kept with 1 - p and randomized with p."""
    if not 0.0 <= p <= 1.0:  # a NaN fails too
        raise ValueError(f"depolarizing probability must lie in [0, 1], got {p}")
    row = state.row.copy()
    row[-4:] = _mix_bell_masses(p, row[-4:].tolist())
    return PatternState._from_row(state.scheme, row)


def _mix_bell_masses(p: float, masses: Sequence) -> list:
    """The Bell masses after depolarizing with probability ``p``: mass i
    is ``c_i0 m0 + ... + c_i3 m3``, added left to right, where c is the
    channel matrix ``(1 - p) I + p J / 4``, J all ones.

    ``masses`` holds one state's four masses as floats, or a batch's four
    mass columns as arrays, mixed element by element with the same IEEE
    operations and no BLAS call: a row gets its state's bits on any kernel.
    """
    keep, flip = (1.0 - p) + 0.25 * p, 0.25 * p
    m0, m1, m2, m3 = masses
    return [
        keep * m0 + flip * m1 + flip * m2 + flip * m3,
        flip * m0 + keep * m1 + flip * m2 + flip * m3,
        flip * m0 + flip * m1 + keep * m2 + flip * m3,
        flip * m0 + flip * m1 + flip * m2 + keep * m3,
    ]


# ----------------------------------------------------------------------
# batches of rows (see the module docstring)


def row_totals(scheme: SchemeKind, rows: np.ndarray) -> np.ndarray:
    """Summed pattern mass of each row, ``PatternState.total`` of each.

    The columns are added left to right, in the order ``PatternState``
    adds the masses of one row, so each total is the state's to the bit.
    """
    total = 0.0 + rows[:, 0]
    for j in range(1, len(_LAYOUTS[scheme].column)):
        total += rows[:, j]
    return total


def apply_bell_channel_rows(rows: np.ndarray, p: float) -> None:
    """``apply_bell_channel`` on every row, in place, with no check of ``p``."""
    rows[:, -4:] = np.transpose(_mix_bell_masses(p, rows[:, -4:].T))


def check_row(scheme: SchemeKind, row: np.ndarray) -> None:
    """Raise if ``row`` breaks the state rule (see the module docstring).

    A bad pattern mass raises naming the first in scheme order, then a
    negative Bell weight, then single-rail Phi+ or Phi- weight.  Dividing
    by a nonzero mass is monotone, so the smallest Bell weight is the
    smallest Bell mass over a positive mass and the largest over a
    negative one.
    """
    layout = _LAYOUTS[scheme]
    n = len(layout.column)
    negative = row[:n] < -WEIGHT_TOL
    if negative.any():
        j = int(negative.argmax())
        pattern = scheme_patterns(scheme)[j]
        raise ValueError(f"negative pattern probability: {pattern} = {float(row[j])}")
    mass = row[layout.logical]
    if mass != 0.0:
        extreme = row[n:].min() if mass > 0.0 else row[n:].max()
        if extreme / mass < -WEIGHT_TOL:
            raise ValueError("Bell weights must be non-negative")
        if scheme is SchemeKind.DLCZ and (row[n : n + 2] / mass > 0.0).any():
            raise ValueError("single-rail pairs carry only odd-parity Bell weight")


def logical_fidelity_rows(
    scheme: SchemeKind, rows: np.ndarray, target: BellState
) -> np.ndarray:
    """``logical_fidelity`` of every row."""
    layout = _LAYOUTS[scheme]
    mass = rows[:, layout.logical]
    weights = np.full(len(rows), layout.default_logical[target.index])
    np.divide(rows[:, target.index - 4], mass, out=weights, where=mass != 0.0)
    return weights
