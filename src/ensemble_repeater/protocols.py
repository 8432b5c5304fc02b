"""Protocol steps acting on pattern states.

The three repeater operations (entanglement generation, connection,
purification) and the final post-selected mapping are exposed here as
maps between :class:`~.patterns.PatternState` objects.  Generation is an
analytic model of the heralded source including its leading
multi-excitation admixture; connection, purification and the final
mapping apply the exact Fock-level tables of :mod:`.tables` bilinearly
to the input decompositions, as one dense contraction per step.

Connection-type steps return their output as an unnormalized
:class:`~.patterns.PatternState` whose total mass is the acceptance
probability of the step; overflow components of the inputs (beyond two
excitations per node) are treated as never yielding an accepted
outcome.
"""

from __future__ import annotations

import enum

import numpy as np

from .noise import NoiseParams, gaussian_phase_average, phase_error_prob
from .patterns import (
    ExcitationPattern,
    PatternState,
    SchemeKind,
    logical_column,
    logical_pattern,
    scheme_patterns,
)
from .tables import (
    ConnectionTable,
    enc_table,
    enp_table,
    pme_table,
    selected_columns,
)

# Weight of the unheralded double-excitation admixture of the sources,
# relative to p_c.  Generation-side detection catches most double
# emissions (the second Stokes photon usually clicks), so only a small
# fraction survives into the heralded state.  The two-cell value is
# calibrated so that connection levels inject an accumulated logical
# error of (2^m - 1)(1 - eta) p_c.
ENG_MULTI_WEIGHT_NEW = 0.2
ENG_MULTI_WEIGHT_DLCZ = 5.5


class EnpKind(str, enum.Enum):
    """Which Bell-state error a purification round removes."""

    BIT = "bit"
    PHASE = "phase"


def eng(
    scheme: SchemeKind,
    p_c: float,
    noise: NoiseParams,
    L0: float,
) -> PatternState:
    """Heralded elementary pair between stations 2*L0 apart.

    Single-rail generation conditions on one Stokes click and yields the
    odd-parity superposition with excitation probability p_c per
    ensemble; the click heralds at least one excitation, so the
    admixture at O(p_c) consists of one extra excitation on either side.
    Two-cell generation runs one single-rail link per cell pair and
    keeps both, so half the heralded mass is the cross-cell component
    with both excitations at one node; its O(p_c) admixture adds a third
    excitation.  Interferometric phase noise over the generation fibers
    mixes the odd-parity sign; the two-cell pattern sees the difference
    of two independent link phases and thus twice the variance.

    Returns a normalized pattern state.
    """
    if not 0.0 < p_c < 1.0:
        raise ValueError("p_c must lie in (0, 1)")
    if L0 <= 0.0:
        raise ValueError("L0 must be positive")
    if scheme is SchemeKind.DLCZ:
        q = phase_error_prob(noise.D, L0)
        extra = ENG_MULTI_WEIGHT_DLCZ * p_c
        norm = 1.0 + extra
        probs = {
            ExcitationPattern.P10: 1.0 / norm,
            ExcitationPattern.P11: 0.5 * extra / norm,
            ExcitationPattern.P20: 0.5 * extra / norm,
        }
    else:
        q = gaussian_phase_average(4.0 * noise.D * L0)
        extra = ENG_MULTI_WEIGHT_NEW * p_c
        norm = 1.0 + extra
        probs = {
            ExcitationPattern.P11: 0.5 / norm,
            ExcitationPattern.P20_PERP: 0.5 / norm,
            ExcitationPattern.P21_PAR: 0.5 * extra / norm,
            ExcitationPattern.P21_PERP: 0.5 * extra / norm,
        }
    # The row layout: pattern masses in scheme order, then the Bell masses
    # (Phi+, Phi-, Psi+, Psi-), the logical mass times (0, 0, 1 - q, q).
    row = [probs.get(pattern, 0.0) for pattern in scheme_patterns(scheme)]
    mass = probs[logical_pattern(scheme)]
    row += (0.0, 0.0, mass * (1.0 - q), mass * q)
    return PatternState._from_row(scheme, np.array(row))


def _component_masses(state: PatternState) -> np.ndarray:
    """Canonical component masses of a state; non-positive ones count as 0."""
    row = state.row
    if state.scheme is SchemeKind.DLCZ:
        values = row.tolist()
        mass = values[logical_column(SchemeKind.DLCZ)]
        if mass != 0.0 and (values[-4] / mass > 0.0 or values[-3] / mass > 0.0):
            raise ValueError("single-rail pairs carry only odd-parity Bell weight")
    return np.maximum(row.take(selected_columns(state.scheme)), 0.0)


def _apply_table(
    table: ConnectionTable,
    left: PatternState,
    right: PatternState,
) -> PatternState:
    """Unnormalized output of one table step; its total is the success
    probability."""
    if left.scheme is not table.scheme or right.scheme is not table.scheme:
        raise ValueError("input scheme does not match table scheme")
    x_left = _component_masses(left)
    x_right = x_left if right is left else _component_masses(right)
    row = np.einsum("oab,a,b->o", table.tensor, x_left, x_right)
    return PatternState._from_row(table.output_scheme, row)


def enc(
    scheme: SchemeKind,
    left: PatternState,
    right: PatternState,
    eta: float,
    level: int = 2,
) -> PatternState:
    """Entanglement connection of two adjacent pairs.

    The two-cell circuit at the first connection level rotates the
    retrieved central qubits by 45 degrees before the polarizing
    beam splitter; all higher levels (and every single-rail connection)
    interfere them directly.  Acceptance requires exactly one photon at
    each output arm (one click total for the single-rail circuit).

    Returns the unnormalized output; its total is the success probability.
    """
    if level < 1:
        raise ValueError("level must be >= 1")
    table = enc_table(scheme, eta, first_level=(level == 1))
    return _apply_table(table, left, right)


def enp(
    kind: EnpKind,
    pair1: PatternState,
    pair2: PatternState,
    eta: float,
) -> PatternState:
    """One entanglement-purification round consuming two parallel pairs.

    The bit variant compares the qubits in the H/V basis and keeps the
    upper pair when each node's lower output carries exactly one photon,
    which rejects components whose bit parities disagree; the phase
    variant runs the same comparison in the rotated basis and rejects
    sign mismatches instead.

    Returns the unnormalized kept pair; its total is the success
    probability.
    """
    table = enp_table(EnpKind(kind).value, eta)
    return _apply_table(table, pair1, pair2)


def postselect_pme(
    pair1: PatternState,
    pair2: PatternState,
    eta: float,
) -> PatternState:
    """Post-selected mapping of two single-rail pairs to one qubit pair.

    The two rails become the H and V cells of a polarization pair; the
    mapping keeps the component with exactly one excitation at each
    node, which is read out only by the final measurement and therefore
    enters the delivered fidelity as a post-selection.

    Returns the unnormalized two-cell pair; its total is the success
    probability.
    """
    table = pme_table(eta)
    return _apply_table(table, pair1, pair2)


def predicted_logical_error(m: int, eta: float, p_c: float) -> float:
    """Accumulated double-excitation logical error after m connection levels."""
    if m < 0:
        raise ValueError("m must be non-negative")
    return (2.0**m - 1.0) * (1.0 - eta) * p_c
