"""Protocol steps acting on pattern states.

The three repeater operations (entanglement generation, connection,
purification) and the final post-selected mapping are exposed here as
maps between :class:`~.patterns.PatternState` objects.  Generation is an
analytic model of the heralded source including its leading
multi-excitation admixture; connection, purification and the final
mapping apply the exact Fock-level tables of :mod:`.tables` bilinearly
to the input decompositions, as two matrix products per step.
``eng_rows`` and ``apply_table_rows`` do the same for a batch of pairs,
an ``(n, k)`` array of rows in the ``PatternState.row`` layout.
``eng`` is the batch of one of ``eng_rows``, taking the same IEEE
products at one p_c.  The steps re-implement the batch's formula on
the 1-d rows, both written in ``_table_products``: two ``np.dot``
calls of a vector and a matrix, where a batch stacks the same products
with ``np.matmul``.  The two agree to the bit only because numpy sends
both to the same BLAS matrix-vector call;
``test_batch_size_leaves_each_rows_step_unchanged`` pins it at batch
sizes 0 to 3, around 256, and 302.

Connection-type steps return their output as an unnormalized
:class:`~.patterns.PatternState` whose total mass is the acceptance
probability of the step; overflow components of the inputs (beyond two
excitations per node) are treated as never yielding an accepted
outcome.
"""

from __future__ import annotations

import enum
from functools import lru_cache
from typing import Optional

import numpy as np

from .noise import NoiseParams, gaussian_phase_average, phase_error_prob
from .patterns import (
    ExcitationPattern,
    PatternState,
    SchemeKind,
    logical_column,
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

    Returns a normalized pattern state, whose row is ``eng_rows`` at
    this one p_c.
    """
    return PatternState._from_row(scheme, eng_rows(scheme, p_c, noise, L0))


def eng_rows(scheme: SchemeKind, p_c, noise: NoiseParams, L0: float) -> np.ndarray:
    """Rows of the elementary pairs of ``eng``, one per value of ``p_c``.

    ``p_c`` is a float or a 1-d array; the result is a fresh array of
    shape ``p_c.shape + (k,)`` in the ``PatternState.row`` layout:
    pattern masses in scheme order, then the Bell masses (Phi+, Phi-,
    Psi+, Psi-), the logical mass times (0, 0, 1 - q, q).  A float and
    an array entry give the same row to the bit.
    """
    batch = isinstance(p_c, np.ndarray)
    if not (np.all((0.0 < p_c) & (p_c < 1.0)) if batch else 0.0 < p_c < 1.0):
        raise ValueError("p_c must lie in (0, 1)")
    if L0 <= 0.0:
        raise ValueError("L0 must be positive")
    if scheme is SchemeKind.DLCZ:
        q = phase_error_prob(noise.D, L0)
        extra = ENG_MULTI_WEIGHT_DLCZ * p_c
        norm = 1.0 + extra
        mass = 1.0 / norm
    else:
        q = gaussian_phase_average(4.0 * noise.D * L0)
        extra = ENG_MULTI_WEIGHT_NEW * p_c
        norm = 1.0 + extra
        mass = 0.5 / norm
    multi = 0.5 * extra / norm
    # Each entry is one product, mass or multi times its column's factor,
    # plus an exact zero from the other product.
    mass_factors, multi_factors = _eng_factors(scheme, q)
    if not batch:
        return mass * mass_factors + multi * multi_factors
    return np.multiply.outer(mass, mass_factors) + np.multiply.outer(
        multi, multi_factors
    )


@lru_cache(maxsize=64)
def _eng_factors(scheme: SchemeKind, q: float) -> tuple:
    """Column factors of the logical mass and of the multi-excitation mass
    in an ``eng`` row, at phase-error probability ``q``."""
    patterns = scheme_patterns(scheme)
    if scheme is SchemeKind.DLCZ:
        of_mass = (ExcitationPattern.P10,)
        of_multi = (ExcitationPattern.P11, ExcitationPattern.P20)
    else:
        of_mass = (ExcitationPattern.P11, ExcitationPattern.P20_PERP)
        of_multi = (ExcitationPattern.P21_PAR, ExcitationPattern.P21_PERP)
    mass_factors = [1.0 if p in of_mass else 0.0 for p in patterns]
    multi_factors = [1.0 if p in of_multi else 0.0 for p in patterns]
    return (
        np.array(mass_factors + [0.0, 0.0, 1.0 - q, q]),
        np.array(multi_factors + [0.0] * 4),
    )


def _component_masses(scheme: SchemeKind, rows: np.ndarray) -> np.ndarray:
    """Canonical component masses of each row of an ``(n, k)`` array, or
    of one 1-d row; non-positive ones count as 0.

    A single-rail row must carry no even-parity Bell weight: a row whose
    Phi+ or Phi- mass over its logical mass is positive is rejected.
    Only a row with even-parity Bell mass can fail, and a valid chain has
    none, so the rule runs only where some is nonzero: for one 1-d row,
    as its two scalars ``row.item(-4)`` and ``row.item(-3)`` tell, and
    for a batch, as ``np.count_nonzero`` of the two columns tells.  A 1-d
    row takes its columns with ``take`` along its one axis.
    """
    columns = selected_columns(scheme)
    if rows.ndim == 1:
        if scheme is SchemeKind.DLCZ and (rows.item(-4) or rows.item(-3)):
            _check_odd_parity(scheme, rows[None])
        return np.maximum(rows.take(columns), 0.0)
    if scheme is SchemeKind.DLCZ and np.count_nonzero(rows[:, -4:-2]):
        _check_odd_parity(scheme, rows)
    return np.maximum(rows.take(columns, axis=-1), 0.0)


def _check_odd_parity(scheme: SchemeKind, rows: np.ndarray) -> None:
    """Reject the ``(n, k)`` single-rail rows whose Phi+ or Phi- mass over
    their logical mass is positive."""
    mass = rows[:, logical_column(scheme)]
    weighted = mass != 0.0
    if (rows[weighted, -4:-2] / mass[weighted, None] > 0.0).any():
        raise ValueError("single-rail pairs carry only odd-parity Bell weight")


def apply_table_rows(
    table: ConnectionTable,
    left: np.ndarray,
    right: np.ndarray,
) -> np.ndarray:
    """Unnormalized outputs of one table step on ``n`` pairs of input rows.

    ``left`` and ``right`` are ``(n, k)`` rows in the layout of
    ``table.scheme``; row i of the ``(n, k_out)`` result is the step on
    left row i and right row i, and its pattern total is that step's
    success probability.

    Each row takes the two products of ``_table_products``, stacked by
    ``np.matmul``, so a row's bits do not depend on how many rows the
    batch holds.  One matrix product over the whole batch is faster,
    but its rows differ in the last bits with the batch size, and a
    sweep's rows would then differ from the same chains run one at a
    time.
    """
    x_left = _component_masses(table.scheme, left)
    x_right = x_left if right is left else _component_masses(table.scheme, right)
    return _table_products(table, x_left, x_right)


def _table_products(
    table: ConnectionTable, x_left: np.ndarray, x_right: np.ndarray
) -> np.ndarray:
    """The step's two products on component masses: the right masses
    times ``table.matrix``, read as ``(o, a)``, then that times the left
    masses.

    One 1-d row takes two ``np.dot`` calls; an ``(n, b)`` batch stacks
    the same products with ``np.matmul``, whose stacking would cost a
    single row several microseconds.  numpy sends both to one BLAS
    matrix-vector call per row, so a row's output is the same bits
    either way.
    """
    o, a, _ = table.tensor.shape
    if x_left.ndim == 1:
        partial = np.dot(x_right, table.matrix).reshape(o, a)
        return np.dot(partial, x_left)
    n = len(x_left)
    partial = np.matmul(x_right[:, None, :], table.matrix).reshape(n, o, a)
    return np.matmul(partial, x_left[:, :, None]).reshape(n, o)


def _apply_table(
    table: ConnectionTable,
    left: PatternState,
    right: PatternState,
) -> PatternState:
    """Unnormalized output of one table step; its total is the success
    probability.

    ``apply_table_rows`` on the 1-d rows, without the stacking's
    per-call cost: ``_table_products`` runs one row as two ``np.dot``
    calls, which equal the stacked row to the bit because numpy sends
    both to the same BLAS matrix-vector call;
    ``test_batch_size_leaves_each_rows_step_unchanged`` pins this.  The
    output state is built directly, with ``object.__new__`` and
    ``PatternState._set_row``.
    """
    scheme = table.scheme
    if left.scheme is not scheme or right.scheme is not scheme:
        raise ValueError("input scheme does not match table scheme")
    x_left = _component_masses(scheme, left.row)
    x_right = x_left if right is left else _component_masses(scheme, right.row)
    state = object.__new__(PatternState)
    state._set_row(table.output_scheme, _table_products(table, x_left, x_right))
    return state


def step_table(
    stage: str,
    scheme: SchemeKind,
    eta: float,
    level: int = 2,
    kind: Optional[EnpKind] = None,
) -> ConnectionTable:
    """Table of one chain step: "enc" at ``level``, "enp" of ``kind``, or
    "pme", the final mapping."""
    if stage == "enc":
        if level < 1:
            raise ValueError("level must be >= 1")
        return enc_table(scheme, eta, first_level=(level == 1))
    if stage == "enp":
        return enp_table(EnpKind(kind).value, eta)
    return pme_table(eta)


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
    return _apply_table(step_table("enc", scheme, eta, level), left, right)


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
    return _apply_table(
        step_table("enp", SchemeKind.NEW, eta, kind=kind), pair1, pair2
    )


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
    return _apply_table(step_table("pme", SchemeKind.DLCZ, eta), pair1, pair2)


def predicted_logical_error(m: int, eta: float, p_c: float) -> float:
    """Accumulated double-excitation logical error after m connection levels."""
    if m < 0:
        raise ValueError("m must be non-negative")
    return (2.0**m - 1.0) * (1.0 - eta) * p_c
