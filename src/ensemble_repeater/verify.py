"""Exact verification of the protocol layer against the Fock oracle.

Every primitive the scalable recursion relies on is checked here by
brute-force Fock-space circuit simulation: the paper's six Bell laws,
read from one table (``_BELL_LAWS``: the connection of both schemes,
both purification variants and the final post-selection), the ideal
success probabilities, the symmetrized connection coefficients for
every tracked excitation-pattern pair, and the frozen polynomial tables
the chain uses.  Checks are exact to ``TOLERANCE`` (the frozen tables to
``FROZEN_TOLERANCE``, relative) and fast enough to run routinely from the
test suite or the command line.  Three certificates per table kind, read
from its coefficient file's integers alone, hold exactly, with
tolerance 0, and so at every eta in [0, 1].
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from .circuits import oracle_entry, oracle_table
from .patterns import (
    LOGICAL_BELLS,
    BellState,
    ExcitationPattern,
    PatternState,
    SchemeKind,
    logical_column,
    logical_pattern,
)
from .protocols import enc, enp, postselect_pme
from .tables import COLUMNS, KINDS, ConnectionTable, TableEntry, frozen_block, kind_table

TOLERANCE = 1e-10
FROZEN_TOLERANCE = 1e-12

#: (bit, sign) coordinates of each Bell state; the connection law is a
#: componentwise XOR in these coordinates.
_BELL_CODE = {
    BellState.PHI_PLUS: (0, 0),
    BellState.PHI_MINUS: (0, 1),
    BellState.PSI_PLUS: (1, 0),
    BellState.PSI_MINUS: (1, 1),
}
_CODE_BELL = {code: bell for bell, code in _BELL_CODE.items()}


def bell_xor(a: BellState, b: BellState) -> BellState:
    """Componentwise XOR of (bit, sign) labels: the connection output."""
    (xa, sa), (xb, sb) = _BELL_CODE[a], _BELL_CODE[b]
    return _CODE_BELL[(xa ^ xb, sa ^ sb)]


@dataclass(frozen=True)
class CheckResult:
    """One verified identity with its worst observed deviation."""

    name: str
    deviation: float
    tolerance: float = TOLERANCE

    @property
    def ok(self) -> bool:
        return self.deviation <= self.tolerance


# ----------------------------------------------------------------------
# comparison helpers

P = ExcitationPattern


def _sym(kind: str, alpha, beta, eta: float) -> np.ndarray:
    """Order-symmetrized oracle entry: the mean row of the two argument
    orders."""
    first = oracle_entry(kind, alpha, beta, eta).row
    second = oracle_entry(kind, beta, alpha, eta).row if alpha != beta else first
    return 0.5 * (first + second)


def _row_difference(a: np.ndarray, b: np.ndarray) -> float:
    """Largest absolute difference between two entry rows."""
    return float(np.max(np.abs(a - b)))


def _pure_bell_deviation(
    entry: TableEntry, target: BellState, coefficient: float
) -> float:
    """Deviation of an entry from `coefficient x pure target Bell state`."""
    want = np.zeros(len(entry.row))
    want[logical_column(entry.scheme)] = coefficient
    want[target.index - 4] = coefficient
    return max(entry.residue, _row_difference(entry.row, want))


# ----------------------------------------------------------------------
# truth tables

def _multiply_signs(a: BellState, b: BellState) -> Optional[BellState]:
    """Keep the shared bit and multiply the signs; reject unequal bits."""
    (xa, sa), (xb, sb) = _BELL_CODE[a], _BELL_CODE[b]
    return _CODE_BELL[(xa, sa ^ sb)] if xa == xb else None


def _xor_bits(a: BellState, b: BellState) -> Optional[BellState]:
    """Keep the shared sign and XOR the bits; reject unequal signs."""
    (xa, sa), (xb, sb) = _BELL_CODE[a], _BELL_CODE[b]
    return _CODE_BELL[(xa ^ xb, sa)] if sa == sb else None


#: The paper's Bell laws, in report order: (kind, name, law).  A law
#: maps the Bell labels of two logical inputs of the kind's input scheme
#: to the output's, or to None where the step rejects the pair.
_BELL_LAWS = (
    ("enc_level1", "connection level 1", bell_xor),
    ("enc_higher", "connection level >= 2", bell_xor),
    ("enc_dlcz", "single-rail connection", _multiply_signs),
    ("enp_bit", "bit purification", _multiply_signs),
    ("enp_phase", "phase purification", _xor_bits),
    ("pme", "post-selection", _multiply_signs),
)


def check_truth_tables() -> List[CheckResult]:
    """Every Bell law of ``_BELL_LAWS`` on logical inputs at eta = 1.

    Both two-cell connection levels XOR the (bit, sign) labels, after
    the heralded correction (a bit flip at the first level, a phase flip
    above it).  The odd-parity single-rail connection and the final
    post-selection keep the bit and multiply the signs.  Bit
    purification accepts only equal bits (Phi x Psi accepts with
    probability exactly zero) and multiplies the signs; phase
    purification accepts only equal signs and XORs the bits.  Each
    accepted output is the pure target Bell state with coefficient
    exactly 1/2, in the sign frame fixed by the classically known input
    labels.
    """
    results = []
    for kind, name, law in _BELL_LAWS:
        scheme = KINDS[kind][0]
        pattern = logical_pattern(scheme)
        for b1, b2 in itertools.product(LOGICAL_BELLS[scheme], repeat=2):
            entry = oracle_entry(kind, (pattern, b1), (pattern, b2), 1.0)
            target = law(b1, b2)
            if target is None:
                dev, out = entry.total, "rejected (probability 0)"
            else:
                dev = _pure_bell_deviation(entry, target, 0.5)
                out = f"{target.name} (1/2, pure)"
            results.append(CheckResult(f"{name}: {b1.name} x {b2.name} -> {out}", dev))
    return results


# ----------------------------------------------------------------------
# ideal success probabilities

def check_success_probabilities() -> List[CheckResult]:
    """Heralding probabilities of each primitive on ideal inputs at
    eta = 1: 1/8 for the first two-cell connection level (where the 45
    degree rotations reject the parallel double-excitation terms), 1/2
    for higher levels, 1/2 for purification on matching pairs, 1/2 for
    the single-rail connection and the final post-selection."""
    results = []
    psi_plus = (0.0, 0.0, 1.0, 0.0)
    ideal_new_source = PatternState(
        SchemeKind.NEW, {P.P11: 0.5, P.P20_PERP: 0.5}, psi_plus
    )
    pure_new = PatternState(SchemeKind.NEW, {P.P11: 1.0})
    pure_dlcz = PatternState(SchemeKind.DLCZ, {P.P10: 1.0}, psi_plus)
    checks = [
        (
            "first-level connection on generated pairs (1/8)",
            enc(SchemeKind.NEW, ideal_new_source, ideal_new_source, 1.0, level=1)
            .total,
            1.0 / 8.0,
        ),
        (
            "higher-level connection on logical pairs (1/2)",
            enc(SchemeKind.NEW, pure_new, pure_new, 1.0, level=2).total,
            0.5,
        ),
        (
            "bit purification on matching pairs (1/2)",
            enp("bit", pure_new, pure_new, 1.0).total,
            0.5,
        ),
        (
            "phase purification on matching pairs (1/2)",
            enp("phase", pure_new, pure_new, 1.0).total,
            0.5,
        ),
        (
            "single-rail connection on ideal pairs (1/2)",
            enc(SchemeKind.DLCZ, pure_dlcz, pure_dlcz, 1.0).total,
            0.5,
        ),
        (
            "post-selection on ideal pairs (1/2)",
            postselect_pme(pure_dlcz, pure_dlcz, 1.0).total,
            0.5,
        ),
    ]
    for name, got, want in checks:
        results.append(CheckResult(name, abs(got - want)))
    return results


# ----------------------------------------------------------------------
# symmetrized connection coefficients

def dlcz_connection_coefficients(
    eta: float,
) -> Dict[Tuple[ExcitationPattern, ExcitationPattern], Dict[ExcitationPattern, float]]:
    """Closed-form single-rail connection coefficients E[pi_a, pi_b].

    Derived by elementary branch counting over retrieval loss and the
    exactly-one-click heralding; every value is reproduced by the Fock
    oracle to machine precision.
    """
    e, loss = eta, 1.0 - eta
    return {
        (P.P10, P.P10): {P.P10: e / 2, P.P00: e * loss / 2},
        (P.P10, P.P00): {P.P00: e / 2},
        (P.P10, P.P11): {P.P11: e / 2, P.P10: e * loss},
        (P.P10, P.P20): {
            P.P20: e / 4,
            P.P10: e * loss / 2,
            P.P00: 3 * e * loss**2 / 4,
        },
        (P.P00, P.P00): {},
        (P.P00, P.P11): {P.P10: e},
        (P.P00, P.P20): {P.P00: e * loss},
    }


def two_cell_connection_coefficients(
    eta: float,
) -> Dict[Tuple[ExcitationPattern, ExcitationPattern], Dict[ExcitationPattern, float]]:
    """Closed-form two-cell connection coefficients E[pi_a, pi_b] at
    levels above the first.

    Derived by branch counting over the retrieval losses, the central
    polarizing beam splitter, and the one-photon-per-output heralding;
    every value is reproduced by the Fock oracle to machine precision.
    """
    e2, loss = eta * eta, 1.0 - eta
    return {
        (P.P11, P.P11): {P.P11: e2 / 2},
        (P.P11, P.P10): {P.P10: e2 / 4},
        (P.P11, P.P00): {},
        (P.P11, P.P20_PAR): {P.P10: e2 * loss / 2},
        (P.P11, P.P20_PERP): {P.P10: e2 * loss},
        (P.P11, P.P21_PAR): {P.P21_PAR: e2 / 4, P.P11: e2 * loss / 2},
        (P.P11, P.P21_PERP): {P.P21_PERP: e2 / 4, P.P11: e2 * loss},
        (P.P10, P.P10): {P.P00: e2 / 8},
        (P.P10, P.P00): {},
        (P.P10, P.P21_PAR): {P.P10: e2 * loss / 4, P.P20_PAR: e2 / 8},
        (P.P10, P.P21_PERP): {
            P.P11: e2 / 4,
            P.P10: e2 * loss / 2,
            P.P20_PERP: e2 / 8,
        },
        (P.P00, P.P21_PAR): {},
        (P.P00, P.P21_PERP): {P.P10: e2 / 2},
        (P.P00, P.P20_PAR): {},
        (P.P00, P.P20_PERP): {P.P00: e2 / 2},
    }


#: Efficiencies at which the connection coefficients are checked.
COEFFICIENT_ETAS = (1.0, 0.9, 0.5)


def check_connection_coefficients() -> List[CheckResult]:
    """Symmetrized connection coefficients against the closed forms, at
    each of ``COEFFICIENT_ETAS``; a logical input carries the scheme's
    default Bell label, the first of its ``LOGICAL_BELLS``."""
    results = []
    cases = [
        ("enc_dlcz", "single-rail", dlcz_connection_coefficients),
        ("enc_higher", "two-cell", two_cell_connection_coefficients),
    ]
    for kind, label, expected_fn in cases:
        scheme = KINDS[kind][0]
        logical, default = logical_pattern(scheme), LOGICAL_BELLS[scheme][0]
        for eta in COEFFICIENT_ETAS:
            expected = expected_fn(eta)
            for (pat_a, pat_b), want in expected.items():
                alpha = (pat_a, default if pat_a is logical else None)
                beta = (pat_b, default if pat_b is logical else None)
                got = _sym(kind, alpha, beta, eta)[:-4]
                dev = _row_difference(got, PatternState(scheme, want).masses)
                results.append(
                    CheckResult(
                        f"{label} connection [{pat_a.name}, {pat_b.name}]"
                        f" at eta={eta}",
                        dev,
                    )
                )
    return results


#: Efficiency of the Bell-diagonal closure check and of the check of all
#: six frozen tables.
CHECK_ETA = 0.9

#: Further efficiencies of the frozen-table check, for the four cheap
#: tables: all but the two purification tables.
MORE_FROZEN_ETAS = (0.5, 0.97)


def check_bell_diagonal_closure() -> List[CheckResult]:
    """The two-cell connection never creates coherence outside the Bell
    diagonal, so the pattern-state recursion is exact for it; the worst
    discarded off-diagonal magnitude over the whole table, at
    ``CHECK_ETA``, is zero."""
    results = []
    for kind, stage in (("enc_level1", "level 1"), ("enc_higher", "level >= 2")):
        table = oracle_table(kind, CHECK_ETA)
        results.append(
            CheckResult(
                f"two-cell connection {stage} Bell-diagonal closure"
                f" at eta={CHECK_ETA}",
                table.max_residue(),
            )
        )
    return results


# ----------------------------------------------------------------------
# frozen tables

def frozen_deviation(frozen: ConnectionTable, oracle: ConnectionTable) -> float:
    """Worst relative deviation of a frozen table from the oracle's,
    over the oracle's nonzero values; inf if a value is zero in one
    table and not in the other."""
    worst = 0.0
    for key, want_entry in oracle.entries.items():
        want = want_entry.row
        got = frozen.entries[key].row
        nonzero = want != 0.0
        if np.any(got[~nonzero] != 0.0) or np.any(got[nonzero] == 0.0):
            return float("inf")
        if nonzero.any():
            rel = np.abs(got[nonzero] - want[nonzero]) / np.abs(want[nonzero])
            worst = max(worst, float(rel.max()))
    return worst


def check_frozen_tables() -> List[CheckResult]:
    """The tables evaluated from the frozen polynomials equal the Fock
    oracle's within 1e-12 relative, and their zeros are the oracle's.

    All six tables are checked at ``CHECK_ETA``; the four cheap ones at
    ``MORE_FROZEN_ETAS`` too.
    """
    cases = [(kind, CHECK_ETA) for kind in KINDS]
    cases += [(kind, e) for e in MORE_FROZEN_ETAS for kind in KINDS if not kind.startswith("enp")]
    return [
        CheckResult(
            f"frozen {kind} table equals the oracle at eta={e}",
            frozen_deviation(kind_table(kind, e), oracle_table(kind, e)),
            FROZEN_TOLERANCE,
        )
        for kind, e in cases
    ]


def check_frozen_certificates() -> List[CheckResult]:
    """Three exact facts per table kind, four for a single-rail output,
    from ``frozen_block(kind)``'s integers alone; each deviation is the
    worst violation, in units of the table values, and the tolerance is 0.

    A value is the sum of its terms ``k / 2**bits * eta**kept *
    (1 - eta)**lost``, a Bernstein-type basis that is at least 0 on
    [0, 1].  So where every ``k`` is at least 0, every value is, at every
    eta.  In a nonzero entry of top degree d, lift each term to degree d
    with ``(eta + (1 - eta))**(d - kept - lost)``; where every
    coefficient of ``2**bits * (eta + (1 - eta))**d`` minus the pattern
    slots' lifted sum is at least 0, the entry's success probability is
    at most 1 at every eta.  In every entry the four Bell slots sum to
    the logical pattern's slot, term by term.  And for a single-rail
    output no coefficient, so no value, sits in a Phi+ or Phi- slot.
    """
    results = []
    for kind, (_, out) in KINDS.items():
        block = frozen_block(kind)
        exponents, patterns = block["exponents"], len(block["slots"]) - 4
        logical = block["slots"].index(logical_pattern(out).value)
        entries: Dict[tuple, Dict[tuple, int]] = {}
        for a, b, slot, term, k in zip(*(block[column].tolist() for column in COLUMNS)):
            entries.setdefault((a, b), {})[slot, term] = k
        sign = max(0, -min(block["k"].tolist()))
        excess = split = even = 0
        for entry in entries.values():
            d = max(sum(exponents[term]) for _, term in entry)
            room = [math.comb(d, i) << block["bits"] for i in range(d + 1)]
            for (slot, term), k in entry.items():
                if slot < patterns:
                    kept, lost = exponents[term]
                    lift = d - kept - lost
                    for j in range(lift + 1):
                        room[kept + j] -= k * math.comb(lift, j)
                elif out is SchemeKind.DLCZ and slot < patterns + 2:  # Phi+ or Phi-
                    even = max(even, abs(k))
            excess = max(excess, -min(room))
            for term in {term for _, term in entry}:
                bell = sum(entry.get((slot, term), 0) for slot in range(patterns, patterns + 4))
                split = max(split, abs(bell - entry.get((logical, term), 0)))
        checks = [
            (f"frozen {kind} coefficients are all >= 0 (exact)", sign),
            (f"frozen {kind} success is at most 1 at every eta (exact)", excess),
            (f"frozen {kind} Bell masses sum to the logical mass (exact)", split),
        ]
        if out is SchemeKind.DLCZ:
            checks.append((f"frozen {kind} holds no Phi+ or Phi- coefficient (exact)", even))
        results += [
            CheckResult(name, math.ldexp(worst, -block["bits"]), 0.0)
            for name, worst in checks
        ]
    return results


# ----------------------------------------------------------------------
# suite

def run_all() -> List[CheckResult]:
    """Every verification check, in a stable order."""
    results = []
    results.extend(check_truth_tables())
    results.extend(check_success_probabilities())
    results.extend(check_connection_coefficients())
    results.extend(check_bell_diagonal_closure())
    results.extend(check_frozen_tables())
    results.extend(check_frozen_certificates())
    return results


def all_ok(results: Iterable[CheckResult]) -> bool:
    return all(r.ok for r in results)


def format_report(results: List[CheckResult]) -> str:
    """Human-readable pass/fail report, one line per identity."""
    lines = []
    failures = 0
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        failures += 0 if r.ok else 1
        lines.append(
            f"{status}  {r.name}  (deviation {r.deviation:.3e},"
            f" tolerance {r.tolerance:.0e})"
        )
    lines.append(
        f"{len(results)} checks, {failures} failures,"
        f" worst deviation {max(r.deviation for r in results):.3e}"
    )
    return "\n".join(lines) + "\n"
