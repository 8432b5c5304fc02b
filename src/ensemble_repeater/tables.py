"""Exact connection tables built from the Fock-level circuits.

Every connection step (entanglement connection, purification, the final
post-selected mapping to polarization pairs) acts bilinearly on the
pattern decomposition of its two input pairs.  Its action is therefore
fully specified by a finite table: one :class:`~.circuits.TableEntry`
per ordered pair of canonical input components.  Tables are computed on
demand by brute-force simulation and cached per (scheme, operation,
variant, eta), so a chain simulation touches the Fock layer only once
per efficiency value.

Canonical input components are pattern states with a definite
excitation pattern; the logical pattern carries an additional Bell
label.  Overflow components (more than two excitations per node) have
no canonical representative and are treated as absorbing: any input
mass assigned to them is dropped by the connection step.

A step applies a table as one dense contraction: ``state_selection``
picks the canonical component masses out of a state row (pattern
masses, then Bell masses; see :mod:`.patterns`) and
``ConnectionTable.tensor``, ``T[o, a, b]``, maps a pair of them to the
output state row, which is the next state's row as it stands.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Mapping, Optional, Tuple

import numpy as np

from .circuits import TableEntry, enc_entry, enp_entry, pme_entry
from .patterns import (
    BellState,
    ExcitationPattern,
    SchemeKind,
    logical_pattern,
    scheme_patterns,
)

Key = Tuple[ExcitationPattern, Optional[BellState]]

ENC_LEVEL1 = "level1"
ENC_HIGHER = "higher"
ENP_BIT = "bit"
ENP_PHASE = "phase"

_DLCZ_LOGICAL_BELLS = (BellState.PSI_PLUS, BellState.PSI_MINUS)


def canonical_keys(scheme: SchemeKind) -> tuple[Key, ...]:
    """Ordered canonical component keys of a scheme, overflow excluded.

    The logical pattern expands into one key per admissible Bell state;
    every other pattern contributes a single (pattern, None) key.
    """
    logical = logical_pattern(scheme)
    bells = _DLCZ_LOGICAL_BELLS if scheme is SchemeKind.DLCZ else tuple(BellState)
    keys: list[Key] = []
    for pattern in scheme_patterns(scheme):
        if pattern is ExcitationPattern.OVERFLOW:
            continue
        if pattern is logical:
            keys.extend((pattern, bell) for bell in bells)
        else:
            keys.append((pattern, None))
    return tuple(keys)


@lru_cache(maxsize=None)
def state_selection(scheme: SchemeKind) -> np.ndarray:
    """0/1 matrix ``S[k, r]`` taking a state row to canonical key masses.

    A state row lists the pattern masses in ``scheme_patterns`` order,
    then the four absolute Bell masses.  Key ``(pattern, None)`` picks
    its pattern's mass, key ``(logical, bell)`` the mass of that Bell
    state; the logical pattern's total and the overflow mass map to no
    key.
    """
    patterns = scheme_patterns(scheme)
    keys = canonical_keys(scheme)
    selection = np.zeros((len(keys), len(patterns) + 4))
    for k, (pattern, bell) in enumerate(keys):
        column = patterns.index(pattern) if bell is None else len(patterns) + bell.index
        selection[k, column] = 1.0
    selection.flags.writeable = False
    return selection


@dataclass(frozen=True)
class ConnectionTable:
    """Bilinear action of one connection step at fixed efficiency.

    Attributes
    ----------
    scheme : SchemeKind
        Scheme of the *input* pairs.
    op : str
        One of ``"enc"``, ``"enp"``, ``"pme"``.
    variant : str
        Sub-variant: ENC level ("level1"/"higher"), purification kind
        ("bit"/"phase"), or "" for the final mapping.
    eta : float
        Retrieval/detection efficiency used in the circuits.
    entries : mapping
        ``(key_left, key_right) -> TableEntry`` over canonical keys.
    """

    scheme: SchemeKind
    op: str
    variant: str
    eta: float
    entries: Mapping[Tuple[Key, Key], TableEntry]

    @property
    def output_scheme(self) -> SchemeKind:
        return SchemeKind.NEW if self.op == "pme" else self.scheme

    def entry(self, alpha: Key, beta: Key) -> TableEntry:
        return self.entries[(alpha, beta)]

    def max_residue(self) -> float:
        return max(entry.residue for entry in self.entries.values())

    @cached_property
    def tensor(self) -> np.ndarray:
        """Dense entries ``T[o, a, b]``, built on first use.

        ``a`` and ``b`` run over ``canonical_keys(scheme)``; ``o`` runs
        over the state row of the output scheme: its pattern masses in
        ``scheme_patterns`` order, then the four absolute Bell masses of
        the logical output.  The logical pattern's row carries its mass,
        the sum of the Bell masses, so the contraction yields the output
        state row as it stands.  Entries with no accepted mass stay zero.
        """
        keys = canonical_keys(self.scheme)
        patterns = scheme_patterns(self.output_scheme)
        logical = logical_pattern(self.output_scheme)
        rows = {p: o for o, p in enumerate(patterns) if p is not logical}
        n = len(patterns)
        tensor = np.zeros((n + 4, len(keys), len(keys)))
        for a, alpha in enumerate(keys):
            for b, beta in enumerate(keys):
                entry = self.entries[(alpha, beta)]
                if entry.total <= 0.0:
                    continue
                for pattern, mass in entry.masses:
                    if pattern in rows:
                        tensor[rows[pattern], a, b] = mass
                tensor[n:, a, b] = entry.bell
        tensor[patterns.index(logical)] = tensor[n:].sum(axis=0)
        tensor.flags.writeable = False
        return tensor


def _build(scheme: SchemeKind, op: str, variant: str, eta: float) -> ConnectionTable:
    keys = canonical_keys(scheme)
    entries: dict[Tuple[Key, Key], TableEntry] = {}
    for alpha in keys:
        for beta in keys:
            if op == "enc":
                entry = enc_entry(
                    scheme, alpha, beta, eta, first_level=(variant == ENC_LEVEL1)
                )
            elif op == "enp":
                entry = enp_entry(
                    alpha, beta, eta, phase_variant=(variant == ENP_PHASE)
                )
            elif op == "pme":
                entry = pme_entry(alpha, beta, eta)
            else:
                raise ValueError(f"unknown operation {op!r}")
            entries[(alpha, beta)] = entry
    return ConnectionTable(scheme, op, variant, eta, entries)


@lru_cache(maxsize=None)
def _enc_table(scheme: SchemeKind, eta: float, variant: str) -> ConnectionTable:
    return _build(scheme, "enc", variant, eta)


def enc_table(scheme: SchemeKind, eta: float, first_level: bool = False) -> ConnectionTable:
    """Entanglement-connection table for a scheme at efficiency eta.

    The single-rail connection is level-independent; the two-cell scheme
    adds 45 degree rotations on the retrieved qubits at the first level.
    """
    if scheme is SchemeKind.DLCZ:
        variant = ENC_HIGHER
    else:
        variant = ENC_LEVEL1 if first_level else ENC_HIGHER
    return _enc_table(scheme, eta, variant)


@lru_cache(maxsize=None)
def enp_table(kind: str, eta: float) -> ConnectionTable:
    """Entanglement-purification table (kind "bit" or "phase")."""
    if kind not in (ENP_BIT, ENP_PHASE):
        raise ValueError(f"unknown purification kind {kind!r}")
    return _build(SchemeKind.NEW, "enp", kind, eta)


@lru_cache(maxsize=None)
def pme_table(eta: float) -> ConnectionTable:
    """Final post-selected mapping from two single-rail pairs."""
    return _build(SchemeKind.DLCZ, "pme", "", eta)


def _key_label(key: Key) -> str:
    pattern, bell = key
    return pattern.value if bell is None else f"{pattern.value}[{bell.value}]"


def dump_table(table: ConnectionTable) -> str:
    """Human-readable structured dump of a connection table.

    One line per nonzero table entry, listing the surviving pattern
    masses, the Bell weights of the logical component, and the
    off-diagonal residue diagnostic.  Deterministic ordering.
    """
    lines = [
        f"# scheme={table.scheme.value} op={table.op}"
        f" variant={table.variant or '-'} eta={table.eta!r}"
    ]
    logical = logical_pattern(table.output_scheme)
    for alpha in canonical_keys(table.scheme):
        for beta in canonical_keys(table.scheme):
            entry = table.entries[(alpha, beta)]
            if entry.total <= 0.0:
                continue
            parts = []
            for pattern, mass in entry.masses:
                if pattern is logical:
                    continue
                parts.append(f"{pattern.value}={mass!r}")
            if any(entry.bell):
                bell = ",".join(repr(w) for w in entry.bell)
                parts.append(f"{logical.value}=({bell})")
            lines.append(
                f"{_key_label(alpha)} x {_key_label(beta)} -> "
                + " ".join(parts)
                + f" | residue={entry.residue:.3e}"
            )
    return "\n".join(lines) + "\n"
