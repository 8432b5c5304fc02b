"""Connection tables, evaluated from exact polynomials in eta.

Every connection step (entanglement connection, purification, the final
post-selected mapping) acts bilinearly on the pattern decomposition of
its two input pairs.  Its action is therefore fully specified by a
finite table: one :class:`TableEntry` per ordered pair of canonical
input components.  An entry is one float row in the state layout of
the output scheme (see :mod:`.patterns`): pattern masses, then Bell
masses.

Loss is the only place the retrieval/detection efficiency eta enters
the Fock circuits of :mod:`.circuits`: a branch that keeps ``kept``
retrieved photons and loses ``lost`` carries the factor
eta^kept (1 - eta)^lost.  Every table value is therefore a polynomial of
degree at most 8, the sum of ``c * eta**kept * (1 - eta)**lost`` over
the (kept, lost) exponents.  :mod:`.freeze` computes the coefficients
once from a tagged run of the circuits and stores each exactly, as
``c = k / 2**bits``, in one file per table kind,
``coefficients/<kind>.bin``.  Its first line holds the SHA-256 of the
rest of the file, its second a JSON header with the kind's ``bits`` and
item count, and the rest is five parallel integer columns ``a``, ``b``,
``slot``, ``term`` and ``k``, one item per nonzero coefficient, as one
block of little-endian 32-bit integers.  A table reads and checks its
own kind's file on that kind's first build, and takes the columns as
arrays straight from the block's bytes, with no work per coefficient in
Python.  One ``np.bincount`` sums each ``(a, b, slot)`` value's own
terms in file order; its rows, one read-only view per entry, are listed
once per (kind, eta) and kept, as the tables are, for the
``ETA_CACHE_SIZE`` keys last used.  A coefficient and its input-swapped
mirror are the same integer, so every table is exactly symmetric in its
inputs; ``verify.check_frozen_tables`` compares the tables with the oracle.

The discarded-coherence diagnostic ``TableEntry.residue`` is no
polynomial, so evaluated entries carry none; ``circuits.oracle_entry``
and ``circuits.oracle_table`` build an entry or a table, residues
included, through the oracle.

Canonical input components are pattern states with a definite
excitation pattern; the logical pattern carries an additional Bell
label.  Overflow components (more than two excitations per node) have
no canonical representative and are treated as absorbing: any input
mass assigned to them is dropped by the connection step.

A step applies a table as two matrix products.  It gathers the
canonical component masses out of a state row, one column per key at
``selected_columns``, and ``ConnectionTable.tensor``, ``T[o, a, b]``,
the entry rows stacked, maps a pair of them to the output state row,
which is the next state's row as it stands: the right masses times
``ConnectionTable.matrix``, the tensor laid out as ``(b, o·a)``, then
that ``(o, a)`` product times the left masses.  A batch of rows makes
the same two BLAS calls per row (see ``protocols.apply_table_rows``).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import attrgetter
from pathlib import Path
from typing import Mapping, NamedTuple, Optional, Tuple

import numpy as np

from .patterns import (
    LOGICAL_BELLS,
    BellState,
    ExcitationPattern,
    SchemeKind,
    logical_column,
    logical_pattern,
    row_totals,
    scheme_patterns,
)

Key = Tuple[ExcitationPattern, Optional[BellState]]

#: The six tables by kind: (input scheme, output scheme).  The final
#: mapping, ``pme``, makes polarization pairs of single-rail ones.
KINDS = {
    "enc_dlcz": (SchemeKind.DLCZ, SchemeKind.DLCZ),
    "pme": (SchemeKind.DLCZ, SchemeKind.NEW),
    "enc_level1": (SchemeKind.NEW, SchemeKind.NEW),
    "enc_higher": (SchemeKind.NEW, SchemeKind.NEW),
    "enp_bit": (SchemeKind.NEW, SchemeKind.NEW),
    "enp_phase": (SchemeKind.NEW, SchemeKind.NEW),
}

#: Directory of the frozen coefficients, next to this module: one
#: ``<kind>.bin`` per table kind.
COEFFICIENTS_DIR = "coefficients"
#: The fields of a coefficient file's JSON header, in file order.
HEADER = ("keys", "slots", "exponents", "bits", "items")
#: The integer columns of a block, one item per nonzero coefficient.
COLUMNS = ("a", "b", "slot", "term", "k")
#: How a coefficient file stores each item of a column.
ITEM = np.dtype("<i4")
#: Most (kind, eta) keys each per-eta cache keeps, above the test suite's count.
ETA_CACHE_SIZE = 512


def enc_kind(scheme: SchemeKind, first_level: bool) -> str:
    """Name of the connection table of a scheme (level-independent for DLCZ)."""
    if scheme is SchemeKind.DLCZ:
        return "enc_dlcz"
    return "enc_level1" if first_level else "enc_higher"


class TableEntry:
    """Unnormalized output of one pattern-pair connection, as one row.

    ``row`` is a read-only float array in the state layout of the output
    ``scheme`` (see :mod:`.patterns`): the pattern masses in
    ``scheme_patterns`` order, then the four absolute Bell masses of the
    logical output.  ``masses`` lists the patterns of nonzero mass,
    ``bell`` the Bell masses and ``total`` the summed pattern mass.
    ``residue``, the largest discarded off-Bell-diagonal magnitude
    across accepted outcomes, is known only for entries built by the
    Fock oracle; it is None for entries evaluated from the frozen
    polynomials.

    Entries are immutable: the fields are read-only properties, and the
    builder passes a read-only row.  A cold build makes one entry per
    key pair, and this slotted class is built in about a third of the
    time of a frozen dataclass.
    """

    __slots__ = ("_scheme", "_row", "_residue")

    def __init__(
        self, scheme: SchemeKind, row: np.ndarray, residue: Optional[float] = None
    ) -> None:
        self._scheme = scheme
        self._row = row
        self._residue = residue

    scheme = property(attrgetter("_scheme"))
    row = property(attrgetter("_row"))
    residue = property(attrgetter("_residue"))

    @property
    def masses(self) -> tuple[tuple[ExcitationPattern, float], ...]:
        return tuple(
            (p, w)
            for p, w in zip(scheme_patterns(self.scheme), self.row[:-4].tolist())
            if w != 0.0
        )

    @property
    def bell(self) -> tuple[float, float, float, float]:
        return tuple(self.row[-4:].tolist())

    @property
    def total(self) -> float:
        """The masses added left to right, by ``patterns.row_totals``;
        ``sum`` compensates float sums from Python 3.12 on."""
        return float(row_totals(self.scheme, self.row[None])[0])


def canonical_keys(scheme: SchemeKind) -> tuple[Key, ...]:
    """Ordered canonical component keys of a scheme, overflow excluded.

    The logical pattern expands into one key per Bell label of
    ``LOGICAL_BELLS``; every other pattern contributes a single
    (pattern, None) key.
    """
    logical = logical_pattern(scheme)
    keys: list[Key] = []
    for pattern in scheme_patterns(scheme):
        if pattern is ExcitationPattern.OVERFLOW:
            continue
        if pattern is logical:
            keys.extend((pattern, bell) for bell in LOGICAL_BELLS[scheme])
        else:
            keys.append((pattern, None))
    return tuple(keys)


@lru_cache(maxsize=None)
def selected_columns(scheme: SchemeKind) -> np.ndarray:
    """Read-only state-row column of each canonical key, in key order.

    A state row lists the pattern masses in ``scheme_patterns`` order,
    then the four absolute Bell masses.  Key ``(pattern, None)`` picks
    its pattern's mass, key ``(logical, bell)`` the mass of that Bell
    state; the logical pattern's total and the overflow mass map to no
    key.
    """
    patterns = scheme_patterns(scheme)
    columns = np.array(
        [
            patterns.index(pattern) if bell is None else len(patterns) + bell.index
            for pattern, bell in canonical_keys(scheme)
        ]
    )
    columns.flags.writeable = False
    return columns


@dataclass(frozen=True)
class ConnectionTable:
    """Bilinear action of one connection step at fixed efficiency.

    Attributes
    ----------
    kind : str
        One of the ``KINDS``, the table's only identity.
    eta : float
        Retrieval/detection efficiency used in the circuits.
    entries : mapping
        ``(key_left, key_right) -> TableEntry`` over canonical keys.

    ``scheme``, of the input pairs, and ``output_scheme`` are the kind's
    pair in ``KINDS``.  ``tensor``, the entries as one dense array, and
    ``matrix``, its ``(b, o·a)`` layout for the step's matrix products,
    are built on first use, not with the table.
    """

    kind: str
    eta: float
    entries: Mapping[Tuple[Key, Key], TableEntry]

    @cached_property
    def scheme(self) -> SchemeKind:
        return KINDS[self.kind][0]

    @cached_property
    def output_scheme(self) -> SchemeKind:
        return KINDS[self.kind][1]

    def entry(self, alpha: Key, beta: Key) -> TableEntry:
        return self.entries[(alpha, beta)]

    def max_residue(self) -> float:
        """Largest entry residue; only oracle-built tables carry residues."""
        residues = [entry.residue for entry in self.entries.values()]
        if None in residues:
            raise ValueError(
                "entries evaluated from the frozen polynomials carry no residue;"
                " build the table with circuits.oracle_table"
            )
        return max(residues)

    @cached_property
    def tensor(self) -> np.ndarray:
        """Dense entries ``T[o, a, b]``, built on first use.

        ``a`` and ``b`` run over ``canonical_keys(scheme)``; ``T[:, a, b]``
        is the entry's ``row``, except that the logical pattern's slot
        carries the sum of the Bell masses, so the contraction yields the
        output state row as it stands.
        """
        keys = canonical_keys(self.scheme)
        rows = [[self.entries[(alpha, beta)].row for beta in keys] for alpha in keys]
        tensor = np.array(rows).transpose(2, 0, 1).copy()
        tensor[logical_column(self.output_scheme)] = tensor[-4:].sum(axis=0)
        tensor.flags.writeable = False
        return tensor

    @cached_property
    def matrix(self) -> np.ndarray:
        """The tensor as a read-only ``(b, o·a)`` matrix, built on first use.

        Row ``b``, read as ``(o, a)``, is ``T[:, :, b]``: right-input
        masses times the matrix give, for each output slot ``o``, the
        vector over ``a`` that the left-input masses then contract.
        The products take about twice as long on the transposed view
        of the tensor as on this copy at 302 rows.

        Both engines read the matrix, so a table is checked here, once:
        a negative value raises, and so does Phi+ or Phi- mass for a
        single-rail output.  No frozen table holds either at any eta.
        """
        name = f"the {self.kind} table at eta={self.eta!r}"
        if (self.tensor < 0.0).any():
            raise ValueError(f"{name} holds a negative value")
        if self.output_scheme is SchemeKind.DLCZ and self.tensor[-4:-2].any():
            raise ValueError(f"{name} holds even-parity Bell mass for a single-rail pair")
        o, a, b = self.tensor.shape
        matrix = np.ascontiguousarray(self.tensor.reshape(o * a, b).T)
        matrix.flags.writeable = False
        return matrix


# ----------------------------------------------------------------------
# frozen coefficients


def hash_line(body: bytes) -> bytes:
    """First line of a coefficient file: the SHA-256 of ``body``, the
    bytes after it."""
    return b"sha256 " + hashlib.sha256(body).hexdigest().encode()


def coefficients_file(kind: str) -> str:
    """Path of one table kind's coefficient file, relative to this package."""
    return f"{COEFFICIENTS_DIR}/{kind}.bin"


def _stale(name: str) -> RuntimeError:
    return RuntimeError(
        f"{name}: the layout differs from the code;"
        " regenerate it with python3 -m ensemble_repeater.freeze"
    )


@lru_cache(maxsize=None)
def frozen_block(kind: str) -> Mapping:
    """The coefficient block of one table kind, checked against the hash
    its file records.  Read from this module's directory, where
    :mod:`.freeze` writes it, on that kind's first build, not at import.

    The first line of ``coefficients_file(kind)`` must be ``hash_line``
    of the file's remaining bytes, so any edit, whitespace included, is
    rejected.  The second line is a JSON header of the ``HEADER`` fields:
    ``keys``, ``slots``, ``exponents``, ``bits`` and the number of
    ``items``.  The rest must be exactly the parallel columns ``a``,
    ``b``, ``slot``, ``term`` and ``k``, one after the other, each
    ``items`` integers of type ``ITEM``: one coefficient ``k / 2**bits``
    per item.  The block is the header with each column added as a
    read-only integer array over the file's bytes.
    """
    name = coefficients_file(kind)
    data = (Path(__file__).parent / name).read_bytes()
    head, _, body = data.partition(b"\n")
    if head != hash_line(body):
        raise RuntimeError(f"{name} does not match its sha256")
    header, _, columns = body.partition(b"\n")
    block = json.loads(header)
    if list(block) != list(HEADER) or (
        len(columns) != block["items"] * len(COLUMNS) * ITEM.itemsize
    ):
        raise _stale(name)
    block.update(zip(COLUMNS, np.frombuffer(columns, ITEM).reshape(len(COLUMNS), -1)))
    return block


def key_label(key: Key) -> str:
    pattern, bell = key
    return pattern.value if bell is None else f"{pattern.value}[{bell.value}]"


def slot_labels(scheme: SchemeKind) -> list[str]:
    """Labels of a ``TableEntry.row`` of the scheme: the patterns, then the Bell states."""
    return [p.value for p in scheme_patterns(scheme)] + [b.value for b in BellState]


class _Polynomials(NamedTuple):
    """One table's nonzero coefficients in file order, indexed like
    ``canonical_keys`` and ``TableEntry.row``.

    ``coefficients[i]`` belongs to the flat ``(a, b, slot)`` position
    ``flat[i]`` of a table of ``shape`` and multiplies the term
    ``term[i]``, of exponents ``kept`` and ``lost`` at that index.
    """

    index: Mapping[Key, int]
    scheme: SchemeKind
    shape: Tuple[int, int, int]
    flat: np.ndarray
    term: np.ndarray
    coefficients: np.ndarray
    kept: np.ndarray
    lost: np.ndarray


@lru_cache(maxsize=None)
def _polynomials(kind: str) -> _Polynomials:
    block = frozen_block(kind)
    scheme, out = KINDS[kind]
    keys = canonical_keys(scheme)
    if block["keys"] != [key_label(k) for k in keys] or block["slots"] != slot_labels(out):
        raise _stale(coefficients_file(kind))
    kept, lost = np.array(block["exponents"], dtype=float).reshape(-1, 2).T
    shape = (len(keys), len(keys), len(block["slots"]))
    a, b, slot, term, k = np.array([block[column] for column in COLUMNS], dtype=np.intp)
    flat = (a * shape[1] + b) * shape[2] + slot
    index = {key: i for i, key in enumerate(keys)}
    coefficients = np.ldexp(k, -block["bits"])
    return _Polynomials(index, out, shape, flat, term, coefficients, kept, lost)


def _frozen_values(kind: str, eta: float) -> np.ndarray:
    """Every entry row of one table at eta, ``values[a, b]``, read-only
    and not cached: ``_frozen_rows`` keeps them.  Each value is the sum
    of its own terms ``c * eta**kept * (1 - eta)**lost``, added from zero
    in file order, bit for bit."""
    poly = _polynomials(kind)
    basis = eta**poly.kept * (1.0 - eta) ** poly.lost
    values = np.bincount(
        poly.flat, weights=poly.coefficients * basis[poly.term], minlength=math.prod(poly.shape)
    ).reshape(poly.shape)
    values.flags.writeable = False
    return values


@lru_cache(maxsize=ETA_CACHE_SIZE)
def _frozen_rows(kind: str, eta: float) -> tuple:
    """Output scheme, key index, key count n and rows: ``rows[a * n + b]``
    is a view of ``_frozen_values(kind, eta)[a, b]``; no eta outside
    [0, 1], which raises, is cached."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    poly = _polynomials(kind)
    rows = list(_frozen_values(kind, eta).reshape(-1, poly.shape[2]))
    return poly.scheme, poly.index, poly.shape[1], rows


def _frozen_entry(kind: str, alpha: Key, beta: Key, eta: float) -> TableEntry:
    """One table entry evaluated from its frozen polynomials at eta."""
    scheme, index, n, rows = _frozen_rows(kind, eta)
    return TableEntry(scheme, rows[index[alpha] * n + index[beta]])


def enc_entry(
    scheme: SchemeKind, alpha: Key, beta: Key, eta: float, first_level: bool = False
) -> TableEntry:
    """Connection entry for one canonical pattern pair."""
    return _frozen_entry(enc_kind(scheme, first_level), alpha, beta, eta)


def enp_entry(alpha: Key, beta: Key, eta: float, phase_variant: bool) -> TableEntry:
    """Purification entry for one canonical pattern pair."""
    return _frozen_entry("enp_phase" if phase_variant else "enp_bit", alpha, beta, eta)


def pme_entry(alpha: Key, beta: Key, eta: float) -> TableEntry:
    """Final post-selection entry for one pair of single-rail patterns."""
    return _frozen_entry("pme", alpha, beta, eta)


# ----------------------------------------------------------------------
# tables


@lru_cache(maxsize=None)
def _key_pairs(scheme: SchemeKind) -> tuple:
    keys = canonical_keys(scheme)
    return tuple((alpha, beta) for alpha in keys for beta in keys)


def _build(kind: str, eta: float) -> ConnectionTable:
    """The kind's table: its entry function, chosen once, is called once
    per key pair, as a module global that a wrapper may replace."""
    scheme = KINDS[kind][0]
    pairs = _key_pairs(scheme)
    if kind == "pme":
        entries = {pair: pme_entry(pair[0], pair[1], eta) for pair in pairs}
    elif kind in ("enp_bit", "enp_phase"):
        phase = kind == "enp_phase"
        entries = {pair: enp_entry(pair[0], pair[1], eta, phase) for pair in pairs}
    else:
        first = kind == "enc_level1"
        entries = {pair: enc_entry(scheme, pair[0], pair[1], eta, first) for pair in pairs}
    return ConnectionTable(kind, eta, entries)


@lru_cache(maxsize=ETA_CACHE_SIZE)
def _enc_table(kind: str, eta: float) -> ConnectionTable:
    return _build(kind, eta)


def enc_table(scheme: SchemeKind, eta: float, first_level: bool = False) -> ConnectionTable:
    """Entanglement-connection table for a scheme at efficiency eta.

    The single-rail connection is level-independent; the two-cell scheme
    adds 45 degree rotations on the retrieved qubits at the first level.
    """
    return _enc_table(enc_kind(scheme, first_level), eta)


@lru_cache(maxsize=ETA_CACHE_SIZE)
def enp_table(kind: str, eta: float) -> ConnectionTable:
    """Entanglement-purification table (kind "bit" or "phase")."""
    if kind not in ("bit", "phase"):
        raise ValueError(f"unknown purification kind {kind!r}")
    return _build(f"enp_{kind}", eta)


@lru_cache(maxsize=ETA_CACHE_SIZE)
def pme_table(eta: float) -> ConnectionTable:
    """Final post-selected mapping from two single-rail pairs."""
    return _build("pme", eta)


def kind_table(kind: str, eta: float) -> ConnectionTable:
    """The cached table of one of the ``KINDS`` at eta."""
    if kind == "pme":
        return pme_table(eta)
    if kind in ("enp_bit", "enp_phase"):
        return enp_table(kind.removeprefix("enp_"), eta)
    return enc_table(KINDS[kind][0], eta, first_level=(kind == "enc_level1"))


def dump_table(table: ConnectionTable) -> str:
    """Human-readable structured dump of a connection table.

    One line per nonzero table entry, listing the surviving pattern
    masses, the Bell weights of the logical component, and, for an
    oracle-built table, the off-diagonal residue diagnostic.
    Deterministic ordering.
    """
    lines = [f"# kind={table.kind} eta={table.eta!r}"]
    logical = logical_pattern(table.output_scheme)
    for alpha, beta in _key_pairs(table.scheme):
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
        if entry.residue is not None:
            parts.append(f"| residue={entry.residue:.3e}")
        lines.append(f"{key_label(alpha)} x {key_label(beta)} -> " + " ".join(parts))
    return "\n".join(lines) + "\n"
