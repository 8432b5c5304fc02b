"""Regenerate the frozen table coefficients from the Fock oracle.

Run from the repository root::

    PYTHONPATH=src python3 -m ensemble_repeater.freeze [KIND ...]

It rewrites ``src/ensemble_repeater/coefficients/<kind>.bin`` for each
table kind named (``tables.KINDS``), or for all six when none is named
(about 15 s on one core; ``enc_dlcz``, ``pme`` and ``enc_higher`` take
under a second each).  A table build reads only its own kind's file, on
that kind's first build.  Each file holds one block.  After a first line
with the SHA-256 of the rest of its bytes (``tables.hash_line``), a
one-line JSON header lists (``tables.HEADER``)

``keys``
    the canonical input keys, the ``a`` and ``b`` indices;
``slots``
    the output values of an entry, the slots of ``TableEntry.row``;
``exponents``
    the (kept, lost) photon counts of each term;
``bits``
    the power of two under every coefficient;
``items``
    the number of nonzero coefficients.

The rest of the file is the parallel integer columns ``a``, ``b``,
``slot``, ``term`` and ``k`` (``tables.COLUMNS``), one after the other,
each ``items`` little-endian 32-bit integers (``tables.ITEM``): one item
per nonzero coefficient ``c[a, b, slot, term] = k / 2**bits``, sorted by
index.

An entry's value in a slot is the sum over its coefficients of
``c * eta**kept * (1 - eta)**lost``.  The coefficients come from one
tagged oracle run per entry (``circuits.entry_terms``), not from a fit.
Each is a dyadic rational, and ``dyadic`` rounds a kind's coefficients
to exact integers; where it cannot, or where an integer does not fit
the stored width, freeze names the kind and that coefficient, exits 1
and writes no file.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from typing import Mapping

import numpy as np

from .circuits import entry_terms
from .tables import (
    COLUMNS,
    HEADER,
    ITEM,
    KINDS,
    canonical_keys,
    coefficients_file,
    hash_line,
    key_label,
    slot_labels,
)

#: Largest relative move of a coefficient rounded to k / 2**bits.
ROUNDING_TOL = 1e-12
#: Most bits of a denominator.  The coefficients need at most 9; at 16 a
#: value that is no dyadic rational, such as 0.1, still moves by ~1e-6.
MAX_BITS = 16


def dyadic(kind: str, rows: list[tuple]) -> tuple[int, list[int]]:
    """The fewest bits, and the integers k, that put the value ``c`` of
    every ``(a, b, slot, term, c)`` row of a kind within ``ROUNDING_TOL``
    relative of its k / 2**bits; ValueError naming the kind and its
    worst coefficient if no bits up to ``MAX_BITS`` do.
    """
    values = [row[-1] for row in rows]
    for bits in range(MAX_BITS + 1):
        ks = [round(math.ldexp(c, bits)) for c in values]
        moves = [abs(math.ldexp(k, -bits) - c) / abs(c) for k, c in zip(ks, values)]
        if max(moves) <= ROUNDING_TOL:
            return bits, ks
    *index, c = rows[moves.index(max(moves))]
    raise ValueError(
        f"{kind}: coefficient {c!r} at (a, b, slot, term) = {tuple(index)} is no"
        f" k / 2**bits with bits <= {MAX_BITS} within {ROUNDING_TOL:g} relative"
    )


def coefficient_block(kind: str) -> dict:
    """The frozen block of one table, computed by the oracle; ValueError
    if a coefficient is no k / 2**bits (see ``dyadic``)."""
    scheme, out = KINDS[kind]
    keys = canonical_keys(scheme)
    terms = {}
    for a, alpha in enumerate(keys):
        for b, beta in enumerate(keys):
            for exponents, part in entry_terms(kind, alpha, beta).items():
                terms[(a, b, exponents)] = part.row.tolist()
    exponents = sorted({e for _, _, e in terms})
    column = {e: t for t, e in enumerate(exponents)}
    rows = sorted(
        (a, b, slot, column[e], c)
        for (a, b, e), values in terms.items()
        for slot, c in enumerate(values)
        if c != 0.0
    )
    bits, ks = dyadic(kind, rows)
    check_width(kind, rows, ks)
    *index, _ = zip(*rows)
    return {
        "keys": [key_label(k) for k in keys],
        "slots": slot_labels(out),
        "exponents": [list(e) for e in exponents],
        "bits": bits,
        "items": len(rows),
        **{field: list(items) for field, items in zip(COLUMNS, (*index, ks))},
    }


def check_width(kind: str, rows: list[tuple], ks: list[int]) -> None:
    """ValueError naming the kind and the first ``(a, b, slot, term, c)``
    row whose index or integer k does not fit ``ITEM``, the width a
    coefficient file stores."""
    info = np.iinfo(ITEM)
    for (*index, _), k in zip(rows, ks):
        for field, value in zip(COLUMNS, (*index, k)):
            if not info.min <= value <= info.max:
                raise ValueError(
                    f"{kind}: {field} = {value} at (a, b, slot, term) = {tuple(index)}"
                    f" does not fit the stored width, {info.bits}-bit integers"
                )


def render(block: Mapping) -> bytes:
    """A coefficient file's bytes: its hash line, the header on one line,
    then the columns."""
    header = json.dumps({field: block[field] for field in HEADER}).encode()
    columns = np.array([block[column] for column in COLUMNS], dtype=ITEM)
    body = header + b"\n" + columns.tobytes()
    return hash_line(body) + b"\n" + body


def main() -> int:
    kinds = sys.argv[1:] or list(KINDS)
    unknown = [kind for kind in kinds if kind not in KINDS]
    if unknown:
        print(f"unknown table kind {unknown[0]!r}; known: {', '.join(KINDS)}", file=sys.stderr)
        return 2
    files, refused = {}, False
    for kind in kinds:
        print(f"computing {kind} ...", file=sys.stderr, flush=True)
        try:
            files[kind] = render(coefficient_block(kind))
        except ValueError as exc:
            print(f"refused {exc}; no file written", file=sys.stderr)
            refused = True
    if refused:
        return 1
    for kind, data in files.items():
        path = Path(__file__).parent / coefficients_file(kind)
        path.write_bytes(data)
        print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
