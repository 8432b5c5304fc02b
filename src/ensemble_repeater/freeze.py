"""Regenerate the frozen table coefficients from the Fock oracle.

Run from the repository root::

    PYTHONPATH=src python3 -m ensemble_repeater.freeze [KIND ...]

It rewrites ``src/ensemble_repeater/coefficients/<kind>.json`` for each
table kind named (``tables.KINDS``), or for all six when none is named
(about 25 s on one core; ``enc_dlcz``, ``pme`` and ``enc_higher`` take
under a second each).  A table build reads only its own kind's file, on
that kind's first build.  Each file is one block:

``keys``
    the canonical input keys, the ``a`` and ``b`` indices;
``slots``
    the output values of an entry, the slots of ``TableEntry.row``;
``exponents``
    the (kept, lost) photon counts of each term;
``a``, ``b``, ``slot``, ``term``, ``c`` (``tables.COLUMNS``)
    parallel columns with one item per nonzero coefficient ``c`` of
    ``c[a, b, slot, term]``, sorted by index.

An entry's value in a slot is the sum over its coefficients of
``c * eta**kept * (1 - eta)**lost``.  The coefficients come from one
tagged oracle run per entry (``circuits.entry_terms``), not from a fit.
A file's first line records the SHA-256 of the rest of its bytes
(``tables.hash_line``).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from .circuits import entry_terms
from .tables import (
    COLUMNS,
    KINDS,
    canonical_keys,
    coefficients_file,
    hash_line,
    key_label,
    output_scheme,
    slot_labels,
)

#: Every field of a block, in file order.
FIELDS = ("keys", "slots", "exponents") + COLUMNS


def coefficient_block(kind: str) -> dict:
    """The frozen block of one table, computed by the oracle."""
    out = output_scheme(kind)
    keys = canonical_keys(KINDS[kind][0])
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
    block = {
        "keys": [key_label(k) for k in keys],
        "slots": slot_labels(out),
        "exponents": [list(e) for e in exponents],
    }
    for field, values in zip(COLUMNS, zip(*rows)):
        block[field] = list(values)
    return block


def render(block: dict) -> str:
    """A coefficient file's text: its hash line, then one field per line."""
    fields = ",\n".join(f" {json.dumps(field)}: {json.dumps(block[field])}" for field in FIELDS)
    body = fields + "\n}\n"
    return hash_line(body.encode()).decode() + "\n" + body


def main() -> int:
    kinds = sys.argv[1:] or list(KINDS)
    unknown = [kind for kind in kinds if kind not in KINDS]
    if unknown:
        print(f"unknown table kind {unknown[0]!r}; known: {', '.join(KINDS)}", file=sys.stderr)
        return 2
    for kind in kinds:
        print(f"computing {kind} ...", file=sys.stderr, flush=True)
        path = Path(__file__).parent / coefficients_file(kind)
        path.write_text(render(coefficient_block(kind)))
        print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
