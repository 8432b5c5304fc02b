"""Regenerate the frozen table coefficients from the Fock oracle.

Run from the repository root::

    PYTHONPATH=src python3 -m ensemble_repeater.freeze

It rewrites ``src/ensemble_repeater/table_coefficients.json`` (about
25 s on one core).  Each table of ``tables.KINDS`` is one block:

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
The file's first line records the SHA-256 of the rest of its bytes
(``tables.hash_line``).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from .circuits import entry_terms
from .tables import (
    COEFFICIENTS_FILE,
    COLUMNS,
    KINDS,
    canonical_keys,
    hash_line,
    key_label,
    output_scheme,
    slot_labels,
)

#: Every field of a block, in file order.
FIELDS = ("keys", "slots", "exponents") + COLUMNS


def coefficient_block(kind: str) -> dict:
    """The frozen-file block of one table, computed by the oracle."""
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


def render(blocks: dict) -> str:
    """The data file's text: its hash line, then one block field per line."""
    texts = []
    for kind, block in sorted(blocks.items()):
        fields = ",\n".join(
            f"   {json.dumps(field)}: {json.dumps(block[field])}" for field in FIELDS
        )
        texts.append(f"  {json.dumps(kind)}: {{\n{fields}\n  }}")
    body = ' "tables": {\n' + ",\n".join(texts) + "\n }\n}\n"
    return hash_line(body.encode()).decode() + "\n" + body


def main() -> int:
    blocks = {}
    for kind in KINDS:
        print(f"computing {kind} ...", file=sys.stderr, flush=True)
        blocks[kind] = coefficient_block(kind)
    path = Path(__file__).with_name(COEFFICIENTS_FILE)
    path.write_text(render(blocks))
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
