"""Tables evaluated from the frozen polynomials against the Fock oracle.

Every table value is a polynomial in eta whose coefficients are stored
exactly, as integers k over a power of two 2**bits, in one file per
table kind, ``coefficients/<kind>.json``.  These tests compare the
evaluated tables with oracle builds, pin each file to its hash and to a
fresh regeneration, check that freeze refuses a coefficient that is no
k / 2**bits, that a build reads only its own kind's file, and that the
files ship with the package.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from functools import lru_cache
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ensemble_repeater import freeze, tables
from ensemble_repeater.circuits import oracle_table
from ensemble_repeater.patterns import SchemeKind, logical_column, scheme_patterns
from ensemble_repeater.tables import (
    COLUMNS,
    KINDS,
    canonical_keys,
    coefficients_file,
    frozen_block,
    kind_table,
)

ROOT = Path(__file__).resolve().parents[1]
CHEAP = ("enc_dlcz", "pme", "enc_level1", "enc_higher")
# The smallest normal double.  Below it values are subnormal and lose
# relative precision: at eta = 1e-160 the two-cell tables hold values
# near 5e-321 on which the oracle and the polynomials differ by about 1 %.
SUBNORMAL = sys.float_info.min


def _mismatches(kind, eta, floor=0.0):
    """(key, slot, frozen, oracle) wherever the frozen table differs from
    the oracle by more than 1e-12 relative, or is nonzero where the
    oracle's value is exactly zero; values below ``floor`` are exempt."""
    frozen, oracle = kind_table(kind, eta), oracle_table(kind, eta)
    bad = []
    for key, entry in oracle.entries.items():
        want = entry.row
        got = frozen.entries[key].row
        for slot, (g, w) in enumerate(zip(got.tolist(), want.tolist())):
            if max(abs(g), abs(w)) <= floor:
                continue
            if abs(g - w) > 1e-12 * abs(w) or (w == 0.0) != (g == 0.0):
                bad.append((key, slot, g, w))
    return bad


@settings(max_examples=25, deadline=None)
@given(eta=st.floats(min_value=0.0, max_value=1.0))
@example(eta=1 - 1e-7)
def test_single_rail_tables_equal_the_oracle_at_every_eta(eta):
    for kind in ("enc_dlcz", "pme"):
        assert _mismatches(kind, eta, SUBNORMAL) == [], (kind, eta)


def test_bit_purification_equals_the_oracle_near_eta_zero():
    """Values of order 1e-28 and less, which an absolute amplitude prune
    would lose, match the polynomials too."""
    assert _mismatches("enp_bit", 1e-7, SUBNORMAL) == []


@pytest.mark.parametrize("eta", [0.0, 1.0])
@pytest.mark.parametrize("kind", CHEAP)
def test_cheap_tables_equal_the_oracle_at_the_endpoints(kind, eta):
    assert _mismatches(kind, eta) == []


@pytest.mark.parametrize("kind", ["enc_dlcz", "pme"])
def test_an_entry_is_one_read_only_row(kind):
    """Frozen and oracle entries alike: ``masses``, ``bell`` and ``total``
    are read from ``row``, and the tensor stacks the rows, the logical
    slot aside."""
    for table in (kind_table(kind, 0.9), oracle_table(kind, 0.9)):
        scheme = table.output_scheme
        others = np.arange(len(scheme_patterns(scheme)) + 4) != logical_column(scheme)
        keys = canonical_keys(table.scheme)
        for a, alpha in enumerate(keys):
            for b, beta in enumerate(keys):
                entry = table.entry(alpha, beta)
                row = entry.row
                assert entry.scheme is scheme
                with pytest.raises(ValueError, match="read-only"):
                    row[0] = 1.0
                slots = row[:-4].tolist()
                nonzero = [(p, w) for p, w in zip(scheme_patterns(scheme), slots) if w]
                assert entry.masses == tuple(nonzero)
                assert entry.bell == tuple(row[-4:])
                assert entry.total == sum(slots)
                assert np.array_equal(table.tensor[:, a, b][others], row[others])


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_the_step_matrix_lays_the_tensor_out_as_b_by_o_a(kind):
    """Row ``b`` of ``matrix``, read as ``(o, a)``, is ``T[:, :, b]``; the
    matrix is read-only, built once, and not built with the table."""
    built = tables._build(*KINDS[kind], 0.9)
    assert "tensor" not in vars(built) and "matrix" not in vars(built)
    table = kind_table(kind, 0.9)
    o, a, b = table.tensor.shape
    matrix = table.matrix
    assert matrix.shape == (b, o * a) and matrix.flags.c_contiguous
    assert np.array_equal(matrix.reshape(b, o, a), table.tensor.transpose(2, 0, 1))
    assert table.matrix is matrix
    with pytest.raises(ValueError, match="read-only"):
        matrix[0, 0] = 1.0


def test_frozen_entries_carry_no_residue():
    table = kind_table("enc_dlcz", 0.9)
    assert all(entry.residue is None for entry in table.entries.values())
    with pytest.raises(ValueError, match="carry no residue"):
        table.max_residue()
    assert oracle_table("enc_dlcz", 0.9).max_residue() > 0.1


def test_frozen_entries_reject_eta_outside_the_unit_interval():
    for eta in (-0.1, 1.5, float("nan")):
        with pytest.raises(ValueError, match=r"eta must lie in \[0, 1\]"):
            kind_table("pme", eta)


def _coefficient_bytes(kind):
    return resources.files("ensemble_repeater").joinpath(coefficients_file(kind)).read_bytes()


def test_data_file_hash_matches_its_bytes():
    """In each kind's file, the first line holds the SHA-256 of every
    byte after it, and the text is the rendering of its block."""
    for kind in KINDS:
        data = _coefficient_bytes(kind)
        head, body = data.split(b"\n", 1)
        assert head == b'{"sha256": "' + hashlib.sha256(body).hexdigest().encode() + b'",'
        block = json.loads(data)
        del block["sha256"]
        assert list(block) == list(freeze.FIELDS)
        assert freeze.render(block) == data.decode(), kind
        # exact integers, no float text
        assert type(block["bits"]) is int
        assert all(type(value) is int for field in COLUMNS for value in block[field])


def _edit_digit(text):
    """Change the last digit of the first coefficient's integer k."""
    end = text.index(",", text.index('"k": ['))
    digit = text[end - 1]
    return text[: end - 1] + ("1" if digit != "1" else "2") + text[end:]


def _edit_whitespace(text):
    return text.replace('"k": [', '"k":  [', 1)


# Builds every kind in a fresh interpreter and prints each outcome.
_BUILD_EVERY_KIND = """
from ensemble_repeater import tables
for kind in tables.KINDS:
    try:
        tables.kind_table(kind, 0.9)
        print(kind, "ok")
    except RuntimeError as exc:
        print(kind, exc)
"""


def _build_every_kind(tmp_path, edited=None, edit=None):
    """Outcome of each kind's first build in a copy of the package whose
    ``edited`` kind's file went through ``edit``."""
    root = tmp_path / (edited or "unedited")
    package = root / "ensemble_repeater"
    source = ROOT / "src" / "ensemble_repeater"
    shutil.copytree(source, package, ignore=shutil.ignore_patterns("__pycache__"))
    if edited is not None:
        path = package / coefficients_file(edited)
        text = path.read_text()
        assert edit(text) != text
        path.write_text(edit(text))
    proc = subprocess.run(
        [sys.executable, "-c", _BUILD_EVERY_KIND],
        env={**os.environ, "PYTHONPATH": str(root)},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return dict(line.split(" ", 1) for line in proc.stdout.splitlines())


@pytest.mark.parametrize("edit", [None, _edit_digit, _edit_whitespace])
def test_an_edited_data_file_is_rejected(tmp_path, edit):
    """A copy of the package with one kind's file edited fails that
    kind's first build, naming the file, and builds every other kind;
    the unedited copy builds all six."""
    if edit is None:
        assert _build_every_kind(tmp_path) == {kind: "ok" for kind in KINDS}
        return
    for edited in KINDS:
        outcomes = _build_every_kind(tmp_path, edited, edit)
        want = {kind: "ok" for kind in KINDS}
        want[edited] = f"{coefficients_file(edited)} does not match its sha256"
        assert outcomes == want


@pytest.mark.parametrize("kind", ["enc_dlcz", "pme", "enc_higher"])
def test_regenerating_a_block_reproduces_the_file(kind):
    """The blocks that regenerate in about a second: both with
    single-rail inputs, and a two-cell connection, which pins the two-cell
    canonical states and projection bit for bit.  The rendered text is
    the shipped file, byte for byte."""
    block = freeze.coefficient_block(kind)
    assert block == frozen_block(kind)
    assert freeze.render(block).encode() == _coefficient_bytes(kind)


def test_freezing_named_kinds_rewrites_only_their_files(tmp_path):
    """``python3 -m ensemble_repeater.freeze pme`` rewrites ``pme``'s file,
    the same bytes, and leaves the others alone; an unknown kind is
    rejected before anything is written."""
    package = tmp_path / "ensemble_repeater"
    shutil.copytree(
        ROOT / "src" / "ensemble_repeater", package, ignore=shutil.ignore_patterns("__pycache__")
    )
    files = {kind: package / coefficients_file(kind) for kind in KINDS}
    for path in files.values():
        os.utime(path, ns=(0, 0))

    def freeze_run(*kinds):
        return subprocess.run(
            [sys.executable, "-m", "ensemble_repeater.freeze", *kinds],
            env={**os.environ, "PYTHONPATH": str(tmp_path)},
            capture_output=True,
            text=True,
        )

    proc = freeze_run("pme", "enc_bogus")
    assert proc.returncode == 2 and "unknown table kind 'enc_bogus'" in proc.stderr
    assert all(path.stat().st_mtime_ns == 0 for path in files.values())
    proc = freeze_run("pme")
    assert proc.returncode == 0, proc.stderr
    rewritten = [kind for kind, path in files.items() if path.stat().st_mtime_ns != 0]
    assert rewritten == ["pme"]
    for kind, path in files.items():
        assert path.read_bytes() == _coefficient_bytes(kind), kind


def test_data_file_ships_with_the_package():
    """Each kind's file loads through importlib.resources, and the
    files are declared as package data, so an installed wheel carries
    them."""
    directory = resources.files("ensemble_repeater").joinpath(tables.COEFFICIENTS_DIR)
    assert sorted(path.name for path in directory.iterdir()) == sorted(
        f"{kind}.json" for kind in KINDS
    )
    for kind in KINDS:
        resource = resources.files("ensemble_repeater").joinpath(coefficients_file(kind))
        assert resource.is_file()
        block = json.loads(resource.read_text())
        del block["sha256"]
        assert block == frozen_block(kind), kind
    pyproject = (ROOT / "pyproject.toml").read_text()
    assert f'ensemble_repeater = ["{tables.COEFFICIENTS_DIR}/*.json"]' in pyproject


def test_importing_the_package_does_not_read_the_data_file():
    """Nor does it load the Fock oracle; only ``oracle-verify`` needs it.
    A table build reads its own kind's file and no other."""
    code = (
        "import sys, ensemble_repeater, ensemble_repeater.cli;"
        " from ensemble_repeater import tables;"
        " loaded = tables.frozen_block.cache_info;"
        " assert loaded().currsize == 0;"
        " tables.kind_table('pme', 0.9);"
        " assert loaded().currsize == 1 and loaded().hits == 0;"
        " tables.frozen_block('pme');"
        " assert loaded().currsize == 1 and loaded().hits == 1;"
        " oracle = ('fock', 'circuits', 'verify');"
        " loaded = [m for m in oracle if 'ensemble_repeater.' + m in sys.modules];"
        " assert loaded == [], loaded"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_evaluation_is_a_sum_over_exponent_terms():
    """One entry by hand: c * eta^kept (1 - eta)^lost summed over its
    coefficients c = k * 2^-bits."""
    block = frozen_block("enc_dlcz")
    eta = 0.77
    a, b = 1, 4  # P10[psi_plus] x P20
    want = np.zeros(len(block["slots"]))
    for ra, rb, slot, term, k in zip(*(block[f] for f in COLUMNS)):
        if (ra, rb) == (a, b):
            kept, lost = block["exponents"][term]
            want[slot] += k * 2 ** -block["bits"] * eta**kept * (1 - eta) ** lost
    keys = canonical_keys(SchemeKind.DLCZ)
    got = kind_table("enc_dlcz", eta).entry(keys[a], keys[b]).row
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)


@lru_cache(maxsize=None)
def _position_terms(kind):
    """Each ``(a, b, slot)`` position's ``(term, k * 2**-bits)`` pairs in
    file order, and the term exponents as float arrays."""
    block = frozen_block(kind)
    terms = {}
    for a, b, slot, term, k in zip(*(block[column] for column in COLUMNS)):
        terms.setdefault((a, b, slot), []).append((term, k * 2.0 ** -block["bits"]))
    kept, lost = np.array(block["exponents"], dtype=float).T
    return terms, kept, lost


@settings(max_examples=20, deadline=None)
@given(eta=st.floats(min_value=0.0, max_value=1.0))
@example(eta=0.0)
@example(eta=1.0)
def test_one_product_per_table_equals_the_per_entry_products(eta):
    """Every entry row, a view of its table's one evaluation, holds in
    each slot the sum of that position's own terms, added from zero in
    file order, bit for bit.  The basis is computed with numpy's power,
    as the tables compute it; Python's ``**`` on floats differs from it
    in the last bit for some terms."""
    for kind in KINDS:
        terms, kept, lost = _position_terms(kind)
        basis = eta**kept * (1.0 - eta) ** lost
        table = kind_table(kind, eta)
        keys = canonical_keys(table.scheme)
        want = np.zeros((len(keys), len(keys), len(table.entry(keys[0], keys[0]).row)))
        for (a, b, slot), items in terms.items():
            value = 0.0
            for term, c in items:
                value += c * basis[term]
            want[a, b, slot] = value
        for a, alpha in enumerate(keys):
            for b, beta in enumerate(keys):
                assert np.array_equal(table.entry(alpha, beta).row, want[a, b]), (kind, eta, a, b)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_every_table_is_exactly_symmetric_in_its_inputs(kind):
    """A coefficient and its input-swapped mirror are the same integer,
    summed in the same order, so ``T[o, a, b] == T[o, b, a]`` bit for
    bit, at the ends of the unit interval, next to them and inside."""
    for eta in (0.0, 1e-9, 0.3, 0.85, 0.9, 0.913, 0.97, 1.0 - 1e-9, 1.0):
        tensor = kind_table(kind, eta).tensor
        assert tensor.tobytes() == tensor.transpose(0, 2, 1).copy().tobytes(), eta


def test_rounding_refuses_a_coefficient_that_is_no_dyadic_rational():
    """Rounding takes the fewest bits that move no coefficient by more
    than 1e-12 relative, and names the kind and the worst coefficient
    when no bits up to ``MAX_BITS`` do."""
    rows = [(0, 0, 0, 0, 0.75), (0, 1, 2, 0, -0.125 * (1 + 3e-15)), (1, 0, 2, 0, -0.125)]
    assert freeze.dyadic("pme", rows) == (3, [6, -1, -1])
    for c in (0.1, 1e-34, 0.25 + 1e-9):
        with pytest.raises(ValueError) as info:
            freeze.dyadic("pme", [(0, 0, 0, 0, 0.25), (0, 1, 2, 0, c), (1, 0, 2, 0, 0.5)])
        assert str(info.value) == (
            f"pme: coefficient {c!r} at (a, b, slot, term) = (0, 1, 2, 0) is no"
            " k / 2**bits with bits <= 16 within 1e-12 relative"
        )


# Runs freeze on the named kinds with one coefficient of ``pme``'s first
# nonzero term replaced by ``value``, or ``value`` put beside it.
_FREEZE_WITH_A_BAD_COEFFICIENT = """
import sys
import numpy as np
from ensemble_repeater import freeze
from ensemble_repeater.circuits import entry_terms
from ensemble_repeater.tables import TableEntry

value, beside = float(sys.argv[1]), sys.argv[2] == "beside"
edited = []

def terms(kind, alpha, beta):
    parts = entry_terms(kind, alpha, beta)
    if kind == "pme" and not edited:
        for exponents, part in parts.items():
            row = part.row.copy()
            nonzero = np.flatnonzero(row)
            if nonzero.size:
                row[np.flatnonzero(row == 0.0)[0] if beside else nonzero[0]] = value
                parts[exponents] = TableEntry(part.scheme, row)
                edited.append(exponents)
                break
    return parts

freeze.entry_terms = terms
sys.argv = ["freeze", *sys.argv[3:]]
sys.exit(freeze.main())
"""


@pytest.mark.parametrize("value, where", [("0.1", "in place"), ("1e-34", "beside")])
def test_freeze_refuses_a_coefficient_that_is_no_k_over_2_to_the_bits(tmp_path, value, where):
    """Freeze computes every named kind, prints one line that names the
    refused kind and its worst coefficient, exits 1 and writes no file,
    not even the kinds it could round."""
    package = tmp_path / "ensemble_repeater"
    shutil.copytree(
        ROOT / "src" / "ensemble_repeater", package, ignore=shutil.ignore_patterns("__pycache__")
    )
    files = {kind: package / coefficients_file(kind) for kind in KINDS}
    for path in files.values():
        os.utime(path, ns=(0, 0))
    proc = subprocess.run(
        [sys.executable, "-c", _FREEZE_WITH_A_BAD_COEFFICIENT, value, where, "pme", "enc_dlcz"],
        env={**os.environ, "PYTHONPATH": str(tmp_path)},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1, proc.stderr
    computing_pme, refusal, computing_enc_dlcz = proc.stderr.splitlines()
    assert (computing_pme, computing_enc_dlcz) == ("computing pme ...", "computing enc_dlcz ...")
    assert refusal.startswith(f"refused pme: coefficient {value} at (a, b, slot, term) = (")
    assert refusal.endswith(
        ") is no k / 2**bits with bits <= 16 within 1e-12 relative; no file written"
    )
    assert all(path.stat().st_mtime_ns == 0 for path in files.values())
    assert all(path.read_bytes() == _coefficient_bytes(kind) for kind, path in files.items())
