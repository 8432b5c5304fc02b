"""Tables evaluated from the frozen polynomials against the Fock oracle.

Every table value is a polynomial in eta whose coefficients are stored
exactly, as integers k over a power of two 2**bits, in one file per
table kind, ``coefficients/<kind>.bin``: a hash line, a JSON header and
the integer columns as one block of 32-bit integers.  These tests
compare the evaluated tables with oracle builds, pin every table's bits
and the oracle's at eta = 0.9, pin each file to its hash and to a fresh
regeneration, check that freeze refuses a coefficient that is no
k / 2**bits or whose integer does not fit the stored width, that a
build reads only its own kind's file, that the files ship with the
package, that their integers carry the exact certificates of
``verify.check_frozen_certificates``, and that the per-eta caches stay
within their bound.
"""

import hashlib
import itertools
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ensemble_repeater import freeze, tables, verify
from ensemble_repeater.circuits import oracle_table
from ensemble_repeater.patterns import (
    BellState,
    ExcitationPattern,
    PatternState,
    SchemeKind,
    logical_column,
    row_totals,
    scheme_patterns,
)
from ensemble_repeater.tables import (
    COLUMNS,
    HEADER,
    ITEM,
    KINDS,
    canonical_keys,
    coefficients_file,
    frozen_block,
    kind_table,
    selected_columns,
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
                assert entry.total == _left_to_right_total(row)
                assert np.array_equal(table.tensor[:, a, b][others], row[others])


def _left_to_right_total(row):
    """The row's pattern masses added one at a time, left to right."""
    total = 0.0
    for mass in row.tolist()[:-4]:
        total += mass
    return total


def test_an_entry_total_adds_its_masses_left_to_right():
    """For every entry of all six tables, and for the states and
    ``row_totals`` of random rows, the total is the masses added left to
    right, bit for bit.  1 + 2**-53 rounds to 1 twice over; a compensated
    sum, which ``sum`` is from Python 3.12 on, gives 1 + 2**-52
    instead.  A single-rail row holds no Phi+ or Phi- mass: a state
    refuses such a row."""
    for kind in KINDS:
        for entry in kind_table(kind, 0.9).entries.values():
            assert entry.total == _left_to_right_total(entry.row), kind
    rng = np.random.default_rng(53)
    for scheme in SchemeKind:
        rows = rng.random((200, len(scheme_patterns(scheme)) + 4))
        if scheme is SchemeKind.DLCZ:
            with pytest.raises(ValueError, match="^single-rail pairs carry only odd-parity"):
                PatternState._from_row(scheme, rows[0].copy())
            rows[:, -4:-2] = 0.0
        rows[:, logical_column(scheme)] = rows[:, -4:].sum(axis=1)
        totals = row_totals(scheme, rows)
        for row, total in zip(rows, totals.tolist()):
            want = _left_to_right_total(row)
            assert total == want
            assert PatternState._from_row(scheme, row).total == want
    row = np.zeros(len(scheme_patterns(SchemeKind.NEW)) + 4)
    row[:3] = 1.0, 2.0**-53, 2.0**-53
    assert tables.TableEntry(SchemeKind.NEW, row).total == 1.0


# SHA-256 of every table's values, ``_frozen_values(kind, eta).tobytes()``,
# as the tables evaluated them when the coefficient files were JSON text.
TABLE_DIGESTS = {
    ("enc_dlcz", 0.5): "72e7da283f12a6236e7c0d8b801ffdc86fd00b54a7a0384b8244e20b9c1efd34",
    ("enc_dlcz", 0.9): "d198f26a3caf17cb4b27b932563b29fbc393265c8301cf4f38725c2b4f24014d",
    ("enc_dlcz", 0.97): "469d3dfef0e312b1a4b751c17dbf97506647ab8d4cd980accd4c75c7cb9472a6",
    ("pme", 0.5): "bafff05355f241dda36976c990575f304a297060b7818c73cedea81a507e4f28",
    ("pme", 0.9): "bb26aaec4515ca0c7f7e0f0da95a95645fd80ad42c8d17de326e931b239bb5a4",
    ("pme", 0.97): "a85a207f19373513ce763ae13576816294d21d3cf782c2859f9931bae62259ad",
    ("enc_level1", 0.5): "ff4897e40016e7f614d8c9c448e08971a76dbff9b6152132051f15208395d0f1",
    ("enc_level1", 0.9): "939509ae01fdef07128800177db21c8559466b5ada94b97464539010b442f275",
    ("enc_level1", 0.97): "f241c7bccf54e680b206484d66d0102d1cbc528da2bba90bfb2e804b7a672baa",
    ("enc_higher", 0.5): "9df6644c628e435df519f4ac442d95963dda920f6e59c78e65c261eeea2cdb5f",
    ("enc_higher", 0.9): "55beec431c6fceeceeb126d4b551d3015f34bff2f1222e9c7ce19f3119074a96",
    ("enc_higher", 0.97): "9e22d1565aa87e4ac25a9b0bc9db0102d4379d83327f22c4d27f1c8501248873",
    ("enp_bit", 0.5): "33ca68b307ac5a1d82453fb68557b34d10afb532e23c7eea9cbe3b1caa869cf6",
    ("enp_bit", 0.9): "cb66bc392a4cac0f662c994031fd4ade16679f6bf9df6f7bb8641f8373e20344",
    ("enp_bit", 0.97): "36ff538213b2749b4d33183b4ba514c4e6e3ca1e825fb8efc4f88adc1d9432a5",
    ("enp_phase", 0.5): "95f2a5580be5d31c392ca07244f7f11dfbabe97f201f21c2a6e9ba21c8d4b6b7",
    ("enp_phase", 0.9): "5ace5643c57bac2a15a083e610366a03a24580a200c1659f5d4b33389623efc9",
    ("enp_phase", 0.97): "a6de43745ce85570dc21978f3467efbcb08a874dbf27169cf7a444534466a0c5",
}


@pytest.mark.parametrize("kind, eta", list(TABLE_DIGESTS))
def test_every_table_value_is_pinned_to_the_bit(kind, eta):
    """A table bit that moves changes its table's digest; the oracle
    comparisons, at 1e-12 relative, would let it pass."""
    values = tables._frozen_values(kind, eta)
    assert hashlib.sha256(values.tobytes()).hexdigest() == TABLE_DIGESTS[kind, eta]


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_the_step_matrix_lays_the_tensor_out_as_b_by_o_a(kind):
    """Row ``b`` of ``matrix``, read as ``(o, a)``, is ``T[:, :, b]``; the
    matrix is read-only, built once, and not built with the table."""
    built = tables._build(kind, 0.9)
    assert "tensor" not in vars(built) and "matrix" not in vars(built)
    table = kind_table(kind, 0.9)
    o, a, b = table.tensor.shape
    matrix = table.matrix
    assert matrix.shape == (b, o * a) and matrix.flags.c_contiguous
    assert np.array_equal(matrix.reshape(b, o, a), table.tensor.transpose(2, 0, 1))
    assert table.matrix is matrix
    with pytest.raises(ValueError, match="read-only"):
        matrix[0, 0] = 1.0


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_a_table_is_its_kind(kind):
    """Frozen and oracle tables alike name their kind, and their input
    and output schemes are the kind's pair in ``KINDS``; so is the
    scheme of every entry the oracle builds."""
    for table in (kind_table(kind, 0.9), oracle_table(kind, 0.9)):
        assert table.kind == kind
        assert (table.scheme, table.output_scheme) == KINDS[kind]
    output = KINDS[kind][1]
    assert all(entry.scheme is output for entry in oracle_table(kind, 0.9).entries.values())


# SHA-256 of every oracle table at eta = 0.9: each entry's row followed
# by its residue, in entry order.  The residue takes no BLAS product, so
# the digests hold on every BLAS kernel.
ORACLE_DIGESTS = {
    "enc_dlcz": "8b96516801a9f720cfc3e8c9f78fd123cfd2329bb70639af8697e79cdc2674db",
    "pme": "4c064fb7916f67c6317696e681dc1a2b8d2a50c60fb30812ac2dcdce112b046e",
    "enc_level1": "8ed24b10a7909ab7bece09938092bd3c1453dacca69a23d6f2ea56aa4f1b5375",
    "enc_higher": "245e4a163094afcd354b565cd4505e616d9f2102a8cb582919bfb39a71cd9251",
    "enp_bit": "7e6f8cb915057f543f7c1d1bbc002e591a23115ca1398cc18995402149418c87",
    "enp_phase": "9406f7e1a8e17c8a9ddaccc9e4a1813773e2154214395a0ad2700dc4ee5450ef",
}


@pytest.mark.parametrize("kind", list(ORACLE_DIGESTS))
def test_every_oracle_value_is_pinned_to_the_bit(kind):
    """An oracle bit that moves, a residue's included, changes its
    table's digest; the comparison with the frozen tables, at 1e-12
    relative, would let it pass.  No value is negative, so the oracle
    table passes the step matrix's check as the frozen one does."""
    entries = oracle_table(kind, 0.9).entries.values()
    values = np.concatenate([np.append(entry.row, entry.residue) for entry in entries])
    assert hashlib.sha256(values.tobytes()).hexdigest() == ORACLE_DIGESTS[kind]
    assert min(entry.row.min() for entry in entries) >= 0.0


def test_frozen_entries_carry_no_residue():
    table = kind_table("enc_dlcz", 0.9)
    assert all(entry.residue is None for entry in table.entries.values())
    with pytest.raises(ValueError, match="carry no residue"):
        table.max_residue()
    assert oracle_table("enc_dlcz", 0.9).max_residue() > 0.1


def test_frozen_entries_reject_eta_outside_the_unit_interval():
    alpha = canonical_keys(SchemeKind.DLCZ)[0]
    beta = canonical_keys(SchemeKind.NEW)[0]
    for eta in (-0.1, 1.5, float("nan")):
        for build in (
            lambda: kind_table("pme", eta),
            lambda: tables.pme_entry(alpha, alpha, eta),
            lambda: tables.enc_entry(SchemeKind.DLCZ, alpha, alpha, eta),
            lambda: tables.enc_entry(SchemeKind.NEW, beta, beta, eta, first_level=True),
            lambda: tables.enp_entry(beta, beta, eta, phase_variant=True),
        ):
            with pytest.raises(ValueError, match=r"eta must lie in \[0, 1\]"):
                build()


@pytest.mark.parametrize("eta", [0.9, 0.5])
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_a_build_holds_one_entry_per_key_pair_in_key_order(kind, eta):
    """Entries run left key major over ``canonical_keys``; each entry's
    row is, bit for bit, its read-only slice of ``_frozen_values``, in
    the kind's output scheme, with no residue."""
    table = kind_table(kind, eta)
    keys = canonical_keys(table.scheme)
    assert list(table.entries) == [(a, b) for a in keys for b in keys]
    values = tables._frozen_values(kind, eta)
    for (i, alpha), (j, beta) in itertools.product(enumerate(keys), repeat=2):
        entry = table.entries[(alpha, beta)]
        assert entry.row.tobytes() == values[i, j].tobytes()
        assert not entry.row.flags.writeable
        assert entry.scheme is KINDS[kind][1]
        assert entry.residue is None


def _coefficient_bytes(kind):
    return resources.files("ensemble_repeater").joinpath(coefficients_file(kind)).read_bytes()


def test_data_file_hash_matches_its_bytes():
    """In each kind's file, the first line holds the SHA-256 of every
    byte after it, the second a JSON header, and the rest the integer
    columns, each ``items`` little-endian 32-bit integers; the bytes are
    the rendering of the loaded block."""
    for kind in KINDS:
        data = _coefficient_bytes(kind)
        head, body = data.split(b"\n", 1)
        assert head == b"sha256 " + hashlib.sha256(body).hexdigest().encode()
        header, columns = body.split(b"\n", 1)
        header = json.loads(header)
        assert list(header) == list(HEADER)
        block = frozen_block(kind)
        assert list(block) == list(HEADER + COLUMNS)
        assert freeze.render(block) == data, kind
        # exact integers, no float text
        assert type(header["bits"]) is int and type(header["items"]) is int
        assert len(columns) == len(COLUMNS) * header["items"] * 4
        stored = np.frombuffer(columns, "<i4").reshape(len(COLUMNS), header["items"])
        for column, items in zip(COLUMNS, stored):
            assert block[column].dtype == np.dtype("<i4")
            assert np.array_equal(block[column], items), (kind, column)
            with pytest.raises(ValueError, match="read-only"):
                block[column][0] = 1


def _edit_digit(data):
    """Change the last digit of the first coefficient's integer k: add
    one to it."""
    head, header, columns = data.split(b"\n", 2)
    items = json.loads(header)["items"]
    stored = np.frombuffer(columns, "<i4").reshape(len(COLUMNS), items).copy()
    stored[-1, 0] += 1
    return b"\n".join([head, header, stored.tobytes()])


def _edit_whitespace(data):
    return data.replace(b'"keys": [', b'"keys":  [', 1)


def _drop_the_last_item_rehashed(data):
    """Drop the last integer of the ``k`` column and record the new hash."""
    body = data.split(b"\n", 1)[1][: -ITEM.itemsize]
    return tables.hash_line(body) + b"\n" + body


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
        data = path.read_bytes()
        assert edit(data) != data
        path.write_bytes(edit(data))
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


def test_a_data_file_of_the_wrong_length_is_rejected(tmp_path):
    """Columns one integer short under a hash that matches them fail the
    kind's first build before any column is read."""
    outcomes = _build_every_kind(tmp_path, "pme", _drop_the_last_item_rehashed)
    want = {kind: "ok" for kind in KINDS}
    want["pme"] = (
        f"{coefficients_file('pme')}: the layout differs from the code;"
        " regenerate it with python3 -m ensemble_repeater.freeze"
    )
    assert outcomes == want


@pytest.mark.parametrize("kind", ["enc_dlcz", "pme", "enc_higher"])
def test_regenerating_a_block_reproduces_the_file(kind):
    """The blocks that regenerate in about a second: both with
    single-rail inputs, and a two-cell connection, which pins the two-cell
    canonical states and projection bit for bit.  The block holds the
    loaded header and integers, and its rendering is the shipped file,
    byte for byte."""
    block = freeze.coefficient_block(kind)
    loaded = frozen_block(kind)
    assert list(block) == list(loaded) == list(HEADER + COLUMNS)
    assert all(block[field] == loaded[field] for field in HEADER)
    assert all(block[column] == loaded[column].tolist() for column in COLUMNS)
    assert freeze.render(block) == _coefficient_bytes(kind)


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
        f"{kind}.bin" for kind in KINDS
    )
    for kind in KINDS:
        resource = resources.files("ensemble_repeater").joinpath(coefficients_file(kind))
        assert resource.is_file()
        header = json.loads(resource.read_bytes().split(b"\n", 2)[1])
        block = frozen_block(kind)
        assert header == {field: block[field] for field in HEADER}, kind
    pyproject = (ROOT / "pyproject.toml").read_text()
    assert f'ensemble_repeater = ["{tables.COEFFICIENTS_DIR}/*.bin"]' in pyproject


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


def test_a_build_reads_its_file_without_importlib_resources():
    """The files are read next to ``tables.py``, where freeze writes
    them; with no site start-up to import it first, building every kind
    leaves ``importlib.resources`` unloaded."""
    code = (
        "import sys; from ensemble_repeater import tables;"
        " [tables.kind_table(kind, 0.9) for kind in tables.KINDS];"
        " assert 'importlib.resources' not in sys.modules"
    )
    path = os.pathsep.join([str(ROOT / "src"), str(Path(np.__file__).parents[1])])
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_the_frozen_coefficients_carry_their_exact_certificates():
    """Three checks per kind from the coefficient files' integers alone,
    with tolerance 0: every k is 0 or more, no nonzero entry's success
    exceeds 1 at any eta, and the Bell slots sum to the logical slot
    term by term; and a fourth for the single-rail output of enc_dlcz:
    no k sits in a Phi+ or Phi- slot."""
    results = verify.check_frozen_certificates()
    checks = {kind: 4 if out is SchemeKind.DLCZ else 3 for kind, (_, out) in KINDS.items()}
    assert checks["enc_dlcz"] == 4 and sum(checks.values()) == 19
    assert [r.name.split()[1] for r in results] == [
        kind for kind in KINDS for _ in range(checks[kind])
    ]
    assert all(r.deviation == 0.0 and r.tolerance == 0.0 and r.ok for r in results)


@pytest.mark.parametrize(
    "mutation, failing", [("negate", 0), ("excess", 1), ("split", 2), ("even", 3)]
)
def test_each_certificate_fails_on_a_block_that_breaks_it(monkeypatch, mutation, failing):
    """Negating one pattern coefficient, raising it past 2**bits, adding
    1 to one Bell coefficient, or moving one Bell coefficient to the Phi-
    slot fails that certificate alone."""
    block = dict(frozen_block("enc_dlcz"))
    k, slot = block["k"].copy(), block["slot"]
    pattern = int(np.flatnonzero(slot == 0)[0])
    if mutation == "negate":
        k[pattern] = -k[pattern]
    elif mutation == "excess":
        k[pattern] += 1 << (block["bits"] + 8)
    elif mutation == "split":
        k[int(np.flatnonzero(slot >= len(block["slots"]) - 4)[0])] += 1
    else:
        slot = slot.copy()
        slot[int(np.flatnonzero(slot >= len(block["slots"]) - 4)[0])] = len(block["slots"]) - 3
        block["slot"] = slot
    block["k"] = k
    monkeypatch.setattr(
        verify, "frozen_block", lambda kind: block if kind == "enc_dlcz" else frozen_block(kind)
    )
    results = verify.check_frozen_certificates()
    assert [i for i, r in enumerate(results) if not r.ok] == [failing]


def test_the_per_eta_caches_keep_at_most_their_bound():
    """A scan over eta keeps at most ``ETA_CACHE_SIZE`` keys in each
    per-eta cache, and a table rebuilt after its eviction equals the
    first build by its bytes.  It runs in its own process, so that the
    suite's cached tables stay."""
    code = """if True:
        from ensemble_repeater import tables
        from ensemble_repeater.patterns import SchemeKind
        bound = tables.ETA_CACHE_SIZE
        builds = (
            lambda eta: tables.enc_table(SchemeKind.DLCZ, eta),
            lambda eta: tables.enp_table("bit", eta),
            tables.pme_table,
        )
        first = [build(0.5).tensor.tobytes() for build in builds]
        for i in range(1, bound + 1):
            for build in builds:
                build(0.5 + i / 4096)
        caches = (tables._frozen_rows, tables._enc_table, tables.enp_table, tables.pme_table)
        for cache in caches:
            info = cache.cache_info()
            assert info.maxsize == info.currsize == bound, (cache, info)
        assert not hasattr(tables._frozen_values, "cache_info")
        misses = tables.pme_table.cache_info().misses
        assert [build(0.5).tensor.tobytes() for build in builds] == first
        assert tables.pme_table.cache_info().misses == misses + 1
    """
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


def _exact_values(kind, eta):
    """``{(a, b, slot): value}`` of one table at a rational eta, each value
    the sum of its stored terms ``k / 2**bits * eta**kept * (1 - eta)**lost``
    in ``Fraction`` arithmetic."""
    block = frozen_block(kind)
    basis = [eta**kept * (1 - eta) ** lost for kept, lost in block["exponents"]]
    unit = Fraction(1, 2 ** block["bits"])
    values = {}
    for a, b, slot, term, k in zip(*(block[column].tolist() for column in COLUMNS)):
        values[a, b, slot] = values.get((a, b, slot), 0) + k * unit * basis[term]
    return values


def _exact_step(values, row):
    """One normalized step on a two-cell row and its success probability:
    the tensor's contraction of the row's component masses with itself,
    whose logical slot holds the sum of the Bell masses."""
    masses = [row[column] for column in selected_columns(SchemeKind.NEW).tolist()]
    out = [Fraction(0)] * len(row)
    for (a, b, slot), value in values.items():
        out[slot] += value * masses[a] * masses[b]
    out[logical_column(SchemeKind.NEW)] = sum(out[-4:])
    success = sum(out[:-4])
    return [mass / success for mass in out], success


@pytest.mark.parametrize("eta", [Fraction(1, 2), Fraction(9, 10), Fraction(19, 20)])
def test_the_stable_connection_laws_hold_exactly(eta):
    """At p_c -> 0 the two-cell elementary pair is P11 (Psi+) and P20_perp
    at 1/2 each.  Through six connection levels, evaluated exactly from
    the stored integers, the vacuum-to-logical ratio (P00 + P10) / P11 is
    (1 - eta)(3 - eta) from level 1 on, and the success probability is
    eta^2 / (2 (2 - eta)^2) from level 2 on, as identities (ROADMAP
    item 14)."""
    patterns = scheme_patterns(SchemeKind.NEW)
    column = {pattern: i for i, pattern in enumerate(patterns)}
    P = ExcitationPattern
    row = [Fraction(0)] * (len(patterns) + 4)
    row[column[P.P11]] = row[column[P.P20_PERP]] = Fraction(1, 2)
    row[len(patterns) + BellState.PSI_PLUS.index] = Fraction(1, 2)
    first, higher = _exact_values("enc_level1", eta), _exact_values("enc_higher", eta)
    for level in range(1, 7):
        row, success = _exact_step(first if level == 1 else higher, row)
        ratio = (row[column[P.P00]] + row[column[P.P10]]) / row[column[P.P11]]
        assert ratio == (1 - eta) * (3 - eta), level
        if level >= 2:
            assert success == eta**2 / (2 * (2 - eta) ** 2), level


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


def _refusal(tmp_path, value, where):
    """Freeze's refusal line when run on ``pme`` and ``enc_dlcz`` with a
    bad ``pme`` coefficient, after checking that it computed both kinds,
    exited 1 and wrote no file, not even the kind it could store."""
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
    assert all(path.stat().st_mtime_ns == 0 for path in files.values())
    assert all(path.read_bytes() == _coefficient_bytes(kind) for kind, path in files.items())
    return refusal


@pytest.mark.parametrize("value, where", [("0.1", "in place"), ("1e-34", "beside")])
def test_freeze_refuses_a_coefficient_that_is_no_k_over_2_to_the_bits(tmp_path, value, where):
    """Freeze computes every named kind, prints one line that names the
    refused kind and its worst coefficient, exits 1 and writes no file,
    not even the kinds it could round."""
    refusal = _refusal(tmp_path, value, where)
    assert refusal.startswith(f"refused pme: coefficient {value} at (a, b, slot, term) = (")
    assert refusal.endswith(
        ") is no k / 2**bits with bits <= 16 within 1e-12 relative; no file written"
    )


def test_freeze_refuses_an_integer_that_does_not_fit_the_stored_width(tmp_path):
    """A coefficient of 2**40 is a dyadic rational, but its integer k
    needs more than 32 bits: freeze names the kind, the column and the
    integer, exits 1 and writes no file."""
    refusal = _refusal(tmp_path, str(2.0**40), "in place")
    prefix, suffix = "refused pme: k = ", "; no file written"
    assert refusal.startswith(prefix) and refusal.endswith(suffix)
    k, rest = refusal[len(prefix) : -len(suffix)].split(" ", 1)
    assert int(k) >= 2**40
    assert rest.startswith("at (a, b, slot, term) = (")
    assert rest.endswith(") does not fit the stored width, 32-bit integers")
