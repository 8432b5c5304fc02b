"""CLI outputs against golden files recorded from an earlier commit.

Each case runs one command through ``main`` and compares every JSON file
it writes, except the run-specific ``manifest.json``, and its
``<command>.csv`` with ``tests/golden/cli/<case>/``: keys, strings and
CSV headers exactly, numbers within 1e-12 relative with a 1e-15 absolute
floor.  A change that keeps every output bit for bit passes trivially;
one that changes arithmetic must stay inside that bound.  ``curve``'s
per-variant CSVs repeat ``curve.csv``'s rows and are not recorded.

Two outputs hold no computed number and are compared byte for byte: the
manifest's ``settings`` block, recorded per case as
``manifest-settings.json``, and ``config-reference.ini``, which every
run writes alike and which is recorded once, next to the case folders.

Re-record the goldens, only when an output is meant to change, with::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import csv
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from ensemble_repeater.cli import CONFIG_REFERENCE_NAME, EXIT_OK, MANIFEST_NAME, main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden" / "cli"

#: The file a case's manifest ``settings`` block is recorded in.
SETTINGS_NAME = "manifest-settings.json"

RTOL = 1e-12
ATOL = 1e-15

#: INI bodies of the non-default runs.
_MC = "[chain]\nwaiting = mc\n"
_NOISY = "[noise]\nD = 1e-4\np_misalign = 0.02\n"
#: Single-rail chains reject misalignment, so their noisy sweeps dephase only.
_DEPHASED = "[noise]\nD = 1e-4\n"
#: Every configuration key away from its default, so that the manifest's
#: ``settings`` block shows each key's value form.
_EVERY_KEY = """\
[chain]
scheme = dlcz
L = 640
L0 = 80
p_c = 0.01
L_att = 22
c_fiber = 2.1e5
enp_schedule = bit-after-1, phase-after-2
waiting = mc
n_samples = 64
[noise]
eta = 0.9
D = 1e-4
p_misalign = 0.01
p_dark = 1e-3
eta_s = 0.8
[sweep]
F_target = 0.8
L_list = 160, 320
eta_list = 0.85
"""

#: Case name -> (configuration body or None, command line).
CASES = {
    **{
        f"{command}-{scheme}": (None, ("--scheme", scheme, command))
        for command in ("simulate", "optimize", "table", "curve", "scaling")
        for scheme in ("dlcz", "new")
    },
    **{
        f"simulate-mc-{scheme}": (_MC, ("--scheme", scheme, "simulate"))
        for scheme in ("dlcz", "new")
    },
    "simulate-noisy-new": (_NOISY, ("--scheme", "new", "simulate")),
    "simulate-every-key-new": (_EVERY_KEY, ("--scheme", "new", "simulate")),
    # sweeps at D > 0, where every station spacing has its own elementary pair
    "optimize-noisy-new": (
        _NOISY + "[sweep]\nF_target = 0.78\n", ("--scheme", "new", "optimize")
    ),
    "curve-noisy-new": (_NOISY, ("--scheme", "new", "curve")),
    "optimize-phase-dlcz": (_DEPHASED, ("--scheme", "dlcz", "optimize")),
    "curve-phase-dlcz": (_DEPHASED, ("--scheme", "dlcz", "curve")),
}


def run_case(case: str, work: Path, *options: str) -> dict:
    """Run one case in ``work``, with ``options`` before its command line;
    the text of its compared outputs by file name, its manifest's
    ``settings`` block as ``SETTINGS_NAME`` included."""
    body, argv = CASES[case]
    config = ()
    if body is not None:
        path = work / "run.ini"
        path.write_text(body)
        config = ("--config", str(path))
    out = work / "out"
    assert main([*config, "--out", str(out), *options, *argv]) == EXIT_OK
    csv_path = out / f"{argv[-1]}.csv"
    settings = json.loads((out / MANIFEST_NAME).read_text())["settings"]
    return {
        **{
            path.name: path.read_text()
            for path in sorted(out.glob("*.json"))
            if path.name != MANIFEST_NAME
        },
        csv_path.name: csv_path.read_text(),
        SETTINGS_NAME: json.dumps(settings, indent=2, sort_keys=True) + "\n",
        CONFIG_REFERENCE_NAME: (out / CONFIG_REFERENCE_NAME).read_text(),
    }


def parse(name: str, text: str):
    """A JSON file's value, or a CSV file's header and its rows of cells,
    each cell an int, a float or, failing both, its string."""
    if name.endswith(".json"):
        return json.loads(text)
    lines = csv.reader(io.StringIO(text, newline=""), skipinitialspace=True)
    return [[_cell(cell) for cell in line] for line in lines]


def _cell(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def mismatches(golden, value, where: str = "") -> list:
    """Where ``value`` differs from ``golden`` beyond the bound."""
    if isinstance(golden, dict) and isinstance(value, dict):
        if golden.keys() != value.keys():
            return [f"{where}: keys {sorted(golden)} != {sorted(value)}"]
        return [d for k in golden for d in mismatches(golden[k], value[k], f"{where}.{k}")]
    if isinstance(golden, list) and isinstance(value, list):
        if len(golden) != len(value):
            return [f"{where}: length {len(golden)} != {len(value)}"]
        return [
            d for i, (g, v) in enumerate(zip(golden, value))
            for d in mismatches(g, v, f"{where}[{i}]")
        ]
    numbers = (int, float)
    if (
        isinstance(golden, numbers) and isinstance(value, numbers)
        and not isinstance(golden, bool) and not isinstance(value, bool)
        and (isinstance(golden, float) or isinstance(value, float))
    ):
        if abs(golden - value) <= max(RTOL * max(abs(golden), abs(value)), ATOL):
            return []
    elif golden == value and type(golden) is type(value):
        return []
    return [f"{where}: {golden!r} != {value!r}"]


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_its_golden(tmp_path, case):
    files = run_case(case, tmp_path)
    reference = (GOLDEN_DIR / CONFIG_REFERENCE_NAME).read_text()
    assert files.pop(CONFIG_REFERENCE_NAME) == reference
    golden_dir = GOLDEN_DIR / case
    golden = {path.name: path.read_text() for path in sorted(golden_dir.iterdir())}
    assert golden, f"no golden files under {golden_dir}"
    assert sorted(files) == sorted(golden)
    assert files.pop(SETTINGS_NAME) == golden.pop(SETTINGS_NAME)
    for name in golden:
        assert mismatches(
            parse(name, golden[name]), parse(name, files[name]), name
        ) == []


@pytest.mark.parametrize("output_format", ["csv", "json"])
@pytest.mark.parametrize("command", ["simulate", "optimize", "table", "curve", "scaling"])
def test_stdout_is_the_file_the_format_names(tmp_path, capsys, command, output_format):
    files = run_case(f"{command}-dlcz", tmp_path, "--format", output_format)
    assert capsys.readouterr().out == files[f"{command}.{output_format}"]


def test_the_comparison_has_the_stated_bound():
    assert mismatches({"a": [1.0, "x"]}, {"a": [1.0 * (1 + 0.9e-12), "x"]}) == []
    assert mismatches({"a": [1.0]}, {"a": [1.0 * (1 + 2e-12)]}) != []
    assert mismatches(0.0, 1e-16) == [] and mismatches(0.0, 1e-14) != []
    assert mismatches({"a": 1}, {"b": 1}) != []
    assert mismatches([1, 2], [1]) != []
    assert mismatches("x", "y") != [] and mismatches(None, 0) != []
    assert mismatches(True, 1) != [] and mismatches(1, 1.0) == []
    assert parse("a.csv", "x, L_km\nnew, 2.5, , 1\n") == [["x", "L_km"], ["new", 2.5, "", 1]]
    assert parse("a.csv", 'enp, F\n"bit-after-1, phase-after-2", 0.5\n')[1] == [
        "bit-after-1, phase-after-2", 0.5
    ]


def record(cases) -> None:
    """Write each case's compared outputs under ``GOLDEN_DIR``."""
    for case in cases:
        with tempfile.TemporaryDirectory() as work:
            files = run_case(case, Path(work))
        reference = files.pop(CONFIG_REFERENCE_NAME)
        (GOLDEN_DIR / CONFIG_REFERENCE_NAME).write_text(reference)
        target = GOLDEN_DIR / case
        target.mkdir(parents=True, exist_ok=True)
        for old in target.iterdir():
            old.unlink()
        for name, text in files.items():
            (target / name).write_text(text)
        print(f"wrote {target}", file=sys.stderr)


if __name__ == "__main__":
    record(sys.argv[1:] or sorted(CASES))
