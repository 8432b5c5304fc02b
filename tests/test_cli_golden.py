"""CLI outputs against golden files recorded from an earlier commit.

Each case runs one command through ``main`` and compares every JSON file
it writes, except the run-specific ``manifest.json``, with
``tests/golden/cli/<case>/``: keys and strings exactly, numbers within
1e-12 relative with a 1e-15 absolute floor.  A change that keeps every
output bit for bit passes trivially; one that changes arithmetic must
stay inside that bound.

Re-record the goldens, only when an output is meant to change, with::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import json
import sys
import tempfile
from pathlib import Path

import pytest

from ensemble_repeater.cli import EXIT_OK, MANIFEST_NAME, main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden" / "cli"

RTOL = 1e-12
ATOL = 1e-15

#: INI bodies of the non-default runs.
_MC = "[chain]\nwaiting = mc\n"
_NOISY = "[noise]\nD = 1e-4\np_misalign = 0.02\n"

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
}


def run_case(case: str, work: Path) -> dict:
    """Run one case in ``work``; the text of its JSON outputs by file name."""
    body, argv = CASES[case]
    config = ()
    if body is not None:
        path = work / "run.ini"
        path.write_text(body)
        config = ("--config", str(path))
    out = work / "out"
    assert main([*config, "--out", str(out), *argv]) == EXIT_OK
    return {
        path.name: path.read_text()
        for path in sorted(out.glob("*.json"))
        if path.name != MANIFEST_NAME
    }


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
    golden_dir = GOLDEN_DIR / case
    golden = {
        path.name: json.loads(path.read_text())
        for path in sorted(golden_dir.glob("*.json"))
    }
    assert golden, f"no golden files under {golden_dir}"
    assert sorted(files) == sorted(golden)
    for name in golden:
        assert mismatches(golden[name], json.loads(files[name]), name) == []


def test_the_comparison_has_the_stated_bound():
    assert mismatches({"a": [1.0, "x"]}, {"a": [1.0 * (1 + 0.9e-12), "x"]}) == []
    assert mismatches({"a": [1.0]}, {"a": [1.0 * (1 + 2e-12)]}) != []
    assert mismatches(0.0, 1e-16) == [] and mismatches(0.0, 1e-14) != []
    assert mismatches({"a": 1}, {"b": 1}) != []
    assert mismatches([1, 2], [1]) != []
    assert mismatches("x", "y") != [] and mismatches(None, 0) != []
    assert mismatches(True, 1) != [] and mismatches(1, 1.0) == []


def record(cases) -> None:
    """Write each case's JSON outputs under ``GOLDEN_DIR``."""
    for case in cases:
        with tempfile.TemporaryDirectory() as work:
            files = run_case(case, Path(work))
        target = GOLDEN_DIR / case
        target.mkdir(parents=True, exist_ok=True)
        for old in target.glob("*.json"):
            old.unlink()
        for name, text in files.items():
            (target / name).write_text(text)
        print(f"wrote {target}", file=sys.stderr)


if __name__ == "__main__":
    record(sys.argv[1:] or sorted(CASES))
