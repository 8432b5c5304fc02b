"""End-to-end checks of the command-line interface.

Each subcommand is exercised through ``main`` with a temporary output
directory; determinism is checked byte for byte on the emitted files.
"""

import configparser
import contextlib
import csv
import io
import json
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ensemble_repeater.cli import (
    CONFIG_REFERENCE_NAME,
    EXIT_BAD_CONFIG,
    EXIT_INFEASIBLE,
    EXIT_OK,
    MANIFEST_NAME,
    ConfigError,
    Settings,
    _KEYS,
    config_reference,
    format_enp_schedule,
    load_settings,
    main,
    parse_enp_schedule,
)
from ensemble_repeater.chain import RepeaterConfig, simulate_chain
from ensemble_repeater.noise import NoiseParams
from ensemble_repeater.patterns import SchemeKind
from ensemble_repeater.protocols import EnpKind


# ----------------------------------------------------------------------
# configuration parsing


def test_parse_enp_schedule():
    assert parse_enp_schedule("") == ()
    assert parse_enp_schedule("none") == ()
    assert parse_enp_schedule("phase-after-2") == ((2, EnpKind.PHASE),)
    assert parse_enp_schedule("phase-after-3, bit-after-1") == (
        (1, EnpKind.BIT),
        (3, EnpKind.PHASE),
    )
    assert parse_enp_schedule("phase-after-2, bit-after-2") == (
        (2, EnpKind.PHASE),
        (2, EnpKind.BIT),
    )
    for bad in ("bogus", "phase-after-x", "parity-after-2", "phase-2"):
        with pytest.raises(ConfigError):
            parse_enp_schedule(bad)


def test_format_enp_schedule_round_trips():
    for text in (
        "none", "phase-after-2", "bit-after-1, phase-after-2", "phase-after-2, bit-after-2",
    ):
        assert format_enp_schedule(parse_enp_schedule(text)) == text


def test_load_settings_defaults_without_file():
    assert load_settings(None) == Settings()


def test_load_settings_reads_all_sections(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(
        """
[chain]
scheme = dlcz
L = 2560
L0 = 80
p_c = 7.1e-4   # inline comments are allowed
enp_schedule = none
waiting = mc
n_samples = 2048

[noise]
eta = 0.9
D = 1e-4

[sweep]
F_target = 0.85
L_list = 160, 320
eta_list = 0.9
"""
    )
    s = load_settings(path)
    assert s.scheme is SchemeKind.DLCZ
    assert s.L == 2560.0
    assert s.L0 == 80.0
    assert s.p_c == pytest.approx(7.1e-4)
    assert s.waiting == "mc"
    assert s.n_samples == 2048
    assert s.noise.eta == 0.9
    assert s.noise.D == pytest.approx(1e-4)
    assert s.noise.p_misalign == 0.0  # untouched defaults survive
    assert s.F_target == 0.85
    assert s.L_list == (160.0, 320.0)
    assert s.eta_list == (0.9,)


@pytest.mark.parametrize(
    "body, message",
    [
        pytest.param(body, message, id=body)
        for body, message in (
            ("[chain]\nbogus = 1\n", r"^unknown key 'bogus' in \[chain\]$"),
            ("[noise]\nbogus = 1\n", r"^unknown key 'bogus' in \[noise\]$"),
            ("[sweep]\nbogus = 1\n", r"^unknown key 'bogus' in \[sweep\]$"),
            ("[orbit]\nL = 100\n", r"^unknown section \[orbit\]$"),
            # configparser merges [DEFAULT]'s keys into every other section.
            *(
                (f"[DEFAULT]\neta = 0.5\n{rest}", r"^unknown section \[DEFAULT\]$")
                for rest in ("", "[noise]\nD = 0\n", "[chain]\nL = 320\n")
            ),
            (
                "[chain]\nL = not-a-number\n",
                "^bad value for 'l': could not convert string to float: 'not-a-number'$",
            ),
            (
                "[chain]\nscheme = qubit\n",
                r"^unknown scheme 'qubit'; expected one of \['dlcz', 'new'\]$",
            ),
            (
                "[chain]\nwaiting = sometimes\n",
                "^unknown waiting model 'sometimes'; expected 'deterministic' or 'mc'$",
            ),
            (
                "[noise]\nD = abc\n",
                "^bad value for 'd': could not convert string to float: 'abc'$",
            ),
            ("[noise]\neta = 1.5\n", r"^eta must lie in \[0, 1\], got 1.5$"),
            (
                "[sweep]\nl_list = 1,2,three\n",
                "^bad value for 'l_list': bad number list '1,2,three': could not"
                " convert string to float: 'three'$",
            ),
            *(
                (
                    f"[sweep]\n{key} =\n",
                    f"^bad value for '{key}': bad number list '': could not convert"
                    " string to float: ''$",
                )
                for key in ("l_list", "eta_list")
            ),
        )
    ],
)
def test_load_settings_rejects_bad_input(tmp_path, body, message):
    path = tmp_path / "bad.ini"
    path.write_text(body)
    with pytest.raises(ConfigError, match=message):
        load_settings(path)


def test_load_settings_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_settings(tmp_path / "absent.ini")


def test_config_reference_parses_to_defaults(tmp_path):
    path = tmp_path / "reference.ini"
    path.write_text(config_reference())
    assert load_settings(path) == Settings()


# ----------------------------------------------------------------------
# entry point


def _run(tmp_path, *argv):
    out = tmp_path / "out"
    rc = main(["--out", str(out), *argv])
    return rc, out


def test_main_writes_manifest_and_reference(tmp_path):
    rc, out = _run(tmp_path, "--seed", "7", "simulate")
    assert rc == EXIT_OK
    manifest = json.loads((out / MANIFEST_NAME).read_text())
    assert manifest["command"] == "simulate"
    assert manifest["seed"] == 7
    assert manifest["settings"]["scheme"] == "new"
    assert (out / CONFIG_REFERENCE_NAME).exists()


def test_manifest_keys(tmp_path):
    """Sweeps run serially, so the manifest records no process count."""
    rc, out = _run(tmp_path, "simulate")
    assert rc == EXIT_OK
    manifest = json.loads((out / MANIFEST_NAME).read_text())
    assert set(manifest) == {
        "command", "config_path", "out_dir", "output_format", "seed", "settings",
        "scheme_option", "enp_option",
    }


def test_manifest_records_the_typed_scheme_and_schedule(tmp_path):
    """``curve`` picks its variants by whether ``--scheme`` or ``--enp``
    was typed, so the manifest records both as typed, or null: a
    configured scheme and the same scheme typed write different
    manifests."""
    cfg = tmp_path / "m.ini"
    cfg.write_text("[chain]\nscheme = dlcz\n")
    manifests, curves = [], []
    for flags in ([], ["--scheme", "dlcz"]):
        rc, out = _run(tmp_path / str(len(flags)), "--config", str(cfg), *flags, "curve")
        assert rc == EXIT_OK
        manifest = json.loads((out / MANIFEST_NAME).read_text())
        manifests.append({key: manifest[key] for key in manifest if key != "out_dir"})
        curves.append(sorted(json.loads((out / "curve.json").read_text())))
    assert [len(tags) for tags in curves] == [6, 2]
    assert [(m["scheme_option"], m["enp_option"]) for m in manifests] == [
        (None, None), ("dlcz", None),
    ]
    assert manifests[0] != manifests[1]


def test_simulate_outputs_are_deterministic(tmp_path):
    rc1, out1 = _run(tmp_path / "a", "simulate")
    rc2, out2 = _run(tmp_path / "b", "simulate")
    assert rc1 == rc2 == EXIT_OK
    for name in ("simulate.csv", "simulate.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    payload = json.loads((out1 / "simulate.json").read_text())
    assert payload["L_km"] == 1280.0
    assert payload["levels"][0]["stage"] == "eng"


def test_rounds_after_one_level_run_in_the_order_written(tmp_path):
    """``--enp`` keeps the written order of the rounds after one level, as
    the chain runs them: phase then bit after level 2 gives the library
    chain's F, where bit first gives 0.734513775243414."""
    rc, out = _run(tmp_path, "--enp", "phase-after-2, bit-after-2", "simulate")
    assert rc == EXIT_OK
    payload = json.loads((out / "simulate.json").read_text())
    assert payload["eta"] == 0.95
    chain = simulate_chain(RepeaterConfig(
        SchemeKind.NEW, 1280.0, 40.0, 8.1e-3, NoiseParams(eta=0.95),
        enp_schedule=((2, EnpKind.PHASE), (2, EnpKind.BIT)),
    ))
    assert payload["final"]["F"] == chain.fidelity
    assert payload["final"]["F"] == pytest.approx(0.7350211318099259, rel=1e-12)


def test_simulate_respects_config_and_overrides(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[chain]\nL = 320\nL0 = 40\np_c = 2e-3\n[noise]\neta = 0.9\n")
    out = tmp_path / "out"
    rc = main(
        ["--config", str(cfg), "--out", str(out), "--scheme", "dlcz",
         "--format", "json", "simulate"]
    )
    assert rc == EXIT_OK
    printed = json.loads(capsys.readouterr().out)
    assert printed["scheme"] == "dlcz"
    assert printed["L_km"] == 320.0
    assert printed["levels"][-1]["stage"] == "pme"


def test_mc_seed_changes_simulated_times(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[chain]\nL = 320\nwaiting = mc\nn_samples = 2048\n")
    _, out1 = _run(
        tmp_path / "a", "--config", str(cfg), "--seed", "1", "simulate"
    )
    _, out2 = _run(
        tmp_path / "b", "--config", str(cfg), "--seed", "2", "simulate"
    )
    t1 = json.loads((out1 / "simulate.json").read_text())["final"]["t_avg_s"]
    t2 = json.loads((out2 / "simulate.json").read_text())["final"]["t_avg_s"]
    assert t1 != t2


@pytest.mark.parametrize(
    "body, argv, command, message",
    [
        pytest.param("[chain]\nbogus = 1\n", [], "simulate", "unknown key", id="unknown-key"),
        # Chain-level inconsistencies are configuration errors too.
        pytest.param(
            "[chain]\nL = 300\n", [], "simulate", "power of 2", id="not-power-of-two"
        ),
        pytest.param(
            None, ["--enp", "bogus"], "simulate", "purification step", id="bad-enp"
        ),
        pytest.param(
            "[chain]\nL0 = 20000\nL = 80000\n", [], "simulate",
            "exp(L0 / L_att) overflows", id="overflowing-spacing",
        ),
        pytest.param(
            "[chain]\nL = inf\n", [], "simulate", "L must be finite", id="infinite-L"
        ),
        pytest.param("[chain]\nL = nan\n", [], "simulate", "L must be finite", id="nan-L"),
        pytest.param("[noise]\nD = nan\n", [], "simulate", "D must be finite", id="nan-D"),
        pytest.param(
            "[DEFAULT]\neta = 0.5\n[noise]\nD = 0\n", [], "simulate",
            "unknown section [DEFAULT]", id="default-section",
        ),
        # L/L0 overflows to inf or underflows to 0, and p_c eta underflows to 0.
        pytest.param(
            "[chain]\nL = 1e300\nL0 = 1e-300\n", [], "simulate",
            "L/L0 must be a power of 2 (at least 2)", id="overflowing-L-over-L0",
        ),
        pytest.param(
            "[chain]\nL = 5e-324\n", [], "simulate",
            "L/L0 must be a power of 2 (at least 2)", id="underflowing-L-over-L0",
        ),
        pytest.param(
            "[chain]\nL = 1.7e308\nL0 = 1\n", [], "simulate",
            "L/L0 must be a power of 2 (at least 2)", id="L-over-L0-near-the-float-maximum",
        ),
        pytest.param(
            "[chain]\nL0 = 5e-324\n", [], "scaling",
            "L/L0 must be a power of 2 (at least 2)", id="scaling-overflowing-L-over-L0",
        ),
        pytest.param(
            "[noise]\neta = 5e-324\n", [], "simulate",
            "the elementary time (L0 / c_fiber) exp(L0 / L_att) / (p_c eta) overflows"
            " for L0 = 40, L_att = 20, p_c = 0.0081, eta = 4.94066e-324",
            id="underflowing-p_c-eta",
        ),
        pytest.param(
            "[chain]\nwaiting = mc\nn_samples = 0\n", [], "simulate",
            "n_samples must be at least 1", id="no-mc-samples",
        ),
        # The sweeps reach the chain length through the station grid.
        pytest.param(
            "[chain]\nL = nan\n", [], "optimize", "L must be finite, got nan",
            id="optimize-nan-L",
        ),
        pytest.param(
            "[chain]\nL = inf\n", [], "curve", "L must be finite, got inf",
            id="curve-infinite-L",
        ),
        pytest.param(
            "[sweep]\nL_list = 640, nan\n", [], "table", "L must be finite, got nan",
            id="table-nan-in-L-list",
        ),
        # The elementary time names the argument that is not positive.
        pytest.param(
            "[noise]\neta = 0\n", [], "simulate", "eta must be positive, got 0.0",
            id="zero-eta",
        ),
        pytest.param(
            "[sweep]\neta_list = 0\n", [], "curve", "eta must be positive, got 0.0",
            id="curve-zero-eta",
        ),
        # The step channel would put even-parity weight on single-rail pairs.
        pytest.param(
            "[chain]\nscheme = dlcz\nL = 320\n[noise]\np_misalign = 0.01\n", [],
            "simulate", "p_misalign and p_dark must be 0 for the single-rail",
            id="single-rail-misalignment",
        ),
        pytest.param(
            "[noise]\np_dark = 0.001\n", ["--scheme", "dlcz"], "optimize",
            "p_misalign and p_dark must be 0 for the single-rail",
            id="optimize-single-rail-dark-counts",
        ),
        pytest.param(
            "[noise]\np_misalign = 0.01\n", [], "curve",
            "p_misalign and p_dark must be 0 for the single-rail",
            id="curve-variants-include-single-rail",
        ),
        pytest.param(
            "[chain]\nscheme = dlcz\n[noise]\np_dark = 0.001\n", [], "scaling",
            "p_misalign and p_dark must be 0 for the single-rail",
            id="scaling-single-rail-dark-counts",
        ),
        # The elementary time is finite; the final mapping's time is not.
        pytest.param(
            "[chain]\nscheme = dlcz\nL0 = 700\nL = 89600\nL_att = 1\np_c = 0.001\n",
            [], "simulate", "the average time of pme at level 7 overflows",
            id="overflowing-stage-time",
        ),
        # numpy saturates the elementary attempt counts of this chain.
        pytest.param(
            "[chain]\nscheme = dlcz\nL0 = 700\nL = 89600\nL_att = 1\np_c = 0.001\n"
            "waiting = mc\n",
            [], "simulate", "the average time of eng at level 0 overflows",
            id="saturated-mc-attempts",
        ),
        # The first connection's attempts would draw about 1.5e11 sub-pair
        # times, some 6 TB of arrays.
        pytest.param(
            "[chain]\nwaiting = mc\nn_samples = 3\n[noise]\neta = 1e-5\n", [],
            "simulate", "mc waiting times of enc at level 1 would draw",
            id="mc-draws-past-the-bound",
        ),
    ],
)
def test_bad_configuration_exits_3(tmp_path, capsys, body, argv, command, message):
    if body is not None:
        cfg = tmp_path / "bad.ini"
        cfg.write_text(body)
        argv = ["--config", str(cfg), *argv]
    rc, _ = _run(tmp_path, *argv, command)
    assert rc == EXIT_BAD_CONFIG
    err = capsys.readouterr().err.strip().splitlines()[-1]
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize(
    "body, command, message",
    [
        pytest.param(
            "[chain]\nL = nan\n", "simulate", "L must be finite, got nan",
            id="simulate",
        ),
        *(
            pytest.param(
                "[DEFAULT]\neta = 0.5\n", command, "unknown section [DEFAULT]",
                id=f"default-section-{command}",
            )
            for command in ("simulate", "oracle-verify")
        ),
        pytest.param(
            "[chain]\nL = nan\n", "optimize", "L must be finite, got nan",
            id="optimize",
        ),
        # Failures the chain run itself would only meet after the manifest.
        pytest.param(
            "[chain]\nL0 = 20000\nL = 80000\n", "simulate",
            "L0 / L_att = 1000 is too large: the elementary time"
            " exp(L0 / L_att) overflows",
            id="overflowing-spacing",
        ),
        pytest.param(
            "[chain]\nwaiting = mc\nn_samples = 0\n", "simulate",
            "n_samples must be at least 1", id="no-mc-samples",
        ),
        pytest.param(
            "[chain]\nwaiting = mc\nn_samples = 0\n", "scaling",
            "n_samples must be at least 1", id="scaling-no-mc-samples",
        ),
        # ``scaling`` checks the schedule of every length's chain.
        pytest.param(
            "[chain]\nscheme = dlcz\nenp_schedule = bit-after-1\n", "scaling",
            "the single-rail (dlcz) scheme has no purification step, got"
            " enp_schedule = bit-after-1",
            id="scaling-single-rail-schedule",
        ),
        pytest.param(
            "[chain]\nenp_schedule = phase-after-9\n", "scaling",
            "purification level 9 outside 1..1", id="scaling-schedule-too-deep",
        ),
        pytest.param(
            "[chain]\nscheme = dlcz\nL = 320\n[noise]\np_dark = 0.001\n", "simulate",
            "p_misalign and p_dark must be 0 for the single-rail (dlcz) scheme,"
            " got p_misalign = 0.0, p_dark = 0.001",
            id="single-rail-dark-counts",
        ),
        pytest.param(
            "[chain]\nscheme = dlcz\nL0 = 709\nL = 2836\nL_att = 1\np_c = 0.001\n",
            "simulate",
            "the elementary time (L0 / c_fiber) exp(L0 / L_att) / (p_c eta) overflows"
            " for L0 = 709, L_att = 1, p_c = 0.001, eta = 0.95",
            id="infinite-elementary-time",
        ),
        # scaling_fit spaces every chain at [chain] L0, not on the grid.
        pytest.param(
            "[chain]\nL0 = 30\n", "scaling", "L/L0 must be a power of 2 (at least 2)",
            id="scaling-off-power-of-two",
        ),
        # The sweeps meet eta = 0 only in their first chain's elementary time.
        pytest.param(
            "[noise]\neta = 0\n", "optimize", "eta must be positive, got 0.0",
            id="optimize-zero-eta",
        ),
        pytest.param(
            "[noise]\neta = 0\n", "table", "eta must be positive, got 0.0",
            id="table-zero-eta",
        ),
        pytest.param(
            "[sweep]\neta_list = 0\n", "curve", "eta must be positive, got 0.0",
            id="curve-zero-eta-list",
        ),
        # curve names its files by round(100 eta), so each value needs its own.
        pytest.param(
            "[chain]\nL = 160\n[sweep]\neta_list = 0.951, 0.954\n", "--scheme dlcz curve",
            "eta_list values 0.951 and 0.954 both name their curve files eta95",
            id="curve-colliding-eta-tags",
        ),
        pytest.param(
            "[sweep]\neta_list = 0.9, 0.9\n", "curve",
            "eta_list values 0.9 and 0.9 both name their curve files eta90",
            id="curve-repeated-eta",
        ),
        # Only two-cell pairs can be purified.
        *(
            pytest.param(
                "[chain]\nscheme = dlcz\nenp_schedule = bit-after-1\n", command,
                "the single-rail (dlcz) scheme has no purification step,"
                " got enp_schedule = bit-after-1",
                id=f"single-rail-schedule-{command.split()[-1]}",
            )
            for command in ("simulate", "optimize", "table", "--enp bit-after-1 curve")
        ),
        # No grid spacing at 160 km has a fifth connection level.
        *(
            pytest.param(
                "[chain]\nL = 160\nenp_schedule = phase-after-5\n"
                "[sweep]\nL_list = 160\n", command,
                "enp_schedule = phase-after-5 purifies after a level that no grid"
                " spacing gives at L = 160 km (levels 1..4)",
                id=f"schedule-too-deep-{command.split()[-1]}",
            )
            for command in ("optimize", "table", "--enp phase-after-5 curve")
        ),
        # Checks that only the sweep or the chain run itself makes: the
        # command computes before it writes, so they too leave no file.
        *(
            pytest.param(
                "[chain]\nL_att = -1\n", command, "L_att and c_fiber must be positive",
                id=f"negative-attenuation-length-{command}",
            )
            for command in ("optimize", "table", "curve")
        ),
        pytest.param(
            "[chain]\nc_fiber = 0\n", "optimize", "L_att and c_fiber must be positive",
            id="zero-fiber-speed-optimize",
        ),
        *(
            pytest.param(
                "[sweep]\nF_target = 1.5\n", command, "F_target must lie in (0, 1)",
                id=f"fidelity-target-above-1-{command}",
            )
            for command in ("optimize", "table")
        ),
        *(
            pytest.param(
                "[chain]\nL = -640\n", command, "L and L0 must be positive",
                id=f"negative-L-{command}",
            )
            for command in ("optimize", "curve")
        ),
        *(
            pytest.param(
                "[sweep]\nL_list = 640, 0\n", command, "L and L0 must be positive",
                id=f"zero-in-L-list-{command}",
            )
            for command in ("table", "scaling")
        ),
        # A line through a single length is no fit.
        *(
            pytest.param(
                f"[sweep]\nL_list = {lengths}\n", "scaling",
                "the scaling fit needs at least two distinct lengths, got 640",
                id=f"scaling-one-length-{i}",
            )
            for i, lengths in enumerate(("640", "640, 640"))
        ),
        pytest.param(
            "[chain]\nscheme = dlcz\nL0 = 700\nL = 89600\nL_att = 1\np_c = 0.001\n",
            "simulate", "the average time of pme at level 7 overflows",
            id="overflowing-stage-time",
        ),
        pytest.param(
            "[chain]\nscheme = dlcz\nL0 = 700\nL = 89600\nL_att = 1\np_c = 0.001\n"
            "waiting = mc\n",
            "simulate", "the average time of eng at level 0 overflows",
            id="saturated-mc-attempts",
        ),
        # The seed is checked for every command before it runs.
        *(
            pytest.param(
                "", f"--seed -1 {command}", "seed must be non-negative, got -1",
                id=f"negative-seed-{command}",
            )
            for command in (
                "oracle-verify", "simulate", "optimize", "table", "curve", "scaling"
            )
        ),
        pytest.param(
            "[chain]\nwaiting = mc\nL = 320\n", "--seed -1 simulate",
            "seed must be non-negative, got -1", id="negative-seed-mc-simulate",
        ),
    ],
)
def test_rejected_run_writes_no_manifest(tmp_path, capsys, body, command, message):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(body)
    rc, out = _run(tmp_path, "--config", str(cfg), *command.split())
    assert rc == EXIT_BAD_CONFIG
    assert not (out / MANIFEST_NAME).exists()
    assert not (out / CONFIG_REFERENCE_NAME).exists()
    assert capsys.readouterr().err.strip().splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("c_fiber", ["1e-300", "1e-303"])
def test_overflowing_mc_times_exit_3_without_a_warning(tmp_path, capsys, c_fiber):
    """At c_fiber = 1e-300 every sampled elementary time is finite but
    their sum overflows, in the mean and in each connection's sums; at
    1e-303 the elementary time is finite and some sampled ones are not.
    The run reports the overflow as one error line, with no numpy
    warning before it, and writes nothing."""
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[chain]\nL = 2560\np_c = 8.1e-3\nc_fiber = " + c_fiber + "\nwaiting = mc\n"
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out = _run(tmp_path, "--config", str(cfg), "simulate")
    assert rc == EXIT_BAD_CONFIG
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err.strip().splitlines() == [
        "error: the average time of eng at level 0 overflows"
    ]
    assert not out.exists()


def test_unwritable_output_exits_3(tmp_path, capsys):
    """An ``--out`` that names an existing file is one error line, not a
    traceback, and the file is left as it was."""
    out = tmp_path / "out"
    out.write_text("not a directory\n")
    rc = main(["--out", str(out), "simulate"])
    assert rc == EXIT_BAD_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot write output: ")
    assert out.read_text() == "not a directory\n"


def test_sweep_skips_spacings_without_the_scheduled_levels(tmp_path):
    """At 1280 km the 160 km spacing has two connection levels; the other
    spacings carry a purification round after level 3."""
    cfg = tmp_path / "deep.ini"
    cfg.write_text("[sweep]\nF_target = 0.8\n")
    rc, out = _run(tmp_path, "--config", str(cfg), "--enp", "phase-after-3", "optimize")
    assert rc == EXIT_OK
    found = json.loads((out / "optimize.json").read_text())
    assert found["feasible"] and found["L0_km"] <= 80.0


@pytest.mark.parametrize(
    "argv, code",
    [
        pytest.param(["--format", "xml", "simulate"], EXIT_BAD_CONFIG, id="bad-format"),
        # Sweeps run serially; the process-pool option is gone.
        pytest.param(["--workers", "2", "optimize"], EXIT_BAD_CONFIG, id="removed-pool-option"),
        pytest.param(["--out", "unused"], EXIT_BAD_CONFIG, id="no-command"),
        pytest.param(["--help"], EXIT_OK, id="help"),
    ],
)
def test_usage_errors_exit_3(argv, code):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == code


def test_oracle_verify_passes(tmp_path, capsys):
    rc, out = _run(tmp_path, "oracle-verify")
    assert rc == EXIT_OK
    report = (out / "oracle_verify.txt").read_text()
    assert report == capsys.readouterr().out
    assert "FAIL" not in report
    lines = [line for line in report.splitlines() if line.startswith("PASS")]
    assert len(lines) > 100


def test_optimize_feasible_and_infeasible(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[chain]\nL = 160\n[sweep]\nF_target = 0.9\n")
    rc, out = _run(tmp_path / "ok", "--config", str(cfg), "optimize")
    assert rc == EXIT_OK
    payload = json.loads((out / "optimize.json").read_text())
    assert payload["feasible"] is True
    assert payload["F_fin"] >= 0.9
    assert payload["run"]["final"]["F"] == payload["F_fin"]

    hard = tmp_path / "hard.ini"
    hard.write_text(
        "[chain]\nL = 160\n[noise]\nD = 3e-3\n[sweep]\nF_target = 0.995\n"
    )
    rc, out = _run(tmp_path / "no", "--config", str(hard), "optimize")
    assert rc == EXIT_INFEASIBLE
    payload = json.loads((out / "optimize.json").read_text())
    assert payload["feasible"] is False
    csv_rows = (out / "optimize.csv").read_text().strip().splitlines()
    assert csv_rows[1].endswith("0")


def test_optimize_honours_attenuation_and_fiber_speed(tmp_path, capsys):
    rows = []
    for name, extra in (("default", ""), ("short", "L_att = 10\nc_fiber = 1e5\n")):
        cfg = tmp_path / f"{name}.ini"
        cfg.write_text("[chain]\nL = 160\n" + extra)
        rc, _ = _run(tmp_path / name, "--config", str(cfg), "optimize")
        assert rc == EXIT_OK
        rows.append(capsys.readouterr().out.splitlines()[1])
    assert rows[0] != rows[1]


def test_optimize_skips_spacings_whose_elementary_time_overflows(tmp_path, capsys):
    """At L_att = 0.2 km the 160 km spacing overflows; optimize searches
    the other spacings instead of failing the run."""
    cfg = tmp_path / "short.ini"
    cfg.write_text("[chain]\nL = 1280\nL_att = 0.2\n")
    rc, out = _run(tmp_path, "--config", str(cfg), "optimize")
    assert rc == EXIT_OK
    assert "error" not in capsys.readouterr().err
    payload = json.loads((out / "optimize.json").read_text())
    assert payload["feasible"] is True
    assert payload["L0_km"] < 160.0


def test_table_over_distances(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[sweep]\nL_list = 160, 320\nF_target = 0.9\n")
    rc, out = _run(tmp_path, "--config", str(cfg), "table")
    assert rc == EXIT_OK
    rows = json.loads((out / "table.json").read_text())
    assert [row["L_km"] for row in rows] == [160.0, 320.0]
    assert all(row["feasible"] == 1 for row in rows)
    # Minimized times grow with distance.
    assert rows[0]["t_avg_s"] < rows[1]["t_avg_s"]


def test_curve_single_variant(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[chain]\nL = 160\n[sweep]\neta_list = 0.9\n")
    rc, out = _run(
        tmp_path, "--config", str(cfg), "--scheme", "dlcz", "--enp", "none",
        "curve",
    )
    assert rc == EXIT_OK
    collected = json.loads((out / "curve.json").read_text())
    assert list(collected) == ["curve_dlcz_enp-none_eta90"]
    points = collected["curve_dlcz_enp-none_eta90"]
    assert len(points) > 50
    assert (out / "curve_dlcz_enp-none_eta90.csv").exists()
    header = (out / "curve.csv").read_text().splitlines()[0]
    assert header.replace(" ", "") == "scheme,L_km,eta,D,enp_schedule,p_c,L0_km,t_avg_s,F"


def test_curve_quotes_a_schedule_cell_that_holds_a_comma(tmp_path):
    """A two-step schedule is one CSV cell, quoted because it holds a
    comma, so every row of ``curve.csv`` and of the per-variant file has
    the header's cell count."""
    cfg = tmp_path / "run.ini"
    cfg.write_text("[chain]\nL = 160\n[sweep]\neta_list = 0.9\n")
    rc, out = _run(
        tmp_path, "--config", str(cfg), "--scheme", "new",
        "--enp", "bit-after-1, phase-after-2", "curve",
    )
    assert rc == EXIT_OK
    paths = sorted(out.glob("curve*.csv"))
    assert len(paths) == 2
    for path in paths:
        with path.open(newline="") as handle:
            header, *rows = csv.reader(handle, skipinitialspace=True)
        assert rows and all(len(row) == len(header) for row in rows)
        schedule = header.index("enp_schedule")
        assert {row[schedule] for row in rows} == {"bit-after-1, phase-after-2"}


def test_curve_sweeps_eta_list_not_the_noise_eta(tmp_path):
    """``curve`` replaces ``[noise] eta`` by each ``eta_list`` value, so a
    zero there is never used."""
    cfg = tmp_path / "run.ini"
    cfg.write_text("[chain]\nL = 160\n[noise]\neta = 0\n[sweep]\neta_list = 0.9\n")
    rc, out = _run(
        tmp_path, "--config", str(cfg), "--scheme", "dlcz", "--enp", "none",
        "curve",
    )
    assert rc == EXIT_OK
    assert list(json.loads((out / "curve.json").read_text())) == [
        "curve_dlcz_enp-none_eta90"
    ]


def test_curve_with_an_empty_enp_sweeps_one_variant(tmp_path):
    """``--enp ""`` overrides the schedule with none, so the curve covers
    the configured scheme alone, not the three standard variants."""
    cfg = tmp_path / "run.ini"
    cfg.write_text("[chain]\nL = 160\n[sweep]\neta_list = 0.9\n")
    rc, out = _run(tmp_path, "--config", str(cfg), "--enp", "", "curve")
    assert rc == EXIT_OK
    collected = json.loads((out / "curve.json").read_text())
    assert list(collected) == ["curve_new_enp-none_eta90"]


@pytest.mark.parametrize(
    "body, L",
    [
        pytest.param("[chain]\nL = 100\n", 100.0, id="no-grid-spacing"),
        pytest.param("[sweep]\neta_list = 1e-200\n", 1280.0, id="every-point-fails"),
    ],
)
def test_curve_without_a_point_is_infeasible(tmp_path, capsys, body, L):
    """A curve run where no variant has a point exits 2 with a note, as
    ``optimize`` and ``table`` do where no grid point is feasible, and
    still writes its header-only files."""
    cfg = tmp_path / "run.ini"
    cfg.write_text(body)
    rc, out = _run(tmp_path, "--config", str(cfg), "curve")
    assert rc == EXIT_INFEASIBLE
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1] == f"no curve has a point at L = {L} km"
    assert all(line.startswith("wrote ") for line in err[:-1])
    assert (out / "curve.csv").read_text().count("\n") == 1
    collected = json.loads((out / "curve.json").read_text())
    assert collected and all(points == [] for points in collected.values())
    assert (out / MANIFEST_NAME).exists()


def test_scaling_fit_command(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[sweep]\nL_list = 160, 320, 640\n")
    rc, out = _run(tmp_path, "--config", str(cfg), "scaling")
    assert rc == EXIT_OK
    payload = json.loads((out / "scaling.json").read_text())
    assert len(payload["points"]) == 3
    assert payload["fitted_exponent"] == pytest.approx(
        payload["stable_exponent"], abs=0.4
    )


# ----------------------------------------------------------------------
# the configuration contract

#: Values for each INI key: valid ones, boundaries and invalid ones.  The
#: pools keep n_samples / P small for the Monte-Carlo waiting model, whose
#: draws grow with it.
_CONTRACT_POOLS = {
    "chain": {
        "scheme": ("new", "dlcz", "bogus"),
        "L": (
            "1280", "640", "160", "0", "1", "-640", "1e300", "1.7e308", "-1e300", "inf",
            "nan",
        ),
        "L0": ("40", "20", "80", "0", "1", "-40", "1e300", "1e-300", "inf"),
        "p_c": ("8.1e-3", "0.3", "0", "1", "-0.1", "1e-300", "1e300", "inf"),
        "L_att": ("20", "0", "1", "-20", "1e300", "1e-300", "inf"),
        "c_fiber": ("2e5", "0", "1", "-2e5", "1e300", "1e-300", "inf"),
        "enp_schedule": (
            "none", "phase-after-2", "bit-after-1, phase-after-3",
            "phase-after-2, phase-after-2", "phase-after-2, bit-after-2",
            "bit-after-0", "phase-after-99",
            "bit-after--1", "parity-after-1", "phase-2",
        ),
        "waiting": ("deterministic", "mc", "random"),
        "n_samples": ("1", "64", "0", "-1", "1e300"),
    },
    "noise": {
        "eta": ("0.9", "1", "0", "-0.9", "1e300", "inf"),
        "D": ("0", "1e-4", "1", "-1e-4", "1e300", "inf"),
        "p_misalign": ("0", "0.02", "1", "-0.02", "1e300"),
        "p_dark": ("0", "1e-3", "1", "-1e-3", "1e300"),
        "eta_s": ("1", "0.5", "0", "-1", "1e300"),
    },
    "sweep": {
        "F_target": ("0.9", "0.78", "0", "1", "-0.9", "1e300"),
        "L_list": ("160, 320", "640", "0", "160, 1e300", "inf", "-160, 320"),
        "eta_list": ("0.9", "0.9, 0.95", "1", "0", "-0.9", "1e300"),
    },
}


def test_the_contract_pools_hold_every_declared_key():
    """Each section's pools name exactly its declared keys, as
    ``configparser`` folds their case, so no key escapes the contract."""
    fold = configparser.ConfigParser().optionxform
    assert {
        section: sorted(fold(name) for name in pools)
        for section, pools in _CONTRACT_POOLS.items()
    } == {
        section: sorted(fold(key.name) for key in keys)
        for section, keys in _KEYS.items()
    }


@st.composite
def _configurations(draw):
    """An INI text with a few keys drawn from ``_CONTRACT_POOLS``, and one
    of the five computing commands."""
    sections = []
    for section, pools in _CONTRACT_POOLS.items():
        keys = draw(st.lists(st.sampled_from(sorted(pools)), max_size=3, unique=True))
        lines = [f"{key} = {draw(st.sampled_from(pools[key]))}" for key in keys]
        sections.append(f"[{section}]\n" + "".join(line + "\n" for line in lines))
    command = draw(st.sampled_from(("simulate", "optimize", "table", "curve", "scaling")))
    return "".join(sections), command


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=_configurations())
def test_every_configuration_exits_cleanly(case):
    """Every configuration either runs (exit 0, or 2 for an infeasible
    target) with no warning, or exits 3 with exactly one ``error:`` line
    and writes nothing.  A warning raised during the run counts as a line
    of stderr."""
    body, command = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.ini"
        cfg.write_text(body)
        stderr = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            rc, out = _run(Path(tmp), "--config", str(cfg), command)
        err = stderr.getvalue() + "".join(
            warnings.formatwarning(w.message, w.category, w.filename, w.lineno)
            for w in caught
        )
        assert rc in (EXIT_OK, EXIT_INFEASIBLE, EXIT_BAD_CONFIG), (body, command)
        if rc == EXIT_BAD_CONFIG:
            lines = err.strip().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), (body, command, err)
            # The line names the rule the input breaks, not Python's arithmetic.
            assert lines[0] not in (
                "error: float division by zero",
                "error: cannot convert float infinity to integer",
                "error: math range error",
                "error: math domain error",
                "error: (34, 'Numerical result out of range')",
            ), (body, command)
            assert not out.exists()
        else:
            assert "Warning" not in err, (body, command, err)
