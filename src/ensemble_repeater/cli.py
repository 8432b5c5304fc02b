"""Command-line interface.

Six subcommands drive the package end to end:

``oracle-verify``
    Run the exact verification suite (truth tables, success
    probabilities, connection coefficients, frozen tables) and report
    one pass/fail line per identity.
``simulate``
    Simulate a single repeater chain and emit per-stage records.
``optimize``
    Grid-search the control parameters (station spacing, excitation
    probability) for the fastest chain reaching a fidelity target.
``table``
    Run the optimizer over a list of total distances and emit one row
    per distance with the minimized time and chosen parameters.
``curve``
    Sweep the excitation probability and emit time-fidelity trade-off
    points for the standard scheme variants.
``scaling``
    Fit the power-law exponent of the average time against distance.

All options live either on the command line (``--config``, ``--out``,
``--seed``, ``--scheme``, ``--enp``, ``--format``) or in an INI
configuration file whose sections mirror the library dataclasses.  Each
INI key is declared once, in ``_KEYS``: ``Settings`` and its defaults,
the INI parser, ``config-reference.ini`` (the reference written next to
every output) and the manifest's ``settings`` block all derive from
those declarations.  Parameter sweeps run serially in one process.
Outputs are deterministic: rerunning the same configuration and seed
reproduces every file byte for byte.

A command computes all its results before anything is written: it
returns its table, its JSON payload, any extra files and its exit code.
Only then does ``main`` render the table as ``<command>.csv`` and the
payload as ``<command>.json``, write ``config-reference.ini``,
``manifest.json``, the extra files and those two, and print the one that
``--format`` names.  So the library's own checks are the configuration
checks, and a rejected run leaves no file behind.

Exit codes: 0 on success, 1 when verification fails, 2 when an
optimization target is infeasible, 3 for unusable configuration,
command-line usage, or an output that cannot be written.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import sys
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .chain import (
    CSV_COLUMNS,
    RepeaterConfig,
    RunResult,
    _normalized_schedule,
    check_seed,
    format_csv,
    format_enp_schedule,
    optimize,
    read_fields,
    run_result_payload,
    run_result_rows,
    scaling_exponent,
    scaling_fit,
    simulate_chain,
    tf_curve,
)
from .noise import NoiseParams
from .patterns import SchemeKind
from .protocols import EnpKind

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INFEASIBLE = 2
EXIT_BAD_CONFIG = 3

#: Fixed default seed so that runs are reproducible by default.
DEFAULT_SEED = 20210405

CONFIG_REFERENCE_NAME = "config-reference.ini"
MANIFEST_NAME = "manifest.json"


class ConfigError(Exception):
    """Unreadable, unknown, or inconsistent configuration input."""


# ----------------------------------------------------------------------
# settings

def parse_enp_schedule(text: str) -> Tuple[Tuple[int, EnpKind], ...]:
    """Parse "none" or a comma list of "<kind>-after-<level>" items."""
    text = text.strip()
    if not text or text == "none":
        return ()
    out = []
    for part in text.split(","):
        part = part.strip()
        kind_name, sep, level_text = part.partition("-after-")
        try:
            if not sep:
                raise ValueError
            out.append((int(level_text), EnpKind(kind_name)))
        except ValueError:
            raise ConfigError(
                f"bad purification step {part!r};"
                " expected e.g. 'phase-after-2' or 'none'"
            ) from None
    return _normalized_schedule(out)


def _parse_scheme(text: str) -> SchemeKind:
    try:
        return SchemeKind(text.strip().lower())
    except ValueError:
        raise ConfigError(
            f"unknown scheme {text!r}; expected one of {[s.value for s in SchemeKind]}"
        ) from None


def _parse_float_list(text: str) -> Tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad number list {text!r}: {exc}") from None


def _parse_waiting(text: str) -> str:
    text = text.strip().lower()
    if text not in ("deterministic", "mc"):
        raise ConfigError(
            f"unknown waiting model {text!r}; expected 'deterministic' or 'mc'"
        )
    return text


class _Key(NamedTuple):
    """One configuration key: its INI name, which is also the attribute it
    sets (of ``NoiseParams`` in ``[noise]``, else of ``Settings``), its
    default, the ``gap`` and ``comment`` after its default's form in
    ``config-reference.ini``, its name in ``manifest.json`` if not
    ``name``, its parser, and its value form in those two files."""

    name: str
    default: object
    gap: int
    comment: str
    manifest: str = ""
    parse: Callable[[str], object] = float
    form: Callable[[object], object] = lambda value: value


#: Every configuration key by section, in the order of ``config-reference.ini``.
_KEYS: Dict[str, Tuple[_Key, ...]] = {
    "chain": (
        _Key("scheme", SchemeKind.NEW, 12, "dlcz | new",
             parse=_parse_scheme, form=lambda scheme: scheme.value),
        _Key("L", 1280.0, 13, "total distance between the end nodes", "L_km"),
        _Key("L0", 40.0, 14, "station spacing; L/L0 must be a power of two",
             "L0_km"),
        _Key("p_c", 8.1e-3, 12, "excitation probability per generation attempt"),
        _Key("L_att", RepeaterConfig.L_att, 11, "fiber attenuation length", "L_att_km"),
        _Key("c_fiber", RepeaterConfig.c_fiber, 5, "signal velocity in fiber, km/s",
             "c_fiber_km_per_s"),
        _Key("enp_schedule", (), 4,
             "none | <kind>-after-<level>[, ...]; kind: bit | phase",
             parse=parse_enp_schedule, form=format_enp_schedule),
        _Key("waiting", "deterministic", 1, "deterministic | mc", parse=_parse_waiting),
        _Key("n_samples", 16384, 7, "samples for the mc waiting model", parse=int),
    ),
    "noise": (
        _Key("eta", NoiseParams.eta, 12, "retrieval times detection efficiency"),
        _Key("D", NoiseParams.D, 15, "phase diffusion coefficient, rad^2/km"),
        _Key("p_misalign", NoiseParams.p_misalign, 6,
             "misalignment probability per connection"),
        _Key("p_dark", NoiseParams.p_dark, 10,
             "dark count probability per detection window"),
        _Key("eta_s", NoiseParams.eta_s, 11,
             "collection efficiency entering the dark count rate"),
    ),
    "sweep": (
        _Key("F_target", 0.9, 8, "fidelity target for optimize and table"),
        _Key("L_list", (160.0, 320.0, 640.0, 1280.0), 4,
             "distances for table and scaling", "L_list_km", _parse_float_list, list),
        _Key("eta_list", (0.9, 0.95), 4, "efficiencies for curve",
             parse=_parse_float_list, form=list),
    ),
}

#: Resolved configuration for one command invocation: a field per
#: ``[chain]`` and ``[sweep]`` key, with its default, and ``noise``, the
#: ``NoiseParams`` that the ``[noise]`` keys set.
Settings = dataclasses.make_dataclass(
    "Settings",
    [
        (key.name, type(key.default), dataclasses.field(default=key.default))
        for section in ("chain", "sweep")
        for key in _KEYS[section]
    ] + [("noise", NoiseParams, dataclasses.field(default=NoiseParams()))],
    frozen=True,
    namespace={"__module__": __name__},
)


def load_settings(path: Optional[Path]) -> Settings:
    """Settings from an INI file, or the documented defaults."""
    if path is None:
        return Settings()
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read configuration file: {exc}") from None
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse configuration file: {exc}") from None

    # configparser lists no [DEFAULT] section but merges its keys into all.
    if parser.defaults():
        raise ConfigError(f"unknown section [{parser.default_section}]")
    fields: Dict[str, object] = {}
    noise: Dict[str, object] = {}
    for section in parser.sections():
        if section not in _KEYS:
            raise ConfigError(f"unknown section [{section}]")
        # configparser lowercases every key it reads.
        keys = {key.name.lower(): key for key in _KEYS[section]}
        for name, raw in parser.items(section):
            key = keys.get(name)
            if key is None:
                raise ConfigError(f"unknown key {name!r} in [{section}]")
            try:
                (noise if section == "noise" else fields)[key.name] = key.parse(raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for {name!r}: {exc}") from None
    if noise:
        try:
            fields["noise"] = NoiseParams(**noise)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    return Settings(**fields)


def _ini_text(value) -> str:
    """A value form as INI text: a list as its comma-separated items."""
    return ", ".join(map(str, value)) if isinstance(value, list) else str(value)


def config_reference() -> str:
    """INI reference listing every key with its default value."""
    lines = [
        "# Reference configuration: every recognized key with its default value.",
        "# All keys are optional.  Distances are in km, times in s, the phase",
        "# diffusion coefficient in rad^2 per km.",
    ]
    for section, keys in _KEYS.items():
        lines += ["", f"[{section}]"]
        lines += [
            f"{key.name} = {_ini_text(key.form(key.default))}{' ' * key.gap}"
            f"# {key.comment}"
            for key in keys
        ]
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# manifest and output helpers

def render_json(payload) -> str:
    """The text of every JSON file the CLI writes."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def manifest_json(args: argparse.Namespace, settings: Settings) -> str:
    """``manifest.json``: everything needed to reproduce one invocation
    byte for byte, with ``--scheme`` and ``--enp`` as typed, or None:
    ``curve`` picks its variants by whether they were."""
    block: Dict[str, object] = {"noise": {}}
    for section, keys in _KEYS.items():
        holder, into = settings, block
        if section == "noise":
            holder, into = settings.noise, block["noise"]
        for key in keys:
            into[key.manifest or key.name] = key.form(getattr(holder, key.name))
    return render_json({
        "command": args.command,
        "config_path": str(args.config) if args.config else None,
        "out_dir": str(args.out),
        "seed": args.seed,
        "output_format": args.format,
        "scheme_option": args.scheme,
        "enp_option": args.enp,
        "settings": block,
    })


class CommandOutput(NamedTuple):
    """What a command computed, before anything is written.

    ``main`` renders ``header`` and ``rows`` as ``<command>.csv`` and
    ``payload`` as ``<command>.json``.  ``files`` maps each extra file
    name to its text, written before those two; a command with no table
    (``oracle-verify``) has an empty header, writes no CSV or JSON and
    prints its ``.txt`` file.  ``note``, if any, goes to stderr after
    stdout.
    """

    header: Sequence[str]
    rows: List[list]
    payload: object
    files: Dict[str, str] = {}
    code: int = EXIT_OK
    note: str = ""


def _chain_config(s: Settings) -> RepeaterConfig:
    return RepeaterConfig(s.scheme, s.L, s.L0, s.p_c, **_sweep_options(s))


def _sweep_options(settings: Settings) -> dict:
    """The chain settings ``optimize`` takes as keyword arguments."""
    return dict(
        noise=settings.noise,
        enp_schedule=settings.enp_schedule,
        L_att=settings.L_att,
        c_fiber=settings.c_fiber,
    )


# ----------------------------------------------------------------------
# subcommands

def cmd_oracle_verify(args, settings: Settings) -> CommandOutput:
    from . import verify  # loads the Fock oracle, which no other command needs

    results = verify.run_all()
    report = verify.format_report(results)
    code = EXIT_OK if verify.all_ok(results) else EXIT_VERIFICATION
    return CommandOutput((), [], None, {"oracle_verify.txt": report}, code)


def cmd_simulate(args, settings: Settings) -> CommandOutput:
    config = _chain_config(settings)
    result = simulate_chain(
        config,
        waiting=settings.waiting,
        n_samples=settings.n_samples,
        seed=args.seed,
    )
    rows = run_result_rows(result)
    return CommandOutput(CSV_COLUMNS, rows, run_result_payload(result))


#: The fields of an optimum that the optimizer finds, read from its run's
#: ``RunResult`` (see ``read_fields``); empty cells where none is found.
_OPTIMUM_FIELDS = dict(
    t_avg_s="t_avg", L0_km="config.L0", p_c="config.p_c", F_fin="fidelity"
)
_TABLE_COLUMNS = ("scheme", "L_km", *_OPTIMUM_FIELDS, "feasible")


def _optimum_row(
    scheme: SchemeKind,
    L: float,
    best: Optional[Tuple[RepeaterConfig, RunResult]],
) -> List:
    """The ``_TABLE_COLUMNS`` row of the fastest chain at ``L``, if any."""
    if best is None:
        return [scheme.value, L, *[""] * len(_OPTIMUM_FIELDS), 0]
    return [scheme.value, L, *read_fields(_OPTIMUM_FIELDS, best[1]), 1]


def cmd_optimize(args, settings: Settings) -> CommandOutput:
    best = optimize(
        settings.scheme, settings.L, settings.F_target, **_sweep_options(settings)
    )
    rows = [_optimum_row(settings.scheme, settings.L, best)]
    payload = {key: cell for key, cell in zip(_TABLE_COLUMNS, rows[0]) if cell != ""}
    payload.update(F_target=settings.F_target, feasible=best is not None)
    if best is not None:
        payload["run"] = run_result_payload(best[1])
        return CommandOutput(_TABLE_COLUMNS, rows, payload)
    return CommandOutput(
        _TABLE_COLUMNS, rows, payload, code=EXIT_INFEASIBLE,
        note=f"no feasible configuration reaches F >= {settings.F_target}"
        f" at L = {settings.L} km",
    )


def cmd_table(args, settings: Settings) -> CommandOutput:
    rows = []
    for L in settings.L_list:
        best = optimize(
            settings.scheme, float(L), settings.F_target, **_sweep_options(settings)
        )
        rows.append(_optimum_row(settings.scheme, float(L), best))
    payload = [
        {key: (None if cell == "" else cell) for key, cell in zip(_TABLE_COLUMNS, row)}
        for row in rows
    ]
    return CommandOutput(
        _TABLE_COLUMNS, rows, payload,
        code=EXIT_OK if any(row[-1] for row in rows) else EXIT_INFEASIBLE,
    )


#: A curve point's columns, which are also the keys of its JSON record.
_CURVE_POINT_COLUMNS = ("p_c", "L0_km", "t_avg_s", "F")
_CURVE_COLUMNS = ("scheme", "L_km", "eta", "D", "enp_schedule", *_CURVE_POINT_COLUMNS)

#: The standard trade-off variants: the single-rail protocol, the
#: two-cell scheme without purification, and the two-cell scheme with
#: phase purification after the second connection level.
_CURVE_VARIANTS: Tuple[Tuple[str, str], ...] = (
    ("dlcz", "none"),
    ("new", "none"),
    ("new", "phase-after-2"),
)


def cmd_curve(args, settings: Settings) -> CommandOutput:
    if args.scheme is not None or args.enp is not None:
        variants = [(settings.scheme, settings.enp_schedule)]
    else:
        variants = [
            (_parse_scheme(name), parse_enp_schedule(spec))
            for name, spec in _CURVE_VARIANTS
        ]
    # Each curve's files are named by round(100 eta), so two efficiencies
    # with the same tag would write one file.
    noises = {}
    for eta in settings.eta_list:
        noise = dataclasses.replace(settings.noise, eta=float(eta))
        eta_tag = f"eta{round(noise.eta * 100):d}"
        if eta_tag in noises:
            raise ConfigError(
                f"eta_list values {noises[eta_tag].eta} and {noise.eta} both"
                f" name their curve files {eta_tag}"
            )
        noises[eta_tag] = noise
    all_rows = []
    collected = {}
    files = {}
    for scheme, schedule in variants:
        for eta_tag, noise in noises.items():
            points = tf_curve(
                scheme, settings.L, noise=noise, enp_schedule=schedule,
                L_att=settings.L_att, c_fiber=settings.c_fiber,
            )
            variant = [
                scheme.value, settings.L, noise.eta, noise.D,
                format_enp_schedule(schedule),
            ]
            cells = [[p_c, L0, t, F] for t, F, p_c, L0 in points]
            rows = [variant + point for point in cells]
            all_rows.extend(rows)
            tag = (
                f"curve_{scheme.value}_enp-{format_enp_schedule(schedule)}_{eta_tag}"
            ).replace(", ", "+")
            files[f"{tag}.csv"] = format_csv(rows, header=_CURVE_COLUMNS)
            collected[tag] = [dict(zip(_CURVE_POINT_COLUMNS, point)) for point in cells]
    if all_rows:
        return CommandOutput(_CURVE_COLUMNS, all_rows, collected, files)
    return CommandOutput(
        _CURVE_COLUMNS, all_rows, collected, files, code=EXIT_INFEASIBLE,
        note=f"no curve has a point at L = {settings.L} km",
    )


#: A scaling point's columns, which are also the keys of its JSON record.
_SCALING_POINT_COLUMNS = ("L_km", "t_avg_s")
_SCALING_COLUMNS = ("scheme", "eta", *_SCALING_POINT_COLUMNS)


def cmd_scaling(args, settings: Settings) -> CommandOutput:
    slope, points = scaling_fit(
        settings.scheme,
        settings.noise,
        settings.L_list,
        L0=settings.L0,
        waiting=settings.waiting,
        n_samples=settings.n_samples,
        seed=args.seed,
        L_att=settings.L_att,
        c_fiber=settings.c_fiber,
        enp_schedule=settings.enp_schedule,
    )
    eta = settings.noise.eta
    fit = [settings.scheme.value, eta]
    rows = [fit + list(point) for point in points]
    payload = {
        **dict(zip(_SCALING_COLUMNS, fit)),
        "L0_km": settings.L0,
        "fitted_exponent": slope,
        "stable_exponent": scaling_exponent(eta),
        "points": [dict(zip(_SCALING_POINT_COLUMNS, point)) for point in points],
    }
    return CommandOutput(_SCALING_COLUMNS, rows, payload)


_COMMANDS: Dict[str, Callable[..., CommandOutput]] = {
    "oracle-verify": cmd_oracle_verify,
    "simulate": cmd_simulate,
    "optimize": cmd_optimize,
    "table": cmd_table,
    "curve": cmd_curve,
    "scaling": cmd_scaling,
}


# ----------------------------------------------------------------------
# entry point

class _ArgumentParser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with EXIT_BAD_CONFIG."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_BAD_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="ensemble-repeater",
        description=(
            "Simulate and optimize atomic-ensemble repeater chains;"
            " verify the protocol layer against the Fock oracle."
        ),
    )
    parser.add_argument(
        "--config", type=Path, default=None,
        help="INI configuration file (see config-reference.ini)",
    )
    parser.add_argument(
        "--out", type=Path, default=Path("out"),
        help="output directory (default: ./out)",
    )
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help=f"random seed for sampled waiting times, 0 or more"
        f" (default {DEFAULT_SEED})",
    )
    parser.add_argument(
        "--scheme", choices=[s.value for s in SchemeKind], default=None,
        help="override the configured scheme",
    )
    parser.add_argument(
        "--enp", default=None, metavar="SCHEDULE",
        help="override the purification schedule, e.g. 'phase-after-2' or 'none'",
    )
    parser.add_argument(
        "--format", choices=("csv", "json"), default="csv",
        help="format printed to stdout (files are always written in both)",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, fn in _COMMANDS.items():
        sub.add_parser(name, help=fn.__doc__)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        settings = load_settings(args.config)
        if args.scheme is not None:
            settings = dataclasses.replace(settings, scheme=_parse_scheme(args.scheme))
        if args.enp is not None:
            settings = dataclasses.replace(
                settings, enp_schedule=parse_enp_schedule(args.enp)
            )
        check_seed(args.seed)
        output = _COMMANDS[args.command](args, settings)
    except (ConfigError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    stem = args.command.replace("-", "_")
    files = {
        CONFIG_REFERENCE_NAME: config_reference(),
        MANIFEST_NAME: manifest_json(args, settings),
        **output.files,
    }
    if output.header:
        files[f"{stem}.csv"] = format_csv(output.rows, output.header)
        files[f"{stem}.json"] = render_json(output.payload)
    stdout = files[f"{stem}.{args.format}" if output.header else f"{stem}.txt"]
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            path = out_dir / name
            path.write_text(text)
            print(f"wrote {path}", file=sys.stderr)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    sys.stdout.write(stdout)
    if output.note:
        print(output.note, file=sys.stderr)
    return output.code


if __name__ == "__main__":
    sys.exit(main())
