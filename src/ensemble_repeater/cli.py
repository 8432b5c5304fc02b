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
configuration file whose sections mirror the library dataclasses (see
``config-reference.ini``, written next to every output).  Parameter
sweeps run serially in one process.  Outputs are deterministic:
rerunning the same configuration and seed reproduces every file byte
for byte.

A command computes all its results before anything is written: it
returns its files, its stdout text and its exit code, and only then are
``config-reference.ini``, ``manifest.json`` and its files written and its
stdout printed.  So the library's own checks are the configuration
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
    RepeaterConfig,
    RunResult,
    check_seed,
    format_csv,
    format_enp_schedule,
    optimize,
    run_result_json,
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

_SCHEME_NAMES = {"dlcz": SchemeKind.DLCZ, "new": SchemeKind.NEW}

CONFIG_REFERENCE_NAME = "config-reference.ini"
MANIFEST_NAME = "manifest.json"


class ConfigError(Exception):
    """Unreadable, unknown, or inconsistent configuration input."""


# ----------------------------------------------------------------------
# settings

@dataclasses.dataclass(frozen=True)
class Settings:
    """Resolved configuration for one command invocation.

    The ``[chain]`` and ``[noise]`` sections of the configuration file
    mirror ``RepeaterConfig`` and ``NoiseParams``; ``[sweep]`` holds the
    quantities that only parameter sweeps use.  Distances are in km,
    times in s, the diffusion coefficient in rad^2/km.
    """

    scheme: SchemeKind = SchemeKind.NEW
    L: float = 1280.0
    L0: float = 40.0
    p_c: float = 8.1e-3
    L_att: float = RepeaterConfig.L_att
    c_fiber: float = RepeaterConfig.c_fiber
    enp_schedule: Tuple[Tuple[int, EnpKind], ...] = ()
    waiting: str = "deterministic"
    n_samples: int = 16384
    noise: NoiseParams = NoiseParams()
    F_target: float = 0.9
    L_list: Tuple[float, ...] = (160.0, 320.0, 640.0, 1280.0)
    eta_list: Tuple[float, ...] = (0.9, 0.95)


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
    return tuple(sorted(out))


def _parse_scheme(text: str) -> SchemeKind:
    try:
        return _SCHEME_NAMES[text.strip().lower()]
    except KeyError:
        raise ConfigError(
            f"unknown scheme {text!r}; expected one of {sorted(_SCHEME_NAMES)}"
        ) from None


def _parse_float_list(text: str) -> Tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad number list {text!r}: {exc}") from None


def _parse_waiting(text: str) -> str:
    text = text.strip().lower()
    if text not in ("deterministic", "mc"):
        raise ConfigError(
            f"unknown waiting model {text!r}; expected 'deterministic' or 'mc'"
        )
    return text


#: Each configuration section's keys, as ``configparser`` lowercases
#: them, with the attribute each sets and the parser of its value.  The
#: ``[noise]`` keys set ``NoiseParams`` fields, the others ``Settings``
#: fields.
_SECTIONS: Dict[str, Dict[str, Tuple[str, Callable[[str], object]]]] = {
    "chain": {
        "scheme": ("scheme", _parse_scheme),
        "l": ("L", float),
        "l0": ("L0", float),
        "p_c": ("p_c", float),
        "l_att": ("L_att", float),
        "c_fiber": ("c_fiber", float),
        "enp_schedule": ("enp_schedule", parse_enp_schedule),
        "waiting": ("waiting", _parse_waiting),
        "n_samples": ("n_samples", int),
    },
    "noise": {
        "eta": ("eta", float),
        "d": ("D", float),
        "p_misalign": ("p_misalign", float),
        "p_dark": ("p_dark", float),
        "eta_s": ("eta_s", float),
    },
    "sweep": {
        "f_target": ("F_target", float),
        "l_list": ("L_list", _parse_float_list),
        "eta_list": ("eta_list", _parse_float_list),
    },
}


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

    values: Dict[str, Dict[str, object]] = {section: {} for section in _SECTIONS}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SECTIONS[section]:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
            name, parse = _SECTIONS[section][key]
            try:
                values[section][name] = parse(raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for {key!r}: {exc}") from None
    noise = values.pop("noise")
    if noise:
        try:
            values["chain"]["noise"] = NoiseParams(**noise)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    return Settings(**values["chain"], **values["sweep"])


def config_reference() -> str:
    """INI reference listing every key with its default value."""
    s = Settings()
    n = s.noise
    return f"""\
# Reference configuration: every recognized key with its default value.
# All keys are optional.  Distances are in km, times in s, the phase
# diffusion coefficient in rad^2 per km.

[chain]
scheme = {s.scheme.value}            # dlcz | new
L = {s.L}             # total distance between the end nodes
L0 = {s.L0}              # station spacing; L/L0 must be a power of two
p_c = {s.p_c}            # excitation probability per generation attempt
L_att = {s.L_att}           # fiber attenuation length
c_fiber = {s.c_fiber}     # signal velocity in fiber, km/s
enp_schedule = {format_enp_schedule(s.enp_schedule)}    # none | <kind>-after-<level>[, ...]; kind: bit | phase
waiting = {s.waiting} # deterministic | mc
n_samples = {s.n_samples}       # samples for the mc waiting model

[noise]
eta = {n.eta}            # retrieval times detection efficiency
D = {n.D}               # phase diffusion coefficient, rad^2/km
p_misalign = {n.p_misalign}      # misalignment probability per connection
p_dark = {n.p_dark}          # dark count probability per detection window
eta_s = {n.eta_s}           # collection efficiency entering the dark count rate

[sweep]
F_target = {s.F_target}        # fidelity target for optimize and table
L_list = {", ".join(str(x) for x in s.L_list)}    # distances for table and scaling
eta_list = {", ".join(str(x) for x in s.eta_list)}    # efficiencies for curve
"""


# ----------------------------------------------------------------------
# manifest and output helpers

@dataclasses.dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce one invocation byte for byte."""

    command: str
    config_path: Optional[str]
    out_dir: str
    seed: int
    output_format: str
    settings: Settings

    def to_json(self) -> str:
        s = self.settings
        payload = {
            "command": self.command,
            "config_path": self.config_path,
            "out_dir": self.out_dir,
            "seed": self.seed,
            "output_format": self.output_format,
            "settings": {
                "scheme": s.scheme.value,
                "L_km": s.L,
                "L0_km": s.L0,
                "p_c": s.p_c,
                "L_att_km": s.L_att,
                "c_fiber_km_per_s": s.c_fiber,
                "enp_schedule": format_enp_schedule(s.enp_schedule),
                "waiting": s.waiting,
                "n_samples": s.n_samples,
                "noise": dataclasses.asdict(s.noise),
                "F_target": s.F_target,
                "L_list_km": list(s.L_list),
                "eta_list": list(s.eta_list),
            },
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


class CommandOutput(NamedTuple):
    """What a command computed, before anything is written.

    ``files`` maps each output file name to its text, in write order;
    ``stdout`` is printed after the files are written, and ``note``, if
    any, goes to stderr after it.
    """

    files: Dict[str, str]
    stdout: str
    code: int = EXIT_OK
    note: str = ""


def _chain_config(settings: Settings) -> RepeaterConfig:
    return RepeaterConfig(
        scheme=settings.scheme,
        L=settings.L,
        L0=settings.L0,
        p_c=settings.p_c,
        noise=settings.noise,
        L_att=settings.L_att,
        c_fiber=settings.c_fiber,
        enp_schedule=settings.enp_schedule,
    )


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
    return CommandOutput({"oracle_verify.txt": report}, report, code)


def cmd_simulate(args, settings: Settings) -> CommandOutput:
    config = _chain_config(settings)
    result = simulate_chain(
        config,
        waiting=settings.waiting,
        n_samples=settings.n_samples,
        seed=args.seed,
    )
    csv_text = format_csv(run_result_rows(result))
    json_text = run_result_json(result)
    files = {"simulate.csv": csv_text, "simulate.json": json_text}
    return CommandOutput(files, csv_text if args.format == "csv" else json_text)


_TABLE_COLUMNS = (
    "scheme", "L_km", "t_avg_s", "L0_km", "p_c", "F_fin", "feasible",
)


def _optimum_row(
    scheme: SchemeKind,
    L: float,
    best: Optional[Tuple[RepeaterConfig, RunResult]],
) -> List:
    if best is None:
        return [scheme.value, L, "", "", "", "", 0]
    config, result = best
    return [
        scheme.value, L, result.t_avg, config.L0, config.p_c,
        result.fidelity, 1,
    ]


def cmd_optimize(args, settings: Settings) -> CommandOutput:
    best = optimize(
        settings.scheme, settings.L, settings.F_target, **_sweep_options(settings)
    )
    row = _optimum_row(settings.scheme, settings.L, best)
    csv_text = format_csv([row], header=_TABLE_COLUMNS)
    payload = {
        "scheme": settings.scheme.value,
        "L_km": settings.L,
        "F_target": settings.F_target,
        "feasible": best is not None,
    }
    if best is not None:
        config, result = best
        payload.update(
            L0_km=config.L0,
            p_c=config.p_c,
            t_avg_s=result.t_avg,
            F_fin=result.fidelity,
            run=json.loads(run_result_json(result)),
        )
    json_text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    files = {"optimize.csv": csv_text, "optimize.json": json_text}
    stdout = csv_text if args.format == "csv" else json_text
    if best is None:
        return CommandOutput(
            files, stdout, EXIT_INFEASIBLE,
            f"no feasible configuration reaches F >= {settings.F_target}"
            f" at L = {settings.L} km",
        )
    return CommandOutput(files, stdout)


def cmd_table(args, settings: Settings) -> CommandOutput:
    rows = []
    feasible_count = 0
    for L in settings.L_list:
        best = optimize(
            settings.scheme, float(L), settings.F_target, **_sweep_options(settings)
        )
        feasible_count += best is not None
        rows.append(_optimum_row(settings.scheme, float(L), best))
    csv_text = format_csv(rows, header=_TABLE_COLUMNS)
    payload = [
        {key: (None if cell == "" else cell) for key, cell in zip(_TABLE_COLUMNS, row)}
        for row in rows
    ]
    json_text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    files = {"table.csv": csv_text, "table.json": json_text}
    return CommandOutput(
        files,
        csv_text if args.format == "csv" else json_text,
        EXIT_OK if feasible_count else EXIT_INFEASIBLE,
    )


_CURVE_COLUMNS = (
    "scheme", "L_km", "eta", "D", "enp_schedule", "p_c", "L0_km",
    "t_avg_s", "F",
)

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
            rows = [
                [
                    scheme.value, settings.L, noise.eta, noise.D,
                    format_enp_schedule(schedule), p_c, L0, t, F,
                ]
                for t, F, p_c, L0 in points
            ]
            all_rows.extend(rows)
            tag = (
                f"curve_{scheme.value}_enp-{format_enp_schedule(schedule)}_{eta_tag}"
            ).replace(", ", "+")
            files[f"{tag}.csv"] = format_csv(rows, header=_CURVE_COLUMNS)
            collected[tag] = [
                {"t_avg_s": t, "F": F, "p_c": p_c, "L0_km": L0}
                for t, F, p_c, L0 in points
            ]
    csv_text = format_csv(all_rows, header=_CURVE_COLUMNS)
    json_text = json.dumps(collected, indent=2, sort_keys=True) + "\n"
    files["curve.csv"] = csv_text
    files["curve.json"] = json_text
    return CommandOutput(files, csv_text if args.format == "csv" else json_text)


_SCALING_COLUMNS = ("scheme", "eta", "L_km", "t_avg_s")


def cmd_scaling(args, settings: Settings) -> CommandOutput:
    slope, points = scaling_fit(
        settings.scheme,
        settings.noise,
        settings.L_list,
        L0=settings.L0,
        waiting=settings.waiting,
        seed=args.seed,
        L_att=settings.L_att,
        c_fiber=settings.c_fiber,
    )
    eta = settings.noise.eta
    rows = [
        [settings.scheme.value, eta, L, t] for L, t in points
    ]
    csv_text = format_csv(rows, header=_SCALING_COLUMNS)
    payload = {
        "scheme": settings.scheme.value,
        "eta": eta,
        "L0_km": settings.L0,
        "fitted_exponent": slope,
        "stable_exponent": scaling_exponent(eta),
        "points": [{"L_km": L, "t_avg_s": t} for L, t in points],
    }
    json_text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    files = {"scaling.csv": csv_text, "scaling.json": json_text}
    return CommandOutput(files, csv_text if args.format == "csv" else json_text)


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
        "--scheme", choices=sorted(_SCHEME_NAMES), default=None,
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
        manifest = RunManifest(
            command=args.command,
            config_path=str(args.config) if args.config else None,
            out_dir=str(args.out),
            seed=args.seed,
            output_format=args.format,
            settings=settings,
        )
        output = _COMMANDS[args.command](args, settings)
    except (ConfigError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    files = {
        CONFIG_REFERENCE_NAME: config_reference(),
        MANIFEST_NAME: manifest.to_json(),
        **output.files,
    }
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
    sys.stdout.write(output.stdout)
    if output.note:
        print(output.note, file=sys.stderr)
    return output.code


if __name__ == "__main__":
    sys.exit(main())
