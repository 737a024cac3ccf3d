"""Command-line interface for the gate simulations.

Exit codes: 0 on success, 2 for configuration or usage errors, 3 for
numeric failures (non-cyclic states, failed integrations, failed root
searches).

Examples:

    rydgate gate --kappa 1.65 --out gate.json
    rydgate scan-kappa --min 0.2 --max 5 --steps 10 --out scan.csv
    rydgate dynamics --kappa 1.65
    rydgate decay --rabi 5,10 --rsteps 5 --out decay.csv
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import experiments
from ._version import __version__
from .errors import ConfigError, InvalidParameterError, NumericError
from .experiments import InterferometerSpec, ScanResult
from .model import normalize_units

DEFAULT_SEED = 12345
SEED_ENV_VAR = "RYDGATE_SEED"


def _float_list(text: str):
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("expected at least one value")
    return values


def load_config(path: str) -> dict:
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    return data


def _section(config: dict, name: str) -> dict:
    section = config.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"config section {name!r} must be an object")
    return section


def _integer(value, what: str) -> int:
    """value as an int, or a ConfigError naming what it sets."""
    message = f"{what} must be an integer, got {value!r}"
    # int() would turn true into 1 and truncate 1.9 to 1.
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ConfigError(message)
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(message) from exc


def _number(value, what: str) -> float:
    """value as a float, or a ConfigError naming what it sets."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{what} must be a number, got {value!r}") from exc


def resolve_seed(args, config: dict) -> int:
    """Seed priority: flag, then config noise section, then environment."""
    if args.seed is not None:
        return int(args.seed)
    noise = _section(config, "noise")
    if "seed" in noise:
        return _integer(noise["seed"], "config noise seed")
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        return _integer(env, SEED_ENV_VAR)
    return DEFAULT_SEED


def _resolve(args, name: str, config_section: dict, key: str, default):
    value = getattr(args, name, None)
    if value is not None:
        return value
    if key in config_section:
        return config_section[key]
    return default


def _schedule(args, config: dict, kappa_default=None):
    """(kappa, v): each from its flag, else the config schedule section, else a default.

    The config keys are schedule.kappa and schedule.interaction. kappa is
    None for a command without a --kappa flag; a command with one and no
    kappa_default requires it.
    """
    section = _section(config, "schedule")
    kappa = None
    if hasattr(args, "kappa"):
        kappa = _resolve(args, "kappa", section, "kappa", kappa_default)
        if kappa is None:
            raise ConfigError(
                f"{args.command} requires --kappa or a schedule.kappa config entry"
            )
        kappa = _number(kappa, "--kappa")
    v = _number(_resolve(args, "v", section, "interaction", experiments.V0), "--v")
    return kappa, v


def _grid(low, high, steps, rule=None) -> np.ndarray:
    """np.linspace(low, high, steps) once its inputs pass the boundary checks.

    low, high and steps are (flag, value) pairs; a value may come from
    the flag, the config or a default. Non-finite bounds, a step count
    below 1 and bounds too far apart for a float are rejected naming the
    flag; equal bounds are fine. rule is (text, predicate) for the
    command's own range rule on the two bounds.
    """
    (low_flag, low), (high_flag, high), (steps_flag, steps) = low, high, steps
    low, high = _number(low, low_flag), _number(high, high_flag)
    for flag, value in ((low_flag, low), (high_flag, high)):
        if not math.isfinite(value):
            raise ConfigError(f"{flag} must be finite, got {value}")
    steps = _integer(steps, steps_flag)
    if steps < 1:
        raise ConfigError(f"{steps_flag} must be >= 1, got {steps}")
    if rule is not None and not rule[1](low, high):
        raise ConfigError(f"bad grid from {low} to {high}: need {rule[0]}")
    if not math.isfinite(high - low):
        raise ConfigError(f"{low_flag} and {high_flag} are too far apart: {low}, {high}")
    return np.linspace(low, high, steps)


def _kappa_grid(args, config: dict, low: float, high: float, steps: int) -> np.ndarray:
    """The --min/--max/--steps ratio grid, with config "scan" keys and defaults."""
    section = _section(config, "scan")
    return _grid(
        ("--min", _resolve(args, "min", section, "kappa_min", low)),
        ("--max", _resolve(args, "max", section, "kappa_max", high)),
        ("--steps", _resolve(args, "steps", section, "kappa_steps", steps)),
        ("0 < --min < --max", lambda low, high: 0.0 < low < high),
    )


def emit(result, args) -> None:
    if isinstance(result, ScanResult):
        if args.out:
            result.to_csv(args.out)
        else:
            result.write_rows(sys.stdout)
        return
    text = json.dumps(result, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def cmd_gate(args, config: dict):
    kappa, v = _schedule(args, config)
    units = normalize_units(_resolve(args, "units", config, "units", "natural"))
    return experiments.run_gate(kappa, v, units=units)


def cmd_dynamics(args, config: dict):
    kappa, v = _schedule(args, config)
    return experiments.run_dynamics(kappa, v, samples_per_segment=args.samples)


def cmd_scan_kappa(args, config: dict):
    grid = _kappa_grid(args, config, 0.2, 5.0, 25)
    _, v = _schedule(args, config)
    return experiments.scan_kappa(grid, v)


def cmd_noise_map(args, config: dict):
    noise_cfg = _section(config, "noise")
    scan_cfg = _section(config, "scan")
    seed = resolve_seed(args, config)
    trials = _integer(_resolve(args, "trials", noise_cfg, "trials", 100), "--trials")
    substeps = _integer(_resolve(args, "substeps", noise_cfg, "substeps", 100), "--substeps")
    grid = _grid(
        ("", 0.0),
        ("--eta-max", _resolve(args, "eta_max", scan_cfg, "eta_max", 0.05)),
        ("--steps", _resolve(args, "steps", scan_cfg, "eta_steps", 6)),
        ("0 < --eta-max <= 0.05", lambda low, high: 0.0 < high <= 0.05),
    )
    kappa, v = _schedule(args, config, experiments.REFERENCE_KAPPA)
    return experiments.run_noise_map(
        eta_omega_grid=grid,
        eta_delta_grid=grid,
        trials=trials,
        seed=seed,
        substeps=substeps,
        kappa=kappa,
        v=v,
    )


def cmd_thermal_map(args, config: dict):
    thermal_cfg = _section(config, "thermal")
    exponent_mode = str(
        _resolve(args, "exponent_mode", thermal_cfg, "exponent_mode", "literal")
    )
    distances = _grid(("--dmin", args.dmin), ("--dmax", args.dmax), ("--dsteps", args.dsteps))
    temperatures = _grid(("--tmin", args.tmin), ("--tmax", args.tmax), ("--tsteps", args.tsteps))
    kappa, v = _schedule(args, config, experiments.REFERENCE_KAPPA)
    return experiments.run_thermal_map(
        distance_grid=distances,
        temperature_grid=temperatures,
        exponent_mode=exponent_mode,
        kappa=kappa,
        v=v,
        substeps=args.substeps,
    )


def cmd_interfere(args, config: dict):
    grid = _kappa_grid(args, config, 1.0, 5.0, 41)
    _, v = _schedule(args, config)
    spec = InterferometerSpec(
        kappa_grid=tuple(grid), v=v, reference_kappa=args.reference_kappa
    )
    return experiments.run_interferometer(spec)


def cmd_decay(args, config: dict):
    multipliers = _grid(
        ("", 0.0),
        ("--rmax", args.rmax),
        ("--rsteps", args.rsteps),
        ("--rmax >= 0", lambda low, high: high >= 0.0),
    )
    rabi = tuple(2.0 * math.pi * f for f in args.rabi)
    return experiments.run_decay_curves(
        rabi_frequencies=rabi,
        multiplier_grid=multipliers,
        compare_time_optimal=not args.no_time_optimal,
        time_optimal_substeps=args.to_substeps,
    )


def cmd_actuate(args, config: dict):
    return experiments.run_actuating_scan(
        eta_list=args.etas,
        threshold=args.threshold,
        mode=args.mode,
        phase_count=args.phase_count,
        duration_count=args.duration_count,
        duration_range=(args.tmin, args.tmax),
        independent_phases=args.independent_phases,
    )


def build_parser() -> argparse.ArgumentParser:
    # Each subcommand accepts only the flags it reads. Every one writes
    # --out; the configured ones also read --config and --v, and the
    # scheduled ones --kappa as well (see _schedule).
    plain = argparse.ArgumentParser(add_help=False)
    plain.add_argument("--out", help="output path (CSV or JSON); stdout when omitted")
    configured = argparse.ArgumentParser(add_help=False, parents=[plain])
    configured.add_argument("--config", help="JSON config file with default settings")
    configured.add_argument("--v", type=float, help="interaction strength")
    scheduled = argparse.ArgumentParser(add_help=False, parents=[configured])
    scheduled.add_argument("--kappa", type=float, help="drive-to-interaction ratio")

    parser = argparse.ArgumentParser(
        prog="rydgate",
        description="Two-atom controlled-phase gate simulations",
    )
    parser.add_argument("--version", action="version", version=f"rydgate {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    p = subparsers.add_parser("gate", parents=[scheduled], help="summarize the four-segment gate")
    p.add_argument("--units", help="unit system: natural or mhz")

    p = subparsers.add_parser("dynamics", parents=[scheduled], help="population histories as CSV")
    p.add_argument("--samples", type=int, default=100, help="samples per segment")

    p = subparsers.add_parser(
        "scan-kappa", parents=[configured], help="gate summary over a ratio grid"
    )
    p.add_argument("--min", type=float, help="smallest ratio")
    p.add_argument("--max", type=float, help="largest ratio")
    p.add_argument("--steps", type=int, help="number of grid points")

    p = subparsers.add_parser(
        "noise-map", parents=[scheduled], help="Monte-Carlo fidelity over noise amplitudes"
    )
    p.add_argument("--trials", type=int, help="noise realizations per cell")
    p.add_argument("--substeps", type=int, help="noise substeps per segment")
    p.add_argument("--steps", type=int, help="grid points per noise axis")
    p.add_argument("--eta-max", type=float, help="largest amplitude")
    p.add_argument("--seed", type=int, help="random seed for the noise draws")

    p = subparsers.add_parser(
        "thermal-map", parents=[scheduled], help="fidelity versus distance and temperature"
    )
    p.add_argument("--dmin", type=float, default=4.0, help="smallest trap distance")
    p.add_argument("--dmax", type=float, default=8.0, help="largest trap distance")
    p.add_argument("--dsteps", type=int, default=5, help="distance grid points")
    p.add_argument("--tmin", type=float, default=1.0, help="lowest temperature")
    p.add_argument("--tmax", type=float, default=20.0, help="highest temperature")
    p.add_argument("--tsteps", type=int, default=5, help="temperature grid points")
    p.add_argument("--substeps", type=int, default=1000, help="substeps per segment")
    p.add_argument(
        "--exponent-mode",
        choices=("literal", "physical"),
        help="distance-ratio orientation in the interaction law",
    )

    p = subparsers.add_parser(
        "interfere", parents=[configured], help="beamsplitter interferometer sweep"
    )
    p.add_argument("--min", type=float, help="smallest ratio")
    p.add_argument("--max", type=float, help="largest ratio")
    p.add_argument("--steps", type=int, help="number of grid points")
    p.add_argument(
        "--reference-kappa",
        type=float,
        default=experiments.REFERENCE_KAPPA,
        help="ratio whose cyclic period fixes the segment duration",
    )

    p = subparsers.add_parser(
        "decay", parents=[plain], help="conditional fidelity versus decay rate"
    )
    p.add_argument(
        "--rabi",
        type=_float_list,
        default=(5.0, 10.0, 20.0),
        help="drive frequencies in MHz, comma separated",
    )
    p.add_argument("--rmax", type=float, default=10.0, help="largest rate multiplier")
    p.add_argument("--rsteps", type=int, default=21, help="multiplier grid points")
    p.add_argument(
        "--no-time-optimal", action="store_true", help="skip the phase-driven comparison curve"
    )
    p.add_argument(
        "--to-substeps", type=int, default=1500, help="substeps for the phase-driven comparison"
    )

    p = subparsers.add_parser(
        "actuate", parents=[plain], help="actuating area of high-fidelity cells"
    )
    p.add_argument(
        "--etas",
        type=_float_list,
        default=(0.5, 1.0, 2.0, 3.0, 4.0),
        help="interaction multipliers, comma separated",
    )
    p.add_argument("--threshold", type=float, default=0.96, help="fidelity threshold")
    p.add_argument(
        "--mode",
        choices=("fixed-omega", "fixed-kappa"),
        default="fixed-omega",
        help="drive scaling as the interaction varies",
    )
    p.add_argument("--phase-count", type=int, default=48)
    p.add_argument("--duration-count", type=int, default=300)
    p.add_argument("--tmin", type=float, default=0.02, help="shortest duration")
    p.add_argument("--tmax", type=float, default=3.0, help="longest duration")
    p.add_argument(
        "--independent-phases", action="store_true", help="let the two phased pulses differ"
    )

    return parser


# Built by the first main() call and reused by every later one. It holds
# no per-call state: defaults are immutable and handlers are looked up
# by command name when a call runs.
_PARSER = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        config = load_config(args.config) if getattr(args, "config", None) else {}
        result = handler(args, config)
        emit(result, args)
    except (ConfigError, InvalidParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
