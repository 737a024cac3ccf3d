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


def resolve_seed(args, config: dict) -> int:
    """Seed priority: flag, then config noise section, then environment."""
    if args.seed is not None:
        return int(args.seed)
    noise = _section(config, "noise")
    if "seed" in noise:
        seed = noise["seed"]
        message = f"config noise seed must be an integer, got {seed!r}"
        # int() would turn true into 1 and truncate 1.9 to 1.
        if isinstance(seed, bool) or (isinstance(seed, float) and not seed.is_integer()):
            raise ConfigError(message)
        try:
            return int(seed)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(message) from exc
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from exc
    return DEFAULT_SEED


def resolve_units(args, config: dict, default: str) -> str:
    if args.units is not None:
        return normalize_units(args.units)
    if "units" in config:
        return normalize_units(config["units"])
    return default


def _resolve(args, name: str, config_section: dict, key: str, default):
    value = getattr(args, name, None)
    if value is not None:
        return value
    if key in config_section:
        return config_section[key]
    return default


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
    schedule_cfg = _section(config, "schedule")
    kappa = _resolve(args, "kappa", schedule_cfg, "kappa", None)
    if kappa is None:
        raise ConfigError("gate requires --kappa or a schedule.kappa config entry")
    v = _resolve(args, "v", schedule_cfg, "interaction", experiments.V0)
    units = resolve_units(args, config, "natural")
    return experiments.run_gate(float(kappa), float(v), units=units)


def cmd_dynamics(args, config: dict):
    schedule_cfg = _section(config, "schedule")
    kappa = _resolve(args, "kappa", schedule_cfg, "kappa", None)
    if kappa is None:
        raise ConfigError("dynamics requires --kappa or a schedule.kappa config entry")
    v = _resolve(args, "v", schedule_cfg, "interaction", experiments.V0)
    return experiments.run_dynamics(
        float(kappa), float(v), samples_per_segment=args.samples
    )


def cmd_scan_kappa(args, config: dict):
    scan_cfg = _section(config, "scan")
    low = float(_resolve(args, "min", scan_cfg, "kappa_min", 0.2))
    high = float(_resolve(args, "max", scan_cfg, "kappa_max", 5.0))
    steps = int(_resolve(args, "steps", scan_cfg, "kappa_steps", 25))
    if not (0.0 < low < high) or steps < 1:
        raise ConfigError(
            f"bad kappa scan range: min {low}, max {high}, steps {steps}"
        )
    v = _resolve(args, "v", _section(config, "schedule"), "interaction", experiments.V0)
    return experiments.scan_kappa(np.linspace(low, high, steps), float(v))


def cmd_noise_map(args, config: dict):
    noise_cfg = _section(config, "noise")
    scan_cfg = _section(config, "scan")
    seed = resolve_seed(args, config)
    trials = int(_resolve(args, "trials", noise_cfg, "trials", 100))
    substeps = int(_resolve(args, "substeps", noise_cfg, "substeps", 100))
    steps = int(_resolve(args, "steps", scan_cfg, "eta_steps", 6))
    eta_max = float(_resolve(args, "eta_max", scan_cfg, "eta_max", 0.05))
    if steps < 1 or not (0.0 < eta_max <= 0.05):
        raise ConfigError(f"bad noise grid: steps {steps}, eta_max {eta_max}")
    grid = np.linspace(0.0, eta_max, steps)
    schedule_cfg = _section(config, "schedule")
    kappa = _resolve(args, "kappa", schedule_cfg, "kappa", experiments.REFERENCE_KAPPA)
    v = _resolve(args, "v", schedule_cfg, "interaction", experiments.V0)
    return experiments.run_noise_map(
        eta_omega_grid=grid,
        eta_delta_grid=grid,
        trials=trials,
        seed=seed,
        substeps=substeps,
        kappa=float(kappa),
        v=float(v),
    )


def cmd_thermal_map(args, config: dict):
    thermal_cfg = _section(config, "thermal")
    exponent_mode = str(
        _resolve(args, "exponent_mode", thermal_cfg, "exponent_mode", "literal")
    )
    if args.dsteps < 1 or args.tsteps < 1:
        raise ConfigError(f"bad thermal grid: dsteps {args.dsteps}, tsteps {args.tsteps}")
    distances = np.linspace(args.dmin, args.dmax, args.dsteps)
    temperatures = np.linspace(args.tmin, args.tmax, args.tsteps)
    schedule_cfg = _section(config, "schedule")
    kappa = _resolve(args, "kappa", schedule_cfg, "kappa", experiments.REFERENCE_KAPPA)
    v = _resolve(args, "v", schedule_cfg, "interaction", experiments.V0)
    return experiments.run_thermal_map(
        distance_grid=distances,
        temperature_grid=temperatures,
        exponent_mode=exponent_mode,
        kappa=float(kappa),
        v=float(v),
        substeps=args.substeps,
    )


def cmd_interfere(args, config: dict):
    scan_cfg = _section(config, "scan")
    low = float(_resolve(args, "min", scan_cfg, "kappa_min", 1.0))
    high = float(_resolve(args, "max", scan_cfg, "kappa_max", 5.0))
    steps = int(_resolve(args, "steps", scan_cfg, "kappa_steps", 41))
    if not (0.0 < low < high) or steps < 1:
        raise ConfigError(
            f"bad kappa scan range: min {low}, max {high}, steps {steps}"
        )
    spec = InterferometerSpec(
        kappa_grid=tuple(np.linspace(low, high, steps)),
        v=float(
            _resolve(args, "v", _section(config, "schedule"), "interaction", experiments.V0)
        ),
        reference_kappa=args.reference_kappa,
    )
    return experiments.run_interferometer(spec)


def cmd_decay(args, config: dict):
    if args.rsteps < 1 or args.rmax < 0.0:
        raise ConfigError(f"bad decay grid: rmax {args.rmax}, rsteps {args.rsteps}")
    rabi = tuple(2.0 * math.pi * f for f in args.rabi)
    return experiments.run_decay_curves(
        rabi_frequencies=rabi,
        multiplier_grid=np.linspace(0.0, args.rmax, args.rsteps),
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
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--units", help="unit system: natural or mhz")
    common.add_argument("--seed", type=int, help="random seed for stochastic runs")
    common.add_argument("--out", help="output path (CSV or JSON); stdout when omitted")
    common.add_argument("--config", help="JSON config file with default settings")

    parser = argparse.ArgumentParser(
        prog="rydgate",
        description="Two-atom controlled-phase gate simulations",
    )
    parser.add_argument("--version", action="version", version=f"rydgate {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    p = subparsers.add_parser(
        "gate", parents=[common], help="summarize the four-segment gate"
    )
    p.add_argument("--kappa", type=float, help="drive-to-interaction ratio")
    p.add_argument("--v", type=float, help="interaction strength")
    p.set_defaults(handler=cmd_gate)

    p = subparsers.add_parser(
        "dynamics", parents=[common], help="population histories as CSV"
    )
    p.add_argument("--kappa", type=float, help="drive-to-interaction ratio")
    p.add_argument("--v", type=float, help="interaction strength")
    p.add_argument("--samples", type=int, default=100, help="samples per segment")
    p.set_defaults(handler=cmd_dynamics)

    p = subparsers.add_parser(
        "scan-kappa", parents=[common], help="gate summary over a ratio grid"
    )
    p.add_argument("--min", type=float, help="smallest ratio")
    p.add_argument("--max", type=float, help="largest ratio")
    p.add_argument("--steps", type=int, help="number of grid points")
    p.add_argument("--v", type=float, help="interaction strength")
    p.set_defaults(handler=cmd_scan_kappa)

    p = subparsers.add_parser(
        "noise-map", parents=[common], help="Monte-Carlo fidelity over noise amplitudes"
    )
    p.add_argument("--trials", type=int, help="noise realizations per cell")
    p.add_argument("--substeps", type=int, help="noise substeps per segment")
    p.add_argument("--steps", type=int, help="grid points per noise axis")
    p.add_argument("--eta-max", dest="eta_max", type=float, help="largest amplitude")
    p.add_argument("--kappa", type=float, help="drive-to-interaction ratio")
    p.add_argument("--v", type=float, help="interaction strength")
    p.set_defaults(handler=cmd_noise_map)

    p = subparsers.add_parser(
        "thermal-map", parents=[common], help="fidelity versus distance and temperature"
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
        dest="exponent_mode",
        choices=("literal", "physical"),
        help="distance-ratio orientation in the interaction law",
    )
    p.add_argument("--kappa", type=float, help="drive-to-interaction ratio")
    p.add_argument("--v", type=float, help="interaction strength")
    p.set_defaults(handler=cmd_thermal_map)

    p = subparsers.add_parser(
        "interfere", parents=[common], help="beamsplitter interferometer sweep"
    )
    p.add_argument("--min", type=float, help="smallest ratio")
    p.add_argument("--max", type=float, help="largest ratio")
    p.add_argument("--steps", type=int, help="number of grid points")
    p.add_argument("--v", type=float, help="interaction strength")
    p.add_argument(
        "--reference-kappa",
        dest="reference_kappa",
        type=float,
        default=experiments.REFERENCE_KAPPA,
        help="ratio whose cyclic period fixes the segment duration",
    )
    p.set_defaults(handler=cmd_interfere)

    p = subparsers.add_parser(
        "decay", parents=[common], help="conditional fidelity versus decay rate"
    )
    p.add_argument(
        "--rabi",
        type=_float_list,
        default=[5.0, 10.0, 20.0],
        help="drive frequencies in MHz, comma separated",
    )
    p.add_argument("--rmax", type=float, default=10.0, help="largest rate multiplier")
    p.add_argument("--rsteps", type=int, default=21, help="multiplier grid points")
    p.add_argument(
        "--no-time-optimal",
        action="store_true",
        help="skip the phase-driven comparison curve",
    )
    p.add_argument(
        "--to-substeps",
        dest="to_substeps",
        type=int,
        default=1500,
        help="substeps for the phase-driven comparison",
    )
    p.set_defaults(handler=cmd_decay)

    p = subparsers.add_parser(
        "actuate", parents=[common], help="actuating area of high-fidelity cells"
    )
    p.add_argument(
        "--etas",
        type=_float_list,
        default=[0.5, 1.0, 2.0, 3.0, 4.0],
        help="interaction multipliers, comma separated",
    )
    p.add_argument("--threshold", type=float, default=0.96, help="fidelity threshold")
    p.add_argument(
        "--mode",
        choices=("fixed-omega", "fixed-kappa"),
        default="fixed-omega",
        help="drive scaling as the interaction varies",
    )
    p.add_argument("--phase-count", dest="phase_count", type=int, default=48)
    p.add_argument("--duration-count", dest="duration_count", type=int, default=300)
    p.add_argument("--tmin", type=float, default=0.02, help="shortest duration")
    p.add_argument("--tmax", type=float, default=3.0, help="longest duration")
    p.add_argument(
        "--independent-phases",
        dest="independent_phases",
        action="store_true",
        help="let the two phased pulses differ",
    )
    p.set_defaults(handler=cmd_actuate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        config = load_config(args.config) if args.config else {}
        result = args.handler(args, config)
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
