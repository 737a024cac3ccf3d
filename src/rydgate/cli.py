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
import ctypes
import inspect
import json
import math
import os
import sys

import numpy as np

from . import experiments, model
from ._version import __version__
from .errors import ConfigError, InvalidParameterError, NumericError
from .experiments import REFERENCE_KAPPA, ScanResult
from .model import MAX_SUBSTEPS, cyclic_segment_duration, normalize_units

SEED_ENV_VAR = "RYDGATE_SEED"

# Most points along one grid axis. A longer grid is no scan a command
# line would ask for, and its arrays would be allocated before any work.
MAX_GRID_STEPS = 100_000


def _defaults(runner) -> dict:
    """The runner's parameter defaults by name: each pipeline default lives
    with its runner, and a flag or config key left unset falls back to it."""
    return {name: p.default for name, p in inspect.signature(runner).parameters.items()}


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


def _number(value, what: str, kind=float):
    """value as a kind, float or int, or a ConfigError naming what it sets."""
    message = f"{what} must be {'an integer' if kind is int else 'a number'}, got {value!r}"
    # kind() would turn true into 1, and int() truncate 1.9 to 1.
    fraction = kind is int and isinstance(value, float) and not value.is_integer()
    if isinstance(value, bool) or fraction:
        raise ConfigError(message)
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(message) from exc


def resolve_seed(args, config: dict) -> int:
    """Seed priority: flag, then config noise section, then environment."""
    if args.seed is not None:
        return int(args.seed)
    noise = _section(config, "noise")
    if "seed" in noise:
        return _number(noise["seed"], "config noise seed", int)
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        return _number(env, SEED_ENV_VAR, int)
    return _defaults(experiments.run_noise_map)["seed"]


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


def _count(flag: str, value, limit: int) -> int:
    """value as an int in [1, limit], or a ConfigError naming the flag."""
    count = _number(value, flag, int)
    if count < 1:
        raise ConfigError(f"{flag} must be >= 1, got {count}")
    if count > limit:
        raise ConfigError(f"{flag} must be <= {limit}, got {count}")
    return count


def _grid(low, high, steps, rule=None) -> np.ndarray:
    """np.linspace(low, high, steps) once its inputs pass the boundary checks.

    low, high and steps are (flag, value) pairs; a value may come from
    the flag, the config or a default. Non-finite bounds, a step count
    outside [1, MAX_GRID_STEPS] and bounds too far apart for a float are
    rejected naming the flag; equal bounds are fine. rule is (text,
    predicate) for the command's own range rule on the two bounds.
    """
    (low_flag, low), (high_flag, high), (steps_flag, steps) = low, high, steps
    low, high = _number(low, low_flag), _number(high, high_flag)
    for flag, value in ((low_flag, low), (high_flag, high)):
        if not math.isfinite(value):
            raise ConfigError(f"{flag} must be finite, got {value}")
    steps = _count(steps_flag, steps, MAX_GRID_STEPS)
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


def _check_out(path) -> None:
    """Reject an --out path that cannot name a file, before any work runs."""
    if path and (os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or ".")):
        raise ConfigError(f"--out must name a file in an existing directory, got {path}")


def emit(result, args) -> None:
    """Write result to --out, or to stdout without it. A failed write
    raises ConfigError."""
    try:
        if isinstance(result, ScanResult):
            if args.out:
                result.to_csv(args.out)
            else:
                result.write_rows(sys.stdout)
            return
        text = experiments.json_text(result) + "\n"
        if args.out:
            with experiments.open_output(args.out) as (handle, _):
                handle.write(text)
        else:
            sys.stdout.write(text)
    except OSError as exc:
        target = f"--out {args.out}" if args.out else "stdout"
        raise ConfigError(f"cannot write {target}: {exc}") from exc


def cmd_gate(args, config: dict):
    kappa, v = _schedule(args, config)
    # run_gate's default, read from Schedule so that no call pays for inspect.signature.
    units = normalize_units(_resolve(args, "units", config, "units", model.Schedule.units))
    return experiments.run_gate(kappa, v, units=units)


def cmd_dynamics(args, config: dict):
    kappa, v = _schedule(args, config)
    samples = _count("--samples", args.samples, MAX_SUBSTEPS)
    return experiments.run_dynamics(kappa, v, samples_per_segment=samples)


def cmd_scan_kappa(args, config: dict):
    grid = _kappa_grid(args, config, 0.2, 5.0, 25)
    _, v = _schedule(args, config)
    return experiments.scan_kappa(grid, v)


def cmd_noise_map(args, config: dict):
    noise_cfg = _section(config, "noise")
    scan_cfg = _section(config, "scan")
    defaults = _defaults(experiments.run_noise_map)
    seed = resolve_seed(args, config)
    trials, substeps = (
        _number(_resolve(args, name, noise_cfg, name, defaults[name]), f"--{name}", int)
        for name in ("trials", "substeps")
    )
    first, last, steps = experiments.NOISE_GRID
    cap = model.MAX_NOISE_AMPLITUDE
    grid = _grid(
        ("", first),
        ("--eta-max", _resolve(args, "eta_max", scan_cfg, "eta_max", last)),
        ("--steps", _resolve(args, "steps", scan_cfg, "eta_steps", steps)),
        (f"0 < --eta-max <= {cap}", lambda low, high: 0.0 < high <= cap),
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
    default = _defaults(experiments.run_thermal_map)["exponent_mode"]
    exponent_mode = str(_resolve(args, "exponent_mode", thermal_cfg, "exponent_mode", default))
    distances = _grid(("--dmin", args.dmin), ("--dmax", args.dmax), ("--dsteps", args.dsteps))
    temperatures = _grid(("--tmin", args.tmin), ("--tmax", args.tmax), ("--tsteps", args.tsteps))
    kappa, v = _schedule(args, config, experiments.REFERENCE_KAPPA)
    return experiments.run_thermal_map(
        distance_grid=distances,
        temperature_grid=temperatures,
        exponent_mode=exponent_mode,
        kappa=kappa,
        v=v,
        substeps=_count("--substeps", args.substeps, MAX_SUBSTEPS),
    )


def cmd_interfere(args, config: dict):
    grid = _kappa_grid(args, config, 1.0, 5.0, 41)
    _, v = _schedule(args, config)
    return experiments.run_interferometer(grid, v=v, reference_kappa=args.reference_kappa)


def cmd_decay(args, config: dict):
    multipliers = _grid(
        ("", experiments.MULTIPLIER_GRID[0]),
        ("--rmax", args.rmax),
        ("--rsteps", args.rsteps),
        ("--rmax >= 0", lambda low, high: high >= 0.0),
    )
    rabi = tuple(2.0 * math.pi * f for f in args.rabi)
    for f, omega in zip(args.rabi, rabi):
        try:  # each curve's schedule check, here naming the flag
            cyclic_segment_duration(REFERENCE_KAPPA, omega / REFERENCE_KAPPA)
        except InvalidParameterError as exc:
            raise ConfigError(f"--rabi must be > 0 with a finite gate duration, got {f}") from exc
    return experiments.run_decay_curves(
        rabi_frequencies=rabi,
        multiplier_grid=multipliers,
        compare_time_optimal=not args.no_time_optimal,
        time_optimal_substeps=_count("--to-substeps", args.to_substeps, MAX_SUBSTEPS),
    )


def cmd_actuate(args, config: dict):
    # The scan builds both grids itself; these calls check the flags.
    _grid(
        ("--tmin", args.tmin),
        ("--tmax", args.tmax),
        ("--duration-count", args.duration_count),
        ("0 < --tmin < --tmax", lambda low, high: 0.0 < low < high),
    )
    _count("--phase-count", args.phase_count, MAX_GRID_STEPS)
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
    # --out; the configured ones also read --config and --v, the scheduled
    # ones --kappa as well (see _schedule), and the ratio scans a grid.
    plain = argparse.ArgumentParser(add_help=False)
    plain.add_argument("--out", help="output path (CSV or JSON); stdout when omitted")
    configured = argparse.ArgumentParser(add_help=False, parents=[plain])
    configured.add_argument("--config", help="JSON config file with default settings")
    configured.add_argument("--v", type=float, help="interaction strength")
    scheduled = argparse.ArgumentParser(add_help=False, parents=[configured])
    scheduled.add_argument("--kappa", type=float, help="drive-to-interaction ratio")
    ratios = argparse.ArgumentParser(add_help=False, parents=[configured])
    ratios.add_argument("--min", type=float, help="smallest ratio")
    ratios.add_argument("--max", type=float, help="largest ratio")
    ratios.add_argument("--steps", type=int, help="number of grid points")

    parser = argparse.ArgumentParser(
        prog="rydgate",
        description="Two-atom controlled-phase gate simulations",
    )
    parser.add_argument("--version", action="version", version=f"rydgate {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    p = subparsers.add_parser("gate", parents=[scheduled], help="summarize the four-segment gate")
    p.add_argument("--units", help="unit system: natural or mhz")

    p = subparsers.add_parser("dynamics", parents=[scheduled], help="population histories as CSV")
    samples = _defaults(experiments.run_dynamics)["samples_per_segment"]
    p.add_argument("--samples", type=int, default=samples, help="samples per segment")

    subparsers.add_parser("scan-kappa", parents=[ratios], help="gate summary over a ratio grid")

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
    dmin, dmax, dsteps = experiments.DISTANCE_GRID
    tmin, tmax, tsteps = experiments.TEMPERATURE_GRID
    p.add_argument("--dmin", type=float, default=dmin, help="smallest trap distance")
    p.add_argument("--dmax", type=float, default=dmax, help="largest trap distance")
    p.add_argument("--dsteps", type=int, default=dsteps, help="distance grid points")
    p.add_argument("--tmin", type=float, default=tmin, help="lowest temperature")
    p.add_argument("--tmax", type=float, default=tmax, help="highest temperature")
    p.add_argument("--tsteps", type=int, default=tsteps, help="temperature grid points")
    substeps = _defaults(experiments.run_thermal_map)["substeps"]
    p.add_argument("--substeps", type=int, default=substeps, help="substeps per segment")
    p.add_argument(
        "--exponent-mode",
        choices=model.EXPONENT_MODES,
        help="distance-ratio orientation in the interaction law",
    )

    p = subparsers.add_parser(
        "interfere", parents=[ratios], help="beamsplitter interferometer sweep"
    )
    p.add_argument(
        "--reference-kappa",
        type=float,
        default=_defaults(experiments.run_interferometer)["reference_kappa"],
        help="ratio whose cyclic period fixes the segment duration",
    )

    p = subparsers.add_parser(
        "decay", parents=[plain], help="conditional fidelity versus decay rate"
    )
    p.add_argument(
        "--rabi",
        type=_float_list,
        default=experiments.DECAY_RABI_MHZ,
        help="drive frequencies in MHz, comma separated",
    )
    _, rmax, rsteps = experiments.MULTIPLIER_GRID
    p.add_argument("--rmax", type=float, default=rmax, help="largest rate multiplier")
    p.add_argument("--rsteps", type=int, default=rsteps, help="multiplier grid points")
    p.add_argument(
        "--no-time-optimal", action="store_true", help="skip the phase-driven comparison curve"
    )
    count = _defaults(experiments.run_decay_curves)["time_optimal_substeps"]
    p.add_argument(
        "--to-substeps", type=int, default=count, help="substeps for the phase-driven comparison"
    )

    p = subparsers.add_parser(
        "actuate", parents=[plain], help="actuating area of high-fidelity cells"
    )
    scan = _defaults(experiments.run_actuating_scan)
    p.add_argument(
        "--etas",
        type=_float_list,
        default=scan["eta_list"],
        help="interaction multipliers, comma separated",
    )
    p.add_argument("--threshold", type=float, default=scan["threshold"], help="fidelity threshold")
    p.add_argument(
        "--mode",
        choices=experiments.ACTUATE_MODES,
        default=scan["mode"],
        help="drive scaling as the interaction varies",
    )
    p.add_argument("--phase-count", type=int, default=scan["phase_count"])
    p.add_argument("--duration-count", type=int, default=scan["duration_count"])
    tmin, tmax = scan["duration_range"]
    p.add_argument("--tmin", type=float, default=tmin, help="shortest duration")
    p.add_argument("--tmax", type=float, default=tmax, help="longest duration")
    p.add_argument(
        "--independent-phases", action="store_true", help="let the two phased pulses differ"
    )

    return parser


# glibc's allocator policy for a CLI process; the parameter numbers are
# malloc.h's. By default glibc maps every array above 128 kB fresh and
# returns the freed top of the heap to the OS, so each sector_product
# batch faulted its 1-2 MB working set back in: after a warm-up call, a
# sweep-batch noise-map call took 1,728-3,744 minor faults, actuate
# 1,047-1,271, a thermal cell 401-436 and dynamics --samples 400
# 1,174-1,200.
# Sizing: arrays come from the heap up to _MMAP_THRESHOLD, above every
# per-batch array (a batch holds at most 2,048 exponentials, so a complex
# (3, 3, 2048) stack is 295 kB, as is actuate's (3, 3, 42, 48) one, and
# at most 4 x 2,048 gauged steps, whose (3, 3, 8192) stack is 1.2 MB), and
# the heap keeps up to _TRIM_THRESHOLD of freed top, above a batch's
# working set. Then each of those calls takes 0-3 faults, and a one-off
# array above _MMAP_THRESHOLD is still mapped fresh and returned.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 4 << 20
_TRIM_THRESHOLD = 64 << 20


def _keep_heap() -> None:
    """Set the allocator policy above; a no-op without glibc's mallopt.

    main() calls it once per process. Importing the package leaves the
    host's allocator as it is.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)
    except (AttributeError, OSError, TypeError):
        pass


# Built by the first main() call, which also sets the allocator policy,
# and reused by every later one. It holds no per-call state: defaults are
# immutable and handlers are looked up by command name when a call runs.
_PARSER = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _keep_heap()
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        _check_out(args.out)
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
