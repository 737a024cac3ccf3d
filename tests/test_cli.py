"""Tests for the rydgate command-line interface."""

import argparse
import contextlib
import csv
import io
import json
import math
import os
import platform
import re
import shlex
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import rydgate
from rydgate import experiments
from rydgate.cli import MAX_GRID_STEPS, _float_list, build_parser, main
from rydgate.errors import UndefinedPhaseError
from rydgate.model import MAX_SUBSTEPS

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(args):
    return main(list(args))


class TestGateCommand:
    def test_writes_json_file(self, tmp_path):
        out = tmp_path / "gate.json"
        code = run_cli(["gate", "--kappa", "1.65", "--v", "6.283185307179586",
                        "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["delta_gamma"] == pytest.approx(-math.pi, abs=0.05)
        assert set(payload) == {
            "phases",
            "delta_gamma",
            "return_probabilities",
            "fidelity",
            "leakage",
            "metadata",
        }

    def test_prints_json_to_stdout(self, capsys):
        assert run_cli(["gate", "--kappa", "1.65"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["fidelity"] > 0.999

    def test_requires_kappa(self, capsys):
        assert run_cli(["gate"]) == 2
        assert "kappa" in capsys.readouterr().err

    def test_kappa_from_config(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"schedule": {"kappa": 1.65}}))
        out = tmp_path / "gate.json"
        assert run_cli(["gate", "--config", str(config), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["delta_gamma"] == pytest.approx(-math.pi, abs=0.05)

    @pytest.mark.parametrize(
        "flags, config, units",
        [
            ([], {}, "natural"),
            (["--units", "MHz"], {}, "mhz"),
            ([], {"units": "megahertz"}, "mhz"),
            (["--units", "natural"], {"units": "mhz"}, "natural"),
        ],
    )
    def test_units_from_flag_then_config(self, flags, config, units, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert run_cli(["gate", "--kappa", "1.65", "--config", str(path)] + flags) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metadata"]["schedule"]["units"] == units

    def test_unknown_units_exit_two(self, capsys):
        assert run_cli(["gate", "--kappa", "1.65", "--units", "furlongs"]) == 2
        assert "unit mode" in capsys.readouterr().err


class TestExitCodes:
    def test_unknown_flag_exits_two_with_usage(self, capsys):
        assert run_cli(["gate", "--bogus"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_command_exits_two(self, capsys):
        assert run_cli(["frobnicate"]) == 2

    def test_malformed_config_exits_two(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text("not json")
        assert run_cli(["gate", "--kappa", "1.0", "--config", str(config)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_config_exits_two(self, tmp_path, capsys):
        missing = tmp_path / "absent.json"
        assert run_cli(["gate", "--kappa", "1.0", "--config", str(missing)]) == 2

    def test_numeric_failure_exits_three(self, monkeypatch, capsys):
        import rydgate.cli as cli_module

        def broken(args, config):
            raise UndefinedPhaseError("no usable phase")

        monkeypatch.setattr(cli_module, "cmd_gate", broken)
        assert run_cli(["gate", "--kappa", "1.0"]) == 3
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["directory", "missing parent"])
    @pytest.mark.parametrize(
        "argv, runner",
        [(["gate", "--kappa", "1.65"], "run_gate"), (["scan-kappa", "--steps", "3"], "scan_kappa")],
    )
    def test_unwritable_out_exits_two_before_any_work(
        self, argv, runner, target, tmp_path, monkeypatch, capsys
    ):
        def no_work(*args, **kwargs):
            raise AssertionError("the command ran before --out was checked")

        monkeypatch.setattr(experiments, runner, no_work)
        out = tmp_path if target == "directory" else tmp_path / "absent" / "x.csv"
        assert run_cli(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --out") and "Traceback" not in err

    def test_failed_write_exits_two(self, tmp_path, capsys):
        # The CSV can be written, but its sibling .meta.json is a directory.
        (tmp_path / "scan.meta.json").mkdir()
        assert run_cli(["scan-kappa", "--steps", "3", "--out", str(tmp_path / "scan.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write --out") and "Traceback" not in err

    @pytest.mark.parametrize("failure", ["metadata", "rows"])
    def test_failed_write_leaves_neither_file(self, failure, tmp_path, monkeypatch, capsys):
        out = tmp_path / "scan.csv"
        if failure == "metadata":
            (tmp_path / "scan.meta.json").mkdir()
        else:
            def full_disk(self, handle):
                handle.write("kappa\n")
                raise OSError(28, "No space left on device")

            monkeypatch.setattr(experiments.ScanResult, "write_rows", full_disk)
        assert run_cli(["scan-kappa", "--steps", "3", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot write --out")
        assert not any(p.is_file() for p in tmp_path.iterdir())


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs a FIFO")
class TestOutToAFifo:
    """A scan's --out that is not a regular file takes the CSV alone: no
    .meta.json beside it, and a failed write leaves it in place."""

    @pytest.fixture
    def fifo(self, tmp_path):
        path = tmp_path / "out"
        os.mkfifo(path)
        # The reader first, without blocking, so that --out opens at once.
        reader = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
        yield path, reader
        os.close(reader)

    def test_the_csv_and_no_sidecar(self, fifo, capsys):
        path, reader = fifo
        argv = ["scan-kappa", "--min", "1", "--max", "2", "--steps", "3"]
        assert run_cli(argv) == 0
        stdout = capsys.readouterr().out.encode()
        assert run_cli(argv + ["--out", str(path)]) == 0
        assert os.read(reader, 1 << 16) == stdout
        assert sorted(p.name for p in path.parent.iterdir()) == ["out"]

    def test_a_failed_write_keeps_the_fifo(self, fifo, monkeypatch, capsys):
        path, _ = fifo

        def full_disk(self, handle):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(experiments.ScanResult, "write_rows", full_disk)
        assert run_cli(["scan-kappa", "--steps", "3", "--out", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot write --out")
        assert stat.S_ISFIFO(os.lstat(path).st_mode)
        assert sorted(p.name for p in path.parent.iterdir()) == ["out"]


class TestParserReuse:
    def test_one_parser_serves_every_call(self, monkeypatch, capsys):
        import rydgate.cli as cli_module

        built = []
        original = cli_module.build_parser

        def counting_build():
            built.append(original())
            return built[-1]

        monkeypatch.setattr(cli_module, "_PARSER", None)
        monkeypatch.setattr(cli_module, "build_parser", counting_build)
        gate = ["gate", "--kappa", "1.3"]
        assert run_cli(gate) == 0
        reference = capsys.readouterr().out

        def broken(args, config):
            raise UndefinedPhaseError("no usable phase")

        def raising_handler():
            with monkeypatch.context() as patch:
                patch.setattr(cli_module, "cmd_gate", broken)
                return run_cli(gate)

        disturbances = [
            (lambda: run_cli(["gate", "--bogus"]), 2),
            (lambda: run_cli(["--version"]), 0),
            (raising_handler, 3),
        ]
        for disturb, code in disturbances:
            assert disturb() == code
            capsys.readouterr()
            assert run_cli(gate) == 0
            assert capsys.readouterr().out == reference
        assert len(built) == 1
        assert cli_module._PARSER is built[0]


# Each call of a fresh CLI process, once warmed up: the minor page faults
# it takes are printed as "name count".
FAULT_PROBE = """
import resource, sys
from rydgate.cli import main

out = sys.argv[1]
calls = {
    "noise-map": ["noise-map", "--steps", "2", "--trials", "20", "--substeps", "100"],
    "thermal-map": ["thermal-map", "--dsteps", "1", "--tsteps", "1"],
}
for name, argv in calls.items():
    argv = argv + ["--out", f"{out}/{name}.csv"]
    assert main(argv) == 0
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert main(argv) == 0
    print(name, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


class TestHeapPolicy:
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the policy is glibc's mallopt")
    def test_repeated_calls_reuse_the_heap(self, tmp_path):
        # glibc's default policy returned each batch's freed working set to
        # the OS: these calls took 1,700-3,700 and 400-440 faults each.
        env = {**os.environ, "PYTHONPATH": str(Path(rydgate.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-c", FAULT_PROBE, str(tmp_path)],
            env=env, capture_output=True, text=True, check=True, timeout=300,
        )
        faults = {name: int(count) for name, count in map(str.split, done.stdout.splitlines())}
        assert set(faults) == {"noise-map", "thermal-map"}
        assert all(count <= 64 for count in faults.values()), faults

    @staticmethod
    def _libc(monkeypatch, library):
        import rydgate.cli as cli_module

        monkeypatch.setattr(cli_module, "_PARSER", None)
        monkeypatch.setattr(cli_module.ctypes, "CDLL", lambda name: library)

    def test_set_once_per_process(self, monkeypatch, tmp_path):
        import rydgate.cli as cli_module

        calls = []

        class Libc:
            def mallopt(self, parameter, value):
                calls.append((parameter, value))
                return 1

        self._libc(monkeypatch, Libc())
        for _ in range(3):
            assert run_cli(["gate", "--kappa", "1.65", "--out", str(tmp_path / "g.json")]) == 0
        assert calls == [
            (cli_module._M_MMAP_THRESHOLD, cli_module._MMAP_THRESHOLD),
            (cli_module._M_TRIM_THRESHOLD, cli_module._TRIM_THRESHOLD),
        ]

    def test_runs_without_mallopt(self, monkeypatch, capsys):
        self._libc(monkeypatch, object())
        assert run_cli(["gate", "--kappa", "1.65"]) == 0
        assert json.loads(capsys.readouterr().out)["fidelity"] > 0.999


# A JSON command and two CSV commands on tiny grids; decay carries a
# text column.
REWRITE_COMMANDS = {
    "gate": ["gate", "--kappa", "1.65"],
    "scan-kappa": ["scan-kappa", "--min", "1", "--max", "2", "--steps", "3"],
    "decay": ["decay", "--rabi", "5", "--rsteps", "2", "--no-time-optimal"],
}


def rewrite_targets(command: str, directory: Path) -> list:
    """The files that --out writes: the JSON, or the CSV and its .meta.json."""
    if command == "gate":
        return [directory / "gate.json"]
    return [directory / "scan.csv", directory / "scan.meta.json"]


class TestRewrittenOutputs:
    """--out rewrites an existing file in place: whatever it held, it ends
    with exactly the new bytes, and keeps its inode and mode."""

    @pytest.mark.parametrize("before", ["empty", "one byte", "shorter", "longer"])
    @pytest.mark.parametrize("command", sorted(REWRITE_COMMANDS))
    def test_out_holds_exactly_the_new_bytes(self, command, before, tmp_path, capsys):
        argv = REWRITE_COMMANDS[command]
        assert run_cli(argv) == 0
        stdout = capsys.readouterr().out.encode()
        # A new file, into a directory of its own, is the reference.
        (tmp_path / "fresh").mkdir()
        fresh = rewrite_targets(command, tmp_path / "fresh")
        assert run_cli(argv + ["--out", str(fresh[0])]) == 0
        expected = [path.read_bytes() for path in fresh]
        assert expected[0] == stdout
        for meta in expected[1:]:
            metadata = json.loads(meta)
            assert meta == (json.dumps(metadata, indent=2, sort_keys=True) + "\n").encode()
        old = {
            "empty": b"",
            "one byte": b"x",
            "shorter": b"x" * 10,
            "longer": b"x" * (max(map(len, expected)) + 20_000),
        }[before]
        targets = rewrite_targets(command, tmp_path)
        for path in targets:
            path.write_bytes(old)
        assert run_cli(argv + ["--out", str(targets[0])]) == 0
        assert [path.read_bytes() for path in targets] == expected

    @pytest.mark.parametrize("command", sorted(REWRITE_COMMANDS))
    def test_existing_file_keeps_its_inode_and_mode(self, command, tmp_path):
        targets = rewrite_targets(command, tmp_path)
        for path in targets:
            path.write_bytes(b"x" * 30_000)
            path.chmod(0o640)
        before = [path.stat().st_ino for path in targets]
        assert run_cli(REWRITE_COMMANDS[command] + ["--out", str(targets[0])]) == 0
        assert [path.stat().st_ino for path in targets] == before
        assert [stat.S_IMODE(path.stat().st_mode) for path in targets] == [0o640] * len(targets)

    @pytest.mark.parametrize("command", sorted(REWRITE_COMMANDS))
    def test_new_file_mode_is_0o666_less_the_umask(self, command, tmp_path):
        targets = rewrite_targets(command, tmp_path)
        previous = os.umask(0o027)
        try:
            assert run_cli(REWRITE_COMMANDS[command] + ["--out", str(targets[0])]) == 0
        finally:
            os.umask(previous)
        assert [stat.S_IMODE(path.stat().st_mode) for path in targets] == [0o640] * len(targets)

    def test_gate_to_dev_null(self, capsys):
        # /dev/null is not a regular file: it is never cut or truncated.
        assert run_cli(REWRITE_COMMANDS["gate"] + ["--out", os.devnull]) == 0
        assert capsys.readouterr() == ("", "")


class TestScanCommand:
    def test_csv_row_count(self, tmp_path):
        out = tmp_path / "f.csv"
        code = run_cli(
            ["scan-kappa", "--min", "0.2", "--max", "5", "--steps", "10",
             "--out", str(out)]
        )
        assert code == 0
        with open(out, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0][0] == "kappa"
        assert len(rows) == 11
        assert out.with_suffix(".meta.json").exists()

    def test_stdout_when_no_out(self, capsys):
        assert run_cli(["scan-kappa", "--min", "1", "--max", "2", "--steps", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4

    def test_bad_range_exits_two(self, capsys):
        assert run_cli(["scan-kappa", "--min", "5", "--max", "1", "--steps", "3"]) == 2
        assert "need 0 < --min < --max" in capsys.readouterr().err

    # Each case with the part of its error that names the flag, or None
    # where the library rejects the value on its own terms.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "args, named",
        [
            pytest.param(args, named, id="-".join(args).lstrip("-"))
            for args, named in [
                (["--max", "inf"], "--max must be finite"),
                (["--max", "1e200"], None),
                (["--v", "inf"], None),
                (["--v", "1e-320"], None),
                (["--min", "nan"], "--min must be finite"),
            ]
        ],
    )
    def test_unrepresentable_grid_exits_two(self, args, named, capsys):
        assert run_cli(["scan-kappa", "--steps", "3"] + args) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err
        if named is not None:
            assert named in err


class TestSeedResolution:
    def test_flag_beats_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RYDGATE_SEED", "111")
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        args = ["noise-map", "--steps", "2", "--trials", "2", "--substeps", "8",
                "--eta-max", "0.02"]
        assert run_cli(args + ["--seed", "222", "--out", str(out_a)]) == 0
        monkeypatch.setenv("RYDGATE_SEED", "333")
        assert run_cli(args + ["--seed", "222", "--out", str(out_b)]) == 0
        assert out_a.read_text() == out_b.read_text()

    def test_environment_seed_is_used(self, tmp_path, monkeypatch):
        args = ["noise-map", "--steps", "2", "--trials", "2", "--substeps", "8",
                "--eta-max", "0.02"]
        monkeypatch.setenv("RYDGATE_SEED", "444")
        out_a = tmp_path / "a.csv"
        assert run_cli(args + ["--out", str(out_a)]) == 0
        meta = json.loads((tmp_path / "a.meta.json").read_text())
        assert meta["grids"]["seed"] == 444

    def test_bad_environment_seed_exits_two(self, monkeypatch, capsys):
        monkeypatch.setenv("RYDGATE_SEED", "not-a-number")
        args = ["noise-map", "--steps", "1", "--trials", "1", "--substeps", "4"]
        assert run_cli(args) == 2

    @pytest.mark.parametrize("source", ["flag", "config", "environment"])
    def test_negative_seed_exits_two(self, source, tmp_path, monkeypatch, capsys):
        args = ["noise-map", "--steps", "1", "--trials", "1", "--substeps", "4"]
        if source == "flag":
            args += ["--seed", "-1"]
        elif source == "config":
            config = tmp_path / "cfg.json"
            config.write_text(json.dumps({"noise": {"seed": -1}}))
            args += ["--config", str(config)]
        else:
            monkeypatch.setenv("RYDGATE_SEED", "-1")
        assert run_cli(args) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["x", None, [1], 1e400, True, 1.9])
    def test_non_integer_config_seed_exits_two(self, seed, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"noise": {"seed": seed}}))
        args = ["noise-map", "--steps", "1", "--trials", "1", "--substeps", "4",
                "--config", str(config)]
        assert run_cli(args) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    def test_config_seed_beats_environment(self, tmp_path, monkeypatch):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"noise": {"seed": 555}}))
        monkeypatch.setenv("RYDGATE_SEED", "666")
        out = tmp_path / "n.csv"
        args = ["noise-map", "--steps", "1", "--trials", "1", "--substeps", "4",
                "--config", str(config), "--out", str(out)]
        assert run_cli(args) == 0
        meta = json.loads((tmp_path / "n.meta.json").read_text())
        assert meta["grids"]["seed"] == 555


# Each pipeline with no optional flag, and the runner call it stands for.
DEFAULT_CALLS = [
    pytest.param(["decay"], experiments.run_decay_curves, id="decay"),
    pytest.param(["noise-map"], experiments.run_noise_map, id="noise-map"),
    pytest.param(["thermal-map"], experiments.run_thermal_map, id="thermal-map"),
    pytest.param(["actuate"], experiments.run_actuating_scan, id="actuate"),
    pytest.param(
        ["dynamics", "--kappa", "1.65"], lambda: experiments.run_dynamics(1.65), id="dynamics"
    ),
    pytest.param(
        ["interfere"], lambda: experiments.run_interferometer(np.linspace(1.0, 5.0, 41)),
        id="interfere",
    ),
]


class TestDefaults:
    @pytest.mark.parametrize("argv, run", DEFAULT_CALLS)
    def test_command_without_flags_is_the_runner_default(self, argv, run, monkeypatch, capsys):
        # Each default lives with its runner, so a flag left unset writes
        # the bytes of the runner's own default call.
        monkeypatch.delenv("RYDGATE_SEED", raising=False)
        assert run_cli(argv) == 0
        expected = io.StringIO()
        run().write_rows(expected)
        assert capsys.readouterr().out == expected.getvalue()


class TestOtherCommands:
    def test_dynamics_csv(self, capsys):
        assert run_cli(["dynamics", "--kappa", "1.65", "--samples", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        header = lines[0].split(",")
        assert header[0] == "initial"
        assert header[-1] == "norm"
        assert len(lines) == 1 + 4 * (1 + 4 * 3)

    def test_thermal_map(self, tmp_path):
        out = tmp_path / "t.csv"
        code = run_cli(
            ["thermal-map", "--dsteps", "2", "--tsteps", "1", "--tmin", "5",
             "--tmax", "5", "--substeps", "100", "--out", str(out)]
        )
        assert code == 0
        with open(out, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["distance", "temperature", "fidelity"]
        assert len(rows) == 3

    def test_interfere(self, capsys):
        assert run_cli(["interfere", "--min", "1", "--max", "2", "--steps", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "kappa,p10,p11"
        assert len(lines) == 4

    def test_decay(self, capsys):
        code = run_cli(
            ["decay", "--rabi", "5", "--rsteps", "2", "--rmax", "5",
             "--no-time-optimal"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "curve,gamma_multiplier,gamma,fidelity"
        assert len(lines) == 3

    def test_decay_overflow_exits_three(self, tmp_path, capsys):
        # gamma dt near 1e297 is beyond the 1-norm limit 2^53 of the step
        # exponential, which gives NaN steps: a numeric error, never a nan
        # fidelity row.
        out = tmp_path / "decay.csv"
        code = run_cli(
            ["decay", "--rabi", "5", "--rsteps", "2", "--rmax", "1e300",
             "--no-time-optimal", "--out", str(out)]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "error:" in err and "not finite" in err and "Traceback" not in err
        assert "1-norm of 2^53" in err
        assert not out.exists()

    def test_decay_overflow_with_the_substepped_curve_exits_three(self, capsys):
        # As in CI: the geo curve's NaN steps fail first, naming it.
        code = run_cli(
            ["decay", "--rabi", "5", "--rsteps", "2", "--rmax", "1e300", "--to-substeps", "7"]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "error: the surviving population of curve geo-5mhz is not finite" in err
        assert "gamma multiplier = 1e+300" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "args",
        [
            ["interfere", "--min", "1", "--max", "1e300", "--steps", "3"],
            ["actuate", "--etas", "1", "--phase-count", "4", "--duration-count", "5",
             "--tmax", "1e300"],
            ["actuate", "--etas", "1e300", "--phase-count", "4", "--duration-count", "5"],
        ],
    )
    def test_steps_beyond_the_norm_limit_exit_three(self, args, tmp_path, capsys):
        # Drive times duration far beyond the 1-norm limit 2^53 of the step
        # exponential gives NaN steps: a numeric error, never a nan row.
        out = tmp_path / "out.csv"
        code = run_cli(args + ["--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert "error:" in err and "not finite" in err and "Traceback" not in err
        assert "1-norm of 2^53" in err
        assert not out.exists()

    def test_interfere_with_many_squarings(self, capsys):
        # kappa 1e6 takes the unitary steps with the most squarings of
        # the command's reach: the rows stay finite.
        code = run_cli(["interfere", "--min", "1", "--max", "1e6", "--steps", "3"])
        assert code == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert len(rows) == 3
        for row in rows:
            assert all(0.0 <= float(p) <= 1.0 for p in row.split(",")[1:])

    def test_actuate(self, capsys):
        code = run_cli(
            ["actuate", "--etas", "1", "--phase-count", "6",
             "--duration-count", "10"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "eta,v,qualifying_cells,mean_duration,actuating"
        assert len(lines) == 2

    def test_bad_float_list_exits_two(self, capsys):
        assert run_cli(["decay", "--rabi", "5,abc"]) == 2

    # Each case with the part of its error that names the flag, or None
    # where the library rejects the value on its own terms.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "args, named",
        [
            pytest.param(args, named, id="-".join(args).lstrip("-"))
            for args, named in [
                (["thermal-map", "--dsteps", "0"], "--dsteps must be >= 1"),
                (["thermal-map", "--tsteps", "0"], "--tsteps must be >= 1"),
                (["thermal-map", "--dsteps", "-1"], "--dsteps must be >= 1"),
                (["thermal-map", "--dmax", "inf"], "--dmax must be finite"),
                (["thermal-map", "--tmax", "inf"], "--tmax must be finite"),
                (["thermal-map", "--dmin", "nan"], "--dmin must be finite"),
                (["thermal-map", "--tmin=-1e308", "--tmax=1e308"],
                 "--tmin and --tmax are too far apart"),
                (["interfere", "--max", "inf"], "--max must be finite"),
                (["interfere", "--steps", "0"], "--steps must be >= 1"),
                (["decay", "--rmax", "inf"], "--rmax must be finite"),
                (["decay", "--rmax", "-1"], "need --rmax >= 0"),
                (["decay", "--rsteps", "0"], "--rsteps must be >= 1"),
                (["decay", "--rabi", "5,0"], "--rabi must be > 0"),
                (["decay", "--rabi", "-5"], "--rabi must be > 0"),
                (["decay", "--rabi=-inf"], "--rabi must be > 0"),
                (["decay", "--rabi", "inf"], "--rabi must be > 0"),
                (["decay", "--rabi", "nan"], "--rabi must be > 0"),
                (["decay", "--rabi", "1e-320"], "--rabi must be > 0"),
                (["noise-map", "--eta-max", "inf"], "--eta-max must be finite"),
                (["noise-map", "--eta-max", "0.06"], "need 0 < --eta-max <= 0.05"),
                (["noise-map", "--steps", "0"], "--steps must be >= 1"),
                (["actuate", "--phase-count", "0"], "--phase-count must be >= 1"),
                (["actuate", "--duration-count", "0"], "--duration-count must be >= 1"),
                (["actuate", "--duration-count", "-1"], "--duration-count must be >= 1"),
                (["actuate", "--etas", "inf"], None),
                (["actuate", "--etas", "nan"], None),
                (["actuate", "--etas", "1,-inf"], None),
                (["actuate", "--tmax", "inf"], "--tmax must be finite"),
                (["actuate", "--tmin", "nan"], "--tmin must be finite"),
                (["actuate", "--tmin", "2", "--tmax", "1"], "need 0 < --tmin < --tmax"),
                (["actuate", "--tmin", "0"], "need 0 < --tmin < --tmax"),
                (["noise-map", "--substeps", "100000000000000"], "noise substeps"),
                (["noise-map", "--trials", "100000000000000"], "trials must lie in"),
                (["thermal-map", "--dsteps", "1", "--tsteps", "1",
                  "--substeps", "1000000000000000"], f"--substeps must be <= {MAX_SUBSTEPS}"),
                (["decay", "--rabi", "5", "--rsteps", "1",
                  "--to-substeps", "1000000000000000"], f"--to-substeps must be <= {MAX_SUBSTEPS}"),
                (["dynamics", "--kappa", "1.65", "--samples", "100000000000"],
                 f"--samples must be <= {MAX_SUBSTEPS}"),
            ]
        ],
    )
    def test_empty_grid_exits_two(self, args, named, tmp_path, capsys):
        out = tmp_path / "empty.csv"
        assert run_cli(args + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err
        if named is not None:
            assert named in err
        assert not out.exists()


# Every grid step-count flag, with a command line that reads it.
GRID_COUNT_FLAGS = [
    ("scan-kappa", "--steps"),
    ("interfere", "--steps"),
    ("noise-map", "--steps"),
    ("thermal-map", "--dsteps"),
    ("thermal-map", "--tsteps"),
    ("decay", "--rsteps"),
    ("actuate", "--phase-count"),
    ("actuate", "--duration-count"),
]


class TestGridStepLimit:
    @pytest.mark.parametrize("command, flag", GRID_COUNT_FLAGS)
    @pytest.mark.parametrize("count", [MAX_GRID_STEPS + 1, 10**18])
    def test_count_above_limit_exits_two(self, command, flag, count, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        assert run_cli([command, flag, str(count), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{flag} must be <= {MAX_GRID_STEPS}" in err and "Traceback" not in err
        assert not out.exists()

    def test_limit_itself_is_accepted(self, monkeypatch):
        # The grid is built and handed on; the scan itself is stubbed.
        seen = {}

        def fake_scan(grid, v):
            seen["size"] = len(grid)
            return experiments.ScanResult(axes={}, table={})

        monkeypatch.setattr(experiments, "scan_kappa", fake_scan)
        assert run_cli(["scan-kappa", "--steps", str(MAX_GRID_STEPS)]) == 0
        assert seen["size"] == MAX_GRID_STEPS


# Flags each subcommand read at no point; each is now rejected by argparse.
REMOVED_FLAGS = [
    (command, flag, value)
    for flag, value, commands in [
        ("--units", "mhz", ["dynamics", "scan-kappa", "noise-map", "thermal-map",
                            "interfere", "decay", "actuate"]),
        ("--seed", "1", ["gate", "dynamics", "scan-kappa", "thermal-map", "interfere",
                         "decay", "actuate"]),
        ("--config", "cfg.json", ["decay", "actuate"]),
    ]
    for command in commands
]


class TestFlagSurface:
    def test_each_command_accepts_only_the_flags_it_reads(self):
        subparsers = next(
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        flags = {
            name: sorted(
                action.option_strings[-1] for action in parser._actions
                if not isinstance(action, argparse._HelpAction)
            )
            for name, parser in subparsers.choices.items()
        }
        schedule = ["--config", "--kappa", "--out", "--v"]
        kappa_grid = ["--config", "--max", "--min", "--out", "--steps", "--v"]
        assert flags == {
            "gate": sorted(schedule + ["--units"]),
            "dynamics": sorted(schedule + ["--samples"]),
            "scan-kappa": kappa_grid,
            "noise-map": sorted(
                schedule + ["--eta-max", "--seed", "--steps", "--substeps", "--trials"]
            ),
            "thermal-map": sorted(
                schedule + ["--dmax", "--dmin", "--dsteps", "--exponent-mode",
                            "--substeps", "--tmax", "--tmin", "--tsteps"]
            ),
            "interfere": sorted(kappa_grid + ["--reference-kappa"]),
            "decay": ["--no-time-optimal", "--out", "--rabi", "--rmax", "--rsteps",
                      "--to-substeps"],
            "actuate": ["--duration-count", "--etas", "--independent-phases", "--mode",
                        "--out", "--phase-count", "--threshold", "--tmax", "--tmin"],
        }
        assert sum(len(names) for names in flags.values()) == 59

    @pytest.mark.parametrize(
        "command, flag, value",
        REMOVED_FLAGS,
        ids=[f"{command}{flag}" for command, flag, _ in REMOVED_FLAGS],
    )
    def test_flag_the_command_does_not_read_is_a_usage_error(
        self, command, flag, value, capsys
    ):
        assert run_cli([command, flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: rydgate")
        assert f"unrecognized arguments: {flag}" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "command", ["gate", "dynamics", "scan-kappa", "noise-map", "thermal-map", "interfere"]
    )
    def test_config_interaction_reaches_every_reader(self, command, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"schedule": {"kappa": 1.4, "interaction": 5.0}}))
        tiny = {
            "gate": [],
            "dynamics": ["--samples", "1"],
            "scan-kappa": ["--steps", "1"],
            "noise-map": ["--steps", "1", "--trials", "1", "--substeps", "2"],
            "thermal-map": ["--dsteps", "1", "--tsteps", "1", "--substeps", "2"],
            "interfere": ["--steps", "1"],
        }[command]
        out = tmp_path / ("out.json" if command == "gate" else "out.csv")
        assert run_cli([command, "--config", str(config), "--out", str(out)] + tiny) == 0
        if command in ("gate", "dynamics"):
            meta = (json.loads(out.read_text())["metadata"] if command == "gate"
                    else json.loads(out.with_suffix(".meta.json").read_text()))
            assert meta["schedule"]["interaction"] == 5.0
            assert meta["schedule"]["segments"][0]["rabi"] == pytest.approx(1.4 * 5.0)
        else:
            meta = json.loads(out.with_suffix(".meta.json").read_text())
            assert meta["grids"]["v"] == 5.0

    @pytest.mark.parametrize(
        "command, config",
        [
            ("gate", {"schedule": {"kappa": "abc"}}),
            ("gate", {"schedule": {"kappa": 1.65, "interaction": [1]}}),
            ("scan-kappa", {"scan": {"kappa_steps": 2.5}}),
            ("scan-kappa", {"scan": {"kappa_max": "x"}}),
            ("noise-map", {"noise": {"trials": True}}),
            # float() once ran {"kappa": true} as kappa 1, with exit code 0.
            ("gate", {"schedule": {"kappa": True}}),
            ("gate", {"schedule": {"kappa": 1.65, "interaction": False}}),
            ("scan-kappa", {"scan": {"kappa_min": True}}),
            ("scan-kappa", {"scan": {"kappa_max": True}}),
        ],
    )
    def test_bad_config_value_exits_two(self, command, config, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert run_cli([command, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and " must be a" in err and "Traceback" not in err


def test_readme_command_lines_parse():
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
    lines = [line for line in block.splitlines() if line.startswith("rydgate ")]
    assert lines, "no rydgate lines in the README command block"
    parser = build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")


SUBCOMMANDS = next(
    action for action in build_parser()._actions
    if isinstance(action, argparse._SubParsersAction)
).choices

# Values every flag of a kind rejects, on top of the directory and the
# missing parent for a path and an unknown word for a named choice.
REJECTED_NUMBERS = ["0", "-1", "inf", "nan", str(10**18)]
# Grids, trials, substeps and samples stay this small, so a call is quick.
COUNT_CAP = 8
# Placeholders for the paths of one test run; see test_cli_call_exits_cleanly.
PATHS = {"out": "{file}", "config": "{config}"}
BAD_PATHS = ["{directory}", "{missing}"]
WORDS = {"units": ["natural", "mhz"]}

accepted_floats = st.floats(0.01, 8.0).map(repr)


def accepted_value(action):
    if action.choices:
        return st.sampled_from(sorted(action.choices))
    if action.type is int:
        return st.integers(1, COUNT_CAP).map(str)
    if action.type is float:
        return accepted_floats
    if action.type is _float_list:
        return st.lists(accepted_floats, min_size=1, max_size=3).map(",".join)
    if action.dest in PATHS:
        return st.just(PATHS[action.dest])
    return st.sampled_from(WORDS[action.dest])


def rejected_value(action):
    if action.dest in PATHS:
        return st.sampled_from(BAD_PATHS)
    if action.choices or action.dest in WORDS:
        return st.just("bogus")
    return st.sampled_from(REJECTED_NUMBERS)


@st.composite
def cli_calls(draw, command):
    """argv for the subcommand, built from the parser's own actions: every
    count flag, a subset of the others, and at most one rejected value."""
    actions = [
        action for action in SUBCOMMANDS[command]._actions
        if not isinstance(action, argparse._HelpAction)
    ]
    # Count flags are always given, so no call runs a default grid.
    chosen = [action for action in actions if action.type is int] + draw(
        st.lists(st.sampled_from([a for a in actions if a.type is not int]), unique=True)
    )
    rejected = draw(st.none() | st.sampled_from(chosen)) if chosen else None
    argv = [command]
    for action in chosen:
        argv.append(action.option_strings[-1])
        if action.nargs != 0:
            value = rejected_value if action is rejected else accepted_value
            argv.append(draw(value(action)))
    return argv


@pytest.fixture(scope="module")
def fuzz_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "config.json").write_text("{}")
    return {
        "file": str(root / "out.csv"),
        "config": str(root / "config.json"),
        "directory": str(root),
        "missing": str(root / "absent" / "out.csv"),
    }


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
@given(data=st.data())
def test_cli_call_exits_cleanly(command, data, fuzz_paths):
    argv = [part.format(**fuzz_paths) for part in data.draw(cli_calls(command))]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert code in (0, 2, 3), (argv, stderr.getvalue())
    assert "Traceback" not in stderr.getvalue()
