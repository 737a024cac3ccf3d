"""Tests for the rydgate command-line interface."""

import argparse
import csv
import io
import json
import math
import re
import shlex
from pathlib import Path

import pytest

from rydgate.cli import build_parser, main
from rydgate.errors import UndefinedPhaseError

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
        assert meta["seed"] == 444

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
        assert meta["seed"] == 555


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
                (["noise-map", "--eta-max", "inf"], "--eta-max must be finite"),
                (["noise-map", "--eta-max", "0.06"], "need 0 < --eta-max <= 0.05"),
                (["noise-map", "--steps", "0"], "--steps must be >= 1"),
                (["actuate", "--phase-count", "0"], None),
                (["actuate", "--duration-count", "0"], None),
                (["actuate", "--duration-count", "-1"], None),
                (["actuate", "--etas", "inf"], None),
                (["actuate", "--etas", "nan"], None),
                (["actuate", "--etas", "1,-inf"], None),
                (["actuate", "--tmax", "inf"], None),
                (["actuate", "--tmin", "nan"], None),
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
        ],
    )
    def test_bad_config_value_exits_two(self, command, config, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert run_cli([command, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err


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
