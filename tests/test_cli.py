"""Tests for the rydgate command-line interface."""

import csv
import io
import json
import math

import pytest

from rydgate.cli import main
from rydgate.errors import UndefinedPhaseError


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
        parser_backup = cli_module.build_parser

        def patched_parser():
            parser = parser_backup()
            for action in parser._subparsers._group_actions:
                gate = action.choices["gate"]
                gate.set_defaults(handler=broken)
            return parser

        monkeypatch.setattr(cli_module, "build_parser", patched_parser)
        assert run_cli(["gate", "--kappa", "1.0"]) == 3
        assert "error:" in capsys.readouterr().err


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

    @pytest.mark.parametrize(
        "args",
        [
            ["thermal-map", "--dsteps", "0"],
            ["thermal-map", "--tsteps", "0"],
            ["thermal-map", "--dsteps", "-1"],
            ["actuate", "--phase-count", "0"],
            ["actuate", "--duration-count", "0"],
            ["actuate", "--duration-count", "-1"],
        ],
        ids=lambda args: "-".join(args).lstrip("-"),
    )
    def test_empty_grid_exits_two(self, args, tmp_path, capsys):
        out = tmp_path / "empty.csv"
        assert run_cli(args + ["--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()
