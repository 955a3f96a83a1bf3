"""Experiment runner API, JSON record contract, and CLI exit codes."""

import csv
import json

import numpy as np
import pytest

from conftest import counting_jacobian
from sheetsde import cli_runner
from sheetsde.brownian_sheet import cumulative_values, derive_seed, sample
from sheetsde.cli_runner import (
    ConfigError,
    ExperimentConfig,
    ResultRecord,
    main,
    run,
)
from sheetsde.plane_geometry import uniform_grid
from sheetsde.sde_plane import (
    euler_weak_expectation,
    girsanov_weak_expectation,
    sign_drift,
    tanh_drift,
)

RECORD_KEYS = [
    "schema_version",
    "artifact_version",
    "command",
    "seed",
    "inputs",
    "outputs",
    "pass",
    "wall_time_s",
]


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def record_of(out: str) -> dict:
    return json.loads(out)


class TestRunApi:
    def test_unknown_subcommand_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig("frobnicate", {})

    def test_sample_sheet(self):
        rec = run(ExperimentConfig("sample-sheet", {"grid": "4x4", "seed": 3}))
        assert rec.passed is None
        assert rec.exit_code == 0
        assert rec.outputs["n_s"] == 4
        assert len(rec.outputs["terminal_value"]) == 1

    def test_expand_ibp(self):
        rec = run(ExperimentConfig("expand-ibp", {"sigma": "2,1,3"}))
        assert rec.outputs["n_terms"] == 4
        assert rec.outputs["crossing_rows"] == [1, 2]
        signs = [t["sign"] for t in rec.outputs["terms"]]
        assert signs == [-1, 1, 1, -1]

    def test_verify_ibp_quadrature(self):
        rec = run(ExperimentConfig("verify-ibp", {
            "sigma": "2,1", "method": "quadrature", "nodes": 16, "horizon": 0.25,
        }))
        assert rec.passed is True
        assert rec.outputs["identity_gap"] <= rec.outputs["identity_tol"]

    def test_verify_ibp_n_mismatch(self):
        with pytest.raises(ConfigError):
            run(ExperimentConfig("verify-ibp", {"sigma": "2,1", "n": 3}))

    def test_verify_bound_small(self):
        rec = run(ExperimentConfig("verify-bound", {
            "trials": 3, "n_set": "2", "samples": 2000, "allowed_failures": 0,
        }))
        assert rec.passed is True
        assert rec.outputs["n_violations"] == 0

    def test_verify_shuffle(self):
        rec = run(ExperimentConfig("verify-shuffle", {"kind": "nabla", "m": 2, "k": 1,
                                                      "samples": 2000}))
        assert rec.passed is True
        assert rec.outputs["family_count"] == 2

    def test_simplex_gamma(self):
        rec = run(ExperimentConfig("simplex-gamma", {"n": 1, "mc_samples": 20_000}))
        assert rec.passed is True
        assert rec.outputs["closed_form"] == pytest.approx(3.141592653589793)

    def test_solve_sde_picard(self):
        rec = run(ExperimentConfig("solve-sde", {"grid": "6x6", "scheme": "picard"}))
        assert rec.passed is None
        assert rec.outputs["sweeps"] >= 1

    def test_malliavin_check(self):
        rec = run(ExperimentConfig("malliavin-check", {"grid": "8x8", "seed": 3}))
        assert rec.passed is True
        assert rec.outputs["rel_err"] <= 1e-2

    def test_malliavin_check_evaluates_jacobian_once(self, monkeypatch):
        # a per-cell derivative loop re-evaluates the Jacobian ~n^3/2 times
        calls = []
        monkeypatch.setattr(cli_runner, "tanh_drift",
                            lambda *args: counting_jacobian(tanh_drift(*args), calls))
        for op in range(2):
            rec = run(ExperimentConfig("malliavin-check", {"grid": "16x16", "seed": op}))
            assert rec.passed is True
            assert calls == [(16, 16, 1)] * (op + 1)

    def test_girsanov_check(self):
        rec = run(ExperimentConfig("girsanov-check", {
            "grid": "8x8", "samples": 4000, "drift": "tanh",
        }))
        assert rec.passed is True
        assert rec.outputs["gap_se"] <= 4.0
        assert rec.outputs["weight_z"] <= 4.0

    GIRSANOV_CFG = {"grid": "32x32", "samples": 2048, "drift": "sign", "seed": 17, "x0": 0.1}

    def test_girsanov_check_deterministic_under_threads(self):
        # the three passes run on threads; each owns its stream, so the
        # schedule cannot reach the record
        texts = []
        for _ in range(2):
            lines = run(ExperimentConfig("girsanov-check", self.GIRSANOV_CFG)).to_json().splitlines()
            texts.append("\n".join(l for l in lines if "wall_time_s" not in l))
        assert texts[0] == texts[1]

    def test_girsanov_check_matches_serial_library_calls(self):
        rec = run(ExperimentConfig("girsanov-check", self.GIRSANOV_CFG))
        grid, seed = uniform_grid(32, 32), 17
        phi = lambda x: np.tanh(x[..., 0])
        ones = lambda x: np.ones(x.shape[:-1])
        serial = {
            "girsanov": girsanov_weak_expectation(phi, sign_drift(), 0.1, grid, 2048, seed),
            "euler": euler_weak_expectation(phi, sign_drift(), 0.1, grid, 2048,
                                            derive_seed(seed, 0xE0)),
            "mean_weight": girsanov_weak_expectation(ones, sign_drift(), 0.1, grid, 2048,
                                                     derive_seed(seed, 0xA1)),
        }
        for key, est in serial.items():
            assert rec.outputs[key] == {
                "mean": est.mean, "std_error": est.std_error, "n_samples": est.n_samples,
            }

    def test_bad_grid_string(self):
        with pytest.raises(ConfigError):
            run(ExperimentConfig("sample-sheet", {"grid": "4by4"}))

    @pytest.mark.parametrize("seed", [12345678901234567, "12345678901234567"])
    def test_seed_above_2_53_is_exact(self, seed):
        rec = run(ExperimentConfig("sample-sheet", {"grid": "2x2", "seed": seed}))
        assert rec.seed == 12345678901234567
        sheet = sample(uniform_grid(2, 2), seed=12345678901234567)
        terminal = cumulative_values(sheet.increments)[-1, -1, 0]
        assert rec.outputs["terminal_value"] == [float(terminal)]

    def test_count_accepts_integral_float_notation(self):
        rec = run(ExperimentConfig("simplex-gamma", {"n": 1, "mc_samples": "1e5"}))
        assert rec.outputs["oracle"]["n_samples"] == 100_000

    @pytest.mark.parametrize("value", ["1.5", 2.5, "many"])
    def test_count_rejects_non_integral(self, value):
        with pytest.raises(ConfigError) as info:
            run(ExperimentConfig("simplex-gamma", {"n": 1, "mc_samples": value}))
        assert info.value.field_name == "mc_samples"


class TestRecordFormat:
    def test_key_order(self):
        rec = run(ExperimentConfig("sample-sheet", {"grid": "3x3"}))
        parsed = json.loads(rec.to_json(), object_pairs_hook=lambda pairs: pairs)
        assert [k for k, _ in parsed] == RECORD_KEYS

    def test_exit_codes(self):
        base = dict(command="x", seed=0, inputs={}, outputs={}, wall_time_s=0.0)
        assert ResultRecord(passed=None, **base).exit_code == 0
        assert ResultRecord(passed=True, **base).exit_code == 0
        assert ResultRecord(passed=False, **base).exit_code == 2

    def test_deterministic_modulo_wall_time(self):
        cfg = ExperimentConfig("verify-ibp", {
            "sigma": "1,2", "method": "quadrature", "nodes": 12, "horizon": 0.25,
        })
        texts = []
        for _ in range(2):
            lines = run(cfg).to_json().splitlines()
            texts.append("\n".join(l for l in lines if "wall_time_s" not in l))
        assert texts[0] == texts[1]


class TestCliExitCodes:
    def test_pass_is_zero(self, capsys):
        code, out = run_cli(capsys, [
            "verify-ibp", "--sigma", "2,1", "--method", "quadrature",
            "--nodes", "16", "--horizon", "0.25",
        ])
        assert code == 0
        assert record_of(out)["pass"] is True

    def test_quantitative_failure_is_two(self, capsys):
        # an unreachable relative tolerance flips the verdict, not the exit path
        code, out = run_cli(capsys, [
            "verify-ibp", "--sigma", "2,1", "--method", "quadrature",
            "--nodes", "16", "--horizon", "0.25", "--rel-tol", "1e-18",
        ])
        assert code == 2
        rec = record_of(out)
        assert rec["pass"] is False
        assert rec["outputs"]["identity_gap"] > rec["outputs"]["identity_tol"]

    def test_config_error_is_one(self, capsys):
        code = main(["verify-ibp", "--sigma", "2,2"])
        err = capsys.readouterr().err
        assert code == 1
        assert "sigma" in err

    def test_missing_required_is_one(self, capsys):
        assert main(["verify-ibp"]) == 1
        assert "sigma" in capsys.readouterr().err

    def test_unknown_subcommand_is_one(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_help_is_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "sample-sheet" in capsys.readouterr().out


class TestCliBehavior:
    def test_stdout_is_one_json_record(self, capsys):
        code, out = run_cli(capsys, ["sample-sheet", "--grid", "4x4", "--seed", "7"])
        assert code == 0
        rec = record_of(out)
        assert rec["command"] == "sample-sheet"
        assert rec["seed"] == 7
        assert list(rec) == RECORD_KEYS

    def test_byte_determinism(self, capsys):
        argv = ["expand-ibp", "--sigma", "3,1,2"]
        outs = []
        for _ in range(2):
            _, out = run_cli(capsys, argv)
            outs.append("\n".join(l for l in out.splitlines() if "wall_time_s" not in l))
        assert outs[0] == outs[1]

    def test_env_seed_default(self, capsys, monkeypatch):
        monkeypatch.setenv("SHEETSDE_SEED", "77")
        _, out = run_cli(capsys, ["sample-sheet", "--grid", "3x3"])
        assert record_of(out)["seed"] == 77

    def test_flag_beats_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("SHEETSDE_SEED", "77")
        _, out = run_cli(capsys, ["sample-sheet", "--grid", "3x3", "--seed", "5"])
        assert record_of(out)["seed"] == 5

    def test_config_file_overlay(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 5, "dim": 2}))
        _, out = run_cli(capsys, [
            "sample-sheet", "--grid", "3x3", "--config", str(cfg), "--dim", "3",
        ])
        rec = record_of(out)
        assert rec["seed"] == 5  # file fills the unset seed
        assert rec["outputs"]["dim"] == 3  # explicit flag beats the file

    def test_config_file_invalid_json(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{nope")
        code = main(["sample-sheet", "--config", str(cfg)])
        assert code == 1
        assert "config" in capsys.readouterr().err

    def test_sheet_csv_export(self, capsys, tmp_path):
        path = tmp_path / "sheet.csv"
        code, out = run_cli(capsys, [
            "sample-sheet", "--grid", "4x4", "--seed", "2", "--out", str(path),
        ])
        assert code == 0
        assert record_of(out)["outputs"]["csv_path"] == str(path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["i", "j", "component", "z"]
        assert len(rows) == 1 + 16

    def test_solution_csv_export(self, capsys, tmp_path):
        path = tmp_path / "field.csv"
        code, _ = run_cli(capsys, [
            "solve-sde", "--grid", "4x4", "--drift", "const", "--out", str(path),
        ])
        assert code == 0
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["i", "j", "s", "t", "x0"]
        assert len(rows) == 1 + 25

    def test_verify_ibp_time_flags(self, capsys):
        base = ["verify-ibp", "--sigma", "2,1", "--method", "quadrature", "--nodes", "16"]
        _, on_grid = run_cli(capsys, base + ["--horizon", "0.25"])
        _, explicit = run_cli(capsys, base + ["--s-times", "0.125,0.25", "--t-times", "0.125,0.25"])
        assert record_of(explicit)["inputs"]["s_times"] == "0.125,0.25"
        assert record_of(explicit)["outputs"] == record_of(on_grid)["outputs"]

    def test_expand_terms_json_export(self, capsys, tmp_path):
        path = tmp_path / "terms.json"
        code, _ = run_cli(capsys, ["expand-ibp", "--sigma", "2,1,3", "--out", str(path)])
        assert code == 0
        with open(path) as fh:
            terms = json.load(fh)
        assert len(terms) == 4
        assert {t["sign"] for t in terms} == {-1, 1}
