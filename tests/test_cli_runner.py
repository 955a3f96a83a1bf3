"""Experiment runner API, JSON record contract, and CLI exit codes."""

import csv
import hashlib
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from conftest import NoArrays, counting_eval, counting_jacobian, reference_term_dicts
from sheetsde import cli_runner, integrators, sde_plane, shuffle_combinatorics
from sheetsde.brownian_sheet import cumulative_values, sample, stream
from sheetsde.cli_runner import (
    ConfigError,
    ExperimentConfig,
    RawJSON,
    ResultRecord,
    main,
    run,
)
from sheetsde.ibp_engine import TermTable, expand, uniform_spec
from sheetsde.plane_geometry import uniform_grid
from sheetsde.sde_plane import (
    constant_drift,
    paired_weak_expectation,
    sign_drift,
    tanh_drift,
)

# sha256 per n of the term lists of every sigma; its "about" key gives the recipe
EXPAND_DIGESTS = Path(__file__).parent / "data" / "expand_digests.json"

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


# the `--grid 3x4 --dim 2 --out` files at seed 0 as per-cell csv.writer loops write
# them: the array writer must reproduce every byte
SHEET_CSV_3X4_DIM2 = (
    "i,j,component,z\r\n"
    "1,1,1,-0.059459580437577014\r\n"
    "1,1,2,-0.037194333552915675\r\n"
    "1,2,1,-0.083655131311553249\r\n"
    "1,2,2,-0.36717839887133746\r\n"
    "1,3,1,-0.40600278429549053\r\n"
    "1,3,2,0.012530717821663939\r\n"
    "1,4,1,-0.15853140779563255\r\n"
    "1,4,2,0.17667170539854146\r\n"
    "2,1,1,0.1712073608004176\r\n"
    "2,1,2,0.27663137015698402\r\n"
    "2,2,1,0.092214208078194998\r\n"
    "2,2,2,0.20912794621222297\r\n"
    "2,3,1,0.48520062289759769\r\n"
    "2,3,2,0.44072393671061388\r\n"
    "2,4,1,-0.056629211769611505\r\n"
    "2,4,2,-0.27085182575458933\r\n"
    "3,1,1,-0.5628698096599174\r\n"
    "3,1,2,0.17309348213052644\r\n"
    "3,2,1,-0.54916468949037112\r\n"
    "3,2,2,0.26241330562884785\r\n"
    "3,3,1,-0.038543446730219748\r\n"
    "3,3,2,0.43811940138029448\r\n"
    "3,4,1,0.10233485617537608\r\n"
    "3,4,2,-0.29779285592002636\r\n"
)
FIELD_CSV_3X4_DIM2 = (
    "i,j,s,t,x0,x1\r\n"
    "0,0,0,0,0,0\r\n"
    "0,1,0,0.25,0,0\r\n"
    "0,2,0,0.5,0,0\r\n"
    "0,3,0,0.75,0,0\r\n"
    "0,4,0,1,0,0\r\n"
    "1,0,0.33333333333333331,0,0,0\r\n"
    "1,1,0.33333333333333331,0.25,-0.059459580437577014,-0.037194333552915675\r\n"
    "1,2,0.33333333333333331,0.5,-0.14311471174913026,-0.40437273242425315\r\n"
    "1,3,0.33333333333333331,0.75,-0.54911749604462079,-0.39184201460258922\r\n"
    "1,4,0.33333333333333331,1,-0.70764890384025336,-0.21517030920404775\r\n"
    "2,0,0.66666666666666663,0,0,0\r\n"
    "2,1,0.66666666666666663,0.25,0.11174778036284058,0.23943703660406834\r\n"
    "2,2,0.66666666666666663,0.5,0.115357723176987,0.078288484673028902\r\n"
    "2,3,0.66666666666666663,0.75,0.1827100978107179,0.49956945486272847\r\n"
    "2,4,0.66666666666666663,1,-0.074105396791007694,0.37431040735302346\r\n"
    "3,0,1,0,0,0\r\n"
    "3,1,1,0.25,-0.45112202929707679,0.41253051873459479\r\n"
    "3,2,1,0.5,-0.98740303101346416,0.53337560048715749\r\n"
    "3,3,1,0.75,-0.94902337574233897,1.3992867162397138\r\n"
    "3,4,1,1,-1.0884453684284328,1.0147163535309411\r\n"
)


def record_of(out: str) -> dict:
    return json.loads(out)


def record_dict(rec: ResultRecord) -> dict:
    """The record's fields under their JSON keys, in record order; RawJSON outputs parsed."""
    outputs = {k: json.loads(v.text) if isinstance(v, RawJSON) else v for k, v in rec.outputs.items()}
    return dict(zip(RECORD_KEYS, (rec.schema_version, rec.artifact_version, rec.command, rec.seed,
                                  rec.inputs, outputs, rec.passed, rec.wall_time_s)))


def without_wall_time(text: str) -> str:
    """The record re-dumped with every key in its own order, wall_time_s dropped."""
    pairs = json.loads(text, object_pairs_hook=lambda pairs: pairs)
    kept = [(k, v) for k, v in pairs if k != "wall_time_s"]
    assert len(kept) == len(pairs) - 1, "a record holds exactly one wall_time_s"
    return json.dumps(kept)


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
        signs = [t["sign"] for t in json.loads(rec.outputs["terms"].text)]
        assert signs == [-1, 1, 1, -1]

    def test_verify_ibp_exact(self):
        rec = run(ExperimentConfig("verify-ibp", {
            "sigma": "2,1", "method": "exact", "s_times": "0.125,0.25", "t_times": "0.125,0.25",
        }))
        assert rec.passed is True
        assert rec.outputs["identity_gap"] <= rec.outputs["identity_tol"]

    @pytest.mark.parametrize("command, params, key", [
        ("verify-shuffle", {"sampels": 10, "samples": 200}, "sampels"),
        ("verify-ibp", {"sigma": "2,1", "n": 2}, "n"),
        ("verify-ibp", {"sigma": "2,1", "horizon": 0.25}, "horizon"),
        ("expand-ibp", {"sigma": "2,1", "s_times": "0.2,0.7"}, "s_times"),
        ("malliavin-check", {"grid": "4x4", "tolerance": 1e-8}, "tolerance"),
        ("sample-sheet", {"grid": "2x2", "config": "cfg.json"}, "config"),
        ("verify-bound", {"trials": 2, "allowed_failures": 1}, "allowed_failures"),
    ])
    def test_undeclared_key_is_a_config_error(self, command, params, key):
        # an undeclared key was once echoed into inputs and ignored, so a typo
        # ran with the default and passed
        with pytest.raises(ConfigError, match=f"^{key}: not a parameter of {command}$") as info:
            run(ExperimentConfig(command, params))
        assert info.value.field_name == key

    def test_verify_bound_small(self):
        rec = run(ExperimentConfig("verify-bound", {"trials": 3, "n_set": "2"}))
        assert rec.passed is True
        assert rec.outputs["n_violations"] == 0
        assert len(rec.outputs["max_ratio"]) == 1 and 0.0 < rec.outputs["max_ratio"][0] < 1.0

    def test_verify_bound_max_ratio_is_null_for_an_undrawn_n(self):
        rec = run(ExperimentConfig("verify-bound", {"trials": 1, "n_set": "1,2,3,4,5,6"}))
        assert sum(r is not None for r in rec.outputs["max_ratio"]) == 1

    def test_verify_bound_makes_one_generator(self, monkeypatch):
        # the direct side is exact, so the sweep's only generator is the
        # configuration stream (seed, 0): no Monte Carlo pass draws a key
        keys = []

        def recording(*key):
            keys.append(key)
            return stream(*key)

        monkeypatch.setattr(cli_runner, "stream", recording)
        monkeypatch.setattr(integrators, "stream", recording)
        for seed in range(4):
            run(ExperimentConfig("verify-bound", {"trials": 4, "n_set": "2", "seed": seed}))
        assert keys == [(seed, 0) for seed in range(4)]

    def test_verify_shuffle(self):
        rec = run(ExperimentConfig("verify-shuffle", {"kind": "nabla", "m": 2, "k": 1,
                                                      "samples": 2000}))
        assert rec.passed is True
        assert rec.outputs["n_cells"] == 4

    def test_verify_shuffle_split_product(self):
        # the cells of all three chain groups: 6 upper x 6 lower x 90 total labels
        rec = run(ExperimentConfig("verify-shuffle", {"kind": "lambda", "m": 3, "k": 1, "n": 1,
                                                      "samples": 400}))
        assert rec.passed is True
        assert rec.outputs["n_cells"] == 3240

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
        # the default gate is eps^2, the order of the central difference's error
        assert rec.outputs["tolerance"] == rec.outputs["eps"] ** 2 == 1e-8
        assert rec.outputs["rel_err"] <= 1e-8

    def test_malliavin_check_evaluates_jacobian_once(self, monkeypatch):
        # a per-cell derivative loop re-evaluates the Jacobian ~n^3/2 times, and
        # three separate Euler solves evaluate the drift on 16-row slices 48 times
        calls, evals = [], []
        monkeypatch.setattr(cli_runner, "tanh_drift", lambda *args: counting_jacobian(
            counting_eval(tanh_drift(*args), evals), calls))
        for op in range(2):
            rec = run(ExperimentConfig("malliavin-check", {"grid": "16x16", "seed": op}))
            assert rec.passed is True
            assert calls == [(16, 16, 1)] * (op + 1)
            assert evals == [(3, 16, 1)] * 16 * (op + 1)

    def test_girsanov_check(self):
        rec = run(ExperimentConfig("girsanov-check", {
            "grid": "8x8", "samples": 4000, "drift": "tanh",
        }))
        assert rec.passed is True
        assert rec.outputs["gap_se"] <= 4.0
        assert rec.outputs["weight_z"] <= 4.0

    GIRSANOV_CFG = {"grid": "32x32", "samples": 2048, "drift": "sign", "seed": 17, "x0": 0.1}

    def test_girsanov_check_deterministic_under_threads(self, monkeypatch):
        # shards own their streams and merge in shard order, so neither the
        # schedule nor the pool's size can reach the record
        texts = []
        for workers in (None, 1, 4):
            if workers is not None:
                monkeypatch.setattr(integrators, "_pool_workers", lambda shards, w=workers: w)
            texts.append(without_wall_time(
                run(ExperimentConfig("girsanov-check", self.GIRSANOV_CFG)).to_json()))
        assert texts[0] == texts[1] == texts[2]

    @pytest.mark.parametrize("command, cfg", [
        ("verify-ibp", {"sigma": "2,1,4,3", "samples": 20_000}),
    ])
    def test_independent_passes_deterministic_under_pool_size(self, monkeypatch, command, cfg):
        # each pass owns its stream and results come back in argument order,
        # so the pool's size cannot reach the record
        texts = []
        for workers in (None, 1, 4):
            if workers is not None:
                monkeypatch.setattr(integrators, "_pool_workers", lambda tasks, w=workers: w)
            texts.append(without_wall_time(run(ExperimentConfig(command, cfg)).to_json()))
        assert texts[0] == texts[1] == texts[2]

    def test_girsanov_check_matches_paired_library_call(self):
        rec = run(ExperimentConfig("girsanov-check", self.GIRSANOV_CFG))
        est = paired_weak_expectation(lambda x: np.tanh(x[..., 0]), sign_drift(), 0.1,
                                      uniform_grid(32, 32), 2048, 17)
        for key, part in (("girsanov", est.girsanov), ("euler", est.euler),
                          ("gap", est.gap), ("mean_weight", est.weight)):
            assert rec.outputs[key] == {
                "mean": part.mean, "std_error": part.std_error, "n_samples": part.n_samples,
            }
        # the gate reads the paired SE of the per-sheet difference
        assert rec.outputs["gap_se"] == abs(est.gap.mean) / est.gap.std_error
        assert rec.outputs["weight_z"] == abs(est.weight.mean - 1.0) / est.weight.std_error

    def test_girsanov_check_gate_rejects_a_driftless_euler_column(self, monkeypatch):
        # mutation: the Euler column ignores the drift while the Girsanov column
        # reweights by tanh; the paired 4-SE gate must see the gap
        euler_phi = sde_plane._euler_phi
        monkeypatch.setattr(sde_plane, "_euler_phi",
                            lambda phi, drift, *rest: euler_phi(phi, constant_drift(0.0), *rest))
        rec = run(ExperimentConfig("girsanov-check", {
            "grid": "16x16", "samples": 10_000, "drift": "tanh", "seed": 5, "x0": 0.1,
        }))
        assert rec.outputs["gap_se"] > 4.0
        assert rec.passed is False

    def test_bad_grid_string(self):
        with pytest.raises(ConfigError):
            run(ExperimentConfig("sample-sheet", {"grid": "4by4"}))

    def test_seed_from_2_128_is_a_config_error(self):
        # stream keys collide from 2**128 on, so the largest seed is 2**128 - 1
        with pytest.raises(ConfigError) as info:
            run(ExperimentConfig("sample-sheet", {"seed": 2**128}))
        assert info.value.field_name == "seed"
        rec = run(ExperimentConfig("sample-sheet", {"grid": "2x2", "seed": 2**128 - 1}))
        assert rec.seed == 2**128 - 1

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

    @pytest.mark.parametrize("command, field, value", [
        ("verify-ibp", "sigma", [2.5, 1]),
        ("verify-bound", "n_set", [2.7]),
        ("verify-ibp", "sigma", []),
        ("verify-bound", "n_set", []),
    ])
    def test_count_lists_reject_bad_entries(self, command, field, value):
        # a config file's fractional entries were once truncated to the integer
        # below, and its empty lists leaked numpy's messages, which named no field
        with pytest.raises(ConfigError) as info:
            run(ExperimentConfig(command, {field: value}))
        assert info.value.field_name == field

    @pytest.mark.parametrize("value", ["false", 0])
    def test_geometric_rejects_non_booleans(self, value):
        # bool("false") is True, so a config file's "false" once built a geometric grid
        with pytest.raises(ConfigError) as info:
            run(ExperimentConfig("sample-sheet", {"grid": "3x3", "geometric": value}))
        assert info.value.field_name == "geometric"

    def test_geometric_accepts_true(self):
        params = {"grid": "3x3", "horizon": 2.0, "seed": 4}
        graded = run(ExperimentConfig("sample-sheet", {**params, "geometric": True}))
        uniform = run(ExperimentConfig("sample-sheet", {**params, "geometric": False}))
        assert graded.outputs["sup_abs_value"] != uniform.outputs["sup_abs_value"]

    @pytest.mark.parametrize("times", [[0.125, 0.25], (0.125, 0.25), "0.125,0.25"])
    def test_time_lists_accept_lists_and_strings(self, times):
        # a config file gives s_times as a JSON list, the command line as a string
        rec = run(ExperimentConfig("verify-ibp", {
            "sigma": "2,1", "method": "exact",
            "s_times": times, "t_times": times,
        }))
        on_grid = run(ExperimentConfig("verify-ibp", {
            "sigma": "2,1", "method": "exact", "s_times": "0.125,0.25", "t_times": "0.125,0.25",
        }))
        assert rec.outputs == on_grid.outputs

    @pytest.mark.parametrize("field, value", [
        ("s_times", "0.2,,0.7"), ("t_times", "0.3,0.9,"), ("s_times", [0.2, "", 0.7]),
    ])
    def test_time_lists_reject_empty_fields(self, field, value):
        # empty fields were once dropped, so a list of three fields gave two times
        times = {"s_times": "0.2,0.7", "t_times": "0.3,0.9", field: value}
        with pytest.raises(ConfigError, match=f"^{field}: expected a number, got ''$"):
            run(ExperimentConfig("verify-ibp", {"sigma": "2,1", "method": "exact", **times}))

    @pytest.mark.parametrize("times, field", [
        ({"s_times": "0.2,0.7", "t_times": "0.3"}, "t_times"),
        ({"t_times": "0.3,0.5"}, "s_times"),
        ({"s_times": "0.2", "t_times": "0.3"}, "s_times"),
    ])
    def test_time_list_length_error_names_the_short_list(self, times, field):
        # the error once named s_times whichever list was short
        with pytest.raises(ConfigError, match=f"^{field}: need 2 values in each of s_times and t_times$") as info:
            run(ExperimentConfig("verify-ibp", {"sigma": "2,1", "method": "exact", **times}))
        assert info.value.field_name == field

    def test_time_lists_empty_config_list_means_default_times(self):
        default = run(ExperimentConfig("verify-ibp", {"sigma": "2,1", "method": "exact"}))
        empty = run(ExperimentConfig("verify-ibp", {"sigma": "2,1", "method": "exact",
                                                    "s_times": [], "t_times": []}))
        assert empty.outputs == default.outputs

    @pytest.mark.parametrize("eps", [0.0, -1e-4])
    def test_malliavin_check_rejects_nonpositive_eps(self, eps):
        with pytest.raises(ConfigError) as info:
            run(ExperimentConfig("malliavin-check", {"grid": "4x4", "eps": eps}))
        assert info.value.field_name == "eps"

    @pytest.mark.parametrize("kind", ["nabla", "nabla_tilde"])
    def test_verify_shuffle_single_group_kinds_reject_n(self, kind):
        # a nabla kind once scanned the n = 0 region and recorded the n it was given
        with pytest.raises(ConfigError) as info:
            run(ExperimentConfig("verify-shuffle", {"kind": kind, "n": 1, "samples": 200}))
        assert info.value.field_name == "n"

    @pytest.mark.parametrize("k,count", [(2, 6350400), (3, 136604160000)])
    def test_verify_shuffle_rejects_products_past_the_limit(self, monkeypatch, k, count):
        # 4 k <= 12 positions per family, but 2520^2 or 369600^2 cells
        monkeypatch.setattr(shuffle_combinatorics, "np", NoArrays())
        with pytest.raises(ValueError, match=f"label tuples, got {count}"):
            run(ExperimentConfig("verify-shuffle", {"kind": "nabla", "m": 4, "k": k}))
        assert main(["verify-shuffle", "--kind", "nabla", "--m", "4", "--k", str(k)]) == 1


class TestRecordFormat:
    def test_key_order(self):
        rec = run(ExperimentConfig("sample-sheet", {"grid": "3x3"}))
        parsed = json.loads(rec.to_json(), object_pairs_hook=lambda pairs: pairs)
        assert [k for k, _ in parsed] == RECORD_KEYS

    def test_to_json_is_one_compact_line(self):
        rec = run(ExperimentConfig("expand-ibp", {"sigma": "2,1,3"}))
        text = rec.to_json()
        assert "\n" not in text
        assert text == json.dumps(record_dict(rec), separators=(",", ":"))

    # one cheap configuration per subcommand
    CHEAP_CFGS = {
        "sample-sheet": {"grid": "3x3", "dim": 2},
        "expand-ibp": {"sigma": "3,1,4,2"},
        "verify-ibp": {"sigma": "2,1", "method": "exact", "s_times": "0.125,0.25", "t_times": "0.125,0.25"},
        "verify-bound": {"trials": 2, "n_set": "2"},
        "verify-shuffle": {"kind": "nabla", "m": 2, "k": 1, "samples": 200},
        "simplex-gamma": {"n": 1, "mc_samples": 2000},
        "solve-sde": {"grid": "4x4", "scheme": "picard"},
        "malliavin-check": {"grid": "4x4", "seed": 3},
        "girsanov-check": {"grid": "4x4", "samples": 200, "drift": "sign"},
    }

    def test_cheap_configs_cover_every_subcommand(self):
        assert sorted(self.CHEAP_CFGS) == sorted(cli_runner.COMMANDS)

    @pytest.mark.parametrize("command", sorted(CHEAP_CFGS))
    def test_to_json_matches_default_encoder(self, command):
        # the record encoder skips the cycle walk; the bytes must equal json.dumps,
        # whose default encoder walks for cycles
        rec = run(ExperimentConfig(command, self.CHEAP_CFGS[command]))
        assert rec.to_json() == json.dumps(record_dict(rec), separators=(",", ":"))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_output_cannot_be_written(self, value):
        rec = ResultRecord(command="x", seed=0, inputs={}, outputs={"estimate": [1.0, value]},
                           passed=True, wall_time_s=0.0)
        with pytest.raises(ValueError):
            rec.to_json()

    def test_exit_codes(self):
        base = dict(command="x", seed=0, inputs={}, outputs={}, wall_time_s=0.0)
        assert ResultRecord(passed=None, **base).exit_code == 0
        assert ResultRecord(passed=True, **base).exit_code == 0
        assert ResultRecord(passed=False, **base).exit_code == 2

    def test_deterministic_modulo_wall_time(self):
        cfg = ExperimentConfig("verify-ibp", {
            "sigma": "1,2", "method": "exact", "s_times": "0.125,0.25", "t_times": "0.125,0.25",
        })
        texts = []
        for _ in range(2):
            texts.append(without_wall_time(run(cfg).to_json()))
        assert texts[0] == texts[1]


class TestCliExitCodes:
    def test_pass_is_zero(self, capsys):
        code, out = run_cli(capsys, [
            "verify-ibp", "--sigma", "2,1", "--method", "exact",
            "--s-times", "0.125,0.25", "--t-times", "0.125,0.25",
        ])
        assert code == 0
        assert record_of(out)["pass"] is True
        code, out = run_cli(capsys, ["verify-bound", "--trials", "3", "--n-set", "2"])
        assert code == 0 and record_of(out)["pass"] is True

    def test_quantitative_failure_is_two(self, capsys):
        # a pass window far narrower than one SE flips the verdict, not the exit path
        code, out = run_cli(capsys, [
            "verify-ibp", "--sigma", "2,1", "--method", "mc", "--samples", "1e3",
            "--se-width", "1e-9",
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

    def test_one_oracle_sample_is_one(self, capsys):
        # one Dirichlet draw has no standard error: a NaN record, not a check
        code = main(["simplex-gamma", "--mc-samples", "1"])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert "need n_samples >= 2" in err

    def test_zero_eps_is_one(self, capsys):
        # eps 0 divides by zero in the central difference: a NaN record, not a check
        code, out = run_cli(capsys, ["malliavin-check", "--grid", "4x4", "--eps", "0"])
        assert code == 1
        assert out == ""

    @pytest.mark.parametrize("argv, field", [
        (["solve-sde", "--grid", "4x4", "--x0", "nan"], "x0"),
        (["verify-ibp", "--sigma", "2,1", "--samples", "2000", "--se-width", "inf"], "se_width"),
        (["girsanov-check", "--grid", "2x2", "--samples", "100", "--se-width", "inf"], "se_width"),
        (["verify-ibp", "--sigma", "2,1", "--samples", "2000", "--se-width", "0"], "se_width"),
        (["verify-ibp", "--sigma", "2,1", "--samples", "2000", "--se-width", "-1"], "se_width"),
        (["girsanov-check", "--grid", "2x2", "--samples", "100", "--se-width", "0"], "se_width"),
        (["girsanov-check", "--grid", "2x2", "--samples", "100", "--se-width", "-1"], "se_width"),
    ])
    def test_non_finite_number_is_one(self, capsys, argv, field):
        # NaN is not JSON, and an infinite or non-positive SE width makes a
        # gate that cannot fail or cannot pass
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        reason = "must be finite" if argv[-1] in ("nan", "inf") else "must be positive"
        assert f"{field}: {reason}" in captured.err

    @pytest.mark.parametrize("n_set", ["0", "-2", "2,0"])
    def test_n_set_below_one_is_one(self, capsys, n_set):
        # n = 0 and negative n once leaked numpy's messages, which named no field
        code = main(["verify-bound", "--trials", "2", "--n-set", n_set])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err.startswith("error: n_set: must be >= 1")

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_output_is_one(self, capsys):
        # finite inputs whose solution overflows: the solver names the point,
        # before the JSON encoder ever sees an Infinity
        code = main(["solve-sde", "--grid", "2x2", "--drift", "const", "--level", "1e308",
                     "--x0", "1e308"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert "euler solution is not finite at grid point (2, 2)" in captured.err
        assert "JSON" not in captured.err

    def test_seed_from_2_128_is_one(self, capsys):
        code = main(["sample-sheet", "--seed", str(2**128)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err.startswith("error: seed: must be < 2**128")

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

    @pytest.mark.parametrize("argv", [
        ["sample-sheet", "--grid", "3x3"],
        ["expand-ibp", "--sigma", "2,1,3"],
        ["verify-ibp", "--sigma", "2,1", "--method", "exact"],
    ])
    def test_stdout_is_one_line(self, capsys, argv):
        _, out = run_cli(capsys, argv)
        assert out.endswith("\n") and out.count("\n") == 1

    def test_record_terms_are_the_digested_bytes(self, capsys):
        # the terms array inside each record is byte for byte the canonical
        # form that the golden digests hash, one sigma per line
        digest = hashlib.sha256()
        for sigma in itertools.permutations("123"):
            _, out = run_cli(capsys, ["expand-ibp", "--sigma", ",".join(sigma)])
            start = out.index('"terms":') + len('"terms":')
            digest.update(out[start:out.index(',"terms_path":', start)].encode() + b"\n")
        assert digest.hexdigest() == json.loads(EXPAND_DIGESTS.read_text())["sha256"]["3"]

    def test_byte_determinism(self, capsys):
        argv = ["expand-ibp", "--sigma", "3,1,2"]
        outs = []
        for _ in range(2):
            _, out = run_cli(capsys, argv)
            outs.append(without_wall_time(out))
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

    def test_config_file_undeclared_key_is_one(self, capsys, tmp_path):
        # a typo in a config file once ran with the default budget and exited 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sampels": 7, "grid": "2x2"}))
        code = main(["sample-sheet", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == "error: sampels: not a parameter of sample-sheet\n"

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

    @pytest.mark.parametrize("command, want", [("sample-sheet", SHEET_CSV_3X4_DIM2),
                                               ("solve-sde", FIELD_CSV_3X4_DIM2)])
    def test_csv_export_bytes(self, capsys, tmp_path, command, want):
        path = tmp_path / "out.csv"
        code, _ = run_cli(capsys, [command, "--grid", "3x4", "--dim", "2", "--out", str(path)])
        assert code == 0
        assert path.read_bytes() == want.encode()

    def test_verify_ibp_time_flags(self, capsys):
        # without times verify-ibp places its points at k/n
        base = ["verify-ibp", "--sigma", "2,1", "--method", "exact"]
        _, default = run_cli(capsys, base)
        _, explicit = run_cli(capsys, base + ["--s-times", "0.5,1", "--t-times", "0.5,1"])
        assert record_of(explicit)["inputs"]["s_times"] == "0.5,1"
        assert record_of(explicit)["outputs"] == record_of(default)["outputs"]

    def test_expand_terms_json_export(self, capsys, tmp_path):
        path = tmp_path / "terms.json"
        code, out = run_cli(capsys, ["expand-ibp", "--sigma", "2,1,3", "--out", str(path)])
        assert code == 0
        with open(path) as fh:
            text = fh.read()
        terms = json.loads(text)
        assert len(terms) == 4
        assert {t["sign"] for t in terms} == {-1, 1}
        # the file holds the record's terms array in the same one-line form
        assert text == json.dumps(record_of(out)["outputs"]["terms"], separators=(",", ":")) + "\n"

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_expand_term_bytes_match_encoder(self, tmp_path, n):
        # the record and the --out file write TermTable.to_json verbatim; for every
        # sigma their bytes must be the record encoder's for the cell-by-cell dict form
        path = tmp_path / "terms.json"
        for sigma in itertools.permutations(range(1, n + 1)):
            rec = run(ExperimentConfig("expand-ibp", {"sigma": ",".join(map(str, sigma)), "out": str(path)}))
            dicts = reference_term_dicts(expand(uniform_spec(sigma)))
            want = dict(record_dict(rec), outputs=dict(rec.outputs, terms=dicts))
            assert rec.to_json() == cli_runner._ENCODER.encode(want), sigma
            assert path.read_text() == cli_runner._ENCODER.encode(dicts) + "\n", sigma

    def test_expand_renders_terms_once(self, capsys, tmp_path, monkeypatch):
        # one op writes the same text to the record and the --out file
        calls = []
        to_json = TermTable.to_json
        monkeypatch.setattr(TermTable, "to_json", lambda self: calls.append(self) or to_json(self))
        code, _ = run_cli(capsys, ["expand-ibp", "--sigma", "2,4,1,3", "--out", str(tmp_path / "t.json")])
        assert code == 0
        assert len(calls) == 1
