"""The study scripts run end to end on tiny inputs.

Each script runs in its own subprocess, so an API change that breaks a
script fails here.  The two start together when the module's first test
asks for them, so the module costs about one script's wall time.  The
benchmark pair script's summary is checked on synthetic runs.
"""

import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# script: (arguments, CSV header, number of data rows)
RUNS = {
    "identity_sweep.py": (
        ["--n", "2", "--mc-budgets", "2000"],
        "sigma,method,budget,direct,ibp,gap,tol,bound,identity_ok,bound_ok", 4),
    "girsanov_comparison.py": (
        ["--meshes", "4,8", "--samples", "2000"],
        "mesh,girsanov,girsanov_se,euler,euler_se,gap_se", 2),
}


@pytest.fixture(scope="module")
def launched():
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    procs = {
        name: subprocess.Popen([sys.executable, str(ROOT / "scripts" / name), *argv],
                               stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
        for name, (argv, _, _) in RUNS.items()
    }
    yield procs
    for proc in procs.values():
        proc.kill()
        proc.communicate()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_script_writes_its_csv(launched, name):
    out, err = launched[name].communicate(timeout=120)
    assert launched[name].returncode == 0, err
    _, header, rows = RUNS[name]
    lines = out.splitlines()
    assert lines[0] == header
    assert len(lines) == 1 + rows


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pair_flags_only_shifts_beyond_the_parent_iqr():
    summarise = load_script("bench_pair").summarise
    parent = [100.0 + k for k in range(10)]  # inclusive quartiles 102.25 and 106.75

    def pairs(shift):
        shifts = shift if isinstance(shift, list) else [shift] * len(parent)
        return [{"seed": k, "parent": {"metrics": {"ops_per_s": p}, "attempted": 5, "failed": 0},
                 "change": {"metrics": {"ops_per_s": p + dp}, "attempted": 5, "failed": 0}}
                for k, (p, dp) in enumerate(zip(parent, shifts))]

    wide = summarise(pairs(10.0), {"ops_per_s": "higher"})["metrics"]["ops_per_s"]
    assert (wide["change_wins"], wide["median_shift_beyond_parent_iqr"]) == (10, "gain")
    assert wide["parent_iqr"] == 4.5
    assert wide["parent_iqr_rel"] == 4.5 / 104.5
    # every pair wins, but the median moves by less than the parent's own spread;
    # the paired statistics disagree with the flag: the sign test sees 10 of 10
    narrow = summarise(pairs(2.0), {"ops_per_s": "higher"})["metrics"]["ops_per_s"]
    assert (narrow["change_wins"], narrow["median_shift_beyond_parent_iqr"]) == (10, None)
    assert narrow["sign_test_p"] == 2 / 2 ** 10
    assert narrow["median_log_ratio"] == pytest.approx((math.log(106 / 104) + math.log(107 / 105)) / 2)
    loss = summarise(pairs(10.0), {"ops_per_s": "lower"})["metrics"]["ops_per_s"]
    assert (loss["change_wins"], loss["median_shift_beyond_parent_iqr"]) == (0, "loss")
    # five pairs gain 20 and five lose 1: the median clears the IQR and is
    # flagged, while the pairs split evenly and the sign test sees nothing
    split = summarise(pairs([20.0] * 5 + [-1.0] * 5), {"ops_per_s": "higher"})["metrics"]["ops_per_s"]
    assert (split["change_wins"], split["median_shift_beyond_parent_iqr"]) == (5, "gain")
    assert split["sign_test_p"] == 1.0
    assert split["median_log_ratio"] == pytest.approx((math.log(108 / 109) + math.log(124 / 104)) / 2)
    # ties leave the sign test: 3 wins, no loss
    ties = summarise(pairs([1.0] * 3 + [0.0] * 7), {"ops_per_s": "higher"})["metrics"]["ops_per_s"]
    assert (ties["sign_test_p"], ties["median_log_ratio"]) == (2 / 2 ** 3, 0.0)


def test_bench_pair_sets_each_move_against_the_aa_spread(tmp_path):
    script = load_script("bench_pair")
    parent = [100.0 + k for k in range(10)]

    def runs(factors, rss=50.0):
        return [{"seed": k, "parent": {"metrics": {"ops_per_s": p, "peak_rss_mb": 50.0}},
                 "change": {"metrics": {"ops_per_s": p * f, "peak_rss_mb": rss}}}
                for k, (p, f) in enumerate(zip(parent, factors))]

    def summary(factor):
        return script.summarise(runs([factor] * 10), {"ops_per_s": "higher", "peak_rss_mb": "lower"})

    # A/A pairs whose log ratios have quartiles -0.02 and 0.01 (inclusive method) and median
    # -0.005: a move must clear the larger quartile, 0.02, not the A/A median
    aa_logs = [-0.04, -0.03, -0.02, -0.02, -0.01, 0.0, 0.01, 0.01, 0.02, 0.03]
    (tmp_path / "BENCH_AA.json").write_text(json.dumps({"workloads": {"weak_mc": {
        "summary": {}, "runs": runs([math.exp(x) for x in aa_logs])}}}))
    aa = script.aa_log_quartiles(tmp_path)["weak_mc"]
    assert aa["ops_per_s"] == pytest.approx([-0.02, 0.01])
    assert "peak_rss_mb" in aa
    for factor, beyond in ((1.03, True), (1 / 1.03, True), (1.01, False), (0.99, False)):
        moved = summary(factor)
        script.compare_with_aa(moved, aa)
        ops = moved["metrics"]["ops_per_s"]
        assert ops["aa_log_quartiles"] == aa["ops_per_s"]
        assert ops["beyond_aa"] is beyond
    # a quantised metric: A/A quartiles 0 and 0.01 with the median at 0; a 0.5% move
    # cleared |A/A median| but stays inside the quartiles
    rss_aa = {"peak_rss_mb": [0.0, 0.01]}
    moved = script.summarise(runs([1.0] * 10, rss=50.25), {"peak_rss_mb": "lower"})
    script.compare_with_aa(moved, rss_aa)
    assert moved["metrics"]["peak_rss_mb"]["beyond_aa"] is False
    # a metric the A/A run lacks has no spread to clear
    moved = summary(1.03)
    script.compare_with_aa(moved, {})
    assert moved["metrics"]["ops_per_s"]["beyond_aa"] is None
    assert moved["metrics"]["ops_per_s"]["aa_log_quartiles"] is None
    # the spread is read from the change tree's BENCH_AA.json, when it has one
    assert script.aa_log_quartiles(tmp_path / "absent") == {}
    committed = script.aa_log_quartiles(ROOT)
    assert sorted(committed) == sorted(script.SEEDS)
    q1, q3 = committed["derivatives"]["ops_per_s"]
    assert q1 <= q3


def test_bench_pair_marks_a_directory_against_a_revision(tmp_path):
    mixed_tree_kinds = load_script("bench_pair").mixed_tree_kinds
    assert mixed_tree_kinds("HEAD~1", str(tmp_path))
    assert mixed_tree_kinds(str(tmp_path), "HEAD")
    assert not mixed_tree_kinds("HEAD~1", "HEAD")
    assert not mixed_tree_kinds(str(tmp_path), str(ROOT))
