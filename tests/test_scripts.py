"""The study scripts run end to end on tiny inputs.

Each script runs in its own subprocess, so an API change that breaks a
script fails here.  The three start together when the module's first test
asks for them, so the module costs about one script's wall time.  The
benchmark pair script's summary is checked on synthetic runs.
"""

import importlib.util
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
    "mesh_order_study.py": (
        ["--fine", "16", "--levels", "3"],
        "cells_per_axis,mesh_width,sup_gap,picard_sweeps", 3),
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
        return [{"seed": k, "parent": {"metrics": {"ops_per_s": p}, "attempted": 5, "failed": 0},
                 "change": {"metrics": {"ops_per_s": p + shift}, "attempted": 5, "failed": 0}}
                for k, p in enumerate(parent)]

    wide = summarise(pairs(10.0), {"ops_per_s": "higher"})["metrics"]["ops_per_s"]
    assert (wide["change_wins"], wide["median_shift_beyond_parent_iqr"]) == (10, "gain")
    assert wide["parent_iqr"] == 4.5
    assert wide["parent_iqr_rel"] == 4.5 / 104.5
    # every pair wins, but the median moves by less than the parent's own spread
    narrow = summarise(pairs(2.0), {"ops_per_s": "higher"})["metrics"]["ops_per_s"]
    assert (narrow["change_wins"], narrow["median_shift_beyond_parent_iqr"]) == (10, None)
    loss = summarise(pairs(10.0), {"ops_per_s": "lower"})["metrics"]["ops_per_s"]
    assert (loss["change_wins"], loss["median_shift_beyond_parent_iqr"]) == (0, "loss")
