"""The study scripts run end to end on tiny inputs.

Each script runs in its own subprocess, so an API change that breaks a
script fails here.  The three start together when the module's first test
asks for them, so the module costs about one script's wall time.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# script: (arguments, CSV header, number of data rows)
RUNS = {
    "identity_sweep.py": (
        ["--n", "2", "--horizon", "0.25", "--mc-budgets", "2000", "--quad-nodes", "30"],
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
