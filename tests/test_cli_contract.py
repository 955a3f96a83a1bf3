"""Pinned parsing contract of the command line.

For a fixed argv list covering every subcommand and the usual error paths,
tests/data/cli_contract.json holds the exit code, stderr, seed and inputs of
each invocation, plus each subcommand's flag -> default map as click reports
it.  None of these depend on the machine.  Regenerate the fixture with

    PYTHONPATH=src python tests/test_cli_contract.py

only when a change to the command line is intended.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path
from unittest import mock

from sheetsde.cli_runner import cli, main

FIXTURE = Path(__file__).parent / "data" / "cli_contract.json"

CONFIG_FILE_VALUES = {"seed": 5, "dim": 2, "grid": "3x3"}

ARGVS = [
    ["sample-sheet", "--grid", "4x4", "--seed", "7"],
    ["sample-sheet", "--grid", "3x3", "--geometric", "--horizon", "2", "--dim", "2"],
    ["sample-sheet", "--config", "{config}", "--dim", "3"],
    ["expand-ibp", "--sigma", "2,1,3"],
    ["expand-ibp", "--sigma", "3,1,2", "--s-times", "0.2,0.5,0.9", "--t-times", "0.1,0.4,0.7"],
    ["verify-ibp", "--sigma", "2,1", "--method", "exact", "--horizon", "0.25"],
    ["verify-ibp", "--sigma", "2,1,3", "--samples", "1e3", "--seed", "3", "--grid", "4x4",
     "--geometric"],
    ["verify-ibp", "--sigma", "2,1", "--n", "2", "--samples", "1e3", "--bump-scale", "0.5",
     "--se-width", "1e-9"],
    ["verify-bound", "--trials", "3", "--n-set", "2", "--samples", "2000",
     "--allowed-failures", "0"],
    ["verify-shuffle", "--kind", "nabla", "--m", "2", "--k", "1", "--samples", "2000"],
    ["verify-shuffle", "--kind", "lambda", "--n", "1", "--samples", "2000", "--seed", "4"],
    ["simplex-gamma", "--n", "2", "--lower", "0.1", "--mc-samples", "2e4"],
    ["solve-sde", "--grid", "4x4", "--drift", "const", "--level", "0.5", "--scheme", "picard"],
    ["solve-sde", "--grid", "4x4", "--amplitude", "2", "--rate", "0.5", "--x0", "0.3",
     "--dim", "2"],
    ["malliavin-check", "--grid", "4x4", "--seed", "3", "--eps", "1e-3"],
    ["girsanov-check", "--grid", "4x4", "--samples", "2000", "--drift", "sign", "--phi", "cos",
     "--x0", "0.1", "--se-width", "5"],
    # error paths
    ["verify-ibp", "--sigma", "2,2"],
    ["verify-ibp"],
    ["verify-ibp", "--sigma", "2,1", "--n", "3"],
    ["verify-ibp", "--sigma", "2,1", "--method", "simpson"],
    ["verify-ibp", "--sigma", "2,1,3", "--method", "quadrature"],
    ["verify-ibp", "--sigma", "2,1", "--nodes", "8"],
    ["sample-sheet", "--grid", "4by4"],
    ["solve-sde", "--grid", "0x4"],
    ["solve-sde", "--drift", "cubic"],
    ["verify-shuffle", "--kind", "delta", "--samples", "2000"],
    ["simplex-gamma", "--mc-samples", "0"],
    ["malliavin-check", "--grid", "4x4", "--drift", "sign"],
    ["frobnicate"],
]


def invoke(argv: list) -> dict:
    """Exit code, stderr, seed and inputs of one CLI call, run as `sheetsde`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.object(sys, "argv", ["sheetsde"]), \
            mock.patch.object(sys.modules["__main__"], "__package__", None, create=True):
        code = main(argv)
    result = {"exit_code": code, "stderr": err.getvalue()}
    if out.getvalue():
        record = json.loads(out.getvalue())
        result.update(seed=record["seed"], inputs=record["inputs"])
    return result


def flag_defaults() -> dict:
    """subcommand -> {flag: default, type and choices} as click declares them."""
    table = {}
    for name, command in sorted(cli.commands.items()):
        table[name] = {
            param.opts[0]: {
                "default": param.default,
                "type": param.type.name,
                "choices": list(getattr(param.type, "choices", [])),
            }
            for param in command.params
        }
    return table


def capture(config_path: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "SHEETSDE_SEED"}
    with mock.patch.dict(os.environ, env, clear=True):
        calls = [
            {"argv": argv, **invoke([a.replace("{config}", config_path) for a in argv])}
            for argv in ARGVS
        ]
    return {"calls": calls, "flags": flag_defaults()}


def _config_file(directory: Path) -> str:
    path = directory / "config.json"
    path.write_text(json.dumps(CONFIG_FILE_VALUES))
    return str(path)


def test_cli_contract_matches_fixture(tmp_path):
    want = json.loads(FIXTURE.read_text())
    got = capture(_config_file(tmp_path))
    assert got["flags"] == want["flags"]
    for have, pinned in zip(got["calls"], want["calls"], strict=True):
        assert have == pinned, have["argv"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        contract = capture(_config_file(Path(tmp)))
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(contract, indent=1, sort_keys=True) + "\n")
