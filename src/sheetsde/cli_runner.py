"""Experiment orchestration and the command-line interface.

Every subcommand builds an ExperimentConfig, dispatches through run(), and
prints one ResultRecord to stdout as one compact JSON line (JSON Lines).
Records carry the seed, a schema version, the resolved inputs, and a pass
verdict (null when the command has no quantitative check).  Re-running an identical config reproduces all
stochastic outputs bit for bit; wall time is the only varying field.

Each subcommand's parameters are declared once, in COMMANDS: run() parses
them from that table and the click commands are generated from it.

Exit codes: 0 pass (or nothing to check), 2 quantitative-check failure,
1 usage or runtime error.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import sys
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Optional

import click
import numpy as np

from . import __version__
from .brownian_sheet import (
    CSV_FLOAT_FORMAT,
    SheetSample,
    cameron_martin_shift,
    cumulative_values,
    export_csv,
    sample,
    stream,
)
from .estimate_lab import (
    bump_factor,
    davie_bound,
    direct_expectation,
    gaussian_factor,
    verify_identity,
)
from .ibp_engine import PermutationSpec, crossing_set, expand, term_to_dict, uniform_spec
from .integrators import simplex_dirichlet_oracle, simplex_singular_integral
from .plane_geometry import GridPartition, geometric_grid, uniform_grid
from .sde_plane import (
    SolutionField,
    constant_drift,
    malliavin_adjoint,
    paired_weak_expectation,
    sign_drift,
    solve_euler,
    solve_picard,
    tanh_drift,
    zero_drift,
)
from .shuffle_combinatorics import (
    NABLA_KINDS,
    SPLIT_KINDS,
    RegionDescriptor,
    enumerate_block_increasing,
    partition_report,
)

SCHEMA_VERSION = "1"


def _json_line(obj) -> str:
    """One line of compact JSON by json's C encoder; NaN or Infinity raise ValueError."""
    return json.dumps(obj, separators=(",", ":"), allow_nan=False)


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the offending field."""

    def __init__(self, field_name: str, message: str) -> None:
        self.field_name = field_name
        super().__init__(f"{field_name}: {message}")


@dataclass(frozen=True)
class ExperimentConfig:
    """One subcommand invocation: name plus its resolved parameter map."""

    subcommand: str
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.subcommand not in COMMANDS:
            raise ConfigError("subcommand", f"unknown subcommand {self.subcommand!r}")


@dataclass(frozen=True)
class ResultRecord:
    """Structured outcome of one experiment run."""

    command: str
    seed: int
    inputs: dict
    outputs: dict
    passed: Optional[bool]
    wall_time_s: float
    schema_version: str = SCHEMA_VERSION
    artifact_version: str = __version__

    def to_json(self) -> str:
        record = {
            "schema_version": self.schema_version,
            "artifact_version": self.artifact_version,
            "command": self.command,
            "seed": self.seed,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "pass": self.passed,
            "wall_time_s": self.wall_time_s,
        }
        return _json_line(record)

    @property
    def exit_code(self) -> int:
        return 0 if self.passed in (True, None) else 2


# ---------------------------------------------------------------------------
# parameter parsing: parse(field name, raw value) -> value
# ---------------------------------------------------------------------------


def _items(value) -> list:
    """A JSON list's items, or the comma-separated fields of a flag value."""
    return list(value) if isinstance(value, (list, tuple)) else str(value).split(",")


def _parse_int_tuple(name: str, value) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in _items(value))
    except (TypeError, ValueError):
        raise ConfigError(name, f"expected comma-separated integers, got {value!r}")


def _parse_count(name: str, value, minimum: int = 1) -> int:
    """Exact integer; float notation such as 1e6 is accepted when integral."""
    try:
        count = int(str(value))
    except ValueError:
        try:
            number = float(value)
        except (TypeError, ValueError):
            number = math.nan
        if not number.is_integer():
            raise ConfigError(name, f"expected a count, got {value!r}")
        count = int(number)
    if count < minimum:
        raise ConfigError(name, f"must be >= {minimum}, got {count}")
    return count


_parse_nonnegative = partial(_parse_count, minimum=0)


def _parse_seed(name: str, value) -> int:
    seed = _parse_nonnegative(name, value)
    if seed >> 128:  # stream keys collide from 2**128 on
        raise ConfigError(name, f"must be < 2**128, got {seed}")
    return seed


def _parse_float(name: str, value) -> float:
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ConfigError(name, f"expected a number, got {value!r}")
    if not math.isfinite(number):
        raise ConfigError(name, "must be finite")
    return number


def _parse_float_list(name: str, value) -> tuple[float, ...]:
    return tuple(_parse_float(name, v) for v in _items(value) if v != "")


def _parse_positive(name: str, value) -> float:
    number = _parse_float(name, value)
    if number <= 0.0:
        raise ConfigError(name, "must be positive")
    return number


def _parse_flag(name: str, value) -> bool:
    # a config file's "false" is a true string, so only real booleans count
    if not isinstance(value, bool):
        raise ConfigError(name, f"expected true or false, got {value!r}")
    return value


def _parse_path(name: str, value) -> str:
    return str(value)


def _parse_grid_shape(name: str, value) -> tuple[int, int]:
    parts = str(value).lower().split("x")
    if len(parts) != 2:
        raise ConfigError(name, f"expected ROWSxCOLS like 64x64, got {value!r}")
    try:
        ns, nt = int(parts[0]), int(parts[1])
    except ValueError:
        raise ConfigError(name, f"expected ROWSxCOLS like 64x64, got {value!r}")
    if ns < 1 or nt < 1:
        raise ConfigError(name, "grid must have at least one cell per axis")
    return ns, nt


def _parse_sigma(name: str, value) -> tuple[int, ...]:
    sigma = _parse_int_tuple(name, value)
    n = len(sigma)
    if sorted(sigma) != list(range(1, n + 1)):
        raise ConfigError(name, f"not a permutation of 1..{n}: {sigma}")
    return sigma


@dataclass(frozen=True)
class _Choice:
    """Parser accepting one of a fixed set of names; the CLI offers them as a choice."""

    choices: tuple[str, ...]

    def __call__(self, name: str, value) -> str:
        if str(value) not in self.choices:
            raise ConfigError(name, f"expected one of {self.choices}, got {value!r}")
        return str(value)


_PHIS = {
    "tanh": lambda x: np.tanh(x[..., 0]),
    "cos": lambda x: np.cos(x[..., 0]),
    "square": lambda x: np.minimum(x[..., 0] ** 2, 1e6),
}


@dataclass(frozen=True)
class Param:
    """One subcommand parameter: config key (and --flag), default, parser, help.

    A key that is absent or None takes the default; a None default is handed
    to the handler unparsed.
    """

    name: str
    default: Any
    parse: Callable[[str, Any], Any]
    help: Optional[str] = None


SEED = Param("seed", 0, _parse_seed, "Base seed; SHEETSDE_SEED supplies the default.")


def _grid(default: Optional[str]) -> tuple[Param, ...]:
    return (
        Param("grid", default, _parse_grid_shape, "Cells per axis, ROWSxCOLS."),
        Param("horizon", 1.0, _parse_positive, "Upper time bound of both axes."),
        Param("geometric", False, _parse_flag, "Geometrically graded knots instead of uniform."),
    )


_DRIFT = (
    Param("drift", "tanh", _Choice(("zero", "const", "sign", "tanh"))),
    Param("amplitude", 1.0, _parse_float, "tanh drift amplitude."),
    Param("rate", 1.0, _parse_float, "tanh drift rate."),
    Param("level", 1.0, _parse_float, "const drift level."),
)
_BUMP = (
    Param("bump_scale", 1.0, _parse_float),
    Param("bump_width", 2.5, _parse_float),
    Param("bump_center", 0.25, _parse_float),
)
_SIGMA = (
    Param("sigma", None, _parse_sigma, "Permutation, comma separated, e.g. 2,1,3 (required)."),
    Param("s_times", None, _parse_float_list, "Optional comma-separated s times."),
    Param("t_times", None, _parse_float_list, "Optional comma-separated t times."),
)
_SAMPLES = Param("samples", "100000", _parse_count, "Monte Carlo samples (accepts 1e6).")
_X0 = Param("x0", 0.0, _parse_float, "Initial value on the axes.")
_DIM = Param("dim", 1, _parse_count, "Dimension of the sheet.")
_SE_WIDTH = Param("se_width", 4.0, _parse_float, "Pass window in standard errors.")


def _build_grid(p: dict, default_shape: Optional[tuple[int, int]] = None) -> GridPartition:
    ns, nt = p["grid"] or default_shape
    if p["geometric"]:
        return geometric_grid(ns, nt, p["horizon"], p["horizon"])
    return uniform_grid(ns, nt, p["horizon"], p["horizon"])


def _build_drift(p: dict, dim: int):
    if p["drift"] == "zero":
        return zero_drift(dim)
    if p["drift"] == "const":
        return constant_drift(p["level"], dim)
    if p["drift"] == "sign":
        return sign_drift(dim)
    return tanh_drift(p["amplitude"], p["rate"], dim)


def _build_factor(p: dict):
    return bump_factor(scale=p["bump_scale"], width=p["bump_width"], center=p["bump_center"])


def _build_spec(p: dict) -> PermutationSpec:
    """Points from sigma and explicit times, else the first n grid knots (k/n without a grid)."""
    sigma = p["sigma"]
    if sigma is None:
        raise ConfigError("sigma", "required")
    n = len(sigma)
    if p["s_times"] or p["t_times"]:
        if len(p["s_times"] or ()) != n or len(p["t_times"] or ()) != n:
            raise ConfigError("s_times", f"need {n} values in each of s_times and t_times")
        return PermutationSpec(n, sigma, p["s_times"], p["t_times"])
    if "grid" not in p:  # expand-ibp: the term list does not depend on the times
        return uniform_spec(sigma)
    grid = _build_grid(p, default_shape=(n, n))
    if grid.n_s < n or grid.n_t < n:
        raise ConfigError("grid", f"needs at least {n} cells per axis for n={n}")
    return PermutationSpec(n, sigma, tuple(grid.s_knots[1:n + 1]), tuple(grid.t_knots[1:n + 1]))


def _estimate_dict(est) -> dict:
    return {"mean": est.mean, "std_error": est.std_error, "n_samples": est.n_samples}


# ---------------------------------------------------------------------------
# subcommand handlers: parsed params -> (outputs, passed)
# ---------------------------------------------------------------------------


def _run_sample_sheet(p: dict) -> tuple[dict, Optional[bool]]:
    """Draw one sheet sample; optionally export increments as CSV."""
    grid = _build_grid(p)
    sheet = sample(grid, dim=p["dim"], seed=p["seed"])
    vals = cumulative_values(sheet.increments)
    if p["out"]:
        export_csv(sheet, p["out"])
    terminal = [float(v) for v in vals[-1, -1]]
    return {
        "n_s": grid.n_s,
        "n_t": grid.n_t,
        "dim": p["dim"],
        "sup_abs_value": float(np.abs(vals).max()),
        "terminal_value": terminal,
        "csv_path": p["out"] or None,
    }, None


def _run_expand_ibp(p: dict) -> tuple[dict, Optional[bool]]:
    """Emit the signed term list of the rectangle-selection expansion."""
    spec = _build_spec(p)
    terms = expand(spec)
    term_dicts = [term_to_dict(t) for t in terms]
    if p["out"]:
        with open(p["out"], "w") as fh:
            fh.write(_json_line(term_dicts) + "\n")
    return {
        "n": spec.n,
        "sigma": list(spec.sigma),
        "crossing_rows": list(crossing_set(spec)),
        "n_terms": len(terms),
        "terms": term_dicts,
        "terms_path": p["out"] or None,
    }, None


def _run_verify_ibp(p: dict) -> tuple[dict, Optional[bool]]:
    """Check direct vs expanded expectation and the product bound."""
    spec = _build_spec(p)
    if p["n"] is not None and p["n"] != spec.n:
        raise ConfigError("n", f"n={p['n']} disagrees with sigma of length {spec.n}")
    factor = gaussian_factor() if p["method"] == "exact" else _build_factor(p)
    report = verify_identity(spec, factor, method=p["method"], budget=p["samples"],
                             seed=p["seed"], se_width=p["se_width"])
    outputs = {
        "sigma": list(spec.sigma),
        "method": p["method"],
        "direct": _estimate_dict(report.direct),
        "ibp": _estimate_dict(report.ibp),
        "bound": report.bound,
        "identity_gap": report.identity_gap,
        "identity_tol": report.identity_tol,
        "identity_ok": report.identity_ok,
        "bound_ok": report.bound_ok,
    }
    return outputs, report.passed


def _run_verify_bound(p: dict) -> tuple[dict, Optional[bool]]:
    """Random-configuration domination sweep of the product bound."""
    seed = p["seed"]
    factor = _build_factor(p)
    # the configurations draw from key (seed, 0), trial i from (seed, i + 1)
    rng = stream(seed, 0)
    violations = []
    for trial in range(p["trials"]):
        n = int(rng.choice(p["n_set"]))
        sigma = tuple(int(v) for v in rng.permutation(n) + 1)
        s_times = tuple(np.sort(rng.uniform(0.05, 1.0, n)))
        t_times = tuple(np.sort(rng.uniform(0.05, 1.0, n)))
        spec = PermutationSpec(n, sigma, s_times, t_times)
        est = direct_expectation(spec, factor, "mc", p["samples"], (seed, trial + 1))
        bound = davie_bound(spec, factor.sup_norm)
        if abs(est.mean) + 4.0 * est.std_error > bound:
            violations.append({
                "trial": trial, "n": n, "sigma": list(sigma),
                "estimate": est.mean, "std_error": est.std_error, "bound": bound,
            })
    passed = len(violations) <= p["allowed_failures"]
    return {
        "trials": p["trials"],
        "n_set": list(p["n_set"]),
        "violations": violations,
        "n_violations": len(violations),
        "allowed_failures": p["allowed_failures"],
    }, passed


def _run_verify_shuffle(p: dict) -> tuple[dict, Optional[bool]]:
    """Sampled partition scan of a product order-region."""
    kind, m, k, n = p["kind"], p["m"], p["k"], p["n"]
    if kind in NABLA_KINDS:
        region = RegionDescriptor(kind, k)
    else:
        if n < 1:
            raise ConfigError("n", f"kind {kind} needs n >= 1")
        mids = {"s_mid": 0.5, "t_mid": 0.5}
        region = RegionDescriptor(kind, k, n, **mids)
    report = partition_report(region, m, p["samples"], p["seed"])
    family = enumerate_block_increasing(m, k)
    outputs = {
        "kind": kind,
        "m": m,
        "k": k,
        "n": n,
        "n_samples": p["samples"],
        "n_cells": report.n_cells,
        "family_count": len(family.members),
        "expected_family_count": family.expected_count,
        "uncovered": report.uncovered,
        "multiply_covered": report.multiply_covered,
        "locate_mismatches": report.locate_mismatches,
    }
    passed = report.ok and len(family.members) == family.expected_count
    return outputs, passed


def _run_simplex_gamma(p: dict) -> tuple[dict, Optional[bool]]:
    """Closed-form singular simplex integral vs its sampling oracle."""
    n, lower, upper = p["n"], p["lower"], p["upper"]
    closed = simplex_singular_integral(n, lower, upper)
    oracle = simplex_dirichlet_oracle(n, lower, upper, p["mc_samples"], p["seed"])
    z = abs(closed - oracle.mean) / oracle.std_error
    return {
        "n": n,
        "lower": lower,
        "upper": upper,
        "closed_form": closed,
        "oracle": _estimate_dict(oracle),
        "z_score": z,
    }, bool(z <= 4.0)


def _run_solve_sde(p: dict) -> tuple[dict, Optional[bool]]:
    """Solve one realization of the sheet-driven SDE on a grid."""
    grid = _build_grid(p)
    drift = _build_drift(p, p["dim"])
    sheet = sample(grid, dim=p["dim"], seed=p["seed"])
    sweeps = None
    if p["scheme"] == "euler":
        sol = solve_euler(grid, drift, p["x0"], sheet)
    else:
        sol, sweeps = solve_picard(grid, drift, p["x0"], sheet)
    if p["out"]:
        _write_field_csv(p["out"], grid, sol.values)
    return {
        "scheme": p["scheme"],
        "drift": p["drift"],
        "sweeps": sweeps,
        "terminal_value": [float(v) for v in sol.values[-1, -1]],
        "sup_abs_value": float(np.abs(sol.values).max()),
        "csv_path": p["out"] or None,
    }, None


def _write_field_csv(path: str, grid: GridPartition, values: np.ndarray) -> None:
    dim = values.shape[-1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["i", "j", "s", "t"] + [f"x{c}" for c in range(dim)])
        for i in range(grid.n_s + 1):
            for j in range(grid.n_t + 1):
                row = [i, j, CSV_FLOAT_FORMAT % grid.s_knots[i], CSV_FLOAT_FORMAT % grid.t_knots[j]]
                row += [CSV_FLOAT_FORMAT % v for v in values[i, j]]
                writer.writerow(row)


def _run_malliavin_check(p: dict) -> tuple[dict, Optional[bool]]:
    """Directional-derivative identity under a drift shift of the sheet."""
    grid = _build_grid(p)
    x0, eps = p["x0"], p["eps"]
    # the central difference errs by O(eps^2); measured at most 5.9e-7, 5.9e-9
    # and 6.6e-11 relative at eps = 1e-2, 1e-3 and 1e-4 (4x4 and 32x32 grids)
    tolerance = eps ** 2 if p["tolerance"] is None else p["tolerance"]
    drift = _build_drift(p, 1)
    drift.require_jacobian()
    sheet = sample(grid, dim=1, seed=p["seed"])
    s = np.asarray(grid.s_knots)
    t = np.asarray(grid.t_knots)
    hdot = (np.cos(2.1 * s[1:])[:, None] * np.sin(1.7 * t[1:] + 0.3)[None, :])[:, :, None]
    # the sheet and its two shifts in one row sweep: samples base, up, down
    shifted = (cameron_martin_shift(sheet, hdot, e).increments for e in (eps, -eps))
    sol = solve_euler(grid, drift, x0, SheetSample(grid, 1, np.stack((sheet.increments, *shifted))))
    fd = float((sol.values[1, -1, -1, 0] - sol.values[2, -1, -1, 0]) / (2.0 * eps))

    terminal = malliavin_adjoint(grid, drift, SolutionField(grid, sol.x0, sol.values[0]))
    predicted = float(np.sum(terminal[..., 0, 0] * hdot[..., 0] * grid.areas()))
    rel_err = abs(predicted - fd) / max(abs(fd), 1e-300)
    return {
        "grid": f"{grid.n_s}x{grid.n_t}",
        "eps": eps,
        "finite_difference": fd,
        "predicted": predicted,
        "rel_err": rel_err,
        "tolerance": tolerance,
    }, bool(rel_err <= tolerance)


def _run_girsanov_check(p: dict) -> tuple[dict, Optional[bool]]:
    """Two-estimator agreement of the weak solution and E[weight] = 1."""
    grid = _build_grid(p)
    width = p["se_width"]
    est = paired_weak_expectation(_PHIS[p["phi"]], _build_drift(p, 1), p["x0"], grid,
                                  p["samples"], p["seed"])
    # both estimators read the same sheets, so the gap's own SE is the paired SE
    gap_se = abs(est.gap.mean) / max(est.gap.std_error, 1e-300)
    weight_z = abs(est.weight.mean - 1.0) / max(est.weight.std_error, 1e-300)
    passed = bool(gap_se <= width and weight_z <= width)
    return {
        "drift": p["drift"],
        "phi": p["phi"],
        "girsanov": _estimate_dict(est.girsanov),
        "euler": _estimate_dict(est.euler),
        "gap": _estimate_dict(est.gap),
        "gap_se": gap_se,
        "mean_weight": _estimate_dict(est.weight),
        "weight_z": weight_z,
    }, passed


@dataclass(frozen=True)
class Command:
    """A subcommand: its handler (whose docstring is the help text) and parameters."""

    handler: Callable[[dict], tuple[dict, Optional[bool]]]
    params: tuple[Param, ...]


COMMANDS: dict[str, Command] = {
    "sample-sheet": Command(_run_sample_sheet, (
        *_grid("8x8"), _DIM,
        Param("out", None, _parse_path, "CSV path for the increments."),
    )),
    "expand-ibp": Command(_run_expand_ibp, (
        *_SIGMA,
        Param("out", None, _parse_path, "JSON path for the term list."),
    )),
    "verify-ibp": Command(_run_verify_ibp, (
        Param("n", None, _parse_count, "Redundant check of len(sigma)."),
        *_SIGMA,
        dataclasses.replace(_SAMPLES, default="200000"),
        Param("method", "mc", _Choice(("mc", "exact")),
              "exact: closed form on gaussian_factor(); the --bump-* flags set mc's bump."),
        _SE_WIDTH, *_grid(None), *_BUMP,
    )),
    "verify-bound": Command(_run_verify_bound, (
        Param("trials", 50, _parse_count),
        Param("n_set", "2,3", _parse_int_tuple, "Candidate n values."),
        _SAMPLES,
        Param("allowed_failures", 1, _parse_nonnegative),
        *_BUMP,
    )),
    "verify-shuffle": Command(_run_verify_shuffle, (
        Param("kind", "nabla", _Choice(NABLA_KINDS + SPLIT_KINDS)),
        Param("m", 2, _parse_count, "Number of product blocks."),
        Param("k", 1, _parse_count, "Points per block (upper group)."),
        Param("n", 0, _parse_nonnegative, "Lower-group size for split kinds."),
        _SAMPLES,
    )),
    "simplex-gamma": Command(_run_simplex_gamma, (
        Param("n", 1, _parse_count),
        Param("lower", 0.0, _parse_float),
        Param("upper", 1.0, _parse_float),
        Param("mc_samples", "1000000", _parse_count),
    )),
    "solve-sde": Command(_run_solve_sde, (
        *_DRIFT, _X0, _DIM,
        Param("scheme", "euler", _Choice(("euler", "picard"))),
        Param("out", None, _parse_path, "CSV path for the solution field."),
        *_grid("16x16"),
    )),
    "malliavin-check": Command(_run_malliavin_check, (
        *_DRIFT, _X0,
        Param("eps", 1e-4, _parse_positive, "Cameron-Martin shift size."),
        Param("tolerance", None, _parse_float, "Allowed relative error; default eps**2."),
        *_grid("32x32"),
    )),
    "girsanov-check": Command(_run_girsanov_check, (
        *_DRIFT,
        Param("phi", "tanh", _Choice(tuple(_PHIS))),
        _X0, _SAMPLES, _SE_WIDTH, *_grid("64x64"),
    )),
}


def run(config: ExperimentConfig) -> ResultRecord:
    """Validate and execute one experiment, returning its record."""
    command = COMMANDS[config.subcommand]
    values = {}
    for param in (SEED,) + command.params:
        raw = config.params.get(param.name)
        value = param.default if raw is None else raw
        values[param.name] = None if value is None else param.parse(param.name, value)
    start = time.perf_counter()
    outputs, passed = command.handler(values)
    wall = time.perf_counter() - start
    inputs = {k: v for k, v in sorted(config.params.items()) if v is not None}
    return ResultRecord(config.subcommand, values["seed"], inputs, outputs, passed, wall)


# ---------------------------------------------------------------------------
# click layer, generated from COMMANDS
# ---------------------------------------------------------------------------


def _load_config_file(path: Optional[str]) -> dict:
    if not path:
        return {}
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON in {path}: {exc}")
    if not isinstance(data, dict):
        raise ConfigError("config", "config file must hold a JSON object")
    return data


def _resolve_params(ctx: click.Context, kwargs: dict) -> dict:
    """Overlay config-file values onto parameters left at their defaults."""
    file_values = _load_config_file(kwargs.pop("config", None))
    params = dict(kwargs)
    for key, value in file_values.items():
        if key not in params:
            params[key] = value
            continue
        source = ctx.get_parameter_source(key)
        if source is not None and source.name != "COMMANDLINE":
            params[key] = value
    return params


# click types for parameters whose default is None; others follow their default
_NONE_DEFAULT_TYPES = {_parse_count: click.INT, _parse_float: click.FLOAT, _parse_path: click.Path()}


def _option(param: Param) -> click.Option:
    if isinstance(param.parse, _Choice):
        option_type = click.Choice(list(param.parse.choices))
    elif param.default is None:
        option_type = _NONE_DEFAULT_TYPES.get(param.parse)
    else:
        option_type = None
    return click.Option(
        ["--" + param.name.replace("_", "-")], default=param.default, type=option_type,
        is_flag=isinstance(param.default, bool), show_default=True, help=param.help,
        envvar="SHEETSDE_SEED" if param is SEED else None,
    )


@click.group(name="sheetsde")
@click.version_option(version=__version__)
def cli() -> None:
    """Brownian-sheet SDE toolkit: sheet sampling, rectangle-selection

    integration-by-parts verification, shuffle partitions, and the
    two-parameter solver with Malliavin and Girsanov checks.
    """


def _callback(subcommand: str):
    def emit(**kwargs) -> int:
        ctx = click.get_current_context()
        record = run(ExperimentConfig(subcommand, _resolve_params(ctx, kwargs)))
        click.echo(record.to_json())
        return record.exit_code

    return emit


for _name, _command in COMMANDS.items():
    cli.add_command(click.Command(
        _name, callback=_callback(_name), help=_command.handler.__doc__,
        params=[
            click.Option(["--config"], type=click.Path(), default=None,
                         help="JSON file with parameter defaults; flags override."),
            *map(_option, (SEED,) + _command.params),
        ],
    ))


def main(argv: Optional[list] = None) -> int:
    try:
        rv = cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.ClickException as exc:
        exc.show(file=sys.stderr)
        return 1
    except click.exceptions.Abort:
        click.echo("aborted", err=True)
        return 1
    except ConfigError as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    except Exception as exc:
        click.echo(f"error: {type(exc).__name__}: {exc}", err=True)
        return 1
    return int(rv) if isinstance(rv, int) else 0


if __name__ == "__main__":
    sys.exit(main())
