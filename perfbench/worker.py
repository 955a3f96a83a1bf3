"""One benchmark process: set-up, then a closed loop of sheetsde ops.

An op is one in-process ``cli_runner.run(ExperimentConfig(...))`` call
followed by ``record.to_json()``: what one CLI invocation does, minus
process start.  One caller runs the ops back to back in this process, with
no threads of its own; OpenBLAS keeps its default thread count.

Each workload is a fixed cycle of ops.  The loop runs whole cycles, so every
run times the same mix of ops, until at least ``--seconds`` have passed and
at least MIN_OPS ops have completed (a traced run needs one cycle).  Per-op
seeds are independent 63-bit values spawned from the workload seed with
numpy's SeedSequence.
Every op's JSON output is parsed and checked; an op fails if it raises,
reports ``pass`` false, or fails the workload's own check.

``--trace 0`` reports the end-to-end metrics.  Their times are scaled to a
reference machine speed by a calibration loop timed next to the ops (see
CALIBRATIONS); the raw seconds are reported beside them.  ``--trace 1`` runs
each op twice, once plain and once with spans around the calls into each
module (order alternating), and reports per-layer metrics per traced op, in
raw seconds, plus the tracing overhead, traced wall minus plain wall.

Usage (normally started by run.py):
    python3 perfbench/worker.py --workload weak_mc --seed 1 --seconds 10 \
        --trace 0 --t0 <time.monotonic() at process start> [--setup-only]
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import resource
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_PATH = Path(__file__).resolve().parent / "golden_expand_n6.json"

#: SE that time_to_se_s scales each op's error to
SE_TARGET = {"weak_mc": 1e-2, "ibp_identity": 1e-3}
#: the derivative identity holds to ~1e-11; the record's own 1e-2 gate cannot
#: catch a wrong derivative
DERIVATIVE_REL_ERR_MAX = 1e-6
#: every run times at least this many ops, so op_s.p50 has ten ops beyond it
MIN_OPS = 20
#: no run may outlast the driver's 180 s limit, whatever --seconds says
HARD_CAP_S = 120.0
#: recalibrate once this much op time has passed since the last calibration
CALIBRATE_EVERY_S = 0.3
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def crossing_rows(sigma: tuple[int, ...]) -> list[int]:
    """Rows i with a later row k whose column sigma(k) exceeds sigma(i)."""
    n = len(sigma)
    return [i + 1 for i in range(n) if any(sigma[k] > sigma[i] for k in range(i + 1, n))]


def sigma_of(params: dict) -> tuple[int, ...]:
    return tuple(int(v) for v in params["sigma"].split(","))


def canonical_terms(outputs: dict) -> bytes:
    return json.dumps(outputs["terms"], separators=(",", ":")).encode()


def _finite_estimates(outputs: dict, keys) -> list[str]:
    return [f"{k} mean or std_error not finite" for k in keys
            if not (math.isfinite(outputs[k]["mean"]) and math.isfinite(outputs[k]["std_error"]))]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def check_weak_mc(params: dict, rec: dict) -> list[str]:
    out = rec["outputs"]
    bad = [f"{k}.n_samples {out[k]['n_samples']} != {params['samples']}"
           for k in ("girsanov", "euler", "mean_weight") if out[k]["n_samples"] != params["samples"]]
    return bad + _finite_estimates(out, ("girsanov", "euler", "mean_weight"))


def check_ibp_identity(params: dict, rec: dict) -> list[str]:
    out = rec["outputs"]
    samples = params["samples"]
    q = len(crossing_rows(sigma_of(params)))
    bad = []
    if out["direct"]["n_samples"] != samples:
        bad.append(f"direct.n_samples {out['direct']['n_samples']} != {samples}")
    if out["ibp"]["n_samples"] != samples * 2 ** q:
        bad.append(f"ibp.n_samples {out['ibp']['n_samples']} != {samples} * 2^{q}")
    return bad + _finite_estimates(out, ("direct", "ibp"))


def check_expand(params: dict, rec: dict, golden: dict) -> list[str]:
    out = rec["outputs"]
    sigma = sigma_of(params)
    n = len(sigma)
    bad = []
    if out["crossing_rows"] != crossing_rows(sigma):
        bad.append(f"crossing_rows {out['crossing_rows']} != {crossing_rows(sigma)}")
    if not out["n_terms"] == len(out["terms"]) == 2 ** len(out["crossing_rows"]):
        bad.append(f"n_terms {out['n_terms']} / {len(out['terms'])} terms != 2^{len(out['crossing_rows'])}")
    for t, term in enumerate(out["terms"]):
        rows = sorted(c[0] for c in term["B_cells"])
        cols = {c[1] for c in term["B_cells"]}
        if rows != list(range(1, n + 1)) or len(cols) != n:
            bad.append(f"term {t}: B_cells {term['B_cells']} not in distinct rows and columns")
            break
    digest = hashlib.sha256(canonical_terms(out)).hexdigest()[:16]
    if digest != golden["per_sigma"][params["sigma"]]:
        bad.append(f"term list digest {digest} != golden {golden['per_sigma'][params['sigma']]}")
    return bad


def check_derivatives(params: dict, rec: dict) -> list[str]:
    out = rec["outputs"]
    if not (math.isfinite(out["predicted"]) and math.isfinite(out["finite_difference"])):
        return ["predicted or finite_difference not finite"]
    if not out["rel_err"] <= DERIVATIVE_REL_ERR_MAX:
        return [f"rel_err {out['rel_err']:.3g} > {DERIVATIVE_REL_ERR_MAX:g}"]
    return []


def weak_mc_error(params: dict, out: dict) -> float:
    se = math.hypot(out["girsanov"]["std_error"], out["euler"]["std_error"])
    return (se / SE_TARGET["weak_mc"]) ** 2


def ibp_identity_error(params: dict, out: dict) -> float:
    se = out["identity_tol"] / params["se_width"]
    return (se / SE_TARGET["ibp_identity"]) ** 2


@dataclass(frozen=True)
class Workload:
    cycle: tuple  # (subcommand, params without seed), run in this order
    check: Callable[[dict, dict], list[str]]
    #: (SE / SE_target)^2 of one op; 1 for ops without statistical error
    error: Callable[[dict, dict], float]
    #: spans that must record calls; one that records none is reported missing
    spans: frozenset
    #: key of CALIBRATIONS whose loop slows down with the machine as this workload does
    calibration: str
    needs_pass: bool = True


def _sigmas(n: int):
    return [",".join(map(str, s)) for s in itertools.permutations(range(1, n + 1))]


def make_workloads(golden: dict) -> dict[str, Workload]:
    common = {"cli_runner.run", "cli_runner.to_json"}
    return {
        "weak_mc": Workload(
            cycle=tuple(("girsanov-check", {"grid": "64x64", "x0": 0.1, "samples": 1024, "drift": d})
                        for d in ("tanh", "sign")),
            check=check_weak_mc,
            error=weak_mc_error,
            spans=frozenset(common | {
                "sde_plane.girsanov_weak_expectation", "sde_plane.euler_weak_expectation",
                "integrators.monte_carlo", "integrators.integrand", "brownian_sheet.normal_fill",
                "brownian_sheet.cumulative_values", "sde_plane.drift_eval"}),
            calibration="numpy",
        ),
        "ibp_identity": Workload(
            cycle=tuple(("verify-ibp", {"sigma": s, "method": "mc", "samples": 100_000, "se_width": 4.0})
                        for n in (3, 4) for s in _sigmas(n)),
            check=check_ibp_identity,
            error=ibp_identity_error,
            spans=frozenset(common | {
                "estimate_lab.direct_expectation", "estimate_lab.ibp_expectation",
                "ibp_engine.expand", "integrators.monte_carlo", "integrators.integrand",
                "brownian_sheet.normal_fill", "estimate_lab.factor_eval"}),
            calibration="numpy",
        ),
        "expand_sweep": Workload(
            cycle=tuple(("expand-ibp", {"sigma": s}) for s in _sigmas(6)),
            check=lambda params, rec: check_expand(params, rec, golden),
            error=lambda params, out: 1.0,
            spans=frozenset(common | {"ibp_engine.expand", "ibp_engine.term_to_dict"}),
            calibration="interpreter",
            needs_pass=False,
        ),
        "derivatives": Workload(
            cycle=(("malliavin-check", {"grid": "32x32", "drift": "tanh"}),),
            check=check_derivatives,
            error=lambda params, out: 1.0,
            spans=frozenset(common | {
                "brownian_sheet.sample", "sde_plane.solve_euler", "sde_plane.malliavin_solve",
                "sde_plane.drift_eval", "sde_plane.jacobian"}),
            calibration="interpreter",
        ),
    }


# ---------------------------------------------------------------------------
# running and checking ops
# ---------------------------------------------------------------------------


def op_seed(workload_seed: int, *path: int) -> int:
    state = np.random.SeedSequence(workload_seed, spawn_key=path).generate_state(1, np.uint64)
    return int(state[0] >> np.uint64(1))


class Runner:
    """Runs and checks ops of one workload; collects failures."""

    def __init__(self, name: str, workload: Workload, cli) -> None:
        self.name = name
        self.workload = workload
        self.cli = cli
        self.failures: list[dict] = []

    def execute(self, index, op, seed: int, tracer=None):
        """Run, time and check one op: (wall s, parsed record, passed).

        An op that raises gives (None, None, False).  The wall covers run()
        and to_json() only; parsing and checking happen after it.
        """
        subcommand, params = op
        config = self.cli.ExperimentConfig(subcommand, dict(params, seed=seed))
        run, to_json = self.cli.run, self.cli.ResultRecord.to_json
        if tracer is not None:
            run = tracer.span("cli_runner.run", run)
            to_json = tracer.span("cli_runner.to_json", to_json, tracer.count_json)
        start = time.perf_counter()
        try:
            text = to_json(run(config))
        except Exception as exc:  # an op that raises is a failed op, not a crash
            self.fail(index, params, [f"raised {type(exc).__name__}: {exc}"])
            return None, None, False
        wall = time.perf_counter() - start
        rec = json.loads(text)
        reasons = []
        if rec.get("pass") is False or (self.workload.needs_pass and rec.get("pass") is not True):
            reasons.append(f"pass is {rec.get('pass')}")
        try:
            reasons += self.workload.check(params, rec)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            reasons.append(f"malformed output: {type(exc).__name__}: {exc}")
        if reasons:
            self.fail(index, params, reasons)
        return wall, rec, not reasons

    def fail(self, index, params, reasons) -> None:
        self.failures.append({"workload": self.name, "op": index, "params": params, "reasons": reasons})


def cycles(workload: Workload, seconds: float, min_ops: int):
    """Yield (op index, op) over whole cycles until time and count are met."""
    start = time.perf_counter()
    index = 0
    while True:
        for op in workload.cycle:
            yield index, op
            index += 1
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and index >= min_ops) or elapsed >= HARD_CAP_S:
            return


# On shared machines the CPU switches between speed modes (1.5x apart on the
# 2-vCPU 2.0 GHz x86 VM this was tuned on, for seconds to minutes at a time),
# which moved run medians by up to 40%.  Each op is scaled by a fixed loop
# timed next to it, one that slows down with the mode as the workload does:
# an interpreter loop for the Python-bound workloads, a numpy loop for the
# numpy-bound ones.  Over 4-minute samples this cut the spread of 15-s window
# medians from 10-13% to 1.5-3.2%.  The loops are benchmark code, identical on
# both sides of any comparison, and allocate nothing, so the allocator state
# an op leaves behind cannot change their time.
_CALIBRATION_IN = np.random.default_rng(0).standard_normal(1 << 18)
_CALIBRATION_OUT = np.empty((2, 1 << 18))


def interpreter_loop() -> None:
    table = {}
    for i in range(100_000):
        table[i & 255] = (i, str(i & 7))


def numpy_loop() -> None:
    for _ in range(8):
        np.tanh(_CALIBRATION_IN, out=_CALIBRATION_OUT[0])
        np.cumsum(_CALIBRATION_OUT[0], out=_CALIBRATION_OUT[1])


#: calibration loop and its time at the reference speed (about its slow-mode
#: time on the VM above); scaled seconds = wall seconds * reference / loop time
CALIBRATIONS = {"interpreter": (interpreter_loop, 0.028), "numpy": (numpy_loop, 0.016)}


def speed_factor(calibration: str) -> float:
    """Reference time of the calibration loop over its time now.

    One run of 15-30 ms, not the best of several short ones: the slow mode
    shows as lost time spread over the run, which a short best-of run skips.
    """
    loop, reference_s = CALIBRATIONS[calibration]
    start = time.perf_counter()
    loop()
    return reference_s / (time.perf_counter() - start)


class SpeedScale:
    """Factors from wall seconds to seconds at the reference speed.

    The calibration loop runs before the first op, again once
    CALIBRATE_EVERY_S of op time has passed, and after the last op.  Each op
    is scaled by the mean of the two calibrations around it, so a mode switch
    during the op counts half.
    """

    def __init__(self, calibration: str) -> None:
        self.calibration = calibration
        self.factors: list[float] = []
        self._since = math.inf

    def before_op(self) -> int:
        """Index of the calibration the next op follows."""
        if self._since >= CALIBRATE_EVERY_S:
            self.factors.append(speed_factor(self.calibration))
            self._since = 0.0
        return len(self.factors) - 1

    def after_op(self, wall: float) -> None:
        self._since += wall

    def scale(self, segments: list[int], walls: list[float]) -> list[float]:
        self.factors.append(speed_factor(self.calibration))
        f = self.factors
        return [wall * (f[k] + f[k + 1]) / 2 for k, wall in zip(segments, walls)]


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure_plain(runner: Runner, seed: int, seconds: float, golden: dict) -> dict:
    workload = runner.workload
    speed = SpeedScale(workload.calibration)
    raw_walls, segments = [], []
    errors = []  # (cycle position, (SE / SE_target)^2) of each passing op, else None
    attempted = 0
    digest = hashlib.sha256()
    for index, op in cycles(workload, seconds, MIN_OPS):
        attempted += 1
        segment = speed.before_op()
        raw, rec, ok = runner.execute(index, op, op_seed(seed, 0, index))
        if rec is None:
            continue
        speed.after_op(raw)
        raw_walls.append(raw)
        segments.append(segment)
        errors.append((index % len(workload.cycle), workload.error(op[1], rec["outputs"])) if ok else None)
        if ok and op[0] == "expand-ibp" and index < len(workload.cycle):
            digest.update(canonical_terms(rec["outputs"]) + b"\n")
    walls = speed.scale(segments, raw_walls)
    weighted = defaultdict(list)  # cycle position -> scaled wall * (SE / SE_target)^2
    for wall, error in zip(walls, errors):
        if error is not None:
            weighted[error[0]].append(wall * error[1])
    if workload.cycle[0][0] == "expand-ibp" and digest.hexdigest() != golden["sha256"]:
        runner.fail("cycle 0", {}, [f"term-list digest {digest.hexdigest()} != golden"])
    if len(walls) < 2:
        raise SystemExit(f"{runner.name}: only {len(walls)} ops completed; no timing to report")
    n = len(walls)
    if not weighted:  # no op passed its check: no trusted SE, and the run reads incorrect
        weighted = {0: walls}
    # per-op SEs of heavy-tailed weights scatter widely, and op kinds differ in
    # SE, so take the median within each cycle position, then average the mix
    time_to_se = statistics.mean(statistics.median(v) for v in weighted.values())
    return {
        "attempted": attempted,
        "metrics": {
            "ops_per_s": (n / sum(walls), "ops/s"),
            "op_s.p50": (statistics.median(walls), "s"),
            "op_s.p90": (percentile(walls, 90), "s"),
            "time_to_se_s": (time_to_se, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        },
        "raw": {
            "ops_per_s": n / sum(raw_walls),
            "op_s.p50": statistics.median(raw_walls),
            "op_s.p90": percentile(raw_walls, 90),
        },
        "percentile_support": {
            "op_s.p50": f"{n} ops, {n - math.ceil(0.5 * n)} beyond",
            "op_s.p90": f"{n} ops, {n - math.ceil(0.9 * n)} beyond",
            "time_to_se_s": f"mean over {len(weighted)} op kinds of the median over "
                            f"{sum(map(len, weighted.values()))} passing ops",
        },
    }


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------


def _layer_table(tr):
    """(metric, unit, source spans, value over the whole traced phase)."""
    t, c, n = tr.total, tr.counts, tr.calls
    return (
        ("brownian_sheet.normal_fill_s", "s/op", ("brownian_sheet.normal_fill",), t["brownian_sheet.normal_fill"]),
        ("brownian_sheet.normals", "count/op", ("brownian_sheet.normal_fill", "brownian_sheet.sample"), c["normals"]),
        ("brownian_sheet.fill_bytes_computed", "B/op", ("brownian_sheet.normal_fill", "brownian_sheet.sample"), c["fill_bytes"]),
        ("brownian_sheet.cumulative_values_s", "s/op", ("brownian_sheet.cumulative_values",), t["brownian_sheet.cumulative_values"]),
        ("brownian_sheet.cumulative_values_calls", "count/op", ("brownian_sheet.cumulative_values",), n["brownian_sheet.cumulative_values"]),
        ("brownian_sheet.sample_s", "s/op", ("brownian_sheet.sample",), t["brownian_sheet.sample"]),
        ("sde_plane.girsanov_s", "s/op", ("sde_plane.girsanov_weak_expectation",), t["sde_plane.girsanov_weak_expectation"]),
        ("sde_plane.euler_weak_s", "s/op", ("sde_plane.euler_weak_expectation",), t["sde_plane.euler_weak_expectation"]),
        ("sde_plane.drift_eval_s", "s/op", ("sde_plane.drift_eval",), t["sde_plane.drift_eval"]),
        ("sde_plane.drift_eval_calls", "count/op", ("sde_plane.drift_eval",), n["sde_plane.drift_eval"]),
        ("sde_plane.drift_eval_points", "count/op", ("sde_plane.drift_eval",), c["drift_eval_points"]),
        ("sde_plane.jacobian_s", "s/op", ("sde_plane.jacobian",), t["sde_plane.jacobian"]),
        ("sde_plane.jacobian_calls", "count/op", ("sde_plane.jacobian",), n["sde_plane.jacobian"]),
        ("sde_plane.solve_euler_s", "s/op", ("sde_plane.solve_euler",), t["sde_plane.solve_euler"]),
        ("sde_plane.solve_euler_calls", "count/op", ("sde_plane.solve_euler",), n["sde_plane.solve_euler"]),
        ("sde_plane.malliavin_solve_s", "s/op", ("sde_plane.malliavin_solve",), t["sde_plane.malliavin_solve"]),
        ("sde_plane.malliavin_solve_calls", "count/op", ("sde_plane.malliavin_solve",), n["sde_plane.malliavin_solve"]),
        ("integrators.monte_carlo_calls", "count/op", ("integrators.monte_carlo",), n["integrators.monte_carlo"]),
        ("integrators.mc_chunks", "count/op", ("brownian_sheet.normal_fill",), c["mc_chunks"]),
        ("integrators.mc_samples", "count/op", ("integrators.monte_carlo",), c["mc_samples"]),
        ("integrators.integrand_s", "s/op", ("integrators.integrand",), t["integrators.integrand"]),
        ("integrators.accumulate_s", "s/op", ("integrators.monte_carlo",), tr.self_time("integrators.monte_carlo")),
        ("integrators.gauss_hermite_s", "s/op", ("integrators.gauss_hermite",), t["integrators.gauss_hermite"]),
        ("integrators.gh_points", "count/op", ("integrators.gauss_hermite",), c["gh_points"]),
        ("estimate_lab.direct_expectation_s", "s/op", ("estimate_lab.direct_expectation",), t["estimate_lab.direct_expectation"]),
        ("estimate_lab.ibp_expectation_s", "s/op", ("estimate_lab.ibp_expectation",), t["estimate_lab.ibp_expectation"]),
        ("estimate_lab.factor_eval_s", "s/op", ("estimate_lab.factor_eval",), t["estimate_lab.factor_eval"]),
        ("estimate_lab.factor_eval_calls", "count/op", ("estimate_lab.factor_eval",), n["estimate_lab.factor_eval"]),
        ("ibp_engine.expand_s", "s/op", ("ibp_engine.expand",), t["ibp_engine.expand"]),
        ("ibp_engine.expand_calls", "count/op", ("ibp_engine.expand",), n["ibp_engine.expand"]),
        ("ibp_engine.terms", "count/op", ("ibp_engine.expand",), c["terms"]),
        ("ibp_engine.term_to_dict_s", "s/op", ("ibp_engine.term_to_dict",), t["ibp_engine.term_to_dict"]),
        ("cli_runner.run_self_s", "s/op", ("cli_runner.run",), tr.self_time("cli_runner.run")),
        ("cli_runner.to_json_s", "s/op", ("cli_runner.to_json",), t["cli_runner.to_json"]),
        ("cli_runner.json_bytes", "B/op", ("cli_runner.to_json",), c["json_bytes"]),
    )


def _without_wall(rec: dict) -> dict:
    return {k: v for k, v in rec.items() if k != "wall_time_s"}


def bare_fill_seconds(shape: tuple[int, ...], key: int) -> float:
    """Seconds for one bare Philox standard_normal fill of the given shape."""
    rng = np.random.Generator(np.random.Philox(key=key))
    start = time.perf_counter()
    rng.standard_normal(shape)
    return time.perf_counter() - start


def measure_traced(runner: Runner, seed: int, seconds: float) -> dict:
    import spans
    from sheetsde import cli_runner, estimate_lab, sde_plane

    workload = runner.workload
    tracer = spans.Tracer()
    bindings = tracer.bindings(cli_runner, sde_plane, estimate_lab)
    plain_walls, traced_walls, ess, fill_per_normal = [], [], [], []
    attempted = 0
    for index, op in cycles(workload, seconds, len(workload.cycle)):
        attempted += 1
        op_key = op_seed(seed, 0, index)
        pair = {}
        # alternate which twin runs first, along the cycle and across cycles
        first_traced = (index % len(workload.cycle) + index // len(workload.cycle)) % 2
        for traced in ((True, False) if first_traced else (False, True)):
            if traced:
                with spans.rebound(bindings):
                    pair[traced] = runner.execute(index, op, op_key, tracer)
            else:
                pair[traced] = runner.execute(index, op, op_key)
        (traced_wall, rec, ok), (plain_wall, plain_rec, _) = pair[True], pair[False]
        if rec is None or plain_rec is None:
            continue
        if _without_wall(rec) != _without_wall(plain_rec):
            runner.fail(index, op[1], ["traced output differs from plain output"])
        plain_walls.append(plain_wall)
        traced_walls.append(traced_wall)
        weight = rec["outputs"].get("mean_weight")
        if ok and weight is not None:
            m, se, n = weight["mean"], weight["std_error"], weight["n_samples"]
            ess.append(m * m / (m * m + n * se * se))
        if tracer.largest_fill:
            size = math.prod(tracer.largest_fill)
            fill_per_normal.append(bare_fill_seconds(tracer.largest_fill, op_seed(seed, 2, index)) / size)
    n_ops = len(traced_walls)
    if n_ops == 0:
        raise SystemExit(f"{runner.name}: no traced op completed")

    missing = sorted(s for s in workload.spans if tracer.calls[s] == 0)
    metrics, shown = {}, {}
    for name, unit, sources, total in _layer_table(tracer):
        metrics[name] = (total / n_ops, unit)
        expected = [s for s in sources if s in workload.spans]
        shown[name] = "missing" if expected and all(s in missing for s in expected) else total / n_ops
    expand_s = tracer.total["ibp_engine.expand"]
    normals_per_op = tracer.counts["normals"] / n_ops
    floor = statistics.median(fill_per_normal) if fill_per_normal else 0.0
    derived = {
        "ibp_engine.terms_per_s": (tracer.counts["terms"] / expand_s if expand_s else 0.0, "1/s"),
        "brownian_sheet.rng_floor_ratio": (
            statistics.mean(plain_walls) / normals_per_op / floor if floor else 0.0, "ratio"),
        "sde_plane.weight_ess_ratio": (statistics.median(ess) if ess else 0.0, "ratio"),
        "tracing.overhead_s": ((sum(traced_walls) - sum(plain_walls)) / n_ops, "s/op"),
        "tracing.overhead_ratio": (sum(traced_walls) / sum(plain_walls) - 1.0, "ratio"),
        "tracing.ops": (float(n_ops), "count"),
        "tracing.spans_missing": (float(len(missing)), "count"),
    }
    metrics.update(derived)
    shown.update({k: v[0] for k, v in derived.items()})
    for name, source in (("ibp_engine.terms_per_s", "ibp_engine.expand"),
                         ("brownian_sheet.rng_floor_ratio", "brownian_sheet.normal_fill")):
        if source in missing:
            shown[name] = "missing"
    return {
        "attempted": attempted,
        "metrics": metrics,
        "shown": shown,
        "missing_spans": missing,
        "spans": {s: {"calls": tracer.calls[s], "total_s": tracer.total[s],
                      "self_s": tracer.self_time(s)} for s in spans.SPANS},
        "percentile_support": {"per-layer values": f"means over {n_ops} traced ops"},
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def provenance() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')} (build)"
    except (TypeError, KeyError, AttributeError):
        openblas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "openblas": openblas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description="one sheetsde benchmark process")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--t0", type=float, required=True, help="time.monotonic() at process start")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import sheetsde
    from sheetsde import cli_runner

    if Path(sheetsde.__file__).resolve().parent != ROOT / "src" / "sheetsde":
        raise SystemExit(f"imported sheetsde from {sheetsde.__file__}, not from this checkout")
    golden = json.loads(GOLDEN_PATH.read_text())
    workload = make_workloads(golden)[args.workload]
    runner = Runner(args.workload, workload, cli_runner)

    op = workload.cycle[0]
    runner.execute("warm-up", op, op_seed(args.seed, 1))
    setup_raw_s = time.monotonic() - args.t0
    setup_s = setup_raw_s * speed_factor(workload.calibration)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
        return 0

    if args.trace:
        result = measure_traced(runner, args.seed, args.seconds)
    else:
        result = measure_plain(runner, args.seed, args.seconds, golden)
    result.update(setup_s=setup_s, setup_raw_s=setup_raw_s, failures=runner.failures, provenance=provenance())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
