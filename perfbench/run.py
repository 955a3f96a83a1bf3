#!/usr/bin/env python3
"""sheetsde benchmark: four closed-loop workloads of in-process CLI ops.

Run from the root of a checkout:

    python3 perfbench/run.py --workload weak_mc --seed 1 --seconds 10 --trace 0

``--workload all`` runs the four workloads one after another.

Workloads (scaled-down forms of acceptance criteria 10, 3, 2 and 9):
  weak_mc       girsanov-check, 64x64 grid, x0 0.1, 1024 samples, tanh and sign
                drift alternating: sheet Monte Carlo, the bulk of the test suite.
  ibp_identity  verify-ibp by Monte Carlo, every sigma at n=3 and n=4, 1e5
                samples: small-payload Monte Carlo, one call per expansion term.
  expand_sweep  expand-ibp for all 720 sigma at n=6: pure ibp_engine plus JSON;
                term lists are checked against a golden SHA-256 digest.
  derivatives   malliavin-check, 32x32 grid, tanh drift: one derivative solve
                per cell.

With --trace 0 it reports the end-to-end metrics: setup_s (median over three
processes of the time from process start to the first timed op, covering
imports, input generation and one untimed warm-up op), ops_per_s, op_s.p50,
op_s.p90, time_to_se_s and peak_rss_mb.  Times are scaled to a reference
machine speed by a calibration loop timed next to the ops (worker.py,
CALIBRATIONS), because shared CPUs switch speed modes mid-run; the
raw seconds are printed beside them.  With --trace 1 it reports the
per-layer metrics of a traced run and the tracing overhead.  Everything else
(provenance, percentile support, failed ops, missing spans) is printed above
the last line and written to .bench_results/; the last line is one JSON
object with correct, attempted, failed and metrics.

The program is imported from src/ of the checkout; without it the benchmark
exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("weak_mc", "ibp_identity", "expand_sweep", "derivatives")
SETUP_REPEATS = 3
#: the whole run, every process included, ends before the driver's 180 s limit
DEADLINE_S = 170.0


def git_commit() -> str | None:
    """HEAD commit read from .git without starting a process; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sheetsde").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def start_worker(args, deadline: float, setup_only: bool) -> dict:
    t0 = time.monotonic()
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--t0", repr(t0)]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(deadline - t0, 1.0))
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(args, declared: dict) -> None:
    """Run one workload in its own processes; print its report and result line."""
    deadline = time.monotonic() + DEADLINE_S
    children = []
    if not args.trace:
        for _ in range(SETUP_REPEATS - 1):
            children.append(start_worker(args, deadline, setup_only=True))
    result = start_worker(args, deadline, setup_only=False)
    children.append(result)
    setups = [c["setup_s"] for c in children]

    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()}
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        result["raw"]["setup_s"] = statistics.median(c["setup_raw_s"] for c in children)
        result["percentile_support"]["setup_s"] = f"median of {len(setups)} processes"
    emitted = {name: m["unit"] for name, m in metrics.items()}
    if emitted != declared:
        raise SystemExit(f"metrics {sorted(emitted.items())} do not match BENCHMARK.json {sorted(declared.items())}")

    failed_ops = {f["op"] for f in result["failures"] if isinstance(f["op"], int)}
    provenance = dict(result["provenance"], git_commit=git_commit(), src_sha256=src_digest(),
                      workload=args.workload, workload_seed=args.seed, seconds=args.seconds,
                      trace=args.trace)
    report = {
        "provenance": provenance,
        "attempted": result["attempted"],
        "failed": len(failed_ops),
        "ops_failed_ratio": len(failed_ops) / result["attempted"],
        "failures": result["failures"],
        "setup_s_all": setups,
        "raw_seconds": result.get("raw"),
        "percentile_support": result["percentile_support"],
        "metrics": metrics,
    }
    if args.trace:
        report.update(shown=result["shown"], missing_spans=result["missing_spans"], spans=result["spans"])
    out_dir = ROOT / ".bench_results"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2) + "\n")

    print(f"# {args.workload} seed {args.seed} trace {args.trace}: "
          f"{report['attempted']} ops, {report['failed']} failed "
          f"(ops_failed_ratio {report['ops_failed_ratio']:.3g})")
    print("# provenance " + json.dumps(provenance))
    shown = result.get("shown", {})
    for name in sorted(metrics):
        value = shown.get(name, metrics[name]["value"])
        text = value if isinstance(value, str) else f"{value:.6g}"
        note = result["percentile_support"].get(name, "")
        if name in result.get("raw", {}):
            note = f"raw {result['raw'][name]:.6g}; {note}"
        print(f"#   {name:40s} {text:>14s} {metrics[name]['unit']:9s} {note}")
    if args.trace:
        print(f"# missing spans: {', '.join(result['missing_spans']) or 'none'}")
    for failure in result["failures"][:20]:
        print(f"# FAILED {failure['workload']} op {failure['op']}: {'; '.join(failure['reasons'])}")
    print(json.dumps({
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": len(failed_ops),
        "metrics": metrics,
    }), flush=True)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="one workload, or all of them one after another")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "sheetsde" / "__init__.py").is_file():
        print(f"error: no sheetsde sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    for name in WORKLOADS if args.workload == "all" else (args.workload,):
        run_workload(argparse.Namespace(**dict(vars(args), workload=name)), declared)
    return 0


if __name__ == "__main__":
    sys.exit(main())
