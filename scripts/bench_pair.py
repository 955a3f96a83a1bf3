#!/usr/bin/env python3
"""Paired benchmark runs of a parent tree and a change tree, written to one JSON file.

For every workload and each of its ten fixed seeds, runs

    python3 perfbench/run.py --workload W --seed S --seconds 10 --trace 0

once in the parent tree and once in the change tree, alternating which side
goes first from pair to pair, so a drift in machine speed hits both sides
alike.  Each run's last stdout line (the benchmark's result) is kept, with
its "# FAILED" lines and its provenance.  The output file holds every run,
the per-workload medians of each side, the change/parent ratio of the
medians, the number of pairs the change wins per metric, the parent's
interquartile range, whether the median moved by more than that range (a
gain or a loss), and the failed ops of both sides.  Next to each gain/loss
flag stands parent_iqr_rel, the parent's IQR over the parent's median: the
smallest relative move of the median that the flag can resolve.  A run that exits
non-zero or outlasts its timeout is kept as an error entry.

Seeds are fixed per workload and include the ones whose runs have had failed
ops on correct code: ibp_identity 91 (op 21) and 130 (op 15), the tail of
the 4-SE identity gate, and weak_mc 19 (op 0), which has passed since
girsanov-check draws its estimators from one paired pass.  They are reported
as they fall, never re-seeded around.

A tree is a directory holding a checkout, or a git revision of the
repository this script sits in, which is extracted with ``git archive`` into
a temporary directory.  Usage, from the root of a checkout:

    python3 scripts/bench_pair.py --parent HEAD~1 --change HEAD --out BENCH.json
    python3 scripts/bench_pair.py --parent HEAD~1 --change . --out BENCH.json

Each run lasts the benchmark's own run_seconds (BENCHMARK.json of the change tree).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from io import BytesIO
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: fixed seeds per workload; the first ones are those with failed ops on correct code
SEEDS = {
    "weak_mc": (19, 201, 202, 203, 204, 205, 206, 207, 208, 209),
    "ibp_identity": (91, 130, 301, 302, 303, 304, 305, 306, 307, 308),
    "expand_sweep": (601, 602, 603, 604, 605, 606, 607, 608, 609, 610),
    "derivatives": (401, 402, 403, 404, 405, 406, 407, 408, 409, 410),
}
RUN_TIMEOUT_S = 240.0


def materialise(tree: str, workdir: Path) -> tuple[Path, dict]:
    """(checkout directory, provenance) of a directory or a git revision."""
    path = Path(tree)
    if path.is_dir():
        # the runs' git_commit is the directory's HEAD; uncommitted edits show in src_sha256
        status = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=path,
                                capture_output=True, text=True)
        return path.resolve(), {"tree": path.name or str(path.resolve()),
                                "uncommitted_src_changes": bool(status.stdout.strip())}
    commit = subprocess.run(["git", "rev-parse", "--verify", tree + "^{commit}"], cwd=ROOT,
                            capture_output=True, text=True, check=True).stdout.strip()
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, capture_output=True, check=True).stdout
    target = workdir / commit[:12]
    with tarfile.open(fileobj=BytesIO(archive)) as tar:
        tar.extractall(target, filter="data")
    return target, {"revision": tree, "git_commit": commit}


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One benchmark run: its result line, failure lines and provenance."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"seed": seed, "exit_code": None, "elapsed_s": round(time.monotonic() - start, 1),
                "error": [f"timed out after {RUN_TIMEOUT_S:g} s"]}
    lines = proc.stdout.strip().splitlines()
    run = {"seed": seed, "exit_code": proc.returncode, "elapsed_s": round(time.monotonic() - start, 1)}
    if proc.returncode != 0 or not lines:
        run["error"] = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return run
    result = json.loads(lines[-1])
    provenance = next((json.loads(l[len("# provenance "):]) for l in lines
                       if l.startswith("# provenance ")), {})
    run.update(
        attempted=result["attempted"],
        failed=result["failed"],
        failures=[l[len("# FAILED "):] for l in lines if l.startswith("# FAILED ")],
        metrics={name: m["value"] for name, m in result["metrics"].items()},
        provenance=provenance,
    )
    return run


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarise(pairs: list[dict], better: dict[str, str]) -> dict:
    """Medians per side, change/parent ratio, wins and IQR-resolved shift per metric, failed ops.

    The shift is flagged "gain" or "loss" only when the median moved by more
    than the parent's IQR; parent_iqr_rel gives that resolution relative to
    the parent's median.
    """
    ok = [p for p in pairs if "metrics" in p["parent"] and "metrics" in p["change"]]
    summary = {"pairs": len(pairs), "complete_pairs": len(ok), "metrics": {}}
    for name, direction in better.items():
        parent = [p["parent"]["metrics"][name] for p in ok]
        change = [p["change"]["metrics"][name] for p in ok]
        if not parent:
            continue
        sign = 1.0 if direction == "higher" else -1.0
        q1, q3 = quartiles(parent)
        med_p, med_c = statistics.median(parent), statistics.median(change)
        gain = sign * (med_c - med_p)
        summary["metrics"][name] = {
            "better": direction,
            "parent_median": med_p,
            "change_median": med_c,
            "ratio": med_c / med_p if med_p else None,
            "change_wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
            "parent_iqr": q3 - q1,
            "parent_iqr_rel": (q3 - q1) / med_p if med_p else None,
            "median_shift_beyond_parent_iqr": ("gain" if gain > q3 - q1 else
                                               "loss" if -gain > q3 - q1 else None),
        }
    for side in ("parent", "change"):
        runs = [p[side] for p in pairs]
        summary[side + "_attempted_ops"] = sum(r.get("attempted", 0) for r in runs)
        summary[side + "_failed_ops"] = sum(r.get("failed", 0) for r in runs)
        summary[side + "_failures"] = [f"seed {r['seed']}: {f}" for r in runs for f in r.get("failures", ())]
        summary[side + "_errors"] = [f"seed {r['seed']}: {r['error']}" for r in runs if "error" in r]
    return summary


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="parent tree: directory or git revision")
    ap.add_argument("--change", default=str(ROOT), help="change tree: directory or git revision")
    ap.add_argument("--out", required=True, help="JSON file to write")
    args = ap.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        trees = {}
        sides = {}
        for side in ("parent", "change"):
            trees[side], sides[side] = materialise(getattr(args, side), Path(tmp))
        spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
        better = {m["name"]: m["better"] for m in spec["end_to_end"]}
        seconds = spec["run_seconds"]
        report = {
            "about": " ".join(" ".join(part.split()) for part in __doc__.split("\n\n")[1:5]),
            "command": "python3 perfbench/run.py --workload W --seed S "
                       f"--seconds {seconds} --trace 0",
            "sides": sides,
            "workloads": {},
        }
        for workload, seeds in SEEDS.items():
            pairs = []
            for k, seed in enumerate(seeds):
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_once(trees[side], workload, seed, seconds)
                    m = pair[side].get("metrics", {})
                    print(f"{workload} seed {seed} {side}: ops_per_s {m.get('ops_per_s', float('nan')):.4g}"
                          f" failed {pair[side].get('failed')}", file=sys.stderr, flush=True)
                pairs.append(pair)
            report["workloads"][workload] = {"summary": summarise(pairs, better), "runs": pairs}
            for side in ("parent", "change"):
                runs = [p[side] for p in pairs if "provenance" in p[side]]
                if runs:
                    prov = dict(runs[0]["provenance"])
                    for key in ("workload", "workload_seed", "seconds", "trace"):
                        prov.pop(key, None)
                    sides[side].setdefault("provenance", prov)
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
