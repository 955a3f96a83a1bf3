#!/usr/bin/env python3
"""Sweep the direct-vs-expanded identity over permutations and budgets.

Uses gaussian_factor() throughout.  Writes one CSV row per sigma for the
exact route (budget 0, gated at a relative EXACT_REL_TOL) and one per
(sigma, MC budget), with the two estimates, the gap, its tolerance and the
product bound.  Intended for convergence plots: the exact gaps sit near
machine precision while MC gaps stay O(1) in SE units.  Exits 2 if any
row's gap exceeds its tolerance.
"""

import argparse
import csv
import itertools
import sys

from sheetsde.estimate_lab import gaussian_factor, verify_identity
from sheetsde.ibp_engine import uniform_spec


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=3, help="scheme size (all n! permutations)")
    ap.add_argument("--horizon", type=float, default=1.0)
    ap.add_argument("--mc-budgets", default="10000,100000",
                    help="comma-separated MC sample counts")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="-", help="CSV path, - for stdout")
    args = ap.parse_args()

    factor = gaussian_factor()
    runs = []
    for sigma in itertools.permutations(range(1, args.n + 1)):
        runs.append((sigma, "exact", 0))
        for budget in (int(float(b)) for b in args.mc_budgets.split(",") if b):
            runs.append((sigma, "mc", budget))

    fh = sys.stdout if args.out == "-" else open(args.out, "w", newline="")
    writer = csv.writer(fh)
    writer.writerow(["sigma", "method", "budget", "direct", "ibp",
                     "gap", "tol", "bound", "identity_ok", "bound_ok"])
    worst = 0.0
    for idx, (sigma, method, budget) in enumerate(runs):
        spec = uniform_spec(sigma, horizon=args.horizon)
        rep = verify_identity(spec, factor, method=method, budget=budget,
                              seed=(args.seed, idx))
        writer.writerow(["".join(map(str, sigma)), method, budget,
                         f"{rep.direct.mean:.12e}", f"{rep.ibp.mean:.12e}",
                         f"{rep.identity_gap:.3e}", f"{rep.identity_tol:.3e}",
                         f"{rep.bound:.6e}", rep.identity_ok, rep.bound_ok])
        worst = max(worst, rep.identity_gap / rep.identity_tol)
        if not rep.passed:
            print(f"FAIL sigma={sigma} method={method} budget={budget}", file=sys.stderr)
    if fh is not sys.stdout:
        fh.close()
    print(f"# {len(runs)} runs, worst gap/tol = {worst:.3f}", file=sys.stderr)
    return 0 if worst <= 1.0 else 2


if __name__ == "__main__":
    sys.exit(main())
