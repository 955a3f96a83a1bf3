#!/usr/bin/env python3
"""Sweep the direct-vs-expanded identity over permutations and budgets.

Writes one CSV row per (sigma, method, budget) with the two estimates, the
gap in combined-SE units (or relative units for quadrature), and the product
bound.  Intended for convergence plots; the quadrature column should flatline
at machine precision while MC gaps stay O(1) in SE units.
"""

import argparse
import csv
import itertools
import sys

from sheetsde.estimate_lab import bump_factor, verify_identity
from sheetsde.ibp_engine import uniform_spec


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=3, help="scheme size (all n! permutations)")
    ap.add_argument("--horizon", type=float, default=1.0)
    ap.add_argument("--mc-budgets", default="10000,100000",
                    help="comma-separated MC sample counts")
    ap.add_argument("--quad-nodes", default="16,24,30",
                    help="comma-separated nodes per dimension (n <= 2 only)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="-", help="CSV path, - for stdout")
    args = ap.parse_args()

    factor = bump_factor(scale=1.0, width=2.5, center=0.25)
    runs = []
    for sigma in itertools.permutations(range(1, args.n + 1)):
        for budget in (int(float(b)) for b in args.mc_budgets.split(",") if b):
            runs.append((sigma, "mc", budget))
        if args.n <= 2:
            for nodes in (int(b) for b in args.quad_nodes.split(",") if b):
                runs.append((sigma, "quadrature", nodes))

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
