#!/usr/bin/env python3
"""Mesh-order study of the two drift discretizations.

Solves the same sheet realization on nested dyadic meshes (one fine sample,
coarsened by block sums, so every level sees the same underlying noise) and
reports sup |euler - picard| per level plus the least-squares order in the
mesh width.  Smooth drift should give order close to 1.
"""

import argparse
import csv
import sys

import numpy as np

from sheetsde.brownian_sheet import coarsen, sample
from sheetsde.plane_geometry import uniform_grid
from sheetsde.sde_plane import solve_euler, solve_picard, tanh_drift


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--fine", type=int, default=128, help="finest cells per axis (power of 2)")
    ap.add_argument("--levels", type=int, default=4)
    ap.add_argument("--amplitude", type=float, default=0.8)
    ap.add_argument("--rate", type=float, default=1.3)
    ap.add_argument("--x0", type=float, default=0.1)
    ap.add_argument("--seed", type=int, default=23)
    ap.add_argument("--out", default="-")
    args = ap.parse_args()
    if args.fine % (1 << (args.levels - 1)) != 0:
        ap.error("--fine must be divisible by 2^(levels-1)")

    fine = sample(uniform_grid(args.fine, args.fine, 1.0, 1.0), dim=1, seed=args.seed)
    drift = tanh_drift(args.amplitude, args.rate, 1)
    fh = sys.stdout if args.out == "-" else open(args.out, "w", newline="")
    writer = csv.writer(fh)
    writer.writerow(["cells_per_axis", "mesh_width", "sup_gap", "picard_sweeps"])
    hs, errs = [], []
    for level in range(args.levels):
        factor = 1 << (args.levels - 1 - level)
        sheet = coarsen(fine, factor)
        grid = sheet.grid
        e = solve_euler(drift, args.x0, sheet)
        p, sweeps = solve_picard(drift, args.x0, sheet)
        gap = float(np.max(np.abs(e.values - p.values)))
        hs.append(1.0 / grid.n_s)
        errs.append(gap)
        writer.writerow([grid.n_s, f"{hs[-1]:.6g}", f"{gap:.6e}", sweeps])
    slope = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
    if fh is not sys.stdout:
        fh.close()
    print(f"# measured order {slope:.4f} over {args.levels} levels", file=sys.stderr)
    return 0 if slope >= 0.9 else 2


if __name__ == "__main__":
    sys.exit(main())
