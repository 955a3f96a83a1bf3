"""Sampling of the d-dimensional Brownian sheet on a grid partition.

A sheet sample stores one Gaussian increment per cell and component; the
increment of cell (i, j) has variance equal to the cell area, increments of
distinct cells are independent, and the sheet value at a grid point is the
inclusion-exclusion sum of all increments below-left of it.  Values on the
axes are identically zero.

Randomness is counter based: a Philox stream keyed by the seed fills the
whole increment array in one fixed C-ordered draw, so the draw attached to
(row, col, component) does not depend on any iteration order.  Batches of
sheets for Monte Carlo come from integrators.monte_carlo, whose shard r
draws from the Philox key [seed, r]; derive_seed (seed XOR index) keys the
separate seeds that callers hand to independent passes.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .plane_geometry import GridPartition

_UINT64 = np.uint64
_MASK64 = (1 << 64) - 1

#: significant digits used for all CSV exports
CSV_FLOAT_FORMAT = "%.17g"


def derive_seed(seed: int, index: int) -> int:
    """Replication seed contract: seed XOR index, reduced to 64 bits."""
    return (int(seed) ^ int(index)) & _MASK64


def keyed_generator(seed: int) -> np.random.Generator:
    """Counter-based generator for a 64-bit key."""
    return np.random.Generator(np.random.Philox(key=_UINT64(int(seed) & _MASK64)))


@dataclass(frozen=True)
class SheetSample:
    """Per-cell increments of one sheet realization.

    increments[i-1, j-1, c] is the rectangle increment of component c over
    cell (i, j).
    """

    grid: GridPartition
    dim: int
    increments: np.ndarray
    seed: int

    def __post_init__(self) -> None:
        expected = (self.grid.n_s, self.grid.n_t, self.dim)
        if self.increments.shape != expected:
            raise ValueError(
                f"increments shape {self.increments.shape} != grid shape {expected}"
            )


def sample(grid: GridPartition, dim: int = 1, seed: int = 0) -> SheetSample:
    """One sheet realization; increments are sqrt(area) times standard normals."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    rng = keyed_generator(seed)
    z = rng.standard_normal((grid.n_s, grid.n_t, dim))
    return SheetSample(grid, dim, z * np.sqrt(grid.areas())[:, :, None], seed)


def cumulative_values(increments: np.ndarray) -> np.ndarray:
    """Grid-point sheet values with zero axes.

    Accepts (..., n_s, n_t, dim) increments and returns (..., n_s+1, n_t+1, dim):
    out[..., i, j, :] = sum of increments over rows <= i, cols <= j.
    Both prefix sums run in place in the interior of the output, and only
    the two axis planes are zeroed.
    """
    inc = np.asarray(increments)
    *batch, n_s, n_t, dim = inc.shape
    # the dtype np.cumsum would give: floats keep theirs, small ints widen
    out = np.empty((*batch, n_s + 1, n_t + 1, dim), dtype=np.cumsum(inc[..., :0]).dtype)
    out[..., 0, :, :] = 0
    out[..., 1:, 0, :] = 0
    body = out[..., 1:, 1:, :]
    np.cumsum(inc, axis=-3, out=body)
    np.cumsum(body, axis=-2, out=body)
    return out


def values(sheet: SheetSample) -> np.ndarray:
    """All grid-point values of the sample, shape (n_s+1, n_t+1, dim)."""
    return cumulative_values(sheet.increments)


def coarsen(sheet: SheetSample, factor_s: int, factor_t: Optional[int] = None) -> SheetSample:
    """Aggregate cell increments in blocks onto the subsampled knot grid.

    The same underlying sheet restricted to every factor-th knot; used for
    coupled mesh-refinement studies.  Requires the cell counts to divide.
    """
    if factor_t is None:
        factor_t = factor_s
    grid = sheet.grid
    if factor_s < 1 or factor_t < 1:
        raise ValueError("coarsening factors must be >= 1")
    if grid.n_s % factor_s != 0 or grid.n_t % factor_t != 0:
        raise ValueError(
            f"factors ({factor_s}, {factor_t}) do not divide cell counts ({grid.n_s}, {grid.n_t})"
        )
    ns, nt = grid.n_s // factor_s, grid.n_t // factor_t
    inc = sheet.increments.reshape(ns, factor_s, nt, factor_t, sheet.dim).sum(axis=(1, 3))
    coarse = GridPartition(grid.s_knots[::factor_s], grid.t_knots[::factor_t])
    return SheetSample(coarse, sheet.dim, inc, sheet.seed)


def cameron_martin_shift(sheet: SheetSample, hdot: np.ndarray, eps: float) -> SheetSample:
    """Shift each cell increment by eps * hdot * area.

    hdot is an (n_s, n_t, dim) array of densities.  The shifted sample keeps
    the seed token of its parent.
    """
    grid = sheet.grid
    dens = np.asarray(hdot, dtype=float)
    if dens.shape != sheet.increments.shape:
        raise ValueError(f"hdot shape {dens.shape} != {sheet.increments.shape}")
    areas = grid.areas()[:, :, None]
    return SheetSample(grid, sheet.dim, sheet.increments + eps * dens * areas, sheet.seed)


def export_csv(sheet: SheetSample, path: str) -> None:
    """Write one row (i, j, component, z) per increment, 1-based indices."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["i", "j", "component", "z"])
        for i in range(1, sheet.grid.n_s + 1):
            for j in range(1, sheet.grid.n_t + 1):
                for c in range(sheet.dim):
                    writer.writerow([i, j, c + 1, CSV_FLOAT_FORMAT % sheet.increments[i - 1, j - 1, c]])

