"""Sampling of the d-dimensional Brownian sheet on a grid partition.

A sheet sample stores one Gaussian increment per cell and component; the
increment of cell (i, j) has variance equal to the cell area, increments of
distinct cells are independent, and the sheet value at a grid point is the
inclusion-exclusion sum of all increments below-left of it.  Values on the
axes are identically zero.

Randomness is counter based, and stream(key, *path) is the one place that
makes a generator: Philox keyed through numpy's SeedSequence spawn keys
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11).  A
key is a seed or a tuple (seed, *path).  A function with several consumers
hands them the children (key, 0), (key, 1), ... in a fixed order, and shard
r of a Monte Carlo run draws stream(key, r).  Distinct keys give distinct
streams: stream rejects seeds from 2**128 and path components from 2**32 on,
where spawn keys would collide.  A sheet sample fills its whole increment
array in one fixed C-ordered draw, so no draw depends on an iteration order.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .plane_geometry import GridPartition

#: significant digits used for all CSV exports
CSV_FLOAT_FORMAT = "%.17g"
# lines the CSV writer formats at once, which bounds the text it holds
_CSV_ROWS = 1 << 12


Key = Union[int, tuple]


def _flat(key: Key) -> list[int]:
    if isinstance(key, tuple):
        return [part for item in key for part in _flat(item)]
    return [operator.index(key)]


def stream(seed: Key, *path: Key) -> np.random.Generator:
    """The Philox generator of key (seed, *path); nested tuples read flat."""
    head, *rest = _flat((seed, path))
    if head >> 128 or any(part >> 32 for part in rest):  # beyond, SeedSequence keys collide
        raise ValueError(f"key {(head, *rest)}: need 0 <= seed < 2**128, 0 <= path < 2**32")
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(head, spawn_key=rest)))


@dataclass(frozen=True)
class SheetSample:
    """Per-cell increments of one sheet realization, or of a batch of them.

    increments[..., i-1, j-1, c] is the rectangle increment of component c
    over cell (i, j); leading axes, when present, index the sheets.  dim is
    the increments' last axis.
    """

    grid: GridPartition
    increments: np.ndarray

    def __post_init__(self) -> None:
        cells = (self.grid.n_s, self.grid.n_t)
        if self.increments.shape[-3:-1] != cells:
            raise ValueError(f"increments shape {self.increments.shape} does not fit grid cells {cells}")

    @property
    def dim(self) -> int:
        return self.increments.shape[-1]

    @property
    def batch_shape(self) -> tuple[int, ...]:
        """Leading sample axes of the increments; () for one sheet."""
        return self.increments.shape[:-3]


def _increment_sampler(grid: GridPartition, dim: int):
    if dim < 1:
        raise ValueError("dim must be >= 1")
    std = np.sqrt(grid.areas())[:, :, None]

    def sampler(rng: np.random.Generator, size: int) -> np.ndarray:
        z = rng.standard_normal((size, grid.n_s, grid.n_t, dim))
        z *= std
        return z

    return sampler


def sample(grid: GridPartition, dim: int = 1, seed: Key = 0) -> SheetSample:
    """One sheet from stream(seed): a batch of one from the paired pass's increment sampler."""
    return SheetSample(grid, _increment_sampler(grid, dim)(stream(seed), 1)[0])


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


def coarsen(sheet: SheetSample, factor_s: int, factor_t: Optional[int] = None) -> SheetSample:
    """Aggregate cell increments in blocks onto the subsampled knot grid.

    The same underlying sheet restricted to every factor-th knot; used for
    coupled mesh-refinement studies.  Requires the cell counts to divide.
    Leading sample axes are kept: one reshape-sum over (..., n_s, n_t, dim).
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
    shape = (*sheet.batch_shape, ns, factor_s, nt, factor_t, sheet.dim)
    inc = sheet.increments.reshape(shape).sum(axis=(-4, -2))
    coarse = GridPartition(grid.s_knots[::factor_s], grid.t_knots[::factor_t])
    return SheetSample(coarse, inc)


def cameron_martin_shift(sheet: SheetSample, hdot: np.ndarray, eps: float) -> SheetSample:
    """Shift each cell increment by eps * hdot * area.

    hdot is an array of densities shaped like the increments.
    """
    grid = sheet.grid
    dens = np.asarray(hdot, dtype=float)
    if dens.shape != sheet.increments.shape:
        raise ValueError(f"hdot shape {dens.shape} != {sheet.increments.shape}")
    areas = grid.areas()[:, :, None]
    return SheetSample(grid, sheet.increments + eps * dens * areas)


def _write_csv(path: str, header: list[str], index: np.ndarray, values: np.ndarray) -> None:
    """Write the header, then one line per row: its integer index columns, then its values.

    csv.writer's bytes (no field needs quoting, lines end in \r\n), with each
    block of _CSV_ROWS lines formatted by one % on a repeated row template.
    """
    line = ",".join(["%d"] * index.shape[1] + [CSV_FLOAT_FORMAT] * values.shape[1]) + "\r\n"
    table = np.column_stack([index, values])
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(table), _CSV_ROWS):
            rows = table[start:start + _CSV_ROWS]
            fh.write((line * len(rows)) % tuple(rows.ravel().tolist()))


def export_csv(sheet: SheetSample, path: str) -> None:
    """Write one row (i, j, component, z) per increment, 1-based indices."""
    if sheet.batch_shape:
        raise ValueError(f"export_csv takes one sheet, got leading shape {sheet.batch_shape}")
    index = np.indices(sheet.increments.shape).reshape(3, -1).T + 1
    _write_csv(path, ["i", "j", "component", "z"], index, sheet.increments.reshape(-1, 1))

