"""Cells and grid partitions of the positive quadrant.

The time parameter is two dimensional: a point (s, t) lies in [0, T]^2 and
points are compared coordinatewise.  A grid partition carries two knot
vectors starting at 0; cells are indexed 1-based so that index 0 always
refers to the axes, where every sheet value vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Knots closer than this are considered ties and rejected up front.
MIN_KNOT_GAP = 1e-12


class DegenerateGridError(ValueError):
    """Raised when a knot vector is unsorted or has near-coincident knots."""


def _validated_knots(name: str, knots: Sequence[float]) -> tuple[tuple[float, ...], np.ndarray]:
    """(tuple, read-only float array) of one axis's knots, checked once."""
    vec = np.array(knots, dtype=float)
    if vec.ndim != 1:
        raise DegenerateGridError(f"{name} must be a flat sequence of knots, got shape {vec.shape}")
    if len(vec) < 2:
        raise DegenerateGridError(f"{name} needs at least two knots, got {len(vec)}")
    if vec[0] != 0.0:
        raise DegenerateGridError(f"{name} must start at 0.0, got {float(vec[0])!r}")
    if (vec[1:] - vec[:-1] <= MIN_KNOT_GAP).any():
        raise DegenerateGridError(
            f"{name} must be strictly increasing with gaps > {MIN_KNOT_GAP:g}"
        )
    vec.flags.writeable = False
    return tuple(vec.tolist()), vec


@dataclass(frozen=True)
class GridPartition:
    """Rectangular partition of [0, s_max] x [0, t_max].

    Cell (i, j) spans (s_knots[i-1], s_knots[i]] x (t_knots[j-1], t_knots[j]].
    """

    s_knots: tuple[float, ...]
    t_knots: tuple[float, ...]

    def __post_init__(self) -> None:
        # built once, beside the public tuples: samplers and solvers read the
        # knot arrays and the areas on every call
        for axis in ("s", "t"):
            knots, array = _validated_knots(f"{axis}_knots", getattr(self, f"{axis}_knots"))
            object.__setattr__(self, f"{axis}_knots", knots)
            object.__setattr__(self, f"_{axis}_array", array)
        areas = self.s_gaps()[:, None] * self.t_gaps()
        areas.flags.writeable = False
        object.__setattr__(self, "_areas", areas)

    @property
    def n_s(self) -> int:
        return len(self.s_knots) - 1

    @property
    def n_t(self) -> int:
        return len(self.t_knots) - 1

    def s_knot_array(self) -> np.ndarray:
        """s_knots as a read-only float array."""
        return self._s_array

    def t_knot_array(self) -> np.ndarray:
        """t_knots as a read-only float array."""
        return self._t_array

    def s_gaps(self) -> np.ndarray:
        return self._s_array[1:] - self._s_array[:-1]

    def t_gaps(self) -> np.ndarray:
        return self._t_array[1:] - self._t_array[:-1]

    def areas(self) -> np.ndarray:
        """Cell areas, shape (n_s, n_t), read-only; entry [i - 1, j - 1] is cell (i, j)."""
        return self._areas


def uniform_grid(n_s: int, n_t: int, s_max: float = 1.0, t_max: float = 1.0) -> GridPartition:
    if n_s < 1 or n_t < 1:
        raise ValueError("grid needs at least one cell per direction")
    return GridPartition(np.linspace(0.0, s_max, n_s + 1), np.linspace(0.0, t_max, n_t + 1))


def geometric_grid(n_s: int, n_t: int, s_max: float = 1.0, t_max: float = 1.0,
                   ratio: float = 1.35) -> GridPartition:
    """Grid whose gap sizes grow geometrically; exercises non-uniform meshes."""
    if n_s < 1 or n_t < 1:
        raise ValueError("grid needs at least one cell per direction")
    if ratio <= 0:
        raise ValueError("ratio must be positive")

    def knots(axis: str, n: int, top: float) -> np.ndarray:
        gaps = ratio ** np.arange(n)
        cum = np.concatenate([[0.0], np.cumsum(gaps)])
        out = cum * (top / cum[-1])
        smallest = float(np.min(np.diff(out), initial=np.inf))
        if smallest <= MIN_KNOT_GAP:  # at ratio 1.35 from 89 cells on
            raise DegenerateGridError(f"geometric_grid: {axis} axis of {n} cells at ratio {ratio:g} would "
                                      f"give a smallest gap of {smallest:.3g}, not above {MIN_KNOT_GAP:g}")
        return out

    return GridPartition(knots("s", n_s, s_max), knots("t", n_t, t_max))

