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


def _validated_knots(name: str, knots: Sequence[float]) -> tuple[float, ...]:
    vec = tuple(float(x) for x in knots)
    if len(vec) < 2:
        raise DegenerateGridError(f"{name} needs at least two knots, got {len(vec)}")
    if vec[0] != 0.0:
        raise DegenerateGridError(f"{name} must start at 0.0, got {vec[0]!r}")
    gaps = np.diff(vec)
    if np.any(gaps <= MIN_KNOT_GAP):
        raise DegenerateGridError(
            f"{name} must be strictly increasing with gaps > {MIN_KNOT_GAP:g}"
        )
    return vec


@dataclass(frozen=True)
class GridPartition:
    """Rectangular partition of [0, s_max] x [0, t_max].

    Cell (i, j) spans (s_knots[i-1], s_knots[i]] x (t_knots[j-1], t_knots[j]].
    """

    s_knots: tuple[float, ...]
    t_knots: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "s_knots", _validated_knots("s_knots", self.s_knots))
        object.__setattr__(self, "t_knots", _validated_knots("t_knots", self.t_knots))
        # built once: samplers and solvers read the areas on every call
        areas = np.outer(self.s_gaps(), self.t_gaps())
        areas.flags.writeable = False
        object.__setattr__(self, "_areas", areas)

    @property
    def n_s(self) -> int:
        return len(self.s_knots) - 1

    @property
    def n_t(self) -> int:
        return len(self.t_knots) - 1

    def s_gaps(self) -> np.ndarray:
        return np.diff(np.asarray(self.s_knots))

    def t_gaps(self) -> np.ndarray:
        return np.diff(np.asarray(self.t_knots))

    def areas(self) -> np.ndarray:
        """Cell areas, shape (n_s, n_t), read-only; entry [i - 1, j - 1] is cell (i, j)."""
        return self._areas


def uniform_grid(n_s: int, n_t: int, s_max: float = 1.0, t_max: float = 1.0) -> GridPartition:
    if n_s < 1 or n_t < 1:
        raise ValueError("grid needs at least one cell per direction")
    return GridPartition(
        tuple(np.linspace(0.0, s_max, n_s + 1)),
        tuple(np.linspace(0.0, t_max, n_t + 1)),
    )


def geometric_grid(n_s: int, n_t: int, s_max: float = 1.0, t_max: float = 1.0,
                   ratio: float = 1.35) -> GridPartition:
    """Grid whose gap sizes grow geometrically; exercises non-uniform meshes."""
    if ratio <= 0:
        raise ValueError("ratio must be positive")

    def knots(n: int, top: float) -> tuple[float, ...]:
        gaps = ratio ** np.arange(n)
        cum = np.concatenate([[0.0], np.cumsum(gaps)])
        return tuple(cum * (top / cum[-1]))

    return GridPartition(knots(n_s, s_max), knots(n_t, t_max))

