"""Per-cell Gaussian heat kernels and their first-derivative factors.

The kernel attached to a grid cell of area v is the centered d-dimensional
Gaussian density with covariance v * I.  The module gives the density, the
single-coordinate gradient and its L1 norm, evaluated in log space with a
single exponentiation at the end.  The Hermite weight gradient/density =
-z_l / v needs no exponential; estimate_lab forms it inline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: default constant of the per-term kernel bound, 2 * sqrt(2)
DEFAULT_C0 = 2.0 * math.sqrt(2.0)


@dataclass(frozen=True)
class KernelCell:
    """Gaussian kernel of one grid cell: variance v > 0, dimension d >= 1."""

    variance: float
    dim: int = 1

    def __post_init__(self) -> None:
        if not self.variance > 0.0:
            raise ValueError(f"variance must be positive, got {self.variance}")
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")


def _as_points(cell: KernelCell, z) -> np.ndarray:
    pts = np.asarray(z, dtype=float)
    if pts.ndim == 0:
        if cell.dim != 1:
            raise ValueError("scalar argument only valid for dim 1")
        pts = pts.reshape(1)
    if pts.shape[-1] != cell.dim:
        raise ValueError(f"last axis {pts.shape[-1]} != dim {cell.dim}")
    return pts


def log_density(cell: KernelCell, z) -> np.ndarray:
    pts = _as_points(cell, z)
    quad = np.sum(pts * pts, axis=-1) / (2.0 * cell.variance)
    norm = 0.5 * cell.dim * math.log(2.0 * math.pi * cell.variance)
    return -quad - norm


def density(cell: KernelCell, z) -> np.ndarray:
    """Product of the d one dimensional N(0, v) densities at z."""
    return np.exp(log_density(cell, z))


def gradient_component(cell: KernelCell, z, l: int) -> np.ndarray:
    """d/dz_l of the density: -(z_l / v) * density."""
    pts = _as_points(cell, z)
    if not 0 <= l < cell.dim:
        raise ValueError(f"component {l} out of range for dim {cell.dim}")
    return -(pts[..., l] / cell.variance) * density(cell, pts)


def abs_gradient_l1(cell: KernelCell, l: int = 0) -> float:
    """Integral of |gradient_component| over R^d: sqrt(2/pi) / sqrt(v).

    The |z_l|/v factor integrates the l-th coordinate to 2/sqrt(2 pi v) and
    the remaining d-1 Gaussian factors integrate to one, independent of d.
    """
    if not 0 <= l < cell.dim:
        raise ValueError(f"component {l} out of range for dim {cell.dim}")
    return math.sqrt(2.0 / math.pi) / math.sqrt(cell.variance)
