"""SDE fields on the plane driven by a sheet sample.

The equation is X_{s,t} = x0 + double-integral of b(r1, r2, X_{r1,r2}) + W_{s,t}
with X equal to x0 on the axes.  Two discretizations are provided: the corner
Euler scheme (drift frozen at each cell's lower-left grid state, solved in
one forward pass) and a Picard iteration of the integral map with the drift
read at the cell's upper-right grid state, which differs from Euler at
O(mesh) and therefore supports mesh-order comparisons.  On top of the flow
live the Malliavin-derivative recursion, its Picard-series truncation, the
flow derivative in the initial condition, and the discrete Girsanov
reweighting of the driftless field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .brownian_sheet import SheetSample, cumulative_values, values as sheet_values
from .integrators import McEstimate, monte_carlo
from .plane_geometry import GridPartition


class NonConvergenceError(RuntimeError):
    """Picard iteration failed to reach tolerance within max_iter sweeps."""


class MissingJacobianError(ValueError):
    """A derivative-based operation was asked of a drift without a jacobian."""


@dataclass(frozen=True)
class DriftField:
    """Bounded measurable drift b(s, t, x).

    eval maps (s, t, x) with x of shape (..., d) and s, t broadcastable to
    x.shape[:-1] into an array of shape (..., d).  jacobian, when available,
    returns (..., d, d).  sup_norm bounds |b| componentwise in l2 norm.
    """

    name: str
    dim: int
    eval: Callable[..., np.ndarray]
    jacobian: Optional[Callable[..., np.ndarray]]
    sup_norm: float
    smooth: bool

    def require_jacobian(self) -> Callable[..., np.ndarray]:
        if self.jacobian is None:
            raise MissingJacobianError(
                f"drift {self.name!r} has no jacobian; "
                "Malliavin and flow derivatives need a differentiable drift"
            )
        return self.jacobian


def zero_drift(dim: int = 1) -> DriftField:
    def ev(s, t, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def jac(s, t, x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape + (x.shape[-1],))

    return DriftField("zero", dim, ev, jac, 0.0, True)


def constant_drift(c, dim: Optional[int] = None) -> DriftField:
    vec = np.atleast_1d(np.asarray(c, dtype=float))
    if dim is not None and vec.shape == (1,) and dim > 1:
        vec = np.full(dim, vec[0])
    d = vec.shape[0]

    def ev(s, t, x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(vec, x.shape).copy()

    def jac(s, t, x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape + (d,))

    return DriftField("const", d, ev, jac, float(np.linalg.norm(vec)), True)


def sign_drift(dim: int = 1) -> DriftField:
    """Componentwise sign; bounded, measurable, discontinuous at zero."""

    def ev(s, t, x):
        return np.sign(np.asarray(x, dtype=float))

    return DriftField("sign", dim, ev, None, math.sqrt(dim), False)


def tanh_drift(amplitude: float = 1.0, rate: float = 1.0, dim: int = 1) -> DriftField:
    def ev(s, t, x):
        return amplitude * np.tanh(rate * np.asarray(x, dtype=float))

    def jac(s, t, x):
        x = np.asarray(x, dtype=float)
        # sech^2(y) = 4u / (1 + u)^2 with u = exp(-2|y|): 1 / cosh(y)^2 overflows
        # once |y| > ~355 and 1 - tanh(y)^2 cancels to nothing in the tails;
        # values below the normal range flush to zero without a warning
        with np.errstate(under="ignore"):
            u = np.exp(-2.0 * np.abs(rate * x))
            diag = amplitude * rate * (4.0 * u / (1.0 + u) ** 2)
        out = np.zeros(x.shape + (x.shape[-1],))
        idx = np.arange(x.shape[-1])
        out[..., idx, idx] = diag
        return out

    return DriftField("tanh", dim, ev, jac, abs(amplitude) * math.sqrt(dim), True)


@dataclass(frozen=True)
class SolutionField:
    """Grid-point values of the state field, axes included."""

    grid: GridPartition
    x0: np.ndarray
    values: np.ndarray  # (n_s + 1, n_t + 1, d)

    @property
    def dim(self) -> int:
        return self.values.shape[-1]

    def at(self, i: int, j: int) -> np.ndarray:
        return self.values[i, j]


@dataclass(frozen=True)
class MalliavinField:
    """Matrix field D based at grid point (u, v); identity on the base edges.

    values[i, j] is meaningful for i >= u and j >= v and zero elsewhere.
    """

    grid: GridPartition
    base: tuple[int, int]
    values: np.ndarray  # (n_s + 1, n_t + 1, d, d)


@dataclass(frozen=True)
class DoleansFactor:
    value: float
    log_value: float

    def __post_init__(self) -> None:
        if not self.value > 0.0:
            raise ValueError("stochastic exponential must be positive")


def _as_x0(x0, dim: int) -> np.ndarray:
    vec = np.atleast_1d(np.asarray(x0, dtype=float))
    if vec.shape == (1,) and dim > 1:
        vec = np.full(dim, vec[0])
    if vec.shape != (dim,):
        raise ValueError(f"x0 shape {vec.shape} incompatible with dim {dim}")
    return vec


def _euler_values(grid: GridPartition, drift: DriftField, x0: np.ndarray,
                  increments: np.ndarray) -> np.ndarray:
    """Corner Euler recursion, vectorized over leading batch axes.

    increments: (..., n_s, n_t, d).  Returns (..., n_s+1, n_t+1, d).
    The row update uses the telescoped form: the difference between
    consecutive rows is the running column sum of drift * area + increment.
    """
    n_s, n_t = grid.n_s, grid.n_t
    d = increments.shape[-1]
    batch = increments.shape[:-3]
    s_knots = np.asarray(grid.s_knots)
    t_knots = np.asarray(grid.t_knots)
    areas = grid.areas()

    x = np.zeros(batch + (n_s + 1, n_t + 1, d))
    x[..., 0, :, :] = x0
    x[..., :, 0, :] = x0
    t_corners = t_knots[:-1]
    for i in range(1, n_s + 1):
        prev = x[..., i - 1, :-1, :]  # states at (i-1, j-1), j = 1..n_t
        b_vals = drift.eval(s_knots[i - 1], t_corners, prev)
        g = b_vals * areas[i - 1][:, None] + increments[..., i - 1, :, :]
        x[..., i, 1:, :] = x[..., i - 1, 1:, :] + np.cumsum(g, axis=-2)
    return x


def solve_euler(grid: GridPartition, drift: DriftField, x0, sheet: SheetSample) -> SolutionField:
    """One-pass corner scheme; exact fixed point of the lower-left-corner sum."""
    x0v = _as_x0(x0, sheet.dim)
    return SolutionField(grid, x0v, _euler_values(grid, drift, x0v, sheet.increments))


def solve_picard(grid: GridPartition, drift: DriftField, x0, sheet: SheetSample,
                 tol: float = 1e-10, max_iter: int = 200,
                 initial: Optional[SolutionField] = None) -> tuple[SolutionField, int]:
    """Fixed point of the integral map with drift read at upper-right states.

    Starts from the driftless field x0 + W (or `initial` when given); zero
    drift converges after a single sweep from the default start.  Returns
    the field and the number of map applications.  Raises
    NonConvergenceError when tolerance is not met within max_iter.
    """
    x0v = _as_x0(x0, sheet.dim)
    w = sheet_values(sheet)
    s_knots = np.asarray(grid.s_knots)
    t_knots = np.asarray(grid.t_knots)
    areas = grid.areas()[:, :, None]

    x = x0v + w if initial is None else np.array(initial.values, dtype=float)
    if x.shape != w.shape:
        raise ValueError(f"initial field shape {x.shape} does not match grid {w.shape}")
    for sweep in range(1, max_iter + 1):
        b_vals = drift.eval(s_knots[1:, None], t_knots[1:], x[1:, 1:])
        cum = np.cumsum(np.cumsum(b_vals * areas, axis=0), axis=1)
        x_new = x0v + w
        x_new[1:, 1:] += cum
        err = float(np.max(np.abs(x_new - x)))
        x = x_new
        if err <= tol:
            return SolutionField(grid, x0v, x), sweep
    raise NonConvergenceError(
        f"Picard iteration above tolerance {tol:g} after {max_iter} sweeps (last update {err:g})"
    )


def malliavin_solve(grid: GridPartition, drift: DriftField, solution: SolutionField,
                    base: tuple[int, int] = (0, 0)) -> MalliavinField:
    """Derivative field with respect to the sheet, based at grid point (u, v)."""
    jac = drift.require_jacobian()
    u, v = base
    n_s, n_t = grid.n_s, grid.n_t
    if not (0 <= u <= n_s and 0 <= v <= n_t):
        raise ValueError(f"base {base} outside grid")
    d = solution.dim
    s_knots = np.asarray(grid.s_knots)
    t_knots = np.asarray(grid.t_knots)
    areas = grid.areas()

    dvals = np.zeros((n_s + 1, n_t + 1, d, d))
    eye = np.eye(d)
    dvals[u, v:] = eye
    dvals[u:, v] = eye
    for i in range(u + 1, n_s + 1):
        states = solution.values[i - 1, v:n_t]  # (n_t - v, d), corners (i-1, j-1)
        jacs = jac(s_knots[i - 1], t_knots[v:n_t], states)  # (n_t - v, d, d)
        m = np.einsum("jab,jbc->jac", jacs, dvals[i - 1, v:n_t]) * areas[i - 1, v:n_t, None, None]
        dvals[i, v + 1:] = dvals[i - 1, v + 1:] + np.cumsum(m, axis=0)
    return MalliavinField(grid, (u, v), dvals)


def malliavin_adjoint(grid: GridPartition, drift: DriftField, solution: SolutionField) -> np.ndarray:
    """Terminal derivative for every base cell from one backward sweep.

    Returns G of shape (n_s, n_t, d, d) with G[a, b] equal to
    malliavin_solve(..., base=(a + 1, b + 1)).values[-1, -1], in
    O(n_s n_t d^3) work instead of one forward solve per cell.  The sweep
    carries lam[j] = dX_end / dD[i, j], the sensitivity of the terminal value
    to row i of the recursion, from the top row down (adjoint method: Giles &
    Glasserman, "Smoking adjoints", Risk 2006).  A base (i, k) sets row i to
    the identity from column k on, so G[i-1, k-1] is the sum of lam[j] over
    j >= k; stepping to row i - 1 adds the transpose of the forward row map.
    """
    jac = drift.require_jacobian()
    n_s, n_t = grid.n_s, grid.n_t
    d = solution.dim
    s_knots = np.asarray(grid.s_knots)
    t_knots = np.asarray(grid.t_knots)
    # kernel[i, j] = b'(corner state) * area of cell (i, j), every cell at once
    kernel = jac(s_knots[:-1, None], t_knots[:-1], solution.values[:-1, :-1])
    kernel = kernel * grid.areas()[:, :, None, None]

    out = np.empty((n_s, n_t, d, d))
    lam = np.zeros((n_t + 1, d, d))
    lam[n_t] = np.eye(d)
    for i in range(n_s, 0, -1):
        out[i - 1] = np.cumsum(lam[:0:-1], axis=0)[::-1]
        lam[:n_t] += np.einsum("jab,jbc->jac", out[i - 1], kernel[i - 1])
    return out


def flow_derivative(grid: GridPartition, drift: DriftField, solution: SolutionField) -> MalliavinField:
    """Sensitivity to the initial condition; same recursion based at the origin."""
    return malliavin_solve(grid, drift, solution, base=(0, 0))


def malliavin_series(grid: GridPartition, drift: DriftField, solution: SolutionField,
                     base: tuple[int, int] = (0, 0), depth: int = 4) -> tuple[MalliavinField, float]:
    """Picard-series truncation of the derivative field plus its tail bound.

    The series iterates the kernel-application map starting from the
    identity; truncating after `depth` applications leaves a tail dominated
    by (sup|b'| * area)^{depth+1} / ((depth+1)!)^2, the factorial-squared
    decay of nested two-parameter simplices.
    """
    jac = drift.require_jacobian()
    u, v = base
    n_s, n_t = grid.n_s, grid.n_t
    d = solution.dim
    s_knots = np.asarray(grid.s_knots)
    t_knots = np.asarray(grid.t_knots)
    areas = grid.areas()

    jac_field = np.zeros((n_s, n_t, d, d))
    for i in range(u, n_s):
        jac_field[i, v:] = jac(s_knots[i], t_knots[v:n_t], solution.values[i, v:n_t])

    def apply_map(m: np.ndarray) -> np.ndarray:
        out = np.zeros_like(m)
        integ = np.einsum("ijab,ijbc->ijac", jac_field, m[:-1, :-1]) * areas[:, :, None, None]
        integ[:u, :] = 0.0
        integ[:, :v] = 0.0
        cum = np.cumsum(np.cumsum(integ, axis=0), axis=1)
        out[u + 1 :, v + 1 :] = cum[u:, v:]
        return out

    term = np.zeros((n_s + 1, n_t + 1, d, d))
    eye = np.eye(d)
    term[u:, v:] = eye
    total = term.copy()
    for _ in range(depth):
        term = apply_map(term)
        total += term

    sup_jac = float(np.max(np.abs(jac_field))) * d
    area_total = (grid.s_max - s_knots[u]) * (grid.t_max - t_knots[v])
    tail = (sup_jac * area_total) ** (depth + 1) / math.factorial(depth + 1) ** 2
    return MalliavinField(grid, (u, v), total), tail


def _log_weights(drift: DriftField, grid: GridPartition, args: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Per-sample log stochastic exponential: sum b.z - 1/2 sum |b|^2 area.

    args holds the states at each cell's lower-left corner and z the cell
    increments, both shaped (batch, n_s, n_t, d); returns shape (batch,).
    """
    b_vals = drift.eval(np.asarray(grid.s_knots)[:-1, None], np.asarray(grid.t_knots)[:-1], args)
    return np.sum(b_vals * z, axis=(1, 2, 3)) - 0.5 * np.sum(
        np.sum(b_vals**2, axis=-1) * grid.areas(), axis=(1, 2)
    )


def doleans_exponential(drift: DriftField, sheet: SheetSample, arg_values: np.ndarray) -> DoleansFactor:
    """Discrete stochastic exponential with the drift frozen at cell corners.

    arg_values supplies the state entering b, shape (n_s+1, n_t+1, d); for
    the weak-solution construction this is x0 + W.  Zero drift gives exactly
    one.
    """
    args = arg_values[None, :-1, :-1]
    log_m = float(_log_weights(drift, sheet.grid, args, sheet.increments[None])[0])
    return DoleansFactor(math.exp(log_m), log_m)


def _increment_sampler(grid: GridPartition, dim: int):
    std = np.sqrt(grid.areas())[:, :, None]

    def sampler(rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.standard_normal((size, grid.n_s, grid.n_t, dim)) * std

    return sampler


def _sheet_mc_chunk(grid: GridPartition, dim: int, budget_bytes: int = 1 << 22) -> int:
    """Batch size keeping one (batch, n_s, n_t, dim) float64 array under budget.

    The 4 MiB default keeps a chunk's temporaries near cache size and bounds
    the memory of passes run at once (girsanov-check runs three).
    """
    per_sample = grid.n_s * grid.n_t * dim * 8
    return max(1, budget_bytes // per_sample)


def girsanov_weak_expectation(phi: Callable[[np.ndarray], np.ndarray], drift: DriftField,
                              x0, grid: GridPartition, n_samples: int, seed: int,
                              dim: int = 1) -> McEstimate:
    """E[phi(X at the far corner)] via reweighting of the driftless field.

    Estimates E[phi(x0 + W_{smax,tmax}) * M] with M the discrete stochastic
    exponential of the drift along x0 + W.  With corner freezing this equals
    the corner Euler chain's expectation exactly, at every mesh.
    """
    x0v = _as_x0(x0, dim)

    def f(z: np.ndarray) -> np.ndarray:
        w = cumulative_values(z)
        log_m = _log_weights(drift, grid, x0v + w[:, :-1, :-1, :], z)
        return phi(x0v + w[:, -1, -1, :]) * np.exp(log_m)

    return monte_carlo(f, _increment_sampler(grid, dim), n_samples, seed,
                       chunk=_sheet_mc_chunk(grid, dim))


def euler_weak_expectation(phi: Callable[[np.ndarray], np.ndarray], drift: DriftField,
                           x0, grid: GridPartition, n_samples: int, seed: int,
                           dim: int = 1) -> McEstimate:
    """E[phi(X at the far corner)] by direct simulation of the Euler chain."""
    x0v = _as_x0(x0, dim)

    def f(z: np.ndarray) -> np.ndarray:
        x = _euler_values(grid, drift, x0v, z)
        return phi(x[:, -1, -1, :])

    return monte_carlo(f, _increment_sampler(grid, dim), n_samples, seed,
                       chunk=_sheet_mc_chunk(grid, dim))
