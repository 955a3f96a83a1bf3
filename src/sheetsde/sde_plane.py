"""SDE fields on the plane driven by a sheet sample.

The equation is X_{s,t} = x0 + double-integral of b(r1, r2, X_{r1,r2}) + W_{s,t}
with X equal to x0 on the axes.  Two discretizations are provided: the corner
Euler scheme (drift frozen at each cell's lower-left grid state, solved in
one forward pass) and a Picard iteration of the integral map with the drift
read at the cell's upper-right grid state, which differs from Euler at
O(mesh) and therefore supports mesh-order comparisons.  On top of the flow
live the Malliavin-derivative recursion (forward for one base point, whose
base at the origin is the flow derivative in x0, and adjoint for every base
at once) and the weak solution's two estimators, the Girsanov reweighting of
the driftless field and the Euler chain, paired on the same sheets.

solve_euler takes a sheet sample with leading sample axes and integrates
every sheet of the batch in one row sweep; malliavin-check solves its base
sheet and both Cameron-Martin shifts that way.  solve_picard,
malliavin_solve and malliavin_adjoint take one sheet and raise ValueError,
naming the leading shape, on a batch.  Both solvers raise ValueError when
the solution is not finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .brownian_sheet import Key, SheetSample, cumulative_values, values as sheet_values
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

    return DriftField("const", d, ev, jac, math.hypot(*vec), True)  # hypot does not square


def sign_drift(dim: int = 1) -> DriftField:
    """Componentwise sign; bounded, measurable, discontinuous at zero."""

    def ev(s, t, x):
        return np.sign(np.asarray(x, dtype=float))

    return DriftField("sign", dim, ev, None, math.sqrt(dim), False)


def tanh_drift(amplitude: float = 1.0, rate: float = 1.0, dim: int = 1) -> DriftField:
    def ev(s, t, x):
        # in place, so one temporary: amplitude * np.tanh(rate * x) holds two at
        # once, which would be the memory peak of a Girsanov pass
        y = rate * np.asarray(x, dtype=float)
        np.tanh(y, out=y)
        y *= amplitude
        return y

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
    values: np.ndarray  # (..., n_s + 1, n_t + 1, d), leading axes as the sheet's

    @property
    def dim(self) -> int:
        return self.values.shape[-1]

    @property
    def batch_shape(self) -> tuple[int, ...]:
        return self.values.shape[:-3]


@dataclass(frozen=True)
class MalliavinField:
    """Matrix field D based at grid point (u, v); identity on the base edges.

    values[i, j] is meaningful for i >= u and j >= v and zero elsewhere.
    """

    grid: GridPartition
    base: tuple[int, int]
    values: np.ndarray  # (n_s + 1, n_t + 1, d, d)


def _one_sheet(name: str, batch_shape: tuple[int, ...]) -> None:
    if batch_shape:
        raise ValueError(f"{name} takes one sheet, got leading sample shape {batch_shape}")


def _require_finite(scheme: str, x: np.ndarray) -> None:
    """ValueError naming the first non-finite grid point (and sample) of x."""
    if np.isfinite(x).all():
        return
    *sample, i, j, _ = np.argwhere(~np.isfinite(x))[0].tolist()
    where = f" of sample {tuple(sample)}" if sample else ""
    raise ValueError(f"{scheme} solution is not finite at grid point ({i}, {j}){where}")


def _as_x0(x0, dim: int) -> np.ndarray:
    vec = np.atleast_1d(np.asarray(x0, dtype=float))
    if vec.shape == (1,) and dim > 1:
        vec = np.full(dim, vec[0])
    if vec.shape != (dim,):
        raise ValueError(f"x0 shape {vec.shape} incompatible with dim {dim}")
    return vec


def _euler_rows(grid: GridPartition, drift: DriftField, x0: np.ndarray,
                increments: np.ndarray):
    """Corner Euler recursion, vectorized over leading batch axes, row by row.

    increments: (..., n_s, n_t, d).  Yields the state row i, shape
    (..., n_t+1, d), for i = 1..n_s; every yield is the same buffer, updated
    in place.  The row update uses the telescoped form: the difference between
    consecutive rows is the running column sum of drift * area + increment.
    """
    n_s, n_t = grid.n_s, grid.n_t
    d = increments.shape[-1]
    batch = increments.shape[:-3]
    s_knots = np.asarray(grid.s_knots)
    t_corners = np.asarray(grid.t_knots)[:-1]
    areas = grid.areas()[:, :, None]

    row = np.empty(batch + (n_t + 1, d))
    row[...] = x0
    g = np.empty(batch + (n_t, d))
    for i in range(1, n_s + 1):
        # states at the lower-left corners (i-1, j-1), j = 1..n_t
        b_vals = drift.eval(s_knots[i - 1], t_corners, row[..., :-1, :])
        np.multiply(b_vals, areas[i - 1], out=g)
        g += increments[..., i - 1, :, :]
        np.cumsum(g, axis=-2, out=g)
        row[..., 1:, :] += g
        yield row


def solve_euler(grid: GridPartition, drift: DriftField, x0, sheet: SheetSample) -> SolutionField:
    """One-pass corner scheme; exact fixed point of the lower-left-corner sum.

    Every sheet of a batch runs in the same row sweep, one drift evaluation
    per row, and gets the values a single solve of it gives, bit for bit.
    """
    x0v = _as_x0(x0, sheet.dim)
    x = np.empty(sheet.batch_shape + (grid.n_s + 1, grid.n_t + 1, sheet.dim))
    x[..., 0, :, :] = x0v
    for i, row in enumerate(_euler_rows(grid, drift, x0v, sheet.increments), start=1):
        x[..., i, :, :] = row
    _require_finite("euler", x)
    return SolutionField(grid, x0v, x)


def solve_picard(grid: GridPartition, drift: DriftField, x0, sheet: SheetSample,
                 tol: float = 1e-10, max_iter: int = 200,
                 initial: Optional[SolutionField] = None) -> tuple[SolutionField, int]:
    """Fixed point of the integral map with drift read at upper-right states.

    Starts from the driftless field x0 + W (or `initial` when given); zero
    drift converges after a single sweep from the default start.  Returns
    the field and the number of map applications.  Raises
    NonConvergenceError when tolerance is not met within max_iter.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    _one_sheet("solve_picard", sheet.batch_shape)
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
        if not math.isfinite(err):  # a non-finite map never converges
            _require_finite("picard", x_new)
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
    _one_sheet("malliavin_solve", solution.batch_shape)
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
    _one_sheet("malliavin_adjoint", solution.batch_shape)
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


def _log_weights(drift: DriftField, grid: GridPartition, args: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Per-sample log stochastic exponential: sum b.z - 1/2 sum |b|^2 area.

    args holds the states at each cell's lower-left corner and z the cell
    increments, both shaped (batch, n_s, n_t, d); returns shape (batch,).
    Both sums reduce in one pass each, without a b*z or b**2 temporary.
    """
    b_vals = drift.eval(np.asarray(grid.s_knots)[:-1, None], np.asarray(grid.t_knots)[:-1], args)
    return (np.einsum("bijk,bijk->b", b_vals, z)
            - np.einsum("bijk,bijk,ij->b", b_vals, b_vals, 0.5 * grid.areas()))


def _increment_sampler(grid: GridPartition, dim: int):
    std = np.sqrt(grid.areas())[:, :, None]

    def sampler(rng: np.random.Generator, size: int) -> np.ndarray:
        z = rng.standard_normal((size, grid.n_s, grid.n_t, dim))
        z *= std
        return z

    return sampler


def _sheet_mc_chunk(grid: GridPartition, dim: int, budget_bytes: int = 1 << 22) -> int:
    """Batch size keeping one (batch, n_s, n_t, dim) float64 array under budget.

    The 4 MiB default keeps a chunk's temporaries near cache size and bounds
    the memory of chunks in flight at once (a paired pass runs one shard per
    chunk on the thread pool).
    """
    per_sample = grid.n_s * grid.n_t * dim * 8
    return max(1, budget_bytes // per_sample)


def _euler_phi(phi: Callable[[np.ndarray], np.ndarray], drift: DriftField,
               grid: GridPartition, x0v: np.ndarray, z: np.ndarray) -> np.ndarray:
    """phi(X at the far corner) of the Euler chain driven by each sheet in z.

    Only the current row of the chain is kept, never the whole field.
    """
    for row in _euler_rows(grid, drift, x0v, z):
        pass
    return phi(row[:, -1])


def _paired_integrand(phi: Callable[[np.ndarray], np.ndarray], drift: DriftField,
                      grid: GridPartition, x0v: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Sheets (b, n_s, n_t, d) -> rows (girsanov, euler, weight, gap), shape (b, 4).

    The Girsanov column is phi(x0 + W at the far corner) times the weight M,
    the discrete stochastic exponential of the drift along x0 + W.
    """

    def f(z: np.ndarray) -> np.ndarray:
        x = cumulative_values(z)
        x += x0v  # the driftless field x0 + W, in place
        weight = np.exp(_log_weights(drift, grid, x[:, :-1, :-1], z))
        girsanov = phi(x[:, -1, -1]) * weight
        del x  # freed before the Euler chain runs, so the two never coexist
        euler = _euler_phi(phi, drift, grid, x0v, z)
        return np.stack((girsanov, euler, weight, girsanov - euler), axis=-1)

    return f


class WeakComparison(NamedTuple):
    """Girsanov and Euler weak estimates from the same sheets."""

    girsanov: McEstimate  # phi(x0 + W) * M
    euler: McEstimate  # phi(X^Euler)
    weight: McEstimate  # M, whose exact mean is 1
    gap: McEstimate  # girsanov - euler per sheet: its SE is the paired SE


def paired_weak_expectation(phi: Callable[[np.ndarray], np.ndarray], drift: DriftField,
                            x0, grid: GridPartition, n_samples: int, seed: Key,
                            dim: int = 1) -> WeakComparison:
    """Both weak estimators of E[phi(X at the far corner)] in one paired pass.

    Every sheet feeds the Girsanov integrand and the Euler chain, so the gap
    column's SE is that of the per-sheet difference, far below the combined
    SE of two independent passes.  The pass runs one shard per sheet chunk
    on monte_carlo's thread pool, shard r on stream(seed, r); the estimates
    depend only on (seed, n_samples, grid, dim), never on the worker count.
    """
    f = _paired_integrand(phi, drift, grid, _as_x0(x0, dim))
    chunk = _sheet_mc_chunk(grid, dim)
    return WeakComparison(*monte_carlo(f, _increment_sampler(grid, dim), n_samples, seed,
                                       shards=-(-n_samples // chunk), chunk=chunk))
