"""SDE fields on the plane driven by a sheet sample.

The equation is X_{s,t} = x0 + double-integral of b(X_{r1,r2}) + W_{s,t}
with X equal to x0 on the axes.  Two discretizations are provided: the corner
Euler scheme (drift frozen at each cell's lower-left grid state, solved in
one forward pass) and a Picard iteration of the integral map with the drift
read at the cell's upper-right grid state, which differs from Euler at
O(mesh) and therefore supports mesh-order comparisons.  On top of the flow
live one Malliavin-derivative recursion, the adjoint sweep that gives the
terminal derivative for every base cell and, from the same sweep, the flow
derivative in x0, and the weak solution's two estimators, the Girsanov
reweighting of the driftless field and the Euler chain, paired on the same
sheets.

The solvers read the grid and dimension from the sheet, the adjoint from the
solution, and each raises ValueError naming both dimensions when the drift's
differs.  The paired pass draws sheets with the increment sampler of sample.

solve_euler takes a sheet sample with leading sample axes and integrates
every sheet of the batch in one row sweep; malliavin-check solves its base
sheet and both Cameron-Martin shifts that way.  malliavin_adjoint takes the
same leading axes and sweeps every sheet of a batch at once, one matmul and
one prefix sum per row.  Only solve_picard takes one sheet and raises
ValueError, naming the leading shape, on a batch.  Both solvers raise
ValueError when the solution is not finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .brownian_sheet import Key, SheetSample, _increment_sampler, cumulative_values
from .integrators import McEstimate, monte_carlo
from .plane_geometry import GridPartition


class NonConvergenceError(RuntimeError):
    """Picard iteration failed to reach tolerance within max_iter sweeps."""


class MissingJacobianError(ValueError):
    """A derivative-based operation was asked of a drift without a jacobian."""


@dataclass(frozen=True)
class DriftField:
    """Bounded measurable drift b(x) on R^d.

    eval maps x of shape (..., d) to an array of shape (..., d).  jacobian,
    when available, returns (..., d, d).  sup_norm bounds |b| in l2 norm.
    """

    name: str
    dim: int
    eval: Callable[[np.ndarray], np.ndarray]
    jacobian: Optional[Callable[[np.ndarray], np.ndarray]]
    sup_norm: float

    def require_jacobian(self) -> Callable[[np.ndarray], np.ndarray]:
        if self.jacobian is None:
            raise MissingJacobianError(
                f"drift {self.name!r} has no jacobian; "
                "Malliavin and flow derivatives need a differentiable drift"
            )
        return self.jacobian


@dataclass(frozen=True)
class DriftScalarFactor:
    """Scalar bounded drift b, vectorized, with b' (None where b jumps) and sup norm."""

    name: str
    b: Callable[[np.ndarray], np.ndarray]
    b_prime: Optional[Callable[[np.ndarray], np.ndarray]]
    sup_norm: float
    gaussian: Optional[tuple[float, float, float]] = None  # gaussian_factor's (scale, center, width)

    def componentwise(self, dim: int) -> DriftField:
        """The drift x -> (b(x_1), ..., b(x_d)) on R^d, Jacobian diag(b'(x))."""
        b_prime = self.b_prime

        def jac(x):
            diag = b_prime(x)
            idx = np.arange(diag.shape[-1])
            out = np.zeros(diag.shape + idx.shape)
            out[..., idx, idx] = diag
            return out

        return DriftField(self.name, dim, self.b, None if b_prime is None else jac,
                          self.sup_norm * math.sqrt(dim))


def _as_vector(name: str, value, dim: Optional[int] = None) -> np.ndarray:
    """value as a float vector of shape (dim,); a scalar repeats, dim None keeps the length."""
    vec = np.atleast_1d(np.asarray(value, dtype=float))
    dim = len(vec) if dim is None else dim
    vec = np.full(dim, vec[0]) if vec.shape == (1,) else vec
    if vec.shape != (dim,):
        raise ValueError(f"{name} shape {vec.shape} incompatible with dim {dim}")
    return vec


def constant_drift(c, dim: Optional[int] = None) -> DriftField:
    vec = _as_vector("constant drift level", c, dim)
    d = vec.shape[0]

    def ev(x):
        return np.broadcast_to(vec, np.shape(x)).copy()

    def jac(x):
        return np.zeros(np.shape(x) + (d,))

    return DriftField("const", d, ev, jac, math.hypot(*vec))  # hypot does not square


_SIGN = DriftScalarFactor("sign", lambda x: np.sign(np.asarray(x, dtype=float)), None, 1.0)


def sign_drift(dim: int = 1) -> DriftField:
    """Componentwise sign; bounded, measurable, discontinuous at zero."""
    return _SIGN.componentwise(dim)


def _tanh_factor(amplitude: float, rate: float) -> DriftScalarFactor:
    # both kernels fill one new array of x's shape in place (0-d included) and
    # skip the multiplies by 1.0, which are exact, so the values are the plain
    # formulas' bit for bit
    def b(x):
        # one temporary at any rate: amplitude * np.tanh(rate * x) holds two at
        # once, which would be the memory peak of a Girsanov pass
        x = np.asarray(x, dtype=float)
        y = np.empty_like(x)
        if rate != 1.0:
            x = np.multiply(x, rate, out=y)
        np.tanh(x, out=y)
        if amplitude != 1.0:
            y *= amplitude
        return y

    def b_prime(x):
        # sech^2(y) = 4u / (1 + u)^2 with u = exp(-2|y|): 1 / cosh(y)^2 overflows
        # once |y| > ~355 and 1 - tanh(y)^2 cancels to nothing in the tails;
        # values below the normal range flush to zero without a warning
        x = np.asarray(x, dtype=float)
        u = np.empty_like(x)
        if rate != 1.0:
            x = np.multiply(x, rate, out=u)
        np.abs(x, out=u)
        u *= -2.0
        with np.errstate(under="ignore"):
            np.exp(u, out=u)
            d = u + 1.0
            d *= d
            u *= 4.0
            u /= d
            if amplitude * rate != 1.0:
                u *= amplitude * rate
        return u

    return DriftScalarFactor("tanh", b, b_prime, abs(amplitude))


def tanh_drift(amplitude: float = 1.0, rate: float = 1.0, dim: int = 1) -> DriftField:
    """Componentwise amplitude * tanh(rate * x)."""
    return _tanh_factor(amplitude, rate).componentwise(dim)


@dataclass(frozen=True)
class SolutionField:
    """Grid-point values of the state field, axes included."""

    grid: GridPartition
    values: np.ndarray  # (..., n_s + 1, n_t + 1, d), leading axes as the sheet's

    @property
    def dim(self) -> int:
        return self.values.shape[-1]

    @property
    def batch_shape(self) -> tuple[int, ...]:
        return self.values.shape[:-3]


def _require_finite(scheme: str, x: np.ndarray) -> None:
    """ValueError naming the first non-finite grid point (and sample) of x."""
    if np.isfinite(x).all():
        return
    *sample, i, j, _ = np.argwhere(~np.isfinite(x))[0].tolist()
    where = f" of sample {tuple(sample)}" if sample else ""
    raise ValueError(f"{scheme} solution is not finite at grid point ({i}, {j}){where}")


def _require_dim(drift: DriftField, field) -> None:
    if drift.dim != field.dim:  # field: the SheetSample or SolutionField the drift acts on
        raise ValueError(f"drift {drift.name!r} has dim {drift.dim}, "
                         f"the {type(field).__name__} has dim {field.dim}")


def _euler_rows(grid: GridPartition, drift: DriftField, x0: np.ndarray,
                increments: np.ndarray):
    """Corner Euler recursion, vectorized over leading batch axes, row by row.

    increments: (..., n_s, n_t, d).  Yields the state row i, shape
    (..., n_t+1, d), for i = 1..n_s; every yield is the same buffer, updated
    in place.  The row update uses the telescoped form: the difference between
    consecutive rows is the running column sum of drift * area + increment.
    """
    batch, (n_t, d) = increments.shape[:-3], increments.shape[-2:]
    areas = grid.areas()[:, :, None]

    row = np.empty(batch + (n_t + 1, d))
    row[...] = x0
    # the corner states (i-1, j-1) the drift reads and the states (i, j) the update writes, j = 1..n_t
    corners, moved = row[..., :-1, :], row[..., 1:, :]
    g = np.empty(batch + (n_t, d))
    for area, dz in zip(areas, np.moveaxis(increments, -3, 0)):
        np.multiply(drift.eval(corners), area, out=g)
        g += dz
        np.add.accumulate(g, axis=-2, out=g)
        moved += g
        yield row


def solve_euler(drift: DriftField, x0, sheet: SheetSample) -> SolutionField:
    """One-pass corner scheme on the sheet's grid; exact fixed point of the lower-left-corner sum.

    Every sheet of a batch runs in the same row sweep, one drift evaluation
    per row, and gets the values a single solve of it gives, bit for bit.
    """
    _require_dim(drift, sheet)
    x0v = _as_vector("x0", x0, sheet.dim)
    x = np.empty(sheet.batch_shape + (sheet.grid.n_s + 1, sheet.grid.n_t + 1, sheet.dim))
    x[..., 0, :, :] = x0v
    for i, row in enumerate(_euler_rows(sheet.grid, drift, x0v, sheet.increments), start=1):
        x[..., i, :, :] = row
    _require_finite("euler", x)
    return SolutionField(sheet.grid, x)


def solve_picard(drift: DriftField, x0, sheet: SheetSample,
                 tol: float = 1e-10, max_iter: int = 200,
                 initial: Optional[SolutionField] = None) -> tuple[SolutionField, int]:
    """Fixed point of the integral map with drift read at upper-right states.

    A sweep maps x to x0 + W + cumulative_values(b(x[1:, 1:]) * areas).
    Starts from the driftless field x0 + W (or `initial` when given); zero
    drift converges after a single sweep from the default start.  Returns
    the field and the number of map applications.  Raises
    NonConvergenceError when tolerance is not met within max_iter.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if sheet.batch_shape:
        raise ValueError(f"solve_picard takes one sheet, got leading sample shape {sheet.batch_shape}")
    _require_dim(drift, sheet)
    free = _as_vector("x0", x0, sheet.dim) + cumulative_values(sheet.increments)
    areas = sheet.grid.areas()[:, :, None]

    x = free if initial is None else np.array(initial.values, dtype=float)
    if x.shape != free.shape:
        raise ValueError(f"initial field shape {x.shape} does not match grid {free.shape}")
    for sweep in range(1, max_iter + 1):
        x_new = cumulative_values(drift.eval(x[1:, 1:]) * areas)
        x_new += free
        err = float(np.max(np.abs(x_new - x)))
        if not math.isfinite(err):  # a non-finite map never converges
            _require_finite("picard", x_new)
        x = x_new
        if err <= tol:
            return SolutionField(sheet.grid, x), sweep
    raise NonConvergenceError(
        f"Picard iteration above tolerance {tol:g} after {max_iter} sweeps (last update {err:g})"
    )


def malliavin_adjoint(drift: DriftField, solution: SolutionField) -> tuple[np.ndarray, np.ndarray]:
    """Terminal derivative for every base cell, and in x0, from one backward sweep.

    Returns (cells, flow).  cells, shape (..., n_s, n_t, d, d), holds at
    [..., a, b] the derivative of X_end with respect to the sheet, based at
    grid point (a + 1, b + 1); flow, shape (..., d, d), is dX_end / dx0.  The
    leading axes are the solution's sample axes: one sweep, one matmul and
    one prefix sum per row, covers the batch, and each sheet gets its single
    sweep's values bit for bit.  Both take O(n_s n_t d^3) work per sheet.
    The derivative field D based at (u, v) is the identity on row u and
    column v from the base on and follows the linearized Euler row
    recursion beyond them.  The sweep carries
    lam[j] = dX_end / dD[i, j], the sensitivity of the terminal value to row i
    of that recursion, from the top row down (adjoint method: Giles &
    Glasserman, "Smoking adjoints", Risk 2006).  A base (i, k) sets row i to
    the identity from column k on, so cells[i-1, k-1] is the sum of lam[j]
    over j >= k; stepping to row i - 1 adds the transpose of the row map.
    The base (0, 0) sets all of row 0, so flow is the sum of lam over every
    column after the last step.
    """
    _require_dim(drift, solution)
    jac = drift.require_jacobian()
    n_t, d = solution.grid.n_t, solution.dim
    # kernel[..., i, j] = b'(corner state) * area of cell (i, j), every cell at once
    kernel = jac(solution.values[..., :-1, :-1, :]) * solution.grid.areas()[:, :, None, None]

    cells = np.empty_like(kernel)
    lam = np.zeros(solution.batch_shape + (n_t + 1, d, d))
    lam[..., n_t, :, :] = np.eye(d)
    later, head = lam[..., :0:-1, :, :], lam[..., :n_t, :, :]
    rows = np.moveaxis(cells, -4, 0)[::-1]  # row i - 1 of cells, from the top row down
    for row, reversed_row, k in zip(rows, rows[..., ::-1, :, :], np.moveaxis(kernel, -4, 0)[::-1]):
        # the sums over j >= k, accumulated straight into the row in reverse column order
        np.add.accumulate(later, axis=-3, out=reversed_row)
        head += row @ k
    return cells, lam.sum(axis=-3)


def _log_weights(drift: DriftField, grid: GridPartition, args: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Per-sample log stochastic exponential: sum b.z - 1/2 sum |b|^2 area.

    args holds the states at each cell's lower-left corner and z the cell
    increments, both shaped (batch, n_s, n_t, d); returns shape (batch,).
    Both sums reduce in one pass each, without a b*z or b**2 temporary.
    """
    b_vals = drift.eval(args)
    return (np.einsum("bijk,bijk->b", b_vals, z)
            - np.einsum("bijk,bijk,ij->b", b_vals, b_vals, 0.5 * grid.areas()))


# bytes of one (batch, n_s, n_t, dim) float64 sheet chunk, the stream and memory
# unit: a paired pass runs one shard per chunk on the thread pool.  Changing it
# re-shards the pass and so redraws its streams.
_SHEET_CHUNK_BYTES = 1 << 22
# bytes of increments in one sheet block, the cache unit of full-field work:
# the Girsanov column builds x0 + W, the drift values and the weights one block
# of consecutive sheets at a time, so its temporaries stay cache sized and are
# reused from block to block instead of being mapped afresh for every chunk
_SHEET_BLOCK_BYTES = 1 << 20


def _sheets_per(limit: int, grid: GridPartition, dim: int) -> int:
    """Batch size keeping one (batch, n_s, n_t, dim) float64 array under limit bytes."""
    per_sample = grid.n_s * grid.n_t * dim * 8
    return max(1, limit // per_sample)


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
    the discrete stochastic exponential of the drift along x0 + W.  It runs
    one block of _SHEET_BLOCK_BYTES sheets at a time; every value is per
    sheet, so the blocks give the whole batch's values bit for bit.
    """
    block = _sheets_per(_SHEET_BLOCK_BYTES, grid, x0v.shape[0])

    def f(z: np.ndarray) -> np.ndarray:
        columns = np.empty((4, z.shape[0]))
        girsanov, euler, weight, gap = columns
        for start in range(0, z.shape[0], block):
            part = slice(start, start + block)
            x = cumulative_values(z[part])
            x += x0v  # the driftless field x0 + W, in place
            np.exp(_log_weights(drift, grid, x[:, :-1, :-1], z[part]), out=weight[part])
            np.multiply(phi(x[:, -1, -1]), weight[part], out=girsanov[part])
        euler[:] = _euler_phi(phi, drift, grid, x0v, z)
        np.subtract(girsanov, euler, out=gap)
        return columns.T

    return f


class WeakComparison(NamedTuple):
    """Girsanov and Euler weak estimates from the same sheets."""

    girsanov: McEstimate  # phi(x0 + W) * M
    euler: McEstimate  # phi(X^Euler)
    weight: McEstimate  # M, whose exact mean is 1
    gap: McEstimate  # girsanov - euler per sheet: its SE is the paired SE


def paired_weak_expectation(phi: Callable[[np.ndarray], np.ndarray], drift: DriftField,
                            x0, grid: GridPartition, n_samples: int, seed: Key) -> WeakComparison:
    """Both weak estimators of E[phi(X at the far corner)] in one paired pass.

    Every sheet feeds the Girsanov integrand and the Euler chain, so the gap
    column's SE is that of the per-sheet difference, far below the combined
    SE of two independent passes.  The pass runs one shard per sheet chunk
    on monte_carlo's thread pool, shard r on stream(seed, r); the estimates
    depend only on (seed, n_samples, grid, drift.dim), never on the worker count.
    """
    f = _paired_integrand(phi, drift, grid, _as_vector("x0", x0, drift.dim))
    chunk = _sheets_per(_SHEET_CHUNK_BYTES, grid, drift.dim)
    return WeakComparison(*monte_carlo(f, _increment_sampler(grid, drift.dim), n_samples, seed,
                                       shards=-(-n_samples // chunk)))
