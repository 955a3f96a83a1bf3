"""Solver exactness, mesh order, derivative fields, and reweighting checks."""

import math
import tracemalloc

import numpy as np
import pytest

from conftest import counting_jacobian, linear_drift
from sheetsde import integrators, sde_plane
from sheetsde.brownian_sheet import (
    SheetSample,
    cameron_martin_shift,
    coarsen,
    cumulative_values,
    sample,
    values,
)
from sheetsde.integrators import monte_carlo
from sheetsde.plane_geometry import geometric_grid, uniform_grid
from sheetsde.sde_plane import (
    DriftField,
    MalliavinField,
    MissingJacobianError,
    NonConvergenceError,
    SolutionField,
    _increment_sampler,
    _log_weights,
    _paired_integrand,
    _sheet_mc_chunk,
    constant_drift,
    malliavin_adjoint,
    malliavin_solve,
    paired_weak_expectation,
    sign_drift,
    solve_euler,
    solve_picard,
    tanh_drift,
    zero_drift,
)


def pre_contract_sampler(grid, key):
    """Increments from Philox(key=key), the stream the single unsharded passes drew.

    The generator monte_carlo hands in is ignored, so values pinned before
    the seed-stream contract still check the integrands bit for bit.
    """
    rng = np.random.Generator(np.random.Philox(key=key))
    draw = _increment_sampler(grid, 1)
    return lambda _rng, size: draw(rng, size)


class TestDriftFields:
    def test_zero(self):
        d = zero_drift(2)
        x = np.ones((3, 2))
        assert np.all(d.eval(0.5, 0.5, x) == 0.0)
        assert np.all(d.jacobian(0.5, 0.5, x) == 0.0)
        assert d.sup_norm == 0.0

    def test_constant_broadcast(self):
        d = constant_drift(0.7, dim=3)
        x = np.zeros((4, 3))
        out = d.eval(0.0, 0.0, x)
        assert out.shape == (4, 3)
        assert np.all(out == 0.7)
        assert d.sup_norm == pytest.approx(0.7 * math.sqrt(3.0))

    @pytest.mark.filterwarnings("error")
    def test_constant_sup_norm_does_not_overflow(self):
        # squaring 1e200 overflows; the norm itself is finite
        assert constant_drift(1e200).sup_norm == 1e200
        assert constant_drift([3e200, 4e200]).sup_norm == pytest.approx(5e200)

    def test_sign_has_no_jacobian(self):
        d = sign_drift()
        assert np.all(d.eval(0.0, 0.0, np.array([[-2.0], [3.0]])) == [[-1.0], [1.0]])
        with pytest.raises(MissingJacobianError):
            d.require_jacobian()

    def test_tanh_jacobian_matches_fd(self):
        d = tanh_drift(amplitude=0.8, rate=1.3, dim=2)
        x = np.array([[0.2, -0.5], [1.1, 0.05]])
        h = 1e-6
        jac = d.jacobian(0.1, 0.2, x)
        for c in range(2):
            e = np.zeros(2)
            e[c] = h
            fd = (d.eval(0.1, 0.2, x + e) - d.eval(0.1, 0.2, x - e)) / (2 * h)
            assert np.max(np.abs(jac[..., :, c] - fd)) <= 1e-8

    def test_tanh_jacobian_steep_tails_underflow_quietly(self):
        # 1 / cosh(1024)^2 overflowed in the cosh form
        with np.errstate(all="raise"):
            jac = tanh_drift(rate=1024.0).jacobian(0.0, 0.0, np.array([[1.0], [-1.0]]))
        assert np.all(jac == 0.0)

    @pytest.mark.parametrize("amplitude, rate", [(1.0, 1.0), (0.9, 1.1), (1.0, 256.0), (2.5, 0.3)])
    def test_tanh_jacobian_matches_cosh_form(self, amplitude, rate):
        x = np.linspace(-350.0, 350.0, 20_001)[:, None] / rate
        with np.errstate(all="raise"):
            cosh_form = amplitude * rate / np.cosh(rate * x) ** 2
        jac = tanh_drift(amplitude, rate).jacobian(0.0, 0.0, x)[..., 0, 0]
        assert np.max(np.abs(jac - cosh_form[:, 0]) / cosh_form[:, 0]) <= 1e-14

    def test_tanh_bounded(self):
        d = tanh_drift(amplitude=0.8, rate=2.0, dim=1)
        x = np.linspace(-50, 50, 101)[:, None]
        assert np.max(np.linalg.norm(d.eval(0, 0, x), axis=-1)) <= d.sup_norm + 1e-15


class TestSolverExactness:
    def test_zero_drift_is_shifted_sheet(self):
        grid = uniform_grid(12, 9, 1.0, 1.5)
        sheet = sample(grid, dim=1, seed=4)
        sol = solve_euler(grid, zero_drift(1), 0.3, sheet)
        want = 0.3 + values(sheet)
        assert np.max(np.abs(sol.values - want)) <= 1e-13
        assert np.all(sol.values[0, :, :] == 0.3)
        assert np.all(sol.values[:, 0, :] == 0.3)

    def test_constant_drift_closed_form(self):
        # the corner sum telescopes: X(s_i, t_j) = x0 + c s_i t_j + W(s_i, t_j)
        grid = uniform_grid(7, 11, 1.3, 0.8)
        sheet = sample(grid, dim=1, seed=9)
        c = -0.6
        sol = solve_euler(grid, constant_drift(c), 0.1, sheet)
        st = np.outer(grid.s_knots, grid.t_knots)[:, :, None]
        want = 0.1 + c * st + values(sheet)
        assert np.max(np.abs(sol.values - want)) <= 1e-12

    def test_dim_two_shapes(self):
        grid = uniform_grid(5, 6, 1.0, 1.0)
        sheet = sample(grid, dim=2, seed=1)
        sol = solve_euler(grid, tanh_drift(1.0, 1.0, 2), [0.1, -0.2], sheet)
        assert sol.values.shape == (6, 7, 2)
        assert sol.dim == 2
        assert np.all(sol.values[0] == [0.1, -0.2])

    def test_discontinuous_drift_runs(self):
        grid = uniform_grid(16, 16, 1.0, 1.0)
        sheet = sample(grid, dim=1, seed=2)
        sol = solve_euler(grid, sign_drift(), 0.0, sheet)
        assert np.all(np.isfinite(sol.values))
        assert np.max(np.abs(sol.values - values(sheet))) <= grid.s_max * grid.t_max


class TestPicard:
    def test_zero_drift_single_sweep(self):
        grid = uniform_grid(8, 8, 1.0, 1.0)
        sheet = sample(grid, dim=1, seed=5)
        sol, sweeps = solve_picard(grid, zero_drift(1), 0.2, sheet)
        assert sweeps == 1
        assert np.max(np.abs(sol.values - (0.2 + values(sheet)))) == 0.0

    def test_initial_guess_irrelevant(self):
        grid = uniform_grid(10, 10, 1.0, 1.0)
        sheet = sample(grid, dim=1, seed=6)
        drift = tanh_drift(0.9, 1.1, 1)
        tol = 1e-11
        a, _ = solve_picard(grid, drift, 0.1, sheet, tol=tol)
        w = values(sheet)
        cold = SolutionField(grid, np.array([0.1]), np.full_like(w, 0.1))
        b, _ = solve_picard(grid, drift, 0.1, sheet, tol=tol, initial=cold)
        assert np.max(np.abs(a.values - b.values)) <= 2.0 * tol

    def test_initial_shape_guard(self):
        grid = uniform_grid(4, 4, 1.0, 1.0)
        sheet = sample(grid, dim=1, seed=0)
        bad = SolutionField(grid, np.array([0.0]), np.zeros((3, 3, 1)))
        with pytest.raises(ValueError):
            solve_picard(grid, zero_drift(1), 0.0, sheet, initial=bad)

    def test_non_convergence_raises(self):
        grid = uniform_grid(6, 6, 1.0, 1.0)
        sheet = sample(grid, dim=1, seed=7)
        with pytest.raises(NonConvergenceError):
            solve_picard(grid, tanh_drift(1.0, 1.0, 1), 0.0, sheet, tol=1e-30, max_iter=4)
        # no sweep leaves no residual to report
        with pytest.raises(ValueError, match="max_iter must be >= 1"):
            solve_picard(grid, tanh_drift(1.0, 1.0, 1), 0.0, sheet, max_iter=0)

    def test_matches_euler_at_first_order(self):
        # the two schemes read the drift at opposite cell corners; their gap
        # vanishes with the mesh
        fine = sample(uniform_grid(64, 64, 1.0, 1.0), dim=1, seed=23)
        drift = tanh_drift(0.8, 1.3, 1)
        gaps = []
        for factor in (8, 2):
            sheet = coarsen(fine, factor)
            grid = sheet.grid
            e = solve_euler(grid, drift, 0.1, sheet)
            p, _ = solve_picard(grid, drift, 0.1, sheet)
            gaps.append(float(np.max(np.abs(e.values - p.values))))
        assert gaps[1] < 0.45 * gaps[0]


class TestMeshOrder:
    def test_scheme_gap_slope(self):
        fine = sample(uniform_grid(64, 64, 1.0, 1.0), dim=1, seed=23)
        drift = tanh_drift(0.8, 1.3, 1)
        hs, errs = [], []
        for factor in (4, 2, 1):
            sheet = coarsen(fine, factor)
            grid = sheet.grid
            e = solve_euler(grid, drift, 0.1, sheet)
            p, _ = solve_picard(grid, drift, 0.1, sheet)
            hs.append(1.0 / grid.n_s)
            errs.append(float(np.max(np.abs(e.values - p.values))))
        slope = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
        assert slope >= 0.7


def tanh_matrix_drift(m) -> DriftField:
    """b(x) = tanh(Mx); its Jacobian sech^2(Mx) M is not symmetric unless M is."""
    m = np.asarray(m, dtype=float)

    def ev(s, t, x):
        return np.tanh(np.asarray(x, dtype=float) @ m.T)

    def jac(s, t, x):
        y = np.asarray(x, dtype=float) @ m.T
        return (1.0 / np.cosh(y) ** 2)[..., :, None] * m

    return DriftField("tanh_matrix", m.shape[0], ev, jac, math.sqrt(m.shape[0]), True)


def picard_series(grid, drift, solution, base=(0, 0), depth=4):
    """Picard-series truncation of the derivative field plus its tail bound.

    The series iterates the kernel-application map starting from the
    identity; truncating after `depth` applications leaves a tail dominated
    by (sup|b'| * area)^{depth+1} / ((depth+1)!)^2, the factorial-squared
    decay of nested two-parameter simplices.  An independent oracle for
    malliavin_solve's row recursion.
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

    def apply_map(m):
        out = np.zeros_like(m)
        integ = np.einsum("ijab,ijbc->ijac", jac_field, m[:-1, :-1]) * areas[:, :, None, None]
        integ[:u, :] = 0.0
        integ[:, :v] = 0.0
        cum = np.cumsum(np.cumsum(integ, axis=0), axis=1)
        out[u + 1:, v + 1:] = cum[u:, v:]
        return out

    term = np.zeros((n_s + 1, n_t + 1, d, d))
    term[u:, v:] = np.eye(d)
    total = term.copy()
    for _ in range(depth):
        term = apply_map(term)
        total += term

    sup_jac = float(np.max(np.abs(jac_field))) * d
    area_total = (grid.s_max - s_knots[u]) * (grid.t_max - t_knots[v])
    tail = (sup_jac * area_total) ** (depth + 1) / math.factorial(depth + 1) ** 2
    return MalliavinField(grid, (u, v), total), tail


class TestBatch:
    @pytest.mark.parametrize("drift", [
        tanh_drift(0.9, 1.1, 1), sign_drift(), constant_drift(-0.6),
        tanh_matrix_drift([[0.7, -1.1], [0.4, 0.9]]),
    ], ids=["tanh", "sign", "const", "tanh-matrix-2d"])
    def test_batched_euler_is_each_sheet_solve(self, drift):
        grid = geometric_grid(9, 7, 1.0, 1.0)
        z = np.stack([sample(grid, drift.dim, (8, r)).increments for r in range(6)])
        z = z.reshape(2, 3, 9, 7, drift.dim)
        batch = solve_euler(grid, drift, 0.2, SheetSample(grid, drift.dim, z))
        assert batch.values.shape == (2, 3, 10, 8, drift.dim)
        assert batch.batch_shape == (2, 3)
        for r in np.ndindex(2, 3):
            one = solve_euler(grid, drift, 0.2, SheetSample(grid, drift.dim, z[r]))
            assert np.array_equal(batch.values[r], one.values), r

    def test_single_sheet_routines_reject_a_batch(self):
        grid = uniform_grid(4, 4, 1.0, 1.0)
        drift = tanh_drift(0.9, 1.1, 1)
        z = np.stack([sample(grid, 1, seed=r).increments for r in range(2)])
        sol = solve_euler(grid, drift, 0.2, SheetSample(grid, 1, z))
        shape = r"got leading sample shape \(2,\)"
        with pytest.raises(ValueError, match="solve_picard takes one sheet, " + shape):
            solve_picard(grid, drift, 0.2, SheetSample(grid, 1, z))
        with pytest.raises(ValueError, match="malliavin_solve takes one sheet, " + shape):
            malliavin_solve(grid, drift, sol)
        with pytest.raises(ValueError, match="malliavin_adjoint takes one sheet, " + shape):
            malliavin_adjoint(grid, drift, sol)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_solution_names_scheme_and_grid_point(self):
        grid = uniform_grid(2, 2, 1.0, 1.0)
        drift = constant_drift(1e308)
        zero = np.zeros((2, 2, 1))
        # X(s, t) = x0 + c s t overflows at the far corner only
        with pytest.raises(ValueError, match=r"^euler solution is not finite at grid point \(2, 2\)$"):
            solve_euler(grid, drift, 1e308, SheetSample(grid, 1, zero))
        with pytest.raises(ValueError, match=r"^picard solution is not finite at grid point \(2, 2\)$"):
            solve_picard(grid, drift, 1e308, SheetSample(grid, 1, zero))
        # a sheet whose first cell pulls the field down stays finite, so the
        # first non-finite point belongs to the second sample
        pulled = zero.copy()
        pulled[0, 0, 0] = -1e308
        with pytest.raises(ValueError, match=r"grid point \(2, 2\) of sample \(1,\)$"):
            solve_euler(grid, drift, 1e308, SheetSample(grid, 1, np.stack((pulled, zero))))


class TestMalliavin:
    def test_zero_drift_identity_field(self):
        grid = uniform_grid(6, 5, 1.0, 1.0)
        sheet = sample(grid, dim=2, seed=3)
        sol = solve_euler(grid, zero_drift(2), 0.0, sheet)
        field = malliavin_solve(grid, zero_drift(2), sol, base=(2, 3))
        eye = np.eye(2)
        for i in range(7):
            for j in range(6):
                want = eye if (i >= 2 and j >= 3) else np.zeros((2, 2))
                assert np.array_equal(field.values[i, j], want), (i, j)

    def test_base_guard(self):
        grid = uniform_grid(4, 4, 1.0, 1.0)
        sheet = sample(grid, dim=1, seed=0)
        sol = solve_euler(grid, zero_drift(1), 0.0, sheet)
        with pytest.raises(ValueError):
            malliavin_solve(grid, zero_drift(1), sol, base=(5, 0))

    def test_requires_jacobian(self):
        grid = uniform_grid(4, 4, 1.0, 1.0)
        sheet = sample(grid, dim=1, seed=0)
        sol = solve_euler(grid, sign_drift(), 0.0, sheet)
        with pytest.raises(MissingJacobianError):
            malliavin_solve(grid, sign_drift(), sol)

    def test_directional_derivative_identity(self):
        # sum of per-cell derivative kernels against the shift density equals
        # the finite-difference Gateaux derivative of the solution map
        grid = uniform_grid(10, 10, 1.0, 1.0)
        drift = tanh_drift(0.9, 1.1, 1)
        sheet = sample(grid, dim=1, seed=3)
        sol = solve_euler(grid, drift, 0.2, sheet)
        s = np.asarray(grid.s_knots)
        t = np.asarray(grid.t_knots)
        hdot = (np.cos(2.1 * s[1:])[:, None] * np.sin(1.7 * t[1:] + 0.3)[None, :])[:, :, None]
        eps = 1e-4
        up = solve_euler(grid, drift, 0.2, cameron_martin_shift(sheet, hdot, eps))
        dn = solve_euler(grid, drift, 0.2, cameron_martin_shift(sheet, hdot, -eps))
        fd = float((up.values[-1, -1, 0] - dn.values[-1, -1, 0]) / (2.0 * eps))
        areas = np.outer(grid.s_gaps(), grid.t_gaps())
        predicted = 0.0
        for a in range(grid.n_s):
            for b in range(grid.n_t):
                deriv = malliavin_solve(grid, drift, sol, base=(a + 1, b + 1))
                predicted += float(deriv.values[-1, -1, 0, 0]) * hdot[a, b, 0] * areas[a, b]
        assert abs(predicted - fd) <= 1e-8 * abs(fd)

    @pytest.mark.parametrize("grid, drift", [
        (geometric_grid(9, 7, 1.0, 1.0), tanh_drift(0.9, 1.1, 1)),
        (geometric_grid(6, 8, 1.0, 1.0), tanh_matrix_drift([[0.7, -1.1], [0.4, 0.9]])),
    ], ids=["tanh-1d-geometric", "tanh-matrix-2d"])
    def test_adjoint_matches_per_cell_solve(self, grid, drift):
        # every cell's terminal derivative against its own forward solve; the
        # non-symmetric 2-d Jacobian fails a transposed product in the sweep
        sheet = sample(grid, dim=drift.dim, seed=5)
        sol = solve_euler(grid, drift, 0.2, sheet)
        adjoint = malliavin_adjoint(grid, drift, sol)
        assert adjoint.shape == (grid.n_s, grid.n_t, drift.dim, drift.dim)
        for a in range(grid.n_s):
            for b in range(grid.n_t):
                want = malliavin_solve(grid, drift, sol, base=(a + 1, b + 1)).values[-1, -1]
                err = np.linalg.norm(adjoint[a, b] - want)
                assert err <= 1e-12 * np.linalg.norm(want), (a, b)

    def test_adjoint_matches_linear_drift_closed_form(self):
        # under b(x) = a x the derivative is the same on every sheet:
        # G[i, j] = sum_k (a A)^k C(n_s - i - 1, k) C(n_t - j - 1, k)
        n_s, n_t, a = 9, 6, -0.8
        grid = uniform_grid(n_s, n_t, 1.0, 1.5)
        aa = a * 1.5 / (n_s * n_t)
        exact = np.array([[math.fsum(aa ** k * math.comb(n_s - i - 1, k) * math.comb(n_t - j - 1, k)
                                     for k in range(min(n_s - i, n_t - j)))
                           for j in range(n_t)] for i in range(n_s)])
        for seed in (0, 1):
            sol = solve_euler(grid, linear_drift(a), 0.2, sample(grid, dim=1, seed=seed))
            adjoint = malliavin_adjoint(grid, linear_drift(a), sol)[..., 0, 0]
            assert np.max(np.abs(adjoint - exact) / np.abs(exact)) <= 1e-12

    def test_adjoint_requires_jacobian(self):
        grid = uniform_grid(4, 4, 1.0, 1.0)
        sheet = sample(grid, dim=1, seed=0)
        sol = solve_euler(grid, sign_drift(), 0.0, sheet)
        with pytest.raises(MissingJacobianError):
            malliavin_adjoint(grid, sign_drift(), sol)

    def test_adjoint_evaluates_jacobian_once(self):
        grid = uniform_grid(12, 10, 1.0, 1.0)
        calls = []
        drift = counting_jacobian(tanh_drift(0.9, 1.1, 1), calls)
        sol = solve_euler(grid, drift, 0.2, sample(grid, dim=1, seed=2))
        malliavin_adjoint(grid, drift, sol)
        assert calls == [(12, 10, 1)]

    def test_series_matches_recursion(self):
        grid = uniform_grid(8, 8, 1.0, 1.0)
        drift = tanh_drift(0.8, 1.2, 1)
        sheet = sample(grid, dim=1, seed=11)
        sol = solve_euler(grid, drift, 0.1, sheet)
        exact = malliavin_solve(grid, drift, sol, base=(1, 2))
        approx, tail = picard_series(grid, drift, sol, base=(1, 2), depth=8)
        assert tail <= 1e-10
        assert np.max(np.abs(approx.values - exact.values)) <= tail + 1e-10

    def test_series_tail_decreases(self):
        grid = uniform_grid(6, 6, 1.0, 1.0)
        drift = tanh_drift(1.0, 1.0, 1)
        sheet = sample(grid, dim=1, seed=1)
        sol = solve_euler(grid, drift, 0.0, sheet)
        exact = malliavin_solve(grid, drift, sol)
        errs, tails = [], []
        for depth in (2, 5):
            approx, tail = picard_series(grid, drift, sol, depth=depth)
            errs.append(float(np.max(np.abs(approx.values - exact.values))))
            tails.append(tail)
        assert tails[1] < tails[0]
        # the recursion sits inside both truncations' tail bounds, nearer the deeper one
        assert errs[0] <= tails[0] and errs[1] <= tails[1]
        assert errs[1] < errs[0]


class TestFlowDerivative:
    # the flow derivative in x0 is the derivative field based at the origin
    def test_zero_drift_identity(self):
        grid = uniform_grid(5, 5, 1.0, 1.0)
        sheet = sample(grid, dim=1, seed=2)
        sol = solve_euler(grid, zero_drift(1), 0.4, sheet)
        field = malliavin_solve(grid, zero_drift(1), sol, base=(0, 0))
        assert np.all(field.values == 1.0)

    def test_matches_fd_in_x0(self):
        grid = uniform_grid(12, 12, 1.0, 1.0)
        drift = tanh_drift(0.9, 1.1, 1)
        sheet = sample(grid, dim=1, seed=8)
        sol = solve_euler(grid, drift, 0.3, sheet)
        field = malliavin_solve(grid, drift, sol, base=(0, 0))
        h = 1e-5
        up = solve_euler(grid, drift, 0.3 + h, sheet)
        dn = solve_euler(grid, drift, 0.3 - h, sheet)
        fd = (up.values[-1, -1, 0] - dn.values[-1, -1, 0]) / (2.0 * h)
        assert field.values[-1, -1, 0, 0] == pytest.approx(fd, rel=1e-5)

    def test_mesh_stability(self):
        fine = sample(uniform_grid(32, 32, 1.0, 1.0), dim=1, seed=13)
        drift = tanh_drift(0.9, 1.1, 1)
        vals = []
        for factor in (2, 1):
            sheet = coarsen(fine, factor)
            grid = sheet.grid
            sol = solve_euler(grid, drift, 0.2, sheet)
            vals.append(float(malliavin_solve(grid, drift, sol, base=(0, 0)).values[-1, -1, 0, 0]))
        assert 0.8 <= vals[1] / vals[0] <= 1.25


class TestDoleans:
    # the Doleans (stochastic) exponential M of the Girsanov weight, via its log
    def test_zero_drift_is_one(self):
        grid = uniform_grid(6, 6, 1.0, 1.0)
        z = sample(grid, dim=1, seed=0).increments[None]
        log_m = _log_weights(zero_drift(1), grid, cumulative_values(z)[:, :-1, :-1], z)
        assert log_m.shape == (1,)
        assert log_m[0] == 0.0 and np.exp(log_m[0]) == 1.0

    def test_constant_drift_log_moments(self):
        # frozen constant drift gives log M = c W(smax, tmax) - c^2 A / 2,
        # a Gaussian with mean -c^2 A / 2 and variance c^2 A
        grid = uniform_grid(8, 8, 1.0, 1.0)
        drift = constant_drift(0.7)
        c2a = 0.49
        n = 4000
        z = np.stack([sample(grid, dim=1, seed=(17, k)).increments for k in range(n)])
        logs = _log_weights(drift, grid, cumulative_values(z)[:, :-1, :-1], z)
        mean_se = logs.std(ddof=1) / math.sqrt(n)
        assert abs(logs.mean() + 0.5 * c2a) <= 4.0 * mean_se
        var = logs.var(ddof=1)
        var_se = var * math.sqrt(2.0 / (n - 1))
        assert abs(var - c2a) <= 4.0 * var_se
        weights = np.exp(logs)
        w_se = weights.std(ddof=1) / math.sqrt(n)
        assert abs(weights.mean() - 1.0) <= 4.0 * w_se


class TestWeakExpectations:
    PHI = staticmethod(lambda x: np.tanh(x[..., 0]))

    def test_sheet_chunk_stays_cache_sized(self):
        # a paired pass runs one shard per chunk on the pool; 4 MiB chunks bound
        # the memory of the chunks in flight
        assert _sheet_mc_chunk(uniform_grid(64, 64), 1) * 64 * 64 * 8 <= 1 << 22

    def test_zero_drift_routes_agree(self):
        grid = uniform_grid(8, 8, 1.0, 1.0)
        est = paired_weak_expectation(self.PHI, zero_drift(1), 0.1, grid, 4000, 5)
        assert est.girsanov.mean == pytest.approx(est.euler.mean, abs=1e-12)
        assert est.girsanov.std_error == pytest.approx(est.euler.std_error, abs=1e-12)
        assert (est.weight.mean, est.weight.std_error) == (1.0, 0.0)

    def test_reproducible(self):
        grid = uniform_grid(6, 6, 1.0, 1.0)
        a = paired_weak_expectation(self.PHI, tanh_drift(1, 1, 1), 0.0, grid, 2000, 9)
        b = paired_weak_expectation(self.PHI, tanh_drift(1, 1, 1), 0.0, grid, 2000, 9)
        assert a == b

    def test_smooth_drift_two_estimators(self):
        grid = uniform_grid(12, 12, 1.0, 1.0)
        est = paired_weak_expectation(self.PHI, tanh_drift(1.0, 1.0, 1), 0.0, grid, 20_000, 3)
        assert abs(est.gap.mean) <= 4.0 * est.gap.std_error

    def test_weight_mean_one_nonsmooth(self):
        grid = uniform_grid(12, 12, 1.0, 1.0)
        w = paired_weak_expectation(self.PHI, sign_drift(), 0.0, grid, 20_000, 21).weight
        assert abs(w.mean - 1.0) <= 4.0 * w.std_error

    # values computed before the passes were fused (32x32, x0 0.1, 2048 samples,
    # seed 7, one unsharded stream): (girsanov mean, girsanov SE, euler mean, euler SE)
    PINNED = {
        "tanh": (0.10278377407757847, 0.01893244040870285,
                 0.10556608917670555, 0.01525877250522286),
        "sign": (0.2676772716574711, 0.03314055142322462,
                 0.26355720873310057, 0.015813981665347195),
    }
    DRIFTS = {"tanh": lambda: tanh_drift(1.0, 1.0, 1), "sign": sign_drift}

    @pytest.mark.parametrize("name", ["tanh", "sign"])
    def test_pinned_estimates(self, name):
        # the paired pass's integrand over one unsharded stream, as the
        # separate Girsanov and Euler passes once drew it
        grid = uniform_grid(32, 32, 1.0, 1.0)
        f = _paired_integrand(self.PHI, self.DRIFTS[name](), grid, np.array([0.1]))
        g, e, _, _ = monte_carlo(f, pre_contract_sampler(grid, 7), 2048, 7,
                                 chunk=_sheet_mc_chunk(grid, 1))
        g_mean, g_se, e_mean, e_se = self.PINNED[name]
        # the Euler chain is bit-identical; the log-weight sums may reorder at round-off
        assert (e.mean, e.std_error) == (e_mean, e_se)
        assert g.mean == pytest.approx(g_mean, rel=1e-13)
        assert g.std_error == pytest.approx(g_se, rel=1e-13)

    # the separate Girsanov, Euler and weight passes at 32x32, x0 0.1, seed 7 and
    # n = chunk - 12 = 500 samples: (mean, SE) of each column
    SINGLE_PASSES = {
        "tanh": ((0.0895721240975122, 0.036825258623386814),
                 (0.1116475859905062, 0.03051575161913909),
                 (1.0016650041776796, 0.019354013720611143)),
        "sign": ((0.2529286114778319, 0.06141215593715155),
                 (0.27550627484586243, 0.031612811358863256),
                 (0.9918221727933518, 0.05676639297986859)),
    }

    @pytest.mark.parametrize("name", ["tanh", "sign"])
    def test_paired_columns_are_the_single_estimators(self, name, monkeypatch):
        # below one chunk the paired pass is one shard, so on the stream the
        # single-estimator passes drew its columns are theirs bit for bit
        grid = uniform_grid(32, 32, 1.0, 1.0)
        monkeypatch.setattr(sde_plane, "_increment_sampler", lambda g, dim: pre_contract_sampler(g, 7))
        n = _sheet_mc_chunk(grid, 1) - 12
        est = paired_weak_expectation(self.PHI, self.DRIFTS[name](), 0.1, grid, n, 7)
        columns = (est.girsanov, est.euler, est.weight)
        assert [(c.mean, c.std_error) for c in columns] == list(self.SINGLE_PASSES[name])
        assert all(c.n_samples == 500 for c in columns)
        assert est.gap.mean == pytest.approx(est.girsanov.mean - est.euler.mean, abs=1e-15)

    def test_paired_gap_se_is_below_the_combined_se(self):
        # the measured per-sheet variance of the difference is a fraction of
        # the sum of the two estimators' variances
        grid = uniform_grid(32, 32, 1.0, 1.0)
        est = paired_weak_expectation(self.PHI, tanh_drift(1.0, 1.0, 1), 0.1, grid, 8192, 5)
        assert est.gap.n_samples == est.girsanov.n_samples == 8192
        combined = math.hypot(est.girsanov.std_error, est.euler.std_error)
        assert est.gap.std_error < 0.6 * combined
        assert abs(est.gap.mean) <= 4.0 * est.gap.std_error
        assert abs(est.weight.mean - 1.0) <= 4.0 * est.weight.std_error

    @pytest.mark.parametrize("workers", [1, 2])
    def test_paired_pass_allocates_a_few_chunks_per_worker(self, workers, monkeypatch):
        # each worker holds one chunk's increments, field and drift values; the
        # Euler column adds only row buffers beside them
        monkeypatch.setattr(integrators, "_pool_workers", lambda shards: min(shards, workers))
        grid = uniform_grid(64, 64, 1.0, 1.0)
        chunk = _sheet_mc_chunk(grid, 1)
        chunk_bytes = chunk * 64 * 64 * 8
        drift = tanh_drift(1.0, 1.0, 1)
        paired_weak_expectation(self.PHI, drift, 0.1, uniform_grid(2, 2, 1.0, 1.0), 2, 11)
        tracemalloc.start()
        try:
            paired_weak_expectation(self.PHI, drift, 0.1, grid, 8 * chunk, 11)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * workers * chunk_bytes, f"peak {peak / chunk_bytes:.2f} chunks"

    def test_paired_euler_column_keeps_only_rows(self, monkeypatch):
        # the Girsanov column sets the pass's peak, so the ceiling above cannot
        # see the Euler column; traced on its own, the chain holds row buffers
        # beside the chunk's increments, where a whole field would add a chunk
        monkeypatch.setattr(integrators, "_pool_workers", lambda shards: 1)
        euler_phi, grown = sde_plane._euler_phi, []

        def traced(*args):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = euler_phi(*args)
            grown.append(tracemalloc.get_traced_memory()[1] - before)
            return out

        monkeypatch.setattr(sde_plane, "_euler_phi", traced)
        grid = uniform_grid(64, 64, 1.0, 1.0)
        chunk = _sheet_mc_chunk(grid, 1)
        chunk_bytes = chunk * 64 * 64 * 8
        tracemalloc.start()
        try:
            paired_weak_expectation(self.PHI, tanh_drift(1.0, 1.0, 1), 0.1, grid, 2 * chunk, 11)
        finally:
            tracemalloc.stop()
        assert len(grown) == 2
        assert max(grown) <= 0.25 * chunk_bytes, f"grew {max(grown) / chunk_bytes:.2f} chunks"
