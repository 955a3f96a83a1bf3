"""End-to-end acceptance runs, one test per criterion.

Each test exercises the stated configuration at the stated budget and
records a single PASS/FAIL line via the terminal-summary hook.  Budgets are
wall-clock ceilings; the statistical tolerances are fixed in-line.
"""

import hashlib
import itertools
import json
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import scipy.integrate

from conftest import linear_drift, record_criterion
from sheetsde import estimate_lab
from sheetsde.brownian_sheet import SheetSample, coarsen, cumulative_values, sample
from sheetsde.cli_runner import ExperimentConfig, run
from sheetsde.estimate_lab import (
    DEFAULT_C0,
    EXACT_REL_TOL,
    abs_gradient_l1,
    bump_factor,
    davie_bound,
    gaussian_factor,
    sign_direct_expectation,
    verify_identity,
)
from sheetsde.ibp_engine import PermutationSpec, crossing_set, expand, uniform_spec
from sheetsde.integrators import (
    simplex_dirichlet_oracle,
    simplex_singular_integral,
)
from sheetsde.plane_geometry import geometric_grid, uniform_grid
from sheetsde.sde_plane import (
    constant_drift,
    malliavin_adjoint,
    paired_weak_expectation,
    sign_drift,
    solve_euler,
    solve_picard,
    tanh_drift,
)
from sheetsde.shuffle_combinatorics import (
    RegionDescriptor,
    enumerate_block_increasing,
    partition_report,
)

BUMP = bump_factor(scale=1.0, width=2.5, center=0.25)

# sha256 per n of the term lists of every sigma; its "about" key gives the recipe
EXPAND_DIGESTS = Path(__file__).parent / "data" / "expand_digests.json"


@contextmanager
def criterion(num: int, label: str, budget_s: float):
    state = {"ok": False, "detail": "no result"}
    start = time.perf_counter()
    try:
        yield state
    finally:
        elapsed = time.perf_counter() - start
        status = "PASS" if (state["ok"] and elapsed < budget_s) else "FAIL"
        record_criterion(
            f"criterion {num:2d} {status} [{elapsed:6.1f}s/{budget_s:.0f}s] {label}: {state['detail']}"
        )
    assert state["ok"], f"criterion {num} ({label}): {state['detail']}"
    assert elapsed < budget_s, f"criterion {num} over budget: {elapsed:.1f}s >= {budget_s}s"


def test_criterion_01_golden_term_lists():
    with criterion(1, "golden expansions for n=3", 1.0) as state:
        golden_213 = [
            ((1, 2), -1, [(1, 2), (2, 1), (3, 3)]),
            ((1,), 1, [(1, 2), (2, 3), (3, 1)]),
            ((2,), 1, [(1, 3), (2, 1), (3, 2)]),
            ((), -1, [(1, 3), (2, 2), (3, 1)]),
        ]
        terms = expand(uniform_spec((2, 1, 3)))
        got = [(tuple(d["K"]), d["sign"], sorted(map(tuple, d["B_cells"]))) for d in terms.to_dicts()]
        ok_213 = got == golden_213
        terms_312 = expand(uniform_spec((3, 1, 2)))
        ok_312 = len(terms_312) == 2
        state["ok"] = ok_213 and ok_312
        state["detail"] = (
            f"sigma=(2,1,3): {len(terms)} terms, signs "
            f"{tuple(terms.sign.tolist())}; sigma=(3,1,2): {len(terms_312)} terms"
        )


def test_criterion_02_selection_non_overlap_exhaustive():
    pinned = json.loads(EXPAND_DIGESTS.read_text())
    golden, golden_table = pinned["sha256"], pinned["table_sha256"]
    with criterion(2, "all n<=7, all sigma, all K", 60.0) as state:
        n_specs = 0
        n_terms = 0
        for n in range(1, 8):
            digest = hashlib.sha256()
            table_digest = hashlib.sha256()
            for sigma in itertools.permutations(range(1, n + 1)):
                spec = uniform_spec(sigma)
                terms = expand(spec)
                n_specs += 1
                n_terms += len(terms)
                assert len(terms) == 2 ** len(crossing_set(spec)), sigma
                # per term: gradient rows exactly 1..n, n distinct gradient columns
                b_cells = np.sort(terms.cells[terms.grad], axis=1)
                assert (b_cells[:, :, 0] == np.arange(1, n + 1)).all(), sigma
                assert (np.diff(b_cells[:, :, 1], axis=1) > 0).all(), sigma
                # the bytes the record and the --out file write, not a re-encoding of them
                digest.update(terms.to_json().encode() + b"\n")
                # gamma, tau and shift, which the term lists omit ("table_about" gives the recipe)
                rows = [list(row) for row in zip(terms.gamma.tolist(), terms.tau.tolist(),
                                                 terms.shift.tolist())]
                table_digest.update(json.dumps(rows, separators=(",", ":")).encode() + b"\n")
            assert digest.hexdigest() == golden[str(n)], f"term lists at n={n} changed"
            assert table_digest.hexdigest() == golden_table[str(n)], f"gamma/tau/shift at n={n} changed"
        state["ok"] = True
        state["detail"] = (
            f"{n_specs} schemes, {n_terms} terms, all column-disjoint; "
            f"term lists and gamma/tau/shift for n<=7 match the pinned digests"
        )


def test_criterion_03_ibp_identity_exact_and_mc():
    with criterion(3, "direct vs expanded expectation", 100.0) as state:
        # exact half: every sigma with n <= 6 under the Gaussian factor, both time sets
        gauss = gaussian_factor()
        worst_rel = 0.0
        n_checked = 0
        # the bound half's power: the largest |ibp| / bound per n
        bound_use = [0.0] * 6
        for n in range(1, 7):
            for make_grid in (uniform_grid, geometric_grid):
                grid = make_grid(n, n, 1.0, 1.0)
                times = tuple(grid.s_knots[1:n + 1])
                for sigma in itertools.permutations(range(1, n + 1)):
                    spec = PermutationSpec(sigma, times, times)
                    rep = verify_identity(spec, gauss, method="exact")
                    assert rep.identity_ok and rep.bound_ok, (sigma, rep)
                    scale = max(abs(rep.direct.mean), abs(rep.ibp.mean))
                    worst_rel = max(worst_rel, rep.identity_gap / scale)
                    bound_use[n - 1] = max(bound_use[n - 1], abs(rep.ibp.mean) / rep.bound)
                    n_checked += 1
        assert n_checked == 2 * 873 and worst_rel <= EXACT_REL_TOL
        # MC half, a pipeline smoke test: its tolerance exceeds |E| itself
        worst_se = 0.0
        power = []
        mc_bound_use = 0.0
        for make_grid in (uniform_grid, geometric_grid):
            grid = make_grid(3, 3, 1.0, 1.0)
            times = tuple(grid.s_knots[1:4])
            for pos, sigma in enumerate(itertools.permutations((1, 2, 3))):
                spec = PermutationSpec(sigma, times, times)
                rep = verify_identity(spec, BUMP, method="mc", budget=1_000_000,
                                      seed=(29, 10 * grid.n_s + pos))
                assert rep.identity_ok and rep.bound_ok, (sigma, rep)
                worst_se = max(worst_se, 4.0 * rep.identity_gap / rep.identity_tol)
                power.append(rep.identity_tol / abs(rep.direct.mean))
                ibp_top = abs(rep.ibp.mean) + 4.0 * rep.ibp.std_error
                mc_bound_use = max(mc_bound_use, ibp_top / rep.bound)
        state["ok"] = True
        state["detail"] = (
            f"exact: {n_checked // 2} schemes (n<=6) x 2 time sets, worst rel gap {worst_rel:.1e} "
            f"<= {EXACT_REL_TOL:g}; n=3 MC(1e6) pipeline smoke test: worst gap {worst_se:.2f} "
            f"SE <= 4, tol/|direct| {min(power):.1f}-{max(power):.1f} (> 1: a zero expansion "
            f"would pass); bound half a smoke check, max |ibp|/bound for n=1..6 "
            + ", ".join(f"{r:.1e}" for r in bound_use)
            + f", MC (|ibp|+4 SE)/bound {mc_bound_use:.1e}"
        )


# criterion 4's sweep: exact sign-drift direct side against the product bound
BOUND_SWEEP = {"trials": 2000, "n_set": "1,2,3,4,5,6", "seed": 0}


def test_criterion_04_product_bound_random_sweep():
    with criterion(4, "bound domination on 2000 random sign-drift configs, exact", 2.0) as state:
        rec = run(ExperimentConfig("verify-bound", BOUND_SWEEP))
        assert rec.passed is True and rec.outputs["n_violations"] == 0
        ratios = rec.outputs["max_ratio"]
        assert all(r is not None and 0.0 < r < 1.0 for r in ratios)
        # at n = 1, exact / bound = (2 / sqrt(2 pi s t)) / (c0 / sqrt(s t)) = 1 / (2 sqrt(pi))
        # whatever the times, so any change to c0 moves it
        attained = 1.0 / (2.0 * math.sqrt(math.pi))
        assert math.isclose(ratios[0], attained, rel_tol=1e-12)
        for s, t in itertools.product((0.05, 0.3, 0.77, 1.0), repeat=2):
            spec = PermutationSpec((1,), (s,), (t,))
            ratio = sign_direct_expectation(spec) / davie_bound(spec, 1.0)
            assert math.isclose(ratio, attained, rel_tol=1e-12), (s, t)
        state["ok"] = True
        state["detail"] = ("2000/2000 configs dominated (exact <= bound); max exact/bound for n=1..6: "
                           + ", ".join(f"{r:.2g}" for r in ratios)
                           + f"; n=1 = 1/(2 sqrt(pi)) to 1e-12")


def test_criterion_04_sweep_fails_a_quartered_c0(monkeypatch):
    # mutation: DEFAULT_C0 / 4 makes the n = 1 ratio 4 / (2 sqrt(pi)) = 1.13 > 1
    monkeypatch.setattr(estimate_lab, "DEFAULT_C0", DEFAULT_C0 / 4.0)
    rec = run(ExperimentConfig("verify-bound", BOUND_SWEEP))
    assert rec.passed is False
    assert math.isclose(rec.outputs["max_ratio"][0], 2.0 / math.sqrt(math.pi), rel_tol=1e-12)


def test_criterion_05_gradient_l1_oracle():
    with criterion(5, "kernel gradient L1 closed form", 1.0) as state:
        worst = 0.0
        for v in (1e-4, 1e-2, 1.0, 1e2, 1e4):
            closed = abs_gradient_l1(v)
            # |d/dz| of the N(0, v) density, written out
            half, _ = scipy.integrate.quad(
                lambda z: abs(z) / v * math.exp(-z * z / (2.0 * v)) / math.sqrt(2.0 * math.pi * v),
                0.0, 20.0 * math.sqrt(v), epsabs=1e-15, epsrel=1e-13, limit=200,
            )
            worst = max(worst, abs(closed - 2.0 * half) / max(1.0, closed))
            assert closed <= DEFAULT_C0 / math.sqrt(v) + 1e-15
        state["ok"] = worst <= 1e-10
        state["detail"] = f"worst oracle gap {worst:.2e} <= 1e-10, bound 2*sqrt(2/pi) <= 2*sqrt(2)"


def test_criterion_06_shuffle_partition_and_identity():
    with criterion(6, "shuffle partition, counts", 40.0) as state:
        regions = [
            (RegionDescriptor("nabla", 1), 2),
            (RegionDescriptor("nabla", 2), 2),
            (RegionDescriptor("nabla", 1), 3),
            (RegionDescriptor("lambda", 1, 1, s_mid=0.5, t_mid=0.5), 2),
        ]
        for region, m in regions:
            rep = partition_report(region, m, 100_000, seed=5)
            assert rep.ok, (region.kind, m, rep)
            assert rep.uncovered == 0 and rep.multiply_covered == 0
        # 907,200 cells; the sample count was set by its scan time, about 1.5 s on 2 cores
        big = partition_report(RegionDescriptor("lambda", 2, 1, s_mid=0.5, t_mid=0.5), 3, 50_000, seed=5)
        assert big.ok and big.n_cells == 907_200, big
        for k in (1, 2, 3):
            count = math.factorial(4 * k) // math.factorial(k) ** 4
            assert len(enumerate_block_increasing(4, k)) == count <= 2 ** (9 * k)
        state["ok"] = True
        state["detail"] = (
            f"4 region families clean at 1e5 points, the m=3 k+n=3 split product "
            f"({big.n_cells} cells) at 5e4; m=4 counts within 2^(9k)"
        )


def test_criterion_07_simplex_gamma_formula():
    with criterion(7, "singular simplex integrals", 60.0) as state:
        closed1 = simplex_singular_integral(1, 0.0, 1.0)
        oracle1, _ = scipy.integrate.quad(
            lambda x: 1.0, 0.0, 1.0, weight="alg", wvar=(-0.5, -0.5), epsabs=1e-13,
        )
        gap1 = abs(closed1 - oracle1)
        assert gap1 <= 1e-10 and abs(closed1 - math.pi) <= 1e-12
        zs = []
        for n, want in ((2, 2.0 * math.pi), (3, math.pi ** 2)):
            closed = simplex_singular_integral(n, 0.0, 1.0)
            assert abs(closed - want) <= 1e-12
            est = simplex_dirichlet_oracle(n, 0.0, 1.0, 400_000, seed=n)
            zs.append(abs(closed - est.mean) / est.std_error)
            assert zs[-1] <= 4.0, (n, closed, est)
        state["ok"] = True
        state["detail"] = (
            f"n=1 quadrature gap {gap1:.1e} <= 1e-10; "
            f"n=2,3 Dirichlet z = {zs[0]:.2f}, {zs[1]:.2f} <= 4"
        )


def test_criterion_08_solver_exactness_and_mesh_order():
    with criterion(8, "solver exactness and mesh order", 120.0) as state:
        grid = uniform_grid(16, 16, 1.0, 1.0)
        sheet = sample(grid, dim=1, seed=6)
        w = cumulative_values(sheet.increments)
        free = solve_euler(constant_drift(0.0, 1), 0.25, sheet)
        err_zero = float(np.max(np.abs(free.values - (0.25 + w))))
        assert err_zero == 0.0 or err_zero <= 1e-13
        c = 0.8
        const = solve_euler(constant_drift(c), 0.1, sheet)
        st = np.outer(grid.s_knots, grid.t_knots)[:, :, None]
        err_const = float(np.max(np.abs(const.values - (0.1 + c * st + w))))
        assert err_const <= 1e-12
        # b(x) = a x on a zero sheet: the far corner is x0 sum_k (a A)^k C(n, k)^2
        # exactly, so a drift read at any other cell corner than the lower-left
        # one shows; constant drift cannot see which corner is read
        a = 1.0
        err_linear = 0.0
        for n in (8, 64):
            g = uniform_grid(n, n, 1.0, 1.0)
            zero_sheet = SheetSample(g, np.zeros((n, n, 1)))
            corner = solve_euler(linear_drift(a), 1.0, zero_sheet).values[-1, -1, 0]
            exact = math.fsum((a / n**2) ** k * math.comb(n, k) ** 2 for k in range(n + 1))
            err_linear = max(err_linear, abs(corner - exact) / exact)
        assert err_linear <= 1e-12

        fine = sample(uniform_grid(128, 128, 1.0, 1.0), dim=1, seed=23)
        drift = tanh_drift(0.8, 1.3, 1)
        cells, errs, sweeps = [], [], []
        for factor in (8, 4, 2, 1):
            piece = coarsen(fine, factor)
            e = solve_euler(drift, 0.1, piece)
            p, n_sweeps = solve_picard(drift, 0.1, piece)
            cells.append(piece.grid.n_s)
            errs.append(float(np.max(np.abs(e.values - p.values))))
            sweeps.append(n_sweeps)
        slope = float(np.polyfit(np.log(1.0 / np.array(cells)), np.log(errs), 1)[0])
        state["ok"] = slope >= 0.9
        state["detail"] = (
            f"driftless error {err_zero:.1e}, constant-drift error {err_const:.1e}, "
            f"linear-drift corner rel error {err_linear:.1e} <= 1e-12; "
            f"Euler-Picard sup gaps {', '.join(f'{gap:.6e}' for gap in errs)} at "
            f"{', '.join(map(str, cells))} cells per axis, Picard sweeps "
            f"{', '.join(map(str, sweeps))}, scheme-gap mesh order {slope:.4f} >= 0.9"
        )


def test_criterion_09_malliavin_identity_and_direction():
    with criterion(9, "derivative field checks", 120.0) as state:
        grid = uniform_grid(8, 8, 1.0, 1.0)
        sheet = sample(grid, dim=1, seed=1)
        sol = solve_euler(constant_drift(0.0, 1), 0.0, sheet)
        # without drift every derivative, in the sheet and in x0, is exactly I
        cells, flow = malliavin_adjoint(constant_drift(0.0, 1), sol)
        exact = bool(np.all(cells == 1.0) and np.all(flow == 1.0))
        assert exact
        rec = run(ExperimentConfig("malliavin-check", {
            "grid": "32x32", "seed": 3, "drift": "tanh",
            "amplitude": 0.9, "rate": 1.1, "eps": 1e-4,
        }))
        rel = rec.outputs["rel_err"]
        state["ok"] = exact and rec.passed is True and rel <= 1e-8
        state["detail"] = (
            f"driftless cell and flow derivatives exactly I; 32x32 directional "
            f"derivative rel err {rel:.2e} <= 1e-8"
        )


def test_criterion_10_girsanov_weak_agreement():
    with criterion(10, "reweighted vs simulated weak solution", 30.0) as state:
        samples = 100_000
        phi = lambda x: np.tanh(x[..., 0])
        # corner-frozen Girsanov has the Euler chain's law at every mesh, so the
        # identity is checked where a sheet is cheap: the per-sheet SD of the
        # paired gap barely moves with the mesh, and mesh-64 scale stays with
        # girsanov-check's default grid.  The two estimators are paired on the
        # same sheets; each call already runs its shards on every core, so
        # they run in turn
        details = []
        ok = True
        for mesh in (8, 16):
            grid = uniform_grid(mesh, mesh, 1.0, 1.0)
            for drift in (tanh_drift(1.0, 1.0, 1), sign_drift()):
                est = paired_weak_expectation(phi, drift, 0.1, grid, samples, (101, mesh))
                gap_z = abs(est.gap.mean) / est.gap.std_error
                weight_z = abs(est.weight.mean - 1.0) / est.weight.std_error
                ok = ok and gap_z <= 4.0 and weight_z <= 4.0
                unpaired = math.hypot(est.girsanov.std_error, est.euler.std_error)
                details.append(f"mesh {mesh} {drift.name}: gap {gap_z:.2f} SE (paired SE "
                               f"{est.gap.std_error:.1e}, unpaired {unpaired:.1e}), "
                               f"E[M] z {weight_z:.2f}")
        state["ok"] = ok
        state["detail"] = "; ".join(details) + " (all <= 4 SE)"
