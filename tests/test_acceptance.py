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
from sheetsde.brownian_sheet import SheetSample, coarsen, sample, values
from sheetsde.cli_runner import ExperimentConfig, run
from sheetsde.estimate_lab import EXACT_REL_TOL, bump_factor, gaussian_factor, verify_identity
from sheetsde.ibp_engine import PermutationSpec, crossing_set, expand, term_to_dict, uniform_spec
from sheetsde.integrators import (
    simplex_dirichlet_oracle,
    simplex_singular_integral,
)
from sheetsde.kernels import DEFAULT_C0, KernelCell, abs_gradient_l1, gradient_component
from sheetsde.plane_geometry import Cell, geometric_grid, uniform_grid
from sheetsde.sde_plane import (
    constant_drift,
    malliavin_solve,
    paired_weak_expectation,
    sign_drift,
    solve_euler,
    solve_picard,
    tanh_drift,
    zero_drift,
)
from sheetsde.shuffle_combinatorics import (
    RegionDescriptor,
    enumerate_block_increasing,
    partition_report,
    product_identity_check,
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


def _b_cells(term) -> list:
    return sorted((row, col) for row, col in term.b_cells.tolist())


def test_criterion_01_golden_term_lists():
    with criterion(1, "golden expansions for n=3", 1.0) as state:
        golden_213 = [
            ((1, 2), -1, [(1, 2), (2, 1), (3, 3)]),
            ((1,), 1, [(1, 2), (2, 3), (3, 1)]),
            ((2,), 1, [(1, 3), (2, 1), (3, 2)]),
            ((), -1, [(1, 3), (2, 2), (3, 1)]),
        ]
        terms = expand(uniform_spec((2, 1, 3)))
        got = [(tuple(t.K), t.sign, _b_cells(t)) for t in terms]
        ok_213 = got == golden_213
        terms_312 = expand(uniform_spec((3, 1, 2)))
        ok_312 = len(terms_312) == 2
        state["ok"] = ok_213 and ok_312
        state["detail"] = (
            f"sigma=(2,1,3): {len(terms)} terms, signs "
            f"{tuple(t.sign for t in terms)}; sigma=(3,1,2): {len(terms_312)} terms"
        )


def test_criterion_02_selection_non_overlap_exhaustive():
    golden = json.loads(EXPAND_DIGESTS.read_text())["sha256"]
    with criterion(2, "all n<=7, all sigma, all K", 60.0) as state:
        n_specs = 0
        n_terms = 0
        for n in range(1, 8):
            digest = hashlib.sha256()
            for sigma in itertools.permutations(range(1, n + 1)):
                spec = uniform_spec(sigma)
                terms = expand(spec)
                n_specs += 1
                n_terms += len(terms)
                assert len(terms) == 2 ** len(crossing_set(spec)), sigma
                for term in terms:
                    rows = sorted(term.b_cells[:, 0].tolist())
                    cols = set(term.b_cells[:, 1].tolist())
                    assert rows == list(range(1, n + 1)), (sigma, term.K)
                    assert len(cols) == n, (sigma, term.K)
                if n <= 6:  # term_to_dict over all 135,135 terms at n=7 would not fit the budget
                    terms_json = [term_to_dict(t) for t in terms]
                    digest.update(json.dumps(terms_json, separators=(",", ":")).encode() + b"\n")
            if n <= 6:
                assert digest.hexdigest() == golden[str(n)], f"term lists at n={n} changed"
        state["ok"] = True
        state["detail"] = (
            f"{n_specs} schemes, {n_terms} terms, all column-disjoint; "
            f"term lists for n<=6 match the pinned digests"
        )


def test_criterion_03_ibp_identity_exact_and_mc():
    with criterion(3, "direct vs expanded expectation", 600.0) as state:
        # exact half: every sigma with n <= 6 under the Gaussian factor, both time sets
        gauss = gaussian_factor()
        worst_rel = 0.0
        n_checked = 0
        for n in range(1, 7):
            for make_grid in (uniform_grid, geometric_grid):
                grid = make_grid(n, n, 1.0, 1.0)
                times = tuple(grid.s_knots[1:n + 1])
                for sigma in itertools.permutations(range(1, n + 1)):
                    spec = PermutationSpec(n, sigma, times, times)
                    rep = verify_identity(spec, gauss, method="exact")
                    assert rep.identity_ok and rep.bound_ok, (sigma, rep)
                    scale = max(abs(rep.direct.mean), abs(rep.ibp.mean))
                    worst_rel = max(worst_rel, rep.identity_gap / scale)
                    n_checked += 1
        assert n_checked == 2 * 873 and worst_rel <= EXACT_REL_TOL
        # MC half, a pipeline smoke test: its tolerance exceeds |E| itself
        worst_se = 0.0
        power = []
        for make_grid in (uniform_grid, geometric_grid):
            grid = make_grid(3, 3, 1.0, 1.0)
            times = tuple(grid.s_knots[1:4])
            for pos, sigma in enumerate(itertools.permutations((1, 2, 3))):
                spec = PermutationSpec(3, sigma, times, times)
                rep = verify_identity(spec, BUMP, method="mc", budget=1_000_000,
                                      seed=(29, 10 * grid.n_s + pos))
                assert rep.identity_ok and rep.bound_ok, (sigma, rep)
                worst_se = max(worst_se, 4.0 * rep.identity_gap / rep.identity_tol)
                power.append(rep.identity_tol / abs(rep.direct.mean))
        state["ok"] = True
        state["detail"] = (
            f"exact: {n_checked // 2} schemes (n<=6) x 2 time sets, worst rel gap {worst_rel:.1e} "
            f"<= {EXACT_REL_TOL:g}; n=3 MC(1e6) pipeline smoke test: worst gap {worst_se:.2f} "
            f"SE <= 4, tol/|direct| {min(power):.1f}-{max(power):.1f} (> 1: a zero expansion "
            f"would pass)"
        )


def test_criterion_04_product_bound_random_sweep():
    with criterion(4, "bound domination on 50 random configs", 600.0) as state:
        rec = run(ExperimentConfig("verify-bound", {
            "trials": 50, "n_set": "2,3", "samples": 100_000,
            "allowed_failures": 1, "seed": 0,
        }))
        n_bad = rec.outputs["n_violations"]
        state["ok"] = rec.passed is True and n_bad <= 1
        state["detail"] = f"{50 - n_bad}/50 configs dominated (|est|+4SE <= bound)"


def test_criterion_05_gradient_l1_oracle():
    with criterion(5, "kernel gradient L1 closed form", 1.0) as state:
        worst = 0.0
        for v in (1e-4, 1e-2, 1.0, 1e2, 1e4):
            closed = abs_gradient_l1(KernelCell(v), 0)
            half, _ = scipy.integrate.quad(
                lambda z: abs(gradient_component(KernelCell(v), z, 0)),
                0.0, 20.0 * math.sqrt(v), epsabs=1e-15, epsrel=1e-13, limit=200,
            )
            worst = max(worst, abs(closed - 2.0 * half) / max(1.0, closed))
            assert closed <= DEFAULT_C0 / math.sqrt(v) + 1e-15
        state["ok"] = worst <= 1e-10
        state["detail"] = f"worst oracle gap {worst:.2e} <= 1e-10, bound 2*sqrt(2/pi) <= 2*sqrt(2)"


def test_criterion_06_shuffle_partition_and_identity():
    with criterion(6, "shuffle partition, cell-sum identity, counts", 300.0) as state:
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
        f1 = lambda s, t: 1.0 + 0.5 * np.sin(2 * np.pi * s) * np.cos(np.pi * t)
        f2 = lambda s, t: np.exp(-s * t)
        idrep = product_identity_check(2, [f1, f2], budget=1_000_000, seed=12)
        assert idrep.within(4.0), idrep
        for k in (1, 2, 3):
            fam = enumerate_block_increasing(4, k)
            assert len(fam.members) == fam.expected_count
            assert fam.expected_count <= 2 ** (9 * k)
        state["ok"] = True
        state["detail"] = (
            f"4 region families clean at 1e5 points; "
            f"cell-sum gap {idrep.gap_se:.2f} SE <= 4; m=4 counts within 2^(9k)"
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
        free = solve_euler(grid, zero_drift(1), 0.25, sheet)
        err_zero = float(np.max(np.abs(free.values - (0.25 + values(sheet)))))
        assert err_zero == 0.0 or err_zero <= 1e-13
        c = 0.8
        const = solve_euler(grid, constant_drift(c), 0.1, sheet)
        st = np.outer(grid.s_knots, grid.t_knots)[:, :, None]
        err_const = float(np.max(np.abs(const.values - (0.1 + c * st + values(sheet)))))
        assert err_const <= 1e-12
        # b(x) = a x on a zero sheet: the far corner is x0 sum_k (a A)^k C(n, k)^2
        # exactly, so a drift read at any other cell corner than the lower-left
        # one shows; constant drift cannot see which corner is read
        a = 1.0
        err_linear = 0.0
        for n in (8, 64):
            g = uniform_grid(n, n, 1.0, 1.0)
            zero_sheet = SheetSample(g, 1, np.zeros((n, n, 1)))
            corner = solve_euler(g, linear_drift(a), 1.0, zero_sheet).values[-1, -1, 0]
            exact = math.fsum((a / n**2) ** k * math.comb(n, k) ** 2 for k in range(n + 1))
            err_linear = max(err_linear, abs(corner - exact) / exact)
        assert err_linear <= 1e-12

        fine = sample(uniform_grid(128, 128, 1.0, 1.0), dim=1, seed=23)
        drift = tanh_drift(0.8, 1.3, 1)
        hs, errs = [], []
        for factor in (8, 4, 2, 1):
            piece = coarsen(fine, factor)
            g = piece.grid
            e = solve_euler(g, drift, 0.1, piece)
            p, _ = solve_picard(g, drift, 0.1, piece)
            hs.append(1.0 / g.n_s)
            errs.append(float(np.max(np.abs(e.values - p.values))))
        slope = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
        state["ok"] = slope >= 0.9
        state["detail"] = (
            f"driftless error {err_zero:.1e}, constant-drift error {err_const:.1e}, "
            f"linear-drift corner rel error {err_linear:.1e} <= 1e-12, "
            f"scheme-gap mesh order {slope:.3f} >= 0.9"
        )


def test_criterion_09_malliavin_identity_and_direction():
    with criterion(9, "derivative field checks", 120.0) as state:
        grid = uniform_grid(8, 8, 1.0, 1.0)
        sheet = sample(grid, dim=1, seed=1)
        sol = solve_euler(grid, zero_drift(1), 0.0, sheet)
        field = malliavin_solve(grid, zero_drift(1), sol, base=(3, 2))
        quadrant = field.values[3:, 2:, 0, 0]
        exact = (
            np.all(quadrant == 1.0)
            and np.all(field.values[:3, :, 0, 0] == 0.0)
            and np.all(field.values[:, :2, 0, 0] == 0.0)
        )
        assert exact
        rec = run(ExperimentConfig("malliavin-check", {
            "grid": "32x32", "seed": 3, "drift": "tanh",
            "amplitude": 0.9, "rate": 1.1, "eps": 1e-4, "tolerance": 1e-8,
        }))
        rel = rec.outputs["rel_err"]
        state["ok"] = exact and rec.passed is True and rel <= 1e-8
        state["detail"] = (
            f"driftless field exactly the indicator; 32x32 directional "
            f"derivative rel err {rel:.2e} <= 1e-8"
        )


def test_criterion_10_girsanov_weak_agreement():
    with criterion(10, "reweighted vs simulated weak solution", 600.0) as state:
        samples = 100_000
        phi = lambda x: np.tanh(x[..., 0])
        grid = uniform_grid(64, 64, 1.0, 1.0)
        # corner-frozen Girsanov has the Euler chain's law at every mesh, so the
        # two estimators are compared at one mesh, paired on the same sheets;
        # each call already runs its shards on every core, so they run in turn
        details = []
        ok = True
        for drift in (tanh_drift(1.0, 1.0, 1), sign_drift()):
            est = paired_weak_expectation(phi, drift, 0.1, grid, samples, (101, 64))
            gap_z = abs(est.gap.mean) / est.gap.std_error
            weight_z = abs(est.weight.mean - 1.0) / est.weight.std_error
            ok = ok and gap_z <= 4.0 and weight_z <= 4.0
            unpaired = math.hypot(est.girsanov.std_error, est.euler.std_error)
            details.append(f"{drift.name}: gap {gap_z:.2f} SE (paired SE {est.gap.std_error:.1e}, "
                           f"unpaired {unpaired:.1e}), E[M] z {weight_z:.2f}")
        state["ok"] = ok
        state["detail"] = "; ".join(details) + " (all <= 4 SE, mesh 64)"
