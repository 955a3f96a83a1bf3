"""Direct-vs-expanded expectation checks and the product bound."""

import dataclasses
import json
import math
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from sheetsde import estimate_lab, integrators
from sheetsde.brownian_sheet import stream
from sheetsde.estimate_lab import (
    EXACT_REL_TOL,
    DriftScalarFactor,
    IdentityReport,
    _direct_integrand,
    _exact_terms,
    _gaussian_sampler,
    _term_integrand,
    _tilted_moments,
    bump_factor,
    davie_bound,
    direct_expectation,
    gaussian_factor,
    ibp_expectation,
    verify_identity,
)
from sheetsde.ibp_engine import (
    PermutationSpec,
    all_permutation_specs,
    crossing_set,
    expand,
    span,
    spec_variances,
    staircase,
    uniform_spec,
)
from sheetsde.integrators import McEstimate, monte_carlo

# reference factor of the Monte Carlo route and the pinned data
BUMP = bump_factor(scale=1.0, width=2.5, center=0.25)
# the exact route's factor
GAUSS = gaussian_factor()

# exact integrand values at fixed points, all sigma with n <= 4; regenerate with
#     PYTHONPATH=src python tests/test_estimate_lab.py
# only when a change to the integrands is intended
INTEGRANDS = Path(__file__).parent / "data" / "integrand_values.json"

# exact Monte Carlo estimates of both routes, regenerated by the same command;
# the larger budget crosses a chunk boundary of integrators.monte_carlo
ESTIMATES = Path(__file__).parent / "data" / "ibp_estimates.json"
# unsigned exact terms, all sigma with n <= 4, as the scalar per-term route computed them
EXACT_TERMS = Path(__file__).parent / "data" / "exact_terms.json"
PINNED_SIGMAS = ((1, 2, 3), (3, 2, 1), (2, 1, 4, 3), (1, 2, 3, 4))
PINNED_BUDGETS = (10_000, (1 << 17) + 3)


def negated(factor: DriftScalarFactor) -> DriftScalarFactor:
    return DriftScalarFactor(
        "negated", lambda x: -factor.b(x), lambda x: -factor.b_prime(x), factor.sup_norm
    )


class TestBumpFactor:
    def test_peak_and_sup_norm(self):
        f = bump_factor(scale=2.0, width=1.0, center=0.3)
        assert f.b(0.3) == pytest.approx(2.0 / math.e, rel=1e-14)
        assert f.sup_norm == pytest.approx(2.0 / math.e, rel=1e-14)

    def test_compact_support(self):
        f = bump_factor(width=0.5, center=0.0)
        xs = np.array([-0.6, -0.5, 0.5, 0.7, 3.0])
        assert np.all(f.b(xs) == 0.0)
        assert np.all(f.b_prime(xs) == 0.0)

    def test_derivative_matches_finite_differences(self):
        f = bump_factor(scale=1.3, width=0.8, center=-0.2)
        xs = np.linspace(-0.9, 0.5, 41)  # interior of the support
        h = 1e-6
        fd = (f.b(xs + h) - f.b(xs - h)) / (2.0 * h)
        assert np.max(np.abs(f.b_prime(xs) - fd)) <= 1e-6

    def test_bounded_by_sup_norm(self):
        f = bump_factor(scale=0.7, width=2.0, center=0.1)
        xs = np.linspace(-3.0, 3.0, 301)
        assert np.max(np.abs(f.b(xs))) <= f.sup_norm + 1e-15

    def test_width_guard(self):
        with pytest.raises(ValueError):
            bump_factor(width=0.0)


class TestDavieBound:
    def test_unit_times_single_point(self):
        spec = PermutationSpec(1, (1,), (1.0,), (1.0,))
        assert davie_bound(spec, 1.0) == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-13)

    def test_power_in_sup_norm(self):
        spec = uniform_spec((2, 1, 3))
        assert davie_bound(spec, 2.0) == pytest.approx(8.0 * davie_bound(spec, 1.0), rel=1e-12)

    def test_grows_as_times_shrink(self):
        wide = uniform_spec((1, 2), horizon=1.0)
        tight = uniform_spec((1, 2), horizon=0.25)
        assert davie_bound(tight, 1.0) > davie_bound(wide, 1.0)

    def test_inverse_sqrt_gap_product(self):
        spec = PermutationSpec(2, (1, 2), (0.25, 1.0), (0.5, 1.0))
        gaps = [0.25, 0.75, 0.5, 0.5]
        want = (2.0 * math.sqrt(2.0)) ** 2 * np.prod([g**-0.5 for g in gaps])
        assert davie_bound(spec, 1.0) == pytest.approx(want, rel=1e-12)

    def test_zero_drift(self):
        assert davie_bound(uniform_spec((1, 2)), 0.0) == 0.0


class TestExpectations:
    def test_odd_integrand_centered(self):
        # centered bump has odd derivative; the n=1 expectation vanishes
        f = bump_factor(scale=1.0, width=2.0, center=0.0)
        spec = uniform_spec((1,))
        est = direct_expectation(spec, f, method="mc", budget=40_000, seed=3)
        assert abs(est.mean) <= 4.0 * est.std_error
        exact = direct_expectation(spec, gaussian_factor(center=0.0), method="exact")
        assert abs(exact.mean) <= 1e-12

    def test_single_point_exact_identity(self):
        spec = uniform_spec((1,))
        d = direct_expectation(spec, GAUSS, method="exact")
        e = ibp_expectation(spec, GAUSS, method="exact")
        assert e.mean == pytest.approx(d.mean, rel=1e-10)

    def test_zero_drift_exactly_zero(self):
        zero = DriftScalarFactor("zero", lambda x: np.zeros_like(np.asarray(x, float)),
                                 lambda x: np.zeros_like(np.asarray(x, float)), 0.0)
        spec = uniform_spec((2, 1))
        assert ibp_expectation(spec, zero, budget=2000, seed=0).mean == 0.0
        assert direct_expectation(spec, zero, budget=2000, seed=0).mean == 0.0

    def test_scaling_homogeneity(self):
        # b -> 2b multiplies the n-factor product by 2^n pathwise
        spec = uniform_spec((2, 1))
        base = bump_factor(scale=1.0, width=2.0, center=0.2)
        doubled = bump_factor(scale=2.0, width=2.0, center=0.2)
        d1 = direct_expectation(spec, base, budget=20_000, seed=5)
        d2 = direct_expectation(spec, doubled, budget=20_000, seed=5)
        assert d2.mean == pytest.approx(4.0 * d1.mean, rel=1e-12)
        e1 = ibp_expectation(spec, base, budget=20_000, seed=5)
        e2 = ibp_expectation(spec, doubled, budget=20_000, seed=5)
        assert e2.mean == pytest.approx(4.0 * e1.mean, rel=1e-12)

    def test_sign_flip_parity(self):
        base = bump_factor(scale=1.0, width=2.0, center=0.2)
        odd_spec = uniform_spec((1,))
        even_spec = uniform_spec((2, 1))
        for spec, parity in ((odd_spec, -1.0), (even_spec, 1.0)):
            a = direct_expectation(spec, base, budget=10_000, seed=7)
            b = direct_expectation(spec, negated(base), budget=10_000, seed=7)
            assert b.mean == pytest.approx(parity * a.mean, rel=1e-12)

    def test_mc_reproducible(self):
        spec = uniform_spec((2, 1))
        a = ibp_expectation(spec, BUMP, budget=5000, seed=11)
        b = ibp_expectation(spec, BUMP, budget=5000, seed=11)
        assert a == b

    def test_method_guard(self):
        with pytest.raises(ValueError):
            direct_expectation(uniform_spec((1,)), BUMP, method="series")

    @pytest.mark.parametrize("route", [direct_expectation, ibp_expectation, verify_identity])
    def test_exact_needs_a_gaussian_factor(self, route):
        message = "the exact route needs a gaussian_factor, got the bump factor"
        with pytest.raises(ValueError, match=message):
            route(uniform_spec((2, 1, 3)), BUMP, method="exact")


def probe_points(variances: np.ndarray) -> np.ndarray:
    """Eight fixed points: closed-form values scaled by the cell standard deviations."""
    k = np.arange(8)[:, None]
    c = np.arange(len(variances))[None, :]
    return 1.5 * np.sin(0.9 * k + 1.7 * c + 0.3) * np.sqrt(variances)


def integrand_values() -> dict:
    """Direct integrand and each signed raw term integrand at the probe points, all n <= 4."""
    values = {}
    for n in range(1, 5):
        for spec in all_permutation_specs(n):
            cells = span(spec)
            variances = spec_variances(spec, cells)
            x = probe_points(variances)
            values[",".join(map(str, spec.sigma))] = {
                "direct": _direct_integrand(staircase(spec, cells), BUMP)(x).tolist(),
                "terms": [(t.sign * _term_integrand(t, BUMP, variances)(x)).tolist()
                          for t in expand(spec)],
            }
    return values


class TestIntegrandValues:
    def test_match_pinned_values(self):
        # exact pointwise values: a flipped sign, a dropped term or a wrong
        # coefficient fails here, although the MC identity tolerance at n=3
        # is wider than the expectation itself
        want = json.loads(INTEGRANDS.read_text())
        got = integrand_values()
        assert list(got) == list(want)
        assert sum(len(v["terms"]) for v in got.values()) == 124
        for key, entry in want.items():
            assert got[key]["direct"] == pytest.approx(entry["direct"], rel=1e-12, abs=0.0), key
            assert len(got[key]["terms"]) == len(entry["terms"]), key
            for g, w in zip(got[key]["terms"], entry["terms"]):
                assert g == pytest.approx(w, rel=1e-12, abs=0.0), key


def estimate_entry(est) -> list:
    return [est.mean, est.std_error, est.n_samples]


def mc_estimates() -> dict:
    """direct_expectation and ibp_expectation (mc) at the pinned sigmas and budgets."""
    values = {}
    for sigma in PINNED_SIGMAS:
        spec = uniform_spec(sigma)
        for budget in PINNED_BUDGETS:
            values[f"{','.join(map(str, sigma))}@{budget}"] = {
                "direct": estimate_entry(direct_expectation(spec, BUMP, "mc", budget, seed=3)),
                "ibp": estimate_entry(ibp_expectation(spec, BUMP, budget, seed=3)),
            }
    return values


class TestPinnedEstimates:
    def test_match_pinned_estimates(self):
        # floats are stored by repr, so == compares every bit of the estimates
        assert mc_estimates() == json.loads(ESTIMATES.read_text())


def two_draw_antithetic(term, factor, variances):
    """The antithetic integrand evaluated as 0.5 * (raw(x) + raw(-x)), controls included."""
    substitution = np.flatnonzero(term.shift >= 0)
    coeffs = term.args.copy()
    coeffs[:, term.shift[substitution]] += term.args[:, substitution]
    b0n = float(factor.b(np.zeros(1))[0]) ** len(term.grad)

    def raw(x):
        vals = np.prod(factor.b(x @ coeffs.T), axis=-1) - b0n
        return vals * np.prod(-x[:, term.grad] / variances[term.grad], axis=-1)

    return lambda x: 0.5 * (raw(x) + raw(-x))


def serial_ibp(spec, factor, budget, seed) -> McEstimate:
    """ibp_expectation's Monte Carlo route, one term pass after the other."""
    variances = spec_variances(spec, span(spec))
    total, var_sum, n_used = 0.0, 0.0, 0
    for idx, term in enumerate(expand(spec)):
        est = monte_carlo(_term_integrand(term, factor, variances, True),
                          _gaussian_sampler(variances), budget, (seed, idx))
        total += term.sign * est.mean
        var_sum += est.std_error ** 2
        n_used += est.n_samples
    return McEstimate(total, math.sqrt(var_sum), n_used)


class TestOneDrawAntithetic:
    @pytest.mark.parametrize("sigma, parity", [((1, 2, 3), 1), ((1, 2, 3, 4), 0)])
    def test_equals_two_draw_form(self, sigma, parity):
        spec = uniform_spec(sigma)
        variances = spec_variances(spec, span(spec))
        x = _gaussian_sampler(variances)(stream(4), 3000)
        for term in expand(spec):
            assert len(term.grad) % 2 == parity
            got = _term_integrand(term, BUMP, variances, reduce_variance=True)(x)
            want = two_draw_antithetic(term, BUMP, variances)(x)
            assert np.array_equal(got, want)


class TestConcurrentPasses:
    @pytest.mark.parametrize("sigma", [(2, 1, 3), (1, 2, 3, 4)])
    def test_ibp_expectation_equals_serial_terms(self, sigma):
        spec = uniform_spec(sigma)
        assert ibp_expectation(spec, BUMP, 20_000, seed=6) == serial_ibp(
            spec, BUMP, 20_000, 6)

    def test_verify_identity_equals_serial_passes(self):
        # the passes run at once under a short switch interval: they
        # share only read-only state, so no schedule changes a bit
        spec = uniform_spec((2, 1, 4, 3))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            report = verify_identity(spec, BUMP, "mc", budget=20_000, seed=8)
        finally:
            sys.setswitchinterval(interval)
        direct = direct_expectation(spec, BUMP, "mc", 20_000, (8, 0))
        ibp = serial_ibp(spec, BUMP, 20_000, (8, 1))
        gap = abs(direct.mean - ibp.mean)
        tol = 4.0 * math.hypot(direct.std_error, ibp.std_error)
        bound = davie_bound(spec, BUMP.sup_norm)
        assert report == IdentityReport(spec.sigma, direct, ibp, bound, gap, tol, gap <= tol,
                                        abs(ibp.mean) + 4.0 * ibp.std_error <= bound)

    def test_at_most_one_plus_pool_size_passes_in_flight(self, monkeypatch):
        # the direct pass runs beside ibp_expectation, which pools its eight
        # term passes; one thread per pass would put all nine in flight
        monkeypatch.setattr(integrators, "_pool_workers", lambda tasks: min(tasks, 2))
        lock = threading.Lock()
        in_flight, peak = [0], [0]

        def counted(*args, **kwargs):
            with lock:
                in_flight[0] += 1
                peak[0] = max(peak[0], in_flight[0])
            try:
                return monte_carlo(*args, **kwargs)
            finally:
                with lock:
                    in_flight[0] -= 1

        monkeypatch.setattr(estimate_lab, "monte_carlo", counted)
        verify_identity(uniform_spec((1, 2, 3, 4)), BUMP, "mc", budget=20_000, seed=1)
        assert 2 <= peak[0] <= 3

    def test_peak_memory_below_three_quarters_of_a_draw(self, monkeypatch):
        # numpy reports its buffers to tracemalloc, across threads; 1 + 2
        # passes at once must stay below 0.75 full-size draws of the budget
        monkeypatch.setattr(integrators, "_pool_workers", lambda tasks: min(tasks, 2))
        spec = uniform_spec((1, 2, 3, 4))
        budget = 100_000
        draw_bytes = budget * len(span(spec)) * 8
        # a first call imports lazily; keep that out of the count
        verify_identity(spec, BUMP, "mc", budget=10, seed=1)
        tracemalloc.start()
        try:
            verify_identity(spec, BUMP, "mc", budget=budget, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.75 * draw_bytes, f"peak {peak / draw_bytes:.2f} draws"


class TestVerifyIdentity:
    @pytest.mark.parametrize("sigma", [(1, 2), (2, 1)])
    def test_exact_two_points(self, sigma):
        spec = uniform_spec(sigma)
        report = verify_identity(spec, GAUSS, method="exact")
        assert report.identity_ok, report
        assert report.bound_ok, report
        assert report.passed

    def test_mc_two_points(self):
        spec = uniform_spec((2, 1))
        factor = bump_factor(scale=1.0, width=2.5, center=0.25)
        report = verify_identity(spec, factor, method="mc", budget=200_000, seed=2)
        assert report.identity_ok, report
        assert report.bound_ok, report

    def test_mc_three_points(self):
        spec = uniform_spec((2, 3, 1))
        factor = bump_factor(scale=1.0, width=2.5, center=0.25)
        report = verify_identity(spec, factor, method="mc", budget=200_000, seed=4)
        assert report.identity_ok, report

    def test_report_gap_consistent(self):
        spec = uniform_spec((1, 2))
        report = verify_identity(spec, GAUSS, method="exact")
        assert report.identity_gap == pytest.approx(abs(report.direct.mean - report.ibp.mean))
        assert report.bound == davie_bound(spec, GAUSS.sup_norm)


class TestExactRoute:
    @pytest.mark.parametrize("v", [0.25, 1.0, 3.7])
    def test_one_cell_moments_closed_form(self, v):
        # x ~ N(0, v) tilted by b(x) has mass scale w / sqrt(v + w^2) exp(-c^2 / 2(v + w^2)),
        # mean m = v c / (v + w^2) and variance q = v w^2 / (v + w^2)
        scale, c, w = 1.3, 0.25, 0.8
        r = v + w * w
        mass = scale * w / math.sqrt(r) * math.exp(-c * c / (2.0 * r))
        m, q = v * c / r, v * w * w / r
        moments = {0: 1.0, 1: m, 2: m * m + q, 3: m ** 3 + 3 * m * q,
                   4: m ** 4 + 6 * m * m * q + 3 * q * q}
        for k, want in moments.items():
            got = _tilted_moments(np.ones((1, 1, 1)), np.array([v]), (scale, c, w), np.ones((1, k, 1)))[0]
            assert got == pytest.approx(mass * want, rel=1e-13), k

    @pytest.mark.parametrize("sigma", [(2, 1), (1, 2), (3, 1, 2), (2, 1, 4, 3)])
    def test_both_routes_match_monte_carlo(self, sigma):
        spec = uniform_spec(sigma)
        exact = direct_expectation(spec, GAUSS, "exact")
        assert (exact.std_error, exact.n_samples) == (0.0, 0)
        for est in (direct_expectation(spec, GAUSS, "mc", 100_000, seed=1),
                    ibp_expectation(spec, GAUSS, 100_000, seed=2)):
            assert abs(est.mean - exact.mean) <= 4.0 * est.std_error, (est, exact)


    def test_batched_terms_match_per_term_values(self):
        want = json.loads(EXACT_TERMS.read_text())["terms"]
        n_terms = 0
        for n in range(1, 5):
            for spec in all_permutation_specs(n):
                got = _exact_terms(expand(spec), GAUSS.gaussian, spec_variances(spec, span(spec)))
                pinned = want[",".join(map(str, spec.sigma))]
                assert got.tolist() == pytest.approx(pinned, rel=1e-12, abs=0.0), spec.sigma
                n_terms += len(pinned)
        assert n_terms == 124


def table_rows(terms, rows, shift):
    """The given rows of a term table, stacked as a table, with their shift rows replaced."""
    fields = ("in_K", "sign", "gamma", "tau", "grad", "args")
    return dataclasses.replace(terms, shift=shift, **{f: getattr(terms, f)[rows] for f in fields})


def mutant_sums(spec, variances, terms):
    """Signed term sums with one term dropped, one sign flipped or one substitution moved.

    Every moved substitution is one mutated shift row; all of a scheme's
    mutated rows go through the exact route as one table.
    """
    values = (terms.sign * _exact_terms(terms, GAUSS.gaussian, variances)).tolist()
    total = sum(values)
    names, rows, shifts = [], [], []
    for idx, shift in enumerate(terms.shift):
        yield f"drop {idx}", total - values[idx]
        yield f"flip {idx}", total - 2.0 * values[idx]
        for cell in np.flatnonzero(shift >= 0):
            for target in range(len(variances)):
                if target in (cell, shift[cell]):
                    continue
                moved = shift.copy()
                moved[cell] = target
                names.append(f"move {idx}: {cell} -> {target}")
                rows.append(idx)
                shifts.append(moved)
    moved = _exact_terms(table_rows(terms, rows, np.array(shifts)), GAUSS.gaussian, variances)
    for name, idx, value in zip(names, rows, moved.tolist()):
        yield name, total - values[idx] + int(terms.sign[idx]) * value


class TestExactIdentityMutants:
    def test_every_n4_mutant_fails_the_gate(self):
        # each of these moved the sum by at least 0.1% (drop 19%, flip 37%),
        # against a gate of 1e-10 that the unmutated sum passes
        n_schemes = n_mutants = 0
        for spec in all_permutation_specs(4):
            if not crossing_set(spec):
                continue
            n_schemes += 1
            variances = spec_variances(spec, span(spec))
            terms = expand(spec)
            direct = direct_expectation(spec, GAUSS, "exact").mean
            assert verify_identity(spec, GAUSS, "exact").identity_ok, spec.sigma
            for name, value in mutant_sums(spec, variances, terms):
                n_mutants += 1
                gap = abs(direct - value)
                assert gap > EXACT_REL_TOL * max(abs(direct), abs(value)), (spec.sigma, name)
        assert (n_schemes, n_mutants) == (23, 2 * 104 + 3156)  # 104 terms, 3156 moves


if __name__ == "__main__":
    INTEGRANDS.write_text(json.dumps(integrand_values()) + "\n")
    ESTIMATES.write_text(json.dumps(mc_estimates(), indent=1) + "\n")
