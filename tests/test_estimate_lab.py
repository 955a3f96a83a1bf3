"""Direct-vs-expanded expectation checks, product bound, integrated bounds."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from sheetsde.estimate_lab import (
    DriftScalarFactor,
    _direct_integrand,
    _term_integrand,
    bump_factor,
    corollary_check,
    corollary_scaling_slope,
    davie_bound,
    direct_expectation,
    ibp_expectation,
    verify_identity,
)
from sheetsde.ibp_engine import (
    PermutationSpec,
    all_permutation_specs,
    expand,
    span,
    spec_variances,
    staircase,
    uniform_spec,
)
from sheetsde.integrators import TimeWindow

# reference factor whose support edge sits far outside the sheet-value law
# at horizon 1/4, keeping tensor quadrature spectrally convergent
QUAD_FACTOR = bump_factor(scale=1.0, width=2.5, center=0.25)
QUAD_HORIZON = 0.25

# exact integrand values at fixed points, all sigma with n <= 4; regenerate with
#     PYTHONPATH=src python tests/test_estimate_lab.py
# only when a change to the integrands is intended
INTEGRANDS = Path(__file__).parent / "data" / "integrand_values.json"


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
        exact = direct_expectation(spec, f, method="quadrature", budget=40)
        assert abs(exact.mean) <= 1e-12

    def test_single_point_quadrature_identity(self):
        spec = PermutationSpec(1, (1,), (QUAD_HORIZON,), (QUAD_HORIZON,))
        d = direct_expectation(spec, QUAD_FACTOR, method="quadrature", budget=40)
        e = ibp_expectation(spec, QUAD_FACTOR, method="quadrature", budget=40)
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
        a = ibp_expectation(spec, QUAD_FACTOR, budget=5000, seed=11)
        b = ibp_expectation(spec, QUAD_FACTOR, budget=5000, seed=11)
        assert a == b

    def test_method_guard(self):
        with pytest.raises(ValueError):
            direct_expectation(uniform_spec((1,)), QUAD_FACTOR, method="series")

    @pytest.mark.parametrize("route", [direct_expectation, ibp_expectation, verify_identity])
    def test_quadrature_span_guard(self, route):
        # sigma = (2, 1, 3) spans 9 cells, beyond tensor Gauss-Hermite's 6
        spec = uniform_spec((2, 1, 3))
        message = r"quadrature supports spans of at most 6 cells, but sigma=\(2, 1, 3\) spans 9"
        with pytest.raises(ValueError, match=message):
            route(spec, QUAD_FACTOR, method="quadrature", budget=4)


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
                "direct": _direct_integrand(staircase(spec, cells), QUAD_FACTOR)(x).tolist(),
                "terms": [(t.sign * _term_integrand(t, QUAD_FACTOR, variances)(x)).tolist()
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


class TestVerifyIdentity:
    @pytest.mark.parametrize("sigma", [(1, 2), (2, 1)])
    def test_quadrature_two_points(self, sigma):
        spec = uniform_spec(sigma, horizon=QUAD_HORIZON)
        report = verify_identity(spec, QUAD_FACTOR, method="quadrature", budget=24)
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
        spec = uniform_spec((1, 2), horizon=QUAD_HORIZON)
        report = verify_identity(spec, QUAD_FACTOR, method="quadrature", budget=20)
        assert report.identity_gap == pytest.approx(abs(report.direct.mean - report.ibp.mean))
        assert report.bound == davie_bound(spec, QUAD_FACTOR.sup_norm)


class TestCorollary:
    WINDOW = TimeWindow(r=0.25, s=0.75, u=0.25, t=0.75)

    def test_single_order_bounded(self):
        factor = bump_factor(scale=1.0, width=2.5, center=0.25)
        report = corollary_check(1, self.WINDOW, factor, budget=150, seed=1)
        assert report.passed
        assert report.lhs.mean <= report.rhs.value
        assert report.ratio == pytest.approx(report.lhs.mean / report.rhs.value)

    def test_zero_drift_lhs_zero(self):
        zero = DriftScalarFactor("zero", lambda x: np.zeros_like(np.asarray(x, float)),
                                 lambda x: np.zeros_like(np.asarray(x, float)), 0.0)
        report = corollary_check(1, self.WINDOW, zero, budget=60, seed=0)
        assert report.lhs.mean == 0.0

    def test_order_guard(self):
        with pytest.raises(ValueError):
            corollary_check(3, self.WINDOW, QUAD_FACTOR, budget=10, seed=0)

    def test_window_scaling_slope_single_order(self):
        factor = bump_factor(scale=1.0, width=2.5, center=0.25)
        slope = corollary_scaling_slope(1, factor, budget=200, seed=3)
        assert abs(slope - 1.0) <= 0.15


if __name__ == "__main__":
    INTEGRANDS.write_text(json.dumps(integrand_values()) + "\n")
