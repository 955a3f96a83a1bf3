"""The kernel-gradient L1 mass behind the product bound: closed form against a quadrature oracle."""

import math

import pytest
from scipy.integrate import quad

from sheetsde.estimate_lab import DEFAULT_C0, abs_gradient_l1


class TestAbsGradientL1:
    def oracle(self, v: float) -> float:
        """Adaptive quadrature of |d/dz| of the N(0, v) density, written out, over the real line."""
        sd = math.sqrt(v)

        half, err = quad(
            lambda z: abs(z) / v * math.exp(-z * z / (2.0 * v)) / math.sqrt(2.0 * math.pi * v),
            0.0, 20.0 * sd, epsabs=1e-15, epsrel=1e-13, limit=200,
        )
        return 2.0 * half  # integrand is even

    @pytest.mark.parametrize("v", [1e-4, 1e-2, 1.0, 1e2, 1e4])
    def test_matches_adaptive_quadrature(self, v):
        closed = abs_gradient_l1(v)
        assert abs(closed - self.oracle(v)) <= 1e-10 * max(1.0, closed)

    @pytest.mark.parametrize("v", [1e-3, 0.5, 7.0])
    def test_dominated_by_bound_constant(self, v):
        # sqrt(2/pi) < 2 sqrt(2), so the per-cell L1 mass sits under the
        # bound constant at every variance.
        assert abs_gradient_l1(v) <= DEFAULT_C0 / math.sqrt(v)

    def test_closed_form(self):
        assert abs_gradient_l1(4.0) == pytest.approx(math.sqrt(2.0 / math.pi) / 2.0, rel=1e-15)


class TestValidation:
    def test_nonpositive_variance_rejected(self):
        with pytest.raises(ValueError):
            abs_gradient_l1(0.0)
