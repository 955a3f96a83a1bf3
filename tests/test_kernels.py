"""Gaussian cell kernels: closed forms against quadrature oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from sheetsde.kernels import (
    DEFAULT_C0,
    KernelCell,
    abs_gradient_l1,
    density,
    gradient_component,
    log_density,
)

variances = st.floats(min_value=1e-3, max_value=1e3)
args = st.floats(min_value=-8.0, max_value=8.0)


def test_peak_density_value():
    assert density(KernelCell(1.0), 0.0) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-15)


def test_density_normalizes():
    cell = KernelCell(0.37)
    total, err = quad(lambda z: float(density(cell, z)), -np.inf, np.inf)
    assert abs(total - 1.0) <= 1e-12


@given(variances, args)
def test_scaling_identity(v, z):
    # density_v(z) = density_1(z / sqrt(v)) / sqrt(v)
    lhs = density(KernelCell(v), z)
    rhs = density(KernelCell(1.0), z / math.sqrt(v)) / math.sqrt(v)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)


@given(variances, args)
def test_log_density_consistent(v, z):
    cell = KernelCell(v)
    assert math.exp(float(log_density(cell, z))) == pytest.approx(float(density(cell, z)), rel=1e-12)


def test_gradient_vanishes_at_origin():
    assert gradient_component(KernelCell(2.5), 0.0, 0) == 0.0


def test_gradient_reference_value():
    want = -math.exp(-0.5) / math.sqrt(2.0 * math.pi)
    assert gradient_component(KernelCell(1.0), 1.0, 0) == pytest.approx(want, rel=1e-14)


def test_gradient_matches_finite_differences():
    cell = KernelCell(0.8, dim=2)
    z = np.array([0.4, -1.1])
    h = 1e-6
    for l in range(2):
        zp, zm = z.copy(), z.copy()
        zp[l] += h
        zm[l] -= h
        fd = (density(cell, zp) - density(cell, zm)) / (2 * h)
        assert float(gradient_component(cell, z, l)) == pytest.approx(float(fd), rel=1e-8)


class TestAbsGradientL1:
    def oracle(self, v: float) -> float:
        """Adaptive quadrature of |d density / dz| over the real line."""
        cell = KernelCell(v)
        sd = math.sqrt(v)

        half, err = quad(
            lambda z: float(abs(gradient_component(cell, z, 0))),
            0.0, 20.0 * sd, epsabs=1e-15, epsrel=1e-13, limit=200,
        )
        return 2.0 * half  # integrand is even

    @pytest.mark.parametrize("v", [1e-4, 1e-2, 1.0, 1e2, 1e4])
    def test_matches_adaptive_quadrature(self, v):
        closed = abs_gradient_l1(KernelCell(v))
        assert abs(closed - self.oracle(v)) <= 1e-10 * max(1.0, closed)

    @pytest.mark.parametrize("v", [1e-3, 0.5, 7.0])
    def test_dominated_by_bound_constant(self, v):
        # sqrt(2/pi) < 2 sqrt(2), so the per-cell L1 mass sits under the
        # bound constant at every variance.
        assert abs_gradient_l1(KernelCell(v)) <= DEFAULT_C0 / math.sqrt(v)

    def test_independent_of_dimension(self):
        assert abs_gradient_l1(KernelCell(0.3, dim=1)) == abs_gradient_l1(KernelCell(0.3, dim=3), l=2)

    def test_closed_form(self):
        assert abs_gradient_l1(KernelCell(4.0)) == pytest.approx(math.sqrt(2.0 / math.pi) / 2.0, rel=1e-15)


class TestValidation:
    def test_nonpositive_variance_rejected(self):
        with pytest.raises(ValueError):
            KernelCell(0.0)

    def test_component_out_of_range(self):
        with pytest.raises(ValueError):
            gradient_component(KernelCell(1.0), 0.0, 1)

    def test_scalar_argument_needs_dim_one(self):
        with pytest.raises(ValueError):
            density(KernelCell(1.0, dim=2), 0.0)

    def test_vector_length_checked(self):
        with pytest.raises(ValueError):
            density(KernelCell(1.0, dim=2), np.zeros(3))
