"""The scalar drift kernels against their formulas, bit for bit, and on any array-like input.

tanh's b and b' and the bump's b and b' work in place and skip multiplies by
1.0; the reference functions below are the plain formulas they replace, so
every value must match to the last bit, edge values included.
"""

import tracemalloc

import numpy as np
import pytest

from sheetsde import sde_plane
from sheetsde.estimate_lab import bump_factor, gaussian_factor


def formula_tanh(amplitude, rate):
    def b(x):
        y = rate * np.asarray(x, dtype=float)
        np.tanh(y, out=y)
        y *= amplitude
        return y

    def b_prime(x):
        with np.errstate(under="ignore"):
            u = np.exp(-2.0 * np.abs(rate * np.asarray(x, dtype=float)))
            return amplitude * rate * (4.0 * u / (1.0 + u) ** 2)

    return b, b_prime


def formula_bump(scale, width, center):
    def parts(x):
        u = (np.asarray(x, dtype=float) - center) / width
        inside = np.abs(u) < 1.0
        t = np.where(inside, u * u - 1.0, -1.0)
        return u, inside, t, np.where(inside, scale * np.exp(1.0 / t), 0.0)

    def b(x):
        with np.errstate(divide="ignore", over="ignore", under="ignore"):
            return parts(x)[3]

    def b_prime(x):
        with np.errstate(divide="ignore", over="ignore", under="ignore"):
            u, inside, t, val = parts(x)
            pref = np.where(inside, -2.0 * u / (width * t * t), 0.0)
        return pref * val

    return b, b_prime


def ulps(values, k=2):
    """values and their k nearest doubles on either side."""
    out = []
    for v in np.asarray(values, dtype=float):
        lo = hi = v
        for _ in range(k):
            lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
            out += [lo, hi]
        out.append(v)
    return np.array(out)


TINY = np.finfo(float).tiny
EDGES = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, TINY / 2, -TINY / 2, TINY,
                  -TINY, 1.0, -1.0, 0.5, -0.5, 355.0, -355.0, 355.5, -400.0, 710.0, 1e300, -1e300,
                  np.finfo(float).max])


def inputs(center=0.0, width=1.0):
    """Edge values, the points |u| = 1 and their neighbours in x, and normals at three scales."""
    rng = np.random.default_rng(39)
    edge_u = ulps([1.0, -1.0, 1.0 - 2.0 ** -20, -(1.0 - 2.0 ** -20)])
    x = np.concatenate([EDGES, ulps(center + width * edge_u, k=1), edge_u,
                        rng.normal(center, width, 4000), rng.normal(0.0, 40.0, 500),
                        rng.normal(0.0, 1e-3, 500)])
    return x[:len(x) // 25 * 25].reshape(-1, 25)  # the edge values lead, normals fill the rows


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


TANH_PARAMS = [(1.0, 1.0), (0.8, 1.3), (-2.0, 0.5), (1.5, -0.7), (-1.0, -1.0), (1.0, 256.0),
               (3.0, 1.0), (1.0, 0.25)]
BUMP_PARAMS = [(1.0, 1.0, 0.0), (1.0, 2.5, 0.25), (-1.3, 0.8, -0.2), (2.0, 1.0, 0.3),
               (-1.0, 1.0, 0.0), (0.0, 1.0, 0.0), (1e-3, 3.0, -1.0)]


@pytest.mark.parametrize("amplitude, rate", TANH_PARAMS)
def test_tanh_kernels_match_their_formulas_bit_for_bit(amplitude, rate):
    factor = sde_plane._tanh_factor(amplitude, rate)
    drift = sde_plane.tanh_drift(amplitude, rate)
    ref_b, ref_b_prime = formula_tanh(amplitude, rate)
    x = inputs()
    kept = x.copy()
    # strided views, as the Euler sweep passes its corner states; rate * x
    # overflows at |x| near the largest double, as it did in the formula
    with np.errstate(over="ignore"):
        for arg in (x, x[:, :-1], x[::2, ::3], x.T):
            assert_same_bits(factor.b(arg), ref_b(arg))
            assert_same_bits(factor.b_prime(arg), ref_b_prime(arg))
        assert_same_bits(drift.eval(x[..., None])[..., 0], ref_b(x))
    assert_same_bits(x, kept)


@pytest.mark.parametrize("scale, width, center", BUMP_PARAMS)
def test_bump_kernels_match_their_formulas_bit_for_bit(scale, width, center):
    factor = bump_factor(scale, width, center)
    ref_b, ref_b_prime = formula_bump(scale, width, center)
    x = inputs(center, width)
    kept = x.copy()
    with np.errstate(over="ignore"):  # (x - center) / width overflows near the largest double
        for arg in (x, x[:, :-1], x[::2, ::3], -x):
            assert_same_bits(factor.b(arg), ref_b(arg))
            assert_same_bits(factor.b_prime(arg), ref_b_prime(arg))
    assert_same_bits(x, kept)


def test_edge_set_reaches_the_support_boundary():
    # the bit-for-bit tests see |u| = 1 exactly, values one ulp inside it,
    # where exp(1 / t) underflows to zero, and tanh arguments beyond 355
    x = inputs()
    assert np.any(x == 1.0) and np.any(x == -1.0) and np.any(x == np.nextafter(1.0, 0.0))
    assert np.any(np.abs(x) > 355.0)
    b = bump_factor(-1.3).b(inputs())
    assert np.any((b == 0.0) & np.signbit(b)) and np.any((b == 0.0) & ~np.signbit(b))


def test_bump_is_plus_zero_outside_and_at_nan():
    for scale in (1.0, -2.0):
        f = bump_factor(scale, 1.0, 0.0)
        x = np.array([np.nan, 1.0, -1.0, 3.0, -np.inf, np.inf])
        for values in (f.b(x), f.b_prime(x)):
            assert np.all(values == 0.0) and not np.any(np.signbit(values))


FACTORS = {
    "tanh": sde_plane._tanh_factor(1.0, 1.0),
    "tanh_scaled": sde_plane._tanh_factor(0.8, 1.3),
    "bump": bump_factor(1.0, 2.5, 0.25),
    "gaussian": gaussian_factor(),
    "sign": sde_plane._SIGN,
}


@pytest.mark.parametrize("name", sorted(FACTORS))
@pytest.mark.parametrize("value", [0.5, [0.2, -1.5, 0.0], np.array(0.5),
                                   np.array([[0.2, -1.5], [3.0, 0.1]], dtype=np.float32)],
                         ids=["python_scalar", "list", "0d_array", "float32"])
def test_kernels_take_any_array_like(name, value):
    # tanh's b once raised TypeError on a scalar: rate * x was a numpy scalar
    factor = FACTORS[name]
    for kernel in (factor.b, factor.b_prime):
        if kernel is None:
            continue
        out = kernel(value)
        assert out.dtype == np.float64 and out.shape == np.shape(value)
        assert_same_bits(out, kernel(np.asarray(value, dtype=float)))
    assert np.asarray(sde_plane.tanh_drift().eval(np.float64(0.5))) == np.tanh(0.5)


def test_tanh_b_holds_one_output_sized_array():
    # amplitude * np.tanh(rate * x) would hold two arrays of x's size at once
    x = np.random.default_rng(1).normal(size=1 << 17)  # 1 MiB
    b = sde_plane._tanh_factor(0.8, 1.3).b
    b(x[:8])
    tracemalloc.start()
    try:
        y = b(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert y.nbytes <= peak < 1.25 * x.nbytes
