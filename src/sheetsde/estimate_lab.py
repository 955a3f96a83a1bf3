"""Numerical verification of the rectangle-selection expansion.

Provides the two independent routes to the same expectation: the direct
evaluation of E[prod b'(sheet at the scheme points)] over the span cells,
and the expanded form with undifferentiated drift factors and Hermite
weights; plus the Davie-type product bound and the integrated Gamma-function
corollary checks.

Both routes integrate over independent cell variables.  On the expansion
side the substitution cells of crossing rows are handled by sampling the
substituted coordinates: the raw variable of the substitution cell is the
kernel argument z[tau] - z[gamma], so drift arguments add the gamma
variable back wherever a substitution cell appears.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .brownian_sheet import derive_seed, keyed_generator
from .ibp_engine import (
    IbpTerm,
    PermutationSpec,
    expand,
    span,
    spec_variances,
    staircase,
)
from .integrators import (
    DEFAULT_C1,
    MAX_GH_DIMS,
    GammaBound,
    McEstimate,
    TimeWindow,
    concurrently,
    corollary_rhs,
    gauss_hermite,
    monte_carlo,
)
from .kernels import DEFAULT_C0


# ---------------------------------------------------------------------------
# scalar drift factors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DriftScalarFactor:
    """Scalar bounded drift b with derivative and sup norm, vectorized."""

    name: str
    b: callable
    b_prime: callable
    sup_norm: float


def bump_factor(scale: float = 1.0, width: float = 1.0, center: float = 0.0) -> DriftScalarFactor:
    """Smooth compactly supported bump scale * exp(1 / (((x-c)/w)^2 - 1)).

    Supported on (c - w, c + w) with maximum scale / e at the center.  The
    derivative underflows to zero before the rational prefactor can
    overflow, so plain masked evaluation is stable.
    """
    if width <= 0.0:
        raise ValueError("width must be positive")

    def b(x):
        x = np.asarray(x, dtype=float)
        u = (x - center) / width
        inside = np.abs(u) < 1.0
        with np.errstate(divide="ignore", over="ignore", under="ignore"):
            t = np.where(inside, u * u - 1.0, -1.0)
            return np.where(inside, scale * np.exp(1.0 / t), 0.0)

    def b_prime(x):
        x = np.asarray(x, dtype=float)
        u = (x - center) / width
        inside = np.abs(u) < 1.0
        with np.errstate(divide="ignore", over="ignore", under="ignore"):
            t = np.where(inside, u * u - 1.0, -1.0)
            val = np.where(inside, scale * np.exp(1.0 / t), 0.0)
            pref = np.where(inside, -2.0 * u / (width * t * t), 0.0)
        return pref * val

    return DriftScalarFactor("bump", b, b_prime, scale / math.e)


# ---------------------------------------------------------------------------
# integrand assembly
# ---------------------------------------------------------------------------


def _direct_integrand(coeffs: np.ndarray, factor: DriftScalarFactor):
    """prod_i b'(sheet value at point i); coeffs is the staircase matrix of the span."""

    def f(x: np.ndarray) -> np.ndarray:
        w = x @ coeffs.T  # (m, n) sheet values at the scheme points
        return np.prod(factor.b_prime(w), axis=-1)

    return f


def _term_integrand(term: IbpTerm, factor: DriftScalarFactor, variances: np.ndarray,
                    reduce_variance: bool = False):
    """Integrand of one expansion term in the raw (substituted) variables.

    With reduce_variance the exactly-mean-zero control b(0)^n * prod(weights)
    is subtracted (the gradient cells are distinct independent coordinates,
    so the weight product integrates to zero against any constant) and the
    evaluation is antithetic in x; both transformations are unbiased.  The
    mirrored half reuses the draw: at -x the drift arguments are exactly
    -args and the weight product is exactly (-1)^|grad| times the weights,
    so the result equals 0.5 * (raw(x) + raw(-x)) bit for bit.
    """
    substitution = np.flatnonzero(term.shift >= 0)
    coeffs = term.args.copy()
    coeffs[:, term.shift[substitution]] += term.args[:, substitution]

    b_idx = term.grad
    b_var = variances[b_idx]

    def raw(x: np.ndarray) -> np.ndarray:
        return np.prod(factor.b(x @ coeffs.T), axis=-1) * np.prod(-x[:, b_idx] / b_var, axis=-1)

    if not reduce_variance:
        return raw

    b0n = float(factor.b(np.zeros(1))[0]) ** len(b_idx)
    odd = len(b_idx) % 2 == 1

    def f(x: np.ndarray) -> np.ndarray:
        args = x @ coeffs.T
        weights = np.prod(-x[:, b_idx] / b_var, axis=-1)
        vals = (np.prod(factor.b(args), axis=-1) - b0n) * weights
        if odd:
            np.negative(weights, out=weights)
        mirrored = (np.prod(factor.b(np.negative(args, out=args)), axis=-1) - b0n) * weights
        return 0.5 * (vals + mirrored)

    return f


def _gaussian_sampler(variances: np.ndarray):
    std = np.sqrt(variances)

    def sampler(rng: np.random.Generator, size: int) -> np.ndarray:
        z = rng.standard_normal((size, std.shape[0]))
        z *= std
        return z

    return sampler


# ---------------------------------------------------------------------------
# the two expectation routes
# ---------------------------------------------------------------------------

METHODS = ("mc", "quadrature")


def check_method(spec: PermutationSpec, method: str) -> None:
    """Raise ValueError for an unknown method or a span too wide for quadrature."""
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}")
    if method == "quadrature" and (m := len(span(spec))) > MAX_GH_DIMS:
        raise ValueError(f"quadrature supports spans of at most {MAX_GH_DIMS} cells, "
                         f"but sigma={spec.sigma} spans {m}")


def direct_expectation(spec: PermutationSpec, factor: DriftScalarFactor,
                       method: str = "mc", budget: int = 100_000, seed: int = 0) -> McEstimate:
    """E[prod_i b'(W at (s_i, t_sigma(i)))] over independent span increments."""
    check_method(spec, method)
    cells = span(spec)
    variances = spec_variances(spec, cells)
    f = _direct_integrand(staircase(spec, cells), factor)
    if method == "quadrature":
        val = gauss_hermite(f, dims=len(cells), nodes_per_dim=budget, variances=variances)
        return McEstimate(val, 0.0, budget ** len(cells), None)
    return monte_carlo(f, _gaussian_sampler(variances), budget, seed)


def ibp_expectation(spec: PermutationSpec, factor: DriftScalarFactor,
                    budget: int = 100_000, seed: int = 0, method: str = "mc",
                    reduce_variance: bool = True) -> McEstimate:
    """Signed sum of the expansion terms; independent seed stream per term.

    Standard errors of the terms combine by root sum of squares.  Monte
    Carlo terms use the unbiased control-variate and antithetic reduction
    by default and run at once, one thread per term (each owns its stream,
    so the sum is the serial one bit for bit); quadrature ignores the flag
    and runs serially.
    """
    check_method(spec, method)
    variances = spec_variances(spec, span(spec))
    terms = expand(spec)
    if method == "quadrature":
        ests = []
        for term in terms:
            f = _term_integrand(term, factor, variances)
            val = gauss_hermite(f, dims=len(variances), nodes_per_dim=budget,
                                variances=variances)
            ests.append(McEstimate(val, 0.0, budget ** len(variances), None))
    else:
        sampler = _gaussian_sampler(variances)
        ests = concurrently(*(
            partial(monte_carlo, _term_integrand(term, factor, variances, reduce_variance),
                    sampler, budget, derive_seed(seed, 0x5EED + idx))
            for idx, term in enumerate(terms)
        ))
    total = 0.0
    var_sum = 0.0
    n_used = 0
    for term, est in zip(terms, ests):
        total += term.sign * est.mean
        var_sum += est.std_error ** 2
        n_used += est.n_samples
    return McEstimate(total, math.sqrt(var_sum), n_used, seed if method == "mc" else None)


def davie_bound(spec: PermutationSpec, sup_norm: float, c0: float = DEFAULT_C0) -> float:
    """Product bound (c0 ||b||)^n / prod sqrt(gap_s gap_t), gaps from the origin."""
    if sup_norm < 0.0:
        raise ValueError("sup_norm must be nonnegative")
    s = (0.0,) + spec.s_times
    t = (0.0,) + spec.t_times
    log_val = spec.n * math.log(c0)
    if sup_norm == 0.0:
        return 0.0
    log_val += spec.n * math.log(sup_norm)
    for i in range(1, spec.n + 1):
        log_val -= 0.5 * (math.log(s[i] - s[i - 1]) + math.log(t[i] - t[i - 1]))
    return math.exp(log_val)


@dataclass(frozen=True)
class IdentityReport:
    """Direct vs expanded estimate and the product bound for one scheme."""

    spec_sigma: tuple[int, ...]
    direct: McEstimate
    ibp: McEstimate
    bound: float
    identity_gap: float
    identity_tol: float
    identity_ok: bool
    bound_ok: bool

    @property
    def passed(self) -> bool:
        return self.identity_ok and self.bound_ok


def verify_identity(spec: PermutationSpec, factor: DriftScalarFactor,
                    method: str = "mc", budget: int = 200_000, seed: int = 0,
                    quad_rel_tol: float = 1e-6, se_width: float = 4.0) -> IdentityReport:
    passes = (
        lambda: direct_expectation(spec, factor, method, budget, seed),
        lambda: ibp_expectation(spec, factor, budget, seed=derive_seed(seed, 0xA17), method=method),
    )
    # the Monte Carlo routes own independent streams, so they run at once
    direct, ibp = concurrently(*passes) if method == "mc" else [call() for call in passes]
    bound = davie_bound(spec, factor.sup_norm)
    gap = abs(direct.mean - ibp.mean)
    if method == "quadrature":
        scale = max(abs(direct.mean), abs(ibp.mean), 1e-300)
        tol = quad_rel_tol * scale
    else:
        tol = se_width * math.hypot(direct.std_error, ibp.std_error)
    identity_ok = gap <= tol
    bound_ok = abs(ibp.mean) + se_width * ibp.std_error <= bound
    return IdentityReport(spec.sigma, direct, ibp, bound, gap, tol, identity_ok, bound_ok)


# ---------------------------------------------------------------------------
# integrated corollary checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CorollaryReport:
    n: int
    lhs: McEstimate
    rhs: GammaBound
    ratio: float
    passed: bool


def corollary_check(n: int, window: TimeWindow, factor: DriftScalarFactor,
                    budget: int = 200, seed: int = 0, c1: float = DEFAULT_C1,
                    inner_nodes: int = 16) -> CorollaryReport:
    """Window integral of |E[prod b']| over chain configurations vs the bound.

    Outer Monte Carlo over the time simplex (both coordinates sorted,
    identity pairing); inner deterministic quadrature of the expectation.
    Only n <= 2 is supported: the identity pairing spans n^2 cells and the
    inner quadrature is tensorized.
    """
    if n < 1 or n > 2:
        raise ValueError("corollary_check supports n in {1, 2}")
    for bound_name in ("r", "s", "u", "t"):
        if getattr(window, bound_name) is None:
            raise ValueError(f"window bound {bound_name} required")
    if not (window.r < window.s and window.u < window.t):
        raise ValueError("window must satisfy r < s and u < t")

    rng = keyed_generator(seed)
    sigma = tuple(range(1, n + 1))
    vals = np.empty(budget)
    for it in range(budget):
        s_times = np.sort(rng.uniform(window.r, window.s, size=n))
        t_times = np.sort(rng.uniform(window.u, window.t, size=n))
        spec = PermutationSpec(n, sigma, tuple(s_times), tuple(t_times))
        est = direct_expectation(spec, factor, "quadrature", inner_nodes)
        vals[it] = abs(est.mean)

    volume = ((window.s - window.r) * (window.t - window.u) / math.factorial(n) ** 2) ** n
    mean = float(vals.mean()) * volume
    se = float(vals.std(ddof=1)) / math.sqrt(budget) * volume
    lhs = McEstimate(mean, se, budget, seed)
    rhs = corollary_rhs("mD", n, 0, factor.sup_norm, window, c1)
    ratio = lhs.mean / rhs.value if rhs.value > 0 else math.inf
    return CorollaryReport(n, lhs, rhs, ratio, lhs.mean <= rhs.value)


def corollary_scaling_slope(n: int, factor: DriftScalarFactor, budget: int = 300,
                            seed: int = 0, base_side: float = 0.25,
                            n_windows: int = 3, inner_nodes: int = 16) -> float:
    """Measured area-exponent of the window integral under side-halving.

    For smooth drift with b'(0) != 0 the integrand tends to a constant on
    shrinking windows anchored at the origin, so the integral scales like
    area^n.  Log-log regression over halving windows; the same seed is
    reused across windows so the outer configurations are common random
    numbers and the sampling noise largely cancels in the slope.
    """
    if n_windows < 2:
        raise ValueError("need at least two windows for a slope")
    log_area = []
    log_lhs = []
    for level in range(n_windows):
        side = base_side / 2.0 ** level
        window = TimeWindow(r=0.0, s=side, u=0.0, t=side)
        rep = corollary_check(n, window, factor, budget, seed, inner_nodes=inner_nodes)
        log_area.append(2.0 * math.log(side))
        log_lhs.append(math.log(rep.lhs.mean))
    return float(np.polyfit(log_area, log_lhs, 1)[0])
