"""Numerical verification of the rectangle-selection expansion.

Provides the two independent routes to the same expectation: the direct
evaluation of E[prod b'(sheet at the scheme points)] over the span cells,
and the expanded form with undifferentiated drift factors and Hermite
weights; plus the Davie-type product bound and, for b = sign, the exact
direct side.  Each route runs by variance-reduced Monte Carlo, or, for a
Gaussian drift factor, exactly, as a moment of a tilted Gaussian.

Both routes read the independent cell variables x ~ N(0, diag v) only
through a few rows: the direct integrand through the n sheet values
staircase @ x; an expansion term through its n drift arguments (a
substitution cell's raw variable is the kernel argument z[tau] - z[gamma],
so the gamma variable is added back wherever one appears) and its n Hermite
factors -x_g / v_g.  The exact route takes these rows as they are; the Monte
Carlo route samples their joint Gaussian law directly, from min(m, rows)
normals per sample instead of all m cell variables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .brownian_sheet import Key
from .ibp_engine import (
    PermutationSpec,
    TermTable,
    expand,
    span,
    spec_variances,
    staircase,
)
from .integrators import McEstimate, concurrently, monte_carlo
from .sde_plane import DriftScalarFactor, MissingJacobianError


# ---------------------------------------------------------------------------
# scalar drift factors
# ---------------------------------------------------------------------------


def bump_factor(scale: float = 1.0, width: float = 1.0, center: float = 0.0) -> DriftScalarFactor:
    """Smooth compactly supported bump scale * exp(1 / (((x-c)/w)^2 - 1)).

    Supported on (c - w, c + w) with extremum scale / e at the center, +0.0
    outside it and at NaN.  The derivative underflows to zero before the
    rational prefactor can overflow, so masked evaluation is stable.  Both
    kernels work in place on one new array of x's shape and zero the outside
    through the mask t = u^2 - 1 < 0; every inside value comes from the
    formula's own operations, so it is the formula's value bit for bit.
    """
    if width <= 0.0:
        raise ValueError("width must be positive")

    def scaled(x):
        u = np.asarray(x, dtype=float)
        u = np.subtract(u, center, out=np.empty_like(u))
        u /= width
        return u

    def b(x):
        t = scaled(x)
        with np.errstate(divide="ignore", over="ignore", under="ignore"):
            t *= t
            t -= 1.0  # negative exactly inside |u| < 1; NaN is outside
            inside = t < 0.0
            np.divide(1.0, t, out=t)
            # 1 / t <= -1 inside; outside exp reads 0, not +inf or NaN, which
            # the mask could not zero, nor -inf, which exp takes on a slow path
            np.fmin(t, 0.0, out=t)
            np.exp(t, out=t)
            t *= inside
            if scale != 1.0:  # outside stays +0.0 for a negative scale too
                np.multiply(t, scale, out=t, where=inside)
        return t

    def b_prime(x):
        u = scaled(x)
        with np.errstate(divide="ignore", over="ignore", under="ignore", invalid="ignore"):
            t = np.multiply(u, u, out=np.empty_like(u))
            t -= 1.0
            outside = ~(t < 0.0)
            d = width * t
            d *= t
            u *= -2.0
            u /= d  # the prefactor -2u / (w t^2)
            np.divide(1.0, t, out=t)
            np.exp(t, out=t)
            if scale != 1.0:
                t *= scale
            u *= t
            np.putmask(u, outside, 0.0)
        return u

    return DriftScalarFactor("bump", b, b_prime, abs(scale) / math.e)


def gaussian_factor(scale: float = 1.0, center: float = 0.25, width: float = 0.8) -> DriftScalarFactor:
    """scale * exp(-(x - c)^2 / (2 w^2)), b'(x) = (c - x) / w^2 * b(x): the exact route's factor.

    The defaults keep the expansion well conditioned: over every sigma with n <= 6, on uniform
    times on (0, 1] and on geometric_grid(n, n, 1, 1) knots, the terms cancel by at most 1.4e4
    (sum |term| / |sum term|) and the routes agree to a relative 7.6e-13.  Flat factors cancel
    badly: at w = 2.5 and n = 6 the terms cancel by 5.6e6 on uniform times, where the gap
    reaches 2.3e-10 (1.4e-9 on the geometric knots).
    """
    if width <= 0.0:
        raise ValueError("width must be positive")

    def b(x):
        return scale * np.exp(-0.5 * ((np.asarray(x, dtype=float) - center) / width) ** 2)

    def b_prime(x):
        return (center - np.asarray(x, dtype=float)) / width ** 2 * b(x)

    return DriftScalarFactor("gaussian", b, b_prime, abs(scale), (scale, center, width))


# ---------------------------------------------------------------------------
# integrand assembly
# ---------------------------------------------------------------------------


def _direct_integrand(factor: DriftScalarFactor):
    """prod_i b'(y_i) over the (n, b) sheet values y at the scheme points."""
    return lambda y: np.prod(factor.b_prime(y), axis=0)


def _term_integrand(n: int, factor: DriftScalarFactor):
    """Integrand of an expansion term on its (2n, b) marginal: n drift arguments over n Hermite factors.

    The raw integrand prod b(args) * prod(weights), less the exactly-mean-zero control b(0)^n *
    prod(weights) (the Hermite factors -x_g / v_g sit at distinct independent cells g), evaluated
    antithetically in y; both are unbiased.  At -y the drift arguments are exactly -args and the
    weight product is exactly (-1)^n times the weights, so the result equals
    0.5 * (raw(y) + raw(-y)) bit for bit.
    """
    b0n = float(factor.b(np.zeros(1))[0]) ** n

    def f(y: np.ndarray) -> np.ndarray:
        weights = np.prod(y[n:], axis=0)
        vals = (np.prod(factor.b(y[:n]), axis=0) - b0n) * weights
        if n % 2:
            np.negative(weights, out=weights)
        mirrored = (np.prod(factor.b(-y[:n]), axis=0) - b0n) * weights
        return 0.5 * (vals + mirrored)

    return f


def _term_rows(terms: TermTable, variances: np.ndarray) -> np.ndarray:
    """(T, 2n, m) rows of each term in x: drift arguments (the cell shift[c] added back wherever a
    substitution cell c appears) over the Hermite loadings -e_g / v_g of its gradient cells g."""
    T, n = terms.grad.shape
    rows = np.zeros((T, 2 * n, len(variances)))
    rows[:, :n] = terms.args
    t, cells = np.nonzero(terms.shift >= 0)
    rows[t, :n, terms.shift[t, cells]] += terms.args[t, :, cells]
    rows[np.arange(T)[:, None], np.arange(n, 2 * n), terms.grad] = -1.0 / variances[terms.grad]
    return rows


def _marginal_factor(rows: np.ndarray, variances: np.ndarray) -> np.ndarray:
    """(..., r, k) F = R^T of (rows sqrt(v))^T = QR, k = min(m, r): F F^T = rows diag(v) rows^T.

    So y = F eta, eta ~ N(0, I_k), has the law of rows @ x for x ~ N(0, diag v), whatever the
    rank of the rows (Glasserman 2003, section 2.3).
    """
    scaled = np.swapaxes(rows * np.sqrt(variances), -1, -2)
    return np.swapaxes(np.linalg.qr(scaled, mode="r"), -1, -2)


def _marginal_sampler(root: np.ndarray):
    """Draws of y = F eta as (r, size) rows, from k standard normals per sample."""
    return lambda rng, size: root @ rng.standard_normal((root.shape[1], size))


def _tilted_moments(coeffs: np.ndarray, variances: np.ndarray, gaussian: tuple[float, float, float],
                    loadings: np.ndarray, offset: float = 0.0) -> np.ndarray:
    """E[prod_i b(A_i . x) prod_j (offset + l_j . x)] for x ~ N(0, V = diag variances), per entry.

    coeffs (T, k, m) stacks T matrices A and loadings (T, p, m) their affine factors l; returns (T,).
    prod_i b(A_i . x) is scale^k (2 pi w^2)^(k/2) times the likelihood of c 1 = A x + N(0, w^2 I):
    one Cholesky factor of M = A V A^T + w^2 I gives its mean and the posterior
    N(V A^T M^-1 c 1, V - V A^T M^-1 A V), under which the Isserlis recursion over
    bitmasks (Isserlis, Biometrika 1918), carried on (T,) arrays, gives the affine factors' moment.
    """
    scale, center, width = gaussian
    k = coeffs.shape[1]
    av = coeffs * variances
    chol = np.linalg.cholesky(av @ coeffs.transpose(0, 2, 1) + width * width * np.eye(k))
    # one solve for L^-1 c 1 (T, k) and L^-1 A V (T, k, m)
    solved = np.linalg.solve(chol, np.concatenate([np.full((len(av), k, 1), center), av], axis=2))
    u, g = solved[:, :, 0], solved[:, :, 1:]
    mass = (scale * width) ** k * np.exp(-np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
                                         - 0.5 * np.einsum("tk,tk->t", u, u))
    lg = loadings @ g.transpose(0, 2, 1)  # (T, p, k)
    m = offset + np.einsum("tpk,tk->pt", lg, u)
    cov = (loadings * variances) @ loadings.transpose(0, 2, 1) - lg @ lg.transpose(0, 2, 1)
    cov = np.ascontiguousarray(cov.transpose(1, 2, 0))  # (p, p, T)
    moments = np.ones((1 << len(m), len(u)))  # moments[S]: E[prod of the affine factors in bitmask S]
    for masks, low, rest, others, without in _isserlis_levels(len(m)):
        pairs = (cov[low[:, None], others] * moments[without]).sum(axis=1)
        moments[masks] = m[low] * moments[rest] + pairs
    return mass * moments[-1]


@lru_cache(maxsize=None)
def _isserlis_levels(p: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """The nonempty bitmasks over p factors, grouped by size, with their Isserlis expansions.

    The moment of mask S expands along its lowest factor j: m_j E[S - j] plus
    cov(j, l) E[S - j - l] over the other factors l of S.  Per size r: the
    masks, j, S - j, and the (r - 1) factors l and masks S - j - l of each.
    """
    masks = np.arange(1, 1 << p)
    sizes = np.array([mask.bit_count() for mask in masks.tolist()])
    levels = []
    for size in range(1, p + 1):
        level = masks[sizes == size]
        low = np.log2(level & -level).astype(int)
        rest = level ^ (1 << low)
        others = np.nonzero(rest[:, None] >> np.arange(p) & 1)[1].reshape(len(level), size - 1)
        levels.append((level, low, rest, others, rest[:, None] ^ (1 << others)))
    return tuple(levels)


def _exact_terms(terms: TermTable, gaussian: tuple[float, float, float],
                 variances: np.ndarray) -> np.ndarray:
    """(T,) unsigned expansion terms: Hermite weights -x_g / v_g as the affine factors."""
    n = terms.grad.shape[1]
    rows = _term_rows(terms, variances)
    return _tilted_moments(rows[:, :n], variances, gaussian, rows[:, n:])


# ---------------------------------------------------------------------------
# the two expectation routes
# ---------------------------------------------------------------------------

METHODS = ("mc", "exact")
#: relative gate of the exact identity (worst gap under gaussian_factor(), n <= 6: 7.6e-13)
EXACT_REL_TOL = 1e-10


def check_method(method: str, factor: DriftScalarFactor) -> None:
    """ValueError for an unknown method or a non-Gaussian exact factor; MissingJacobianError without b'."""
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}")
    if factor.b_prime is None:
        raise MissingJacobianError(f"the {factor.name} factor has no derivative b'")
    if method == "exact" and factor.gaussian is None:
        raise ValueError(f"the exact route needs a gaussian_factor, got the {factor.name} factor")


def direct_expectation(spec: PermutationSpec, factor: DriftScalarFactor,
                       method: str = "mc", budget: int = 100_000, seed: Key = 0) -> McEstimate:
    """E[prod_i b'(W at (s_i, t_sigma(i)))] over the span increments; exact ignores budget, seed."""
    check_method(method, factor)
    cells = span(spec)
    stair = staircase(spec, cells)
    variances = spec_variances(spec, cells)
    if method == "exact":
        _, c, w = factor.gaussian  # b'(y) = (c - y) / w^2 * b(y)
        value = _tilted_moments(stair[None], variances, factor.gaussian, -stair[None] / w ** 2,
                                c / w ** 2)
        return McEstimate(float(value[0]), 0.0, 0)
    sampler = _marginal_sampler(_marginal_factor(stair, variances))
    return monte_carlo(_direct_integrand(factor), sampler, budget, seed)


def ibp_expectation(spec: PermutationSpec, factor: DriftScalarFactor,
                    budget: int = 100_000, seed: Key = 0, method: str = "mc") -> McEstimate:
    """Signed sum of the expansion terms; term idx draws from key (seed, idx).

    Standard errors of the terms combine by root sum of squares.  Monte
    Carlo terms use the unbiased control-variate and antithetic reduction
    and run on concurrently's pool of min(terms, CPUs) threads (each owns
    its stream, so the sum is the serial one bit for bit).  The exact method
    evaluates the whole term table at once and ignores budget and seed.
    """
    check_method(method, factor)
    variances = spec_variances(spec, span(spec))
    terms = expand(spec)
    if method == "exact":
        values = _exact_terms(terms, factor.gaussian, variances)
        return McEstimate(sum((terms.sign * values).tolist()), 0.0, 0)
    integrand = _term_integrand(spec.n, factor)
    ests = concurrently(*(
        partial(monte_carlo, integrand, _marginal_sampler(root), budget, (seed, idx))
        for idx, root in enumerate(_marginal_factor(_term_rows(terms, variances), variances))
    ))
    total = sum(sign * est.mean for sign, est in zip(terms.sign.tolist(), ests))
    std_error = math.sqrt(sum(est.std_error ** 2 for est in ests))
    return McEstimate(total, std_error, sum(est.n_samples for est in ests))


#: default constant of the per-term kernel bound, 2 * sqrt(2)
DEFAULT_C0 = 2.0 * math.sqrt(2.0)


def abs_gradient_l1(variance: float) -> float:
    """L1 norm of the gradient of the N(0, v) density: sqrt(2/pi) / sqrt(v).

    The gradient -(z / v) times the density integrates in absolute value to
    2 / sqrt(2 pi v).  DEFAULT_C0 / sqrt(v), the per-cell factor of
    davie_bound, dominates it at every variance.
    """
    if not variance > 0.0:
        raise ValueError(f"variance must be positive, got {variance}")
    return math.sqrt(2.0 / math.pi) / math.sqrt(variance)


def davie_bound(spec: PermutationSpec, sup_norm: float) -> float:
    """Product bound (DEFAULT_C0 ||b||)^n / prod sqrt(gap_s gap_t), gaps from the origin."""
    if sup_norm < 0.0:
        raise ValueError("sup_norm must be nonnegative")
    s = (0.0,) + spec.s_times
    t = (0.0,) + spec.t_times
    log_val = spec.n * math.log(DEFAULT_C0)
    if sup_norm == 0.0:
        return 0.0
    log_val += spec.n * math.log(sup_norm)
    for i in range(1, spec.n + 1):
        log_val -= 0.5 * (math.log(s[i] - s[i - 1]) + math.log(t[i] - t[i - 1]))
    return math.exp(log_val)


def sign_direct_expectation(spec: PermutationSpec) -> float:
    """Exact direct side for b = sign: b' = 2 delta_0, so E[prod b'(W_i)] = 2^n N(0; 0, S).

    S = staircase diag(v) staircase^T is the covariance of the n sheet values,
    so the value is 2^n (2 pi)^(-n/2) det(S)^(-1/2) = sqrt((2/pi)^n / det S).
    """
    cells = span(spec)
    stair = staircase(spec, cells)
    _, logdet = np.linalg.slogdet((stair * spec_variances(spec, cells)) @ stair.T)
    return math.exp(0.5 * (spec.n * math.log(2.0 / math.pi) - logdet))


@dataclass(frozen=True)
class IdentityReport:
    """Direct vs expanded estimate and the product bound for one scheme.

    bound_ok is a smoke check; verify-bound's exact sweep checks the bound with power.
    """

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
                    method: str = "mc", budget: int = 200_000, seed: Key = 0,
                    se_width: float = 4.0) -> IdentityReport:
    """Direct vs expanded expectation within se_width combined SEs, or EXACT_REL_TOL relative."""
    passes = (
        lambda: direct_expectation(spec, factor, method, budget, (seed, 0)),
        lambda: ibp_expectation(spec, factor, budget, seed=(seed, 1), method=method),
    )
    # the Monte Carlo routes own the child keys (seed, 0) and (seed, 1), so they run at once;
    # the expanded route pools its own term passes, so at most 1 + CPUs passes are in flight
    direct, ibp = concurrently(*passes) if method == "mc" else [call() for call in passes]
    bound = davie_bound(spec, factor.sup_norm)
    gap = abs(direct.mean - ibp.mean)
    if method == "exact":
        tol = EXACT_REL_TOL * max(abs(direct.mean), abs(ibp.mean))
    else:
        tol = se_width * math.hypot(direct.std_error, ibp.std_error)
    identity_ok = gap <= tol
    bound_ok = abs(ibp.mean) + se_width * ibp.std_error <= bound
    return IdentityReport(direct, ibp, bound, gap, tol, identity_ok, bound_ok)

