"""Monte Carlo plumbing shared by the estimators.

Provides a shardable Monte Carlo driver with deterministic merging, a thread
runner for independent passes, the closed form of the singular simplex
integral, and the Gamma-function bounds that the rectangle-selection
estimates are compared against.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from .brownian_sheet import Key, stream
from .kernels import DEFAULT_C0

# ---------------------------------------------------------------------------
# log Gamma
# ---------------------------------------------------------------------------


def log_gamma(x: float) -> float:
    """Natural log of Gamma(x) for x > 0."""
    if not x > 0.0:
        raise ValueError(f"log_gamma defined for positive arguments, got {x}")
    return math.lgamma(x)


# ---------------------------------------------------------------------------
# estimates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo (or exact) result; an exact value reports std_error 0 and n_samples 0."""

    mean: float
    std_error: float
    n_samples: int

    def interval(self, width: float = 4.0) -> tuple[float, float]:
        return (self.mean - width * self.std_error, self.mean + width * self.std_error)


def merge_estimates(parts: Iterable[McEstimate]) -> McEstimate:
    """Deterministic pairwise-sequential merge of disjoint-sample estimates."""
    n_tot = 0
    mean = 0.0
    m2 = 0.0
    for part in parts:
        pn = part.n_samples
        pm2 = part.std_error ** 2 * pn * max(pn - 1, 1)
        delta = part.mean - mean
        new_n = n_tot + pn
        mean += delta * pn / new_n
        m2 += pm2 + delta * delta * n_tot * pn / new_n
        n_tot = new_n
    if n_tot < 2:
        raise ValueError("need at least two samples in total")
    return McEstimate(mean, math.sqrt(m2 / (n_tot * (n_tot - 1))), n_tot)


# ---------------------------------------------------------------------------
# Monte Carlo driver
# ---------------------------------------------------------------------------

_MC_CHUNK = 1 << 17
# rows drawn and evaluated at once inside a chunk: keeps each draw and the
# integrand's temporaries in cache; the chunk stays the accumulation unit
_MC_BLOCK = 1 << 12


def monte_carlo(
    f: Callable[[np.ndarray], np.ndarray],
    sampler: Callable[[np.random.Generator, int], np.ndarray],
    n: int,
    seed: Key,
    shards: int = 1,
    chunk: Optional[int] = None,
) -> McEstimate | list[McEstimate]:
    """Mean of f over n draws from sampler with a stable running accumulation.

    f maps a batch of b draws to (b,) values, or to (b, k) rows for k
    estimands on the same draws; the second form returns k estimates, one
    per column, each reduced as a scalar f's values would be.  The budget is
    split over `shards` shards; shard r draws stream(seed, r), so shard 0 is
    the shards=1 stream.  Shards run on up to _pool_workers(shards) threads
    and merge in shard order, so the result depends only on the key, never
    on the worker count; merging standalone shards reproduces it.  `chunk`
    caps the batch of each accumulation step; callers with large per-sample
    payloads lower it to bound memory.  Within a chunk the sampler and f see
    at most _MC_BLOCK rows at a time.  Neither changes the draw stream or
    the per-sample values, so the estimate depends only on the chunk.
    """
    if n < 2:
        raise ValueError("need n >= 2 samples")
    if shards < 1 or shards > n:
        raise ValueError("shards must be in [1, n]")
    chunk_size = _MC_CHUNK if chunk is None else int(chunk)
    if chunk_size < 1:
        raise ValueError("chunk must be >= 1")

    sizes = [n // shards + (1 if r < n % shards else 0) for r in range(shards)]

    def run_shard(r: int) -> tuple[tuple[int, ...], list[McEstimate]]:
        rng = stream(seed, r)
        cols = None  # () for a scalar f, (k,) for k columns
        count = 0
        mean = m2 = 0.0
        while count < sizes[r]:
            m = min(chunk_size, sizes[r] - count)
            for start in range(0, m, _MC_BLOCK):
                b = min(_MC_BLOCK, m - start)
                batch = sampler(rng, b)
                block = np.asarray(f(batch), dtype=float)
                if cols is None:
                    cols = block.shape[1:]
                if len(cols) > 1 or block.shape != (b,) + cols:
                    raise ValueError("integrand must return one value or one row per sample")
                if start == 0:
                    vals = np.empty(cols + (m,))
                # one contiguous row per column, reduced as a scalar f's values
                vals[..., start:start + b] = block.T
            bm = vals.mean(axis=-1)
            bm2 = ((vals - bm[..., None]) ** 2).sum(axis=-1)
            delta = bm - mean
            new_count = count + m
            mean = mean + delta * m / new_count
            m2 = m2 + (bm2 + delta * delta * count * m / new_count)
            count = new_count
        se = np.sqrt(m2 / (count * (count - 1))) if count > 1 else np.zeros_like(m2)
        return cols, [McEstimate(float(mu), float(e), count)
                      for mu, e in zip(np.atleast_1d(mean), np.atleast_1d(se))]

    if shards == 1:
        results = [run_shard(0)]
    else:
        results = _on_threads(run_shard, range(shards), _pool_workers(shards))
    cols = results[0][0]
    columns = [merge_estimates(parts) if shards > 1 else parts[0]
               for parts in zip(*(ests for _, ests in results))]
    return columns if cols else columns[0]


def _pool_workers(shards: int) -> int:
    """Threads for a sharded pass: one per shard, at most one per usable CPU."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(shards, cpus))


def _on_threads(fn: Callable, items: Iterable, workers: int) -> list:
    """fn over items on `workers` threads; results in item order.

    Every call runs to the end; the exception of the first failing item in
    order is then re-raised.
    """
    # imported here: concurrent.futures pulls in logging, which commands that
    # run nothing on threads should not pay for at start-up
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, item) for item in items]
    return [future.result() for future in futures]


def concurrently(*calls: Callable[[], object]) -> list:
    """Run zero-argument callables on one thread each; results in argument order.

    Meant for independent Monte Carlo passes that each own their generator:
    numpy releases the GIL in bulk RNG fills and large ufuncs, so the passes
    overlap, and every result is bit-identical to the serial call whatever
    the thread schedule.  All calls run to the end; the exception of the
    first failing call in argument order is then re-raised.
    """
    return _on_threads(lambda call: call(), calls, max(len(calls), 1))


# ---------------------------------------------------------------------------
# singular simplex integral and Gamma-function bounds
# ---------------------------------------------------------------------------


def simplex_singular_integral(n: int, lower: float = 0.0, upper: float = 1.0) -> float:
    """Ordered-simplex integral of the product of inverse-sqrt gap factors.

    For lower < s_n < ... < s_1 < upper the integrand is
    (upper - s_1)^{-1/2} * prod (s_i - s_{i+1})^{-1/2} * (s_n - lower)^{-1/2}
    and the closed form is
    Gamma(1/2)^{n+1} * (upper - lower)^{(n-1)/2} / Gamma((n+1)/2).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not upper > lower:
        raise ValueError("upper must exceed lower")
    log_val = (n + 1) * log_gamma(0.5) - log_gamma((n + 1) / 2.0)
    return math.exp(log_val) * (upper - lower) ** ((n - 1) / 2.0)


def simplex_dirichlet_oracle(n: int, lower: float = 0.0, upper: float = 1.0,
                             n_samples: int = 1_000_000, seed: Key = 0) -> McEstimate:
    """Independent estimate of the singular simplex integral.

    The normalized gaps of an ordered configuration are Dirichlet(1/2, ...)
    distributed with normalizing constant equal to the integral at unit
    length, and E[prod sqrt(x_i)] under that law is (1/n!) divided by the
    constant.  Sampling the Dirichlet law therefore estimates the constant
    without evaluating the singular integrand; the moment has finite
    variance, and the standard error propagates by the delta method.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not upper > lower:
        raise ValueError("upper must exceed lower")
    x = stream(seed).dirichlet(np.full(n + 1, 0.5), size=n_samples)
    vals = np.sqrt(x).prod(axis=1)
    mean = float(vals.mean())
    se = float(vals.std(ddof=1)) / math.sqrt(n_samples)
    inv_vol = 1.0 / math.factorial(n)
    z = inv_vol / mean
    z_se = z * se / mean
    scale = (upper - lower) ** ((n - 1) / 2.0)
    return McEstimate(z * scale, z_se * scale, n_samples)


#: default constant of the integrated corollary bounds: C0 * Gamma(1/2)^2
DEFAULT_C1 = DEFAULT_C0 * math.pi

RHS_KINDS = ("mD", "mD2", "mD3")


@dataclass(frozen=True)
class TimeWindow:
    """Bounds (r_bar, r, s) x (u_bar, u, t); unused entries stay None."""

    r_bar: Optional[float] = None
    r: Optional[float] = None
    s: Optional[float] = None
    u_bar: Optional[float] = None
    u: Optional[float] = None
    t: Optional[float] = None


@dataclass(frozen=True)
class GammaBound:
    n: int
    k: int
    kind: str
    value: float


def _gap(name: str, hi: Optional[float], lo: Optional[float]) -> float:
    if hi is None or lo is None:
        raise ValueError(f"window bound {name} missing for this bound kind")
    gap = hi - lo
    if gap <= 0.0:
        raise ValueError(f"window gap {name} must be positive, got {gap}")
    return gap


def corollary_rhs(
    kind: str,
    n: int,
    k: int,
    norm_b: float,
    window: TimeWindow,
    c1: float = DEFAULT_C1,
) -> GammaBound:
    """Gamma-function upper bound for the integrated expansion estimates.

    n = 0 is admitted for the mD kind as the degenerate empty-product case:
    every n-th power collapses to 1 and the value is 1 / Gamma(1/2)^2.
    """
    if kind not in RHS_KINDS:
        raise ValueError(f"kind must be one of {RHS_KINDS}, got {kind!r}")
    if n < 0 or k < 0:
        raise ValueError("need n >= 0 and k >= 0")
    if norm_b < 0.0 or c1 <= 0.0:
        raise ValueError("norm_b must be >= 0 and c1 > 0")

    if kind == "mD":
        if n == 0:
            return GammaBound(0, 0, kind, math.exp(-2.0 * log_gamma(0.5)))
        ds = _gap("s - r", window.s, window.r)
        dt = _gap("t - u", window.t, window.u)
        log_val = (
            n * (math.log(c1) + _log_or_neg_inf(norm_b))
            + 0.5 * n * math.log(ds)
            + 0.5 * n * math.log(dt)
            - 2.0 * log_gamma((n + 1) / 2.0)
        )
        return GammaBound(n, 0, kind, math.exp(log_val) if norm_b > 0 else 0.0)

    if n < 1:
        raise ValueError(f"kind {kind} needs n >= 1")
    if k < 1:
        raise ValueError(f"kind {kind} needs k >= 1")
    m = k + n
    denom = log_gamma((n + 1) / 2.0) + log_gamma((k + 1) / 2.0) + log_gamma((m + 1) / 2.0)
    if kind == "mD2":
        g1 = _gap("r - r_bar", window.r, window.r_bar)
        g2 = _gap("s - r", window.s, window.r)
        g3 = _gap("t - u_bar", window.t, window.u_bar)
        log_gaps = 0.5 * n * math.log(g1) + 0.5 * k * math.log(g2) + 0.5 * m * math.log(g3)
    else:  # mD3
        g1 = _gap("s - r_bar", window.s, window.r_bar)
        g2 = _gap("u - u_bar", window.u, window.u_bar)
        g3 = _gap("t - u", window.t, window.u)
        log_gaps = 0.5 * m * math.log(g1) + 0.5 * n * math.log(g2) + 0.5 * k * math.log(g3)
    log_val = m * (math.log(c1) + _log_or_neg_inf(norm_b)) + log_gaps - denom
    return GammaBound(n, k, kind, math.exp(log_val) if norm_b > 0 else 0.0)


def _log_or_neg_inf(x: float) -> float:
    return math.log(x) if x > 0.0 else -math.inf
