"""Monte Carlo plumbing shared by the estimators.

Provides a shardable Monte Carlo driver with deterministic merging, a thread
runner for independent passes, and the closed form of the singular simplex
integral with an independent Dirichlet-sampling oracle for it.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .brownian_sheet import Key, stream

# ---------------------------------------------------------------------------
# estimates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo (or exact) result; an exact value reports std_error 0 and n_samples 0."""

    mean: float
    std_error: float
    n_samples: int


def _merge_estimates(parts: Iterable[McEstimate]) -> McEstimate:
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

# samples per accumulation step of a shard (a chunk), and rows drawn and
# evaluated at once inside a chunk, which keeps each draw and the integrand's
# temporaries in cache.  Both are stream units for a sampler that does not put
# its samples first: the IBP marginal sampler draws (k, size) normals, so their
# bounds decide which normal goes to which sample, and changing either constant
# changes every verify-ibp record.
_MC_CHUNK = 1 << 17
_MC_BLOCK = 1 << 12


def monte_carlo(
    f: Callable[[np.ndarray], np.ndarray],
    sampler: Callable[[np.random.Generator, int], np.ndarray],
    n: int,
    seed: Key,
    shards: int = 1,
) -> McEstimate | list[McEstimate]:
    """Mean of f over n draws from sampler with a stable running accumulation.

    f maps a batch of b draws to (b,) values, or to (b, k) rows for k
    estimands on the same draws; the second form returns k estimates, one
    per column, each reduced as a scalar f's values would be.  The budget is
    split over `shards` shards; shard r draws stream(seed, r), so shard 0 is
    the shards=1 stream.  Shards run on up to _pool_workers(shards) threads
    and merge in shard order, so the result depends only on the key, never
    on the worker count; merging standalone shards reproduces it.  A shard
    accumulates _MC_CHUNK samples at a time and the sampler and f see at most
    _MC_BLOCK rows at a time; callers bound a pass's memory by sharding it.
    """
    if n < 2:
        raise ValueError("need n >= 2 samples")
    if shards < 1 or shards > n:
        raise ValueError("shards must be in [1, n]")

    sizes = [n // shards + (1 if r < n % shards else 0) for r in range(shards)]

    def run_shard(r: int) -> tuple[tuple[int, ...], list[McEstimate]]:
        rng = stream(seed, r)
        cols = None  # () for a scalar f, (k,) for k columns
        count = 0
        mean = m2 = 0.0
        while count < sizes[r]:
            m = min(_MC_CHUNK, sizes[r] - count)
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
    columns = [_merge_estimates(parts) if shards > 1 else parts[0]
               for parts in zip(*(ests for _, ests in results))]
    return columns if cols else columns[0]


def _pool_workers(tasks: int) -> int:
    """Threads for independent tasks (shards or passes): one per task, at most one per usable CPU."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(tasks, cpus))


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
    """Run zero-argument callables on _pool_workers(len(calls)) threads; results in argument order.

    Meant for independent Monte Carlo passes that each own their generator:
    numpy releases the GIL in bulk RNG fills and large ufuncs, so the passes
    overlap, and every result is bit-identical to the serial call whatever
    the thread schedule or pool size.  More threads than CPUs only make the
    passes wait for one another.  All calls run to the end; the exception of
    the first failing call in argument order is then re-raised.
    """
    return _on_threads(lambda call: call(), calls, _pool_workers(len(calls)))


# ---------------------------------------------------------------------------
# singular simplex integral
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
    log_val = (n + 1) * math.lgamma(0.5) - math.lgamma((n + 1) / 2.0)
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
    if n_samples < 2:
        raise ValueError("need n_samples >= 2")  # a standard error needs two draws
    x = stream(seed).dirichlet(np.full(n + 1, 0.5), size=n_samples)
    vals = np.sqrt(x).prod(axis=1)
    mean = float(vals.mean())
    se = float(vals.std(ddof=1)) / math.sqrt(n_samples)
    inv_vol = 1.0 / math.factorial(n)
    z = inv_vol / mean
    z_se = z * se / mean
    scale = (upper - lower) ** ((n - 1) / 2.0)
    return McEstimate(z * scale, z_se * scale, n_samples)

