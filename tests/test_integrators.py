"""Monte Carlo driver, thread runner and the singular simplex integral."""

import math
import sys
import threading
import time
from functools import partial

import numpy as np
import pytest
from scipy.integrate import quad

from sheetsde import integrators
from sheetsde.brownian_sheet import stream
from sheetsde.integrators import (
    _MC_BLOCK,
    _MC_CHUNK,
    McEstimate,
    _merge_estimates,
    concurrently,
    monte_carlo,
    simplex_dirichlet_oracle,
    simplex_singular_integral,
)


def normal_sampler(rng, n):
    return rng.standard_normal(n)


def payload_sampler(rng, n):
    return rng.standard_normal((n, 3))


def payload_integrand(z):
    return np.cos(z @ np.array([0.7, -1.3, 0.4]))


def vector_integrand(z):
    return np.stack((payload_integrand(z), z[:, 0] ** 2, np.tanh(z[:, 1])), axis=-1)


def keyed_sampler(seed, shard):
    """Normal draws from stream(seed, shard), ignoring the generator monte_carlo passes."""
    rng = stream(seed, shard)
    return lambda _rng, n: rng.standard_normal(n)


def chunk_reference(f, sampler, n, seed, chunk):
    """monte_carlo's accumulation with each chunk drawn and evaluated in one call."""
    rng = stream(seed, 0)
    count, mean, m2 = 0, 0.0, 0.0
    while count < n:
        m = min(chunk, n - count)
        vals = f(sampler(rng, m))
        bm = float(vals.mean())
        bm2 = float(((vals - bm) ** 2).sum())
        delta = bm - mean
        new_count = count + m
        mean += delta * m / new_count
        m2 += bm2 + delta * delta * count * m / new_count
        count = new_count
    return McEstimate(mean, math.sqrt(m2 / (count * (count - 1))), count)


class TestMonteCarlo:
    def test_constant_integrand(self):
        est = monte_carlo(lambda z: np.full(z.shape[0], 2.5), normal_sampler, 1000, seed=0)
        assert est.mean == 2.5
        assert est.std_error == 0.0

    def test_positive_mass_half(self):
        est = monte_carlo(lambda z: (z > 0).astype(float), normal_sampler, 40_000, seed=3)
        assert abs(est.mean - 0.5) <= 4.0 * est.std_error

    def test_reproducible(self):
        a = monte_carlo(lambda z: z**2, normal_sampler, 5000, seed=11)
        b = monte_carlo(lambda z: z**2, normal_sampler, 5000, seed=11)
        assert a == b

    def test_shard_merge_law(self):
        # each shard rerun standalone on stream(seed, r), then merged,
        # reproduces the sharded run bit for bit
        n, seed, shards = 10_000, 7, 4
        whole = monte_carlo(lambda z: np.tanh(z), normal_sampler, n, seed, shards=shards)
        sizes = [n // shards + (1 if r < n % shards else 0) for r in range(shards)]
        parts = [
            monte_carlo(lambda z: np.tanh(z), keyed_sampler(seed, r), sizes[r], seed)
            for r in range(shards)
        ]
        assert _merge_estimates(parts) == whole

    def test_shard_keys_do_not_collide_across_seeds(self):
        # with keys seed XOR r, seeds 0..3 drew the same four shard streams in
        # another order, so their means agreed up to the merge's round-off;
        # the same holds for the tuple keys (s, 0) .. (s, 3) of one parent
        means = sorted(monte_carlo(np.tanh, normal_sampler, 4000, key, shards=4).mean
                       for key in [*range(4), *((9, r) for r in range(4))])
        assert min(np.diff(means)) > 1e-6

    def test_shard_zero_is_the_unsharded_stream(self):
        whole = monte_carlo(np.cos, normal_sampler, 1000, seed=12)
        shard0 = monte_carlo(np.cos, keyed_sampler(12, 0), 1000, seed=12)
        assert whole == shard0

    def test_result_independent_of_worker_count(self, monkeypatch):
        # more workers than cores and a short switch interval interleave the
        # shards as much as the interpreter allows; the merge order is fixed
        got = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (1, 4):
                monkeypatch.setattr(integrators, "_pool_workers", lambda shards, w=workers: w)
                got.append(monte_carlo(vector_integrand, payload_sampler, 5003, seed=3, shards=7))
        finally:
            sys.setswitchinterval(interval)
        assert got[0] == got[1]

    @pytest.mark.parametrize("shards", [1, 5])
    def test_vector_columns_match_scalar_runs(self, shards, monkeypatch):
        # each column is reduced exactly as a scalar f returning it would be
        monkeypatch.setattr(integrators, "_MC_CHUNK", 1000)
        est = monte_carlo(vector_integrand, payload_sampler, 9001, seed=4, shards=shards)
        assert len(est) == 3
        for col, got in enumerate(est):
            want = monte_carlo(lambda z, c=col: vector_integrand(z)[:, c], payload_sampler,
                               9001, seed=4, shards=shards)
            assert got == want

    def test_integrand_shape_guard(self):
        with pytest.raises(ValueError, match="one row per sample"):
            monte_carlo(lambda z: np.ones((z.shape[0], 2, 2)), payload_sampler, 10, seed=0)
        with pytest.raises(ValueError, match="one row per sample"):
            monte_carlo(lambda z: np.ones(z.shape[0] + 1), normal_sampler, 10, seed=0)

    def test_chunk_regrouping_keeps_stream(self, monkeypatch):
        a = monte_carlo(lambda z: np.cos(z), normal_sampler, 4096, seed=5)
        monkeypatch.setattr(integrators, "_MC_CHUNK", 97)
        b = monte_carlo(lambda z: np.cos(z), normal_sampler, 4096, seed=5)
        assert abs(a.mean - b.mean) <= 1e-12

    def test_integrand_sees_at_most_one_block(self):
        rows = []

        def f(z):
            rows.append(z.shape[0])
            return payload_integrand(z)

        n = _MC_CHUNK + 5
        monte_carlo(f, payload_sampler, n, seed=2)
        assert max(rows) == _MC_BLOCK
        assert sum(rows) == n

    @pytest.mark.parametrize("n, chunk", [(3 * 10_000 + 17, 10_000), (_MC_CHUNK + 5, None)])
    def test_blocks_match_whole_chunk_draws(self, n, chunk, monkeypatch):
        # blocks regroup the draws and the evaluation inside a chunk only,
        # so every bit of the estimate is that of one draw per chunk
        if chunk is not None:
            monkeypatch.setattr(integrators, "_MC_CHUNK", chunk)
        got = monte_carlo(payload_integrand, payload_sampler, n, seed=9)
        want = chunk_reference(payload_integrand, payload_sampler, n, 9, chunk or _MC_CHUNK)
        assert got == want

    def test_se_halves_when_budget_quadruples(self):
        a = monte_carlo(lambda z: np.exp(-z.clip(-20, 20)), normal_sampler, 20_000, seed=2)
        b = monte_carlo(lambda z: np.exp(-z.clip(-20, 20)), normal_sampler, 80_000, seed=2)
        assert 0.8 <= (a.std_error / b.std_error) / 2.0 <= 1.2

    def test_budget_guard(self):
        with pytest.raises(ValueError):
            monte_carlo(lambda z: z, normal_sampler, 1, seed=0)


class TestConcurrently:
    @pytest.fixture(autouse=True)
    def two_threads(self, monkeypatch):
        # the order test needs two threads even on a one-CPU machine
        monkeypatch.setattr(integrators, "_pool_workers", lambda tasks: min(tasks, 2))

    def test_results_in_argument_order(self):
        # the first call cannot finish before the last one has run, so the
        # calls overlap and finish out of argument order
        last_ran = threading.Event()

        def first():
            assert last_ran.wait(timeout=10.0)
            return "first"

        def last():
            last_ran.set()
            return "last"

        assert concurrently(first, lambda: "middle", last) == ["first", "middle", "last"]

    def test_reraises_first_failure_in_argument_order(self):
        ran = []

        def fail(name):
            ran.append(name)
            raise ValueError(name)

        with pytest.raises(ValueError, match="second"):
            concurrently(lambda: ran.append("first"), lambda: fail("second"), lambda: fail("third"))
        assert sorted(ran) == ["first", "second", "third"]

    def test_runs_at_most_pool_size_calls_at_once(self):
        lock = threading.Lock()
        in_flight, peak = [0], [0]
        two_met = threading.Barrier(2)

        def call(i):
            with lock:
                in_flight[0] += 1
                peak[0] = max(peak[0], in_flight[0])
            if i < 2:  # the first two calls can only pass the barrier together
                two_met.wait(timeout=10.0)
            time.sleep(0.01)
            with lock:
                in_flight[0] -= 1
            return i

        assert concurrently(*(partial(call, i) for i in range(5))) == list(range(5))
        assert peak[0] == 2


class TestMergeEstimates:
    def test_matches_pooled_statistics(self):
        rng = np.random.default_rng(17)
        blocks = [rng.normal(size=m) for m in (100, 257, 33)]
        parts = [
            McEstimate(float(b.mean()), float(b.std(ddof=1) / math.sqrt(len(b))), len(b))
            for b in blocks
        ]
        merged = _merge_estimates(parts)
        pooled = np.concatenate(blocks)
        assert merged.mean == pytest.approx(float(pooled.mean()), rel=1e-12)
        want_se = float(pooled.std(ddof=1) / math.sqrt(len(pooled)))
        assert merged.std_error == pytest.approx(want_se, rel=1e-12)
        assert merged.n_samples == len(pooled)


class TestSimplexIntegral:
    def test_closed_forms_unit_interval(self):
        assert simplex_singular_integral(1) == pytest.approx(math.pi, rel=1e-13)
        assert simplex_singular_integral(2) == pytest.approx(2.0 * math.pi, rel=1e-13)
        assert simplex_singular_integral(3) == pytest.approx(math.pi**2, rel=1e-13)

    def test_n1_against_algebraic_weight_quadrature(self):
        # int_0^1 x^{-1/2} (1-x)^{-1/2} dx with quad's algebraic endpoint weights
        val, err = quad(lambda x: 1.0, 0.0, 1.0, weight="alg", wvar=(-0.5, -0.5))
        assert abs(simplex_singular_integral(1) - val) <= 1e-10

    def test_scaling_exponent(self):
        # homogeneity degree (n - 1) / 2 in the interval length
        assert simplex_singular_integral(1, 0.0, 4.0) == pytest.approx(math.pi, rel=1e-13)
        assert simplex_singular_integral(3, 0.0, 4.0) == pytest.approx(4.0 * math.pi**2, rel=1e-13)
        assert simplex_singular_integral(2, 0.5, 2.5) == pytest.approx(
            math.sqrt(2.0) * 2.0 * math.pi, rel=1e-13
        )

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_dirichlet_oracle_agrees(self, n):
        oracle = simplex_dirichlet_oracle(n, n_samples=200_000, seed=n)
        closed = simplex_singular_integral(n)
        assert abs(closed - oracle.mean) <= 4.0 * oracle.std_error

    def test_dirichlet_oracle_scaling(self):
        oracle = simplex_dirichlet_oracle(3, 0.0, 4.0, n_samples=100_000, seed=5)
        assert abs(4.0 * math.pi**2 - oracle.mean) <= 4.0 * oracle.std_error

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            simplex_singular_integral(1, 1.0, 1.0)

    @pytest.mark.parametrize("n_samples", [0, 1])
    def test_dirichlet_oracle_needs_two_samples(self, n_samples):
        # one draw has no standard error: it came out NaN and failed the JSON record
        with pytest.raises(ValueError, match="need n_samples >= 2"):
            simplex_dirichlet_oracle(2, n_samples=n_samples)

