"""Monte Carlo and Gamma-function backends."""

import math
import sys
import threading

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaln

from sheetsde import integrators
from sheetsde.brownian_sheet import stream
from sheetsde.integrators import (
    _MC_BLOCK,
    _MC_CHUNK,
    DEFAULT_C1,
    McEstimate,
    TimeWindow,
    concurrently,
    corollary_rhs,
    log_gamma,
    merge_estimates,
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


class TestLogGamma:
    def test_against_scipy_on_working_range(self):
        xs = np.linspace(0.5, 50.0, 997)
        ours = np.array([log_gamma(x) for x in xs])
        ref = gammaln(xs)
        assert np.max(np.abs(ours - ref) / np.maximum(np.abs(ref), 1.0)) <= 1e-13

    def test_gamma_half(self):
        assert math.exp(log_gamma(0.5)) == pytest.approx(math.sqrt(math.pi), rel=1e-14)

    def test_gamma_factorial(self):
        assert math.exp(log_gamma(6.0)) == pytest.approx(120.0, rel=1e-13)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            log_gamma(0.0)


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
        assert merge_estimates(parts) == whole

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
    def test_vector_columns_match_scalar_runs(self, shards):
        # each column is reduced exactly as a scalar f returning it would be
        est = monte_carlo(vector_integrand, payload_sampler, 9001, seed=4, shards=shards, chunk=1000)
        assert len(est) == 3
        for col, got in enumerate(est):
            want = monte_carlo(lambda z, c=col: vector_integrand(z)[:, c], payload_sampler,
                               9001, seed=4, shards=shards, chunk=1000)
            assert got == want

    def test_integrand_shape_guard(self):
        with pytest.raises(ValueError, match="one row per sample"):
            monte_carlo(lambda z: np.ones((z.shape[0], 2, 2)), payload_sampler, 10, seed=0)
        with pytest.raises(ValueError, match="one row per sample"):
            monte_carlo(lambda z: np.ones(z.shape[0] + 1), normal_sampler, 10, seed=0)

    def test_chunk_regrouping_keeps_stream(self):
        a = monte_carlo(lambda z: np.cos(z), normal_sampler, 4096, seed=5)
        b = monte_carlo(lambda z: np.cos(z), normal_sampler, 4096, seed=5, chunk=97)
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
    def test_blocks_match_whole_chunk_draws(self, n, chunk):
        # blocks regroup the draws and the evaluation inside a chunk only,
        # so every bit of the estimate is that of one draw per chunk
        got = monte_carlo(payload_integrand, payload_sampler, n, seed=9, chunk=chunk)
        want = chunk_reference(payload_integrand, payload_sampler, n, 9, chunk or _MC_CHUNK)
        assert got == want

    def test_se_halves_when_budget_quadruples(self):
        a = monte_carlo(lambda z: np.exp(-z.clip(-20, 20)), normal_sampler, 20_000, seed=2)
        b = monte_carlo(lambda z: np.exp(-z.clip(-20, 20)), normal_sampler, 80_000, seed=2)
        assert 0.8 <= (a.std_error / b.std_error) / 2.0 <= 1.2

    def test_interval(self):
        est = McEstimate(1.0, 0.1, 100)
        assert est.interval(2.0) == (0.8, 1.2)

    def test_budget_guard(self):
        with pytest.raises(ValueError):
            monte_carlo(lambda z: z, normal_sampler, 1, seed=0)


class TestConcurrently:
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


class TestMergeEstimates:
    def test_matches_pooled_statistics(self):
        rng = np.random.default_rng(17)
        blocks = [rng.normal(size=m) for m in (100, 257, 33)]
        parts = [
            McEstimate(float(b.mean()), float(b.std(ddof=1) / math.sqrt(len(b))), len(b))
            for b in blocks
        ]
        merged = merge_estimates(parts)
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


class TestCorollaryRhs:
    def test_unit_mD_value(self):
        w = TimeWindow(r=0.0, s=1.0, u=0.0, t=1.0)
        got = corollary_rhs("mD", 2, 0, 1.0, w, c1=1.0)
        assert got.value == pytest.approx(4.0 / math.pi, rel=1e-13)

    def test_degenerate_order_zero(self):
        w = TimeWindow(r=0.0, s=1.0, u=0.0, t=1.0)
        assert corollary_rhs("mD", 0, 0, 1.0, w, c1=1.0).value == pytest.approx(
            1.0 / math.pi, rel=1e-13
        )

    def test_monotone_decreasing_in_n(self):
        w = TimeWindow(r=0.0, s=1.0, u=0.0, t=1.0)
        vals = [corollary_rhs("mD", n, 0, 1.0, w, c1=1.0).value for n in range(2, 9)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_split_kinds_evaluate(self):
        w = TimeWindow(r_bar=0.0, r=0.5, s=1.0, u_bar=0.0, u=0.5, t=1.0)
        for kind in ("mD2", "mD3"):
            got = corollary_rhs(kind, 2, 1, 0.7, w, c1=DEFAULT_C1)
            assert got.value > 0.0
            assert got.kind == kind

    def test_missing_window_bound_rejected(self):
        with pytest.raises(ValueError):
            corollary_rhs("mD", 2, 0, 1.0, TimeWindow(r=0.0, s=1.0))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            corollary_rhs("mD4", 1, 1, 1.0, TimeWindow(r=0.0, s=1.0, u=0.0, t=1.0))

    def test_zero_drift_gives_zero(self):
        w = TimeWindow(r=0.0, s=1.0, u=0.0, t=1.0)
        assert corollary_rhs("mD", 2, 0, 0.0, w).value == 0.0
