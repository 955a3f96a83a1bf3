"""Sheet sampling: distributional laws, exact algebra, and serialization."""

import csv
import itertools

import numpy as np
import pytest

from sheetsde.brownian_sheet import (
    SheetSample,
    cameron_martin_shift,
    coarsen,
    cumulative_values,
    export_csv,
    sample,
    stream,
    values,
)
from sheetsde.plane_geometry import GridPartition, geometric_grid, uniform_grid


def replications(grid: GridPartition, dim: int, seed: int, n: int) -> np.ndarray:
    """Increments of n sheets, shape (n, n_s, n_t, dim); sheet r draws from key (seed, r)."""
    return np.stack([sample(grid, dim, (seed, r)).increments for r in range(n)])


def value_at(sheet: SheetSample, i: int, j: int) -> np.ndarray:
    """Summation oracle for the sheet value at grid point (i, j)."""
    if i == 0 or j == 0:
        return np.zeros(sheet.dim)
    return sheet.increments[:i, :j].sum(axis=(0, 1))


def read_csv(grid: GridPartition, dim: int, path: str) -> np.ndarray:
    """Increments read back from an export_csv file."""
    z = np.zeros((grid.n_s, grid.n_t, dim))
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            z[int(row["i"]) - 1, int(row["j"]) - 1, int(row["component"]) - 1] = float(row["z"])
    return z


class TestSampling:
    def test_same_seed_bitwise_identical(self):
        g = geometric_grid(5, 7)
        a = sample(g, dim=2, seed=42)
        b = sample(g, dim=2, seed=42)
        assert np.array_equal(a.increments, b.increments)

    def test_different_seeds_differ(self):
        g = uniform_grid(4, 4)
        assert not np.array_equal(sample(g, seed=1).increments, sample(g, seed=2).increments)

    def test_increment_shape(self):
        g = uniform_grid(3, 5)
        sh = sample(g, dim=2, seed=0)
        assert sh.increments.shape == (3, 5, 2)

    def test_unit_cell_variance_and_mean(self):
        # Var Z_{1,1} = area = 1 on the unit one-cell grid; the sample
        # variance of N gaussians has SD ~ sqrt(2/N).
        g = uniform_grid(1, 1)
        n = 100_000
        z = replications(g, 1, seed=9, n=n)[:, 0, 0, 0]
        assert abs(z.mean()) <= 4.0 / np.sqrt(n)
        assert abs(z.var(ddof=1) - 1.0) <= 4.0 * np.sqrt(2.0 / n)

    def test_cell_variances_scale_with_area(self):
        g = geometric_grid(2, 2, s_max=1.5, t_max=0.8)
        n = 60_000
        z = replications(g, 1, seed=4, n=n)
        for i in range(1, 3):
            for j in range(1, 3):
                area = g.areas()[i - 1, j - 1]
                v = z[:, i - 1, j - 1, 0].var(ddof=1)
                assert abs(v - area) <= 4.0 * area * np.sqrt(2.0 / n)

    def test_disjoint_cells_uncorrelated(self):
        g = uniform_grid(2, 2)
        n = 100_000
        z = replications(g, 1, seed=5, n=n)
        r = np.corrcoef(z[:, 0, 0, 0], z[:, 1, 1, 0])[0, 1]
        assert abs(r) <= 4.0 / np.sqrt(n)

    def test_batch_deterministic(self):
        g = uniform_grid(3, 3)
        z = replications(g, 1, 7, 10)
        assert np.array_equal(z, replications(g, 1, 7, 10))
        # every replication draws its own stream
        assert len({row.tobytes() for row in z}) == 10


class TestValues:
    def test_axes_vanish(self):
        g = uniform_grid(4, 3)
        sh = sample(g, seed=1)
        w = values(sh)
        assert np.all(w[0, :, :] == 0.0)
        assert np.all(w[:, 0, :] == 0.0)

    def test_first_value_is_first_increment(self):
        sh = sample(uniform_grid(3, 3), seed=8)
        assert values(sh)[1, 1, 0] == sh.increments[0, 0, 0]

    def test_values_are_block_sums(self):
        sh = sample(uniform_grid(4, 5), seed=3)
        w = values(sh)
        for i in range(5):
            for j in range(6):
                assert w[i, j, 0] == pytest.approx(sh.increments[:i, :j, 0].sum(), rel=1e-12, abs=1e-15)

    def test_rectangle_increment_four_corner_algebra(self):
        sh = sample(geometric_grid(5, 4), dim=2, seed=11)
        w = values(sh)
        lo, hi = (1, 1), (4, 3)
        four = w[hi[0], hi[1]] - w[lo[0], hi[1]] - w[hi[0], lo[1]] + w[lo[0], lo[1]]
        block = sh.increments[lo[0]:hi[0], lo[1]:hi[1]].sum(axis=(0, 1))
        assert np.allclose(four, block, rtol=1e-12, atol=1e-14)

    def test_cumulative_values_inverse(self):
        z = stream(2).standard_normal((4, 6, 1))
        w = cumulative_values(z)
        back = w[1:, 1:] - w[:-1, 1:] - w[1:, :-1] + w[:-1, :-1]
        assert np.allclose(back, z, rtol=1e-12, atol=1e-14)

    def test_cumulative_values_batch_matches_value_at(self):
        # multiples of 1/8 sum exactly in any order, so value_at is a bit-exact oracle
        grid = geometric_grid(5, 4)
        z = stream(7).integers(-64, 65, size=(3, 5, 4, 2)) / 8.0
        before = z.copy()
        w = cumulative_values(z)
        assert w.shape == (3, 6, 5, 2)
        assert np.array_equal(z, before)
        assert np.all(w[:, 0] == 0.0) and np.all(w[:, :, 0] == 0.0)
        for r in range(3):
            sheet = SheetSample(grid, 2, z[r])
            for i in range(6):
                for j in range(5):
                    assert np.array_equal(w[r, i, j], value_at(sheet, i, j))

    def test_cumulative_values_is_two_prefix_sums(self):
        z = stream(8).standard_normal((3, 5, 4, 2))
        w = cumulative_values(z)
        assert np.array_equal(w[..., 1:, 1:, :], np.cumsum(np.cumsum(z, axis=-3), axis=-2))


class TestCameronMartin:
    def test_zero_eps_identity(self):
        sh = sample(uniform_grid(3, 3), seed=6)
        shifted = cameron_martin_shift(sh, np.ones_like(sh.increments), 0.0)
        assert np.array_equal(shifted.increments, sh.increments)

    def test_zero_density_identity(self):
        sh = sample(uniform_grid(3, 3), seed=6)
        shifted = cameron_martin_shift(sh, np.zeros_like(sh.increments), 0.5)
        assert np.array_equal(shifted.increments, sh.increments)

    def test_shift_matches_summation_oracle(self):
        g = geometric_grid(4, 3, s_max=1.2)
        sh = sample(g, seed=13)
        rng = stream(99)
        hdot = rng.uniform(-1.0, 1.0, size=sh.increments.shape)
        eps = 0.25
        shifted = cameron_martin_shift(sh, hdot, eps)
        areas = np.outer(g.s_gaps(), g.t_gaps())[:, :, None]
        for i in range(1, 5):
            for j in range(1, 4):
                drift = eps * (hdot[:i, :j] * areas[:i, :j]).sum(axis=(0, 1))
                expect = value_at(sh, i, j) + drift
                assert np.allclose(value_at(shifted, i, j), expect, rtol=1e-12, atol=1e-14)

    def test_shape_mismatch_rejected(self):
        sh = sample(uniform_grid(3, 3), seed=0)
        with pytest.raises(ValueError):
            cameron_martin_shift(sh, np.zeros((2, 2, 1)), 1.0)


class TestCoarsen:
    def test_block_sum_consistency(self):
        fine = sample(uniform_grid(8, 8), seed=23)
        coarse = coarsen(fine, 2)
        assert coarse.grid.n_s == 4 and coarse.grid.n_t == 4
        wf, wc = values(fine), values(coarse)
        # surviving knots carry identical sheet values
        assert np.allclose(wc, wf[::2, ::2], rtol=1e-12, atol=1e-15)

    def test_anisotropic_factors(self):
        fine = sample(uniform_grid(6, 4), seed=2)
        coarse = coarsen(fine, 3, 2)
        assert coarse.grid.n_s == 2 and coarse.grid.n_t == 2

    def test_indivisible_factor_rejected(self):
        fine = sample(uniform_grid(6, 6), seed=2)
        with pytest.raises(ValueError):
            coarsen(fine, 4)

    def test_single_sheet_is_the_block_sum(self):
        fine = sample(geometric_grid(12, 8), dim=2, seed=4)
        want = fine.increments.reshape(4, 3, 4, 2, 2).sum(axis=(1, 3))
        assert np.array_equal(coarsen(fine, 3, 2).increments, want)

    def test_batch_matches_each_sheet(self):
        grid = geometric_grid(12, 8)
        z = replications(grid, 2, 6, 6).reshape(2, 3, 12, 8, 2)
        coarse = coarsen(SheetSample(grid, 2, z), 3, 2)
        assert coarse.batch_shape == (2, 3)
        for r in np.ndindex(2, 3):
            one = coarsen(SheetSample(grid, 2, z[r]), 3, 2)
            assert np.array_equal(coarse.increments[r], one.increments), r
        assert coarse.grid == one.grid


class TestSerialization:
    def test_csv_round_trip_bitwise(self, tmp_path):
        g = uniform_grid(4, 3)
        sh = sample(g, dim=2, seed=77)
        path = str(tmp_path / "sheet.csv")
        export_csv(sh, path)
        # 17 significant digits round-trip doubles exactly
        assert np.array_equal(read_csv(g, 2, path), sh.increments)

    def test_csv_rejects_a_batch(self, tmp_path):
        batch = SheetSample(uniform_grid(2, 2), 1, np.zeros((2, 2, 2, 1)))
        with pytest.raises(ValueError, match=r"leading shape \(2,\)"):
            export_csv(batch, str(tmp_path / "z.csv"))

    def test_csv_header(self, tmp_path):
        path = str(tmp_path / "sheet.csv")
        export_csv(sample(uniform_grid(2, 2), seed=0), path)
        with open(path) as fh:
            assert fh.readline().strip() == "i,j,component,z"


class TestStreams:
    def test_reproducible(self):
        assert np.array_equal(stream(5, 1, 2).standard_normal(4), stream(5, 1, 2).standard_normal(4))

    def test_distinct_first_draws(self):
        # every seed 0-3 with every path of length 0-3 over components 0-3, and
        # seed 2**64, which a 64-bit key reduced to seed 0
        keys = [(seed, *path) for seed in range(4) for length in range(4)
                for path in itertools.product(range(4), repeat=length)]
        firsts = {stream(*key).integers(1 << 63) for key in keys}
        assert len(firsts) == len(keys) == 340
        assert stream(1 << 64).integers(1 << 63) not in firsts

    def test_key_tuples_read_flat(self):
        # a child (key, i) of a tuple key is the flat path (seed, *path, i)
        want = stream(7, 1, 2).standard_normal(3)
        for key in [((7, 1), 2), (7, (1, 2)), (((7,), 1), (2,))]:
            assert np.array_equal(stream(key).standard_normal(3), want)
        assert np.array_equal(stream((7, 1), 2).standard_normal(3), want)

    # from seed 2**128 or a path component 2**32 on, SeedSequence's words
    # collide: seed 2**128 would draw stream(0, 1), and stream(5, 2**32)
    # would draw stream(5, 0, 1)
    @pytest.mark.parametrize("key", [-1, 1.0, (3, -2), "3", 1 << 128, (5, 1 << 32)])
    def test_invalid_keys_rejected(self, key):
        with pytest.raises((TypeError, ValueError)):
            stream(key)
