"""Block-increasing families and order-region partitions.

tests/data/shuffle_pins.json pins, bit for bit, region samples, product
samples and located labels for every region kind at fixed seeds, plus one
product-identity estimate.  Regenerate it with

    PYTHONPATH=src python tests/test_shuffle_combinatorics.py

only when a change to the draws or the labels is intended.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from sheetsde.shuffle_combinatorics import (
    NABLA_KINDS,
    SPLIT_KINDS,
    DegenerateTiesError,
    NotInProductError,
    RegionDescriptor,
    cell_membership_batch,
    enumerate_block_increasing,
    enumerate_split_family,
    locate_cell_batch,
    locate_cell_split_batch,
    membership_batch,
    partition_report,
    product_identity_check,
    sample_product_batch,
    sample_region_batch,
    xi_token,
    zeta_token,
)

PINS = Path(__file__).parent / "data" / "shuffle_pins.json"

# the bounds differ on every axis, so a swapped axis or bound moves the pins
BOUNDS = {"s_low": 0.1, "s_mid": 0.45, "s_high": 1.0, "t_low": 0.2, "t_mid": 0.7, "t_high": 1.3}

# mid bounds at 0.5 that each kind needs
MIDS = {
    "nabla": {},
    "nabla_tilde": {},
    "lambda": {"s_mid": 0.5},
    "delta": {"s_mid": 0.5, "t_mid": 0.5},
    "lambda_tilde": {"t_mid": 0.5},
    "delta_tilde": {"t_mid": 0.5, "s_mid": 0.5},
}


def _region(kind: str, k: int = 2, n: int = 1, **bounds) -> RegionDescriptor:
    return RegionDescriptor(kind, k, 0 if kind in NABLA_KINDS else n, **bounds)


def _rows(points) -> tuple[np.ndarray, np.ndarray]:
    """One batch row (s, t) from a list of (s, t) points in slot order."""
    return np.array([[p[0] for p in points]]), np.array([[p[1] for p in points]])


def _locate(region: RegionDescriptor, m: int, s: np.ndarray, t: np.ndarray):
    if region.kind in NABLA_KINDS:
        return locate_cell_batch(region, m, s, t)
    return locate_cell_split_batch(region, m, s, t)


def shuffle_pins() -> dict:
    """Draws and labels of every kind at fixed seeds, as JSON-ready lists."""
    pins = {}
    for kind in NABLA_KINDS + SPLIT_KINDS:
        region = _region(kind, **BOUNDS)
        s, t = sample_region_batch(region, 5, seed=17)
        ps, pt = sample_product_batch(region, 2, 4, seed=23)
        pins[kind] = {
            "s": s.tolist(),
            "t": t.tolist(),
            "product_s": ps.tolist(),
            "product_t": pt.tolist(),
            "labels": [labels.tolist() for labels in _locate(region, 2, ps, pt)],
        }
    f1 = lambda s, t: 1.0 + 0.5 * np.sin(2 * np.pi * s) * np.cos(np.pi * t)
    f2 = lambda s, t: np.exp(-s * t)
    rep = product_identity_check(2, [f1, f2], budget=20_000, seed=12)
    pins["product_identity"] = [float(rep.lhs), float(rep.lhs_se), float(rep.rhs),
                                float(rep.rhs_se), rep.n_cells]
    return pins


class TestEnumeration:
    @pytest.mark.parametrize(
        "m,k,count",
        [(2, 1, 2), (2, 2, 6), (3, 1, 6), (4, 1, 24), (4, 2, 2520), (4, 3, 369600)],
    )
    def test_counts_match_multinomial(self, m, k, count):
        fam = enumerate_block_increasing(m, k)
        assert len(fam.members) == count
        assert count == math.factorial(m * k) // math.factorial(k) ** m

    def test_members_unique_and_block_increasing(self):
        fam = enumerate_block_increasing(2, 2)
        assert len(set(fam.members)) == 6
        for member in fam.members:
            assert member[0] < member[1] and member[2] < member[3]

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_power_four_majorization(self, k):
        count = math.factorial(4 * k) // math.factorial(k) ** 4
        assert count <= 2 ** (9 * k)

    def test_size_guard(self):
        with pytest.raises(ValueError):
            enumerate_block_increasing(4, 4)

    def test_split_families_sizes(self):
        upper = enumerate_split_family(2, 1, 1, "xi")
        lower = enumerate_split_family(2, 1, 1, "zeta")
        assert len(upper.members) == 2  # permutations of 2 tokens, blocks of size 1
        assert len(lower.members) == 2
        assert set(upper.tokens).isdisjoint(lower.tokens)

    def test_tokens_partition_index_range(self):
        m, k, n = 2, 2, 1
        xi = {xi_token(i, j, k, n) for i in range(m) for j in range(1, k + 1)}
        zeta = {zeta_token(i, j, k, n) for i in range(m) for j in range(1, n + 1)}
        assert xi | zeta == set(range(1, m * (k + n) + 1))
        assert not xi & zeta


class TestMembership:
    def test_single_point_inside(self):
        region = RegionDescriptor("nabla", 1)
        assert membership_batch(region, *_rows([(0.5, 0.5)])).tolist() == [True]

    def test_chain_violation_outside(self):
        region = RegionDescriptor("nabla", 2)
        good = _rows([(0.7, 0.8), (0.4, 0.2)])
        bad = _rows([(0.4, 0.8), (0.7, 0.2)])  # s-chain ascending
        assert membership_batch(region, *good).tolist() == [True]
        assert membership_batch(region, *bad).tolist() == [False]

    def test_arity_checked(self):
        with pytest.raises(ValueError):
            membership_batch(RegionDescriptor("nabla", 2), *_rows([(0.5, 0.5)]))

    def test_split_region_needs_mid_bound(self):
        with pytest.raises(ValueError):
            RegionDescriptor("lambda", 1, 1)

    def test_delta_extra_constraint(self):
        region = RegionDescriptor("delta", 1, 1, s_mid=0.5, t_mid=0.5)
        # slots: (s1, t1) with s1 > s_mid, (s2, t2) with s2 < s_mid; t-chain
        # descending; extra requirement t1 > t_mid
        assert membership_batch(region, *_rows([(0.8, 0.9), (0.2, 0.3)])).tolist() == [True]
        assert membership_batch(region, *_rows([(0.8, 0.4), (0.2, 0.3)])).tolist() == [False]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            RegionDescriptor("gradient", 1)

    def test_samples_satisfy_membership(self):
        for kind, kwargs in MIDS.items():
            region = _region(kind, **kwargs)
            s, t = sample_region_batch(region, 500, seed=3)
            assert membership_batch(region, s, t).all(), kind

    @pytest.mark.parametrize("seed", [0, 7])
    def test_product_blocks_draw_distinct_streams(self, seed):
        # with block i keyed seed + 1000003 * i, block 1 at seed s was block 0
        # at seed s + 1000003
        region = RegionDescriptor("nabla", 2)
        blocks = {
            block.tobytes()
            for key in (seed, seed + 1000003)
            for block in np.split(sample_product_batch(region, 3, 8, key)[0], 3, axis=1)
        }
        assert len(blocks) == 6


class TestLocateCell:
    def test_sort_rank_oracle_two_blocks(self):
        s, t = _rows([(0.3, 0.4), (0.2, 0.1)])
        sigma, gamma = locate_cell_batch(RegionDescriptor("nabla", 1), 2, s, t)
        want_sigma = np.argsort(np.argsort(-s[0])) + 1
        want_gamma = np.argsort(np.argsort(-t[0])) + 1
        assert sigma[0].tolist() == want_sigma.tolist() == [1, 2]
        assert gamma[0].tolist() == want_gamma.tolist() == [1, 2]

    def test_swapped_blocks_swap_labels(self):
        s, t = _rows([(0.2, 0.1), (0.3, 0.4)])
        sigma, gamma = locate_cell_batch(RegionDescriptor("nabla", 1), 2, s, t)
        assert sigma[0].tolist() == [2, 1]
        assert gamma[0].tolist() == [2, 1]

    def test_located_cell_contains_point(self):
        region = RegionDescriptor("nabla", 2)
        s, t = sample_product_batch(region, 2, 50, seed=8)
        sigma, gamma = locate_cell_batch(region, 2, s, t)
        for row in range(50):
            inside = cell_membership_batch(
                region, 2, tuple(sigma[row]), tuple(gamma[row]), s[row : row + 1], t[row : row + 1]
            )
            assert inside[0]

    def test_not_in_product_error(self):
        s, t = _rows([
            (0.4, 0.8), (0.7, 0.2),  # ascending s-chain
            (0.9, 0.9), (0.1, 0.1),
        ])
        with pytest.raises(NotInProductError):
            locate_cell_batch(RegionDescriptor("nabla", 2), 2, s, t)

    def test_degenerate_ties_error(self):
        s, t = _rows([(0.5, 0.2), (0.5, 0.7)])
        with pytest.raises(DegenerateTiesError):
            locate_cell_batch(RegionDescriptor("nabla", 1), 2, s, t)

    def test_split_locate_identity_single_block(self):
        region = RegionDescriptor("lambda", 1, 1, s_mid=0.5)
        pi, rho, sigma = locate_cell_split_batch(region, 1, *_rows([(0.7, 0.8), (0.2, 0.4)]))
        assert pi.tolist() == [[xi_token(0, 1, 1, 1)]]
        assert rho.tolist() == [[zeta_token(0, 1, 1, 1)]]
        assert sigma.tolist() == [[1, 2]]

    @pytest.mark.parametrize("kind", ["nabla", "lambda"])
    def test_locate_width_checked(self, kind):
        region = _region(kind, 1, **MIDS[kind])
        # one block plus one point, with no ties
        s = t = np.linspace(0.9, 0.1, region.arity + 1)[None, :]
        with pytest.raises(ValueError, match="expected"):
            _locate(region, 1, s, t)

    @pytest.mark.parametrize("kind", NABLA_KINDS + SPLIT_KINDS)
    def test_labels_blockwise_monotone(self, kind):
        m, k, n = 3, 2, 1
        region = _region(kind, k, n, **MIDS[kind])
        s, t = sample_product_batch(region, m, 300, seed=6)
        labels = _locate(region, m, s, t)
        if kind in NABLA_KINDS:
            ranks, tokens = labels, ()
        else:
            ranks, tokens = labels[2:], ((labels[0], k), (labels[1], n))
        for label in ranks:  # ranks increase along each block
            blocks = label.reshape(len(label), m, region.arity)
            assert np.all(np.diff(blocks, axis=2) > 0)
        for label, size in tokens:  # tokens decrease along each block
            blocks = label.reshape(len(label), m, size)
            assert np.all(np.diff(blocks, axis=2) < 0)


class TestPinned:
    @pytest.fixture(scope="class")
    def pins(self):
        return json.loads(json.dumps(shuffle_pins())), json.loads(PINS.read_text())

    @pytest.mark.parametrize("key", NABLA_KINDS + SPLIT_KINDS + ("product_identity",))
    def test_match_fixture(self, pins, key):
        got, want = pins
        assert got[key] == want[key]


class TestPartitions:
    @pytest.mark.parametrize("m,k", [(2, 1), (2, 2), (3, 1)])
    def test_nabla_partition_scan(self, m, k):
        report = partition_report(RegionDescriptor("nabla", k), m, n_samples=2000, seed=m * 10 + k)
        assert report.ok, report
        assert report.uncovered == 0
        assert report.multiply_covered == 0
        assert report.locate_mismatches == 0

    def test_split_partition_scan(self):
        region = RegionDescriptor("lambda", 1, 1, s_mid=0.5)
        report = partition_report(region, 2, n_samples=1500, seed=4)
        assert report.ok, report

    # m = 3 split products have 3240 cells or more, too slow for a unit test
    @pytest.mark.parametrize("kind,m,k,n", [
        *(("nabla_tilde", m, k, 0) for m, k in ((2, 1), (2, 2), (3, 1))),
        *((kind, 2, k, n) for kind in SPLIT_KINDS for k, n in ((1, 1), (2, 1), (1, 2))),
    ])
    def test_partition_scan_every_kind(self, kind, m, k, n):
        region = _region(kind, k, n, **MIDS[kind])
        report = partition_report(region, m, n_samples=400, seed=m * 100 + k * 10 + n)
        assert (report.uncovered, report.multiply_covered, report.locate_mismatches) == (0, 0, 0)

    def test_cell_counts(self):
        report = partition_report(RegionDescriptor("nabla", 1), 2, n_samples=100, seed=0)
        assert report.n_cells == 4  # 2 sigma labels x 2 gamma labels


class TestProductIdentity:
    def test_squared_block_integral_equals_cell_sum(self):
        def f(s, t):
            return 1.0 + 0.5 * np.sin(2.0 * np.pi * s) * np.cos(np.pi * t)

        report = product_identity_check(1, [f], budget=150_000, seed=2)
        assert report.n_cells == 4
        assert abs(report.lhs - report.rhs) <= 4.0 * math.hypot(report.lhs_se, report.rhs_se)

    def test_constant_function_volumes(self):
        # f = 1 turns the identity into pure volume bookkeeping
        one = lambda s, t: np.ones_like(s)
        report = product_identity_check(1, [one], budget=40_000, seed=1)
        assert report.lhs == pytest.approx(1.0, abs=1e-12)
        assert abs(report.rhs - 1.0) <= 4.0 * report.rhs_se + 1e-12


if __name__ == "__main__":
    PINS.write_text(json.dumps(shuffle_pins(), indent=1, sort_keys=True) + "\n")
