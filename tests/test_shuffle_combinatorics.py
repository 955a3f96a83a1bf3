"""Block-increasing families and order-region partitions.

tests/data/shuffle_pins.json pins, bit for bit, region samples, product
samples and located labels for every region kind at fixed seeds.  It holds
the split kinds' labels in the paper's form, as xi and zeta token
assignments, which `_pin_labels` derives from the ranks.  Regenerate it with

    PYTHONPATH=src python tests/test_shuffle_combinatorics.py

only when a change to the draws or the labels is intended.
"""

import json
import math
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest

from conftest import NoArrays
from sheetsde import shuffle_combinatorics
from sheetsde.shuffle_combinatorics import (
    NABLA_KINDS,
    SPLIT_KINDS,
    DegenerateTiesError,
    NotInProductError,
    RegionDescriptor,
    enumerate_block_increasing,
    locate_cell_batch,
    membership_batch,
    partition_report,
    sample_product_batch,
    sample_region_batch,
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


def _token(rank: np.ndarray, m: int, k: int, n: int, upper: bool) -> np.ndarray:
    """The paper's xi (upper) or zeta (lower) token that a group rank stands for.

    Block i carries the tokens xi(i, j) = j + i(k+n), j = 1..k, and
    zeta(i, j) = k + j + i(k+n), j = 1..n.  Ascending coordinates receive
    ascending tokens, so rank r (the r-th largest coordinate) receives the
    r-th largest of the group's m * size tokens, the q-th smallest with
    q = m * size - r counted from 0.
    """
    size, offset = (k, 0) if upper else (n, k)
    q = m * size - rank
    return offset + q % size + 1 + (q // size) * (k + n)


def _pin_labels(region: RegionDescriptor, m: int, labels: tuple) -> list:
    """Nabla ranks as located; split kinds as (xi tokens, zeta tokens, total ranks)."""
    if region.split_axis is None:
        return [label.tolist() for label in labels]
    if region.split_axis == 0:
        upper, lower, total = labels
    else:
        total, upper, lower = labels
    k, n = region.k, region.n
    return [_token(upper, m, k, n, True).tolist(), _token(lower, m, k, n, False).tolist(),
            total.tolist()]


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
            "labels": _pin_labels(region, 2, locate_cell_batch(region, 2, ps, pt)),
        }
    return pins


class TestEnumeration:
    @pytest.mark.parametrize(
        "m,k,count",
        [(2, 1, 2), (2, 2, 6), (3, 1, 6), (4, 1, 24), (4, 2, 2520), (4, 3, 369600)],
    )
    def test_counts_match_multinomial(self, m, k, count):
        assert enumerate_block_increasing(m, k).shape == (count, m * k)
        assert count == math.factorial(m * k) // math.factorial(k) ** m

    def test_members_unique_and_block_increasing(self):
        members = enumerate_block_increasing(2, 2).tolist()
        assert len(set(map(tuple, members))) == 6
        for member in members:
            assert member[0] < member[1] and member[2] < member[3]

    @pytest.mark.parametrize("m,k", [(1, 3), (2, 1), (2, 3), (3, 1), (3, 2), (4, 1), (2, 4)])
    def test_rows_are_the_block_increasing_permutations_in_order(self, m, k):
        # permutations() yields in lexicographic order; keep those increasing along every block
        want = [list(p) for p in permutations(range(1, m * k + 1))
                if all(p[i] < p[i + 1] for i in range(m * k - 1) if (i + 1) % k)]
        assert enumerate_block_increasing(m, k).tolist() == want

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_power_four_majorization(self, k):
        count = math.factorial(4 * k) // math.factorial(k) ** 4
        assert count <= 2 ** (9 * k)

    def test_size_guard(self):
        with pytest.raises(ValueError):
            enumerate_block_increasing(4, 4)

    @pytest.mark.parametrize("m,k,match", [
        (12, 1, "label tuples, got 479001600"),  # 12 positions, 12! members
        (1, 256, "255 positions, got 256"),  # one member, labels past one byte
    ], ids=["12-1", "1-256"])
    def test_guard_counts_labels_before_building(self, monkeypatch, m, k, match):
        monkeypatch.setattr(shuffle_combinatorics, "np", NoArrays())
        with pytest.raises(ValueError, match=match):
            enumerate_block_increasing(m, k)


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

    @pytest.mark.parametrize("kind,bounds,match", [
        ("delta", {"s_mid": 0.5, "t_mid": 1.5}, "t_low < t_mid < t_high"),
        ("delta", {"s_mid": 0.5, "t_mid": 0.0}, "t_low < t_mid < t_high"),
        ("delta_tilde", {"t_mid": 0.5, "s_mid": 1.0}, "s_low < s_mid < s_high"),
    ])
    def test_delta_floor_mid_inside_its_axis(self, kind, bounds, match):
        # a floor at t > 1.5 inside (0, 1) made sample_region_batch reject forever
        with pytest.raises(ValueError, match=match):
            RegionDescriptor(kind, 1, 1, **bounds)

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
        # groups in axis order: the s-chain's upper and lower group, then the t-chain
        region = RegionDescriptor("lambda", 1, 1, s_mid=0.5)
        labels = locate_cell_batch(region, 1, *_rows([(0.7, 0.8), (0.2, 0.4)]))
        assert [label.tolist() for label in labels] == [[[1]], [[1]], [[1, 2]]]

    @pytest.mark.parametrize("kind", ["nabla", "lambda"])
    def test_locate_width_checked(self, kind):
        region = _region(kind, 1, **MIDS[kind])
        # one block plus one point, with no ties
        s = t = np.linspace(0.9, 0.1, region.arity + 1)[None, :]
        with pytest.raises(ValueError, match="expected"):
            locate_cell_batch(region, 1, s, t)

    @pytest.mark.parametrize("kind", NABLA_KINDS + SPLIT_KINDS)
    def test_labels_blockwise_monotone(self, kind):
        m, k, n = 3, 2, 1
        region = _region(kind, k, n, **MIDS[kind])
        s, t = sample_product_batch(region, m, 300, seed=6)
        labels = locate_cell_batch(region, m, s, t)
        sizes = [slots.stop - slots.start for groups in region.groups for slots, _, _ in groups]
        assert len(labels) == len(sizes)
        for label, size in zip(labels, sizes):
            # a permutation of 1..m*size that increases along each block
            assert np.array_equal(np.sort(label, axis=1), np.tile(np.arange(1, m * size + 1), (300, 1)))
            assert np.all(np.diff(label.reshape(300, m, size), axis=2) > 0)


class TestPinned:
    @pytest.fixture(scope="class")
    def pins(self):
        return json.loads(json.dumps(shuffle_pins())), json.loads(PINS.read_text())

    @pytest.mark.parametrize("key", NABLA_KINDS + SPLIT_KINDS)
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

    @pytest.mark.parametrize("kind,m,k,n", [
        *(("nabla_tilde", m, k, 0) for m, k in ((2, 1), (2, 2), (3, 1))),
        *((kind, 2, k, n) for kind in SPLIT_KINDS for k, n in ((1, 1), (2, 1), (1, 2))),
        *((kind, 3, k, n) for kind in SPLIT_KINDS for k, n in ((1, 1), (2, 1), (1, 2))),
    ])
    def test_partition_scan_every_kind(self, kind, m, k, n):
        region = _region(kind, k, n, **MIDS[kind])
        report = partition_report(region, m, n_samples=400, seed=m * 100 + k * 10 + n)
        assert (report.uncovered, report.multiply_covered, report.locate_mismatches) == (0, 0, 0)

    def test_cell_counts(self):
        report = partition_report(RegionDescriptor("nabla", 1), 2, n_samples=100, seed=0)
        assert report.n_cells == 4  # 2 sigma labels x 2 gamma labels

    @pytest.mark.parametrize("mutant,field", [
        ("missing", "uncovered"),  # points of the dropped member's cells are held by no cell
        ("repeated", "multiply_covered"),  # points of the repeated member's cells are held twice
        ("swapped", "locate_mismatches"),  # locate returns (gamma, sigma)
    ])
    def test_scan_catches_mutants(self, monkeypatch, mutant, field):
        family, locate = enumerate_block_increasing, locate_cell_batch
        mutants = {
            "missing": ("enumerate_block_increasing", lambda m, k: family(m, k)[:-1]),
            "repeated": ("enumerate_block_increasing", lambda m, k: np.concatenate([family(m, k), family(m, k)[:1]])),
            "swapped": ("locate_cell_batch", lambda *args: locate(*args)[::-1]),
        }
        monkeypatch.setattr(shuffle_combinatorics, *mutants[mutant])
        report = partition_report(RegionDescriptor("nabla", 2), 2, n_samples=400, seed=22)
        assert getattr(report, field) > 0, report

    def test_enumeration_guard_before_sampling(self, monkeypatch):
        def no_draws(*args):
            raise AssertionError("sampled a product past the enumeration limit")

        monkeypatch.setattr(shuffle_combinatorics, "sample_product_batch", no_draws)
        with pytest.raises(ValueError, match="limited to 1000000 label tuples, got 28280476224000000"):
            partition_report(RegionDescriptor("nabla", 3), 5, n_samples=100_000, seed=0)


if __name__ == "__main__":
    PINS.write_text(json.dumps(shuffle_pins(), indent=1, sort_keys=True) + "\n")
