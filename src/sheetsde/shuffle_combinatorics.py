"""Shuffle families and the cell partitions of product order-regions.

A region describes itself per axis as descending chain groups (slots, low,
high): one group on each axis for the nabla kinds, and for the split kinds an
upper and a lower group on the split axis and one total group on the other.
A chain group of the m-fold product is one region group's slots in every
block.  A cell of the product is labelled by one blockwise-increasing
permutation per chain group, in axis order (s groups first): it ranks the
group's coordinates, rank 1 being the largest.  Within every block the ranks
increase along the group's slots, which is automatic for points of the
product region.  For the split groups, rank r stands for the paper's r-th
largest xi or zeta token of the group.

Members are represented as tuples over the group's 1-based positions: entry
p-1 is the rank assigned to position p, which belongs to block
(p-1) // size at in-group slot (p-1) % size + 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from math import factorial, prod
from typing import Optional, Sequence

import numpy as np

from .brownian_sheet import Key, stream

#: most label tuples a family, or a product of families, may have to be enumerated
ENUMERATION_LIMIT = 10 ** 6


class NotInProductError(ValueError):
    """The supplied points do not lie in the m-fold product region."""


class DegenerateTiesError(ValueError):
    """Coordinate ties make the cell of the points ill-defined."""


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------


def _block_partitions(values: tuple[int, ...], block_size: int):
    """All splits of `values` into consecutive blocks of fixed size, as tuples."""
    if not values:
        yield ()
        return
    for head in combinations(values, block_size):
        rest = tuple(v for v in values if v not in head)
        for tail in _block_partitions(rest, block_size):
            yield (head,) + tail


def _guard_enumeration(m: int, sizes: Sequence[int]) -> int:
    """Closed-form count of the label tuples in the product of the (m, size) families.

    Raises ValueError before anything is built when the count passes
    ENUMERATION_LIMIT or a label value passes 255.  A label of the (m, size)
    family takes the values 1..m * size, and _row_index packs one label per
    byte.  For m >= 2 the count bound alone keeps m * size <= 22, since the
    m = 2 family has C(2 size, size) members, over 10^6 from size 12 on.  A
    one-block family has one member at any size, so m * size is checked
    too, first, which also keeps the factorials small.
    """
    positions = m * max(sizes)
    if positions > 255:
        raise ValueError(f"labels limited to 255 positions, got {positions}")
    count = prod(factorial(m * size) // factorial(size) ** m for size in sizes)
    if count > ENUMERATION_LIMIT:
        raise ValueError(f"enumeration limited to {ENUMERATION_LIMIT} label tuples, got {count}")
    return count


@dataclass(frozen=True)
class BlockIncreasingFamily:
    """Permutations of {1..mk} increasing along each of the m blocks."""

    m: int
    k: int
    members: tuple[tuple[int, ...], ...]


def enumerate_block_increasing(m: int, k: int) -> BlockIncreasingFamily:
    if m < 1 or k < 1:
        raise ValueError("need m >= 1 and k >= 1")
    _guard_enumeration(m, [k])
    members = []
    for blocks in _block_partitions(tuple(range(1, m * k + 1)), k):
        member = []
        for block in blocks:
            member.extend(sorted(block))  # increasing along the block
        members.append(tuple(member))
    return BlockIncreasingFamily(m, k, tuple(members))


# ---------------------------------------------------------------------------
# regions
# ---------------------------------------------------------------------------

NABLA_KINDS = ("nabla", "nabla_tilde")
SPLIT_KINDS = ("lambda", "lambda_tilde", "delta", "delta_tilde")

# the split coordinate is s for lambda/delta, t for the tilde kinds
_SPLIT_AXIS = {"lambda": 0, "delta": 0, "lambda_tilde": 1, "delta_tilde": 1}


@dataclass(frozen=True)
class RegionDescriptor:
    """Order region with bounds (s_low, s_mid, s_high) x (t_low, t_mid, t_high).

    nabla kinds: k points, both coordinate chains descending in the slot
    index, inside (s_low, s_high) x (t_low, t_high); the mid entries are
    unused.  Split kinds: k + n points; for `lambda`/`delta` the s-chain
    splits at s_mid (slots 1..k above, k+1..k+n below) and the t-chain is
    total; `delta` additionally requires the slot-k t-coordinate to exceed
    t_mid.  The tilde variants swap the roles of s and t.
    """

    kind: str
    k: int
    n: int = 0
    s_low: float = 0.0
    s_mid: Optional[float] = None
    s_high: float = 1.0
    t_low: float = 0.0
    t_mid: Optional[float] = None
    t_high: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in NABLA_KINDS + SPLIT_KINDS:
            raise ValueError(f"unknown region kind {self.kind!r}")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not self.s_low < self.s_high or not self.t_low < self.t_high:
            raise ValueError("bounds must be increasing")
        if self.kind in NABLA_KINDS:
            if self.n != 0:
                raise ValueError(f"{self.kind} has a single group, n must be 0")
            return
        if self.n < 1:
            raise ValueError(f"{self.kind} needs n >= 1")
        split, total = "st"[self.split_axis], "st"[1 - self.split_axis]
        low, mid, high = self._bounds(self.split_axis)
        if mid is None:
            raise ValueError(f"{self.kind} needs the split coordinate's mid bound")
        if not low < mid < high:
            raise ValueError(f"need {split}_low < {split}_mid < {split}_high")
        if self.kind.startswith("delta") and self._bounds(1 - self.split_axis)[1] is None:
            raise ValueError(f"{self.kind} needs {total}_mid for its extra constraint")

    @property
    def arity(self) -> int:
        return self.k + self.n

    @property
    def split_axis(self) -> Optional[int]:
        """0 if the s-chain splits at its mid bound, 1 for t, None for nabla."""
        return _SPLIT_AXIS.get(self.kind)

    def _bounds(self, axis: int) -> tuple[float, Optional[float], float]:
        if axis == 0:
            return self.s_low, self.s_mid, self.s_high
        return self.t_low, self.t_mid, self.t_high

    @property
    def groups(self) -> tuple[tuple[tuple[slice, float, float], ...], ...]:
        """Per axis (s, then t), its descending chain groups (slots, low, high).

        A split axis has the upper group (slots 1..k above mid) first and the
        lower group (slots k+1..k+n below mid) second; any other axis is one
        total group over all slots.
        """
        k, a = self.k, self.arity
        out = []
        for axis in (0, 1):
            low, mid, high = self._bounds(axis)
            if axis == self.split_axis:
                out.append(((slice(0, k), mid, high), (slice(k, a), low, mid)))
            else:
                out.append(((slice(0, a), low, high),))
        return tuple(out)

    @property
    def floors(self) -> tuple[tuple[int, int, float], ...]:
        """Extra constraints (axis, slot, bound): coordinate > bound.

        The delta kinds require the slot-k coordinate of the total axis to
        exceed that axis's mid bound; the other kinds have none.
        """
        if not self.kind.startswith("delta"):
            return ()
        total = 1 - self.split_axis
        return ((total, self.k - 1, self._bounds(total)[1]),)


def _chain_desc(x: np.ndarray, low: float, high: float) -> np.ndarray:
    """Rows whose entries descend strictly and stay inside (low, high)."""
    ok = (x[..., -1] > low) & (x[..., 0] < high)
    if x.shape[-1] > 1:
        ok &= np.all(x[..., 1:] < x[..., :-1], axis=-1)
    return ok


def membership_batch(region: RegionDescriptor, s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Vectorized membership; s and t have shape (N, arity) in slot order."""
    if s.shape[1] != region.arity or t.shape != s.shape:
        raise ValueError(f"expected {region.arity} points, got {s.shape[1]}")
    ok = np.ones(s.shape[0], dtype=bool)
    for x, groups in zip((s, t), region.groups):
        for slots, low, high in groups:
            ok &= _chain_desc(x[:, slots], low, high)
    for axis, slot, bound in region.floors:
        ok &= (s, t)[axis][:, slot] > bound
    return ok


def _sorted_desc(rng: np.random.Generator, size: tuple[int, int], low: float, high: float) -> np.ndarray:
    u = rng.uniform(low, high, size=size)
    u.sort(axis=1)
    return u[:, ::-1]


def sample_region_batch(region: RegionDescriptor, n_samples: int, seed: Key) -> tuple[np.ndarray, np.ndarray]:
    """Uniform draws from the region; returns (s, t) of shape (N, arity).

    Chain groups are sampled as sorted uniforms (uniform on the order
    simplex); the delta kinds reject against their extra constraint.
    """
    rng = stream(seed)
    out_s = np.empty((0, region.arity))
    out_t = np.empty((0, region.arity))
    need = n_samples
    while need > 0:
        batch = max(need, 128)
        # s before t and upper group before lower: this is the draw order
        s, t = [
            np.concatenate([
                _sorted_desc(rng, (batch, slots.stop - slots.start), low, high)
                for slots, low, high in groups
            ], axis=1)
            for groups in region.groups
        ]
        keep = membership_batch(region, s, t)
        s, t = s[keep], t[keep]
        take = min(need, s.shape[0])
        out_s = np.concatenate([out_s, s[:take]])
        out_t = np.concatenate([out_t, t[:take]])
        need -= take
    return out_s, out_t


def sample_product_batch(region: RegionDescriptor, m: int, n_samples: int, seed: Key) -> tuple[np.ndarray, np.ndarray]:
    """m independent blocks per sample, block i on key (seed, i); shape (N, m * arity), block-major."""
    parts = [sample_region_batch(region, n_samples, (seed, i)) for i in range(m)]
    return (
        np.concatenate([p[0] for p in parts], axis=1),
        np.concatenate([p[1] for p in parts], axis=1),
    )


# ---------------------------------------------------------------------------
# locating cells
# ---------------------------------------------------------------------------


def _ranks_desc(x: np.ndarray) -> np.ndarray:
    """Descending ranks per row: 1 for the largest entry."""
    order = np.argsort(-x, axis=1, kind="stable")
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.arange(1, x.shape[1] + 1)[None, :].repeat(x.shape[0], axis=0), axis=1)
    return ranks


def _check_product(region: RegionDescriptor, m: int, s: np.ndarray, t: np.ndarray) -> None:
    """Raise unless s and t hold untied points of the m-fold product region."""
    width = m * region.arity
    if s.shape[1] != width or t.shape != s.shape:
        raise ValueError(f"expected {width} points, got {s.shape[1]}")
    for x in (s, t):
        if np.any(np.diff(np.sort(x, axis=1), axis=1) == 0.0):
            raise DegenerateTiesError("tied coordinates")
    # one row per block: sample-major, block-minor
    blocks = membership_batch(region, s.reshape(-1, region.arity), t.reshape(-1, region.arity))
    if not np.all(blocks):
        raise NotInProductError("points outside the product region")


def _product_groups(region: RegionDescriptor, m: int) -> list[tuple[int, np.ndarray, float, float]]:
    """(axis, product columns, low, high) of each chain group of the m-fold
    product, in axis order (s groups first); columns are block-major."""
    cols = np.arange(m * region.arity).reshape(m, region.arity)
    return [(axis, cols[:, slots].ravel(), low, high)
            for axis, groups in enumerate(region.groups) for slots, low, high in groups]


def locate_cell_batch(region: RegionDescriptor, m: int, s: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, ...]:
    """Descending-rank label of each chain group for product points.

    Returns one (N, m * group size) array per chain group, in axis order;
    the nabla kinds give (sigma, gamma) of shape (N, m*k).  Raises on ties
    or points outside the product region.
    """
    _check_product(region, m, s, t)
    return tuple(_ranks_desc((s, t)[axis][:, cols]) for axis, cols, _, _ in _product_groups(region, m))


# ---------------------------------------------------------------------------
# cell predicate (independent of locate; used by the partition scans)
# ---------------------------------------------------------------------------


def cell_membership_batch(region: RegionDescriptor, m: int, labels: Sequence[Sequence[int]],
                          s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Chain predicate of one cell of an m-fold product, one label per chain group.

    The cell requires each group's coordinates, read in the order of its
    label's ranks, to form a strictly descending chain inside the group's
    bounds.
    """
    ok = np.ones(s.shape[0], dtype=bool)
    # the delta kinds' extra constraint is a property of the region, shared
    # by all cells, so the cell predicate only tests the chains
    for (axis, cols, low, high), label in zip(_product_groups(region, m), labels, strict=True):
        # argsort of a permutation of 1..n is its inverse: position of rank p
        ok &= _chain_desc((s, t)[axis][:, cols[np.argsort(label)]], low, high)
    return ok


# ---------------------------------------------------------------------------
# partition scan and the product-of-integrals identity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PartitionReport:
    """Outcome of a sampled partition scan over a product region.

    For every sampled product point the report counts how many cells claim
    it and whether the located cell is the claiming one.  A valid partition
    has zero uncovered, multiply covered, and mismatched samples.
    """

    kind: str
    m: int
    k: int
    n: int
    n_samples: int
    n_cells: int
    uncovered: int
    multiply_covered: int
    locate_mismatches: int

    @property
    def ok(self) -> bool:
        return self.uncovered == 0 and self.multiply_covered == 0 and self.locate_mismatches == 0


def _group_sizes(region: RegionDescriptor) -> list[int]:
    """Slots per block of each chain group, in axis order."""
    return [slots.stop - slots.start for groups in region.groups for slots, _, _ in groups]


def cell_count(region: RegionDescriptor, m: int) -> int:
    """Closed-form number of cells of the m-fold product, the product over its chain groups g
    of (m k_g)! / (k_g!)^m; raises ValueError past the enumeration limits."""
    return _guard_enumeration(m, _group_sizes(region))


def _enumerate_cells(region: RegionDescriptor, m: int) -> list[tuple]:
    """Every cell: one block-increasing member per chain group of the product."""
    cell_count(region, m)  # the whole product is checked before any family is built
    families = [enumerate_block_increasing(m, size).members for size in _group_sizes(region)]
    return list(product(*families))


def _row_index(table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Index of each row of `rows` in `table` (unique rows), -1 if absent.

    Rows are compared as byte strings, one byte per label: _guard_enumeration
    keeps labels at or below 255, and bytes sort ~15x faster than row records.
    """
    both = np.concatenate([table, rows]).astype(np.uint8)
    _, inverse = np.unique(both.view(np.dtype((np.void, both.shape[1]))).ravel(), return_inverse=True)
    index = np.full(inverse.max() + 1, -1)
    index[inverse[: len(table)]] = np.arange(len(table))
    return index[inverse[len(table) :]]


def partition_report(region: RegionDescriptor, m: int, n_samples: int, seed: Key) -> PartitionReport:
    """Sample the product region and scan every cell's predicate.

    Checks that the cells cover each sample exactly once and that the
    located cell is the covering one.
    """
    # enumerate first, so that a product past the enumeration limits fails before any draw
    cells = _enumerate_cells(region, m)
    s, t = sample_product_batch(region, m, n_samples, seed)
    # a cell is its label tuples laid end to end, as are the located labels
    table = np.array([sum(cell, ()) for cell in cells])
    located = _row_index(table, np.concatenate(locate_cell_batch(region, m, s, t), axis=1))
    hits = np.zeros(n_samples, dtype=int)
    claimed = np.full(n_samples, -1, dtype=int)
    for ci, cell in enumerate(cells):
        mask = cell_membership_batch(region, m, cell, s, t)
        hits += mask
        claimed[mask] = ci
    uncovered = int(np.sum(hits == 0))
    multiple = int(np.sum(hits > 1))
    mismatches = int(np.sum((hits == 1) & (claimed != located)))
    return PartitionReport(region.kind, m, region.k, region.n, n_samples, len(cells),
                           uncovered, multiple, mismatches)


@dataclass(frozen=True)
class ProductIdentityReport:
    """Squared single-block integral vs the sum of per-cell integrals."""

    k: int
    lhs: float
    lhs_se: float
    rhs: float
    rhs_se: float
    n_cells: int

    @property
    def gap_se(self) -> float:
        return abs(self.lhs - self.rhs) / max(np.hypot(self.lhs_se, self.rhs_se), 1e-300)

    def within(self, se_width: float = 4.0) -> bool:
        return self.gap_se <= se_width


def _cell_sampler(region: RegionDescriptor, sigma: Sequence[int], gamma: Sequence[int],
                  n_samples: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Uniform draws from one (sigma, gamma) cell of the two-block product.

    The cell factors into a product of two order simplices: the s-chain read
    through sigma descends, independently the t-chain through gamma.  Sorted
    uniforms realize each chain exactly, no rejection.
    """
    size = len(sigma)
    s_chain = _sorted_desc(rng, (n_samples, size), region.s_low, region.s_high)
    t_chain = _sorted_desc(rng, (n_samples, size), region.t_low, region.t_high)
    return s_chain[:, np.asarray(sigma) - 1], t_chain[:, np.asarray(gamma) - 1]


def product_identity_check(k: int, slot_functions: Sequence, budget: int = 1_000_000,
                           seed: Key = 0, s_high: float = 1.0, t_high: float = 1.0) -> ProductIdentityReport:
    """Monte Carlo check that the squared block integral equals the cell sum.

    slot_functions supplies one vectorized f_j(s, t) per in-block slot; both
    blocks of the product carry the same functions, so the left side is the
    square of a single k-point chain integral, estimated independently of
    the per-cell estimates on the right: keys (seed, 0) and (seed, 1).
    """
    if len(slot_functions) != k:
        raise ValueError(f"need {k} slot functions, got {len(slot_functions)}")
    region = RegionDescriptor("nabla", k, s_high=s_high, t_high=t_high)
    block_vol = (s_high ** k / factorial(k)) * (t_high ** k / factorial(k))

    s, t = sample_region_batch(region, budget, (seed, 0))
    vals = np.ones(budget)
    for j, f in enumerate(slot_functions):
        vals *= f(s[:, j], t[:, j])
    single = float(vals.mean()) * block_vol
    single_se = float(vals.std(ddof=1)) / np.sqrt(budget) * block_vol
    lhs = single ** 2
    lhs_se = 2.0 * abs(single) * single_se  # delta method

    cells = _enumerate_cells(region, 2)
    per_cell = max(budget // len(cells), 2)
    cell_vol = (s_high ** (2 * k) / factorial(2 * k)) * (t_high ** (2 * k) / factorial(2 * k))
    rng = stream(seed, 1)
    rhs = 0.0
    rhs_var = 0.0
    for sigma, gamma in cells:
        cs, ct = _cell_sampler(region, sigma, gamma, per_cell, rng)
        cv = np.ones(per_cell)
        for pos in range(2 * k):
            f = slot_functions[pos % k]
            cv *= f(cs[:, pos], ct[:, pos])
        rhs += float(cv.mean()) * cell_vol
        rhs_var += (float(cv.std(ddof=1)) / np.sqrt(per_cell) * cell_vol) ** 2
    return ProductIdentityReport(k, lhs, lhs_se, rhs, float(np.sqrt(rhs_var)), len(cells))
