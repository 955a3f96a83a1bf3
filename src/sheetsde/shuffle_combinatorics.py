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

A member is a row over the group's 1-based positions: entry p-1 is the
rank assigned to position p, which belongs to block (p-1) // size at
in-group slot (p-1) % size + 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
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


def _guard_enumeration(m: int, sizes: Sequence[int]) -> int:
    """Closed-form count of the label tuples in the product of the (m, size) families.

    Raises ValueError before anything is built when the count passes
    ENUMERATION_LIMIT or a label value passes 255.  The count bounds the
    partition scan's work; a label of the (m, size) family takes the values
    1..m * size and is built from a uint8 word of their m block ids, which
    the value bound keeps within a byte.  For m >= 2 the count bound alone keeps
    m * size <= 22, since the m = 2 family has C(2 size, size) members, over
    10^6 from size 12 on.  A one-block family has one member at any size, so
    m * size is checked too, first, which also keeps the factorials small.
    """
    positions = m * max(sizes)
    if positions > 255:
        raise ValueError(f"labels limited to 255 positions, got {positions}")
    count = prod(factorial(m * size) // factorial(size) ** m for size in sizes)
    if count > ENUMERATION_LIMIT:
        raise ValueError(f"enumeration limited to {ENUMERATION_LIMIT} label tuples, got {count}")
    return count


def enumerate_block_increasing(m: int, k: int) -> np.ndarray:
    """Permutations of {1..mk} increasing along each of the m blocks of k positions.

    Returns an (F, m k) int array, F = (mk)! / (k!)^m, one member per row in
    lexicographic order; entry p - 1 of a row is the value at position p.
    Each row is built as a word whose entry v - 1 is the block holding value
    v, one block per level: a level gives every word each choice, in
    lexicographic order, of k of the values no earlier block took.
    """
    if m < 1 or k < 1:
        raise ValueError("need m >= 1 and k >= 1")
    _guard_enumeration(m, [k])
    # values no earlier block took fall to the last block
    words = np.full((1, m * k), m - 1, dtype=np.uint8)
    for block in range(m - 1):
        free = (m - block) * k
        heads = np.array(list(combinations(range(free), k)))
        # placed values sort first (by block), then the free values, ascending
        values = np.argsort(words, axis=1, kind="stable")[:, -free:]
        chosen = values[:, heads].reshape(-1, k)
        words = np.repeat(words, len(heads), axis=0)
        words[np.arange(len(words))[:, None], chosen] = block
    # a stable sort of a word lists each block's values in increasing order
    return np.argsort(words, axis=1, kind="stable") + 1


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
        # the split axis splits at its mid bound and a delta floor lies at the
        # total axis's mid bound; a floor at or past its high bound is never met
        for axis in (self.split_axis, *(axis for axis, _, _ in self.floors)):
            name = "st"[axis]
            low, mid, high = self._bounds(axis)
            if mid is None:
                raise ValueError(f"{self.kind} needs {name}_mid")
            if not low < mid < high:
                raise ValueError(f"need {name}_low < {name}_mid < {name}_high")

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
# partition scan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PartitionReport:
    """Outcome of a sampled partition scan over a product region.

    For every sampled product point the report counts how many cells claim
    it and whether the located cell is the claiming one.  A valid partition
    has zero uncovered, multiply covered, and mismatched samples.
    """

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


def partition_report(region: RegionDescriptor, m: int, n_samples: int, seed: Key) -> PartitionReport:
    """Sample the product region and scan each chain group's family.

    A cell, one family member per group, holds a point when each group's
    coordinates read in its member's rank order descend inside the group's
    bounds, so the cells holding a point number the product over groups of
    the members that hold it.  Checks that this is 1 for each sample and
    that the located cell is the holding one; the scan sorts no coordinates.
    """
    # count first, so that a product past the enumeration limits fails before anything is built
    n_cells = cell_count(region, m)
    families = [enumerate_block_increasing(m, size) for size in _group_sizes(region)]
    s, t = sample_product_batch(region, m, n_samples, seed)
    located = locate_cell_batch(region, m, s, t)
    hits = np.ones(n_samples, dtype=int)
    differs = np.zeros(n_samples, dtype=bool)
    # the delta kinds' extra constraint is a property of the region, shared
    # by all cells, so the cells only test the chains
    for (axis, cols, low, high), family, label in zip(_product_groups(region, m), families, located, strict=True):
        x = (s, t)[axis][:, cols]
        count = np.zeros(n_samples, dtype=int)
        claimed = np.zeros(n_samples, dtype=int)
        # argsort of a permutation of 1..n is its inverse: position of rank p
        for index, order in enumerate(np.argsort(family, axis=1)):
            mask = _chain_desc(x[:, order], low, high)
            count += mask
            claimed[mask] = index
        hits *= count
        differs |= np.any(family[claimed] != label, axis=1)
    uncovered = int(np.sum(hits == 0))
    multiple = int(np.sum(hits > 1))
    mismatches = int(np.sum((hits == 1) & differs))
    return PartitionReport(n_cells, uncovered, multiple, mismatches)

