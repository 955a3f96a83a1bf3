"""Shuffle families and the cell partitions of product order-regions.

Two constructions are provided.

Blockwise-increasing permutation families partition the m-fold product of a
chain region (k points ordered decreasingly in both coordinates between two
corner points) into cells indexed by a pair of family members: one member
ranks the s-coordinates, the other the t-coordinates, rank 1 being the
largest.  Within every block the ranks increase along the block positions,
which is automatic for points of the product region.

Split-index families handle regions whose points are ordered in one
coordinate across all blocks while the other coordinate splits into an upper
and a lower group per block.  The groups carry fixed token numbers
xi(i, j) = j + i(k+n) and zeta(i, j) = k + j + i(k+n); a cell is indexed by
two token assignments (ascending coordinate gets ascending token, which
makes tokens decrease along each block) together with one blockwise
increasing permutation for the totally ordered coordinate.

Members are represented as tuples over global 1-based positions: entry p-1
is the rank (or token) assigned to position p.  Position p belongs to block
(p-1) // arity at in-block slot (p-1) % arity + 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import factorial
from typing import Optional, Sequence

import numpy as np

from .brownian_sheet import Key, stream

#: members are enumerated only while m * (k + n) stays at or below this
ENUMERATION_LIMIT = 12


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


def _guard_enumeration(total: int) -> None:
    if total > ENUMERATION_LIMIT:
        raise ValueError(
            f"enumeration limited to {ENUMERATION_LIMIT} positions, got {total}"
        )


@dataclass(frozen=True)
class BlockIncreasingFamily:
    """Permutations of {1..mk} increasing along each of the m blocks."""

    m: int
    k: int
    members: tuple[tuple[int, ...], ...]

    @property
    def expected_count(self) -> int:
        return factorial(self.m * self.k) // factorial(self.k) ** self.m


def enumerate_block_increasing(m: int, k: int) -> BlockIncreasingFamily:
    if m < 1 or k < 1:
        raise ValueError("need m >= 1 and k >= 1")
    total = m * k
    _guard_enumeration(total)
    members = []
    for blocks in _block_partitions(tuple(range(1, total + 1)), k):
        member = []
        for block in blocks:
            member.extend(sorted(block))  # increasing along the block
        members.append(tuple(member))
    return BlockIncreasingFamily(m, k, tuple(members))


def xi_token(i: int, j: int, k: int, n: int) -> int:
    """Token of upper-group slot j (1..k) in block i (0-based)."""
    return j + i * (k + n)


def zeta_token(i: int, j: int, k: int, n: int) -> int:
    """Token of lower-group slot j (1..n) in block i (0-based)."""
    return k + j + i * (k + n)


@dataclass(frozen=True)
class SplitIndexFamily:
    """Assignments of the group tokens, decreasing along each block.

    Members map group positions (in block-major order) to tokens; ascending
    coordinate order receives ascending tokens, hence within a block the
    token decreases as the in-block slot j increases.
    """

    m: int
    group_size: int
    tokens: tuple[int, ...]
    members: tuple[tuple[int, ...], ...]

    @property
    def expected_count(self) -> int:
        return factorial(self.m * self.group_size) // factorial(self.group_size) ** self.m


def _split_tokens(m: int, k: int, n: int) -> dict[str, tuple[int, ...]]:
    """Token numbers of the xi and zeta groups, block-major."""
    return {
        "xi": tuple(xi_token(i, j, k, n) for i in range(m) for j in range(1, k + 1)),
        "zeta": tuple(zeta_token(i, j, k, n) for i in range(m) for j in range(1, n + 1)),
    }


def enumerate_split_family(m: int, k: int, n: int, group: str) -> SplitIndexFamily:
    """Family for the xi (upper, size k) or zeta (lower, size n) group."""
    if group not in ("xi", "zeta"):
        raise ValueError("group must be 'xi' or 'zeta'")
    size = k if group == "xi" else n
    if m < 1 or size < 1:
        raise ValueError("need m >= 1 and a positive group size")
    _guard_enumeration(m * size)
    tokens = _split_tokens(m, k, n)[group]
    members = []
    for blocks in _block_partitions(tokens, size):
        member = []
        for block in blocks:
            member.extend(sorted(block, reverse=True))  # decreasing along the block
        members.append(tuple(member))
    return SplitIndexFamily(m, size, tokens, tuple(members))


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


def locate_cell_batch(region: RegionDescriptor, m: int, s: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Descending-rank label pair for product points of a nabla-kind region.

    Returns (sigma, gamma) of shape (N, m*k).  Raises on ties or points
    outside the product region.
    """
    if region.kind not in NABLA_KINDS:
        raise ValueError("locate_cell_batch applies to the single-group region kinds")
    _check_product(region, m, s, t)
    return _ranks_desc(s), _ranks_desc(t)


def _tokens_by_coordinate(tokens: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Assign sorted tokens in ascending coordinate order, rowwise.

    coords has shape (N, g); returns (N, g) where column p holds the token
    given to position p.
    """
    order = np.argsort(coords, axis=1, kind="stable")  # ascending coordinate
    out = np.empty(coords.shape, dtype=int)
    sorted_tokens = np.broadcast_to(np.sort(tokens), coords.shape)
    np.put_along_axis(out, order, sorted_tokens, axis=1)
    return out


def _split_view(region: RegionDescriptor, m: int, s: np.ndarray, t: np.ndarray):
    """(split, total, group columns): the split and the total axis's
    coordinates, and the product columns of the upper and lower groups."""
    axis = region.split_axis
    cols = np.arange(m * region.arity).reshape(m, region.arity)
    group_cols = [cols[:, slots].ravel() for slots, _, _ in region.groups[axis]]
    return (s, t)[axis], (s, t)[1 - axis], group_cols


def locate_cell_split_batch(region: RegionDescriptor, m: int, s: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Token assignments (pi, rho) and rank labels sigma for split regions.

    pi covers the upper-group positions (slots 1..k of each block), rho the
    lower-group positions; sigma ranks the totally ordered coordinate over
    all positions, descending.
    """
    if region.kind not in SPLIT_KINDS:
        raise ValueError("locate_cell_split_batch applies to the split region kinds")
    _check_product(region, m, s, t)
    split, total, (upper_cols, lower_cols) = _split_view(region, m, s, t)
    tokens = _split_tokens(m, region.k, region.n)
    pi = _tokens_by_coordinate(np.array(tokens["xi"]), split[:, upper_cols])
    rho = _tokens_by_coordinate(np.array(tokens["zeta"]), split[:, lower_cols])
    return pi, rho, _ranks_desc(total)


# ---------------------------------------------------------------------------
# cell predicates (independent of locate; used by the partition scans)
# ---------------------------------------------------------------------------


def cell_membership_batch(region: RegionDescriptor, m: int, sigma: Sequence[int],
                          gamma: Sequence[int], s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Paired-chain predicate of one (sigma, gamma) cell of a nabla product.

    The cell requires the points (s at rank p of sigma, t at rank p of gamma)
    to form a strictly descending chain in both coordinates inside the
    region's box.
    """
    if region.kind not in NABLA_KINDS:
        raise ValueError("cell predicate applies to the single-group region kinds")
    ok = np.ones(s.shape[0], dtype=bool)
    for x, member, ((_, low, high),) in zip((s, t), (sigma, gamma), region.groups):
        # argsort of a permutation of 1..n is its inverse: position of rank p
        ok &= _chain_desc(x[:, np.argsort(member)], low, high)
    return ok


def cell_membership_split_batch(region: RegionDescriptor, m: int, pi: Sequence[int],
                                rho: Sequence[int], sigma: Sequence[int],
                                s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Chain predicate of one (pi, rho, sigma) cell of a split product region."""
    if region.kind not in SPLIT_KINDS:
        raise ValueError("split cell predicate applies to the split region kinds")
    split, total, group_cols = _split_view(region, m, s, t)
    ((_, total_low, total_high),) = region.groups[1 - region.split_axis]
    # the delta kinds' extra constraint is a property of the region, shared
    # by all cells, so the cell predicate only tests the chains
    ok = _chain_desc(total[:, np.argsort(sigma)], total_low, total_high)
    for cols, member, (_, low, high) in zip(group_cols, (pi, rho), region.groups[region.split_axis]):
        # ascending token = ascending coordinate, so the coordinate read in
        # descending token order must descend
        token_order = np.argsort(-np.asarray(member), kind="stable")
        ok &= _chain_desc(split[:, cols[token_order]], low, high)
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


def _enumerate_cells(region: RegionDescriptor, m: int) -> list[tuple]:
    if region.kind in NABLA_KINDS:
        fam = enumerate_block_increasing(m, region.k).members
        return [(sig, gam) for sig in fam for gam in fam]
    xi_fam = enumerate_split_family(m, region.k, region.n, "xi").members
    zeta_fam = enumerate_split_family(m, region.k, region.n, "zeta").members
    sig_fam = enumerate_block_increasing(m, region.k + region.n).members
    return [(pi, rho, sig) for pi in xi_fam for rho in zeta_fam for sig in sig_fam]


def _row_index(table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Index of each row of `rows` in `table` (unique rows), -1 if absent.

    Rows are compared as byte strings, one byte per label: labels never
    exceed ENUMERATION_LIMIT, and bytes sort ~15x faster than row records.
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
    s, t = sample_product_batch(region, m, n_samples, seed)
    cells = _enumerate_cells(region, m)
    if region.kind in NABLA_KINDS:
        locate, claims = locate_cell_batch, cell_membership_batch
    else:
        locate, claims = locate_cell_split_batch, cell_membership_split_batch
    # a cell is its label tuples laid end to end, as are the located labels
    table = np.array([sum(cell, ()) for cell in cells])
    located = _row_index(table, np.concatenate(locate(region, m, s, t), axis=1))
    hits = np.zeros(n_samples, dtype=int)
    claimed = np.full(n_samples, -1, dtype=int)
    for ci, cell in enumerate(cells):
        mask = claims(region, m, *cell, s, t)
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
