"""Rectangle-selection integration-by-parts expansion.

Setting: n evaluation points (s_i, t_sigma(i)) with strictly increasing times
s_1 < ... < s_n and t_1 < ... < t_n and a permutation sigma pairing rows with
columns.  The expectation of a product of drift gradients evaluated at the
sheet values of these points is rewritten, one integration by parts per row,
as a signed sum over subsets K of the crossing rows.  Each summand is an
integral over the span cells of a product of n undifferentiated drift factors,
one-dimensional Gaussian kernels (one per cell), and n kernel-gradient
factors whose cells form a system with pairwise distinct rows and columns.

Cell (i, j) of the scheme corresponds to the rectangle
(s_{i-1}, s_i] x (t_{j-1}, t_j] and carries the increment variable z[i][j];
kernel variances are the rectangle areas.  A crossing row i (one dominated by
a later point in both coordinates) contributes two special cells: the
selection cell (i, gamma_i) and the substitution cell (i, tau_i), whose
kernel argument is z[i][tau_i] shifted by -z[i][gamma_i].  Non-crossing rows
contribute a single gradient cell (i, gamma_i).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, permutations
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .plane_geometry import Cell, DegenerateGridError, MIN_KNOT_GAP


class EmptySelectionError(RuntimeError):
    """Internal hard error: a selection pool emptied out.

    The shift lemmas guarantee this never happens for valid input; reaching
    it indicates a bug, not a user error.
    """


@dataclass(frozen=True)
class PermutationSpec:
    """Points (s_i, t_sigma(i)), i = 1..n, with strictly increasing times."""

    n: int
    sigma: tuple[int, ...]
    s_times: tuple[float, ...]
    t_times: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "sigma", tuple(int(v) for v in self.sigma))
        object.__setattr__(self, "s_times", tuple(float(v) for v in self.s_times))
        object.__setattr__(self, "t_times", tuple(float(v) for v in self.t_times))
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if sorted(self.sigma) != list(range(1, self.n + 1)):
            raise ValueError(f"sigma must be a permutation of 1..{self.n}, got {self.sigma}")
        for name, times in (("s_times", self.s_times), ("t_times", self.t_times)):
            if len(times) != self.n:
                raise ValueError(f"{name} must have length n = {self.n}")
            prev = 0.0  # implicit origin time
            for v in times:
                if v - prev <= MIN_KNOT_GAP:
                    raise DegenerateGridError(
                        f"{name} must be strictly increasing from 0 with gaps > {MIN_KNOT_GAP:g}"
                    )
                prev = v

    def sigma_of(self, i: int) -> int:
        return self.sigma[i - 1]


def uniform_spec(sigma: Sequence[int], horizon: float = 1.0) -> PermutationSpec:
    """Spec with equally spaced times on (0, horizon]."""
    n = len(sigma)
    times = tuple(horizon * (i + 1) / n for i in range(n))
    return PermutationSpec(n, tuple(sigma), times, times)


def crossing_set(spec: PermutationSpec) -> tuple[int, ...]:
    """Rows strictly dominated in both coordinates by a later point, ascending."""
    sigma = spec.sigma
    return tuple(i + 1 for i in range(spec.n) if any(v > sigma[i] for v in sigma[i + 1:]))


def span(spec: PermutationSpec) -> np.ndarray:
    """Union of the staircase rectangles {1..i} x {1..sigma(i)}.

    Returns the (m, 2) integer array of (row, col) cells in row-major order;
    row i reaches the largest sigma over rows i..n.
    """
    col_limit = np.maximum.accumulate(np.array(spec.sigma)[::-1])[::-1]
    rows = np.repeat(np.arange(1, spec.n + 1), col_limit)
    cols = np.concatenate([np.arange(1, c + 1) for c in col_limit])
    return np.column_stack([rows, cols])


def staircase(spec: PermutationSpec, cells: np.ndarray) -> np.ndarray:
    """(n, m) 0/1 matrix: row i marks the cells of the rectangle {1..i} x {1..sigma(i)}.

    Row i holds the coefficients of the sheet value at the point
    (s_i, t_sigma(i)) in the increments of the given cells.
    """
    rows = np.arange(1, spec.n + 1)[:, None]
    sigma = np.array(spec.sigma)[:, None]
    return ((cells[:, 0] <= rows) & (cells[:, 1] <= sigma)).astype(float)


def spec_variances(spec: PermutationSpec, cells: np.ndarray) -> np.ndarray:
    """Rectangle areas (kernel variances) of the (m, 2) array of (row, col) cells."""
    s_gaps = np.diff((0.0,) + spec.s_times)
    t_gaps = np.diff((0.0,) + spec.t_times)
    return s_gaps[cells[:, 0] - 1] * t_gaps[cells[:, 1] - 1]


@dataclass(frozen=True)
class GammaTauAssignment:
    """Selection columns gamma (all rows) and substitution columns tau (crossing rows)."""

    K: tuple[int, ...]
    gamma: dict[int, int]
    tau: dict[int, int]


@dataclass(frozen=True)
class ShiftCheck:
    K: tuple[int, ...]
    row: int
    role: str  # "gamma" or "tau"
    pool: tuple[int, ...]
    excluded: tuple[int, ...]
    chosen: Optional[int]

    @property
    def ok(self) -> bool:
        return self.chosen is not None


@dataclass(frozen=True)
class ShiftLemmaReport:
    checks: tuple[ShiftCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failures(self) -> tuple[ShiftCheck, ...]:
        return tuple(c for c in self.checks if not c.ok)


def _column_selector(spec: PermutationSpec, J: tuple[int, ...]) -> Callable[..., GammaTauAssignment]:
    """Staged gamma/tau selection for the crossing subsets K of J = crossing_set(spec).

    Stage r handles the r-th crossing row.  Its pools, the columns sigma(j)
    and sigma(j) + 1 over the first r + 1 crossing rows, do not depend on K,
    so they are built once here.  The exclusions grow stage by stage: the
    gamma column of each crossing row in K and the tau column of each one
    outside K.  Non-crossing rows are then assigned their selection column
    against the final exclusion set.  The returned select(K, log=None) runs
    the selection for one sorted K, appending a ShiftCheck per pick to log.
    """
    sigma = spec.sigma
    crossing = set(J)
    stages = []
    for r, i in enumerate(J):
        prefix = {sigma[j - 1] for j in J[: r + 1]}
        stages.append((i, sigma[i - 1], tuple(sorted(prefix)), tuple(sorted(c + 1 for c in prefix))))
    sigma_J = {sigma[j - 1] for j in J}
    others = [(i, sigma[i - 1], tuple(sorted(sigma_J | {sigma[i - 1]})))
              for i in range(1, spec.n + 1) if i not in crossing]

    def select(K: tuple[int, ...], log: Optional[list[ShiftCheck]] = None) -> GammaTauAssignment:
        if not crossing.issuperset(K):
            raise ValueError(f"K = {set(K)} must be a subset of the crossing set {crossing}")
        in_K = set(K)
        excl: set[int] = set()

        def pick(row: int, role: str, pool: tuple[int, ...], bound: int) -> int:
            # gamma takes the largest admissible column <= bound, tau the smallest >= bound
            chosen = None
            if role == "gamma":
                for c in reversed(pool):
                    if c <= bound and c not in excl:
                        chosen = c
                        break
            else:
                for c in pool:
                    if c >= bound and c not in excl:
                        chosen = c
                        break
            if log is not None:
                log.append(ShiftCheck(K, row, role, pool, tuple(sorted(excl)), chosen))
            if chosen is None:
                raise EmptySelectionError(
                    f"no admissible {role} column for row {row}, sigma={sigma}, K={sorted(K)}"
                )
            return chosen

        gamma: dict[int, int] = {}
        tau: dict[int, int] = {}
        for i, s, sigma_pool, shift_pool in stages:
            gamma[i] = pick(i, "gamma", sigma_pool, s)
            tau[i] = pick(i, "tau", shift_pool, s + 1)
            excl.add(gamma[i] if i in in_K else tau[i])
        for i, s, pool in others:
            gamma[i] = pick(i, "gamma", pool, s)
        return GammaTauAssignment(K, gamma, tau)

    return select


def gamma_tau(spec: PermutationSpec, K: Iterable[int]) -> GammaTauAssignment:
    return _column_selector(spec, crossing_set(spec))(tuple(sorted(K)))


def assert_shift_lemmas(spec: PermutationSpec, K: Optional[Iterable[int]] = None) -> ShiftLemmaReport:
    """Diagnostic: record every selection pool and whether it was nonempty.

    Runs the selection for one subset K, or for every subset of the crossing
    set when K is None.  Never raises; empty pools are reported as failed
    checks instead.
    """
    J = crossing_set(spec)
    select = _column_selector(spec, J)
    checks: list[ShiftCheck] = []
    subsets = [tuple(sorted(K))] if K is not None else list(_crossing_subsets(J))
    for sub in subsets:
        try:
            select(sub, checks)
        except EmptySelectionError:
            pass
    return ShiftLemmaReport(tuple(checks))


def _crossing_subsets(J: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Subsets of the crossing set J as sorted tuples, full set first, empty set last."""
    q = len(J)
    for mask in range(2 ** q - 1, -1, -1):
        yield tuple(J[m] for m in range(q) if mask & (1 << (q - 1 - m)))


@dataclass(frozen=True, eq=False)
class IbpTerm:
    """Row view of one term of a TermTable: the term over the crossing subset K.

    A span index is a row of `cells`, the scheme's span in row-major order
    (one array shared by all terms of the scheme).  The kernel argument of
    cell c is z[c] - z[shift[c]] when shift[c] >= 0 (the substitution cells
    of crossing rows), otherwise z[c]; the gradient cells carry Hermite
    weights and every other cell a density.
    """

    K: tuple[int, ...]  # sorted crossing subset
    sign: int
    gamma: tuple[int, ...]  # selection column per row, index i-1
    tau: dict[int, int]  # substitution column per crossing row
    cells: np.ndarray  # (m, 2) span cells (row, col)
    grad: np.ndarray  # (n,) span index of each row's kernel-gradient cell
    shift: np.ndarray  # (m,) span index of the subtracted variable, else -1
    args: np.ndarray  # (n, m) 0/1 drift-argument matrix, one row per factor

    @property
    def b_cells(self) -> np.ndarray:
        """(n, 2) kernel-gradient cells in row order."""
        return self.cells[self.grad]


@dataclass(frozen=True, eq=False)
class TermTable:
    """The 2^q expansion terms of one scheme, stacked along a leading term axis of length T.

    Row k is the term over the k-th crossing subset, from the full crossing
    set down to the empty one; indexing or iterating yields IbpTerm row views.
    """

    cells: np.ndarray  # (m, 2) span cells (row, col), shared by every term
    crossing: tuple[int, ...]  # the crossing rows J, ascending
    in_K: np.ndarray  # (T, q) bool: crossing row J[r] lies in the term's K
    sign: np.ndarray  # (T,) +1 or -1
    gamma: np.ndarray  # (T, n) selection column per row
    tau: np.ndarray  # (T, q) substitution column per crossing row
    grad: np.ndarray  # (T, n) span index of each row's kernel-gradient cell
    shift: np.ndarray  # (T, m) span index of the subtracted variable, else -1
    args: np.ndarray  # (T, n, m) 0/1 drift-argument matrices

    def __len__(self) -> int:
        return len(self.sign)

    def __getitem__(self, k: int) -> IbpTerm:
        J = self.crossing
        return IbpTerm(tuple(compress(J, self.in_K[k].tolist())), int(self.sign[k]),
                       tuple(self.gamma[k].tolist()), dict(zip(J, self.tau[k].tolist())),
                       self.cells, self.grad[k], self.shift[k], self.args[k])

    def __iter__(self) -> Iterator[IbpTerm]:
        return (self[k] for k in range(len(self)))

    def to_dicts(self) -> list[dict]:
        """JSON-ready view per term: K, sign, gradient cells, density cells, drift arguments.

        One pass over the stacked arrays: each kind of cell list is one flat
        list, cut per term, of the pairs of one cells.tolist().
        """
        T, n = self.grad.shape
        cell = self.cells.tolist().__getitem__
        density = np.ones(self.shift.shape, dtype=bool)
        density[np.arange(T)[:, None], self.grad] = False
        b_cells = list(map(cell, self.grad.ravel().tolist()))
        e_cells = list(map(cell, np.nonzero(density)[1].tolist()))
        a_cells = list(map(cell, np.nonzero(self.args)[2].tolist()))
        a_ends = np.cumsum(np.count_nonzero(self.args, axis=2)).tolist()
        a_sets = [a_cells[lo:hi] for lo, hi in zip([0] + a_ends, a_ends)]
        e = len(e_cells) // T  # m - n density cells per term
        return [
            {
                "K": list(compress(self.crossing, in_K)),
                "sign": sign,
                "B_cells": b_cells[k * n:(k + 1) * n],
                "E_cells": e_cells[k * e:(k + 1) * e],
                "b_arg_sets": a_sets[k * n:(k + 1) * n],
            }
            for k, (in_K, sign) in enumerate(zip(self.in_K.tolist(), self.sign.tolist()))
        ]


def expand(spec: PermutationSpec) -> TermTable:
    """All 2^q expansion terms as one table, K ordered from the full crossing set down to empty.

    The sign of the K term is (-1)^{#K} * (-1)^{n - q}: each of the n row
    integrations by parts contributes a minus sign, and splitting the
    derivative of a kernel pair on a crossing row flips the sign of the
    branch that moves the gradient to the substitution cell.

    Row i's drift argument is its staircase rectangle without the selection
    cells of the crossing rows, plus its own selection cell.
    """
    J = crossing_set(spec)
    n, q = spec.n, len(J)
    cells = span(spec)
    select = _column_selector(spec, J)
    picks = [select(K) for K in _crossing_subsets(J)]
    T = len(picks)
    gamma = np.array([[a.gamma[i] for i in range(1, n + 1)] for a in picks])
    tau = np.array([[a.tau[i] for i in J] for a in picks], dtype=int)
    in_K = np.array([[i in a.K for i in J] for a in picks], dtype=bool)

    # index[i, j]: span index of cell (i, j), -1 outside the span; tau reaches column n + 1
    index = np.full((n + 1, n + 2), -1)
    index[cells[:, 0], cells[:, 1]] = np.arange(len(cells))
    rows = np.arange(1, n + 1)
    J_rows = np.array(J, dtype=int)
    selected = index[rows, gamma]  # (T, n)
    substituted = index[J_rows, tau]  # (T, q)
    outside = (selected < 0).any(axis=1) | (substituted < 0).any(axis=1)
    if outside.any():
        K = picks[outside.argmax()].K
        raise EmptySelectionError(f"selection left the span for sigma={spec.sigma}, K={list(K)}")

    # rows of J outside K move their gradient to the substitution cell
    selected_J = selected[:, J_rows - 1]
    grad = selected.copy()
    grad[:, J_rows - 1] = np.where(in_K, selected_J, substituted)
    clash = (np.diff(np.sort(cells[grad], axis=1), axis=1) == 0).any(axis=(1, 2))
    if clash.any():
        b_cells = cells[grad[clash.argmax()]].tolist()
        raise ValueError(f"gradient cells must have pairwise distinct rows and columns, got {b_cells}")
    sign = (-1) ** (n - q) * (1 - 2 * (in_K.sum(axis=1) % 2))

    terms = np.arange(T)[:, None]
    shift = np.full((T, len(cells)), -1)
    shift[terms, substituted] = selected_J
    args = np.repeat(staircase(spec, cells)[None], T, axis=0)
    args[terms, :, selected_J] = 0.0
    args[terms, rows - 1, selected] = 1.0
    return TermTable(cells, J, in_K, sign, gamma, tau, grad, shift, args)


@dataclass(frozen=True)
class OrientationPoint:
    """Initial per-row view before shifts: IBP cell and substitution cell."""

    row: int
    ibp_cell: Cell
    substitution_cell: Optional[Cell]


def orientation_points(spec: PermutationSpec) -> tuple[OrientationPoint, ...]:
    J = set(crossing_set(spec))
    out = []
    for i in range(1, spec.n + 1):
        si = spec.sigma_of(i)
        sub = Cell(i, si + 1) if i in J else None
        out.append(OrientationPoint(i, Cell(i, si), sub))
    return tuple(out)


def all_permutation_specs(n: int, horizon: float = 1.0) -> Iterator[PermutationSpec]:
    """Uniform-time specs for every permutation of {1..n}."""
    for sig in permutations(range(1, n + 1)):
        yield uniform_spec(sig, horizon)
