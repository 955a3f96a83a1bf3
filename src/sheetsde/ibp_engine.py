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

import json
from dataclasses import dataclass
from itertools import compress
from typing import Sequence

import numpy as np

from .plane_geometry import DegenerateGridError, MIN_KNOT_GAP


class EmptySelectionError(RuntimeError):
    """Internal hard error: a selection pool emptied out.

    The shift lemmas guarantee this never happens for valid input; reaching
    it indicates a bug, not a user error.
    """


@dataclass(frozen=True)
class PermutationSpec:
    """Points (s_i, t_sigma(i)), i = 1..n, with strictly increasing times; n = len(sigma)."""

    sigma: tuple[int, ...]
    s_times: tuple[float, ...]
    t_times: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "sigma", tuple(int(v) for v in self.sigma))
        object.__setattr__(self, "s_times", tuple(float(v) for v in self.s_times))
        object.__setattr__(self, "t_times", tuple(float(v) for v in self.t_times))
        if not self.sigma:
            raise ValueError("sigma must not be empty")
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

    @property
    def n(self) -> int:
        return len(self.sigma)


def uniform_spec(sigma: Sequence[int], horizon: float = 1.0) -> PermutationSpec:
    """Spec with equally spaced times on (0, horizon]: the knots 1..n of uniform_grid."""
    times = tuple(np.linspace(0.0, horizon, len(sigma) + 1)[1:])
    return PermutationSpec(sigma, times, times)


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


def _select_columns(spec: PermutationSpec, J: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Staged gamma/tau selection for all T = 2^q crossing subsets K of J = crossing_set(spec) at once.

    Returns in_K (T, q), gamma (T, n) and tau (T, q); row k is the k-th
    subset, from the full crossing set down to the empty one.  Stage r handles
    the r-th crossing row i: gamma_i is the largest free column <= sigma(i)
    among sigma(j), and tau_i the smallest free column >= sigma(i) + 1 among
    sigma(j) + 1, over the first r + 1 crossing rows j.  A (T, n + 2) mask
    holds the excluded columns, which grow stage by stage: the gamma column of
    each crossing row in K and the tau column of each one outside K.
    Non-crossing rows then pick gamma from sigma(J) and their own sigma(i)
    against the final mask.
    """
    n, q = spec.n, len(J)
    T = 2 ** q
    sigma = spec.sigma
    # row k holds the bits of T - 1 - k, the first crossing row the most significant
    in_K = ((T - 1 - np.arange(T))[:, None] >> np.arange(q - 1, -1, -1) & 1).astype(bool)
    gamma = np.empty((T, n), dtype=int)
    tau = np.empty((T, q), dtype=int)
    excluded = np.zeros((T, n + 2), dtype=bool)
    sigma_pool = np.zeros(n + 2, dtype=bool)
    tau_pool = np.zeros(n + 2, dtype=bool)

    def pick(i: int, role: str, pool: np.ndarray) -> np.ndarray:
        s = sigma[i - 1]
        free = pool & ~excluded
        window = free[:, s::-1] if role == "gamma" else free[:, s + 1:]
        found = window.any(axis=1)
        if not found.all():
            K = list(compress(J, in_K[found.argmin()].tolist()))
            raise EmptySelectionError(f"no admissible {role} column for row {i}, sigma={sigma}, K={K}")
        step = window.argmax(axis=1)
        return s - step if role == "gamma" else s + 1 + step

    for r, i in enumerate(J):
        sigma_pool[sigma[i - 1]] = tau_pool[sigma[i - 1] + 1] = True
        gamma[:, i - 1] = pick(i, "gamma", sigma_pool)
        tau[:, r] = pick(i, "tau", tau_pool)
        excluded[np.arange(T), np.where(in_K[:, r], gamma[:, i - 1], tau[:, r])] = True
    for i in sorted(set(range(1, n + 1)) - set(J)):
        own = np.arange(n + 2) == sigma[i - 1]
        gamma[:, i - 1] = pick(i, "gamma", sigma_pool | own)
    return in_K, gamma, tau


@dataclass(frozen=True, eq=False)
class TermTable:
    """The 2^q expansion terms of one scheme, stacked along a leading term axis of length T.

    Row k is the term over the k-th crossing subset, from the full crossing
    set down to the empty one.  A span index is a row of `cells`, the
    scheme's span in row-major order.  The kernel argument of cell c is
    z[c] - z[shift[k, c]] when shift[k, c] >= 0 (the substitution cells of
    crossing rows), otherwise z[c]; the gradient cells carry Hermite weights
    and every other cell a density.
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

    def to_json(self) -> str:
        """The term list as compact JSON: per term K, sign, gradient cells, density cells, drift arguments.

        Written straight from the stacked arrays, with the bytes json's
        compact encoder (separators "," and ":") gives for the list of term
        dicts {"K", "sign", "B_cells", "E_cells", "b_arg_sets"}.  The text
        "[r,c]" of each span cell is made once.  The factors' drift arguments
        take few distinct rows, so each distinct (n, m) argument row, keyed
        by its packed bits, is rendered once for every factor that has it.
        Each term is then one template.
        """
        T, n = self.grad.shape
        cell = [f"[{r},{c}]" for r, c in self.cells.tolist()].__getitem__
        density = np.ones(self.shift.shape, dtype=bool)
        density[np.arange(T)[:, None], self.grad] = False
        b_cells = list(map(cell, self.grad.ravel().tolist()))
        e_cells = list(map(cell, np.nonzero(density)[1].tolist()))
        rows = self.args.reshape(T * n, -1)
        packed = np.packbits(rows > 0, axis=1)
        w = packed.shape[1]
        buf = packed.tobytes()
        keys = [buf[lo:lo + w] for lo in range(0, len(buf), w)]
        where = dict(zip(keys, range(T * n)))  # distinct row -> one factor that has it
        distinct = rows[list(where.values())]
        d_cells = list(map(cell, np.nonzero(distinct)[1].tolist()))
        d_ends = np.cumsum(np.count_nonzero(distinct, axis=1)).tolist()
        arg_text = {key: "[" + ",".join(d_cells[lo:hi]) + "]" for key, lo, hi in zip(where, [0] + d_ends, d_ends)}
        a_text = list(map(arg_text.__getitem__, keys))
        e = len(e_cells) // T  # m - n density cells per term
        term = '{"K":[%s],"sign":%d,"B_cells":[%s],"E_cells":[%s],"b_arg_sets":[%s]}'
        return "[" + ",".join([
            term % (
                ",".join(map(str, compress(self.crossing, in_K))), sign,
                ",".join(b_cells[k * n:(k + 1) * n]),
                ",".join(e_cells[k * e:(k + 1) * e]),
                ",".join(a_text[k * n:(k + 1) * n]),
            )
            for k, (in_K, sign) in enumerate(zip(self.in_K.tolist(), self.sign.tolist()))
        ]) + "]"

    def to_dicts(self) -> list[dict]:
        """The parsed term list of to_json: one dict per term, so the two forms cannot differ."""
        return json.loads(self.to_json())


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
    in_K, gamma, tau = _select_columns(spec, J)
    T = len(in_K)

    # index[i, j]: span index of cell (i, j), -1 outside the span; tau reaches column n + 1
    index = np.full((n + 1, n + 2), -1)
    index[cells[:, 0], cells[:, 1]] = np.arange(len(cells))
    rows = np.arange(1, n + 1)
    J_rows = np.array(J, dtype=int)
    selected = index[rows, gamma]  # (T, n)
    substituted = index[J_rows, tau]  # (T, q)
    outside = (selected < 0).any(axis=1) | (substituted < 0).any(axis=1)
    if outside.any():
        K = list(compress(J, in_K[outside.argmax()].tolist()))
        raise EmptySelectionError(f"selection left the span for sigma={spec.sigma}, K={K}")

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
