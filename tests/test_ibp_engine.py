"""Signed non-overlapping expansion of gradient-product expectations.

Golden cases: the two worked three-point examples with their exact term
lists.  The two-term case's signs follow the subset formula
(-1)^{#K} (-1)^{n-q}; the signed sum reproducing the direct expectation
(exercised in the estimate-lab tests) is what pins them down.
"""

import hashlib
import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import reference_term_dicts
from sheetsde.ibp_engine import (
    PermutationSpec,
    crossing_set,
    expand,
    span,
    spec_variances,
    uniform_spec,
)
from sheetsde.plane_geometry import DegenerateGridError

EXPAND_DIGESTS = Path(__file__).parent / "data" / "expand_digests.json"


def golden_rows(terms):
    """(K, sign, sorted gradient cells) of each term, read from the term dicts."""
    return [(d["K"], d["sign"], sorted(map(tuple, d["B_cells"]))) for d in terms.to_dicts()]


def k_row(terms, K):
    """Index of the table row whose crossing subset is K."""
    (k,) = [k for k, d in enumerate(terms.to_dicts()) if d["K"] == list(K)]
    return k


def span_cells(spec):
    return tuple((row, col) for row, col in span(spec).tolist())


def random_sigma(draw_n):
    return st.integers(2, draw_n).flatmap(
        lambda n: st.permutations(list(range(1, n + 1)))
    )


GOLDEN_FOUR = [
    ([1, 2], -1, [(1, 2), (2, 1), (3, 3)]),
    ([1], +1, [(1, 2), (2, 3), (3, 1)]),
    ([2], +1, [(1, 3), (2, 1), (3, 2)]),
    ([], -1, [(1, 3), (2, 2), (3, 1)]),
]

GOLDEN_TWO = [
    ([2], -1, [(1, 3), (2, 1), (3, 2)]),
    ([], +1, [(1, 3), (2, 2), (3, 1)]),
]


class TestGolden:
    def test_four_term_expansion(self):
        terms = expand(uniform_spec((2, 1, 3)))
        assert len(terms) == 4
        assert golden_rows(terms) == GOLDEN_FOUR

    def test_two_term_expansion(self):
        terms = expand(uniform_spec((3, 1, 2)))
        assert len(terms) == 2
        assert golden_rows(terms) == GOLDEN_TWO

    def test_four_term_selected_assignment(self):
        terms = expand(uniform_spec((2, 1, 3)))
        k = k_row(terms, (1,))
        assert terms.gamma[k].tolist() == [2, 1, 1]
        assert terms.tau[k].tolist() == [3, 3]

    def test_two_term_empty_subset_columns(self):
        terms = expand(uniform_spec((3, 1, 2)))
        k = k_row(terms, ())
        assert terms.gamma[k].tolist() == [3, 1, 1]
        assert terms.tau[k].tolist() == [2]


class TestCrossingSet:
    def test_examples(self):
        assert crossing_set(uniform_spec((2, 1, 3))) == (1, 2)
        assert crossing_set(uniform_spec((3, 1, 2))) == (2,)

    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_decreasing_is_empty(self, n):
        sig = tuple(range(n, 0, -1))
        assert crossing_set(uniform_spec(sig)) == ()

    @given(st.integers(2, 7).flatmap(lambda n: st.permutations(list(range(1, n + 1)))))
    def test_matches_dominance_scan(self, sigma):
        spec = uniform_spec(tuple(sigma))
        got = set(crossing_set(spec))
        brute = {
            i
            for i in range(1, spec.n + 1)
            for k in range(i + 1, spec.n + 1)
            if spec.sigma[k - 1] > spec.sigma[i - 1]
        }
        assert got == brute

    @given(st.integers(2, 7).flatmap(lambda n: st.permutations(list(range(1, n + 1)))))
    def test_size_bounded_by_n_minus_one(self, sigma):
        q = len(crossing_set(uniform_spec(tuple(sigma))))
        assert q <= len(sigma) - 1


class TestSpan:
    def test_full_grid_when_last_column_max(self):
        cells = span_cells(uniform_spec((2, 1, 3)))
        assert set(cells) == {(i, j) for i in range(1, 4) for j in range(1, 4)}

    def test_singleton(self):
        assert span_cells(uniform_spec((1,))) == ((1, 1),)

    @given(st.integers(2, 6).flatmap(lambda n: st.permutations(list(range(1, n + 1)))))
    def test_union_of_row_rectangles(self, sigma):
        spec = uniform_spec(tuple(sigma))
        brute = set()
        for i in range(1, spec.n + 1):
            brute |= {
                (r, c)
                for r in range(1, i + 1)
                for c in range(1, spec.sigma[i - 1] + 1)
            }
        assert set(span_cells(spec)) == brute

    def test_variances_are_cell_areas(self):
        spec = PermutationSpec((1, 2), (0.5, 1.0), (0.25, 1.0))
        v = spec_variances(spec, np.array([[1, 1], [2, 2]]))
        assert v == pytest.approx([0.5 * 0.25, 0.5 * 0.75])


# spans of more than 64 cells, whose drift-argument rows do not fit 64 bits: sigma -> (T, m,
# distinct rows that a key of their first 64 cells would merge)
WIDE_SIGMAS = {(9, 1, 2, 3, 4, 5, 6, 7, 8): (128, 73, 0), (2, 10, 9, 8, 1, 5, 7, 6, 3, 4): (16, 72, 2)}
# three hand-picked sigmas (ids sigma0-2), every other sigma with n <= 5, and the wide ones
ROW_VIEW_SIGMAS = [(2, 1, 3), (1, 2, 3, 4), (2, 4, 1, 5, 3)]
ROW_VIEW_SIGMAS += [sigma for n in range(1, 6) for sigma in itertools.permutations(range(1, n + 1))
                    if sigma not in ROW_VIEW_SIGMAS]
ROW_VIEW_SIGMAS += list(WIDE_SIGMAS)


class TestExpand:
    @given(st.integers(2, 6).flatmap(lambda n: st.permutations(list(range(1, n + 1)))))
    @settings(max_examples=80, deadline=None)
    def test_term_count_and_nonoverlap(self, sigma):
        spec = uniform_spec(tuple(sigma))
        terms = expand(spec)
        assert len(terms) == 2 ** len(crossing_set(spec))
        for b_cells in terms.cells[terms.grad].tolist():
            rows, cols = zip(*b_cells)
            assert len(set(rows)) == spec.n
            assert len(set(cols)) == spec.n

    @given(st.integers(2, 6).flatmap(lambda n: st.permutations(list(range(1, n + 1)))))
    @settings(max_examples=60, deadline=None)
    def test_sign_formula(self, sigma):
        spec = uniform_spec(tuple(sigma))
        q = len(crossing_set(spec))
        for d in expand(spec).to_dicts():
            assert d["sign"] == (-1) ** len(d["K"]) * (-1) ** (spec.n - q)

    @given(st.integers(2, 6).flatmap(lambda n: st.permutations(list(range(1, n + 1)))))
    @settings(max_examples=60, deadline=None)
    def test_column_brackets_on_crossing_rows(self, sigma):
        # gamma_i <= sigma(i) < tau_i on every crossing row
        spec = uniform_spec(tuple(sigma))
        terms = expand(spec)
        J = np.array(terms.crossing, dtype=int)
        sigma_J = np.array(spec.sigma)[J - 1]
        assert (terms.gamma[:, J - 1] <= sigma_J).all()
        assert (sigma_J < terms.tau).all()

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_decreasing_single_term(self, n):
        sig = tuple(range(n, 0, -1))
        terms = expand(uniform_spec(sig))
        assert len(terms) == 1
        assert golden_rows(terms) == [([], (-1) ** n, [(i, sig[i - 1]) for i in range(1, n + 1)])]

    def test_drift_argument_sets_cover_gamma_cell(self):
        terms = expand(uniform_spec((2, 1, 3)))
        for gamma, d in zip(terms.gamma.tolist(), terms.to_dicts()):
            for idx, args in enumerate(d["b_arg_sets"]):
                assert [idx + 1, gamma[idx]] in args

    def test_term_to_dict_shape(self):
        terms = expand(uniform_spec((2, 1, 3)))
        dicts = terms.to_dicts()
        assert len(dicts) == len(terms) == 4
        d = dicts[0]
        assert set(d) == {"K", "sign", "B_cells", "E_cells", "b_arg_sets"}
        assert d["K"] == [1, 2]
        assert len(d["B_cells"]) == 3
        assert all(len(c) == 2 for c in d["B_cells"])

    @pytest.mark.parametrize("sigma", ROW_VIEW_SIGMAS)
    def test_dicts_match_row_views(self, sigma):
        # the one-pass writer, which renders each distinct drift-argument row once,
        # against a cell-by-cell scan of each term's rows of the stacked arrays
        terms = expand(uniform_spec(sigma))
        if sigma in WIDE_SIGMAS:
            rows = np.unique(terms.args.reshape(-1, len(terms.cells)), axis=0)
            merged = len(rows) - len(np.unique(rows[:, :64], axis=0))
            assert (len(terms), len(terms.cells), merged) == WIDE_SIGMAS[sigma]
        assert terms.to_dicts() == reference_term_dicts(terms)

    def test_table_reproduces_pinned_gamma_tau_shift(self):
        # the term dicts omit gamma, tau and shift; these digests pin them
        golden = json.loads(EXPAND_DIGESTS.read_text())["table_sha256"]
        for n in range(1, 7):
            digest = hashlib.sha256()
            for sigma in itertools.permutations(range(1, n + 1)):
                terms = expand(uniform_spec(sigma))
                rows = [list(row) for row in zip(terms.gamma.tolist(), terms.tau.tolist(),
                                                 terms.shift.tolist())]
                digest.update(json.dumps(rows, separators=(",", ":")).encode() + b"\n")
            assert digest.hexdigest() == golden[str(n)], n


class TestShiftLemmas:
    def test_identity_two_points(self):
        # J = {1}; the substitution column of row 1 exists and equals 2
        terms = expand(uniform_spec((1, 2)))
        k = k_row(terms, (1,))
        assert terms.tau[k].tolist() == [2]

    def test_decreasing_vacuous(self):
        # no crossing rows: one term and no substitution column
        terms = expand(uniform_spec((3, 2, 1)))
        assert terms.tau.shape == (1, 0)


class TestSpecValidation:
    def test_tied_times_rejected(self):
        with pytest.raises(DegenerateGridError):
            PermutationSpec((1, 2), (0.5, 0.5), (0.5, 1.0))

    def test_nonpermutation_rejected(self):
        with pytest.raises(ValueError):
            PermutationSpec((1, 1), (0.5, 1.0), (0.5, 1.0))
        # () would pass the permutation test against 1..len(sigma)
        with pytest.raises(ValueError, match="sigma must not be empty"):
            PermutationSpec((), (), ())

    def test_uniform_spec_times(self):
        spec = uniform_spec((2, 1), horizon=0.5)
        assert spec.s_times == (0.25, 0.5)
        assert spec.t_times == (0.25, 0.5)
