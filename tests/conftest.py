"""Shared test plumbing.

The acceptance tests record one human-readable line per criterion; the
terminal-summary hook prints them after the run regardless of capture
settings, so the criterion verdicts survive in piped logs.
"""

import math

import numpy as np

from sheetsde.sde_plane import DriftField

_CRITERION_LINES: list[str] = []


def record_criterion(line: str) -> None:
    _CRITERION_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _CRITERION_LINES:
            terminalreporter.write_line(line)


class NoArrays:
    """Stands in for numpy in a module under test, so that any array it builds fails the test."""

    def __getattr__(self, name):
        raise AssertionError(f"built an array (numpy.{name}) past the enumeration limit")


def counting_jacobian(drift: DriftField, calls: list) -> DriftField:
    """The same drift with a Jacobian that appends its x shape to calls."""

    def jac(x):
        calls.append(np.shape(x))
        return drift.jacobian(x)

    return DriftField(drift.name, drift.dim, drift.eval, jac, drift.sup_norm)


def counting_eval(drift: DriftField, calls: list) -> DriftField:
    """The same drift with an eval that appends its x shape to calls."""

    def ev(x):
        calls.append(np.shape(x))
        return drift.eval(x)

    return DriftField(drift.name, drift.dim, ev, drift.jacobian, drift.sup_norm)


def reference_term_dicts(terms) -> list[dict]:
    """The term list of an expand TermTable, scanned cell by cell from its stacked arrays."""
    cells = terms.cells.tolist()
    dicts = []
    for k in range(len(terms)):
        grad = terms.grad[k].tolist()
        dicts.append({
            "K": [i for i, inside in zip(terms.crossing, terms.in_K[k].tolist()) if inside],
            "sign": int(terms.sign[k]),
            "B_cells": [cells[g] for g in grad],
            "E_cells": [c for g, c in enumerate(cells) if g not in grad],
            "b_arg_sets": [[c for c, a in zip(cells, row) if a] for row in terms.args[k].tolist()],
        })
    return dicts


def linear_drift(a: float) -> DriftField:
    """b(x) = a x in one dimension: unbounded, but its Euler chain and
    derivative fields have closed forms on a uniform grid."""

    def ev(x):
        return a * np.asarray(x, dtype=float)

    def jac(x):
        return np.full(np.shape(x) + (1,), a)

    return DriftField("linear", 1, ev, jac, math.inf)

