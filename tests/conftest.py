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


def counting_jacobian(drift: DriftField, calls: list) -> DriftField:
    """The same drift with a Jacobian that appends its x shape to calls."""

    def jac(s, t, x):
        calls.append(np.shape(x))
        return drift.jacobian(s, t, x)

    return DriftField(drift.name, drift.dim, drift.eval, jac, drift.sup_norm, drift.smooth)


def counting_eval(drift: DriftField, calls: list) -> DriftField:
    """The same drift with an eval that appends its x shape to calls."""

    def ev(s, t, x):
        calls.append(np.shape(x))
        return drift.eval(s, t, x)

    return DriftField(drift.name, drift.dim, ev, drift.jacobian, drift.sup_norm, drift.smooth)


def linear_drift(a: float) -> DriftField:
    """b(x) = a x in one dimension: unbounded, but its Euler chain and
    derivative fields have closed forms on a uniform grid."""

    def ev(s, t, x):
        return a * np.asarray(x, dtype=float)

    def jac(s, t, x):
        return np.full(np.shape(x) + (1,), a)

    return DriftField("linear", 1, ev, jac, math.inf, True)

