"""Shared test plumbing.

The acceptance tests record one human-readable line per criterion; the
terminal-summary hook prints them after the run regardless of capture
settings, so the criterion verdicts survive in piped logs.
"""

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
