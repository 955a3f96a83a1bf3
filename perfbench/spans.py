"""Spans and counters recorded around the public functions of sheetsde.

Tracing never edits the library.  For the duration of one traced op it
rebinds module attributes (the names cli_runner, sde_plane and estimate_lab
look up at call time) to timing wrappers, and restores them afterwards.
Drift and bump-factor objects are wrapped field by field as the patched
constructors return them.

A span records its call count, its inclusive time and the time of the spans
it directly caused, so a layer's self time is inclusive minus child time.
A binding that no longer exists is skipped; its span then records no calls
and the report marks it missing instead of reading it as zero seconds.
"""

from __future__ import annotations

import dataclasses
import math
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

#: every span the benchmark declares; workloads name the ones they expect
SPANS = (
    "cli_runner.run",
    "cli_runner.to_json",
    "brownian_sheet.normal_fill",
    "brownian_sheet.sample",
    "brownian_sheet.cumulative_values",
    "sde_plane.girsanov_weak_expectation",
    "sde_plane.euler_weak_expectation",
    "sde_plane.drift_eval",
    "sde_plane.jacobian",
    "sde_plane.solve_euler",
    "sde_plane.malliavin_solve",
    "integrators.monte_carlo",
    "integrators.integrand",
    "integrators.gauss_hermite",
    "estimate_lab.direct_expectation",
    "estimate_lab.ibp_expectation",
    "estimate_lab.factor_eval",
    "ibp_engine.expand",
    "ibp_engine.term_to_dict",
)


class Tracer:
    """In-memory span statistics for one process; single caller, no threads."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.child: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.largest_fill: tuple[int, ...] = ()
        self._stack: list[list[float]] = []

    def span(self, name: str, fn, count=None):
        """Wrap fn so that every call records a span; count(result) adds counters."""
        if name not in SPANS:
            raise ValueError(f"undeclared span {name!r}")

        def traced(*args, **kwargs):
            frame = [0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += elapsed
                self.calls[name] += 1
                self.total[name] += elapsed
                self.child[name] += frame[0]
            if count is not None:
                count(result)
            return result

        return traced

    def self_time(self, name: str) -> float:
        return self.total[name] - self.child[name]

    # counters, recorded at the same boundaries as the spans

    def _count_fill(self, batch) -> None:
        self.counts["normals"] += batch.size
        self.counts["fill_bytes"] += batch.nbytes
        self.counts["mc_chunks"] += 1
        if batch.size > math.prod(self.largest_fill):
            self.largest_fill = tuple(batch.shape)

    def _count_sample(self, sheet) -> None:
        self.counts["normals"] += sheet.increments.size
        self.counts["fill_bytes"] += sheet.increments.nbytes

    def _count_points(self, values) -> None:
        self.counts["drift_eval_points"] += math.prod(values.shape[:-1])

    def count_json(self, text) -> None:
        self.counts["json_bytes"] += len(text)

    def _count_terms(self, terms) -> None:
        self.counts["terms"] += len(terms)

    # wrappers for what the patched bindings hand out

    def _monte_carlo(self, orig):
        def monte_carlo(f, sampler, n, *rest, **kwargs):
            self.counts["mc_samples"] += n
            return orig(
                self.span("integrators.integrand", f),
                self.span("brownian_sheet.normal_fill", sampler, self._count_fill),
                n, *rest, **kwargs,
            )

        return self.span("integrators.monte_carlo", monte_carlo)

    def _gauss_hermite(self, orig):
        def gauss_hermite(f, dims, nodes_per_dim, *rest, **kwargs):
            self.counts["gh_points"] += nodes_per_dim ** dims
            return orig(f, dims, nodes_per_dim, *rest, **kwargs)

        return self.span("integrators.gauss_hermite", gauss_hermite)

    def _drift_factory(self, orig):
        def make(*args, **kwargs):
            drift = orig(*args, **kwargs)
            fields = {"eval": self.span("sde_plane.drift_eval", drift.eval, self._count_points)}
            if drift.jacobian is not None:
                fields["jacobian"] = self.span("sde_plane.jacobian", drift.jacobian)
            return dataclasses.replace(drift, **fields)

        return make

    def _factor_factory(self, orig):
        def make(*args, **kwargs):
            factor = orig(*args, **kwargs)
            return dataclasses.replace(
                factor,
                b=self.span("estimate_lab.factor_eval", factor.b),
                b_prime=self.span("estimate_lab.factor_eval", factor.b_prime),
            )

        return make

    def bindings(self, cli, sde, est):
        """(module, attribute, make_wrapper) for every binding the trace rebinds."""
        plain = lambda name, count=None: lambda orig: self.span(name, orig, count)
        return [
            (cli, "girsanov_weak_expectation", plain("sde_plane.girsanov_weak_expectation")),
            (cli, "euler_weak_expectation", plain("sde_plane.euler_weak_expectation")),
            (cli, "solve_euler", plain("sde_plane.solve_euler")),
            (cli, "malliavin_solve", plain("sde_plane.malliavin_solve")),
            (cli, "sample", plain("brownian_sheet.sample", self._count_sample)),
            (sde, "cumulative_values", plain("brownian_sheet.cumulative_values")),
            (cli, "expand", plain("ibp_engine.expand", self._count_terms)),
            (est, "expand", plain("ibp_engine.expand", self._count_terms)),
            (cli, "term_to_dict", plain("ibp_engine.term_to_dict")),
            (sde, "monte_carlo", self._monte_carlo),
            (est, "monte_carlo", self._monte_carlo),
            (est, "gauss_hermite", self._gauss_hermite),
            (est, "direct_expectation", plain("estimate_lab.direct_expectation")),
            (est, "ibp_expectation", plain("estimate_lab.ibp_expectation")),
            (cli, "bump_factor", self._factor_factory),
            (cli, "sign_drift", self._drift_factory),
            (cli, "tanh_drift", self._drift_factory),
        ]


@contextmanager
def rebound(bindings):
    """Rebind each present attribute to its wrapper; restore all on exit."""
    saved = []
    try:
        for module, attr, make in bindings:
            if hasattr(module, attr):
                orig = getattr(module, attr)
                saved.append((module, attr, orig))
                setattr(module, attr, make(orig))
        yield
    finally:
        for module, attr, orig in reversed(saved):
            setattr(module, attr, orig)
