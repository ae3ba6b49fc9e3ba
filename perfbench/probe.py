"""Light accounting installed in every run, traced or not.

The probe wraps the few calls that delimit the end-to-end units (each entry
of ``cli.CHECKS``, the chart constructors ``cli.parse_profile`` /
``cli.parse_model`` and ``tensor.geodesic_batch``), so a pass costs a few
dozen ``perf_counter`` calls more.  A check that raises ``SkrpError``
becomes a failed ``CheckResult`` here instead of ending the run.

Each check call, chart build and geodesic fan is a timed *step* of the pass
with a kind (``point``, ``path``, ``chart`` or ``other``) and the work it
did (sample points, path-steps, charts).  A pass runs the same steps in the
same order every time, so the runner can compare a step across passes.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from time import perf_counter

from skrp import cli, tensor
from skrp.errors import SkrpError

# Checks whose time and sample points make up points_per_s.
POINTWISE = frozenset({"skrp_blocks", "identities", "kahler", "killing",
                       "conformal_einstein", "soliton", "curvature_constant"})
# Checks whose time makes up path_steps_per_s.
PATHWISE = frozenset({"normal_geodesics", "distance"})


def patch_everywhere(original, replacement):
    """Rebind every ``skrp`` module attribute that holds ``original``.

    Modules import each other's functions by name (``verify`` holds its own
    ``curvature``), so patching only the defining module would miss calls.
    """
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "skrp" or name.startswith("skrp.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


@dataclass
class Tally:
    """Counts and timed steps of one pass or phase of a run."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    ratio_max: float = 0.0
    points: Counter = field(default_factory=Counter)   # chart n -> points
    path_steps: int = 0
    steps: list = field(default_factory=list)   # (kind, seconds, work)
    check_rows: int = 0          # CheckResult rows returned by the program
    check_rows_failed: int = 0

    def __add__(self, other: "Tally") -> "Tally":
        return Tally(**{
            f.name: (max(getattr(self, f.name), getattr(other, f.name))
                     if f.name == "ratio_max"
                     else getattr(self, f.name) + getattr(other, f.name))
            for f in fields(self)})


class Probe:
    def __init__(self):
        self.tally = Tally()
        self._depth = 0

    def reset(self) -> Tally:
        done, self.tally = self.tally, Tally()
        return done

    # -- output checks --------------------------------------------------------

    def expect(self, ok: bool, what: str):
        """One output check made by the benchmark itself."""
        self.tally.attempted += 1
        if not ok:
            self.tally.failed += 1
            self.tally.failures.append(what)

    def _results(self, name: str, results):
        tally = self.tally
        for r in results:
            tally.attempted += 1
            tally.check_rows += 1
            if not r.passed:
                tally.failed += 1
                tally.check_rows_failed += 1
                tally.failures.append(f"check {name}/{r.name}: residual "
                                      f"{r.residual!r} > {r.tolerance!r} "
                                      f"{r.note}")
            if r.tolerance > 0 and math.isfinite(r.residual):
                tally.ratio_max = max(tally.ratio_max,
                                      r.residual / r.tolerance)

    # -- timed steps ---------------------------------------------------------

    @contextmanager
    def step(self, kind: str, work: float = 0):
        """Time one step of a pass; a ``path`` step's work is the path-steps
        integrated inside it, and a ``path`` step that integrates none (the
        quadrature-only ``distance`` check of a shell) counts as ``other``.
        A step inside another is part of the outer."""
        outer = self._depth == 0
        self._depth += 1
        steps_before = self.tally.path_steps
        t0 = perf_counter()
        try:
            yield
        finally:
            elapsed = perf_counter() - t0
            self._depth -= 1
            if outer:
                if kind == "path":
                    work = self.tally.path_steps - steps_before
                    kind = "path" if work else "other"
                self.tally.steps.append((kind, elapsed, work))

    # -- installation --------------------------------------------------------

    def install(self):
        for name, fn in list(cli.CHECKS.items()):
            cli.CHECKS[name] = self._check(name, fn)
        patch_everywhere(cli.parse_profile,
                         self._chart_step(cli.parse_profile, charts=0))
        patch_everywhere(cli.parse_model,
                         self._chart_step(cli.parse_model, charts=1))
        patch_everywhere(tensor.geodesic_batch,
                         self._counted_geodesics(tensor.geodesic_batch))

    def _check(self, name, fn):
        kind = ("point" if name in POINTWISE else
                "path" if name in PATHWISE else "other")

        @functools.wraps(fn)
        def run_check(ctx, params, fd, seed):
            points = int(params["points"]) if kind == "point" else 0
            with self.step(kind, points):
                try:
                    results = fn(ctx, params, fd, seed)
                except SkrpError as exc:
                    results = [cli.CheckResult(
                        name=name, residual=math.inf,
                        tolerance=float(params.get("tolerance", 0.0)),
                        passed=False,
                        note=f"raised {type(exc).__name__}: {exc}")]
            if points:
                self.tally.points[ctx.chart.n] += points
            self._results(name, results)
            return results
        return run_check

    def _chart_step(self, fn, charts: int):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            with self.step("chart", charts):
                return fn(*args, **kwargs)
        return timed

    def _counted_geodesics(self, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def geodesic_batch(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            self.tally.path_steps += (len(bound.arguments["x0"])
                                      * int(bound.arguments["n_steps"]))
            return fn(*args, **kwargs)
        return geodesic_batch
