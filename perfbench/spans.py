"""Span tracing of the ``skrp`` layers, installed from the benchmark's files.

``Tracer.install`` wraps the public callables of each module of
``src/skrp`` (and every name another module imported them under), the
``g`` / ``phi`` / ``domain`` callables of the charts the build functions return,
and the ``q`` / ``dq`` / ``d2q`` callables of every profile.  Each call
records a span (name, start, end, parent span, pass id, chart dimension,
points handled, whether it ran inside a geodesic integration) in flat
arrays; ``per_layer`` turns them into the per-layer metrics, and ``save``
writes them out when the run ends.

A span's self time is its duration minus the durations of its direct
children.  The layer of a span is the module prefix of its name; spans
named ``bench.*`` are the benchmark's own code.
"""

from __future__ import annotations

import dataclasses
import inspect
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

from skrp import cli, models, profiles, reparam, tensor, verify

from probe import patch_everywhere

LAYERS = ("profiles", "reparam", "models", "tensor", "verify", "cli",
          "bench")
DIMS = (4, 6, 8)
# Every check any workload runs; cli.check_s.<name> is reported for each.
CHECK_NAMES = ("curvature_constant", "distance", "boundary", "skrp_blocks",
               "identities", "kahler", "killing", "conformal_einstein",
               "soliton", "normal_geodesics", "classify")


def _npoints(x) -> int:
    """Points in a point argument: (n,) is one point, (N, n) is N."""
    shape = np.shape(x)
    return 1 if len(shape) < 2 else int(shape[0])


def _chart_dim(args) -> int:
    return int(getattr(args[0], "n", 0)) if args else 0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.code = array("i")
        self.parent = array("i")
        self.pass_id = array("i")
        self.dim = array("i")
        self.points = array("q")
        self.in_geo = array("b")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.geo_depth = 0
        self.pass_no = -1
        self.alive = 0
        self.paths = 0

    # -- spans ---------------------------------------------------------------

    def span(self, name, fn, dim=None, points=None, after=None):
        """``fn`` wrapped so that each call records one span.

        ``dim(args)`` and ``points(args, kwargs)`` annotate the span;
        ``after(result)`` may replace the result (to wrap what it returns).
        """
        code = self._codes.setdefault(name, len(self.names))
        if code == len(self.names):
            self.names.append(name)
        is_geo = name == "tensor.geodesic_batch"

        def traced(*args, **kwargs):
            k = len(self.start)
            stack = self.stack
            self.code.append(code)
            self.parent.append(stack[-1] if stack else -1)
            self.pass_id.append(self.pass_no)
            self.dim.append(dim(args) if dim is not None else 0)
            self.points.append(points(args, kwargs) if points is not None
                               else 0)
            self.in_geo.append(self.geo_depth > 0)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(k)
            self.geo_depth += is_geo
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.geo_depth -= is_geo
                self.start[k] = t0
                self.end[k] = t1
            return after(result) if after is not None else result

        traced.__wrapped__ = fn
        return traced

    def _module_fn(self, module, attr, name, **hooks):
        original = getattr(module, attr)
        patch_everywhere(original, self.span(name, original, **hooks))

    def _method(self, cls, attr, name, **hooks):
        setattr(cls, attr, self.span(name, getattr(cls, attr), **hooks))

    # -- wrapping what the build functions return ----------------------------

    def _traced_profile(self, prof):
        size = lambda args, kwargs: int(np.size(args[0]))
        return dataclasses.replace(
            prof, q=self.span("profiles.q", prof.q, points=size),
            dq=self.span("profiles.dq", prof.dq, points=size),
            d2q=self.span("profiles.d2q", prof.d2q, points=size))

    def _traced_chart(self, chart):
        n = chart.n
        dim = lambda args: n
        pts = lambda args, kwargs: _npoints(args[0])
        return dataclasses.replace(
            chart, g=self.span("models.g", chart.g, dim=dim, points=pts),
            phi=self.span("models.phi", chart.phi, dim=dim, points=pts),
            domain=self.span("models.domain", chart.domain, dim=dim,
                             points=pts))

    def _traced_sphere(self, model):
        return dataclasses.replace(model, chart=self._traced_chart(model.chart))

    def _count_alive(self, path):
        self.alive += int(np.sum(path.alive))
        self.paths += int(np.size(path.alive))
        return path

    # -- installation --------------------------------------------------------

    def install(self):
        x_points = lambda args, kwargs: _npoints(args[1])

        for attr in ("find_admissible_interval", "check_boundary",
                     "soliton_profile", "symmetric_family_report",
                     "slope_constraint_poly", "classify_type", "check_type_c",
                     "soliton_ode_residual"):
            self._module_fn(profiles, attr, f"profiles.{attr}")
        self._module_fn(profiles, "make_profile", "profiles.make_profile",
                        after=self._traced_profile)

        for attr in ("build_reparam", "dual_table", "critical_distance",
                     "boundary_limits"):
            self._module_fn(reparam, attr, f"reparam.{attr}")
        table = reparam.ReparamTable
        self._method(table, "phi_of_r", "reparam.phi_of_r",
                     points=lambda args, kwargs: int(np.size(args[1])))
        for attr in ("dense_phi_of_logr", "r_of_phi", "log_r", "s_of_phi"):
            self._method(table, attr, f"reparam.{attr}")

        for attr in ("build_shell", "build_annulus", "build_product"):
            self._module_fn(models, attr, f"models.{attr}",
                            after=self._traced_chart)
        self._module_fn(models, "build_sphere", "models.build_sphere",
                        after=self._traced_sphere)
        for attr in ("ball_extension_coeffs", "ball_metric", "sample_points",
                     "tautological_connection"):
            self._module_fn(models, attr, f"models.{attr}")

        for attr in ("metric_jet", "curvature", "potential_derivatives",
                     "kahler_residuals", "killing_residual",
                     "connection_coefficients"):
            self._module_fn(tensor, attr, f"tensor.{attr}", dim=_chart_dim,
                            points=x_points)
        # verify imports this finite-difference helper by name.
        self._module_fn(tensor, "_batch_grad_scalar",
                        "tensor._batch_grad_scalar", dim=_chart_dim,
                        points=lambda args, kwargs: _npoints(args[2]))
        steps = inspect.signature(tensor.geodesic_batch)

        def path_steps(args, kwargs):
            bound = steps.bind(*args, **kwargs)
            bound.apply_defaults()
            return len(bound.arguments["x0"]) * int(bound.arguments["n_steps"])
        self._module_fn(tensor, "geodesic_batch", "tensor.geodesic_batch",
                        dim=_chart_dim, points=path_steps,
                        after=self._count_alive)

        for attr in ("skrp_report", "identity_report",
                     "conformal_einstein_report", "soliton_report"):
            self._module_fn(verify, attr, f"verify.{attr}", dim=_chart_dim,
                            points=x_points)
        for attr in ("sphere_normal_geodesics", "shell_normal_geodesics"):
            self._module_fn(verify, attr, "verify.normal_geodesics")
        self._module_fn(verify, "classify_model", "verify.classify_model")
        for attr in ("y_field", "q_field"):
            self._field_factory(attr)

        for attr in ("parse_profile", "parse_model", "parse_fd"):
            self._module_fn(cli, attr, "cli.parse")
        for attr in ("_render_report", "render_summary"):
            self._module_fn(cli, attr, "cli.render")
        self._module_fn(cli, "run_sweep", "cli.sweep")
        self._module_fn(cli, "run_build", "cli.build")
        self._module_fn(cli, "run_config", "cli.run_config")
        for name, fn in list(cli.CHECKS.items()):
            cli.CHECKS[name] = self.span(f"cli.check.{name}", fn)

    def _field_factory(self, attr):
        """``verify.y_field(chart, fd)`` returns a batch callable; trace
        the callable, which is where the work happens."""
        factory = getattr(verify, attr)
        name = f"verify.{attr}"

        def traced_factory(chart, fd):
            return self.span(name, factory(chart, fd), dim=lambda a: chart.n,
                             points=lambda args, kwargs: _npoints(args[0]))
        patch_everywhere(factory, traced_factory)

    # -- results ---------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {"names": np.array(self.names),
                **{key: np.frombuffer(getattr(self, key),
                                      dtype=getattr(self, key).typecode)
                   for key in ("code", "parent", "pass_id", "dim", "points",
                               "in_geo", "start", "end")}}

    def save(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, **self.arrays())


def per_layer(tracer: Tracer, tally, passes: int, traced_pass_s: float,
              untraced_pass_s: float) -> tuple[dict, dict]:
    """Per-layer metrics per traced pass, plus the layer table for print.

    ``tally`` is the probe's tally of the traced passes; it supplies the
    pointwise sample points by chart dimension and the check results.
    """
    a = tracer.arrays()
    names = a["names"]
    code, parent, dim, pts, in_geo = (a["code"], a["parent"], a["dim"],
                                      a["points"], a["in_geo"].astype(bool))
    dur = a["end"] - a["start"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=len(dur))
    self_t = dur - child
    codes_of = lambda keep: np.array(
        [i for i, nm in enumerate(names) if keep(str(nm))], dtype=np.int64)

    def mask(*wanted, prefix=None):
        if prefix is not None:
            return np.isin(code, codes_of(lambda nm: nm.startswith(prefix)))
        return np.isin(code, codes_of(lambda nm: nm in wanted))

    per = lambda x: float(x) / passes
    ratio = lambda num, den: float(num) / den if den else 0.0
    metrics: dict[str, tuple[float, str]] = {}

    def put(name, value, unit):
        metrics[name] = (float(value), unit)

    def self_s(name, *names_):
        put(f"{name}.self_s", per(self_t[mask(*(names_ or (name,)))].sum()),
            "s")

    put("profiles.self_s", per(self_t[mask(prefix="profiles.")].sum()), "s")
    q = mask("profiles.q")
    put("profiles.q_calls", per(q.sum()), "count")
    put("profiles.q_points", per(pts[q].sum()), "count")

    for fn in ("build_reparam", "dense_phi_of_logr", "phi_of_r"):
        self_s(f"reparam.{fn}")
    r = mask("reparam.phi_of_r")
    put("reparam.phi_of_r.radii", per(pts[r].sum()), "count")
    put("reparam.phi_of_r.us_per_radius",
        1e6 * ratio(dur[r].sum(), pts[r].sum()), "us")
    self_s("reparam.critical_distance")

    self_s("models.build", "models.build_shell", "models.build_annulus",
           "models.build_sphere", "models.build_product")
    g = mask("models.g")
    put("models.g.calls", per(g.sum()), "count")
    put("models.g.points", per(pts[g].sum()), "count")
    put("models.g.points_per_call", ratio(pts[g].sum(), g.sum()),
        "points/call")
    self_s("models.g")
    for n in DIMS:
        put(f"models.g.points_per_point.n{n}",
            ratio(pts[g & (dim == n) & ~in_geo].sum(), tally.points[n]),
            "points/point")
    put("models.g.points_per_path_step",
        ratio(pts[g & in_geo].sum(), tally.path_steps), "points/step")
    put("models.phi.points", per(pts[mask("models.phi")].sum()), "count")
    put("models.domain.points", per(pts[mask("models.domain")].sum()),
        "count")

    jet = mask("tensor.metric_jet")
    for n in DIMS:
        put(f"tensor.metric_jet.calls_per_point.n{n}",
            ratio((jet & (dim == n)).sum(), tally.points[n]), "calls/point")
    self_s("tensor.metric_jet")
    curv = mask("tensor.curvature")
    for n in DIMS:
        sel = curv & (dim == n)
        put(f"tensor.curvature.ms_per_point.n{n}",
            1e3 * ratio(dur[sel].sum(), pts[sel].sum()), "ms")
    pot = mask("tensor.potential_derivatives")
    put("tensor.potential_derivatives.calls", per(pot.sum()), "count")
    self_s("tensor.potential_derivatives")
    self_s("tensor.kahler_residuals")
    self_s("tensor.killing_residual")
    geo = mask("tensor.geodesic_batch")
    self_s("tensor.geodesic_batch")
    put("tensor.geodesic_batch.us_per_path_step",
        1e6 * ratio(dur[geo].sum(), pts[geo].sum()), "us")
    put("tensor.geodesic_batch.alive_ratio",
        ratio(tracer.alive, tracer.paths), "ratio")

    for report in ("skrp_report", "identity_report"):
        sel_r = mask(f"verify.{report}")
        for n in DIMS:
            sel = sel_r & (dim == n)
            put(f"verify.{report}.ms_per_point.n{n}",
                1e3 * ratio(dur[sel].sum(), pts[sel].sum()), "ms")
    y = mask("verify.y_field")
    put("verify.y_field.points", per(pts[y].sum()), "count")
    self_s("verify.y_field")
    put("verify.y_field.total_s", per(dur[y].sum()), "s")
    self_s("verify.conformal_einstein_report")
    self_s("verify.soliton_report")
    self_s("verify.normal_geodesics")
    put("verify.fans_integrated", per(geo.sum()), "count")

    for check in CHECK_NAMES:
        put(f"cli.check_s.{check}",
            per(dur[mask(f"cli.check.{check}")].sum()), "s")
    for part in ("parse", "render", "sweep", "build"):
        self_s(f"cli.{part}")
    put("verify.residual_ratio_max", tally.ratio_max, "ratio")
    put("cli.checks_attempted", per(tally.check_rows), "count")
    put("cli.checks_failed", per(tally.check_rows_failed), "count")

    passes_dur = dur[mask("bench.pass")].sum()
    layer_self = {layer: self_t[mask(prefix=f"{layer}.")].sum()
                  for layer in LAYERS}
    for layer in LAYERS[1:]:
        put(f"{layer}.self_s", per(layer_self[layer]), "s")
    put("trace.pass_s", traced_pass_s, "s")
    put("trace.untraced_pass_s", untraced_pass_s, "s")
    put("trace.overhead_s", traced_pass_s - untraced_pass_s, "s")
    put("trace.covered_ratio",
        ratio(sum(v for k, v in layer_self.items() if k != "bench"),
              passes_dur), "ratio")

    top_self = np.bincount(code, weights=self_t, minlength=len(names))
    top_total = np.bincount(code, weights=dur, minlength=len(names))
    table = {
        "layers": {k: per(v) for k, v in layer_self.items()},
        "pass_s": per(passes_dur),
        "top": sorted(zip(map(str, names), map(per, top_self),
                          map(per, top_total)), key=lambda t: -t[1])[:12],
        "spans": int(len(dur)),
    }
    return metrics, table
