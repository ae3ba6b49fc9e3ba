"""Config-driven command line runner.

Subcommands: ``build`` (emit chart metadata and a sampled metric grid),
``verify`` (run a plan of named checks against a model), ``classify``,
``sweep`` (Cartesian parameter sweeps to CSV), ``report`` (render a summary
table from a report file).

Configs are JSON with strict schemas: unknown keys are rejected.  Reports
are deterministic given (config, seed) except for the single timestamp
line.  Exit codes: 0 all checks pass, 1 numeric failure (report still
written), 2 configuration error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime
import functools
import io
import itertools
import json
import math
import sys
import types
from typing import (Callable, Optional, Union, get_args, get_origin,
                    get_type_hints)

import numpy as np

from . import models, profiles, reparam, tensor, verify
from .errors import ConfigError, SkrpError

REPORT_FORMAT = "skrp-report format=1"


# ---------------------------------------------------------------------------
# Strict config parsing
# ---------------------------------------------------------------------------

FAMILIES = {"quadratic": profiles.Quadratic, "type_a": profiles.TypeA,
            "type_b": profiles.TypeB, "type_c": profiles.TypeC,
            "polynomial": profiles.Polynomial, "custom": profiles.Custom}

# Variant -> (spec class, name of its ``models`` function, looked up per call).
VARIANTS = {"shell": (models.ShellSpec, "build_shell"),
            "annulus": (models.AnnulusSpec, "build_annulus"),
            "sphere": (models.SphereSpec, "build_sphere"),
            "product": (models.ProductSpec, "build_product")}


def _require_keys(node: dict, allowed: set, required: set, where: str):
    if not isinstance(node, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = set(node) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(node)
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")


def _value(value, kind, where: str):
    """value checked against a field type: int, float (an int will do; a
    float must be finite), bool, str, or ``[Optional] tuple[...]``, a list of
    that many numbers (any number for a bare tuple) returned as a tuple."""
    if get_origin(kind) in (Union, types.UnionType):
        kind, = (t for t in get_args(kind) if t is not type(None))
    if kind is tuple or get_origin(kind) is tuple:
        size = len(get_args(kind))
        if not isinstance(value, list) or size and len(value) != size:
            raise ConfigError(f"{where}: expected a list of "
                              f"{size or 'any number of'} numbers")
        return tuple(_value(v, float, where) for v in value)
    # A bool is an int to isinstance, but no number in a config.
    allowed = {bool: bool, int: int, float: (int, float), str: str}[kind]
    if (not isinstance(value, allowed)
            or isinstance(value, bool) != (kind is bool)):
        raise ConfigError(f"{where}: expected {kind.__name__}, got {value!r}")
    # json reads NaN and Infinity, which no parameter or tolerance can be.
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    return value


def _kind(node: dict, key: str, table: dict, where: str) -> str:
    """node[key], which must name an entry of table."""
    value = node.get(key) if isinstance(node, dict) else None
    if not isinstance(value, str) or value not in table:
        raise ConfigError(f"{where}: {key} must be one of {sorted(table)}, "
                          f"got {value!r}")
    return value


_field_types = functools.cache(get_type_hints)   # spec class -> {field: type}


def _spec(cls, node: dict, where: str, extra: set = frozenset(), **given):
    """The spec dataclass cls from the config object node, whose keys are
    the fields of cls not in ``given`` (required unless defaulted, checked
    against their types) and ``extra``."""
    hints = _field_types(cls)
    fields = [f for f in dataclasses.fields(cls) if f.name not in given]
    _require_keys(node, {f.name for f in fields} | extra,
                  {f.name for f in fields if f.default is dataclasses.MISSING},
                  where)
    kwargs = {f.name: _value(node[f.name], hints[f.name], f"{where}.{f.name}")
              for f in fields if f.name in node}
    try:
        return cls(**given, **kwargs)
    except SkrpError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def parse_profile(node: dict) -> profiles.Profile:
    family = _kind(node, "family", FAMILIES, "profile")
    spec = _spec(FAMILIES[family], node, "profile",
                 {"family", "interval", "find_interval"})
    # An interval on which Q is not admissible is bad input like any other.
    try:
        if "interval" in node:
            return profiles.make_profile(spec, _value(
                node["interval"], tuple[float, float], "profile.interval"))
        if "find_interval" in node:
            fi = node["find_interval"]
            _require_keys(fi, {"seed"}, {"seed"}, "profile.find_interval")
            return profiles.find_admissible_interval(
                spec, _value(fi["seed"], float, "profile.find_interval.seed"))
        if family == "quadratic":
            return profiles.make_profile(spec,
                                         (-abs(spec.phi0), abs(spec.phi0)))
    except ConfigError:
        raise
    except SkrpError as exc:
        raise ConfigError(f"profile: {exc}") from None
    raise ConfigError("profile: needs 'interval' or 'find_interval'")


class SampleSet:
    """One sample-point set of a run and what is evaluated at it, each on
    first use: the metric jet, first order until a check asks for curvature
    (then the jet of ``tensor.curvature``), and the potential derivatives.

    The first-order part of a second-order jet is the first-order jet bit
    for bit, so every check reads the numbers it would evaluate alone.  An
    evaluation that raises keeps nothing, so the next check that asks
    evaluates it again and meets the same error.  It holds no lock: the
    checks of a run ask one at a time."""

    def __init__(self, chart: tensor.ChartMetric, points: np.ndarray,
                 fd: tensor.FDConfig):
        self.chart, self.points, self.fd = chart, points, fd
        points.flags.writeable = False
        self._jet = self._curv = self._pot = None

    def jet(self) -> tensor.MetricJet:
        if self._jet is None:
            self._jet = tensor.metric_jet(self.chart, self.points, self.fd,
                                          second=False)
        return self._jet

    def curvature(self) -> tensor.CurvatureTensors:
        if self._curv is None:
            self._curv = tensor.curvature(self.chart, self.points, self.fd)
            self._jet = self._curv.jet
        return self._curv

    def potential(self) -> tensor.PotentialDerivatives:
        if self._pot is None:
            self._pot = tensor.potential_derivatives(
                self.chart, self.points, self.fd, jet=self.jet())
        return self._pot


@dataclasses.dataclass
class ModelContext:
    """A run's model, and the sample-point sets its checks have asked for,
    held as long as the context and shared by the checks that ask for the
    same set."""

    chart: Optional[tensor.ChartMetric]
    sphere: Optional[models.SphereModel]
    profile: Optional[profiles.Profile]
    variant: str
    _sample_sets: dict = dataclasses.field(
        default_factory=dict, init=False, repr=False, compare=False)

    def sample_set(self, count: int, seed: int,
                   fd: tensor.FDConfig) -> SampleSet:
        """The set of ``count`` points sampled with ``seed``: checks that
        ask with the same arguments share it."""
        key = (count, seed, fd)
        if key not in self._sample_sets:
            self._sample_sets[key] = SampleSet(
                self.chart, models.sample_points(self.chart, count, seed), fd)
        return self._sample_sets[key]


def parse_model(node: dict, profile: Optional[profiles.Profile]
                ) -> ModelContext:
    variant = _kind(node, "variant", VARIANTS, "model")
    cls, build = VARIANTS[variant]
    given = {"profile": profile} if "profile" in _field_types(cls) else {}
    if given and profile is None:
        raise ConfigError(f"{variant} model requires a profile")
    spec = _spec(cls, node, "model", {"variant"}, **given)
    try:
        built = getattr(models, build)(spec)
    except SkrpError as exc:
        raise ConfigError(f"model: {exc}") from None
    sphere = built if variant == "sphere" else None
    chart = built.chart if sphere else built
    return ModelContext(chart, sphere, chart.meta["profile"], variant)


def parse_fd(node: Optional[dict]) -> tensor.FDConfig:
    return _spec(tensor.FDConfig, {} if node is None else node, "fd")


def _context(config: dict, seed: Optional[int] = None
             ) -> tuple[ModelContext, int, tensor.FDConfig]:
    """Model, seed (a given one overrides the config's) and FD configuration
    of a ``verify``, ``build`` or ``classify`` config."""
    _require_keys(config, {"seed", "fd", "profile", "model", "checks", "out"},
                  {"model"}, "config")
    _value(config.get("out", ""), str, "config.out")
    own = _value(config.get("seed", 0), int, "config.seed")
    seed = own if seed is None else seed
    if seed < 0:
        raise ConfigError(f"seed: expected a non-negative int, got {seed}")
    fd = parse_fd(config.get("fd"))
    profile = parse_profile(config["profile"]) if "profile" in config else None
    return parse_model(config["model"], profile), int(seed), fd


# ---------------------------------------------------------------------------
# Check registry
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tolerance: float
    passed: bool
    note: str = ""


def _result(name, residual, tol, note=""):
    return CheckResult(name=name, residual=float(residual),
                       tolerance=float(tol),
                       passed=bool(residual <= tol), note=note)


def check_curvature_constant(ctx, params, fd, seed):
    """Gaussian curvature of the sphere chart equals K, including radii in
    [1e-3, 1e-2]."""
    if ctx.variant != "sphere":
        raise ConfigError("curvature_constant applies to the sphere model")
    K = ctx.chart.meta["K"]
    count = params["points"]
    rng = np.random.default_rng(seed)
    n_near = min(count, max(4, count // 5))
    r = np.concatenate([
        np.exp(rng.uniform(math.log(1e-3), math.log(1e-2), n_near)),
        np.exp(rng.uniform(math.log(0.05), math.log(2.0), count - n_near))])
    th = rng.uniform(0, 2 * math.pi, count)
    pts = np.column_stack([r * np.cos(th), r * np.sin(th)])
    gauss = tensor.curvature(ctx.chart, pts, fd).scalar / 2.0
    worst = float(np.max(np.abs(gauss - K) / K))
    return [_result("curvature_constant", worst, params["tolerance"],
                    note=f"relative deviation from K={K} at {count} points")]


def check_distance(ctx, params, fd, seed):
    """Distance invariant of the profile by quadrature against the expected
    value.  The sphere's geodesic pole-to-pole length is a row of
    normal_geodesics."""
    L = reparam.critical_distance(ctx.profile)
    return [_result("distance_quadrature", abs(L - params["expected"]),
                    params["tolerance"], note=f"L={L!r}")]


def check_skrp_blocks(ctx, params, fd, seed):
    s = ctx.sample_set(params["points"], seed, fd)
    rep = verify.skrp_report(ctx.chart, s.points, fd, curv=s.curvature(),
                             pot=s.potential())
    tol = params["tolerance"]
    return [
        _result("hess_orthogonal_block", rep.hess_h_res, tol),
        _result("hess_gradient_block", rep.hess_v_res, tol),
        _result("hess_mixed_block", rep.hess_mixed_res, tol),
        _result("ricci_orthogonal_block", rep.ricci_h_res, tol),
        _result("ricci_gradient_block", rep.ricci_v_res, tol),
        _result("ricci_mixed_block", rep.ricci_mixed_res, tol),
        _result("eps_sign_consistency", 0.0 if rep.eps_consistent else 1.0,
                0.5, note="sign of orthogonal-block eigenvalue matches eps"),
    ]


def check_identities(ctx, params, fd, seed):
    s = ctx.sample_set(params["points"], seed, fd)
    rep = verify.identity_report(ctx.chart, s.points, fd,
                                 curv=s.curvature(), pot=s.potential())
    tol = params["tolerance"]
    out = [
        _result("gradient_dq", rep.dq_res, tol),
        _result("laplacian_trace", rep.trace_res, tol),
        _result("gradient_dy", rep.dy_res, tol),
    ]
    if rep.sigma_ratio_res is not None:
        out.append(_result("sigma_ratio", rep.sigma_ratio_res, tol))
    else:
        out.append(_result("sigma_ratio", 0.0, tol, note="vacuous: eps=0"))
    if rep.profile_res is not None:
        out.append(_result("profile_slope", rep.profile_res, tol))
    out.append(_result("vertical_curvature", rep.vertical_res, tol))
    return out


def check_conformal_einstein(ctx, params, fd, seed):
    s = ctx.sample_set(params["points"], seed, fd)
    rep = verify.conformal_einstein_report(ctx.chart, s.points, fd,
                                           curv=s.curvature(),
                                           pot=s.potential())
    return [
        _result("einstein_residual", rep.einstein_res, params["tolerance"]),
        _result("einstein_constant_spread", rep.lambda_spread,
                params["tolerance"]),
        _result("wedge_residual", rep.wedge_res, 1e-6),
    ]


def check_kahler(ctx, params, fd, seed):
    s = ctx.sample_set(params["points"], seed, fd)
    worst = float(np.max(tensor.kahler_residuals(
        ctx.chart, s.points, fd, jet=s.jet()).worst()))
    return [_result("kahler_residuals", worst, params["tolerance"])]


def check_killing(ctx, params, fd, seed):
    s = ctx.sample_set(params["points"], seed, fd)
    worst = float(np.max(tensor.killing_residual(
        ctx.chart, s.points, fd, jet=s.jet(), pot=s.potential()).worst()))
    return [_result("killing_residuals", worst, params["tolerance"])]


def check_soliton(ctx, params, fd, seed):
    s = ctx.sample_set(params["points"], seed, fd)
    res = verify.soliton_report(ctx.chart, params["p"], params["s0"],
                                s.points, fd, curv=s.curvature(),
                                pot=s.potential())
    return [_result("soliton_residual", res, params["tolerance"])]


def check_normal_geodesics(ctx, params, fd, seed):
    if ctx.variant == "sphere":
        rep = verify.sphere_normal_geodesics(ctx.sphere, fd)
    elif ctx.variant == "shell":
        rep = verify.shell_normal_geodesics(ctx.chart, fd)
    else:
        raise ConfigError("normal_geodesics applies to sphere or shell")
    out = [
        _result("dphi_ds", rep.dphids_res, params["tolerance"]),
        _result("gauss_orthogonality", rep.gauss_res, 1e-4),
    ]
    if rep.distance_vs_L is not None:
        out.append(_result("distance_geodesic", rep.distance_vs_L, 1e-4))
    return out


def check_duality(ctx, params, fd, seed):
    """Inversion pullback of the dual annulus metric matches, and phi is
    preserved, at sampled points."""
    if ctx.variant != "annulus":
        raise ConfigError("duality applies to the annulus model")
    chart = ctx.chart
    a = chart.meta["a"]
    dual = models.build_annulus(models.AnnulusSpec(
        profile=ctx.profile, a=-a,
        phi_window=chart.meta["phi_window"]))
    pts = ctx.sample_set(params["points"], seed, fd).points
    star = models.inversion_point(pts)
    jac = models.inversion_jacobian(pts)
    g_orig = np.asarray(chart.g(pts))
    # The pullback J^T g* J of the dual metric, one matrix per point.
    pull = np.swapaxes(jac, 1, 2) @ np.asarray(dual.g(star)) @ jac
    g_gap = (np.max(np.abs(pull - g_orig), axis=(1, 2))
             / np.max(np.abs(g_orig), axis=(1, 2)))
    phi_gap = np.abs(np.asarray(chart.phi(pts)) - np.asarray(dual.phi(star)))
    worst_g = float(np.max(g_gap, initial=0.0))
    worst_phi = float(np.max(phi_gap, initial=0.0))
    return [
        _result("inversion_pullback", worst_g, params["tolerance"]),
        _result("inversion_phi", worst_phi, 1e-9),
    ]


def check_connection_form(ctx, params, fd, seed):
    """Curvature form of the canonical connection vs -2 times the
    Fubini-Study form on the affine chart of the projective line."""
    count = params["points"]
    rng = np.random.default_rng(seed)
    r = np.sqrt(rng.uniform(0.0, 4.0, count))
    th = rng.uniform(0, 2 * math.pi, count)
    pts = np.column_stack([r * np.cos(th), r * np.sin(th)])
    data = models.tautological_connection(pts, fd)
    worst = float(np.max(np.abs(data.omega.real + 2.0 * data.omega_fs),
                         initial=0.0))
    worst_im = float(np.max(np.abs(data.omega.imag), initial=0.0))
    return [
        _result("connection_curvature", worst, params["tolerance"]),
        _result("connection_curvature_imag", worst_im, 1e-8),
    ]


def check_boundary(ctx, params, fd, seed):
    rep = profiles.check_boundary(ctx.profile)
    s = rep.endpoint_slopes
    residual = abs(s[0] + s[1]) / max(abs(s[0]), abs(s[1]), 1e-300)
    return [_result("boundary_conditions",
                    residual if rep.passed else max(residual, 1.0),
                    params["tolerance"],
                    note=f"slopes={s!r}")]


def check_classify(ctx, params, fd, seed):
    tag = verify.classify_model(ctx.chart, ctx.profile)
    note = f"type={tag.tag} eps={tag.eps} excluded={tag.excluded}"
    if tag.note:
        note += f" ({tag.note})"
    return [_result("classification", 0.0, 1.0, note=note)]


CHECKS: dict[str, Callable] = {
    "curvature_constant": check_curvature_constant,
    "distance": check_distance,
    "skrp_blocks": check_skrp_blocks,
    "identities": check_identities,
    "conformal_einstein": check_conformal_einstein,
    "kahler": check_kahler,
    "killing": check_killing,
    "soliton": check_soliton,
    "normal_geodesics": check_normal_geodesics,
    "duality": check_duality,
    "connection_form": check_connection_form,
    "boundary": check_boundary,
    "classify": check_classify,
}

# Each check's parameters: key -> default, None for a required key.  A plan
# entry takes only its check's keys; ``_resolve`` fills in the defaults.
CHECK_PARAMS: dict[str, dict] = {
    "curvature_constant": {"points": 50, "tolerance": 1e-5},
    "distance": {"expected": None, "tolerance": 1e-8},
    "skrp_blocks": {"points": 100, "tolerance": 1e-5},
    "identities": {"points": 100, "tolerance": 1e-5},
    "conformal_einstein": {"points": 100, "tolerance": 1e-4},
    "kahler": {"points": 100, "tolerance": 1e-6},
    "killing": {"points": 100, "tolerance": 1e-6},
    "soliton": {"p": None, "s0": None, "points": 100, "tolerance": 1e-4},
    "normal_geodesics": {"tolerance": 1e-5},
    "duality": {"points": 100, "tolerance": 1e-10},
    "connection_form": {"points": 100, "tolerance": 1e-6},
    "boundary": {"tolerance": 1e-9},
    "classify": {},
}


def _resolve(entry: dict, tol_scale: float) -> tuple[str, dict]:
    """Check name and parameters of a plan entry: numbers of the default's
    type (float if required), points > 0, tolerance >= 0 times tol_scale."""
    name = _kind(entry, "name", CHECKS, "checks[]")
    table = CHECK_PARAMS[name]
    where = f"checks.{name}"
    _require_keys(entry, {"name", *table},
                  {"name", *(k for k, v in table.items() if v is None)}, where)
    params = {key: _value(entry.get(key, default),
                          float if default is None else type(default),
                          f"{where}.{key}")
              for key, default in table.items()}
    if params.get("points", 1) < 1:
        raise ConfigError(f"{where}.points: expected a positive int")
    if params.get("tolerance", 0.0) < 0:
        raise ConfigError(f"{where}.tolerance: expected a non-negative "
                          f"number, got {params['tolerance']!r}")
    if "tolerance" in params:
        params["tolerance"] *= tol_scale
    return name, params


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

def run_config(config: dict, seed_override: Optional[int] = None,
               tol_scale: float = 1.0, threads: int = 1) -> tuple[int, str]:
    """Execute a verification plan, one check after another; returns
    (exit_code, report_text).

    ``threads`` takes only 1, since the checks run one at a time; it is
    kept because ``perfbench/workloads.py`` still passes ``threads=1``, and
    goes once that call drops it (ROADMAP item 6)."""
    if threads != 1:
        raise ConfigError(f"threads: checks run one at a time, got "
                          f"{threads!r}")
    if not (math.isfinite(tol_scale) and tol_scale > 0):
        raise ConfigError(f"tol_scale: expected a positive finite number, "
                          f"got {tol_scale!r}")
    ctx, seed, fd = _context(config, seed_override)
    if not isinstance(config.get("checks"), list):
        raise ConfigError("checks: expected a list")
    # Resolve the whole plan before running anything.
    plan = [_resolve(entry, tol_scale) for entry in config["checks"]]
    results = []
    for name, params in plan:
        try:
            results += CHECKS[name](ctx, params, fd, seed)
        except ConfigError:
            raise
        except SkrpError as exc:
            # One failing check does not end the run: it becomes a failed row.
            results.append(CheckResult(
                name, math.inf, float(params.get("tolerance", math.nan)),
                False, f"error {type(exc).__name__}: {exc}"))
    return _render_report(config, seed, results)


def _render_report(config: dict, seed: int,
                   results: list[CheckResult]) -> tuple[int, str]:
    lines = [REPORT_FORMAT]
    lines.append("timestamp: "
                 + datetime.datetime.now(datetime.timezone.utc).isoformat())
    canon = dict(config)
    canon["seed"] = seed
    lines.append("config: " + json.dumps(canon, sort_keys=True,
                                         separators=(",", ":")))
    for r in results:
        lines.append(
            f"check: name={r.name} residual={r.residual!r} "
            f"tolerance={r.tolerance!r} pass={str(r.passed).lower()}"
            + (f" note={r.note}" if r.note else ""))
    n_fail = sum(not r.passed for r in results)
    code = 0 if n_fail == 0 else 1
    lines.append(f"summary: pass={len(results) - n_fail} fail={n_fail} "
                 f"exit={code}")
    return code, "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

# Sweep kind -> its axes and their default values; an axis whose default is
# an int takes whole numbers only.
SWEEP_AXES = {"slope_poly": {"k": [2], "beta": [0.0]},
              "type_a_admissible": {"m": [2], "K": [1.0], "alpha": [0.0],
                                    "eta": [-1.0]}}


def _axis_values(node, where: str, whole: bool) -> list:
    """A sweep axis: a list, one number, or {start, stop, num} (linspace);
    the values of a ``whole`` axis must be whole numbers."""
    if isinstance(node, dict):
        _require_keys(node, {"start", "stop", "num"},
                      {"start", "stop", "num"}, where)
        num = _value(node["num"], int, f"{where}.num")
        if num < 0:
            raise ConfigError(f"{where}.num: expected a non-negative int, "
                              f"got {num}")
        values = list(np.linspace(_value(node["start"], float, where),
                                  _value(node["stop"], float, where), num))
    else:
        values = [_value(v, float, where)
                  for v in (node if isinstance(node, list) else [node])]
    # _value returns an int unchanged, and int.is_integer is Python 3.12+.
    if whole and not all(float(v).is_integer() for v in values):
        raise ConfigError(f"{where}: expected whole numbers, got "
                          f"{[float(v) for v in values]}")
    return values


def run_sweep(config: dict) -> str:
    """Cartesian parameter sweep; returns CSV text (RFC-4180, '.' decimals).

    Kinds: ``slope_poly`` scans the two-endpoint slope constraint polynomial
    over (k, beta); ``type_a_admissible`` scans TypeA parameter tuples for
    admissible intervals and boundary flags.
    """
    _require_keys(config, {"sweep", "out"}, {"sweep"}, "config")
    _value(config.get("out", ""), str, "config.out")
    node = config["sweep"]
    kind = _kind(node, "kind", SWEEP_AXES, "sweep")
    axes = SWEEP_AXES[kind]
    _require_keys(node, {"kind", *axes}, {"kind"}, "sweep")
    grid = itertools.product(*(_axis_values(node.get(key, default),
                                            f"sweep.{key}",
                                            isinstance(default[0], int))
                               for key, default in axes.items()))
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
    # A row the profile code rejects (k or m below 2) is bad input.
    try:
        if kind == "slope_poly":
            writer.writerow(["k", "beta", "f", "factor_residual"])
            for k, beta in grid:
                f, res = profiles.slope_constraint_poly(int(k), float(beta))
                writer.writerow([int(k), repr(float(beta)), repr(f),
                                 repr(res)])
        else:
            writer.writerow(["m", "K", "alpha", "eta", "found",
                             "boundary_pass", "symmetric"])
            for m, K, alpha, eta in grid:
                rep = profiles.symmetric_family_report(profiles.TypeA(
                    m=int(m), K=float(K), alpha=float(alpha), eta=float(eta)))
                writer.writerow([int(m), repr(float(K)), repr(float(alpha)),
                                 repr(float(eta)), int(rep.found),
                                 int(rep.boundary_ok), int(rep.symmetric)])
    except SkrpError as exc:
        raise ConfigError(f"sweep: {exc}") from None
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Build / classify / report rendering
# ---------------------------------------------------------------------------

def run_build(config: dict, seed: Optional[int] = None) -> str:
    """Emit chart metadata and a sampled metric grid as CSV; seed None reads
    the config's."""
    ctx, seed, _ = _context(config, seed)
    chart = ctx.chart
    pts = models.sample_points(chart, 32, seed)
    g = np.asarray(chart.g(pts))
    phi = np.asarray(chart.phi(pts))
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
    n = chart.n
    header = [f"x{i}" for i in range(n)] + ["phi"] + [
        f"g{i}{j}" for i in range(n) for j in range(i, n)]
    writer.writerow(["variant", ctx.variant, "n", n,
                     "m", chart.meta.get("m")])
    writer.writerow(header)
    for b in range(len(pts)):
        row = [repr(float(v)) for v in pts[b]] + [repr(float(phi[b]))]
        row += [repr(float(g[b, i, j])) for i in range(n)
                for j in range(i, n)]
        writer.writerow(row)
    return buf.getvalue()


def render_summary(report_text: str) -> str:
    rows = []
    for line in report_text.splitlines():
        if line.startswith("check: "):
            # A note is free text: only the fields before it are read.
            body = line[len("check: "):].partition(" note=")[0]
            fields = dict(kv.split("=", 1) for kv in body.split(" ")
                          if "=" in kv)
            try:
                rows.append((fields["name"], float(fields["residual"]),
                             float(fields["tolerance"]), fields["pass"]))
            except (KeyError, ValueError):
                raise ConfigError(f"malformed report row: {line}") from None
    width = max((len(r[0]) for r in rows), default=10)
    out = [f"{'check'.ljust(width)}  {'residual':>13}  {'tolerance':>10}  ok"]
    for name, res, tol, ok in rows:
        out.append(f"{name.ljust(width)}  {res:13.3e}  {tol:10.1e}  {ok}")
    out += [ln for ln in report_text.splitlines()
            if ln.startswith("summary: ")]
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None


def _write_out(text: str, out: Optional[str]):
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {out}: {exc}") from None
    else:
        sys.stdout.write(text)


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="skrp",
        description="Build model charts and verify their geometric "
                    "identities numerically.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("build", "verify", "classify", "sweep", "report"):
        p = sub.add_parser(name)
        if name == "report":
            p.add_argument("--in", dest="infile", required=True)
        else:
            p.add_argument("--config", required=True)
        if name in ("build", "verify"):
            p.add_argument("--seed", type=int, default=None)
        if name == "verify":
            p.add_argument("--tol-scale", type=float, default=1.0)
        p.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    try:
        if args.command == "report":
            try:
                with open(args.infile, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except (OSError, UnicodeDecodeError) as exc:
                raise ConfigError(f"cannot read {args.infile}: {exc}"
                                  ) from None
            _write_out(render_summary(text), args.out)
            return 0
        config = _load_config(args.config)
        code = 0
        if args.command == "verify":
            code, text = run_config(config, seed_override=args.seed,
                                    tol_scale=args.tol_scale)
        elif args.command == "build":
            text = run_build(config, args.seed)
        elif args.command == "classify":
            ctx, _, _ = _context(config)
            tag = verify.classify_model(ctx.chart, ctx.profile)
            text = (f"type={tag.tag} eps={tag.eps} "
                    f"excluded={str(tag.excluded).lower()}"
                    + (f" note={tag.note}" if tag.note else "") + "\n")
        else:
            text = run_sweep(config)
        # A classify config's "out" names the verify report, not this line.
        _write_out(text, args.out if args.command == "classify"
                   else args.out or config.get("out"))
        return code
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except SkrpError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
