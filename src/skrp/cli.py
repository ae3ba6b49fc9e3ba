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
import datetime
import io
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import models, profiles, reparam, tensor, verify
from .errors import ConfigError, SkrpError

REPORT_FORMAT = "skrp-report format=1"


# ---------------------------------------------------------------------------
# Strict config parsing
# ---------------------------------------------------------------------------

def _require_keys(node: dict, allowed: set, required: set, where: str):
    if not isinstance(node, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = set(node) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(node)
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")


def parse_profile(node: dict) -> profiles.Profile:
    _require_keys(node, {"family", "K", "phi0", "m", "alpha", "eta", "c",
                         "A", "B", "C", "coeffs", "phi", "q", "interval",
                         "find_interval"}, {"family"}, "profile")
    family = node["family"]
    try:
        if family == "quadratic":
            spec = profiles.Quadratic(K=node["K"], phi0=node["phi0"])
        elif family == "type_a":
            spec = profiles.TypeA(m=node["m"], K=node["K"],
                                  alpha=node["alpha"], eta=node["eta"])
        elif family == "type_b":
            spec = profiles.TypeB(m=node["m"], K=node["K"],
                                  alpha=node["alpha"], eta=node["eta"])
        elif family == "type_c":
            spec = profiles.TypeC(m=node["m"], c=node["c"], A=node["A"],
                                  B=node["B"], C=node["C"])
        elif family == "polynomial":
            spec = profiles.Polynomial(coeffs=tuple(node["coeffs"]))
        elif family == "custom":
            spec = profiles.Custom(phi=tuple(node["phi"]), q=tuple(node["q"]))
        else:
            raise ConfigError(f"profile: unknown family {family!r}")
    except KeyError as exc:
        raise ConfigError(f"profile: missing parameter {exc}") from None
    if "interval" in node:
        return profiles.make_profile(spec, tuple(node["interval"]))
    if "find_interval" in node:
        fi = node["find_interval"]
        _require_keys(fi, {"seed"}, {"seed"}, "profile.find_interval")
        return profiles.find_admissible_interval(spec, fi["seed"])
    if family == "quadratic":
        return profiles.make_profile(
            spec, (-abs(node["phi0"]), abs(node["phi0"])))
    raise ConfigError("profile: needs 'interval' or 'find_interval'")


@dataclass
class ModelContext:
    chart: Optional[tensor.ChartMetric]
    sphere: Optional[models.SphereModel]
    profile: Optional[profiles.Profile]
    variant: str


def parse_model(node: dict, profile: Optional[profiles.Profile]
                ) -> ModelContext:
    _require_keys(node, {"variant", "m", "a", "eps", "c", "K", "phi0", "t",
                         "phi_window", "logr_halfwidth"}, {"variant"},
                  "model")
    variant = node["variant"]
    try:
        if variant == "shell":
            if profile is None:
                raise ConfigError("shell model requires a profile")
            spec = models.ShellSpec(
                m=node["m"], profile=profile, a=node["a"], eps=node["eps"],
                c=node["c"],
                phi_window=tuple(node["phi_window"])
                if "phi_window" in node else None,
                logr_halfwidth=node.get("logr_halfwidth", 1.5))
            return ModelContext(models.build_shell(spec), None, profile,
                                variant)
        if variant == "annulus":
            if profile is None:
                raise ConfigError("annulus model requires a profile")
            spec = models.AnnulusSpec(
                profile=profile, a=node["a"],
                phi_window=tuple(node["phi_window"])
                if "phi_window" in node else None,
                logr_halfwidth=node.get("logr_halfwidth", 1.5))
            return ModelContext(models.build_annulus(spec), None, profile,
                                variant)
        if variant == "sphere":
            sm = models.build_sphere(models.SphereSpec(K=node["K"],
                                                       phi0=node["phi0"]))
            return ModelContext(sm.chart, sm, sm.chart.meta["profile"],
                                variant)
        if variant == "product":
            ch = models.build_product(models.ProductSpec(K=node["K"],
                                                         t=node["t"]))
            return ModelContext(ch, None, ch.meta["profile"], variant)
    except KeyError as exc:
        raise ConfigError(f"model: missing parameter {exc}") from None
    except SkrpError as exc:
        raise ConfigError(f"model: {exc}") from None
    raise ConfigError(f"model: unknown variant {variant!r}")


def parse_fd(node: Optional[dict]) -> tensor.FDConfig:
    if node is None:
        return tensor.FDConfig()
    _require_keys(node, {"h", "richardson"}, set(), "fd")
    return tensor.FDConfig(h=node.get("h", 1.0e-3),
                           richardson=node.get("richardson", True))


# ---------------------------------------------------------------------------
# Check registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
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


def _points(ctx: ModelContext, params: dict, seed: int) -> np.ndarray:
    return models.sample_points(ctx.chart, int(params.get("points", 100)),
                                seed)


def check_curvature_constant(ctx, params, fd, seed):
    """Gaussian curvature of the sphere chart equals K, including radii in
    [1e-3, 1e-2]."""
    if ctx.variant != "sphere":
        raise ConfigError("curvature_constant applies to the sphere model")
    K = ctx.chart.meta["K"]
    count = int(params.get("points", 50))
    rng = np.random.default_rng(seed)
    n_near = max(4, count // 5)
    r = np.concatenate([
        np.exp(rng.uniform(math.log(1e-3), math.log(1e-2), n_near)),
        np.exp(rng.uniform(math.log(0.05), math.log(2.0), count - n_near))])
    th = rng.uniform(0, 2 * math.pi, count)
    pts = np.column_stack([r * np.cos(th), r * np.sin(th)])
    gauss = tensor.curvature(ctx.chart, pts, fd).scalar / 2.0
    worst = float(np.max(np.abs(gauss - K) / K))
    return [_result("curvature_constant", worst,
                    params.get("tolerance", 1e-5),
                    note=f"relative deviation from K={K} at {count} points")]


def check_distance(ctx, params, fd, seed):
    """Distance invariant of the profile by quadrature, optionally against
    an expected value.  The sphere's geodesic pole-to-pole length is a row
    of normal_geodesics."""
    L = reparam.critical_distance(ctx.profile)
    if "expected" not in params:
        return []
    return [_result("distance_quadrature", abs(L - params["expected"]),
                    params.get("tolerance", 1e-8), note=f"L={L!r}")]


def check_skrp_blocks(ctx, params, fd, seed):
    pts = _points(ctx, params, seed)
    rep = verify.skrp_report(ctx.chart, pts, fd)
    tol = params.get("tolerance", 1e-5)
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
    pts = _points(ctx, params, seed)
    rep = verify.identity_report(ctx.chart, pts, fd)
    tol = params.get("tolerance", 1e-5)
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
    pts = _points(ctx, params, seed)
    rep = verify.conformal_einstein_report(ctx.chart, pts, fd)
    return [
        _result("einstein_residual", rep.einstein_res,
                params.get("tolerance", 1e-4)),
        _result("einstein_constant_spread", rep.lambda_spread,
                params.get("tolerance", 1e-4)),
        _result("wedge_residual", rep.wedge_res,
                params.get("wedge_tolerance", 1e-6)),
    ]


def check_kahler(ctx, params, fd, seed):
    pts = _points(ctx, params, seed)
    tol = params.get("tolerance", 1e-6)
    worst = float(np.max(tensor.kahler_residuals(ctx.chart, pts, fd).worst()))
    return [_result("kahler_residuals", worst, tol)]


def check_killing(ctx, params, fd, seed):
    pts = _points(ctx, params, seed)
    tol = params.get("tolerance", 1e-6)
    worst = float(np.max(tensor.killing_residual(ctx.chart, pts, fd).worst()))
    return [_result("killing_residuals", worst, tol)]


def check_soliton(ctx, params, fd, seed):
    _require_keys(params, {"p", "s0", "points", "tolerance"}, {"p", "s0"},
                  "checks.soliton")
    pts = _points(ctx, params, seed)
    res = verify.soliton_report(ctx.chart, params["p"], params["s0"], pts, fd)
    return [_result("soliton_residual", res, params.get("tolerance", 1e-4))]


def check_normal_geodesics(ctx, params, fd, seed):
    if ctx.variant == "sphere":
        rep = verify.sphere_normal_geodesics(ctx.sphere, fd)
    elif ctx.variant == "shell":
        rep = verify.shell_normal_geodesics(ctx.chart, fd)
    else:
        raise ConfigError("normal_geodesics applies to sphere or shell")
    out = [
        _result("dphi_ds", rep.dphids_res, params.get("tolerance", 1e-5)),
        _result("gauss_orthogonality", rep.gauss_res,
                params.get("gauss_tolerance", 1e-4)),
    ]
    if rep.distance_vs_L is not None:
        out.append(_result("distance_geodesic", rep.distance_vs_L,
                           params.get("distance_tolerance", 1e-4)))
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
    pts = _points(ctx, params, seed)
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
        _result("inversion_pullback", worst_g, params.get("tolerance", 1e-10)),
        _result("inversion_phi", worst_phi,
                params.get("phi_tolerance", 1e-9)),
    ]


def check_connection_form(ctx, params, fd, seed):
    """Curvature form of the canonical connection vs -2 times the
    Fubini-Study form on the affine chart of the projective line."""
    count = int(params.get("points", 100))
    rng = np.random.default_rng(seed)
    r = np.sqrt(rng.uniform(0.0, 4.0, count))
    th = rng.uniform(0, 2 * math.pi, count)
    pts = np.column_stack([r * np.cos(th), r * np.sin(th)])
    data = models.tautological_connection(pts, fd)
    worst = float(np.max(np.abs(data.omega.real + 2.0 * data.omega_fs),
                         initial=0.0))
    worst_im = float(np.max(np.abs(data.omega.imag), initial=0.0))
    return [
        _result("connection_curvature", worst, params.get("tolerance", 1e-6)),
        _result("connection_curvature_imag", worst_im,
                params.get("imag_tolerance", 1e-8)),
    ]


def check_boundary(ctx, params, fd, seed):
    rep = profiles.check_boundary(ctx.profile,
                                  tol=params.get("profile_tolerance"))
    s = rep.endpoint_slopes
    residual = abs(s[0] + s[1]) / max(abs(s[0]), abs(s[1]), 1e-300)
    return [_result("boundary_conditions",
                    residual if rep.passed else max(residual, 1.0),
                    params.get("tolerance", 1e-9),
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

_CHECK_KEYS = {"name", "tolerance", "points", "p", "s0", "expected",
               "gauss_tolerance", "distance_tolerance", "wedge_tolerance",
               "phi_tolerance", "imag_tolerance", "profile_tolerance"}


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

def run_config(config: dict, seed_override: Optional[int] = None,
               tol_scale: float = 1.0, threads: int = 1) -> tuple[int, str]:
    """Execute a verification plan; returns (exit_code, report_text)."""
    _require_keys(config, {"seed", "fd", "profile", "model", "checks",
                           "out"}, {"model", "checks"}, "config")
    seed = int(seed_override if seed_override is not None
               else config.get("seed", 0))
    fd = parse_fd(config.get("fd"))
    profile = parse_profile(config["profile"]) if "profile" in config else None
    ctx = parse_model(config["model"], profile)
    plan = config["checks"]
    if not isinstance(plan, list):
        raise ConfigError("checks: expected a list")

    def run_one(entry):
        name = entry["name"]
        params = dict(entry)
        params.pop("name")
        if tol_scale != 1.0:
            for key in list(params):
                if key.endswith("tolerance") and isinstance(
                        params[key], (int, float)):
                    params[key] = params[key] * tol_scale
        try:
            return CHECKS[name](ctx, params, fd, seed)
        except ConfigError:
            raise
        except SkrpError as exc:
            # One failing check does not end the run: it becomes a failed row.
            return [CheckResult(name=name, residual=math.inf,
                                tolerance=float(params.get("tolerance",
                                                           math.nan)),
                                passed=False,
                                note=f"error {type(exc).__name__}: {exc}")]

    # Validate the whole plan before running anything.
    for entry in plan:
        _require_keys(entry, _CHECK_KEYS, {"name"}, "checks[]")
        if entry["name"] not in CHECKS:
            raise ConfigError(f"unknown check {entry['name']!r}")

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            groups = list(pool.map(run_one, plan))
    else:
        groups = [run_one(entry) for entry in plan]
    results = [r for group in groups for r in group]
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
    n_pass = n_fail = 0
    for r in results:
        n_pass += r.passed
        n_fail += not r.passed
        lines.append(
            f"check: name={r.name} residual={r.residual!r} "
            f"tolerance={r.tolerance!r} pass={str(r.passed).lower()}"
            + (f" note={r.note}" if r.note else ""))
    code = 0 if n_fail == 0 else 1
    lines.append(f"summary: pass={n_pass} fail={n_fail} exit={code}")
    return code, "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def _axis_values(node) -> list:
    if isinstance(node, list):
        return list(node)
    if isinstance(node, dict):
        _require_keys(node, {"start", "stop", "num"},
                      {"start", "stop", "num"}, "sweep axis")
        return list(np.linspace(node["start"], node["stop"],
                                int(node["num"])))
    return [node]


def run_sweep(config: dict) -> str:
    """Cartesian parameter sweep; returns CSV text (RFC-4180, '.' decimals).

    Kinds: ``slope_poly`` scans the two-endpoint slope constraint polynomial
    over (k, beta); ``type_a_admissible`` scans TypeA parameter tuples for
    admissible intervals and boundary flags.
    """
    _require_keys(config, {"sweep", "out"}, {"sweep"}, "config")
    node = config["sweep"]
    _require_keys(node, {"kind", "k", "beta", "m", "K", "alpha", "eta"},
                  {"kind"}, "sweep")
    kind = node["kind"]
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
    if kind == "slope_poly":
        writer.writerow(["k", "beta", "f", "factor_residual"])
        for k in _axis_values(node.get("k", [2])):
            for beta in _axis_values(node.get("beta", [0.0])):
                f, res = profiles.slope_constraint_poly(int(k), float(beta))
                writer.writerow([int(k), repr(float(beta)), repr(f),
                                 repr(res)])
        return buf.getvalue()
    if kind == "type_a_admissible":
        writer.writerow(["m", "K", "alpha", "eta", "found", "boundary_pass",
                         "symmetric"])
        for m in _axis_values(node.get("m", [2])):
            for K in _axis_values(node.get("K", [1.0])):
                for alpha in _axis_values(node.get("alpha", [0.0])):
                    for eta in _axis_values(node.get("eta", [-1.0])):
                        spec = profiles.TypeA(m=int(m), K=float(K),
                                              alpha=float(alpha),
                                              eta=float(eta))
                        rep = profiles.symmetric_family_report(spec)
                        writer.writerow([int(m), repr(float(K)),
                                         repr(float(alpha)),
                                         repr(float(eta)),
                                         int(rep.found),
                                         int(rep.boundary_ok),
                                         int(rep.symmetric)])
        return buf.getvalue()
    raise ConfigError(f"sweep: unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# Build / classify / report rendering
# ---------------------------------------------------------------------------

def run_build(config: dict, seed: int) -> str:
    """Emit chart metadata and a sampled metric grid as CSV."""
    _require_keys(config, {"seed", "fd", "profile", "model", "checks",
                           "out"}, {"model"}, "config")
    profile = parse_profile(config["profile"]) if "profile" in config else None
    ctx = parse_model(config["model"], profile)
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
            fields = dict(kv.split("=", 1) for kv in line[7:].split(" ")
                          if "=" in kv and not kv.startswith("note"))
            rows.append((fields["name"], fields["residual"],
                         fields["tolerance"], fields["pass"]))
    width = max((len(r[0]) for r in rows), default=10)
    out = [f"{'check'.ljust(width)}  {'residual':>13}  {'tolerance':>10}  ok"]
    for name, res, tol, ok in rows:
        out.append(f"{name.ljust(width)}  {float(res):13.3e}  "
                   f"{float(tol):10.1e}  {ok}")
    for line in report_text.splitlines():
        if line.startswith("summary: "):
            out.append(line)
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
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _env_threads() -> int:
    value = os.environ.get("SKRP_THREADS", "1")
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"SKRP_THREADS must be an integer, got "
                          f"{value!r}") from None


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
            p.add_argument("--threads", type=int, default=None)
        p.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    try:
        if args.command == "report":
            with open(args.infile, "r", encoding="utf-8") as fh:
                text = fh.read()
            _write_out(render_summary(text), args.out)
            return 0
        config = _load_config(args.config)
        if args.command == "verify":
            threads = (args.threads if args.threads is not None
                       else _env_threads())
            code, text = run_config(config, seed_override=args.seed,
                                    tol_scale=args.tol_scale,
                                    threads=max(1, threads))
            out = args.out or config.get("out")
            _write_out(text, out)
            return code
        if args.command == "build":
            seed = args.seed if args.seed is not None else int(
                config.get("seed", 0))
            text = run_build(config, seed)
            _write_out(text, args.out or config.get("out"))
            return 0
        if args.command == "classify":
            profile = (parse_profile(config["profile"])
                       if "profile" in config else None)
            ctx = parse_model(config["model"], profile)
            tag = verify.classify_model(ctx.chart, ctx.profile)
            _write_out(f"type={tag.tag} eps={tag.eps} "
                       f"excluded={str(tag.excluded).lower()}"
                       + (f" note={tag.note}" if tag.note else "") + "\n",
                       args.out)
            return 0
        if args.command == "sweep":
            text = run_sweep(config)
            _write_out(text, args.out or config.get("out"))
            return 0
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except SkrpError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
