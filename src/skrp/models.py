"""Explicit model charts: spherical shells, annuli, the round sphere, the
product of a hyperbolic surface with a 2-sphere, the solid-ball extension
coefficients, and the canonical connection of the tautological line bundle.

All charts are vectorized: the metric maps an (N, n) array of points to
(N, n, n) matrices, so finite-difference stencil clouds evaluate in one
call.  Shell and annulus charts read phi(r) from a dense interpolant of the
reparameterization table built over a bounded log-radius window around the
anchor; the sphere and product charts are closed-form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import SpecInvariantViolated, TableRangeExceeded, WrongEndpoint
from .profiles import Profile, Quadratic, make_profile
from .reparam import ReparamTable, build_reparam, _neville_at_zero
from .tensor import ChartMetric, FDConfig, partials

_ROT = np.array([[0.0, -1.0], [1.0, 0.0]])

# Bound on |log r| of a shell or annulus chart, around the anchor radius 1.
LOGR_HALFWIDTH = 1.5


def standard_J(m: int) -> np.ndarray:
    """Block-diagonal complex structure pairing coordinates (2j, 2j+1)."""
    return np.kron(np.eye(m), _ROT)


# ---------------------------------------------------------------------------
# Model specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShellSpec:
    """Spherical-shell model in C^m: radial metric driven by a profile.

    ``phi_window`` selects the sub-interval of the profile carried by the
    chart (default: the interval shrunk by 10% of its length per side).
    """

    m: int
    profile: Profile
    a: float
    eps: int
    c: float
    phi_window: Optional[tuple[float, float]] = None

    def __post_init__(self):
        if self.m < 2:
            raise SpecInvariantViolated(f"shell requires m >= 2, got {self.m}")
        if self.eps not in (-1, 1):
            raise SpecInvariantViolated("shell requires eps = +-1")
        if self.eps * self.a <= 0:
            raise SpecInvariantViolated("shell requires eps * a > 0")
        lo, hi = self.phi_window or self.profile.interval
        if self.eps * (lo - self.c) <= 0 or self.eps * (hi - self.c) <= 0:
            raise SpecInvariantViolated(
                "shell requires eps * (phi - c) > 0 on the chart window")


@dataclass(frozen=True)
class AnnulusSpec:
    """Two-dimensional conformal annulus model."""

    profile: Profile
    a: float
    phi_window: Optional[tuple[float, float]] = None


@dataclass(frozen=True)
class SphereSpec:
    """Round metric of Gaussian curvature K on the Riemann sphere, built
    from the quadratic profile with parameter phi0 != 0."""

    K: float
    phi0: float

    def __post_init__(self):
        if not self.K > 0:
            raise SpecInvariantViolated("sphere requires K > 0")
        if self.phi0 == 0:
            raise SpecInvariantViolated("sphere requires phi0 != 0")


@dataclass(frozen=True)
class ProductSpec:
    """Product of a hyperbolic disk of curvature -K with a 2-sphere of
    curvature K, potential t times the fibre height function (m = 2)."""

    K: float
    t: float

    def __post_init__(self):
        if not self.K > 0:
            raise SpecInvariantViolated("product requires K > 0")
        if self.t == 0:
            raise SpecInvariantViolated("product requires t != 0")


# ---------------------------------------------------------------------------
# Shells and annuli
# ---------------------------------------------------------------------------

def _radial_chart(profile: Profile, a: float, m: int, theta_h_fn,
                  phi_window, meta_extra) -> ChartMetric:
    """Common machinery for shell (m >= 2) and annulus (m = 1) charts."""
    lo, hi = profile.interval
    if phi_window is None:
        pad = 0.1 * (hi - lo)
        phi_window = (lo + pad, hi - pad)
    w_lo, w_hi = phi_window
    if not (lo <= w_lo < w_hi <= hi):
        raise TableRangeExceeded("phi window must sit inside the profile "
                                 "interval")
    mid = 0.5 * (w_lo + w_hi)
    table = build_reparam(profile, a, anchor=(mid, 1.0))
    lr = sorted((float(table.log_r(w_lo)), float(table.log_r(w_hi))))
    lr_lo = max(lr[0], -LOGR_HALFWIDTH)
    lr_hi = min(lr[1], LOGR_HALFWIDTH)
    eps_len = 1e-9 * (hi - lo)
    avail = sorted((float(table.log_r(lo + eps_len)),
                    float(table.log_r(hi - eps_len))))
    pad = 0.04 * (lr_hi - lr_lo)
    pad_lo = max(0.0, min(pad, lr_lo - avail[0]))
    pad_hi = max(0.0, min(pad, avail[1] - lr_hi))
    spline = table.dense_phi_of_logr(lr_lo - pad_lo, lr_hi + pad_hi)
    n = 2 * m
    J = standard_J(m)

    def phi_fn(pts):
        pts = np.asarray(pts, dtype=float)
        r2 = np.einsum("bi,bi->b", pts, pts)
        return spline(0.5 * np.log(r2))

    def g_fn(pts):
        pts = np.asarray(pts, dtype=float)
        r2 = np.einsum("bi,bi->b", pts, pts)
        phi = spline(0.5 * np.log(r2))
        q = np.asarray(profile.q(phi), dtype=float)
        theta_v = q / (a * a * r2)
        out = np.empty((len(pts), n, n))
        if m == 1:
            out[:] = theta_v[:, None, None] * np.eye(2)[None]
            return out
        # theta_h I + (theta_v - theta_h) / r^2 (x x^T + Jx Jx^T), built in
        # the output row by row: entry (i, j) sums the same two products in
        # the same order as entry (j, i), so the result is exactly symmetric.
        theta_h = theta_h_fn(phi, r2)
        jx = pts @ J.T
        for i in range(n):
            row = pts[:, i, None] * pts
            row += jx[:, i, None] * jx
            out[:, i] = row
        out *= ((theta_v - theta_h) / r2)[:, None, None]
        out.reshape(len(pts), n * n)[:, ::n + 1] += theta_h[:, None]
        return out

    def domain_fn(pts):
        pts = np.asarray(pts, dtype=float)
        r2 = np.einsum("bi,bi->b", pts, pts)
        good = r2 > 0
        logr = np.where(good, 0.5 * np.log(np.where(good, r2, 1.0)), -np.inf)
        return good & (logr > lr_lo - pad_lo) & (logr < lr_hi + pad_hi)

    meta = {"a": a, "m": m, "profile": profile, "table": table,
            "r_range": (math.exp(lr_lo), math.exp(lr_hi)),
            "phi_window": (w_lo, w_hi)}
    meta.update(meta_extra)
    return ChartMetric(n=n, g=g_fn, J=J, phi=phi_fn, domain=domain_fn,
                       meta=meta)


def build_shell(spec: ShellSpec) -> ChartMetric:
    """Shell chart on {r_lo < |x| < r_hi} in R^(2m) with the standard
    complex structure.

    With v = a x and u = a Jx spanning the vertical plane, the metric is
    2|phi - c| / (|a| r^2) on the horizontal part and Q / (a r)^2 on the
    vertical part, phi being the radial potential read off the table.
    """
    a, c = spec.a, spec.c
    abs_a = abs(a)

    def theta_h(phi, r2):
        return 2.0 * np.abs(phi - c) / (abs_a * r2)

    return _radial_chart(spec.profile, a, spec.m, theta_h, spec.phi_window,
                         {"model": "shell", "eps": spec.eps, "c": c})


def build_annulus(spec: AnnulusSpec) -> ChartMetric:
    """Conformal annulus chart: g = Q / (a r)^2 times the Euclidean metric."""
    return _radial_chart(spec.profile, spec.a, 1, None, spec.phi_window,
                         {"model": "annulus", "eps": 0, "c": None})


def inversion_point(pts: np.ndarray) -> np.ndarray:
    """The inversion z -> 1/z on R^2 = C: (x, y) -> (x, -y) / (x^2 + y^2)."""
    pts = np.asarray(pts, dtype=float)
    r2 = np.einsum("bi,bi->b", pts, pts)
    out = pts / r2[:, None]
    out[:, 1] *= -1.0
    return out


def inversion_jacobian(pts: np.ndarray) -> np.ndarray:
    """Jacobian matrices (B, 2, 2) of the inversion at points (B, 2) of
    R^2 minus 0."""
    x, y = np.asarray(pts, dtype=float).T
    r4 = (x * x + y * y) ** 2
    diag, off = (y * y - x * x) / r4, 2.0 * x * y / r4
    return np.stack([diag, -off, off, diag], axis=1).reshape(-1, 2, 2)


# ---------------------------------------------------------------------------
# The round sphere
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SphereModel:
    """Sphere chart plus the point map chi into R^3 (unit-sphere target)."""

    chart: ChartMetric
    spec: SphereSpec

    def chi(self, pts: np.ndarray) -> np.ndarray:
        """Map chart points to the unit sphere in R^3; chi(0) is the pole
        (0, 0, sgn(phi0))."""
        pts = np.asarray(pts, dtype=float)
        xi = np.einsum("bi,bi->b", pts, pts)
        denom = 1.0 + xi
        out = np.empty((len(pts), 3))
        out[:, 0] = 2.0 * pts[:, 0] / denom
        out[:, 1] = 2.0 * pts[:, 1] / denom
        out[:, 2] = math.copysign(1.0, self.spec.phi0) * (1.0 - xi) / denom
        return out


def build_sphere(spec: SphereSpec) -> SphereModel:
    """Round sphere of Gaussian curvature K as a single chart across r = 0.

    The radial solution for the quadratic profile integrates in closed form
    to r^2 = (phi0 - phi)/(phi0 + phi), so the solid-ball extension
    coefficients collapse to the conformal factor (4/K)/(1 + r^2)^2 exactly,
    valid on the whole chart including the origin.
    """
    K, phi0 = spec.K, spec.phi0
    a = -K * phi0
    profile = make_profile(Quadratic(K=K, phi0=phi0), (-abs(phi0), abs(phi0)))

    def g_fn(pts):
        pts = np.asarray(pts, dtype=float)
        xi = np.einsum("bi,bi->b", pts, pts)
        f = (4.0 / K) / (1.0 + xi) ** 2
        return f[:, None, None] * np.eye(2)[None]

    def phi_fn(pts):
        pts = np.asarray(pts, dtype=float)
        xi = np.einsum("bi,bi->b", pts, pts)
        return phi0 * (1.0 - xi) / (1.0 + xi)

    def domain_fn(pts):
        pts = np.asarray(pts, dtype=float)
        return np.isfinite(pts).all(axis=1)

    chart = ChartMetric(
        n=2, g=g_fn, J=_ROT.copy(), phi=phi_fn, domain=domain_fn,
        meta={"model": "sphere", "m": 1, "a": a, "eps": 0, "c": None,
              "K": K, "phi0": phi0, "profile": profile,
              "r_range": (0.0, np.inf)})
    return SphereModel(chart=chart, spec=spec)


# ---------------------------------------------------------------------------
# Solid-ball extension coefficients
# ---------------------------------------------------------------------------

def ball_extension_coeffs(profile: Profile, a: float, c: float, r: float,
                          table: Optional[ReparamTable] = None
                          ) -> tuple[float, float]:
    """Coefficients (c1, c2) of the solid-ball extension of a shell metric.

    The metric extends across r = 0 as
    g = c1 (xi (x) xi + xi' (x) xi') + c2 Euclid, with xi, xi' the covectors
    of v = a x, u = a Jx, and

        c1 = [Q - 2a(phi - c)] / (a r)^4,   c2 = 2 (phi - c) / (a r^2).

    Requires Q(c) = 0 and dQ/dphi = 2a at phi = c.  At r = 0 the values are
    Richardson limits over a shrinking radius ladder.
    """
    _require_ball_endpoint(profile, a, c)
    if table is None:
        table = build_reparam(profile, a)
    if r < 0:
        raise WrongEndpoint("radius must be nonnegative")
    if r == 0.0:
        lo, hi = profile.interval
        probe_phi = c + (0.02 if c == lo else -0.02) * (hi - lo)
        r0 = float(table.r_of_phi(probe_phi))
        ladder = [r0, r0 / 2.0, r0 / 4.0]
        vals = [_ball_coeffs_at(profile, a, c, rr, table) for rr in ladder]
        xi = np.array([rr * rr for rr in ladder])
        c1 = _neville_at_zero(xi, np.array([v[0] for v in vals]))
        c2 = _neville_at_zero(xi, np.array([v[1] for v in vals]))
        return float(c1), float(c2)
    return _ball_coeffs_at(profile, a, c, r, table)


def _require_ball_endpoint(profile: Profile, a: float, c: float):
    lo, hi = profile.interval
    which = None
    if abs(c - lo) <= 1e-9 * max(1.0, abs(lo)):
        which = 0
    elif abs(c - hi) <= 1e-9 * max(1.0, abs(hi)):
        which = 1
    if which is None:
        raise WrongEndpoint(f"c = {c} is not an endpoint of {profile.interval}")
    slope = profile.endpoint_slopes[which]
    if slope is None:
        raise WrongEndpoint(f"Q does not vanish at phi = {c}")
    if abs(slope - 2.0 * a) > 1e-6 * max(abs(2.0 * a), 1e-300):
        raise WrongEndpoint(
            f"dQ/dphi = {slope} at phi = {c} does not equal 2a = {2 * a}")


def _ball_coeffs_at(profile: Profile, a: float, c: float, r: float,
                    table: ReparamTable) -> tuple[float, float]:
    """Stable grouping of the extension coefficients at one radius.

    Near the root the quotient [Q - 2a(phi-c)]/xi^2 cancels catastrophically
    in its raw form; expanding Q about phi = c turns it into
    w^2 [Q''(c)/2 + Q'''(c) w xi / 6 + O(xi^2)] with w = (phi-c)/xi, which
    is well conditioned.
    """
    xi = r * r
    phi = float(table.phi_of_r(r))
    w = (phi - c) / xi
    c2 = 2.0 * w / a
    if xi < 1e-3:
        lo, hi = profile.interval
        inward = 1.0 if abs(c - lo) < abs(c - hi) else -1.0
        q2 = float(profile.d2q(c))
        h = inward * 1.0e-4 * (hi - lo)
        q3 = (-3.0 * float(profile.d2q(c))
              + 4.0 * float(profile.d2q(c + h))
              - float(profile.d2q(c + 2 * h))) / (2.0 * h)
        c1 = w * w * (0.5 * q2 + q3 * w * xi / 6.0) / a ** 4
    else:
        q = float(profile.q(phi))
        g_defl = q / (phi - c)      # Q / (phi - c), finite at the root
        c1 = w * (g_defl - 2.0 * a) / (a ** 4 * xi)
    return float(c1), float(c2)


def ball_metric(profile: Profile, a: float, c: float, x: np.ndarray,
                table: Optional[ReparamTable] = None) -> np.ndarray:
    """Reconstructed shell metric near r = 0 from the extension coefficients."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    J = standard_J(n // 2)
    r = float(np.linalg.norm(x))
    c1, c2 = ball_extension_coeffs(profile, a, c, r, table)
    v = a * x
    u = a * (J @ x)
    return c1 * (np.outer(v, v) + np.outer(u, u)) + c2 * np.eye(n)


# ---------------------------------------------------------------------------
# Product model
# ---------------------------------------------------------------------------

def build_product(spec: ProductSpec) -> ChartMetric:
    """Product chart D x R^2: hyperbolic disk of curvature -K times the
    curvature-K sphere in stereographic coordinates, with potential
    phi = t z(w), z(w) = (|w|^2 - 1)/(|w|^2 + 1)."""
    K, t = spec.K, spec.t
    profile = make_profile(Quadratic(K=K, phi0=t), (-abs(t), abs(t)))

    def g_fn(pts):
        pts = np.asarray(pts, dtype=float)
        b2 = np.einsum("bi,bi->b", pts[:, :2], pts[:, :2])
        w2 = np.einsum("bi,bi->b", pts[:, 2:], pts[:, 2:])
        out = np.zeros((len(pts), 4, 4))
        base = (4.0 / K) / (1.0 - b2) ** 2
        fib = (4.0 / K) / (1.0 + w2) ** 2
        out[:, 0, 0] = out[:, 1, 1] = base
        out[:, 2, 2] = out[:, 3, 3] = fib
        return out

    def phi_fn(pts):
        pts = np.asarray(pts, dtype=float)
        w2 = np.einsum("bi,bi->b", pts[:, 2:], pts[:, 2:])
        return t * (w2 - 1.0) / (w2 + 1.0)

    def domain_fn(pts):
        pts = np.asarray(pts, dtype=float)
        b2 = np.einsum("bi,bi->b", pts[:, :2], pts[:, :2])
        return b2 < 0.9025  # |b| < 0.95

    return ChartMetric(
        n=4, g=g_fn, J=standard_J(2), phi=phi_fn, domain=domain_fn,
        meta={"model": "product", "m": 2, "eps": 0, "c": None, "K": K,
              "t": t, "profile": profile, "a": None})


# ---------------------------------------------------------------------------
# Canonical connection of the tautological bundle over CP^1
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConnectionData:
    """Connection form, curvature form, and Fubini-Study form at a batch of
    points, each with the point axis first.

    ``gamma`` (B, 2) holds the complex values of the connection form on the
    two coordinate directions; ``omega`` (B,) is the dy1^dy2 coefficient of
    the curvature form (its imaginary part is a residual); ``omega_fs`` (B,)
    is the dy1^dy2 coefficient of the Fubini-Study Kahler form normalized so
    a projective line has area pi.
    """

    gamma: np.ndarray
    omega: np.ndarray
    omega_fs: np.ndarray


def tautological_connection(y: np.ndarray, fd: FDConfig) -> ConnectionData:
    """Canonical-connection data at points y (B, 2) of the affine chart of
    CP^1.

    The connection form of the section w(y) = (1, y) under the projection
    of the flat connection is Gamma(v) = <dw(v), w> / <w, w> with the
    Hermitian product linear in its first argument, giving
    Gamma = conj(y) dy / (1 + |y|^2).  The curvature form is i dGamma with
    the exterior derivative taken by finite differences.
    """
    y = np.asarray(y, dtype=float)

    def gamma_components(pts):
        z = pts[:, 0] + 1j * pts[:, 1]
        denom = 1.0 + np.abs(z) ** 2
        return np.conj(z) / denom     # Gamma(e1); Gamma(e2) = i * this

    g1, d, _ = partials(gamma_components, y, fd.h, fd.richardson, False)
    # dGamma = (d1 Gamma2 - d2 Gamma1) dy1^dy2 with Gamma2 = i Gamma1.
    dgamma = 1j * d[:, 0] - d[:, 1]
    r2 = np.einsum("bi,bi->b", y, y)
    return ConnectionData(gamma=np.stack([g1, 1j * g1], axis=1),
                          omega=1j * dgamma,
                          omega_fs=1.0 / (1.0 + r2) ** 2)


# ---------------------------------------------------------------------------
# Deterministic sample points per model
# ---------------------------------------------------------------------------

def sample_points(chart: ChartMetric, count: int, seed: int) -> np.ndarray:
    """Deterministic interior sample points for a model chart.

    Radii are log-uniform over the chart's radial range shrunk by 12% of
    its log-span on each side; directions are uniform on the
    sphere.  The product model instead samples the base disk and a fibre
    annulus.  Points stay clear of chart boundaries by at least five
    stencil widths at the default configuration.
    """
    rng = np.random.default_rng(seed)
    model = chart.meta.get("model")
    if model == "product":
        b_r = 0.55 * np.sqrt(rng.uniform(0.0, 1.0, count))
        b_th = rng.uniform(0.0, 2 * np.pi, count)
        w_r = np.exp(rng.uniform(np.log(1.2), np.log(2.8), count))
        w_th = rng.uniform(0.0, 2 * np.pi, count)
        return np.column_stack([b_r * np.cos(b_th), b_r * np.sin(b_th),
                                w_r * np.cos(w_th), w_r * np.sin(w_th)])
    if model == "sphere":
        r = np.exp(rng.uniform(np.log(0.05), np.log(2.5), count))
        th = rng.uniform(0.0, 2 * np.pi, count)
        return np.column_stack([r * np.cos(th), r * np.sin(th)])
    r_lo, r_hi = chart.meta["r_range"]
    span = math.log(r_hi) - math.log(r_lo)
    # Margin: relative to the radial span, but never below the absolute room
    # a nested five-point stencil needs at the default step (clamped so thin
    # charts keep a nonempty interior).
    margin = max(0.12 * span, min(0.04, 0.45 * span))
    lo = math.log(r_lo) + margin
    hi = math.log(r_hi) - margin
    r = np.exp(rng.uniform(lo, hi, count))
    dirs = rng.normal(size=(count, chart.n))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    return r[:, None] * dirs
