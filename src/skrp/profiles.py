"""Profile functions Q(phi) and their admissibility analysis.

A profile is a positive function Q of one real variable phi on an interval.
Every model metric in this package is driven by such a profile: Q prescribes
the squared gradient norm of the potential as a function of the potential
itself.  This module houses the closed-form families, root bracketing for
admissible intervals, boundary-condition reports, the two-endpoint slope
constraint polynomial, the soliton ODE, and the type classification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import (
    BadParams,
    Inconsistent,
    NonPositive,
    NoRoot,
    PoleAtOne,
    PoleInInterval,
    RangeContainsC,
    SeedNonPositive,
    SolutionNonPositive,
    WrongFamily,
)
from .spline import cubic_spline

# Default search box and grid for root bracketing.  The closed-form families
# are low-degree polynomials or rationals, so a wide fixed box is cheap.
SEARCH_BOX = (-1.0e3, 1.0e3)
SEARCH_GRID = 10_000
BISECT_TOL = 1.0e-13

# Scale-invariant tolerance for "mutually opposite" slope comparisons.
SLOPE_TOL_CLOSED = 1.0e-9
SLOPE_TOL_CUSTOM = 1.0e-6


# ---------------------------------------------------------------------------
# Family specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Quadratic:
    """Q = K (phi0^2 - phi^2), the round family."""

    K: float
    phi0: float

    def __post_init__(self):
        if not self.K > 0:
            raise BadParams(f"Quadratic requires K > 0, got {self.K}")
        if self.phi0 == 0:
            raise BadParams("Quadratic requires phi0 != 0")


@dataclass(frozen=True)
class TypeA:
    """Q = -K phi^2 + [alpha phi^(2m-1) - eta/m] / (2m-1)."""

    m: int
    K: float
    alpha: float
    eta: float

    def __post_init__(self):
        if self.m < 2:
            raise BadParams(f"TypeA requires m >= 2, got {self.m}")


@dataclass(frozen=True)
class TypeB:
    """Q = K phi / m + alpha phi^(m+1) - 2 eta / (m (m+1))."""

    m: int
    K: float
    alpha: float
    eta: float

    def __post_init__(self):
        if self.m < 2:
            raise BadParams(f"TypeB requires m >= 2, got {self.m}")


@dataclass(frozen=True)
class TypeC:
    """Q = (t - 1) [A + B E(t) + C F(t)] in the rescaled variable t = phi/c."""

    m: int
    c: float
    A: float
    B: float
    C: float

    def __post_init__(self):
        if self.m < 2:
            raise BadParams(f"TypeC requires m >= 2, got {self.m}")
        if self.c == 0:
            raise BadParams("TypeC requires c != 0")


@dataclass(frozen=True)
class Polynomial:
    """Q = sum_k coeffs[k] phi^k with exact derivative evaluation."""

    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) == 0:
            raise BadParams("Polynomial requires at least one coefficient")


@dataclass(frozen=True)
class Custom:
    """Q interpolated through sample pairs (phi_i, Q_i) by a not-a-knot cubic
    spline."""

    phi: tuple
    q: tuple

    def __post_init__(self):
        if len(self.phi) != len(self.q) or len(self.phi) < 4:
            raise BadParams("Custom requires >= 4 matching (phi, Q) samples")
        d = np.diff(np.asarray(self.phi, dtype=float))
        if not (np.all(d > 0) or np.all(d < 0)):
            raise BadParams("Custom sample grid must be strictly monotone")


ProfileSpec = Quadratic | TypeA | TypeB | TypeC | Polynomial | Custom


# ---------------------------------------------------------------------------
# Closed-form building blocks
# ---------------------------------------------------------------------------

def _horner(x, coeffs):
    """sum_k coeffs[k] x^k by Horner's scheme, in the operation order of
    ``numpy.polynomial.polynomial.polyval`` (c[-1] + x*0, then
    c[k] + out*x), so its result equals polyval's bit for bit and has the
    same type, without polyval's per-call coefficient handling."""
    c = np.asarray(coeffs, dtype=float)
    out = c[-1] + x * 0
    for ck in c[-2::-1]:
        out = ck + out * x
    return out


def rational_basis(m: int, t):
    """Basis pair (F, E) of the rational profile family.

    F(t) = (t-2) t^(2m-1) / (t-1)^m and E(t) = (t-1) * sum_{k=1}^{m}
    (k/m) binom(2m-k-1, m-1) t^(k-1), with binomials taken in exact integer
    arithmetic.  Raises PoleAtOne if F is requested at t = 1.
    """
    if m < 1:
        raise BadParams(f"rational_basis requires m >= 1, got {m}")
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr == 1.0):
        raise PoleAtOne("F(t) has a pole at t = 1")
    coeffs = _e_inner_coeffs(m)
    inner = _horner(t_arr, coeffs)
    E = (t_arr - 1.0) * inner
    F = (t_arr - 2.0) * t_arr ** (2 * m - 1) / (t_arr - 1.0) ** m
    if np.isscalar(t) or t_arr.ndim == 0:
        return float(F), float(E)
    return F, E


def _e_inner_coeffs(m: int) -> np.ndarray:
    """Coefficients of sum_{k=1}^m (k/m) binom(2m-k-1, m-1) t^(k-1), ascending."""
    return np.array(
        [k * math.comb(2 * m - k - 1, m - 1) / m for k in range(1, m + 1)],
        dtype=float,
    )


def slope_constraint_poly(k: int, beta: float) -> tuple[float, float]:
    """Two-endpoint slope constraint polynomial and its factorization residual.

    f(beta) = (k-1) beta^(k+1) - (k+1) beta^k + (k+1) beta - (k-1) vanishes
    exactly when a degree-k family can match zero values and opposite slopes
    at two endpoints with ratio beta.  Returns (f, |f - (beta-1)^3 Pi(beta)|)
    where Pi(beta) = sum_{j=1}^{k-1} j (k-j) beta^(j-1); f is evaluated by
    Horner's scheme.
    """
    if k < 2:
        raise BadParams(f"slope_constraint_poly requires k >= 2, got {k}")
    coeffs = np.zeros(k + 2)
    coeffs[k + 1] = k - 1.0
    coeffs[k] = -(k + 1.0)
    coeffs[1] = k + 1.0
    coeffs[0] = -(k - 1.0)
    f = float(_horner(beta, coeffs))
    pi_coeffs = np.array([j * (k - j) for j in range(1, k)], dtype=float)
    pi = float(_horner(beta, pi_coeffs))
    residual = abs(f - (beta - 1.0) ** 3 * pi)
    return f, residual


# ---------------------------------------------------------------------------
# Evaluators per family
# ---------------------------------------------------------------------------

class _Evaluators:
    """Vectorized (q, dq, d2q) triple plus the natural evaluation domain."""

    def __init__(self, q, dq, d2q, domain=(-np.inf, np.inf), pole=None):
        self.q = q
        self.dq = dq
        self.d2q = d2q
        self.domain = domain
        self.pole = pole


def _poly_evaluators(coeffs: np.ndarray) -> _Evaluators:
    c0 = np.asarray(coeffs, dtype=float)
    c1 = npoly.polyder(c0)
    c2 = npoly.polyder(c1)
    return _Evaluators(
        lambda p: _horner(np.asarray(p, dtype=float), c0),
        lambda p: _horner(np.asarray(p, dtype=float), c1),
        lambda p: _horner(np.asarray(p, dtype=float), c2),
    )


def _type_c_evaluators(spec: TypeC) -> _Evaluators:
    m, c, A, B, C = spec.m, spec.c, spec.A, spec.B, spec.C
    # Polynomial part (t-1)(A + B E(t)); E(t) = (t-1) * inner(t).
    inner = _e_inner_coeffs(m)
    e_poly = npoly.polymul(np.array([-1.0, 1.0]), inner)
    p_poly = npoly.polymul(np.array([-1.0, 1.0]), npoly.polyadd([A], B * e_poly))
    p1 = npoly.polyder(p_poly)
    p2 = npoly.polyder(p1)
    # Rational part C (t-2) t^(2m-1) (t-1)^(1-m) = C N(t) (t-1)^(1-m).
    n_poly = npoly.polymul(np.array([-2.0, 1.0]),
                           np.concatenate([np.zeros(2 * m - 1), [1.0]]))
    n1 = npoly.polyder(n_poly)
    n2 = npoly.polyder(n1)

    def q_t(t):
        val = _horner(t, p_poly)
        if C != 0.0:
            val = val + C * _horner(t, n_poly) * (t - 1.0) ** (1 - m)
        return val

    def dq_t(t):
        val = _horner(t, p1)
        if C != 0.0:
            u = (t - 1.0) ** (1 - m)
            v = (t - 1.0) ** (-m)
            val = val + C * (_horner(t, n1) * u
                             + (1 - m) * _horner(t, n_poly) * v)
        return val

    def d2q_t(t):
        val = _horner(t, p2)
        if C != 0.0:
            u = (t - 1.0) ** (1 - m)
            v = (t - 1.0) ** (-m)
            w = (t - 1.0) ** (-m - 1)
            val = val + C * (_horner(t, n2) * u
                             + 2 * (1 - m) * _horner(t, n1) * v
                             - m * (1 - m) * _horner(t, n_poly) * w)
        return val

    def q(p):
        return q_t(np.asarray(p, dtype=float) / c)

    def dq(p):
        return dq_t(np.asarray(p, dtype=float) / c) / c

    def d2q(p):
        return d2q_t(np.asarray(p, dtype=float) / c) / c ** 2

    pole = c if C != 0.0 else None
    return _Evaluators(q, dq, d2q, pole=pole)


def _custom_evaluators(spec: Custom) -> _Evaluators:
    phi = np.asarray(spec.phi, dtype=float)
    q = np.asarray(spec.q, dtype=float)
    if phi[0] > phi[-1]:
        phi, q = phi[::-1], q[::-1]
    spline = cubic_spline(phi, q)
    return _Evaluators(spline, spline.derivative(1), spline.derivative(2),
                       domain=(float(phi[0]), float(phi[-1])))


def family_evaluators(spec: ProfileSpec) -> _Evaluators:
    """Exact (q, dq, d2q) evaluators for a family specification."""
    if isinstance(spec, Quadratic):
        return _poly_evaluators(np.array([spec.K * spec.phi0 ** 2, 0.0, -spec.K]))
    if isinstance(spec, TypeA):
        m = spec.m
        coeffs = np.zeros(2 * m)
        coeffs[0] = -spec.eta / (m * (2 * m - 1))
        coeffs[2] = -spec.K
        coeffs[2 * m - 1] = spec.alpha / (2 * m - 1)
        return _poly_evaluators(coeffs)
    if isinstance(spec, TypeB):
        m = spec.m
        coeffs = np.zeros(m + 2)
        coeffs[0] = -2.0 * spec.eta / (m * (m + 1))
        coeffs[1] = spec.K / m
        coeffs[m + 1] = spec.alpha
        return _poly_evaluators(coeffs)
    if isinstance(spec, TypeC):
        return _type_c_evaluators(spec)
    if isinstance(spec, Polynomial):
        return _poly_evaluators(np.asarray(spec.coeffs, dtype=float))
    if isinstance(spec, Custom):
        return _custom_evaluators(spec)
    raise BadParams(f"unknown profile family {type(spec).__name__}")


# ---------------------------------------------------------------------------
# Profile
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Profile:
    """A positive profile on a closed interval, with exact derivative access.

    ``endpoint_slopes`` holds dQ/dphi at an endpoint when Q vanishes there,
    and None otherwise.  ``q_scale`` is the max of |Q| over the interval and
    feeds every scale-invariant tolerance downstream.
    """

    spec: ProfileSpec
    interval: tuple[float, float]
    q: Callable = field(repr=False)
    dq: Callable = field(repr=False)
    d2q: Callable = field(repr=False)
    endpoint_slopes: tuple[Optional[float], Optional[float]]
    q_scale: float
    truncated: bool = False

    @property
    def phi_min(self) -> float:
        return self.interval[0]

    @property
    def phi_max(self) -> float:
        return self.interval[1]

    @property
    def slope_tol(self) -> float:
        return (SLOPE_TOL_CUSTOM if isinstance(self.spec, Custom)
                else SLOPE_TOL_CLOSED)


def make_profile(spec: ProfileSpec, interval: Sequence[float]) -> Profile:
    """Build a Profile on the given closed interval, validating positivity.

    Raises PoleInInterval when the rational family has its pole strictly
    inside the interval, and NonPositive when Q <= 0 at an interior grid
    point.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not hi > lo:
        raise BadParams(f"degenerate interval [{lo}, {hi}]")
    ev = family_evaluators(spec)
    if ev.pole is not None and lo < ev.pole < hi:
        raise PoleInInterval(
            f"pole at phi = {ev.pole} lies inside ({lo}, {hi})")
    if ev.domain[0] - 1e-12 > lo or ev.domain[1] + 1e-12 < hi:
        raise BadParams(
            f"interval [{lo}, {hi}] exceeds sample range {ev.domain}")
    grid = np.linspace(lo, hi, 1002)[1:-1]
    qg = np.asarray(ev.q(grid), dtype=float)
    if np.any(qg <= 0.0):
        bad = grid[np.argmin(qg)]
        raise NonPositive(f"Q <= 0 at interior point phi = {bad}")
    scale = float(max(np.max(qg), abs(float(ev.q(lo))), abs(float(ev.q(hi)))))
    slopes = []
    for end in (lo, hi):
        if abs(float(ev.q(end))) <= 1.0e-9 * max(scale, 1.0):
            slopes.append(float(ev.dq(end)))
        else:
            slopes.append(None)
    return Profile(spec=spec, interval=(lo, hi), q=ev.q, dq=ev.dq, d2q=ev.d2q,
                   endpoint_slopes=(slopes[0], slopes[1]), q_scale=scale)


def find_admissible_interval(spec: ProfileSpec, seed: float) -> Profile:
    """Maximal positivity interval of Q around a seed, with root endpoints.

    Roots are located by grid bracketing over SEARCH_BOX, bisection to
    BISECT_TOL, and one Newton polish.  Raises NoRoot when Q stays positive
    up to a box edge, and SeedNonPositive when Q(seed) <= 0.
    """
    ev = family_evaluators(spec)
    lo, hi = SEARCH_BOX
    # Clip the box to the natural domain and to the seed's side of any pole.
    lo = max(lo, ev.domain[0])
    hi = min(hi, ev.domain[1])
    if ev.pole is not None:
        if seed > ev.pole:
            lo = max(lo, ev.pole + 1e-12 * max(1.0, abs(ev.pole)))
        else:
            hi = min(hi, ev.pole - 1e-12 * max(1.0, abs(ev.pole)))
    if not lo <= seed <= hi:
        raise SeedNonPositive(f"seed {seed} outside search box [{lo}, {hi}]")
    if float(ev.q(seed)) <= 0.0:
        raise SeedNonPositive(f"Q(seed) = {float(ev.q(seed))} <= 0")

    roots = []
    for direction, edge in ((-1, lo), (1, hi)):
        xs = np.linspace(seed, edge, SEARCH_GRID // 2)
        qs = np.asarray(ev.q(xs), dtype=float)
        idx = np.nonzero(qs <= 0.0)[0]
        idx = idx[idx > 0]
        if idx.size == 0:
            raise NoRoot(
                f"Q > 0 up to the box edge {edge} in direction {direction}")
        i = int(idx[0])
        roots.append(_locate_root(ev, xs[i - 1], xs[i]))
    phi_lo, phi_hi = min(roots), max(roots)
    return make_profile(spec, (phi_lo, phi_hi))


def _locate_root(ev: _Evaluators, x_pos: float, x_other: float) -> float:
    """Bisection from a bracket [x_pos, x_other] with Q(x_pos) > 0, then one
    Newton polish.  Handles an exact/tangential zero at the far bracket end."""
    q_other = float(ev.q(x_other))
    if q_other == 0.0:
        root = x_other
    else:
        a, b = x_pos, x_other
        while abs(b - a) > BISECT_TOL * max(1.0, abs(a), abs(b)):
            mid = 0.5 * (a + b)
            if float(ev.q(mid)) > 0.0:
                a = mid
            else:
                b = mid
        root = 0.5 * (a + b)
    dq = float(ev.dq(root))
    if abs(dq) > 1e-14:
        step = float(ev.q(root)) / dq
        if abs(step) < abs(x_other - x_pos):
            root = root - step
    return root


# ---------------------------------------------------------------------------
# Boundary-condition report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryReport:
    """Deterministic flags for the two-sided boundary conditions on Q."""

    endpoint_values: tuple[float, float]
    endpoint_slopes: tuple[float, float]
    endpoints_vanish: bool
    positivity_ok: bool
    slopes_nonzero: bool
    slopes_opposite: bool

    @property
    def passed(self) -> bool:
        return (self.endpoints_vanish and self.positivity_ok
                and self.slopes_nonzero and self.slopes_opposite)


def check_boundary(profile: Profile, tol: Optional[float] = None) -> BoundaryReport:
    """Report whether Q vanishes at both endpoints, stays positive inside,
    and has mutually opposite nonzero endpoint slopes.

    "Mutually opposite" is tested scale-invariantly:
    |s_lo + s_hi| <= tol * max(|s_lo|, |s_hi|).  Reports, never raises.
    """
    if tol is None:
        tol = profile.slope_tol
    lo, hi = profile.interval
    v = (float(profile.q(lo)), float(profile.q(hi)))
    s = (float(profile.dq(lo)), float(profile.dq(hi)))
    scale = max(profile.q_scale, 1.0)
    vanish = max(abs(v[0]), abs(v[1])) <= tol * scale
    grid = np.linspace(lo, hi, 1002)[1:-1]
    positive = bool(np.all(np.asarray(profile.q(grid), dtype=float) > 0.0))
    s_scale = max(abs(s[0]), abs(s[1]), profile.q_scale / (hi - lo))
    nonzero = min(abs(s[0]), abs(s[1])) > tol * s_scale
    opposite = abs(s[0] + s[1]) <= tol * max(abs(s[0]), abs(s[1]), 1e-300)
    return BoundaryReport(endpoint_values=v, endpoint_slopes=s,
                          endpoints_vanish=vanish, positivity_ok=positive,
                          slopes_nonzero=nonzero, slopes_opposite=opposite)


# ---------------------------------------------------------------------------
# Rational-family admissibility report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TypeCReport:
    """Per-condition flags for a rational-family profile on its t-interval.

    ``rational_ok`` records a necessary condition only: when A != 0, the
    endpoint values of A^-1 dQ/dt must be close to rationals p/q with
    q <= 64.  It is reported, never asserted as sufficient.
    """

    t_interval: tuple[float, float]
    analytic: bool
    vanishing: bool
    positive: bool
    slopes_nonzero: bool
    slopes_opposite: bool
    one_outside: bool
    rational_ok: bool
    endpoint_dq_dt: tuple[float, float]
    rational_matches: tuple

    @property
    def admissible(self) -> bool:
        return (self.analytic and self.vanishing and self.positive
                and self.slopes_nonzero and self.slopes_opposite)


def best_rational(x: float) -> tuple[int, int, float]:
    """Closest fraction p/q with 1 <= q <= 64; returns (p, q, error)."""
    best = (0, 1, abs(x))
    for q in range(1, 65):
        p = round(x * q)
        err = abs(x - p / q)
        if err < best[2]:
            best = (p, q, err)
    return best


def check_type_c(m: int, profile: Profile) -> TypeCReport:
    """Admissibility flags for a TypeC profile in the rescaled variable t.

    Checks analyticity (the pole t = 1 must lie outside the interval unless
    C = 0), endpoint vanishing, interior positivity, nonzero and mutually
    opposite endpoint slopes dQ/dt, the exclusion 1 not-in I, and the
    rationality necessary condition on A^-1 dQ/dt at the endpoints, each
    to a relative tolerance of 1e-6.
    """
    tol = 1.0e-6
    if not isinstance(profile.spec, TypeC):
        raise WrongFamily("check_type_c requires a TypeC profile")
    spec = profile.spec
    if spec.m != m:
        raise WrongFamily(f"profile has m = {spec.m}, report asked for {m}")
    c = spec.c
    t_ends = sorted((profile.phi_min / c, profile.phi_max / c))
    t_lo, t_hi = t_ends
    # Endpoints are numerically located roots; containment of t = 1 gets a
    # relative tolerance so an ulp of root error cannot flip the flag.
    pad = 1e-9 * max(1.0, abs(t_lo), abs(t_hi))
    contains_one = (t_lo - pad) <= 1.0 <= (t_hi + pad)
    analytic = (spec.C == 0.0) or not contains_one
    bnd = check_boundary(profile, tol=tol)
    # dQ/dt = c * dQ/dphi; endpoint order follows the t-interval.
    phi_ends = (t_lo * c, t_hi * c)
    dq_dt = tuple(float(c * profile.dq(p)) for p in phi_ends)
    s_scale = max(abs(dq_dt[0]), abs(dq_dt[1]), 1e-300)
    nonzero = min(abs(dq_dt[0]), abs(dq_dt[1])) > tol * s_scale
    opposite = abs(dq_dt[0] + dq_dt[1]) <= tol * s_scale
    if spec.A == 0.0:
        rational_ok = True
        matches = ()
    else:
        matches = tuple(best_rational(v / spec.A) for v in dq_dt)
        rational_ok = all(err <= tol for (_, _, err) in matches)
    return TypeCReport(t_interval=(t_lo, t_hi), analytic=analytic,
                       vanishing=bnd.endpoints_vanish,
                       positive=bnd.positivity_ok,
                       slopes_nonzero=nonzero, slopes_opposite=opposite,
                       one_outside=not contains_one, rational_ok=rational_ok,
                       endpoint_dq_dt=dq_dt, rational_matches=matches)


# ---------------------------------------------------------------------------
# Type classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TypeTag:
    """Classification of a model into one of the four types A, B, C1, C2."""

    tag: str
    eps: int
    c: Optional[float]
    excluded: bool = False
    note: str = ""


def classify_type(eps: int, c: Optional[float],
                  interval: tuple[float, float]) -> TypeTag:
    """Total, deterministic classification from (eps, c, interval).

    eps = 0 gives type A.  For eps = +-1: c = 0 gives type B (always flagged
    as excluded for compact models); c outside the closed interval gives C1;
    c inside gives C2, with an advisory note that this case requires the
    rescaled variable to reach 1 and is reported as a necessary condition
    only.
    """
    if eps not in (-1, 0, 1):
        raise BadParams(f"eps must be in {{-1, 0, 1}}, got {eps}")
    if eps == 0:
        return TypeTag(tag="A", eps=0, c=None)
    if c is None:
        raise Inconsistent("eps != 0 requires the constant c")
    if c == 0.0:
        return TypeTag(tag="B", eps=eps, c=0.0, excluded=True,
                       note="excluded: no compact model admits this type")
    lo, hi = interval
    if lo <= c <= hi:
        return TypeTag(tag="C2", eps=eps, c=c,
                       note=("necessary condition only: the rescaled "
                             "variable reaches 1 inside the interval"))
    return TypeTag(tag="C1", eps=eps, c=c)


# ---------------------------------------------------------------------------
# Soliton profile
# ---------------------------------------------------------------------------

def soliton_profile(m: int, p: float, s0: float, kappa: float, eps: int,
                    c: float, anchor: tuple[float, float],
                    rng: tuple[float, float]) -> Profile:
    """Solve the first-order linear soliton ODE for Q through an anchor.

        p Q' - Q + (m-1) p Q / u = eps p kappa - 2 s0 u,   u = phi - c

    The equation is linear.  With the integrating factor u^(m-1) e^(-u/p),
    Q is evaluated in closed form on a grid of nodes:

        Q(u) = [(u_a^(m-1) Q_a + S(u_a)) e^((u - u_a)/p) - S(u)] / u^(m-1),

    where -S(u) e^(-u/p) is an antiderivative of the integrating factor
    times the right-hand side over p, e^(-u/p) (eps kappa u^(m-1)
    - (2 s0/p) u^m), that is
    S(u) = sum_k w_k sum_{j<=k} k!/(k-j)! p^(j+1) u^(k-j) over
    (k, w_k) = (m-1, eps kappa) and (m, -2 s0/p).  Q is returned as a Custom
    profile over the sub-range of ``rng`` where Q > 0; if Q hits zero inside
    the range, the range is truncated and the profile is marked
    ``truncated``.
    """
    if m < 2:
        raise BadParams(f"soliton_profile requires m >= 2, got {m}")
    if p == 0.0:
        raise BadParams("soliton_profile requires p != 0")
    if eps not in (-1, 1):
        raise BadParams("soliton_profile requires eps = +-1")
    lo, hi = float(rng[0]), float(rng[1])
    if lo <= c <= hi:
        raise RangeContainsC(f"range [{lo}, {hi}] contains phi = c = {c}")
    if eps * (lo - c) <= 0 or eps * (hi - c) <= 0:
        raise BadParams("soliton_profile requires eps (phi - c) > 0 on range")
    phi_a, q_a = float(anchor[0]), float(anchor[1])
    if not lo <= phi_a <= hi:
        raise BadParams(f"anchor phi = {phi_a} outside range [{lo}, {hi}]")
    if q_a <= 0:
        raise BadParams(f"anchor value Q = {q_a} must be positive")

    n_nodes = 4097
    nodes = np.linspace(lo, hi, n_nodes)
    i_a = int(np.argmin(np.abs(nodes - phi_a)))
    nodes[i_a] = phi_a  # snap so the anchor is a grid node (shift < spacing/2)
    s_coeffs = np.zeros(m + 1)     # S(u), ascending powers of u
    for k, w in ((m - 1, eps * kappa), (m, -2.0 * s0 / p)):
        for j in range(k + 1):
            s_coeffs[k - j] += (w * math.factorial(k) / math.factorial(k - j)
                                * p ** (j + 1))
    u, u_a = nodes - c, phi_a - c
    with np.errstate(over="ignore", invalid="ignore"):
        values = ((u_a ** (m - 1) * q_a + _horner(u_a, s_coeffs))
                  * np.exp((u - u_a) / p)
                  - _horner(u, s_coeffs)) / u ** (m - 1)
    values[i_a] = q_a
    if not np.all(np.isfinite(values)):
        raise SolutionNonPositive("Q overflows on the range: |range / p| "
                                  "is too large")

    # The positive run of nodes around the anchor, less one node of margin
    # at a truncated end so the spline stays positive.
    nonpositive = np.flatnonzero(values <= 0.0)
    k = int(np.searchsorted(nonpositive, i_a))
    j_lo = int(nonpositive[k - 1]) + 2 if k > 0 else 0
    j_hi = int(nonpositive[k]) - 2 if k < len(nonpositive) else n_nodes - 1
    truncated = len(nonpositive) > 0
    if j_hi - j_lo < 8:
        raise SolutionNonPositive("positive sub-range too short for a profile")
    spec = Custom(phi=tuple(nodes[j_lo:j_hi + 1]),
                  q=tuple(values[j_lo:j_hi + 1]))
    prof = make_profile(spec, (nodes[j_lo], nodes[j_hi]))
    return replace(prof, truncated=True) if truncated else prof


def soliton_ode_residual(profile: Profile, m: int, p: float, s0: float,
                         kappa: float, eps: int, c: float) -> float:
    """Max relative residual of the soliton ODE at 100 points of the
    profile interior."""
    lo, hi = profile.interval
    pad = 1e-3 * (hi - lo)
    phis = np.linspace(lo + pad, hi - pad, 100)
    q = np.asarray(profile.q(phis))
    dq = np.asarray(profile.dq(phis))
    lhs = p * dq - q + (m - 1) * p * q / (phis - c)
    rhs = eps * p * kappa - 2.0 * s0 * (phis - c)
    scale = np.max(np.abs(rhs)) + np.max(np.abs(q)) + 1.0
    return float(np.max(np.abs(lhs - rhs)) / scale)


# ---------------------------------------------------------------------------
# Family symmetry report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymmetryReport:
    """Admissibility and interval-symmetry summary for TypeA/TypeB specs."""

    family: str
    found: bool
    boundary_ok: bool
    symmetric: bool
    interval: Optional[tuple[float, float]]
    slopes: Optional[tuple[float, float]]
    note: str = ""


def symmetric_family_report(spec: TypeA | TypeB) -> SymmetryReport:
    """Search for an admissible interval of a TypeA/TypeB spec and report
    whether it is symmetric about 0.

    Admissible TypeA instances force alpha = 0 and a symmetric interval;
    admissible TypeB instances have a symmetric interval.  Symmetry is
    tested as |phi_min + phi_max| <= 1e-9 max(|phi_min|, |phi_max|).
    """
    if not isinstance(spec, (TypeA, TypeB)):
        raise WrongFamily("symmetric_family_report requires TypeA or TypeB")
    ev = family_evaluators(spec)
    probe = np.linspace(-10.0, 10.0, 4001)
    qp = np.asarray(ev.q(probe), dtype=float)
    if not np.any(qp > 0.0):
        return SymmetryReport(family=type(spec).__name__, found=False,
                              boundary_ok=False, symmetric=False,
                              interval=None, slopes=None,
                              note="Q <= 0 on the probe grid")
    seed = float(probe[int(np.argmax(qp))])
    try:
        prof = find_admissible_interval(spec, seed)
    except (NoRoot, SeedNonPositive, NonPositive) as exc:
        return SymmetryReport(family=type(spec).__name__, found=False,
                              boundary_ok=False, symmetric=False,
                              interval=None, slopes=None, note=str(exc))
    bnd = check_boundary(prof)
    lo, hi = prof.interval
    symmetric = abs(lo + hi) <= 1.0e-9 * max(abs(lo), abs(hi))
    return SymmetryReport(family=type(spec).__name__, found=True,
                          boundary_ok=bnd.passed, symmetric=symmetric,
                          interval=prof.interval,
                          slopes=bnd.endpoint_slopes)
