"""Reparameterizations between phi, the radial coordinate r, and arclength s.

The radial coordinate solves d(log r)/d(phi) = a/Q for a nonzero constant a,
so log r splits into exact logarithmic terms at simple roots of Q plus a
smooth remainder integral.  Tables built here carry that split explicitly,
which keeps r(phi) accurate arbitrarily close to the roots, where r tends to
0 or infinity.  Arclength uses ds/dphi = sgn(a)/sqrt(Q), regularized at root
endpoints by the substitution w = sqrt(phi - endpoint).  The inverse
phi(r) and the dense interpolant phi(log r) come from one bracketed Newton
solver on log r(phi).

A table builds only what its callers read: the arclength splines are built
on first use of ``s_of_phi``, ``s_nodes`` or ``L`` (no pointwise check reads
them), and the dual table reuses the log-radius split, negated term by term.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    AnchorOutOfRange,
    BadParams,
    NonPositiveQ,
    SingularEndpoint,
    TableRangeExceeded,
    WrongEndpoint,
)
from .profiles import Profile
from .spline import PiecewisePoly, cubic_spline

R_SENTINEL = 1.0e12
N_TABLE = 1024
N_SMOOTH = 2048
ENDPOINT_CLIP = 1.0e-6
# Knots of the dense interpolant phi(log r).
DENSE_KNOTS = 8192


class _LogRadius:
    """log r(phi) = p_lo log(phi - lo) + p_hi log(hi - phi) + R(phi) + const.

    p_e = a / Q'(endpoint) when the endpoint is a simple root of Q; the
    corresponding log term is absent otherwise.  R is the integral of the
    smooth remainder of a/Q, held as the antiderivative of a spline through
    Chebyshev-clustered samples, so r(phi) stays accurate arbitrarily close
    to the roots.
    """

    def __init__(self, profile: Profile, a: float):
        self.profile = profile
        self.a = float(a)
        lo, hi = profile.interval
        self.lo, self.hi = lo, hi
        length = hi - lo
        s_lo, s_hi = profile.endpoint_slopes
        self.root_lo = s_lo is not None
        self.root_hi = s_hi is not None
        self.p_lo = a / s_lo if self.root_lo else 0.0
        self.p_hi = a / s_hi if self.root_hi else 0.0
        self._d_switch = 1.0e-4 * length
        self._series = {}
        if self.root_lo:
            self._series[lo] = self._root_series(lo, +1.0)
        if self.root_hi:
            self._series[hi] = self._root_series(hi, -1.0)
        j = np.arange(N_SMOOTH + 1)
        x = lo + 0.5 * length * (1.0 - np.cos(np.pi * j / N_SMOOTH))
        y = self._remainder(x)
        self._R = cubic_spline(x, y).antiderivative()
        self.const = 0.0

    def _root_series(self, phi0: float, inward: float):
        """Taylor coefficients of a/Q - p/(phi - phi0) at a simple root.

        With Q = s d + q2 d^2/2 + q3 d^3/6 for d = phi - phi0,
        a/Q - p/d = -p q2/(2s) + p [(q2/(2s))^2 - q3/(6s)] d + O(d^2).
        """
        s = float(self.profile.dq(phi0))
        q2 = float(self.profile.d2q(phi0))
        q3 = _d3q_one_sided(self.profile, phi0, inward)
        p = self.a / s
        c0 = -p * q2 / (2.0 * s)
        c1 = p * ((q2 / (2.0 * s)) ** 2 - q3 / (6.0 * s))
        return c0, c1

    def _singular(self, phi, skip: Optional[float] = None):
        """Sum of singular terms p_e/(phi - e), optionally skipping one end."""
        out = np.zeros_like(phi)
        with np.errstate(divide="ignore", invalid="ignore"):
            if self.root_lo and skip != self.lo:
                out = out + self.p_lo / (phi - self.lo)
            if self.root_hi and skip != self.hi:
                out = out + self.p_hi / (phi - self.hi)
        return out

    def _remainder(self, phi):
        """a/Q minus all singular terms, series-switched near the roots."""
        phi = np.asarray(phi, dtype=float)
        q = np.asarray(self.profile.q(phi), dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            val = self.a / q - self._singular(phi)
        for phi0, (c0, c1) in self._series.items():
            d = phi - phi0
            near = np.abs(d) < self._d_switch
            if np.any(near):
                series_val = c0 + c1 * d - self._singular(phi, skip=phi0)
                val = np.where(near, series_val, val)
        return val

    def value(self, phi):
        phi = np.asarray(phi, dtype=float)
        out = self._R(phi) + self.const
        if self.root_lo:
            out = out + self.p_lo * np.log(phi - self.lo)
        if self.root_hi:
            out = out + self.p_hi * np.log(self.hi - phi)
        return out

    def derivative(self, phi):
        """d(log r)/dphi = a/Q from the profile directly."""
        return self.a / np.asarray(self.profile.q(phi), dtype=float)

    def negated(self) -> "_LogRadius":
        """The split of -log r, which is the log radius for -a: every term
        is linear in a, so negating each one is exact."""
        out = copy.copy(self)
        out.a, out.const = -self.a, -self.const
        out.p_lo, out.p_hi = -self.p_lo, -self.p_hi
        out._series = {e: (-c0, -c1) for e, (c0, c1) in self._series.items()}
        out._R = -self._R
        return out


class _Arclength:
    """Cumulative arclength s(phi) = int dpsi / sqrt(Q) from the lo endpoint.

    Each half of the interval is integrated in the substituted variable
    w = sqrt(|phi - endpoint|), which removes the inverse-square-root
    singularity at simple roots; the cumulants are antiderivatives of
    splines over uniform w-grids of 4097 nodes.
    """

    def __init__(self, profile: Profile):
        lo, hi = profile.interval
        mid = 0.5 * (lo + hi)
        self.lo, self.hi, self.mid = lo, hi, mid
        self.profile = profile
        self._left = self._half(lo, mid, +1.0)
        self._right = self._half(hi, mid, -1.0)
        self.total = float(self._left[1] + self._right[1])

    def _half(self, end: float, mid: float, sign: float):
        w_max = math.sqrt(abs(mid - end))
        w = np.linspace(0.0, w_max, 4097)
        phi = end + sign * w ** 2
        q = np.asarray(self.profile.q(phi), dtype=float)
        integrand = np.empty_like(w)
        integrand[1:] = 2.0 * w[1:] / np.sqrt(q[1:])
        slope = self.profile.dq(end)
        q_end = float(self.profile.q(end))
        if q_end > 1e-9 * max(self.profile.q_scale, 1.0):
            integrand[0] = 0.0
        else:
            integrand[0] = 2.0 / math.sqrt(abs(float(slope)))
        cum = cubic_spline(w, integrand).antiderivative()
        return cum, float(cum(w_max))

    def from_lo(self, phi):
        """s measured from the lo endpoint, increasing with phi."""
        phi = np.asarray(phi, dtype=float)
        left_cum, left_total = self._left
        right_cum, right_total = self._right
        w_left = np.sqrt(np.clip(phi - self.lo, 0.0, None))
        w_right = np.sqrt(np.clip(self.hi - phi, 0.0, None))
        left_val = left_cum(w_left)
        right_val = left_total + (right_total - right_cum(w_right))
        return np.where(phi <= self.mid, left_val, right_val)


@dataclass(frozen=True)
class ReparamTable:
    """Monotone correspondence between phi, r, and arclength s.

    Nodes are stored in increasing-r order (equivalently increasing s, with
    s = 0 at the small-r end).  ``r_unbounded`` marks tables whose radial
    coordinate exceeds R_SENTINEL before the far endpoint, the finite
    stand-in for r -> infinity.  The arclength (``s_nodes``, ``L`` and
    ``s_of_phi``) is built on first use and then kept.
    """

    profile: Profile
    a: float
    anchor: tuple[float, float]
    phi_nodes: np.ndarray = field(repr=False)
    r_nodes: np.ndarray = field(repr=False)
    r_unbounded: bool
    _logr: _LogRadius = field(repr=False)

    # -- radial coordinate ---------------------------------------------------

    def log_r(self, phi):
        return self._logr.value(phi)

    def r_of_phi(self, phi):
        out = np.exp(np.minimum(self._logr.value(phi), math.log(R_SENTINEL)))
        if np.isscalar(phi):
            return float(out)
        return out

    def phi_of_r(self, r):
        """Inverse map phi(r), all radii in one solve."""
        scalar = np.isscalar(r)
        r_arr = np.atleast_1d(np.asarray(r, dtype=float))
        if np.any(r_arr <= 0):
            raise TableRangeExceeded("r must be positive")
        phi = self._phi_of_logr(np.log(r_arr))
        return float(phi[0]) if scalar else phi

    def dense_phi_of_logr(self, logr_lo: float, logr_hi: float
                          ) -> PiecewisePoly:
        """Smooth dense interpolant phi(log r) over a log-radius window.

        The DENSE_KNOTS knots are uniform in log r and solved to near
        machine precision, so the interpolant is safe to finite-difference.
        The window must end at least 1e-12 of the interval length inside
        the interval.
        """
        lo, hi = self.profile.interval
        pad = 1e-12 * (hi - lo)
        ends = np.sort(self._logr.value(np.array([lo + pad, hi - pad])))
        if logr_lo < ends[0] or logr_hi > ends[1]:
            raise TableRangeExceeded("log r window outside the table range")
        targets = np.linspace(logr_lo, logr_hi, DENSE_KNOTS)
        return cubic_spline(targets, self._phi_of_logr(targets))

    def _phi_of_logr(self, target: np.ndarray) -> np.ndarray:
        """Solve log r(phi) = target by safeguarded Newton-bisection with
        the exact derivative a/Q.

        Each target keeps a bracket on which log r(phi) - target changes
        sign; a Newton step that would leave it is replaced by bisection.
        The start is the interpolant of the table nodes and the bracket
        ends; beyond an end node at a simple root of Q it is the root's
        own law log r = p log|phi - root| + const (p = a/Q'(root)) through
        that node, since phi - root is exponential in log r there.  A
        target stops once its Newton step falls below 1e-14 of the
        interval length (or the roundoff of phi), so its result does not
        depend on the other targets of the call.
        """
        lo, hi = self.profile.interval
        pad = 1e-13 * (hi - lo)
        # The bracket ends and the end nodes in increasing-r order, like
        # the nodes; the end nodes' log r unclipped by R_SENTINEL.
        ends = np.array([lo + pad, hi - pad] if self.a > 0
                        else [hi - pad, lo + pad])
        v = np.asarray(self._logr.value(
            np.concatenate([ends, self.phi_nodes[[0, -1]]])))
        v_ends, v_nodes = v[:2], v[2:]
        outside = (target < v_ends[0]) | (target > v_ends[1])
        if np.any(outside):
            raise TableRangeExceeded(f"log r = {target[np.argmax(outside)]} "
                                     "outside the table range")
        # A converged Newton step hovers at the roundoff of the largest term
        # of log r times Q/a; 1e-14 of the interval length stays above it.
        tol = 1e-14 * (hi - lo)
        phi = np.interp(
            target, np.concatenate([v_ends[:1], np.log(self.r_nodes),
                                    v_ends[1:]]),
            np.concatenate([ends[:1], self.phi_nodes, ends[1:]]))
        core = self._logr
        for k, beyond in ((0, target < v_nodes[0]), (-1, target > v_nodes[1])):
            root = lo if (k == 0) == (self.a > 0) else hi
            simple, p = ((core.root_lo, core.p_lo) if root == lo
                         else (core.root_hi, core.p_hi))
            if simple and np.any(beyond):
                node = self.phi_nodes[k]
                d = abs(node - root) * np.exp(
                    (target[beyond] - v_nodes[k]) / p)
                phi[beyond] = np.clip(root + np.sign(node - root) * d,
                                      lo + pad, hi - pad)
        below = np.full_like(target, ends[0])   # log r(below) < target
        above = np.full_like(target, ends[1])
        active = np.ones(target.shape, dtype=bool)
        for _ in range(100):    # bisection alone needs fewer than 60
            f = np.asarray(self._logr.value(phi)) - target
            neg = f < 0
            below = np.where(neg, phi, below)
            above = np.where(neg, above, phi)
            with np.errstate(divide="ignore", invalid="ignore"):
                newton = phi - f / np.asarray(self._logr.derivative(phi))
            done = np.abs(newton - phi) <= tol + 8.9e-16 * np.abs(phi)
            inside = done | ((newton - below) * (newton - above) <= 0)
            if not np.all(inside):
                newton = np.where(inside, newton, 0.5 * (below + above))
            phi = np.where(active, newton, phi)
            active &= ~done
            if not np.any(active):
                break
        return phi

    # -- arclength, built on first use --------------------------------------

    @functools.cached_property
    def _arc(self) -> _Arclength:
        return _Arclength(self.profile)

    @property
    def L(self) -> float:
        return self._arc.total

    @functools.cached_property
    def s_nodes(self) -> np.ndarray:
        return self.s_of_phi(self.phi_nodes)

    def s_of_phi(self, phi):
        base = self._arc.from_lo(phi)
        if self.a > 0:
            out = base
        else:
            out = self._arc.total - base
        if np.isscalar(phi):
            return float(out)
        return out


def build_reparam(profile: Profile, a: float,
                  anchor: Optional[tuple[float, float]] = None) -> ReparamTable:
    """Build the phi <-> r <-> s table for a profile and constant a != 0.

    The radial ODE d(log r)/dphi = a/Q is integrated on the open interval
    (split exactly at root endpoints); the anchor (phi_a, r_a) fixes the
    constant factor in r.  Nodes are cosine-clustered toward the endpoints,
    clipped 1e-6 of the interval length away from them.
    """
    if a == 0.0:
        raise BadParams("build_reparam requires a != 0")
    lo, hi = profile.interval
    if anchor is None:
        anchor = (0.5 * (lo + hi), 1.0)
    phi_a, r_a = float(anchor[0]), float(anchor[1])
    if not lo < phi_a < hi:
        raise AnchorOutOfRange(f"anchor phi = {phi_a} not interior to "
                               f"({lo}, {hi})")
    if r_a <= 0:
        raise AnchorOutOfRange(f"anchor r = {r_a} must be positive")
    if float(profile.q(phi_a)) <= 0.0:
        raise NonPositiveQ(f"Q(phi_a) <= 0 at {phi_a}")

    core = _LogRadius(profile, a)
    core.const = math.log(r_a) - float(core.value(phi_a))
    return _table(profile, a, (phi_a, r_a), core)


def dual_table(table: ReparamTable) -> ReparamTable:
    """The dual table with r* = 1/r and a* = -a, same phi and s geometry.

    Realized exactly: the log-radius split negates term by term, and the
    anchor becomes (phi_a, 1/r_a), so r*(phi) = 1/r(phi) at every phi.
    """
    phi_a, r_a = table.anchor
    return _table(table.profile, -table.a, (phi_a, 1.0 / r_a),
                  table._logr.negated())


def _table(profile: Profile, a: float, anchor: tuple[float, float],
           core: _LogRadius) -> ReparamTable:
    """The table of a log-radius split: nodes cosine-clustered toward the
    endpoints, clipped ENDPOINT_CLIP of the interval length away from
    them, in increasing-r order."""
    lo, hi = profile.interval
    length = hi - lo
    delta = ENDPOINT_CLIP * length
    j = np.arange(N_TABLE)
    phi_nodes = (lo + delta) + 0.5 * (length - 2 * delta) * (
        1.0 - np.cos(np.pi * j / (N_TABLE - 1)))
    if a < 0:
        phi_nodes = phi_nodes[::-1]
    logr = np.asarray(core.value(phi_nodes))
    # r -> infinity at a root endpoint whose log-exponent a/Q' is negative.
    unbounded = bool(np.any(logr > math.log(R_SENTINEL))
                     or (core.root_lo and core.p_lo < 0)
                     or (core.root_hi and core.p_hi < 0))
    r_nodes = np.exp(np.minimum(logr, math.log(R_SENTINEL)))
    return ReparamTable(profile=profile, a=a, anchor=anchor,
                        phi_nodes=phi_nodes, r_nodes=r_nodes,
                        r_unbounded=unbounded, _logr=core)


def critical_distance(profile: Profile) -> float:
    """The arclength integral L = int dphi / sqrt(Q) over the interval.

    Requires simple roots at both endpoints; the integral is split at the
    midpoint and each half is regularized by w = sqrt(|phi - endpoint|)
    before adaptive quadrature.
    """
    # Importing SciPy costs most of a short run, so only this check does.
    from scipy.integrate import quad

    lo, hi = profile.interval
    for which, end in ((0, lo), (1, hi)):
        slope = profile.endpoint_slopes[which]
        if slope is None or abs(slope) < 1e-12:
            raise SingularEndpoint(
                f"endpoint {end} is not a simple root of Q")
    mid = 0.5 * (lo + hi)

    def half(end: float, sign: float, w_max: float) -> float:
        def integrand(w):
            if w == 0.0:
                return 2.0 / math.sqrt(abs(profile.dq(end)))
            return 2.0 * w / math.sqrt(float(profile.q(end + sign * w * w)))

        val, _ = quad(integrand, 0.0, w_max, epsrel=1.0e-9, epsabs=0.0,
                      limit=200)
        return val

    left = half(lo, +1.0, math.sqrt(mid - lo))
    right = half(hi, -1.0, math.sqrt(hi - mid))
    return left + right


@dataclass(frozen=True)
class BoundaryLimits:
    """One-sided behavior of phi and Q/r^2 as functions of xi = r^2 at xi=0."""

    q0: float
    dphi_dxi: float
    d2phi_dxi2: float
    dqr2_dxi: float
    d2qr2_dxi2: float
    ratios: tuple[float, float, float, float]
    passed: bool


def boundary_limits(table: ReparamTable, endpoint: str) -> BoundaryLimits:
    """Extrapolated limit q0 of Q/r^2 and smoothness diagnostics at r = 0.

    The chosen endpoint ('lo' or 'hi') must be a simple root of Q with
    dQ/dphi = 2a there (validated to 1e-6 relative); then r -> 0 at that
    endpoint, q0 is obtained by Richardson extrapolation over the three
    smallest-r table nodes, and the one-sided first and second derivatives
    of phi and Q/r^2 with respect to xi = r^2 are estimated at xi = 0 with
    step-halving convergence ratios.  Passing requires q0 > 0 and all four
    ratios within [0.2, 5].
    """
    if endpoint not in ("lo", "hi"):
        raise BadParams("endpoint must be 'lo' or 'hi'")
    profile = table.profile
    which = _require_ball_endpoint(
        profile, table.a, profile.interval[0 if endpoint == "lo" else 1])

    # Three smallest-r nodes: Richardson (Neville at xi = 0) for q0.
    idx = np.argsort(table.r_nodes)[:3]
    xi = table.r_nodes[idx] ** 2
    y = np.asarray(profile.q(table.phi_nodes[idx])) / xi
    q0 = _neville_at_zero(xi, y)

    # One-sided derivative diagnostics at steps h = xi_b / 2^j, j = 0..3,
    # from samples at 2 xi_b and at each h, all solved in one call.
    xi = _probe_radius(table, which) ** 2 * 2.0 ** -np.arange(-1.0, 4.0)
    phi = table.phi_of_r(np.sqrt(xi))
    qr2 = np.asarray(profile.q(phi)) / xi
    d1_phi, r1_phi, d2_phi, r2_phi = _one_sided(
        phi, float(profile.interval[which]), xi)
    d1_q, r1_q, d2_q, r2_q = _one_sided(qr2, q0, xi)
    ratios = (r1_phi, r1_q, r2_phi, r2_q)
    passed = q0 > 0 and all(0.2 <= r <= 5.0 for r in ratios)
    return BoundaryLimits(q0=float(q0), dphi_dxi=d1_phi, d2phi_dxi2=d2_phi,
                          dqr2_dxi=d1_q, d2qr2_dxi2=d2_q, ratios=ratios,
                          passed=passed)


def _require_ball_endpoint(profile: Profile, a: float, c: float) -> int:
    """Index (0 = lo, 1 = hi) of the endpoint phi = c of the profile
    interval, which must be a simple root of Q with dQ/dphi = 2a there
    (to 1e-6 relative), so that r -> 0 at it."""
    lo, hi = profile.interval
    if abs(c - lo) <= 1e-9 * max(1.0, abs(lo)):
        which = 0
    elif abs(c - hi) <= 1e-9 * max(1.0, abs(hi)):
        which = 1
    else:
        raise WrongEndpoint(
            f"c = {c} is not an endpoint of {profile.interval}")
    slope = profile.endpoint_slopes[which]
    if slope is None:
        raise WrongEndpoint(f"Q does not vanish at phi = {c}")
    if abs(slope - 2.0 * a) > 1e-6 * max(abs(2.0 * a), 1e-300):
        raise WrongEndpoint(
            f"dQ/dphi = {slope} at phi = {c} does not equal 2a = {2 * a}")
    return which


def _probe_radius(table: ReparamTable, which: int) -> float:
    """The radius 2% of the interval length in from endpoint ``which``
    (0 = lo, 1 = hi): the largest step of the r = 0 limits."""
    lo, hi = table.profile.interval
    return float(table.r_of_phi(
        (lo, hi)[which] + (0.02, -0.02)[which] * (hi - lo)))


def _d3q_one_sided(profile: Profile, phi0: float, inward: float) -> float:
    """Third derivative of Q at an endpoint phi0, by a one-sided difference
    of the exact d2q evaluator with step 1e-4 of the interval length
    toward ``inward`` (+1 or -1)."""
    lo, hi = profile.interval
    h = inward * 1.0e-4 * (hi - lo)
    d2 = np.asarray(profile.d2q(phi0 + h * np.arange(3.0)), dtype=float)
    return float((-3.0 * d2[0] + 4.0 * d2[1] - d2[2]) / (2.0 * h))


def _neville_at_zero(x: np.ndarray, y: np.ndarray) -> float:
    """Polynomial extrapolation of samples (x_i, y_i) to x = 0."""
    x = np.asarray(x, dtype=float)
    p = np.asarray(y, dtype=float).copy()
    n = len(p)
    for level in range(1, n):
        for i in range(n - level):
            p[i] = p[i + 1] + (p[i] - p[i + 1]) * x[i + level] / (
                x[i + level] - x[i])
    return float(p[0])


def _one_sided(f: np.ndarray, f0: float, xi: np.ndarray):
    """(d1, ratio1, d2, ratio2) at 0+ from samples f at xi = (2 h_0, h_0,
    ..., h_3), h_j = h_0 / 2^j: the quotients (f(h) - f0)/h and
    (f(2h) - 2 f(h) + f0)/h^2, each extrapolated to h = 0, with the ratio
    of its first two successive differences."""
    h = xi[1:]
    out = []
    for d in ((f[1:] - f0) / h, (f[:-1] - 2 * f[1:] + f0) / h ** 2):
        c0, c1 = d[0] - d[1], d[1] - d[2]
        out += [_neville_at_zero(h, d), abs(c0 / c1) if c1 != 0 else 1.0]
    return out
