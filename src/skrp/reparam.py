"""Reparameterizations between phi, the radial coordinate r, and arclength s.

The radial coordinate solves d(log r)/d(phi) = a/Q for a nonzero constant a,
so log r splits into exact logarithmic terms at simple roots of Q plus a
smooth remainder integral.  Tables built here carry that split explicitly,
which keeps r(phi) accurate arbitrarily close to the roots, where r tends to
0 or infinity.  Arclength uses ds/dphi = sgn(a)/sqrt(Q), regularized at root
endpoints by the substitution w = sqrt(|phi - endpoint|) and integrated by
one fixed Gauss-Legendre rule in w; the distance invariant L and s(phi)
both read it.  The inverse phi(r) and the dense interpolant phi(log r) come
from one bracketed Newton solver on log r(phi).

The dual table reuses the log-radius split, negated term by term.  At a
root where r -> 0, the split also gives the limits there in closed form:
w = (phi - root)/r^2 is exp(-2S) up to sign, with S the smooth rest of the
split, so no difference phi - root is ever divided.
"""

from __future__ import annotations

import copy
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
# Gauss-Legendre nodes and weights on [-1, 1] for the arclength in w.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)


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

    def value(self, phi, skip: Optional[float] = None):
        """log r(phi), optionally without the log term of the end ``skip``."""
        phi = np.asarray(phi, dtype=float)
        out = self._R(phi) + self.const
        if self.root_lo and skip != self.lo:
            out = out + self.p_lo * np.log(phi - self.lo)
        if self.root_hi and skip != self.hi:
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


def _arc(profile: Profile, end: float, sign: float, w0, w1) -> np.ndarray:
    """int dphi / sqrt(Q) from phi = end + sign w0^2 to end + sign w1^2,
    elementwise over the arrays w0 and w1.

    In w = sqrt(|phi - end|) the integrand 2w / sqrt(Q) is smooth at a
    simple root at ``end``, so fixed Gauss-Legendre nodes integrate it.
    """
    w0, w1 = np.broadcast_arrays(np.asarray(w0, dtype=float),
                                 np.asarray(w1, dtype=float))
    half = 0.5 * (w1 - w0)[..., None]
    w = 0.5 * (w0 + w1)[..., None] + half * _GL_NODES
    q = np.asarray(profile.q(end + sign * w * w), dtype=float)
    return np.sum(half * _GL_WEIGHTS * 2.0 * w / np.sqrt(q), axis=-1)


def _s_from_lo(profile: Profile, phi) -> np.ndarray:
    """Arclength from the lo endpoint to phi, clipped to the interval.

    The interval splits at its midpoint, and each half is integrated in
    the w of its own endpoint.  On the lo half s is the whole half less
    the part from phi to the midpoint, so no node comes nearer a root than
    the nodes of a whole half, however close phi is to it.
    """
    lo, hi = profile.interval
    mid = 0.5 * (lo + hi)
    phi = np.clip(np.asarray(phi, dtype=float), lo, hi)
    w_lo, w_hi = math.sqrt(mid - lo), math.sqrt(hi - mid)
    w_phi_lo = np.sqrt(np.minimum(phi, mid) - lo)
    w_phi_hi = np.sqrt(hi - np.maximum(phi, mid))
    return (_arc(profile, lo, +1.0, 0.0, w_lo)
            - _arc(profile, lo, +1.0, w_phi_lo, w_lo)
            + _arc(profile, hi, -1.0, w_phi_hi, w_hi))


@dataclass(frozen=True)
class ReparamTable:
    """Monotone correspondence between phi, r, and arclength s.

    Nodes are stored in increasing-r order (equivalently increasing s, with
    s = 0 at the small-r end).  ``r_unbounded`` marks tables whose radial
    coordinate exceeds R_SENTINEL before the far endpoint, the finite
    stand-in for r -> infinity.  The arclength ``L`` and ``s_of_phi`` are
    quadratures of the profile, evaluated on each call.
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

    def ball_w(self, phi, which: int):
        """w = (phi - e)/r^2 near the end e = interval[which] (0 = lo,
        1 = hi) where r -> 0.

        There log r = 1/2 log|phi - e| + S(phi), with S the smooth rest of
        the split (``_require_ball_endpoint`` holds a/Q'(e) to 1/2), so
        w = +-exp(-2S) and no difference phi - e is divided.
        """
        e = self.profile.interval[which]
        return (1.0, -1.0)[which] * np.exp(-2.0 * self._logr.value(phi, e))

    # -- arclength ------------------------------------------------------------

    @property
    def L(self) -> float:
        return float(_s_from_lo(self.profile, self.profile.interval[1]))

    def s_of_phi(self, phi):
        out = _s_from_lo(self.profile, phi)
        if self.a < 0:
            out = self.L - out
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
    """The distance invariant L = int dphi / sqrt(Q) over the interval.

    Requires simple roots at both endpoints, where L is the length of the
    normal geodesics between the critical sets of phi.  The quadrature is
    that of ``ReparamTable.L``: the interval splits at its midpoint, and
    each half is integrated by the 64 Gauss-Legendre nodes in
    w = sqrt(|phi - endpoint|), where the integrand is smooth.
    """
    lo, hi = profile.interval
    for which, end in ((0, lo), (1, hi)):
        slope = profile.endpoint_slopes[which]
        if slope is None or abs(slope) < 1e-12:
            raise SingularEndpoint(
                f"endpoint {end} is not a simple root of Q")
    return float(_s_from_lo(profile, hi))


@dataclass(frozen=True)
class BoundaryLimits:
    """Values at xi = r^2 = 0 of Q/r^2 and of the first and second
    derivatives of phi and Q/r^2 with respect to xi."""

    q0: float
    dphi_dxi: float
    d2phi_dxi2: float
    dqr2_dxi: float
    d2qr2_dxi2: float


def boundary_limits(table: ReparamTable, endpoint: str) -> BoundaryLimits:
    """Limits at r = 0 of phi and Q/r^2 as functions of xi = r^2, in closed
    form from the log-radius split.

    The chosen endpoint e ('lo' or 'hi') must be a simple root of Q with
    dQ/dphi = 2a there (validated to 1e-6 relative), so that r -> 0 at it.
    With rho = a/Q - 1/(2(phi - e)) = rho0 + rho1 (phi - e) + ..., the
    split's root series, dphi/dxi = Q/(2a xi) = w/(1 + 2 rho (phi - e)) and
    Q/xi = 2a dphi/dxi, where w = (phi - e)/xi obeys dw/dphi = -2 rho w.
    Expanding at w0 = w(e) gives dphi/dxi = w0, d2phi/dxi2 = -4 rho0 w0^2
    and d3phi/dxi3 = w0^3 (36 rho0^2 - 6 rho1); q0 and the xi-derivatives
    of Q/r^2 are 2a times these.
    """
    if endpoint not in ("lo", "hi"):
        raise BadParams("endpoint must be 'lo' or 'hi'")
    profile = table.profile
    which = _require_ball_endpoint(
        profile, table.a, profile.interval[0 if endpoint == "lo" else 1])
    e = profile.interval[which]
    a = table.a
    w0 = float(table.ball_w(e, which))
    rho0, rho1 = table._logr._series[e]
    d2phi = -4.0 * rho0 * w0 * w0
    return BoundaryLimits(q0=2.0 * a * w0, dphi_dxi=w0, d2phi_dxi2=d2phi,
                          dqr2_dxi=2.0 * a * d2phi,
                          d2qr2_dxi2=a * w0 ** 3 * (72.0 * rho0 ** 2
                                                    - 12.0 * rho1))


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


def _d3q_one_sided(profile: Profile, phi0: float, inward: float) -> float:
    """Third derivative of Q at an endpoint phi0, by a one-sided difference
    of the exact d2q evaluator with step 1e-4 of the interval length
    toward ``inward`` (+1 or -1)."""
    lo, hi = profile.interval
    h = inward * 1.0e-4 * (hi - lo)
    d2 = np.asarray(profile.d2q(phi0 + h * np.arange(3.0)), dtype=float)
    return float((-3.0 * d2[0] + 4.0 * d2[1] - d2[2]) / (2.0 * h))
