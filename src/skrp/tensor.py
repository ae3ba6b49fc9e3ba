"""Chart-level numerical differential geometry by finite differences.

Charts expose analytic metric and potential values only; every derivative
here comes from one stencil operator.  For chart dimension n the operator is
an integer-coded cloud of P offsets in units of h/2 (the five-point order-4
stencils along each axis and, for second partials, along the diagonals
e_i + e_j and e_i - e_j of each coordinate plane, at steps h and h/2 for
one level of Richardson extrapolation) and a unit-step weight matrix W of
shape (n + n(n+1)/2, P): one row per first partial, one per second partial,
with the Richardson combination folded in.  The second-order cloud holds
P = 1 + 6n + 12 n(n-1)/2 points (97 / 217 / 385 at n = 4 / 6 / 8).  It is
ordered as the center, the axis points, then one block per coordinate
plane, so W is block sparse (440 of its 44 x 385 entries are nonzero at
n = 8): the first and pure second partials read only the center and axis
points, and every mixed partial applies the same weight vector to its own
plane's block.  The center-plus-axis part alone is the first-order cloud
(1 + 6n points), so one operator, built on first use and cached per n,
serves first-order, pure and second-order partials.
A cloud is laid out along the coordinate axes, or along the rows of a
per-point direction basis where ``partials`` is given one.

Every function below takes a batch of points with points as the leading
axis, shape (B, n), and returns arrays with the point axis first; one point
is a batch of one, shape (1, n).  The clouds of a batch go through the
chart's vectorized callables in chunks of about CHUNK_POINTS stencil points,
and each chunk is reduced to partials (``Stencil.apply``: the products of
W's nonzero blocks) before the next is evaluated, which bounds memory while
keeping each call large.  The contractions of the metric jet and the
curvature are batched matrix products over reshaped arrays.

Curvature follows the sign convention

    R(u, v)w = nabla_v nabla_u w - nabla_u nabla_v w + nabla_[u,v] w,

so the coordinate components are
R(d_i, d_j)d_k = (d_j Gamma^l_ik - d_i Gamma^l_jk
                  + Gamma^m_ik Gamma^l_jm - Gamma^m_jk Gamma^l_im) d_l,
and the Ricci tensor is the trace Ric_ik = R^j_ijk, which equals the
frame contraction Ric(w, w') = sum_alpha g(R(w, e_alpha)w', e_alpha) over
any g-orthonormal frame.  With this pairing a round sphere of Gaussian
curvature K has Ricci = +K g, which the test suite pins.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import BadParams, SingularMetric, SkrpError, StencilOutOfDomain

# Stencil points per evaluation of a chart callable: large enough that call
# overhead is small, small enough that a chunk of n = 8 metric values stays
# a few megabytes.
CHUNK_POINTS = 2048

# RK4 steps per recorded geodesic sample.
RECORD_EVERY = 4

_D1 = ((-2, 1.0), (-1, -8.0), (1, 8.0), (2, -1.0))                # / 12 h
_D2 = ((-2, -1.0), (-1, 16.0), (0, -30.0), (1, 16.0), (2, -1.0))  # / 12 h^2


@dataclass(frozen=True)
class FDConfig:
    """Finite-difference configuration: the step h in chart coordinates of
    the order-4 five-point stencils, which are extrapolated from steps h and
    h/2."""

    h: float = 1.0e-3

    def __post_init__(self):
        if not (math.isfinite(self.h) and self.h > 0):
            raise BadParams(f"FDConfig.h must be finite and positive, got "
                            f"{self.h!r}")


@dataclass(frozen=True)
class ChartMetric:
    """A coordinate chart: vectorized metric, constant complex structure,
    potential, and a domain predicate.

    ``g`` maps an (N, n) array of points to (N, n, n) symmetric matrices;
    ``phi`` maps (N, n) to (N,); ``domain`` maps (N, n) to (N,) booleans.
    ``meta`` carries model data (m, a, eps, c, profile, sampling hints).
    """

    n: int
    g: Callable = field(repr=False)
    J: np.ndarray = field(repr=False)
    phi: Callable = field(repr=False)
    domain: Callable = field(repr=False)
    meta: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# The stencil operator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Stencil:
    """Cloud offsets ``codes`` (P, n) in units of h/2 and unit-step weights
    ``W`` (n + n(n+1)/2, P): row i is d/dx_i, row ``pair[i, j]`` d2/dx_i dx_j.

    The cloud is the center, the A - 1 axis points (with the center, the
    first-order cloud), then one block of M points per plane i < j, every
    block in the same local order.  ``apply`` uses W's nonzero blocks:
    ``Wa`` (2n, A), the rows ``axis_rows`` (first, then pure second
    partials) on the first A columns, so ``Wa[:n]`` is the first-order
    operator; and ``w_plane`` (M,), the weights every mixed row
    ``mixed_rows[p]`` puts on block p.  Every array is read-only, since one
    cached operator serves every caller."""

    codes: np.ndarray
    W: np.ndarray
    pair: np.ndarray
    axis_rows: np.ndarray
    Wa: np.ndarray
    mixed_rows: np.ndarray
    w_plane: np.ndarray

    def apply(self, vals: np.ndarray, h: float, second: bool | str):
        """First partials (B, n, ...) and second partials or None from
        values on a batch of clouds (B, P, ...), in the mode ``second`` of
        ``partials``: False and "pure" read first-order clouds (P = A) and
        give d2 None or the pure second partials (B, n, ...); True reads
        whole clouds and gives d2 (B, n, n, ...).  Every row of W sums to
        zero, so the center value is subtracted first: differences keep the
        roundoff small, and a constant has exactly zero partials."""
        B, n, A = len(vals), self.codes.shape[1], self.Wa.shape[1]
        trail = vals.shape[2:]
        vals = vals.reshape(B, vals.shape[1], -1)
        diff = vals - vals[:, :1]
        axis = (self.Wa if second else self.Wa[:n]) @ diff[:, :A]
        d1 = (axis[:, :n] / h).reshape((B, n) + trail)
        if not second:
            return d1, None
        if second == "pure":
            return d1, (axis[:, n:] / (h * h)).reshape((B, n) + trail)
        M, T = len(self.w_plane), diff.shape[2]
        out = np.empty((B, len(self.W), T))
        out[:, self.axis_rows] = axis
        out[:, self.mixed_rows] = self.w_plane @ diff[:, A:].reshape(
            B, len(self.mixed_rows), M, T)
        return d1, (out[:, self.pair] / (h * h)).reshape((B, n, n) + trail)


@functools.lru_cache(maxsize=None)
def stencil(n: int) -> Stencil:
    """The order-4 stencil operator for chart dimension n (Fornberg,
    Math. Comp. 51 (1988) 699-706, gives these weights): the five-point
    first and second differences D1, D2 along each axis and, for a mixed
    partial, (D2 along e_i + e_j - D2 along e_i - e_j) / 4.  Each row is
    extrapolated by one level of Richardson: 16/15 of its step-h/2 form
    minus 1/15 of its step-h form."""
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    index = {(0,) * n: 0}
    taps = []   # (row, column, weight)

    def tap(row, weight, *axis_codes):
        code = [0] * n
        for axis, c in axis_codes:
            code[axis] += c
        taps.append((row, index.setdefault(tuple(code), len(index)), weight))

    def d2_taps(row, i, j, s, coef):
        # d2/dx_i^2 is D2 along e_i; d2/dx_i dx_j is a quarter of D2
        # along e_i + e_j minus D2 along e_i - e_j (the centers cancel).
        step = 0.5 * s
        lines = [(1.0, 0)] if i == j else [(0.25, 1), (-0.25, -1)]
        for frac, dj in lines:
            for c, w in _D2:
                tap(row, frac * coef * w / (12.0 * step * step),
                    (i, c * s), (j, dj * c * s))

    levels = ((2, -1.0 / 15.0), (1, 16.0 / 15.0))     # (step in h/2, weight)
    diag = [(row, i) for row, (i, j) in enumerate(pairs, start=n) if i == j]
    mixed = [(row, i, j) for row, (i, j) in enumerate(pairs, start=n) if i < j]
    # The first partials place the axis points after the center; the pure
    # second partials use only those; then each plane adds its own block.
    for s, coef in levels:
        step = 0.5 * s      # in units of h
        for i in range(n):
            for c, w in _D1:
                tap(i, coef * w / (12.0 * step), (i, c * s))
    for s, coef in levels:
        for row, i in diag:
            d2_taps(row, i, i, s, coef)
    A = len(index)
    for row, i, j in mixed:
        for s, coef in levels:
            d2_taps(row, i, j, s, coef)
    W = np.zeros((n + len(pairs), len(index)))
    for row, col, w in taps:
        W[row, col] += w
    codes = np.array(list(index), dtype=int).reshape(len(index), n)
    pair = np.empty((n, n), dtype=int)
    for row, (i, j) in enumerate(pairs, start=n):
        pair[i, j] = pair[j, i] = row
    axis_rows = np.concatenate([np.arange(n), np.diagonal(pair)])
    mixed_rows = np.array([row for row, _, _ in mixed], dtype=int)
    M = (len(index) - A) // len(mixed) if mixed else 0
    Wa = W[axis_rows, :A]
    w_plane = W[mixed_rows[0], A:A + M] if mixed else np.zeros(0)
    for arr in (codes, W, pair, axis_rows, mixed_rows, Wa, w_plane):
        arr.flags.writeable = False
    return Stencil(codes=codes, W=W, pair=pair, axis_rows=axis_rows, Wa=Wa,
                   mixed_rows=mixed_rows, w_plane=w_plane)


def partials(fn: Callable, x: np.ndarray, h: float, second: bool | str,
             domain: Optional[Callable] = None,
             basis: Optional[np.ndarray] = None):
    """Values at x, first and second partials of a vectorized ``fn`` at a
    nonempty batch of points x (B, n), as (value, d1, d2 or None).
    ``second`` is False, True (d2 (B, n, n, ...)) or "pure" (the pure second
    partials, d2 (B, n, ...)); False and "pure" evaluate only the
    first-order cloud.

    With a ``basis`` (B, n, n), the cloud of point b is laid out along the
    rows of basis[b] instead of the coordinate axes, so d1[b, k] is the
    derivative along basis[b, k] and d2 the second derivatives along those
    directions.

    The one place where a stencil cloud is built, checked against
    ``domain`` (a cloud that leaves it raises StencilOutOfDomain naming its
    point) and reduced by W.  Every cloud keeps its center, the value at x.
    The clouds are evaluated in chunks of about CHUNK_POINTS points.
    """
    if x.ndim != 2 or len(x) == 0:
        raise SkrpError(f"points must be a nonempty batch of shape (B, n), "
                        f"got {x.shape}")
    B, n = x.shape
    op = stencil(n)
    codes = op.codes if second is True else op.codes[:op.Wa.shape[1]]
    offsets = codes * (0.5 * h)
    P = len(offsets)
    per = max(1, CHUNK_POINTS // P)
    values, d1s, d2s = [], [], []
    for lo in range(0, B, per):
        xb = x[lo:lo + per]
        cloud = offsets if basis is None else offsets @ basis[lo:lo + per]
        pts = (xb[:, None, :] + cloud).reshape(-1, n)
        if domain is not None:
            inside = np.asarray(domain(pts), dtype=bool).reshape(len(xb), P)
            if not inside.all():
                k = int(np.argmin(inside.all(axis=1)))
                raise StencilOutOfDomain(
                    f"{int(np.sum(~inside[k]))} stencil points leave the "
                    f"domain around point {lo + k} at {xb[k].tolist()}")
        vals = np.asarray(fn(pts))
        vals = vals.reshape((len(xb), P) + vals.shape[1:])
        values.append(vals[:, 0].copy())    # not a view of the chunk
        d1, d2 = op.apply(vals, h, second)
        d1s.append(d1)
        d2s.append(d2)

    def join(parts):    # a single chunk needs no copy
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    return join(values), join(d1s), join(d2s) if second else None


def _check_points(chart: ChartMetric, x: np.ndarray):
    """Raise a SkrpError naming both shapes unless x is a nonempty batch
    (B, n) of points of the chart; every entry point that takes points of
    a chart checks them so before its first call of ``chart.g`` or
    ``chart.phi``."""
    if x.ndim != 2 or len(x) == 0 or x.shape[1] != chart.n:
        raise SkrpError(f"points on a chart of n = {chart.n} must be a "
                        f"nonempty batch of shape (B, n), got {x.shape}")


def _amax(a: np.ndarray) -> np.ndarray:
    """max |a| over all axes but the leading (point) axis."""
    return np.max(np.abs(a).reshape(len(a), -1), axis=1, initial=0.0)


# ---------------------------------------------------------------------------
# Metric jet and derived tensors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricJet:
    """Metric, inverse, first/second partials, and Christoffel symbols,
    each with the point axis first."""

    g: np.ndarray
    ginv: np.ndarray
    dg: np.ndarray                  # dg[b, i] = partial_i g
    d2g: Optional[np.ndarray]       # d2g[b, i, j] = partial_i partial_j g
    gamma: np.ndarray               # gamma[b, k, i, j]


def metric_jet(chart: ChartMetric, x, fd: FDConfig,
               second: bool = True) -> MetricJet:
    _check_points(chart, x)
    g, dg, d2g = partials(chart.g, x, fd.h, second, domain=chart.domain)
    ev = np.linalg.eigvalsh(g)
    bad = (ev[:, 0] <= 0) | (ev[:, 0] < 1e-14 * ev[:, -1])
    if np.any(bad):
        k = int(np.argmax(bad))
        raise SingularMetric(f"metric not positive definite at "
                             f"{x[k].tolist()}: eigenvalues {ev[k].tolist()}")
    ginv = np.linalg.inv(g)
    return MetricJet(g=g, ginv=ginv, dg=dg, d2g=d2g,
                     gamma=_christoffel(ginv, dg))


def _bracket(dg: np.ndarray) -> np.ndarray:
    """[..., i, j, l] = d_i g_jl + d_j g_il - d_l g_ij over the last three
    axes of dg[..., i, j, l] = d_i g_jl."""
    return dg + np.swapaxes(dg, -3, -2) - np.moveaxis(dg, -3, -1)


def _christoffel(ginv: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """gamma[b, k, i, j] = 1/2 g^{kl} (d_i g_{jl} + d_j g_{il} - d_l g_{ij})."""
    B, n = ginv.shape[:2]
    br = _bracket(dg).reshape(B, n * n, n)
    return 0.5 * (ginv @ br.swapaxes(1, 2)).reshape(B, n, n, n)


def connection_coefficients(chart: ChartMetric, x, fd: FDConfig) -> np.ndarray:
    """Christoffel symbols gamma[b, k, i, j] of the Levi-Civita connection."""
    return metric_jet(chart, x, fd, second=False).gamma


def _dginv(jet: MetricJet) -> np.ndarray:
    """dginv[b, j, l, m] = partial_j g^{lm} = -(g^-1 partial_j g g^-1)^{lm}."""
    ginv = jet.ginv[:, None]
    return -(ginv @ jet.dg @ ginv)


def _gamma_partials(jet: MetricJet) -> np.ndarray:
    """dgamma[b, j, l, i, k] = partial_j gamma^l_{ik}, assembled
    analytically from the metric jet (no nested differencing)."""
    B, n = jet.ginv.shape[:2]
    br = _bracket(jet.dg).reshape(B, n * n, n).swapaxes(1, 2)
    br2 = _bracket(jet.d2g).reshape(B, n, n * n, n).swapaxes(2, 3)
    return 0.5 * ((_dginv(jet).reshape(B, n * n, n) @ br).reshape(B, n, n, n, n)
                  + (jet.ginv[:, None] @ br2).reshape(B, n, n, n, n))


@dataclass(frozen=True)
class CurvatureTensors:
    riemann: np.ndarray     # riemann[b, l, i, j, k]: R(d_i, d_j)d_k = R^l d_l
    ricci: np.ndarray
    scalar: np.ndarray
    jet: MetricJet
    dgamma: np.ndarray      # dgamma[b, j, l, i, k] = partial_j gamma^l_{ik}


def curvature(chart: ChartMetric, x, fd: FDConfig) -> CurvatureTensors:
    """Riemann (stated sign convention), Ricci, and scalar curvature, with
    the partials of the Christoffel symbols they are built from."""
    jet = metric_jet(chart, x, fd, second=True)
    dgamma = _gamma_partials(jet)
    gamma = jet.gamma
    B, n = gamma.shape[:2]
    # gg[b, l, i, j, k] = gamma^l_{im} gamma^m_{jk}; the two quadratic terms
    # are gg with i and j swapped, minus gg.
    gg = (gamma.reshape(B, n * n, n)
          @ gamma.reshape(B, n, n * n)).reshape(B, n, n, n, n)
    riemann = (np.einsum("bjlik->blijk", dgamma)
               - np.einsum("biljk->blijk", dgamma)
               + gg.swapaxes(2, 3) - gg)
    # Ric(d_i, d_k) = R^j_{ijk}, the trace over l = j.
    ricci = np.einsum("bjijk->bik", riemann)
    ricci = 0.5 * (ricci + np.swapaxes(ricci, 1, 2))
    scalar = np.einsum("bik,bik->b", jet.ginv, ricci)
    return CurvatureTensors(riemann=riemann, ricci=ricci, scalar=scalar,
                            jet=jet, dgamma=dgamma)


def _gdot(u: np.ndarray, g: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.einsum("bi,bij,bj->b", u, g, v)


def orthonormal_frame(g: np.ndarray, seeds: Optional[np.ndarray] = None
                      ) -> np.ndarray:
    """Gram-Schmidt orthonormal frames (rows) from the coordinate basis in
    fixed index order, optionally preceded by seed vectors.

    ``g`` is (B, n, n) and ``seeds`` (B, s, n).  A candidate within 1e-10 of
    the span of the frame so far is skipped.
    """
    g = np.asarray(g, dtype=float)
    if g.ndim != 3 or len(g) == 0 or g.shape[1] != g.shape[2]:
        raise SkrpError(f"metrics must be a nonempty batch of shape "
                        f"(B, n, n), got {g.shape}")
    B, n, _ = g.shape
    candidates = np.broadcast_to(np.eye(n), (B, n, n))
    if seeds is not None:
        candidates = np.concatenate([np.asarray(seeds, dtype=float),
                                     candidates], axis=1)
    frame = np.zeros((B, n, n))
    count = np.zeros(B, dtype=int)
    for c in range(candidates.shape[1]):
        w = candidates[:, c].copy()
        norm0 = np.sqrt(np.maximum(_gdot(w, g, w), 0.0))
        # Unfilled frame rows are zero and leave w unchanged.
        for e in frame.transpose(1, 0, 2)[:int(count.max())]:
            w = w - _gdot(e, g, w)[:, None] * e
        norm = np.sqrt(np.maximum(_gdot(w, g, w), 0.0))
        take = np.nonzero((norm > 1e-10 * np.maximum(norm0, 1.0))
                          & (count < n))[0]
        frame[take, count[take]] = w[take] / norm[take, None]
        count[take] += 1
        if np.all(count == n):
            return frame
    raise SingularMetric("could not complete an orthonormal frame")


# ---------------------------------------------------------------------------
# Potential derivatives
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PotentialDerivatives:
    phi: np.ndarray
    grad_phi: np.ndarray
    dphi: np.ndarray
    d2phi: np.ndarray       # d2phi[b, i, j] = partial_i partial_j phi
    hess_phi: np.ndarray
    Y: np.ndarray
    Q: np.ndarray


def potential_derivatives(chart: ChartMetric, x, fd: FDConfig,
                          jet: Optional[MetricJet] = None
                          ) -> PotentialDerivatives:
    """Value, gradient, covariant Hessian, Laplacian Y, and
    Q = g(grad, grad) of the chart potential."""
    _check_points(chart, x)
    if jet is None:
        jet = metric_jet(chart, x, fd, second=False)
    phi, dphi, d2phi = partials(chart.phi, x, fd.h, True, domain=chart.domain)
    hess = d2phi - np.einsum("bkij,bk->bij", jet.gamma, dphi)
    hess = 0.5 * (hess + np.swapaxes(hess, 1, 2))
    grad = np.einsum("bij,bj->bi", jet.ginv, dphi)
    return PotentialDerivatives(
        phi=phi, grad_phi=grad, dphi=dphi, d2phi=d2phi, hess_phi=hess,
        Y=np.einsum("bij,bij->b", jet.ginv, hess),
        Q=np.einsum("bi,bi->b", dphi, grad))


def _batch_grad_scalar(chart: ChartMetric, fn, pts: np.ndarray,
                       fd: FDConfig) -> np.ndarray:
    """Euclidean gradient (B, n) of a scalar function at a batch of points,
    from one ``partials`` call with no domain check."""
    return partials(fn, np.asarray(pts, dtype=float), fd.h, False)[1]


# ---------------------------------------------------------------------------
# Geodesics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeodesicPath:
    """Sampled geodesics, one sample every RECORD_EVERY RK4 steps: s has
    shape (S,), x and v have shape (B, S, n), S = n_steps // RECORD_EVERY
    + 1.  ``alive`` (B,) is all True, since a ray that leaves the domain
    raises; ``perfbench/spans.py`` still counts paths by it."""

    s: np.ndarray
    x: np.ndarray
    v: np.ndarray
    alive: np.ndarray


def _geodesic_acceleration(chart: ChartMetric, x: np.ndarray, v: np.ndarray,
                           fd: FDConfig) -> np.ndarray:
    """Geodesic accelerations a = -gamma(v, v) (B, n) at points x with
    velocities v (B, n), from one first-order ``partials`` call on the
    metric, which raises StencilOutOfDomain for a cloud leaving the domain.

    The metric partials are contracted with v, r_l = (d_v g)_{lj} v^j
    - 1/2 d_l g(v, v), which is g_{lk} gamma^k(v, v), and g a = -r is
    solved: no Christoffel tensor and no inverse metric are formed.
    """
    g, dg, _ = partials(chart.g, x, fd.h, False, domain=chart.domain)
    # dgv[b, l, j] = (d_l g)_{jk} v^k
    dgv = (dg @ v[:, None, :, None])[..., 0]
    r = (v[:, None, :] @ dgv)[:, 0] - 0.5 * (dgv @ v[:, :, None])[..., 0]
    return -np.linalg.solve(g, r[..., None])[..., 0]


def geodesic_batch(chart: ChartMetric, x0: np.ndarray, w0: np.ndarray,
                   s_max: float, fd: FDConfig, n_steps: int
                   ) -> GeodesicPath:
    """Integrate x'' + gamma(x)[x', x'] = 0 by fixed-step RK4 for a batch of
    initial conditions x0, w0 (B, n); w0 is normalized to unit g-length
    internally.  ``n_steps`` must be a positive multiple of RECORD_EVERY,
    so that the last sample is the end of the path.  Each RK4 stage is one
    ``_geodesic_acceleration`` call on the whole batch.

    A ray whose stencil cloud leaves the chart domain raises
    StencilOutOfDomain at the first stage where it does, naming its index
    in the batch; no ray is frozen or dropped, so ``alive`` is all True.
    """
    x0 = np.asarray(x0, dtype=float).copy()
    w0 = np.asarray(w0, dtype=float).copy()
    _check_points(chart, x0)
    if w0.shape != x0.shape:
        raise SkrpError(f"w0 must have the shape of x0, {x0.shape}, got "
                        f"{w0.shape}")
    if n_steps <= 0 or n_steps % RECORD_EVERY:
        raise SkrpError(f"n_steps must be a positive multiple of "
                        f"{RECORD_EVERY}, got {n_steps}")
    B, n = x0.shape
    g0 = np.asarray(chart.g(x0))
    norms = np.sqrt(np.einsum("bi,bij,bj->b", w0, g0, w0))
    v = w0 / norms[:, None]
    x = x0
    hstep = s_max / n_steps

    n_rec = n_steps // RECORD_EVERY
    xs = np.empty((B, n_rec + 1, n))
    vs = np.empty((B, n_rec + 1, n))
    ss = np.arange(0, n_steps + 1, RECORD_EVERY) * hstep
    xs[:, 0], vs[:, 0] = x, v

    half = 0.5 * hstep
    for step in range(1, n_steps + 1):
        k1 = _geodesic_acceleration(chart, x, v, fd)
        v2 = v + half * k1
        k2 = _geodesic_acceleration(chart, x + half * v, v2, fd)
        v3 = v + half * k2
        k3 = _geodesic_acceleration(chart, x + half * v2, v3, fd)
        v4 = v + hstep * k3
        k4 = _geodesic_acceleration(chart, x + hstep * v3, v4, fd)
        x = x + hstep / 6.0 * (v + 2 * v2 + 2 * v3 + v4)
        v = v + hstep / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        if step % RECORD_EVERY == 0:
            xs[:, step // RECORD_EVERY], vs[:, step // RECORD_EVERY] = x, v
    return GeodesicPath(s=ss, x=xs, v=vs, alive=np.ones(B, dtype=bool))


# ---------------------------------------------------------------------------
# Kahler and Killing residuals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KahlerResiduals:
    hermitian_res: np.ndarray
    domega_res: np.ndarray
    nabla_j_res: np.ndarray

    def worst(self):
        return np.maximum.reduce([self.hermitian_res, self.domega_res,
                                  self.nabla_j_res])


def kahler_residuals(chart: ChartMetric, x, fd: FDConfig,
                     jet: Optional[MetricJet] = None) -> KahlerResiduals:
    """Hermitian-metric, closed-form, and parallel-J residuals per point,
    from ``jet`` (the metric jet at x, first order or second) if given.

    hermitian_res = max|J^T g J - g| / max|g|;
    domega_res    = max|(d omega)_{ijk}| / (1 + max|dg|), omega = J^T g;
    nabla_j_res   = max|gamma J - J gamma contraction| / (1 + max|gamma|).
    """
    if jet is None:
        jet = metric_jet(chart, x, fd, second=False)
    J = chart.J
    herm = _amax(J.T @ jet.g @ J - jet.g) / _amax(jet.g)
    # omega_{jk} = (J^T g)_{jk}; d omega from the metric partials, over the
    # index triples i < j < k.
    dom = np.einsum("mj,bimk->bijk", J, jet.dg)
    cyclic = dom - np.swapaxes(dom, 1, 2) + np.moveaxis(dom, 1, -1)
    i, j, k = np.indices((chart.n,) * 3)
    domega = _amax(cyclic[:, (i < j) & (j < k)])
    # (nabla_k J)^i_j = gamma^i_{km} J^m_j - gamma^m_{kj} J^i_m.
    nj = (np.einsum("bikm,mj->bkij", jet.gamma, J)
          - np.einsum("bmkj,im->bkij", jet.gamma, J))
    return KahlerResiduals(hermitian_res=herm,
                           domega_res=domega / (1.0 + _amax(jet.dg)),
                           nabla_j_res=_amax(nj) / (1.0 + _amax(jet.gamma)))


@dataclass(frozen=True)
class KillingResiduals:
    sym_nabla_u_res: np.ndarray
    hermitian_hess_res: np.ndarray

    def worst(self):
        return np.maximum(self.sym_nabla_u_res, self.hermitian_hess_res)


def _killing_field(jet: MetricJet, pot: PotentialDerivatives,
                   J: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """u = J grad phi (B, n) and its partials du[b, j, k] = partial_j u^k
    (B, n, n), from the metric jet and the coordinate second partials of
    phi: partial_j u = J (partial_j g^-1 dphi + g^-1 partial_j dphi)."""
    dgrad = (np.einsum("bjlm,bm->bjl", _dginv(jet), pot.dphi)
             + np.einsum("blm,bjm->bjl", jet.ginv, pot.d2phi))
    return pot.grad_phi @ J.T, dgrad @ J.T


def killing_residual(chart: ChartMetric, x, fd: FDConfig,
                     jet: Optional[MetricJet] = None,
                     pot: Optional[PotentialDerivatives] = None
                     ) -> KillingResiduals:
    """Killing-field and Hermitian-Hessian residuals for u = J grad(phi),
    from ``jet`` and ``pot`` (the metric jet and potential derivatives at
    x) where given.

    sym_nabla_u_res    = max|sym(g nabla u)| / (1 + max|g nabla u|), with
                         g nabla u the lowered tensor (nabla_j u)_k;
    hermitian_hess_res = max|H(J., .) + H(., J.)| / (1 + max|H|).

    One first-order metric cloud and one second-order phi cloud per point:
    nabla u comes from the metric jet and the second partials of phi, not
    from differencing u itself.
    """
    if jet is None:
        jet = metric_jet(chart, x, fd, second=False)
    if pot is None:
        pot = potential_derivatives(chart, x, fd, jet=jet)
    J = chart.J
    u, du = _killing_field(jet, pot, J)
    # nabla_j u^k at [b, k, j]; du[b, j, k] = d_j u^k.
    nu = np.swapaxes(du, 1, 2) + np.einsum("bkjm,bm->bkj", jet.gamma, u)
    lowered = jet.g @ nu
    sym_res = (_amax(lowered + np.swapaxes(lowered, 1, 2))
               / (1.0 + _amax(lowered)))

    H = pot.hess_phi
    herm_res = _amax(J.T @ H @ J - H) / (1.0 + _amax(H))
    return KillingResiduals(sym_nabla_u_res=sym_res,
                            hermitian_hess_res=herm_res)
