"""Identity suites for built charts: eigenstructure of the Hessian and Ricci
tensors, the profile identities, conformally-Einstein and soliton residuals,
geodesic checks, and type classification.

The eigenstructure identities (``skrp_report`` and ``identity_report``) all
read one split per batch of points, ``_adapted_split``: the curvature, the
potential derivatives, orthonormal frames seeded by grad phi and J grad phi,
Hess(phi) and Ricci in those frames, and the eigenvalues tau, mu, sigma,
lam read off them.  ``conformal_einstein_report`` reads the curvature of
g/phi^2 from the same quantities through the conformal-change identity
(``_conformal_curvature``), with no chart of g/phi^2.  Each report that
reads curvature takes it and the potential derivatives at its points as
``curv`` and ``pot`` where the caller has them, and evaluates them where not.

Every residual reported here is scale-normalized (the normalization is named
in the docstring of the operation that produces it), so the default
tolerances are meaningful across models regardless of metric scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import CriticalPoint, MissingMeta, PhiNearZero
from .profiles import Profile, TypeTag, classify_type
from .tensor import (
    ChartMetric,
    CurvatureTensors,
    FDConfig,
    GeodesicPath,
    MetricJet,
    PotentialDerivatives,
    _amax,
    _batch_grad_scalar,
    _dginv,
    curvature,
    geodesic_batch,
    orthonormal_frame,
    partials,
    potential_derivatives,
)

GRAD_FLOOR = 1.0e-6


def _worst(residuals: np.ndarray) -> float:
    """The largest of per-point residuals (0.0 for no points)."""
    return float(np.max(residuals, initial=0.0))


# ---------------------------------------------------------------------------
# The adapted-frame split
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Split:
    """Curvature, potential derivatives and adapted frames at a batch of
    points, with Hess(phi) and Ricci in those frames and the eigenvalues
    read off them."""

    curv: CurvatureTensors
    pot: PotentialDerivatives
    frame: np.ndarray      # rows: v_hat, u_hat, then the orthogonal block
    Q: np.ndarray          # g(grad phi, grad phi) of the frame seeds
    hb: np.ndarray         # Hess(phi) in the frame
    rb: np.ndarray         # Ricci in the frame
    tau: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray      # from Y = 2 tau + 2(m-1) sigma
    lam: np.ndarray        # from scal = 2 mu + 2(m-1) lam
    sigma_h: np.ndarray    # mean of the orthogonal block of Hess(phi)


def _evaluate(chart: ChartMetric, points: np.ndarray, fd: FDConfig,
              curv: Optional[CurvatureTensors],
              pot: Optional[PotentialDerivatives]
              ) -> tuple[CurvatureTensors, PotentialDerivatives]:
    """The curvature and potential derivatives at points: as given, or
    evaluated where None."""
    if curv is None:
        curv = curvature(chart, points, fd)
    if pot is None:
        pot = potential_derivatives(chart, points, fd, jet=curv.jet)
    return curv, pot


def _adapted_split(chart: ChartMetric, points: np.ndarray, fd: FDConfig,
                   curv: Optional[CurvatureTensors] = None,
                   pot: Optional[PotentialDerivatives] = None) -> _Split:
    """The split at points (B, n) where dphi != 0: orthonormal frames whose
    first two vectors are v_hat = grad phi / |grad phi| and J v_hat, the
    rest spanning the orthogonal block.  tau and mu are the gradient-plane
    means; sigma, lam and sigma_h are zero when n = 2.  Raises CriticalPoint
    where |grad phi|_g <= GRAD_FLOOR."""
    m = int(chart.meta.get("m", chart.n // 2))
    n = chart.n
    curv, pot = _evaluate(chart, points, fd, curv, pot)
    g = curv.jet.g
    Q = np.einsum("bi,bij,bj->b", pot.grad_phi, g, pot.grad_phi)
    flat = Q <= GRAD_FLOOR ** 2
    if np.any(flat):
        k = int(np.argmax(flat))
        raise CriticalPoint(f"|grad phi|_g = {math.sqrt(max(Q[k], 0.0))} too "
                            f"small for an eigenstructure split at point {k}")
    v_hat = pot.grad_phi / np.sqrt(Q)[:, None]
    frame = orthonormal_frame(
        g, seeds=np.stack([v_hat, v_hat @ chart.J.T], axis=1))
    hb = _frame_blocks(frame, pot.hess_phi)
    rb = _frame_blocks(frame, curv.ricci)
    tau = 0.5 * (hb[:, 0, 0] + hb[:, 1, 1])
    mu = 0.5 * (rb[:, 0, 0] + rb[:, 1, 1])
    sigma = lam = sigma_h = np.zeros_like(tau)
    if n > 2:
        sigma = (pot.Y - 2.0 * tau) / (2.0 * (m - 1))
        lam = (curv.scalar - 2.0 * mu) / (2.0 * (m - 1))
        sigma_h = np.trace(hb[:, 2:, 2:], axis1=1, axis2=2) / (n - 2)
    return _Split(curv=curv, pot=pot, frame=frame, Q=Q, hb=hb, rb=rb,
                  tau=tau, mu=mu, sigma=sigma, lam=lam, sigma_h=sigma_h)


def _frame_blocks(frame: np.ndarray, tensor: np.ndarray) -> np.ndarray:
    """Components of twice-covariant tensors in the frames."""
    return frame @ tensor @ np.swapaxes(frame, 1, 2)


# ---------------------------------------------------------------------------
# Eigenstructure report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EigenstructureReport:
    """Per-point eigenvalues and worst-case block residuals.

    sigma/tau are the orthogonal-block and gradient-plane eigenvalues of the
    Hessian of phi, lam/mu the corresponding Ricci eigenvalues.  Residuals
    are maxima over the sampled points of frame-component deviations,
    normalized by (1 + |tau| + |sigma|) for the Hessian and
    (1 + |lam| + |mu|) for the Ricci tensor.
    """

    sigma: np.ndarray
    tau: np.ndarray
    lam: np.ndarray
    mu: np.ndarray
    Y: np.ndarray
    hess_h_res: float
    hess_v_res: float
    hess_mixed_res: float
    ricci_h_res: float
    ricci_v_res: float
    ricci_mixed_res: float
    eps_consistent: bool

    def worst(self) -> float:
        return max(self.hess_h_res, self.hess_v_res, self.hess_mixed_res,
                   self.ricci_h_res, self.ricci_v_res, self.ricci_mixed_res)


def skrp_report(chart: ChartMetric, points: np.ndarray, fd: FDConfig,
                curv: Optional[CurvatureTensors] = None,
                pot: Optional[PotentialDerivatives] = None
                ) -> EigenstructureReport:
    """Eigenstructure of Hess(phi) and Ricci against the orthogonal split.

    tau and mu are read off the gradient direction; sigma and lam come from
    the trace identities Y = 2 tau + 2(m-1) sigma and
    scal = 2 mu + 2(m-1) lam; the block residuals are the actual
    eigenstructure test.
    """
    eps = chart.meta.get("eps")
    n = chart.n
    sp = _adapted_split(chart, points, fd, curv, pot)
    hb, rb = sp.hb, sp.rb
    tau, mu, sigma, lam = sp.tau, sp.mu, sp.sigma, sp.lam
    h_scale = 1.0 + np.abs(tau) + np.abs(sigma)
    r_scale = 1.0 + np.abs(mu) + np.abs(lam)
    eye2 = np.eye(2)
    res = dict(hh=0.0, hm=0.0, rh=0.0, rm=0.0,
               hv=_worst(_amax(hb[:, :2, :2] - tau[:, None, None] * eye2)
                         / h_scale),
               rv=_worst(_amax(rb[:, :2, :2] - mu[:, None, None] * eye2)
                         / r_scale))
    eps_ok = True
    if n > 2:
        eye = np.eye(n - 2)
        res["hh"] = _worst(_amax(hb[:, 2:, 2:] - sigma[:, None, None] * eye)
                           / h_scale)
        res["hm"] = _worst(_amax(hb[:, :2, 2:]) / h_scale)
        res["rh"] = _worst(_amax(rb[:, 2:, 2:] - lam[:, None, None] * eye)
                           / r_scale)
        res["rm"] = _worst(_amax(rb[:, :2, 2:]) / r_scale)
        if eps in (-1, 1):
            eps_ok = not np.any((np.abs(sp.sigma_h) > 1e-8)
                                & (np.sign(sp.sigma_h) != eps))
    return EigenstructureReport(
        sigma=sigma, tau=tau, lam=lam, mu=mu, Y=sp.pot.Y,
        hess_h_res=res["hh"], hess_v_res=res["hv"], hess_mixed_res=res["hm"],
        ricci_h_res=res["rh"], ricci_v_res=res["rv"], ricci_mixed_res=res["rm"],
        eps_consistent=eps_ok)


# ---------------------------------------------------------------------------
# Gradient-direction identities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityReport:
    """Residuals of the six gradient-direction identities.

    (i)   dQ = 2 tau dphi                (covector comparison)
    (ii)  Y = 2 tau + 2(m-1) sigma_H     (sigma_H from the orthogonal block)
    (iii) Q = 2 (phi - c) sigma_H        (only when eps = +-1)
    (iv)  dY = -2 mu dphi
    (v)   2 tau = dQ/dphi at phi(x)      (when a profile is attached)
    (vi)  Q R(w, w') grad phi = 2 (sigma - tau) sigma g(Jw, w') J grad phi
          over orthogonal-block frame pairs (w, w'), with
          sigma = (Y - 2 tau) / (2(m-1)); compared as vectors

    Each residual is normalized by 1 plus the magnitude of the quantity it
    compares.  ``vacuous`` lists identities skipped by the chart's data.
    """

    dq_res: float
    trace_res: float
    sigma_ratio_res: Optional[float]
    dy_res: float
    profile_res: Optional[float]
    vertical_res: float
    vacuous: tuple

    def worst(self) -> float:
        vals = [self.dq_res, self.trace_res, self.dy_res, self.vertical_res]
        if self.sigma_ratio_res is not None:
            vals.append(self.sigma_ratio_res)
        if self.profile_res is not None:
            vals.append(self.profile_res)
        return max(vals)


def _dq(jet: MetricJet, pot: PotentialDerivatives) -> np.ndarray:
    """dQ (B, n) of Q = g^{ij} phi_i phi_j from the metric jet and the
    coordinate second partials of phi, with no nested stencil:
    dQ_l = partial_l g^{ij} phi_i phi_j + 2 g^{ij} phi_{il} phi_j."""
    return (np.einsum("blij,bi,bj->bl", _dginv(jet), pot.dphi, pot.dphi)
            + 2.0 * np.einsum("bil,bi->bl", pot.d2phi, pot.grad_phi))


def _dy(chart: ChartMetric, points: np.ndarray, fd: FDConfig,
        curv: CurvatureTensors, pot: PotentialDerivatives) -> np.ndarray:
    """dY (B, n) of Y = g^{ij} H_ij, H = Hess(phi), from the curvature (its
    second-order metric jet and partial_l gamma) and the potential
    derivatives at the points:

        dY_l = partial_l g^{ij} H_ij + T_l
               - g^{ij} (partial_l gamma^k_ij phi_k + gamma^k_ij phi_kl),

    where T_l = g^{ij} phi_ijl is the one contraction of the third partials
    of phi that dY reads.  With g^-1 = sum_k lam_k u_k u_k^T (eigenvalues
    lam_k, unit eigenvectors u_k), T_l = sum_k lam_k d2/du_k^2 (partial_l
    phi): the pure second differences, at step 3h along the n directions
    u_k, of the coordinate gradient of phi at step 9h with Richardson
    extrapolation.  So phi is evaluated on (1 + 6n)^2 points per point and
    no metric on the outer points.  The chart's phi is a cubic spline in
    log r whose knots lie closer together than h, so its third derivative
    jumps inside a stencil; the wide steps keep the roundoff of the nested
    difference below its truncation error."""

    def grad_phi(pts):
        return partials(chart.phi, pts, 9.0 * fd.h, False,
                        domain=chart.domain)[1]

    jet = curv.jet
    lam, vecs = np.linalg.eigh(jet.ginv)
    d2 = partials(grad_phi, points, 3.0 * fd.h, "pure",
                  basis=np.swapaxes(vecs, 1, 2))[2]     # [b, k, l]
    trace_gamma = np.einsum("bij,bkij->bk", jet.ginv, jet.gamma)
    trace_dgamma = np.einsum("bij,blkij->blk", jet.ginv, curv.dgamma)
    return (np.einsum("blij,bij->bl", _dginv(jet), pot.hess_phi)
            + np.einsum("bk,bkl->bl", lam, d2)
            - np.einsum("blk,bk->bl", trace_dgamma, pot.dphi)
            - np.einsum("bk,bkl->bl", trace_gamma, pot.d2phi))


def q_field(chart: ChartMetric, fd: FDConfig) -> Callable:
    """Vectorized x -> Q(x) = g(grad phi, grad phi)(x), a gradient stencil
    at each point.  ``identity_report`` reads dQ from ``_dq`` instead; this
    field, differenced by a first-order ``partials`` call, is the nested
    reference for it."""

    def qf(pts):
        gs = np.asarray(chart.g(pts))
        dphis = _batch_grad_scalar(chart, chart.phi, pts, fd)
        return np.einsum("bi,bij,bj->b", dphis, np.linalg.inv(gs), dphis)

    return qf


def y_field(chart: ChartMetric, fd: FDConfig) -> Callable:
    """Vectorized x -> Y(x), the Laplacian of phi, from a first-order
    metric cloud and a second-order phi cloud at step 3h around each point.
    ``identity_report`` and ``conformal_einstein_report`` read dY from
    ``_dy`` instead, which differences only the trace of the third
    partials of phi that dY needs; this field, differenced as a whole by a
    first-order ``partials`` call at step 9h, is the tests' nested
    reference for it.
    """
    fd_inner = FDConfig(h=3.0 * fd.h)

    def yf(pts):
        return potential_derivatives(chart, pts, fd_inner).Y

    return yf


def identity_report(chart: ChartMetric, points: np.ndarray, fd: FDConfig,
                    curv: Optional[CurvatureTensors] = None,
                    pot: Optional[PotentialDerivatives] = None
                    ) -> IdentityReport:
    m = int(chart.meta.get("m", chart.n // 2))
    eps = chart.meta.get("eps")
    c = chart.meta.get("c")
    profile: Optional[Profile] = chart.meta.get("profile")

    sp = _adapted_split(chart, points, fd, curv, pot)
    pot, tau, mu, sigma_h = sp.pot, sp.tau, sp.mu, sp.sigma_h

    dq = _dq(sp.curv.jet, pot)
    dq_res = _worst(_amax(dq - 2.0 * tau[:, None] * pot.dphi)
                    / (1.0 + _amax(dq)))
    trace_res = _worst(np.abs(pot.Y - 2.0 * tau - 2.0 * (m - 1) * sigma_h)
                       / (1.0 + np.abs(pot.Y)))
    ratio_res = None
    if eps in (-1, 1) and c is not None:
        ratio_res = _worst(np.abs(pot.Q - 2.0 * (pot.phi - c) * sigma_h)
                           / (1.0 + np.abs(pot.Q)))
    dy = _dy(chart, points, fd, sp.curv, pot)
    dy_res = _worst(_amax(dy + 2.0 * mu[:, None] * pot.dphi)
                    / (1.0 + _amax(dy)))
    prof_res = None
    if profile is not None:
        dqdphi = np.asarray(profile.dq(pot.phi), dtype=float)
        prof_res = _worst(np.abs(2.0 * tau - dqdphi) / (1.0 + np.abs(dqdphi)))
    # (vi): lhs[b, i, j] = Q R(w_i, w_j) grad phi for the block rows w.
    g, v, block = sp.curv.jet.g, pot.grad_phi, sp.frame[:, 2:]
    rv = np.einsum("blpqk,bk->blpq", sp.curv.riemann, v)
    lhs = sp.Q[:, None, None, None] * np.einsum(
        "bliq,bjq->bijl", np.einsum("blpq,bip->bliq", rv, block), block)
    coeff = (2.0 * (sp.sigma - tau) * sp.sigma)[:, None, None] * (
        (block @ chart.J.T) @ g @ np.swapaxes(block, 1, 2))
    rhs = coeff[..., None] * (v @ chart.J.T)[:, None, None, :]
    vertical_res = _worst(np.linalg.norm(lhs - rhs, axis=-1)
                          / (1.0 + np.linalg.norm(rhs, axis=-1)))
    vacuous = ()
    if ratio_res is None:
        vacuous += ("sigma_ratio",)
    if prof_res is None:
        vacuous += ("profile_slope",)
    return IdentityReport(dq_res=dq_res, trace_res=trace_res,
                          sigma_ratio_res=ratio_res, dy_res=dy_res,
                          profile_res=prof_res, vertical_res=vertical_res,
                          vacuous=vacuous)


# ---------------------------------------------------------------------------
# Conformally-Einstein report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConformalEinsteinReport:
    """Einstein residual of g~ = g/phi^2, its constant spread, and the wedge
    residual of dphi with dY.

    Ric~ and scal~ come from the curvature of g itself through the
    conformal-change identity (``_conformal_curvature``); no chart of g~ is
    differenced.  einstein_res: max g~-frame-component deviation of Ric~
    from its trace part lambda~ g~, lambda~ = scal~/n, normalized by
    (1 + |lambda~|); lambda_spread: spread of lambda~ over the points
    normalized by (1 + median |lambda~|); wedge_res: max component of
    dphi wedge dY over (1 + |dphi| |dY|).
    """

    einstein_res: float
    lambda_spread: float
    wedge_res: float


def _conformal_curvature(curv: CurvatureTensors, pot: PotentialDerivatives,
                         phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ricci tensor and scalar curvature of g~ = g/phi^2 where phi != 0,
    from the curvature of g and the potential derivatives at the same
    points (H = Hess phi, Y = tr_g H, Q = |dphi|^2_g):

        Ric~  = Ric + (n-2) H/phi + (Y/phi - (n-1) Q/phi^2) g,
        scal~ = phi^2 scal + 2(n-1) phi Y - n(n-1) Q."""
    n = curv.jet.g.shape[-1]
    coeff = pot.Y / phi - (n - 1) * pot.Q / phi ** 2
    ricci = (curv.ricci + (n - 2) * pot.hess_phi / phi[:, None, None]
             + coeff[:, None, None] * curv.jet.g)
    scalar = (phi ** 2 * curv.scalar + 2 * (n - 1) * phi * pot.Y
              - n * (n - 1) * pot.Q)
    return ricci, scalar


def conformal_einstein_report(chart: ChartMetric, points: np.ndarray,
                              fd: FDConfig,
                              curv: Optional[CurvatureTensors] = None,
                              pot: Optional[PotentialDerivatives] = None
                              ) -> ConformalEinsteinReport:
    phis = np.asarray(chart.phi(points), dtype=float)
    profile: Optional[Profile] = chart.meta.get("profile")
    if profile is not None:
        phi_max = max(abs(profile.phi_min), abs(profile.phi_max))
    else:
        phi_max = float(np.max(np.abs(phis)))
    floor = 0.1 * phi_max
    if np.any(np.abs(phis) <= floor):
        raise PhiNearZero(f"|phi| <= {floor} at a requested point")
    n = chart.n

    curv, pot = _evaluate(chart, points, fd, curv, pot)
    ricci, scalar = _conformal_curvature(curv, pot, phis)
    lambdas = scalar / n
    # A g~-orthonormal frame is |phi| times a g-orthonormal one.
    rb = (phis ** 2)[:, None, None] * _frame_blocks(
        orthonormal_frame(curv.jet.g), ricci)
    einstein_res = _worst(_amax(rb - lambdas[:, None, None] * np.eye(n))
                          / (1.0 + np.abs(lambdas)))
    dphi = pot.dphi
    dy = _dy(chart, points, fd, curv, pot)
    wedge = dphi[:, :, None] * dy[:, None, :] - dy[:, :, None] * dphi[:, None, :]
    scale = 1.0 + np.linalg.norm(dphi, axis=1) * np.linalg.norm(dy, axis=1)
    spread = float(np.max(lambdas) - np.min(lambdas)) / (
        1.0 + float(np.median(np.abs(lambdas))))
    return ConformalEinsteinReport(einstein_res=einstein_res,
                                   lambda_spread=spread,
                                   wedge_res=_worst(_amax(wedge) / scale))


# ---------------------------------------------------------------------------
# Soliton report
# ---------------------------------------------------------------------------

def soliton_report(chart: ChartMetric, p: float, s0: float,
                   points: np.ndarray, fd: FDConfig,
                   curv: Optional[CurvatureTensors] = None,
                   pot: Optional[PotentialDerivatives] = None) -> float:
    """Max frame-component residual of Hess(phi) + p Ric - s0 g over the
    points, normalized by (1 + |s0|)."""
    curv, pot = _evaluate(chart, points, fd, curv, pot)
    combo = pot.hess_phi + p * curv.ricci - s0 * curv.jet.g
    cb = _frame_blocks(orthonormal_frame(curv.jet.g), combo)
    return _worst(_amax(cb) / (1.0 + abs(s0)))


# ---------------------------------------------------------------------------
# Normal geodesic report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormalGeodesicReport:
    dphids_res: float
    gauss_res: float
    distance_vs_L: Optional[float]


def _path_dphids_res(chart: ChartMetric, profile: Profile, sgn_a: float,
                     path: GeodesicPath, fd: FDConfig) -> float:
    """Residual of dphi/ds = sgn(a) sqrt(Q) at every recorded sample, with
    dphi/ds = dphi(x) . v read off the recorded state; normalized per ray."""
    B, S, n = path.x.shape
    pts = path.x.reshape(-1, n)
    phis, dphi, _ = partials(chart.phi, pts, fd.h, False)
    dphids = np.einsum("bi,bi->b", dphi, path.v.reshape(-1, n))
    q = np.clip(np.asarray(profile.q(phis), dtype=float), 0.0, None)
    expect = (sgn_a * np.sqrt(q)).reshape(B, S)
    err = np.abs(dphids.reshape(B, S) - expect)
    return float(np.max(np.max(err, axis=1)
                        / (1.0 + np.max(np.abs(expect), axis=1))))


def _fan_gauss_res(chart: ChartMetric, path: GeodesicPath,
                   dtheta: float) -> float:
    """Max |g(x_s, x_t)| across a closed fan, x_t by adjacent differences,
    normalized by |x_s|_g |x_t|_g at each sample."""
    B, S, n = path.x.shape
    pts = path.x[:, 1:]
    v = path.v[:, 1:]
    gs = np.asarray(chart.g(pts.reshape(-1, n))).reshape(B, S - 1, n, n)
    x_t = (np.roll(pts, -1, axis=0) - np.roll(pts, 1, axis=0)) / (2 * dtheta)
    ip = np.einsum("bti,btij,btj->bt", v, gs, x_t)
    nv = np.sqrt(np.einsum("bti,btij,btj->bt", v, gs, v))
    nt = np.sqrt(np.einsum("bti,btij,btj->bt", x_t, gs, x_t))
    return float(np.max(np.abs(ip) / (1.0 + nv * nt), initial=0.0))


def _fan(chart: ChartMetric, r0: float, s_max: float, fd: FDConfig,
         n_fan: int, n_steps: int) -> tuple[GeodesicPath, float, float]:
    """A closed fan of n_fan rays leaving the circle of radius r0 in the
    first coordinate plane along its outward normals: the paths, the
    dphi/ds residual and the Gauss residual.  A ray whose stencil leaves
    the domain makes ``partials`` raise StencilOutOfDomain, naming the
    ray, at the first RK4 stage where it does."""
    thetas = np.arange(n_fan) * (2 * math.pi / n_fan)
    w0 = np.zeros((n_fan, chart.n))
    w0[:, 0], w0[:, 1] = np.cos(thetas), np.sin(thetas)
    path = geodesic_batch(chart, r0 * w0, w0, s_max, fd, n_steps=n_steps)
    sgn_a = math.copysign(1.0, chart.meta["a"])
    return (path,
            _path_dphids_res(chart, chart.meta["profile"], sgn_a, path, fd),
            _fan_gauss_res(chart, path, 2 * math.pi / n_fan))


def sphere_normal_geodesics(model, fd: FDConfig, n_fan: int = 16,
                            n_steps: int = 256) -> NormalGeodesicReport:
    """Geodesic fan from the pole chart point of the sphere model: checks
    dphi/ds = sgn(a) sqrt(Q), the Gauss orthogonality of the fan, and
    pole-to-pole arclength against the distance invariant L.

    The pole-to-pole length is twice the arclength from the pole to the
    equator circle r = 1, the fixed locus of the inversion isometry.  The
    crossing is found on the cubic Hermite interpolant of r(s) over the
    bracketing samples, with dr/ds = x . v / r.
    """
    L = math.pi / math.sqrt(model.chart.meta["K"])
    path, dres, gres = _fan(model.chart, 0.0, 0.9 * L, fd, n_fan, n_steps)
    return NormalGeodesicReport(
        dphids_res=dres, gauss_res=gres,
        distance_vs_L=abs(2.0 * _unit_circle_crossing(path) - L))


def _unit_circle_crossing(path: GeodesicPath) -> float:
    """Arclength where the first ray of path, started inside r = 1, first
    reaches it, on the cubic Hermite interpolant of r(s), dr/ds = x . v / r,
    over the samples r[k - 1] < 1 <= r[k].  The ray must reach r = 1: the
    sphere's does at s = L/2."""
    r = np.linalg.norm(path.x[0], axis=1)
    k = int(np.argmax(r >= 1.0))
    seg = slice(k - 1, k + 1)
    s0, h = path.s[k - 1], path.s[k] - path.s[k - 1]
    (r0, r1), (m0, m1) = r[seg], h * np.einsum(
        "si,si->s", path.x[0, seg], path.v[0, seg]) / r[seg]
    # r(s0 + u h) - 1 in the Hermite basis of u in [0, 1], highest power
    # first; m0 and m1 are dr/du at the ends.
    roots = np.roots([2 * (r0 - r1) + m0 + m1, 3 * (r1 - r0) - 2 * m0 - m1,
                      m0, r0 - 1.0])
    # r0 < 1 <= r1 puts a real root in (0, 1]; the slack keeps one that
    # rounding moved just past u = 1.
    real = roots.real[roots.imag == 0]
    return float(s0 + h * real[(real > 0) & (real <= 1 + 1e-9)].min())


def shell_normal_geodesics(chart: ChartMetric, fd: FDConfig, n_fan: int = 16,
                           n_steps: int = 128) -> NormalGeodesicReport:
    """Radial geodesic fan on a shell chart, started on an inner radius
    circle with outward unit normals; checks dphi/ds and Gauss
    orthogonality (no distance target on an open shell)."""
    table = chart.meta["table"]
    r_lo, r_hi = chart.meta["r_range"]
    r_in = r_lo * (r_hi / r_lo) ** 0.18
    r_out = r_lo * (r_hi / r_lo) ** 0.82
    s_in, s_out = table.s_of_phi(table.phi_of_r([r_in, r_out]))
    s_max = abs(float(s_out - s_in))
    _, dres, gres = _fan(chart, r_in, s_max, fd, n_fan, n_steps)
    return NormalGeodesicReport(dphids_res=dres, gauss_res=gres,
                                distance_vs_L=None)


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

def classify_model(chart: ChartMetric,
                   profile: Optional[Profile] = None) -> TypeTag:
    """Type classification of a model chart from its metadata."""
    if "eps" not in chart.meta:
        raise MissingMeta("chart metadata lacks 'eps'")
    eps = chart.meta["eps"]
    prof = profile if profile is not None else chart.meta.get("profile")
    if prof is None:
        raise MissingMeta("chart metadata lacks a profile")
    c = chart.meta.get("c")
    return classify_type(eps if eps in (-1, 0, 1) else 0, c, prof.interval)
