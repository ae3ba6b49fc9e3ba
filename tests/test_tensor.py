"""Finite-difference tensor engine against closed-form geometry."""

import dataclasses
import json
import math
import re

import numpy as np
import pytest

from skrp import models, tensor, verify
from skrp.errors import BadParams, SkrpError, StencilOutOfDomain
from conftest import FAMILIES, euclidean_chart, family_shell


def conformal_2d_chart(factor, dfactor=None, domain=None):
    """2D chart with metric factor(r^2) * I, vectorized."""

    def g(pts):
        pts = np.asarray(pts, dtype=float)
        r2 = np.einsum("bi,bi->b", pts, pts)
        return factor(r2)[:, None, None] * np.eye(2)[None]

    dom = domain or (lambda pts: np.ones(len(pts), dtype=bool))
    return tensor.ChartMetric(n=2, g=g, J=models.standard_J(1),
                              phi=lambda pts: np.zeros(len(pts)),
                              domain=dom, meta={})


def sphere_chart(K):
    return conformal_2d_chart(lambda r2: (4.0 / K) / (1.0 + r2) ** 2)


def speed_drift(chart, path):
    """Largest deviation of |v|_g from 1 over the recorded samples of each
    path, from one ``chart.g`` call."""
    B, S, n = path.x.shape
    g = np.asarray(chart.g(path.x.reshape(-1, n)))
    v = path.v.reshape(-1, n)
    speed = np.sqrt(np.einsum("bi,bij,bj->b", v, g, v)).reshape(B, S)
    return np.max(np.abs(speed - 1.0), axis=1)


class TestChristoffel:
    def test_euclidean_zero(self, fd):
        ch = euclidean_chart(2)
        gam = tensor.connection_coefficients(
            ch, np.array([[0.3, -0.2, 0.5, 0.1]]), fd)
        assert np.max(np.abs(gam)) < 1e-12

    def test_scale_invariance(self, fd):
        lam = 7.0
        K = 4.0
        g1 = sphere_chart(K)
        g2 = conformal_2d_chart(lambda r2: lam * (4.0 / K) / (1.0 + r2) ** 2)
        x = np.array([[0.4, -0.3]])
        gam1 = tensor.connection_coefficients(g1, x, fd)
        gam2 = tensor.connection_coefficients(g2, x, fd)
        assert np.max(np.abs(gam1 - gam2)) < 1e-10

    def test_conformal_closed_form(self, fd):
        # For g = e^(2u) I in 2D: Gam^1_11 = u_1, Gam^1_12 = u_2,
        # Gam^1_22 = -u_1, and symmetrically for the second index.
        K = 4.0
        ch = sphere_chart(K)
        x = np.array([[0.3, 0.4]])
        r2 = float(x[0] @ x[0])
        u1, u2 = -2.0 * x[0] / (1.0 + r2)
        gam = tensor.connection_coefficients(ch, x, fd)[0]
        expect = np.array([[[u1, u2], [u2, -u1]],
                           [[-u2, u1], [u1, u2]]])
        assert np.max(np.abs(gam - expect)) < 1e-7


class TestCurvature:
    def test_euclidean_zero(self, fd):
        ch = euclidean_chart(2)
        curv = tensor.curvature(ch, np.array([[0.3, -0.2, 0.5, 0.1]]), fd)
        assert np.max(np.abs(curv.riemann)) < 1e-10
        assert np.max(np.abs(curv.ricci)) < 1e-10

    @pytest.mark.parametrize("K", [1.0, 4.0])
    def test_round_sphere_positive_ricci(self, fd, K):
        ch = sphere_chart(K)
        for x in ([0.3, 0.4], [0.9, -0.1]):
            x = np.array([x])
            curv = tensor.curvature(ch, x, fd)
            g = np.asarray(ch.g(x))
            assert np.max(np.abs(curv.ricci - K * g)) < 1e-6 * K * np.max(g)

    def test_hyperbolic_negative_ricci(self, fd):
        K = 4.0
        ch = conformal_2d_chart(
            lambda r2: (4.0 / K) / (1.0 - r2) ** 2,
            domain=lambda pts: np.einsum("bi,bi->b", pts, pts) < 1.0)
        x = np.array([[0.2, 0.1]])
        curv = tensor.curvature(ch, x, fd)
        g = np.asarray(ch.g(x))
        assert np.max(np.abs(curv.ricci + K * g)) < 1e-6 * K * np.max(g)

    def test_ricci_contraction_consistency(self, fd, shell_chart):
        x = models.sample_points(shell_chart, 3, seed=5)[:1]
        curv = tensor.curvature(shell_chart, x, fd)
        lowered = np.einsum("blm,blijk->bijkm", curv.jet.g, curv.riemann)
        direct = np.einsum("bjl,bijkl->bik", curv.jet.ginv, lowered)
        scale = np.max(np.abs(curv.ricci)) + 1.0
        assert np.max(np.abs(curv.ricci - direct)) < 1e-8 * scale

    def test_first_bianchi(self, fd, shell_chart):
        rng = np.random.default_rng(11)
        x = models.sample_points(shell_chart, 1, seed=13)
        curv = tensor.curvature(shell_chart, x, fd)
        riem = curv.riemann[0]
        cyc = (riem + np.einsum("lijk->ljki", riem)
               + np.einsum("lijk->lkij", riem))
        for _ in range(5):
            u, v, w = rng.normal(size=(3, shell_chart.n))
            val = np.einsum("lijk,i,j,k->l", cyc, u, v, w)
            scale = (np.max(np.abs(riem)) + 1.0) * np.linalg.norm(u) \
                * np.linalg.norm(v) * np.linalg.norm(w)
            assert np.max(np.abs(val)) < 1e-7 * scale

    def test_fd_convergence_order(self):
        # At steps where truncation dominates (h = 0.02 is already within a
        # few times the roundoff floor), halving h must reduce the sphere
        # curvature error by at least 32x: order >= 5 with Richardson
        # (measured 55.8x).
        K = 4.0
        ch = sphere_chart(K)
        x = np.array([[0.35, 0.15]])
        g = np.asarray(ch.g(x))
        errs = []
        for h in (0.08, 0.04):
            curv = tensor.curvature(ch, x, tensor.FDConfig(h=h))
            errs.append(np.max(np.abs(curv.ricci - K * g)))
        assert errs[0] / errs[1] >= 32.0

    def test_fd_convergence_order_mixed(self):
        # The product H^2 x S^2 (n = 4): Ric = -K g on the base block and
        # +K g on the fibre block, and phi = t z is a height function of the
        # fibre, so Hess phi = -K phi g there and 0 on the base.  Its metric
        # is diagonal with each block depending on its own coordinates only,
        # so Ric takes no mixed partial; the mixed rows show in Hess phi,
        # whose (2, 3) entry is d2 phi/dw1 dw2 at a point with w1, w2 != 0.
        K = 1.0
        ch = models.build_product(models.ProductSpec(K=K, t=1.0))
        x = np.array([[0.3, -0.2, 0.5, 0.25]])
        g = np.asarray(ch.g(x))[0]
        ric_exact = np.array([-K, -K, K, K])[:, None] * g
        hess_exact = np.diag([0.0, 0.0, 1.0, 1.0]) @ g * (-K * ch.phi(x)[0])
        ric_errs, hess_errs = [], []
        for h in (0.08, 0.04):
            fd = tensor.FDConfig(h=h)
            curv = tensor.curvature(ch, x, fd)
            pot = tensor.potential_derivatives(ch, x, fd, jet=curv.jet)
            ric_errs.append(np.max(np.abs(curv.ricci[0] - ric_exact)))
            hess_errs.append(np.max(np.abs(pot.hess_phi[0] - hess_exact)))
        # Order >= 5 in both (measured 67.6x and 62.9x).
        assert ric_errs[0] / ric_errs[1] >= 32.0
        assert hess_errs[0] / hess_errs[1] >= 32.0


class TestPotential:
    def test_norm_squared(self, fd):
        ch = euclidean_chart(2)
        x = np.array([[0.3, -0.2, 0.5, 0.1]])
        pot = tensor.potential_derivatives(ch, x, fd)
        assert np.max(np.abs(pot.hess_phi - 2.0 * np.eye(4))) < 1e-9
        assert pot.Y[0] == pytest.approx(8.0, abs=1e-8)
        assert pot.Q[0] == pytest.approx(4.0 * float(x[0] @ x[0]), rel=1e-9)

    def test_linear(self, fd):
        ch = euclidean_chart(2, phi="linear")
        pot = tensor.potential_derivatives(
            ch, np.array([[0.3, -0.2, 0.5, 0.1]]), fd)
        assert np.max(np.abs(pot.hess_phi)) < 5e-10
        assert pot.Y[0] == pytest.approx(0.0, abs=5e-10)

    def test_hessian_symmetric(self, fd, shell_chart):
        x = models.sample_points(shell_chart, 1, seed=3)
        hess = tensor.potential_derivatives(shell_chart, x, fd).hess_phi[0]
        assert np.max(np.abs(hess - hess.T)) < 1e-10


MODEL_CHARTS = ("sphere", "annulus", "product", "shell_m2", "shell_m3",
                "shell_m4", "type_c", "soliton")


def model_chart(request, name):
    """A chart of each model the checks run on: the sphere, annulus and
    product fixtures, quadratic shells at m = 2, 3, 4, the matched TypeC
    shell (A = 2ac) and a ``soliton_profile`` shell."""
    if name.startswith("shell_m"):
        return models.build_shell(models.ShellSpec(
            m=int(name[-1]), profile=request.getfixturevalue(
                "quadratic_profile"), a=1.0, eps=1, c=-2.0))
    if name in ("type_c", "soliton"):
        return family_shell("custom" if name == "soliton" else name)
    if name == "sphere":
        return request.getfixturevalue("sphere_model").chart
    return request.getfixturevalue(f"{name}_chart")


class TestFirstOrderPart:
    """Checks that sample one point set share one metric jet, first order
    until one of them needs curvature.  That rests on this property."""

    @pytest.mark.parametrize("name", MODEL_CHARTS)
    def test_bit_for_bit(self, fd, request, name):
        # 40 points: the two clouds split into chunks at different points.
        chart = model_chart(request, name)
        x = models.sample_points(chart, 40, seed=7)
        first = tensor.metric_jet(chart, x, fd, second=False)
        second = tensor.metric_jet(chart, x, fd, second=True)
        for key in ("g", "ginv", "dg", "gamma"):
            assert np.array_equal(getattr(first, key), getattr(second, key))
        pots = [tensor.potential_derivatives(chart, x, fd, jet=jet)
                for jet in (first, second)]
        for f in dataclasses.fields(tensor.PotentialDerivatives):
            assert np.array_equal(getattr(pots[0], f.name),
                                  getattr(pots[1], f.name))


class TestGeodesics:
    def test_straight_line(self, fd):
        ch = euclidean_chart(1)
        path = tensor.geodesic_batch(ch, np.array([[0.0, 0.0]]),
                                     np.array([[0.6, 0.8]]), 2.0, fd,
                                     n_steps=512)
        assert np.max(np.abs(path.x[0][-1] - np.array([1.2, 1.6]))) < 1e-12
        assert speed_drift(ch, path)[0] < 1e-12

    def test_sphere_antipode_distance(self, fd):
        # Pole-to-pole arclength equals pi/sqrt(K); measured as twice the
        # arclength to the equator r = 1 (the inversion-fixed circle), found
        # as the sphere's distance_geodesic row finds it.
        K = 4.0
        ch = sphere_chart(K)
        path = tensor.geodesic_batch(ch, np.array([[0.0, 0.0]]),
                                     np.array([[1.0, 0.0]]),
                                     0.9 * math.pi / math.sqrt(K), fd,
                                     n_steps=256)
        s_cross = verify._unit_circle_crossing(path)
        assert 2.0 * s_cross == pytest.approx(math.pi / math.sqrt(K),
                                              abs=1e-4)

    def test_energy_drift(self, fd):
        # |v|_g stays within 1e-6 of 1 over arclength 5.  Measured with the
        # metric scaled by 1.01, the same path's speed is off by 0.5%.
        ch = sphere_chart(0.16)
        path = tensor.geodesic_batch(ch, np.array([[0.0, 0.0]]),
                                     np.array([[1.0, 0.0]]), 5.0, fd,
                                     n_steps=256)
        assert path.alive[0]
        assert speed_drift(ch, path)[0] < 1e-6
        scaled = conformal_2d_chart(
            lambda r2: 1.01 * (4.0 / 0.16) / (1.0 + r2) ** 2)
        assert speed_drift(scaled, path)[0] >= 1e-3

    def test_energy_drift_shell(self, fd, shell_chart):
        x0 = np.zeros((1, 4))
        x0[0, 0] = shell_chart.meta["r_range"][0] * 1.4
        path = tensor.geodesic_batch(shell_chart, x0,
                                     x0 / np.linalg.norm(x0), 1.2, fd,
                                     n_steps=128)
        assert path.alive[0]
        assert speed_drift(shell_chart, path)[0] < 1e-6

    def test_leaving_ray_raises(self, fd):
        # On the unit disc with metric (1 + r^2) I, rays 0 and 2 run out
        # through r = 1 (ray 0 first) and ray 1 stays inside.  The batch
        # raises naming ray 0 at the first stage whose cloud, reaching 2h
        # along the ray, crosses r = 1; stage points lie less than one step
        # s_max / n_steps apart, at a coordinate speed below 1.
        ch = conformal_2d_chart(
            lambda r2: 1.0 + r2,
            domain=lambda pts: np.einsum("bi,bi->b", pts, pts) < 1.0)
        x0 = np.array([[0.6, 0.0], [-0.6, 0.0], [0.0, -0.5]])
        w0 = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        s_max, n_steps = 0.7, 64
        with pytest.raises(StencilOutOfDomain,
                           match="leave the domain around point 0 at") as exc:
            tensor.geodesic_batch(ch, x0, w0, s_max, fd, n_steps)
        at = json.loads(str(exc.value).rpartition(" at ")[2])
        r = np.linalg.norm(at)
        assert 1.0 - 2.0 * fd.h <= r < 1.0 - 2.0 * fd.h + s_max / n_steps

    def test_one_domain_and_g_call_per_stage(self, fd, shell_chart,
                                             monkeypatch):
        calls = {"domain": [], "g": [], "partials": []}

        def counted(name, fn):
            def wrapped(pts):
                calls[name].append(len(pts))
                return fn(pts)
            return wrapped

        ch = dataclasses.replace(
            shell_chart, g=counted("g", shell_chart.g),
            domain=counted("domain", shell_chart.domain))
        partials = tensor.partials

        def counted_partials(fn, x, *args, **kwargs):
            calls["partials"].append(len(x))
            return partials(fn, x, *args, **kwargs)

        monkeypatch.setattr(tensor, "partials", counted_partials)
        x0 = models.sample_points(shell_chart, 3, seed=4)
        path = tensor.geodesic_batch(ch, x0, x0, 0.05, fd, n_steps=8)
        assert path.alive.all()
        P = tensor.stencil(4).Wa.shape[1]
        assert calls["domain"] == [3 * P] * (4 * 8)
        assert calls["g"] == [3] + [3 * P] * (4 * 8)
        assert calls["partials"] == [3] * (4 * 8)

    @pytest.mark.parametrize("n_steps", [6, 3, 0])
    def test_steps_multiple_of_record(self, fd, n_steps):
        with pytest.raises(SkrpError, match=f"got {n_steps}$"):
            tensor.geodesic_batch(euclidean_chart(1), np.zeros((1, 2)),
                                  np.ones((1, 2)), 1.0, fd, n_steps=n_steps)


class TestGeodesicAcceleration:
    """The RK4 stage's acceleration, from the metric partials contracted
    with v and one solve with g, against -gamma(v, v) from the Christoffel
    symbols.  Both read the same partials; they differ by rounding in the
    contraction order and in solving with g instead of inverting it."""

    @pytest.mark.parametrize("model", ["shell4", "shell6", "shell8",
                                       "sphere", "product"])
    def test_equals_christoffel_contraction(self, fd, quadratic_profile,
                                            sphere_model, product_chart,
                                            model):
        if model.startswith("shell"):
            chart = models.build_shell(models.ShellSpec(
                m=int(model[5:]) // 2, profile=quadratic_profile, a=1.0,
                eps=1, c=-2.0))
        else:
            chart = {"sphere": sphere_model.chart,
                     "product": product_chart}[model]
        x = models.sample_points(chart, 12, seed=31)
        w = np.random.default_rng(32).normal(size=x.shape)
        v = w / np.sqrt(np.einsum("bi,bij,bj->b", w, chart.g(x), w))[:, None]
        acc = tensor._geodesic_acceleration(chart, x, v, fd)
        gam = tensor.connection_coefficients(chart, x, fd)
        expect = -np.einsum("bkij,bi,bj->bk", gam, v, v)
        bound = 1e-12 * (1.0 + np.max(np.abs(gam), axis=(1, 2, 3))
                         * np.einsum("bi,bi->b", v, v))
        assert np.all(np.max(np.abs(acc - expect), axis=1) <= bound)


def killing_roundoff_bound(fd, n, phi_max):
    """Roundoff bound of ``killing_residual`` on a flat chart.

    A value of phi carries an error of at most eps phi_max, phi_max the
    largest |phi| on the stencil clouds.  A row with unit-step weights w
    turns value errors e into at most 2 e sum|w| / h^k (each tap enters as
    a difference from the center), so a second partial carries
    2 S2 eps phi_max / h^2, and so do the Hessian and nabla u, which on a
    flat chart is J times the second partials of phi.  The bound also
    covers nabla u as a difference of gradients, 4 S1^2 eps phi_max / h^2.
    Symmetrizing, or forming J^T H J - H, at most doubles these, and the
    normalizations 1 + max|.| are at least 1.
    """
    op = tensor.stencil(n)
    sums = np.sum(np.abs(op.W), axis=1)
    s1, s2 = np.max(sums[:n]), np.max(sums[n:])
    eps = np.finfo(float).eps
    return 8.0 * max(s1 ** 2, s2) * eps * phi_max / fd.h ** 2


class TestResidualOperators:
    def test_euclidean_clean(self, fd):
        ch = euclidean_chart(2)
        x = np.array([[0.3, -0.2, 0.5, 0.1]])
        kr = tensor.kahler_residuals(ch, x, fd)
        assert kr.worst()[0] < 1e-12
        # phi = |x|^2 gives the Killing field u = J grad phi exactly, so its
        # residual is roundoff; phi = x0^2 + 2 x1^2 does not.
        pts = np.random.default_rng(20).uniform(-0.6, 0.6, (20, 4))
        reach = np.linalg.norm(pts, axis=1) + 4.0 * fd.h  # past the clouds
        km = tensor.killing_residual(ch, pts, fd)
        assert np.all(km.worst() <= killing_roundoff_bound(fd, 4, reach ** 2))
        skewed = euclidean_chart(
            2, phi=lambda p: p[:, 0] ** 2 + 2.0 * p[:, 1] ** 2)
        bad = tensor.killing_residual(skewed, pts, fd)
        assert np.all(bad.worst() >= 1e4 * killing_roundoff_bound(
            fd, 4, 2.0 * reach ** 2))

    def test_shell_clean(self, fd, shell_chart):
        x = models.sample_points(shell_chart, 5, seed=8)
        assert np.all(tensor.kahler_residuals(shell_chart, x, fd).worst()
                      < 1e-6)
        assert np.all(tensor.killing_residual(shell_chart, x, fd).worst()
                      < 1e-6)

    def test_perturbed_metric_detected(self, fd):
        base = euclidean_chart(2)

        def bumped(pts):
            g = np.asarray(base.g(pts)).copy()
            g[:, 0, 0] += 0.01
            return g

        ch = tensor.ChartMetric(n=4, g=bumped, J=base.J, phi=base.phi,
                                domain=base.domain, meta={})
        kr = tensor.kahler_residuals(ch, np.array([[0.3, -0.2, 0.5, 0.1]]),
                                     fd)
        assert kr.hermitian_res[0] > 5e-3

    def test_perturbed_potential_detected(self, fd):
        base = euclidean_chart(2)

        def phi(pts):
            pts = np.asarray(pts, dtype=float)
            return np.einsum("bi,bi->b", pts, pts) + 0.01 * pts[:, 0] ** 3

        km = tensor.killing_residual(dataclasses.replace(base, phi=phi),
                                     np.array([[0.5, -0.2, 0.4, 0.1]]), fd)
        assert km.sym_nabla_u_res[0] > 1e-4

    def test_stencil_out_of_domain(self, fd):
        ch = conformal_2d_chart(
            lambda r2: np.ones_like(r2),
            domain=lambda pts: np.einsum("bi,bi->b", pts, pts) < 1.0)
        with pytest.raises(StencilOutOfDomain):
            tensor.curvature(ch, np.array([[0.9999, 0.0]]), fd)


def nested_killing_field(chart, x, fd):
    """u = J grad phi and du[b, j, k] = d_j u^k by differencing u itself, a
    gradient stencil at each outer stencil point: the nested reference for
    ``tensor._killing_field``."""

    def u_field(pts):
        ginvs = np.linalg.inv(np.asarray(chart.g(pts)))
        dphis = tensor._batch_grad_scalar(chart, chart.phi, pts, fd)
        return np.einsum("blm,bm->bl", ginvs, dphis) @ chart.J.T

    u, du, _ = tensor.partials(u_field, x, fd.h, False, domain=chart.domain)
    return u, du


class TestKillingField:
    """nabla u from the metric jet and the second partials of phi."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_nested_reference(self, fd, family):
        # Worst measured gap of du: 5.0e-9 of 1 + max|du| (custom).
        chart = family_shell(family)
        x = models.sample_points(chart, 10, seed=3)
        jet = tensor.metric_jet(chart, x, fd, second=False)
        pot = tensor.potential_derivatives(chart, x, fd, jet=jet)
        u, du = tensor._killing_field(jet, pot, chart.J)
        u_ref, du_ref = nested_killing_field(chart, x, fd)
        assert np.max(np.abs(u - u_ref)) <= 1e-12 * (1.0 + np.max(np.abs(u)))
        assert np.max(np.abs(du - du_ref)) <= 5e-7 * (1.0
                                                       + np.max(np.abs(du)))

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_quadratic_shells(self, fd, quadratic_profile, m):
        # Measured: 1.1e-9 / 1.6e-9 / 1.2e-9 for m = 2 / 3 / 4.
        chart = models.build_shell(models.ShellSpec(
            m=m, profile=quadratic_profile, a=1.0, eps=1, c=-2.0))
        x = models.sample_points(chart, 40, seed=3)
        assert np.max(tensor.killing_residual(chart, x, fd).sym_nabla_u_res
                      ) <= 5e-9

    def test_perturbed_potential_same_on_both_routes(self, fd, shell_chart,
                                                     monkeypatch):
        # Negative control: phi + 1e-3 x0^2 is no Killing potential, and
        # the direct and the nested nabla u read the same residual.
        phi = shell_chart.phi
        bad = dataclasses.replace(
            shell_chart, phi=lambda p: phi(p) + 1e-3 * p[:, 0] ** 2)
        x = models.sample_points(bad, 40, seed=3)
        direct = tensor.killing_residual(bad, x, fd).sym_nabla_u_res
        monkeypatch.setattr(
            tensor, "_killing_field",
            lambda jet, pot, J: nested_killing_field(bad, x, fd))
        nested = tensor.killing_residual(bad, x, fd).sym_nabla_u_res
        for res in (direct, nested):
            assert np.max(res) == pytest.approx(4.5168e-3, abs=1e-6)

    def test_one_g_and_one_phi_call(self, fd, shell_chart):
        # No nested stencil: one first-order metric cloud and one
        # second-order phi cloud per point.
        calls = {"g": [], "phi": []}

        def counted(name, fn):
            def wrapped(pts):
                calls[name].append(len(pts))
                return fn(pts)
            return wrapped

        ch = dataclasses.replace(shell_chart, g=counted("g", shell_chart.g),
                                 phi=counted("phi", shell_chart.phi))
        tensor.killing_residual(ch, models.sample_points(ch, 3, seed=4), fd)
        n = ch.n
        first = tensor.stencil(n).Wa.shape[1]
        second = len(tensor.stencil(n).codes)
        assert (first, second) == (1 + 6 * n, 97)
        assert calls == {"g": [3 * first], "phi": [3 * second]}


class TestPointShapes:
    """Points are (B, n) batches; any other shape is named in the error."""

    @pytest.mark.parametrize("shape", [(4,), (1, 1, 4)])
    def test_metric_jet(self, fd, shell_chart, shape):
        x = models.sample_points(shell_chart, 1, seed=5).reshape(shape)
        with pytest.raises(SkrpError, match=r"\(B, n\), got " +
                           re.escape(str(shape))):
            tensor.metric_jet(shell_chart, x, fd)

    @pytest.mark.parametrize("shape", [(2,), (1, 1, 2)])
    def test_tautological_connection(self, fd, shape):
        y = np.array([0.1, 0.2]).reshape(shape)
        with pytest.raises(SkrpError, match=r"\(B, n\), got " +
                           re.escape(str(shape))):
            models.tautological_connection(y, fd)

    @pytest.mark.parametrize("shape", [(2,), (1, 1, 2)])
    def test_geodesic_batch(self, fd, shape):
        x0 = np.zeros(shape)
        with pytest.raises(SkrpError, match=r"\(B, n\), got " +
                           re.escape(str(shape))):
            tensor.geodesic_batch(euclidean_chart(1), x0, x0 + 1.0, 1.0, fd,
                                  n_steps=8)

    @pytest.mark.parametrize("shape", [(2,), (1, 1, 2)])
    def test_ball_metric(self, quadratic_profile, shape):
        x = np.array([1e-3, 0.0]).reshape(shape)
        with pytest.raises(SkrpError, match=r"\(B, n\), got " +
                           re.escape(str(shape))):
            models.ball_metric(quadratic_profile, -1.0, 1.0, x)

    def test_empty_batch(self, fd, shell_chart):
        x = np.zeros((0, 4))
        for call in (lambda: tensor.metric_jet(shell_chart, x, fd),
                     lambda: verify.skrp_report(shell_chart, x, fd),
                     lambda: tensor.geodesic_batch(shell_chart, x, x, 1.0, fd,
                                                   n_steps=8)):
            with pytest.raises(SkrpError, match=r"got \(0, 4\)$"):
                call()


@pytest.mark.parametrize("h", [math.inf, -math.inf, math.nan, 0.0])
def test_fd_step_finite_positive(h):
    with pytest.raises(BadParams):
        tensor.FDConfig(h=h)
