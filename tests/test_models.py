"""Model charts: shells, annuli, the sphere, the product, ball extension,
and the tautological-bundle connection."""

import math
import tracemalloc

import numpy as np
import pytest

from skrp import models, reparam, tensor
from skrp.errors import SpecInvariantViolated, WrongEndpoint


class TestShell:
    def test_vertical_plane_metric(self, shell_chart, quadratic_profile):
        # g(v, v) = g(u, u) = Q and g(v, u) = 0 for v = a x, u = a J x.
        rng = np.random.default_rng(100)
        pts = models.sample_points(shell_chart, 100, seed=100)
        a = shell_chart.meta["a"]
        g = np.asarray(shell_chart.g(pts))
        phi = np.asarray(shell_chart.phi(pts))
        Q = np.asarray(quadratic_profile.q(phi))
        v = a * pts
        u = (shell_chart.J @ (a * pts).T).T
        gvv = np.einsum("bi,bij,bj->b", v, g, v)
        guu = np.einsum("bi,bij,bj->b", u, g, u)
        gvu = np.einsum("bi,bij,bj->b", v, g, u)
        assert np.max(np.abs(gvv - Q)) < 1e-9
        assert np.max(np.abs(guu - Q)) < 1e-9
        assert np.max(np.abs(gvu)) < 1e-9

    def test_fd_q_matches_profile(self, shell_chart, quadratic_profile, fd):
        pts = models.sample_points(shell_chart, 20, seed=101)
        pot = tensor.potential_derivatives(shell_chart, pts, fd)
        phi = np.asarray(shell_chart.phi(pts))
        assert np.max(np.abs(pot.Q - quadratic_profile.q(phi))) < 1e-6

    def test_horizontal_block_is_scaled_projective_metric(self, shell_chart):
        # On H the metric is 2|phi-c|/|a| times Euclid/r^2 (the pullback of
        # the projective base metric scaled by the norm-squared function).
        rng = np.random.default_rng(7)
        pts = models.sample_points(shell_chart, 50, seed=7)
        a = shell_chart.meta["a"]
        c = shell_chart.meta["c"]
        g = np.asarray(shell_chart.g(pts))
        phi = np.asarray(shell_chart.phi(pts))
        J = shell_chart.J
        for k in range(len(pts)):
            x = pts[k]
            r2 = float(x @ x)
            # Any vector Euclid-orthogonal to both x and Jx lies in H.
            w = rng.normal(size=4)
            w -= (w @ x) * x / r2
            jx = J @ x
            w -= (w @ jx) * jx / r2
            expect = 2.0 * abs(phi[k] - c) / (abs(a) * r2) * float(w @ w)
            got = float(w @ g[k] @ w)
            assert abs(got - expect) < 1e-8 * max(1.0, abs(expect))

    def test_metric_exactly_symmetric_and_lean(self, quadratic_profile):
        # The metric equals its projector form theta_h (I - P) + theta_v P,
        # is exactly symmetric, and one call allocates little beyond its
        # output.
        for m, count in ((2, 400), (4, 3332)):
            chart = models.build_shell(models.ShellSpec(
                m=m, profile=quadratic_profile, a=1.0, eps=1, c=-2.0))
            pts = models.sample_points(chart, count, seed=11)
            tracemalloc.start()
            try:
                g = chart.g(pts)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert np.array_equal(g, g.swapaxes(1, 2))
            if m == 4:
                assert peak <= 1.5 * g.nbytes
            r2 = np.einsum("bi,bi->b", pts, pts)
            phi = chart.phi(pts)
            theta_v = quadratic_profile.q(phi) / r2
            theta_h = 2.0 * np.abs(phi + 2.0) / r2
            xhat = pts / np.sqrt(r2)[:, None]
            jxhat = xhat @ chart.J.T
            P = (xhat[:, :, None] * xhat[:, None, :]
                 + jxhat[:, :, None] * jxhat[:, None, :])
            ref = (theta_h[:, None, None] * (np.eye(2 * m) - P)
                   + theta_v[:, None, None] * P)
            assert np.max(np.abs(g - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_metric_conditioning(self, shell_chart):
        pts = models.sample_points(shell_chart, 100, seed=9)
        eig = np.linalg.eigvalsh(np.asarray(shell_chart.g(pts)))
        assert np.min(eig) > 1e-6
        assert np.max(eig) < 1e6

    def test_spec_invariants(self, quadratic_profile):
        with pytest.raises(SpecInvariantViolated):
            models.ShellSpec(m=1, profile=quadratic_profile, a=1.0, eps=1,
                             c=-2.0)
        with pytest.raises(SpecInvariantViolated):
            models.ShellSpec(m=2, profile=quadratic_profile, a=-1.0, eps=1,
                             c=-2.0)
        with pytest.raises(SpecInvariantViolated):
            models.ShellSpec(m=2, profile=quadratic_profile, a=1.0, eps=1,
                             c=0.0)   # c inside the phi window


def _row_by_row_metric(chart, pts):
    """A shell chart's metric theta_h I + (theta_v - theta_h) / r^2
    (x x^T + Jx Jx^T) built in the output row by row, points first: the
    reference the blocked kernel must match bit for bit."""
    a, c, m = chart.meta["a"], chart.meta["c"], chart.meta["m"]
    n = 2 * m
    r2 = np.einsum("bi,bi->b", pts, pts)
    phi = chart.phi(pts)
    theta_v = np.asarray(chart.meta["profile"].q(phi)) / (a * a * r2)
    theta_h = 2.0 * np.abs(phi - c) / (abs(a) * r2)
    out = np.empty((len(pts), n, n))
    jx = pts @ chart.J.T
    for i in range(n):
        row = pts[:, i, None] * pts
        row += jx[:, i, None] * jx
        out[:, i] = row
    out *= ((theta_v - theta_h) / r2)[:, None, None]
    out.reshape(len(pts), n * n)[:, ::n + 1] += theta_h[:, None]
    return out


def _where_domain(pts, lo, hi):
    """The radial domain predicate in its two-``where`` form."""
    r2 = np.einsum("bi,bi->b", pts, pts)
    good = r2 > 0
    logr = np.where(good, 0.5 * np.log(np.where(good, r2, 1.0)), -np.inf)
    return good & (logr > lo) & (logr < hi)


class TestShellKernel:
    """The blocked, point-axis-last shell metric and the radial domain
    against their direct forms: same bits, signed zeros included."""

    SPECS = ({"a": 1.0, "eps": 1, "c": -2.0}, {"a": -1.5, "eps": -1, "c": 2.0})

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_metric_matches_row_by_row(self, m, quadratic_profile):
        rng = np.random.default_rng(m)
        block = models._G_BLOCK // (2 * m) ** 2
        for kw in self.SPECS:
            chart = models.build_shell(models.ShellSpec(
                m=m, profile=quadratic_profile, **kw))
            for count in (1, block - 1, block, block + 1, 3332):
                pts = models.sample_points(chart, count, seed=count)
                # Zero (and negative-zero) coordinates, at the same radius;
                # one coordinate of each point stays nonzero.
                r = np.linalg.norm(pts, axis=1)
                zero = rng.random(pts.shape) < 0.4
                zero[np.arange(count), rng.integers(2 * m, size=count)] = False
                pts[zero] = np.where(rng.random(int(zero.sum())) < 0.5,
                                     0.0, -0.0)
                pts *= (r / np.linalg.norm(pts, axis=1))[:, None]
                g = chart.g(pts)
                ref = _row_by_row_metric(chart, pts)
                assert np.array_equal(g, ref)
                assert np.array_equal(np.signbit(g), np.signbit(ref))
                assert np.array_equal(g, g.swapaxes(1, 2))

    @pytest.mark.parametrize("m", [2, 4])
    def test_domain_matches_where_form(self, m, quadratic_profile):
        chart = models.build_shell(models.ShellSpec(
            m=m, profile=quadratic_profile, a=1.0, eps=1, c=-2.0))
        fn = chart.domain
        cell = dict(zip(fn.__code__.co_freevars,
                        (c.cell_contents for c in fn.__closure__)))
        lo = cell["lr_lo"] - cell["pad_lo"]
        hi = cell["lr_hi"] + cell["pad_hi"]
        n = 2 * m
        rows = []
        for edge in (lo, hi):
            # Radii stepping ulp by ulp across exp(edge), along an axis and
            # along a diagonal.
            r = math.exp(edge)
            for _ in range(6):
                r = math.nextafter(r, 0.0)
            for _ in range(13):
                rows.append(np.eye(n)[0] * r)
                rows.append(np.full(n, r / math.sqrt(n)))
                r = math.nextafter(r, math.inf)
        pts = np.array(rows)
        special = np.zeros((6, n))
        special[1] = -0.0
        special[2, 1] = np.nan
        special[3, 0] = np.inf
        special[4, :2] = (-np.inf, 0.5)
        special[5, :2] = (np.inf, np.nan)
        pts = np.vstack([pts, special, models.sample_points(chart, 50, 1)])
        with np.errstate(all="raise"):
            got = fn(pts)
        ref = _where_domain(pts, lo, hi)
        assert got.dtype == bool
        assert np.array_equal(got, ref)
        assert not got[-56:-50].any() and got[-50:].all()
        # Each edge is crossed within the ulp ladder, on both rows.
        ladder = ref[:-56].reshape(2, 13, 2)
        assert ladder[0].any() and not ladder[0].all()
        assert ladder[1].any() and not ladder[1].all()


class TestAnnulus:
    def test_conformal_factor_positive(self, annulus_chart):
        pts = models.sample_points(annulus_chart, 1000, seed=2)
        g = np.asarray(annulus_chart.g(pts))
        assert np.all(g[:, 0, 0] > 0)
        assert np.max(np.abs(g[:, 0, 1])) == 0.0
        assert np.max(np.abs(g[:, 0, 0] - g[:, 1, 1])) == 0.0

    def test_inversion_isometry(self, annulus_chart, quadratic_profile):
        dual = models.build_annulus(models.AnnulusSpec(
            profile=quadratic_profile, a=-annulus_chart.meta["a"],
            phi_window=annulus_chart.meta["phi_window"]))
        pts = models.sample_points(annulus_chart, 100, seed=3)
        star = models.inversion_point(pts)
        g = np.asarray(annulus_chart.g(pts))
        jac = models.inversion_jacobian(pts)
        pull = np.swapaxes(jac, 1, 2) @ np.asarray(dual.g(star)) @ jac
        worst_g = np.max(np.max(np.abs(pull - g), axis=(1, 2))
                         / np.max(np.abs(g), axis=(1, 2)))
        worst_phi = np.max(np.abs(np.asarray(annulus_chart.phi(pts))
                                  - np.asarray(dual.phi(star))))
        assert worst_g < 1e-10
        assert worst_phi < 1e-9

    def test_inversion_jacobian_matches_differences(self):
        # Central differences of the inversion, column by column, at points
        # away from the origin.
        rng = np.random.default_rng(14)
        r = np.exp(rng.uniform(math.log(0.3), math.log(3.0), 50))
        th = rng.uniform(0, 2 * math.pi, 50)
        pts = np.column_stack([r * np.cos(th), r * np.sin(th)])
        jac = models.inversion_jacobian(pts)
        assert jac.shape == (50, 2, 2)
        h = 1e-6
        fd_jac = np.empty_like(jac)
        for i in range(2):
            e = h * np.eye(2)[i]
            fd_jac[:, :, i] = (models.inversion_point(pts + e)
                               - models.inversion_point(pts - e)) / (2 * h)
        scale = np.max(np.abs(jac), axis=(1, 2))
        assert np.max(np.max(np.abs(fd_jac - jac), axis=(1, 2))
                      / scale) < 1e-8


class TestSphere:
    def test_gaussian_curvature(self, sphere_model, fd):
        K = sphere_model.spec.K
        rng = np.random.default_rng(4)
        radii = np.concatenate([
            np.exp(rng.uniform(math.log(1e-3), math.log(1e-2), 10)),
            np.exp(rng.uniform(math.log(0.05), math.log(2.0), 10))])
        th = rng.uniform(0, 2 * math.pi, 20)
        pts = np.column_stack([radii * np.cos(th), radii * np.sin(th)])
        curv = tensor.curvature(sphere_model.chart, pts, fd)
        assert curv.scalar / 2.0 == pytest.approx(np.full(20, K), rel=1e-5)

    def test_chi_isometry(self, sphere_model):
        # chi pullback of (1/K) x unit-sphere metric equals the chart metric.
        K = sphere_model.spec.K
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(50, 2)) * 0.8
        h = 1e-6
        for y in pts:
            dchi = np.zeros((3, 2))
            for i in range(2):
                e = np.eye(2)[i]
                dchi[:, i] = (sphere_model.chi((y + h * e)[None, :])[0]
                              - sphere_model.chi((y - h * e)[None, :])[0]) \
                    / (2 * h)
            pull = dchi.T @ dchi / K
            g = np.asarray(sphere_model.chart.g(y[None, :]))[0]
            assert np.max(np.abs(pull - g)) < 1e-7

    def test_chi_pole(self, sphere_model):
        assert np.allclose(sphere_model.chi(np.zeros((1, 2)))[0],
                           [0.0, 0.0, 1.0])

    def test_rotation_invariance(self, sphere_model):
        theta = 1.234
        R = np.array([[math.cos(theta), -math.sin(theta)],
                      [math.sin(theta), math.cos(theta)]])
        pts = np.random.default_rng(6).normal(size=(20, 2))
        g1 = np.asarray(sphere_model.chart.g(pts))
        g2 = np.asarray(sphere_model.chart.g(pts @ R.T))
        pulled = np.einsum("ki,bkl,lj->bij", R, g2, R)
        assert np.max(np.abs(pulled - g1)) < 1e-10


class TestBallExtension:
    def test_limit_matches_boundary_q0(self, quadratic_profile):
        a, c = -1.0, 1.0
        table = reparam.build_reparam(quadratic_profile, a)
        c1_0, c2_0 = models.ball_extension_coeffs(quadratic_profile, a, c,
                                                  0.0, table)
        bl = reparam.boundary_limits(table, "hi")
        assert c2_0 == pytest.approx(bl.q0 / a ** 2, rel=1e-6)
        assert c2_0 > 0

    def test_c1_finite(self, quadratic_profile):
        a, c = -1.0, 1.0
        table = reparam.build_reparam(quadratic_profile, a)
        c1_a, _ = models.ball_extension_coeffs(quadratic_profile, a, c,
                                               1e-3, table)
        c1_b, _ = models.ball_extension_coeffs(quadratic_profile, a, c,
                                               1e-4, table)
        assert abs(c1_a - c1_b) <= 0.1 * max(abs(c1_a), abs(c1_b), 1e-12)

    def test_reconstructed_metric_positive(self, quadratic_profile):
        a, c = -1.0, 1.0
        table = reparam.build_reparam(quadratic_profile, a)
        x = np.array([[1e-3, 0.0]])
        g = models.ball_metric(quadratic_profile, a, c, x, table)
        assert np.all(np.linalg.eigvalsh(g) > 0)

    def test_ball_metric_batch(self, quadratic_profile):
        # Each row is c1 (v v^T + u u^T) + c2 I from the coefficients at
        # its radius: the origin (the r = 0 limit), the series branch
        # (r^2 < 1e-3) and the raw quotient.
        a, c = -1.0, 1.0
        table = reparam.build_reparam(quadratic_profile, a)
        x = np.array([[0.0, 0.0], [1e-3, 0.0], [-0.01, 0.02], [0.1, 0.05]])
        g = models.ball_metric(quadratic_profile, a, c, x, table)
        J = models.standard_J(1)
        for gi, xi in zip(g, x):
            c1, c2 = models.ball_extension_coeffs(
                quadratic_profile, a, c, float(np.linalg.norm(xi)), table)
            v, u = a * xi, a * (J @ xi)
            expect = c1 * (np.outer(v, v) + np.outer(u, u)) + c2 * np.eye(2)
            assert np.allclose(gi, expect, rtol=1e-14, atol=0.0)

    def test_wrong_endpoint(self, quadratic_profile):
        with pytest.raises(WrongEndpoint):
            models.ball_extension_coeffs(quadratic_profile, -1.0, 0.5, 0.1)
        with pytest.raises(WrongEndpoint):
            # Slope at phi = -1 is +2, not 2a = -2.
            models.ball_extension_coeffs(quadratic_profile, -1.0, -1.0, 0.1)

    def test_wrong_slope(self, quadratic_profile):
        # a = -1.01: Q'(1) = -2 misses 2a by 1%.
        a, c = -1.01, 1.0
        with pytest.raises(WrongEndpoint):
            models.ball_extension_coeffs(quadratic_profile, a, c, 0.0)
        with pytest.raises(WrongEndpoint):
            models.ball_metric(quadratic_profile, a, c, np.zeros((1, 4)))

    def test_c1_smooth(self, quadratic_profile):
        # c1 = -4/(1 + r^2)^2 has c1'' = 16/u^3 - 96 r^2/u^4, u = 1 + r^2.
        # An order-4 second difference at h = 1e-3 across the switch of c1
        # between its series and its quotient (r^2 = 1e-3) finds no step.
        a, c, h = -1.0, 1.0, 1e-3
        table = reparam.build_reparam(quadratic_profile, a)
        r = np.linspace(0.003, 0.05, 200)
        c1 = [models._ball_coeffs(quadratic_profile, a, c, r + k * h,
                                  table)[0] for k in (-2, -1, 0, 1, 2)]
        d2 = (-c1[0] + 16 * c1[1] - 30 * c1[2] + 16 * c1[3] - c1[4]) / (
            12 * h * h)
        u = 1.0 + r * r
        assert np.max(np.abs(d2 - (16 / u ** 3 - 96 * r * r / u ** 4))) < 2.5e-4

    def test_chart_scalar_curvature(self, quadratic_profile, fd):
        # g = ball_metric on C^2 is Fubini-Study on CP^2 (scalar curvature
        # 6), smooth across r = 0; the center's stencil reads r = 0 itself.
        a, c = -1.0, 1.0
        table = reparam.build_reparam(quadratic_profile, a)
        chart = tensor.ChartMetric(
            n=4, g=lambda x: models.ball_metric(quadratic_profile, a, c, x,
                                                table),
            J=models.standard_J(2), phi=lambda x: np.zeros(len(x)),
            domain=lambda x: np.isfinite(x).all(axis=1))
        pts = np.array([[0.0, 0.0, 0.0, 0.0], [1e-4, 0.0, 0.0, 0.0],
                        [3e-3, 1e-3, 0.0, 0.0], [0.02, 0.01, -0.01, 0.0]])
        scalar = tensor.curvature(chart, pts, fd).scalar
        assert np.max(np.abs(scalar / 6.0 - 1.0)) < 1e-4


class TestProduct:
    def test_q_closed_form(self, product_chart, fd):
        K = product_chart.meta["K"]
        t = product_chart.meta["t"]
        pts = models.sample_points(product_chart, 20, seed=8)
        pot = tensor.potential_derivatives(product_chart, pts, fd)
        phi = np.asarray(product_chart.phi(pts))
        assert np.max(np.abs(pot.Q - K * (t ** 2 - phi ** 2))) < 1e-6

    def test_base_ricci(self, product_chart, fd):
        K = product_chart.meta["K"]
        pts = models.sample_points(product_chart, 5, seed=9)
        curv = tensor.curvature(product_chart, pts, fd)
        g = np.asarray(product_chart.g(pts))[:, :2, :2]
        base = curv.ricci[:, :2, :2]
        assert np.all(np.max(np.abs(base + K * g), axis=(1, 2))
                      < 1e-5 * np.max(np.abs(g), axis=(1, 2)))

    def test_base_hessian_vanishes(self, product_chart, fd):
        pts = models.sample_points(product_chart, 5, seed=10)
        pot = tensor.potential_derivatives(product_chart, pts, fd)
        assert np.max(np.abs(pot.hess_phi[:, :2, :2])) < 1e-7

    def test_mixed_block_exactly_zero(self, product_chart):
        pts = models.sample_points(product_chart, 50, seed=11)
        g = np.asarray(product_chart.g(pts))
        assert np.max(np.abs(g[:, :2, 2:])) == 0.0


class TestTautologicalConnection:
    def test_curvature_is_minus_two_fs(self, fd):
        rng = np.random.default_rng(12)
        pts = rng.normal(size=(100, 2))
        data = models.tautological_connection(pts, fd)
        assert data.omega.shape == data.omega_fs.shape == (100,)
        assert np.max(np.abs(data.omega.real + 2.0 * data.omega_fs)) < 1e-6
        assert np.max(np.abs(data.omega.imag)) < 1e-8

    def test_connection_form_vanishes_at_origin(self, fd):
        data = models.tautological_connection(np.zeros((1, 2)), fd)
        assert abs(data.gamma[0, 0]) == 0.0
        assert abs(data.gamma[0, 1]) == 0.0

    def test_connection_form_closed_form(self, fd):
        # Gamma = conj(z) dz / (1 + |z|^2): gamma[b] = (G, i G) at z_b.
        pts = np.concatenate([[[0.4, -0.3]],
                              np.random.default_rng(15).normal(size=(99, 2))])
        data = models.tautological_connection(pts, fd)
        z = pts[:, 0] + 1j * pts[:, 1]
        expect = np.conj(z) / (1.0 + np.abs(z) ** 2)
        assert data.gamma.shape == (100, 2)
        assert np.max(np.abs(data.gamma[:, 0] - expect)) < 1e-14
        assert np.max(np.abs(data.gamma[:, 1] - 1j * expect)) < 1e-14


class TestModelResidualSuites:
    @pytest.mark.parametrize("which", ["shell", "annulus", "sphere",
                                       "product"])
    def test_kahler_killing_clean(self, which, fd, shell_chart,
                                  annulus_chart, sphere_model,
                                  product_chart):
        chart = {"shell": shell_chart, "annulus": annulus_chart,
                 "sphere": sphere_model.chart,
                 "product": product_chart}[which]
        pts = models.sample_points(chart, 15, seed=13)
        assert np.all(tensor.kahler_residuals(chart, pts, fd).worst() < 1e-6)
        assert np.all(tensor.killing_residual(chart, pts, fd).worst() < 1e-6)
