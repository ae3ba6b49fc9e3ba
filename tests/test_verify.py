"""Verification suites: eigenstructure, identities, conformal Einstein,
soliton, normal geodesics, classification, and scaling covariance."""

import dataclasses

import numpy as np
import pytest

from skrp import cli, models, profiles, tensor, verify
from skrp.errors import PhiNearZero, StencilOutOfDomain
from conftest import FAMILIES, euclidean_chart, family_shell, shrunk_shell


@pytest.fixture(scope="module")
def shell_points(shell_chart):
    return models.sample_points(shell_chart, 15, seed=50)


@pytest.fixture(scope="module")
def matched_type_c():
    """TypeC shell matched to its projective base: kappa = eps m A / c with
    kappa = 2 m |a| forces A = 2 a c (here a = 1, c = 1, so A = 2)."""
    m, eps, c, a = 2, 1, 1.0, 1.0
    prof = profiles.make_profile(
        profiles.TypeC(m=m, c=c, A=2.0 * a * c, B=-0.4, C=0.1),
        (1.35, 2.55))
    chart = models.build_shell(models.ShellSpec(
        m=m, profile=prof, a=a, eps=eps, c=c, phi_window=(1.5, 2.4)))
    return chart


class TestEigenstructure:
    def test_shell_blocks(self, shell_chart, shell_points, fd):
        rep = verify.skrp_report(shell_chart, shell_points, fd)
        assert rep.worst() < 1e-5
        assert rep.eps_consistent

    def test_product_sigma_zero(self, product_chart, fd):
        pts = models.sample_points(product_chart, 10, seed=51)
        rep = verify.skrp_report(product_chart, pts, fd)
        assert rep.worst() < 1e-5
        assert np.max(np.abs(rep.sigma)) < 1e-7

    def test_flat_norm_squared(self, fd):
        ch = euclidean_chart(2)
        pts = np.array([[0.3, -0.2, 0.5, 0.1], [0.1, 0.4, -0.3, 0.2]])
        rep = verify.skrp_report(ch, pts, fd)
        assert np.max(np.abs(rep.sigma - 2.0)) < 1e-7
        assert np.max(np.abs(rep.tau - 2.0)) < 1e-7
        assert np.max(np.abs(rep.lam)) < 1e-7
        assert np.max(np.abs(rep.mu)) < 1e-7


def closed_form_shell(name):
    """A shell chart (a = 1, eps = 1) over a profile of each family, c below
    the profile interval unless the family fixes it."""
    def shell(prof, m=2, c=None, **kw):
        lo, hi = prof.interval
        return models.build_shell(models.ShellSpec(
            m=m, profile=prof, a=1.0, eps=1,
            c=lo - 0.5 * (hi - lo) if c is None else c, **kw))

    quadratic = profiles.make_profile(profiles.Quadratic(K=1.0, phi0=1.0),
                                      (-1.0, 1.0))
    return {
        "quadratic_m2": lambda: shell(quadratic, m=2, c=-2.0),
        "quadratic_m3": lambda: shell(quadratic, m=3, c=-2.0),
        "quadratic_m4": lambda: shell(quadratic, m=4, c=-2.0),
        "type_a": lambda: shell(profiles.find_admissible_interval(
            profiles.TypeA(m=3, K=1.5, alpha=0.0, eta=-2.0), 0.0)),
        "type_b": lambda: shell(profiles.find_admissible_interval(
            profiles.TypeB(m=3, K=0.0, alpha=-1.0, eta=-1.0), 0.0)),
        "type_c": lambda: shell(profiles.make_profile(
            profiles.TypeC(m=2, c=1.0, A=2.0, B=-0.4, C=0.1), (1.35, 2.55)),
            c=1.0, phi_window=(1.5, 2.4)),
        "polynomial": lambda: shell(profiles.make_profile(
            profiles.Polynomial(coeffs=(1.0, 0.2, 0.3)), (-0.8, 0.9))),
        "soliton": lambda: shell(profiles.soliton_profile(
            m=2, p=0.5, s0=0.3, kappa=4.0, eps=1, c=0.0, anchor=(1.0, 0.5),
            rng=(0.4, 2.2)), c=0.0),
    }[name]()


def closed_form_y_mu(chart, pts, k):
    """Y = Q' + k Q/(phi - c) and mu = -1/2 [Q'' + k ((phi - c) Q' - Q) /
    (phi - c)^2] from the profile at phi(x); k = m - 1 on a shell."""
    prof, c = chart.meta["profile"], chart.meta["c"]
    phi = chart.phi(pts)
    d = phi - c
    q, dq, d2q = prof.q(phi), prof.dq(phi), prof.d2q(phi)
    return dq + k * q / d, -0.5 * (d2q + k * (d * dq - q) / d ** 2)


class TestClosedForms:
    @pytest.mark.parametrize("name", [
        "quadratic_m2", "quadratic_m3", "quadratic_m4", "type_a", "type_b",
        "type_c", "polynomial", "soliton"])
    def test_y_and_mu_of_phi(self, name, fd):
        # Worst measured gaps over these shells: Y 4.9e-8, mu 9.7e-7 (in
        # units of 1 + |value|).  With m in place of m - 1 in the closed
        # forms, the gap exceeds the bound at every point.
        chart = closed_form_shell(name)
        m = chart.meta["m"]
        for seed in (1, 2, 3):
            pts = models.sample_points(chart, 40, seed)
            rep = verify.skrp_report(chart, pts, fd)
            for k, holds in ((m - 1, True), (m, False)):
                Y, mu = closed_form_y_mu(chart, pts, k)
                for fd_value, exact in ((rep.Y, Y), (rep.mu, mu)):
                    within = (np.abs(fd_value - exact)
                              <= 1e-5 * (1.0 + np.abs(exact)))
                    assert np.all(within) if holds else not np.any(within)

    @pytest.mark.parametrize("name", [
        "quadratic_m2", "quadratic_m3", "quadratic_m4", "type_a", "type_b",
        "type_c", "polynomial", "soliton"])
    def test_dy_of_phi(self, name, fd):
        # dY = Y'(phi) dphi with Y' = Q'' + (m - 1)((phi - c) Q' - Q) /
        # (phi - c)^2, which is -2 mu of the closed form.  Worst measured
        # gap: 3.3e-6 of 1 + max|dY| (type_a).  With m in place of m - 1,
        # the gap is at least 1.2e-3 at every point.
        chart = closed_form_shell(name)
        m = chart.meta["m"]
        for seed in (1, 2, 3):
            pts = models.sample_points(chart, 40, seed)
            sp = verify._adapted_split(chart, pts, fd)
            dy = verify._dy(chart, pts, fd, sp.curv, sp.pot)
            scale = 1.0 + np.max(np.abs(dy), axis=1)
            for k, holds in ((m - 1, True), (m, False)):
                _, mu = closed_form_y_mu(chart, pts, k)
                gap = np.max(np.abs(dy + 2.0 * mu[:, None] * sp.pot.dphi),
                             axis=1)
                within = gap <= 1e-5 * scale
                assert np.all(within) if holds else not np.any(within)


class TestIdentities:
    def test_shell(self, shell_chart, shell_points, fd):
        rep = verify.identity_report(shell_chart, shell_points, fd)
        assert rep.worst() < 1e-5
        assert rep.sigma_ratio_res is not None

    def test_product_ratio_vacuous(self, product_chart, fd):
        pts = models.sample_points(product_chart, 8, seed=52)
        rep = verify.identity_report(product_chart, pts, fd)
        assert rep.worst() < 1e-5
        assert rep.sigma_ratio_res is None
        assert "sigma_ratio" in rep.vacuous

    def test_injected_offset_detected(self, shell_chart, shell_points, fd):
        # Shifting tau by 0.01 breaks the trace identity by about 0.02.
        rep = verify.skrp_report(shell_chart, shell_points[:4], fd)
        m = shell_chart.meta["m"]
        bad = rep.Y - 2.0 * (rep.tau + 0.01) - 2.0 * (m - 1) * rep.sigma
        assert np.all(np.abs(bad) > 0.019)
        good = rep.Y - 2.0 * rep.tau - 2.0 * (m - 1) * rep.sigma
        assert np.max(np.abs(good)) < 1e-6


class TestDirectDQ:
    """dQ from the metric jet and the second partials of phi."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_nested_reference(self, fd, family):
        # Worst measured gap: 9.6e-9 of 1 + max|dQ| (polynomial).
        chart = family_shell(family)
        x = models.sample_points(chart, 10, seed=3)
        jet = tensor.metric_jet(chart, x, fd, second=False)
        dq = verify._dq(jet, tensor.potential_derivatives(chart, x, fd,
                                                          jet=jet))
        nested = tensor.partials(verify.q_field(chart, fd), x, 3.0 * fd.h,
                                 False)[1]
        assert np.max(np.abs(dq - nested)) <= 5e-7 * (1.0
                                                       + np.max(np.abs(dq)))

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_soliton_gradient_dq(self, pipeline, fd, seed):
        # Measured: 2.1e-9 / 2.4e-9 / 2.0e-9; the nested dQ read 1.8e-7 /
        # 2.2e-7 / 2.5e-7.
        chart = pipeline[0]
        pts = models.sample_points(chart, 20, seed)
        assert verify.identity_report(chart, pts, fd).dq_res <= 1e-8

    def test_no_nested_q_field(self, shell_chart, shell_points, fd,
                               monkeypatch):
        def nested(*args, **kwargs):
            raise AssertionError("identity_report differenced q_field")

        monkeypatch.setattr(verify, "q_field", nested)
        assert verify.identity_report(shell_chart, shell_points,
                                      fd).worst() < 1e-5


class TestDirectDY:
    """dY from the second-order metric jet, the potential derivatives and
    the g^-1 trace of the third partials of phi, with no metric on outer
    points."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_nested_reference(self, fd, family):
        # Measured: the jet residual reads at most 7.3e-7 (type_b) and the
        # gap to the nested dY at most 1.1e-7 of 1 + max|dY| (type_a).
        chart = family_shell(family)
        x = models.sample_points(chart, 10, seed=3)
        sp = verify._adapted_split(chart, x, fd)
        dy = verify._dy(chart, x, fd, sp.curv, sp.pot)
        res = (np.max(np.abs(dy + 2.0 * sp.mu[:, None] * sp.pot.dphi), axis=1)
               / (1.0 + np.max(np.abs(dy), axis=1)))
        assert np.max(res) <= 1e-6
        nested = tensor.partials(verify.y_field(chart, fd), x, 9.0 * fd.h,
                                 False)[1]
        assert np.max(np.abs(dy - nested)) <= 5e-6 * (1.0
                                                      + np.max(np.abs(dy)))

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_evaluation_count(self, fd, m):
        # The gradient cloud of phi around each point of the first-order
        # cloud: (1 + 6n)^2 phi points per point and no metric point.
        chart = closed_form_shell(f"quadratic_m{m}")
        pts = models.sample_points(chart, 3, seed=4)
        sp = verify._adapted_split(chart, pts, fd)
        seen = {"g": 0, "phi": 0}

        def counted(key, fn):
            def wrapped(x):
                seen[key] += len(x)
                return fn(x)
            return wrapped

        wrapped = dataclasses.replace(chart, g=counted("g", chart.g),
                                      phi=counted("phi", chart.phi))
        verify._dy(wrapped, pts, fd, sp.curv, sp.pot)
        assert seen == {"g": 0, "phi": len(pts) * (1 + 12 * m) ** 2}

    def test_gamma_partials_once(self, fd, monkeypatch):
        # dY reads the partials of gamma the curvature already built: one
        # identities check assembles them once.
        calls = []

        def counted(jet):
            calls.append(len(jet.g))
            return gamma_partials(jet)

        gamma_partials = tensor._gamma_partials
        monkeypatch.setattr(tensor, "_gamma_partials", counted)
        monkeypatch.setattr(verify, "_gamma_partials", counted,
                            raising=False)
        chart = closed_form_shell("quadratic_m2")
        ctx = cli.ModelContext(chart, None, chart.meta["profile"], "shell")
        rows = cli.check_identities(ctx, {"points": 4, "tolerance": 1e-5},
                                    fd, 3)
        assert all(row.passed for row in rows)
        assert calls == [4]

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_soliton_gradient_dy(self, pipeline, fd, seed):
        # Measured: 1.5e-7 / 9.9e-8 / 7.2e-8; the nested dY read 1.6e-5 /
        # 1.9e-5 / 2.2e-5, above the 1e-5 tolerance.
        chart = pipeline[0]
        pts = models.sample_points(chart, 20, seed)
        assert verify.identity_report(chart, pts, fd).dy_res <= 1e-6

    def test_no_nested_y_field(self, shell_chart, shell_points, matched_type_c,
                               fd, monkeypatch):
        def nested(*args, **kwargs):
            raise AssertionError("a report differenced y_field")

        monkeypatch.setattr(verify, "y_field", nested)
        assert verify.identity_report(shell_chart, shell_points,
                                      fd).worst() < 1e-5
        pts = models.sample_points(matched_type_c, 12, seed=54)
        rep = verify.conformal_einstein_report(matched_type_c, pts, fd)
        assert rep.einstein_res < 1e-4 and rep.wedge_res < 1e-6


class TestIdentityPropertySweep:
    def test_random_polynomial_profiles(self, fd):
        # Identities hold for every positive profile, not just the
        # closed-form families: sweep random polynomial profiles through
        # the shell construction.
        from numpy.polynomial import polynomial as npoly
        rng = np.random.default_rng(777)
        for _ in range(8):
            coeffs = rng.normal(size=5)
            grid = np.linspace(0.45, 2.05, 300)
            vals = npoly.polyval(grid, coeffs)
            coeffs[0] += 0.5 - vals.min()
            peak = float(npoly.polyval(grid, coeffs).max())
            prof = profiles.make_profile(
                profiles.Polynomial(coeffs=tuple(coeffs * (1.5 / peak))),
                (0.45, 2.05))
            chart = models.build_shell(models.ShellSpec(
                m=2, profile=prof, a=1.0, eps=1, c=0.0,
                phi_window=(0.55, 1.95)))
            pts = models.sample_points(chart, 20,
                                       seed=int(rng.integers(2 ** 31)))
            rep = verify.identity_report(chart, pts, fd)
            assert rep.worst() < 1e-5
            assert rep.sigma_ratio_res < 1e-5


class TestConformalEinstein:
    def test_product(self, product_chart, fd):
        pts = models.sample_points(product_chart, 12, seed=53)
        rep = verify.conformal_einstein_report(product_chart, pts, fd)
        assert rep.einstein_res < 1e-4
        assert rep.lambda_spread < 1e-4
        assert rep.wedge_res < 1e-6

    def test_matched_type_c_shell(self, matched_type_c, fd):
        pts = models.sample_points(matched_type_c, 12, seed=54)
        rep = verify.conformal_einstein_report(matched_type_c, pts, fd)
        assert rep.einstein_res < 1e-4
        assert rep.lambda_spread < 1e-4
        assert rep.wedge_res < 1e-6

    def test_generic_profile_fails(self, fd):
        prof = profiles.make_profile(
            profiles.Polynomial(coeffs=(0.8, 0.05, 0.3, -0.07)),
            (1.35, 2.55))
        chart = models.build_shell(models.ShellSpec(
            m=2, profile=prof, a=1.0, eps=1, c=1.0, phi_window=(1.5, 2.4)))
        pts = models.sample_points(chart, 8, seed=55)
        rep = verify.conformal_einstein_report(chart, pts, fd)
        assert rep.einstein_res > 1e-2

    def test_phi_near_zero_guard(self, product_chart, fd):
        pts = np.array([[0.1, 0.0, 1.0, 0.0]])   # |w| = 1 gives phi = 0
        with pytest.raises(PhiNearZero):
            verify.conformal_einstein_report(product_chart, pts, fd)


def wrapper_conformal_chart(chart):
    """The chart of g~ = g/phi^2 itself: differencing it is the reference
    route to Ric~ and scal~."""

    def g_fn(pts):
        phi = np.asarray(chart.phi(pts), dtype=float)
        return np.asarray(chart.g(pts)) / (phi ** 2)[:, None, None]

    return dataclasses.replace(chart, g=g_fn)


@pytest.fixture(scope="module")
def generic_shell():
    """A shell whose g/phi^2 is not Einstein (the chart of
    ``test_generic_profile_fails``)."""
    prof = profiles.make_profile(
        profiles.Polynomial(coeffs=(0.8, 0.05, 0.3, -0.07)), (1.35, 2.55))
    return models.build_shell(models.ShellSpec(
        m=2, profile=prof, a=1.0, eps=1, c=1.0, phi_window=(1.5, 2.4)))


class TestConformalCurvature:
    """Ric~ and scal~ of g/phi^2 from the curvature of g and the potential
    derivatives, through the conformal-change identity."""

    @staticmethod
    def tilde(chart, pts, fd):
        curv = tensor.curvature(chart, pts, fd)
        pot = tensor.potential_derivatives(chart, pts, fd, jet=curv.jet)
        return verify._conformal_curvature(curv, pot, pot.phi)

    @pytest.mark.parametrize("K,t", [(1.0, 1.0), (0.5, 2.0), (2.0, -0.7)])
    def test_product_einstein_constant(self, fd, K, t):
        # On H^2(-K) x S^2(K) with phi = t z: scal = 0, Y = -2 K phi and
        # Q = K (t^2 - phi^2), so lambda~ = scal~/4 = -3 K t^2.
        chart = models.build_product(models.ProductSpec(K=K, t=t))
        pts = models.sample_points(chart, 12, seed=56)
        _, scal = self.tilde(chart, pts, fd)
        exact = -3.0 * K * t ** 2
        assert np.max(np.abs(scal / 4.0 - exact)) <= 1e-6 * abs(exact)

    @pytest.mark.parametrize("which", ["product_chart", "matched_type_c",
                                       "generic_shell"])
    def test_matches_wrapper_chart(self, fd, request, which):
        chart = request.getfixturevalue(which)
        pts = models.sample_points(chart, 12, seed=57)
        ricci, scal = self.tilde(chart, pts, fd)
        ref = tensor.curvature(wrapper_conformal_chart(chart), pts, fd)
        assert (np.max(np.abs(ricci - ref.ricci))
                <= 1e-7 * np.max(np.abs(ref.ricci)))
        assert (np.max(np.abs(scal - ref.scalar))
                <= 1e-7 * np.max(np.abs(ref.scalar)))

    def test_one_metric_cloud(self, matched_type_c, fd):
        # The report differences g on one second-order cloud per point and
        # no chart of g/phi^2.
        seen = []

        def g_fn(pts):
            seen.append(len(pts))
            return matched_type_c.g(pts)

        chart = dataclasses.replace(matched_type_c, g=g_fn)
        pts = models.sample_points(chart, 6, seed=54)
        verify.conformal_einstein_report(chart, pts, fd)
        cloud = len(tensor.stencil(chart.n).codes)
        assert sum(seen) == len(pts) * cloud


@pytest.fixture(scope="module")
def pipeline():
    m, eps, c, a = 2, 1, 0.0, 1.0
    p, s0 = 0.5, 0.3
    kappa = 2.0 * m * abs(a)
    prof = profiles.soliton_profile(m=m, p=p, s0=s0, kappa=kappa,
                                    eps=eps, c=c, anchor=(1.0, 0.5),
                                    rng=(0.4, 2.2))
    chart = models.build_shell(models.ShellSpec(
        m=m, profile=prof, a=a, eps=eps, c=c))
    return chart, p, s0


class TestSoliton:
    def test_matched_residual(self, pipeline, fd):
        chart, p, s0 = pipeline
        pts = models.sample_points(chart, 12, seed=56)
        assert verify.soliton_report(chart, p, s0, pts, fd) < 1e-4

    def test_sensitivity(self, pipeline, fd):
        chart, p, s0 = pipeline
        pts = models.sample_points(chart, 6, seed=57)
        base = verify.soliton_report(chart, p, s0, pts, fd)
        off = verify.soliton_report(chart, 1.01 * p, s0, pts, fd)
        assert off >= 10.0 * base

    def test_flat_degenerate(self, fd):
        ch = euclidean_chart(2)
        pts = np.array([[0.3, -0.2, 0.5, 0.1]])
        assert verify.soliton_report(ch, 0.7, 2.0, pts, fd) < 1e-9


class TestNormalGeodesics:
    def test_sphere(self, sphere_model, fd):
        rep = verify.sphere_normal_geodesics(sphere_model, fd)
        assert rep.dphids_res < 1e-5
        assert rep.gauss_res < 1e-4
        assert rep.distance_vs_L < 1e-4

    def test_shell(self, shell_chart, fd):
        rep = verify.shell_normal_geodesics(shell_chart, fd)
        assert rep.dphids_res < 1e-5
        assert rep.gauss_res < 1e-4
        assert rep.distance_vs_L is None

    @pytest.mark.parametrize("fan", ["sphere", "shell"])
    def test_margin_at_default_steps(self, fan, sphere_model, shell_chart,
                                     fd):
        # Every geodesic residual sits at least 100x below its tolerance
        # (dphi_ds 1e-5, Gauss 1e-4, distance 1e-4).
        if fan == "sphere":
            rep = verify.sphere_normal_geodesics(sphere_model, fd)
            assert rep.distance_vs_L <= 1e-6
        else:
            rep = verify.shell_normal_geodesics(shell_chart, fd)
        assert rep.dphids_res <= 1e-7
        assert rep.gauss_res <= 1e-6

    @pytest.mark.parametrize("fan", ["sphere", "shell"])
    def test_scaled_profile_detected(self, fan, sphere_model, shell_chart,
                                     fd):
        # Negative control: Q scaled by 1.01 on the chart's profile fails
        # dphi_ds by at least 100x its 1e-5 tolerance.
        chart = sphere_model.chart if fan == "sphere" else shell_chart
        prof = chart.meta["profile"]
        wrong = dataclasses.replace(prof, q=lambda phi: 1.01 * prof.q(phi))
        chart = dataclasses.replace(chart, meta=dict(chart.meta,
                                                     profile=wrong))
        if fan == "sphere":
            rep = verify.sphere_normal_geodesics(
                dataclasses.replace(sphere_model, chart=chart), fd)
        else:
            rep = verify.shell_normal_geodesics(chart, fd)
        assert rep.dphids_res >= 1e-3

    def test_dead_ray_raises(self, shell_chart, fd):
        chart = shrunk_shell(shell_chart)
        with pytest.raises(StencilOutOfDomain, match="stencil points leave "
                           "the domain around point"):
            verify.shell_normal_geodesics(chart, fd)


class TestExtendedCurvatureOracle:
    """Identity (vi) of ``identity_report``: the full curvature tensor
    applied to orthogonal-block frame pairs."""

    def test_shell(self, shell_chart, fd):
        pts = models.sample_points(shell_chart, 6, seed=60)
        res = verify.identity_report(shell_chart, pts, fd).vertical_res
        assert res < 1e-6

    def test_product_vanishing_sigma(self, product_chart, fd):
        # sigma = 0 makes the right side vanish: the gradient direction is
        # flat against orthogonal-block pairs.
        pts = models.sample_points(product_chart, 4, seed=61)
        res = verify.identity_report(product_chart, pts, fd).vertical_res
        assert res < 1e-6

    @pytest.mark.parametrize("m", [2, 3])
    def test_perturbed_potential_detected(self, quadratic_profile, fd, m):
        # phi + 0.01 x0^2 is no longer a special Kahler-Ricci potential of
        # the shell metric; the row fails by at least 100x its tolerance.
        chart = models.build_shell(models.ShellSpec(
            m=m, profile=quadratic_profile, a=1.0, eps=1, c=-2.0))
        bent = dataclasses.replace(
            chart, phi=lambda p: chart.phi(p) + 0.01 * p[:, 0] ** 2)
        pts = models.sample_points(chart, 4, seed=62)
        assert verify.identity_report(bent, pts, fd).vertical_res > 1e-3


class TestClassification:
    def test_product_is_type_a(self, product_chart):
        assert verify.classify_model(product_chart).tag == "A"

    def test_shell_c_outside_is_c1(self, shell_chart):
        tag = verify.classify_model(shell_chart)
        assert tag.tag == "C1" and not tag.excluded

    def test_c_inside_is_c2_with_note(self, matched_type_c,
                                      quadratic_profile):
        tag = profiles.classify_type(1, 0.5, quadratic_profile.interval)
        assert tag.tag == "C2"
        assert tag.note


class TestDeterminismAndScaling:
    def test_reports_reproducible(self, shell_chart, fd):
        pts = models.sample_points(shell_chart, 6, seed=58)
        r1 = verify.skrp_report(shell_chart, pts, fd)
        r2 = verify.skrp_report(shell_chart, pts, fd)
        assert np.array_equal(r1.sigma, r2.sigma)
        assert np.array_equal(r1.tau, r2.tau)
        assert r1.worst() == r2.worst()

    def test_metric_scaling_covariance(self, shell_chart, fd):
        # Multiplying g by lambda leaves Christoffels and classification
        # unchanged and scales the eigenvalues lam, mu by 1/lambda.
        lam_scale = 4.0

        def g_scaled(pts):
            return lam_scale * np.asarray(shell_chart.g(pts))

        scaled = tensor.ChartMetric(n=shell_chart.n, g=g_scaled,
                                    J=shell_chart.J, phi=shell_chart.phi,
                                    domain=shell_chart.domain,
                                    meta=dict(shell_chart.meta))
        pts = models.sample_points(shell_chart, 4, seed=59)
        g1 = tensor.connection_coefficients(shell_chart, pts, fd)
        g2 = tensor.connection_coefficients(scaled, pts, fd)
        assert np.max(np.abs(g1 - g2)) < 1e-9
        r1 = verify.skrp_report(shell_chart, pts, fd)
        r2 = verify.skrp_report(scaled, pts, fd)
        assert np.max(np.abs(r2.lam - r1.lam / lam_scale)) < 1e-7
        assert np.max(np.abs(r2.mu - r1.mu / lam_scale)) < 1e-7
        assert (verify.classify_model(scaled).tag
                == verify.classify_model(shell_chart).tag)
