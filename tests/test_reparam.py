"""Radial/arclength reparameterization tables and the distance invariant."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from skrp import models
from skrp import profiles as pf
from skrp import reparam as rp
from skrp.errors import (
    AnchorOutOfRange,
    SingularEndpoint,
    TableRangeExceeded,
    WrongEndpoint,
)
from conftest import FAMILIES, family_profile


@pytest.fixture(scope="module")
def quad_table(quadratic_profile):
    # a = -1 is half the slope dQ/dphi = -2 at phi = +1, so r -> 0 there.
    return rp.build_reparam(quadratic_profile, a=-1.0, anchor=(0.0, 1.0))


class TestBuildReparam:
    def test_matches_closed_form(self, quad_table):
        # For Q = 1 - phi^2, a = -1: r = sqrt((1-phi)/(1+phi)) with r(0)=1.
        phis = np.linspace(-0.999, 0.999, 41)
        exact = np.sqrt((1 - phis) / (1 + phis))
        got = quad_table.r_of_phi(phis)
        assert np.max(np.abs(got / exact - 1.0)) < 1e-12

    def test_r_to_zero_at_matching_endpoint(self, quad_table):
        assert float(quad_table.r_of_phi(1.0 - 1e-9)) < 1e-4
        assert quad_table.r_unbounded  # r -> infinity at the other root

    def test_unique_up_to_constant_factor(self, quadratic_profile):
        t1 = rp.build_reparam(quadratic_profile, a=-1.0, anchor=(0.0, 1.0))
        t2 = rp.build_reparam(quadratic_profile, a=-1.0, anchor=(0.0, 2.0))
        ratio = t2.r_nodes / t1.r_nodes
        assert np.max(np.abs(ratio - 2.0)) < 2e-9

    def test_node_ode_residual(self, quad_table):
        # dr/dphi = a r / Q at interior nodes, by differencing r(phi) with a
        # step proportional to the distance to the nearest root, where r has
        # a power singularity.
        sl = slice(16, -16)
        phi = quad_table.phi_nodes[sl]
        r = quad_table.r_nodes[sl]
        lo, hi = quad_table.profile.interval
        h = 1e-5 * np.minimum(phi - lo, hi - phi)
        drdphi = (quad_table.r_of_phi(phi + h)
                  - quad_table.r_of_phi(phi - h)) / (2 * h)
        expected = quad_table.a * r / np.asarray(
            quad_table.profile.q(phi))
        assert np.max(np.abs(drdphi / expected - 1.0)) < 1e-8

    def test_arclength_derivative(self, quad_table):
        phis = np.linspace(-0.95, 0.95, 21)
        h = 1e-6
        ds = (quad_table.s_of_phi(phis + h)
              - quad_table.s_of_phi(phis - h)) / (2 * h)
        expected = np.sign(quad_table.a) / np.sqrt(1.0 - phis ** 2)
        assert np.max(np.abs(ds / expected - 1.0)) < 1e-6

    def test_monotone_and_round_trip(self, quad_table):
        assert np.all(np.diff(quad_table.r_nodes) > 0)
        assert np.all(np.diff(quad_table.s_of_phi(quad_table.phi_nodes)) > 0)
        dphi = np.diff(quad_table.phi_nodes)
        assert np.all(dphi > 0) or np.all(dphi < 0)
        probes = np.linspace(-0.99, 0.99, 1000)
        r = quad_table.r_of_phi(probes)
        back = quad_table.phi_of_r(r)
        assert np.max(np.abs(back - probes)) < 1e-8 * np.max(
            1.0 + np.abs(probes))

    def test_anchor_validation(self, quadratic_profile):
        with pytest.raises(AnchorOutOfRange):
            rp.build_reparam(quadratic_profile, a=1.0, anchor=(2.0, 1.0))
        with pytest.raises(AnchorOutOfRange):
            rp.build_reparam(quadratic_profile, a=1.0, anchor=(0.0, -1.0))

    def test_phi_of_r_out_of_range(self, quad_table):
        with pytest.raises(TableRangeExceeded):
            quad_table.phi_of_r(-1.0)
        with pytest.raises(TableRangeExceeded):
            quad_table.phi_of_r([1.0, 0.0])
        with pytest.raises(TableRangeExceeded):
            quad_table.phi_of_r(2.0 * rp.R_SENTINEL)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("a", [1.0, -0.5])
    def test_phi_of_r_round_trip_every_family(self, family, a):
        profile = family_profile(family)
        table = rp.build_reparam(profile, a=a)
        lo, hi = profile.interval
        phis = np.linspace(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo), 200)
        radii = table.r_of_phi(phis)
        back = table.r_of_phi(table.phi_of_r(radii))
        assert np.max(np.abs(back / radii - 1.0)) <= 1e-12
        assert table.phi_of_r(float(radii[7])) == pytest.approx(phis[7],
                                                                abs=1e-12)

    def test_nonroot_endpoints(self):
        # Positive profile without roots: r extends smoothly to both ends.
        prof = pf.make_profile(pf.Polynomial(coeffs=(1.0, 0.2, 0.3)),
                               (-0.8, 0.9))
        tab = rp.build_reparam(prof, a=0.7)
        assert not tab.r_unbounded
        assert np.all(np.isfinite(tab.r_nodes))


class TestLeanTables:
    """A table derives its dual by negation and seeds phi(log r) from its
    own nodes."""

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("a", [1.0, -0.5])
    def test_dual_log_radius_is_negated(self, family, a):
        profile = family_profile(family)
        table = rp.build_reparam(profile, a=a)
        dual = rp.dual_table(table)
        lo, hi = profile.interval
        phis = np.linspace(lo + 1e-9 * (hi - lo), hi - 1e-9 * (hi - lo), 501)
        assert np.array_equal(dual.log_r(phis), -table.log_r(phis))
        assert dual.a == -a and dual.anchor == (table.anchor[0], 1.0)
        assert np.array_equal(dual.phi_nodes, table.phi_nodes[::-1])

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("a", [1.0, -0.5])
    def test_dense_knots_converged(self, family, a, monkeypatch):
        # The Newton step left at every knot of phi(log r), for windows
        # 10%, 1e-4, 1e-7 and 1e-9 of the interval in from its ends.  The
        # last two reach closer to a root of Q than the table's node clip
        # (1e-6 of the interval), where log r ~ p log(phi - root) and
        # Newton steps from the end node alone are not enough; there
        # phi_of_r at the knot radii, which shares the solver, is checked
        # too.  Started from that law, those windows take at most one
        # solver pass (one log r evaluation) more than the windows inside
        # the node range.
        profile = family_profile(family)
        table = rp.build_reparam(profile, a=a)
        lo, hi = profile.interval
        calls = []
        value = table._logr.value
        monkeypatch.setattr(table._logr, "value",
                            lambda phi: calls.append(1) or value(phi))
        passes = {}
        for frac in (0.1, 1e-4, 1e-7, 1e-9):
            window = sorted((float(table.log_r(lo + frac * (hi - lo))),
                             float(table.log_r(hi - frac * (hi - lo)))))
            calls.clear()
            spline = table.dense_phi_of_logr(*window)
            passes[frac] = len(calls)
            solved = [(spline(spline.x), spline.x)]
            if frac < 1e-6:
                radii = np.exp(spline.x)
                solved.append((table.phi_of_r(radii), np.log(radii)))
            for phi, logr in solved:
                step = (table.log_r(phi) - logr) / (
                    a / np.asarray(profile.q(phi)))
                assert np.max(np.abs(step)) <= 1e-14 * (hi - lo)
        assert max(passes[1e-7], passes[1e-9]) <= max(passes[0.1],
                                                      passes[1e-4]) + 1

    def test_dense_window_range(self, quad_table):
        lo, hi = quad_table.profile.interval
        pad = 1e-12 * (hi - lo)
        ends = sorted((float(quad_table.log_r(lo + pad)),
                       float(quad_table.log_r(hi - pad))))
        quad_table.dense_phi_of_logr(*ends)
        with pytest.raises(TableRangeExceeded):
            quad_table.dense_phi_of_logr(ends[0], ends[1] + 1e-6)
        with pytest.raises(TableRangeExceeded):
            quad_table.dense_phi_of_logr(ends[0] - 1e-6, ends[1])


def quad_from_lo(profile, phis):
    """Arclength from the lo endpoint to each phi by SciPy's adaptive
    quadrature, each half of the interval in w = sqrt(|phi - endpoint|)."""
    lo, hi = profile.interval
    mid = 0.5 * (lo + hi)

    def half(end, sign, w0, w1):
        def integrand(w):
            return 2.0 * w / math.sqrt(float(profile.q(end + sign * w * w)))
        return quad(integrand, w0, w1, epsabs=0.0, epsrel=1e-13,
                    limit=200)[0]

    left = half(lo, +1.0, 0.0, math.sqrt(mid - lo))
    right = half(hi, -1.0, 0.0, math.sqrt(hi - mid))
    return np.array([
        half(lo, +1.0, 0.0, math.sqrt(phi - lo)) if phi <= mid
        else left + right - half(hi, -1.0, 0.0, math.sqrt(hi - phi))
        for phi in phis])


class TestDistanceInvariant:
    @pytest.mark.parametrize("K,phi0", [(4.0, 1.0), (4.0, 0.3), (1.0, 2.0)])
    def test_quadratic_closed_form(self, K, phi0):
        prof = pf.make_profile(pf.Quadratic(K=K, phi0=phi0),
                               (-abs(phi0), abs(phi0)))
        L = rp.critical_distance(prof)
        assert L == pytest.approx(math.pi / math.sqrt(K), abs=1e-9)

    @pytest.mark.parametrize("lam", [2.0, 10.0])
    def test_scaling(self, lam, quadratic_profile):
        # L(lam^2 Q) = L(Q) / lam.
        scaled = pf.make_profile(pf.Quadratic(K=lam ** 2, phi0=1.0),
                                 (-1.0, 1.0))
        L0 = rp.critical_distance(quadratic_profile)
        L1 = rp.critical_distance(scaled)
        assert L1 == pytest.approx(L0 / lam, rel=1e-9)

    def test_duality_invariance(self, quad_table):
        dual = rp.dual_table(quad_table)
        assert rp.critical_distance(quad_table.profile) == pytest.approx(
            rp.critical_distance(dual.profile), rel=0.0, abs=0.0)
        assert quad_table.L == pytest.approx(dual.L, rel=1e-12)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("a", [1.0, -0.5])
    def test_arclength_matches_quad(self, family, a):
        # critical_distance, L and s(phi) against adaptive quadrature of
        # the same w-substituted halves, to 1e-12 of L.
        profile = family_profile(family)
        table = rp.build_reparam(profile, a=a)
        lo, hi = profile.interval
        phis = np.linspace(lo, hi, 101)
        from_lo = quad_from_lo(profile, phis)
        L = from_lo[-1]
        if None in profile.endpoint_slopes:
            with pytest.raises(SingularEndpoint):
                rp.critical_distance(profile)
        else:
            assert abs(rp.critical_distance(profile) / L - 1.0) <= 1e-12
        assert abs(table.L / L - 1.0) <= 1e-12
        expect = from_lo if a > 0 else L - from_lo
        assert np.max(np.abs(table.s_of_phi(phis) - expect)) <= 1e-12 * L

    def test_singular_endpoint(self):
        prof = pf.make_profile(pf.Polynomial(coeffs=(1.0, 0.0, -1.0)),
                               (-0.9, 0.9))
        with pytest.raises(SingularEndpoint):
            rp.critical_distance(prof)


class TestDuality:
    def test_involution(self, quad_table):
        back = rp.dual_table(rp.dual_table(quad_table))
        assert np.max(np.abs(back.r_nodes - quad_table.r_nodes)
                      / quad_table.r_nodes) < 1e-12
        assert back.a == quad_table.a

    def test_phi_correspondence(self, quad_table):
        dual = rp.dual_table(quad_table)
        radii = np.exp(np.linspace(-1.2, 1.2, 100))
        phi = quad_table.phi_of_r(radii)
        phi_star = dual.phi_of_r(1.0 / radii)
        assert np.max(np.abs(phi - phi_star)) < 1e-9

    def test_starred_ode(self, quad_table):
        dual = rp.dual_table(quad_table)
        phis = np.linspace(-0.9, 0.9, 50)
        h = 1e-6
        dr = (dual.r_of_phi(phis + h) - dual.r_of_phi(phis - h)) / (2 * h)
        expected = dual.a * dual.r_of_phi(phis) / np.asarray(
            dual.profile.q(phis))
        assert np.max(np.abs(dr / expected - 1.0)) < 1e-8


class TestBoundaryLimits:
    def test_positive_limit_and_derivative(self, quad_table):
        # Endpoint phi = +1 carries dQ/dphi = -2 = 2a.
        bl = rp.boundary_limits(quad_table, "hi")
        assert bl.q0 > 0
        assert bl.q0 == pytest.approx(4.0, rel=1e-8)   # K (1 + phi0)^2
        assert bl.dphi_dxi == pytest.approx(bl.q0 / (2 * quad_table.a),
                                            rel=5e-4)
        assert bl.passed
        assert all(0.2 <= r <= 5.0 for r in bl.ratios)

    def test_wrong_endpoint(self, quad_table):
        with pytest.raises(WrongEndpoint):
            rp.boundary_limits(quad_table, "lo")   # slope there is -2a

    def test_one_solve_per_limit(self, quad_table, monkeypatch):
        # Each r = 0 limit solves its whole radius ladder in one phi_of_r
        # call, and reads the values the one-radius-per-call code gave.
        calls = []
        solve = rp.ReparamTable.phi_of_r

        def counted(table, r):
            calls.append(np.size(r))
            return solve(table, r)

        monkeypatch.setattr(rp.ReparamTable, "phi_of_r", counted)
        bl = rp.boundary_limits(quad_table, "hi")
        assert len(calls) == 1
        got = (bl.q0, bl.dphi_dxi, bl.d2phi_dxi2, bl.dqr2_dxi, bl.d2qr2_dxi2,
               *bl.ratios)
        pinned = (3.9999999999550964, -1.999999994781293, 3.999999688741322,
                  -7.999999904728601, 23.99997895020559, 1.9699999999992097,
                  1.9601502763217267, 1.9313725489676818, 1.9147468497754518)
        assert got == pytest.approx(pinned, rel=1e-12)
        calls.clear()
        c1, c2 = models.ball_extension_coeffs(quad_table.profile, -1.0, 1.0,
                                              0.0, quad_table)
        assert len(calls) == 1
        assert (c1, c2) == pytest.approx(
            (-3.9999979444192983, 3.9999994826861416), rel=1e-12)
