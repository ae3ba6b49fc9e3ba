"""Profile families, admissible intervals, boundary reports, classification."""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from skrp import profiles as pf
from skrp.errors import (
    BadParams,
    Inconsistent,
    NoRoot,
    PoleAtOne,
    PoleInInterval,
    SeedNonPositive,
    WrongFamily,
)


class TestMakeProfile:
    def test_quadratic_at_symmetry_point(self):
        p = pf.make_profile(pf.Quadratic(K=1.0, phi0=1.0), (-1, 1))
        assert float(p.q(0.0)) == pytest.approx(1.0, abs=1e-15)

    def test_type_c_polynomial_case(self):
        # (t-1) t^2 at t = 2 via E(t) = t^2 - 1 for m = 2.
        p = pf.make_profile(pf.TypeC(m=2, c=1.0, A=1.0, B=1.0, C=0.0),
                            (1.5, 2.5))
        assert float(p.q(2.0)) == pytest.approx(4.0, rel=1e-14)

    def test_type_a_roots(self):
        p = pf.find_admissible_interval(
            pf.TypeA(m=2, K=1.0, alpha=0.0, eta=-6.0), seed=0.0)
        assert p.interval == pytest.approx((-1.0, 1.0), abs=1e-12)
        assert p.endpoint_slopes == pytest.approx((2.0, -2.0), abs=1e-10)

    def test_pole_in_interval(self):
        with pytest.raises(PoleInInterval):
            pf.make_profile(pf.TypeC(m=2, c=1.0, A=1.0, B=1.0, C=0.5),
                            (0.5, 1.5))

    def test_nonpositive_interior(self):
        with pytest.raises(pf.NonPositive):
            pf.make_profile(pf.Polynomial(coeffs=(-1.0, 0.0, 1.0)),
                            (-0.5, 0.5))

    def test_bad_params(self):
        with pytest.raises(BadParams):
            pf.Quadratic(K=-1.0, phi0=1.0)
        with pytest.raises(BadParams):
            pf.TypeC(m=1, c=1.0, A=1.0, B=0.0, C=0.0)
        with pytest.raises(BadParams):
            pf.Quadratic(K=1.0, phi0=0.0)


class TestRationalBasis:
    def test_f_vanishes_at_two(self):
        F, _ = pf.rational_basis(2, 2.0)
        assert F == 0.0

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_e_vanishes_at_one(self, m):
        # E carries an explicit (t-1) factor; just off the pole its size is
        # bounded by |t-1| times the inner polynomial there.
        delta = 1e-10
        _, E = pf.rational_basis(m, 1.0 + delta)
        inner_at_one = float(np.sum(pf._e_inner_coeffs(m)))
        assert abs(E) <= 1.5 * delta * inner_at_one

    def test_m2_values_at_three(self):
        F, E = pf.rational_basis(2, 3.0)
        assert F == pytest.approx(27.0 / 4.0, rel=1e-15)
        assert E == pytest.approx(8.0, rel=1e-15)

    def test_pole_raises(self):
        with pytest.raises(PoleAtOne):
            pf.rational_basis(2, 1.0)


class TestSlopeConstraintPoly:
    @pytest.mark.parametrize("k,beta", [(3, 1.0), (3, -1.0), (5, -1.0)])
    def test_known_roots(self, k, beta):
        f, res = pf.slope_constraint_poly(k, beta)
        assert f == pytest.approx(0.0, abs=1e-12)
        assert res <= 1e-12

    def test_direct_value(self):
        f, res = pf.slope_constraint_poly(2, 2.0)
        assert f == pytest.approx(1.0, rel=1e-14)
        assert res <= 1e-13

    @settings(max_examples=200, deadline=None)
    @given(k=st.integers(min_value=2, max_value=10),
           beta=st.floats(min_value=-3.0, max_value=3.0))
    def test_factorization_property(self, k, beta):
        f, res = pf.slope_constraint_poly(k, beta)
        assert res <= 1e-10 * (1.0 + abs(f))


class TestFindAdmissibleInterval:
    def test_quadratic(self):
        p = pf.find_admissible_interval(pf.Quadratic(K=2.0, phi0=1.0),
                                        seed=0.0)
        assert p.interval == pytest.approx((-1.0, 1.0), abs=1e-12)
        assert p.endpoint_slopes == pytest.approx((4.0, -4.0), abs=1e-10)

    def test_no_root(self):
        with pytest.raises(NoRoot):
            pf.find_admissible_interval(
                pf.Polynomial(coeffs=(1.0, 0.0, 1.0)), seed=0.0)

    def test_seed_nonpositive(self):
        with pytest.raises(SeedNonPositive):
            pf.find_admissible_interval(pf.Quadratic(K=1.0, phi0=1.0),
                                        seed=5.0)

    def test_custom_double_root(self):
        # Q = phi^2 (1 - phi): tangential root at 0 forces zero slope there.
        grid = np.linspace(0.0, 1.0, 801)
        spec = pf.Custom(phi=tuple(grid), q=tuple(grid**2 * (1 - grid)))
        p = pf.find_admissible_interval(spec, seed=0.5)
        assert p.interval[0] == pytest.approx(0.0, abs=1e-3)
        rep = pf.check_boundary(p)
        assert not rep.passed


class TestCheckBoundary:
    def test_quadratic_passes(self, quadratic_profile):
        rep = pf.check_boundary(quadratic_profile)
        assert rep.passed
        assert rep.endpoint_slopes == pytest.approx((2.0, -2.0), abs=1e-12)

    def test_simple_roots_pass(self):
        p = pf.make_profile(pf.Polynomial(coeffs=(0.0, 1.0, -1.0)),
                            (0.0, 1.0))
        rep = pf.check_boundary(p)
        assert rep.passed
        assert rep.endpoint_slopes == pytest.approx((1.0, -1.0), abs=1e-12)

    def test_tangential_root_fails(self):
        p = pf.make_profile(pf.Polynomial(coeffs=(0.0, 0.0, 1.0, -1.0)),
                            (0.0, 1.0))
        rep = pf.check_boundary(p)
        assert not rep.passed
        assert not rep.slopes_nonzero


class TestTypeCAdmissibility:
    def test_polynomial_case_flags(self):
        spec = pf.TypeC(m=2, c=1.0, A=1.0, B=-1.0, C=0.0)
        prof = pf.find_admissible_interval(spec, seed=1.2)
        rep = pf.check_type_c(2, prof)
        assert rep.analytic and rep.vanishing and rep.positive
        assert rep.slopes_nonzero

    def test_one_in_interval_reported(self):
        # With C = 0 the factor (t-1) makes t = 1 a root, so admissible
        # intervals can reach it; the report must flag 1 in I while keeping
        # analyticity (no pole when C = 0).
        spec = pf.TypeC(m=2, c=2.0, A=4.0, B=-1.0, C=0.0)
        prof = pf.find_admissible_interval(spec, seed=3.0)
        t_lo, t_hi = sorted((prof.phi_min / 2.0, prof.phi_max / 2.0))
        assert t_lo <= 1.0 + 1e-9 and 1.0 <= t_hi
        rep = pf.check_type_c(2, prof)
        assert rep.analytic          # C = 0 keeps analyticity
        assert not rep.one_outside   # but 1 lies in I

    def test_rationality_vacuous_when_a_zero(self):
        # A = 0, B = 1: Q = (t-1)^2 (t+1), positive on (-1, 1) with a
        # tangential root at t = 1, supplied as an explicit interval.
        spec = pf.TypeC(m=2, c=1.0, A=0.0, B=1.0, C=0.0)
        prof = pf.make_profile(spec, (-1.0, 1.0))
        rep = pf.check_type_c(2, prof)
        assert rep.rational_ok
        assert rep.rational_matches == ()

    def test_wrong_family(self, quadratic_profile):
        with pytest.raises(WrongFamily):
            pf.check_type_c(2, quadratic_profile)


class TestClassifyType:
    def test_cases(self):
        assert pf.classify_type(0, None, (-1, 1)).tag == "A"
        t = pf.classify_type(1, 2.0, (-1, 1))
        assert t.tag == "C1" and not t.excluded
        t = pf.classify_type(1, 0.5, (-1, 1))
        assert t.tag == "C2" and t.note
        t = pf.classify_type(-1, 0.0, (-1, 1))
        assert t.tag == "B" and t.excluded

    def test_inconsistent(self):
        with pytest.raises(Inconsistent):
            pf.classify_type(1, None, (-1, 1))

    @settings(max_examples=200, deadline=None)
    @given(eps=st.sampled_from([-1, 0, 1]),
           c=st.floats(min_value=-3, max_value=3),
           lo=st.floats(min_value=-2, max_value=-0.1),
           hi=st.floats(min_value=0.1, max_value=2))
    def test_total_and_deterministic(self, eps, c, lo, hi):
        first = pf.classify_type(eps, c if eps != 0 else None, (lo, hi))
        second = pf.classify_type(eps, c if eps != 0 else None, (lo, hi))
        assert first == second
        assert first.tag in {"A", "B", "C1", "C2"}
        assert (first.tag == "B") == first.excluded


class TestTypeCPolynomialExpansion:
    def test_c_zero_is_polynomial(self):
        # With C = 0, Q is a polynomial of degree <= m+1 in t.
        m, c, A, B = 3, 2.0, 1.5, -0.7
        spec = pf.TypeC(m=m, c=c, A=A, B=B, C=0.0)
        ev = pf.family_evaluators(spec)
        inner = pf._e_inner_coeffs(m)
        e_poly = npoly.polymul([-1.0, 1.0], inner)
        q_poly = npoly.polymul([-1.0, 1.0], npoly.polyadd([A], B * e_poly))
        assert len(q_poly) <= m + 2
        t = np.linspace(-2.0, 3.0, 500)
        expect = npoly.polyval(t, q_poly)
        got = np.asarray(ev.q(t * c))
        assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(
            1.0 + np.abs(expect))


def _mp_q(spec, p):
    """Q of a closed-form family at the mpf point p, from the formula in the
    family's docstring (exact binomials for E), independent of the
    evaluators' polynomial arithmetic."""
    if isinstance(spec, pf.Quadratic):
        return spec.K * (spec.phi0 ** 2 - p ** 2)
    if isinstance(spec, pf.Polynomial):
        return sum(c * p ** k for k, c in enumerate(spec.coeffs))
    m, K, alpha, eta = (getattr(spec, a, None) for a in ("m", "K", "alpha",
                                                         "eta"))
    if isinstance(spec, pf.TypeA):
        return -K * p ** 2 + (alpha * p ** (2 * m - 1) - eta / m) / (2 * m - 1)
    if isinstance(spec, pf.TypeB):
        return K * p / m + alpha * p ** (m + 1) - 2 * eta / (m * (m + 1))
    t = p / spec.c
    E = (t - 1) * sum(mpmath.mpf(k) / m * mpmath.binomial(2 * m - k - 1, m - 1)
                      * t ** (k - 1) for k in range(1, m + 1))
    F = (t - 2) * t ** (2 * m - 1) / (t - 1) ** m
    return (t - 1) * (spec.A + spec.B * E + spec.C * F)


DERIVATIVE_SPECS = (
    [pf.Quadratic(K=1.3, phi0=0.8),
     pf.Polynomial(coeffs=(0.5, -1.0, 0.25, 2.0, -0.75))]
    + [cls(m=m, K=1.3, alpha=0.4, eta=-2.0) for cls in (pf.TypeA, pf.TypeB)
       for m in (2, 3, 4)]
    + [pf.TypeC(m=m, c=c, A=0.7, B=-0.4, C=C) for m in (2, 3, 4)
       for c in (1.0, -1.5, 2.0) for C in (0.0, 0.1, -0.3)])


class TestExactDerivatives:
    """dq and d2q of every closed-form family, the TypeC product rule
    included, against mpmath.diff of Q at 40 digits.  The points keep
    |t - 1| >= 0.05 from the TypeC pole, t = phi / c (t = phi for the
    families without c).  Measured worst: 7.1e-15 of 1 + |reference|."""

    @pytest.mark.parametrize("spec", DERIVATIVE_SPECS,
                             ids=lambda s: repr(s).replace(" ", ""))
    def test_against_mpmath(self, spec):
        ev = pf.family_evaluators(spec)
        phis = getattr(spec, "c", 1.0) * np.array(
            [-1.2, -0.4, 0.3, 0.95, 1.05, 1.6, 2.4])
        with mpmath.workdps(40):
            for order, fn in ((1, ev.dq), (2, ev.d2q)):
                got = np.asarray(fn(phis), dtype=float)
                for p, value in zip(phis, got):
                    ref = float(mpmath.diff(lambda x: _mp_q(spec, x),
                                            mpmath.mpf(p), order))
                    assert abs(value - ref) <= 1e-12 * (1.0 + abs(ref)), (
                        order, p, value, ref)


class TestHorner:
    """The Horner helper behind every polynomial in the module equals
    numpy's polyval bit for bit, with the same result type, on Python
    floats, 0-d arrays and 1-d arrays."""

    INPUTS = (0.37, -1.2, np.array(0.37), np.array(-2.5),
              np.array([-1.2, -0.4, 0.0, -0.0, 0.3, 0.95, 1.05, 2.4]))

    @staticmethod
    def same(got, ref):
        assert type(got) is type(ref)
        assert np.array_equal(got, ref)
        assert np.array_equal(np.signbit(got), np.signbit(ref))

    @pytest.mark.parametrize("coeffs", [(2.0,), (0.0, -1.0), (1.0, 0.2, 0.3),
                                        (0.5, -1.0, 0.25, 2.0, -0.75)])
    def test_equals_polyval(self, coeffs):
        c = np.array(coeffs)
        for x in self.INPUTS:
            self.same(pf._horner(x, c), npoly.polyval(x, c))

    @pytest.mark.parametrize("spec", DERIVATIVE_SPECS,
                             ids=lambda s: repr(s).replace(" ", ""))
    def test_family_evaluators(self, spec, monkeypatch):
        ev = pf.family_evaluators(spec)
        scale = getattr(spec, "c", 1.0)
        inputs = [scale * x for x in self.INPUTS]
        got = [[f(x) for x in inputs] for f in (ev.q, ev.dq, ev.d2q)]
        monkeypatch.setattr(pf, "_horner", npoly.polyval)
        ev = pf.family_evaluators(spec)
        ref = [[f(x) for x in inputs] for f in (ev.q, ev.dq, ev.d2q)]
        for g_row, r_row in zip(got, ref):
            for g, r in zip(g_row, r_row):
                self.same(g, r)

    def test_module_polynomials(self, monkeypatch):
        def evaluate():
            sol = pf.soliton_profile(m=3, p=0.5, s0=0.3, kappa=4.0, eps=1,
                                     c=0.0, anchor=(1.0, 0.5),
                                     rng=(0.4, 2.2))
            return ([pf.slope_constraint_poly(k, b) for k in (2, 5, 9)
                     for b in (-1.7, 0.4, 1.0)]
                    + [pf.rational_basis(3, t) for t in self.INPUTS]
                    + [np.array(sol.spec.q)])
        got = evaluate()
        monkeypatch.setattr(pf, "_horner", npoly.polyval)
        for g, r in zip(got, evaluate(), strict=True):
            self.same(np.array(g), np.array(r))


class TestSoliton:
    def test_ode_residual(self):
        prof = pf.soliton_profile(m=2, p=0.5, s0=0.3, kappa=4.0, eps=1,
                                  c=0.0, anchor=(1.0, 0.5), rng=(0.4, 2.2))
        res = pf.soliton_ode_residual(prof, 2, 0.5, 0.3, 4.0, 1, 0.0)
        assert res < 1e-8

    def test_anchor_slope(self):
        # p=1, s0=0, kappa=0, c=0, eps=1, anchor (1,1): Q' = Q - Q/phi is
        # zero at phi = 1.
        prof = pf.soliton_profile(m=2, p=1.0, s0=0.0, kappa=0.0, eps=1,
                                  c=0.0, anchor=(1.0, 1.0), rng=(0.5, 1.8))
        assert float(prof.dq(1.0)) == pytest.approx(0.0, abs=1e-7)

    # eps = +1 needs phi > c on the range, eps = -1 needs phi < c.
    SIDES = {1: dict(c=0.0, rng=(0.4, 2.2), anchor=(1.0, 0.5)),
             -1: dict(c=1.0, rng=(-1.5, 0.5), anchor=(0.0, 0.8))}

    @staticmethod
    def reference(m, p, s0, kappa, eps, c, anchor, phis):
        """Q at phis to 40 digits: the integrating-factor solution
        Q = [mu(u_a) Q_a + int_{u_a}^u mu(v) (eps kappa - 2 s0 v / p) dv]
        / mu(u), mu(u) = u^(m-1) e^(-u/p), u = phi - c, with the integral
        by mpmath quadrature."""
        with mpmath.workdps(40):
            p, s0, kappa, c = (mpmath.mpf(v) for v in (p, s0, kappa, c))
            u_a, q_a = mpmath.mpf(anchor[0]) - c, mpmath.mpf(anchor[1])

            def mu(u):
                return u ** (m - 1) * mpmath.exp(-u / p)

            def rhs(v):
                return mu(v) * (eps * kappa - 2 * s0 * v / p)

            return np.array([float(
                (mu(u_a) * q_a + mpmath.quad(rhs, [u_a, mpmath.mpf(x) - c]))
                / mu(mpmath.mpf(x) - c)) for x in phis])

    @staticmethod
    def nodes(prof, count=5):
        phi, q = np.array(prof.spec.phi), np.array(prof.spec.q)
        idx = np.linspace(0, len(phi) - 1, count).astype(int)
        return phi[idx], q[idx], np.max(np.abs(q))

    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("eps", [1, -1])
    @pytest.mark.parametrize("p", [0.5, -0.5])
    def test_closed_form_against_mpmath(self, m, eps, p):
        side = self.SIDES[eps]
        prof = pf.soliton_profile(m=m, p=p, s0=0.3, kappa=4.0, eps=eps,
                                  **side)
        phi, q, scale = self.nodes(prof)
        want = self.reference(m, p, 0.3, 4.0, eps, side["c"],
                              side["anchor"], phi)
        assert np.max(np.abs(q - want)) <= 1e-13 * scale
        # Negative control: the closed form with m in place of m - 1 (the
        # profile of m + 1) misses the same bound.
        wrong = pf.soliton_profile(m=m + 1, p=p, s0=0.3, kappa=4.0,
                                   eps=eps, **side)
        phi, q, scale = self.nodes(wrong)
        want = self.reference(m, p, 0.3, 4.0, eps, side["c"],
                              side["anchor"], phi)
        assert np.max(np.abs(q - want)) > 1e-13 * scale

    @pytest.mark.parametrize("kw,ends", [
        # The benchmark's soliton: Q reaches zero below the anchor.
        (dict(m=2, p=0.5, s0=0.3, kappa=4.0, eps=1, c=0.0,
              anchor=(1.0, 0.5), rng=(0.4, 2.2)), (True, False)),
        # kappa < 0: Q reaches zero above the anchor.
        (dict(m=2, p=0.5, s0=0.0, kappa=-4.0, eps=1, c=0.0,
              anchor=(1.0, 0.5), rng=(0.4, 2.2)), (False, True)),
        (dict(m=2, p=1.0, s0=0.0, kappa=0.0, eps=1, c=0.0,
              anchor=(1.0, 1.0), rng=(0.5, 1.8)), (False, False)),
    ])
    def test_range_is_the_positive_run_at_the_anchor(self, kw, ends):
        prof = pf.soliton_profile(**kw)
        phi, q = np.array(prof.spec.phi), np.array(prof.spec.q)
        grid = np.linspace(*kw["rng"], 4097)
        grid[np.argmin(np.abs(grid - kw["anchor"][0]))] = kw["anchor"][0]
        j_lo, j_hi = np.searchsorted(grid, [phi[0], phi[-1]])
        assert np.array_equal(phi, grid[j_lo:j_hi + 1])
        assert (j_lo > 0, j_hi < len(grid) - 1) == ends
        assert prof.truncated == any(ends)
        assert prof.interval == (phi[0], phi[-1])
        assert np.all(q > 0.0)
        # A truncated end keeps one node of margin: Q is still positive one
        # node out and not positive two nodes out.
        for j, out in ((j_lo, -1), (j_hi, 1)):
            if 0 < j < len(grid) - 1:
                margin = self.reference(
                    kw["m"], kw["p"], kw["s0"], kw["kappa"], kw["eps"],
                    kw["c"], kw["anchor"], grid[[j + out, j + 2 * out]])
                assert margin[0] > 0.0 >= margin[1]

    def test_range_contains_c(self):
        with pytest.raises(pf.RangeContainsC):
            pf.soliton_profile(m=2, p=1.0, s0=0.0, kappa=0.0, eps=1, c=1.0,
                               anchor=(1.5, 1.0), rng=(0.5, 2.0))


class TestSymmetricFamilies:
    def test_type_a_admissible_is_symmetric(self):
        rep = pf.symmetric_family_report(
            pf.TypeA(m=2, K=1.0, alpha=0.0, eta=-6.0))
        assert rep.found and rep.boundary_ok and rep.symmetric
        assert rep.interval == pytest.approx((-1.0, 1.0), abs=1e-10)

    def test_type_a_alpha_nonzero_fails_boundary(self):
        rep = pf.symmetric_family_report(
            pf.TypeA(m=3, K=1.0, alpha=0.5, eta=-6.0))
        assert not (rep.found and rep.boundary_ok)

    def test_type_b_admissible_is_symmetric(self):
        # Admissible two-sided instances of the second family force K = 0.
        rep = pf.symmetric_family_report(
            pf.TypeB(m=3, K=0.0, alpha=-1.0, eta=-2.0))
        assert rep.found and rep.boundary_ok and rep.symmetric
