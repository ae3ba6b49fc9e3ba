"""The numpy cubic splines against scipy's on every grid the package builds
them on, and the tridiagonal solve behind them."""

import numpy as np
import pytest
from scipy.interpolate import CubicSpline, PPoly

from skrp import profiles, reparam, spline
from conftest import FAMILIES, family_profile

SITES = ("log_radius", "phi_of_log_r")


def recorded_grids(family, monkeypatch):
    """{site: (x, y)} of every spline the table layer builds for one
    profile of a family: the log-radius remainder, phi(log r) over a
    window, and for the custom family its samples."""
    grids = []

    def recording(x, y):
        grids.append((np.asarray(x, dtype=float), np.asarray(y, dtype=float)))
        return spline.cubic_spline(x, y)

    monkeypatch.setattr(profiles, "cubic_spline", recording)
    profile = family_profile(family)
    custom = grids[:]
    grids.clear()
    monkeypatch.setattr(reparam, "cubic_spline", recording)
    table = reparam.build_reparam(profile, a=1.0)
    lo, hi = profile.interval
    pad = 0.1 * (hi - lo)
    table.dense_phi_of_logr(*sorted((float(table.log_r(lo + pad)),
                                     float(table.log_r(hi - pad)))))
    assert len(grids) == len(SITES) and len(custom) == (family == "custom")
    return dict(zip(SITES, grids), **({"custom": custom[0]} if custom else {}))


def evaluation_points(x):
    """The knots, the midpoints, and points half an end piece outside each
    end, which the end pieces extrapolate to."""
    return np.concatenate([x, 0.5 * (x[:-1] + x[1:]),
                           [1.5 * x[0] - 0.5 * x[1],
                            1.5 * x[-1] - 0.5 * x[-2]]])


def gap(got, want):
    return np.max(np.abs(got - want))


EPS = np.finfo(float).eps


@pytest.mark.parametrize("family", FAMILIES)
def test_matches_scipy_on_package_grids(family, monkeypatch):
    for site, (x, y) in recorded_grids(family, monkeypatch).items():
        ours, ref = spline.cubic_spline(x, y), CubicSpline(x, y)
        t = evaluation_points(x)
        for a, b in ((ours, ref), (ours.antiderivative(),
                                   ref.antiderivative())):
            assert gap(a(t), b(t)) <= 1e-14 * np.max(np.abs(b(t))), site
        # Derivatives difference the knot slopes, which the two tridiagonal
        # solves round differently: the bounds are 100 roundings of the
        # slope (divided by the shortest piece for the second derivative).
        # The gaps read at most 17 and 27 of them.
        slope_ulp = EPS * np.max(np.abs(ref.derivative(1)(t)))
        assert gap(ours.derivative(1)(t), ref.derivative(1)(t)) \
            <= 100 * slope_ulp, site
        assert gap(ours.derivative(2)(t), ref.derivative(2)(t)) \
            <= 100 * slope_ulp / np.min(np.diff(x)), site
        # Knots are reproduced exactly, the last one too.
        assert np.array_equal(ours(x), y), site
        # Negation is exact, and matches scipy's negated antiderivative.
        anti, ref_anti = ours.antiderivative(), ref.antiderivative()
        assert np.array_equal((-anti)(t), -anti(t)), site
        neg_ref = PPoly(-ref_anti.c, ref_anti.x)(t)
        assert gap((-anti)(t), neg_ref) <= 1e-14 * np.max(np.abs(neg_ref))


def test_nan_in_nan_out():
    x = np.linspace(0.0, 1.0, 9)
    s = spline.cubic_spline(x, np.exp(x))
    out = s(np.array([np.nan, 0.5, np.nan]))
    assert np.isnan(out[0]) and np.isnan(out[2]) and np.isfinite(out[1])
    assert np.isnan(s.antiderivative()(np.nan))


def test_exact_on_cubics():
    # Not-a-knot reproduces a cubic exactly, so its antiderivative and
    # derivatives are the exact ones on a non-uniform grid.
    x = np.sort(np.random.default_rng(3).uniform(-1.0, 2.0, 12))
    coeffs = np.array([0.3, -1.2, 0.7, 2.0])      # ascending powers
    f = np.polynomial.Polynomial(coeffs)
    s = spline.cubic_spline(x, f(x))
    t = np.linspace(-1.5, 2.5, 41)
    assert np.max(np.abs(s(t) - f(t))) <= 1e-12
    assert np.max(np.abs(s.derivative(1)(t) - f.deriv(1)(t))) <= 1e-11
    assert np.max(np.abs(s.derivative(2)(t) - f.deriv(2)(t))) <= 1e-10
    anti = f.integ(lbnd=x[0])
    assert np.max(np.abs(s.antiderivative()(t) - anti(t))) <= 1e-12


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        spline.cubic_spline([0.0, 1.0, 2.0], [0.0, 1.0, 4.0])
    with pytest.raises(ValueError):
        spline.cubic_spline([0.0, 2.0, 1.0, 3.0], [0.0, 1.0, 4.0, 9.0])
    s = spline.cubic_spline([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 4.0, 9.0])
    for nu in (0, 3):
        with pytest.raises(ValueError):
            s.derivative(nu)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 17, 64, 1000])
def test_tridiagonal_against_dense_solve(n):
    rng = np.random.default_rng(n)
    lower, upper = rng.uniform(-1.0, 1.0, (2, n))
    lower[0] = upper[-1] = 0.0
    # Off-diagonal sums up to 0.9 of the diagonal: a slow-converging case.
    diag = (np.abs(lower) + np.abs(upper)) / 0.9 * rng.choice([-1.0, 1.0], n)
    diag[diag == 0.0] = 1.0
    rhs = rng.normal(size=n)
    dense = np.diag(diag) + np.diag(lower[1:], -1) + np.diag(upper[:-1], 1)
    got = spline._solve_dominant_tridiagonal(lower, diag, upper, rhs)
    want = np.linalg.solve(dense, rhs)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
