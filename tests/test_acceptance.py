"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
captured output on failure) so the suite doubles as a checklist.
"""

import dataclasses
import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from skrp import cli, models, profiles, reparam, tensor, verify


def _criterion(number: int, name: str, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d} [{status}] {name}: {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def random_positive_polynomial(rng, lo, hi, degree=4, floor=0.5):
    """Random polynomial bumped to be >= floor on [lo, hi], rescaled so its
    maximum there is about 1.5 (keeps the derived radial charts thick)."""
    coeffs = rng.normal(size=degree + 1)
    grid = np.linspace(lo, hi, 400)
    vals = npoly.polyval(grid, coeffs)
    coeffs[0] += floor - vals.min()
    peak = float(npoly.polyval(grid, coeffs).max())
    return profiles.Polynomial(coeffs=tuple(coeffs * (1.5 / peak)))


@pytest.fixture(scope="module")
def fd():
    return tensor.FDConfig()


def test_criterion_01_sphere_curvature(fd):
    model = models.build_sphere(models.SphereSpec(K=4.0, phi0=1.0))
    rng = np.random.default_rng(1001)
    radii = np.concatenate([
        np.exp(rng.uniform(math.log(1e-3), math.log(1e-2), 10)),
        np.exp(rng.uniform(math.log(0.05), math.log(2.0), 40))])
    angles = rng.uniform(0, 2 * math.pi, 50)
    pts = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    curv = tensor.curvature(model.chart, pts, fd)
    worst = float(np.max(np.abs(curv.scalar / 2.0 - 4.0) / 4.0))
    _criterion(1, "sphere curvature", worst < 1e-5,
               f"max relative deviation {worst:.3e} at 50 points "
               "(tol 1e-5)")


def test_criterion_02_distance_invariant(fd):
    worst_quad = 0.0
    for phi0 in (1.0, 0.37):
        prof = profiles.make_profile(profiles.Quadratic(K=4.0, phi0=phi0),
                                     (-abs(phi0), abs(phi0)))
        L = reparam.critical_distance(prof)
        worst_quad = max(worst_quad, abs(L - math.pi / 2.0))
    model = models.build_sphere(models.SphereSpec(K=4.0, phi0=1.0))
    rep = verify.sphere_normal_geodesics(model, fd)
    ok = worst_quad < 1e-8 and rep.distance_vs_L < 1e-4
    _criterion(2, "distance invariant", ok,
               f"quadrature error {worst_quad:.3e} (tol 1e-8), geodesic "
               f"error {rep.distance_vs_L:.3e} (tol 1e-4)")


def test_criterion_03_eigenstructure_random_profiles(fd):
    rng = np.random.default_rng(1003)
    worst = 0.0
    for _ in range(20):
        spec = random_positive_polynomial(rng, 0.45, 2.05)
        prof = profiles.make_profile(spec, (0.45, 2.05))
        chart = models.build_shell(models.ShellSpec(
            m=2, profile=prof, a=1.0, eps=1, c=0.0,
            phi_window=(0.55, 1.95)))
        pts = models.sample_points(chart, 100, seed=int(rng.integers(2**31)))
        rep = verify.skrp_report(chart, pts, fd)
        worst = max(worst, rep.worst())
    _criterion(3, "eigenstructure blocks", worst < 1e-5,
               f"worst block residual {worst:.3e} over 20 random positive "
               "polynomial profiles x 100 points (tol 1e-5)")


def test_criterion_04_gradient_identities(fd):
    prof = profiles.make_profile(profiles.Quadratic(K=1.0, phi0=1.0),
                                 (-1.0, 1.0))
    shell = models.build_shell(models.ShellSpec(m=2, profile=prof, a=1.0,
                                                eps=1, c=-2.0))
    product = models.build_product(models.ProductSpec(K=1.0, t=1.0))
    worst = 0.0
    detail = []
    for name, chart in (("shell", shell), ("product", product)):
        pts = models.sample_points(chart, 100, seed=1004)
        rep = verify.identity_report(chart, pts, fd)
        worst = max(worst, rep.worst())
        detail.append(f"{name} {rep.worst():.3e}")
    _criterion(4, "gradient identities", worst < 1e-5,
               ", ".join(detail) + " at 100 points (tol 1e-5)")


def test_criterion_05_conformally_einstein(fd):
    product = models.build_product(models.ProductSpec(K=1.0, t=1.0))
    pts = models.sample_points(product, 100, seed=1005)
    rep_p = verify.conformal_einstein_report(product, pts, fd)

    # Matched rational-family shell: kappa = eps m A / c with the
    # projective base kappa = 2 m |a| forces A = 2 a c.
    m, eps, c, a = 2, 1, 1.0, 1.0
    prof = profiles.make_profile(
        profiles.TypeC(m=m, c=c, A=2.0 * a * c, B=-0.4, C=0.1),
        (1.35, 2.55))
    shell = models.build_shell(models.ShellSpec(
        m=m, profile=prof, a=a, eps=eps, c=c, phi_window=(1.5, 2.4)))
    pts_s = models.sample_points(shell, 100, seed=1006)
    rep_s = verify.conformal_einstein_report(shell, pts_s, fd)

    rng = np.random.default_rng(1007)
    neg_prof = profiles.make_profile(
        random_positive_polynomial(rng, 1.35, 2.55), (1.35, 2.55))
    neg_shell = models.build_shell(models.ShellSpec(
        m=m, profile=neg_prof, a=a, eps=eps, c=c, phi_window=(1.5, 2.4)))
    rep_n = verify.conformal_einstein_report(
        neg_shell, models.sample_points(neg_shell, 40, seed=1008), fd)

    ok = all(r.einstein_res < 1e-4 and r.lambda_spread < 1e-4
             and r.wedge_res < 1e-6 for r in (rep_p, rep_s)) \
        and rep_n.einstein_res > 1e-2
    _criterion(5, "conformally Einstein", ok,
               f"product {rep_p.einstein_res:.3e}/{rep_p.lambda_spread:.3e}"
               f"/{rep_p.wedge_res:.3e}, matched shell "
               f"{rep_s.einstein_res:.3e}/{rep_s.lambda_spread:.3e}"
               f"/{rep_s.wedge_res:.3e} (tol 1e-4/1e-4/1e-6), negative "
               f"control {rep_n.einstein_res:.3e} (> 1e-2)")


def test_criterion_06_canonical_connection(fd):
    rng = np.random.default_rng(1009)
    pts = rng.normal(size=(100, 2)) * 1.2
    data = models.tautological_connection(pts, fd)
    worst = float(np.max(np.abs(data.omega.real + 2.0 * data.omega_fs)))
    worst_im = float(np.max(np.abs(data.omega.imag)))
    _criterion(6, "canonical connection", worst < 1e-6,
               f"|curvature form + 2 FS form| {worst:.3e} at 100 points "
               f"(tol 1e-6), imaginary part {worst_im:.3e}")


def test_criterion_07_duality():
    prof = profiles.make_profile(profiles.Quadratic(K=1.0, phi0=1.0),
                                 (-1.0, 1.0))
    chart = models.build_annulus(models.AnnulusSpec(profile=prof, a=-1.0))
    dual = models.build_annulus(models.AnnulusSpec(
        profile=prof, a=1.0, phi_window=chart.meta["phi_window"]))
    pts = models.sample_points(chart, 100, seed=1010)
    star = models.inversion_point(pts)
    g = np.asarray(chart.g(pts))
    jac = models.inversion_jacobian(pts)
    pull = np.swapaxes(jac, 1, 2) @ np.asarray(dual.g(star)) @ jac
    worst_g = float(np.max(np.max(np.abs(pull - g), axis=(1, 2))
                           / np.max(np.abs(g), axis=(1, 2))))
    worst_phi = float(np.max(np.abs(np.asarray(chart.phi(pts))
                                    - np.asarray(dual.phi(star)))))
    ok = worst_g < 1e-10 and worst_phi < 1e-9
    _criterion(7, "inversion duality", ok,
               f"metric pullback {worst_g:.3e} (tol 1e-10), phi "
               f"{worst_phi:.3e} (tol 1e-9) at 100 points")


def test_criterion_08_slope_constraint_scan():
    betas = np.linspace(-3.0, 3.0, 10_000)
    worst_factor = 0.0
    worst_bracket = 0.0
    for k in range(2, 11):
        coeffs = np.zeros(k + 2)
        coeffs[k + 1] = k - 1.0
        coeffs[k] = -(k + 1.0)
        coeffs[1] = k + 1.0
        coeffs[0] = -(k - 1.0)
        f = npoly.polyval(betas, coeffs)
        pi_coeffs = np.array([j * (k - j) for j in range(1, k)], dtype=float)
        fact = (betas - 1.0) ** 3 * npoly.polyval(betas, pi_coeffs)
        worst_factor = max(worst_factor, float(np.max(
            np.abs(f - fact) / (1.0 + np.abs(f)))))
        admissible = {1.0, (-1.0) ** k}
        sign_change = np.nonzero(f[:-1] * f[1:] < 0)[0]
        exact_zero = np.nonzero(f == 0.0)[0]
        for i in sign_change:
            lo, hi = betas[i], betas[i + 1]
            dist = min(max(lo - root, root - hi, 0.0)
                       for root in admissible)
            worst_bracket = max(worst_bracket, dist)
        for i in exact_zero:
            dist = min(abs(betas[i] - root) for root in admissible)
            worst_bracket = max(worst_bracket, dist)
    ok = worst_factor <= 1e-10 and worst_bracket <= 1e-9
    _criterion(8, "slope constraint polynomial", ok,
               f"zero brackets within {worst_bracket:.3e} of the admissible "
               f"roots (tol 1e-9); factorization residual {worst_factor:.3e}"
               " (tol 1e-10), k = 2..10, 10^4 grid")


def test_criterion_09_family_symmetry():
    rng = np.random.default_rng(1011)
    worst_sym = 0.0
    n_b = 0
    while n_b < 200:
        m = int(rng.choice([3, 5, 7]))
        alpha = -float(rng.uniform(0.2, 5.0))
        eta = -float(rng.uniform(0.2, 5.0))
        rep = profiles.symmetric_family_report(
            profiles.TypeB(m=m, K=0.0, alpha=alpha, eta=eta))
        if not (rep.found and rep.boundary_ok):
            continue
        n_b += 1
        lo, hi = rep.interval
        worst_sym = max(worst_sym, abs(lo + hi) / abs(hi))
    n_a = 0
    any_pass = 0
    while n_a < 200:
        m = int(rng.choice([2, 3, 4]))
        K = float(rng.uniform(0.2, 3.0))
        alpha = float(rng.choice([-1.0, 1.0])) * float(rng.uniform(0.1, 2.0))
        eta = float(rng.uniform(-5.0, 5.0))
        rep = profiles.symmetric_family_report(
            profiles.TypeA(m=m, K=K, alpha=alpha, eta=eta))
        n_a += 1
        if rep.found and rep.boundary_ok:
            any_pass += 1
    ok = worst_sym < 1e-9 and any_pass == 0
    _criterion(9, "family symmetry", ok,
               f"200 admissible TypeB intervals symmetric to {worst_sym:.3e}"
               f" (tol 1e-9); {any_pass}/200 TypeA sets with alpha != 0 "
               "passed the boundary check (must be 0)")


def test_criterion_10_soliton(fd):
    m, eps, c, a = 2, 1, 0.0, 1.0
    p, s0 = 0.5, 0.3
    kappa = 2.0 * m * abs(a)
    prof = profiles.soliton_profile(m=m, p=p, s0=s0, kappa=kappa, eps=eps,
                                    c=c, anchor=(1.0, 0.5), rng=(0.4, 2.2))
    chart = models.build_shell(models.ShellSpec(m=m, profile=prof, a=a,
                                                eps=eps, c=c))
    pts = models.sample_points(chart, 100, seed=1012)
    res = verify.soliton_report(chart, p, s0, pts, fd)
    _criterion(10, "soliton pipeline", res < 1e-4,
               f"|Hess + p Ric - s0 g| residual {res:.3e} at 100 shell "
               "points, m=2 (tol 1e-4)")


def test_criterion_11_ball_extension():
    prof = profiles.make_profile(profiles.Quadratic(K=1.0, phi0=1.0),
                                 (-1.0, 1.0))
    a, c = -1.0, 1.0
    table = reparam.build_reparam(prof, a)
    # r^2 = xi = (1 - phi)/(1 + phi): Q/xi = 4/(1 + xi)^2 and phi, with
    # their xi-derivatives at 0, and c1 = -4/(1 + xi)^2, c2 = 4/(1 + xi).
    bl = reparam.boundary_limits(table, "hi")
    limits = np.array([bl.q0, bl.dphi_dxi, bl.d2phi_dxi2, bl.dqr2_dxi,
                       bl.d2qr2_dxi2])
    limit_err = float(np.max(np.abs(limits / [4.0, -2.0, 4.0, -8.0, 24.0]
                                    - 1.0)))
    radii = np.array([0.0, 1e-12, 1e-9, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 0.01,
                      0.03, 0.1, 0.3, 0.8])
    coeffs = np.array([models.ball_extension_coeffs(prof, a, c, r, table)
                       for r in radii])
    xi = radii ** 2
    coeff_err = float(np.max(np.abs(
        coeffs / np.column_stack([-4.0 / (1 + xi) ** 2, 4.0 / (1 + xi)])
        - 1.0)))
    g0 = models.ball_metric(prof, a, c, np.array([[1e-3, 0.0]]), table)
    eig = np.linalg.eigvalsh(g0[0])
    ok = limit_err < 1e-10 and coeff_err < 1e-10 and np.all(eig > 0)
    _criterion(11, "ball extension", ok,
               f"r = 0 limits {limit_err:.2e} and (c1, c2) at {len(radii)} "
               f"radii in [0, 0.8] {coeff_err:.2e} off the closed forms "
               f"(tol 1e-10), metric eigenvalues {eig}")


def test_criterion_12_kahler_killing(fd):
    prof = profiles.make_profile(profiles.Quadratic(K=1.0, phi0=1.0),
                                 (-1.0, 1.0))
    charts = {
        "shell": models.build_shell(models.ShellSpec(
            m=2, profile=prof, a=1.0, eps=1, c=-2.0)),
        "annulus": models.build_annulus(models.AnnulusSpec(profile=prof,
                                                           a=-1.0)),
        "sphere": models.build_sphere(models.SphereSpec(K=4.0,
                                                        phi0=1.0)).chart,
        "product": models.build_product(models.ProductSpec(K=1.0, t=1.0)),
    }
    worst = 0.0
    for name, chart in charts.items():
        pts = models.sample_points(chart, 100, seed=1013)
        worst = max(worst,
                    np.max(tensor.kahler_residuals(chart, pts, fd).worst()),
                    np.max(tensor.killing_residual(chart, pts, fd).worst()))
    # Negative controls: a non-Hermitian metric bump and a cubic potential
    # perturbation must both be detected.
    n = 4
    J = models.standard_J(2)

    def bumped_g(pts):
        g = np.broadcast_to(np.eye(n), (len(pts), n, n)).copy()
        g[:, 0, 0] += 0.01
        return g

    flat_phi = lambda pts: np.einsum("bi,bi->b", pts, pts)
    bumped = tensor.ChartMetric(
        n=n, g=bumped_g, J=J, phi=flat_phi,
        domain=lambda pts: np.ones(len(pts), dtype=bool), meta={})
    x = np.array([[0.3, -0.2, 0.5, 0.1]])
    neg1 = tensor.kahler_residuals(bumped, x, fd).hermitian_res[0]
    flat = tensor.ChartMetric(
        n=n, g=lambda pts: np.broadcast_to(np.eye(n),
                                           (len(pts), n, n)).copy(),
        J=J, phi=flat_phi,
        domain=lambda pts: np.ones(len(pts), dtype=bool), meta={})
    cubic = dataclasses.replace(
        flat, phi=lambda pts: flat_phi(pts) + 0.01 * pts[:, 0] ** 3)
    neg2 = tensor.killing_residual(cubic, x, fd).sym_nabla_u_res[0]
    ok = worst < 1e-6 and neg1 > 1e-3 and neg2 > 1e-4
    _criterion(12, "Kahler/Killing residuals", ok,
               f"worst residual {worst:.3e} over 4 charts x 100 points "
               f"(tol 1e-6); controls detected at {neg1:.3e}, {neg2:.3e}")


def test_criterion_13_gauss_and_arclength(fd):
    sphere = models.build_sphere(models.SphereSpec(K=4.0, phi0=1.0))
    rep_sphere = verify.sphere_normal_geodesics(sphere, fd, n_fan=16)
    prof = profiles.make_profile(profiles.Quadratic(K=1.0, phi0=1.0),
                                 (-1.0, 1.0))
    shell = models.build_shell(models.ShellSpec(m=2, profile=prof, a=1.0,
                                                eps=1, c=-2.0))
    rep_shell = verify.shell_normal_geodesics(shell, fd, n_fan=16)
    ok = (rep_sphere.gauss_res < 1e-4 and rep_shell.gauss_res < 1e-4
          and rep_sphere.dphids_res < 1e-5 and rep_shell.dphids_res < 1e-5)
    _criterion(13, "Gauss orthogonality and radial arclength", ok,
               f"gauss {rep_sphere.gauss_res:.3e}/{rep_shell.gauss_res:.3e}"
               f" (tol 1e-4), dphi/ds {rep_sphere.dphids_res:.3e}/"
               f"{rep_shell.dphids_res:.3e} (tol 1e-5), 16-geodesic fans")


def test_criterion_14_determinism():
    config = {
        "seed": 77,
        "profile": {"family": "quadratic", "K": 1.0, "phi0": 1.0,
                    "interval": [-1.0, 1.0]},
        "model": {"variant": "shell", "m": 2, "a": 1.0, "eps": 1,
                  "c": -2.0},
        "checks": [
            {"name": "kahler", "tolerance": 1e-6, "points": 10},
            {"name": "skrp_blocks", "tolerance": 1e-5, "points": 6},
            {"name": "classify"},
        ],
    }

    def strip_timestamp(text):
        lines = text.splitlines()
        assert sum(ln.startswith("timestamp:") for ln in lines) == 1
        return "\n".join(ln for ln in lines
                         if not ln.startswith("timestamp:"))

    code1, t1 = cli.run_config(config)
    code2, t2 = cli.run_config(config)
    ok = code1 == code2 == 0 and strip_timestamp(t1) == strip_timestamp(t2)
    _criterion(14, "report determinism", ok,
               "two runs byte-identical modulo the timestamp line")
