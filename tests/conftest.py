"""Shared fixtures: default FD configuration and the four model charts."""

import dataclasses

import numpy as np
import pytest

from skrp import models, profiles, tensor


FAMILIES = ("quadratic", "type_a", "type_b", "type_c", "polynomial", "custom")


def family_profile(family):
    """One profile of each family, on an interval with a simple root at
    each end where the family has one."""
    return {
        "quadratic": lambda: profiles.make_profile(
            profiles.Quadratic(K=2.0, phi0=0.7), (-0.7, 0.7)),
        "type_a": lambda: profiles.find_admissible_interval(
            profiles.TypeA(m=3, K=1.5, alpha=0.0, eta=-2.0), 0.0),
        "type_b": lambda: profiles.find_admissible_interval(
            profiles.TypeB(m=3, K=0.0, alpha=-1.0, eta=-1.0), 0.0),
        "type_c": lambda: profiles.make_profile(
            profiles.TypeC(m=2, c=1.0, A=2.0, B=-0.3, C=0.05), (1.35, 2.55)),
        "polynomial": lambda: profiles.make_profile(
            profiles.Polynomial(coeffs=(1.0, 0.2, 0.3)), (-0.8, 0.9)),
        "custom": lambda: profiles.soliton_profile(
            m=2, p=0.5, s0=0.3, kappa=4.0, eps=1, c=0.0,
            anchor=(1.0, 0.5), rng=(0.4, 2.2)),
    }[family]()


def family_shell(family):
    """The m = 2 shell (a = 1, eps = 1) over ``family_profile(family)``, c
    below the profile interval unless the profile fixes it."""
    prof = family_profile(family)
    lo, hi = prof.interval
    c = {"type_c": 1.0, "custom": 0.0}.get(family, lo - 0.5 * (hi - lo))
    return models.build_shell(models.ShellSpec(m=2, profile=prof, a=1.0,
                                               eps=1, c=c))


@pytest.fixture(scope="session")
def fd():
    return tensor.FDConfig()


@pytest.fixture(scope="session")
def quadratic_profile():
    return profiles.make_profile(profiles.Quadratic(K=1.0, phi0=1.0),
                                 (-1.0, 1.0))


@pytest.fixture(scope="session")
def shell_chart(quadratic_profile):
    spec = models.ShellSpec(m=2, profile=quadratic_profile, a=1.0, eps=1,
                            c=-2.0)
    return models.build_shell(spec)


@pytest.fixture(scope="session")
def annulus_chart(quadratic_profile):
    return models.build_annulus(
        models.AnnulusSpec(profile=quadratic_profile, a=-1.0))


@pytest.fixture(scope="session")
def sphere_model():
    return models.build_sphere(models.SphereSpec(K=4.0, phi0=1.0))


@pytest.fixture(scope="session")
def product_chart():
    return models.build_product(models.ProductSpec(K=1.0, t=1.0))


def euclidean_chart(m: int, phi="norm2"):
    """Flat chart on R^(2m) with the standard complex structure."""
    n = 2 * m
    if phi == "norm2":
        phi_fn = lambda pts: np.einsum("bi,bi->b", pts, pts)
    elif phi == "linear":
        phi_fn = lambda pts: pts[:, 0]
    else:
        phi_fn = phi
    return tensor.ChartMetric(
        n=n,
        g=lambda pts: np.broadcast_to(np.eye(n), (len(pts), n, n)).copy(),
        J=models.standard_J(m),
        phi=phi_fn,
        domain=lambda pts: np.ones(len(pts), dtype=bool),
        meta={"m": m, "model": "euclidean"})


def shrunk_shell(chart):
    """The shell chart with its domain cut at the geometric middle of its
    radius range, so that a radial fan from the inner part leaves it."""
    r_lo, r_hi = chart.meta["r_range"]
    r_mid = (r_lo * r_hi) ** 0.5
    inner = chart.domain
    return dataclasses.replace(
        chart,
        domain=lambda pts: inner(pts) & (np.linalg.norm(pts, axis=1) < r_mid))
