"""The batched stencil operator: exactness of its weights, batch and chunk
invariance, domain errors, and parity with reference tensors."""

import math
from pathlib import Path

import numpy as np
import pytest

from skrp import models, profiles, tensor
from skrp.errors import StencilOutOfDomain

PARITY_FILE = Path(__file__).parent / "data" / "stencil_parity.npz"
PARITY_POINTS = 10


def parity_cases():
    """(label, chart) pairs covering n = 2, 4, 6, 8 and every model kind."""
    quad = profiles.make_profile(profiles.Quadratic(K=1.0, phi0=1.0),
                                 (-1.0, 1.0))
    cases = [("sphere", models.build_sphere(
        models.SphereSpec(K=4.0, phi0=1.0)).chart)]
    for m in (2, 3, 4):
        cases.append((f"shell_m{m}", models.build_shell(models.ShellSpec(
            m=m, profile=quad, a=1.0, eps=1, c=-2.0))))
    cases.append(("product", models.build_product(
        models.ProductSpec(K=1.0, t=1.0))))
    type_c = profiles.make_profile(
        profiles.TypeC(m=2, c=1.0, A=2.0, B=-0.4, C=0.1), (1.35, 2.55))
    cases.append(("type_c", models.build_shell(models.ShellSpec(
        m=2, profile=type_c, a=1.0, eps=1, c=1.0, phi_window=(1.5, 2.4)))))
    cases.append(("soliton", models.build_shell(models.ShellSpec(
        m=2, profile=_dop853_soliton(), a=1.0, eps=1, c=0.0))))
    return cases


def _dop853_soliton():
    """The soliton profile of the parity chart on the node values the
    reference file was recorded from: an adaptive DOP853 solution of the
    soliton ODE, integrated from the anchor to each end of the range.

    ``soliton_profile`` evaluates the closed-form solution instead.  That
    moves the node values by about 1e-12, the chart's sample points by
    about 1e-13 and ``dg`` to just over its parity bound, so the reference
    tensors would measure the profile change, not the stencil engine.
    """
    from scipy.integrate import solve_ivp
    m, p, s0, kappa, eps, c = 2, 0.5, 0.3, 4.0, 1, 0.0
    phi_a, q_a = 1.0, 0.5
    exact = profiles.soliton_profile(m=m, p=p, s0=s0, kappa=kappa, eps=eps,
                                     c=c, anchor=(phi_a, q_a), rng=(0.4, 2.2))

    def rhs(phi, q):
        return (q * (1.0 / p - (m - 1) / (phi - c))
                + eps * kappa - (2.0 * s0 / p) * (phi - c))

    nodes = np.linspace(0.4, 2.2, 4097)
    i_a = int(np.argmin(np.abs(nodes - phi_a)))
    nodes[i_a] = phi_a
    values = np.empty_like(nodes)
    for side, out in ((nodes[i_a::-1], slice(i_a, None, -1)),
                      (nodes[i_a:], slice(i_a, None))):
        values[out] = solve_ivp(
            rhs, (phi_a, side[-1]), [q_a], t_eval=side, method="DOP853",
            rtol=1e-12, atol=1e-14 * max(1.0, q_a),
            first_step=min(1e-3, abs(side[-1] - phi_a) / 10)).y[0]
    # The same truncated node range as the closed-form profile.
    keep = (nodes >= exact.phi_min) & (nodes <= exact.phi_max)
    spec = profiles.Custom(phi=tuple(nodes[keep]), q=tuple(values[keep]))
    return profiles.make_profile(spec, exact.interval)


def parity_points(chart, k):
    return models.sample_points(chart, PARITY_POINTS, seed=100 + k)


def compact(quantity, arr):
    """The independent components kept in the reference file: d2g is
    symmetric in both index pairs, Riemann antisymmetric in (i, j)."""
    if quantity == "d2g":
        n = arr.shape[1]
        i, j = np.triu_indices(n)
        return arr[:, i, j][:, :, i, j]
    if quantity == "riemann":
        n = arr.shape[1]
        i, j = np.triu_indices(n, 1)
        return arr[:, :, i, j, :]
    return arr


def _ridge_polynomial(rng, n):
    """Random degree <= 4 polynomial as a sum of ridge powers
    c (a.x + d)^k, with its exact gradient and Hessian."""
    terms = [(rng.normal(), rng.normal(size=n), rng.normal(), k)
             for k in range(5) for _ in range(2)]

    def f(pts):
        return sum(c * (pts @ a + d) ** k for c, a, d, k in terms)

    def grad(x):
        return sum(c * k * (x @ a + d) ** (k - 1) * a
                   for c, a, d, k in terms if k >= 1)

    def hess(x):
        return sum(c * k * (k - 1) * (x @ a + d) ** (k - 2) * np.outer(a, a)
                   for c, a, d, k in terms if k >= 2)

    return f, grad, hess


@pytest.mark.parametrize("richardson", [True, False])
@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_weights_exact_on_quartics(n, richardson):
    rng = np.random.default_rng(n + 10 * richardson)
    f, grad, hess = _ridge_polynomial(rng, n)
    x = rng.uniform(-0.5, 0.5, size=(3, n))
    h = 0.1
    value, d1, d2 = tensor.partials(f, x, h, richardson, True)
    for b in range(len(x)):
        scale = 1.0 + np.max(np.abs(hess(x[b])))
        assert value[b] == pytest.approx(f(x[b][None])[0], rel=1e-15)
        assert np.max(np.abs(d1[b] - grad(x[b]))) < 1e-9 * scale
        assert np.max(np.abs(d2[b] - hess(x[b]))) < 1e-9 * scale
    first = tensor.partials(f, x, h, richardson, False)[1]
    assert np.max(np.abs(first - d1)) < 1e-9 * (1.0 + np.max(np.abs(d1)))


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_cloud_sizes(n):
    # Center, the axis lines and two diagonal lines per coordinate plane;
    # with Richardson each line holds the points of both steps, +-h/2,
    # +-h and +-2h.
    pairs = math.comb(n, 2)
    assert len(tensor.stencil(n, True, True).codes) == 1 + 6 * n + 12 * pairs
    assert len(tensor.stencil(n, False, True).codes) == 1 + 4 * n + 8 * pairs


def _row_weights(op, row):
    """offset code -> weight of the nonzero taps of one row of W."""
    return {tuple(code): w for code, w in zip(op.codes.tolist(), op.W[row])
            if w != 0.0}


@pytest.mark.parametrize("richardson", [True, False])
@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_operator_rows(n, richardson):
    op = tensor.stencil(n, richardson, True)
    assert np.all(np.abs(op.W.sum(axis=1))
                  <= 1e-15 * np.abs(op.W).sum(axis=1))
    # The first-partial rows are those of the first-order operator.
    first = tensor.stencil(n, richardson, False)
    for i in range(n):
        assert _row_weights(op, i) == _row_weights(first, i)


def _rel(a, b):
    return np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300)


def test_batch_equals_single_points(shell_chart, fd):
    pts = models.sample_points(shell_chart, 5, seed=21)
    curv = tensor.curvature(shell_chart, pts, fd)
    pot = tensor.potential_derivatives(shell_chart, pts, fd, jet=curv.jet)
    kill = tensor.killing_residual(shell_chart, pts, fd)
    # Each point evaluated as a batch of one: results do not depend on the
    # other points of the batch.
    for b in range(len(pts)):
        x = pts[b:b + 1]
        one = tensor.curvature(shell_chart, x, fd)
        one_pot = tensor.potential_derivatives(shell_chart, x, fd,
                                               jet=one.jet)
        assert _rel(curv.riemann[b], one.riemann[0]) <= 1e-12
        assert _rel(curv.jet.dg[b], one.jet.dg[0]) <= 1e-12
        assert _rel(pot.hess_phi[b], one_pot.hess_phi[0]) <= 1e-12
        assert pot.Y[b] == pytest.approx(one_pot.Y[0], rel=1e-12)
        assert kill.worst()[b] == pytest.approx(
            tensor.killing_residual(shell_chart, x, fd).worst()[0],
            rel=1e-12)


def test_chunked_equals_unchunked(shell_chart, fd, monkeypatch):
    pts = models.sample_points(shell_chart, 7, seed=22)
    whole = tensor.curvature(shell_chart, pts, fd)
    monkeypatch.setattr(tensor, "CHUNK_POINTS", 1)   # one point per chunk
    chunked = tensor.curvature(shell_chart, pts, fd)
    assert _rel(chunked.riemann, whole.riemann) <= 1e-12
    assert _rel(chunked.ricci, whole.ricci) <= 1e-12


def test_out_of_domain_names_the_point(fd):
    n = 2
    chart = tensor.ChartMetric(
        n=n, g=lambda pts: np.broadcast_to(np.eye(n), (len(pts), n, n)),
        J=models.standard_J(1), phi=lambda pts: pts[:, 0],
        domain=lambda pts: np.einsum("bi,bi->b", pts, pts) < 1.0, meta={})
    pts = np.array([[0.1, 0.2], [-0.3, 0.1], [0.0, 0.9999], [0.2, 0.2]])
    with pytest.raises(StencilOutOfDomain, match=r"point 2 at \[0.0, 0.9999\]"):
        tensor.curvature(chart, pts, fd)


# Parity bounds relative to the tensor's largest entry.  Y sums the
# second partials of phi weighted by g^-1, and the reference's own Y sits up
# to 2.7e-8 of max|Y| from the closed form Q' + (m-1) Q/(phi - c) (TypeC
# chart), so no summation order can hold Y closer to it than that.
PARITY_TOL = {"dg": 1e-11, "gamma": 1e-11, "dphi": 1e-11, "d2g": 1e-8,
              "riemann": 1e-8, "ricci": 1e-8, "hess_phi": 1e-8, "Y": 3e-8}


@pytest.mark.parametrize("k,case", list(enumerate(
    ["sphere", "shell_m2", "shell_m3", "shell_m4", "product", "type_c",
     "soliton"])))
def test_parity_with_reference(k, case, fd):
    """Tensors agree with reference values recorded from the per-point
    finite-difference code this engine replaced."""
    label, chart = parity_cases()[k]
    assert label == case
    ref = np.load(PARITY_FILE)
    pts = ref[f"{label}/points"]
    assert np.array_equal(pts, parity_points(chart, k))
    curv = tensor.curvature(chart, pts, fd)
    pot = tensor.potential_derivatives(chart, pts, fd, jet=curv.jet)
    got = {"dg": curv.jet.dg, "gamma": curv.jet.gamma, "dphi": pot.dphi,
           "d2g": curv.jet.d2g, "riemann": curv.riemann, "ricci": curv.ricci,
           "hess_phi": pot.hess_phi, "Y": pot.Y}
    for quantity, value in got.items():
        want = ref[f"{label}/{quantity}"]
        deviation = np.max(np.abs(compact(quantity, value) - want))
        bound = PARITY_TOL[quantity] * np.max(np.abs(want))
        assert deviation <= bound, (f"{quantity} on {label}: deviation / "
                                    f"bound = {deviation / bound:.3g}")
