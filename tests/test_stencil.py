"""The batched stencil operator: exactness of its weights, batch and chunk
invariance, domain errors, and parity with reference tensors."""

import math
import tracemalloc
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


# The stencil is always Richardson-extrapolated.  Tests that once also ran a
# plain, unextrapolated operator keep their ``richardson`` parameter, now
# True only, so that their cases keep their ids.
richardson_only = pytest.mark.parametrize("richardson", [True])


@richardson_only
@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_weights_exact_on_quartics(n, richardson):
    rng = np.random.default_rng(n + 10 * richardson)
    f, grad, hess = _ridge_polynomial(rng, n)
    x = rng.uniform(-0.5, 0.5, size=(3, n))
    h = 0.1
    value, d1, d2 = tensor.partials(f, x, h, True)
    for b in range(len(x)):
        scale = 1.0 + np.max(np.abs(hess(x[b])))
        assert value[b] == pytest.approx(f(x[b][None])[0], rel=1e-15)
        assert np.max(np.abs(d1[b] - grad(x[b]))) < 1e-9 * scale
        assert np.max(np.abs(d2[b] - hess(x[b]))) < 1e-9 * scale
    first = tensor.partials(f, x, h, False)[1]
    assert np.max(np.abs(first - d1)) < 1e-9 * (1.0 + np.max(np.abs(d1)))


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_cloud_sizes(n):
    # Center, the axis lines and two diagonal lines per coordinate plane;
    # for the Richardson steps each line holds the points of both steps,
    # +-h/2, +-h and +-2h.
    pairs = math.comb(n, 2)
    assert len(tensor.stencil(n).codes) == 1 + 6 * n + 12 * pairs


def head(n):
    """Points of the first-order cloud, the operator's first A."""
    return tensor.stencil(n).Wa.shape[1]


@richardson_only
@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_pure_operator(n, richardson):
    # First-order and pure partials read the center-plus-axis block of the
    # operator: ``partials`` evaluates fn on the first-order cloud, the
    # first A = 1 + 6n points in their order, and Wa holds W's first and
    # pure second partial rows on those columns.
    op = tensor.stencil(n)
    A = head(n)
    assert A == 1 + 6 * n
    assert np.array_equal(op.Wa, op.W[op.axis_rows, :A])
    assert np.array_equal(op.axis_rows[:n], np.arange(n))
    x = np.array([np.linspace(0.1, 0.2, n)])
    for second in (False, "pure"):
        seen = []
        tensor.partials(lambda pts: seen.append(pts) or pts[:, 0], x, 0.1,
                        second)
        assert np.array_equal(seen[0], x + op.codes[:A] * 0.05)


def _row_weights(op, row):
    """offset code -> weight of the nonzero taps of one row of W."""
    return {tuple(code): w for code, w in zip(op.codes.tolist(), op.W[row])
            if w != 0.0}


def _d1_row():
    """Unit-step weights of d/dx by offset code (units of h/2): the
    five-point D1, (1, -8, 8, -1) / 12, extrapolated by Richardson as 16/15
    of it at step h/2 minus 1/15 of it at step h, summed in that order."""
    row = {}
    for s, coef in ((2, -1 / 15), (1, 16 / 15)):
        for c, w in ((-2, 1.0), (-1, -8.0), (1, 8.0), (2, -1.0)):
            row[c * s] = row.get(c * s, 0.0) + coef * w / (12.0 * 0.5 * s)
    return row


@richardson_only
@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_operator_rows(n, richardson):
    op = tensor.stencil(n)
    assert np.all(np.abs(op.W.sum(axis=1))
                  <= 1e-15 * np.abs(op.W).sum(axis=1))
    # The first-partial rows are the D1 weights along their own axis, on
    # the first-order cloud only.
    for i in range(n):
        got = _row_weights(op, i)
        assert got == {tuple(c if k == i else 0 for k in range(n)): w
                       for c, w in _d1_row().items()}
        assert not np.any(op.W[i, head(n):])


def _rel(a, b):
    return np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300)


@pytest.mark.parametrize("second", [True, False, "pure"])
@richardson_only
@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_apply_matches_dense_product(n, richardson, second):
    # The apply of each mode against the dense product of W's rows that
    # defines it: first-order and pure partials are the product of their
    # rows of W on the first A columns exactly, second-order ones the
    # product of all of W within roundoff.
    op = tensor.stencil(n)
    rng = np.random.default_rng(n)
    A = head(n)
    P = len(op.codes) if second is True else A
    for trail in ((), (n, n), (n * n,)):
        vals = 1.0 + 1e-3 * rng.normal(size=(3, P) + trail)
        flat = vals.reshape(3, P, -1)
        diff = flat - flat[:, :1]
        d1, d2 = op.apply(vals, 0.1, second)
        if second is True:
            dense = op.W @ diff
            want1 = (dense[:, :n] / 0.1).reshape((3, n) + trail)
            want2 = (dense[:, op.pair] / 0.01).reshape((3, n, n) + trail)
            assert _rel(d1, want1) <= 1e-13
            assert _rel(d2, want2) <= 1e-13
            continue
        rows = op.axis_rows if second else np.arange(n)
        dense = op.W[rows, :A] @ diff
        assert np.array_equal(d1, (dense[:, :n] / 0.1).reshape((3, n) + trail))
        if not second:
            assert d2 is None
            continue
        want2 = (dense[:, n:] / (0.1 * 0.1)).reshape((3, n) + trail)
        assert np.array_equal(d2, want2)


@richardson_only
@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_block_layout(n, richardson):
    # Center, axis points, then one block per plane i < j: the axis rows
    # are zero on the plane columns, and each mixed row is the shared plane
    # weight vector on its own block and zero elsewhere.
    op = tensor.stencil(n)
    A, M = op.Wa.shape[1], len(op.w_plane)
    assert M == 12
    assert len(op.codes) == A + math.comb(n, 2) * M
    assert np.array_equal(op.Wa, op.W[op.axis_rows, :A])
    assert not np.any(op.W[op.axis_rows, A:])
    assert np.all(np.count_nonzero(op.codes[1:A], axis=1) == 1)
    planes = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for p, (row, (i, j)) in enumerate(zip(op.mixed_rows, planes)):
        assert row == op.pair[i, j]
        block = slice(A + p * M, A + (p + 1) * M)
        want = np.zeros(len(op.codes))
        want[block] = op.w_plane
        assert np.array_equal(op.W[row], want)
        assert not np.any(np.delete(op.codes[block], (i, j), axis=1))
        assert np.array_equal(op.codes[block][:, (i, j)],
                              op.codes[A:A + M][:, (0, 1)])


@richardson_only
def test_cached_operator_is_shared_and_read_only(richardson):
    # One cached operator per n serves all three modes, so none of its
    # arrays may be written through.
    n = 4
    tensor.stencil.cache_clear()
    x = np.full((2, n), 0.1)
    for second in (False, "pure", True):
        tensor.partials(lambda pts: pts[:, 0] ** 2, x, 0.1, second)
    assert tensor.stencil.cache_info().currsize == 1
    op = tensor.stencil(n)
    for name, value in vars(op).items():
        assert isinstance(value, np.ndarray), name
        with pytest.raises(ValueError):
            value[(0,) * value.ndim] = 1


def _batch_over_chunks(rng, n, second):
    """Points enough that ``partials`` splits them into two chunks."""
    op = tensor.stencil(n)
    P = len(op.codes) if second is True else head(n)
    return rng.uniform(-0.5, 0.5, size=(tensor.CHUNK_POINTS // P + 3, n))


@pytest.mark.parametrize("second", [False, True, "pure"])
@pytest.mark.parametrize("n", [2, 4, 8])
def test_identity_basis_bit_identical(n, second):
    rng = np.random.default_rng(40 + n)
    f, _, _ = _ridge_polynomial(rng, n)
    x = _batch_over_chunks(rng, n, second)
    eye = np.broadcast_to(np.eye(n), (len(x), n, n))
    plain = tensor.partials(f, x, 0.1, second)
    along = tensor.partials(f, x, 0.1, second, basis=eye)
    for a, b in zip(plain, along):
        assert (a is None and b is None) or np.array_equal(a, b)


@pytest.mark.parametrize("second", [True, "pure"])
@richardson_only
@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_basis_exact_on_quartics(n, richardson, second):
    # With a random orthonormal basis per point, the partials are the
    # derivatives along its rows: u_k . grad f and u_k^T H u_l (u_k^T H u_k
    # in the "pure" mode).
    rng = np.random.default_rng(50 + n + 10 * richardson)
    f, grad, hess = _ridge_polynomial(rng, n)
    x = _batch_over_chunks(rng, n, second)
    basis = np.swapaxes(np.linalg.qr(rng.normal(size=(len(x), n, n)))[0],
                        1, 2)
    value, d1, d2 = tensor.partials(f, x, 0.1, second, basis=basis)
    for b in range(len(x)):
        u, H = basis[b], hess(x[b])
        scale = 1.0 + np.max(np.abs(H))
        want2 = u @ H @ u.T
        if second == "pure":
            want2 = np.diagonal(want2)
        assert value[b] == pytest.approx(f(x[b][None])[0], rel=1e-15)
        assert np.max(np.abs(d1[b] - u @ grad(x[b]))) < 1e-10 * scale
        assert np.max(np.abs(d2[b] - want2)) < 1e-10 * scale


def test_partials_memory(fd):
    # One second-order metric cloud call at n = 8 holds the chart's values
    # of one chunk, their differences from the center and the chart's own
    # temporaries (2.98x one chunk measured).
    quad = profiles.make_profile(profiles.Quadratic(K=1.0, phi0=1.0),
                                 (-1.0, 1.0))
    chart = models.build_shell(models.ShellSpec(m=4, profile=quad, a=1.0,
                                                eps=1, c=-2.0))
    x = models.sample_points(chart, 12, seed=3)
    P = len(tensor.stencil(8).codes)
    chunk = max(1, tensor.CHUNK_POINTS // P) * P * 64 * 8
    tensor.partials(chart.g, x, fd.h, True,
                    domain=chart.domain)     # builds the cached operator
    tracemalloc.start()
    try:
        tensor.partials(chart.g, x, fd.h, True, domain=chart.domain)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.1 * chunk


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_contractions_match_einsum(k, fd):
    # The batched products of the Christoffel symbols, their partials and
    # the Riemann tensor against their index forms, at n = 2, 4, 6, 8.
    label, chart = parity_cases()[k]
    pts = parity_points(chart, k)
    curv = tensor.curvature(chart, pts, fd)
    jet = curv.jet
    gamma = 0.5 * np.einsum("bkl,bijl->bkij", jet.ginv,
                            tensor._bracket(jet.dg))
    dgamma = 0.5 * (np.einsum("bjlm,bikm->bjlik", tensor._dginv(jet),
                              tensor._bracket(jet.dg))
                    + np.einsum("blm,bjikm->bjlik", jet.ginv,
                                tensor._bracket(jet.d2g)))
    riemann = (np.einsum("bjlik->blijk", dgamma)
               - np.einsum("biljk->blijk", dgamma)
               + np.einsum("bmik,bljm->blijk", gamma, gamma)
               - np.einsum("bmjk,blim->blijk", gamma, gamma))
    assert chart.n == 2 * (k + 1), label
    assert _rel(tensor._christoffel(jet.ginv, jet.dg), gamma) <= 1e-12
    assert _rel(jet.gamma, gamma) <= 1e-12
    assert _rel(tensor._gamma_partials(jet), dgamma) <= 1e-12
    assert np.array_equal(curv.dgamma, tensor._gamma_partials(jet))
    assert _rel(curv.riemann, riemann) <= 1e-12


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
