"""Not-a-knot cubic splines and the piecewise polynomials they are made of.

``cubic_spline(x, y)`` interpolates samples on a strictly increasing grid
with the not-a-knot end conditions (the third derivative is continuous at
the second and the second-to-last knot).  It returns a ``PiecewisePoly``,
which evaluates, differentiates and integrates piece by piece.

The arithmetic follows SciPy's ``CubicSpline`` and ``PPoly`` operation by
operation (the right-hand side, the Hermite coefficients, the order of the
power terms and of the antiderivative's running constants), so the tables
built on it match SciPy's to roundoff.  Two things differ: the tridiagonal
solve (cyclic reduction in place of LAPACK's sequential elimination), and
the last knot, where the spline returns its sample exactly.
"""

from __future__ import annotations

import math

import numpy as np


class PiecewisePoly:
    """A piecewise polynomial on breakpoints ``x``: piece i is
    sum_k c[k, i] (t - x[i])^(K-1-k) for K = len(c).

    Piece i takes x[i] <= t < x[i+1], and the first piece also every t
    below x[0]; a t within roundoff below x[i+1] may take piece i+1, which
    agrees with piece i there to roundoff.  The last piece is the one
    before it rewritten about x[-1]; it takes t >= x[-1], so a spline
    returns its last sample exactly at x[-1] and extrapolates past it.
    NaN in gives NaN out.

    The pieces are held as rows [x[i], c[0, i], ..., c[K-1, i]], so one
    gather fetches all that a point needs.
    """

    def __init__(self, rows: np.ndarray):
        self._rows = rows
        self.x = np.ascontiguousarray(rows[:, 0])
        self._index = np.arange(len(rows), dtype=float)

    @property
    def c(self) -> np.ndarray:
        return self._rows[:, 1:].T

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        # Linear interpolation of the knot numbers finds the piece: it is
        # exact at the knots and, unlike a binary search from scratch, fast
        # on the sorted arguments of Newton iterations.  NaN goes to piece
        # 0, where it stays NaN.
        i = np.fmax(np.interp(t, self.x, self._index), 0.0).astype(np.intp)
        g = self._rows.take(i, axis=0)
        dt = t - g[..., 0]
        # Constant first, then c_k dt^k by rising powers, as SciPy sums.
        out = g[..., -1] + g[..., -2] * dt
        power = dt
        for k in range(g.shape[-1] - 3, 0, -1):
            power = power * dt
            out += g[..., k] * power
        return out

    def __neg__(self) -> "PiecewisePoly":
        sign = np.full(self._rows.shape[1], -1.0)
        sign[0] = 1.0
        return PiecewisePoly(self._rows * sign)

    def derivative(self, nu: int = 1) -> "PiecewisePoly":
        """The nu-th derivative, piece by piece; nu is below the degree, so
        every piece keeps a linear term."""
        if not 1 <= nu <= len(self.c) - 2:
            raise ValueError(f"derivative order {nu} must be in [1, "
                             f"{len(self.c) - 2}]")
        k = len(self.c) - nu
        factor = [1.0] + [math.prod(range(j, j + nu)) for j in range(k, 0, -1)]
        return PiecewisePoly(self._rows[:, :k + 1] * factor)

    def antiderivative(self) -> "PiecewisePoly":
        """The antiderivative that vanishes at x[0] and is continuous."""
        N, K = self._rows.shape[0], len(self.c)
        rows = np.empty((N, K + 2))
        rows[:, :-1] = self._rows
        for j in range(1, K):
            rows[:, j] /= K + 1 - j
        # Each piece starts at the value of the one before at its right
        # end.  One running sum over the pieces' power terms, in the order
        # SciPy's fix_continuity adds them, gives every constant.
        s = np.diff(self.x)
        terms = np.empty((K, N - 1))
        power = s
        for j in range(K):
            np.multiply(rows[:-1, K - j], power, out=terms[j])
            power = power * s
        rows[0, -1] = 0.0
        rows[1:, -1] = np.cumsum(terms.T.ravel())[K - 1::K]
        return PiecewisePoly(rows)


def cubic_spline(x, y) -> PiecewisePoly:
    """The not-a-knot cubic spline through (x[i], y[i]); x strictly
    increasing, at least 4 points."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    dx = np.diff(x)
    if len(x) < 4 or len(y) != len(x) or not np.all(dx > 0):
        raise ValueError("cubic_spline needs >= 4 points on a strictly "
                         "increasing grid")
    slope = np.diff(y) / dx
    # Knot slopes s solve dx[i] s[i-1] + 2 (dx[i-1] + dx[i]) s[i]
    # + dx[i-1] s[i+1] = b[i] inside, plus one not-a-knot row at each end.
    b = np.empty(len(x))
    b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    d0, d1 = x[2] - x[0], x[-1] - x[-3]
    b[0] = ((dx[0] + 2 * d0) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d0
    b[-1] = (dx[-1] ** 2 * slope[-2]
             + (2 * d1 + dx[-1]) * dx[-2] * slope[-1]) / d1
    # Fold each end row into its neighbour: the rows left are diagonally
    # dominant (ratio 2 inside), so cyclic reduction needs no pivoting.
    diag = 2 * (dx[:-1] + dx[1:])
    diag[0] -= d0
    diag[-1] -= d1
    lower = dx[1:].copy()
    lower[0] = 0.0
    upper = dx[:-1].copy()
    upper[-1] = 0.0
    rhs = b[1:-1].copy()
    rhs[0] -= b[0]
    rhs[-1] -= b[-1]
    s = np.empty(len(x))
    s[1:-1] = _solve_dominant_tridiagonal(lower, diag, upper, rhs)
    s[0] = (b[0] - d0 * s[1]) / dx[1]
    s[-1] = (b[-1] - d1 * s[-2]) / dx[-2]
    # Cubic Hermite coefficients of each piece, then the last piece about
    # x[-1], where it takes the value y[-1] and the slope s[-1].
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    rows = np.empty((len(x), 5))
    rows[:, 0] = x
    rows[:-1, 1] = t / dx
    rows[:-1, 2] = (slope - s[:-1]) / dx - t
    rows[:-1, 3] = s[:-1]
    rows[:-1, 4] = y[:-1]
    c3, c2 = rows[-2, 1:3]
    rows[-1, 1:] = c3, c2 + 3 * c3 * dx[-1], s[-1], y[-1]
    return PiecewisePoly(rows)


def _solve_dominant_tridiagonal(lower, diag, upper, rhs):
    """u with lower[i] u[i-1] + diag[i] u[i] + upper[i] u[i+1] = rhs[i]
    (lower[0] = upper[-1] = 0) for a strictly row diagonally dominant
    system, by cyclic reduction.

    A level of the reduction squares the largest ratio rho of a row's
    off-diagonal sum to its diagonal, or better (Heller 1976), so the
    reduction stops once rho^(2^levels) <= 1e-30: what is left is diagonal
    to far below roundoff.
    """
    rho = float(np.max((np.abs(lower) + np.abs(upper)) / np.abs(diag)))
    levels = 0
    while rho > 1e-30 and levels < 64:
        rho *= rho
        levels += 1
    return _reduce(lower, diag, upper, rhs, levels)


def _reduce(lower, diag, upper, rhs, levels):
    """One level of cyclic reduction: eliminate the odd unknowns from the
    even rows, solve for the even unknowns, then recover the odd ones."""
    n = len(diag)
    if levels == 0 or n == 1:
        return rhs / diag
    E, O = (n + 1) // 2, n // 2     # even and odd rows
    lo_o, di_o, up_o, rh_o = lower[1::2], diag[1::2], upper[1::2], rhs[1::2]
    # Even row 2k meets odd row 2k - 1 (k >= 1) and odd row 2k + 1 (k < O).
    alpha = lower[2::2] / di_o[:E - 1]
    gamma = upper[0:2 * O:2] / di_o
    new_lower = np.zeros(E)
    new_lower[1:] = -alpha * lo_o[:E - 1]
    new_upper = np.zeros(E)
    new_upper[:O] = -gamma * up_o
    new_diag = diag[0::2].copy()
    new_diag[1:] -= alpha * up_o[:E - 1]
    new_diag[:O] -= gamma * lo_o
    new_rhs = rhs[0::2].copy()
    new_rhs[1:] -= alpha * rh_o[:E - 1]
    new_rhs[:O] -= gamma * rh_o
    u_e = _reduce(new_lower, new_diag, new_upper, new_rhs, levels - 1)
    u = np.empty(n)
    u[0::2] = u_e
    u_o = rh_o - lo_o * u_e[:O]
    u_o[:E - 1] -= up_o[:E - 1] * u_e[1:]
    u[1::2] = u_o / di_o
    return u
