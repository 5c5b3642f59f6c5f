"""Independent oracles that pin test expectations.

Everything here is computed by a route unrelated to the package's own
machinery: closed forms, adaptive quadrature, banded symmetric eigensolves,
flux integration of the 1D two-point problem, and brute-force minimization.
Tests freeze values from these, never from the code under test.
"""

import numpy as np
from scipy.integrate import cumulative_trapezoid, quad
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import brentq, minimize_scalar

from plaplab.grid import ScalarField


def torsion_sup_1d(p, length):
    """Sup norm of the solution of -(|u'|^(p-2)u')' = 1 on (0, L), zero ends.

    The flux is -(x - L/2), so u'(x) = |x - L/2|^(1/(p-1)) sign(L/2 - x) and
    the maximum sits at the midpoint: ((p-1)/p) (L/2)^(p/(p-1)).
    """
    return (p - 1.0) / p * (length / 2.0) ** (p / (p - 1.0))


def one_node_bump(grid):
    """Load 1 at the center node (index n // 2 on each axis), 0 elsewhere."""
    bump = np.zeros(grid.shape)
    bump[tuple(n // 2 for n in grid.shape)] = 1.0
    return ScalarField(grid, bump)


def bump_ratio_1d(h, p):
    """Gradient ratio ||u'||_inf / ||g||_inf^(1/(p-1)) of the one-node bump.

    On an odd number of nodes the discrete equation at the peak balances a
    unit load against the two face fluxes, which are equal by symmetry and
    constant elsewhere: h/2 each.  So u is piecewise linear with slope
    (h/2)^(1/(p-1)), and g has sup 1.
    """
    return (h / 2.0) ** (1.0 / (p - 1.0))


def pi_p(p):
    """Generalized half-period 2*pi / (p sin(pi/p))."""
    return 2.0 * np.pi / (p * np.sin(np.pi / p))


def pi_p_quadrature(p):
    """Same constant from its integral form 2 * int_0^1 (1-s^p)^(-1/p) ds."""
    val, _ = quad(lambda s: (1.0 - s ** p) ** (-1.0 / p), 0.0, 1.0,
                  points=[1.0], limit=200)
    return 2.0 * val


def lambda1_1d(p, length):
    """First eigenvalue of -(|u'|^(p-2)u')' = lam |u|^(p-2)u on (0, L)."""
    return (p - 1.0) * (pi_p(p) / length) ** p


def solve_two_point(g, length, p, n_fine=20001):
    """Flux-integration solution of -(|u'|^(p-2)u')' = g(x), zero ends.

    Writing F = |u'|^(p-2)u', the equation gives F(x) = c - int_0^x g; the
    constant c is fixed by u(L) = 0 and found by bisection (the end value is
    strictly increasing in c).  Returns (x, u) on a fine uniform mesh.
    """
    x = np.linspace(0.0, length, n_fine)
    big_g = cumulative_trapezoid(g(x), x, initial=0.0)

    def end_value(c):
        s = c - big_g
        return np.trapezoid(np.sign(s) * np.abs(s) ** (1.0 / (p - 1.0)), x)

    lo = float(big_g.min()) - 1.0
    hi = float(big_g.max()) + 1.0
    c = brentq(end_value, lo, hi, xtol=1e-15, rtol=8.9e-16, maxiter=200)
    s = c - big_g
    up = np.sign(s) * np.abs(s) ** (1.0 / (p - 1.0))
    u = cumulative_trapezoid(up, x, initial=0.0)
    return x, u


def eigen_p2_tridiagonal(weight, length, n):
    """Smallest eigenvalue of the p=2 stencil by a banded symmetric solve.

    Solves A v = lam W v with the standard three-point Laplacian A and nodal
    weight matrix W via the symmetrized tridiagonal form, so it shares only
    the stencil (not the iteration) with the package.
    """
    x = np.linspace(0.0, length, n)
    h = x[1] - x[0]
    w = np.asarray(weight(x[1:-1]), dtype=float)
    d = 1.0 / np.sqrt(w)
    main = (2.0 / h ** 2) * d ** 2
    off = (-1.0 / h ** 2) * d[:-1] * d[1:]
    vals = eigh_tridiagonal(main, off, select="i", select_range=(0, 0),
                            eigvals_only=True)
    return float(vals[0])


def barrier_min(lam, beta, coeff_sub, coeff_grad, p, q, r):
    """Brute-force minimum of Phi(t) = lam*A*t^(q-p) + beta*B*t^(r-p), t > 0.

    Coarse log-spaced scan followed by golden-section refinement around the
    grid minimizer.  Intended for r > p, where the minimum is interior.
    """
    def phi(t):
        return lam * coeff_sub * t ** (q - p) + beta * coeff_grad * t ** (r - p)

    ts = np.logspace(-12.0, 12.0, 4001)
    vals = phi(ts)
    i = int(np.argmin(vals))
    if i in (0, len(ts) - 1):
        return float(vals[i]), float(ts[i])
    res = minimize_scalar(phi, bracket=(ts[i - 1], ts[i], ts[i + 1]),
                          method="golden", options={"xtol": 1e-13})
    return float(res.fun), float(res.x)


def poisson_2d_direct(rhs_fn, extents, shape):
    """Dense direct solve of the five-point Poisson problem (p = 2 check)."""
    (x0, x1), (y0, y1) = extents
    nx, ny = shape
    xs = np.linspace(x0, x1, nx)
    ys = np.linspace(y0, y1, ny)
    hx = xs[1] - xs[0]
    hy = ys[1] - ys[0]
    mx, my = nx - 2, ny - 2
    big_x, big_y = np.meshgrid(xs[1:-1], ys[1:-1], indexing="ij")
    rhs = np.asarray(rhs_fn(big_x, big_y), dtype=float).ravel()
    n_unknown = mx * my
    mat = np.zeros((n_unknown, n_unknown))
    idx = np.arange(n_unknown).reshape(mx, my)
    for i in range(mx):
        for j in range(my):
            k = idx[i, j]
            mat[k, k] = 2.0 / hx ** 2 + 2.0 / hy ** 2
            if i > 0:
                mat[k, idx[i - 1, j]] = -1.0 / hx ** 2
            if i < mx - 1:
                mat[k, idx[i + 1, j]] = -1.0 / hx ** 2
            if j > 0:
                mat[k, idx[i, j - 1]] = -1.0 / hy ** 2
            if j < my - 1:
                mat[k, idx[i, j + 1]] = -1.0 / hy ** 2
    interior = np.linalg.solve(mat, rhs).reshape(mx, my)
    full = np.zeros((nx, ny))
    full[1:-1, 1:-1] = interior
    return full
