"""Independent oracles that pin test expectations.

Everything here is computed by a route unrelated to the package's own
machinery: closed forms, adaptive quadrature, banded symmetric eigensolves,
flux integration of the 1D two-point problem, brute-force minimization, a
plain tree walk of the expression language, and the growth-hypothesis
screen run sample by sample on the full grid.
Tests freeze values from these, never from the code under test.
"""

import numpy as np
from scipy.integrate import cumulative_trapezoid, quad
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import brentq, minimize_scalar

from plaplab.expr import (
    GNORM_SAMPLES,
    U_SAMPLES,
    BinOp,
    Call,
    EvalError,
    HypothesisReport,
    Neg,
    Num,
    Var,
    sample_weights,
)
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


def evaluate_tree(expr, bindings):
    """An expression's value by walking its tree on every call, each domain
    test on every power and quotient: what ``expr.evaluate_on`` must return,
    bit for bit, and the EvalError messages it must raise, in order."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        result = _walk(expr, bindings)
    if not np.all(np.isfinite(result)):
        raise EvalError(f"non-finite value while evaluating '{expr}'")
    return np.asarray(result, dtype=float)


def _walk(node, bindings):
    if isinstance(node, Num):
        return np.float64(node.value)
    if isinstance(node, Var):
        try:
            return np.asarray(bindings[node.name], dtype=float)
        except KeyError:
            raise EvalError(f"variable '{node.name}' is not bound here") from None
    if isinstance(node, Neg):
        return -_walk(node.operand, bindings)
    if isinstance(node, Call):
        args = [_walk(a, bindings) for a in node.args]
        fn = {"abs": np.abs, "exp": np.exp, "sin": np.sin, "cos": np.cos,
              "min": np.minimum, "max": np.maximum}[node.func]
        return fn(*args)
    assert isinstance(node, BinOp)
    left = _walk(node.left, bindings)
    right = _walk(node.right, bindings)
    if node.op == "+":
        return left + right
    if node.op == "-":
        return left - right
    if node.op == "*":
        return left * right
    if node.op == "/":
        if np.any(right == 0.0):
            raise EvalError(f"division by zero in '{node}'")
        return left / right
    if np.any((left == 0.0) & (right < 0.0)):
        raise EvalError(f"zero raised to a negative power in '{node}'")
    if np.any((left < 0.0) & (np.floor(right) != right)):
        raise EvalError(f"negative base with fractional exponent in '{node}'")
    return np.power(left, right)


def screen_per_sample(spec):
    """The growth-hypothesis screen one state sample at a time, on every
    node of the grid, each check over its whole broadcast array: the
    HypothesisReport ``expr.validate_hypotheses`` must return, and the
    EvalError text it must raise.

    The weights must be >= 0 at every node; for each u in U_SAMPLES, in
    order, omega1 u^(q-1) <= h <= omega2 u^(q-1) at every node, and
    0 <= f <= omega3 u^a gnorm^b at every node and every gnorm in
    GNORM_SAMPLES, each with slack 1e-12 * max(1, |lhs|, |rhs|).  The
    largest excess is reported at its first node in C order; a tie keeps
    the weights' check, then the earlier u, then the earlier check.
    """
    grid = spec.build_grid()
    weights = [w.values for w in sample_weights(spec, grid)]
    bindings = spec.coordinate_bindings(grid)
    gnorm = GNORM_SAMPLES.reshape((-1,) + (1,) * grid.dimension)
    worst = None  # (excess, check, index, u)
    for name, w in zip(("omega1", "omega2", "omega3"), weights):
        worst = _worse(worst, _excess(-w, 0.0), f"{name} >= 0", None)
    for u in U_SAMPLES:
        try:
            h = evaluate_tree(spec.h, {**bindings, "u": u})
            f = evaluate_tree(spec.f, {**bindings, "u": u, "gnorm": gnorm})
        except EvalError as exc:
            raise EvalError(f"evaluating h and f at u={u:.6g}: {exc}") from exc
        f = np.broadcast_to(f, np.broadcast_shapes(np.shape(f), gnorm.shape))
        growth = np.power(u, spec.q - 1.0)
        bound = weights[2] * np.power(u, spec.a) * np.power(gnorm, spec.b)
        found = None
        for check, lhs, rhs in (
                ("omega1*u^(q-1) <= h", weights[0] * growth, h),
                ("h <= omega2*u^(q-1)", h, weights[1] * growth),
                ("f >= 0", -f, 0.0),
                ("f <= omega3*u^a*gnorm^b", f, bound)):
            found = _worse(found, _excess(lhs, rhs), check, float(u))
        if found is not None and (worst is None or found[0] > worst[0]):
            worst = found
    if worst is None:
        return HypothesisReport(True, 0.0)
    excess, check, index, u = worst
    sample = index[:-grid.dimension]
    return HypothesisReport(False, excess, check, index[-grid.dimension:], u,
                            float(GNORM_SAMPLES[sample[0]]) if sample else None)


def _excess(lhs, rhs):
    """(largest lhs - rhs beyond its slack, its first index), or None."""
    diff = np.subtract(lhs, rhs)
    if diff.max() <= 1.0e-12:  # below every slack; a nan goes on
        return None
    lhs, rhs = np.broadcast_arrays(lhs, rhs)
    bad = diff > 1.0e-12 * np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    if not bad.any():
        return None
    index = np.unravel_index(int(np.argmax(np.where(bad, diff, -np.inf))),
                             diff.shape)
    return float(diff[index]), tuple(int(i) for i in index)


def _worse(worst, found, check, u):
    if found is None or (worst is not None and found[0] <= worst[0]):
        return worst
    return (found[0], check, found[1], u)
