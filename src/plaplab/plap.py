"""Dirichlet solver for the discrete p-Laplacian, plus comparison helpers.

Solves  -div(|Du|^(p-2) Du) = g  on interior nodes with u = 0 on the
boundary, using damped Newton iteration on the conservative flux
discretization.  The Jacobian is assembled analytically from the flux form,
reading the same face arrays (s, t) as the residual (see the face families in
``grid``): for a face with longitudinal difference s, transverse difference t
and m2 = s^2 + t^2 + delta^2,

    dF/ds = m2^((p-4)/2) * (delta^2 + t^2 + (p-1) s^2),
    dF/dt = (p-2) * m2^((p-4)/2) * s * t,

both strictly positive / well defined for p > 1 once delta > 0; in 1d t = 0
and only dF/ds is assembled.  Exponents far from 2 (p >= 2.5 or p <= 1.6) are
reached by continuation: solve at p = 2 (a single linear solve), then step
the exponent by 0.25 re-using the previous solution.  Newton steps start at
the full step and are halved until the residual drops; whenever that fails,
one frozen-coefficient (Picard) step is tried instead.

Contracts the rest of the package relies on:

* residual: ||(-Lap_p u) - g||_inf <= tol_residual * max(1, ||g||_inf);
* scaling:  solve(t*g) = t^(1/(p-1)) * solve(g) up to solver tolerance
  (exact for the regularized operator, because delta tracks the field scale);
* boundedness: for ||g||_inf <= 1, solve(g) <= torsion function pointwise;
* every solve in a run must satisfy ||grad u||_inf <= khat ||g||_inf^(1/(p-1))
  once khat has been estimated -- see assert_gradient_bound.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass, field as dataclass_field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (
    ConfigurationError,
    EstimateFailure,
    GridMismatchError,
    SolveFailure,
    StaleGradConstantError,
)
from .grid import (
    DELTA_RELATIVE,
    Grid,
    ScalarField,
    _faces,
    _gradient_scale,
    _masked_power,
    _plap_raw,
    _slope2,
    gradient,
    sup_norm,
)

log = logging.getLogger(__name__)


# Cold solves continue in p from 2 when p >= CONTINUATION_ABOVE or
# p <= CONTINUATION_BELOW, one CONTINUATION_STEP per rung.
CONTINUATION_ABOVE = 2.5
CONTINUATION_BELOW = 1.6
CONTINUATION_STEP = 0.25


@dataclass(frozen=True)
class SolveOptions:
    """Knobs for the nonlinear solver: residual tolerance and Newton budget.

    ``max_iter`` bounds the Newton iterations of one Dirichlet solve (per
    continuation rung); the monotone sweeps of the scheme have their own
    budget, scheme.INNER_MAX_SWEEPS.
    """

    tol_residual: float = 1.0e-8
    max_iter: int = 500


def _assemble(values, spacing, p, delta, frozen):
    """Sparse interior-by-interior matrix of the linearized operator.

    frozen=True freezes the face conductances W = m2^((p-2)/2) (the Picard
    matrix, also the p=2 Laplacian when the field is flat); frozen=False
    builds the full Newton Jacobian including the transverse coupling.  The
    conductances of each face family come from the same face arrays as the
    residual.
    """
    d2 = delta * delta
    conductances = []
    for s, t in _faces(values, spacing):
        m2 = _slope2(s, t) + d2
        if frozen:
            ds = np.ones_like(s) if p == 2.0 else _masked_power(m2, (p - 2.0) / 2.0)
            dt = np.zeros_like(t)
        else:
            w = _masked_power(m2, (p - 4.0) / 2.0)
            ds = w * (d2 + t * t + (p - 1.0) * s * s)
            # no transverse coupling in 1d, where t is the scalar 0
            dt = (p - 2.0) * w * s * t if np.ndim(t) else 0.0
        conductances.append((ds, dt))

    if len(spacing) == 1:
        [(ds, _)] = conductances
        coef = ds / (spacing[0] * spacing[0])
        main = coef[:-1] + coef[1:]
        off = -coef[1:-1]
        return sp.diags([off, main, off], [-1, 0, 1], format="csc")

    hx, hy = spacing
    nx, ny = values.shape
    idx = np.arange(nx * ny).reshape(nx, ny)
    unknown = -np.ones(nx * ny, dtype=np.int64)
    interior_ids = idx[1:-1, 1:-1].ravel()
    unknown[interior_ids] = np.arange(interior_ids.size)
    # per family: the face's two nodes (lo, hi), their neighbours on the
    # minus and plus transverse side, and the face and transverse spacings
    stencils = (
        ((idx[:-1, 1:-1], idx[1:, 1:-1],
          idx[:-1, :-2], idx[1:, :-2], idx[:-1, 2:], idx[1:, 2:]), hx, hy),
        ((idx[1:-1, :-1], idx[1:-1, 1:],
          idx[:-2, :-1], idx[:-2, 1:], idx[2:, :-1], idx[2:, 1:]), hy, hx),
    )
    rows, cols, vals = [], [], []
    for (ds, dt), (nodes, face_h, trans_h) in zip(conductances, stencils):
        lo, hi, lo_m, hi_m, lo_p, hi_p = nodes
        col_terms = [(hi, ds / face_h), (lo, -ds / face_h),
                     (lo_p, dt / (4.0 * trans_h)), (hi_p, dt / (4.0 * trans_h)),
                     (lo_m, -dt / (4.0 * trans_h)), (hi_m, -dt / (4.0 * trans_h))]
        for row_nodes, sign in ((lo, -1.0 / face_h), (hi, 1.0 / face_h)):
            for col_nodes, dval in col_terms:
                rows.append(row_nodes.ravel())
                cols.append(col_nodes.ravel())
                vals.append((sign * dval).ravel())

    rows = unknown[np.concatenate(rows)]
    cols = unknown[np.concatenate(cols)]
    vals = np.concatenate(vals)
    keep = (rows >= 0) & (cols >= 0)
    n = interior_ids.size
    mat = sp.coo_matrix((vals[keep], (rows[keep], cols[keep])), shape=(n, n))
    return mat.tocsc()


def _try_solve(matrix, rhs):
    """Direct sparse solve; None when the factorization fails or is singular.

    A singular matrix makes SuperLU return NaN (with a MatrixRankWarning),
    caught by the finiteness check; an aborted factorization raises
    RuntimeError.  Anything else, such as a right-hand side of the wrong
    length, propagates.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", spla.MatrixRankWarning)
            sol = spla.spsolve(matrix, rhs)
    except RuntimeError:
        return None
    if not np.all(np.isfinite(sol)):
        return None
    return sol


def _linear_poisson(grid, gv):
    """Solve -Lap u = g (the p=2 problem); used as the cold-start guess."""
    zeros = np.zeros(grid.shape)
    mat = _assemble(zeros, grid.spacing, 2.0, 0.0, frozen=True)
    sol = _try_solve(mat, gv[grid.interior].ravel())
    if sol is None:
        raise SolveFailure("linear Poisson solve failed")
    u = np.zeros(grid.shape)
    u[grid.interior] = sol.reshape(tuple(n - 2 for n in grid.shape))
    return u


def _continuation_ladder(p):
    """Exponents of a cold solve: p alone near 2, else 2 +- step, ..., p."""
    if CONTINUATION_BELOW < p < CONTINUATION_ABOVE:
        return [p]
    direction = 1.0 if p > 2.0 else -1.0
    ladder = []
    pk = 2.0 + direction * CONTINUATION_STEP
    while (p - pk) * direction > 1.0e-12:
        ladder.append(pk)
        pk += direction * CONTINUATION_STEP
    ladder.append(p)
    return ladder


def solve_plap_dirichlet(grid: Grid, p: float, g: ScalarField,
                         opts: SolveOptions | None = None,
                         initial_guess: ScalarField | None = None,
                         trace: list | None = None) -> ScalarField:
    """Solve the discrete Dirichlet problem -Lap_p u = g, u = 0 on the boundary.

    Args:
        grid: the grid both g and the solution live on.
        p: exponent > 1.
        g: right-hand side field (any sign; need not vanish on the boundary).
        opts: solver options; defaults to SolveOptions().
        initial_guess: warm start; skips continuation when given.
        trace: optional list that receives (iteration, residual, damping)
            triples as the solve progresses.

    Returns:
        The solution as a Dirichlet-zero field, with sup-norm residual at most
        tol_residual * max(1, ||g||_inf).

    Raises:
        SolveFailure: if the iteration stalls or exhausts max_iter; the
            exception carries the residual history.
    """
    if opts is None:
        opts = SolveOptions()
    if p <= 1.0:
        raise ConfigurationError(f"p must exceed 1, got {p}")
    if g.grid != grid:
        raise GridMismatchError("right-hand side lives on a different grid")
    gv = g.values
    gsup = float(np.max(np.abs(gv)))
    tol = opts.tol_residual * max(1.0, gsup)

    if initial_guess is not None:
        if initial_guess.grid != grid:
            raise GridMismatchError("initial guess lives on a different grid")
        u = initial_guess.values.copy()
        u[grid.boundary_mask()] = 0.0
        ladder = [p]
        # a flat warm start cannot seed the Jacobian; fall back to cold start
        if _gradient_scale(u, grid.spacing) == 0.0 and gsup > 0.0:
            u = _linear_poisson(grid, gv)
    else:
        u = _linear_poisson(grid, gv)
        ladder = _continuation_ladder(p)

    history = []
    for pk in ladder:
        u = _newton_loop(grid, pk, gv, u, tol, opts, history,
                         trace if pk == ladder[-1] else None)
    return ScalarField(grid, u)


def _newton_loop(grid, p, gv, u, tol, opts, history, trace):
    interior = grid.interior
    spacing = grid.spacing
    inner_shape = tuple(n - 2 for n in grid.shape)

    def residual(vals):
        delta = DELTA_RELATIVE * _gradient_scale(vals, spacing)
        r = (_plap_raw(vals, spacing, p, delta) - gv)[interior]
        return r, delta, float(np.max(np.abs(r)))

    r_int, delta, rn = residual(u)
    for _ in range(opts.max_iter):
        if rn <= tol:
            return u
        accepted = None
        step = _try_solve(_assemble(u, spacing, p, delta, frozen=False),
                          -r_int.ravel())
        if step is not None:
            accepted = _backtrack(u, step.reshape(inner_shape), interior,
                                  residual, rn, tol)
        if accepted is None:
            # Newton could not make progress; take a frozen-coefficient step
            target = _try_solve(_assemble(u, spacing, p, delta, frozen=True),
                                gv[interior].ravel())
            if target is not None:
                direction = target.reshape(inner_shape) - u[interior]
                accepted = _backtrack(u, direction, interior, residual, rn,
                                      tol)
        if accepted is None:
            raise SolveFailure(
                f"p-Laplacian solve stalled at residual {rn:.3e} (p={p})",
                history)
        u, r_int, delta, rn, alpha = accepted
        history.append(rn)
        if trace is not None:
            trace.append((len(history), rn, alpha))
        log.debug("p=%.3g iter=%d residual=%.3e damping=%.3g",
                  p, len(history), rn, alpha)
    if rn <= tol:
        return u
    raise SolveFailure(
        f"no convergence in {opts.max_iter} iterations (residual {rn:.3e}, p={p})",
        history)


def _backtrack(u, direction, interior, residual, rn, tol):
    """Halve the step, from the full step, until the residual drops; None if
    it never does."""
    alpha = 1.0
    while alpha > 1.0e-8:
        cand = u.copy()
        cand[interior] += alpha * direction
        r_int, delta, cn = residual(cand)
        if cn <= tol or cn < rn * (1.0 - 1.0e-4 * alpha):
            return cand, r_int, delta, cn, alpha
        alpha /= 2.0
    return None


def check_comparison(u1: ScalarField, u2: ScalarField, slack: float = 0.0) -> bool:
    """True when u1 <= u2 + slack at every node (fields on one grid)."""
    if u1.grid != u2.grid:
        raise GridMismatchError("comparison requires a common grid")
    return bool(np.all(u1.values <= u2.values + slack))


# --------------------------------------------------------------------------
# Empirical gradient constant


@dataclass(frozen=True)
class GradConstantEstimate:
    """Empirical constant for ||grad u||_inf <= khat ||g||_inf^(1/(p-1)).

    khat is 1.1 times the largest observed ratio over the probe family;
    worst_probe names the maximizer, ratios maps each probe label to its
    observed ratio.
    """

    khat: float
    probe_count: int
    worst_probe: str
    ratios: dict = dataclass_field(default_factory=dict)


def default_probes(grid: Grid, extra=None) -> list:
    """Standard probe family: constant one, seeded +-1 checkerboards, a
    one-node center bump, plus any (label, field) pairs in ``extra``."""
    probes = [("const1", ScalarField(grid, np.ones(grid.shape)))]
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        probes.append((f"checker{seed}",
                       ScalarField(grid, rng.choice([-1.0, 1.0], size=grid.shape))))
    bump = np.zeros(grid.shape)
    bump[tuple(n // 2 for n in grid.shape)] = 1.0
    probes.append(("bump", ScalarField(grid, bump)))
    if extra:
        probes.extend(extra)
    return probes


def estimate_grad_constant(grid: Grid, p: float, probes=None,
                           opts: SolveOptions | None = None) -> GradConstantEstimate:
    """Estimate the gradient constant by solving the probe family.

    Args:
        probes: (label, ScalarField) pairs; None means default_probes(grid).

    Raises:
        EstimateFailure: when any probe solve fails (names the probe).
        ConfigurationError: empty probe list or an identically-zero probe.
    """
    if probes is None:
        probes = default_probes(grid)
    if not probes:
        raise ConfigurationError("need at least one probe field")

    ratios = {}
    for label, field in probes:
        gsup = sup_norm(field)
        if gsup == 0.0:
            raise ConfigurationError(f"probe '{label}' is identically zero")
        try:
            u = solve_plap_dirichlet(grid, p, field, opts)
        except SolveFailure as exc:
            raise EstimateFailure(f"probe '{label}' did not converge: {exc}",
                                  probe=label) from exc
        ratios[label] = sup_norm(gradient(u)) / gsup ** (1.0 / (p - 1.0))
    worst = max(ratios, key=ratios.get)
    return GradConstantEstimate(khat=1.1 * ratios[worst],
                                probe_count=len(probes),
                                worst_probe=worst,
                                ratios=ratios)


def assert_gradient_bound(khat: float, u: ScalarField, g: ScalarField, p: float,
                          context: str = "") -> None:
    """Enforce ||grad u||_inf <= khat ||g||_inf^(1/(p-1)) for a later solve.

    A violation means the empirical constant is stale for this problem family
    and the run must not be trusted; fails loudly rather than silently.
    """
    gsup = sup_norm(g)
    if gsup == 0.0:
        return
    observed = sup_norm(gradient(u))
    bound = khat * gsup ** (1.0 / (p - 1.0))
    if observed > bound * (1.0 + 1.0e-12):
        where = f" ({context})" if context else ""
        raise StaleGradConstantError(
            f"gradient bound violated{where}: ||grad u|| = {observed:.6g} "
            f"> khat * ||g||^(1/(p-1)) = {bound:.6g}; "
            "re-estimate the gradient constant")
