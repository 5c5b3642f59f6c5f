"""Dirichlet solver for the discrete p-Laplacian, plus comparison helpers.

Solves  -div(|Du|^(p-2) Du) = g  on interior nodes with u = 0 on the
boundary, using damped Newton iteration on the conservative flux
discretization.  The Jacobian is assembled analytically from the flux form,
reading the same face arrays (s, t) as the residual (see the face families in
``grid``): for a face with longitudinal difference s, transverse differences
t_j and m2 = s^2 + |t|^2 + delta^2,

    dF/ds   = m2^((p-4)/2) * (delta^2 + |t|^2 + (p-1) s^2),
    dF/dt_j = (p-2) * m2^((p-4)/2) * s * t_j,

both strictly positive / well defined for p > 1 once delta > 0; with one
axis t is empty and only dF/ds is assembled.  Exponents far from 2
(p >= 2.5 or p <= 1.6) are reached by continuation: solve at p = 2 (a single
linear solve), then step the exponent by 0.25 re-using the previous
solution.  Newton steps start at the full step and are halved until the
residual drops; whenever that fails, one frozen-coefficient (Picard) step is
tried instead.  The linear systems are solved directly, and their storage
follows the number of axes: with one, the tridiagonal matrix is kept in band
layout for LAPACK (``scipy.linalg.solve_banded``); with more, the 9-point
(2D) or 19-point (3D) matrix, whose CSC pattern is cached per grid shape, is
factored by SuperLU with the minimum-degree ordering of A^T + A.

A caller that solves a run of nearby problems can hand solve_plap_dirichlet
a one-slot ``factor`` list (the inner monotone iteration of ``scheme`` does,
once per call).  The last SuperLU factor is kept there, and each iteration
first tries the chord step u - J_old^-1 r with it (modified Newton; Kelley,
*Solving Nonlinear Equations with Newton's Method*, SIAM 2003).  The
step is taken when it brings the residual below tol or to at most
CHORD_CONTRACTION times the old residual; otherwise the factor is dropped
and the iteration takes the fresh Newton step at u, as without a factor.
One axis keeps no factor: LAPACK factors and solves in one O(n) call.

Contracts the rest of the package relies on:

* residual: ||(-Lap_p u) - g||_inf <= max(tol_residual * max(1, ||g||_inf),
  rounding floor), where the rounding floor ROUNDING_ULPS * eps *
  max(|J| |u|) is the rounding level of evaluating the operator at u
  (J the Newton Jacobian, always assembled at u itself, never a kept
  factor's); the floor is used only when no Newton or Picard step lowers
  the residual any more.  Chord steps do not change this contract: the
  true residual decides convergence against the same tol;
* scaling:  solve(t*g) = t^(1/(p-1)) * solve(g) up to solver tolerance
  (exact for the regularized operator, because delta tracks the field scale);
* boundedness: for ||g||_inf <= 1, solve(g) <= torsion function pointwise;
* every solve in a run must satisfy ||grad u||_inf <= khat ||g||_inf^(1/(p-1))
  once khat has been estimated -- see assert_gradient_bound.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import LinAlgError, solve_banded

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
    _face_windows,
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
# A stalled Newton solve returns when its residual is at most ROUNDING_ULPS *
# eps * max(|J| |u|): one ulp of u moves the residual by about eps |J| |u|.
ROUNDING_ULPS = 4.0
# A warm solve with a kept factor takes its chord step when the step cuts the
# residual to at most CHORD_CONTRACTION times the old one (or below tol).
CHORD_CONTRACTION = 0.1


@dataclass(frozen=True)
class SolveOptions:
    """Knobs for the nonlinear solver: residual tolerance and Newton budget.

    ``max_iter`` bounds the Newton iterations of one Dirichlet solve (per
    continuation rung); the monotone sweeps of the scheme have their own
    budget, scheme.INNER_MAX_SWEEPS.
    """

    tol_residual: float = 1.0e-8
    max_iter: int = 500


def _assemble(values, spacing, p, delta, frozen, faces=None):
    """Sparse interior-by-interior matrix of the linearized operator.

    frozen=True freezes the face conductances W = m2^((p-2)/2) (the Picard
    matrix, also the p=2 Laplacian when the field is flat); frozen=False
    builds the full Newton Jacobian including the transverse coupling.  The
    conductances of each face family come from the same face arrays as the
    residual: ``faces`` is ``_faces(values, spacing)`` when the caller has
    built it.  Each face adds -v to the row of its lo node and +v to the row
    of its hi node, v = (1/h_k) dF/du_c, for every node c its flux F reads.
    """
    if faces is None:
        faces = _faces(values, spacing)
    offsets, plans, csc = _stencil(values.shape)
    coef = np.zeros((len(offsets),) + values.shape)
    d2 = delta * delta
    for k, ((s, t), (s_plan, t_plan)) in enumerate(zip(faces, plans)):
        m2 = _slope2(s, t) + d2
        if frozen:
            ds = np.ones_like(s) if p == 2.0 else _masked_power(m2, (p - 2.0) / 2.0)
            dts, plan = [], s_plan
        else:
            w = _masked_power(m2, (p - 4.0) / 2.0)
            ds = w * (d2 + sum(tj * tj for tj in t) + (p - 1.0) * s * s)
            dts, plan = [(p - 2.0) * w * s * tj for tj in t], s_plan + t_plan
        inv_h, cross_h = 1.0 / spacing[k], [h for j, h in enumerate(spacing) if j != k]
        vals = [inv_h * (ds / spacing[k])] + [
            inv_h * (dt / (4.0 * h)) for dt, h in zip(dts, cross_h)]
        for op, index, m in plan:
            target = coef[index]
            op(target, vals[m], out=target)
    n = math.prod(size - 2 for size in values.shape)
    if csc is None:  # one axis: coef's interior columns are the LAPACK band layout
        return sp.dia_matrix((coef[:, 1:-1], np.ravel(offsets)), shape=(n, n))
    gather, indices, indptr = csc
    return sp.csc_matrix((coef.ravel()[gather], indices, indptr), shape=(n, n))


@functools.lru_cache(maxsize=8)
def _stencil(shape):
    """Index work of _assemble, once per grid shape: (offsets, plans, csc).

    ``coef[q, c]`` sums the entry of column node c and row node c - offsets[q]
    (offsets descend: 1, 0, -1 with one axis; 9 with two, 19 with three).  Per
    family, ``plans`` holds the couplings through s, then through t, as
    (op, index, m): add or subtract value m (0: s, i: the i-th t) into
    ``coef[index]``, lo rows first.  ``csc`` is None for one axis, else the
    read-only (gather, indices, indptr), gather picking the entries of the
    flattened coef with interior row and column nodes in CSC order.
    """
    d = len(shape)

    def start(window):  # position of a window's first node
        return np.array([sl.start or 0 for sl in window])

    # a face couples nodes at most one step apart along two axes
    offsets = tuple(o for o in itertools.product((1, 0, -1), repeat=d)
                    if sum(map(abs, o)) <= 2)
    number = {offset: q for q, offset in enumerate(offsets)}
    plans = []
    for lo, hi, cross in _face_windows(d):
        # the nodes the flux reads, the sign of dF/du there, the value index
        s_cols = [(hi, 1.0, 0), (lo, -1.0, 0)]
        t_cols = [(w, sign, i)
                  for i, (_, lo_m, hi_m, lo_p, hi_p) in enumerate(cross, 1)
                  for w, sign in ((lo_p, 1.0), (hi_p, 1.0), (lo_m, -1.0), (hi_m, -1.0))]
        plans.append(tuple(tuple((np.add if row_sign * sign > 0 else np.subtract,
                                  (number[tuple(start(w) - start(row))],) + w, m)
                                 for row, row_sign in ((lo, -1.0), (hi, 1.0))
                                 for w, sign, m in cols) for cols in (s_cols, t_cols)))
    if d == 1:
        return offsets, tuple(plans), None
    inner = tuple(n - 2 for n in shape)
    ids = np.full(shape, -1)
    ids[(slice(1, -1),) * d] = np.arange(math.prod(inner)).reshape(inner)
    steps = np.array(offsets) @ (np.array(ids.strides) // ids.itemsize)
    nodes = np.flatnonzero(ids >= 0) + steps[:, None]  # column node per (q, row)
    keep = ids.ravel()[nodes] >= 0
    rows = np.broadcast_to(np.arange(nodes.shape[1]), nodes.shape)[keep]
    cols = ids.ravel()[nodes][keep]
    order = np.lexsort((rows, cols))
    gather = (nodes + ids.size * np.arange(len(offsets))[:, None])[keep][order]
    # indptr: where each column starts in CSC order
    csc = (gather, rows[order].astype(np.int32),
           np.searchsorted(cols[order], np.arange(nodes.shape[1] + 1)).astype(np.int32))
    for arr in csc:
        arr.setflags(write=False)
    return offsets, tuple(plans), csc


def _try_solve(matrix, rhs, factor=None):
    """Direct solve; None when the matrix is singular or the result is not
    finite.

    A tridiagonal ``dia`` matrix (one axis) goes to LAPACK through
    ``solve_banded``; a CSC matrix (more axes) is factored by SuperLU
    with the minimum-degree ordering of A^T + A.  A singular matrix raises
    LinAlgError (LAPACK) or RuntimeError (SuperLU).  Anything else, such as a
    right-hand side of the wrong length, propagates.  ``factor``, a one-slot
    list, receives the ``solve`` of a SuperLU factor whose solution is
    finite; a banded solve factors and solves in one call and leaves it as
    it is.
    """
    solve = None
    try:
        if matrix.format == "dia":
            sol = solve_banded((1, 1), matrix.data, rhs, check_finite=False)
        else:
            solve = spla.splu(matrix, permc_spec="MMD_AT_PLUS_A").solve
            sol = solve(rhs)
    except (RuntimeError, LinAlgError):
        return None
    if not np.all(np.isfinite(sol)):
        return None
    if factor is not None and solve is not None:
        factor[:] = [solve]
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
                         trace: list | None = None,
                         factor: list | None = None) -> ScalarField:
    """Solve the discrete Dirichlet problem -Lap_p u = g, u = 0 on the boundary.

    Args:
        grid: the grid both g and the solution live on.
        p: exponent > 1.
        g: right-hand side field (any sign; need not vanish on the boundary).
        opts: solver options; defaults to SolveOptions().
        initial_guess: warm start; skips continuation when given.
        trace: optional list that receives (iteration, residual, damping)
            triples as the solve progresses.
        factor: optional one-slot list for the solve of the last SuperLU
            factor (grids with more than one axis).  A factor found there is
            tried first for chord steps, and the newest factor is left there
            for the next solve.  Pass one only across solves of one problem
            on one grid with one p, such as the sweeps of one inner
            iteration.

    Returns:
        The solution as a Dirichlet-zero field, with sup-norm residual at most
        tol_residual * max(1, ||g||_inf), or at most the rounding floor
        when that is larger and no step lowers the residual further.

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
                         trace if pk == ladder[-1] else None, factor)
    return ScalarField(grid, u)


def _cold_solve(grid, p, g, opts, solved):
    """``solve_plap_dirichlet(grid, p, g, opts)``; with a ``solved`` map from
    the bytes of a right-hand side to its solution, a field already in it is
    not solved again, and a new one is added.  The map must hold solves on
    this grid with this p and opts only."""
    if solved is None:
        return solve_plap_dirichlet(grid, p, g, opts)
    key = g.values.tobytes()
    if key not in solved:
        solved[key] = solve_plap_dirichlet(grid, p, g, opts)
    return solved[key]


def _plap_own_delta(values, spacing, p, faces=None):
    """``_plap_raw`` at the field's own delta, DELTA_RELATIVE times its
    gradient scale, with both read from one face build: (result, delta).

    ``faces`` is ``_faces(values, spacing)`` when the caller has built it."""
    if faces is None:
        faces = _faces(values, spacing)
    delta = DELTA_RELATIVE * _gradient_scale(values, spacing, faces)
    return _plap_raw(values, spacing, p, delta, faces), delta


def _newton_loop(grid, p, gv, u, tol, opts, history, trace, factor=None):
    interior = grid.interior
    spacing = grid.spacing
    inner_shape = tuple(n - 2 for n in grid.shape)

    def residual(vals):
        faces = _faces(vals, spacing)  # shared with the next _assemble
        out, delta = _plap_own_delta(vals, spacing, p, faces)
        r = (out - gv)[interior]
        return r, delta, float(np.max(np.abs(r))), faces

    r_int, delta, rn, faces = residual(u)
    for _ in range(opts.max_iter):
        if rn <= tol:
            return u
        accepted = None
        if factor:
            # chord step: the kept factor's full step, while it contracts
            cand = u.copy()
            cand[interior] += factor[0](-r_int.ravel()).reshape(inner_shape)
            c_int, c_delta, cn, c_faces = residual(cand)
            if cn <= tol or cn <= CHORD_CONTRACTION * rn:
                accepted = cand, c_int, c_delta, cn, c_faces, 1.0
            else:
                factor.clear()
        if accepted is None:
            # a fresh Jacobian at u: the rounding floor below reads it too
            jac = _assemble(u, spacing, p, delta, frozen=False, faces=faces)
            step = _try_solve(jac, -r_int.ravel(), factor)
            if step is not None:
                accepted = _backtrack(u, step.reshape(inner_shape), interior,
                                      residual, rn, tol)
        if accepted is None:
            # Newton could not make progress; take a frozen-coefficient step
            target = _try_solve(_assemble(u, spacing, p, delta, frozen=True,
                                          faces=faces),
                                gv[interior].ravel())
            if target is not None:
                direction = target.reshape(inner_shape) - u[interior]
                accepted = _backtrack(u, direction, interior, residual, rn,
                                      tol)
        if accepted is None:
            # no step lowers the residual: accept u if the residual is at the
            # rounding level of evaluating the operator at u
            floor = ROUNDING_ULPS * np.finfo(float).eps * float(
                np.max(abs(jac) @ np.abs(u[interior].ravel())))
            if rn <= floor:
                return u
            raise SolveFailure(
                f"p-Laplacian solve stalled at residual {rn:.3e} above the "
                f"rounding floor {floor:.3e} (p={p})", history)
        u, r_int, delta, rn, faces, alpha = accepted
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
    """Halve the step, from the full step, until the residual drops:
    (candidate, its residual, delta, residual norm, faces, alpha), or None if
    it never does."""
    alpha = 1.0
    while alpha > 1.0e-8:
        cand = u.copy()
        cand[interior] += alpha * direction
        r_int, delta, cn, faces = residual(cand)
        if cn <= tol or cn < rn * (1.0 - 1.0e-4 * alpha):
            return cand, r_int, delta, cn, faces, alpha
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
                           opts: SolveOptions | None = None,
                           solved: dict | None = None) -> GradConstantEstimate:
    """Estimate the gradient constant by solving the probe family.

    Args:
        probes: (label, ScalarField) pairs; None means default_probes(grid).
        solved: optional map from the bytes of a field to its solution on
            this grid with this p and opts; a probe found there is not
            solved again, and each new solution is added.

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
            u = _cold_solve(grid, p, field, opts, solved)
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
