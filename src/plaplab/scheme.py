"""Monotone sub-supersolution scheme and its certified outer iteration.

The problem  -Lap_p u = lambda*h(x,u) + beta*f(x,u,|grad u|)  is attacked by
an outer Picard iteration on the state-freezing map T: given an iterate u,
freeze the nonlinearity into a function of the new state xi alone,

    F_u(x, xi) = lambda*omega1(x)*xi^(q-1)
                 + [ lambda*(h(x,u) - omega1(x)*u^(q-1))
                     + beta*f(x,u,|grad u|) ],

which is nondecreasing in xi with nonnegative frozen part, then solve
-Lap_p U = F_u(x, U) between the fixed barriers

    lower:  eps * u1          (scaled first eigenfunction),
    upper:  (M / ||phi||_inf) * phi   (scaled torsion function).

An outer step solves that frozen problem directly: one Newton solve of
G(U) = -Lap_p U - F_u(x, U) = 0 from the previous iterate (solve_frozen),
whose Jacobian is that of -Lap_p less diag((q-1)*lambda*omega1*U^(q-2)).
Since q < p and the frozen part is nonnegative, F_u(x, xi)/xi^(p-1) is
decreasing in xi, so the frozen problem has exactly one positive solution
(Diaz & Saa, C. R. Acad. Sci. Paris 305, 1987): the limit that monotone
iteration down from the upper barrier approaches.  The monotone sweeps stay
as the fallback: a step whose Newton solve raises SolveFailure, or whose
result is not positive inside the barrier band (a zero or a wrong root),
runs them from the upper barrier instead (inner_monotone_solve).  A step
whose frozen map equals the previous one bit for bit keeps the previous
limit.  The certificates at the final map are computed apart from the
outer steps, by monotone iteration from both barriers.

Every stage is checked at run time, each check under one rule.  The
barriers must verify as sub/super-solutions of each frozen F with a defect
tolerance of SUBSUPER_TOL_REL times the candidate's own ||Lap_p v||_inf.
Each outer iterate must stay in the invariant set (between the barriers,
which outer_fixed_point builds once per run, with gradient below gamma*M) up
to MEMBERSHIP_SLACK_REL * M, checked at every step by
verify_solution_bounds.  Each solve must respect the empirical gradient
constant.  A violation of any of these raises InvariantViolation -- it
falsifies the implementation or a stale constant, never the underlying
analysis -- so a returned report always lies in the set.  Functions other
than outer_fixed_point take their grid from the fields they are given.

No field's Lap_p is computed twice in a run.  The barriers are fixed for the
run, so outer_fixed_point computes their Lap_p once (plap.operator_value);
every barrier check and every monotone iteration started at a barrier reads
it.  Each solve hands its result's to the next (the ``held`` holder of
plap.solve_plap_dirichlet): an outer step's Newton solve reads the previous
iterate's, each sweep the last sweep's, and the residual certificate the
last solve's at the final iterate.  The values are those a fresh apply
gives, so no result changes by a bit.

A monotone sweep after the first, of a fallback or of the certificate
stage, is solved only as far as it needs to be.  Its Dirichlet solve stops
at INNER_FORCING times the change of the right-hand side since the last
sweep, which is about the residual it starts from, or at the full tolerance
when that is larger: the forcing term of inexact Newton methods (Dembo,
Eisenstat & Steihaug, SIAM J. Numer. Anal. 19 (1982); Eisenstat & Walker,
SIAM J. Sci. Comput. 17 (1996)).  The sweeps and their stop test are those
of exact solves; a sweep that passes the stop test at a forced tolerance is
solved again at the full one, so every inner limit meets the full residual
contract against its frozen map.

Convergence of the outer map is monitored in C^1 (sup distance of values plus
gradients); the fixed-point argument behind it is nonconstructive, so
non-convergence within the budget is reported as inconclusive rather than as
a counterexample.  A report carries three certificates, each of which can
fail: the pointwise PDE residual against the raw expressions, the agreement
of inner limits started from both barriers, and the Picone-type uniqueness
gap for that pair.  A run is converged when the outer moves stopped and all
three hold.
"""

from __future__ import annotations

import dataclasses
import logging
import math
from dataclasses import dataclass

import numpy as np

from .constants import (
    ConstantsBundle,
    RegionVerdict,
    compute_constants,
    region_classify,
)
from .errors import (
    ConfigurationError,
    HypothesisViolationError,
    InvariantViolation,
    IterationFailure,
    MonotonicityError,
    OutOfRegionError,
    SolveFailure,
)
from .expr import ProblemSpec, check_growth, evaluate_on, sample_weights
from .grid import Grid, ScalarField, gradient, integrate, p_laplacian_apply, sup_norm
from .plap import (
    OperatorValue,
    SolveOptions,
    assert_gradient_bound,
    operator_value,
    solve_plap_dirichlet,
)
from .spectral import EigenPair, first_eigenpair

log = logging.getLogger(__name__)

# Relative C^1 stopping threshold of the outer iteration, in units of M.
OUTER_STOP_REL = 1.0e-7
# Inner monotone iteration stops when successive iterates move less than
# this fraction of the upper barrier's sup norm, within this many sweeps.
INNER_STOP_REL = 1.0e-8
INNER_MAX_SWEEPS = 500
# Forcing fraction of an inner sweep after the first: its solve stops at this
# fraction of the change of the right-hand side since the last sweep, which
# is about the sweep's starting residual, or at the full tolerance if larger.
INNER_FORCING = 1.0e-3
# Defect tolerance of every sub/super-solution check, relative to the
# candidate's ||Lap_p v||_inf.
SUBSUPER_TOL_REL = 1.0e-7
# Slack, in units of M, for the invariant-set membership checks.
MEMBERSHIP_SLACK_REL = 1.0e-6
# Certificate tolerances.
RESIDUAL_CERT_REL = 1.0e-5
TWO_SIDED_CERT_REL = 1.0e-6
PICONE_CERT_REL = 1.0e-8


@dataclass(frozen=True)
class FrozenNonlinearity:
    """The state-frozen right-hand side  xi -> coeff(x)*xi^(q-1) + base(x).

    coeff = lambda*omega1 >= 0 and base >= 0 hold by construction, which
    makes the map nondecreasing in xi >= 0 -- the property the monotone
    iteration lives on.  source is the raw right-hand side lambda*h + beta*f
    at the freezing state, before any clamping (None when not frozen from a
    state).
    """

    grid: Grid
    coeff: np.ndarray
    base: np.ndarray
    q: float
    source: np.ndarray | None = None

    def evaluate(self, xi) -> np.ndarray:
        """Evaluate at a state array (negative roundoff states clamp to 0)."""
        xi = np.maximum(np.asarray(xi, dtype=float), 0.0)
        return self.coeff * np.power(xi, self.q - 1.0) + self.base

    def as_field(self, xi) -> ScalarField:
        return ScalarField(self.grid, self.evaluate(xi))


def make_epsilon(lam: float, lambda1: float, height: float, phi_sup: float,
                 spec: ProblemSpec) -> float:
    """Scale for the lower barrier eps*u1.

    eps = min( (lambda/lambda1)^(1/(p-q)),  height/(lambda1^(1/(p-1)) phi_sup) ).

    The first branch makes eps*u1 a sub-solution of the frozen problem; the
    second keeps its gradient within the invariant set's budget gamma*height.
    """
    if lam <= 0 or lambda1 <= 0 or height <= 0 or phi_sup <= 0:
        raise ConfigurationError("make_epsilon needs positive inputs")
    p, q = spec.p, spec.q
    return min((lam / lambda1) ** (1.0 / (p - q)),
               height * lambda1 ** (-1.0 / (p - 1.0)) / phi_sup)


def freeze_nonlinearity(u: ScalarField, lam: float, beta: float,
                        spec: ProblemSpec, grad=None) -> FrozenNonlinearity:
    """Freeze h and f at the iterate u, checking the hypotheses there.

    The growth hypotheses are re-verified at the nodal values of u and |grad u|
    (``grad``, when the caller holds it), not just at validation samples; the
    worst violation raises HypothesisViolationError with the offending node
    and values.  The frozen part is clamped from roundoff-negative to zero.
    """
    grid = u.grid
    weights = sample_weights(spec, grid)
    w1 = weights[0]
    uv = np.maximum(u.values, 0.0)
    gn = (gradient(u) if grad is None else grad).magnitude().values
    bindings = spec.coordinate_bindings(grid)
    h_vals = np.broadcast_to(
        evaluate_on(spec.h, {**bindings, "u": uv}), grid.shape)
    f_vals = np.broadcast_to(
        evaluate_on(spec.f, {**bindings, "u": uv, "gnorm": gn}), grid.shape)

    # np.power matches the expression evaluator bitwise; ** would take
    # numpy's sqrt fast path for half-integer exponents and differ by an ulp,
    # leaving roundoff residue in ``base`` where h equals its growth bound
    growth = np.power(uv, spec.q - 1.0)
    violation = check_growth(spec, weights, uv, gn, h_vals, f_vals, growth)
    if violation is not None:
        node = violation.index
        raise HypothesisViolationError(
            f"hypothesis '{violation.check}' failed at an iterate", node=node,
            values={"u": float(uv[node]), "gnorm": float(gn[node]),
                    "lhs": violation.lhs, "rhs": violation.rhs})

    base = lam * (h_vals - w1.values * growth) + beta * f_vals
    base = np.maximum(base, 0.0)  # roundoff only; real negatives raised above
    return FrozenNonlinearity(grid=grid, coeff=lam * w1.values, base=base,
                              q=spec.q, source=lam * h_vals + beta * f_vals)


@dataclass(frozen=True)
class SubSuperReport:
    """Outcome of testing a candidate barrier against a frozen F."""

    ok: bool
    worst_violation: float
    tol: float
    node: tuple | None = None


def verify_subsuper(candidate: ScalarField, F: FrozenNonlinearity, p: float,
                    kind: str, *, lap: np.ndarray | None = None) -> SubSuperReport:
    """Check the defect d = (-Lap_p candidate) - F(x, candidate) pointwise.

    A super-solution needs d >= -tol, a sub-solution d <= tol, over interior
    nodes, with tol = SUBSUPER_TOL_REL * ||Lap_p candidate||_inf: relative,
    so it means the same on a small right-hand side as on a large one.  ``lap`` (keyword-only) is
    -Lap_p candidate at p, when the caller holds it.
    """
    if kind not in ("sub", "super"):
        raise ConfigurationError(f"kind must be 'sub' or 'super', got {kind!r}")
    if lap is None:
        lap = p_laplacian_apply(candidate, p).values
    defect = (lap - F.evaluate(candidate.values))[candidate.grid.interior]
    tol = SUBSUPER_TOL_REL * float(np.max(np.abs(lap)))
    signed = -defect if kind == "super" else defect
    flat = int(np.argmax(signed))
    worst = float(signed.ravel()[flat])
    node = tuple(int(i) + 1 for i in np.unravel_index(flat, signed.shape))
    return SubSuperReport(ok=worst <= tol, worst_violation=worst, tol=tol,
                          node=node)


def _support_tolerance(opts: SolveOptions, stop: float) -> SolveOptions:
    """Tighten solver tolerance so iterate noise stays well under ``stop``.

    Fixed-point stopping tests compare successive solves; the absolute solver
    residual must sit a decade below the stopping increment or the iteration
    can plateau on solver noise instead of converging.
    """
    target = stop / 10.0
    if opts.tol_residual <= target:
        return opts
    return dataclasses.replace(opts, tol_residual=target)


def solve_frozen(F: FrozenNonlinearity, start: ScalarField, p: float,
                 opts: SolveOptions | None = None, *,
                 factor: list | None = None,
                 held: list | None = None) -> ScalarField:
    """Solve the frozen problem -Lap_p U = F(x, U) by one Newton solve from
    ``start``: plap.solve_plap_dirichlet with the load F.base and the
    reaction F.coeff * U^(q-1).  It stops at
    ||-Lap_p U - F(U)||_inf <= tol_residual * max(1, ||F(U)||_inf), the
    quantity the residual certificate checks.  ``factor`` and ``held`` are
    the one-slot holders of solve_plap_dirichlet.

    Raises:
        SolveFailure: the Newton solve stalled (a warm solve has no retreat).
    """
    return solve_plap_dirichlet(F.grid, p, ScalarField(F.grid, F.base), opts,
                                initial_guess=start, factor=factor, held=held,
                                reaction=(F.coeff, F.q))


def _off_band(u: ScalarField, sub: ScalarField, sup_field: ScalarField,
              allowed: float) -> str | None:
    """Why u is not positive at the interior nodes and inside the band
    [sub, sup_field] up to ``allowed``; None when it is."""
    if not float(u.values[u.grid.interior].min()) > 0.0:
        return "not positive"
    if not (float(np.max(sub.values - u.values)) <= allowed
            and float(np.max(u.values - sup_field.values)) <= allowed):
        return "outside the band"
    return None


def inner_monotone_solve(F: FrozenNonlinearity, sub: ScalarField,
                         sup_field: ScalarField, p: float,
                         opts: SolveOptions | None = None, *,
                         start: str = "super",
                         khat: float | None = None,
                         guess: OperatorValue | None = None,
                         factor: list | None = None,
                         held: list | None = None,
                         path: list | None = None,
                         grad: list | None = None) -> ScalarField:
    """The limit of the frozen problem -Lap_p U = F(x, U) between the
    barriers: by one Newton solve from ``guess`` when one is given, else,
    or when that fails, by the monotone iteration U_{n+1} = solve(F(x, U_n))
    from a barrier.

    With ``guess``, as an outer step of outer_fixed_point calls it, the
    frozen problem is solved directly from the guess's field (solve_frozen),
    to the full tolerance below.  Its result is the limit when it is
    positive at the interior nodes and inside the band up to
    MEMBERSHIP_SLACK_REL * ||super||_inf, and then meets the gradient bound
    if ``khat`` is given.  Otherwise (a SolveFailure, a zero or a wrong
    root) the call runs the monotone iteration from ``start``.  The frozen
    problem has one positive solution (see the module docstring), so both
    ways reach the same limit up to the solver tolerance.

    Started from the upper barrier the sequence is nonincreasing (from the
    lower, nondecreasing); each iterate must stay inside the barrier band up
    to 10x the solver tolerance, else MonotonicityError.  Stops when the sup
    move drops below 1e-8 * ||super||_inf.

    Each sweep after the first stops its solve at INNER_FORCING times the
    sup change of the right-hand side since the last sweep, or at the full
    tolerance when that is larger (see the module docstring).  That change
    is the sweep's starting residual up to the last solve's own, so early
    sweeps, which move the iterate far, stop after a few Newton or chord
    steps, and the last ones fall back to the full tolerance by themselves.
    A sweep solved at a forced tolerance that passes the stop test is solved
    again, warm, at the full tolerance before it is returned.

    The warm-started solves share one kept LU factor (the chord steps
    of plap.solve_plap_dirichlet): successive sweeps, and successive outer
    steps' Newton solves, differ little, so one factor stays a good linear
    model for many of them; a factor that does not contract is dropped
    after one trial step.  ``factor`` is the one-slot holder of
    plap.solve_plap_dirichlet; without one the call makes its own, and its
    factor lives for this call only.  The outer iteration hands one holder
    to all its steps, and the certificate stage gives each of its two inner
    limits a fresh one, so they stay independent computations.  No factor
    outlives an outer_fixed_point call.

    Args:
        start: the barrier to start from; keyword-only, as are the rest.
        khat: when given, every solve is checked against the empirical
            gradient bound (StaleGradConstantError on violation).
        guess: the OperatorValue of a field to start a Newton solve of the
            frozen problem from (the previous outer iterate); None runs
            the monotone iteration at once.
        factor: the kept LU factor holder the solves share; None makes a
            fresh one for this call.
        held: the one-slot OperatorValue holder of
            plap.solve_plap_dirichlet the solves share, so each reads
            Lap_p of its start from the last one; None makes a fresh one.
            Seeded with the start barrier's value, it spares the first
            sweep its operator apply; on return it holds the limit's.
        path: an optional one-slot list that receives how the limit was
            found when ``guess`` is given: "newton", or "sweeps (...)" with
            the reason the Newton result was not taken.
        grad: an optional one-slot list that receives gradient(limit) when
            the limit is the Newton one and ``khat`` is given: its gradient
            check computed it, and the caller need not compute it again.

    Raises:
        IterationFailure: no convergence within INNER_MAX_SWEEPS sweeps.
    """
    if opts is None:
        opts = SolveOptions()
    if start not in ("sub", "super"):
        raise ConfigurationError(f"start must be 'sub' or 'super', got {start!r}")
    grid = sub.grid
    if sup_field.grid != grid:
        raise ConfigurationError("barriers live on different grids")
    sup_size = sup_norm(sup_field)
    if np.any(sub.values > sup_field.values + 1.0e-12 * max(1.0, sup_size)):
        raise ConfigurationError("lower barrier exceeds upper barrier")

    stop = INNER_STOP_REL * sup_size
    u = sup_field if start == "super" else sub
    if factor is None:
        factor = []
    if held is None:
        held = []
    solve_opts = _support_tolerance(opts, stop)
    if guess is not None:
        barrier = held[:]  # the start barrier's value, for the sweeps
        held[:] = [guess]
        try:
            u_next = solve_frozen(F, guess.field, p, solve_opts, factor=factor,
                                  held=held)
            miss = _off_band(u_next, sub, sup_field,
                             MEMBERSHIP_SLACK_REL * sup_size)
        except SolveFailure as exc:
            miss = f"failed: {exc}"
        if miss is None:
            if khat is not None:
                grad_next = gradient(u_next)
                assert_gradient_bound(
                    khat, u_next, float(F.evaluate(u_next.values).max()), p,
                    context="Newton limit", grad=grad_next)
                if grad is not None:
                    grad[:] = [grad_next]
            if path is not None:
                path[:] = ["newton"]
            return u_next
        if path is not None:
            path[:] = [f"sweeps (Newton limit {miss})"]
        held[:] = barrier
    interior = grid.interior
    last_rhs = None  # the last sweep's right-hand side, interior values
    for sweep in range(1, INNER_MAX_SWEEPS + 1):
        rhs = F.as_field(u.values)
        rhs_sup = sup_norm(rhs)
        sweep_opts = solve_opts
        if last_rhs is not None:
            change = float(np.abs(rhs.values[interior] - last_rhs).max())
            forced = INNER_FORCING * change / max(1.0, rhs_sup)
            if forced > solve_opts.tol_residual:
                sweep_opts = dataclasses.replace(solve_opts,
                                                 tol_residual=forced)
        last_rhs = rhs.values[interior]
        u_next = solve_plap_dirichlet(grid, p, rhs, sweep_opts, initial_guess=u,
                                      factor=factor, held=held)
        if khat is not None:
            assert_gradient_bound(khat, u_next, rhs_sup, p,
                                  context=f"inner sweep {sweep}")
        slack = 10.0 * solve_opts.tol_residual * max(1.0, rhs_sup)
        step = u_next.values - u.values
        drift = float((step if start == "super" else -step).max())
        if drift > slack:
            raise MonotonicityError(
                f"inner iterate moved {drift:.3e} against the monotone "
                f"direction (allowed {slack:.3e}) at sweep {sweep}")
        below = float((sub.values - u_next.values).max())
        above = float((u_next.values - sup_field.values).max())
        if max(below, above) > slack:
            raise MonotonicityError(
                f"inner iterate left the barrier band by "
                f"{max(below, above):.3e} at sweep {sweep}")
        move = float(np.abs(step).max())
        u = u_next
        log.debug("inner sweep %d (%s start): move %.3e", sweep, start, move)
        if move < stop:
            if sweep_opts is not solve_opts:
                # never return a limit solved at a forced tolerance
                u = solve_plap_dirichlet(grid, p, rhs, solve_opts,
                                         initial_guess=u, factor=factor,
                                         held=held)
                if khat is not None:
                    assert_gradient_bound(khat, u, rhs_sup, p,
                                          context=f"inner sweep {sweep}")
            return u
    raise IterationFailure(
        f"inner monotone iteration made no C0 limit in {INNER_MAX_SWEEPS} "
        "sweeps")


def _same_map(F: FrozenNonlinearity, G: FrozenNonlinearity) -> bool:
    """True when two frozen maps are bitwise equal."""
    return (F.coeff.tobytes() == G.coeff.tobytes()
            and F.base.tobytes() == G.base.tobytes())


def picone_diagnostic(U: ScalarField, V: ScalarField, F: FrozenNonlinearity,
                      p: float) -> float:
    """Picone-type uniqueness gap for two positive states.

    Integrates  (F(x,U)/U^(p-1) - F(x,V)/V^(p-1)) * (U^p - V^p)  over the box
    (trapezoid; boundary contributes nothing).  For F with sublinear-type
    monotonicity the nodal integrand is <= 0 and the integral vanishes iff
    U = V; a value near zero for two independently computed limits is the
    uniqueness surrogate.
    """
    grid = U.grid
    if V.grid != grid:
        raise ConfigurationError("states live on different grids")
    interior = grid.interior
    for name, w in (("first", U), ("second", V)):
        if float(np.min(w.values[interior])) <= 0.0:
            raise ConfigurationError(
                f"{name} state must be positive at interior nodes")
    uin = U.values[interior]
    vin = V.values[interior]
    quot = (F.evaluate(U.values)[interior] / uin ** (p - 1.0)
            - F.evaluate(V.values)[interior] / vin ** (p - 1.0))
    integrand = np.zeros(grid.shape)
    integrand[interior] = quot * (uin ** p - vin ** p)
    return integrate(ScalarField(grid, integrand))


def verify_solution_bounds(u: ScalarField, sub: ScalarField,
                           sup_field: ScalarField, height: float, gamma: float,
                           grad=None) -> list:
    """Check sub <= u <= sup_field and ||grad u|| <= gamma*height, each up to
    MEMBERSHIP_SLACK_REL * height, for the run's barriers sub = eps*u1 and
    sup_field = (height/||phi||)*phi; ``grad`` is gradient(u), if held.

    Returns each broken bound, named, with its gap over the allowed value
    (a NaN gap counts as broken); an empty list when all three hold.
    """
    allowed = MEMBERSHIP_SLACK_REL * height
    gaps = (("lower barrier", float(np.max(sub.values - u.values))),
            ("upper barrier", float(np.max(u.values - sup_field.values))),
            ("gradient bound",
             sup_norm(gradient(u) if grad is None else grad) - gamma * height))
    return [f"{name} gap {gap:.3e} over allowed {allowed:.1e}"
            for name, gap in gaps if not gap <= allowed]


@dataclass(frozen=True)
class Certificates:
    """The verdicts of a run at its final iterate, in checkable form.

    Membership of the invariant set (barriers and gradient bound) is not
    among them: verify_solution_bounds checks it at every outer step, and a
    breach raises InvariantViolation (exit 7), so no report exists for a run
    that left the set.
    """

    pde_residual: float
    residual_scale: float
    residual_ok: bool
    two_sided_gap: float
    two_sided_ok: bool
    picone_gap: float
    picone_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.residual_ok and self.two_sided_ok and self.picone_ok


@dataclass(frozen=True)
class SolveReport:
    """Result of one outer fixed-point run at a parameter point."""

    converged: bool
    solution: ScalarField
    outer_iters: int
    outer_trace: tuple
    certificates: Certificates
    epsilon: float
    height: float
    region: RegionVerdict


def natural_residual_scale(lam: float, beta: float, c: ConstantsBundle,
                           spec: ProblemSpec, height: float) -> float:
    """Size of the right-hand side over the invariant set:
    omega_sup * (lambda*M^(q-1) + beta*(gamma*M)^b * M^a)."""
    return c.omega_sup * (lam * height ** (spec.q - 1.0)
                          + beta * (c.gamma * height) ** spec.b
                          * height ** spec.a)


def _check_outer_budget(max_outer):
    if max_outer < 1:
        raise ConfigurationError(
            f"max_outer must be at least 1, got {max_outer}")


def outer_fixed_point(spec: ProblemSpec, lam: float, beta: float,
                      grid: Grid | None = None,
                      constants: ConstantsBundle | None = None,
                      eigen: EigenPair | None = None,
                      opts: SolveOptions | None = None,
                      max_outer: int = 50) -> SolveReport:
    """Run the full certified pipeline at one (lambda, beta) point.

    Classifies the point (OutOfRegionError when outside the existence
    region), builds the barriers, iterates the freezing map from the lower
    barrier, and certifies the limit.  ``converged`` in the report is true
    only when the C^1 trace dropped below 1e-7*M within ``max_outer`` steps
    AND every certificate holds; a run that merely ran out of budget is
    reported unconverged (inconclusive), not raised.  ``constants`` and
    ``eigen`` are computed when not given, with one map of cold solves, so
    the eigen start reads omega1's torsion from the constants' solves.

    Raises:
        ConfigurationError: max_outer below 1.
        OutOfRegionError: point outside the region (no solve attempted).
        InvariantViolation: barrier ordering, sub/super verification,
            invariant-set membership, or the gradient-constant check failed.
    """
    _check_outer_budget(max_outer)
    if grid is None:
        grid = spec.build_grid()
    if opts is None:
        opts = SolveOptions()
    solved = {}  # the cold solves of a set-up made here
    if constants is None:
        constants = compute_constants(spec, grid, opts, solved)
    verdict = region_classify(lam, beta, constants, spec)
    if not verdict.in_region:
        raise OutOfRegionError(
            f"(lambda, beta) = ({lam:.6g}, {beta:.6g}) is outside the "
            f"{verdict.case} existence region (margin {verdict.margin:.3e})")
    height = verdict.height
    if eigen is None:
        eigen = first_eigenpair(grid, spec.p, sample_weights(spec, grid)[0],
                                opts, solved)
    eps = make_epsilon(lam, eigen.lambda1, height, constants.phi_sup, spec)
    sub = ScalarField(grid, eps * eigen.u1.values)
    sup_field = ScalarField(grid, (height / constants.phi_sup)
                            * constants.weighted_torsion.phi.values)
    if np.any(sub.values > sup_field.values + 1.0e-12 * max(1.0, height)):
        raise InvariantViolation(
            "lower barrier exceeds upper barrier; constants inconsistent")

    # the barriers' Lap_p, fixed for the run
    sub_value = operator_value(sub, spec.p)
    sup_value = operator_value(sup_field, spec.p)

    u = sub
    grad_u = gradient(u)
    trace = []
    factor = []  # one kept LU factor holder for every outer step of this call
    held = [sub_value]  # Lap_p of u, which the next Newton solve starts from
    previous = None  # the last step's frozen map
    for k in range(1, max_outer + 1):
        frozen = freeze_nonlinearity(u, lam, beta, spec, grad_u)
        for value, kind in ((sup_value, "super"), (sub_value, "sub")):
            rep = verify_subsuper(value.field, frozen, spec.p, kind,
                                  lap=value.lap)
            if not rep.ok:
                raise InvariantViolation(
                    f"{kind}-solution verification failed at outer step {k}: "
                    f"violation {rep.worst_violation:.3e} over tol {rep.tol:.1e} "
                    f"at node {rep.node}")
        if previous is not None and _same_map(frozen, previous):
            # u is already the limit of this very map
            u_next, path, grads = u, ["reuse"], [grad_u]
        else:
            # Newton from u, whose Lap_p the last solve left in held; the
            # fallback sweeps start from the upper barrier; a Newton limit
            # comes with the gradient its khat check computed
            guess = operator_value(u, spec.p, held)
            held[:] = [sup_value]
            path, grads = [], []
            u_next = inner_monotone_solve(
                frozen, sub, sup_field, spec.p, opts, start="super",
                khat=constants.khat, guess=guess, factor=factor, held=held,
                path=path, grad=grads)
        previous = frozen
        grad_next = grads[0] if grads else gradient(u_next)
        broken = verify_solution_bounds(u_next, sub, sup_field, height,
                                        constants.gamma, grad=grad_next)
        if broken:
            raise InvariantViolation(
                f"outer iterate {k} left the invariant set: {'; '.join(broken)}")
        dist = (float(np.max(np.abs(u_next.values - u.values)))
                + float(np.max(np.sqrt(np.sum(
                    (grad_next.components - grad_u.components) ** 2, axis=0)))))
        trace.append(dist)
        u, grad_u = u_next, grad_next
        log.info("outer step %d by %s: C1 move %.3e (target %.1e)",
                 k, path[0], dist, OUTER_STOP_REL * height)
        if dist < OUTER_STOP_REL * height:
            break

    frozen = freeze_nonlinearity(u, lam, beta, spec, grad_u)
    from_above = inner_monotone_solve(frozen, sub, sup_field, spec.p,
                                      opts, start="super", khat=constants.khat,
                                      held=[sup_value])
    from_below = inner_monotone_solve(frozen, sub, sup_field, spec.p,
                                      opts, start="sub", khat=constants.khat,
                                      held=[sub_value])
    two_sided_gap = float(np.max(np.abs(from_above.values - from_below.values)))
    picone_gap = picone_diagnostic(from_above, from_below, frozen, spec.p)

    # the residual is checked against the raw lambda*h + beta*f at u, which
    # the freeze above already evaluated, and Lap_p u, which the last inner
    # solve computed
    defect = (operator_value(u, spec.p, held).lap
              - frozen.source)[grid.interior]
    pde_residual = float(np.max(np.abs(defect)))
    scale = natural_residual_scale(lam, beta, constants, spec, height)
    volume = math.prod(hi - lo for lo, hi in grid.extents)
    picone_scale = max(scale * height * volume, 1.0e-30)
    certificates = Certificates(
        pde_residual=pde_residual, residual_scale=scale,
        residual_ok=pde_residual <= RESIDUAL_CERT_REL * scale,
        two_sided_gap=two_sided_gap,
        two_sided_ok=two_sided_gap <= TWO_SIDED_CERT_REL * height,
        picone_gap=picone_gap,
        picone_ok=abs(picone_gap) <= PICONE_CERT_REL * picone_scale)

    # the loop breaks exactly when a move drops below the stopping threshold
    stopped = trace[-1] < OUTER_STOP_REL * height
    return SolveReport(converged=stopped and certificates.all_ok,
                       solution=u, outer_iters=len(trace),
                       outer_trace=tuple(trace), certificates=certificates,
                       epsilon=eps, height=height, region=verdict)
