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
iteration down from the upper barrier approaches.  The Newton solve is the
step's only way to it.  A solve that stalls raises SolveFailure, and a
result that is not positive at the interior nodes or leaves the barrier
band (a zero or a wrong root) fails the membership check below, so a missed
limit ends the run loudly.  The outer step also checks its limit against
the gradient bound at F_u(x, limit).  The certificates at the final map are
computed apart from the outer steps, by monotone iteration from both
barriers.

Every stage is checked at run time, each check under one rule.  The
barriers must verify as sub/super-solutions of each frozen F with a defect
tolerance of SUBSUPER_TOL_REL times the candidate's own ||Lap_p v||_inf.
Each outer iterate must stay in the invariant set (between the barriers,
which outer_fixed_point builds once per run, with gradient below gamma*M) up
to MEMBERSHIP_SLACK_REL * M, and be positive at the interior nodes, checked
at every step by verify_solution_bounds.  Each solve must respect the
empirical gradient constant.  A violation of any of these raises
InvariantViolation -- it falsifies the implementation or a stale constant,
never the underlying analysis -- so a returned report always lies in the
set.  Functions other than outer_fixed_point take their grid from the
fields they are given.

No field's Lap_p is computed twice in a run.  A field travels through this
module with its -Lap_p, as a plap.OperatorValue: the barriers, the guess of
an outer step and every limit a solve returns.  The barriers are fixed for
the run, so outer_fixed_point computes their values once
(plap.operator_value); every barrier check and every monotone iteration
started at a barrier reads them.  Every other value is the one the solve
that returned the field computed: plap.solve_plap_dirichlet, started from an
OperatorValue, reads its -Lap_p and returns its result's.  An outer step's
Newton solve starts from the previous iterate's value, and every sweep of
the certificate chains and the residual certificate read the final
iterate's.  The values are those a fresh apply gives, so no result changes
by a bit.

The certificate chains converge to the final iterate u, so every sweep of
both starts its Dirichlet solve at u (``warm``), not at the chain's last
iterate.  A chain contracts by about 0.15 per sweep, so its next iterate
lies about 0.15/0.85 = 0.18 times as far from u as from the last one.  Only
Newton's start moves: a sweep still solves -Lap_p U_{n+1} = F(U_n), which
has one solution, so the iterates, their number and the stop test are
those of a chain that starts each solve at its last iterate, up to the
solver tolerance.  Every first residual reads u's -Lap_p, and every first
Newton step takes the Jacobian at u, which outer_fixed_point assembles and
factors once per run (plap.factored_value) and hands to both chains with
u's value.  With one axis that step is the fresh one bit for bit; with two
or more it replaces a chord trial of the chain's kept factor, and the
factor at u then stays a good chord model for the later steps.

A monotone sweep after the first is solved only as far as it needs to be.
Its Dirichlet solve stops at INNER_FORCING times the change of the
right-hand side since the last sweep, or at the full tolerance when that is
larger: the forcing term of inexact Newton methods (Dembo, Eisenstat &
Steihaug, SIAM J. Numer. Anal. 19 (1982); Eisenstat & Walker, SIAM J. Sci.
Comput. 17 (1996)).  That change is about the residual of a sweep that
starts at the last iterate; a certificate sweep starts at u, where the
residual F(u) - F(U_n) is smaller, by about the factor 0.18 above.  The
sweeps and their stop test are those of exact solves; a sweep that passes
the stop test at a forced tolerance is solved again at the full one, from
where it stopped, so every inner limit meets the full residual contract
against its frozen map.

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
    _out_of_range,
    compute_constants,
    region_classify,
)
from .errors import (
    ConfigurationError,
    GridMismatchError,
    HypothesisViolationError,
    InvariantViolation,
    IterationFailure,
    MonotonicityError,
    OutOfRegionError,
)
from .expr import ProblemSpec, check_growth, evaluate_on, sample_weights
from .grid import Grid, ScalarField, gradient, integrate, sup_norm
from .plap import (
    OperatorValue,
    SolveOptions,
    assert_gradient_bound,
    factored_value,
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
    if not (lam > 0 and lambda1 > 0 and height > 0 and phi_sup > 0):
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
    if grad is not None and grad.grid != grid:
        raise GridMismatchError("gradient lives on a different grid than u")
    weights = [w.values for w in sample_weights(spec, grid)]
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

    base = lam * (h_vals - w1 * growth) + beta * f_vals
    base = np.maximum(base, 0.0)  # roundoff only; real negatives raised above
    return FrozenNonlinearity(grid=grid, coeff=lam * w1, base=base,
                              q=spec.q, source=lam * h_vals + beta * f_vals)


@dataclass(frozen=True)
class SubSuperReport:
    """Outcome of testing a candidate barrier against a frozen F."""

    ok: bool
    worst_violation: float
    tol: float
    node: tuple | None = None


def verify_subsuper(candidate: OperatorValue, F: FrozenNonlinearity,
                    kind: str) -> SubSuperReport:
    """Check the defect d = (-Lap_p v) - F(x, v) pointwise, for the field v
    and its -Lap_p that ``candidate`` holds.

    A super-solution needs d >= -tol, a sub-solution d <= tol, over interior
    nodes, with tol = SUBSUPER_TOL_REL * ||Lap_p v||_inf: relative, so it
    means the same on a small right-hand side as on a large one.
    """
    if kind not in ("sub", "super"):
        raise ConfigurationError(f"kind must be 'sub' or 'super', got {kind!r}")
    field, lap = candidate.field, candidate.lap
    if F.grid != field.grid:
        raise GridMismatchError(
            "frozen map lives on a different grid than the candidate")
    defect = (lap - F.evaluate(field.values))[field.grid.interior]
    tol = SUBSUPER_TOL_REL * float(np.max(np.abs(lap)))
    signed = -defect if kind == "super" else defect
    flat = int(np.argmax(signed))
    worst = float(signed.ravel()[flat])
    node = tuple(int(i) + 1 for i in np.unravel_index(flat, signed.shape))
    return SubSuperReport(ok=worst <= tol, worst_violation=worst, tol=tol,
                          node=node)


def _support_tolerance(opts: SolveOptions) -> SolveOptions:
    """Tighten solver tolerance so iterate noise stays well under the inner
    stop.

    Fixed-point stopping tests compare successive solves; the relative solver
    residual must sit a decade below the relative stopping increment
    INNER_STOP_REL or the iteration can plateau on solver noise instead of
    converging.  Both are relative, so the target means the same at every
    scale of the problem.
    """
    target = INNER_STOP_REL / 10.0
    if opts.tol_residual <= target:
        return opts
    return dataclasses.replace(opts, tol_residual=target)


def solve_frozen(F: FrozenNonlinearity, start: OperatorValue,
                 opts: SolveOptions | None = None, *,
                 factor: list | None = None) -> OperatorValue:
    """Solve the frozen problem -Lap_p U = F(x, U) at start.p by one Newton
    solve from the field of ``start``, whose -Lap_p its first residual
    reads: plap.solve_plap_dirichlet with the load F.base and the reaction
    F.coeff * U^(q-1).  It stops at
    ||-Lap_p U - F(U)||_inf <= tol_residual * ||F(U)||_inf, the
    quantity the residual certificate checks, and returns the solve's
    OperatorValue of U.  ``factor`` is the one-slot holder of
    solve_plap_dirichlet.

    Raises:
        SolveFailure: the Newton solve stalled (a warm solve has no retreat).
        GridMismatchError: ``start`` lives on another grid than F.
    """
    return solve_plap_dirichlet(F.grid, start.p, ScalarField(F.grid, F.base),
                                opts, initial_guess=start, factor=factor,
                                reaction=(F.coeff, F.q))


def inner_monotone_solve(F: FrozenNonlinearity, sub: OperatorValue,
                         sup: OperatorValue,
                         opts: SolveOptions | None = None, *,
                         start: str = "super",
                         khat: float | None = None,
                         guess: OperatorValue | None = None,
                         factor: list | None = None,
                         warm: OperatorValue | None = None) -> OperatorValue:
    """The limit of the frozen problem -Lap_p U = F(x, U) between the
    barriers, with its -Lap_p: by one Newton solve from ``guess`` when one
    is given, else by the monotone iteration U_{n+1} = solve(F(x, U_n))
    from a barrier.

    ``sub`` and ``sup`` are the barriers' OperatorValues, and p is theirs.
    The value returned is the one the last solve returned (see
    plap.solve_plap_dirichlet), so the caller can hand the limit on to a
    solve that starts there without applying the operator again.

    With ``guess``, as an outer step of outer_fixed_point calls it, the
    frozen problem is solved directly from the guess (solve_frozen), at the
    guess's p, to the full tolerance below, and its result is returned as
    it is, before the barriers, ``start`` or ``khat`` are read: a stalled
    solve raises SolveFailure, and the caller checks the result's
    positivity, band and gradient against the barriers it built.  The
    frozen problem has one positive solution (see the module docstring), so
    the Newton solve and the monotone iteration reach the same limit up to
    the solver tolerance.

    Started from the upper barrier the sequence is nonincreasing (from the
    lower, nondecreasing); each iterate must stay inside the barrier band up
    to 10x the solver tolerance, else MonotonicityError.  Stops when the sup
    move drops below INNER_STOP_REL * ||super||_inf.  Each sweep's solve
    starts from ``warm`` when one is given; otherwise from the last
    iterate's value, so the first sweep reads the start barrier's -Lap_p
    and each later one the last sweep's.

    Each sweep after the first stops its solve at INNER_FORCING times the
    sup change of the right-hand side since the last sweep, or at the full
    tolerance when that is larger (see the module docstring).  Without
    ``warm`` that change is the sweep's starting residual up to the last
    solve's own, so early sweeps, which move the iterate far, stop after a
    few Newton or chord steps, and the last ones fall back to the full
    tolerance by themselves.  A sweep solved at a forced tolerance that
    passes the stop test is solved again at the full tolerance, from its
    own result, before it is returned.

    The warm-started solves share one kept LU factor (the chord steps
    of plap.solve_plap_dirichlet): successive sweeps, and successive outer
    steps' Newton solves, differ little, so one factor stays a good linear
    model for many of them; a factor that does not contract is dropped
    after one trial step, or untried when the last Newton step contracted
    too slowly for a trial to pass.  ``factor`` is the one-slot holder of
    plap.solve_plap_dirichlet; without one the call makes its own, and its
    factor lives for this call only.  The outer iteration hands one holder
    to all its steps, and the certificate stage gives each of its two inner
    limits a fresh one, so neither reads a factor of the other's iterates;
    the factored Jacobian at the final iterate, which both take at their
    first steps, comes with ``warm``.  No factor outlives an
    outer_fixed_point call.

    Args:
        start: the barrier to start from; keyword-only, as are the rest.
        khat: when given, every sweep is checked against the empirical
            gradient bound (StaleGradConstantError on violation).  A Newton
            limit is not: its caller checks it.
        guess: the OperatorValue of a field to start a Newton solve of the
            frozen problem from (the previous outer iterate); None runs
            the monotone iteration.
        factor: the kept LU factor holder the solves share; None makes a
            fresh one for this call.
        warm: the OperatorValue every sweep's solve starts from (the final
            iterate, for the certificate chains); None starts each at the
            last iterate.  When it holds the factored Jacobian at its field
            (plap.factored_value), every sweep's first Newton step takes
            it, and neither assembles nor factors.  The solver refuses one
            off the barriers' grid (GridMismatchError) or p
            (ConfigurationError).  The iterates do not depend on it beyond
            the solver tolerance.

    Raises:
        SolveFailure: the Newton solve from ``guess`` stalled.
        IterationFailure: no convergence within INNER_MAX_SWEEPS sweeps.
    """
    if opts is None:
        opts = SolveOptions()
    solve_opts = _support_tolerance(opts)
    if guess is not None:
        return solve_frozen(F, guess, solve_opts, factor=factor)
    if start not in ("sub", "super"):
        raise ConfigurationError(f"start must be 'sub' or 'super', got {start!r}")
    grid, p = sub.field.grid, sub.p
    if not sup.field.grid == F.grid == grid:
        raise GridMismatchError("barriers and frozen map live on different grids")
    sup_size = sup_norm(sup.field)
    if np.any(sub.field.values > sup.field.values
              + 1.0e-12 * max(1.0, sup_size)):
        raise ConfigurationError("lower barrier exceeds upper barrier")

    if factor is None:
        factor = []
    stop = INNER_STOP_REL * sup_size
    value = sup if start == "super" else sub  # the last iterate u's value
    u = value.field
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
        value = solve_plap_dirichlet(
            grid, p, rhs, sweep_opts,
            initial_guess=value if warm is None else warm, factor=factor)
        u_next = value.field
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
        below = float((sub.field.values - u_next.values).max())
        above = float((u_next.values - sup.field.values).max())
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
                value = solve_plap_dirichlet(grid, p, rhs, solve_opts,
                                             initial_guess=value,
                                             factor=factor)
                if khat is not None:
                    assert_gradient_bound(khat, value.field, rhs_sup, p,
                                          context=f"inner sweep {sweep}")
            return value
    raise IterationFailure(
        f"inner monotone iteration made no C0 limit in {INNER_MAX_SWEEPS} "
        "sweeps")


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
    if not V.grid == F.grid == grid:
        raise GridMismatchError("states and frozen map live on different grids")
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
    sup_field = (height/||phi||)*phi, and u > 0 at the interior nodes, with
    no slack; ``grad`` is gradient(u), if held.

    Returns each broken bound, named, with its gap over the allowed value
    (a NaN gap counts as broken); an empty list when all four hold.
    """
    allowed = MEMBERSHIP_SLACK_REL * height
    gaps = (("lower barrier", float(np.max(sub.values - u.values))),
            ("upper barrier", float(np.max(u.values - sup_field.values))),
            ("gradient bound",
             sup_norm(gradient(u) if grad is None else grad) - gamma * height))
    broken = [f"{name} gap {gap:.3e} over allowed {allowed:.1e}"
              for name, gap in gaps if not gap <= allowed]
    least = float(u.values[u.grid.interior].min())
    if not least > 0.0:
        broken.append(
            f"positivity: interior minimum {least:.3e} is not above 0")
    return broken


@dataclass(frozen=True)
class Certificates:
    """The verdicts of a run at its final iterate, in checkable form.

    Each verdict is carried as its value and the largest value it allows
    (``*_allowed``), which outer_fixed_point computes once, before its first
    outer step.  Each ``*_ok`` flag is value <= allowed (|picone_gap| for
    Picone; a NaN value fails), so a reader takes a verdict's headroom as
    value / allowed from the report and never restates a rule.

    Membership of the invariant set (barriers and gradient bound) is not
    among them: verify_solution_bounds checks it at every outer step, and a
    breach raises InvariantViolation (exit 7), so no report exists for a run
    that left the set.
    """

    pde_residual: float
    residual_scale: float
    residual_allowed: float
    two_sided_gap: float
    two_sided_allowed: float
    picone_gap: float
    picone_allowed: float

    @property
    def residual_ok(self) -> bool:
        return self.pde_residual <= self.residual_allowed

    @property
    def two_sided_ok(self) -> bool:
        return self.two_sided_gap <= self.two_sided_allowed

    @property
    def picone_ok(self) -> bool:
        return abs(self.picone_gap) <= self.picone_allowed

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
    only when a C^1 move dropped below OUTER_STOP_REL * M within
    ``max_outer`` steps AND every certificate holds; a run that merely ran
    out of budget is reported unconverged (inconclusive), not raised.
    ``constants`` and ``eigen`` are computed when not given, with one map
    of cold solves, so the eigen start reads omega1's torsion from the
    constants' solves.

    Raises:
        ConfigurationError: max_outer below 1, or a certificate's allowed
            value leaves the float range (the float-range error of
            constants.barrier_height), raised before the first step.
        OutOfRegionError: point outside the region (no solve attempted).
        SolveFailure: an outer step's Newton solve stalled.
        InvariantViolation: barrier ordering, sub/super verification,
            invariant-set membership (positivity included), or the
            gradient-constant check failed.
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
    # what each certificate allows depends on the point, the constants,
    # the height and the box alone
    try:
        scale = natural_residual_scale(lam, beta, constants, spec, height)
    except OverflowError:
        scale = math.inf
    volume = math.prod(hi - lo for lo, hi in grid.extents)
    allowed = dict(residual_allowed=RESIDUAL_CERT_REL * scale,
                   two_sided_allowed=TWO_SIDED_CERT_REL * height,
                   picone_allowed=PICONE_CERT_REL * max(
                       scale * height * volume, 1.0e-30))
    if not all(map(math.isfinite, allowed.values())):
        raise _out_of_range(lam, beta, verdict.case)
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

    value = sub_value  # the iterate u with its Lap_p, which a solve starts from
    u = sub
    grad_u = gradient(u)
    trace = []
    factor = []  # one kept LU factor holder for every outer step of this call
    stop = OUTER_STOP_REL * height
    stopped = False  # whether a C1 move dropped below ``stop``
    # the frozen map at u: u0 here, each new iterate at the end of its
    # step, so the certificate stage reads the one at the last
    frozen = freeze_nonlinearity(u, lam, beta, spec, grad_u)
    for k in range(1, max_outer + 1):
        for barrier, kind in ((sup_value, "super"), (sub_value, "sub")):
            rep = verify_subsuper(barrier, frozen, kind)
            if not rep.ok:
                raise InvariantViolation(
                    f"{kind}-solution verification failed at outer step {k}: "
                    f"violation {rep.worst_violation:.3e} over tol {rep.tol:.1e} "
                    f"at node {rep.node}")
        # one Newton solve from u; its limit is checked below
        value_next = inner_monotone_solve(frozen, sub_value, sup_value, opts,
                                          guess=value, factor=factor)
        u_next = value_next.field
        grad_next = gradient(u_next)
        broken = verify_solution_bounds(u_next, sub, sup_field, height,
                                        constants.gamma, grad=grad_next)
        if broken:
            raise InvariantViolation(
                f"outer iterate {k} left the invariant set: {'; '.join(broken)}")
        assert_gradient_bound(
            constants.khat, u_next, float(frozen.evaluate(u_next.values).max()),
            spec.p, context=f"outer step {k}", grad=grad_next)
        dist = (float(np.max(np.abs(u_next.values - u.values)))
                + float(np.max(np.sqrt(np.sum(
                    (grad_next.components - grad_u.components) ** 2, axis=0)))))
        trace.append(dist)
        value, u, grad_u = value_next, u_next, grad_next
        frozen = freeze_nonlinearity(u, lam, beta, spec, grad_u)
        log.info("outer step %d: C1 move %.3e (target %.1e)", k, dist, stop)
        stopped = dist < stop
        if stopped:
            break

    # both chains start every sweep's solve at u, which they converge to,
    # and take its first Newton step with the Jacobian at u, factored here
    warm = factored_value(value)
    from_above = inner_monotone_solve(frozen, sub_value, sup_value, opts,
                                      start="super", khat=constants.khat,
                                      warm=warm).field
    from_below = inner_monotone_solve(frozen, sub_value, sup_value, opts,
                                      start="sub", khat=constants.khat,
                                      warm=warm).field
    two_sided_gap = float(np.max(np.abs(from_above.values - from_below.values)))
    picone_gap = picone_diagnostic(from_above, from_below, frozen, spec.p)

    # the residual is checked against the raw lambda*h + beta*f at u, which
    # the freeze at u already evaluated, and Lap_p u, which the solve that
    # returned u computed
    defect = (value.lap - frozen.source)[grid.interior]
    pde_residual = float(np.max(np.abs(defect)))
    certificates = Certificates(
        pde_residual=pde_residual, residual_scale=scale,
        two_sided_gap=two_sided_gap, picone_gap=picone_gap, **allowed)
    return SolveReport(converged=stopped and certificates.all_ok,
                       solution=u, outer_iters=len(trace),
                       outer_trace=tuple(trace), certificates=certificates,
                       epsilon=eps, height=height, region=verdict)
