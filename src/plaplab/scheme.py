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
    upper:  (M / ||phi||_inf) * phi   (scaled torsion function),

by monotone iteration from the upper barrier.  Every stage is checked at run
time: the barriers must verify as sub/super-solutions for each frozen F, the
iterates must stay in the invariant set (between the barriers, gradient below
gamma*M), and each solve must respect the empirical gradient constant.  A
violation of any of these raises InvariantViolation -- it falsifies the
implementation or a stale constant, never the underlying analysis.

Convergence of the outer map is monitored in C^1 (sup distance of values plus
gradients); the fixed-point argument behind it is nonconstructive, so
non-convergence within the budget is reported as inconclusive rather than as
a counterexample.  A converged run carries certificates: barrier bounds and
gradient bound, pointwise PDE residual against the raw expressions, the
agreement of inner limits started from both barriers, and the Picone-type
uniqueness gap for that pair.
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
)
from .expr import ProblemSpec, check_growth, evaluate_on, sample_weights
from .grid import Grid, ScalarField, gradient, integrate, p_laplacian_apply, sup_norm
from .plap import SolveOptions, assert_gradient_bound, solve_plap_dirichlet
from .spectral import EigenPair, first_eigenpair

log = logging.getLogger(__name__)

# Relative C^1 stopping threshold of the outer iteration, in units of M.
OUTER_STOP_REL = 1.0e-7
# Inner monotone iteration stops when successive iterates move less than
# this fraction of the upper barrier's sup norm, within this many sweeps.
INNER_STOP_REL = 1.0e-8
INNER_MAX_SWEEPS = 500
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
                        spec: ProblemSpec, grid: Grid,
                        weights=None, grad=None) -> FrozenNonlinearity:
    """Freeze h and f at the iterate u, checking the hypotheses there.

    The growth hypotheses are re-verified at the nodal values of u and |grad u|
    (``grad``, when the caller holds it), not just at validation samples; the
    worst violation raises HypothesisViolationError with the offending node
    and values.  The frozen part is clamped from roundoff-negative to zero.
    """
    if u.grid != grid:
        raise ConfigurationError("iterate lives on a different grid")
    if weights is None:
        weights = sample_weights(spec, grid)
    w1 = weights[0]
    uv = np.maximum(u.values, 0.0)
    gn = (gradient(u) if grad is None else grad).magnitude().values
    bindings = spec.coordinate_bindings(grid)
    h_vals = np.broadcast_to(
        evaluate_on(spec.h, {**bindings, "u": uv}), grid.shape)
    f_vals = np.broadcast_to(
        evaluate_on(spec.f, {**bindings, "u": uv, "gnorm": gn}), grid.shape)

    violation = check_growth(spec, weights, uv, gn, h_vals, f_vals)
    if violation is not None:
        node = violation.index
        raise HypothesisViolationError(
            f"hypothesis '{violation.check}' failed at an iterate", node=node,
            values={"u": float(uv[node]), "gnorm": float(gn[node]),
                    "lhs": violation.lhs, "rhs": violation.rhs})

    # np.power matches the expression evaluator bitwise; ** would take
    # numpy's sqrt fast path for half-integer exponents and differ by an ulp,
    # leaving roundoff residue in ``base`` where h equals its growth bound
    growth = np.power(uv, spec.q - 1.0)
    base = lam * (h_vals - w1.values * growth) + beta * f_vals
    base = np.maximum(base, 0.0)  # roundoff only; real negatives raised above
    return FrozenNonlinearity(grid=grid, coeff=lam * w1.values, base=base,
                              q=spec.q, source=lam * h_vals + beta * f_vals)


@dataclass(frozen=True)
class SubSuperReport:
    """Outcome of testing a candidate barrier against a frozen F."""

    kind: str
    ok: bool
    worst_violation: float
    tol: float
    node: tuple | None = None


def verify_subsuper(candidate: ScalarField, F: FrozenNonlinearity, grid: Grid,
                    p: float, kind: str, tol: float | None = None) -> SubSuperReport:
    """Check the defect d = (-Lap_p candidate) - F(x, candidate) pointwise.

    A super-solution needs d >= -tol, a sub-solution d <= tol, over interior
    nodes.  Default tol is 1e-7 * max(1, ||Lap_p candidate||_inf), sized for
    barriers produced by solves with the default residual tolerance.
    """
    if kind not in ("sub", "super"):
        raise ConfigurationError(f"kind must be 'sub' or 'super', got {kind!r}")
    lap = p_laplacian_apply(candidate, p).values
    defect = (lap - F.evaluate(candidate.values))[grid.interior]
    if tol is None:
        tol = 1.0e-7 * max(1.0, float(np.max(np.abs(lap))))
    signed = -defect if kind == "super" else defect
    flat = int(np.argmax(signed))
    worst = float(signed.ravel()[flat] if signed.size else 0.0)
    node = tuple(int(i) + 1 for i in
                 np.unravel_index(flat, tuple(n - 2 for n in grid.shape)))
    return SubSuperReport(kind=kind, ok=worst <= tol, worst_violation=worst,
                          tol=tol, node=node)


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


def inner_monotone_solve(F: FrozenNonlinearity, sub: ScalarField,
                         sup_field: ScalarField, grid: Grid, p: float,
                         opts: SolveOptions | None = None,
                         start: str = "super",
                         khat: float | None = None) -> ScalarField:
    """Monotone iteration U_{n+1} = solve(F(x, U_n)) between the barriers.

    Started from the upper barrier the sequence is nonincreasing (from the
    lower, nondecreasing); each iterate must stay inside the barrier band up
    to 10x the solver tolerance, else MonotonicityError.  Stops when the sup
    move drops below 1e-8 * ||super||_inf.

    The warm-started solves of one call share one kept SuperLU factor (the
    chord steps of plap.solve_plap_dirichlet): successive sweeps differ
    little, so one factor stays a good linear model for many of them.  The
    factor lives for this call only: the two inner limits of the certificate
    stay independent computations, and a result never depends on what was
    solved before it.

    Args:
        khat: when given, every solve is checked against the empirical
            gradient bound (StaleGradConstantError on violation).

    Raises:
        IterationFailure: no convergence within INNER_MAX_SWEEPS sweeps.
    """
    if opts is None:
        opts = SolveOptions()
    if start not in ("sub", "super"):
        raise ConfigurationError(f"start must be 'sub' or 'super', got {start!r}")
    if sub.grid != grid or sup_field.grid != grid:
        raise ConfigurationError("barriers live on a different grid")
    band_slack = 1.0e-12 * max(1.0, sup_norm(sup_field))
    if np.any(sub.values > sup_field.values + band_slack):
        raise ConfigurationError("lower barrier exceeds upper barrier")

    stop = INNER_STOP_REL * sup_norm(sup_field)
    u = sup_field if start == "super" else sub
    factor = []  # the sweeps' shared SuperLU factor, for this call only
    for sweep in range(1, INNER_MAX_SWEEPS + 1):
        rhs = F.as_field(u.values)
        solve_opts = _support_tolerance(opts, stop)
        u_next = solve_plap_dirichlet(grid, p, rhs, solve_opts, initial_guess=u,
                                      factor=factor)
        if khat is not None:
            assert_gradient_bound(khat, u_next, rhs, p,
                                  context=f"inner sweep {sweep}")
        slack = 10.0 * solve_opts.tol_residual * max(1.0, sup_norm(rhs))
        if start == "super":
            drift = float(np.max(u_next.values - u.values))
        else:
            drift = float(np.max(u.values - u_next.values))
        if drift > slack:
            raise MonotonicityError(
                f"inner iterate moved {drift:.3e} against the monotone "
                f"direction (allowed {slack:.3e}) at sweep {sweep}")
        below = float(np.max(sub.values - u_next.values))
        above = float(np.max(u_next.values - sup_field.values))
        if max(below, above) > slack:
            raise MonotonicityError(
                f"inner iterate left the barrier band by "
                f"{max(below, above):.3e} at sweep {sweep}")
        move = float(np.max(np.abs(u_next.values - u.values)))
        u = u_next
        log.debug("inner sweep %d (%s start): move %.3e", sweep, start, move)
        if move < stop:
            return u
    raise IterationFailure(
        f"inner monotone iteration made no C0 limit in {INNER_MAX_SWEEPS} "
        "sweeps")


def picone_diagnostic(U: ScalarField, V: ScalarField, F: FrozenNonlinearity,
                      grid: Grid, p: float) -> float:
    """Picone-type uniqueness gap for two positive states.

    Integrates  (F(x,U)/U^(p-1) - F(x,V)/V^(p-1)) * (U^p - V^p)  over the box
    (trapezoid; boundary contributes nothing).  For F with sublinear-type
    monotonicity the nodal integrand is <= 0 and the integral vanishes iff
    U = V; a value near zero for two independently computed limits is the
    uniqueness surrogate.
    """
    if U.grid != grid or V.grid != grid:
        raise ConfigurationError("states live on a different grid")
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


@dataclass(frozen=True)
class BoundsCheck:
    """Barrier and gradient certificates; gaps are max violations (<= 0 ok)."""

    lower_ok: bool
    upper_ok: bool
    gradient_ok: bool
    lower_gap: float
    upper_gap: float
    gradient_gap: float


def verify_solution_bounds(u: ScalarField, eps: float, u1: ScalarField,
                           height: float, phi: ScalarField, gamma: float,
                           slack: float | None = None, grad=None) -> BoundsCheck:
    """Check eps*u1 <= u <= (height/||phi||)*phi and ||grad u|| <= gamma*height.

    Default slack is 1e-6 * height per comparison; ``grad`` is gradient(u), if held.
    """
    if slack is None:
        slack = MEMBERSHIP_SLACK_REL * height
    upper = (height / sup_norm(phi)) * phi.values
    lower_gap = float(np.max(eps * u1.values - u.values))
    upper_gap = float(np.max(u.values - upper))
    gradient_gap = sup_norm(gradient(u) if grad is None else grad) - gamma * height
    return BoundsCheck(lower_ok=lower_gap <= slack, upper_ok=upper_gap <= slack,
                       gradient_ok=gradient_gap <= slack,
                       lower_gap=lower_gap, upper_gap=upper_gap,
                       gradient_gap=gradient_gap)


@dataclass(frozen=True)
class Certificates:
    """Everything a converged run promises, in checkable form."""

    lower_bound_ok: bool
    upper_bound_ok: bool
    gradient_bound_ok: bool
    pde_residual: float
    residual_scale: float
    residual_ok: bool
    two_sided_gap: float
    two_sided_ok: bool
    picone_gap: float
    picone_ok: bool

    @property
    def all_ok(self) -> bool:
        return (self.lower_bound_ok and self.upper_bound_ok
                and self.gradient_bound_ok and self.residual_ok
                and self.two_sided_ok and self.picone_ok)


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
    reported unconverged (inconclusive), not raised.

    Raises:
        OutOfRegionError: point outside the region (no solve attempted).
        InvariantViolation: barrier ordering, sub/super verification,
            invariant-set membership, or the gradient-constant check failed.
    """
    if grid is None:
        grid = spec.build_grid()
    if opts is None:
        opts = SolveOptions()
    if constants is None:
        constants = compute_constants(spec, grid, opts)
    verdict = region_classify(lam, beta, constants, spec)
    if not verdict.in_region:
        raise OutOfRegionError(
            f"(lambda, beta) = ({lam:.6g}, {beta:.6g}) is outside the "
            f"{verdict.case} existence region (margin {verdict.margin:.3e})")
    height = verdict.height
    weights = sample_weights(spec, grid)
    if eigen is None:
        eigen = first_eigenpair(grid, spec.p, weights[0], opts)
    eps = make_epsilon(lam, eigen.lambda1, height, constants.phi_sup, spec)
    phi = constants.weighted_torsion.phi
    sub = ScalarField(grid, eps * eigen.u1.values)
    sup_field = ScalarField(grid, (height / constants.phi_sup) * phi.values)
    if np.any(sub.values > sup_field.values + 1.0e-12 * max(1.0, height)):
        raise InvariantViolation(
            "lower barrier exceeds upper barrier; constants inconsistent")

    membership_slack = MEMBERSHIP_SLACK_REL * height
    gamma_cap = constants.gamma * height
    u = sub
    grad_u = gradient(u)
    trace = []
    converged_iter = False
    outer_iters = 0
    for k in range(1, max_outer + 1):
        outer_iters = k
        frozen = freeze_nonlinearity(u, lam, beta, spec, grid, weights, grad_u)
        for cand, kind in ((sup_field, "super"), (sub, "sub")):
            rep = verify_subsuper(cand, frozen, grid, spec.p, kind)
            if not rep.ok:
                raise InvariantViolation(
                    f"{kind}-solution verification failed at outer step {k}: "
                    f"violation {rep.worst_violation:.3e} over tol {rep.tol:.1e} "
                    f"at node {rep.node}")
        u_next = inner_monotone_solve(frozen, sub, sup_field, grid, spec.p,
                                      opts, start="super", khat=constants.khat)
        below = float(np.max(sub.values - u_next.values))
        above = float(np.max(u_next.values - sup_field.values))
        if max(below, above) > membership_slack:
            raise InvariantViolation(
                f"outer iterate {k} left the invariant set by "
                f"{max(below, above):.3e} (allowed {membership_slack:.1e})")
        grad_next = gradient(u_next)
        gmax = sup_norm(grad_next)
        if gmax > gamma_cap * (1.0 + 1.0e-6):
            raise InvariantViolation(
                f"outer iterate {k} gradient {gmax:.6g} exceeds "
                f"gamma*M = {gamma_cap:.6g}")
        dist = (float(np.max(np.abs(u_next.values - u.values)))
                + float(np.max(np.sqrt(np.sum(
                    (grad_next.components - grad_u.components) ** 2, axis=0)))))
        trace.append(dist)
        u, grad_u = u_next, grad_next
        log.info("outer step %d: C1 move %.3e (target %.1e)",
                 k, dist, OUTER_STOP_REL * height)
        if dist < OUTER_STOP_REL * height:
            converged_iter = True
            break

    frozen = freeze_nonlinearity(u, lam, beta, spec, grid, weights, grad_u)
    from_above = inner_monotone_solve(frozen, sub, sup_field, grid, spec.p,
                                      opts, start="super", khat=constants.khat)
    from_below = inner_monotone_solve(frozen, sub, sup_field, grid, spec.p,
                                      opts, start="sub", khat=constants.khat)
    two_sided_gap = float(np.max(np.abs(from_above.values - from_below.values)))
    picone_gap = picone_diagnostic(from_above, from_below, frozen, grid, spec.p)

    bounds = verify_solution_bounds(u, eps, eigen.u1, height, phi,
                                    constants.gamma, grad=grad_u)
    # the residual is checked against the raw lambda*h + beta*f at u, which
    # the freeze above already evaluated
    defect = (p_laplacian_apply(u, spec.p).values - frozen.source)[grid.interior]
    pde_residual = float(np.max(np.abs(defect)))
    scale = natural_residual_scale(lam, beta, constants, spec, height)
    volume = math.prod(hi - lo for lo, hi in grid.extents)
    picone_scale = max(scale * height * volume, 1.0e-30)
    certificates = Certificates(
        lower_bound_ok=bounds.lower_ok, upper_bound_ok=bounds.upper_ok,
        gradient_bound_ok=bounds.gradient_ok,
        pde_residual=pde_residual, residual_scale=scale,
        residual_ok=pde_residual <= RESIDUAL_CERT_REL * scale,
        two_sided_gap=two_sided_gap,
        two_sided_ok=two_sided_gap <= TWO_SIDED_CERT_REL * height,
        picone_gap=picone_gap,
        picone_ok=abs(picone_gap) <= PICONE_CERT_REL * picone_scale)

    return SolveReport(converged=converged_iter and certificates.all_ok,
                       solution=u, outer_iters=outer_iters,
                       outer_trace=tuple(trace), certificates=certificates,
                       epsilon=eps, height=height, region=verdict)
