"""Explicit constants of the existence analysis and the (lambda, beta) region.

Everything here is desk arithmetic on top of three computed quantities: the
sup norm of the weighted torsion function, the empirical gradient constant,
and the sup norm of the combined weight omega = max(omega1, omega2, omega3).
The barrier function

    Phi(t) = lambda * coeff_sub * t^(q-p) + beta * coeff_grad * t^(r-p),

with coeff_sub = phi_sup^(p-1) and coeff_grad = khat^b * phi_sup^(p-1-b) *
omega_sup^(b/(p-1)), controls whether a super-solution of height t exists:
admissible heights are exactly those with Phi(t) <= 1.  The shape of
{Phi <= 1} depends on how the gradient growth r = a + b + 1 compares to p:

* r > p ("super"): Phi has a positive minimum; heights exist iff
  lambda^(r-p) * beta^(p-q) <= K, where
  K = ((r-p)/coeff_sub)^(r-p) * ((p-q)/coeff_grad)^(p-q) / (r-q)^(r-q),
  and the minimizer is M = (lambda*coeff_sub*(p-q) /
  (beta*coeff_grad*(r-p)))^(1/(r-q)).
* r = p ("critical"): need beta < 1/coeff_grad strictly; then
  M = (lambda*coeff_sub / (1 - beta*coeff_grad))^(1/(p-q)).
* r < p ("sub"): Phi decreases from +inf to 0, so every positive
  (lambda, beta) admits a height; M solves Phi(M) = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, IterationFailure
from .expr import ProblemSpec, sample_weights
from .grid import Grid, ScalarField, sup_norm
from .plap import (
    GradConstantEstimate,
    SolveOptions,
    default_probes,
    estimate_grad_constant,
)
from .spectral import TorsionResult, torsion_function

# Multiplicative guard on the super-case threshold test, a few ulps wide, so
# that boundary points produced by inverting the threshold formula do not
# flip out of the region through rounding alone.
_THRESHOLD_GUARD = 1.0 + 1.0e-12

# Slack accepted when double-checking Phi(M) <= 1 numerically.
_BARRIER_SLACK = 1.0e-10

# Iteration cap of the sub-case Newton climb to Phi(M) = 1, which takes at
# most about eight steps.
_NEWTON_MAXITER = 30

SUPER, CRITICAL, SUB = "super", "critical", "sub"


@dataclass(frozen=True)
class ConstantsBundle:
    """Computed constants for one (problem, grid) pair.

    Attributes:
        phi_sup: sup of the torsion function of omega = max of the weights.
        khat: empirical gradient constant (1.1 x worst probe ratio).
        omega_sup: sup of omega.
        gamma: gradient bound per unit of barrier height,
            khat * omega_sup^(1/(p-1)) / phi_sup.
        coeff_sub: coefficient of lambda * t^(q-p) in the barrier function.
        coeff_grad: coefficient of beta * t^(r-p).
        unit_torsion_sup: sup of the torsion function of weight 1; a-priori
            sup bound for solutions with unit-size data.
        weighted_torsion: the torsion solve behind phi_sup (field included).
        grad_estimate: the probe family behind khat.
    """

    phi_sup: float
    khat: float
    omega_sup: float
    gamma: float
    coeff_sub: float
    coeff_grad: float
    unit_torsion_sup: float
    weighted_torsion: TorsionResult
    grad_estimate: GradConstantEstimate


@dataclass(frozen=True)
class RegionVerdict:
    """Classification of one (lambda, beta) point.

    threshold is the super-case admissibility bound K (None otherwise);
    height is the admissible barrier height M when in the region; margin is
    K - lambda^(r-p)*beta^(p-q) (super), 1/coeff_grad - beta (critical), or
    +inf (sub, where the whole quadrant is admissible).
    """

    case: str
    in_region: bool
    margin: float
    threshold: float | None = None
    height: float | None = None


def combined_weight(weights) -> ScalarField:
    """omega = max(omega1, omega2, omega3) from the sampled weight triple."""
    w1, w2, w3 = weights
    return w1.with_values(np.maximum(np.maximum(w1.values, w2.values),
                                     w3.values))


def compute_constants(spec: ProblemSpec, grid: Grid | None = None,
                      opts: SolveOptions | None = None,
                      solved: dict | None = None) -> ConstantsBundle:
    """Run the three computed stages and assemble the bundle.

    Assumes the growth hypotheses have already been validated for this spec
    (the driver does so before calling).  The probe family for the gradient
    constant is the default one extended by the nonzero weights and by omega
    itself; including omega makes the super-solution's gradient certificate
    hold by construction.

    The torsion weights and the probes often coincide (where every weight
    is 1, seven of the ten fields are the ones field).  Each distinct
    field is solved once per call; with grid, p and opts fixed this gives
    the bits a repeated solve would.  ``solved`` is an optional map of
    earlier cold solves, as in torsion_function: a field solved there on
    this grid with this p and opts is not solved again, and each new
    solution is added, so a caller that hands the same map to
    first_eigenpair spares it the torsion of omega1.  Without one the call
    keeps a map of its own, and nothing is reused across calls.
    """
    if grid is None:
        grid = spec.build_grid()
    weights = sample_weights(spec, grid)
    w1, w2, w3 = weights
    omega = combined_weight(weights)

    extra = [(name, w)
             for name, w in (("omega1", w1), ("omega2", w2), ("omega3", w3))
             if np.any(w.values > 0.0)]
    extra.append(("omega_max", omega))

    if solved is None:
        solved = {}  # the cold solves of this call only
    weighted = torsion_function(grid, spec.p, omega, opts, solved)
    unit = torsion_function(grid, spec.p,
                            ScalarField(grid, np.ones(grid.shape)), opts,
                            solved)
    estimate = estimate_grad_constant(grid, spec.p,
                                      default_probes(grid, extra), opts,
                                      solved)

    p, b = spec.p, spec.b
    phi_sup = weighted.phi_sup
    omega_sup = sup_norm(omega)
    gamma = estimate.khat * omega_sup ** (1.0 / (p - 1.0)) / phi_sup
    coeff_sub = phi_sup ** (p - 1.0)
    coeff_grad = (estimate.khat ** b * phi_sup ** (p - 1.0 - b)
                  * omega_sup ** (b / (p - 1.0)))
    return ConstantsBundle(phi_sup=phi_sup, khat=estimate.khat,
                           omega_sup=omega_sup, gamma=gamma,
                           coeff_sub=coeff_sub, coeff_grad=coeff_grad,
                           unit_torsion_sup=unit.phi_sup,
                           weighted_torsion=weighted, grad_estimate=estimate)


def growth_case(spec: ProblemSpec) -> str:
    """Which side of p the gradient growth r = a + b + 1 falls on."""
    if spec.r > spec.p:
        return SUPER
    if spec.r == spec.p:
        return CRITICAL
    return SUB


def _check_point(lam, beta):
    if not (math.isfinite(lam) and math.isfinite(beta)) or lam <= 0 or beta <= 0:
        raise ConfigurationError(
            f"lambda and beta must be positive and finite, got ({lam}, {beta})")


def barrier_value(t: float, lam: float, beta: float, c: ConstantsBundle,
                  spec: ProblemSpec) -> float:
    """Evaluate the barrier function Phi at height t > 0.

    Raises:
        ConfigurationError: the point is not positive and finite, t is not
            positive, or a power of t leaves the floating-point range.
    """
    _check_point(lam, beta)
    if not t > 0.0:
        raise ConfigurationError(f"barrier height must be positive, got {t}")
    p, q, r = spec.p, spec.q, spec.r
    try:
        return (lam * c.coeff_sub * t ** (q - p)
                + beta * c.coeff_grad * t ** (r - p))
    except OverflowError:
        raise ConfigurationError(
            f"(lambda, beta, t) = ({lam:.6g}, {beta:.6g}, {t:.6g}) is beyond "
            "the floating-point range of the barrier function") from None


def super_threshold(c: ConstantsBundle, spec: ProblemSpec) -> float:
    """Admissibility threshold K for the super case (r > p)."""
    p, q, r = spec.p, spec.q, spec.r
    if r <= p:
        raise ConfigurationError("threshold exists only for r > p")
    return (((r - p) / c.coeff_sub) ** (r - p)
            * ((p - q) / c.coeff_grad) ** (p - q)
            / (r - q) ** (r - q))


def _out_of_range(lam: float, beta: float, case: str) -> ConfigurationError:
    return ConfigurationError(
        f"(lambda, beta) = ({lam:.6g}, {beta:.6g}) is beyond the "
        f"floating-point range of the {case}-case barrier function")


def barrier_height(lam: float, beta: float, c: ConstantsBundle,
                   spec: ProblemSpec) -> float | None:
    """Smallest certified barrier height M with Phi(M) <= 1, or None.

    Super case: the minimizer of Phi, accepted only if Phi(M) <= 1 + 1e-10
    (a numerical double check of the threshold test, guarding against
    cancellation near the region boundary).  Critical case: closed form,
    requiring beta * coeff_grad < 1 strictly.  Sub case: the unique root of
    Phi(M) = 1, by Newton's method in s = log t on g(s) = log Phi(e^s) =
    logaddexp(a - (p-q) s, b - (p-r) s), with a = log(lambda * coeff_sub)
    and b = log(beta * coeff_grad).  g is convex and decreasing, so from
    s0 = max(a/(p-q), b/(p-r)), where one of Phi's two terms is 1, the steps
    climb to the root without a bracket; they stop when a step is at most
    1e-15 * max(1, |s|).  The stop is relative in M, so at an image
    (lambda s^(q-p), beta s^(r-p)) of a point of a homogeneous problem the
    height is M/s to rounding.  |Phi(M) - 1| <= 1e-10 is checked.

    Raises:
        ConfigurationError: the point is not positive and finite, or its
            height leaves the float range (M is 0 or inf, Phi(M) overflows,
            or in the sub case misses 1 by more than 1e-10 at the edge of
            the range), as at (1e-310, 1e-310) on the bundled ``sub``.
        IterationFailure: the sub-case Newton steps do not stop within
            _NEWTON_MAXITER.
    """
    _check_point(lam, beta)
    p, q, r = spec.p, spec.q, spec.r
    case = growth_case(spec)

    def phi(t):
        """Phi(t), for t and Phi(t) inside the float range."""
        value = math.nan
        if 0.0 < t < math.inf:
            try:
                value = barrier_value(t, lam, beta, c, spec)
            except ConfigurationError:  # a power of t overflowed
                pass
        if math.isnan(value):
            raise _out_of_range(lam, beta, case)
        return value

    if case == SUPER:
        try:
            m = (lam * c.coeff_sub * (p - q)
                 / (beta * c.coeff_grad * (r - p))) ** (1.0 / (r - q))
        except (OverflowError, ZeroDivisionError):
            m = math.nan  # phi rejects it
        if phi(m) > 1.0 + _BARRIER_SLACK:
            return None
        return m
    if case == CRITICAL:
        load = beta * c.coeff_grad
        if load >= 1.0:
            return None
        try:
            m = (lam * c.coeff_sub / (1.0 - load)) ** (1.0 / (p - q))
        except OverflowError:
            m = math.inf
        if not 0.0 < m < math.inf:
            raise _out_of_range(lam, beta, case)
        return m
    # sub case: Newton on the convex, decreasing g(s) = log Phi(e^s), from
    # a point where g >= 0, so no step passes the root
    dq, dr = p - q, p - r
    a = math.log(lam) + math.log(c.coeff_sub)
    b = math.log(beta) + math.log(c.coeff_grad)
    s = max(a / dq, b / dr)
    for _ in range(_NEWTON_MAXITER):
        x, y = a - dq * s, b - dr * s
        g = max(x, y) + math.log1p(math.exp(-abs(x - y)))  # logaddexp
        step = g / (dq * math.exp(x - g) + dr * math.exp(y - g))
        s += step
        if abs(step) <= 1.0e-15 * max(1.0, abs(s)):
            break
    else:
        raise IterationFailure(
            f"sub-case barrier height at ({lam:.6g}, {beta:.6g}): no stop in "
            f"{_NEWTON_MAXITER} Newton steps, last log M = {s!r}")
    try:
        m = math.exp(s)
    except OverflowError:
        m = math.inf  # phi rejects it
    if abs(phi(m) - 1.0) > _BARRIER_SLACK:
        raise _out_of_range(lam, beta, case)
    return m


def region_classify(lam: float, beta: float, c: ConstantsBundle,
                    spec: ProblemSpec) -> RegionVerdict:
    """Classify a parameter point against the existence region.

    Raises:
        ConfigurationError: as barrier_height, or where the super-case
            product lambda^(r-p) * beta^(p-q) overflows.
    """
    _check_point(lam, beta)
    p, q, r = spec.p, spec.q, spec.r
    case = growth_case(spec)
    if case == SUPER:
        k = super_threshold(c, spec)
        try:
            value = lam ** (r - p) * beta ** (p - q)
        except OverflowError:
            raise _out_of_range(lam, beta, case) from None
        inside = value <= k * _THRESHOLD_GUARD
        height = barrier_height(lam, beta, c, spec) if inside else None
        if inside and height is None:
            inside = False
        return RegionVerdict(case=case, in_region=inside, margin=k - value,
                             threshold=k, height=height)
    if case == CRITICAL:
        limit = 1.0 / c.coeff_grad
        inside = beta < limit
        height = barrier_height(lam, beta, c, spec) if inside else None
        return RegionVerdict(case=case, in_region=inside, margin=limit - beta,
                             height=height)
    return RegionVerdict(case=case, in_region=True, margin=math.inf,
                         height=barrier_height(lam, beta, c, spec))


def region_boundary(lambda_values, c: ConstantsBundle,
                    spec: ProblemSpec) -> list:
    """(lambda, beta) pairs tracing the region boundary over given lambdas.

    Super case: beta = (K / lambda^(r-p))^(1/(p-q)), which classifies
    in-region (boundary included); scaling beta up by 1e-6 leaves the region.
    Critical case: the excluded frontier beta = 1/coeff_grad.  Sub case:
    empty, the region has no finite boundary.

    Raises:
        ConfigurationError: a lambda is not positive and finite, or its
            super-case beta leaves the float range (0 or inf).
    """
    case = growth_case(spec)
    if case == SUB:
        return []
    p, q, r = spec.p, spec.q, spec.r
    out = []
    for lam in lambda_values:
        _check_point(lam, 1.0)
        if case == SUPER:
            k = super_threshold(c, spec)
            try:
                beta = (k / lam ** (r - p)) ** (1.0 / (p - q))
            except (OverflowError, ZeroDivisionError):
                beta = math.inf
            if not 0.0 < beta < math.inf:
                raise _out_of_range(lam, beta, case)
        else:
            beta = 1.0 / c.coeff_grad
        out.append((float(lam), float(beta)))
    return out
