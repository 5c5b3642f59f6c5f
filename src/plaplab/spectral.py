"""Torsion function and first eigenpair of the weighted p-Laplacian.

The torsion function of a weight w >= 0 solves -Lap_p phi = w with zero
boundary values; its sup norm feeds every constant downstream.  On [0, L]
with w == 1 the closed form is ||phi||_inf = (p-1)/p * (L/2)^(p/(p-1)).

The first eigenpair of  -Lap_p u = lambda * omega1 * u^(p-1)  comes from
inverse power iteration: repeatedly solve

    v = solve(omega1 * u_k^(p-1)),    u_{k+1} = v / ||v||_inf,

starting from the torsion function of omega1 (positive, with the right
boundary behavior).  At the fixed point the normalization constant carries the
eigenvalue: lambda1 = (1 / ||v||_inf)^(p-1), which certifies itself -- the
residual of the eigen-equation is at solver-tolerance level, independent of
any quadrature.  The Rayleigh quotient is kept as a separate diagnostic; in
1d, evaluated with face-midpoint gradient quadrature, it coincides with the
fixed-point eigenvalue because the discrete operator is the exact gradient of
the discrete energy.

Eigenvalues scale inversely with the weight: lambda1(t * omega1) =
lambda1(omega1) / t, exactly at the discrete level.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    EigenFailure,
    GridMismatchError,
    InvariantViolation,
)
from .grid import (
    Grid,
    ScalarField,
    _faces,
    _slope2,
    integrate,
    p_laplacian_apply,
    sup_norm,
)
from .plap import (
    SolveOptions,
    _cold_solve,
    operator_value,
    solve_plap_dirichlet,
)

log = logging.getLogger(__name__)

# Relative sup-norm residual the returned eigenpair must satisfy.
EIGEN_RESIDUAL_REL = 1.0e-5
# Relative change (eigenvalue and normalized field) that stops the iteration.
EIGEN_STOP = 1.0e-8
# Inverse-iteration sweeps allowed before EigenFailure.
EIGEN_MAX_SWEEPS = 200


@dataclass(frozen=True)
class TorsionResult:
    """Torsion function and its sup norm."""

    phi: ScalarField
    phi_sup: float


@dataclass(frozen=True)
class EigenPair:
    """First eigenvalue and sup-normalized positive eigenfunction."""

    lambda1: float
    u1: ScalarField


def _check_weight(w: ScalarField, grid: Grid, name: str):
    if w.grid != grid:
        raise GridMismatchError(f"{name} lives on a different grid")
    if np.any(w.values < 0.0):
        raise ConfigurationError(f"{name} must be nonnegative")
    if not np.any(w.values > 0.0):
        raise ConfigurationError(f"{name} is identically zero")


def torsion_function(grid: Grid, p: float, w: ScalarField,
                     opts: SolveOptions | None = None,
                     solved: dict | None = None) -> TorsionResult:
    """Solve -Lap_p phi = w, phi = 0 on the boundary, for a weight w >= 0.

    ``solved`` is an optional map of earlier cold solves (see
    plap._cold_solve): a weight solved there on this grid with this p and
    opts is not solved again, and a new solution is added.

    Raises:
        ConfigurationError: if the weight is negative somewhere or all zero.
        InvariantViolation: if the computed phi fails interior positivity.
    """
    _check_weight(w, grid, "torsion weight")
    phi = _cold_solve(grid, p, w, opts, solved)
    interior_min = float(np.min(phi.values[grid.interior]))
    if interior_min <= 0.0:
        raise InvariantViolation(
            f"torsion function not positive inside (min {interior_min:.3e}); "
            "discrete comparison failed")
    return TorsionResult(phi=phi, phi_sup=sup_norm(phi))


def first_eigenpair(grid: Grid, p: float, omega1: ScalarField,
                    opts: SolveOptions | None = None,
                    solved: dict | None = None) -> EigenPair:
    """First eigenpair of -Lap_p u = lambda * omega1 * u^(p-1) by inverse
    power iteration.

    The start is the torsion function of omega1.  ``solved`` is an optional
    map of earlier cold solves, as in torsion_function: the start is read
    from it when compute_constants has put omega1 there, as a probe, and
    solved afresh otherwise; a cold solve gives the same bits either way.
    The sweeps share one kept LU factor (the chord steps of
    plap.solve_plap_dirichlet): successive right-hand sides differ little,
    so one factor stays a good linear model for many sweeps.  The factor
    lives for this call only, so the pair never depends on what was solved
    before it.  Each sweep starts from the OperatorValue of the last one's
    solution, which that solve returned, bit for bit the value it would
    compute; the first starts from the torsion function's, computed once.

    Stops when successive eigenvalue estimates agree to 1e-8 relative and the
    sup-normalized field moves less than 1e-8.  The returned pair satisfies
    ||Lap_p-residual||_inf <= 1e-5 * lambda1 * ||omega1||_inf.

    Raises:
        ConfigurationError: a bad weight.
        EigenFailure: no convergence within EIGEN_MAX_SWEEPS sweeps, or the
            converged pair misses the residual certificate.
    """
    _check_weight(omega1, grid, "omega1")
    wv = omega1.values
    start = torsion_function(grid, p, omega1, opts, solved)
    u = start.phi.values / start.phi_sup
    value = operator_value(start.phi, p)  # the next sweep's start
    lam = None
    factor = []  # the sweeps' shared kept LU factor, for this call only
    for sweep in range(1, EIGEN_MAX_SWEEPS + 1):
        rhs = ScalarField(grid, wv * u ** (p - 1.0))
        value = solve_plap_dirichlet(grid, p, rhs, opts, initial_guess=value,
                                     factor=factor)
        v = value.field
        scale = sup_norm(v)
        if scale == 0.0:
            raise EigenFailure("inverse iteration collapsed to zero")
        u_next = v.values / scale
        lam_next = scale ** -(p - 1.0)
        shift = float(np.max(np.abs(u_next - u)))
        done = (lam is not None
                and abs(lam_next - lam) < EIGEN_STOP * lam_next
                and shift < EIGEN_STOP)
        u, lam = u_next, lam_next
        log.debug("eigen sweep %d: lambda=%.12g shift=%.3e", sweep, lam, shift)
        if done:
            break
    else:
        raise EigenFailure(
            f"no eigen convergence in {EIGEN_MAX_SWEEPS} sweeps "
            f"(lambda ~ {lam:.6g})")

    u1 = ScalarField(grid, u)
    if float(np.min(u[grid.interior])) <= 0.0:
        raise InvariantViolation("eigenfunction not positive at interior nodes")
    eigres = p_laplacian_apply(u1, p).values - lam * wv * u ** (p - 1.0)
    residual = float(np.max(np.abs(eigres[grid.interior])))
    allowed = EIGEN_RESIDUAL_REL * lam * sup_norm(omega1)
    if residual > allowed:
        raise EigenFailure(
            f"eigen residual {residual:.3e} exceeds certificate {allowed:.3e}")
    return EigenPair(lambda1=lam, u1=u1)


def rayleigh_quotient(u: ScalarField, omega1: ScalarField, p: float) -> float:
    """Diagnostic quotient int |grad u|^p / int omega1 |u|^p.

    The numerator uses face-midpoint gradients (the discrete energy of the
    operator), averaged over the face families; in 1d this makes the quotient
    of a converged eigenfunction equal the fixed-point eigenvalue to solver
    accuracy.  In 2d each face family lies on interior transverse lines only,
    so the boundary strips drop out of the numerator and the quotient
    converges at first order in h: a diagnostic, not an eigenvalue estimate.
    """
    grid = u.grid
    faces = _faces(u.values, grid.spacing)
    energy = sum(float(np.sum(_slope2(s, t) ** (p / 2.0))) for s, t in faces)
    num = energy / len(faces) * math.prod(grid.spacing)
    den = integrate(ScalarField(grid, omega1.values * np.abs(u.values) ** p))
    if den == 0.0:
        raise ConfigurationError("Rayleigh quotient undefined: zero denominator")
    return num / den
