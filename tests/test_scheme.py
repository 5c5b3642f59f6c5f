"""Monotone scheme tests: freezing, verification, inner and outer iteration."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plaplab.constants import compute_constants
from plaplab.errors import (
    ConfigurationError,
    HypothesisViolationError,
    InvariantViolation,
    IterationFailure,
    MonotonicityError,
    OutOfRegionError,
    StaleGradConstantError,
)
from plaplab import plap, scheme
from plaplab.expr import (
    ProblemSpec,
    bundled_problem_path,
    load_problem,
    evaluate_on,
    sample_weights,
    validate_hypotheses,
)
from plaplab.grid import (
    ScalarField,
    build_grid,
    field_from_function,
    gradient,
    sup_norm,
    zero_field,
)
from plaplab.plap import SolveOptions, check_comparison, solve_plap_dirichlet
from plaplab.scheme import (
    FrozenNonlinearity,
    freeze_nonlinearity,
    inner_monotone_solve,
    make_epsilon,
    outer_fixed_point,
    picone_diagnostic,
    verify_solution_bounds,
    verify_subsuper,
)
from plaplab.spectral import first_eigenpair, torsion_function


def make_spec(n=33, **overrides):
    base = dict(p=2.5, q=1.5, a=0.2, b=0.2,
                omega1="1", omega2="1", omega3="1",
                h="u ^ (q - 1)", f="u ^ a * gnorm ^ b",
                extents=(0.0, 1.0), resolution=n)
    base.update(overrides)
    return ProblemSpec(**base)


def parabola(grid, scale=1.0):
    return field_from_function(grid, lambda x: scale * x * (1.0 - x))


# ---------------------------------------------------------------------------
# freezing


def test_frozen_nonlinearity_formula_and_clamp():
    g = build_grid(((0.0, 1.0),), 9)
    F = FrozenNonlinearity(grid=g, coeff=np.full(g.shape, 2.0),
                           base=np.full(g.shape, 0.25), q=1.5)
    out = F.evaluate(np.full(g.shape, 4.0))
    assert np.allclose(out, 2.0 * 2.0 + 0.25)
    # negative states are rounding noise and must not poison the power
    assert np.all(np.isfinite(F.evaluate(np.full(g.shape, -1e-15))))
    assert np.allclose(F.evaluate(np.zeros(g.shape)), 0.25)


@settings(max_examples=25, deadline=None)
@given(scale=st.floats(min_value=1e-3, max_value=10.0),
       lam=st.floats(min_value=0.1, max_value=5.0),
       beta=st.floats(min_value=0.1, max_value=5.0))
def test_freeze_agrees_with_direct_evaluation(scale, lam, beta):
    """F_u(x, u(x)) must reproduce lam*h + beta*f at the freeze point."""
    spec = make_spec()
    g = spec.build_grid()
    u = parabola(g, scale)
    F = freeze_nonlinearity(u, lam, beta, spec, g)
    frozen_at_u = F.evaluate(u.values)
    gn = gradient(u).magnitude().values
    bindings = spec.coordinate_bindings(g)
    direct = (lam * evaluate_on(spec.h, {**bindings, "u": u.values})
              + beta * evaluate_on(spec.f, {**bindings, "u": u.values,
                                            "gnorm": gn}))
    scale_ref = np.maximum(1.0, np.abs(direct))
    assert np.all(np.abs(frozen_at_u - direct) <= 1e-12 * scale_ref)
    assert np.all(F.base >= 0.0)
    assert np.all(F.coeff >= 0.0)


def test_freeze_flags_hypothesis_violation_at_iterate():
    spec = make_spec(h="0.5 * u ^ (q - 1)")  # undercuts omega1 * u^(q-1)
    g = spec.build_grid()
    u = parabola(g)
    with pytest.raises(HypothesisViolationError) as err:
        freeze_nonlinearity(u, 1.0, 1.0, spec, g)
    assert err.value.node is not None
    assert err.value.values["u"] > 0.0


def test_freeze_and_validation_name_the_same_violated_bound():
    # h undercuts omega1 u^(q-1) by 1%, f doubles the omega3 bound: both
    # report the larger, second violation
    spec = make_spec(h="0.99 * u ^ (q - 1)", f="2 * u ^ a * gnorm ^ b")
    g = spec.build_grid()
    with pytest.raises(HypothesisViolationError) as err:
        freeze_nonlinearity(parabola(g), 1.0, 1.0, spec, g)
    check = validate_hypotheses(spec).check
    assert "omega3" in check
    assert f"'{check}'" in str(err.value)


def test_freeze_rejects_foreign_grid():
    spec = make_spec()
    with pytest.raises(ConfigurationError):
        freeze_nonlinearity(parabola(build_grid(((0.0, 1.0),), 17)),
                            1.0, 1.0, spec, spec.build_grid())


# ---------------------------------------------------------------------------
# epsilon


def test_make_epsilon_takes_the_smaller_branch():
    spec = make_spec()
    # branch 1: (lam/lambda1)^(1/(p-q)); branch 2: M/(lambda1^(1/(p-1)) phi)
    eps = make_epsilon(1.0, 16.0, 0.2, 0.19, spec)
    b1 = (1.0 / 16.0) ** 1.0
    b2 = 0.2 * 16.0 ** (-1.0 / 1.5) / 0.19
    assert eps == pytest.approx(min(b1, b2))
    with pytest.raises(ConfigurationError):
        make_epsilon(0.0, 16.0, 0.2, 0.19, spec)


# ---------------------------------------------------------------------------
# sub/super verification


@pytest.fixture(scope="module")
def sub_stage():
    """Shared pipeline ingredients for the bundled-style sub problem."""
    spec = make_spec(n=65)
    g = spec.build_grid()
    c = compute_constants(spec, g)
    eig = first_eigenpair(g, spec.p, sample_weights(spec, g)[0])
    return spec, g, c, eig


def test_verify_subsuper_accepts_the_barriers(sub_stage):
    spec, g, c, eig = sub_stage
    lam = beta = 1.0
    from plaplab.constants import region_classify
    m = region_classify(lam, beta, c, spec).height
    eps = make_epsilon(lam, eig.lambda1, m, c.phi_sup, spec)
    sub = ScalarField(g, eps * eig.u1.values)
    sup = ScalarField(g, (m / c.phi_sup) * c.weighted_torsion.phi.values)
    F = freeze_nonlinearity(sub, lam, beta, spec, g)
    rep_sup = verify_subsuper(sup, F, g, spec.p, "super")
    rep_sub = verify_subsuper(sub, F, g, spec.p, "sub")
    assert rep_sup.ok, rep_sup
    assert rep_sub.ok, rep_sub
    # the super-solution check must fail for a barrier that is far too low
    shrunk = ScalarField(g, 1e-3 * sup.values)
    assert not verify_subsuper(shrunk, F, g, spec.p, "super").ok


def test_verify_subsuper_validates_kind(sub_stage):
    spec, g, c, eig = sub_stage
    F = freeze_nonlinearity(zero_field(g), 1.0, 1.0, spec, g)
    with pytest.raises(ConfigurationError):
        verify_subsuper(zero_field(g), F, g, spec.p, "upper")


# ---------------------------------------------------------------------------
# inner monotone iteration


def test_inner_iteration_is_monotone_from_both_ends(sub_stage):
    spec, g, c, eig = sub_stage
    from plaplab.constants import region_classify
    lam = beta = 1.0
    m = region_classify(lam, beta, c, spec).height
    eps = make_epsilon(lam, eig.lambda1, m, c.phi_sup, spec)
    sub = ScalarField(g, eps * eig.u1.values)
    sup = ScalarField(g, (m / c.phi_sup) * c.weighted_torsion.phi.values)
    F = freeze_nonlinearity(sub, lam, beta, spec, g)

    down = inner_monotone_solve(F, sub, sup, g, spec.p, khat=c.khat)
    up = inner_monotone_solve(F, sub, sup, g, spec.p, start="sub",
                              khat=c.khat)
    slack = 1e-9 * sup_norm(sup)
    assert check_comparison(sub, down, slack) and check_comparison(down, sup, slack)
    assert check_comparison(sub, up, slack) and check_comparison(up, sup, slack)
    assert np.max(np.abs(down.values - up.values)) <= 1e-6 * m


def test_inner_iteration_rejects_crossed_barriers(sub_stage):
    spec, g, c, eig = sub_stage
    F = freeze_nonlinearity(zero_field(g), 1.0, 1.0, spec, g)
    lo = parabola(g, 2.0)
    hi = parabola(g, 1.0)
    with pytest.raises(ConfigurationError):
        inner_monotone_solve(F, lo, hi, g, spec.p)
    with pytest.raises(ConfigurationError):
        inner_monotone_solve(F, hi, lo, g, spec.p, start="middle")


def test_inner_iteration_detects_band_escape(sub_stage):
    """A frozen part far above the barrier load must blow the band check."""
    spec, g, c, eig = sub_stage
    sup = ScalarField(g, torsion_function(g, spec.p, sub_weight(g)).phi.values)
    F = FrozenNonlinearity(grid=g, coeff=np.zeros(g.shape),
                           base=np.full(g.shape, 50.0), q=spec.q)
    with pytest.raises(MonotonicityError):
        inner_monotone_solve(F, zero_field(g), sup, g, spec.p)


def test_inner_iteration_raises_when_sweep_budget_runs_out(sub_stage,
                                                           monkeypatch):
    spec, g, c, eig = sub_stage
    from plaplab.constants import region_classify
    m = region_classify(1.0, 1.0, c, spec).height
    eps = make_epsilon(1.0, eig.lambda1, m, c.phi_sup, spec)
    sub = ScalarField(g, eps * eig.u1.values)
    sup = ScalarField(g, (m / c.phi_sup) * c.weighted_torsion.phi.values)
    F = freeze_nonlinearity(sub, 1.0, 1.0, spec, g)
    monkeypatch.setattr(scheme, "INNER_MAX_SWEEPS", 1)
    with pytest.raises(IterationFailure, match="in 1 sweeps"):
        inner_monotone_solve(F, sub, sup, g, spec.p)


def sub_weight(grid):
    return field_from_function(grid, lambda x: np.ones_like(x))


# ---------------------------------------------------------------------------
# uniqueness diagnostic


def test_picone_gap_vanishes_for_identical_states(sub_stage):
    spec, g, c, eig = sub_stage
    F = freeze_nonlinearity(parabola(g), 1.0, 1.0, spec, g)
    u = parabola(g, 0.5)
    assert picone_diagnostic(u, u, F, g, spec.p) == 0.0


@settings(max_examples=25, deadline=None)
@given(s1=st.floats(min_value=0.05, max_value=2.0),
       s2=st.floats(min_value=0.05, max_value=2.0))
def test_picone_gap_is_nonpositive_for_frozen_maps(s1, s2):
    """For xi -> coeff*xi^(q-1) + base the density F/xi^(p-1) is decreasing,
    so the integrand (and the gap) cannot be positive for any pair."""
    spec = make_spec()
    g = spec.build_grid()
    F = freeze_nonlinearity(parabola(g), 1.0, 1.0, spec, g)
    U = parabola(g, s1)
    V = field_from_function(g, lambda x: s2 * np.sin(np.pi * x))
    assert picone_diagnostic(U, V, F, g, spec.p) <= 1e-15


def test_picone_requires_interior_positivity(sub_stage):
    spec, g, c, eig = sub_stage
    F = freeze_nonlinearity(parabola(g), 1.0, 1.0, spec, g)
    with pytest.raises(ConfigurationError):
        picone_diagnostic(zero_field(g), parabola(g), F, g, spec.p)


# ---------------------------------------------------------------------------
# solution bound certificates


def test_verify_solution_bounds_reports_gaps(sub_stage):
    spec, g, c, eig = sub_stage
    phi = c.weighted_torsion.phi
    m = 0.2
    eps = 0.05
    good = ScalarField(g, 0.5 * (eps * eig.u1.values
                                 + (m / c.phi_sup) * phi.values))
    check = verify_solution_bounds(good, eps, eig.u1, m, phi, c.gamma)
    assert check.lower_ok and check.upper_ok
    assert check.lower_gap <= 0.0 and check.upper_gap <= 0.0
    too_big = ScalarField(g, 2.0 * (m / c.phi_sup) * phi.values)
    bad = verify_solution_bounds(too_big, eps, eig.u1, m, phi, c.gamma)
    assert not bad.upper_ok
    assert bad.upper_gap > 0.0


# ---------------------------------------------------------------------------
# outer fixed point


def test_outer_run_certifies_on_the_sub_problem(sub_stage):
    spec, g, c, eig = sub_stage
    report = outer_fixed_point(spec, 1.0, 1.0, g, c, eig)
    assert report.converged
    assert report.outer_iters <= 50
    assert report.certificates.all_ok
    assert len(report.outer_trace) == report.outer_iters
    assert report.outer_trace[-1] < 1e-7 * report.height
    # the solution truly sits between the barriers
    assert sup_norm(report.solution) <= report.height * (1.0 + 1e-6)


def test_outer_budget_exhaustion_is_inconclusive_not_fatal(sub_stage):
    spec, g, c, eig = sub_stage
    report = outer_fixed_point(spec, 1.0, 1.0, g, c, eig, max_outer=1)
    assert not report.converged
    assert report.outer_iters == 1


def test_outer_rejects_out_of_region_points():
    spec = make_spec(p=2.0, q=1.5, a=1.0, b=1.0)  # r = 3 > p
    g = spec.build_grid()
    c = compute_constants(spec, g)
    with pytest.raises(OutOfRegionError):
        outer_fixed_point(spec, 10.0, 10.0, g, c)


def test_outer_detects_stale_gradient_constant(sub_stage):
    spec, g, c, eig = sub_stage
    doctored = dataclasses.replace(c, khat=1e-6 * c.khat)
    with pytest.raises(InvariantViolation):
        outer_fixed_point(spec, 1.0, 1.0, g, doctored, eig)


def test_square2d_outcome_does_not_hang_on_the_lu_ordering(monkeypatch):
    # the centre node of square2d is a symmetry point where f depends on
    # gnorm^0.2; a rounding-level gradient there must not decide the outcome
    spec = load_problem(bundled_problem_path("square2d"))
    grid = spec.build_grid()
    constants = compute_constants(spec, grid)
    mmd = outer_fixed_point(spec, 2.0, 0.1, grid, constants)
    splu = plap.spla.splu
    monkeypatch.setattr(plap.spla, "splu", lambda matrix, permc_spec=None:
                        splu(matrix, permc_spec="COLAMD"))
    colamd = outer_fixed_point(spec, 2.0, 0.1, grid, constants)
    assert mmd.converged and colamd.converged
    assert colamd.certificates.pde_residual == pytest.approx(
        mmd.certificates.pde_residual, rel=1e-9)


# ---------------------------------------------------------------------------
# one kept factor per inner iteration


@pytest.fixture(scope="module")
def square2d_stage():
    """square2d on a 9x9 grid with its constants and eigenpair."""
    spec = dataclasses.replace(load_problem(bundled_problem_path("square2d")),
                               resolution=(9, 9))
    g = spec.build_grid()
    c = compute_constants(spec, g)
    eig = first_eigenpair(g, spec.p, sample_weights(spec, g)[0])
    return spec, g, c, eig


def counting(monkeypatch, module, name):
    """Route ``module.name`` through a wrapper; returns its call list."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_inner_solves_share_factors_on_2d_grids(square2d_stage, monkeypatch):
    spec, g, c, eig = square2d_stage
    factors = counting(monkeypatch, plap, "_try_solve")
    solves = counting(monkeypatch, scheme, "solve_plap_dirichlet")
    report = outer_fixed_point(spec, 1.0, 1.0, g, c, eig)
    assert report.converged
    # one factorization per Newton step would make at least one per solve
    assert 0 < len(factors) < len(solves)


def test_every_factorization_goes_through_try_solve(square2d_stage,
                                                    monkeypatch):
    # the benchmark's tracer counts factorizations as _try_solve calls
    spec, g, c, eig = square2d_stage
    splu = counting(monkeypatch, plap.spla, "splu")
    factors = counting(monkeypatch, plap, "_try_solve")
    outer_fixed_point(spec, 1.0, 1.0, g, c, eig)
    assert len(splu) == len(factors) > 0


def report_bytes(report):
    """Every value of a SolveReport, with the solution as bytes."""
    fields = dataclasses.asdict(report)
    fields["solution"] = report.solution.values.tobytes()
    return fields


def test_no_factor_outlives_an_inner_iteration(square2d_stage, monkeypatch):
    spec, g, c, eig = square2d_stage
    inner_calls = counting(monkeypatch, scheme, "inner_monotone_solve")
    holders = []  # one per inner iteration, empty at its first solve

    def recording(*args, factor, **kwargs):
        if not holders or factor is not holders[-1]:
            assert factor == [] and all(factor is not h for h in holders)
            holders.append(factor)
        return solve_plap_dirichlet(*args, factor=factor, **kwargs)

    monkeypatch.setattr(scheme, "solve_plap_dirichlet", recording)
    first = outer_fixed_point(spec, 1.0, 1.0, g, c, eig)
    outer_fixed_point(spec, 0.5, 2.0, g, c, eig)
    again = outer_fixed_point(spec, 1.0, 1.0, g, c, eig)
    assert len(holders) == len(inner_calls)
    assert report_bytes(again) == report_bytes(first)


def test_1d_inner_iteration_keeps_no_factor(sub_stage, monkeypatch):
    # a banded solve factors and solves in one LAPACK call
    spec, g, c, eig = sub_stage
    from plaplab.constants import region_classify
    m = region_classify(1.0, 1.0, c, spec).height
    eps = make_epsilon(1.0, eig.lambda1, m, c.phi_sup, spec)
    sub = ScalarField(g, eps * eig.u1.values)
    sup = ScalarField(g, (m / c.phi_sup) * c.weighted_torsion.phi.values)
    F = freeze_nonlinearity(sub, 1.0, 1.0, spec, g)
    holders = []

    def recording(*args, factor, **kwargs):
        u = solve_plap_dirichlet(*args, factor=factor, **kwargs)
        holders.append(list(factor))
        return u

    monkeypatch.setattr(scheme, "solve_plap_dirichlet", recording)
    kept = inner_monotone_solve(F, sub, sup, g, spec.p, khat=c.khat)
    assert holders and all(h == [] for h in holders)
    monkeypatch.setattr(scheme, "solve_plap_dirichlet",
                        lambda *args, factor, **kwargs:
                        solve_plap_dirichlet(*args, **kwargs))
    without = inner_monotone_solve(F, sub, sup, g, spec.p, khat=c.khat)
    assert kept.values.tobytes() == without.values.tobytes()


def test_stale_constant_error_is_an_invariant_violation():
    assert issubclass(StaleGradConstantError, InvariantViolation)
    assert issubclass(MonotonicityError, InvariantViolation)
