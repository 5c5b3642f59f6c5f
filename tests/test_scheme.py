"""Monotone scheme tests: freezing, verification, inner and outer iteration."""

import dataclasses
import math
from typing import NamedTuple

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from plaplab.constants import (
    compute_constants,
    region_boundary,
    region_classify,
)
from plaplab.errors import (
    ConfigurationError,
    GridMismatchError,
    HypothesisViolationError,
    InvariantViolation,
    IterationFailure,
    MonotonicityError,
    OutOfRegionError,
    SolveFailure,
    StaleGradConstantError,
)
from plaplab import grid as grid_module, plap, scheme
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
    p_laplacian_apply,
    sup_norm,
    zero_field,
)
from plaplab.plap import (
    SolveOptions,
    operator_value,
    solve_plap_dirichlet,
)
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


def values(spec, *fields):
    """The OperatorValue of each field at spec.p."""
    return tuple(operator_value(u, spec.p) for u in fields)


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
    F = freeze_nonlinearity(u, lam, beta, spec)
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
        freeze_nonlinearity(u, 1.0, 1.0, spec)
    assert err.value.node is not None
    assert err.value.values["u"] > 0.0


def test_freeze_and_validation_name_the_same_violated_bound():
    # h undercuts omega1 u^(q-1) by 1%, f doubles the omega3 bound: both
    # report the larger, second violation
    spec = make_spec(h="0.99 * u ^ (q - 1)", f="2 * u ^ a * gnorm ^ b")
    g = spec.build_grid()
    with pytest.raises(HypothesisViolationError) as err:
        freeze_nonlinearity(parabola(g), 1.0, 1.0, spec)
    check = validate_hypotheses(spec).check
    assert "omega3" in check
    assert f"'{check}'" in str(err.value)


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


@pytest.mark.parametrize("position", range(4))
def test_make_epsilon_rejects_a_nan_input(position):
    inputs = [1.0, 16.0, 0.2, 0.19]
    inputs[position] = math.nan
    with pytest.raises(ConfigurationError, match="positive inputs"):
        make_epsilon(*inputs, make_spec())


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
    F = freeze_nonlinearity(sub, lam, beta, spec)
    rep_sup = verify_subsuper(operator_value(sup, spec.p), F, "super")
    rep_sub = verify_subsuper(operator_value(sub, spec.p), F, "sub")
    assert rep_sup.ok, rep_sup
    assert rep_sub.ok, rep_sub
    # the super-solution check must fail for a barrier that is far too low
    shrunk = ScalarField(g, 1e-3 * sup.values)
    assert not verify_subsuper(operator_value(shrunk, spec.p), F, "super").ok


def test_verify_subsuper_reads_the_candidates_own_lap(sub_stage):
    # the defect is taken against the value's lap, not a recomputed one
    spec, g, c, eig = sub_stage
    sup = parabola(g)
    F = freeze_nonlinearity(sup, 1.0, 1.0, spec)
    value = operator_value(sup, spec.p)
    shifted = value._replace(lap=value.lap - 1.0)
    assert verify_subsuper(value, F, "super").worst_violation + 1.0 == \
        pytest.approx(verify_subsuper(shifted, F, "super").worst_violation)


def test_verify_subsuper_rejects_a_small_violation_on_a_small_problem():
    # critical at lambda = 0.1 has M of about 1.6e-4 and ||Lap_p sup|| of
    # about 1.3e-3: a candidate 1e-8 to 3e-8 short of a supersolution must
    # fail there, though an absolute tolerance floor of 1e-7 would pass it
    spec = dataclasses.replace(load_problem(bundled_problem_path("critical")),
                               resolution=33)
    g = spec.build_grid()
    c = compute_constants(spec, g)
    eig = first_eigenpair(g, spec.p, sample_weights(spec, g)[0])
    lam = beta = 0.1
    m = region_classify(lam, beta, c, spec).height
    eps = make_epsilon(lam, eig.lambda1, m, c.phi_sup, spec)
    sub = ScalarField(g, eps * eig.u1.values)
    sup = ScalarField(g, (m / c.phi_sup) * c.weighted_torsion.phi.values)
    F = freeze_nonlinearity(sub, lam, beta, spec)
    assert verify_subsuper(operator_value(sup, spec.p), F, "super").ok

    def shrunk(s):
        return operator_value(sup.with_values(s * sup.values), spec.p)

    # scale the upper barrier down until its defect falls 2e-8 short
    lo, hi = 0.5, 1.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        rep = verify_subsuper(shrunk(mid), F, "super")
        if rep.worst_violation > 2e-8:
            lo = mid
        else:
            hi = mid
    v = shrunk(lo)
    rep = verify_subsuper(v, F, "super")
    assert 1e-8 <= rep.worst_violation <= 3e-8
    assert not rep.ok
    assert rep.tol == scheme.SUBSUPER_TOL_REL * sup_norm(
        p_laplacian_apply(v.field, spec.p))


def test_verify_subsuper_validates_kind(sub_stage):
    spec, g, c, eig = sub_stage
    F = freeze_nonlinearity(zero_field(g), 1.0, 1.0, spec)
    with pytest.raises(ConfigurationError):
        verify_subsuper(operator_value(zero_field(g), spec.p), F, "upper")


def square_spec(n):
    return dataclasses.replace(load_problem(bundled_problem_path("square2d")),
                               resolution=(n, n))


def bump(grid, scale=1.0):
    """scale * prod (x - lo)(hi - x) over the axes of the grid."""
    return ScalarField(grid, scale * np.prod(
        [(x - lo) * (hi - x) for x, (lo, hi) in zip(grid.meshes(),
                                                     grid.extents)], axis=0))


def frozen_at_a_bump(spec):
    return freeze_nonlinearity(bump(spec.build_grid()), 1.0, 1.0, spec)


# a 1D map of 33 nodes broadcasts against a 33x33 candidate, and a 17x17
# map does not broadcast at all: neither may pass or fail as numpy has it
OTHER_MAPS = [pytest.param(lambda: make_spec(n=33), id="1d-33"),
              pytest.param(lambda: square_spec(17), id="2d-17")]


@pytest.mark.parametrize("map_spec", OTHER_MAPS)
def test_verify_subsuper_rejects_a_map_on_another_grid(map_spec):
    spec = square_spec(33)
    candidate = operator_value(bump(spec.build_grid()), spec.p)
    F = frozen_at_a_bump(map_spec())
    with pytest.raises(GridMismatchError):
        verify_subsuper(candidate, F, "super")


@pytest.mark.parametrize("map_spec", OTHER_MAPS)
def test_picone_rejects_a_map_on_another_grid(map_spec):
    spec = square_spec(33)
    u = bump(spec.build_grid())
    with pytest.raises(GridMismatchError):
        picone_diagnostic(u, u, frozen_at_a_bump(map_spec()), spec.p)


def test_freeze_rejects_a_gradient_on_another_grid():
    # same shape, another box: its gradient would pass for u's
    spec = make_spec(n=33)
    u = parabola(spec.build_grid())
    other = parabola(build_grid(((0.0, 2.0),), 33))
    with pytest.raises(GridMismatchError):
        freeze_nonlinearity(u, 1.0, 1.0, spec, grad=gradient(other))


def test_two_states_or_barriers_on_two_grids_are_a_grid_mismatch():
    spec = make_spec(n=33)
    u = parabola(spec.build_grid())
    other = parabola(build_grid(((0.0, 2.0),), 33))
    F = frozen_at_a_bump(spec)
    with pytest.raises(GridMismatchError):
        picone_diagnostic(u, other, F, spec.p)
    with pytest.raises(GridMismatchError):
        inner_monotone_solve(F, *values(spec, u, other))


@pytest.mark.parametrize("map_spec", OTHER_MAPS)
def test_inner_iteration_rejects_a_map_on_another_grid(map_spec):
    spec = square_spec(33)
    g = spec.build_grid()
    lower, upper = values(spec, bump(g, 0.5), bump(g))
    with pytest.raises(GridMismatchError):
        inner_monotone_solve(frozen_at_a_bump(map_spec()), lower, upper)


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
    F = freeze_nonlinearity(sub, lam, beta, spec)
    lower, upper = values(spec, sub, sup)

    down = inner_monotone_solve(F, lower, upper, khat=c.khat).field
    up = inner_monotone_solve(F, lower, upper, start="sub",
                              khat=c.khat).field
    slack = 1e-9 * sup_norm(sup)
    for u in (down, up):
        assert np.all(sub.values <= u.values + slack)
        assert np.all(u.values <= sup.values + slack)
    assert np.max(np.abs(down.values - up.values)) <= 1e-6 * m


def test_inner_iteration_rejects_crossed_barriers(sub_stage):
    spec, g, c, eig = sub_stage
    F = freeze_nonlinearity(zero_field(g), 1.0, 1.0, spec)
    lo, hi = values(spec, parabola(g, 2.0), parabola(g, 1.0))
    with pytest.raises(ConfigurationError):
        inner_monotone_solve(F, lo, hi)
    with pytest.raises(ConfigurationError):
        inner_monotone_solve(F, hi, lo, start="middle")


def test_inner_iteration_detects_band_escape(sub_stage):
    """A frozen part far above the barrier load must blow the band check."""
    spec, g, c, eig = sub_stage
    sup = ScalarField(g, torsion_function(g, spec.p, sub_weight(g)).phi.values)
    F = FrozenNonlinearity(grid=g, coeff=np.zeros(g.shape),
                           base=np.full(g.shape, 50.0), q=spec.q)
    with pytest.raises(MonotonicityError):
        inner_monotone_solve(F, *values(spec, zero_field(g), sup))


def test_inner_iteration_raises_when_sweep_budget_runs_out(sub_stage,
                                                           monkeypatch):
    spec, g, c, eig = sub_stage
    from plaplab.constants import region_classify
    m = region_classify(1.0, 1.0, c, spec).height
    eps = make_epsilon(1.0, eig.lambda1, m, c.phi_sup, spec)
    sub = ScalarField(g, eps * eig.u1.values)
    sup = ScalarField(g, (m / c.phi_sup) * c.weighted_torsion.phi.values)
    F = freeze_nonlinearity(sub, 1.0, 1.0, spec)
    monkeypatch.setattr(scheme, "INNER_MAX_SWEEPS", 1)
    with pytest.raises(IterationFailure, match="in 1 sweeps"):
        inner_monotone_solve(F, *values(spec, sub, sup))


def sub_inner_problem(sub_stage, lam=1.0, beta=1.0):
    """The frozen map of the first outer step at a point, and the values of
    its barriers."""
    spec, g, c, eig = sub_stage
    m = region_classify(lam, beta, c, spec).height
    eps = make_epsilon(lam, eig.lambda1, m, c.phi_sup, spec)
    sub = ScalarField(g, eps * eig.u1.values)
    sup = ScalarField(g, (m / c.phi_sup) * c.weighted_torsion.phi.values)
    return (freeze_nonlinearity(sub, lam, beta, spec),
            *values(spec, sub, sup))


def recording_sweeps(monkeypatch):
    """Route the inner sweeps' solves through a recorder; returns a list of
    (right-hand side, tol_residual, initial guess, result) per solve, the
    guess and the result as OperatorValues."""
    sweeps = []

    def recorded(grid, p, g, opts, **kwargs):
        u = solve_plap_dirichlet(grid, p, g, opts, **kwargs)
        sweeps.append((g, opts.tol_residual, kwargs["initial_guess"], u))
        return u

    monkeypatch.setattr(scheme, "solve_plap_dirichlet", recorded)
    return sweeps


def full_tolerance():
    return scheme._support_tolerance(SolveOptions()).tol_residual


def assert_full_contract(limit, sweeps, p, tol):
    """The limit is the last solve's result, solved at the full tolerance
    against F at the previous iterate, and meets that residual contract."""
    g, last_tol, _, u = sweeps[-1]
    assert u.field is limit and last_tol == tol
    residual = np.abs(p_laplacian_apply(limit, p).values
                      - g.values)[limit.grid.interior].max()
    assert residual <= tol * sup_norm(g)


@pytest.mark.parametrize("lam, beta", [(1.0, 1.0), (2.0, 0.1), (0.1, 2.0)])
def test_forced_sweeps_keep_the_sweeps_and_the_limit(sub_stage, monkeypatch,
                                                     lam, beta):
    spec, g, c, eig = sub_stage
    F, sub, sup = sub_inner_problem(sub_stage, lam, beta)
    tol = full_tolerance()
    sweeps = recording_sweeps(monkeypatch)
    forced = inner_monotone_solve(F, sub, sup, khat=c.khat).field
    tols = [t for _, t, _, _ in sweeps]
    assert tols[0] == tol and max(tols) > tol  # the forcing is on
    assert_full_contract(forced, sweeps, spec.p, tol)

    count = len(sweeps)
    sweeps.clear()
    monkeypatch.setattr(scheme, "INNER_FORCING", 0.0)
    exact = inner_monotone_solve(F, sub, sup, khat=c.khat).field
    assert all(t == tol for _, t, _, _ in sweeps)
    assert len(sweeps) == count
    stop = scheme.INNER_STOP_REL * sup_norm(sup.field)
    assert np.abs(forced.values - exact.values).max() < stop


def test_a_forced_stopping_sweep_is_solved_again_at_full_tolerance(
        sub_stage, monkeypatch):
    # so large a forcing fraction lets the second sweep return its start,
    # which passes the stop test at once
    spec, g, c, eig = sub_stage
    F, sub, sup = sub_inner_problem(sub_stage)
    tol = full_tolerance()
    monkeypatch.setattr(scheme, "INNER_FORCING", 1.0e3)
    sweeps = recording_sweeps(monkeypatch)
    limit = inner_monotone_solve(F, sub, sup, khat=c.khat).field
    (g1, t1, _, u1), (g2, t2, guess, _) = sweeps[-2:]
    assert t1 > tol  # the stopping sweep was forced
    assert g2.values.tobytes() == g1.values.tobytes() and guess is u1
    assert_full_contract(limit, sweeps, spec.p, tol)


def sub_weight(grid):
    return field_from_function(grid, lambda x: np.ones_like(x))


# ---------------------------------------------------------------------------
# uniqueness diagnostic


def test_picone_gap_vanishes_for_identical_states(sub_stage):
    spec, g, c, eig = sub_stage
    F = freeze_nonlinearity(parabola(g), 1.0, 1.0, spec)
    u = parabola(g, 0.5)
    assert picone_diagnostic(u, u, F, spec.p) == 0.0


@settings(max_examples=25, deadline=None)
@given(s1=st.floats(min_value=0.05, max_value=2.0),
       s2=st.floats(min_value=0.05, max_value=2.0))
def test_picone_gap_is_nonpositive_for_frozen_maps(s1, s2):
    """For xi -> coeff*xi^(q-1) + base the density F/xi^(p-1) is decreasing,
    so the integrand (and the gap) cannot be positive for any pair."""
    spec = make_spec()
    g = spec.build_grid()
    F = freeze_nonlinearity(parabola(g), 1.0, 1.0, spec)
    U = parabola(g, s1)
    V = field_from_function(g, lambda x: s2 * np.sin(np.pi * x))
    assert picone_diagnostic(U, V, F, spec.p) <= 1e-15


def test_picone_requires_interior_positivity(sub_stage):
    spec, g, c, eig = sub_stage
    F = freeze_nonlinearity(parabola(g), 1.0, 1.0, spec)
    with pytest.raises(ConfigurationError):
        picone_diagnostic(zero_field(g), parabola(g), F, spec.p)


# ---------------------------------------------------------------------------
# solution bound certificates


def test_verify_solution_bounds_reports_gaps(sub_stage):
    spec, g, c, eig = sub_stage
    phi = c.weighted_torsion.phi
    m = 0.2
    eps = 0.05
    sub = ScalarField(g, eps * eig.u1.values)
    sup = ScalarField(g, (m / c.phi_sup) * phi.values)
    good = ScalarField(g, 0.5 * (sub.values + sup.values))
    assert verify_solution_bounds(good, sub, sup, m, c.gamma) == []
    too_big = ScalarField(g, 2.0 * sup.values)
    bad = verify_solution_bounds(too_big, sub, sup, m, c.gamma)
    allowed = scheme.MEMBERSHIP_SLACK_REL * m
    assert f"upper barrier gap {m:.3e} over allowed {allowed:.1e}" in bad
    assert not any(v.startswith(("lower barrier", "positivity")) for v in bad)
    # positivity has no slack: a node at -0.5 * allowed passes the lower
    # barrier check where sub is that small, but not this one
    dip = good.values.copy()
    dip[1] = -0.5 * allowed
    tiny = sub.values.copy()
    tiny[1] = 0.0
    low = verify_solution_bounds(ScalarField(g, dip), ScalarField(g, tiny),
                                 sup, m, c.gamma)
    assert low == [f"positivity: interior minimum {-0.5 * allowed:.3e} "
                   "is not above 0"]


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


# each stopping rule loosened until one verdict fails on the bundled sub
# problem at (1, 1): the outer rule stops 6 steps in, 2.2 times over the
# residual allowed; a loose inner rule leaves the two limits 2.3 (1e-5) and
# 115 (1e-3) times farther apart than allowed, and at 1e-3 the Picone gap
# 2.2 times over its allowed value
LOOSE_STOPPING_RULES = [("OUTER_STOP_REL", 1e-3, "residual_ok"),
                        ("INNER_STOP_REL", 1e-5, "two_sided_ok"),
                        ("INNER_STOP_REL", 1e-3, "picone_ok")]


@pytest.mark.parametrize("rule,value,verdict", LOOSE_STOPPING_RULES)
def test_a_failed_verdict_leaves_the_run_unconverged(rule, value, verdict,
                                                     monkeypatch):
    monkeypatch.setattr(scheme, rule, value)
    spec = load_problem(bundled_problem_path("sub"))
    report = outer_fixed_point(spec, 1.0, 1.0)
    assert not getattr(report.certificates, verdict)
    assert not report.certificates.all_ok
    assert not report.converged


@pytest.mark.parametrize("max_outer", [0, -1])
def test_outer_rejects_a_budget_below_one(sub_stage, max_outer):
    spec, g, c, eig = sub_stage
    with pytest.raises(ConfigurationError, match="max_outer"):
        outer_fixed_point(spec, 1.0, 1.0, g, c, eig, max_outer=max_outer)


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


def test_outer_takes_the_gradient_of_each_field_once(sub_stage, monkeypatch):
    # a Newton limit's gradient check, its invariant-set check and the C1
    # move of its step read one gradient
    spec, g, c, eig = sub_stage
    seen = []

    def recorded(u):
        seen.append(u.values.tobytes())
        return gradient(u)

    for module in (plap, scheme):
        monkeypatch.setattr(module, "gradient", recorded)
    report = outer_fixed_point(spec, 1.0, 1.0, g, c, eig)
    assert report.converged and report.outer_iters > 1
    assert len(seen) == len(set(seen))


def test_a_bare_outer_run_solves_each_distinct_field_once(monkeypatch):
    # the run computes its constants and its eigenpair itself; the eigen
    # start reads omega1's torsion from the constants' map
    cold = []
    original = plap.solve_plap_dirichlet

    def counted(grid, p, g, *args, **kwargs):
        cold.append(g.values.tobytes())
        return original(grid, p, g, *args, **kwargs)

    monkeypatch.setattr(plap, "solve_plap_dirichlet", counted)
    assert outer_fixed_point(make_spec(n=17), 1.0, 1.0).converged
    assert len(cold) == len(set(cold)) == 4


def test_outer_step_leaving_the_invariant_set_raises(sub_stage, monkeypatch):
    spec, g, c, eig = sub_stage

    def overshoot(F, sub, sup, *args, **kwargs):
        return operator_value(sup.field.with_values(1.5 * sup.field.values),
                              sup.p)

    monkeypatch.setattr(scheme, "inner_monotone_solve", overshoot)
    height = region_classify(1.0, 1.0, c, spec).height
    allowed = scheme.MEMBERSHIP_SLACK_REL * height
    with pytest.raises(InvariantViolation) as exc:
        outer_fixed_point(spec, 1.0, 1.0, g, c, eig)
    message = str(exc.value)
    assert "outer iterate 1 left the invariant set" in message
    assert f"upper barrier gap {0.5 * height:.3e}" in message
    assert f"over allowed {allowed:.1e}" in message


def bundled_stage(name, **overrides):
    """A bundled problem, with its constants and eigenpair."""
    spec = dataclasses.replace(load_problem(bundled_problem_path(name)),
                               **overrides)
    g = spec.build_grid()
    c = compute_constants(spec, g)
    eig = first_eigenpair(g, spec.p, sample_weights(spec, g)[0])
    return spec, g, c, eig


def certificate_ratios(report):
    """Each certificate's value over the value it allows."""
    ce = report.certificates
    volume = math.prod(hi - lo for lo, hi in report.solution.grid.extents)
    return np.array([
        ce.pde_residual / (scheme.RESIDUAL_CERT_REL * ce.residual_scale),
        ce.two_sided_gap / (scheme.TWO_SIDED_CERT_REL * report.height),
        abs(ce.picone_gap) / (scheme.PICONE_CERT_REL * ce.residual_scale
                              * report.height * volume)])


@pytest.mark.parametrize("name", ["sub", "square2d"])
def test_the_images_of_a_point_under_scaling_run_alike(name):
    # every bundled problem is homogeneous in u: if u solves at (lambda,
    # beta), u/s solves at (lambda s^(q-p), beta s^(r-p)), and M, eps and
    # both barriers scale by 1/s with it.  Scale-free stops make the run the
    # same on each image, down to M of about 1.6e-31 at s = 2^100
    spec, g, c, eig = bundled_stage(name)
    plain = outer_fixed_point(spec, 1.0, 1.0, g, c, eig)
    assert plain.converged
    u0 = plain.solution.values
    for k in (-12, 12, 28, 100):
        s = 2.0 ** k
        image = outer_fixed_point(spec, s ** (spec.q - spec.p),
                                  s ** (spec.r - spec.p), g, c, eig)
        assert (image.converged, image.outer_iters) \
            == (plain.converged, plain.outer_iters), k
        np.testing.assert_allclose(certificate_ratios(image),
                                   certificate_ratios(plain), rtol=0.01)
        assert np.abs(s * image.solution.values - u0).max() \
            <= 1e-12 * np.abs(u0).max(), k


# the bundled b > p problems, each the problem it is keyed by with a = 0.5
# and b = 3
STEEP = {"sub": "steep", "square2d": "steep2d"}


@pytest.mark.parametrize("name, steps", [("sub", 6), ("square2d", 7)])
def test_gradient_growth_above_p_certifies_on_the_region_boundary(name,
                                                                  steps):
    # the paper's headline case, f <= omega3 u^a |grad u|^b with b > p: at
    # a = 0.5 and b = 3 the growth r = 4.5 exceeds p = 2.5 (super case),
    # and the point on the region's boundary must certify
    spec, g, c, eig = bundled_stage(STEEP[name])
    assert spec == dataclasses.replace(
        load_problem(bundled_problem_path(name)), a=0.5, b=3.0)
    assert spec.b > spec.p and spec.r > spec.p
    (lam, beta), = region_boundary([0.5], c, spec)
    report = outer_fixed_point(spec, lam, beta, g, c, eig)
    assert report.converged and report.certificates.all_ok
    assert report.outer_iters == steps


class _ColamdLU(NamedTuple):
    """A Newton Jacobian ``coef`` factored by SuperLU in its own COLAMD
    column order, not by the band LU in grid order; it answers in grid
    order all the same."""

    coef: np.ndarray

    def matrix(self):
        shape = self.coef.shape[1:]
        n = int(np.prod([size - 2 for size in shape]))
        rows, cols, sources = plap._couplings(shape, np.arange(n))
        return sp.csc_matrix((self.coef.ravel()[sources], (rows, cols)),
                             shape=(n, n))

    @property
    def nnz(self):
        return self.matrix().nnz

    def factor(self):
        try:
            return spla.splu(self.matrix(), permc_spec="COLAMD").solve
        except RuntimeError:  # singular
            return None

    def factor_solve(self, rhs):
        solve = self.factor()
        return (None, None) if solve is None else (solve(rhs), solve)


def test_square2d_outcome_does_not_hang_on_the_lu_ordering(monkeypatch):
    # the centre node of square2d is a symmetry point where f depends on
    # gnorm^0.2; a rounding-level gradient there must not decide the outcome
    spec = load_problem(bundled_problem_path("square2d"))
    grid = spec.build_grid()
    constants = compute_constants(spec, grid)
    band = outer_fixed_point(spec, 2.0, 0.1, grid, constants)
    # the same run with every Jacobian factored by SuperLU in COLAMD order,
    # not by the band LU in grid order
    try_solve = plap._try_solve
    monkeypatch.setattr(plap, "_try_solve", lambda matrix, rhs, factor=None:
                        try_solve(_ColamdLU(matrix.coef), rhs, factor))
    colamd = outer_fixed_point(spec, 2.0, 0.1, grid, constants)
    assert band.converged and colamd.converged
    assert colamd.certificates.pde_residual == pytest.approx(
        band.certificates.pde_residual, rel=1e-9)


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
    band = counting(monkeypatch, plap, "dgbtrf")  # two axes: LAPACK band LU
    factors = counting(monkeypatch, plap, "_try_solve")
    outer_fixed_point(spec, 1.0, 1.0, g, c, eig)
    assert len(band) == len(factors) > 0


def test_every_1d_factorization_goes_through_try_solve(monkeypatch):
    # one axis: dgtsv factors and solves in one call, and dgttrf keeps the
    # one factor of the run, the Jacobian at its final iterate
    spec, g, c, eig = bundled_stage("sub", resolution=129)
    solved = counting(monkeypatch, plap, "dgtsv")
    kept = counting(monkeypatch, plap, "dgttrf")
    factors = counting(monkeypatch, plap, "_try_solve")
    outer_fixed_point(spec, 1.0, 1.0, g, c, eig)
    assert len(solved) + len(kept) == len(factors) > 0
    assert len(kept) == 1


def test_every_set_up_factorization_goes_through_try_solve(monkeypatch):
    # cold solves and the eigen sweeps keep factors too
    spec = dataclasses.replace(load_problem(bundled_problem_path("square2d")),
                               resolution=(9, 9))
    g = spec.build_grid()
    band = counting(monkeypatch, plap, "dgbtrf")
    factors = counting(monkeypatch, plap, "_try_solve")
    compute_constants(spec, g)
    first_eigenpair(g, spec.p, sample_weights(spec, g)[0])
    assert len(band) == len(factors) > 0


def report_bytes(report):
    """Every value of a SolveReport, with the solution as bytes."""
    fields = dataclasses.asdict(report)
    fields["solution"] = report.solution.values.tobytes()
    return fields


def test_no_factor_outlives_an_outer_fixed_point_call(square2d_stage,
                                                       monkeypatch):
    spec, g, c, eig = square2d_stage
    inner = []  # per inner iteration: [factor argument, holders its solves saw]
    seen = []  # every holder, kept alive so that identity checks stay sound

    def recording_inner(*args, factor=None, **kwargs):
        inner.append([factor, []])
        return inner_monotone_solve(*args, factor=factor, **kwargs)

    def recording_solve(*args, factor, **kwargs):
        inner[-1][1].append((factor, factor == []))
        seen.append(factor)
        return solve_plap_dirichlet(*args, factor=factor, **kwargs)

    monkeypatch.setattr(scheme, "inner_monotone_solve", recording_inner)
    monkeypatch.setattr(scheme, "solve_plap_dirichlet", recording_solve)
    runs = []
    for lam, beta in ((1.0, 1.0), (0.5, 2.0), (1.0, 1.0)):
        inner.clear()
        before = list(seen)
        runs.append(outer_fixed_point(spec, lam, beta, g, c, eig))
        *steps, from_above, from_below = [list(rec) for rec in inner]
        # the outer steps share one holder of this call, empty at its start
        shared = steps[0][0]
        assert shared is not None and all(h is shared for h, _ in steps)
        assert steps[0][1][0] == (shared, True)
        assert all(h is shared for _, solves in steps for h, _ in solves)
        assert all(h is not shared for h in before)
        # each certificate iteration starts with a fresh empty holder
        for factor, solves in (from_above, from_below):
            first = solves[0][0]
            assert factor is None and solves[0][1]
            assert all(h is first for h, _ in solves)
            assert first is not shared
            assert all(h is not first for h in before)
        assert from_above[1][0][0] is not from_below[1][0][0]
    assert report_bytes(runs[2]) == report_bytes(runs[0])


def test_no_field_meets_the_operator_twice_in_a_run(monkeypatch):
    # the barriers, each Newton iterate and each solve's result: the
    # operator is applied to each field once, and its value handed on from
    # there
    spec = dataclasses.replace(load_problem(bundled_problem_path("sub")),
                               resolution=129)
    g = spec.build_grid()
    c = compute_constants(spec, g)
    eig = first_eigenpair(g, spec.p, sample_weights(spec, g)[0])
    applies = {}  # bytes of each input of the operator -> its calls
    raw = grid_module._plap_raw

    def keyed(values, *args, **kwargs):
        key = values.tobytes()
        applies[key] = applies.get(key, 0) + 1
        return raw(values, *args, **kwargs)

    monkeypatch.setattr(grid_module, "_plap_raw", keyed)
    results = []  # every solve's result, with its -Lap_p

    def recorded(*args, **kwargs):
        results.append(solve_plap_dirichlet(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(scheme, "solve_plap_dirichlet", recorded)
    report = outer_fixed_point(spec, 1.0, 1.0, g, c, eig)
    assert report.converged and report.outer_iters > 2
    assert len(results) > report.outer_iters
    assert all(u.field.values.tobytes() in applies for u in results)
    assert len(applies) > len(results)
    assert max(applies.values()) == 1


# ---------------------------------------------------------------------------
# the outer steps' Newton solves


def recording_inner(monkeypatch):
    """Route scheme.inner_monotone_solve through a wrapper; returns per call
    (F, start, guess)."""
    calls = []

    def wrapper(F, sub, sup, opts=None, *, start="super", guess=None,
                **kwargs):
        calls.append((F, start, guess))
        return inner_monotone_solve(F, sub, sup, opts, start=start,
                                    guess=guess, **kwargs)

    monkeypatch.setattr(scheme, "inner_monotone_solve", wrapper)
    return calls


@pytest.mark.parametrize("stage", ["sub_stage", "square2d_stage"])
def test_newton_limit_agrees_with_the_monotone_limit(stage, request):
    # the first outer step's frozen map at (1, 1), solved both ways
    spec, g, c, eig = request.getfixturevalue(stage)
    F, sub_value, sup_value = sub_inner_problem((spec, g, c, eig))
    sup = sup_value.field
    newton = inner_monotone_solve(F, sub_value, sup_value,
                                  guess=sub_value).field
    sweeps = inner_monotone_solve(F, sub_value, sup_value, khat=c.khat).field
    stop = scheme.INNER_STOP_REL * sup_norm(sup)
    assert np.abs(newton.values - sweeps.values).max() <= stop
    # the frozen residual contract, at the full inner tolerance
    load = F.evaluate(newton.values)
    residual = np.abs(p_laplacian_apply(newton, spec.p).values
                      - load)[g.interior].max()
    assert residual <= full_tolerance() * load.max()


def test_an_outer_step_reads_neither_barrier(sub_stage, monkeypatch):
    # the guess call returns the Newton limit before it checks ``start`` or
    # reads the barriers, which outer_fixed_point built and ordered once
    F, sub, sup = sub_inner_problem(sub_stage)
    sizes = counting(monkeypatch, scheme, "sup_norm")
    limit = inner_monotone_solve(F, None, None, start="neither", guess=sub)
    assert sizes == []
    direct = scheme.solve_frozen(F, sub, scheme._support_tolerance(
        SolveOptions()))
    assert limit.field.values.tobytes() == direct.field.values.tobytes()
    assert limit.lap.tobytes() == direct.lap.tobytes()


def face_bytes(faces):
    """The bytes of every array of a face list (see grid._faces)."""
    return [a.tobytes() for s, t in faces for a in (s, *t)]


@pytest.mark.parametrize("stage", ["sub_stage", "square2d_stage"])
@pytest.mark.parametrize("how", ["super", "sub", "guess"])
def test_an_inner_limit_comes_with_its_exact_value(stage, how, request):
    # the value a limit is returned with is the one a fresh apply gives
    spec, g, c, eig = request.getfixturevalue(stage)
    F, sub, sup = sub_inner_problem((spec, g, c, eig))
    if how == "guess":
        limit = inner_monotone_solve(F, sub, sup, khat=c.khat, guess=sub)
    else:
        limit = inner_monotone_solve(F, sub, sup, start=how, khat=c.khat)
    fresh = operator_value(limit.field, spec.p)
    assert limit.p == spec.p
    assert limit.lap.tobytes() == fresh.lap.tobytes()
    assert limit.delta == fresh.delta
    assert face_bytes(limit.faces) == face_bytes(fresh.faces)


@pytest.mark.parametrize("name, resolution, gradients", [
    ("sub", 129, 12), ("square2d", (17, 17), 12), ("degenerate", 33, 3)])
def test_outer_takes_one_gradient_per_solved_step(monkeypatch, name,
                                                  resolution, gradients):
    # the lower barrier's, then each step's limit's, degenerate's second
    # step too, whose frozen map equals its first
    spec = dataclasses.replace(load_problem(bundled_problem_path(name)),
                               resolution=resolution)
    g = spec.build_grid()
    c = compute_constants(spec, g)
    eig = first_eigenpair(g, spec.p, sample_weights(spec, g)[0])
    calls = counting(monkeypatch, scheme, "gradient")
    report = outer_fixed_point(spec, 1.0, 1.0, g, c, eig)
    assert report.converged
    assert len(calls) == gradients
    assert report.outer_iters == (2 if name == "degenerate" else 11)


@pytest.mark.parametrize("failure", ["stall", "zero"])
def test_a_failed_newton_solve_ends_the_run(sub_stage, monkeypatch, failure):
    # an outer step has one way to its limit: a stalled Newton solve, or a
    # root that is not positive, ends the run at the first step, loudly
    spec, g, c, eig = sub_stage

    def failing(F, start, opts=None, **kwargs):
        if failure == "stall":
            raise SolveFailure("forced stall")
        # the zero root of a vanishing frozen part
        return operator_value(zero_field(F.grid), start.p)

    monkeypatch.setattr(scheme, "solve_frozen", failing)
    calls = recording_inner(monkeypatch)
    if failure == "stall":
        with pytest.raises(SolveFailure, match="forced stall"):
            outer_fixed_point(spec, 1.0, 1.0, g, c, eig)
    else:
        with pytest.raises(InvariantViolation) as exc:
            outer_fixed_point(spec, 1.0, 1.0, g, c, eig)
        message = str(exc.value)
        assert "outer iterate 1 left the invariant set" in message
        assert "positivity: interior minimum 0.000e+00 is not above 0" \
            in message
    assert len(calls) == 1


@pytest.mark.parametrize("beta", [0.1, 2.0])
def test_newton_steps_certify_on_a_small_right_hand_side(beta, monkeypatch):
    # critical at lambda = 0.1 has M of about 1.6e-4: the Newton stop, at
    # tol_residual * ||F(U)||_inf with tol_residual = 1e-9, must still meet
    # the residual certificate there
    spec = dataclasses.replace(load_problem(bundled_problem_path("critical")),
                               resolution=33)
    calls = recording_inner(monkeypatch)
    report = outer_fixed_point(spec, 0.1, beta)
    assert report.converged and report.certificates.all_ok
    assert report.height < 1.0e-3
    *steps, _, _ = calls
    assert steps and all(guess is not None for *_, guess in steps)


def test_an_unchanged_frozen_map_keeps_its_limit(monkeypatch):
    # degenerate's frozen map does not depend on the iterate (C8's case):
    # step 2's Newton solve starts at that map's limit and stays there
    spec = dataclasses.replace(load_problem(bundled_problem_path("degenerate")),
                               resolution=33)
    g = spec.build_grid()
    c = compute_constants(spec, g)
    eig = first_eigenpair(g, spec.p, sample_weights(spec, g)[0])
    calls = recording_inner(monkeypatch)
    report = outer_fixed_point(spec, 1.0, 1.0, g, c, eig)
    assert report.converged and report.outer_iters == 2
    assert report.outer_trace[1] == 0.0
    # two outer steps, then the two certificate iterations
    assert [call[1] for call in calls] == ["super", "super", "super", "sub"]
    assert [guess is not None for *_, guess in calls] == [True, True,
                                                          False, False]


def test_outer_steps_log_one_line_each(sub_stage, caplog):
    spec, g, c, eig = sub_stage
    with caplog.at_level("INFO", logger="plaplab.scheme"):
        report = outer_fixed_point(spec, 1.0, 1.0, g, c, eig)
    steps = [r.getMessage() for r in caplog.records
             if r.getMessage().startswith("outer step ")]
    assert [m.split(":", 1)[0] for m in steps] == [
        f"outer step {k}" for k in range(1, report.outer_iters + 1)]


# ---------------------------------------------------------------------------
# the certificate chains, warm at the final iterate


@pytest.mark.parametrize("stage", ["sub_stage", "square2d_stage"])
def test_every_chain_sweep_starts_at_the_final_iterate(stage, request,
                                                       monkeypatch):
    # each solve of both certificate chains starts from the run's solution
    # with its -Lap_p, the very value the last outer step returned: the
    # operator meets that field once, in the solve returning it
    spec, g, c, eig = request.getfixturevalue(stage)
    calls = []  # per inner call: (warm, [guess per solve])

    def recording_inner(*args, warm=None, **kwargs):
        calls.append((warm, []))
        return inner_monotone_solve(*args, warm=warm, **kwargs)

    def recording_solve(*args, initial_guess=None, **kwargs):
        calls[-1][1].append(initial_guess)
        return solve_plap_dirichlet(*args, initial_guess=initial_guess,
                                    **kwargs)

    applies = []  # the bytes of every input of the operator
    raw = grid_module._plap_raw

    def keyed(values, *args, **kwargs):
        applies.append(values.tobytes())
        return raw(values, *args, **kwargs)

    monkeypatch.setattr(scheme, "inner_monotone_solve", recording_inner)
    monkeypatch.setattr(scheme, "solve_plap_dirichlet", recording_solve)
    monkeypatch.setattr(grid_module, "_plap_raw", keyed)
    report = outer_fixed_point(spec, 1.0, 1.0, g, c, eig)
    assert report.converged
    *steps, (above, above_solves), (below, below_solves) = calls
    assert len(steps) == report.outer_iters
    assert all(warm is None for warm, _ in steps)
    assert above is below and above.field is report.solution
    assert above.p == spec.p
    for solves in (above_solves, below_solves):
        assert len(solves) > 1
        assert all(guess is above for guess in solves)
    assert applies.count(report.solution.values.tobytes()) == 1


def test_a_warm_start_on_another_grid_or_p_is_refused(sub_stage):
    spec, g, c, eig = sub_stage
    F, sub, sup = sub_inner_problem(sub_stage)
    other = parabola(build_grid(((0.0, 2.0),), g.shape[0]))
    with pytest.raises(GridMismatchError):
        inner_monotone_solve(F, sub, sup, warm=operator_value(other, spec.p))
    with pytest.raises(ConfigurationError, match="initial guess is at p"):
        inner_monotone_solve(F, sub, sup,
                             warm=operator_value(sup.field, spec.p + 0.5))


@pytest.mark.parametrize("name, resolution", [("sub", 129),
                                              ("square2d", (17, 17))])
def test_warm_chains_keep_their_sweeps_and_limits(name, resolution,
                                                  monkeypatch):
    # each certificate chain run again without its warm start: the same
    # number of sweeps, and a limit within the chain's stop of the other
    spec = dataclasses.replace(load_problem(bundled_problem_path(name)),
                               resolution=resolution)
    g = spec.build_grid()
    c = compute_constants(spec, g)
    eig = first_eigenpair(g, spec.p, sample_weights(spec, g)[0])
    loads = []  # the right-hand side of each solve
    chains = []  # per chain: (stop, [(limit, sweeps) cold, then warm])

    def recording_solve(grid, p, load, *args, **kwargs):
        loads.append(load)
        return solve_plap_dirichlet(grid, p, load, *args, **kwargs)

    def both(F, sub, sup, opts=None, *, warm=None, **kwargs):
        if warm is None:
            return inner_monotone_solve(F, sub, sup, opts, **kwargs)
        runs = []
        for start in (None, warm):
            loads.clear()
            limit = inner_monotone_solve(F, sub, sup, opts, warm=start,
                                         **kwargs)
            # a forced stopping sweep's re-solve reads that sweep's load
            sweeps = sum(1 for i, load in enumerate(loads)
                         if i == 0 or load is not loads[i - 1])
            runs.append((limit.field, sweeps))
        chains.append((scheme.INNER_STOP_REL * sup_norm(sup.field), runs))
        return limit

    monkeypatch.setattr(scheme, "solve_plap_dirichlet", recording_solve)
    monkeypatch.setattr(scheme, "inner_monotone_solve", both)
    for lam, beta in ((1.0, 1.0), (2.0, 0.1), (0.1, 2.0)):
        chains.clear()
        report = outer_fixed_point(spec, lam, beta, g, c, eig)
        assert report.converged and len(chains) == 2
        for stop, ((cold, n_cold), (warm, n_warm)) in chains:
            assert n_warm == n_cold > 1
            assert np.abs(warm.values - cold.values).max() <= stop


# Largest move of a chain limit on two axes when the first Newton step of
# each of its solves takes the factored Jacobian at the final iterate: there
# that step replaces a chord trial of the chain's kept factor (3.9e-11
# measured on square2d at 17x17 and 33x33).  One axis keeps every bit.
FACTORED_LIMIT_MOVE = 1.0e-9


@pytest.mark.parametrize("name, resolution", [("sub", 129),
                                              ("square2d", (17, 17))])
def test_the_factored_warm_value_keeps_the_chain_limits(name, resolution,
                                                        monkeypatch):
    # each certificate chain run again from its warm value without the
    # factor, whose solves then assemble and factor at their first step
    spec, g, c, eig = bundled_stage(name, resolution=resolution)
    limits = []  # per chain: (limit, limit without the factor)

    def both(F, sub, sup, opts=None, *, warm=None, **kwargs):
        if warm is None:
            return inner_monotone_solve(F, sub, sup, opts, **kwargs)
        assert warm.jacobian is not None
        runs = [inner_monotone_solve(F, sub, sup, opts, warm=start, **kwargs)
                for start in (warm, warm._replace(jacobian=None))]
        limits.append(tuple(run.field.values for run in runs))
        return runs[0]

    monkeypatch.setattr(scheme, "inner_monotone_solve", both)
    for lam, beta in ((1.0, 1.0), (2.0, 0.1), (0.1, 2.0)):
        limits.clear()
        report = outer_fixed_point(spec, lam, beta, g, c, eig)
        assert report.converged and len(limits) == 2
        for limit, plain in limits:
            if g.dimension == 1:
                assert np.array_equal(limit, plain)
            else:
                assert np.abs(limit - plain).max() <= FACTORED_LIMIT_MOVE


# _try_solve calls (factorizations) of outer_fixed_point(square2d at 33x33,
# lambda = beta = 1) when every outer step started its monotone iteration
# from the upper barrier with a holder of its own
COLD_START_FACTORIZATIONS = 52


def test_newton_steps_cut_the_factorizations_on_square2d(monkeypatch):
    spec = load_problem(bundled_problem_path("square2d"))
    g = spec.build_grid()
    assert g.shape == (33, 33)
    c = compute_constants(spec, g)
    eig = first_eigenpair(g, spec.p, sample_weights(spec, g)[0])
    factors = counting(monkeypatch, plap, "_try_solve")
    report = outer_fixed_point(spec, 1.0, 1.0, g, c, eig)
    assert report.converged
    assert 0 < len(factors) <= COLD_START_FACTORIZATIONS // 4


def test_1d_inner_iteration_keeps_no_factor(sub_stage, monkeypatch):
    # a banded solve factors and solves in one LAPACK call
    spec, g, c, eig = sub_stage
    from plaplab.constants import region_classify
    m = region_classify(1.0, 1.0, c, spec).height
    eps = make_epsilon(1.0, eig.lambda1, m, c.phi_sup, spec)
    sub = ScalarField(g, eps * eig.u1.values)
    sup = ScalarField(g, (m / c.phi_sup) * c.weighted_torsion.phi.values)
    F = freeze_nonlinearity(sub, 1.0, 1.0, spec)
    holders = []

    def recording(*args, factor, **kwargs):
        u = solve_plap_dirichlet(*args, factor=factor, **kwargs)
        holders.append(list(factor))
        return u

    monkeypatch.setattr(scheme, "solve_plap_dirichlet", recording)
    lower, upper = values(spec, sub, sup)
    kept = inner_monotone_solve(F, lower, upper, khat=c.khat).field
    assert holders and all(h == [] for h in holders)
    monkeypatch.setattr(scheme, "solve_plap_dirichlet",
                        lambda *args, factor, **kwargs:
                        solve_plap_dirichlet(*args, **kwargs))
    without = inner_monotone_solve(F, lower, upper, khat=c.khat).field
    assert kept.values.tobytes() == without.values.tobytes()


def test_stale_constant_error_is_an_invariant_violation():
    assert issubclass(StaleGradConstantError, InvariantViolation)
    assert issubclass(MonotonicityError, InvariantViolation)
