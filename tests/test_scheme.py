"""Monotone scheme tests: freezing, verification, inner and outer iteration."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from plaplab.constants import compute_constants, region_classify
from plaplab.errors import (
    ConfigurationError,
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
    check_comparison,
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
    rep_sup = verify_subsuper(sup, F, spec.p, "super")
    rep_sub = verify_subsuper(sub, F, spec.p, "sub")
    assert rep_sup.ok, rep_sup
    assert rep_sub.ok, rep_sub
    # a held Lap_p gives the same report
    for cand, kind, rep in ((sup, "super", rep_sup), (sub, "sub", rep_sub)):
        lap = operator_value(cand, spec.p).lap
        assert verify_subsuper(cand, F, spec.p, kind, lap=lap) == rep
    # the super-solution check must fail for a barrier that is far too low
    shrunk = ScalarField(g, 1e-3 * sup.values)
    assert not verify_subsuper(shrunk, F, spec.p, "super").ok


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
    assert verify_subsuper(sup, F, spec.p, "super").ok

    def shrunk(s):
        return sup.with_values(s * sup.values)

    # scale the upper barrier down until its defect falls 2e-8 short
    lo, hi = 0.5, 1.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        rep = verify_subsuper(shrunk(mid), F, spec.p, "super")
        if rep.worst_violation > 2e-8:
            lo = mid
        else:
            hi = mid
    v = shrunk(lo)
    rep = verify_subsuper(v, F, spec.p, "super")
    assert 1e-8 <= rep.worst_violation <= 3e-8
    assert not rep.ok
    assert rep.tol == scheme.SUBSUPER_TOL_REL * sup_norm(
        p_laplacian_apply(v, spec.p))


def test_verify_subsuper_validates_kind(sub_stage):
    spec, g, c, eig = sub_stage
    F = freeze_nonlinearity(zero_field(g), 1.0, 1.0, spec)
    with pytest.raises(ConfigurationError):
        verify_subsuper(zero_field(g), F, spec.p, "upper")


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

    down = inner_monotone_solve(F, sub, sup, spec.p, khat=c.khat)
    up = inner_monotone_solve(F, sub, sup, spec.p, start="sub",
                              khat=c.khat)
    slack = 1e-9 * sup_norm(sup)
    for u in (down, up):
        assert check_comparison(sub, u.with_values(u.values + slack))
        assert check_comparison(u, sup.with_values(sup.values + slack))
    assert np.max(np.abs(down.values - up.values)) <= 1e-6 * m


def test_inner_iteration_rejects_crossed_barriers(sub_stage):
    spec, g, c, eig = sub_stage
    F = freeze_nonlinearity(zero_field(g), 1.0, 1.0, spec)
    lo = parabola(g, 2.0)
    hi = parabola(g, 1.0)
    with pytest.raises(ConfigurationError):
        inner_monotone_solve(F, lo, hi, spec.p)
    with pytest.raises(ConfigurationError):
        inner_monotone_solve(F, hi, lo, spec.p, start="middle")


def test_inner_iteration_detects_band_escape(sub_stage):
    """A frozen part far above the barrier load must blow the band check."""
    spec, g, c, eig = sub_stage
    sup = ScalarField(g, torsion_function(g, spec.p, sub_weight(g)).phi.values)
    F = FrozenNonlinearity(grid=g, coeff=np.zeros(g.shape),
                           base=np.full(g.shape, 50.0), q=spec.q)
    with pytest.raises(MonotonicityError):
        inner_monotone_solve(F, zero_field(g), sup, spec.p)


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
        inner_monotone_solve(F, sub, sup, spec.p)


def sub_inner_problem(sub_stage, lam=1.0, beta=1.0):
    """The barriers and the frozen map of the first outer step at a point."""
    spec, g, c, eig = sub_stage
    m = region_classify(lam, beta, c, spec).height
    eps = make_epsilon(lam, eig.lambda1, m, c.phi_sup, spec)
    sub = ScalarField(g, eps * eig.u1.values)
    sup = ScalarField(g, (m / c.phi_sup) * c.weighted_torsion.phi.values)
    return freeze_nonlinearity(sub, lam, beta, spec), sub, sup


def recording_sweeps(monkeypatch):
    """Route the inner sweeps' solves through a recorder; returns a list of
    (right-hand side, tol_residual, initial guess, result) per solve."""
    sweeps = []

    def recorded(grid, p, g, opts, **kwargs):
        u = solve_plap_dirichlet(grid, p, g, opts, **kwargs)
        sweeps.append((g, opts.tol_residual, kwargs["initial_guess"], u))
        return u

    monkeypatch.setattr(scheme, "solve_plap_dirichlet", recorded)
    return sweeps


def full_tolerance(sup):
    return scheme._support_tolerance(
        SolveOptions(), scheme.INNER_STOP_REL * sup_norm(sup)).tol_residual


def assert_full_contract(limit, sweeps, p, tol):
    """The limit is the last solve's result, solved at the full tolerance
    against F at the previous iterate, and meets that residual contract."""
    g, last_tol, _, u = sweeps[-1]
    assert u is limit and last_tol == tol
    residual = np.abs(p_laplacian_apply(limit, p).values
                      - g.values)[limit.grid.interior].max()
    assert residual <= tol * max(1.0, sup_norm(g))


@pytest.mark.parametrize("lam, beta", [(1.0, 1.0), (2.0, 0.1), (0.1, 2.0)])
def test_forced_sweeps_keep_the_sweeps_and_the_limit(sub_stage, monkeypatch,
                                                     lam, beta):
    spec, g, c, eig = sub_stage
    F, sub, sup = sub_inner_problem(sub_stage, lam, beta)
    tol = full_tolerance(sup)
    sweeps = recording_sweeps(monkeypatch)
    forced = inner_monotone_solve(F, sub, sup, spec.p, khat=c.khat)
    tols = [t for _, t, _, _ in sweeps]
    assert tols[0] == tol and max(tols) > tol  # the forcing is on
    assert_full_contract(forced, sweeps, spec.p, tol)

    count = len(sweeps)
    sweeps.clear()
    monkeypatch.setattr(scheme, "INNER_FORCING", 0.0)
    exact = inner_monotone_solve(F, sub, sup, spec.p, khat=c.khat)
    assert all(t == tol for _, t, _, _ in sweeps)
    assert len(sweeps) == count
    stop = scheme.INNER_STOP_REL * sup_norm(sup)
    assert np.abs(forced.values - exact.values).max() < stop


def test_a_forced_stopping_sweep_is_solved_again_at_full_tolerance(
        sub_stage, monkeypatch):
    # so large a forcing fraction lets the second sweep return its start,
    # which passes the stop test at once
    spec, g, c, eig = sub_stage
    F, sub, sup = sub_inner_problem(sub_stage)
    tol = full_tolerance(sup)
    monkeypatch.setattr(scheme, "INNER_FORCING", 1.0e3)
    sweeps = recording_sweeps(monkeypatch)
    limit = inner_monotone_solve(F, sub, sup, spec.p, khat=c.khat)
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
    assert not any(v.startswith("lower barrier") for v in bad)


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

    def overshoot(F, sub, sup_field, p, *args, **kwargs):
        return sup_field.with_values(1.5 * sup_field.values)

    monkeypatch.setattr(scheme, "inner_monotone_solve", overshoot)
    height = region_classify(1.0, 1.0, c, spec).height
    allowed = scheme.MEMBERSHIP_SLACK_REL * height
    with pytest.raises(InvariantViolation) as exc:
        outer_fixed_point(spec, 1.0, 1.0, g, c, eig)
    message = str(exc.value)
    assert "outer iterate 1 left the invariant set" in message
    assert f"upper barrier gap {0.5 * height:.3e}" in message
    assert f"over allowed {allowed:.1e}" in message


def test_square2d_outcome_does_not_hang_on_the_lu_ordering(monkeypatch):
    # the centre node of square2d is a symmetry point where f depends on
    # gnorm^0.2; a rounding-level gradient there must not decide the outcome
    spec = load_problem(bundled_problem_path("square2d"))
    grid = spec.build_grid()
    constants = compute_constants(spec, grid)
    band = outer_fixed_point(spec, 2.0, 0.1, grid, constants)
    # the same run with every Jacobian factored by SuperLU in COLAMD order,
    # not by the band LU in grid order
    try_solve, splu = plap._try_solve, plap.spla.splu

    def through_superlu(matrix, rhs, factor=None):
        shape = matrix.coef.shape[1:]
        identity = np.arange(np.prod([size - 2 for size in shape]))
        rows, cols, sources = plap._couplings(shape, identity)
        csc = sp.csc_matrix((matrix.coef.ravel()[sources], (rows, cols)),
                            shape=(identity.size, identity.size))
        return try_solve(plap._Sparse(csc, identity, matrix.coef), rhs, factor)

    monkeypatch.setattr(plap, "_try_solve", through_superlu)
    monkeypatch.setattr(plap.spla, "splu", lambda matrix, permc_spec=None:
                        splu(matrix, permc_spec="COLAMD"))
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
    results = []  # every solve's result

    def recorded(*args, **kwargs):
        results.append(solve_plap_dirichlet(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(scheme, "solve_plap_dirichlet", recorded)
    report = outer_fixed_point(spec, 1.0, 1.0, g, c, eig)
    assert report.converged and report.outer_iters > 2
    assert len(results) > report.outer_iters
    assert all(u.values.tobytes() in applies for u in results)
    assert len(applies) > len(results)
    assert max(applies.values()) == 1


# ---------------------------------------------------------------------------
# the outer steps' Newton solves


def recording_inner(monkeypatch):
    """Route scheme.inner_monotone_solve through a wrapper; returns per call
    (F, start, guess, path), path the label the call left (None when the
    caller passed no holder)."""
    calls = []

    def wrapper(F, sub, sup, p, opts=None, *, start="super", guess=None,
                path=None, **kwargs):
        label = [None] if path is None else path
        u = inner_monotone_solve(F, sub, sup, p, opts, start=start,
                                 guess=guess, path=label, **kwargs)
        calls.append((F, start, guess, label[0]))
        return u

    monkeypatch.setattr(scheme, "inner_monotone_solve", wrapper)
    return calls


@pytest.mark.parametrize("stage", ["sub_stage", "square2d_stage"])
def test_newton_limit_agrees_with_the_monotone_limit(stage, request):
    # the first outer step's frozen map at (1, 1), solved both ways
    spec, g, c, eig = request.getfixturevalue(stage)
    m = region_classify(1.0, 1.0, c, spec).height
    eps = make_epsilon(1.0, eig.lambda1, m, c.phi_sup, spec)
    sub = ScalarField(g, eps * eig.u1.values)
    sup = ScalarField(g, (m / c.phi_sup) * c.weighted_torsion.phi.values)
    F = freeze_nonlinearity(sub, 1.0, 1.0, spec)
    path = []
    newton = inner_monotone_solve(F, sub, sup, spec.p, khat=c.khat,
                                  guess=operator_value(sub, spec.p),
                                  path=path)
    sweeps = inner_monotone_solve(F, sub, sup, spec.p, khat=c.khat)
    assert path == ["newton"]
    stop = scheme.INNER_STOP_REL * sup_norm(sup)
    assert np.abs(newton.values - sweeps.values).max() <= stop
    # the frozen residual contract, at the full inner tolerance
    load = F.evaluate(newton.values)
    residual = np.abs(p_laplacian_apply(newton, spec.p).values
                      - load)[g.interior].max()
    assert residual <= full_tolerance(sup) * max(1.0, load.max())


@pytest.mark.parametrize("failure", ["stall", "zero"])
def test_a_failed_newton_solve_falls_back_to_the_sweeps(sub_stage,
                                                        monkeypatch, caplog,
                                                        failure):
    spec, g, c, eig = sub_stage
    plain = outer_fixed_point(spec, 1.0, 1.0, g, c, eig)

    def failing(F, start, p, opts=None, **kwargs):
        if failure == "stall":
            raise SolveFailure("forced stall")
        return zero_field(F.grid)  # the zero root of a vanishing frozen part

    monkeypatch.setattr(scheme, "solve_frozen", failing)
    calls = recording_inner(monkeypatch)
    with caplog.at_level("INFO", logger="plaplab.scheme"):
        forced = outer_fixed_point(spec, 1.0, 1.0, g, c, eig)
    assert forced.converged and forced.certificates.all_ok
    assert forced.outer_iters == plain.outer_iters
    *steps, _, _ = calls
    reason = "failed: forced stall" if failure == "stall" else "not positive"
    assert len(steps) == forced.outer_iters
    assert all(label == f"sweeps (Newton limit {reason})"
               for *_, label in steps)
    assert sum(f"by sweeps (Newton limit {reason}):" in r.getMessage()
               for r in caplog.records) == forced.outer_iters
    stop = scheme.INNER_STOP_REL * forced.height
    assert np.abs(forced.solution.values
                  - plain.solution.values).max() <= stop


@pytest.mark.parametrize("beta", [0.1, 2.0])
def test_newton_steps_certify_on_a_small_right_hand_side(beta, monkeypatch):
    # critical at lambda = 0.1 has M of about 1.6e-4: the Newton stop, at
    # tol_residual * max(1, ||F(U)||_inf) with tol_residual = 1e-9 M, must
    # still meet the residual certificate there
    spec = dataclasses.replace(load_problem(bundled_problem_path("critical")),
                               resolution=33)
    calls = recording_inner(monkeypatch)
    report = outer_fixed_point(spec, 0.1, beta)
    assert report.converged and report.certificates.all_ok
    assert report.height < 1.0e-3
    *steps, _, _ = calls
    assert steps and all(label == "newton" for *_, label in steps)


def test_an_unchanged_frozen_map_reuses_the_last_limit(monkeypatch, caplog):
    # degenerate's frozen map does not depend on the iterate (C8's case)
    spec = dataclasses.replace(load_problem(bundled_problem_path("degenerate")),
                               resolution=33)
    g = spec.build_grid()
    c = compute_constants(spec, g)
    eig = first_eigenpair(g, spec.p, sample_weights(spec, g)[0])
    calls = recording_inner(monkeypatch)
    with caplog.at_level("INFO", logger="plaplab.scheme"):
        report = outer_fixed_point(spec, 1.0, 1.0, g, c, eig)
    assert report.converged and report.outer_iters == 2
    assert report.outer_trace[1] == 0.0
    # step 1, then the two certificate iterations: step 2 solves nothing
    assert [call[1] for call in calls] == ["super", "super", "sub"]
    assert calls[0][2] is not None and calls[1][2] is None is calls[2][2]
    assert "outer step 2 by reuse:" in caplog.text


def test_outer_steps_log_the_start_they_used(sub_stage, caplog):
    spec, g, c, eig = sub_stage
    with caplog.at_level("INFO", logger="plaplab.scheme"):
        report = outer_fixed_point(spec, 1.0, 1.0, g, c, eig)
    steps = [r.getMessage() for r in caplog.records
             if r.getMessage().startswith("outer step ")]
    assert len(steps) == report.outer_iters
    assert steps[0].startswith("outer step 1 by newton:")
    solved = [m.split(" by ", 1)[1].split(":", 1)[0] for m in steps]
    assert all(how in ("newton", "reuse") or
               how.startswith("sweeps (Newton limit ") for how in solved)
    assert "newton" in solved


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
    kept = inner_monotone_solve(F, sub, sup, spec.p, khat=c.khat)
    assert holders and all(h == [] for h in holders)
    monkeypatch.setattr(scheme, "solve_plap_dirichlet",
                        lambda *args, factor, **kwargs:
                        solve_plap_dirichlet(*args, **kwargs))
    without = inner_monotone_solve(F, sub, sup, spec.p, khat=c.khat)
    assert kept.values.tobytes() == without.values.tobytes()


def test_stale_constant_error_is_an_invariant_violation():
    assert issubclass(StaleGradConstantError, InvariantViolation)
    assert issubclass(MonotonicityError, InvariantViolation)
