"""Constants, barrier function, and existence-region classification tests."""

import dataclasses
import math

import numpy as np
import pytest

import plaplab.constants as constants
import plaplab.plap as plap
import plaplab.spectral as spectral
from plaplab.constants import (
    CRITICAL,
    SUB,
    SUPER,
    barrier_height,
    barrier_value,
    compute_constants,
    growth_case,
    region_boundary,
    region_classify,
    super_threshold,
)
from plaplab.errors import ConfigurationError, EstimateFailure, SolveFailure
from plaplab.expr import ProblemSpec, bundled_problem_path, load_problem
from plaplab.plap import default_probes

from oracles import barrier_min, torsion_sup_1d


def make_spec(p, q, a, b, n=17):
    return ProblemSpec(p=p, q=q, a=a, b=b,
                       omega1="1", omega2="1", omega3="1",
                       h="u ^ (q - 1)", f="u ^ a * gnorm ^ b",
                       extents=(0.0, 1.0), resolution=n)


@pytest.fixture(scope="module")
def unit_bundle():
    """A real bundle on a small grid, used as a carrier for synthetic
    coefficient values in the pure-arithmetic tests."""
    spec = make_spec(2.0, 1.5, 1.0, 1.0)
    return compute_constants(spec)


def with_coeffs(bundle, coeff_sub, coeff_grad):
    return dataclasses.replace(bundle, coeff_sub=coeff_sub,
                               coeff_grad=coeff_grad)


# ---------------------------------------------------------------------------
# computed constants


def test_bundle_arithmetic_identities():
    spec = load_problem(bundled_problem_path("sub"))
    c = compute_constants(spec)
    p, b = spec.p, spec.b
    assert c.gamma == pytest.approx(
        c.khat * c.omega_sup ** (1.0 / (p - 1.0)) / c.phi_sup, rel=1e-12)
    assert c.coeff_sub == pytest.approx(c.phi_sup ** (p - 1.0), rel=1e-12)
    assert c.coeff_grad == pytest.approx(
        c.khat ** b * c.phi_sup ** (p - 1.0 - b)
        * c.omega_sup ** (b / (p - 1.0)), rel=1e-12)
    assert c.omega_sup == 1.0
    assert c.unit_torsion_sup == pytest.approx(c.phi_sup)  # weights are one


def test_unit_weight_p2_reference_values():
    c = compute_constants(make_spec(2.0, 1.5, 1.0, 1.0, n=257))
    assert c.phi_sup == pytest.approx(0.125, rel=1e-4)
    # the worst probe ratio on [0, 1] at p = 2 is 1/2 (constant load)
    assert c.khat == pytest.approx(0.55, rel=1e-6)
    assert c.grad_estimate.worst_probe == "const1"


def test_phi_sup_matches_closed_form_for_sub_spec():
    spec = load_problem(bundled_problem_path("sub"))
    c = compute_constants(spec)
    assert c.phi_sup == pytest.approx(torsion_sup_1d(2.5, 1.0), rel=1e-2)


def test_growth_case_of_bundled_specs():
    assert growth_case(load_problem(bundled_problem_path("sub"))) == SUB
    assert growth_case(load_problem(bundled_problem_path("super"))) == SUPER
    assert growth_case(load_problem(bundled_problem_path("critical"))) == CRITICAL


# ---------------------------------------------------------------------------
# one solve per distinct field


def bundled_spec(name, resolution, **changes):
    spec = load_problem(bundled_problem_path(name))
    return dataclasses.replace(spec, resolution=resolution, **changes)


def count_solves(monkeypatch, fail_on=None):
    """Route every Dirichlet solve through a recorder of its right-hand side;
    a right-hand side with the bytes of ``fail_on`` raises SolveFailure."""
    calls = []
    original = plap.solve_plap_dirichlet

    def recorded(grid, p, g, *args, **kwargs):
        calls.append(g.values.tobytes())
        if fail_on is not None and calls[-1] == fail_on.values.tobytes():
            raise SolveFailure("forced failure")
        return original(grid, p, g, *args, **kwargs)

    monkeypatch.setattr(plap, "solve_plap_dirichlet", recorded)
    monkeypatch.setattr(spectral, "solve_plap_dirichlet", recorded)
    return calls


@pytest.mark.parametrize("name, resolution, distinct", [
    ("sub", 65, 5), ("square2d", (9, 9), 6)])
def test_each_distinct_field_is_solved_once_per_call(monkeypatch, name,
                                                     resolution, distinct):
    # 11 fields: the two torsion weights and nine probes
    spec = bundled_spec(name, resolution)
    calls = count_solves(monkeypatch)
    compute_constants(spec)
    assert len(calls) == len(set(calls)) == distinct
    compute_constants(spec)  # nothing carries over to a second call
    assert len(calls) == 2 * distinct and calls[distinct:] == calls[:distinct]


@pytest.mark.parametrize("name, resolution", [("sub", 33), ("square2d", (9, 9))])
@pytest.mark.parametrize("p, q", [(1.5, 1.2), (2.5, 1.5), (4.0, 1.5)])
def test_shared_solves_give_the_bundle_of_separate_solves(monkeypatch, name,
                                                          resolution, p, q):
    spec = bundled_spec(name, resolution, p=p, q=q)
    shared = compute_constants(spec)
    for fn in ("torsion_function", "estimate_grad_constant"):
        monkeypatch.setattr(constants, fn, lambda grid, p, field, opts, solved,
                            fn=getattr(constants, fn): fn(grid, p, field, opts))
    separate = compute_constants(spec)
    for scalar in ("phi_sup", "khat", "omega_sup", "gamma", "coeff_sub",
                   "coeff_grad", "unit_torsion_sup"):
        assert getattr(shared, scalar) == getattr(separate, scalar), scalar
    assert (shared.weighted_torsion.phi.values.tobytes()
            == separate.weighted_torsion.phi.values.tobytes())
    a, b = shared.grad_estimate, separate.grad_estimate
    assert list(a.ratios.items()) == list(b.ratios.items())
    assert (a.worst_probe, a.probe_count) == (b.worst_probe, b.probe_count)


def test_a_failing_probe_only_field_is_named(monkeypatch):
    spec = bundled_spec("square2d", (9, 9))
    checker0 = dict(default_probes(spec.build_grid()))["checker0"]
    calls = count_solves(monkeypatch, fail_on=checker0)
    with pytest.raises(EstimateFailure) as err:
        compute_constants(spec)
    assert err.value.probe == "checker0"
    assert len(calls) == 3  # omega, the ones field, then checker0


def test_a_failing_weight_fails_the_torsion_step(monkeypatch):
    spec = bundled_spec("square2d", (9, 9))
    grid = spec.build_grid()
    omega = constants.combined_weight(constants.sample_weights(spec, grid))
    calls = count_solves(monkeypatch, fail_on=omega)
    with pytest.raises(SolveFailure):
        compute_constants(spec, grid)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# barrier function and thresholds


def test_barrier_value_formula(unit_bundle):
    spec = make_spec(2.0, 1.5, 1.0, 1.0)
    c = with_coeffs(unit_bundle, 2.0, 3.0)
    # Phi(t) = lam*2*t^(q-p) + beta*3*t^(r-p) with q-p = -0.5, r-p = 1
    assert barrier_value(4.0, 1.0, 1.0, c, spec) == pytest.approx(
        2.0 * 0.5 + 3.0 * 4.0)


def test_pinned_threshold_value(unit_bundle):
    """K for (p, q, r, A, B) = (2, 1.5, 3, 1, 1) is 0.5^0.5 / 1.5^1.5."""
    spec = make_spec(2.0, 1.5, 1.0, 1.0)
    c = with_coeffs(unit_bundle, 1.0, 1.0)
    expected = 0.5 ** 0.5 / 1.5 ** 1.5
    assert abs(super_threshold(c, spec) - expected) < 1e-12
    assert expected == pytest.approx(0.38490, rel=1e-4)


def test_critical_height_closed_form(unit_bundle):
    """M = (lam*A / (1 - beta*B))^(1/(p-q)): the worked value is exactly 4."""
    spec = make_spec(2.0, 1.5, 0.5, 0.5)  # r = 2 = p
    c = with_coeffs(unit_bundle, 1.0, 1.0)
    assert barrier_height(1.0, 0.5, c, spec) == 4.0
    assert barrier_height(1.0, 1.0, c, spec) is None   # beta*B = 1 excluded
    assert barrier_height(1.0, 2.0, c, spec) is None


def test_sub_height_is_the_root_of_phi(unit_bundle):
    spec = make_spec(2.5, 1.5, 0.2, 0.2)  # r = 1.4 < p
    c = with_coeffs(unit_bundle, 0.7, 1.3)
    m = barrier_height(2.0, 0.5, c, spec)
    assert barrier_value(m, 2.0, 0.5, c, spec) == pytest.approx(1.0, abs=1e-10)
    # Phi is strictly decreasing in the sub case, so the root is unique
    assert barrier_value(m * 0.9, 2.0, 0.5, c, spec) > 1.0
    assert barrier_value(m * 1.1, 2.0, 0.5, c, spec) < 1.0


def test_super_height_is_the_minimizer(unit_bundle):
    spec = make_spec(2.0, 1.5, 1.0, 1.0)
    c = with_coeffs(unit_bundle, 1.0, 1.0)
    k = super_threshold(c, spec)
    lam = 0.4
    beta = 0.5 * (k / lam ** (spec.r - spec.p)) ** (1.0 / (spec.p - spec.q))
    m = barrier_height(lam, beta, c, spec)
    _, t_star = barrier_min(lam, beta, 1.0, 1.0, spec.p, spec.q, spec.r)
    assert m == pytest.approx(t_star, rel=1e-6)


def test_threshold_requires_supercritical_growth(unit_bundle):
    with pytest.raises(ConfigurationError):
        super_threshold(unit_bundle, make_spec(2.5, 1.5, 0.2, 0.2))


@pytest.mark.parametrize("lam,beta", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0),
                                      (math.inf, 1.0), (1.0, math.nan)])
def test_bad_parameter_points_rejected(unit_bundle, lam, beta):
    spec = make_spec(2.0, 1.5, 1.0, 1.0)
    with pytest.raises(ConfigurationError):
        region_classify(lam, beta, unit_bundle, spec)


# ---------------------------------------------------------------------------
# region classification against the brute-force oracle


def test_super_verdicts_match_brute_force_on_random_tuples(unit_bundle):
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(500):
        p = rng.uniform(1.3, 3.5)
        q = rng.uniform(1.0 + 0.05, p - 0.05)
        if not 1.0 < q < p:
            continue
        # force r = a + b + 1 > p
        a = rng.uniform(0.1, 2.0)
        b = rng.uniform(max(0.05, p - 1.0 - a + 0.05), p + 1.5)
        spec = make_spec(p, q, a, b)
        if spec.r <= p:
            continue
        coeff_sub = 10.0 ** rng.uniform(-3, 1)
        coeff_grad = 10.0 ** rng.uniform(-3, 1)
        c = with_coeffs(unit_bundle, coeff_sub, coeff_grad)
        lam = 10.0 ** rng.uniform(-2, 2)
        beta = 10.0 ** rng.uniform(-2, 2)
        min_phi, _ = barrier_min(lam, beta, coeff_sub, coeff_grad,
                                 spec.p, spec.q, spec.r)
        if abs(min_phi - 1.0) <= 1e-9:
            continue  # boundary-slack tuples are allowed to disagree
        verdict = region_classify(lam, beta, c, spec)
        assert verdict.in_region == (min_phi <= 1.0), (
            p, q, spec.r, coeff_sub, coeff_grad, lam, beta, min_phi)
        if verdict.in_region:
            assert barrier_value(verdict.height, lam, beta, c, spec) <= 1.0 + 1e-9
        checked += 1
    assert checked >= 400  # the generator must not starve the comparison


def test_sub_case_covers_the_whole_quadrant(unit_bundle):
    spec = make_spec(2.5, 1.5, 0.2, 0.2)
    c = with_coeffs(unit_bundle, 0.3, 0.9)
    for lam, beta in [(1e-3, 1e3), (1e3, 1e-3), (1.0, 1.0), (50.0, 50.0)]:
        v = region_classify(lam, beta, c, spec)
        assert v.in_region
        assert v.margin == math.inf
        assert v.height > 0.0


def test_critical_region_is_a_beta_halfplane(unit_bundle):
    spec = make_spec(2.0, 1.5, 0.5, 0.5)
    c = with_coeffs(unit_bundle, 1.0, 0.25)
    limit = 4.0
    assert region_classify(5.0, limit - 1e-9, c, spec).in_region
    frontier = region_classify(5.0, limit, c, spec)
    assert not frontier.in_region  # the frontier itself is excluded
    assert region_classify(5.0, limit + 1.0, c, spec).margin < 0.0


# ---------------------------------------------------------------------------
# boundary polyline


def test_super_boundary_points_classify_inside(unit_bundle):
    spec = make_spec(2.0, 1.5, 1.0, 1.0)
    c = with_coeffs(unit_bundle, 0.5, 0.8)
    lams = [0.2, 0.5, 1.0, 2.0]
    curve = region_boundary(lams, c, spec)
    assert [lam for lam, _ in curve] == lams
    for lam, beta in curve:
        assert region_classify(lam, beta, c, spec).in_region
        assert not region_classify(lam, beta * (1.0 + 1e-6), c, spec).in_region


def test_critical_and_sub_boundaries(unit_bundle):
    crit = make_spec(2.0, 1.5, 0.5, 0.5)
    c = with_coeffs(unit_bundle, 1.0, 0.5)
    curve = region_boundary([1.0, 2.0], c, crit)
    assert all(beta == 2.0 for _, beta in curve)
    sub = make_spec(2.5, 1.5, 0.2, 0.2)
    assert region_boundary([1.0, 2.0], c, sub) == []
