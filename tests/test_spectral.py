"""Torsion function and first-eigenpair tests against independent oracles."""

import dataclasses

import numpy as np
import pytest

from plaplab import plap, spectral
from plaplab.errors import ConfigurationError, GridMismatchError
from plaplab.expr import bundled_problem_path, load_problem, sample_weights
from plaplab.grid import (
    ScalarField,
    build_grid,
    field_from_function,
    p_laplacian_apply,
    sup_norm,
    zero_field,
)
from plaplab.spectral import (
    EIGEN_RESIDUAL_REL,
    first_eigenpair,
    torsion_function,
)

from oracles import eigen_p2_tridiagonal, lambda1_1d, pi_p, pi_p_quadrature


def unit_weight(grid):
    return field_from_function(grid, lambda *xs: np.ones_like(xs[0]))


# ---------------------------------------------------------------------------
# torsion


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("length", [1.0, 2.0])
def test_torsion_matches_closed_form(p, length):
    g = build_grid(((0.0, length),), 257)
    result = torsion_function(g, p, unit_weight(g))
    exact = (p - 1.0) / p * (length / 2.0) ** (p / (p - 1.0))
    assert abs(result.phi_sup - exact) <= 0.01 * exact
    assert np.all(result.phi.values[g.interior] > 0.0)
    assert sup_norm(result.phi) == result.phi_sup


@pytest.mark.parametrize("p", [1.5, 2.5, 4.0])
def test_observed_convergence_orders_1d(p):
    # lambda1 converges at second order.  The torsion sup sits where Du = 0,
    # where the solution has only p/(p-1) regularity for p > 2, so its order
    # is min(2, p/(p-1)).
    exact_sup = (p - 1.0) / p * 0.5 ** (p / (p - 1.0))
    lambdas, sup_errors = [], []
    for n in (65, 129, 257):
        g = build_grid(((0.0, 1.0),), n)
        lambdas.append(first_eigenpair(g, p, unit_weight(g)).lambda1)
        sup_errors.append(
            abs(torsion_function(g, p, unit_weight(g)).phi_sup - exact_sup))
    # three-level differences, each level halving the spacing
    lambda_order = np.log2(abs(lambdas[0] - lambdas[1])
                           / abs(lambdas[1] - lambdas[2]))
    assert 1.8 <= lambda_order <= 2.2
    sup_order = np.log2(sup_errors[1] / sup_errors[2])
    assert sup_order == pytest.approx(min(2.0, p / (p - 1.0)), abs=0.1)


def test_torsion_2d_positive_and_symmetric():
    g = build_grid(((0.0, 1.0), (0.0, 1.0)), (33, 33))
    result = torsion_function(g, 2.5, unit_weight(g))
    vals = result.phi.values
    assert np.all(vals[g.interior] > 0.0)
    assert np.allclose(vals, vals[::-1, :], atol=1e-9)
    assert np.allclose(vals, vals[:, ::-1], atol=1e-9)


def test_torsion_rejects_bad_weight():
    g = build_grid(((0.0, 1.0),), 33)
    with pytest.raises(ConfigurationError):
        torsion_function(g, 2.0, zero_field(g))
    negative = ScalarField(g, np.full(g.shape, -1.0))
    with pytest.raises(ConfigurationError):
        torsion_function(g, 2.0, negative)
    with pytest.raises(GridMismatchError):
        torsion_function(g, 2.0, unit_weight(build_grid(((0.0, 1.0),), 17)))


# ---------------------------------------------------------------------------
# eigenpair


def test_pi_p_closed_form_agrees_with_quadrature():
    for p in (1.5, 2.0, 2.5, 3.0):
        assert pi_p(p) == pytest.approx(pi_p_quadrature(p), rel=1e-9)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_eigenvalue_matches_closed_form(p):
    g = build_grid(((0.0, 1.0),), 257)
    pair = first_eigenpair(g, p, unit_weight(g))
    assert abs(pair.lambda1 - lambda1_1d(p, 1.0)) <= 0.01 * lambda1_1d(p, 1.0)
    assert sup_norm(pair.u1) == pytest.approx(1.0)
    assert np.all(pair.u1.values[g.interior] > 0.0)


def test_eigen_p2_nonuniform_weight_matches_banded_solve():
    """Same stencil, independent algorithm: agreement must be far below the
    discretization error."""
    g = build_grid(((0.0, 1.0),), 129)
    w = field_from_function(g, lambda x: 1.0 + x)
    pair = first_eigenpair(g, 2.0, w)
    oracle = eigen_p2_tridiagonal(lambda x: 1.0 + x, 1.0, 129)
    assert pair.lambda1 == pytest.approx(oracle, rel=1e-7)


@pytest.mark.parametrize("t", [0.5, 2.0, 4.0])
def test_weight_scaling_law(t):
    g = build_grid(((0.0, 1.0),), 129)
    w = unit_weight(g)
    base = first_eigenpair(g, 2.5, w)
    scaled = first_eigenpair(g, 2.5, w.with_values(t * w.values))
    assert scaled.lambda1 == pytest.approx(base.lambda1 / t, rel=1e-6)


@pytest.mark.parametrize("p", [1.5, 2.0, 2.5, 3.0])
def test_eigen_residual_certificate(p):
    """The returned pair satisfies its own equation to the documented level."""
    g = build_grid(((0.0, 1.0),), 129)
    w = field_from_function(g, lambda x: 1.0 + 0.3 * np.sin(3.0 * x))
    pair = first_eigenpair(g, p, w)
    res = (p_laplacian_apply(pair.u1, p).values
           - pair.lambda1 * w.values * pair.u1.values ** (p - 1.0))
    bound = EIGEN_RESIDUAL_REL * pair.lambda1 * sup_norm(w)
    assert np.max(np.abs(res[g.interior])) <= bound


def test_eigen_2d_runs_and_certifies():
    g = build_grid(((0.0, 1.0), (0.0, 1.0)), (25, 25))
    pair = first_eigenpair(g, 2.0, unit_weight(g))
    # classical 2d value 2*pi^2 with O(h^2) discretization error
    assert pair.lambda1 == pytest.approx(2.0 * np.pi ** 2, rel=5e-3)


def test_eigen_3d_matches_the_seven_point_laplacian():
    # at p = 2 the operator is the 7-point Laplacian, whose first eigenvalue
    # on the unit cube is sum_k (4/h^2) sin^2(pi h/2)
    g = build_grid(((0.0, 1.0),) * 3, 9)
    pair = first_eigenpair(g, 2.0, unit_weight(g))
    h = g.spacing[0]
    exact = 3.0 * 4.0 / h ** 2 * np.sin(np.pi * h / 2.0) ** 2
    assert pair.lambda1 == pytest.approx(exact, rel=1e-6)


@pytest.fixture(scope="module")
def square2d_weight():
    """square2d's p and omega1 on a 9x9 grid."""
    spec = dataclasses.replace(load_problem(bundled_problem_path("square2d")),
                               resolution=(9, 9))
    return spec.p, sample_weights(spec, spec.build_grid())[0]


def test_eigen_sweeps_share_one_factor_per_call(square2d_weight, monkeypatch):
    p, w = square2d_weight
    factorizations = []
    try_solve = plap._try_solve
    monkeypatch.setattr(plap, "_try_solve", lambda *args: factorizations.append(
        args) or try_solve(*args))
    holders = []  # one per call, empty at its first sweep
    sweeps = []  # the factorizations of each sweep
    solve = spectral.solve_plap_dirichlet

    def recording(*args, factor, **kwargs):
        if not holders or factor is not holders[-1]:
            assert factor == [] and all(factor is not h for h in holders)
            holders.append(factor)
        before = len(factorizations)
        v = solve(*args, factor=factor, **kwargs)
        sweeps.append(len(factorizations) - before)
        return v

    monkeypatch.setattr(spectral, "solve_plap_dirichlet", recording)
    first_eigenpair(w.grid, p, w)
    count = len(sweeps)
    first_eigenpair(w.grid, p, w)
    assert len(holders) == 2
    assert sum(sweeps[:count]) < count
    assert sweeps[count:] == sweeps[:count]


def test_eigenpair_does_not_depend_on_earlier_calls(square2d_weight):
    p, w = square2d_weight
    first = first_eigenpair(w.grid, p, w)
    first_eigenpair(w.grid, 1.5, w)
    again = first_eigenpair(w.grid, p, w)
    assert again.lambda1 == first.lambda1
    assert again.u1.values.tobytes() == first.u1.values.tobytes()


def test_1d_solves_keep_no_factor(monkeypatch):
    # a banded solve factors and solves in one LAPACK call
    holders = []
    newton_loop = plap._newton_loop

    def recording(*args):
        u = newton_loop(*args)
        holders.append(list(args[-1]))
        return u

    monkeypatch.setattr(plap, "_newton_loop", recording)
    g = build_grid(((0.0, 1.0),), 129)
    w = field_from_function(g, lambda x: 1.0 + 0.3 * np.sin(3.0 * x))
    first_eigenpair(g, 2.5, w)
    assert len(holders) > 1 and all(h == [] for h in holders)
