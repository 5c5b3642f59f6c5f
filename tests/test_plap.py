"""Nonlinear solver tests: correctness, contracts, and the gradient constant."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from plaplab.errors import (
    ConfigurationError,
    GridMismatchError,
    SolveFailure,
    StaleGradConstantError,
)
from plaplab.grid import (
    ScalarField,
    _plap_raw,
    build_grid,
    field_from_function,
    flux_delta,
    gradient,
    p_laplacian_apply,
    sup_norm,
    zero_field,
)
from plaplab.plap import (
    SolveOptions,
    _assemble,
    _try_solve,
    assert_gradient_bound,
    check_comparison,
    default_probes,
    estimate_grad_constant,
    solve_plap_dirichlet,
)

from oracles import solve_two_point, torsion_sup_1d


def grid_1d(n=129, length=1.0):
    return build_grid(((0.0, length),), n)


def const_field(grid, value=1.0):
    return ScalarField(grid, np.full(grid.shape, value))


# ---------------------------------------------------------------------------
# correctness against independent solutions


@pytest.mark.parametrize("p", [1.5, 2.0, 2.5, 3.0])
def test_constant_load_matches_torsion_closed_form(p):
    g = grid_1d(257)
    u = solve_plap_dirichlet(g, p, const_field(g))
    assert abs(sup_norm(u) - torsion_sup_1d(p, 1.0)) < 1e-2 * torsion_sup_1d(p, 1.0)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_nonsymmetric_load_matches_flux_integration_oracle(p):
    g = grid_1d(257)
    load = field_from_function(g, lambda x: 1.0 + x)
    u = solve_plap_dirichlet(g, p, load)
    x_fine, u_fine = solve_two_point(lambda x: 1.0 + x, 1.0, p)
    expected = np.interp(g.axis(0), x_fine, u_fine)
    assert np.max(np.abs(u.values - expected)) < 2e-3 * np.max(np.abs(expected))


def test_2d_p2_matches_separable_series_peak():
    # -Lap u = 1 on the unit square; classical series value at the center.
    g = build_grid(((0.0, 1.0), (0.0, 1.0)), (65, 65))
    u = solve_plap_dirichlet(g, 2.0, const_field(g))
    exact_center = 0.07367135328174708  # Fourier series, 400 terms
    mid = (g.shape[0] - 1) // 2
    assert abs(u.values[mid, mid] - exact_center) < 1e-3 * exact_center


def test_residual_contract_and_boundary():
    g = grid_1d(65)
    load = field_from_function(g, lambda x: np.exp(x))
    opts = SolveOptions(tol_residual=1e-10)
    u = solve_plap_dirichlet(g, 2.6, load, opts)
    res = p_laplacian_apply(u, 2.6).values - load.values
    tol = 1e-10 * max(1.0, sup_norm(load))
    assert np.max(np.abs(res[g.interior])) <= tol
    assert np.all(u.values[g.boundary_mask()] == 0.0)
    assert np.all(u.values[g.interior] > 0.0)


# ---------------------------------------------------------------------------
# scaling law


@settings(max_examples=20, deadline=None)
@given(t=st.floats(min_value=1e-3, max_value=1e3),
       p=st.sampled_from([1.5, 2.0, 2.5, 3.0]))
def test_solver_homogeneity(t, p):
    """solve(t*g) = t^(1/(p-1)) solve(g) is the discrete scaling law."""
    g = grid_1d(65)
    load = field_from_function(g, lambda x: 1.0 + np.sin(2.0 * x))
    opts = SolveOptions(tol_residual=1e-10)
    base = solve_plap_dirichlet(g, p, load, opts)
    scaled = solve_plap_dirichlet(
        g, p, load.with_values(t * load.values), opts)
    assert np.allclose(scaled.values, t ** (1.0 / (p - 1.0)) * base.values,
                       rtol=1e-6, atol=1e-12 * sup_norm(base))


# ---------------------------------------------------------------------------
# the linearized operator


def _jacobian_test_field(dimension):
    if dimension == 1:
        g = grid_1d(33)
        return field_from_function(
            g, lambda x: x * (1.0 - x) * (1.2 + np.sin(3.0 * x)))
    g = build_grid(((0.0, 1.0), (0.0, 1.0)), (13, 11))
    return field_from_function(
        g, lambda x, y: (np.sin(np.pi * x) * np.sin(np.pi * y)
                         * (1.0 + 0.3 * x + 0.2 * y * y)))


@pytest.mark.parametrize("dimension", [1, 2])
@pytest.mark.parametrize("p", [1.5, 2.5, 4.0])
def test_newton_jacobian_matches_central_differences(p, dimension):
    u = _jacobian_test_field(dimension)
    g = u.grid
    delta = flux_delta(u)  # held fixed: the Jacobian is taken at fixed delta
    jac = _assemble(u.values, g.spacing, p, delta, frozen=False).toarray()
    eps = 1.0e-6 * sup_norm(u)
    nodes = np.argwhere(np.ones(tuple(n - 2 for n in g.shape), dtype=bool)) + 1
    fd = np.empty_like(jac)
    for col, node in enumerate(map(tuple, nodes)):
        up, down = u.values.copy(), u.values.copy()
        up[node] += eps
        down[node] -= eps
        diff = (_plap_raw(up, g.spacing, p, delta)
                - _plap_raw(down, g.spacing, p, delta))
        fd[:, col] = diff[g.interior].ravel() / (2.0 * eps)
    assert np.max(np.abs(jac - fd)) <= 1.0e-6 * np.max(np.abs(jac))


@pytest.mark.parametrize("dimension", [1, 2])
def test_frozen_matrix_at_p2_is_the_standard_laplacian(dimension):
    if dimension == 1:
        g = grid_1d(9)
    else:
        g = build_grid(((0.0, 1.0), (0.0, 2.0)), (7, 9))
    rng = np.random.default_rng(3)
    values = rng.standard_normal(g.shape)  # p = 2 ignores the state
    mat = _assemble(values, g.spacing, 2.0, 1.0e-3, frozen=True).toarray()
    blocks = [sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n - 2, n - 2))
              / (h * h) for n, h in zip(g.shape, g.spacing)]
    if dimension == 1:
        expected = blocks[0]
    else:
        expected = (sp.kron(blocks[0], sp.identity(g.shape[1] - 2))
                    + sp.kron(sp.identity(g.shape[0] - 2), blocks[1]))
    assert np.allclose(mat, expected.toarray(), rtol=1e-14, atol=0.0)


def test_try_solve_returns_none_on_singular_matrix():
    singular = sp.csc_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert _try_solve(singular, np.array([1.0, 2.0])) is None
    assert _try_solve(sp.csc_matrix((2, 2)), np.array([1.0, 2.0])) is None


def test_try_solve_keeps_programming_errors_loud():
    mat = sp.identity(3, format="csc")
    with pytest.raises(ValueError):
        _try_solve(mat, np.ones(4))


# ---------------------------------------------------------------------------
# solver mechanics


def test_warm_start_and_trace_triples():
    g = grid_1d(65)
    load = const_field(g)
    trace = []
    u = solve_plap_dirichlet(g, 2.8, load, trace=trace)
    assert len(trace) >= 1
    for step, residual, damping in trace:  # (iter, residual, damping) triples
        assert isinstance(step, int)
        assert residual >= 0.0
        assert 0.0 < damping <= 1.0
    warm_trace = []
    again = solve_plap_dirichlet(g, 2.8, load, initial_guess=u,
                                 trace=warm_trace)
    assert len(warm_trace) <= len(trace)
    assert np.max(np.abs(again.values - u.values)) <= 1e-8


def test_flat_warm_start_falls_back_to_cold_start():
    g = grid_1d(33)
    load = const_field(g)
    u = solve_plap_dirichlet(g, 3.0, load, initial_guess=zero_field(g))
    assert sup_norm(u) > 0.1


def test_iteration_budget_exhaustion_raises_with_history():
    g = grid_1d(65)
    load = const_field(g)
    opts = SolveOptions(tol_residual=1e-14, max_iter=1)
    with pytest.raises(SolveFailure) as err:
        solve_plap_dirichlet(g, 3.0, load, opts)
    assert len(err.value.residual_history) >= 1


def test_rejects_mismatched_grid_and_bad_p():
    g = grid_1d(17)
    other = grid_1d(19)
    with pytest.raises(GridMismatchError):
        solve_plap_dirichlet(g, 2.0, const_field(other))
    with pytest.raises(ConfigurationError):
        solve_plap_dirichlet(g, 0.5, const_field(g))


def test_check_comparison():
    g = grid_1d(17)
    lo = const_field(g, 0.0)
    hi = const_field(g, 1.0)
    assert check_comparison(lo, hi)
    assert not check_comparison(hi, lo)
    assert check_comparison(hi, lo, slack=1.0)
    with pytest.raises(GridMismatchError):
        check_comparison(lo, const_field(grid_1d(19)))


# ---------------------------------------------------------------------------
# the empirical gradient constant


def test_probe_family_contents():
    g = grid_1d(33)
    probes = default_probes(g)
    labels = [label for label, _ in probes]
    assert "const1" in labels
    assert any("checker" in label for label in labels)
    assert len(probes) >= 5
    extra = default_probes(g, extra=[("mine", const_field(g, 2.0))])
    assert extra[-1][0] == "mine"


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_estimate_covers_probes_with_margin(p):
    g = grid_1d(65)
    est = estimate_grad_constant(g, p)
    assert est.probe_count == len(est.ratios)
    assert est.khat == pytest.approx(1.1 * max(est.ratios.values()))
    assert est.worst_probe in est.ratios


@pytest.mark.parametrize("length", [1.0, 2.0])
def test_1d_probe_ratios_below_interval_length(length):
    """In 1d the flux argument bounds ||u'|| by (L ||g||)^(1/(p-1)) * L / L,
    so every ratio sits below the interval length."""
    for p in (1.5, 2.0, 3.0):
        g = build_grid(((0.0, length),), 65)
        est = estimate_grad_constant(g, p)
        assert max(est.ratios.values()) <= length + 1e-12


def test_gradient_bound_enforcement():
    g = grid_1d(65)
    p = 2.5
    est = estimate_grad_constant(g, p)
    load = field_from_function(g, lambda x: 1.0 + 0.5 * np.cos(3.0 * x))
    u = solve_plap_dirichlet(g, p, load)
    assert_gradient_bound(est.khat, u, load, p)  # must hold for a fresh solve
    tiny = sup_norm(gradient(u)) / sup_norm(load) ** (1.0 / (p - 1.0)) * 0.5
    with pytest.raises(StaleGradConstantError):
        assert_gradient_bound(tiny, u, load, p, context="forced")


def test_estimate_rejects_zero_probe():
    g = grid_1d(17)
    with pytest.raises(ConfigurationError):
        estimate_grad_constant(g, 2.0, probes=[("null", zero_field(g))])
