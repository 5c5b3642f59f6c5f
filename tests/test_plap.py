"""Nonlinear solver tests: correctness, contracts, and the gradient constant."""

import itertools

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from plaplab.errors import (
    ConfigurationError,
    GridMismatchError,
    SolveFailure,
    StaleGradConstantError,
)
import plaplab.plap as plap
from plaplab.grid import (
    DELTA_RELATIVE,
    ScalarField,
    _faces,
    _gradient_scale,
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
    ROUNDING_ULPS,
    SolveOptions,
    _assemble,
    _plap_own_delta,
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
    if dimension == 2:
        g = build_grid(((0.0, 1.0), (0.0, 1.0)), (13, 11))
        return field_from_function(
            g, lambda x, y: (np.sin(np.pi * x) * np.sin(np.pi * y)
                             * (1.0 + 0.3 * x + 0.2 * y * y)))
    g = build_grid(((0.0, 1.0), (0.0, 1.0), (0.0, 2.0)), (7, 6, 5))
    return field_from_function(
        g, lambda x, y, z: (np.sin(np.pi * x) * np.sin(np.pi * y)
                            * np.sin(0.5 * np.pi * z)
                            * (1.0 + 0.3 * x + 0.2 * y * y - 0.1 * z)))


@pytest.mark.parametrize("dimension", [1, 2, 3])
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


@pytest.mark.parametrize("shape", [(17,), (7, 9), (5, 6, 7)])
@pytest.mark.parametrize("zero", [False, True])
def test_newton_residual_reads_delta_and_flux_from_one_face_build(shape, zero):
    # the zero field has delta = 0 and takes the masked-power branch
    g = build_grid(((0.0, 1.0), (0.0, 2.0), (0.0, 0.5))[:len(shape)], shape)
    values = np.zeros(shape)
    if not zero:
        values[g.interior] = np.random.default_rng(7).standard_normal(
            tuple(n - 2 for n in shape))
    for p in (1.5, 2.5, 4.0):
        delta = DELTA_RELATIVE * _gradient_scale(values, g.spacing)
        out, got = _plap_own_delta(values, g.spacing, p)
        assert got == delta and (delta == 0.0) == zero
        assert out.tobytes() == _plap_raw(values, g.spacing, p, delta).tobytes()


@pytest.mark.parametrize("shape", [(17,), (7, 9), (5, 6, 7)])
@pytest.mark.parametrize("frozen", [False, True])
def test_assembly_from_the_residual_faces_is_bit_equal(shape, frozen):
    g = build_grid(((0.0, 1.0), (0.0, 2.0), (0.0, 0.5))[:len(shape)], shape)
    values = np.zeros(shape)
    values[g.interior] = np.random.default_rng(8).standard_normal(
        tuple(n - 2 for n in shape))
    faces = _faces(values, g.spacing)
    for p in (1.5, 2.5, 4.0):
        delta = DELTA_RELATIVE * _gradient_scale(values, g.spacing, faces)
        got = _assemble(values, g.spacing, p, delta, frozen, faces)
        expected = _assemble(values, g.spacing, p, delta, frozen)
        assert got.data.tobytes() == expected.data.tobytes()


@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_frozen_matrix_at_p2_is_the_standard_laplacian(dimension):
    shape = {1: (9,), 2: (7, 9), 3: (7, 9, 6)}[dimension]
    g = build_grid(((0.0, 1.0), (0.0, 2.0), (0.0, 0.5))[:dimension], shape)
    rng = np.random.default_rng(3)
    values = rng.standard_normal(g.shape)  # p = 2 ignores the state
    mat = _assemble(values, g.spacing, 2.0, 1.0e-3, frozen=True).toarray()
    # the (2d+1)-point Laplacian: one second difference per axis, as a
    # Kronecker sum
    sizes = [n - 2 for n in g.shape]
    expected = 0.0
    for k, h in enumerate(g.spacing):
        term = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1],
                        shape=(sizes[k], sizes[k])) / (h * h)
        for before in reversed(sizes[:k]):
            term = sp.kron(sp.identity(before), term)
        for after in sizes[k + 1:]:
            term = sp.kron(term, sp.identity(after))
        expected = expected + term
    assert np.allclose(mat, expected.toarray(), rtol=1e-14, atol=0.0)


def test_try_solve_returns_none_on_singular_matrix():
    singular = sp.csc_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert _try_solve(singular, np.array([1.0, 2.0])) is None
    assert _try_solve(sp.csc_matrix((2, 2)), np.array([1.0, 2.0])) is None


def test_try_solve_keeps_programming_errors_loud():
    mat = sp.identity(3, format="csc")
    with pytest.raises(ValueError):
        _try_solve(mat, np.ones(4))


@pytest.mark.parametrize("frozen", [True, False])
@pytest.mark.parametrize("p", [1.5, 2.5, 4.0])
def test_banded_solve_matches_sparse_lu(p, frozen):
    u = _jacobian_test_field(1)
    mat = _assemble(u.values, u.grid.spacing, p, flux_delta(u), frozen)
    assert mat.format == "dia"
    rhs = np.random.default_rng(5).standard_normal(mat.shape[0])
    expected = spla.spsolve(mat.tocsc(), rhs)
    got = _try_solve(mat, rhs)
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


def _loop_jacobian(values, spacing, p, delta, frozen):
    """Dense Newton/Picard matrix scattered face by face in plain loops, with
    each face's s and t taken from the node values (any number of axes)."""
    shape = values.shape
    d = len(shape)
    interior = itertools.product(*(range(1, n - 1) for n in shape))
    number = {node: k for k, node in enumerate(interior)}
    mat = np.zeros((len(number), len(number)))
    d2 = delta * delta

    def moved(node, axis, step):
        return tuple(c + step * (a == axis) for a, c in enumerate(node))

    for k, h in enumerate(spacing):
        cross = [j for j in range(d) if j != k]
        faces = itertools.product(*(range(n - 1) if a == k else range(1, n - 1)
                                    for a, n in enumerate(shape)))
        for lo in faces:
            hi = moved(lo, k, 1)
            s = (values[hi] - values[lo]) / h
            t = [(values[moved(lo, j, 1)] + values[moved(hi, j, 1)]
                  - values[moved(lo, j, -1)] - values[moved(hi, j, -1)])
                 / (4.0 * spacing[j]) for j in cross]
            tt = sum(tj * tj for tj in t)
            m2 = s * s + tt + d2
            if frozen:
                ds, dts = m2 ** ((p - 2.0) / 2.0), [0.0] * len(cross)
            else:
                w = m2 ** ((p - 4.0) / 2.0)
                ds = w * (d2 + tt + (p - 1.0) * s * s)
                dts = [(p - 2.0) * w * s * tj for tj in t]
            # dF/du at every node the face flux reads
            flux_terms = [(hi, ds / h), (lo, -ds / h)]
            for j, dt in zip(cross, dts):
                for node, side in itertools.product((lo, hi), (1, -1)):
                    flux_terms.append((moved(node, j, side),
                                       side * dt / (4.0 * spacing[j])))
            for row, sign in ((lo, -1.0 / h), (hi, 1.0 / h)):
                for col, dval in flux_terms:
                    if row in number and col in number:
                        mat[number[row], number[col]] += sign * dval
    return mat


@pytest.mark.parametrize("frozen", [True, False])
def test_assembly_pattern_follows_the_grid_shape(frozen):
    # one axis stores the band layout, more axes CSC; (7, 9) twice checks
    # the per-shape cache
    rng = np.random.default_rng(11)
    for shape in ((17,), (7, 9), (9, 7), (33, 33), (7, 9), (5, 6, 7)):
        g = build_grid(((0.0, 1.0), (0.0, 2.0), (0.0, 0.5))[:len(shape)], shape)
        values = rng.standard_normal(shape)
        mat = _assemble(values, g.spacing, 2.5, 1.0e-3, frozen)
        if len(shape) == 1:
            assert mat.format == "dia"
        else:
            assert mat.format == "csc" and mat.has_canonical_format
        expected = _loop_jacobian(values, g.spacing, 2.5, 1.0e-3, frozen)
        assert np.allclose(mat.toarray(), expected, rtol=0.0,
                           atol=1e-13 * np.max(np.abs(expected)))


def test_banded_try_solve_singular_and_wrong_length():
    singular = sp.dia_matrix((np.array([[0.0, 1.0], [1.0, 1.0], [1.0, 0.0]]),
                              [1, 0, -1]), shape=(2, 2))
    assert _try_solve(singular, np.array([1.0, 2.0])) is None
    band = sp.dia_matrix((np.ones((3, 3)), [1, 0, -1]), shape=(3, 3))
    with pytest.raises(ValueError):
        _try_solve(band, np.ones(4))


@pytest.mark.parametrize("shape, peak", [
    ((3,), 0.19842513151050908), ((4,), 0.16024995225825045),
    ((3, 3), 0.12500000021801208)])
def test_smallest_grids_solve(shape, peak):
    g = build_grid(tuple((0.0, 1.0) for _ in shape), shape)
    u = solve_plap_dirichlet(g, 2.5, const_field(g))
    assert u.values.max() == pytest.approx(peak, rel=1e-12)


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


def _rounding_floor(u, p):
    delta = flux_delta(u)
    jac = _assemble(u.values, u.grid.spacing, p, delta, frozen=False)
    return ROUNDING_ULPS * np.finfo(float).eps * np.max(
        abs(jac) @ np.abs(u.values[u.grid.interior].ravel()))


@pytest.mark.parametrize("shape, tol", [((2049,), 1e-10), ((65, 65), 1e-16)])
def test_newton_stops_at_the_rounding_floor(shape, tol):
    # the tolerance sits below what rounding lets the residual reach
    g = build_grid(tuple((0.0, 1.0) for _ in shape), shape)
    u = solve_plap_dirichlet(g, 2.5, const_field(g),
                             SolveOptions(tol_residual=tol))
    res = np.max(np.abs((p_laplacian_apply(u, 2.5).values - 1.0)[g.interior]))
    assert res <= _rounding_floor(u, 2.5)
    assert res < 2e-9


def test_stall_above_the_rounding_floor_still_raises(monkeypatch):
    monkeypatch.setattr(plap, "_backtrack", lambda *args: None)
    g = grid_1d(65)
    guess = field_from_function(g, lambda x: np.sin(np.pi * x))
    with pytest.raises(SolveFailure, match=r"stalled at residual .* above the "
                       r"rounding floor \d"):
        solve_plap_dirichlet(g, 2.0, const_field(g), initial_guess=guess)


@pytest.mark.parametrize("shape", [(9, 9), (17, 17)])
def test_a_wrong_kept_factor_is_replaced(shape, monkeypatch):
    g = build_grid(((0.0, 1.0), (0.0, 1.0)), shape)
    p, opts = 2.5, SolveOptions(tol_residual=1e-10)
    load = field_from_function(g, lambda x, y: 1.0 + x * y)
    guess = solve_plap_dirichlet(g, p, const_field(g), opts)
    # the p = 2 Laplacian is a poor linear model of the p = 2.5 operator
    wrong = spla.splu(_assemble(np.zeros(g.shape), g.spacing, 2.0, 0.0,
                                frozen=True)).solve
    factor = [wrong]
    factorizations = []
    try_solve = plap._try_solve
    monkeypatch.setattr(plap, "_try_solve", lambda *args: factorizations.append(
        args) or try_solve(*args))
    u = solve_plap_dirichlet(g, p, load, opts, initial_guess=guess,
                             factor=factor)
    monkeypatch.undo()
    assert factorizations and len(factor) == 1 and factor[0] is not wrong
    tol = opts.tol_residual * max(1.0, sup_norm(load))
    res = (p_laplacian_apply(u, p).values - load.values)[g.interior]
    assert np.max(np.abs(res)) <= tol
    fresh = solve_plap_dirichlet(g, p, load, opts, initial_guess=guess)
    assert np.max(np.abs(u.values - fresh.values)) <= 10.0 * tol


def test_rounding_floor_after_a_failed_chord_step_reads_a_fresh_jacobian(
        monkeypatch):
    g = build_grid(((0.0, 1.0), (0.0, 1.0)), (9, 9))
    p = 2.5
    guess = solve_plap_dirichlet(g, p, const_field(g))
    guess = guess.with_values(1.01 * guess.values)
    jacobians = []
    assemble = plap._assemble

    def recording(values, *args, **kwargs):
        if not kwargs["frozen"]:
            jacobians.append(values.copy())
        return assemble(values, *args, **kwargs)

    monkeypatch.setattr(plap, "_assemble", recording)
    monkeypatch.setattr(plap, "_backtrack", lambda *args: None)
    idle = [lambda rhs: np.zeros_like(rhs)]  # a chord step that stays put
    with pytest.raises(SolveFailure) as err:
        solve_plap_dirichlet(g, p, const_field(g), initial_guess=guess,
                             factor=idle)
    monkeypatch.undo()
    assert len(jacobians) == 1
    assert jacobians[0].tobytes() == guess.values.tobytes()
    assert f"rounding floor {_rounding_floor(guess, p):.3e}" in str(err.value)


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
