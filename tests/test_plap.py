"""Nonlinear solver tests: correctness, contracts, and the gradient constant."""

import itertools
import tracemalloc

import numpy as np
import pytest
import scipy
import scipy.fft
import scipy.linalg
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
import plaplab.grid as grid_module
import plaplab.plap as plap
from plaplab.grid import (
    DELTA_RELATIVE,
    ScalarField,
    _faces,
    _gradient_scale,
    _plap_own_delta,
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
    _Banded,
    _Tridiagonal,
    _assemble,
    _band,
    _couplings,
    _pack,
    _stencil,
    _try_solve,
    assert_gradient_bound,
    default_probes,
    estimate_grad_constant,
    operator_value,
    solve_plap_dirichlet,
)

from oracles import (bump_ratio_1d, one_node_bump, solve_two_point,
                     torsion_sup_1d)


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
    tol = 1e-10 * sup_norm(load)
    assert np.max(np.abs(res[g.interior])) <= tol
    assert np.all(u.values[g.boundary_mask()] == 0.0)
    assert np.all(u.values[g.interior] > 0.0)


@pytest.mark.parametrize("tol", [-1.0, 0.0, float("nan"), float("inf")])
def test_options_reject_a_tolerance_that_is_not_finite_and_positive(tol):
    with pytest.raises(ConfigurationError, match="tol_residual"):
        SolveOptions(tol_residual=tol)


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


@pytest.mark.parametrize("t", [2.0 ** -40, 2.0 ** -20])
def test_the_residual_stop_is_relative_to_the_load(t):
    # the stop is tol * ||g||_inf on every scale, so a small load is solved
    # as far as a unit one, and the scaling law holds to the tolerance
    g = grid_1d(65)
    p = 2.6
    load = field_from_function(g, lambda x: 1.0 + np.sin(2.0 * x))
    small = load.with_values(t * load.values)
    base = solve_plap_dirichlet(g, p, load)
    scaled = solve_plap_dirichlet(g, p, small)
    _assert_residual_contract(scaled, p, small)
    factor = t ** (1.0 / (p - 1.0))
    assert np.abs(scaled.values - factor * base.values).max() \
        <= 1e-7 * factor * sup_norm(base)


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


def grid_order_csc(matrix, unknown=None):
    """The matrix of an _assemble storage as CSC, with its rows and columns in
    grid (C) order of the interior nodes, built from its ``coef``; or
    numbered by ``unknown``, the unknown of each interior node in C order."""
    shape = matrix.coef.shape[1:]
    n = int(np.prod([size - 2 for size in shape]))
    rows, cols, sources = _couplings(
        shape, np.arange(n) if unknown is None else unknown)
    return sp.csc_matrix((matrix.coef.ravel()[sources], (rows, cols)),
                         shape=(n, n))


def grid_order(matrix):
    """The matrix of an _assemble storage as a dense array in grid order."""
    return grid_order_csc(matrix).toarray()


def stored(matrix):
    """The bytes of the matrix an _assemble storage keeps, its ``coef``."""
    return matrix.coef.tobytes()


def _face_bytes(faces):
    """The bytes of every array of a ``_faces`` list, in order."""
    return [a.tobytes() for s, t in faces for a in (s, *t)]


@pytest.mark.parametrize("dimension", [1, 2, 3])
@pytest.mark.parametrize("p", [1.5, 2.5, 4.0])
def test_newton_jacobian_matches_central_differences(p, dimension):
    u = _jacobian_test_field(dimension)
    g = u.grid
    delta = flux_delta(u)  # held fixed: the Jacobian is taken at fixed delta
    jac = grid_order(_assemble(u.values, g.spacing, p, delta,
                               faces=_faces(u.values, g.spacing)))
    eps = 1.0e-6 * sup_norm(u)
    nodes = np.argwhere(np.ones(tuple(n - 2 for n in g.shape), dtype=bool)) + 1
    fd = np.empty_like(jac)
    for col, node in enumerate(map(tuple, nodes)):
        up, down = u.values.copy(), u.values.copy()
        up[node] += eps
        down[node] -= eps
        diff = (_plap_raw(up, g.spacing, p, delta, _faces(up, g.spacing))
                - _plap_raw(down, g.spacing, p, delta,
                            _faces(down, g.spacing)))
        fd[:, col] = diff[g.interior].ravel() / (2.0 * eps)
    assert np.max(np.abs(jac - fd)) <= 1.0e-6 * np.max(np.abs(jac))


def _reaction_problem(dimension, seed=11):
    """A random positive field on the Jacobian test grid, with a random
    coefficient >= 0.5 and load >= 0 of a reaction term."""
    g = _jacobian_test_field(dimension).grid
    rng = np.random.default_rng(seed)
    values = np.zeros(g.shape)
    values[g.interior] = rng.uniform(0.1, 1.0,
                                     size=tuple(n - 2 for n in g.shape))
    return (g, values, rng.uniform(0.5, 2.0, size=g.shape),
            rng.uniform(0.0, 1.0, size=g.shape))


@pytest.mark.parametrize("dimension", [1, 2])
@pytest.mark.parametrize("p, q", [(1.5, 1.2), (2.5, 1.5), (4.0, 3.5)])
def test_shifted_jacobian_matches_central_differences_of_g(p, q, dimension):
    # G(u) = -Lap_p u - coeff u^(q-1) - base, at fixed delta
    g, values, coeff, base = _reaction_problem(dimension)
    faces = _faces(values, g.spacing)
    delta = DELTA_RELATIVE * _gradient_scale(faces)

    def G(v):
        return (_plap_raw(v, g.spacing, p, delta, _faces(v, g.spacing))
                - coeff * np.power(np.maximum(v, 0.0), q - 1.0) - base)

    jac = grid_order(_assemble(values, g.spacing, p, delta, faces=faces,
                               shift=plap._reaction_slope(values, coeff, q)))
    eps = 1.0e-6 * values.max()
    nodes = np.argwhere(np.ones(tuple(n - 2 for n in g.shape), dtype=bool)) + 1
    fd = np.empty_like(jac)
    for col, node in enumerate(map(tuple, nodes)):
        up, down = values.copy(), values.copy()
        up[node] += eps
        down[node] -= eps
        fd[:, col] = (G(up) - G(down))[g.interior].ravel() / (2.0 * eps)
    assert np.max(np.abs(jac - fd)) <= 1.0e-6 * np.max(np.abs(jac))
    # the reaction pulls the diagonal down, nothing else
    plain = grid_order(_assemble(values, g.spacing, p, delta, faces=faces))
    assert np.all(np.diag(jac) < np.diag(plain))
    assert np.array_equal(jac - np.diag(np.diag(jac)),
                          plain - np.diag(np.diag(plain)))


@pytest.mark.parametrize("dimension", [1, 2])
def test_the_shift_is_zero_where_the_field_vanishes(dimension):
    # for q < 2 the slope of u^(q-1) at 0 is infinite; where u <= 0 the
    # reaction max(u, 0)^(q-1) is flat and shifts nothing
    g, values, coeff, _ = _reaction_problem(dimension)
    inner = tuple(n - 2 for n in g.shape)
    zero = (1,) * dimension
    negative = tuple(n - 2 for n in g.shape)
    values[zero], values[negative] = 0.0, -0.1
    shift = plap._reaction_slope(values, coeff, 1.5)
    assert shift[zero] == 0.0 and shift[negative] == 0.0
    assert not shift[g.boundary_mask()].any()
    assert np.count_nonzero(shift) == np.prod(inner) - 2
    faces = _faces(values, g.spacing)
    delta = DELTA_RELATIVE * _gradient_scale(faces)
    shifted = grid_order(_assemble(values, g.spacing, 2.5, delta, faces=faces,
                                   shift=shift))
    plain = grid_order(_assemble(values, g.spacing, 2.5, delta, faces=faces))
    for node in (zero, negative):
        col = np.ravel_multi_index(tuple(i - 1 for i in node), inner)
        assert np.array_equal(shifted[:, col], plain[:, col])
    assert np.allclose(plain - shifted, np.diag(shift[g.interior].ravel()),
                       rtol=1e-12, atol=1e-12 * np.abs(plain).max())


@pytest.mark.parametrize("shape", [(129,), (17, 17)])
def test_a_reaction_solve_meets_its_residual_contract(shape):
    # -Lap_p u = coeff u^(q-1) + base from a warm start, the frozen problem
    # of an outer step: the stop reads the load at the returned u
    g = build_grid(tuple((0.0, 1.0) for _ in shape), shape)
    p, q = 2.5, 1.5
    coeff = np.full(g.shape, 2.0)
    base = np.ones(g.shape)
    guess = solve_plap_dirichlet(g, p, ScalarField(g, base))
    opts = SolveOptions(tol_residual=1.0e-10)
    u = solve_plap_dirichlet(g, p, ScalarField(g, base), opts,
                             initial_guess=operator_value(guess, p),
                             reaction=(coeff, q)).field
    load = coeff * np.power(np.maximum(u.values, 0.0), q - 1.0) + base
    residual = np.abs(p_laplacian_apply(u, p).values - load)[g.interior].max()
    assert residual <= 1.0e-10 * load.max()
    assert u.values[g.interior].min() > 0.0
    # the reaction adds to the load, so u lies above the plain solution
    assert np.all(u.values >= guess.values)


@pytest.mark.parametrize("shape", [(17,), (7, 9), (5, 6, 7)])
@pytest.mark.parametrize("zero", [False, True])
def test_newton_residual_reads_delta_and_flux_from_one_face_build(shape, zero):
    # the zero field has delta = 0 and takes the masked-power branch
    g = build_grid(((0.0, 1.0), (0.0, 2.0), (0.0, 0.5))[:len(shape)], shape)
    values = np.zeros(shape)
    if not zero:
        values[g.interior] = np.random.default_rng(7).standard_normal(
            tuple(n - 2 for n in shape))
    faces = _faces(values, g.spacing)
    for p in (1.5, 2.5, 4.0):
        delta = DELTA_RELATIVE * _gradient_scale(faces)
        out, got, own_faces = _plap_own_delta(values, g.spacing, p)
        assert got == delta and (delta == 0.0) == zero
        assert _face_bytes(own_faces) == _face_bytes(faces)
        assert out.tobytes() == _plap_raw(values, g.spacing, p, delta,
                                          faces).tobytes()
        assert p_laplacian_apply(ScalarField(g, values), p).values.tobytes() \
            == out.tobytes()


# the frozen=False ids name the Newton Jacobian, the one matrix _assemble
# builds
@pytest.mark.parametrize("shape", [(17,), (7, 9), (5, 6, 7)])
@pytest.mark.parametrize("frozen", [False])
def test_assembly_from_the_residual_faces_is_bit_equal(shape, frozen):
    g = build_grid(((0.0, 1.0), (0.0, 2.0), (0.0, 0.5))[:len(shape)], shape)
    values = np.zeros(shape)
    values[g.interior] = np.random.default_rng(8).standard_normal(
        tuple(n - 2 for n in shape))
    for p in (1.5, 2.5, 4.0):
        _, delta, faces = _plap_own_delta(values, g.spacing, p)
        got = _assemble(values, g.spacing, p, delta, faces=faces)
        expected = _assemble(values, g.spacing, p, delta,
                             faces=_faces(values, g.spacing))
        assert stored(got) == stored(expected)


def kron_laplacian(grid):
    """The (2d+1)-point Dirichlet Laplacian of the interior nodes in grid (C)
    order, one second difference per axis, as a Kronecker sum (CSC)."""
    sizes = [n - 2 for n in grid.shape]
    total = 0.0
    for k, h in enumerate(grid.spacing):
        term = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1],
                        shape=(sizes[k], sizes[k])) / (h * h)
        for before in reversed(sizes[:k]):
            term = sp.kron(sp.identity(before), term)
        for after in sizes[k + 1:]:
            term = sp.kron(term, sp.identity(after))
        total = total + term
    return total.tocsc()


@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_frozen_matrix_at_p2_is_the_standard_laplacian(dimension):
    # at p = 2 the operator is linear, so its Newton Jacobian and its frozen
    # (Picard) matrix are one matrix: the Laplacian that _linear_poisson
    # diagonalizes, whatever the state and delta
    shape = {1: (9,), 2: (7, 9), 3: (7, 9, 6)}[dimension]
    g = build_grid(((0.0, 1.0), (0.0, 2.0), (0.0, 0.5))[:dimension], shape)
    rng = np.random.default_rng(3)
    values = rng.standard_normal(g.shape)
    mat = grid_order(_assemble(values, g.spacing, 2.0, 1.0e-3,
                               faces=_faces(values, g.spacing)))
    assert np.allclose(mat, kron_laplacian(g).toarray(), rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_linear_poisson_matches_the_kronecker_sum_laplacian(dimension,
                                                             monkeypatch):
    # a non-square 2D box with unequal spacings; no matrix and no factor
    g = {1: build_grid(((0.0, 1.0),), 2049),
         2: build_grid(((0.0, 1.0), (0.0, 2.5)), (33, 17)),
         3: build_grid(((0.0, 1.0), (0.0, 2.0), (0.0, 0.5)), (9, 7, 5))}[dimension]
    load = np.random.default_rng(3).standard_normal(g.shape)
    for name in ("_assemble", "_try_solve"):
        monkeypatch.setattr(plap, name, None)
    u = plap._linear_poisson(g, load)
    monkeypatch.undo()
    expected = spla.spsolve(kron_laplacian(g), load[g.interior].ravel())
    assert np.all(u[g.boundary_mask()] == 0.0)
    assert np.max(np.abs(u[g.interior].ravel() - expected)) \
        <= 1e-11 * np.max(np.abs(expected))


def assert_as_scipy(actual, expected):
    # numpy's rfft and SciPy's DST-I run one pocketfft real FFT from numpy
    # 2.0 on; numpy 1.x has its own C pocketfft, which may round otherwise
    versions = f"numpy {np.__version__}, scipy {scipy.__version__}"
    assert actual.shape == expected.shape
    if int(np.__version__.split(".")[0]) >= 2:
        assert actual.tobytes() == expected.tobytes(), versions
    else:
        assert np.all(np.abs(actual - expected)
                      <= 4 * np.spacing(np.abs(expected))), versions


# N + 1 = 2731 is prime, and 1 / (2 * 2731) rounded from long double is not
# 1 / (2 * 2731) in double; 2039 and the sides 7, 13, 5 and 3 are prime
DST_SHAPES = [(1,), (2,), (7,), (2039,), (2047,), (2730,),
              (7, 13), (31, 17), (63, 63), (3, 5, 7), (7, 9, 5)]


def shape_id(shape):
    return "x".join(map(str, shape))


@pytest.mark.parametrize("shape", DST_SHAPES, ids=shape_id)
def test_dst1_is_scipys_type_one_sine_transform(shape):
    x = np.random.default_rng(len(shape) * 1000 + shape[0]).standard_normal(shape)
    assert_as_scipy(plap._dst1(x), scipy.fft.dstn(x, type=1))
    # the inverse: one factor 1 / prod 2(N_k + 1), rounded from long double
    fct = float(1 / np.longdouble(np.prod([2 * (n + 1) for n in shape])))
    assert_as_scipy(plap._dst1(x, fct), scipy.fft.idstn(x, type=1))


@pytest.mark.parametrize("shape",
                         [tuple(n + 2 for n in s) for s in DST_SHAPES],
                         ids=shape_id)
def test_linear_poisson_is_scipys_sine_transform_solve(shape):
    g = build_grid(tuple((0.0, 1.0 + 0.5 * k) for k in range(len(shape))),
                   shape)
    eigen = 0.0
    for k, (n, h) in enumerate(zip(g.shape, g.spacing)):
        j = np.arange(1, n - 1)
        axis = (4.0 / (h * h)) * np.sin(0.5 * np.pi * j / (n - 1)) ** 2
        eigen = eigen + axis.reshape((-1,) + (1,) * (len(shape) - 1 - k))
    for seed in range(3):
        load = np.random.default_rng(seed).standard_normal(g.shape)
        expected = scipy.fft.idstn(
            scipy.fft.dstn(load[g.interior], type=1) / eigen, type=1)
        u = plap._linear_poisson(g, load)
        assert np.all(u[g.boundary_mask()] == 0.0)
        assert_as_scipy(u[g.interior], expected)


@pytest.mark.parametrize("p", [1.5, 2.5, 4.0])
def test_the_operator_is_exactly_homogeneous(p):
    # delta tracks the field scale, so -Lap_p(c u) = c^(p-1) (-Lap_p u)
    g = build_grid(((0.0, 1.0), (0.0, 2.0)), (13, 11))
    u = np.zeros(g.shape)
    u[g.interior] = np.random.default_rng(4).standard_normal((11, 9))
    out = _plap_own_delta(u, g.spacing, p)[0]
    for c in (1e-6, 0.3, 7.0, 1e3):
        scaled = _plap_own_delta(c * u, g.spacing, p)[0]
        assert np.max(np.abs(scaled - c ** (p - 1.0) * out)) \
            <= 1e-13 * c ** (p - 1.0) * np.max(np.abs(out))


@pytest.mark.parametrize("shape", [(2049,), (33, 33)])
@pytest.mark.parametrize("p", [1.1, 1.5, 2.0, 2.5, 4.0, 8.0])
def test_the_cold_start_is_rescaled_only_above_p2(shape, p):
    g = build_grid(tuple((0.0, 1.0) for _ in shape), shape)

    def residual(u, load):
        return np.linalg.norm((_plap_own_delta(u, g.spacing, p)[0]
                               - load)[g.interior])

    for label, load in default_probes(g) + [("bump", one_node_bump(g))]:
        linear = plap._linear_poisson(g, load.values)
        value = plap._cold_start(g, p, load.values)
        _assert_exact_value(value, p)
        start = value.field.values
        if p <= 2.0:
            assert start.tobytes() == linear.tobytes(), label
        else:
            assert residual(start, load.values) < residual(linear, load.values), label


@pytest.mark.parametrize("p, budget", [(4.0, 30), (1.1, 331)])
def test_cold_probe_solves_stay_within_their_factorization_budget(
        p, budget, monkeypatch):
    # a factored p = 2 start that is not rescaled takes 40 at p = 4 and 331
    # at p = 1.1
    g = build_grid(((0.0, 1.0), (0.0, 1.0)), (33, 33))
    factorizations = []
    try_solve = plap._try_solve
    monkeypatch.setattr(plap, "_try_solve", lambda *args: factorizations.append(
        args) or try_solve(*args))
    for _, load in default_probes(g) + [("bump", one_node_bump(g))]:
        solve_plap_dirichlet(g, p, load)
    assert len(factorizations) <= budget


# every storage: a singular matrix, the zero matrix, one unknown, and a
# right-hand side of the wrong length, also for a kept solve and for a
# factor made without a right-hand side
@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_try_solve_refuses_singular_matrices_and_wrong_lengths(dimension):
    def stencil(unknowns, centre=0.0, coupling=0.0):
        # ``unknowns`` along the last axis, one along any other
        shape = (3,) * (dimension - 1) + (unknowns + 2,)
        offsets = _stencil(shape)[0]
        coef = np.full((len(offsets),) + shape, coupling)
        coef[offsets.index((0,) * dimension)] = centre
        return _pack(coef)

    factor = []
    # [[1, 1], [1, 1]] and the zero matrix
    assert _try_solve(stencil(2, 1.0, 1.0), np.array([1.0, 2.0]), factor) is None
    assert _try_solve(stencil(2), np.array([1.0, 2.0]), factor) is None
    # the Jacobian of the zero field at delta = 0 is zero
    shape = {1: (7,), 2: (6, 5), 3: (5, 4, 5)}[dimension]
    g = build_grid(((0.0, 1.0), (0.0, 2.0), (0.0, 0.5))[:dimension], shape)
    values = np.zeros(shape)
    values[g.interior] = np.random.default_rng(6).standard_normal(
        tuple(n - 2 for n in shape))
    n = values[g.interior].size
    zero = _assemble(np.zeros(shape), g.spacing, 2.5, 0.0,
                     faces=_faces(np.zeros(shape), g.spacing))
    assert _try_solve(zero, np.ones(n), factor) is None and factor == []
    assert _try_solve(zero, None) is None
    # one unknown: no off-diagonal entries
    assert _try_solve(stencil(1), np.ones(1)) is None
    assert _try_solve(stencil(1, 4.0), np.ones(1)).tolist() == [0.25]
    # a pivot so small that the solution overflows
    assert _try_solve(stencil(1, 1e-310), np.ones(1), factor) is None
    assert factor == []
    with pytest.raises(ValueError):
        _try_solve(stencil(1, 1.0), np.ones(2))
    # LAPACK's dgbtrs checks no length: a longer right-hand side would pass
    jac = _assemble(values, g.spacing, 2.5, 1.0e-3,
                    faces=_faces(values, g.spacing))
    for length in (n - 1, n + 1):
        with pytest.raises(ValueError):
            _try_solve(jac, np.ones(length))
    factor = []
    assert _try_solve(jac, np.ones(n), factor) is not None
    assert len(factor) == (dimension > 1)
    # without a right-hand side it factors alone and answers as a solve
    alone = _try_solve(jac, None)
    rhs = np.linspace(-1.0, 2.0, n)
    assert alone(rhs).tobytes() == _try_solve(jac, rhs).tobytes()
    for solve in factor + [alone]:
        for length in (n - 1, n + 1):
            with pytest.raises(ValueError):
                solve(np.ones(length))


@pytest.mark.parametrize("frozen", [False])
@pytest.mark.parametrize("p", [1.5, 2.5, 4.0])
def test_banded_solve_matches_sparse_lu(p, frozen):
    u = _jacobian_test_field(1)
    mat = _assemble(u.values, u.grid.spacing, p, flux_delta(u),
                    faces=_faces(u.values, u.grid.spacing))
    assert isinstance(mat, _Tridiagonal)
    rhs = np.random.default_rng(5).standard_normal(u.grid.shape[0] - 2)
    expected = spla.spsolve(sp.csc_matrix(grid_order(mat)), rhs)
    got = _try_solve(mat, rhs)
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


def _loop_jacobian(values, spacing, p, delta):
    """Dense Newton Jacobian scattered face by face in plain loops, with
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


@pytest.mark.parametrize("frozen", [False])
def test_assembly_pattern_follows_the_grid_shape(frozen):
    # one axis keeps the three diagonals, two and three a LAPACK band in
    # grid order; (7, 9) twice checks the per-shape cache
    rng = np.random.default_rng(11)
    storage = {1: _Tridiagonal, 2: _Banded, 3: _Banded}
    for shape in ((17,), (7, 9), (9, 7), (33, 33), (7, 9), (5, 6, 7)):
        g = build_grid(((0.0, 1.0), (0.0, 2.0), (0.0, 0.5))[:len(shape)], shape)
        values = rng.standard_normal(shape)
        mat = _assemble(values, g.spacing, 2.5, 1.0e-3,
                        faces=_faces(values, g.spacing))
        expected = _loop_jacobian(values, g.spacing, 2.5, 1.0e-3)
        assert isinstance(mat, storage[len(shape)])
        # the entries a CSC matrix of the pattern stores: every coupling of
        # two interior nodes
        assert mat.nnz == np.count_nonzero(expected)
        assert np.allclose(grid_order(mat), expected, rtol=0.0,
                           atol=1e-13 * np.max(np.abs(expected)))
        # and the storage packs that matrix: its solve is expected's
        rhs = np.random.default_rng(len(shape)).standard_normal(len(expected))
        sol = np.linalg.solve(expected, rhs)
        assert np.max(np.abs(_try_solve(mat, rhs) - sol)) \
            <= 1e-10 * np.max(np.abs(sol))


def band_unknowns(shape):
    """The unknown of each interior node, in grid (C) order, when the
    unknowns are numbered in the C order of the interior with its axes
    taken in _band's order."""
    inner = tuple(n - 2 for n in shape)
    order = _band(shape)[1]
    return np.arange(np.prod(inner)).reshape(
        [inner[k] for k in order]).transpose(np.argsort(order)).ravel()


# _band's kl reaches every coupling in its numbering, and is the widest one
# once every axis has two interior nodes
@pytest.mark.parametrize("shape", [(3, 3), (3, 4), (7, 9), (3, 3, 3),
                                   (5, 6, 7), (9, 5, 5), (5, 9, 7),
                                   (17, 257)])
def test_band_width_is_the_widest_coupling(shape):
    inner = tuple(n - 2 for n in shape)
    rows, cols = _couplings(shape, band_unknowns(shape))[:2]
    kl = _band(shape)[0]
    assert np.max(np.abs(rows - cols)) <= kl
    if min(inner) >= 2:
        assert np.max(np.abs(rows - cols)) == kl


# the axes go longest first, ties in grid order: a square or sorted grid
# keeps its own C order, and the band is as narrow in any order of the axes
@pytest.mark.parametrize("shape, kl", [((17, 257), 16), ((9, 33), 8),
                                       ((9, 9, 65), 56), ((5, 9, 7), 18),
                                       ((65, 65), 64), ((9, 9, 9), 56)])
def test_the_band_numbers_the_longest_axis_first(shape, kl):
    for axes in set(itertools.permutations(shape)):
        band = _band(axes)
        assert band[0] == kl, axes
        assert [axes[k] for k in band[1]] == sorted(axes, reverse=True)
        if list(axes) == sorted(axes, reverse=True):
            assert band[1] == tuple(range(len(axes))), axes


# two axes from one unknown up, where the band is wider than the matrix
# (kl >= n - 1), and three
@pytest.mark.parametrize("shape", [(3, 3), (3, 4), (7, 9), (9, 7), (4, 3),
                                   (5, 6, 7)])
@pytest.mark.parametrize("frozen", [False])
def test_try_solve_answers_in_grid_order(shape, frozen):
    g = build_grid(((0.0, 1.0), (0.0, 2.0), (0.0, 0.5))[:len(shape)], shape)
    rng = np.random.default_rng(9)
    inner = tuple(n - 2 for n in shape)
    values = np.zeros(shape)
    values[g.interior] = rng.standard_normal(inner)
    mat = _assemble(values, g.spacing, 2.5, 1.0e-3,
                    faces=_faces(values, g.spacing))
    rhs = rng.standard_normal(np.prod(inner))
    expected = np.linalg.solve(grid_order(mat), rhs)
    factor = []
    got = _try_solve(mat, rhs, factor)
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(got - expected)) <= 1e-12 * scale
    # no factor overwrites coef: a second one solves the same matrix
    assert _try_solve(mat, rhs).tobytes() == got.tobytes()
    # the kept solve answers in grid order too
    assert np.max(np.abs(factor[0](rhs) - expected)) <= 1e-12 * scale


@pytest.mark.parametrize("p", [1.5, 4.0])
def test_a_transposed_box_solves_to_the_transposed_solution(p):
    # 9x33 is numbered along its longer last axis first, 33x9 in grid order;
    # each solve answers in its own grid order
    wide = build_grid(((0.0, 1.0), (0.0, 2.0)), (9, 33))
    tall = build_grid(((0.0, 2.0), (0.0, 1.0)), (33, 9))
    assert _band(wide.shape)[1] == (1, 0) and _band(tall.shape)[1] == (0, 1)
    load = field_from_function(wide, lambda x, y: 1.0 + x * y * y)
    u = solve_plap_dirichlet(wide, p, load)
    v = solve_plap_dirichlet(tall, p, ScalarField(tall, load.values.T))
    _assert_residual_contract(u, p, load)
    _assert_residual_contract(ScalarField(wide, v.values.T), p, load)


def test_every_multi_axis_grid_factors_through_dgbtrf(monkeypatch):
    calls = []
    dgbtrf = plap.dgbtrf
    monkeypatch.setattr(plap, "dgbtrf", lambda *args, **kwargs:
                        calls.append("dgbtrf") or dgbtrf(*args, **kwargs))
    for shape in ((7, 9), (9, 7), (5, 6, 7), (9, 5, 5)):
        g = build_grid(tuple((0.0, 1.0) for _ in shape), shape)
        values = np.zeros(shape)
        values[g.interior] = np.random.default_rng(10).standard_normal(
            tuple(n - 2 for n in shape))
        mat = _assemble(values, g.spacing, 2.5, 1.0e-3,
                        faces=_faces(values, g.spacing))
        calls.clear()
        assert _try_solve(mat, np.ones(values[g.interior].size)) is not None
        assert calls == ["dgbtrf"], shape


def _jacobians(p, shape=(2049,)):
    """(u, Newton Jacobian at u) on a box of ``shape``: a smooth field, the
    cold start at p, and seeded random fields."""
    g = build_grid(tuple((0.0, 1.0) for _ in shape), shape)
    x = [g.axis(k).reshape((-1,) + (1,) * (len(shape) - 1 - k))
         for k in range(len(shape))]
    smooth = np.sin(np.pi * x[0]) * (1.2 + np.sin(3.0 * x[0]))
    for xk in x[1:]:
        smooth = smooth * np.sin(np.pi * xk)
    fields = [smooth, plap._cold_start(g, p, np.ones(g.shape)).field.values]
    rng = np.random.default_rng(12)
    for _ in range(3):
        values = np.zeros(g.shape)
        values[g.interior] = rng.standard_normal(tuple(n - 2 for n in shape))
        fields.append(values)
    for values in fields:
        _, delta, faces = _plap_own_delta(values, g.spacing, p)
        yield values[g.interior], _assemble(values, g.spacing, p, delta,
                                            faces=faces)


@pytest.mark.parametrize("p", [1.5, 2.5, 4.0])
def test_tridiagonal_solve_is_bit_equal_to_solve_banded(p):
    rng = np.random.default_rng(13)
    for _, jac in _jacobians(p):
        before = stored(jac)
        # coef[q, c] is row c - offsets[q], column c: solve_banded's layout,
        # but for its two corners, which lie off the matrix
        band = jac.coef[:, 1:-1].copy()
        band[0, 0] = band[2, -1] = 0.0
        rhs = rng.standard_normal(band.shape[1])
        expected = scipy.linalg.solve_banded((1, 1), band, rhs)
        assert _try_solve(jac, rhs).tobytes() == expected.tobytes()
        assert stored(jac) == before  # a stalled solve reads jac afterwards


@pytest.mark.parametrize("p", [1.5, 2.5, 4.0])
def test_tridiagonal_rounding_floor_matches_the_sparse_product(p):
    # the floor reads coef with any number of axes.  It sums each row of
    # |J| |u| by descending column, and a sparse product by ascending column:
    # numbered backwards, the two are bit-equal; BLAS sums the dense product
    # in an order of its own
    scale = ROUNDING_ULPS * np.finfo(float).eps
    for shape in ((2049,), (33, 17), (9, 7, 5)):
        for u_int, jac in _jacobians(p, shape):
            au = np.abs(u_int.ravel())
            backwards = np.arange(au.size)[::-1]
            got = plap._rounding_floor(jac, u_int)
            assert got == scale * np.max(
                abs(grid_order_csc(jac, backwards)) @ au[::-1]), shape
            dense = scale * np.max(abs(grid_order(jac)) @ au)
            assert abs(got - dense) <= 1e-15 * dense, shape


def test_one_axis_solve_builds_no_sparse_matrix(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a one-axis solve reached scipy.sparse or "
                             "solve_banded")

    for name in dir(sp):
        if name.endswith(("_matrix", "_array")) and isinstance(getattr(sp, name), type):
            monkeypatch.setattr(getattr(sp, name), "__init__", refuse)
    monkeypatch.setattr(scipy.linalg, "solve_banded", refuse)
    assert not hasattr(plap, "solve_banded")
    g = grid_1d(2049)
    load = field_from_function(g, lambda x: 1.0 + x)
    larger = load.with_values(1.1 * load.values)
    solved = []
    for p in (1.5, 2.5, 4.0):  # a cold solve, then a warm one
        u = solve_plap_dirichlet(g, p, load)
        solved += [(p, load, u), (p, larger, solve_plap_dirichlet(
            g, p, larger, initial_guess=operator_value(u, p)).field)]
    monkeypatch.undo()
    for p, rhs, u in solved:
        _assert_residual_contract(u, p, rhs)


# exact discrete peaks at p = 2.5; rel=1e-8 is the residual contract's bound
# for one or two unknowns, tol / (h dF/du)
@pytest.mark.parametrize("shape, peak", [
    ((3,), 0.5 * 0.25 ** (2.0 / 3.0)), ((4,), (1.0 / 3.0) ** (5.0 / 3.0)),
    ((3, 3), 0.125)])
def test_smallest_grids_solve(shape, peak):
    g = build_grid(tuple((0.0, 1.0) for _ in shape), shape)
    u = solve_plap_dirichlet(g, 2.5, const_field(g))
    assert u.values.max() == pytest.approx(peak, rel=1e-8)


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
    again = solve_plap_dirichlet(g, 2.8, load,
                                 initial_guess=operator_value(u, 2.8),
                                 trace=warm_trace).field
    assert len(warm_trace) <= len(trace)
    assert np.max(np.abs(again.values - u.values)) <= 1e-8


def test_flat_warm_start_falls_back_to_cold_start():
    g = grid_1d(33)
    load = const_field(g)
    u = solve_plap_dirichlet(g, 3.0, load,
                             initial_guess=operator_value(zero_field(g), 3.0))
    assert sup_norm(u.field) > 0.1


# ---------------------------------------------------------------------------
# a warm solve started from the OperatorValue of its guess


def _count_applies(monkeypatch):
    """Route grid._plap_raw, the operator apply, through a wrapper; returns
    a list that gains one entry per call, the bytes of the array applied."""
    calls = []
    raw = grid_module._plap_raw

    def counted(values, *args, **kwargs):
        calls.append(values.tobytes())
        return raw(values, *args, **kwargs)

    monkeypatch.setattr(grid_module, "_plap_raw", counted)
    return calls


def _warm_solve(g, p, load, guess, applies):
    """A warm solve with its trace and its number of operator applies; the
    value of a bare field ``guess`` is computed first, inside the count."""
    applies.clear()
    if isinstance(guess, ScalarField):
        guess = operator_value(guess, p)
    trace = []
    u = solve_plap_dirichlet(g, p, load, initial_guess=guess, trace=trace)
    return u, trace, len(applies)


def _assert_exact_value(value, p):
    """The OperatorValue is bit for bit a fresh apply at its field."""
    assert value.p == p
    assert value.lap.tobytes() == p_laplacian_apply(value.field,
                                                    p).values.tobytes()
    assert value.delta == flux_delta(value.field)


@pytest.mark.parametrize("shape", [(2049,), (33, 33)])
@pytest.mark.parametrize("p", [1.5, 2.5, 4.0])
def test_a_held_start_value_changes_no_bit(shape, p, monkeypatch):
    # a solve from a field's held OperatorValue takes the bits of a solve
    # from the bare field, whose value it computes first, with one apply
    # less, and both return their result's value
    g = build_grid(tuple((0.0, 1.0) for _ in shape), shape)
    guess = operator_value(solve_plap_dirichlet(g, p, const_field(g)), p)
    load = field_from_function(g, lambda *x: 1.0 + 0.01 * x[0])
    applies = _count_applies(monkeypatch)
    value, trace, calls = _warm_solve(g, p, load, guess, applies)
    u_plain, trace_plain, calls_plain = _warm_solve(g, p, load, guess.field,
                                                    applies)
    assert isinstance(u_plain, plap.OperatorValue)
    assert value.field.values.tobytes() == u_plain.field.values.tobytes()
    assert trace == trace_plain and len(trace) >= 1
    assert calls == calls_plain - 1
    _assert_exact_value(value, p)


def _poisoned(value):
    """The OperatorValue with a wrong Lap_p: a solve that read it would take
    a wrong first residual."""
    return value._replace(lap=value.lap + 1.0)


def _unreadable_guess(case, g, solution):
    """A guess whose OperatorValue a solve must not read: its boundary is
    not +0.0, or it is flat and the solve starts cold."""
    if case == "flat":
        return zero_field(g)
    values = solution.values.copy()
    values[g.boundary_mask()] = 0.25 if case == "nonzero boundary" else -0.0
    return ScalarField(g, values)


@pytest.mark.parametrize("shape", [(129,), (17, 17)])
@pytest.mark.parametrize("case", ["nonzero boundary", "negative zero boundary",
                                  "flat"])
def test_a_held_value_of_another_start_is_ignored(shape, case, monkeypatch):
    # the value of a guess the solve zeroes, or of a flat one, is not read:
    # the solve applies the operator afresh, as from the guess's true value
    g = build_grid(tuple((0.0, 1.0) for _ in shape), shape)
    p = 2.5
    solution = solve_plap_dirichlet(g, p, const_field(g))
    guess = _unreadable_guess(case, g, solution)
    load = field_from_function(g, lambda *x: 1.0 + 0.01 * x[0])
    applies = _count_applies(monkeypatch)
    value, trace, calls = _warm_solve(
        g, p, load, _poisoned(operator_value(guess, p)), applies)
    u_plain, trace_plain, calls_plain = _warm_solve(
        g, p, load, operator_value(guess, p), applies)
    assert value.field.values.tobytes() == u_plain.field.values.tobytes()
    assert trace == trace_plain and calls == calls_plain
    _assert_exact_value(value, p)
    _assert_residual_contract(value.field, p, load)


@pytest.mark.parametrize("shape", [(129,), (17, 17)])
def test_a_start_value_on_another_grid_or_p_is_refused(shape):
    g = build_grid(tuple((0.0, 1.0) for _ in shape), shape)
    other = build_grid(tuple((0.0, 2.0) for _ in shape), shape)
    p = 2.5
    solution = solve_plap_dirichlet(g, p, const_field(g))
    elsewhere = operator_value(ScalarField(other, solution.values), p)
    with pytest.raises(GridMismatchError, match="initial guess"):
        solve_plap_dirichlet(g, p, const_field(g), initial_guess=elsewhere)
    with pytest.raises(ConfigurationError,
                       match=r"initial guess is at p = 3\.0, the solve at "
                             r"p = 2\.5"):
        solve_plap_dirichlet(g, p, const_field(g),
                             initial_guess=operator_value(solution, p + 0.5))


def test_a_bare_field_guess_is_refused():
    g = grid_1d(33)
    u = solve_plap_dirichlet(g, 2.5, const_field(g))
    with pytest.raises(ConfigurationError, match="operator_value"):
        solve_plap_dirichlet(g, 2.5, const_field(g), initial_guess=u)


def _start_costs(monkeypatch, applies):
    """Per _newton_loop call, the operator applies its start cost: those
    ``applies`` (see _count_applies) gained since the last call returned or
    raised, or since the count began, and those the call itself made at its
    start's field, whose -Lap_p it should read from the start.  Install it
    after _record_exponents, so that a forced stall still ends a call."""
    costs, counted = [], [len(applies)]
    newton_loop = plap._newton_loop

    def counting(grid, start, *args, **kwargs):
        before = len(applies)
        try:
            return newton_loop(grid, start, *args, **kwargs)
        finally:
            again = applies[before:].count(start.field.values.tobytes())
            costs.append(before - counted[0] + again)
            counted[0] = len(applies)

    monkeypatch.setattr(plap, "_newton_loop", counting)
    return costs


@pytest.mark.parametrize("shape", [(129,), (17, 17)])
@pytest.mark.parametrize("case, p, stall_at, costs", [
    ("cold", 1.5, (), [1]), ("cold", 3.0, (), [2]),
    ("cold", 3.0, (1,), [2, 1, 1]), ("held value", 3.0, (), [0]),
    ("nonzero boundary", 3.0, (), [1]),
    ("negative zero boundary", 3.0, (), [1]), ("flat", 3.0, (), [2])])
def test_every_newton_loop_start_costs_one_apply(shape, case, p, stall_at,
                                                 costs, monkeypatch):
    # each start's value is the one apply its first residual reads: the cold
    # start (whose rescale above p = 2 costs one more), each retreat in p and
    # each return to p, a guess the solve zeroes, and a flat one's cold
    # start; a held value costs none
    g = build_grid(tuple((0.0, 1.0) for _ in shape), shape)
    guess = None
    if case != "cold":
        solution = solve_plap_dirichlet(g, p, const_field(g))
        guess = operator_value(solution if case == "held value"
                               else _unreadable_guess(case, g, solution), p)
    load = field_from_function(g, lambda *x: 1.0 + 0.01 * x[0])
    applies = _count_applies(monkeypatch)
    exponents, _ = _record_exponents(monkeypatch, stall_at)
    got = _start_costs(monkeypatch, applies)
    solve_plap_dirichlet(g, p, load, initial_guess=guess)
    assert got == costs
    assert exponents == ([p, 0.5 * (2.0 + p), p] if stall_at else [p])


# ---------------------------------------------------------------------------
# a warm solve's first Newton step with the factored Jacobian at its start


@pytest.mark.parametrize("shifted", [False, True])
@pytest.mark.parametrize("p", [1.25, 1.5, 2.5, 4.0, 8.0])
def test_a_kept_tridiagonal_factor_solves_as_dgtsv(p, shifted):
    # dgttrf and dgttrs against dgtsv, bit for bit, two solves of one
    # factor, from one unknown up (the wrappers take three, so the smallest
    # are padded)
    rng = np.random.default_rng(14)
    for shape in ((2049,), (3,), (4,)):
        g = build_grid(((0.0, 1.0),), shape)
        for u_int, jac in _jacobians(p, shape):
            if shifted:
                values = np.zeros(shape)
                values[g.interior] = u_int
                coeff = np.full(shape, 2.0)
                _, delta, faces = _plap_own_delta(values, g.spacing, p)
                jac = _assemble(values, g.spacing, p, delta, faces=faces,
                                shift=plap._reaction_slope(values, coeff, 1.5))
            before = stored(jac)
            solve = _try_solve(jac, None)
            for _ in range(2):
                rhs = rng.standard_normal(u_int.size)
                assert solve(rhs).tobytes() == jac.factor_solve(
                    rhs)[0].tobytes(), shape
            assert stored(jac) == before


def _counted_solve(monkeypatch, *args, **kwargs):
    """A solve with its numbers of Jacobian assemblies and factorizations
    (_try_solve calls)."""
    counts = dict.fromkeys(("_assemble", "_try_solve"), 0)

    def counted(name, original):
        def wrapper(*a, **k):
            counts[name] += 1
            return original(*a, **k)
        return wrapper

    with monkeypatch.context() as patch:
        for name in counts:
            patch.setattr(plap, name, counted(name, getattr(plap, name)))
        u = solve_plap_dirichlet(*args, **kwargs)
    return u, counts["_assemble"], counts["_try_solve"]


@pytest.mark.parametrize("shape", [(2049,), (33, 33)])
@pytest.mark.parametrize("p", [1.5, 2.5, 4.0])
def test_a_factored_start_takes_its_first_step_with_that_factor(shape, p,
                                                                monkeypatch):
    # from the same start, with and without its factored Jacobian: the same
    # bits, and one assembly and one factorization less
    g = build_grid(tuple((0.0, 1.0) for _ in shape), shape)
    start = operator_value(solve_plap_dirichlet(g, p, const_field(g)), p)
    factored = plap.factored_value(start)
    assert factored.jacobian is not None and start.jacobian is None
    load = field_from_function(g, lambda *x: 1.0 + 0.01 * x[0])
    u, assembled, factors = _counted_solve(monkeypatch, g, p, load,
                                           initial_guess=factored)
    plain, assembled_plain, factors_plain = _counted_solve(
        monkeypatch, g, p, load, initial_guess=start)
    assert u.field.values.tobytes() == plain.field.values.tobytes()
    assert u.jacobian is None
    assert factors_plain >= 1
    assert (assembled, factors) == (assembled_plain - 1, factors_plain - 1)


def test_a_factored_start_is_not_a_chord_trial(monkeypatch):
    # a factor already in the holder is not tried at the first step, which
    # the start's factor takes and leaves in the holder as a fresh one
    g = build_grid(((0.0, 1.0), (0.0, 1.0)), (33, 33))
    p = 2.5
    start = operator_value(solve_plap_dirichlet(g, p, const_field(g)), p)
    factored = plap.factored_value(start)
    load = field_from_function(g, lambda *x: 1.0 + 0.01 * x[0])

    def refuse(rhs):
        raise AssertionError("the holder's factor was tried")

    holder = [refuse]
    u = solve_plap_dirichlet(g, p, load, initial_guess=factored,
                             factor=holder)
    fresh = solve_plap_dirichlet(g, p, load, initial_guess=start)
    assert u.field.values.tobytes() == fresh.field.values.tobytes()
    assert holder and holder[0] is not refuse


@pytest.mark.parametrize("shape", [(129,), (17, 17)])
def test_a_reaction_solve_ignores_a_factored_start(shape, monkeypatch):
    # the Jacobian of a solve with a reaction is shifted, so it assembles its
    # own at the start
    g = build_grid(tuple((0.0, 1.0) for _ in shape), shape)
    p, q = 2.5, 1.5
    base = ScalarField(g, np.ones(g.shape))
    start = operator_value(solve_plap_dirichlet(g, p, base), p)
    reaction = (np.full(g.shape, 2.0), q)
    runs = [_counted_solve(monkeypatch, g, p, base, initial_guess=value,
                           reaction=reaction)
            for value in (plap.factored_value(start), start)]
    (u, *counts), (plain, *counts_plain) = runs
    assert u.field.values.tobytes() == plain.field.values.tobytes()
    assert counts == counts_plain and counts[0] >= 1


def test_iteration_budget_exhaustion_raises_with_history(monkeypatch):
    monkeypatch.setattr(plap, "NEWTON_MAX_ITER", 1)
    g = grid_1d(65)
    load = const_field(g)
    opts = SolveOptions(tol_residual=1e-14)
    with pytest.raises(SolveFailure) as err:
        solve_plap_dirichlet(g, 3.0, load, opts)
    assert len(err.value.residual_history) >= 1


def _rounding_floor(u, p):
    delta = flux_delta(u)
    jac = grid_order(_assemble(u.values, u.grid.spacing, p, delta,
                               faces=_faces(u.values, u.grid.spacing)))
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
        solve_plap_dirichlet(g, 2.0, const_field(g),
                             initial_guess=operator_value(guess, 2.0))


@pytest.mark.parametrize("shape", [(9, 9), (17, 17)])
def test_a_wrong_kept_factor_is_replaced(shape, monkeypatch):
    g = build_grid(((0.0, 1.0), (0.0, 1.0)), shape)
    p, opts = 2.5, SolveOptions(tol_residual=1e-10)
    load = field_from_function(g, lambda x, y: 1.0 + x * y)
    guess = operator_value(solve_plap_dirichlet(g, p, const_field(g), opts), p)
    # the p = 2 Laplacian is a poor linear model of the p = 2.5 operator
    wrong = spla.splu(kron_laplacian(g)).solve
    factor = [wrong]
    factorizations = []
    try_solve = plap._try_solve
    monkeypatch.setattr(plap, "_try_solve", lambda *args: factorizations.append(
        args) or try_solve(*args))
    u = solve_plap_dirichlet(g, p, load, opts, initial_guess=guess,
                             factor=factor).field
    monkeypatch.undo()
    assert factorizations and len(factor) == 1 and factor[0] is not wrong
    tol = opts.tol_residual * sup_norm(load)
    res = (p_laplacian_apply(u, p).values - load.values)[g.interior]
    assert np.max(np.abs(res)) <= tol
    fresh = solve_plap_dirichlet(g, p, load, opts, initial_guess=guess).field
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
        jacobians.append(values.copy())
        return assemble(values, *args, **kwargs)

    monkeypatch.setattr(plap, "_assemble", recording)
    monkeypatch.setattr(plap, "_backtrack", lambda *args: None)
    idle = [lambda rhs: np.zeros_like(rhs)]  # a chord step that stays put
    with pytest.raises(SolveFailure) as err:
        solve_plap_dirichlet(g, p, const_field(g),
                             initial_guess=operator_value(guess, p),
                             factor=idle)
    monkeypatch.undo()
    assert len(jacobians) == 1
    assert jacobians[0].tobytes() == guess.values.tobytes()
    assert f"rounding floor {_rounding_floor(guess, p):.3e}" in str(err.value)


def _assert_residual_contract(u, p, load, tol=1e-8):
    res = (p_laplacian_apply(u, p).values - load.values)[u.grid.interior]
    allowed = max(tol * sup_norm(load), _rounding_floor(u, p))
    assert np.max(np.abs(res)) <= allowed


def test_a_cold_2d_solve_takes_chord_steps(monkeypatch):
    # without a kept factor every accepted Newton step costs one
    # factorization; the p = 2 start costs none
    g = build_grid(((0.0, 1.0), (0.0, 1.0)), (33, 33))
    load = const_field(g)
    factorizations = []
    try_solve = plap._try_solve
    monkeypatch.setattr(plap, "_try_solve", lambda *args: factorizations.append(
        args) or try_solve(*args))
    trace = []
    u = solve_plap_dirichlet(g, 4.0, load, trace=trace)
    monkeypatch.undo()
    assert 0 < len(factorizations) < len(trace)
    _assert_residual_contract(u, 4.0, load)


# p <= 1.5, where most Newton steps are damped and cut the residual by far
# less than CHORD_CONTRACTION
@pytest.mark.parametrize("p", [1.1, 1.25, 1.5])
def test_no_chord_trial_follows_a_step_too_slow_to_pass(p, monkeypatch):
    g = build_grid(((0.0, 1.0), (0.0, 1.0)), (33, 33))
    load = const_field(g)
    tol = SolveOptions().tol_residual * sup_norm(load)
    # ("loop", None) per Newton loop, then per factor and per kept-factor
    # solve the norm of its right-hand side -r, the iteration's residual
    events = []
    newton_loop, factor_solve = plap._newton_loop, _Banded.factor_solve

    def loop(*args, **kwargs):
        events.append(("loop", None))
        return newton_loop(*args, **kwargs)

    def factored(self, rhs):
        events.append(("factor", np.abs(rhs).max()))
        sol, solve = factor_solve(self, rhs)

        def trial(rhs):
            events.append(("trial", np.abs(rhs).max()))
            return solve(rhs)

        return sol, solve and trial

    monkeypatch.setattr(plap, "_newton_loop", loop)
    monkeypatch.setattr(_Banded, "factor_solve", factored)
    u = solve_plap_dirichlet(g, p, load)
    monkeypatch.undo()
    _assert_residual_contract(u, p, load)
    # residuals fall strictly within a loop, so a new norm is a new
    # iteration, and a rejected trial and its Newton step share one
    trials = skipped = 0
    for kind, norm in events:
        if kind == "loop":
            norms = []
            continue
        if norms and norm == norms[-1]:
            continue
        ratio = norm / norms[-1] if norms else 0.0
        if kind == "trial":
            trials += 1
            assert ratio * norm <= max(tol, plap.CHORD_CONTRACTION * norm)
        elif norms:  # a factor was kept, and no trial was made
            skipped += 1
        norms.append(norm)
    assert trials > 0 and skipped > 0


def test_a_cold_2d_solve_keeps_one_jacobian_alive(monkeypatch):
    # a 65x65 band is 193 x 3969 doubles, and dgbtrf turns it into the kept
    # factor in place: a copy, or the last Jacobian held while the next one
    # is assembled, would put two alive at once
    g = build_grid(((0.0, 1.0), (0.0, 1.0)), (65, 65))
    load = dict(default_probes(g))["const1"]
    band_bytes = (3 * 64 + 1) * 63 * 63 * 8
    factored = []
    dgbtrf = plap.dgbtrf
    monkeypatch.setattr(plap, "dgbtrf", lambda *args, **kwargs:
                        factored.append(args[0].nbytes) or dgbtrf(*args, **kwargs))
    tracemalloc.start()
    try:
        u = solve_plap_dirichlet(g, 4.0, load)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    monkeypatch.undo()
    assert len(factored) > 1 and set(factored) == {band_bytes}
    assert peak < 2 * band_bytes
    _assert_residual_contract(u, 4.0, load)


def _record_exponents(monkeypatch, stall_at=()):
    """Record the exponent of each _newton_loop call; the calls numbered in
    ``stall_at`` (from 1) raise SolveFailure instead of running."""
    exponents, raised = [], []
    newton_loop = plap._newton_loop

    def recording(grid, start, gv, tol, history, *rest):
        exponents.append(start.p)
        if len(exponents) in stall_at:
            history.append(0.5)
            raised.append(SolveFailure("forced stall", history))
            raise raised[-1]
        return newton_loop(grid, start, gv, tol, history, *rest)

    monkeypatch.setattr(plap, "_newton_loop", recording)
    return exponents, raised


@pytest.mark.parametrize("shape", [(2049,), (33, 33)])
@pytest.mark.parametrize("p", [1.5, 2.5, 4.0])
def test_cold_solve_runs_newton_at_p_from_the_p2_start(shape, p, monkeypatch):
    g = build_grid(tuple((0.0, 1.0) for _ in shape), shape)
    exponents, _ = _record_exponents(monkeypatch)
    solve_plap_dirichlet(g, p, const_field(g))
    assert exponents == [p]


def test_a_cold_stall_retreats_halfway_and_comes_back(monkeypatch):
    g = grid_1d(129)
    load = const_field(g)
    exponents, _ = _record_exponents(monkeypatch, stall_at=(1,))
    u = solve_plap_dirichlet(g, 3.0, load)
    assert exponents == [3.0, 2.5, 3.0]
    _assert_residual_contract(u, 3.0, load)


def test_a_stall_within_one_step_of_the_start_reraises(monkeypatch):
    g = grid_1d(129)
    exponents, raised = _record_exponents(monkeypatch, stall_at=(1,))
    with pytest.raises(SolveFailure) as err:
        solve_plap_dirichlet(g, 2.2, const_field(g))
    assert exponents == [2.2]
    assert err.value is raised[0]
    assert err.value.residual_history == [0.5]


def test_a_warm_stall_raises_after_one_attempt(monkeypatch):
    g = grid_1d(129)
    guess = field_from_function(g, lambda x: np.sin(np.pi * x))
    exponents, raised = _record_exponents(monkeypatch, stall_at=(1,))
    with pytest.raises(SolveFailure) as err:
        solve_plap_dirichlet(g, 4.0, const_field(g),
                             initial_guess=operator_value(guess, 4.0))
    assert exponents == [4.0]
    assert err.value is raised[0]


@pytest.mark.parametrize("shape", [(2049,), (33, 33)])
@pytest.mark.parametrize("p", [6.0, 8.0])
def test_cold_solves_far_above_2_meet_the_contract(shape, p):
    g = build_grid(tuple((0.0, 1.0) for _ in shape), shape)
    load = const_field(g)
    _assert_residual_contract(solve_plap_dirichlet(g, p, load), p, load)


def test_checkerboard_probe_converges_near_p_1(monkeypatch):
    # the start makes no direct solve: every factorization is a Newton step's
    calls, in_start, starts = [], [], []
    try_solve, cold_start = plap._try_solve, plap._cold_start

    def recording_try_solve(*args):
        calls.append(bool(in_start))
        return try_solve(*args)

    def recording_cold_start(*args):
        starts.append(args[1])
        in_start.append(True)
        try:
            return cold_start(*args)
        finally:
            in_start.pop()

    monkeypatch.setattr(plap, "_try_solve", recording_try_solve)
    monkeypatch.setattr(plap, "_cold_start", recording_cold_start)
    g = grid_1d(2049)
    load = dict(default_probes(g))["checker1"]
    _assert_residual_contract(solve_plap_dirichlet(g, 1.1, load), 1.1, load)
    assert starts == [1.1] and calls and not any(calls)


def test_rejects_mismatched_grid_and_bad_p():
    g = grid_1d(17)
    other = grid_1d(19)
    with pytest.raises(GridMismatchError):
        solve_plap_dirichlet(g, 2.0, const_field(other))
    with pytest.raises(ConfigurationError):
        solve_plap_dirichlet(g, 0.5, const_field(g))


# ---------------------------------------------------------------------------
# the empirical gradient constant


def test_probe_family_contents():
    g = grid_1d(33)
    probes = default_probes(g)
    labels = [label for label, _ in probes]
    assert labels == ["const1", "checker0", "checker1", "checker2"]
    extra = default_probes(g, extra=[("mine", const_field(g, 2.0))])
    assert extra[-1][0] == "mine"


def test_a_one_node_bump_cannot_set_khat():
    # why the family has no point load: the bump's ratio falls with h.  In
    # 1D it is the closed form (h/2)^(1/(p-1)), below const1's; in 2D at
    # most 0.436 of the best default probe's, at p = 8 on both grids
    exponents = (1.25, 2.0, 4.0, 8.0)
    for n, p in itertools.product((9, 33, 129), exponents):
        g = grid_1d(n)
        ratios = estimate_grad_constant(
            g, p, probes=[("bump", one_node_bump(g)),
                          ("const1", const_field(g))]).ratios
        assert ratios["bump"] == pytest.approx(bump_ratio_1d(g.spacing[0], p),
                                               rel=1e-6), (n, p)
        assert ratios["bump"] < ratios["const1"], (n, p)
    for n, p in itertools.product((9, 17), exponents):
        g = build_grid(((0.0, 1.0), (0.0, 1.0)), (n, n))
        ratios = estimate_grad_constant(
            g, p, probes=default_probes(g) + [("bump", one_node_bump(g))]
        ).ratios
        best = max(ratio for label, ratio in ratios.items() if label != "bump")
        assert ratios["bump"] <= 0.5 * best, (n, p)


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
    assert_gradient_bound(est.khat, u, sup_norm(load), p)  # holds when fresh
    tiny = sup_norm(gradient(u)) / sup_norm(load) ** (1.0 / (p - 1.0)) * 0.5
    with pytest.raises(StaleGradConstantError):
        assert_gradient_bound(tiny, u, sup_norm(load), p, context="forced")


def test_estimate_rejects_zero_probe():
    g = grid_1d(17)
    with pytest.raises(ConfigurationError):
        estimate_grad_constant(g, 2.0, probes=[("null", zero_field(g))])
