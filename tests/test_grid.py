"""Grid, field, and discrete operator tests."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plaplab.errors import ConfigurationError
from plaplab.grid import (
    GRADIENT_ULPS,
    Grid,
    ScalarField,
    VectorField,
    build_grid,
    field_from_function,
    flux_delta,
    gradient,
    integrate,
    p_laplacian_apply,
    sup_norm,
    zero_field,
)

from oracles import torsion_sup_1d


def unit_grid_1d(n=65):
    return build_grid(((0.0, 1.0),), n)


def unit_grid_2d(n=21):
    return build_grid(((0.0, 1.0), (0.0, 1.0)), (n, n))


def bump_1d(grid):
    return field_from_function(grid, lambda x: np.sin(np.pi * x))


# ---------------------------------------------------------------------------
# construction and bookkeeping


def test_build_grid_normalizes_scalar_arguments():
    g = build_grid((0.0, 2.0), 17)
    assert g.extents == ((0.0, 2.0),)
    assert g.shape == (17,)
    assert g.dimension == 1
    assert g.spacing == (0.125,)


def test_build_grid_2d_shapes_and_axes():
    g = build_grid(((0.0, 1.0), (-1.0, 1.0)), (11, 21))
    assert g.dimension == 2
    assert g.spacing == (0.1, 0.1)
    assert g.axis(1)[0] == -1.0 and g.axis(1)[-1] == 1.0
    xs, ys = g.meshes()
    assert xs.shape == (11, 21) and ys.shape == (11, 21)
    assert np.all(xs[:, 0] == g.axis(0))
    fresh = np.meshgrid(g.axis(0), g.axis(1), indexing="ij")
    assert all(m.tobytes() == f.tobytes() for m, f in zip((xs, ys), fresh))
    # computed once per box and shape, and shared read-only
    again = build_grid(((0.0, 1.0), (-1.0, 1.0)), (11, 21)).meshes()
    assert all(a is m for a, m in zip(again, (xs, ys)))
    assert not xs.flags.writeable and not ys.flags.writeable


@pytest.mark.parametrize("extents,resolution", [
    ((1.0, 0.0), 9),          # reversed interval
    ((0.0, 1.0), 2),          # no interior nodes
    (((0.0, 1.0), (0.0, 1.0)), 9),
])
def test_build_grid_rejects_bad_input(extents, resolution):
    if isinstance(resolution, int) and len(np.shape(extents)) == 2:
        # resolution count must match the dimension unless scalar-normalized
        g = build_grid(extents, resolution)
        assert g.shape == (9, 9)
        return
    with pytest.raises(ConfigurationError):
        build_grid(extents, resolution)


def test_grid_takes_any_number_of_axes():
    g = build_grid(((0.0, 1.0), (0.0, 2.0), (-1.0, 1.0)), (5, 9, 3))
    assert g.dimension == 3 and g.spacing == (0.25, 0.25, 1.0)
    with pytest.raises(ConfigurationError):
        Grid((), ())


def test_interior_and_boundary_partition_nodes():
    g = unit_grid_2d(9)
    mask = g.boundary_mask()
    assert mask.sum() + (g.shape[0] - 2) * (g.shape[1] - 2) == g.node_count()
    inner = np.zeros(g.shape, dtype=bool)
    inner[g.interior] = True
    assert not np.any(inner & mask)
    assert np.all(inner | mask)


@pytest.mark.parametrize("extents, shape", [
    (((0.0, 1.3),), (17,)),
    (((0.0, 1.3), (-0.4, 2.1)), (9, 5)),
    (((0.0, 1.0), (0.0, 2.0), (-1.0, 1.0)), (5, 9, 3)),
])
def test_grid_geometry_is_read_only_and_survives_pickling(extents, shape):
    g = build_grid(extents, shape)
    copy = pickle.loads(pickle.dumps(g))
    assert copy == g and hash(copy) == hash(g)
    for grid in (g, copy):
        assert grid.spacing == tuple((hi - lo) / (n - 1)
                                     for (lo, hi), n in zip(extents, shape))
        mask = grid.boundary_mask()
        assert mask is grid.boundary_mask()  # computed once per grid
        with pytest.raises(ValueError):
            mask[(0,) * len(shape)] = False
        assert mask.sum() == g.node_count() - int(np.prod([n - 2 for n in shape]))


def test_scalar_field_values_are_read_only():
    g = unit_grid_1d(9)
    u = zero_field(g)
    with pytest.raises(ValueError):
        u.values[0] = 1.0
    v = u.with_values(np.ones(g.shape))
    assert v.grid == g
    assert float(v.values[3]) == 1.0


def test_field_shape_mismatch_rejected():
    g = unit_grid_1d(9)
    with pytest.raises(ConfigurationError):
        ScalarField(g, np.zeros(8))
    with pytest.raises(ConfigurationError):
        VectorField(g, np.zeros((2, 9)))


def test_sup_norm_scalar_and_vector():
    g = unit_grid_1d(5)
    u = ScalarField(g, np.array([0.0, -3.0, 1.0, 2.0, 0.0]))
    assert sup_norm(u) == 3.0
    v = VectorField(unit_grid_2d(5), np.stack([np.full((5, 5), 3.0),
                                               np.full((5, 5), 4.0)]))
    assert sup_norm(v) == pytest.approx(5.0)


# ---------------------------------------------------------------------------
# calculus


def test_gradient_of_linear_function_is_exact():
    g = build_grid(((0.0, 2.0), (0.0, 1.0)), (9, 13))
    u = field_from_function(g, lambda x, y: 2.0 * x - 3.0 * y + 1.0)
    grad = gradient(u)
    assert np.allclose(grad.components[0], 2.0, atol=1e-12)
    assert np.allclose(grad.components[1], -3.0, atol=1e-12)
    assert grad.magnitude().values == pytest.approx(
        np.full(g.shape, np.hypot(2.0, 3.0)))


def test_gradient_second_order_convergence():
    errs = []
    for n in (33, 65):
        g = unit_grid_1d(n)
        u = bump_1d(g)
        exact = np.pi * np.cos(np.pi * g.axis(0))
        errs.append(np.max(np.abs(gradient(u).components[0] - exact)))
    assert errs[0] / errs[1] > 3.0  # roughly h^2


@pytest.mark.parametrize("shape", [(9,), (9, 11), (7, 9, 5)])
def test_gradient_reads_one_ulp_of_asymmetry_as_zero(shape):
    g = build_grid(tuple((0.0, 1.0) for _ in shape), shape)
    u = field_from_function(
        g, lambda *xs: np.prod([np.sin(np.pi * x) for x in xs], axis=0))
    values = u.values.copy()
    centre = tuple(n // 2 for n in shape)
    for k in range(len(shape)):
        # one ulp up on one side of the centre, one down on the other
        for side, towards in ((1, np.inf), (-1, -np.inf)):
            node = list(centre)
            node[k] += side
            values[tuple(node)] = np.nextafter(values[tuple(node)], towards)
    raw = np.gradient(values, *g.spacing, edge_order=2)
    raw = np.reshape(raw, (len(shape),) + values.shape)
    assert np.all(raw[(slice(None),) + centre] != 0.0)
    grad = gradient(u.with_values(values))
    assert np.all(grad.components[(slice(None),) + centre] == 0.0)
    # a resolved slope is untouched
    near_corner = (slice(None),) + (1,) * len(shape)
    assert np.array_equal(grad.components[near_corner], raw[near_corner])


def numpy_gradient(g, values):
    """``np.gradient`` at the grid's spacing, and the floor of ``gradient``."""
    raw = np.reshape(np.gradient(values, *g.spacing, edge_order=2),
                     (g.dimension,) + g.shape)
    floor = (GRADIENT_ULPS * np.finfo(float).eps * float(np.max(np.abs(values)))
             / np.reshape(g.spacing, (-1,) + (1,) * g.dimension))
    return raw, floor


# spacings off the powers of two, so that a reordered stencil rounds otherwise
GRADIENT_GRIDS = {
    "1d 2049": (((0.0, 1.3),), (2049,)),
    "1d 3": (((0.0, 1.3),), (3,)),
    "2d 33x17": (((0.0, 1.3), (-0.4, 2.1)), (33, 17)),
    "3d 9^3": (((0.0, 1.3), (0.0, 0.7), (-1.0, 1.1)), (9, 9, 9)),
}


@pytest.mark.parametrize("name", sorted(GRADIENT_GRIDS))
def test_gradient_is_numpy_gradient_bit_for_bit(name):
    g = build_grid(*GRADIENT_GRIDS[name])
    rng = np.random.default_rng(11)
    for scale in (1e-8, 1e-4, 1.0, 1e4, 1e8):
        for _ in range(4):
            values = scale * rng.standard_normal(g.shape)
            expected, floor = numpy_gradient(g, values)
            expected[np.abs(expected) <= floor] = 0.0
            got = gradient(ScalarField(g, values)).components
            assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("name", sorted(GRADIENT_GRIDS))
def test_gradient_below_the_floor_everywhere_is_zero(name):
    g = build_grid(*GRADIENT_GRIDS[name])
    rng = np.random.default_rng(5)
    flat = np.full(g.shape, 0.7)
    values = np.where(rng.random(g.shape) < 0.5, flat, np.nextafter(flat, 1.0))
    raw, floor = numpy_gradient(g, values)
    assert np.any(raw != 0.0) and np.all(np.abs(raw) <= floor)
    got = gradient(ScalarField(g, values)).components
    assert got.tobytes() == np.zeros_like(raw).tobytes()


def test_integrate_matches_closed_forms():
    g1 = unit_grid_1d(201)
    assert integrate(bump_1d(g1)) == pytest.approx(2.0 / np.pi, rel=1e-4)
    g2 = build_grid(((0.0, 2.0), (0.0, 3.0)), (41, 61))
    const = field_from_function(g2, lambda x, y: np.ones_like(x))
    assert integrate(const) == pytest.approx(6.0, rel=1e-12)


# ---------------------------------------------------------------------------
# the discrete operator


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_plap_of_torsion_profile_is_one(p):
    """The exact 1D torsion function has constant flux slope, so the
    discrete operator must reproduce -div flux = 1 up to O(h^2) wherever the
    profile is smooth.  The midpoint kink (u' not differentiable for p != 2)
    is excluded: no consistent stencil exists there."""
    g = unit_grid_1d(257)
    pp = p / (p - 1.0)
    u = field_from_function(
        g, lambda x: (p - 1.0) / p * ((0.5) ** pp - np.abs(x - 0.5) ** pp))
    out = p_laplacian_apply(u, p)
    interior = out.values[g.interior]
    center = (len(interior) - 1) // 2
    distance = np.abs(np.arange(len(interior)) - center)
    # The degenerate flux amplifies truncation error near the kink with only
    # polynomial decay in node distance, so the tight bound applies away
    # from it and a loose absolute bound covers the kink neighborhood.
    assert np.max(np.abs(interior[distance > 32] - 1.0)) < 1e-4
    assert np.max(np.abs(interior - 1.0)) < 0.2
    assert sup_norm(u) == pytest.approx(torsion_sup_1d(p, 1.0), rel=1e-12)


def test_plap_p2_matches_five_point_stencil():
    g = unit_grid_2d(17)
    rng = np.random.default_rng(7)
    vals = np.zeros(g.shape)
    vals[g.interior] = rng.standard_normal((15, 15))
    u = ScalarField(g, vals)
    out = p_laplacian_apply(u, 2.0).values
    h = g.spacing[0]
    lap = np.zeros(g.shape)
    lap[1:-1, 1:-1] = (4.0 * vals[1:-1, 1:-1] - vals[:-2, 1:-1]
                       - vals[2:, 1:-1] - vals[1:-1, :-2]
                       - vals[1:-1, 2:]) / h ** 2
    assert np.allclose(out, lap, rtol=1e-9, atol=1e-9)


def test_plap_zero_on_boundary_rows():
    g = unit_grid_2d(9)
    u = field_from_function(g, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
    out = p_laplacian_apply(u, 2.7)
    assert np.all(out.values[g.boundary_mask()] == 0.0)


@settings(max_examples=30, deadline=None)
@given(t=st.floats(min_value=1e-6, max_value=1e6),
       p=st.floats(min_value=1.2, max_value=4.0))
def test_plap_homogeneity_property(t, p):
    """Scaling the field scales the operator by t^(p-1) to rounding, because
    the regularization delta is proportional to the field's own scale."""
    g = build_grid(((0.0, 1.0),), 33)
    u = field_from_function(g, lambda x: x * (1.0 - x) * (1.2 + np.sin(3.0 * x)))
    a = p_laplacian_apply(u.with_values(t * u.values), p).values
    b = t ** (p - 1.0) * p_laplacian_apply(u, p).values
    assert np.allclose(a, b, rtol=5e-12, atol=0.0)


def test_flux_delta_tracks_field_scale():
    g = unit_grid_1d(33)
    u = bump_1d(g)
    largest_face_slope = np.max(np.abs(np.diff(u.values))) / g.spacing[0]
    assert flux_delta(u) == pytest.approx(1e-8 * largest_face_slope)
    assert flux_delta(u.with_values(10.0 * u.values)) == pytest.approx(
        10.0 * flux_delta(u))
    assert flux_delta(zero_field(g)) == 0.0


def test_plap_rejects_bad_exponent():
    g = unit_grid_1d(9)
    with pytest.raises(ConfigurationError):
        p_laplacian_apply(zero_field(g), 1.0)
