"""Uniform box grids, nodal fields, and finite-difference operators.

The operators work on axis-aligned boxes with any number of axes (problem
files describe one or two), discretized by uniform node grids that include
the boundary.  A field is a nodal array on such a grid; "Dirichlet-zero"
means exact zeros on every boundary node.

Two operators matter:

* ``gradient`` -- second-order nodal gradient, the uniform-spacing stencil of
  ``np.gradient(v, *spacing, edge_order=2)`` formed by slices: central
  differences ``(v[i+1] - v[i-1]) / (2 h)`` at interior nodes, one-sided
  three-point stencils ``(-1.5/h) v0 + (2/h) v1 + (-0.5/h) v2`` (mirrored at
  the far end) on the boundary, exact for quadratics; components at the
  rounding level of max|u| read as zero.
* ``p_laplacian_apply`` -- the conservative discrete p-Laplacian.  Fluxes

      F = (|Du|^2 + delta^2)^((p-2)/2) * Du

  are formed at cell-face midpoints and differenced back onto interior nodes.
  Output is zero on boundary nodes.

A grid computes its ``spacing`` and its (read-only) boundary mask once, when
it is built; the solvers read both on every call.

Face families.  Every face quantity -- the flux, the gradient scale, the
Newton Jacobian's conductances -- is read from one pair ``(s, t)`` per axis.
The faces of family k join the nodes ``lo`` and ``hi = lo + e_k`` whose
other coordinates are interior: shape n_k - 1 along axis k, n_j - 2 along
each other axis j.  ``s = (u[hi] - u[lo]) / h_k`` and ``t`` holds, per
other axis j, the transverse derivative averaged from four nodal
differences, (u[lo+e_j] + u[hi+e_j] - u[lo-e_j] - u[hi-e_j]) / (4 h_j);
``|Du|^2 = s^2 + sum_j t_j^2`` there.  In 1d ``t`` is empty.

The regularization is ``delta = 1e-8 * s`` where ``s`` is the largest midpoint
gradient magnitude of the field itself.  Tying delta to the field's own scale
keeps the regularized operator exactly (p-1)-homogeneous: scaling the field by
``t`` scales the output by ``t^(p-1)`` with no delta artifact, which the
solver's scaling law relies on.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

# Relative size of the gradient regularization in the p-Laplacian flux.
DELTA_RELATIVE = 1.0e-8
# Nodal gradient components up to this many ulps of max|u| / h read as zero.
GRADIENT_ULPS = 4.0


@dataclass(frozen=True)
class Grid:
    """Uniform node grid on an axis-aligned box with any number of axes.

    Attributes:
        extents: per-axis (lo, hi) bounds.
        shape: per-axis node counts, boundary nodes included.
    """

    extents: tuple[tuple[float, float], ...]
    shape: tuple[int, ...]

    def __post_init__(self):
        if not self.extents:
            raise ConfigurationError("a box needs at least one axis")
        if len(self.shape) != len(self.extents):
            raise ConfigurationError("extents and shape must have the same length")
        for (lo, hi), n in zip(self.extents, self.shape):
            if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
                raise ConfigurationError(f"degenerate axis extent ({lo}, {hi})")
            if n < 3:
                raise ConfigurationError(
                    f"need at least 3 nodes per axis (one interior), got {n}")
        # geometry the solvers read on every call, computed once; not fields,
        # so equality and hashing still see extents and shape only
        mask = np.ones(self.shape, dtype=bool)
        mask[self.interior] = False
        mask.setflags(write=False)
        object.__setattr__(self, "_spacing", tuple(
            (hi - lo) / (n - 1) for (lo, hi), n in zip(self.extents, self.shape)))
        object.__setattr__(self, "_boundary_mask", mask)

    def __reduce__(self):
        # rebuilt by the constructor: numpy does not keep the read-only flag
        # of a pickled array, so the mask must not travel in the state
        return type(self), (self.extents, self.shape)

    @property
    def dimension(self) -> int:
        return len(self.extents)

    @property
    def spacing(self) -> tuple[float, ...]:
        return self._spacing

    def axis(self, k: int) -> np.ndarray:
        """Node coordinates along axis ``k``."""
        lo, hi = self.extents[k]
        return np.linspace(lo, hi, self.shape[k])

    def meshes(self) -> tuple[np.ndarray, ...]:
        """Coordinate arrays of full grid shape, one per axis ('ij' indexing);
        read-only, shared by every grid of the same box and shape."""
        return _meshes(self.extents, self.shape)

    @property
    def interior(self) -> tuple[slice, ...]:
        """Slice tuple selecting the interior nodes."""
        return (slice(1, -1),) * self.dimension

    def boundary_mask(self) -> np.ndarray:
        """Boolean array, True exactly on boundary nodes; read-only, shared
        by every caller."""
        return self._boundary_mask

    def node_count(self) -> int:
        return int(np.prod(self.shape))


@functools.lru_cache(maxsize=4)
def _meshes(extents, shape):
    # keyed by geometry, not held by each Grid: a sweep builds a grid per
    # set-up and its results keep those grids alive, so meshes on every
    # grid would be kept once per set-up
    meshes = np.meshgrid(*(np.linspace(lo, hi, n)
                           for (lo, hi), n in zip(extents, shape)),
                         indexing="ij")
    for mesh in meshes:
        mesh.setflags(write=False)
    return tuple(meshes)


def build_grid(extents, resolution) -> Grid:
    """Construct a :class:`Grid`, normalizing the argument types.

    ``extents`` is a (lo, hi) pair or a sequence of them; ``resolution`` is a
    node count or a matching sequence of counts.
    """
    ext = tuple(extents)
    if ext and np.isscalar(ext[0]):
        ext = (tuple(ext),)
    ext = tuple((float(lo), float(hi)) for lo, hi in ext)
    if np.isscalar(resolution):
        res = (int(resolution),) * len(ext)
    else:
        res = tuple(int(n) for n in resolution)
    return Grid(ext, res)


@dataclass(frozen=True)
class ScalarField:
    """Nodal scalar values on a grid.  The value array is read-only."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.shape != self.grid.shape:
            raise ConfigurationError(
                f"field shape {vals.shape} does not match grid shape {self.grid.shape}")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def with_values(self, values) -> "ScalarField":
        """Same grid, new values."""
        return ScalarField(self.grid, values)


@dataclass(frozen=True)
class VectorField:
    """Nodal vector values on a grid: components stacked on a leading axis."""

    grid: Grid
    components: np.ndarray

    def __post_init__(self):
        comps = np.array(self.components, dtype=float)
        expected = (self.grid.dimension,) + self.grid.shape
        if comps.shape != expected:
            raise ConfigurationError(
                f"component shape {comps.shape} does not match {expected}")
        comps.setflags(write=False)
        object.__setattr__(self, "components", comps)

    def magnitude(self) -> ScalarField:
        """Pointwise euclidean length as a scalar field."""
        return ScalarField(self.grid, np.sqrt(np.sum(self.components ** 2, axis=0)))


def zero_field(grid: Grid) -> ScalarField:
    return ScalarField(grid, np.zeros(grid.shape))


def field_from_function(grid: Grid, fn) -> ScalarField:
    """Sample ``fn(*coordinate_arrays)`` onto the grid nodes."""
    return ScalarField(grid, np.asarray(fn(*grid.meshes()), dtype=float))


def sup_norm(field) -> float:
    """Sup norm of a field: max |value|, euclidean length for vector fields."""
    if isinstance(field, VectorField):
        return float(np.sqrt((field.components ** 2).sum(axis=0)).max())
    return float(np.abs(field.values).max())


def gradient(u: ScalarField) -> VectorField:
    """Second-order nodal gradient (central interior, one-sided boundary).

    Along axis k with spacing h: ``(v[i+1] - v[i-1]) / (2 h)`` at interior
    nodes, ``(-1.5/h) v[0] + (2/h) v[1] + (-0.5/h) v[2]`` at the first node
    and ``(0.5/h) v[-3] + (-2/h) v[-2] + (1.5/h) v[-1]`` at the last, the
    same operations in the same order as ``np.gradient(v, *spacing,
    edge_order=2)``, so the result is bit-identical to it.  Components up to
    GRADIENT_ULPS * eps * max|u| / h_k, the rounding of a difference of equal
    values, are set to exactly zero."""
    g = u.grid
    v = u.values
    comps = np.empty((g.dimension,) + g.shape)
    scale = GRADIENT_ULPS * np.finfo(float).eps * float(np.abs(v).max())
    for k, h in enumerate(g.spacing):
        a, out = v.swapaxes(0, k), comps[k].swapaxes(0, k)  # views, axis k first
        np.subtract(a[2:], a[:-2], out=out[1:-1])
        out[1:-1] /= 2.0 * h
        out[0] = (-1.5 / h) * a[0] + (2.0 / h) * a[1] + (-0.5 / h) * a[2]
        out[-1] = (0.5 / h) * a[-3] + (-2.0 / h) * a[-2] + (1.5 / h) * a[-1]
        out[np.abs(out) <= scale / h] = 0.0
    return VectorField(g, comps)


def integrate(u: ScalarField) -> float:
    """Trapezoidal integral of a nodal field over its box."""
    g = u.grid
    total = u.values
    for k in range(g.dimension - 1, -1, -1):
        h = g.spacing[k]
        w = np.full(g.shape[k], h)
        w[0] = w[-1] = h / 2.0
        total = np.tensordot(total, w, axes=([k], [0]))
    return float(total)


@functools.lru_cache(maxsize=None)
def _face_windows(dimension):
    """Per face family: the windows ``lo``, ``hi`` of a nodal array at the
    faces' nodes, and per other axis j the same moved by -1 and +1 along j,
    ``(j, lo_minus, hi_minus, lo_plus, hi_plus)``."""
    def window(k, shift):  # the nodes lo + shift of the faces of family k
        return tuple(slice(int(a != k) + int(c), int(c) - 1 or None)
                     for a, c in enumerate(shift))

    unit = np.eye(dimension, dtype=int)
    return tuple(
        (window(k, 0 * unit[k]), window(k, unit[k]),
         tuple((j, window(k, -unit[j]), window(k, unit[k] - unit[j]),
                window(k, unit[j]), window(k, unit[k] + unit[j]))
               for j in range(dimension) if j != k))
        for k in range(dimension))


def _faces(values: np.ndarray, spacing):
    """The ``(s, t)`` pair of each face family, in axis order: ``t`` holds one
    transverse difference per other axis (see the module docstring)."""
    v = values
    return [((v[hi] - v[lo]) / spacing[k],
             [(v[lo_p] + v[hi_p] - v[lo_m] - v[hi_m]) / (4.0 * spacing[j])
              for j, lo_m, hi_m, lo_p, hi_p in cross])
            for k, (lo, hi, cross) in enumerate(_face_windows(len(spacing)))]


def _slope2(s, t):
    """Squared face gradient s^2 + sum_j t_j^2."""
    return sum((tj * tj for tj in t), s * s)


def _masked_power(m2: np.ndarray, expo: float) -> np.ndarray:
    """m2^expo with the m2 == 0 cells mapped to zero."""
    if m2.min() > 0.0:  # always so once delta > 0
        return m2 ** expo
    out = np.zeros_like(m2)
    nz = m2 > 0.0
    out[nz] = m2[nz] ** expo
    return out


def _gradient_scale(faces) -> float:
    """Largest face-midpoint gradient magnitude of a field, read from its
    face arrays ``faces``; the natural flux scale."""
    return float(np.sqrt(max(_slope2(s, t).max() for s, t in faces)))


def flux_delta(u: ScalarField) -> float:
    """Regularization delta used for this field: 1e-8 of its gradient scale."""
    return DELTA_RELATIVE * _gradient_scale(_faces(u.values, u.grid.spacing))


def _plap_raw(values: np.ndarray, spacing, p: float, delta: float,
              faces) -> np.ndarray:
    """Negative discrete p-Laplacian of a nodal array, read from its face
    arrays ``faces = _faces(values, spacing)``; zero on the boundary."""
    d2 = delta * delta
    div = None
    for axis, ((s, t), h) in enumerate(zip(faces, spacing)):
        flux = _masked_power(_slope2(s, t) + d2, (p - 2.0) / 2.0) * s
        f = flux.swapaxes(0, axis)  # a view, this family's axis first
        term = ((f[1:] - f[:-1]) / h).swapaxes(0, axis)
        div = term if div is None else div + term
    out = np.zeros_like(values)
    out[(slice(1, -1),) * len(spacing)] = -div
    return out


def _plap_own_delta(values, spacing, p):
    """``_plap_raw`` at the field's own delta, DELTA_RELATIVE times its
    gradient scale, with both read from one face build: (result, delta,
    faces)."""
    faces = _faces(values, spacing)
    delta = DELTA_RELATIVE * _gradient_scale(faces)
    return _plap_raw(values, spacing, p, delta, faces), delta, faces


def p_laplacian_apply(u: ScalarField, p: float) -> ScalarField:
    """Apply the regularized discrete negative p-Laplacian to ``u``, at the
    flux regularization ``flux_delta(u)``.

    Args:
        u: Dirichlet-zero nodal field.
        p: exponent, must be > 1.

    Returns:
        Nodal field holding -div(|Du|^(p-2) Du) at interior nodes, zero on the
        boundary.
    """
    if p <= 1.0:
        raise ConfigurationError(f"p must exceed 1, got {p}")
    return ScalarField(u.grid, _plap_own_delta(u.values, u.grid.spacing, p)[0])
