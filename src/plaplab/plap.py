"""Dirichlet solver for the discrete p-Laplacian, plus comparison helpers.

Solves  -div(|Du|^(p-2) Du) = g  on interior nodes with u = 0 on the
boundary, using damped Newton iteration on the conservative flux
discretization.  The Jacobian is assembled analytically from the flux form,
reading the same face arrays (s, t) as the residual (see the face families in
``grid``): for a face with longitudinal difference s, transverse differences
t_j and m2 = s^2 + |t|^2 + delta^2,

    dF/ds   = m2^((p-4)/2) * (delta^2 + |t|^2 + (p-1) s^2),
    dF/dt_j = (p-2) * m2^((p-4)/2) * s * t_j,

both strictly positive / well defined for p > 1 once delta > 0; with one
axis t is empty and only dF/ds is assembled.  A cold solve starts from the
p = 2 solution, which the discrete sine transform gives with no matrix and
no factorization (``_linear_poisson``; the transform is numpy's real FFT of
an odd extension, ``_dst1``, so no SciPy FFT module is imported); above
p = 2 that start is rescaled to the size of the solution at p, using that
the operator is (p-1)-homogeneous (``_cold_start``).  Newton then runs at p
itself.  Only when that stalls does it retreat to the exponent halfway
between the failed one and the last one it reached, and from there it comes
back to p (adaptive step control of continuation methods; Allgower & Georg,
*Introduction to Numerical Continuation Methods*, SIAM 2003).  Newton steps
start at the full step and are halved until the residual drops.  The linear
systems are solved directly.  The Jacobian has one form, its stencil
coefficients ``coef`` (see ``_assemble``), and every storage keeps it; the
storages differ only in how they factor it, and there are two, chosen by the
number of axes alone.  With one, LAPACK ``dgtsv`` solves the three diagonals
of ``coef`` (``_Tridiagonal``), with no sparse matrix built.  With two or
more, the unknowns are numbered in the C order of the grid with its axes
sorted by interior size, longest first (a square or already sorted grid
keeps its own C order), so the stencil matrix (9 points with two axes, 19
with three) is a band matrix.  Its widest coupling joins a node to the one a
step further along each of the first two axes of that order, and kl = ku is
their distance in that numbering (m - 1 with two axes, m the nodes along the
shorter one), the least over the orders of the axes: 16 on 17x257 as on
257x17.  It is packed into LAPACK general-band storage (``_Banded``)
through an index map computed once per grid shape (``_band``), and LAPACK
``dgbtrf`` factors it in place by banded LU with partial pivoting (Golub &
Van Loan, *Matrix Computations*, sec. 4.3).  On a cube of n nodes a side
the band is about n^2 wide, so its storage grows as n^5: 19.5 MB at 17^3.
Against SuperLU in nested-dissection order, with BLAS on one thread, it
took the same Newton steps from 9^3 to 25^3 and was as fast or faster, but
from about 21^3 its memory is the larger by far (a cold solve at 25^3
peaked at 229 MB against 126 MB), at sizes no problem file reaches.  Every
solve takes and returns vectors in grid (C) order.

A solve takes an optional reaction term: with ``reaction = (coeff, q)`` it
solves -Lap_p u = coeff * max(u, 0)^(q-1) + g, the frozen problem of an
outer step of ``scheme``, by Newton on G(u) = -Lap_p u - F(u).  The Jacobian
of G is the Newton Jacobian above less diag((q-1) coeff u^(q-2)) at the
nodes where u > 0 (``_reaction_slope``), shifted in ``_assemble`` before the
matrix is stored, and a residual stops at tol_residual * ||F(u)||_inf, the
load taken at its own field.

With more than one axis, each Newton iteration first tries the chord step
u - J_old^-1 r with the last kept LU factor (modified Newton; Kelley,
*Solving Nonlinear Equations with Newton's Method*, SIAM 2003).  The step
is taken when it brings the residual below tol or to at most
CHORD_CONTRACTION times the old residual; otherwise the factor is dropped
and the iteration takes the fresh Newton step at u.  No trial is made when
the last accepted step's contraction ratio ||r_new|| / ||r_old||, applied
once more, would miss both tests, ratio * ||r|| > max(tol,
CHORD_CONTRACTION ||r||): the factor is dropped untried, which saves the
trial's solve and residual (after such a step no trial was accepted in any
measured run).  The ratio is 0 before a Newton loop's first step, so a
factor handed over from another solve is always tried, unless the start
holds its own factored Jacobian (below).  The factor is kept in a one-slot
``factor`` list.  A solve makes its own, so a cold solve keeps one across
its Newton iterations and its retreats in p; a caller that solves a run of
nearby problems hands one list to all of them.  The outer iteration of
``scheme`` makes one per ``outer_fixed_point`` call and shares it across
all its outer steps, whose solves start next to the last limit; the two
inner limits of its certificate stage get a fresh one each; the inverse
iteration of ``spectral`` makes one per call.  No factor outlives such a
call.  One axis takes no chord steps and keeps no factor in the list: LAPACK
``dgtsv`` factors and solves in one O(n) call, faster than a kept factor's
``dgttrf`` and ``dgttrs`` together.

A run of warm solves starts each one at the field where the last one
stopped, and every solve's first residual needs -Lap_p at its start.  A warm
solve whose ``initial_guess`` is an ``OperatorValue`` takes its first
residual from that value instead of applying the operator again, and
returns the OperatorValue of its result (the -Lap_p its last residual
computed, with that residual's delta and face arrays), which the next solve
of the run starts from.  A value on another grid raises GridMismatchError,
one at another p ConfigurationError.  A guess whose boundary is not +0.0 is
zeroed and its -Lap_p computed afresh, and a flat guess falls back to the
cold start.  The value is exactly the one a fresh apply gives, so starting
from it changes no bit of any result.  ``operator_value`` computes the value
of a field that no solve returned, such as a barrier of ``scheme``.

Many solves can start from one field, as every sweep of the certificate
chains of ``scheme`` starts at the final iterate.  Their first Newton steps
all take the Jacobian at that field, so ``factored_value`` assembles and
factors it once, through ``_try_solve`` as every factorization goes, and
the value carries it (``jacobian``: the storage, whose ``coef`` the
rounding floor reads, and the solve of its factor; with one axis LAPACK
``dgttrf`` and ``dgttrs``, which give dgtsv's bits).  A solve without a
reaction from such a value takes its first Newton step with that factor,
through ``_backtrack`` as a fresh step goes, and neither assembles nor
factors there; with two or more axes that factor then goes into the
solve's ``factor`` list, as a fresh one would, in place of a chord trial.
With one axis the step is the one a fresh Jacobian gives, bit for bit.  A
solve with a reaction assembles its own, shifted Jacobian, and a start the
solve zeroes or drops for the cold start drops the factor with its value.
No value a solve returns carries a factor, so none outlives its caller's.

Contracts the rest of the package relies on:

* residual: ||(-Lap_p u) - g||_inf <= max(tol_residual * ||g||_inf,
  rounding floor), with tol_residual alone when g = 0, where the rounding
  floor ROUNDING_ULPS * eps * max(|J| |u|) is the rounding level of
  evaluating the operator at u (J the Newton Jacobian, its ``coef``
  always assembled at u itself: a fresh one, or the one a factored start
  value holds for its own field; never a chord step's kept factor's); the
  floor is used only when no Newton
  step lowers the residual any more.  Chord steps do not change this
  contract: the true residual decides convergence against the same tol;
* scaling:  solve(t*g) = t^(1/(p-1)) * solve(g) up to solver tolerance
  (exact for the regularized operator, because delta tracks the field scale);
* boundedness: for ||g||_inf <= 1, solve(g) <= torsion function pointwise;
* every solve in a run must satisfy ||grad u||_inf <= khat ||g||_inf^(1/(p-1))
  once khat has been estimated -- see assert_gradient_bound.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
from dataclasses import dataclass, field as dataclass_field
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dgbtrf, dgbtrs, dgtsv, dgttrf, dgttrs

from .errors import (
    ConfigurationError,
    EstimateFailure,
    GridMismatchError,
    SolveFailure,
    StaleGradConstantError,
)
from .grid import (
    Grid,
    ScalarField,
    _face_windows,
    _faces,
    _gradient_scale,
    _masked_power,
    _plap_own_delta,
    _plap_raw,  # unused here; perfbench's tracer patches and checks it in plap
    _slope2,
    gradient,
    sup_norm,
)

log = logging.getLogger(__name__)


# A stalled cold solve retreats in p while the failed exponent lies more than
# CONTINUATION_STEP from the last one reached; no retreat is finer.
CONTINUATION_STEP = 0.25
# Newton iterations of one attempt at one exponent; the monotone sweeps of
# the scheme have their own budget, scheme.INNER_MAX_SWEEPS.
NEWTON_MAX_ITER = 500
# A stalled Newton solve returns when its residual is at most ROUNDING_ULPS *
# eps * max(|J| |u|): one ulp of u moves the residual by about eps |J| |u|.
ROUNDING_ULPS = 4.0
# A Newton iteration with a kept factor takes its chord step when the step
# cuts the residual to at most CHORD_CONTRACTION times the old one (or below
# tol).
CHORD_CONTRACTION = 0.1


@dataclass(frozen=True)
class SolveOptions:
    """Options of the nonlinear solver: the residual tolerance of a Dirichlet
    solve, relative to ||g||_inf (absolute when g = 0), so a solve stops at
    the same point of the problem's scaling orbit on any scale."""

    tol_residual: float = 1.0e-8

    def __post_init__(self):
        if not (math.isfinite(self.tol_residual) and self.tol_residual > 0.0):
            raise ConfigurationError(
                "tol_residual must be finite and positive, got "
                f"{self.tol_residual!r}")


class OperatorValue(NamedTuple):
    """-Lap_p of ``field`` at ``p`` and at the field's own delta (``lap``, a
    nodal array, zero on the boundary), with that ``delta`` and the face
    arrays ``faces`` it was read from: all a warm solve's first residual and
    first Jacobian need of their start.  A solve started from one returns
    its result's.

    ``jacobian``, optional, is the reaction-free Newton Jacobian at the
    field, factored: (its storage, whose ``coef`` the rounding floor reads;
    the grid-order solve of its factor), which ``factored_value`` adds.  A
    reaction-free solve started from such a value takes its first Newton
    step with that factor.  No value a solve returns carries one."""

    field: ScalarField
    p: float
    lap: np.ndarray
    delta: float
    faces: list
    jacobian: tuple | None = None


def operator_value(u: ScalarField, p: float) -> OperatorValue:
    """The OperatorValue of ``u`` at ``p``, computed.  ``lap`` equals
    ``p_laplacian_apply(u, p).values`` bit for bit."""
    spacing = u.grid.spacing
    faces = _faces(u.values, spacing)
    lap, delta = _plap_own_delta(u.values, spacing, p, faces)
    return OperatorValue(u, p, lap, delta, faces)


def factored_value(value: OperatorValue) -> OperatorValue:
    """``value`` with the reaction-free Newton Jacobian at its field,
    assembled from its delta and faces and factored once (``jacobian``):
    the Jacobian the first Newton step of every reaction-free solve from it
    would assemble and factor.  A singular Jacobian leaves the value as it
    is, and the solves assemble their own."""
    jac = _assemble(value.field.values, value.field.grid.spacing, value.p,
                    value.delta, faces=value.faces)
    solve = _try_solve(jac, None)
    return value if solve is None else value._replace(jacobian=(jac, solve))


class _Residual(NamedTuple):
    """The residual of -Lap_p u = g at one field u: its interior values ``r``
    and their max ``norm``, the stop ``tol`` that norm is held to, with u's
    ``delta``, ``faces`` and -Lap_p u (``lap``), which the next Jacobian and
    the OperatorValue of a returned field read."""

    r: np.ndarray
    norm: float
    tol: float
    delta: float
    faces: list
    lap: np.ndarray


def _require_length(rhs, n):
    """Raise ValueError unless ``rhs`` is a vector of ``n`` entries, which
    LAPACK's ``dgbtrs`` does not check."""
    if rhs.shape != (n,):
        raise ValueError(f"right-hand side of shape {rhs.shape} for {n} "
                         "unknowns")


class _Tridiagonal(NamedTuple):
    """The Newton Jacobian of one axis: rows 0, 1 and 2 of ``coef`` hold its
    upper, main and lower diagonals.  LAPACK ``dgtsv`` factors and solves in
    one call, so ``factor_solve`` keeps no factor; ``factor`` keeps one, by
    ``dgttrf``, whose ``dgttrs`` solves give dgtsv's bits."""

    coef: np.ndarray

    @property
    def nnz(self):
        return 3 * (self.coef.shape[1] - 2) - 2

    def _diagonals(self):
        coef = self.coef  # coef[q, c] is row c - offsets[q], column c
        return coef[2, 1:-2], coef[1, 1:-1], coef[0, 2:-1]

    def factor_solve(self, rhs):
        lower, diag, upper = self._diagonals()
        if diag.size == 1:
            # the wrapper takes no empty off-diagonal; LAPACK reads none here
            lower = upper = np.zeros(1)
        # no overwrite flags: a stalled solve's rounding floor reads coef
        *_, sol, info = dgtsv(lower, diag, upper, rhs)
        return (None if info > 0 else sol), None

    def factor(self):
        lower, diag, upper = self._diagonals()
        n = diag.size
        # the wrappers take at least three unknowns: identity rows padded
        # below, coupled to none, change no bit of the rest
        pad = max(0, 3 - n)
        if pad:
            lower, upper = (np.concatenate([band, np.zeros(pad)])
                            for band in (lower, upper))
            diag = np.concatenate([diag, np.ones(pad)])
        *lu, info = dgttrf(lower, diag, upper)
        if info > 0:
            return None

        def solve(rhs):
            _require_length(rhs, n)
            return dgttrs(*lu, np.concatenate([rhs, np.zeros(pad)]))[0][:n]

        return solve


class _Banded(NamedTuple):
    """The Newton Jacobian of two or more axes, its unknowns numbered in the
    C order of the grid with its axes sorted longest first (see _band).
    Each factor packs ``coef`` afresh into LAPACK general-band storage,
    which ``dgbtrf`` factors in place, so a second factor of the same matrix
    is the first one again.  Its solves permute the right-hand side into
    that numbering and the solution back to grid order."""

    coef: np.ndarray

    @property
    def nnz(self):
        return _band(self.coef.shape[1:])[2].size

    def factor_solve(self, rhs):
        solve = self.factor()
        return (None, None) if solve is None else (solve(rhs), solve)

    def factor(self):
        shape = self.coef.shape[1:]
        kl, order, sources, slots = _band(shape)
        inner = tuple(size - 2 for size in shape)
        store = np.zeros((math.prod(inner), 3 * kl + 1))
        np.put(store, slots, self.coef.take(sources))
        # store is C-ordered, so its transpose is the Fortran-ordered ab
        lu, pivots, info = dgbtrf(store.T, kl, kl, overwrite_ab=1)
        if info > 0:
            return None
        band_inner = tuple(inner[k] for k in order)
        back = tuple(np.argsort(order))

        def solve(rhs):
            _require_length(rhs, lu.shape[1])
            band_rhs = rhs.reshape(inner).transpose(order).ravel()
            sol = dgbtrs(lu, kl, kl, band_rhs, pivots)[0]
            return sol.reshape(band_inner).transpose(back).ravel()

        return solve


def _assemble(values, spacing, p, delta, *, faces=None, shift=None):
    """Interior-by-interior Newton Jacobian of the operator at delta,
    including the transverse coupling, as ``coef`` (see _stencil) kept in
    the storage of its number of axes (see _pack).

    ``coef`` is the one form of the matrix: every storage keeps it as it
    is, the rounding floor reads it, and the storages differ only in how they
    factor it.  Each has ``factor_solve(rhs)``, which returns (the solution,
    or None when the matrix is singular; the grid-order solve of the kept
    factor, or None), ``factor()``, which returns the grid-order solve of a
    kept factor, or None when the matrix is singular, and ``nnz``, the
    couplings between interior nodes, the entries a sparse matrix would
    store.

    The conductances of each face family come from the same face arrays as
    the residual: ``faces`` is ``_faces(values, spacing)`` when the caller
    has built it.  Each face adds -v to the row of its lo node and +v to the
    row of its hi node, v = (1/h_k) dF/du_c, for every node c its flux F
    reads.  ``shift``, a nodal array, is subtracted from the diagonal: the
    Jacobian of -Lap_p u - F(u) for a reaction F with F'(u) = shift (see
    ``_reaction_slope``).  It goes into ``coef`` before any storage is
    packed, so every storage and the rounding floor read the shifted matrix.
    """
    if faces is None:
        faces = _faces(values, spacing)
    shape = values.shape
    offsets, plans = _stencil(shape)
    coef = np.zeros((len(offsets),) + shape)
    d2 = delta * delta
    for k, ((s, t), (s_plan, t_plan)) in enumerate(zip(faces, plans)):
        w = _masked_power(_slope2(s, t) + d2, (p - 4.0) / 2.0)
        ds = w * (d2 + sum(tj * tj for tj in t) + (p - 1.0) * s * s)
        dts = [(p - 2.0) * w * s * tj for tj in t]
        inv_h, cross_h = 1.0 / spacing[k], [h for j, h in enumerate(spacing) if j != k]
        vals = [inv_h * (ds / spacing[k])] + [
            inv_h * (dt / (4.0 * h)) for dt, h in zip(dts, cross_h)]
        for op, index, m in s_plan + t_plan:
            target = coef[index]
            op(target, vals[m], out=target)
    if shift is not None:
        centre = coef[offsets.index((0,) * len(shape))]
        centre -= shift
    return _pack(coef)


def _pack(coef):
    """``coef`` in the storage of its number of axes (see _assemble): a
    ``_Tridiagonal`` with one, a ``_Banded`` with two or more."""
    return _Tridiagonal(coef) if coef.ndim == 2 else _Banded(coef)


@functools.lru_cache(maxsize=8)
def _stencil(shape):
    """Index work of _assemble, once per grid shape: (offsets, plans).

    ``coef[q, c]`` sums the entry of column node c and row node c - offsets[q]
    (offsets descend: 1, 0, -1 with one axis; 9 with two, 19 with three).  Per
    family, ``plans`` holds the couplings through s, then through t, as
    (op, index, m): add or subtract value m (0: s, i: the i-th t) into
    ``coef[index]``, lo rows first.
    """
    d = len(shape)

    def start(window):  # position of a window's first node
        return np.array([sl.start or 0 for sl in window])

    # a face couples nodes at most one step apart along two axes
    offsets = tuple(o for o in itertools.product((1, 0, -1), repeat=d)
                    if sum(map(abs, o)) <= 2)
    number = {offset: q for q, offset in enumerate(offsets)}
    plans = []
    for lo, hi, cross in _face_windows(d):
        # the nodes the flux reads, the sign of dF/du there, the value index
        s_cols = [(hi, 1.0, 0), (lo, -1.0, 0)]
        t_cols = [(w, sign, i)
                  for i, (_, lo_m, hi_m, lo_p, hi_p) in enumerate(cross, 1)
                  for w, sign in ((lo_p, 1.0), (hi_p, 1.0), (lo_m, -1.0), (hi_m, -1.0))]
        plans.append(tuple(tuple((np.add if row_sign * sign > 0 else np.subtract,
                                  (number[tuple(start(w) - start(row))],) + w, m)
                                 for row, row_sign in ((lo, -1.0), (hi, 1.0))
                                 for w, sign, m in cols) for cols in (s_cols, t_cols)))
    return offsets, tuple(plans)


def _couplings(shape, unknown):
    """Every entry of the Jacobian of a grid of ``shape`` between two
    interior nodes, whose unknowns are ``unknown`` (the unknown of each
    interior node, in C order): (rows, cols, sources), the row and column
    unknowns of each entry and the index of its value in the flattened
    ``coef`` of _assemble, in (offset, row node) order."""
    offsets = _stencil(shape)[0]
    ids = np.full(shape, -1)
    ids[(slice(1, -1),) * len(shape)] = unknown.reshape(tuple(n - 2 for n in shape))
    steps = np.array(offsets) @ (np.array(ids.strides) // ids.itemsize)
    row_nodes = np.flatnonzero(ids >= 0)
    nodes = row_nodes + steps[:, None]  # column node per (q, row)
    keep = ids.ravel()[nodes] >= 0
    rows = np.broadcast_to(ids.ravel()[row_nodes], nodes.shape)[keep]
    cols = ids.ravel()[nodes][keep]
    sources = (nodes + ids.size * np.arange(len(offsets))[:, None])[keep]
    return rows, cols, sources


@functools.lru_cache(maxsize=8)
def _band(shape):
    """Index map of a _Banded of two or more axes, once per grid shape:
    (kl, order, sources, slots).

    The unknowns are the interior nodes in the C order of the grid with its
    axes taken in ``order``: by interior size, longest first, and in grid
    order among equal sizes, so a square or already sorted grid is numbered
    in its own C order.  A face couples nodes at most one step apart along
    each of two axes.  Steps along earlier axes skip more unknowns, so no
    coupling reaches further than one step along each of the first two:
    kl = ku = prod(band[1:]) + prod(band[2:]) (band the interior sizes in
    ``order``), which is m - 1 with two axes (m the nodes along the
    shorter one).  It equals the widest coupling when every axis has at least
    two interior nodes, and the sort makes it the least over the orders of
    the axes.  The storage is the C-ordered (n, 2 kl + ku + 1) array whose
    transpose is LAPACK's Fortran-ordered ``ab``, with entry (r, c) of the
    matrix at ab[kl + ku + r - c, c] and its first kl rows left to the fill
    of ``dgbtrf``.  So entry (r, c) goes to the flat index c (2 kl + ku + 1)
    + kl + ku + r - c, ``slots``, from the flattened coef at ``sources``,
    both read-only and in storage order.  Every other slot stays zero.
    """
    inner = tuple(size - 2 for size in shape)
    order = tuple(sorted(range(len(inner)), key=lambda k: -inner[k]))
    band = tuple(inner[k] for k in order)
    kl = math.prod(band[1:]) + math.prod(band[2:])
    unknown = np.arange(math.prod(inner)).reshape(band).transpose(
        np.argsort(order))
    rows, cols, sources = _couplings(shape, unknown.ravel())
    slots = cols * (3 * kl + 1) + 2 * kl + rows - cols
    in_order = np.argsort(slots)
    sources, slots = sources[in_order], slots[in_order]
    for arr in (sources, slots):
        arr.setflags(write=False)
    return kl, order, sources, slots


def _try_solve(matrix, rhs, factor=None):
    """Direct solve of an ``_assemble`` storage ``matrix`` by its
    ``factor_solve``; None when the matrix is singular or the result is not
    finite.  Every factorization of the package goes through here.

    ``rhs`` and the solution are in grid (C) order.  Anything other than a
    singular matrix, such as a right-hand side of the wrong length
    (ValueError), propagates.  ``factor``, a one-slot list, receives the
    grid-order solve of the kept LU factor when the solution is finite; a
    storage that keeps no factor there (``_Tridiagonal``) leaves it as it
    is.  With ``rhs`` None it only factors, by the storage's ``factor``, and
    returns the grid-order solve of the factor, or None when the matrix is
    singular.
    """
    if rhs is None:
        return matrix.factor()
    sol, solve = matrix.factor_solve(rhs)
    if sol is None or not np.all(np.isfinite(sol)):
        return None
    if factor is not None and solve is not None:
        factor[:] = [solve]
    return sol


def _dst1(x, fct=1.0):
    """The unnormalized type-I sine transform of x along every axis,
    y_j = 2 sum_i x_i sin(pi (i + 1) (j + 1) / (N + 1)) along an axis of
    length N, with the first axis's spectrum scaled by ``fct``.

    Along one axis it is minus the imaginary part of entries 1 .. N of the
    real FFT of the odd extension [0, x, 0, -x reversed], of length 2(N+1).
    That is how pocketfft computes its DST-I, and from numpy 2.0 on numpy's
    rfft runs the same pocketfft real FFT as SciPy's dstn, so the result
    equals scipy.fft.dstn(x, type=1) bit for bit; with fct = 1 / prod
    2(N_k + 1), rounded from long double as pocketfft rounds it, it equals
    scipy.fft.idstn(x, type=1), which applies its one factor on the first
    axis too.
    """
    for axis in range(x.ndim):
        n = x.shape[axis]
        x = np.moveaxis(x, axis, 0)
        ext = np.empty((2 * (n + 1),) + x.shape[1:])
        ext[0] = ext[n + 1] = 0.0
        ext[1:n + 1] = x
        ext[n + 2:] = -x[::-1]
        spectrum = np.fft.rfft(ext, axis=0)[1:n + 1].imag
        x = np.moveaxis(spectrum * (-fct if axis == 0 else -1.0), 0, axis)
    return x


def _linear_poisson(grid, gv):
    """Solve -Lap u = g (the p = 2 problem) with the discrete sine transform.

    The (2d+1)-point Dirichlet Laplacian of a box is diagonalized by the
    type-I sine transform along every axis, with eigenvalues
    sum_k (4 / h_k^2) sin^2(pi j_k / (2 (n_k - 1))), j_k = 1 .. n_k - 2
    (Buzbee, Golub & Nielson, "On direct methods for solving Poisson's
    equations", SIAM J. Numer. Anal. 7, 1970): no matrix, no factorization.
    The transform is ``_dst1``, and its inverse is ``_dst1`` scaled by
    1 / prod 2(n_k - 1), so u is what scipy.fft's idstn(dstn(...)) gives,
    bit for bit.
    """
    eigen = 0.0
    for k, (n, h) in enumerate(zip(grid.shape, grid.spacing)):
        j = np.arange(1, n - 1)
        axis = (4.0 / (h * h)) * np.sin(0.5 * np.pi * j / (n - 1)) ** 2
        eigen = eigen + axis.reshape((-1,) + (1,) * (grid.dimension - 1 - k))
    # pocketfft's inverse factor, 1 / N rounded from long double
    fct = float(1 / np.longdouble(math.prod(2 * (n - 1) for n in grid.shape)))
    u = np.zeros(grid.shape)
    u[grid.interior] = _dst1(_dst1(gv[grid.interior]) / eigen, fct)
    return u


def _cold_start(grid, p, gv):
    """The p = 2 solution; for p > 2 rescaled by
    c = (<Au, g> / <Au, Au>)^(1/(p-1)), A the operator at p on the interior.

    The regularized operator is (p-1)-homogeneous, A(cu) = c^(p-1) A(u), so c
    is the scale whose residual is least in the 2-norm, at the cost of one
    operator apply.  The start is kept when <Au, g> is not positive, and for
    p <= 2, where the power 1/(p-1) >= 1 magnifies any error of the ratio.
    """
    u = _linear_poisson(grid, gv)
    if p > 2.0:
        au = _plap_own_delta(u, grid.spacing, p)[0][grid.interior].ravel()
        num = float(au @ gv[grid.interior].ravel())
        if num > 0.0:  # then au is not zero either
            u *= (num / float(au @ au)) ** (1.0 / (p - 1.0))
    return u


def solve_plap_dirichlet(grid: Grid, p: float, g: ScalarField,
                         opts: SolveOptions | None = None,
                         initial_guess: ScalarField | OperatorValue | None = None,
                         trace: list | None = None,
                         factor: list | None = None, *,
                         reaction: tuple | None = None,
                         ) -> ScalarField | OperatorValue:
    """Solve the discrete Dirichlet problem -Lap_p u = g, u = 0 on the boundary.

    With ``reaction = (coeff, q)`` it solves -Lap_p u = F(u) instead, F(u) =
    coeff * max(u, 0)^(q-1) + g, by Newton on G(u) = -Lap_p u - F(u): the
    Jacobian is that of -Lap_p less diag(F'(u)) (``_reaction_slope``), and
    the residual contract below holds with F(u) for g, ||F(u)||_inf taken at
    the returned u.

    Args:
        grid: the grid both g and the solution live on.
        p: exponent > 1.
        g: right-hand side field (any sign; need not vanish on the boundary).
        opts: solver options; defaults to SolveOptions().
        initial_guess: warm start, a field or the OperatorValue of one;
            Newton runs at p from it, and a stall raises at once.  Without
            one (or with a flat one), Newton starts from the p = 2 solution,
            for p > 2 scaled by the factor c with the least 2-norm residual
            of -Lap_p(c u) = g, and retreats in p only on a stall.  With an
            OperatorValue the first residual reads its -Lap_p instead of
            applying the operator, unless the field's boundary is not +0.0,
            which the solve zeroes, or the field is flat; and without a
            ``reaction`` the first Newton step takes the factored Jacobian
            the value holds, if any (see ``factored_value``).  Its grid must
            be ``grid`` (GridMismatchError) and its p this p
            (ConfigurationError).
        trace: optional list that receives (iteration, residual, damping)
            triples as the solve progresses.
        factor: optional one-slot list for the solve of the last kept LU
            factor (grids with more than one axis).  A factor found there is
            tried first for chord steps, and the newest factor is left there
            for the next solve.  Pass one only across solves of nearby
            problems on one grid with one p, such as the sweeps of the outer
            steps of one outer_fixed_point call or of one eigen iteration; a
            factor that no longer contracts is dropped after at most one
            trial step, and with none once the last step contracted too
            slowly for a trial to pass.  Without one the solve keeps
            its factors in a fresh list of its own, so it takes chord steps
            all the same, also across retreats in p, and leaves no factor
            behind.
        reaction: optional (coeff, q), coeff a nodal array >= 0 and q > 1;
            keyword-only.  Adds the reaction term above.

    Returns:
        The solution as a Dirichlet-zero field, or its OperatorValue when
        ``initial_guess`` is one (with no factored Jacobian), with sup-norm
        residual at most
        tol_residual * ||g||_inf (tol_residual when g = 0), or at most the
        rounding floor when that is larger and no step lowers the residual
        further.

    Raises:
        SolveFailure: if the iteration at p stalls or exhausts
            NEWTON_MAX_ITER and no retreat is left: the start is warm, or the
            failed exponent lies within CONTINUATION_STEP of the last one
            reached.  The exception carries the residual history.
    """
    if opts is None:
        opts = SolveOptions()
    if p <= 1.0:
        raise ConfigurationError(f"p must exceed 1, got {p}")
    if g.grid != grid:
        raise GridMismatchError("right-hand side lives on a different grid")
    gv = g.values
    gsup = float(np.abs(gv).max())

    start = None  # the OperatorValue of the start u, when it can be read
    valued = isinstance(initial_guess, OperatorValue)
    if initial_guess is not None:
        guess = initial_guess.field if valued else initial_guess
        if guess.grid != grid:
            raise GridMismatchError("initial guess lives on a different grid")
        if valued and initial_guess.p != p:
            raise ConfigurationError(
                f"initial guess is at p = {initial_guess.p}, the solve at "
                f"p = {p}")
        u = guess.values.copy()
        mask = grid.boundary_mask()
        boundary = u[mask]
        if valued and not (boundary.any() or np.signbit(boundary).any()):
            start = initial_guess  # u is the guess itself
        u[mask] = 0.0
        reached = p
        # a flat warm start cannot seed the Jacobian; fall back to cold start
        faces = start.faces if start is not None else None
        if _gradient_scale(u, grid.spacing, faces) == 0.0 and gsup > 0.0:
            u, reached, start = _cold_start(grid, p, gv), 2.0, None
    else:
        u, reached = _cold_start(grid, p, gv), 2.0

    if factor is None:
        factor = []
    history = []
    pk = p
    while True:
        try:
            u_pk, res = _newton_loop(grid, pk, gv, u, opts.tol_residual,
                                     history, trace if pk == p else None,
                                     start, reaction, factor)
        except SolveFailure:
            if abs(pk - reached) <= CONTINUATION_STEP:
                raise
            pk = 0.5 * (reached + pk)  # retreat from the same u
            continue
        if pk == p:
            result = ScalarField(grid, u_pk)
            if valued:
                return OperatorValue(result, p, res.lap, res.delta, res.faces)
            return result
        u, reached, pk, start = u_pk, pk, p, None


def _cold_solve(grid, p, g, opts, solved):
    """``solve_plap_dirichlet(grid, p, g, opts)``; with a ``solved`` map of
    earlier solves, one of the same load on the same grid with the same p and
    opts is not solved again, and a new one is added."""
    if solved is None:
        return solve_plap_dirichlet(grid, p, g, opts)
    key = (grid, p, opts or SolveOptions(), g.values.tobytes())
    if key not in solved:
        solved[key] = solve_plap_dirichlet(grid, p, g, opts)
    return solved[key]


def _residual_stop(tol, g):
    """tol * ||g||_inf, or tol when g vanishes: a residual's stop."""
    size = float(np.abs(g).max())
    return tol * size if size > 0.0 else tol


def _newton_loop(grid, p, gv, u, tol, history, trace, start, reaction=None,
                 factor=None):
    """Newton iteration at p from u: (the solution, its _Residual).  ``tol``
    is the relative tolerance: a residual stops at tol * ||g||_inf (tol
    when g = 0), g the load ``gv`` plus the ``reaction`` term at the
    residual's own field.  The first residual reads ``start``, the
    OperatorValue of u at p, when it is not None, and without a reaction
    the first Newton step takes the factored Jacobian it holds, if any."""
    interior = grid.interior
    spacing = grid.spacing
    inner_shape = tuple(n - 2 for n in grid.shape)
    if reaction is None:
        stop = _residual_stop(tol, gv)
    else:
        coeff, q = reaction

    def residual(vals, lap=None, delta=None, faces=None):
        if lap is None:
            faces = _faces(vals, spacing)  # shared with the next _assemble
            lap, delta = _plap_own_delta(vals, spacing, p, faces)
        if reaction is None:
            g, g_stop = gv, stop
        else:  # the order of scheme.FrozenNonlinearity.evaluate
            g = coeff * np.power(np.maximum(vals, 0.0), q - 1.0) + gv
            g_stop = _residual_stop(tol, g)
        r = (lap - g)[interior]
        return _Residual(r, float(np.abs(r).max()), g_stop, delta, faces, lap)

    res = (residual(u) if start is None
           else residual(u, start.lap, start.delta, start.faces))
    # the factored Jacobian at u, exact for the first step without reaction
    pinned = None if start is None or reaction is not None else start.jacobian
    ratio = 0.0  # ||r_new|| / ||r_old|| of the last accepted step
    for _ in range(NEWTON_MAX_ITER):
        if res.norm <= res.tol:
            return u, res
        accepted = None
        if factor and ratio * res.norm > max(res.tol,
                                             CHORD_CONTRACTION * res.norm):
            # one more step at the last step's rate fails the chord test:
            # drop the factor untried, as a rejected trial would
            factor.clear()
        if factor and pinned is None:
            # chord step: the kept factor's full step, while it contracts
            cand = u.copy()
            cand[interior] += factor[0](-res.r.ravel()).reshape(inner_shape)
            c_res = residual(cand)
            if (c_res.norm <= c_res.tol
                    or c_res.norm <= CHORD_CONTRACTION * res.norm):
                accepted = cand, c_res, 1.0
            else:
                factor.clear()
        if accepted is None:
            if pinned is not None:
                # the Jacobian at u, which the start holds factored; its
                # factor goes into the holder as a fresh one would, on the
                # storages that keep one there
                jac, solve = pinned
                step = solve(-res.r.ravel())
                if not np.all(np.isfinite(step)):
                    step = None
                elif jac.coef.ndim > 2:
                    factor[:] = [solve]
            else:
                # a fresh Jacobian at u: the rounding floor below reads it
                # too.  The last one goes first, so that two are never alive
                # at once
                jac = None
                shift = (None if reaction is None
                         else _reaction_slope(u, coeff, q))
                jac = _assemble(u, spacing, p, res.delta, faces=res.faces,
                                shift=shift)
                step = _try_solve(jac, -res.r.ravel(), factor)
            pinned = None
            if step is not None:
                accepted = _backtrack(u, step.reshape(inner_shape), interior,
                                      residual, res.norm)
        if accepted is None:
            # no step lowers the residual: accept u if the residual is at the
            # rounding level of evaluating the operator at u
            floor = _rounding_floor(jac, u[interior])
            if res.norm <= floor:
                return u, res
            raise SolveFailure(
                f"p-Laplacian solve stalled at residual {res.norm:.3e} above "
                f"the rounding floor {floor:.3e} (p={p})", history)
        ratio = accepted[1].norm / res.norm
        u, res, alpha = accepted
        history.append(res.norm)
        if trace is not None:
            trace.append((len(history), res.norm, alpha))
        log.debug("p=%.3g iter=%d residual=%.3e damping=%.3g",
                  p, len(history), res.norm, alpha)
    if res.norm <= res.tol:
        return u, res
    raise SolveFailure(
        f"no convergence in {NEWTON_MAX_ITER} iterations "
        f"(residual {res.norm:.3e}, p={p})", history)


def _backtrack(u, direction, interior, residual, rn):
    """Halve the step, from the full step, until the residual drops below
    ``rn``, the norm at u, or meets its stop: (candidate, its _Residual,
    alpha), or None if it never does."""
    alpha = 1.0
    while alpha > 1.0e-8:
        cand = u.copy()
        cand[interior] += alpha * direction
        res = residual(cand)
        if res.norm <= res.tol or res.norm < rn * (1.0 - 1.0e-4 * alpha):
            return cand, res, alpha
        alpha /= 2.0
    return None


def _reaction_slope(values, coeff, q):
    """F'(u) = (q-1) coeff u^(q-2) of the reaction F(u) = coeff u^(q-1)
    where u > 0, and 0 where u <= 0, where F is flat (and, for q < 2, its
    slope at 0 infinite): the diagonal shift of the Jacobian of
    -Lap_p u - F(u)."""
    slope = np.power(values, q - 2.0, out=np.zeros_like(values),
                     where=values > 0.0)
    slope *= (q - 1.0) * coeff
    return slope


def _rounding_floor(jac, u_interior):
    """ROUNDING_ULPS * eps * max(|J| |u|): the rounding level of evaluating
    the operator at u, for the Jacobian ``jac`` assembled at u and the
    interior nodal values ``u_interior``.

    It reads ``jac.coef``, which no factor overwrites: row node r meets
    column node r + offsets[q] through coef[q] there, and u is zero on the
    boundary.
    """
    shape = jac.coef.shape[1:]
    au = np.zeros(shape)
    au[(slice(1, -1),) * len(shape)] = np.abs(u_interior)
    weighted = np.abs(jac.coef) * au
    ju = sum(w[tuple(slice(1 + o, n - 1 + o) for o, n in zip(offset, shape))]
             for w, offset in zip(weighted, _stencil(shape)[0]))
    return ROUNDING_ULPS * np.finfo(float).eps * float(np.max(ju))


# --------------------------------------------------------------------------
# Empirical gradient constant


@dataclass(frozen=True)
class GradConstantEstimate:
    """Empirical constant for ||grad u||_inf <= khat ||g||_inf^(1/(p-1)).

    khat is 1.1 times the largest observed ratio over the probe family;
    worst_probe names the maximizer, ratios maps each probe label to its
    observed ratio.
    """

    khat: float
    probe_count: int
    worst_probe: str
    ratios: dict = dataclass_field(default_factory=dict)


def default_probes(grid: Grid, extra=None) -> list:
    """Standard probe family: constant one and seeded +-1 checkerboards,
    plus any (label, field) pairs in ``extra``.

    There is no point-load probe.  A one-node bump has sup 1 but mass h^d,
    so its gradient shrinks with h: in 1D its discrete flux is exactly h/2
    on each side of the peak, a ratio of (h/2)^(1/(p-1)) (on 9 nodes of the
    unit interval 0.0625 at p = 2 and (1/16)^(1/3) = 0.397 at p = 4)
    against about (L/2)^(1/(p-1)) for const1.  In 2D its ratio was at most
    0.44 of the best other probe's (p = 8 on 9x9 and 17x17).  It cannot set
    khat as the grid refines.
    """
    probes = [("const1", ScalarField(grid, np.ones(grid.shape)))]
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        probes.append((f"checker{seed}",
                       ScalarField(grid, rng.choice([-1.0, 1.0], size=grid.shape))))
    if extra:
        probes.extend(extra)
    return probes


def estimate_grad_constant(grid: Grid, p: float, probes=None,
                           opts: SolveOptions | None = None,
                           solved: dict | None = None) -> GradConstantEstimate:
    """Estimate the gradient constant by solving the probe family.

    The default family leaves out point loads, whose ratio falls with h
    (see default_probes), so it solves only loads that can set khat.  A
    khat set too low cannot certify a wrong result: assert_gradient_bound
    checks every later solve and raises StaleGradConstantError.

    Args:
        probes: (label, ScalarField) pairs; None means default_probes(grid).
        solved: optional map of earlier cold solves (see _cold_solve); a
            probe solved there on this grid with this p and opts is not
            solved again, and each new solution is added.

    Raises:
        EstimateFailure: when any probe solve fails (names the probe).
        ConfigurationError: empty probe list or an identically-zero probe.
    """
    if probes is None:
        probes = default_probes(grid)
    if not probes:
        raise ConfigurationError("need at least one probe field")

    ratios = {}
    for label, field in probes:
        gsup = sup_norm(field)
        if gsup == 0.0:
            raise ConfigurationError(f"probe '{label}' is identically zero")
        try:
            u = _cold_solve(grid, p, field, opts, solved)
        except SolveFailure as exc:
            raise EstimateFailure(f"probe '{label}' did not converge: {exc}",
                                  probe=label) from exc
        ratios[label] = sup_norm(gradient(u)) / gsup ** (1.0 / (p - 1.0))
    worst = max(ratios, key=ratios.get)
    return GradConstantEstimate(khat=1.1 * ratios[worst],
                                probe_count=len(probes),
                                worst_probe=worst,
                                ratios=ratios)


def assert_gradient_bound(khat: float, u: ScalarField, gsup: float, p: float,
                          context: str = "", grad=None) -> None:
    """Enforce ||grad u||_inf <= khat ||g||_inf^(1/(p-1)) for a later solve
    u of -Lap_p u = g, given ``gsup`` = ||g||_inf, which the caller holds;
    ``grad`` is gradient(u), if held.

    A violation means the empirical constant is stale for this problem family
    and the run must not be trusted; fails loudly rather than silently.
    """
    if gsup == 0.0:
        return
    observed = sup_norm(gradient(u) if grad is None else grad)
    bound = khat * gsup ** (1.0 / (p - 1.0))
    if observed > bound * (1.0 + 1.0e-12):
        where = f" ({context})" if context else ""
        raise StaleGradConstantError(
            f"gradient bound violated{where}: ||grad u|| = {observed:.6g} "
            f"> khat * ||g||^(1/(p-1)) = {bound:.6g}; "
            "re-estimate the gradient constant")
