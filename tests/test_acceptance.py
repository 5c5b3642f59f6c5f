"""Acceptance suite.

One test per shipping criterion.  Each records its verdict with the
conftest registry, and the terminal-summary hook prints a single

    ACCEPTANCE Cn PASS | FAIL

line per criterion at the end of the run, visible in any pytest log
regardless of capture settings.  Tolerances here are the contract; do not
loosen them to make a failing build green.

C1  torsion solver reproduces the 1D closed form (1 percent, < 5 s/case)
C2  first eigenvalue reproduces the 1D closed form and the weight scaling law
C3  gradient-constant lemma: solver homogeneity, 1D ratio bound, runtime check
C4  region classification agrees with an independent barrier-minimum oracle
C5  certified existence run on the bundled sub-growth problem at (1, 1)
C6  region gate admits a mid-region point and rejects before any solve outside
C7  uniqueness surrogate: two-sided gap, Picone integral, nodal Picone sign
C8  gradient-free nonlinearity freezes the outer map after one step
C9  parameter sweeps are byte-identical under thread parallelism
"""

import contextlib
import dataclasses
import math
import time

import numpy as np
import pytest

import conftest
import oracles
from plaplab.cli import SweepResult, main as cli_main
from plaplab.constants import (
    barrier_value,
    compute_constants,
    region_classify,
    super_threshold,
)
from plaplab.expr import ProblemSpec, bundled_problem_path, load_problem, sample_weights
from plaplab.grid import ScalarField, build_grid, integrate, sup_norm
from plaplab.errors import OutOfRegionError
from plaplab.plap import (
    SolveOptions,
    assert_gradient_bound,
    estimate_grad_constant,
    operator_value,
    solve_plap_dirichlet,
)
from plaplab import scheme
from plaplab.scheme import (
    freeze_nonlinearity,
    inner_monotone_solve,
    natural_residual_scale,
    outer_fixed_point,
)
from plaplab.spectral import first_eigenpair, torsion_function


@contextlib.contextmanager
def criterion(cid):
    """Record the verdict for one criterion, re-raising on failure."""
    try:
        yield
    except BaseException:
        conftest.ACCEPTANCE_VERDICTS.append((cid, False))
        raise
    conftest.ACCEPTANCE_VERDICTS.append((cid, True))


def unit_field(grid):
    return ScalarField(grid, np.ones(tuple(len(grid.axis(k))
                                           for k in range(grid.dimension))))


def load_at(name, n=None):
    spec = load_problem(bundled_problem_path(name))
    if n is not None:
        spec = dataclasses.replace(spec, resolution=n)
    return spec


def barriers(grid, report, bundle, eigen, p):
    """The OperatorValues of a run's lower and upper barrier at p."""
    sub = ScalarField(grid, report.epsilon * eigen.u1.values)
    scale = report.height / bundle.phi_sup
    sup_field = ScalarField(grid, scale * bundle.weighted_torsion.phi.values)
    return operator_value(sub, p), operator_value(sup_field, p)


def test_c1_torsion_matches_closed_form():
    with criterion("C1"):
        for p in (1.5, 2.0, 3.0):
            for length in (1.0, 2.0):
                grid = build_grid([(0.0, length)], (257,))
                start = time.perf_counter()
                result = torsion_function(grid, p, unit_field(grid))
                elapsed = time.perf_counter() - start
                exact = oracles.torsion_sup_1d(p, length)
                assert abs(result.phi_sup - exact) <= 0.01 * exact, (p, length)
                assert elapsed < 5.0, (p, length, elapsed)


def test_c2_eigenvalue_matches_closed_form_and_scaling_law():
    with criterion("C2"):
        for p in (1.5, 2.0, 3.0):
            grid = build_grid([(0.0, 1.0)], (257,))
            pair = first_eigenpair(grid, p, unit_field(grid))
            exact = oracles.lambda1_1d(p, 1.0)
            assert abs(pair.lambda1 - exact) <= 0.01 * exact, p
            assert abs(sup_norm(pair.u1) - 1.0) <= 1e-12
        grid = build_grid([(0.0, 1.0)], (129,))
        profile = 1.0 + 0.3 * np.sin(3.0 * grid.axis(0))
        ref = first_eigenpair(grid, 2.5, ScalarField(grid, profile))
        for t in (0.5, 2.0, 4.0):
            scaled = first_eigenpair(grid, 2.5, ScalarField(grid, t * profile))
            target = ref.lambda1 / t
            assert abs(scaled.lambda1 - target) <= 1e-6 * target, t


def test_c3_gradient_constant_lemma():
    with criterion("C3"):
        tight = SolveOptions(tol_residual=1.0e-10)
        # homogeneity: u(t g) = t^(1/(p-1)) u(g) for the discrete operator
        for p in (1.5, 2.5):
            grid = build_grid([(0.0, 1.0)], (129,))
            x = grid.axis(0)
            g = ScalarField(grid, 1.0 + x * (1.0 - x))
            u = solve_plap_dirichlet(grid, p, g, tight)
            for t in (0.5, 2.0, 8.0):
                ut = solve_plap_dirichlet(
                    grid, p, ScalarField(grid, t * g.values), tight)
                factor = t ** (1.0 / (p - 1.0))
                gap = float(np.max(np.abs(ut.values - factor * u.values)))
                assert gap <= 1e-6 * factor * sup_norm(u), (p, t, gap)
        # observed 1D probe ratios stay below the interval length
        for length in (1.0, 2.0):
            grid = build_grid([(0.0, length)], (129,))
            est = estimate_grad_constant(grid, 2.5, opts=tight)
            assert max(est.ratios.values()) <= length + 1e-12, length
        # the stored constant keeps working for a later, unrelated solve
        grid = build_grid([(0.0, 1.0)], (129,))
        est = estimate_grad_constant(grid, 2.5)
        g = ScalarField(grid, np.full(129, 3.0))
        u = solve_plap_dirichlet(grid, 2.5, g)
        assert_gradient_bound(est.khat, u, sup_norm(g), 2.5,
                              context="acceptance")


def test_c4_region_threshold_against_independent_oracle():
    with criterion("C4"):
        spec = load_at("super", 17)
        bundle = compute_constants(spec)
        # unit-coefficient threshold has a pencil-and-paper value
        unit = dataclasses.replace(bundle, coeff_sub=1.0, coeff_grad=1.0)
        k_unit = super_threshold(unit, spec)
        assert abs(k_unit - math.sqrt(0.5) / 1.5 ** 1.5) <= 1e-12
        # verdicts match the barrier-minimum oracle on random points
        rng = np.random.default_rng(20240817)
        checked = 0
        for _ in range(500):
            lam, beta = (float(v) for v in 10.0 ** rng.uniform(-3.0, 3.0, 2))
            value, _ = oracles.barrier_min(
                lam, beta, bundle.coeff_sub, bundle.coeff_grad,
                spec.p, spec.q, spec.r)
            if abs(value - 1.0) <= 1e-9:
                continue  # on the frontier to oracle precision; skip
            checked += 1
            verdict = region_classify(lam, beta, bundle, spec)
            assert verdict.in_region == (value <= 1.0), (lam, beta, value)
            if verdict.in_region:
                phi_at_height = barrier_value(
                    verdict.height, lam, beta, bundle, spec)
                assert phi_at_height <= 1.0 + 1e-9, (lam, beta)
        assert checked >= 400
        # critical-case height has a closed form with unit coefficients
        cspec = load_at("critical", 17)
        cbundle = dataclasses.replace(compute_constants(cspec),
                                      coeff_sub=1.0, coeff_grad=1.0)
        verdict = region_classify(1.0, 0.5, cbundle, cspec)
        assert verdict.in_region and verdict.height == 4.0
        assert not region_classify(1.0, 1.0, cbundle, cspec).in_region


def test_c5_certified_existence_run_sub_growth():
    with criterion("C5"):
        spec = load_at("sub")  # ships at resolution 129
        start = time.perf_counter()
        report = outer_fixed_point(spec, 1.0, 1.0)
        elapsed = time.perf_counter() - start
        assert report.converged
        assert report.outer_iters <= 50
        certs = report.certificates
        assert certs.all_ok
        assert certs.pde_residual <= 1e-5 * certs.residual_scale
        assert elapsed < 60.0, elapsed


def test_c6_region_gate_blocks_before_any_solve(monkeypatch):
    with criterion("C6"):
        spec = load_at("super", 33)
        bundle = compute_constants(spec)
        k = super_threshold(bundle, spec)
        lam = 0.5
        exponent = 1.0 / (spec.p - spec.q)
        beta_in = (0.5 * k / lam ** (spec.r - spec.p)) ** exponent
        beta_out = (2.0 * k / lam ** (spec.r - spec.p)) ** exponent
        report = outer_fixed_point(spec, lam, beta_in, constants=bundle)
        assert report.converged and report.certificates.all_ok
        # outside the region nothing downstream may run; the eigen solve is
        # the first thing the pipeline would otherwise do
        def trap(*args, **kwargs):
            raise AssertionError("solve attempted for an out-of-region point")
        monkeypatch.setattr(scheme, "first_eigenpair", trap)
        with pytest.raises(OutOfRegionError):
            outer_fixed_point(spec, lam, beta_out, constants=bundle)


def _uniqueness_point(name):
    if name == "super":
        spec = load_at("super", 65)
        bundle = compute_constants(spec)
        k = super_threshold(bundle, spec)
        lam = 0.5
        beta = (0.5 * k / lam ** (spec.r - spec.p)) ** (1.0 / (spec.p - spec.q))
        return spec, lam, beta
    n = None if name == "square2d" else 65
    return load_at(name, n), 1.0, 1.0


@pytest.mark.parametrize(
    "name", ["sub", "super", "critical", "degenerate", "square2d"])
def test_c7_uniqueness_surrogate(name):
    with criterion(f"C7[{name}]"):
        spec, lam, beta = _uniqueness_point(name)
        grid = spec.build_grid()
        bundle = compute_constants(spec, grid)
        weights = sample_weights(spec, grid)
        eigen = first_eigenpair(grid, spec.p, weights[0])
        report = outer_fixed_point(spec, lam, beta, grid=grid,
                                   constants=bundle, eigen=eigen)
        assert report.converged
        height = report.height
        certs = report.certificates
        assert certs.two_sided_gap <= 1e-6 * height
        volume = integrate(unit_field(grid))
        scale = natural_residual_scale(lam, beta, bundle, spec, height)
        assert certs.picone_gap <= 1e-8 * scale * height * volume
        # recompute the Picone integrand nodewise: it must be nonpositive
        sub, sup_field = barriers(grid, report, bundle, eigen, spec.p)
        frozen = freeze_nonlinearity(report.solution, lam, beta, spec)
        upper = inner_monotone_solve(frozen, sub, sup_field, start="super",
                                     khat=bundle.khat).field
        lower = inner_monotone_solve(frozen, sub, sup_field, start="sub",
                                     khat=bundle.khat).field
        interior = grid.interior
        p = spec.p
        u_vals = upper.values[interior]
        v_vals = lower.values[interior]
        density_gap = (frozen.evaluate(upper.values)[interior] / u_vals ** (p - 1.0)
                       - frozen.evaluate(lower.values)[interior] / v_vals ** (p - 1.0))
        integrand = density_gap * (u_vals ** p - v_vals ** p)
        assert float(np.max(integrand)) <= 1e-12, name


def test_c8_gradient_free_nonlinearity_freezes_after_one_step():
    with criterion("C8"):
        spec = load_at("degenerate", 65)
        grid = spec.build_grid()
        bundle = compute_constants(spec, grid)
        weights = sample_weights(spec, grid)
        eigen = first_eigenpair(grid, spec.p, weights[0])
        report = outer_fixed_point(spec, 1.0, 1.0, grid=grid,
                                   constants=bundle, eigen=eigen)
        assert report.converged
        assert report.outer_iters == 2
        assert report.outer_trace[1] == 0.0
        # with h proportional to the frozen growth and f absent, the frozen
        # map never changes, so a single direct inner solve gives the limit
        sub, sup_field = barriers(grid, report, bundle, eigen, spec.p)
        frozen = freeze_nonlinearity(sub.field, 1.0, 1.0, spec)
        direct = inner_monotone_solve(frozen, sub, sup_field, start="super",
                                      khat=bundle.khat).field
        gap = float(np.max(np.abs(direct.values - report.solution.values)))
        assert gap <= 1e-6 * report.height


def test_c9_sweep_deterministic_under_parallelism(tmp_path):
    with criterion("C9"):
        base = ["sweep", "--spec", str(bundled_problem_path("sub")),
                "--n", "33", "--lambda-range", "0.5:1.5",
                "--beta-range", "0.5:1.5", "--samples", "3"]
        serial = tmp_path / "serial.csv"
        pooled = tmp_path / "pooled.csv"
        assert cli_main(base + ["--parallel", "1", "--out", str(serial)]) == 0
        assert cli_main(base + ["--parallel", "8", "--out", str(pooled)]) == 0
        assert serial.read_bytes() == pooled.read_bytes()
        rows = SweepResult.read(serial).rows
        assert len(rows) == 9
        assert all(row.status == "converged" for row in rows)
