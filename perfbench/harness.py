"""Workloads, correctness gate and metrics of the plaplab benchmark.

The harness drives plaplab only through the calls ``plaplab sweep`` makes:
``load_problem``, ``validate_hypotheses``, ``compute_constants`` and
``first_eigenpair`` once (the set-up), then ``region_classify`` and
``outer_fixed_point`` per (lambda, beta) point, serially, sharing the
constants and the eigenpair.  Every result is re-checked from outside
against reference values kept in ``reference.json``; a failed check makes
the run incorrect, never slower.  Untraced runs report their times in
reference seconds, corrected for the speed of the host (``hostclock.py``).

Workloads (inputs depend only on the seed):

* ``sweep1d`` -- bundled ``sub`` at n=2049: 1D solves, dominated by per-call
  Python and scipy.sparse overhead rather than by fill;
* ``sweep2d`` -- bundled ``square2d`` at 33x33: warm-started 2D Newton
  solves, dominated by sparse LU and COO re-assembly.  Its corners include
  the in-region point (2, 0.1) that the stopping rule leaves inconclusive;
* ``cold2d`` -- set-up only, on ``square2d`` at 65x65 with (p, q) = (1.5,
  1.2) and (4, 1.5): cold solves with p-continuation and large
  factorizations, and no inner iteration.

Sweep points are the four corners of the CLI default ranges 0.1:2.0 (the
``sweep --samples 2`` lattice) followed by points drawn uniformly from those
ranges with ``numpy.random.default_rng(seed)``.
"""

from __future__ import annotations

import collections
import dataclasses
import itertools
import json
import resource
import statistics
import time
import types
from pathlib import Path

import numpy as np

import plaplab as pl
from plaplab import expr as pl_expr
from plaplab import scheme as pl_scheme

import hostclock
import tracer as tr

RANGE = (0.1, 2.0)  # CLI default --lambda-range and --beta-range
CORNERS = tuple((lam, beta) for lam in RANGE for beta in RANGE)
MAX_OUTER = 50  # CLI default --max-outer

# Correctness tolerances, fixed here so that the gate does not move with the
# package's own constants.
RESIDUAL_CERT = 1.0e-5  # certified PDE residual, in units of residual_scale
HEIGHT_SLACK = 1.0e-6  # u <= M (1 + slack)
REFERENCE_RTOL = 1.0e-6  # constants, eigenvalue and M against reference.json
CLOSED_FORM_RTOL = 1.0e-2  # unit torsion sup against the 1D closed form
REPORTED_RTOL = 1.0e-9  # recomputed residual against the reported one
TORSION_RESIDUAL = 1.01e-8  # torsion residual, in units of max(1, |omega|)
EIGEN_RESIDUAL = 1.0e-5  # eigen residual, in units of lambda1 * |omega1|

# Set-ups per unit of work in untraced sweep runs: the pass uses the last
# one, and setup_s is the median of all of them.
SWEEP_SETUPS = 3

REFERENCE_PATH = Path(__file__).with_name("reference.json")
CONSTANT_KEYS = ("phi_sup", "khat", "omega_sup", "gamma", "coeff_sub",
                 "coeff_grad", "unit_torsion_sup")

# End-to-end metrics with their units.
END_TO_END = (("setup_s", "s"), ("sweep_s", "s"), ("point_s_p50", "s"),
              ("certified_per_s", "1/s"), ("peak_rss_mb", "MB"))


@dataclasses.dataclass(frozen=True)
class Workload:
    problem: str
    resolution: tuple
    smoke_resolution: tuple
    seeded_points: int = 0
    exponents: tuple = ()  # (p, q) per cold set-up case; empty for sweeps
    min_units: int = 2  # units of work per run, at least


WORKLOADS = {
    "sweep1d": Workload("sub", (2049,), (33,), seeded_points=12),
    "sweep2d": Workload("square2d", (33, 33), (9, 9), seeded_points=1),
    "cold2d": Workload("square2d", (65, 65), (9, 9),
                       exponents=((1.5, 1.2), (4.0, 1.5)), min_units=1),
}


@dataclasses.dataclass(frozen=True)
class Case:
    """One problem instance: bundled problem, resolution, optional (p, q)."""

    problem: str
    resolution: tuple
    exponents: tuple | None = None

    @property
    def key(self):
        key = f"{self.problem}/{'x'.join(map(str, self.resolution))}"
        if self.exponents:
            key += "/p{}-q{}".format(*self.exponents)
        return key


def workload_cases(name, smoke=False):
    wl = WORKLOADS[name]
    res = wl.smoke_resolution if smoke else wl.resolution
    if wl.exponents:
        return [Case(wl.problem, res, pq) for pq in wl.exponents]
    return [Case(wl.problem, res)]


def sweep_points(seed, count):
    """Range corners, then ``count`` points drawn from the seed."""
    rng = np.random.default_rng(seed)
    drawn = rng.uniform(RANGE[0], RANGE[1], size=(count, 2))
    return list(CORNERS) + [(float(lam), float(beta)) for lam, beta in drawn]


# --------------------------------------------------------------------------
# the calls plaplab sweep makes


@dataclasses.dataclass
class SetUp:
    case: Case
    spec: object
    grid: object
    opts: object
    constants: object
    eigen: object
    start: float
    seconds: float


def set_up(case):
    """Load, validate, constants and eigenpair, timed as a user pays them."""
    pl_expr.sample_weights.cache_clear()  # every user run samples afresh
    start = time.perf_counter()
    spec = pl.load_problem(pl.bundled_problem_path(case.problem))
    changes = {"resolution": case.resolution}
    if case.exponents:
        changes.update(p=case.exponents[0], q=case.exponents[1])
    spec = dataclasses.replace(spec, **changes)
    check = pl.validate_hypotheses(spec)
    if not check.passed:
        raise pl.HypothesisViolationError(
            f"{case.key} fails the growth hypotheses: {check.summary()}")
    grid = spec.build_grid()
    opts = pl.SolveOptions()
    constants = pl.compute_constants(spec, grid, opts)
    eigen = pl.first_eigenpair(grid, spec.p, pl.sample_weights(spec, grid)[0],
                               opts)
    return SetUp(case, spec, grid, opts, constants, eigen, start,
                 time.perf_counter() - start)


POINT_FIELDS = ("lambda", "beta", "status", "converged", "outer_iters",
                "pde_residual", "seconds")


@dataclasses.dataclass
class Point:
    lam: float
    beta: float
    in_region: bool
    status: str
    report: object
    start: float
    seconds: float

    def row(self):
        """The columns ``plaplab sweep`` writes for its outcome."""
        r = self.report
        return (self.status, r is not None and r.converged,
                None if r is None else r.outer_iters,
                None if r is None else r.certificates.pde_residual)


def run_point(s, lam, beta):
    """One sweep point, with the CLI's mapping of outcomes to status."""
    start = time.perf_counter()
    verdict = pl.region_classify(lam, beta, s.constants, s.spec)
    report = None
    try:
        report = pl.outer_fixed_point(s.spec, lam, beta, s.grid, s.constants,
                                      s.eigen, s.opts, MAX_OUTER)
        status = "converged" if report.converged else "inconclusive"
    except pl.OutOfRegionError:
        status = "out_of_region"
    except pl.PlapLabError as exc:
        status = f"failed:{type(exc).__name__}"
    return Point(lam, beta, verdict.in_region, status, report, start,
                 time.perf_counter() - start)


# --------------------------------------------------------------------------
# correctness gate


def load_reference():
    return json.loads(REFERENCE_PATH.read_text())


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1.0e-300)


def setup_errors(s, ref):
    """Set-up results against the reference, plus residuals from outside."""
    errors = []
    want = ref.get(s.case.key)
    if want is None:
        return [f"{s.case.key}: no reference values"]
    c, spec, grid = s.constants, s.spec, s.grid
    got = {k: getattr(c, k) for k in CONSTANT_KEYS}
    got["lambda1"] = s.eigen.lambda1
    for key, value in got.items():
        if _rel(value, want[key]) > REFERENCE_RTOL:
            errors.append(f"{s.case.key}: {key} = {value!r}, "
                          f"reference {want[key]!r}")

    w1, w2, w3 = pl.sample_weights(spec, grid)
    omega = np.maximum(np.maximum(w1.values, w2.values), w3.values)
    phi = c.weighted_torsion.phi
    torsion_res = np.max(np.abs(
        pl.p_laplacian_apply(phi, spec.p).values - omega)[grid.interior])
    allowed = TORSION_RESIDUAL * max(1.0, float(np.max(omega)))
    if not torsion_res <= allowed:
        errors.append(f"{s.case.key}: torsion residual {torsion_res:.3e} "
                      f"> {allowed:.3e}")

    u1, lam1 = s.eigen.u1, s.eigen.lambda1
    eig_res = np.max(np.abs(
        pl.p_laplacian_apply(u1, spec.p).values
        - lam1 * w1.values * u1.values ** (spec.p - 1.0))[grid.interior])
    allowed = EIGEN_RESIDUAL * lam1 * float(np.max(w1.values))
    if not eig_res <= allowed:
        errors.append(f"{s.case.key}: eigen residual {eig_res:.3e} "
                      f"> {allowed:.3e}")

    if grid.dimension == 1:
        (lo, hi), p = grid.extents[0], spec.p
        closed = (p - 1.0) / p * ((hi - lo) / 2.0) ** (p / (p - 1.0))
        if _rel(c.unit_torsion_sup, closed) > CLOSED_FORM_RTOL:
            errors.append(f"{s.case.key}: unit torsion sup "
                          f"{c.unit_torsion_sup!r}, closed form {closed!r}")
    return errors


def point_errors(s, ref, pt):
    """A point's report against the reference and a residual recomputed
    from the raw expressions with ``p_laplacian_apply``."""
    r = pt.report
    if r is None:
        return []
    where = f"{s.case.key} ({pt.lam!r}, {pt.beta!r})"
    want = types.SimpleNamespace(**ref[s.case.key])
    spec, grid = s.spec, s.grid
    height = pl.barrier_height(pt.lam, pt.beta, want, spec)
    errors = []
    if _rel(r.height, height) > REFERENCE_RTOL:
        errors.append(f"{where}: M = {r.height!r}, reference {height!r}")

    u = r.solution
    uv = np.maximum(u.values, 0.0)
    gn = pl.gradient(u).magnitude().values
    bind = spec.coordinate_bindings(grid)
    rhs = (pt.lam * np.broadcast_to(
        pl.evaluate_on(spec.h, {**bind, "u": uv}), grid.shape)
        + pt.beta * np.broadcast_to(
            pl.evaluate_on(spec.f, {**bind, "u": uv, "gnorm": gn}),
            grid.shape))
    residual = float(np.max(np.abs(
        pl.p_laplacian_apply(u, spec.p).values - rhs)[grid.interior]))
    cert = r.certificates
    if _rel(cert.pde_residual, residual) > REPORTED_RTOL:
        errors.append(f"{where}: reported residual {cert.pde_residual!r}, "
                      f"recomputed {residual!r}")
    if r.converged:
        scale = pl_scheme.natural_residual_scale(pt.lam, pt.beta, want, spec,
                                                 height)
        if not cert.all_ok:
            errors.append(f"{where}: converged without every certificate")
        if not residual <= RESIDUAL_CERT * scale:
            errors.append(f"{where}: residual {residual:.3e} > "
                          f"{RESIDUAL_CERT * scale:.3e}")
        if not (np.min(u.values) >= 0.0
                and np.max(u.values) <= height * (1.0 + HEIGHT_SLACK)):
            errors.append(f"{where}: solution outside [0, M]")
    return errors


def same_report(a, b):
    """Bit-identical SolveReports (solution values compared as bytes)."""
    return (a.converged == b.converged and a.outer_iters == b.outer_iters
            and a.outer_trace == b.outer_trace
            and a.certificates == b.certificates and a.epsilon == b.epsilon
            and a.height == b.height and a.region == b.region
            and a.solution.values.tobytes() == b.solution.values.tobytes())


# --------------------------------------------------------------------------
# runs


# When a set-up ran, without its results, which a run need not keep alive.
Timed = collections.namedtuple("Timed", "start seconds")


class Run:
    """Accumulates set-ups, points and gate errors of one benchmark run, and
    the host clock that turns their wall times into reference seconds while
    it is entered."""

    def __init__(self):
        self.ref = load_reference()
        self.clock = hostclock.HostClock()
        self.errors = []
        self.setups = []  # Timed per completed set-up
        self.pairs = []  # per cold2d pass, the Timed of its set-ups
        self.setups_ok = 0
        self.setups_failed = 0
        self.passes = []  # [Point] per sweep pass

    def setup(self, case, tracer=None, root_id=None):
        if tracer is None:
            s = set_up(case)
        else:
            with tracer.root("bench.setup", root_id):
                s = set_up(case)
        self.setups.append(Timed(s.start, s.seconds))
        errors = setup_errors(s, self.ref)
        self.errors += errors
        self.setups_ok += not errors
        return s

    def cold_pass(self, cases, tracer=None):
        done = []
        for k, case in enumerate(cases):
            try:
                self.setup(case, tracer, f"setup:{k}")
                done.append(self.setups[-1])
            except pl.PlapLabError as exc:
                self.setups_failed += 1
                self.errors.append(f"{case.key}: set-up failed: {exc!r}")
        self.pairs.append(done)
        return done

    def sweep_pass(self, s, points, tracer=None):
        done = []
        for k, (lam, beta) in enumerate(points):
            if tracer is None:
                done.append(run_point(s, lam, beta))
            else:
                with tracer.root("bench.point", f"point:{k}"):
                    done.append(run_point(s, lam, beta))
        self.passes.append(done)
        for pt in done:
            self.errors += point_errors(s, self.ref, pt)
        return done

    def total_seconds(self, timed, wall=False):
        """Summed time of set-ups or points, in reference seconds, or in
        wall seconds less the calibration kernels if ``wall``."""
        return sum(self.clock.seconds(t.start, t.start + t.seconds)[not wall]
                   for t in timed)

    # ---- summaries

    def points(self):
        return [pt for pts in self.passes for pt in pts]

    def attempted_failed(self):
        if not self.passes:
            failed = self.setups_failed
            return len(self.setups) + failed, failed
        pts = self.points()
        return len(pts), sum(pt.status.startswith("failed:") for pt in pts)

    def fail_frac(self):
        if not self.passes:
            attempted, failed = self.attempted_failed()
            return failed / attempted
        inside = [pt for pt in self.points() if pt.in_region]
        bad = sum(pt.status != "converged" for pt in inside)
        return bad / max(len(inside), 1)

    def end_to_end(self, wall=False):
        def each(timed):
            return [self.total_seconds([t], wall) for t in timed]

        if self.passes:
            pts = self.points()
            corners = [pt for pt in pts if (pt.lam, pt.beta) in CORNERS]
            values = {
                "setup_s": statistics.median(each(self.setups)),
                "sweep_s": statistics.median(
                    self.total_seconds(done, wall) for done in self.passes),
                "point_s_p50": statistics.median(each(pts)),
                "certified_per_s": (
                    sum(pt.status == "converged" for pt in corners)
                    / self.total_seconds(corners, wall)),
            }
        else:
            pairs = [self.total_seconds(done, wall) for done in self.pairs]
            values = {
                "setup_s": statistics.median(pairs),
                "sweep_s": statistics.median(pairs),
                "point_s_p50": statistics.median(each(self.setups)),
                "certified_per_s": (self.setups_ok
                                    / self.total_seconds(self.setups, wall)),
            }
        values["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        return {name: {"value": values[name], "unit": unit}
                for name, unit in END_TO_END}


def run_workload(name, seed, seconds, trace=False, smoke=False):
    """Run one workload; returns the result record (see ``run.py``)."""
    wl = WORKLOADS[name]
    cases = workload_cases(name, smoke)
    # smoke runs keep one drawn point, so that the seed still matters
    points = sweep_points(seed, min(wl.seeded_points, 1) if smoke
                          else wl.seeded_points)
    run = Run()
    if trace:
        metrics, extra = _traced_run(run, wl, cases, points)
    else:
        start = time.perf_counter()
        with run.clock:
            for units in itertools.count(1):
                _unit(run, wl, cases, points, setups=SWEEP_SETUPS)
                if (units >= wl.min_units
                        and time.perf_counter() - start >= seconds):
                    break
        metrics = run.end_to_end()
        extra = {"wall_metrics": run.end_to_end(wall=True)}
    attempted, failed = run.attempted_failed()
    return {
        "correct": not run.errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "errors": run.errors,
        "fail_frac": run.fail_frac(),
        "setup_times": [s.seconds for s in run.setups],
        "points": [dict(zip(POINT_FIELDS, (pt.lam, pt.beta, *pt.row(),
                                           pt.seconds)))
                   for pt in run.points()],
        "calibration": run.clock.summary() if not trace else None,
        **extra,
    }


def _unit(run, wl, cases, points, tracer=None, setups=1):
    """One unit of work: a set-up and one pass over the points, as one
    ``plaplab sweep`` invocation does, or cold2d's pair of set-ups.  On the
    sweeps the set-up is done ``setups`` times and the pass uses the last.
    Returns its timed set-ups and points, and its points."""
    if wl.exponents:
        return run.cold_pass(cases, tracer), []
    done = [run.setup(cases[0], tracer, f"setup:{k}") for k in range(setups)]
    pts = run.sweep_pass(done[-1], points, tracer)
    return [*done, *pts], pts


def _traced_run(run, wl, cases, points):
    """Untraced, traced, untraced again.  Per-layer metrics come from the
    traced unit of work, its overhead is taken against the mean of the two
    untraced ones, and its reports must equal the untraced reports."""
    tracer = tr.Tracer()
    first, plain_pts = _unit(run, wl, cases, points)
    with tr.patched(tracer):
        traced, traced_pts = _unit(run, wl, cases, points, tracer)
    second, _ = _unit(run, wl, cases, points)
    # wall times: the host clock would put its kernels into the spans
    first, traced, second = (sum(t.seconds for t in timed)
                             for timed in (first, traced, second))
    for a, b in zip(plain_pts, traced_pts):
        if a.status != b.status or (
                a.report is not None and not same_report(a.report, b.report)):
            run.errors.append(
                f"traced result differs at ({a.lam!r}, {a.beta!r})")
    outer_iters = sum(pt.report.outer_iters for pt in traced_pts
                      if pt.report is not None)
    run.passes = run.passes[1:2]  # failure counts from the traced pass
    values = tr.layer_metrics(tracer, outer_iters)
    values["trace_overhead_frac"] = 2.0 * traced / (first + second) - 1.0
    values["fail_frac"] = run.fail_frac()
    units = dict(tr.LAYER_METRICS, trace_overhead_frac=tr.RATIO,
                 fail_frac=tr.RATIO)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    return metrics, {"spans": [s.as_row() for s in tracer.spans]}
