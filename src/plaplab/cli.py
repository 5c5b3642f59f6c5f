"""Command line front end: region maps, certified solves, parameter sweeps.

Subcommands
-----------
region   classify a (lambda, beta) sample grid and emit the region table
         plus, for bounded regions, the boundary polyline
solve    run the full certified pipeline at one parameter point
sweep    run the solve pipeline over a (lambda, beta) sample grid on a
         worker pool with deterministic output
eigen    print the first eigenvalue of the weighted operator
torsion  print the sup norm of the torsion function of max(omega_i)

Exit codes (total: every run terminates with one of these)
----------------------------------------------------------
0  success (for solve: converged with all certificates true)
2  usage, problem-file, expression, configuration, or hypothesis errors
3  inconclusive: the outer iteration did not certify within its budget
4  (lambda, beta) outside the existence region
5  a nonlinear solve or probe estimate failed
6  eigenpair iteration failed
7  an internal invariant was violated (monotonicity, stale gradient
   constant, barrier verification)

Output files are plain CSV with headers; floats are written with repr so a
round trip through the file reproduces each record bit for bit.  Missing
values (for example the barrier height at a point outside the region) are
empty fields.  Lines that are not CSV (the inside count of ``region``, the
timings of ``sweep --timings``) go to standard output with ``--out`` and
to standard error without it, so a CSV written to standard output parses
as CSV.  The ``PLAP_LOG`` environment variable ({error, info, debug})
controls diagnostic logging on standard error.

CSV schemas (frozen)
--------------------
region:    lambda,beta,case,in_region,margin,M
boundary:  lambda,beta
sweep:     lambda,beta,case,in_region,margin,M,status,converged,outer_iters,pde_residual
solution:  x1[,x2],u,gradnorm
field:     x1[,x2],<name>
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import logging
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .constants import (
    CRITICAL,
    SUPER,
    _check_point,
    combined_weight,
    compute_constants,
    growth_case,
    region_boundary,
    region_classify,
)
from .errors import (
    ConfigurationError,
    EigenFailure,
    EstimateFailure,
    GridMismatchError,
    HypothesisViolationError,
    InvariantViolation,
    IterationFailure,
    OutOfRegionError,
    PlapLabError,
    ProblemFileError,
    SolveFailure,
)
from .expr import (
    EvalError,
    ParseError,
    load_problem,
    sample_weights,
    validate_hypotheses,
)
from .grid import gradient
from .plap import SolveOptions
from .scheme import SolveReport, _check_outer_budget, outer_fixed_point
from .spectral import first_eigenpair, torsion_function

log = logging.getLogger(__name__)

# Node counts below this per axis are too coarse for the documented accuracy
# of the discretization; the commands still run but warn.
ACCURACY_FLOOR = 9


# ---------------------------------------------------------------------------
# formatting and CSV plumbing


def _fmt(value) -> str:
    """One frozen textual form per value kind (round-trips exactly)."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _parse_opt_float(text):
    return None if text == "" else float(text)


def _parse_opt_int(text):
    return None if text == "" else int(text)


def _parse_bool(text):
    return text == "true"


def _emit(path, header, rows):
    """Write CSV rows to ``path``, or to standard output when it is None."""
    with (contextlib.nullcontext(sys.stdout) if path is None
          else open(path, "w", newline="")) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_field(path, grid, columns):
    """Write nodal (name, values) columns after the coordinates x1, x2, ...,
    one row per node in row-major order."""
    axes = [grid.axis(d) for d in range(grid.dimension)]
    rows = [[_fmt(axis[i]) for axis, i in zip(axes, node)]
            + [_fmt(v[node]) for _, v in columns]
            for node in np.ndindex(grid.shape)]
    header = [f"x{d + 1}" for d in range(len(axes))] + [name for name, _ in columns]
    _emit(path, header, rows)


def _sibling_path(out, tag):
    root, ext = os.path.splitext(out)
    return f"{root}_{tag}{ext or '.csv'}"


# ---------------------------------------------------------------------------
# sweep records


REGION_HEADER = ["lambda", "beta", "case", "in_region", "margin", "M"]
SWEEP_HEADER = REGION_HEADER + ["status", "converged", "outer_iters",
                                "pde_residual"]


@dataclass(frozen=True)
class SweepRow:
    """One (lambda, beta) sample of a sweep, as written to CSV."""

    lam: float
    beta: float
    case: str
    in_region: bool
    margin: float
    height: float | None
    status: str
    converged: bool
    outer_iters: int | None
    pde_residual: float | None

    def to_csv(self):
        return [_fmt(self.lam), _fmt(self.beta), self.case,
                _fmt(self.in_region), _fmt(self.margin), _fmt(self.height),
                self.status, _fmt(self.converged), _fmt(self.outer_iters),
                _fmt(self.pde_residual)]

    @classmethod
    def from_csv(cls, row):
        return cls(lam=float(row[0]), beta=float(row[1]), case=row[2],
                   in_region=_parse_bool(row[3]), margin=float(row[4]),
                   height=_parse_opt_float(row[5]), status=row[6],
                   converged=_parse_bool(row[7]),
                   outer_iters=_parse_opt_int(row[8]),
                   pde_residual=_parse_opt_float(row[9]))


@dataclass(frozen=True)
class SweepResult:
    """All rows of a sweep in deterministic (lambda-major) order."""

    rows: tuple

    def write(self, path):
        _emit(path, SWEEP_HEADER, [r.to_csv() for r in self.rows])

    @classmethod
    def read(cls, path):
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if header != SWEEP_HEADER:
                raise ConfigurationError(f"not a sweep file: {path}")
            return cls(rows=tuple(SweepRow.from_csv(r) for r in reader))


# ---------------------------------------------------------------------------
# shared option handling


def _add_common(sub):
    sub.add_argument("--spec", required=True, help="problem file path")
    sub.add_argument("--n", type=int, default=None,
                     help="override the resolution (nodes per axis)")
    sub.add_argument("--tol", type=float, default=None,
                     help="residual tolerance of the nonlinear solves, "
                     "relative to the sup norm of their right-hand side")
    sub.add_argument("--out", default=None, help="output CSV path")


def _add_ranges(sub):
    sub.add_argument("--lambda-range", default="0.1:2.0", metavar="LO:HI",
                     help="lambda interval sampled (default 0.1:2.0)")
    sub.add_argument("--beta-range", default="0.1:2.0", metavar="LO:HI",
                     help="beta interval sampled (default 0.1:2.0)")
    sub.add_argument("--samples", type=int, default=8,
                     help="sample count per axis (default 8)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plaplab",
        description="Sub-supersolution laboratory for the p-Laplacian "
                    "Dirichlet problem with a gradient-dependent term.")
    subs = parser.add_subparsers(dest="command", required=True)

    region = subs.add_parser(
        "region", help="classify a (lambda, beta) sample grid")
    _add_common(region)
    _add_ranges(region)
    region.set_defaults(func=cmd_region)

    solve = subs.add_parser(
        "solve", help="run the certified pipeline at one parameter point")
    _add_common(solve)
    solve.add_argument("--lambda", dest="lam", type=float, required=True,
                       help="coefficient of the sublinear term h")
    solve.add_argument("--beta", type=float, required=True,
                       help="coefficient of the gradient term f")
    solve.add_argument("--max-outer", type=int, default=50,
                       help="outer iteration budget (default 50)")
    solve.add_argument("--trace", action="store_true",
                       help="include the outer C1 trace in the report")
    solve.set_defaults(func=cmd_solve)

    sweep = subs.add_parser(
        "sweep", help="run the pipeline over a (lambda, beta) grid")
    _add_common(sweep)
    _add_ranges(sweep)
    sweep.add_argument("--max-outer", type=int, default=50,
                       help="outer iteration budget per point (default 50)")
    sweep.add_argument("--parallel", type=int, default=1,
                       help="worker pool size (default 1)")
    sweep.add_argument("--timings", action="store_true",
                       help="print per-point wall times (never in the CSV)")
    sweep.set_defaults(func=cmd_sweep)

    eigen = subs.add_parser(
        "eigen", help="first eigenvalue of the omega1-weighted operator")
    _add_common(eigen)
    eigen.set_defaults(func=cmd_eigen)

    torsion = subs.add_parser(
        "torsion", help="sup norm of the torsion function of max(omega_i)")
    _add_common(torsion)
    torsion.set_defaults(func=cmd_torsion)

    return parser


def _load(args):
    """The problem, its grid and the solve options of a subcommand, with
    ``--tol`` checked before the problem file is read: (spec, grid, opts)."""
    opts = (SolveOptions() if args.tol is None
            else SolveOptions(tol_residual=args.tol))
    spec = load_problem(args.spec)
    if args.n is not None:
        spec = dataclasses.replace(spec, resolution=args.n)
    if min(spec.resolution) < ACCURACY_FLOOR:
        print(f"warning: resolution {spec.resolution} is below the "
              f"documented accuracy floor of {ACCURACY_FLOOR} nodes per axis",
              file=sys.stderr)
    report = validate_hypotheses(spec)
    if not report.passed:
        raise HypothesisViolationError(
            "problem fails the growth hypotheses on validation samples: "
            + report.summary(), node=report.node,
            values={"u": report.u, "gnorm": report.gnorm,
                    "violation": report.worst_violation})
    return spec, spec.build_grid(), opts


def _set_up(spec, grid, opts):
    """The constants and the first eigenpair of ``solve`` and ``sweep``, on
    one map of cold solves, so the eigen start reads omega1's torsion from
    the constants' solves: (constants, eigen)."""
    solved = {}
    constants = compute_constants(spec, grid, opts, solved)
    eigen = first_eigenpair(grid, spec.p, sample_weights(spec, grid)[0], opts,
                            solved)
    return constants, eigen


def _side_stream(out):
    """Where lines that are not CSV go: standard output, unless the CSV is
    written there (no ``--out``), then standard error."""
    return sys.stderr if out is None else sys.stdout


def _parse_range(text, name):
    parts = text.split(":")
    if len(parts) != 2:
        raise ConfigurationError(f"{name} must look like LO:HI, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise ConfigurationError(
            f"{name} must look like LO:HI, got {text!r}") from None
    if not (0.0 < lo <= hi < np.inf):
        raise ConfigurationError(
            f"{name} needs finite 0 < LO <= HI, got {text!r}")
    return lo, hi


def _sample_axis(rng, samples):
    lo, hi = rng
    if samples < 1:
        raise ConfigurationError("samples must be at least 1")
    if samples == 1:
        return np.array([lo])
    return np.linspace(lo, hi, samples)


# ---------------------------------------------------------------------------
# subcommands


def _sample_grid(args):
    """The (lambda, beta) sample axes of ``region`` and ``sweep``, checked
    before any set-up work: (lambda range, lambdas, betas)."""
    lam_range = _parse_range(args.lambda_range, "--lambda-range")
    return (lam_range, _sample_axis(lam_range, args.samples),
            _sample_axis(_parse_range(args.beta_range, "--beta-range"),
                         args.samples))


def cmd_region(args) -> int:
    (lo, hi), lams, betas = _sample_grid(args)
    spec, grid, opts = _load(args)
    constants = compute_constants(spec, grid, opts)
    rows = []
    inside = 0
    for lam in lams:
        for beta in betas:
            v = region_classify(float(lam), float(beta), constants, spec)
            inside += v.in_region
            rows.append([_fmt(float(lam)), _fmt(float(beta)), v.case,
                         _fmt(v.in_region), _fmt(v.margin), _fmt(v.height)])
    case = growth_case(spec)
    curve = None  # computed before any output, so an error writes nothing
    if args.out is not None and case in (SUPER, CRITICAL):
        dense = np.linspace(lo, hi, 256)
        curve = region_boundary([float(x) for x in dense], constants, spec)
    _emit(args.out, REGION_HEADER, rows)
    if curve is not None:
        _emit(_sibling_path(args.out, "boundary"), ["lambda", "beta"],
              [[_fmt(l), _fmt(b)] for l, b in curve])
    print(f"{case}: {inside} of {len(rows)} sampled points inside the region",
          file=_side_stream(args.out))
    return 0


def _report_lines(report: SolveReport, with_trace: bool):
    cert = report.certificates
    v = report.region
    lines = [
        ("case", v.case),
        ("in_region", _fmt(v.in_region)),
        ("margin", _fmt(v.margin)),
        ("threshold", _fmt(v.threshold)),
        ("M", _fmt(report.height)),
        ("epsilon", _fmt(report.epsilon)),
        ("converged", _fmt(report.converged)),
        ("outer_iters", _fmt(report.outer_iters)),
        ("pde_residual", _fmt(cert.pde_residual)),
        ("residual_scale", _fmt(cert.residual_scale)),
        ("residual_ok", _fmt(cert.residual_ok)),
        ("two_sided_gap", _fmt(cert.two_sided_gap)),
        ("two_sided_ok", _fmt(cert.two_sided_ok)),
        ("picone_gap", _fmt(cert.picone_gap)),
        ("picone_ok", _fmt(cert.picone_ok)),
    ]
    if with_trace:
        lines += [(f"outer_move_{k}", _fmt(d))
                  for k, d in enumerate(report.outer_trace, start=1)]
    return [f"{key} = {val}" for key, val in lines]


def cmd_solve(args) -> int:
    # the point and the budget are checked before any set-up work
    _check_point(args.lam, args.beta)
    _check_outer_budget(args.max_outer)
    spec, grid, opts = _load(args)
    constants, eigen = _set_up(spec, grid, opts)
    report = outer_fixed_point(spec, args.lam, args.beta, grid, constants,
                               eigen, opts, args.max_outer)
    text = "\n".join(_report_lines(report, args.trace))
    print(text)
    if args.out is not None:
        u = report.solution
        gn = gradient(u).magnitude()
        _write_field(args.out, grid, [("u", u.values), ("gradnorm", gn.values)])
        root, _ = os.path.splitext(args.out)
        with open(f"{root}_report.txt", "w") as fh:
            fh.write(text + "\n")
    return 0 if report.converged else 3


def _sweep_point(spec, lam, beta, grid, constants, eigen, opts, max_outer):
    verdict = region_classify(lam, beta, constants, spec)
    base = dict(lam=lam, beta=beta, case=verdict.case,
                in_region=verdict.in_region, margin=verdict.margin,
                height=verdict.height)
    try:
        report = outer_fixed_point(spec, lam, beta, grid, constants, eigen,
                                   opts, max_outer)
    except OutOfRegionError:
        return SweepRow(status="out_of_region", converged=False,
                        outer_iters=None, pde_residual=None, **base)
    except PlapLabError as exc:
        log.info("sweep point (%g, %g) failed: %s", lam, beta, exc)
        return SweepRow(status=f"failed:{type(exc).__name__}", converged=False,
                        outer_iters=None, pde_residual=None, **base)
    status = "converged" if report.converged else "inconclusive"
    return SweepRow(status=status, converged=report.converged,
                    outer_iters=report.outer_iters,
                    pde_residual=report.certificates.pde_residual, **base)


def cmd_sweep(args) -> int:
    if args.parallel < 1:
        raise ConfigurationError("--parallel must be at least 1")
    _check_outer_budget(args.max_outer)
    _, lams, betas = _sample_grid(args)
    spec, grid, opts = _load(args)
    constants, eigen = _set_up(spec, grid, opts)
    points = [(float(lam), float(beta)) for lam in lams for beta in betas]

    times = [0.0] * len(points)

    def run(idx):
        lam, beta = points[idx]
        start = time.perf_counter()
        row = _sweep_point(spec, lam, beta, grid, constants, eigen, opts,
                           args.max_outer)
        times[idx] = time.perf_counter() - start
        return row

    with ThreadPoolExecutor(max_workers=args.parallel) as pool:
        rows = list(pool.map(run, range(len(points))))
    result = SweepResult(rows=tuple(rows))
    result.write(args.out)
    if args.timings:
        lines = [f"timing lambda={lam:.6g} beta={beta:.6g}: {dt:.3f} s"
                 for (lam, beta), dt in zip(points, times)]
        print("\n".join(lines + [f"timing total: {sum(times):.3f} s"]),
              file=_side_stream(args.out))
    done = sum(r.status == "converged" for r in result.rows)
    log.info("sweep: %d of %d points converged", done, len(points))
    return 0


def cmd_eigen(args) -> int:
    spec, grid, opts = _load(args)
    w1 = sample_weights(spec, grid)[0]
    pair = first_eigenpair(grid, spec.p, w1, opts)
    print(f"{pair.lambda1:.12g}")
    if args.out is not None:
        _write_field(args.out, grid, [("u1", pair.u1.values)])
    return 0


def cmd_torsion(args) -> int:
    spec, grid, opts = _load(args)
    omega = combined_weight(sample_weights(spec, grid))
    result = torsion_function(grid, spec.p, omega, opts)
    print(f"{result.phi_sup:.12g}")
    if args.out is not None:
        _write_field(args.out, grid, [("phi", result.phi.values)])
    return 0


# ---------------------------------------------------------------------------
# entry points


def _setup_logging():
    level = {"error": logging.ERROR, "info": logging.INFO,
             "debug": logging.DEBUG}.get(
        os.environ.get("PLAP_LOG", "error").lower(), logging.ERROR)
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger("plaplab").setLevel(level)


def main(argv=None) -> int:
    """Parse arguments, dispatch, and map failures to documented exit codes."""
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ProblemFileError, ParseError, EvalError, ConfigurationError,
            GridMismatchError, HypothesisViolationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OutOfRegionError as exc:
        print(f"out of region: {exc}", file=sys.stderr)
        return 4
    except (SolveFailure, EstimateFailure, IterationFailure) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 5
    except EigenFailure as exc:
        print(f"eigen failure: {exc}", file=sys.stderr)
        return 6
    except InvariantViolation as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return 7


def console_entry():
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    console_entry()
