"""The full certified existence run, end to end.

Builds the barriers from the computed constants, iterates the freezing map
between them, and prints every certificate the limit must satisfy before
the run may call itself converged.  Also shows the short-circuit behavior
on a gradient-free problem and the hard rejection outside the region.
"""

import dataclasses
import time

from plaplab import (
    OutOfRegionError,
    bundled_problem_path,
    compute_constants,
    load_problem,
    outer_fixed_point,
    super_threshold,
    sup_norm,
)


def show_report(report):
    certs = report.certificates
    print(f"  converged        {report.converged}")
    print(f"  outer iterations {report.outer_iters}")
    print(f"  barrier height M {report.height:.8f}")
    print(f"  epsilon (lower)  {report.epsilon:.8f}")
    print(f"  sup |u|          {sup_norm(report.solution):.8f}")
    print(f"  pde residual     {certs.pde_residual:.3e} "
          f"(scale {certs.residual_scale:.3e}, ok={certs.residual_ok})")
    print(f"  two-sided gap    {certs.two_sided_gap:.3e} "
          f"(ok={certs.two_sided_ok})")
    print(f"  picone gap       {certs.picone_gap:.3e} "
          f"(ok={certs.picone_ok})")


def main():
    print("== certified run on the sublinear model problem ==")
    spec = load_problem(bundled_problem_path("sub"))
    start = time.perf_counter()
    report = outer_fixed_point(spec, 1.0, 1.0)
    elapsed = time.perf_counter() - start
    print(f"(lambda, beta) = (1, 1) on a {spec.resolution[0]}-node grid, "
          f"{elapsed:.2f} s")
    show_report(report)
    print("  outer C1 moves  ",
          " ".join(f"{d:.1e}" for d in report.outer_trace))

    print()
    print("== gradient-free problem: the outer map freezes after one step ==")
    dspec = dataclasses.replace(
        load_problem(bundled_problem_path("degenerate")), resolution=65)
    report = outer_fixed_point(dspec, 1.0, 1.0)
    print(f"outer iterations {report.outer_iters}, trace "
          f"{tuple(report.outer_trace)}")
    print("(with f = 0 and h pinned to its growth bound the frozen map is "
          "iterate independent, so the second move is exactly zero)")

    print()
    print("== rejection outside the existence region ==")
    sspec = dataclasses.replace(
        load_problem(bundled_problem_path("super")), resolution=33)
    bundle = compute_constants(sspec)
    k = super_threshold(bundle, sspec)
    beta_bad = (2.0 * k) ** (1.0 / (sspec.p - sspec.q))
    try:
        outer_fixed_point(sspec, 1.0, beta_bad, constants=bundle)
    except OutOfRegionError as exc:
        print(f"OutOfRegionError: {exc}")
    print("(no solver ran; the gate rejects before any barrier is built)")

    print()
    print("== a certified run in two dimensions ==")
    spec2 = load_problem(bundled_problem_path("square2d"))
    start = time.perf_counter()
    report = outer_fixed_point(spec2, 1.0, 1.0)
    elapsed = time.perf_counter() - start
    nx, ny = spec2.resolution
    print(f"unit square, {nx}x{ny} nodes, {elapsed:.2f} s")
    show_report(report)


if __name__ == "__main__":
    main()
