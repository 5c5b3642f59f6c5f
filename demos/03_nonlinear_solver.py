"""The damped-Newton p-Laplacian solver and the empirical gradient constant.

Solves -Lap_p u = g with homogeneous Dirichlet data, inspects the residual
contract and the iteration trace, and then estimates the constant khat that
later certifies every gradient bound in the certified pipeline.
"""

import numpy as np

from plaplab import (
    ScalarField,
    SolveOptions,
    assert_gradient_bound,
    build_grid,
    estimate_grad_constant,
    gradient,
    p_laplacian_apply,
    solve_plap_dirichlet,
    sup_norm,
)


def main():
    grid = build_grid([(0.0, 1.0)], (129,))
    x = grid.axis(0)
    g = ScalarField(grid, 1.0 + x)

    print("== a single solve ==")
    trace = []
    u = solve_plap_dirichlet(grid, 3.0, g, SolveOptions(tol_residual=1e-10),
                             trace=trace)
    res = p_laplacian_apply(u, 3.0)
    interior = grid.interior
    defect = float(np.max(np.abs(res.values[interior] - g.values[interior])))
    print(f"p = 3, g = 1 + x: sup|u| = {sup_norm(u):.6f}, interior "
          f"residual {defect:.2e} (contract: 1e-10 * sup|g|)")
    print(f"Newton trace, last steps of {len(trace)} "
          "(iteration, residual, damping):")
    for it, resid, damp in trace[-4:]:
        print(f"  {it:3d}  {resid:10.3e}  {damp:4.2f}")

    print()
    print("== solution scaling across p ==")
    for p in (1.5, 2.0, 4.0):
        up = solve_plap_dirichlet(grid, p, g)
        print(f"  p = {p}: sup|u| = {sup_norm(up):.6f}, "
              f"sup|Du| = {sup_norm(gradient(up)):.6f}")
    print("(smaller p flattens the profile and steepens the walls)")

    print()
    print("== the empirical gradient constant ==")
    est = estimate_grad_constant(grid, 2.5)
    print(f"probe family of {est.probe_count}, worst probe "
          f"{est.worst_probe!r}, khat = {est.khat:.6f}")
    for label, ratio in sorted(est.ratios.items()):
        print(f"  {label:12s} sup|Du| / sup|g|^(1/(p-1)) = {ratio:.6f}")

    print()
    print("== the runtime check the pipeline applies to every solve ==")
    fresh = ScalarField(grid, 2.0 + np.sin(4.0 * x))
    u = solve_plap_dirichlet(grid, 2.5, fresh)
    assert_gradient_bound(est.khat, u, sup_norm(fresh), 2.5,
                          context="demo solve")
    print("a fresh right-hand side passes assert_gradient_bound; a stale "
          "constant would raise StaleGradConstantError here")


if __name__ == "__main__":
    main()
