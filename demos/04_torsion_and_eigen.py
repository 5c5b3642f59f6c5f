"""Torsion functions and the first eigenpair of the weighted p-Laplacian.

The torsion function solves -Lap_p phi = w with zero boundary data and its
sup norm is the a-priori height unit of the certified pipeline; the first
eigenpair supplies the lower barrier shape.  Both have closed forms on an
interval that the discrete solvers reproduce.
"""

import numpy as np

from plaplab import (
    ScalarField,
    build_grid,
    first_eigenpair,
    sup_norm,
    torsion_function,
)


def closed_form_torsion_sup(p, length):
    return (p - 1.0) / p * (length / 2.0) ** (p / (p - 1.0))


def closed_form_lambda1(p, length):
    pi_p = 2.0 * np.pi / (p * np.sin(np.pi / p))
    return (p - 1.0) * (pi_p / length) ** p


def main():
    print("== torsion function against the closed interval form ==")
    grid = build_grid([(0.0, 1.0)], (257,))
    ones = ScalarField(grid, np.ones(257))
    for p in (1.5, 2.0, 3.0):
        result = torsion_function(grid, p, ones)
        exact = closed_form_torsion_sup(p, 1.0)
        rel = abs(result.phi_sup - exact) / exact
        print(f"  p = {p}: sup phi = {result.phi_sup:.8f}  "
              f"exact {exact:.8f}  rel err {rel:.1e}")

    print()
    print("== first eigenpair against the closed interval form ==")
    for p in (1.5, 2.0, 3.0):
        pair = first_eigenpair(grid, p, ones)
        exact = closed_form_lambda1(p, 1.0)
        rel = abs(pair.lambda1 - exact) / exact
        print(f"  p = {p}: lambda1 = {pair.lambda1:.6f}  "
              f"exact {exact:.6f}  rel err {rel:.1e}  "
              f"sup u1 = {sup_norm(pair.u1):.3f}")

    print()
    print("== scaling in the weight ==")
    profile = ScalarField(grid, 1.0 + 0.3 * np.sin(3.0 * grid.axis(0)))
    ref = first_eigenpair(grid, 2.5, profile)
    print(f"nonuniform weight, p = 2.5: lambda1 = {ref.lambda1:.8f}")
    for t in (0.5, 2.0, 4.0):
        scaled = first_eigenpair(
            grid, 2.5, ScalarField(grid, t * profile.values))
        print(f"  weight x {t}: lambda1 = {scaled.lambda1:.8f}  "
              f"(lambda1/t = {ref.lambda1 / t:.8f})")


if __name__ == "__main__":
    main()
