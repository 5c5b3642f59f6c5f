"""Solve every default probe and a one-node bump cold over a grid of
resolutions and exponents.

Usage, from the repository root:

    python3 tools/stress_cold_solves.py

The stress set is every ``plap.default_probes`` field on the unit box plus
a one-node center bump, a point load the probe family leaves out that is
among the hardest cold solves (20 factorizations at p = 1.25 on 65x65).
Each is solved cold by ``solve_plap_dirichlet`` on 1D 2049, 2D 33x33, 2D
65x65 and 3D 9x9x9 at each p in {1.1, 1.25, 1.5, 1.75, 2.5, 3, 4, 5, 6, 8}:
200 solves.
Each solution is checked against the solver's residual contract.  Prints
one JSON object: the failures (grid, p, probe, reason), the direct solves
(``_try_solve`` calls, one factorization each) per grid and p and their
total, the kept-factor LU solves (chord trials, each one band solve with a
factor kept from an earlier Newton step; none in 1D, which keeps no factor)
per grid and p and their total, and the number of loads solved.  The counts
are informational.  Exits 1 when any solve fails or misses the contract, or
when the set is not exactly ``LOADS_PER_CELL`` loads per grid and p, 0
otherwise.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

import plaplab.plap as plap  # noqa: E402
from plaplab.errors import SolveFailure  # noqa: E402
from plaplab.grid import (  # noqa: E402
    ScalarField, build_grid, sup_norm)

SHAPES = ((2049,), (33, 33), (65, 65), (9, 9, 9))
EXPONENTS = (1.1, 1.25, 1.5, 1.75, 2.5, 3.0, 4.0, 5.0, 6.0, 8.0)
# const1, three checkerboards and the bump; a change to the probe family
# must not shrink the set unnoticed
LOADS_PER_CELL = 5


def stress_loads(grid):
    """The default probes and a one-node center bump, as (label, field)."""
    bump = np.zeros(grid.shape)
    bump[tuple(n // 2 for n in grid.shape)] = 1.0
    return plap.default_probes(grid) + [("bump", ScalarField(grid, bump))]


def contract_gap(u, p, load, opts):
    """Residual over what the contract allows, tol or the rounding floor; a
    value above 1 misses the contract."""
    value = plap.operator_value(u, p)
    res = np.max(np.abs((value.lap - load.values)[u.grid.interior]))
    jac = plap._assemble(u.values, u.grid.spacing, p, value.delta,
                         faces=value.faces)
    floor = plap._rounding_floor(jac, u.values[u.grid.interior])
    return res / max(opts.tol_residual * sup_norm(load), floor)


def main():
    opts = plap.SolveOptions()
    solves, trials = [], []
    try_solve, factor_solve = plap._try_solve, plap._Banded.factor_solve

    def counted(*args, **kwargs):
        solves.append(1)
        return try_solve(*args, **kwargs)

    def kept_counted(self, rhs):
        sol, solve = factor_solve(self, rhs)
        if solve is None:
            return sol, None

        def trial(rhs):
            trials.append(1)
            return solve(rhs)

        return sol, trial

    failures, counts, chord, loads = [], {}, {}, 0
    plap._try_solve = counted
    plap._Banded.factor_solve = kept_counted
    try:
        for shape in SHAPES:
            grid = build_grid(tuple((0.0, 1.0) for _ in shape), shape)
            name = "x".join(map(str, shape))
            counts[name], chord[name] = {}, {}
            for p in EXPONENTS:
                solves.clear()
                trials.clear()
                for label, load in stress_loads(grid):
                    loads += 1
                    try:
                        u = plap.solve_plap_dirichlet(grid, p, load, opts)
                    except SolveFailure as exc:
                        failures.append([name, p, label, str(exc)])
                        continue
                    gap = contract_gap(u, p, load, opts)
                    if not gap <= 1.0:
                        failures.append([name, p, label,
                                         f"residual {gap:.3g} times the allowed"])
                counts[name][str(p)] = len(solves)
                chord[name][str(p)] = len(trials)
    finally:
        plap._try_solve = try_solve
        plap._Banded.factor_solve = factor_solve

    def total(table):
        return sum(sum(per_p.values()) for per_p in table.values())

    expected = len(SHAPES) * len(EXPONENTS) * LOADS_PER_CELL
    print(json.dumps({"failures": failures, "factorizations": counts,
                      "total": total(counts), "chord_trials": chord,
                      "chord_total": total(chord), "loads": loads},
                     indent=1))
    if loads != expected:
        print(f"solved {loads} loads, expected {expected}", file=sys.stderr)
        return 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
