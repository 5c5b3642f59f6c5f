"""Per-call times of the frozen map's layers.

Usage, from the repository root:

    python3 tools/layer_timings.py

Prints, for bundled ``sub`` at 2049 nodes and ``square2d`` at 33x33, the
median per-call time in microseconds (``timeit``, REPEATS runs of CALLS
calls each, BLAS at one thread) of ``scheme.freeze_nonlinearity`` and of
the three layers inside it: ``evaluate_on`` of h, ``evaluate_on`` of f and
``expr.check_growth``.  Each is called as ``freeze_nonlinearity`` calls it,
on the positive iterate ``height * prod(sin(pi * (x_k - lo_k) / L_k))``
with lambda = 1 and beta = 0.5.  Informational only: it exits 0 unless a
call raises.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import dataclasses  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import timeit  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from plaplab.expr import (  # noqa: E402
    bundled_problem_path,
    check_growth,
    evaluate_on,
    load_problem,
    sample_weights,
)
from plaplab.grid import ScalarField, gradient  # noqa: E402
from plaplab.scheme import freeze_nonlinearity  # noqa: E402

CASES = (("sub", (2049,)), ("square2d", (33, 33)))
LAM, BETA, HEIGHT = 1.0, 0.5, 0.3
CALLS, REPEATS = 200, 15


def median_us(fn):
    runs = timeit.repeat(fn, number=CALLS, repeat=REPEATS)
    return 1.0e6 * statistics.median(runs) / CALLS


def layer_times(problem, resolution):
    spec = dataclasses.replace(load_problem(bundled_problem_path(problem)),
                               resolution=resolution)
    grid = spec.build_grid()
    shape = np.ones(grid.shape)
    for mesh, (lo, hi) in zip(grid.meshes(), grid.extents):
        shape = shape * np.sin(np.pi * (mesh - lo) / (hi - lo))
    u = ScalarField(grid, HEIGHT * np.maximum(shape, 0.0))
    grad = gradient(u)

    weights = sample_weights(spec, grid)
    uv = np.maximum(u.values, 0.0)
    gn = grad.magnitude().values
    bindings = spec.coordinate_bindings(grid)
    h_bind = {**bindings, "u": uv}
    f_bind = {**bindings, "u": uv, "gnorm": gn}
    h = np.broadcast_to(evaluate_on(spec.h, h_bind), grid.shape)
    f = np.broadcast_to(evaluate_on(spec.f, f_bind), grid.shape)
    growth = np.power(uv, spec.q - 1.0)
    return {
        "freeze_nonlinearity": median_us(
            lambda: freeze_nonlinearity(u, LAM, BETA, spec, grad=grad)),
        "evaluate_on(h)": median_us(lambda: evaluate_on(spec.h, h_bind)),
        "evaluate_on(f)": median_us(lambda: evaluate_on(spec.f, f_bind)),
        "check_growth": median_us(
            lambda: check_growth(spec, weights, uv, gn, h, f, growth)),
    }


def main():
    print(f"median us per call, {REPEATS} runs of {CALLS} calls")
    for problem, resolution in CASES:
        label = f"{problem} {'x'.join(map(str, resolution))}"
        for layer, us in layer_times(problem, resolution).items():
            print(f"{label:14s} {layer:22s} {us:9.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
