"""Per-call times of the set-up stages, of the frozen map's layers and of
the certificate chains.

Usage, from the repository root:

    python3 tools/layer_timings.py

Prints, for bundled ``sub`` at 2049 nodes and ``square2d`` at 33x33, the
first quartile, median and third quartile of the per-call time in
microseconds (``timeit``, BLAS at one thread).  First come the four stages
of a set-up, REPEATS runs of one call each, as a run pays them in order:
``load_problem`` of the bundled file, ``validate_hypotheses`` with the
``sample_weights`` cache cleared before each call (a fresh run samples the
weights there), then ``compute_constants`` and ``first_eigenpair``, which
find the weights sampled.  Next, REPEATS runs of CALLS calls each, come
``scheme.freeze_nonlinearity`` and the three layers inside it:
``evaluate_on`` of h, ``evaluate_on`` of f and ``expr.check_growth``.
Each is called as ``freeze_nonlinearity`` calls it, on the positive iterate
``height * prod(sin(pi * (x_k - lo_k) / L_k))`` with lambda = 1 and
beta = 0.5.  Last come the quartiles of the time of
the certificate stage of one ``outer_fixed_point`` run at lambda = 1 and
beta = 0.5 (REPEATS runs of one call), as the run pays it: the
factorization of the Jacobian at the final iterate
(``plap.factored_value``), then the two ``inner_monotone_solve`` chains the
run computes after its outer loop, called again with the run's own
arguments and that factored value.  The spread of a line's runs says how
far its median can be trusted; medians read in two processes can differ by
more than it.
Informational only: it exits 0 unless a call raises.
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

from plaplab import scheme  # noqa: E402
from plaplab.constants import compute_constants  # noqa: E402
from plaplab.expr import (  # noqa: E402
    bundled_problem_path,
    check_growth,
    evaluate_on,
    load_problem,
    sample_weights,
    validate_hypotheses,
)
from plaplab.grid import ScalarField, gradient  # noqa: E402
from plaplab.plap import SolveOptions, factored_value  # noqa: E402
from plaplab.scheme import freeze_nonlinearity  # noqa: E402
from plaplab.spectral import first_eigenpair  # noqa: E402

CASES = (("sub", (2049,)), ("square2d", (33, 33)))
LAM, BETA, HEIGHT = 1.0, 0.5, 0.3
CALLS, REPEATS = 200, 15


def quartiles_us(fn, calls=CALLS):
    """First quartile, median and third quartile of REPEATS runs, in
    microseconds per call."""
    runs = timeit.repeat(fn, number=calls, repeat=REPEATS)
    return [1.0e6 * t / calls for t in statistics.quantiles(runs, n=4)]


def certificate_us(spec, grid):
    """Quartiles of the time of the certificate stage of one run: the
    factorization of the Jacobian at the final iterate and the two limits
    that start from it."""
    chains = []  # the arguments of the run's calls without a guess
    inner = scheme.inner_monotone_solve

    def recording(*args, **kwargs):
        if kwargs.get("guess") is None:
            chains.append((args, kwargs))
        return inner(*args, **kwargs)

    scheme.inner_monotone_solve = recording
    try:
        scheme.outer_fixed_point(spec, LAM, BETA, grid)
    finally:
        scheme.inner_monotone_solve = inner
    if len(chains) != 2:
        raise RuntimeError(f"expected two certificate limits, saw "
                           f"{len(chains)}")
    # the final iterate's value as the outer loop returned it, unfactored
    value = chains[0][1]["warm"]._replace(jacobian=None)

    def stage():
        warm = factored_value(value)
        for args, kwargs in chains:
            inner(*args, **{**kwargs, "warm": warm})

    return quartiles_us(stage, calls=1)


def setup_us(path, spec, grid):
    """Quartiles of each set-up stage's time, one call per run."""
    opts = SolveOptions()

    def validate():
        sample_weights.cache_clear()  # every run samples afresh
        validate_hypotheses(spec)

    stages = {
        "load_problem": lambda: load_problem(path),
        "validate_hypotheses": validate,
        "compute_constants": lambda: compute_constants(spec, grid, opts),
        "first_eigenpair": lambda: first_eigenpair(
            grid, spec.p, sample_weights(spec, grid)[0], opts),
    }
    return {stage: quartiles_us(fn, calls=1) for stage, fn in stages.items()}


def layer_times(problem, resolution):
    path = bundled_problem_path(problem)
    spec = dataclasses.replace(load_problem(path), resolution=resolution)
    grid = spec.build_grid()
    times = setup_us(path, spec, grid)
    shape = np.ones(grid.shape)
    for mesh, (lo, hi) in zip(grid.meshes(), grid.extents):
        shape = shape * np.sin(np.pi * (mesh - lo) / (hi - lo))
    u = ScalarField(grid, HEIGHT * np.maximum(shape, 0.0))
    grad = gradient(u)

    weights = [w.values for w in sample_weights(spec, grid)]
    uv = np.maximum(u.values, 0.0)
    gn = grad.magnitude().values
    bindings = spec.coordinate_bindings(grid)
    h_bind = {**bindings, "u": uv}
    f_bind = {**bindings, "u": uv, "gnorm": gn}
    h = np.broadcast_to(evaluate_on(spec.h, h_bind), grid.shape)
    f = np.broadcast_to(evaluate_on(spec.f, f_bind), grid.shape)
    growth = np.power(uv, spec.q - 1.0)
    return {
        **times,
        "freeze_nonlinearity": quartiles_us(
            lambda: freeze_nonlinearity(u, LAM, BETA, spec, grad=grad)),
        "evaluate_on(h)": quartiles_us(lambda: evaluate_on(spec.h, h_bind)),
        "evaluate_on(f)": quartiles_us(lambda: evaluate_on(spec.f, f_bind)),
        "check_growth": quartiles_us(
            lambda: check_growth(spec, weights, uv, gn, h, f, growth)),
        "certificate stage": certificate_us(spec, grid),
    }


def main():
    print(f"us per call, {REPEATS} runs of {CALLS} calls "
          f"(set-up stages and certificate stage: {REPEATS} runs of 1 call)")
    print(f"{'':37s} {'q1':>9s} {'median':>9s} {'q3':>9s}")
    for problem, resolution in CASES:
        label = f"{problem} {'x'.join(map(str, resolution))}"
        for layer, us in layer_times(problem, resolution).items():
            print(f"{label:14s} {layer:22s}"
                  + "".join(f" {t:9.1f}" for t in us))
    return 0


if __name__ == "__main__":
    sys.exit(main())
