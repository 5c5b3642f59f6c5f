"""Run one workload of the plaplab benchmark and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep2d --seed 1 --seconds 20 --trace 0

Workloads: sweep1d, sweep2d, cold2d (see harness.py).  Prints one line per
metric, then the result as one JSON object on the last line, with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones from a
traced pass.  Times are in reference seconds: wall seconds corrected for
the speed of the host, measured by ``hostclock.py`` during the run; the
wall-time values are printed too, as comment lines.  The full record (every point, set-up times, environment and,
when traced, the spans) is written to
``perfbench/out/<workload>-seed<n>-trace<t>.json``.

Exit codes: 0 correct, 1 a correctness check failed (the result line says
``"correct": false``), 2 the package source ``src/plaplab`` is missing.
"""

import os

# One BLAS thread, set before numpy loads: the single-threaded baseline.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("sweep1d", "sweep2d", "cold2d")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="minimum measuring time, in whole units of work")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment():
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("openblas configuration", blas.get("name")),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "plaplab" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC}/plaplab",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import plaplab

    if Path(plaplab.__file__).resolve().parent != SRC / "plaplab":
        print(f"error: imported plaplab from {plaplab.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import harness

    record = harness.run_workload(args.workload, args.seed, args.seconds,
                                  trace=bool(args.trace))
    record["environment"] = environment()
    record["workload"], record["seed"] = args.workload, args.seed

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record))

    for error in record["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    env = record["environment"]
    print(f"# numpy {env['numpy']}, scipy {env['scipy']}, "
          f"nproc {env['nproc']}, {env['machine']}, BLAS threads 1")
    print(f"# {args.workload}: attempted {record['attempted']}, "
          f"failed {record['failed']}, fail_frac {record['fail_frac']:.6g}")
    for name, m in record["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    cal = record["calibration"]
    if cal is not None:
        print(f"# host clock: {cal['samples']} calibration samples, median "
              f"{cal['kernel_s_p50']:.4g} s against {cal['reference_s']:.4g} s")
    for name, m in record.get("wall_metrics", {}).items():
        if m["unit"] in ("s", "1/s"):
            print(f"# {args.workload} {name} in wall time = {m['value']:.6g} "
              f"{m['unit']}")
    print(json.dumps({key: record[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
