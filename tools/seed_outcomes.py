"""Outcomes of the benchmark's seeds 0-2 sweep points, for checking that a
change keeps them.

Usage, from the repository root:

    python3 tools/seed_outcomes.py [--against tools/seed_outcomes.json]

Runs the distinct points of ``perfbench`` seeds 0, 1 and 2 of the sweep1d
and sweep2d workloads (the range corners, then each seed's drawn points: 40
and 7 points) through ``harness.run_point``, on one ``harness.set_up`` per
workload, serially, with BLAS at one thread.  Prints one JSON object: per
workload, the rows ``[lambda, beta, status, outer_iters, pde_residual,
two_sided_gap, picone_gap]``.

With ``--against FILE`` the rows are compared with a table this script
printed before: the script exits 1 when a point is missing or new, a
``status`` or ``outer_iters`` changed, or a ``pde_residual`` moved by more
than RESIDUAL_MOVE absolute, and 0 otherwise; each difference goes to
stderr, with the largest absolute move of ``pde_residual``, of
``two_sided_gap`` and of ``picone_gap``.  The gap moves are informational:
they decide no exit code.  It also prints to stderr, per
workload, the headroom of three certificates: the largest ratio of
``pde_residual``, of ``two_sided_gap`` and of ``|picone_gap|`` to the
value its certificate allows, as the report carries it
(``residual_allowed``, ``two_sided_allowed``, ``picone_allowed``; see
``plaplab.scheme.Certificates``).  The script only reads ``perfbench/``.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True  # leave no cache behind in perfbench/
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import harness  # noqa: E402

WORKLOADS = ("sweep1d", "sweep2d")
SEEDS = (0, 1, 2)
# Largest absolute pde_residual move a change that keeps the outcomes may
# make; tests/test_cli.py holds the bundled sweeps to the same bound.
RESIDUAL_MOVE = 1.0e-9
# The certificate values of a row, after lambda, beta, status and
# outer_iters; only pde_residual's move decides the exit code.
MOVED = ("pde_residual", "two_sided_gap", "picone_gap")


def distinct_points(name):
    """The corners, then each seed's drawn points, each point once."""
    count = harness.WORKLOADS[name].seeded_points
    points = []
    for seed in SEEDS:
        points += [pt for pt in harness.sweep_points(seed, count)
                   if pt not in points]
    return points


def outcomes(name):
    """[lambda, beta, status, outer_iters, pde_residual, two_sided_gap,
    picone_gap] per point, and the largest pde_residual, two_sided_gap and
    |picone_gap| over their allowed values."""
    (case,) = harness.workload_cases(name)
    setup = harness.set_up(case)
    rows, residual, two_sided, picone = [], 0.0, 0.0, 0.0
    for lam, beta in distinct_points(name):
        pt = harness.run_point(setup, lam, beta)
        r = pt.report
        cert = None if r is None else r.certificates
        rows.append([lam, beta, pt.status]
                    + ([None] * 4 if r is None else
                       [r.outer_iters, cert.pde_residual, cert.two_sided_gap,
                        cert.picone_gap]))
        if r is not None:
            residual = max(residual,
                           cert.pde_residual / cert.residual_allowed)
            two_sided = max(two_sided,
                            cert.two_sided_gap / cert.two_sided_allowed)
            picone = max(picone, abs(cert.picone_gap) / cert.picone_allowed)
    return rows, (residual, two_sided, picone)


def differences(table, recorded):
    """Each kept outcome the table breaks, and the largest absolute move of
    each of MOVED over the points whose status and outer_iters held."""
    found, worst = [], dict.fromkeys(MOVED, 0.0)
    for name in WORKLOADS:
        got = {(r[0], r[1]): r for r in table[name]}
        want = {(r[0], r[1]): r for r in recorded[name]}
        if got.keys() != want.keys():
            found.append(f"{name}: the points differ from the table's")
        for point in got.keys() & want.keys():
            row, row0 = got[point], want[point]
            if row[2:4] != row0[2:4]:
                found.append(f"{name} {point}: {row[2]}/{row[3]}, "
                             f"table {row0[2]}/{row0[3]}")
            elif row[4] is not None:
                for column, value, value0 in zip(MOVED, row[4:], row0[4:]):
                    worst[column] = max(worst[column], abs(value - value0))
                if not abs(row[4] - row0[4]) <= RESIDUAL_MOVE:
                    found.append(f"{name} {point}: pde_residual {row[4]!r} "
                                 f"moved {abs(row[4] - row0[4]):.3e} from "
                                 f"{row0[4]!r}")
    return found, worst


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", type=Path,
                        help="a table this script printed before")
    args = parser.parse_args(argv)
    table, headroom = {}, {}
    for name in WORKLOADS:
        table[name], headroom[name] = outcomes(name)
    print("{\n" + ",\n".join(
        f" {json.dumps(name)}: [\n"
        + ",\n".join(f"  {json.dumps(row)}" for row in rows) + "\n ]"
        for name, rows in table.items()) + "\n}")
    if args.against is None:
        return 0
    found, worst = differences(table, json.loads(args.against.read_text()))
    for line in found:
        print(f"changed: {line}", file=sys.stderr)
    print(f"largest pde_residual move {worst['pde_residual']:.3e} (allowed "
          f"{RESIDUAL_MOVE:.0e})", file=sys.stderr)
    for column in MOVED[1:]:
        print(f"largest {column} move {worst[column]:.3e} (informational)",
              file=sys.stderr)
    for name in WORKLOADS:
        residual, two_sided, picone = headroom[name]
        print(f"{name}: largest pde_residual / residual_allowed "
              f"{residual:.3e}", file=sys.stderr)
        print(f"{name}: largest two_sided_gap / two_sided_allowed "
              f"{two_sided:.3e}", file=sys.stderr)
        print(f"{name}: largest |picone_gap| / picone_allowed "
              f"{picone:.3e}", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
