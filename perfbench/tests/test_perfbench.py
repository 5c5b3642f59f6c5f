"""Tests of the benchmark itself, on smoke-size workloads (1D n=33, 2D 9x9)."""

import dataclasses
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import plaplab  # noqa: E402
from plaplab import cli  # noqa: E402

import harness  # noqa: E402
import hostclock  # noqa: E402
import tracer  # noqa: E402


def smoke_setup(workload):
    return harness.set_up(harness.workload_cases(workload, smoke=True)[0])


def unpatched_holders():
    """(module, name) pairs still holding a traced function's original."""
    originals = {}
    for home, attr, _ in tracer.LAYERS:
        fn = getattr(sys.modules[home], attr)
        originals[attr] = getattr(fn, "__wrapped__", fn)
    return [(name, attr) for name, mod in list(sys.modules.items())
            if name.split(".")[0] == "plaplab"
            for attr, fn in originals.items() if mod.__dict__.get(attr) is fn]


def test_patch_reaches_every_importer_and_restores():
    originals = {attr: getattr(sys.modules[home], attr)
                 for home, attr, _ in tracer.LAYERS}
    assert unpatched_holders()  # e.g. plaplab.scheme holds the solver
    with tracer.patched(tracer.Tracer()):
        assert unpatched_holders() == []
        solver = plaplab.plap.solve_plap_dirichlet
        assert plaplab.spectral.solve_plap_dirichlet is solver
        assert plaplab.scheme.solve_plap_dirichlet is solver
        assert plaplab.plap._plap_raw is plaplab.grid._plap_raw
        assert plaplab.scheme.evaluate_on is plaplab.expr.evaluate_on
        assert solver is not originals["solve_plap_dirichlet"]
    for home, attr, _ in tracer.LAYERS:
        assert getattr(sys.modules[home], attr) is originals[attr]


def test_traced_reports_are_bit_identical():
    s = smoke_setup("sweep2d")
    points = harness.CORNERS[1:3]
    plain = [harness.run_point(s, lam, beta) for lam, beta in points]
    t = tracer.Tracer()
    with tracer.patched(t):
        traced = [harness.run_point(s, lam, beta) for lam, beta in points]
    assert {sp.name for sp in t.spans} >= {"scheme.outer", "plap.dirichlet",
                                           "plap.factor", "grid.plap_raw"}
    for a, b in zip(plain, traced):
        assert a.status == b.status
        assert harness.same_report(a.report, b.report)


def test_exact_counters_repeat_for_one_seed():
    runs = [harness.run_workload("sweep1d", seed=7, seconds=0, trace=True,
                                 smoke=True) for _ in range(2)]
    first, second = ({k: m["value"] for k, m in r["metrics"].items()}
                     for r in runs)
    assert all(r["correct"] for r in runs)
    for name in tracer.EXACT_COUNTERS + ("fail_frac",):
        assert first[name] == second[name], name
    assert first["scheme.outer.iters"] > 0
    assert first["scheme.inner.sweeps"] > 0
    assert set(first) == {name for name, _ in tracer.LAYER_METRICS} | {
        "trace_overhead_frac", "fail_frac"}


def test_library_sweep_matches_cli_csv(tmp_path):
    case = harness.workload_cases("sweep1d", smoke=True)[0]
    out = tmp_path / "sweep.csv"
    code = cli.main(["sweep", "--spec",
                     str(plaplab.bundled_problem_path(case.problem)),
                     "--n", str(case.resolution[0]), "--samples", "2",
                     "--out", str(out)])
    assert code == 0
    rows = cli.SweepResult.read(out).rows
    s = harness.set_up(case)
    points = [harness.run_point(s, lam, beta) for lam, beta in harness.CORNERS]
    assert [(r.lam, r.beta) for r in rows] == list(harness.CORNERS)
    for row, pt in zip(rows, points):
        assert (row.status, row.converged, row.outer_iters,
                row.pde_residual) == pt.row()


@pytest.mark.parametrize("workload", ["sweep1d", "cold2d"])
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = harness.run_workload(workload, seed=0, seconds=0, smoke=True)
    assert result["correct"], result["errors"]
    assert result["failed"] == 0 and result["fail_frac"] == 0.0
    assert [name for name in result["metrics"]] == [
        name for name, _ in harness.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_gate_rejects_wrong_results():
    s = smoke_setup("sweep1d")
    ref = harness.load_reference()
    assert harness.setup_errors(s, ref) == []
    pt = harness.run_point(s, 1.0, 1.0)
    assert pt.status == "converged"
    assert harness.point_errors(s, ref, pt) == []

    bad_ref = json.loads(json.dumps(ref))
    bad_ref[s.case.key]["lambda1"] *= 1.001
    assert any("lambda1" in e for e in harness.setup_errors(s, bad_ref))

    scaled = pt.report.solution.with_values(1.001 * pt.report.solution.values)
    bad = dataclasses.replace(
        pt, report=dataclasses.replace(pt.report, solution=scaled))
    errors = harness.point_errors(s, ref, bad)
    assert any("residual" in e for e in errors)


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep1d",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_host_clock_samples_while_busy_and_restores_the_signal():
    previous = signal.getsignal(signal.SIGPROF)
    with hostclock.HostClock(period=0.02) as clock:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.3:
            hostclock.kernel()
        end = time.perf_counter()
    assert signal.getsignal(signal.SIGPROF) is previous
    assert len(clock.kernel_s) >= 4
    wall, ref = clock.seconds(start, end)
    inside = [k for t, k in zip(clock.starts, clock.kernel_s)
              if start <= t < end]
    assert inside and wall == end - start - sum(inside)
    assert ref > 0.0


def test_host_clock_scales_by_the_kernels_around_an_interval():
    clock = hostclock.HostClock()
    clock.starts = [0.0, 1.0, 2.0, 3.0]
    clock.kernel_s = [0.01, 0.02, 0.03, 0.09]
    wall, ref = clock.seconds(0.5, 1.5)  # one kernel inside, one each side
    assert wall == pytest.approx(0.98)
    assert ref == pytest.approx(0.98 * hostclock.REFERENCE_S / 0.02)
    with pytest.raises(ValueError):
        clock.seconds(3.5, 4.0)  # no sample after the interval
