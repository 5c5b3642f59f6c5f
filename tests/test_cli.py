"""End-to-end command line tests: exit codes, CSV schemas, determinism."""

import csv
import logging

import numpy as np
import pytest

import plaplab.cli as cli
import plaplab.plap as plap
import plaplab.scheme as scheme
from plaplab.cli import (
    REGION_HEADER,
    SWEEP_HEADER,
    SweepResult,
    main,
)
from plaplab.errors import PlapLabError
from plaplab.expr import bundled_problem_path

SUB = str(bundled_problem_path("sub"))
SUPER = str(bundled_problem_path("super"))
CRITICAL = str(bundled_problem_path("critical"))


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# solve


def test_solve_certifies_and_writes_outputs(tmp_path, capsys):
    out = tmp_path / "sol.csv"
    code = main(["solve", "--spec", SUB, "--n", "33", "--lambda", "1",
                 "--beta", "1", "--out", str(out)])
    assert code == 0
    report = capsys.readouterr().out
    assert "converged = true" in report
    assert "picone_ok = true" in report
    header, rows = read_csv(out)
    assert header == ["x1", "u", "gradnorm"]
    assert len(rows) == 33
    assert float(rows[0][1]) == 0.0   # boundary node
    report_file = (tmp_path / "sol_report.txt").read_text()
    assert "residual_ok = true" in report_file


@pytest.mark.parametrize("rule,value,verdict", [
    ("OUTER_STOP_REL", 1e-3, "residual_ok"),
    ("INNER_STOP_REL", 1e-5, "two_sided_ok"),
    ("INNER_STOP_REL", 1e-3, "picone_ok")])
def test_a_failed_verdict_exits_three_and_names_it(rule, value, verdict,
                                                   monkeypatch, capsys):
    # the stopping rules of test_scheme's LOOSE_STOPPING_RULES, each of
    # which fails one verdict on sub at (1, 1)
    monkeypatch.setattr(scheme, rule, value)
    assert main(["solve", "--spec", SUB, "--lambda", "1", "--beta", "1"]) == 3
    report = capsys.readouterr().out
    assert "converged = false" in report
    assert f"{verdict} = false" in report


def test_solve_trace_flag_adds_outer_moves(capsys):
    code = main(["solve", "--spec", SUB, "--n", "17", "--lambda", "1",
                 "--beta", "1", "--trace"])
    assert code == 0
    assert "outer_move_1 = " in capsys.readouterr().out


def test_solve_exit_codes(capsys, tmp_path):
    assert main(["solve", "--spec", "/missing.plap", "--lambda", "1",
                 "--beta", "1"]) == 2
    assert "/missing.plap" in capsys.readouterr().err
    # forced iteration cap: inconclusive
    assert main(["solve", "--spec", SUB, "--n", "17", "--lambda", "1",
                 "--beta", "1", "--max-outer", "1"]) == 3
    # far outside the super region
    assert main(["solve", "--spec", SUPER, "--n", "17", "--lambda", "5",
                 "--beta", "100"]) == 4
    # hypothesis-violating problem file
    bad = tmp_path / "bad.plap"
    bad.write_text(bundled_problem_path("sub").read_text().replace(
        'h = "u ^ (q - 1)"', 'h = "0.5 * u ^ (q - 1)"'))
    assert main(["solve", "--spec", str(bad), "--n", "17", "--lambda", "1",
                 "--beta", "1"]) == 2
    # malformed range strings on the sweep side are configuration errors
    assert main(["sweep", "--spec", SUB, "--n", "17",
                 "--lambda-range", "nope", "--out",
                 str(tmp_path / "s.csv")]) == 2


def test_a_non_decimal_digit_in_a_problem_file_exits_two(capsys, tmp_path):
    bad = tmp_path / "bad.plap"
    bad.write_text(bundled_problem_path("sub").read_text().replace(
        'h = "u ^ (q - 1)"', 'h = "u ^ (q - 1) * 1\u00b2"'))
    assert main(["solve", "--spec", str(bad), "--n", "17", "--lambda", "1",
                 "--beta", "1"]) == 2
    assert "unexpected character '\u00b2'" in capsys.readouterr().err


def test_solve_certifies_a_tiny_sub_case_height(capsys):
    # degenerate at (1e-30, 1e-30) has M of about 8.2e-32: the height must
    # solve Phi(M) = 1 to a relative tolerance for the barrier to certify
    assert main(["solve", "--spec", str(bundled_problem_path("degenerate")),
                 "--lambda", "1e-30", "--beta", "1e-30"]) == 0
    assert "converged = true" in capsys.readouterr().out


def test_solve_beyond_the_float_range_exits_2(capsys):
    # the Newton height's check of Phi(M) = 1 raises: M lies beyond the
    # float range, where Phi cannot be evaluated
    assert main(["solve", "--spec", SUB, "--n", "33", "--lambda", "1e-310",
                 "--beta", "1e-310"]) == 2
    err = capsys.readouterr().err
    assert "(1e-310, 1e-310)" in err and "floating-point range" in err


def _library_errors(cls=PlapLabError):
    for sub in cls.__subclasses__():
        yield sub
        yield from _library_errors(sub)


@pytest.mark.parametrize("error", sorted(set(_library_errors()),
                                         key=lambda cls: cls.__name__),
                         ids=lambda cls: cls.__name__)
def test_every_library_error_maps_to_a_documented_exit_code(error, monkeypatch,
                                                            capsys):
    def failing(args):
        # bypass each class's own constructor arguments; main only prints it
        exc = error.__new__(error)
        Exception.__init__(exc, "boom")
        raise exc

    monkeypatch.setattr(cli, "cmd_torsion", failing)
    code = main(["torsion", "--spec", SUB])
    assert code in (2, 4, 5, 6, 7)
    assert "boom" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["torsion"], ["solve", "--lambda", "1", "--beta", "1"],
    ["sweep", "--samples", "2"]], ids=lambda command: command[0])
def test_an_undefined_weight_expression_exits_two(command, tmp_path, capsys):
    bad = tmp_path / "bad.plap"
    bad.write_text(bundled_problem_path("sub").read_text().replace(
        'omega1 = "1"', 'omega1 = "1 / x1"'))
    out = tmp_path / "out.csv"
    assert main(command + ["--spec", str(bad), "--n", "17",
                           "--out", str(out)]) == 2
    assert "error: division by zero" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tol", ["-1", "0", "nan"])
@pytest.mark.parametrize("command", [
    ["solve", "--lambda", "1", "--beta", "1"], ["sweep", "--samples", "2"],
    ["region", "--samples", "2"], ["eigen"], ["torsion"]],
    ids=lambda command: command[0])
def test_a_bad_tolerance_exits_two(command, tol, capsys, tmp_path):
    out = tmp_path / "out.csv"
    assert main(command + ["--spec", SUB, "--n", "17", f"--tol={tol}",
                           "--out", str(out)]) == 2
    assert "tol_residual must be finite and positive" in capsys.readouterr().err
    assert not out.exists()


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--spec", SUB])  # lambda and beta are required
    assert exc.value.code == 2


def test_outer_budget_below_one_exits_two(capsys, tmp_path):
    assert main(["solve", "--spec", SUB, "--n", "17", "--lambda", "1",
                 "--beta", "1", "--max-outer", "0"]) == 2
    assert "max_outer" in capsys.readouterr().err
    out = tmp_path / "s.csv"
    assert main(["sweep", "--spec", SUB, "--n", "17", "--max-outer", "0",
                 "--out", str(out)]) == 2
    assert "max_outer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("lam, beta, max_outer, message", [
    ("1", "1", "0", "max_outer"), ("-1", "1", "50", "lambda and beta"),
    ("0", "1", "50", "lambda and beta"), ("inf", "1", "50", "lambda and beta"),
    ("1", "nan", "50", "lambda and beta"), ("1", "-2", "50", "lambda and beta")])
def test_bad_solve_arguments_exit_before_the_set_up(lam, beta, max_outer,
                                                    message, monkeypatch,
                                                    tmp_path, capsys):
    set_ups = []
    monkeypatch.setattr(cli, "compute_constants",
                        lambda *args, **kwargs: set_ups.append(args))
    out = tmp_path / "u.csv"
    assert main(["solve", "--spec", SUB, "--n", "17", f"--lambda={lam}",
                 f"--beta={beta}", "--max-outer", max_outer,
                 "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert set_ups == [] and not out.exists()


# ---------------------------------------------------------------------------
# region


def test_region_table_and_boundary_for_super(tmp_path, capsys):
    out = tmp_path / "region.csv"
    code = main(["region", "--spec", SUPER, "--n", "33",
                 "--lambda-range", "0.1:1.0", "--beta-range", "1:30",
                 "--samples", "4", "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out)
    assert header == REGION_HEADER
    assert len(rows) == 16
    assert {row[2] for row in rows} == {"super"}
    outside = [row for row in rows if row[3] == "false"]
    for row in outside:
        assert row[5] == ""  # no height outside the region
        assert float(row[4]) < 0.0
    bheader, brows = read_csv(tmp_path / "region_boundary.csv")
    assert bheader == ["lambda", "beta"]
    assert len(brows) == 256


def test_region_boundary_beyond_the_float_range_writes_no_file(tmp_path,
                                                               capsys):
    # the sampled points classify, but the boundary's beta at lambda = 1e-200
    # overflows; the table must not be left behind without its curve
    out = tmp_path / "r.csv"
    assert main(["region", "--spec", SUPER, "--n", "17",
                 "--lambda-range", "1e-200:1", "--beta-range", "1:2",
                 "--samples", "2", "--out", str(out)]) == 2
    assert list(tmp_path.iterdir()) == []
    assert "inside the region" not in capsys.readouterr().out


def test_region_sub_spec_has_no_boundary_file(tmp_path):
    out = tmp_path / "region.csv"
    assert main(["region", "--spec", SUB, "--n", "17", "--samples", "3",
                 "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert all(row[3] == "true" for row in rows)
    assert all(row[4] == "inf" for row in rows)
    assert not (tmp_path / "region_boundary.csv").exists()


def test_region_critical_boundary_is_constant_beta(tmp_path):
    out = tmp_path / "region.csv"
    assert main(["region", "--spec", CRITICAL, "--n", "17", "--samples", "3",
                 "--out", str(out)]) == 0
    _, brows = read_csv(tmp_path / "region_boundary.csv")
    betas = {row[1] for row in brows}
    assert len(betas) == 1


# ---------------------------------------------------------------------------
# sweep


def test_sweep_rows_complete_and_deterministic(tmp_path):
    args = ["sweep", "--spec", SUB, "--n", "17",
            "--lambda-range", "0.5:1.5", "--beta-range", "0.5:1.5",
            "--samples", "2"]
    one = tmp_path / "p1.csv"
    eight = tmp_path / "p8.csv"
    assert main(args + ["--parallel", "1", "--out", str(one)]) == 0
    assert main(args + ["--parallel", "8", "--out", str(eight)]) == 0
    assert one.read_bytes() == eight.read_bytes()
    header, rows = read_csv(one)
    assert header == SWEEP_HEADER
    assert len(rows) == 4
    assert all(row[6] == "converged" for row in rows)


def test_sweep_round_trips_through_its_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--spec", SUB, "--n", "17", "--samples", "2",
                 "--out", str(out)]) == 0
    result = SweepResult.read(out)
    again = tmp_path / "again.csv"
    result.write(str(again))
    assert out.read_bytes() == again.read_bytes()
    assert all(row.in_region for row in result.rows)


def test_sweep_records_out_of_region_rows_without_aborting(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--spec", SUPER, "--n", "17",
                 "--lambda-range", "0.2:6.0", "--beta-range", "0.2:40.0",
                 "--samples", "3", "--out", str(out)]) == 0
    result = SweepResult.read(out)
    assert len(result.rows) == 9
    statuses = {row.status for row in result.rows}
    assert "out_of_region" in statuses
    assert "converged" in statuses
    for row in result.rows:
        if row.status == "out_of_region":
            assert not row.in_region and row.outer_iters is None
        if row.converged:
            assert row.in_region  # gate implies attempt


@pytest.mark.parametrize("command", ["sweep", "region"])
@pytest.mark.parametrize("bad", [
    ["--samples", "0"], ["--lambda-range", "2:1"], ["--beta-range", "0:1"],
    ["--lambda-range", "nope"]])
def test_bad_sample_arguments_exit_before_the_set_up(command, bad, monkeypatch,
                                                     tmp_path):
    set_ups = []
    monkeypatch.setattr(cli, "compute_constants",
                        lambda *args, **kwargs: set_ups.append(args))
    out = tmp_path / "out.csv"
    assert main([command, "--spec", SUB, "--n", "17", *bad,
                 "--out", str(out)]) == 2
    assert set_ups == [] and not out.exists()


@pytest.mark.parametrize("command", ["sweep", "region"])
@pytest.mark.parametrize("flag, bounds", [("--lambda-range", "0.1:inf"),
                                          ("--beta-range", "1:inf")])
def test_an_infinite_range_bound_exits_before_the_set_up(command, flag, bounds,
                                                         monkeypatch, capsys):
    set_ups = []
    monkeypatch.setattr(cli, "compute_constants",
                        lambda *args, **kwargs: set_ups.append(args))
    assert main([command, "--spec", SUB, "--samples", "3",
                 f"{flag}={bounds}"]) == 2
    assert f"{flag} needs finite" in capsys.readouterr().err
    assert set_ups == []


# (lambda, beta) of each row of `sweep --samples 3` at the default ranges,
# lambda-major, and the status and outer_iters of those rows on the bundled
# problems at their own resolution (None where no run was made)
SWEEP_POINTS = [(lam, beta) for lam in (0.1, 1.05, 2.0)
                for beta in (0.1, 1.05, 2.0)]
SWEEP_OUTER_ITERS = {
    "sub": (12, 15, 15, 7, 11, 12, 6, 10, 11),
    "super": (2, 3, 3, 3, 4, 5, 4, 5, 6),
    "critical": (6, 12, 17, 6, 12, 17, 6, 12, 17),
    "degenerate": (2, 2, 2, 2, 2, 2, 2, 2, 2),
    "square2d": (11, 14, 14, 8, 11, 12, 7, 9, 10),
    "steep": (3, 3, 3, 3, 5, 5, 4, 6, None),
    "steep2d": (6, 6, 6, 6, 7, 7, 6, 7, 7),
}
SWEEP_STATUS = {name: ("converged",) * len(SWEEP_POINTS)
                for name in SWEEP_OUTER_ITERS}
# b > p: the region lambda^(r-p) beta^(p-q) <= K leaves out (2, 2)
SWEEP_STATUS["steep"] = ("converged",) * 8 + ("out_of_region",)
# pde_residual of the same rows, as recorded; a change that only makes the
# solver faster may move each by at most PDE_RESIDUAL_MOVE (absolute)
SWEEP_PDE_RESIDUAL = {
    "sub": (6.077142955529524e-11, 1.5859140112262082e-09,
            6.292548260233843e-09, 3.183647789839483e-11,
            3.766130962645775e-09, 1.2320817699418285e-08,
            3.644695656390695e-11, 1.4178058727054577e-09,
            7.189124406892233e-09),
    "super": (4.94320296501316e-15, 5.36114447106939e-13,
              4.787836793695988e-16, 4.517275442594837e-12,
              3.7155320486981225e-11, 6.694103604765189e-12,
              2.0389800958753312e-12, 6.302252608669789e-10,
              8.294492870319914e-10),
    "critical": (8.429173158075454e-13, 2.5572749213359502e-12,
                 1.743325145700525e-11, 9.294619240929336e-11,
                 2.819489086647309e-10, 1.9219618119237225e-09,
                 3.3718466907473044e-10, 1.0229383451410001e-09,
                 6.973130073362199e-09),
    "degenerate": (3.757411048965764e-15, 3.757411048965764e-15,
                   3.757411048965764e-15, 1.0913492332065289e-13,
                   1.0913492332065289e-13, 1.0913492332065289e-13,
                   5.153655280309977e-13, 5.153655280309977e-13,
                   5.153655280309977e-13),
    "square2d": (5.687224996497875e-11, 1.6044142958637764e-09,
                 6.7782557344742145e-09, 3.928629643823456e-11,
                 6.37813413195687e-10, 1.944489236294089e-09,
                 4.6247228269180596e-10, 4.220069849125707e-09,
                 8.726759981314558e-09),
    "steep": (1.6471025932052186e-13, 4.336808689942018e-15,
              9.090818375856458e-15, 5.327582819347754e-11,
              3.1841751457761802e-12, 8.127376549538212e-11,
              1.6577406114492987e-11, 1.4417966820445827e-10, None),
    "steep2d": (4.353474438584248e-11, 4.357701959695204e-11,
                4.361933470670154e-11, 1.4978489559780428e-09,
                4.4378611896433995e-11, 5.0776494120441384e-11,
                4.055211721976093e-09, 1.7062362633879502e-10,
                2.642681629083654e-10),
}
PDE_RESIDUAL_MOVE = 1.0e-9


@pytest.mark.parametrize("name", sorted(SWEEP_OUTER_ITERS))
def test_bundled_sweeps_keep_their_outcomes(name, tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--spec", str(bundled_problem_path(name)),
                 "--samples", "3", "--out", str(out)]) == 0
    rows = SweepResult.read(out).rows
    assert [(row.lam, row.beta, row.status, row.converged, row.outer_iters)
            for row in rows] \
        == [(lam, beta, status, status == "converged", k)
            for (lam, beta), status, k in zip(SWEEP_POINTS, SWEEP_STATUS[name],
                                             SWEEP_OUTER_ITERS[name],
                                             strict=True)]
    for row, recorded in zip(rows, SWEEP_PDE_RESIDUAL[name], strict=True):
        if recorded is None:
            assert row.pde_residual is None, (row.lam, row.beta)
        else:
            assert abs(row.pde_residual - recorded) <= PDE_RESIDUAL_MOVE, \
                (row.lam, row.beta)


def test_sweep_set_up_solves_each_distinct_field_once(monkeypatch, tmp_path):
    # sub's weights are all 1, so its eight probes and two torsion weights
    # are four distinct fields; the eigen start, omega1's torsion, is one of
    # them
    cold = []
    original = plap.solve_plap_dirichlet

    def counted(grid, p, g, *args, **kwargs):
        cold.append(g.values.tobytes())
        return original(grid, p, g, *args, **kwargs)

    monkeypatch.setattr(plap, "solve_plap_dirichlet", counted)
    assert main(["sweep", "--spec", SUB, "--n", "17", "--samples", "2",
                 "--out", str(tmp_path / "sweep.csv")]) == 0
    assert len(cold) == len(set(cold)) == 4


def test_solve_set_up_solves_each_distinct_field_once(monkeypatch):
    # as for sweep: the eigen start reads omega1's torsion from the
    # constants' map, and outer_fixed_point makes no cold solve of its own
    cold = []
    original = plap.solve_plap_dirichlet

    def counted(grid, p, g, *args, **kwargs):
        cold.append(g.values.tobytes())
        return original(grid, p, g, *args, **kwargs)

    monkeypatch.setattr(plap, "solve_plap_dirichlet", counted)
    assert main(["solve", "--spec", SUB, "--n", "17", "--lambda", "1",
                 "--beta", "1"]) == 0
    assert len(cold) == len(set(cold)) == 4


def test_sweep_timings_go_to_stdout_not_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--spec", SUB, "--n", "17", "--samples", "2",
                 "--timings", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "timing total:" in printed
    assert "timing" not in out.read_text()


# ---------------------------------------------------------------------------
# eigen and torsion


def test_eigen_prints_classical_value(capsys):
    # p = 2 with unit weight at n = 257: lambda1 tracks pi^2 to 0.5%.
    spec = str(bundled_problem_path("critical"))  # p = 2, omega1 = 1
    assert main(["eigen", "--spec", spec, "--n", "257"]) == 0
    value = float(capsys.readouterr().out.strip())
    assert abs(value - np.pi ** 2) <= 0.005 * np.pi ** 2


def test_torsion_prints_closed_form_value(capsys, tmp_path):
    spec = str(bundled_problem_path("critical"))  # p = 2, weight one
    out = tmp_path / "phi.csv"
    assert main(["torsion", "--spec", spec, "--n", "257",
                 "--out", str(out)]) == 0
    value = float(capsys.readouterr().out.strip())
    assert abs(value - 0.125) <= 1e-4
    header, rows = read_csv(out)
    assert header == ["x1", "phi"]
    assert len(rows) == 257


def test_low_resolution_warns_but_runs(capsys):
    spec = str(bundled_problem_path("critical"))
    assert main(["torsion", "--spec", spec, "--n", "3"]) == 0
    captured = capsys.readouterr()
    assert "accuracy floor" in captured.err
    assert float(captured.out.strip()) > 0.0


def test_plap_log_env_controls_logger_level(monkeypatch):
    monkeypatch.setenv("PLAP_LOG", "debug")
    assert main(["torsion", "--spec", CRITICAL, "--n", "17"]) == 0
    assert logging.getLogger("plaplab").level == logging.DEBUG
    monkeypatch.setenv("PLAP_LOG", "error")
    assert main(["torsion", "--spec", CRITICAL, "--n", "17"]) == 0
    assert logging.getLogger("plaplab").level == logging.ERROR
