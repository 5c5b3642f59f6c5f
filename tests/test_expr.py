"""Expression language, problem specs, and problem-file loader tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plaplab.errors import ConfigurationError, ProblemFileError
from plaplab.expr import (
    BinOp,
    Call,
    EvalError,
    Neg,
    Num,
    ParseError,
    ProblemSpec,
    Var,
    bundled_problem_path,
    evaluate,
    evaluate_on,
    list_bundled_problems,
    load_problem,
    parse,
    sample_weights,
    validate_hypotheses,
)


# ---------------------------------------------------------------------------
# parsing


def test_precedence_and_associativity():
    assert evaluate(parse("2 + 3 * 4"), {}) == 14.0
    assert evaluate(parse("2 * 3 ^ 2"), {}) == 18.0
    assert evaluate(parse("2 ^ 3 ^ 2"), {}) == 512.0  # right-associative
    assert evaluate(parse("-3 ^ 2"), {}) == -9.0      # unary binds looser
    assert evaluate(parse("(2 + 3) * 4"), {}) == 20.0
    assert evaluate(parse("10 - 4 - 3"), {}) == 3.0   # left-associative


def test_functions_and_variables():
    out = evaluate(parse("min(x1, 2) + max(u, 0) + abs(0 - 3)"),
                   {"x1": 5.0, "u": -1.0})
    assert out == 5.0
    assert evaluate(parse("sin(0) + cos(0) + exp(0)"), {}) == 2.0


def test_parameter_names_are_expression_variables():
    e = parse("u ^ (q - 1) * p")
    assert evaluate(e, {"u": 4.0, "q": 1.5, "p": 2.0}) == 4.0


@pytest.mark.parametrize("src,fragment", [
    ("x1 + + 2", "expected a value"),
    ("min(x1)", "takes 2 argument(s)"),
    ("bogus + 1", "unknown variable"),
    ("frob(x1)", "unknown function"),
    ("2 *", "expected a value"),
    ("(1 + 2", "expected ')'"),
    ("1 2", "unexpected"),
    ("", "end of input"),
])
def test_parse_errors_are_positioned(src, fragment):
    with pytest.raises(ParseError) as err:
        parse(src)
    assert fragment in str(err.value)
    assert err.value.line == 1


def test_multiline_error_reports_second_line():
    with pytest.raises(ParseError) as err:
        parse("1 +\n  bogus")
    assert err.value.line == 2


# ---------------------------------------------------------------------------
# printing


@pytest.mark.parametrize("src", [
    "x1 + u * gnorm",
    "(x1 + u) * gnorm",
    "min(x1, 2) ^ 2 + -3 * abs(u)",
    "2 ^ 3 ^ 2",
    "(2 ^ 3) ^ 2",
    "-(x1 + 1)",
    "u ^ (q - 1)",
])
def test_printer_emits_minimal_parentheses(src):
    assert str(parse(src)) == src


_leaf = st.one_of(
    st.floats(min_value=0.0, max_value=100.0,
              allow_nan=False, allow_infinity=False).map(Num),
    st.sampled_from(["x1", "x2", "u", "gnorm", "p", "q"]).map(Var),
)


def _combine(children):
    return st.one_of(
        st.tuples(st.sampled_from("+-*"), children, children).map(
            lambda t: BinOp(t[0], t[1], t[2])),
        children.map(Neg),
        st.tuples(st.sampled_from(["abs", "sin", "cos"]), children).map(
            lambda t: Call(t[0], (t[1],))),
        st.tuples(children, children).map(
            lambda t: Call("min", (t[0], t[1]))),
    )


@settings(max_examples=200, deadline=None)
@given(st.recursive(_leaf, _combine, max_leaves=12))
def test_printer_round_trips_through_parser(tree):
    assert parse(str(tree)) == tree


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_on_broadcasts_arrays():
    xs = np.linspace(0.0, 1.0, 5)
    out = evaluate_on(parse("2 * x1 + 1"), {"x1": xs})
    assert np.allclose(out, 2 * xs + 1)


@pytest.mark.parametrize("src,bindings,fragment", [
    ("1 / (u - 1)", {"u": np.array([1.0])}, "division by zero"),
    ("u ^ (0 - 0.5)", {"u": np.array([0.0])}, "zero raised to a negative"),
    ("(0 - u) ^ 0.5", {"u": np.array([2.0])}, "negative base"),
    ("exp(u)", {"u": np.array([1e6])}, "non-finite"),
])
def test_evaluation_guards_name_the_subexpression(src, bindings, fragment):
    with pytest.raises(EvalError) as err:
        evaluate_on(parse(src), bindings)
    assert fragment in str(err.value)


def test_evaluate_requires_bindings():
    with pytest.raises(EvalError):
        evaluate(parse("x1 + 1"), {})


# ---------------------------------------------------------------------------
# problem specs


def make_spec(**overrides):
    base = dict(p=2.5, q=1.5, a=0.2, b=0.2,
                omega1="1", omega2="1", omega3="1",
                h="u ^ (q - 1)", f="u ^ a * gnorm ^ b",
                extents=(0.0, 1.0), resolution=65)
    base.update(overrides)
    return ProblemSpec(**base)


def test_spec_normalizes_and_derives_r():
    spec = make_spec()
    assert spec.extents == ((0.0, 1.0),)
    assert spec.resolution == (65,)
    assert spec.r == pytest.approx(1.4)
    assert spec.build_grid().shape == (65,)


@pytest.mark.parametrize("overrides", [
    dict(p=1.0),                 # p must exceed 1
    dict(q=0.9),                 # q must exceed 1
    dict(q=2.5),                 # q must stay below p
    dict(a=0.0),
    dict(b=-1.0),
    dict(omega1="u + 1"),        # weights cannot depend on the state
    dict(omega2="gnorm"),
    dict(h="gnorm"),             # h cannot see the gradient
    dict(f="x2"),                # no second coordinate on a 1d box
])
def test_spec_rejects_bad_fields(overrides):
    with pytest.raises(ConfigurationError):
        make_spec(**overrides)


def test_spec_2d_allows_second_coordinate():
    spec = make_spec(extents=((0.0, 1.0), (0.0, 1.0)), resolution=(9, 9),
                     omega2="1 + x2", h="(1 + 0.5 * x2) * u ^ (q - 1)")
    assert spec.build_grid().dimension == 2


def test_sample_weights_cached_and_clamped():
    # A weight that dips below zero only at rounding scale must come back
    # clamped to exact zero; real negatives are left for validation to flag.
    spec = make_spec(omega1="0 - x1 * 1e-15")
    grid = spec.build_grid()
    first = sample_weights(spec, grid)
    again = sample_weights(spec, grid)
    assert first is again  # lru cache hit
    assert np.all(first[0].values == 0.0)
    assert np.all(first[1].values == 1.0)


def test_validate_hypotheses_passes_for_bundled_style_spec():
    report = validate_hypotheses(make_spec())
    assert report.passed
    assert report.worst_violation == 0.0
    assert report.summary() == "pass"


def test_validate_hypotheses_flags_too_small_h():
    # omega1 = 1 but h = u^(q-1)/2 undercuts the lower growth bound.
    report = validate_hypotheses(make_spec(h="0.5 * u ^ (q - 1)"))
    assert not report.passed
    assert report.worst_violation > 0.0
    assert "omega1" in report.check
    assert report.u is not None
    assert "FAIL" in report.summary()


def test_validate_hypotheses_flags_oversized_f():
    report = validate_hypotheses(make_spec(f="2 * u ^ a * gnorm ^ b"))
    assert not report.passed
    assert "omega3" in report.check


def test_validate_hypotheses_finds_a_violation_at_one_gnorm_sample():
    # f exceeds its bound only above gnorm = 9.9, i.e. at the last sample
    report = validate_hypotheses(
        make_spec(f="u ^ a * gnorm ^ b * (1 + max(0, gnorm - 9.9))"))
    assert not report.passed
    assert "omega3" in report.check
    assert report.gnorm == 10.0


# ---------------------------------------------------------------------------
# problem files


def test_bundled_problems_all_load_and_validate():
    names = list_bundled_problems()
    assert {"sub", "super", "critical", "degenerate", "square2d"} <= set(names)
    for name in names:
        spec = load_problem(bundled_problem_path(name))
        assert validate_hypotheses(spec).passed, name


def test_load_problem_reads_values(tmp_path):
    path = tmp_path / "demo.plap"
    path.write_text(
        "# a comment line\n"
        "p = 2.5\nq = 1.5\na = 0.2\nb = 0.2\n"
        'omega1 = "1"  # trailing comment\n'
        'omega2 = "1 + x1 * (1 - x1)"\n'
        'omega3 = "1"\n'
        'h = "u ^ (q - 1)"\n'
        'f = "0"\n'
        "domain = [0, 2]\n"
        "resolution = 33\n")
    spec = load_problem(path)
    assert spec.p == 2.5
    assert spec.extents == ((0.0, 2.0),)
    assert spec.resolution == (33,)
    assert str(spec.omega2) == "1 + x1 * (1 - x1)"


def test_load_problem_hash_inside_quotes_is_content(tmp_path):
    path = tmp_path / "demo.plap"
    path.write_text(
        "p = 2.5\nq = 1.5\na = 0.2\nb = 0.2\n"
        'omega1 = "1"\nomega2 = "1"\nomega3 = "1"\n'
        'h = "u ^ (q - 1)"\nf = "0"\n'
        "domain = [0, 1]\nresolution = 17\n")
    spec = load_problem(path)
    assert spec.resolution == (17,)


@pytest.mark.parametrize("mutation,fragment", [
    (("p = 2.5", ""), "missing"),
    (("q = 1.5", "q = 1.5\nq = 1.5"), "duplicate"),
    (("resolution = 129", "resolution = 129\nextra = 1"), "unknown"),
    (("domain = [0, 1]", "domain = [0 1]"), "interval"),
    (("resolution = 129", "resolution = maybe"), "resolution"),
    (("domain = [0, 1]", "domain = [0, 1] x [0, 1]"), "dimension"),
    (('h = "u ^ (q - 1)"', "h = u ^ (q - 1)"), "quoted"),
])
def test_load_problem_structural_errors(tmp_path, mutation, fragment):
    source = (bundled_problem_path("sub")).read_text()
    old, new = mutation
    path = tmp_path / "broken.plap"
    path.write_text(source.replace(old, new))
    with pytest.raises(ProblemFileError) as err:
        load_problem(path)
    assert fragment in str(err.value).lower()


def test_load_problem_expression_error_carries_line(tmp_path):
    source = bundled_problem_path("sub").read_text()
    path = tmp_path / "broken.plap"
    path.write_text(source.replace('h = "u ^ (q - 1)"', 'h = "u ^ ("'))
    with pytest.raises(ProblemFileError) as err:
        load_problem(path)
    assert err.value.line is not None
    assert str(path) in str(err.value)


def test_load_problem_missing_file():
    with pytest.raises(ProblemFileError) as err:
        load_problem("/no/such/file.plap")
    assert "/no/such/file.plap" in str(err.value)
