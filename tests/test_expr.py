"""Expression language, problem specs, and problem-file loader tests."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plaplab.errors import (
    ConfigurationError,
    HypothesisViolationError,
    ProblemFileError,
)
from plaplab.expr import (
    PARAMETER_NAMES,
    U_SAMPLES,
    BinOp,
    Call,
    EvalError,
    GrowthViolation,
    HypothesisReport,
    Neg,
    Num,
    ParseError,
    ProblemSpec,
    Var,
    bundled_problem_path,
    check_growth,
    evaluate,
    evaluate_on,
    list_bundled_problems,
    load_problem,
    parse,
    sample_weights,
    validate_hypotheses,
)
from plaplab.grid import build_grid, field_from_function
from plaplab.scheme import freeze_nonlinearity

from oracles import evaluate_tree, screen_per_sample


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
    # digits to str.isdigit, but not to float
    ("2\u00b2", "unexpected character '\u00b2' (line 1, column 2)"),
    ("1\u2460", "unexpected character '\u2460' (line 1, column 2)"),
])
def test_parse_errors_are_positioned(src, fragment):
    with pytest.raises(ParseError) as err:
        parse(src)
    assert fragment in str(err.value)
    assert err.value.line == 1


@settings(max_examples=500, deadline=None)
@given(st.text(st.one_of(st.sampled_from("0123456789.eE+-*/^(), x1u"),
                         st.characters()), max_size=12))
def test_parse_raises_nothing_but_parse_error(source):
    try:
        parse(source)
    except ParseError:
        pass


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
    st.sampled_from(["x1", "x2", "u", "gnorm", *PARAMETER_NAMES]).map(Var),
)


def _combine(children):
    return st.one_of(
        st.tuples(st.sampled_from("+-*/^"), children, children).map(
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


# values that make every domain test fire somewhere: zeros of both signs,
# negatives, fractions and integers
_value = st.sampled_from([0.0, -0.0, 0.5, -1.0, 2.0, -2.5, 3.0, 1.0e-3])
_array = st.one_of(
    st.lists(_value, min_size=3, max_size=3).map(np.array),
    st.lists(_value, min_size=2, max_size=2).map(
        lambda v: np.array(v).reshape(2, 1)))
# parameters bound to numbers are folded; to arrays, or unbound, they are not
_bindings = st.tuples(
    st.fixed_dictionaries({name: st.one_of(_value, _array)
                           for name in ("x1", "x2", "u", "gnorm")}),
    st.fixed_dictionaries({name: st.one_of(_value, _value, _array)
                           for name in PARAMETER_NAMES}),
    st.sets(st.sampled_from(["x1", "u", "q"]), max_size=1),
).map(lambda t: {k: v for k, v in {**t[0], **t[1]}.items() if k not in t[2]})


def _outcome(evaluator, expr, bindings):
    """The value, or the EvalError message."""
    try:
        return evaluator(expr, bindings)
    except EvalError as exc:
        return str(exc)


# half of the trees are a power of two small ones, so that folded exponents
# often meet zero and negative bases
_small = st.recursive(_leaf, _combine, max_leaves=3)
_trees = st.one_of(
    st.recursive(_leaf, _combine, max_leaves=12),
    st.tuples(_small, _small).map(lambda t: BinOp("^", t[0], t[1])))


@settings(max_examples=400, deadline=None)
@given(_trees, _bindings, _bindings)
def test_compiled_evaluation_is_the_tree_walk_bit_for_bit(tree, first, second):
    # first again, after second: a cached program must not keep the
    # parameters of the last call
    for bindings in (first, second, first):
        want = _outcome(evaluate_tree, tree, bindings)
        got = _outcome(evaluate_on, tree, bindings)
        if isinstance(want, str):
            assert got == want
        else:
            assert isinstance(got, np.ndarray)
            assert got.shape == want.shape
            assert np.array_equal(got, want)
            assert got.tobytes() == want.tobytes()  # the signs of zeros too


@pytest.mark.parametrize("source,message", [
    ("u + 1 / 0", "division by zero in '1 / 0'"),
    ("u + 0 ^ -1", "zero raised to a negative power in '0 ^ -1'"),
    ("u + (0 - 8) ^ (1 / 3)",
     "negative base with fractional exponent in '(0 - 8) ^ (1 / 3)'"),
    ("u / (q - 1.5)", "division by zero in 'u / (q - 1.5)'"),
    ("u * (2.5 - p) ^ (0 - a)",
     "zero raised to a negative power in '(2.5 - p) ^ (0 - a)'"),
    ("u ^ (q - 1) * (b - a - 1) ^ (q - 1)",
     "negative base with fractional exponent in '(b - a - 1) ^ (q - 1)'"),
])
def test_a_folded_subtree_raises_only_when_evaluated(source, message):
    spec = make_spec(h=source)  # parsing and the spec raise nothing
    bindings = {**spec.coordinate_bindings(spec.build_grid()),
                "u": np.linspace(0.5, 1.0, 65)}
    assert _outcome(evaluate_tree, spec.h, bindings) == message
    for _ in range(2):  # and it raises on every call, not only the first
        with pytest.raises(EvalError) as err:
            evaluate_on(spec.h, bindings)
        assert str(err.value) == message


def test_a_folded_result_belongs_to_the_caller():
    expr = parse("q")
    out = evaluate_on(expr, {"q": 1.5})
    out[...] = 7.0
    assert evaluate_on(expr, {"q": 1.5}) == 1.5
    assert evaluate_on(expr, {"q": -0.0}).tobytes() == np.float64(-0.0).tobytes()


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


def test_spec_rejects_three_axes_that_the_grid_accepts():
    extents = ((0.0, 1.0),) * 3
    assert build_grid(extents, 5).dimension == 3
    with pytest.raises(ConfigurationError, match="3 axes"):
        make_spec(extents=extents, resolution=(5, 5, 5))


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


def _screen_outcome(screen, spec):
    try:
        return screen(spec)
    except EvalError as exc:
        return str(exc)


def _bundled(name, resolution=None, exponents=None):
    spec = load_problem(bundled_problem_path(name))
    if resolution is not None:
        spec = dataclasses.replace(spec, resolution=resolution)
    if exponents is not None:
        spec = dataclasses.replace(spec, p=exponents[0], q=exponents[1])
    return spec


def _square(**overrides):
    return make_spec(**{"extents": ((0.0, 1.0), (0.0, 1.0)),
                        "resolution": (9, 33), **overrides})


_X1_X2 = dict(omega3="1 + x1 * x2", resolution=(17, 17),
              f="(1 + x1 * x2) * u ^ a * gnorm ^ b"
                " * (1 + max(0, gnorm - 9.9))")

# (spec, the outcome's kind: "pass", the failed check, or "EvalError")
_SCREEN_CASES = {
    **{f"{name}-own": (lambda name=name: _bundled(name), "pass")
       for name in ("critical", "degenerate", "square2d", "steep", "steep2d",
                    "sub", "super")},
    **{f"{name}-2049": (lambda name=name: _bundled(name, (2049,)), "pass")
       for name in ("critical", "degenerate", "steep", "sub", "super")},
    **{f"{name}-65x65": (lambda name=name: _bundled(name, (65, 65)), "pass")
       for name in ("square2d", "steep2d")},  # their own resolution is 33x33
    **{f"square2d-65x65-p{p}-q{q}": (
        lambda p=p, q=q: _bundled("square2d", (65, 65), (p, q)), "pass")
       for p, q in ((1.5, 1.2), (4.0, 1.5))},
    "h-too-small": (lambda: make_spec(h="0.5 * u ^ (q - 1)"),
                    "omega1*u^(q-1) <= h"),
    "f-too-large": (lambda: make_spec(f="2 * u ^ a * gnorm ^ b"),
                    "f <= omega3*u^a*gnorm^b"),
    "f-negative": (lambda: make_spec(f="0 - u * gnorm"), "f >= 0"),
    "one-gnorm-sample": (
        lambda: make_spec(f="u ^ a * gnorm ^ b * (1 + max(0, gnorm - 9.9))"),
        "f <= omega3*u^a*gnorm^b"),
    # worst at an interior state, in the second of three batches of 9
    "x2-only": (lambda: _square(
        h="u ^ (q - 1) * (1 + x2 * max(0, 1 - abs(u - 1)))"),
        "h <= omega2*u^(q-1)"),
    "x2-only-pass": (lambda: _square(omega2="1 + x2 * (1 - x2)",
                                     h="(1 + 0.5 * x2 * (1 - x2)) * u ^ (q - 1)"),
                     "pass"),
    "x1-x2": (lambda: _square(**_X1_X2), "f <= omega3*u^a*gnorm^b"),
    "x1-x2-pass": (lambda: _square(omega3="1 + x1 * x2", resolution=(17, 17),
                                   f="(1 + x1 * x2) * u ^ a * gnorm ^ b"),
                   "pass"),
    "weight-negative-at-one-node": (
        lambda: make_spec(omega1="min(1, 64 * x1 - 0.5)"), "omega1 >= 0"),
    "weight-negative-and-f-too-large": (
        lambda: make_spec(omega3="min(1, 64 * x1 - 0.5)"),
        "f <= omega3*u^a*gnorm^b"),
    # gnorm^400 overflows where omega3 = 0, and 0 * inf would put nans among
    # the f bound's excesses; both screens take the bound as 0 there, so f
    # breaks it at node 0
    "nan-among-the-excesses": (
        lambda: make_spec(omega3="x1", b=400.0, f="gnorm"),
        "f <= omega3*u^a*gnorm^b"),
    "domain-error-at-the-first-state": (
        lambda: make_spec(h="(u - 1) ^ 0.5"), "EvalError"),
    "domain-error-in-f-at-a-later-state": (
        lambda: make_spec(f="u ^ a * gnorm ^ b * (3 - u) ^ 0.5"), "EvalError"),
    # the states above 5 trip the first guard, but the first state that
    # fails alone, above 0.5, trips the second
    "domain-error-named-by-its-own-state": (
        lambda: make_spec(h="u ^ (q - 1) + 0 * (5 - u) ^ 0.5"
                            " + 0 * (0.5 - u) ^ 0.5"), "EvalError"),
    "domain-error-x1-x2": (
        lambda: _square(**{**_X1_X2, "h": "(1 + 0 * x1 * x2) * (0.5 - u) ^ 0.5"}),
        "EvalError"),
    "non-finite": (lambda: make_spec(h="u ^ (q - 1) * exp(100 * u)"),
                   "EvalError"),
}


@pytest.mark.parametrize("case", sorted(_SCREEN_CASES))
def test_screen_matches_the_full_grid_screen_state_by_state(case):
    build, kind = _SCREEN_CASES[case]
    spec = build()
    want = _screen_outcome(screen_per_sample, spec)
    got = _screen_outcome(validate_hypotheses, spec)
    if kind == "EvalError":
        assert isinstance(want, str) and want.startswith("evaluating h and f")
    elif kind == "pass":
        assert want.passed
    else:
        assert want.check == kind
    assert got == want


def test_screen_f_bound_is_zero_where_omega3_is_zero_and_gnorm_b_overflows():
    # at node 0, omega3 = x1 = 0 and 10^400 overflows: the bound is 0, not
    # 0 * inf = nan, so f = gnorm breaks it by 10 at the first state
    report = validate_hypotheses(make_spec(omega3="x1", b=400.0, f="gnorm"))
    assert report == HypothesisReport(False, 10.0, "f <= omega3*u^a*gnorm^b",
                                      (0,), U_SAMPLES[0], 10.0)
    assert U_SAMPLES[0] == 0.001


def test_screen_error_names_the_state_that_fails_alone():
    want = f"evaluating h and f at u={U_SAMPLES[U_SAMPLES > 0.5][0]:.6g}"
    spec = _SCREEN_CASES["domain-error-named-by-its-own-state"][0]()
    with pytest.raises(EvalError, match=r"\(0\.5 - u\) \^ 0\.5") as err:
        validate_hypotheses(spec)
    assert str(err.value).startswith(want + ":")


def test_screen_peak_allocation_stays_within_the_full_grid_screen():
    # x1 * x2 reads every coordinate, so the screen takes one state at a time
    spec = _square(**{**_X1_X2, "resolution": (65, 65)})
    peaks = []
    for screen in (validate_hypotheses, screen_per_sample):
        screen(spec)  # sampled weights and compiled programs are cached
        tracemalloc.start()
        try:
            screen(spec)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1]


def _growth_case(u, **overrides):
    """check_growth's inputs on a 9-node grid: weights 1, the state u
    everywhere, gnorm 0, and h and f on their bounds u^(q-1) and 0."""
    spec = make_spec(resolution=9, **overrides)
    grid = spec.build_grid()
    u = np.full(grid.shape, u)
    growth = np.power(u, spec.q - 1.0)
    return (spec, [w.values for w in sample_weights(spec, grid)], u,
            np.zeros(grid.shape),
            growth.copy(), np.zeros(grid.shape), growth)


@pytest.mark.parametrize("u,excess,reported", [
    (1.0e4, 5.0e-11, False),  # over 1e-12, within the slack 1e-12 * 100
    (1.0e4, 2.0e-10, True),
    (0.0625, 2.0e-12, True),  # the slack of values below 1 is 1e-12
])
def test_growth_slack_is_relative_to_the_values(u, excess, reported):
    spec, weights, u, gnorm, h, f, growth = _growth_case(u)
    h[4] += excess
    found = check_growth(spec, weights, u, gnorm, h, f, growth)
    if not reported:
        assert found is None
    else:
        assert found.check == "h <= omega2*u^(q-1)"
        assert found.index == (4,)
        assert found.excess == pytest.approx(excess, rel=1e-3)


@pytest.mark.parametrize("broken,want", [
    ("hHfF", GrowthViolation("omega1*u^(q-1) <= h", 0.5, (6,), 1.0, 0.5)),
    ("HfF", GrowthViolation("h <= omega2*u^(q-1)", 0.5, (2,), 1.5, 1.0)),
    ("fF", GrowthViolation("f >= 0", 0.5, (1,), 0.5, 0.0)),
    ("F", GrowthViolation("f <= omega3*u^a*gnorm^b", 0.5, (3,), 0.5, 0.0)),
])
def test_growth_tie_reports_the_first_check_in_order(broken, want):
    # each broken check fails by exactly 0.5, at nodes out of the checks'
    # order; F fails at two nodes by as much, and names the first
    spec, weights, u, gnorm, h, f, growth = _growth_case(1.0)
    if "h" in broken:
        h[6] = 0.5
    if "H" in broken:
        h[2] = 1.5
    if "f" in broken:
        f[1] = -0.5
    if "F" in broken:
        f[3] = f[7] = 0.5
    assert check_growth(spec, weights, u, gnorm, h, f, growth) == want


def test_freeze_raises_where_h_breaks_its_upper_bound_at_one_node():
    # h exceeds omega2 u^(q-1) only where u > 0.99: the center node, u = 1
    spec = make_spec(h="u ^ (q - 1) * (1 + max(0, u - 0.99))", resolution=17)
    u = field_from_function(spec.build_grid(), lambda x: 4.0 * x * (1.0 - x))
    with pytest.raises(HypothesisViolationError) as err:
        freeze_nonlinearity(u, 1.0, 0.5, spec)
    assert "h <= omega2*u^(q-1)" in str(err.value)
    assert err.value.node == (8,)
    assert err.value.values == {"u": 1.0, "gnorm": 0.0, "lhs": 1.01, "rhs": 1.0}


def test_freeze_raises_where_omega3_is_zero_and_gnorm_b_overflows():
    # omega3 = x1 is 0 at node 0, where gnorm = 10 and 10^400 overflows: the
    # f bound is 0 there, not 0 * inf = nan, so f = gnorm breaks it by about
    # 10, more than anywhere else (elsewhere the bound is +inf where gnorm^b
    # overflows, and f < 1 where it does not exceed its bound)
    spec = make_spec(omega3="x1", b=400.0, f="gnorm", resolution=17)
    u = field_from_function(spec.build_grid(),
                            lambda x: 1.0 + 10.0 * x * (1.0 - x))
    with pytest.raises(HypothesisViolationError) as err:
        freeze_nonlinearity(u, 1.0, 1.0, spec)
    assert "f <= omega3*u^a*gnorm^b" in str(err.value)
    assert err.value.node == (0,)
    values = err.value.values
    assert values["u"] == 1.0 and values["rhs"] == 0.0
    assert values["lhs"] == values["gnorm"] == pytest.approx(10.0, rel=1e-12)


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
