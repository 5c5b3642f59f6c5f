"""Expression language for problem data, and the problem files built on it.

Weights and nonlinearities are entered as small arithmetic expressions over a
fixed variable catalog:

    x1, x2   node coordinates (x2 only on 2d domains)
    u        the state value
    gnorm    the gradient magnitude |grad u|
    p q a b r  the problem parameters, bound automatically by ProblemSpec

Grammar, loosest to tightest binding::

    expr   := term (("+" | "-") term)*
    term   := unary (("*" | "/") unary)*
    unary  := "-" unary | power
    power  := atom ("^" unary)?          right-associative
    atom   := NUMBER | IDENT | IDENT "(" expr ("," expr)* ")" | "(" expr ")"

so ``-x^2`` is ``-(x^2)`` and ``2^3^2`` is ``2^(3^2)``.  Functions: abs, exp,
sin, cos (one argument) and min, max (two).  Unknown identifiers are rejected
at parse time with a position; runtime problems (division by zero, fractional
powers of negatives, overflow to non-finite values) raise EvalError.
Each expression is compiled once per problem, with its parameters
substituted and its constant subtrees folded, and keeps every guard that can
fire: the finite check and the division test always, and a power's
zero-base test unless its exponent is a constant of at least 0, its
negative-base test unless the exponent is an integer constant.

A problem file is flat ``key = value`` text with keys p, q, a, b, omega1,
omega2, omega3, h, f, domain, resolution; expressions are double-quoted,
``domain`` is ``[lo, hi]`` (optionally ``x [lo, hi]`` for 2d) and
``resolution`` a node count (or ``n1 x n2``).  ``#`` starts a comment.
"""

from __future__ import annotations

import functools
import importlib.resources
import operator
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, PlapLabError, ProblemFileError
from .grid import Grid, ScalarField, build_grid

FUNCTIONS = {"abs": 1, "exp": 1, "sin": 1, "cos": 1, "min": 2, "max": 2}
PARAMETER_NAMES = ("p", "q", "a", "b", "r")
VARIABLE_NAMES = frozenset({"x1", "x2", "u", "gnorm"}) | frozenset(PARAMETER_NAMES)


class ParseError(PlapLabError):
    """Syntax error in an expression, with 1-based line/column."""

    def __init__(self, message, line, column):
        self.line = line
        self.column = column
        super().__init__(f"{message} (line {line}, column {column})")


class EvalError(PlapLabError):
    """An expression evaluated to something undefined or non-finite."""


# --------------------------------------------------------------------------
# AST


class Expr:
    """Base node.  Subclasses are immutable and compare structurally."""

    _level = 5  # precedence level used by the printer; atoms bind tightest

    def variables(self) -> frozenset:
        """Names of all variables appearing in this expression."""
        out = set()
        _collect_vars(self, out)
        return frozenset(out)

    def __str__(self):
        return _render(self)


@dataclass(frozen=True)
class Num(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Neg(Expr):
    operand: Expr
    _level = 3


@dataclass(frozen=True)
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr

    @property
    def _level(self):  # type: ignore[override]
        return {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}[self.op]


@dataclass(frozen=True)
class Call(Expr):
    func: str
    args: tuple


def _collect_vars(node, out):
    if isinstance(node, Var):
        out.add(node.name)
    elif isinstance(node, Neg):
        _collect_vars(node.operand, out)
    elif isinstance(node, BinOp):
        _collect_vars(node.left, out)
        _collect_vars(node.right, out)
    elif isinstance(node, Call):
        for arg in node.args:
            _collect_vars(arg, out)


def _node_level(node):
    # negative literals print with a leading '-', so bind like a unary minus
    if isinstance(node, Num) and node.value < 0:
        return 3
    return node._level


def _render(node, floor=0):
    """Print with the fewest parentheses that still re-parse to the same AST."""
    if isinstance(node, Num):
        text = repr(node.value)
        if text.endswith(".0"):
            text = text[:-2]
    elif isinstance(node, Var):
        text = node.name
    elif isinstance(node, Neg):
        text = "-" + _render(node.operand, 3)
    elif isinstance(node, Call):
        text = node.func + "(" + ", ".join(_render(a) for a in node.args) + ")"
    elif isinstance(node, BinOp):
        if node.op == "^":
            # right-associative: parenthesize a compound left, not the right
            text = _render(node.left, 5) + " ^ " + _render(node.right, 3)
        else:
            lvl = node._level
            text = (_render(node.left, lvl) + f" {node.op} "
                    + _render(node.right, lvl + 1))
    else:  # pragma: no cover - exhaustive over node types
        raise TypeError(f"not an Expr node: {node!r}")
    if _node_level(node) < floor:
        text = "(" + text + ")"
    return text


# --------------------------------------------------------------------------
# Lexing and parsing


_SYMBOLS = "+-*/^(),"


@dataclass(frozen=True)
class _Token:
    kind: str  # "num", "ident", one of _SYMBOLS, or "end"
    text: str
    offset: int


def _line_col(source, offset):
    line = source.count("\n", 0, offset) + 1
    last_nl = source.rfind("\n", 0, offset)
    return line, offset - last_nl  # column is 1-based


def _tokenize(source):
    tokens = []
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        if c in _SYMBOLS:
            tokens.append(_Token(c, c, i))
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            if j < n and source[j] == ".":
                j += 1
                while j < n and source[j].isdigit():
                    j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    j = k
                    while j < n and source[j].isdigit():
                        j += 1
                else:
                    line, col = _line_col(source, j)
                    raise ParseError("malformed exponent in number", line, col)
            tokens.append(_Token("num", source[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(_Token("ident", source[i:j], i))
            i = j
            continue
        line, col = _line_col(source, i)
        raise ParseError(f"unexpected character {c!r}", line, col)
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, source):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message, token):
        line, col = _line_col(self.source, token.offset)
        raise ParseError(message, line, col)

    def expect(self, kind):
        tok = self.peek()
        if tok.kind != kind:
            what = repr(tok.text) if tok.kind != "end" else "end of input"
            self.fail(f"expected {kind!r}, found {what}", tok)
        return self.advance()

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            self.fail(f"unexpected trailing {tok.text!r}", tok)
        return node

    def expr(self):
        node = self.term()
        while self.peek().kind in "+-":
            op = self.advance().kind
            node = BinOp(op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek().kind in "*/":
            op = self.advance().kind
            node = BinOp(op, node, self.unary())
        return node

    def unary(self):
        if self.peek().kind == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self):
        node = self.atom()
        if self.peek().kind == "^":
            self.advance()
            node = BinOp("^", node, self.unary())
        return node

    def atom(self):
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Num(float(tok.text))
        if tok.kind == "(":
            self.advance()
            node = self.expr()
            self.expect(")")
            return node
        if tok.kind == "ident":
            self.advance()
            if self.peek().kind == "(":
                if tok.text not in FUNCTIONS:
                    self.fail(f"unknown function {tok.text!r}", tok)
                self.advance()
                args = [self.expr()]
                while self.peek().kind == ",":
                    self.advance()
                    args.append(self.expr())
                self.expect(")")
                arity = FUNCTIONS[tok.text]
                if len(args) != arity:
                    self.fail(f"{tok.text} takes {arity} argument(s), got {len(args)}",
                              tok)
                return Call(tok.text, tuple(args))
            if tok.text not in VARIABLE_NAMES:
                self.fail(f"unknown variable {tok.text!r}", tok)
            return Var(tok.text)
        what = repr(tok.text) if tok.kind != "end" else "end of input"
        self.fail(f"expected a value, found {what}", tok)


def parse(source: str) -> Expr:
    """Parse ``source`` into an expression tree.

    Raises:
        ParseError: on any syntax problem, carrying line and column.
    """
    return _Parser(source).parse()


# --------------------------------------------------------------------------
# Evaluation
#
# An expression is compiled, once per set of numeric parameter values, into
# nested closures of the bindings, one per node.  Every subtree that reads no
# other variable is folded to the value a plain tree walk gives it, so what
# is left to run are the numpy calls on varying operands, in the walk's
# order.  A constant subtree that raises is left unfolded, to raise when it
# is evaluated.


_FUNCTIONS = {"abs": np.abs, "exp": np.exp, "sin": np.sin, "cos": np.cos,
              "min": np.minimum, "max": np.maximum}
_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul}
_VARIES = object()  # stands for the value of a subtree that is not constant


def evaluate_on(expr: Expr, bindings) -> np.ndarray:
    """Evaluate over numpy arrays (broadcasting), with domain checks.

    Division by zero, ``0^negative``, fractional powers of negative numbers,
    and non-finite results all raise :class:`EvalError` naming the offending
    subexpression.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        result = _program(expr, bindings)(bindings)
    if not np.isfinite(result).all():
        raise EvalError(f"non-finite value while evaluating '{expr}'")
    return np.asarray(result, dtype=float)


def evaluate(expr: Expr, bindings) -> float:
    """Scalar evaluation; e.g. u^(q-1) at u=4, q=1.5 gives 2."""
    return float(evaluate_on(expr, {k: float(v) for k, v in bindings.items()}))


def _program(expr, bindings):
    """expr compiled with the parameters that bindings binds to numbers."""
    # hex keeps -0.0 and 0.0 apart, which compare equal
    params = []
    for name in PARAMETER_NAMES:
        value = bindings.get(name)
        if isinstance(value, float):
            params.append((name, value.hex()))
    return _compiled(expr, tuple(params))


@functools.lru_cache(maxsize=256)
def _compiled(expr, params):
    """The program of expr for the parameter values given as (name,
    float.hex()) pairs.  Equal trees share one, so a problem loaded again
    compiles nothing (Num(-0.0) equals Num(0.0), but the parser never builds
    a negative Num)."""
    return _compile(expr, {name: np.float64(float.fromhex(value))
                           for name, value in params})[0]


def _constant(value):
    return (lambda b: value), value


def _folded(run, *values):
    """(run, _VARIES), or (a closure returning it, run's value) when every
    operand is constant and run does not raise on them."""
    if any(value is _VARIES for value in values):
        return run, _VARIES
    try:
        return _constant(run({}))
    except EvalError:
        return run, _VARIES


def _compile(node, params):
    """(closure of the bindings, its constant value or _VARIES) of a node;
    params maps the substituted parameter names to their values."""
    if isinstance(node, Num):
        return _constant(np.float64(node.value))
    if isinstance(node, Var):
        if node.name in params:
            return _constant(params[node.name])
        name = node.name

        def variable(b):
            try:
                return np.asarray(b[name], dtype=float)
            except KeyError:
                raise EvalError(f"variable '{name}' is not bound here") from None
        return variable, _VARIES
    if isinstance(node, Neg):
        operand, value = _compile(node.operand, params)
        return _folded(lambda b: -operand(b), value)
    if isinstance(node, Call):
        fn = _FUNCTIONS[node.func]
        runs, values = zip(*(_compile(a, params) for a in node.args))
        return _folded(lambda b: fn(*[run(b) for run in runs]), *values)
    left, lval = _compile(node.left, params)
    right, rval = _compile(node.right, params)
    if node.op in _ARITHMETIC:
        op = _ARITHMETIC[node.op]
        run = lambda b: op(left(b), right(b))  # noqa: E731
    elif node.op == "/":
        def run(b):
            num, den = left(b), right(b)
            if (den == 0.0).any():
                raise EvalError(f"division by zero in '{node}'")
            return num / den
    else:
        run = _power(node, left, right, rval)
    return _folded(run, lval, rval)


def _power(node, left, right, rval):
    if rval is _VARIES:
        def power(b):
            base, exponent = left(b), right(b)
            _domain(node, ((base == 0.0) & (exponent < 0.0)).any(),
                    ((base < 0.0) & (np.floor(exponent) != exponent)).any())
            return np.power(base, exponent)
        return power
    # a folded exponent runs only the tests it can fail: a zero base fails a
    # negative one, a negative base one that is not an integer (or is a nan)
    zero_test, sign_test = bool(rval < 0.0), bool(np.floor(rval) != rval)

    def power_folded(b):
        base = left(b)
        _domain(node, zero_test and (base == 0.0).any(),
                sign_test and (base < 0.0).any())
        return np.power(base, rval)
    return power_folded


def _domain(node, zero_base, negative_base):
    if zero_base:
        raise EvalError(f"zero raised to a negative power in '{node}'")
    if negative_base:
        raise EvalError(f"negative base with fractional exponent in '{node}'")


# --------------------------------------------------------------------------
# Problem specification


def _check_slot(name, expression, allowed):
    extra = expression.variables() - allowed
    if extra:
        names = ", ".join(sorted(extra))
        raise ConfigurationError(f"{name} may not depend on: {names}")


@dataclass(frozen=True)
class ProblemSpec:
    """A full problem statement: exponents, weights, nonlinearities, domain.

    The growth exponent of the gradient term is ``r = a + b + 1``; it is
    always derived, never stored.  Expressions may use the parameter names
    p, q, a, b, r, which are bound to these numeric values at evaluation
    time.
    """

    p: float
    q: float
    a: float
    b: float
    omega1: Expr
    omega2: Expr
    omega3: Expr
    h: Expr
    f: Expr
    extents: tuple
    resolution: tuple

    def __post_init__(self):
        object.__setattr__(self, "p", float(self.p))
        object.__setattr__(self, "q", float(self.q))
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))
        if self.p <= 1.0:
            raise ConfigurationError(f"need p > 1, got p={self.p}")
        if not 1.0 < self.q < self.p:
            raise ConfigurationError(f"need 1 < q < p, got q={self.q}, p={self.p}")
        if self.a <= 0.0 or self.b <= 0.0:
            raise ConfigurationError(f"need a, b > 0, got a={self.a}, b={self.b}")
        probe = build_grid(self.extents, self.resolution)  # validates the box
        if probe.dimension > 2:
            raise ConfigurationError(f"need 1 or 2 axes, got {probe.dimension} axes")
        object.__setattr__(self, "extents", probe.extents)
        object.__setattr__(self, "resolution", probe.shape)
        for name in ("omega1", "omega2", "omega3", "h", "f"):
            slot = getattr(self, name)
            if isinstance(slot, str):  # accept source text for convenience
                object.__setattr__(self, name, parse(slot))
        coords = {f"x{k + 1}" for k in range(probe.dimension)}
        params = set(PARAMETER_NAMES)
        for name in ("omega1", "omega2", "omega3"):
            _check_slot(name, getattr(self, name), coords | params)
        _check_slot("h", self.h, coords | params | {"u"})
        _check_slot("f", self.f, coords | params | {"u", "gnorm"})

    @property
    def r(self) -> float:
        return self.a + self.b + 1.0

    def param_bindings(self) -> dict:
        return {"p": self.p, "q": self.q, "a": self.a, "b": self.b, "r": self.r}

    def build_grid(self) -> Grid:
        return build_grid(self.extents, self.resolution)

    def coordinate_bindings(self, grid: Grid) -> dict:
        return {**self.param_bindings(),
                **{f"x{k + 1}": m for k, m in enumerate(grid.meshes())}}


@functools.lru_cache(maxsize=32)
def sample_weights(spec: ProblemSpec, grid: Grid):
    """Sample (omega1, omega2, omega3) onto the grid, once per (spec, grid).

    Rounding-level negatives (above -1e-12) are clamped to zero; anything
    more negative survives for validate_hypotheses to report.
    """
    bindings = spec.coordinate_bindings(grid)
    out = []
    for name in ("omega1", "omega2", "omega3"):
        vals = np.broadcast_to(evaluate_on(getattr(spec, name), bindings),
                               grid.shape).copy()
        vals[(vals < 0.0) & (vals > -1.0e-12)] = 0.0
        out.append(ScalarField(grid, vals))
    return tuple(out)


@dataclass(frozen=True)
class HypothesisReport:
    """Outcome of checking the growth hypotheses by sampling.

    ``worst_violation`` is 0 when all checks pass; otherwise it is the largest
    margin by which an inequality failed, and check/node/u/gnorm locate it.
    """

    passed: bool
    worst_violation: float
    check: str | None = None
    node: tuple | None = None
    u: float | None = None
    gnorm: float | None = None

    def summary(self) -> str:
        if self.passed:
            return "pass"
        where = f" at node {self.node}"
        if self.u is not None:
            where += f", u={self.u:.6g}"
        if self.gnorm is not None:
            where += f", gnorm={self.gnorm:.6g}"
        return (f"FAIL: {self.check} violated by {self.worst_violation:.3e}{where}")


# Validation samples: log-spaced states in [1e-3, 10] and linear gradient
# magnitudes in [0, 10], a desk-scale range (freeze_nonlinearity checks the
# iterates' own values during a run).
U_SAMPLES = np.geomspace(1.0e-3, 10.0, 24)
GNORM_SAMPLES = np.linspace(0.0, 10.0, 24)


@dataclass(frozen=True)
class GrowthViolation:
    """The largest failure of one inequality lhs <= rhs: excess = lhs - rhs
    at ``index`` of the compared arrays."""

    check: str
    excess: float
    index: tuple
    lhs: float
    rhs: float


def _worst_excess(check, lhs, rhs) -> GrowthViolation | None:
    diff = np.subtract(lhs, rhs)
    if diff.max() <= 1.0e-12:  # within every slack below; a nan goes on
        return None
    lhs, rhs = np.broadcast_arrays(lhs, rhs)
    # slack scaled to the size of the quantities compared, not of their
    # difference
    bad = diff > 1.0e-12 * np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    if not np.any(bad):
        return None
    index = np.unravel_index(int(np.argmax(np.where(bad, diff, -np.inf))),
                             diff.shape)
    return GrowthViolation(check, float(diff[index]),
                           tuple(int(i) for i in index),
                           float(lhs[index]), float(rhs[index]))


def _worst(violations) -> GrowthViolation | None:
    return max((v for v in violations if v is not None),
               key=lambda v: v.excess, default=None)


def _growth_checks(spec: ProblemSpec, weights, u, gnorm, h, f, growth):
    """(check, lhs, rhs) of each growth hypothesis lhs <= rhs, in the order
    check_growth reports ties; f is broadcast against gnorm and u."""
    w1, w2, w3 = weights
    f = np.broadcast_to(f, np.broadcast_shapes(np.shape(f), np.shape(gnorm),
                                               np.shape(u)))
    f_bound = w3 * np.power(u, spec.a) * np.power(gnorm, spec.b)
    return (("omega1*u^(q-1) <= h", w1 * growth, h),
            ("h <= omega2*u^(q-1)", h, w2 * growth),
            ("f >= 0", -f, 0.0),
            ("f <= omega3*u^a*gnorm^b", f, f_bound))


def check_growth(spec: ProblemSpec, weights, u, gnorm, h, f, growth
                 ) -> GrowthViolation | None:
    """Largest failure of the growth hypotheses, or None when they hold:

        omega1 u^(q-1) <= h <= omega2 u^(q-1),   0 <= f <= omega3 u^a gnorm^b,

    each with 1e-12 relative slack.  h and f are h(x, u) and f(x, u, gnorm)
    as the caller evaluated them, growth is np.power(u, q - 1) and weights
    are the value arrays of sample_weights(spec, grid).  Arrays broadcast
    against the grid, leading sample axes allowed; the result's index is
    into the broadcast shape of the failing check (gnorm and u take part in
    the f checks' shape, the weights and growth in the h checks').

    A check fails where lhs - rhs exceeds 1e-12 * max(1, |lhs|, |rhs|), a
    slack never below 1e-12.  So a check whose largest lhs - rhs is at most
    1e-12 cannot fail, and it returns at once, without the slack array;
    only the others compute it, and the result is the same bit for bit.
    """
    return _worst(_worst_excess(*check)
                  for check in _growth_checks(spec, weights, u, gnorm, h, f,
                                              growth))


def validate_hypotheses(spec: ProblemSpec) -> HypothesisReport:
    """Check omega_i >= 0 and the growth hypotheses on sample states.

    The weights are checked at every node; h and f at every node for every
    state in U_SAMPLES and, for f, every gradient magnitude in GNORM_SAMPLES
    (see check_growth).  This is a screen before any solve; the iterates of
    a run are checked at their own values by freeze_nonlinearity.

    The growth checks run over the coordinate axes that omega1, omega2,
    omega3, h or f read.  Along any other axis every value is the same, bit
    for bit, so the meshes and weights are cut to its index 0; the first
    worst node in C order, which the report names, has index 0 there
    anyway.  The states are stacked on a leading axis, k = min(24, N // R)
    of them per evaluation, where N is the grid's node count and R the
    count left after the cut; so no array exceeds the 24 * N values of one
    state on the whole grid.  A problem that reads no coordinate takes all
    24 states in one pass; one that reads every coordinate takes them one
    at a time.  Each batch reports in the order of a loop over the states:
    the largest excess wins, a tie goes to the weights' check, then to the
    earlier state, then to the earlier check.  An EvalError names the first
    state whose h or f fails on its own.
    """
    grid = spec.build_grid()
    weights = [w.values for w in sample_weights(spec, grid)]
    worst = _worst(_worst_excess(f"{name} >= 0", -w, 0.0)
                   for name, w in zip(("omega1", "omega2", "omega3"), weights))

    read = frozenset().union(*(getattr(spec, name).variables()
                               for name in _EXPR_KEYS))
    cut = tuple(slice(None) if f"x{k + 1}" in read else slice(0, 1)
                for k in range(grid.dimension))
    weights = [w[cut] for w in weights]
    bindings = {**spec.param_bindings(),
                **{f"x{k + 1}": m[cut] for k, m in enumerate(grid.meshes())}}
    ones = (1,) * grid.dimension
    gnorm = GNORM_SAMPLES.reshape((1, -1) + ones)  # state, gnorm, grid axes
    batch = min(len(U_SAMPLES), grid.node_count() // weights[0].size)
    worst_u = None
    for first in range(0, len(U_SAMPLES), batch):
        states = U_SAMPLES[first:first + batch]
        u = states.reshape((-1, 1) + ones)
        h, f = _growth_terms(spec, bindings, u, gnorm)
        growth = np.power(u[:, 0], spec.q - 1.0)
        # a check that holds on the whole batch holds at every state; a nan
        # goes on, as in _worst_excess
        failing = [(check, *np.broadcast_arrays(lhs, rhs)) for check, lhs, rhs
                   in _growth_checks(spec, weights, u, gnorm, h, f, growth)
                   if not np.subtract(lhs, rhs).max() <= 1.0e-12]
        if not failing:
            continue
        for j, state in enumerate(states):
            found = _worst(_worst_excess(check, lhs[j], rhs[j])
                           for check, lhs, rhs in failing)
            if found is not None and (worst is None
                                      or found.excess > worst.excess):
                worst, worst_u = found, float(state)

    if worst is None:
        return HypothesisReport(True, 0.0)
    sample = worst.index[:-grid.dimension]  # the gnorm axis, f checks only
    return HypothesisReport(False, worst.excess, worst.check,
                            worst.index[-grid.dimension:], worst_u,
                            float(GNORM_SAMPLES[sample[0]]) if sample else None)


def _growth_terms(spec, bindings, u, gnorm):
    """h and f at the states u, stacked on the leading axis (h without the
    gnorm axis); an EvalError names the first state whose h or f fails when
    evaluated alone, with that evaluation's text."""
    try:
        return (evaluate_on(spec.h, {**bindings, "u": u[:, 0]}),
                evaluate_on(spec.f, {**bindings, "u": u, "gnorm": gnorm}))
    except EvalError as exc:
        if len(u) == 1:
            raise EvalError(
                f"evaluating h and f at u={u.flat[0]:.6g}: {exc}") from exc
        for j in range(len(u)):
            _growth_terms(spec, bindings, u[j:j + 1], gnorm)
        raise


# --------------------------------------------------------------------------
# Problem files


_NUMBER_KEYS = ("p", "q", "a", "b")
_EXPR_KEYS = ("omega1", "omega2", "omega3", "h", "f")
_ALL_KEYS = set(_NUMBER_KEYS) | set(_EXPR_KEYS) | {"domain", "resolution"}


def _strip_comment(line):
    quoted = False
    for i, c in enumerate(line):
        if c == '"':
            quoted = not quoted
        elif c == "#" and not quoted:
            return line[:i]
    return line


def _parse_domain(text, path, lineno):
    intervals = re.findall(r"\[([^\]]*)\]", text)
    leftover = re.sub(r"\[[^\]]*\]", "", text).replace("x", "").strip()
    if not intervals or len(intervals) > 2 or leftover:
        raise ProblemFileError("domain must be '[lo, hi]' or '[lo, hi] x [lo, hi]'",
                               path, lineno)
    extents = []
    for chunk in intervals:
        parts = [s.strip() for s in chunk.split(",")]
        if len(parts) != 2:
            raise ProblemFileError(f"bad interval '[{chunk}]'", path, lineno)
        try:
            extents.append((float(parts[0]), float(parts[1])))
        except ValueError:
            raise ProblemFileError(f"bad interval '[{chunk}]'", path, lineno) from None
    return tuple(extents)


def _parse_resolution(text, path, lineno):
    parts = [s.strip() for s in text.split("x")]
    try:
        return tuple(int(s) for s in parts)
    except ValueError:
        raise ProblemFileError(f"bad resolution '{text}'", path, lineno) from None


def load_problem(path) -> ProblemSpec:
    """Read a problem file into a :class:`ProblemSpec`.

    Raises:
        ProblemFileError: unreadable file, unknown/duplicate/missing keys,
            malformed values, or expression syntax errors (with line info).
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ProblemFileError(str(exc), path) from exc

    raw = {}
    lines = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = _strip_comment(line).strip()
        if not line:
            continue
        if "=" not in line:
            raise ProblemFileError(f"expected 'key = value', got '{line}'",
                                   path, lineno)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _ALL_KEYS:
            raise ProblemFileError(f"unknown key '{key}'", path, lineno)
        if key in raw:
            raise ProblemFileError(f"duplicate key '{key}'", path, lineno)
        raw[key] = value
        lines[key] = lineno

    missing = sorted(_ALL_KEYS - raw.keys())
    if missing:
        raise ProblemFileError("missing key(s): " + ", ".join(missing), path)

    fields = {}
    for key in _NUMBER_KEYS:
        try:
            fields[key] = float(raw[key])
        except ValueError:
            raise ProblemFileError(f"{key} must be a number, got '{raw[key]}'",
                                   path, lines[key]) from None
    for key in _EXPR_KEYS:
        value = raw[key]
        if len(value) < 2 or value[0] != '"' or value[-1] != '"':
            raise ProblemFileError(f"{key} must be a double-quoted expression",
                                   path, lines[key])
        try:
            fields[key] = parse(value[1:-1])
        except ParseError as exc:
            raise ProblemFileError(f"in {key}: {exc}", path, lines[key]) from exc
    extents = _parse_domain(raw["domain"], path, lines["domain"])
    resolution = _parse_resolution(raw["resolution"], path, lines["resolution"])
    if len(resolution) != len(extents):
        raise ProblemFileError("resolution does not match domain dimension", path)

    try:
        return ProblemSpec(extents=extents, resolution=resolution, **fields)
    except ConfigurationError as exc:
        raise ProblemFileError(str(exc), path) from exc


def bundled_problem_path(name: str) -> Path:
    """Path of a problem file shipped with the package (name without suffix)."""
    root = importlib.resources.files("plaplab") / "problems"
    candidate = Path(str(root / f"{name}.plap"))
    if not candidate.is_file():
        known = ", ".join(sorted(p.stem for p in Path(str(root)).glob("*.plap")))
        raise ConfigurationError(f"no bundled problem '{name}' (have: {known})")
    return candidate


def list_bundled_problems() -> list[str]:
    root = importlib.resources.files("plaplab") / "problems"
    return sorted(p.stem for p in Path(str(root)).glob("*.plap"))
