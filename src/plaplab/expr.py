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

A problem file is flat ``key = value`` text with keys p, q, a, b, omega1,
omega2, omega3, h, f, domain, resolution; expressions are double-quoted,
``domain`` is ``[lo, hi]`` (optionally ``x [lo, hi]`` for 2d) and
``resolution`` a node count (or ``n1 x n2``).  ``#`` starts a comment.
"""

from __future__ import annotations

import functools
import importlib.resources
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


def evaluate_on(expr: Expr, bindings) -> np.ndarray:
    """Evaluate over numpy arrays (broadcasting), with domain checks.

    Division by zero, ``0^negative``, fractional powers of negative numbers,
    and non-finite results all raise :class:`EvalError` naming the offending
    subexpression.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        result = _eval(expr, bindings)
    if not np.all(np.isfinite(result)):
        raise EvalError(f"non-finite value while evaluating '{expr}'")
    return np.asarray(result, dtype=float)


def evaluate(expr: Expr, bindings) -> float:
    """Scalar evaluation; e.g. u^(q-1) at u=4, q=1.5 gives 2."""
    return float(evaluate_on(expr, {k: float(v) for k, v in bindings.items()}))


def _eval(node, bindings):
    if isinstance(node, Num):
        return np.float64(node.value)
    if isinstance(node, Var):
        try:
            return np.asarray(bindings[node.name], dtype=float)
        except KeyError:
            raise EvalError(f"variable '{node.name}' is not bound here") from None
    if isinstance(node, Neg):
        return -_eval(node.operand, bindings)
    if isinstance(node, Call):
        args = [_eval(a, bindings) for a in node.args]
        fn = {"abs": np.abs, "exp": np.exp, "sin": np.sin, "cos": np.cos,
              "min": np.minimum, "max": np.maximum}[node.func]
        return fn(*args)
    left = _eval(node.left, bindings)
    right = _eval(node.right, bindings)
    if node.op == "+":
        return left + right
    if node.op == "-":
        return left - right
    if node.op == "*":
        return left * right
    if node.op == "/":
        if np.any(right == 0.0):
            raise EvalError(f"division by zero in '{node}'")
        return left / right
    # power
    if np.any((left == 0.0) & (right < 0.0)):
        raise EvalError(f"zero raised to a negative power in '{node}'")
    if np.any((left < 0.0) & (np.floor(right) != right)):
        raise EvalError(f"negative base with fractional exponent in '{node}'")
    return np.power(left, right)


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
        object.__setattr__(self, "extents", probe.extents)
        object.__setattr__(self, "resolution", probe.shape)
        for name in ("omega1", "omega2", "omega3", "h", "f"):
            slot = getattr(self, name)
            if isinstance(slot, str):  # accept source text for convenience
                object.__setattr__(self, name, parse(slot))
        coords = {"x1", "x2"} if probe.dimension == 2 else {"x1"}
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
        out = dict(self.param_bindings())
        meshes = grid.meshes()
        out["x1"] = meshes[0]
        if grid.dimension == 2:
            out["x2"] = meshes[1]
        return out


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
    lhs, rhs = np.broadcast_arrays(lhs, rhs)
    diff = lhs - rhs
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


def check_growth(spec: ProblemSpec, weights, u, gnorm, h, f
                 ) -> GrowthViolation | None:
    """Largest failure of the growth hypotheses, or None when they hold:

        omega1 u^(q-1) <= h <= omega2 u^(q-1),   0 <= f <= omega3 u^a gnorm^b,

    each with 1e-12 relative slack.  h and f are h(x, u) and f(x, u, gnorm)
    as the caller evaluated them; weights is sample_weights(spec, grid).
    Arrays broadcast against the grid, leading sample axes allowed; the
    result's index is into the broadcast shape of the failing check (gnorm
    takes part in the f checks only).
    """
    w1, w2, w3 = (w.values for w in weights)
    f = np.broadcast_to(f, np.broadcast_shapes(np.shape(f), np.shape(gnorm)))
    growth = np.power(u, spec.q - 1.0)
    f_bound = w3 * np.power(u, spec.a) * np.power(gnorm, spec.b)
    return _worst((
        _worst_excess("omega1*u^(q-1) <= h", w1 * growth, h),
        _worst_excess("h <= omega2*u^(q-1)", h, w2 * growth),
        _worst_excess("f >= 0", -f, 0.0),
        _worst_excess("f <= omega3*u^a*gnorm^b", f, f_bound),
    ))


def validate_hypotheses(spec: ProblemSpec) -> HypothesisReport:
    """Check omega_i >= 0 and the growth hypotheses on sample states.

    The weights are checked at every node; h and f at every node for every
    state in U_SAMPLES and, for f, every gradient magnitude in GNORM_SAMPLES
    (see check_growth).  This is a screen before any solve; the iterates of
    a run are checked at their own values by freeze_nonlinearity.
    """
    grid = spec.build_grid()
    weights = sample_weights(spec, grid)
    bindings = spec.coordinate_bindings(grid)
    gnorm = GNORM_SAMPLES.reshape((-1,) + (1,) * grid.dimension)

    worst = _worst(_worst_excess(f"{name} >= 0", -w.values, 0.0)
                   for name, w in zip(("omega1", "omega2", "omega3"), weights))
    worst_u = None
    for u in U_SAMPLES:
        try:
            h = evaluate_on(spec.h, {**bindings, "u": u})
            f = evaluate_on(spec.f, {**bindings, "u": u, "gnorm": gnorm})
        except EvalError as exc:
            raise EvalError(f"evaluating h and f at u={u:.6g}: {exc}") from exc
        found = check_growth(spec, weights, u, gnorm, h, f)
        if found is not None and (worst is None or found.excess > worst.excess):
            worst, worst_u = found, float(u)

    if worst is None:
        return HypothesisReport(True, 0.0)
    sample = worst.index[:-grid.dimension]  # the gnorm axis, f checks only
    return HypothesisReport(False, worst.excess, worst.check,
                            worst.index[-grid.dimension:], worst_u,
                            float(GNORM_SAMPLES[sample[0]]) if sample else None)


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
