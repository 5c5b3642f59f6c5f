"""Span tracer for plaplab's layer entry points, installed from outside.

``patched(tracer)`` replaces each traced function with a wrapper in every
plaplab module that holds it (``solve_plap_dirichlet`` lives in ``plap``,
``spectral``, ``scheme`` and the package namespace, ``_plap_raw`` in ``grid``
and ``plap``, ``evaluate_on`` in ``expr`` and ``scheme``, ...), and restores
the originals on exit.  Nothing under ``src/`` is edited.

Each wrapped call becomes a span: name, start, end, parent span and the id of
the set-up or sweep point it belongs to.  Spans stay in memory until the run
writes them out.  A layer's self time is its spans' durations minus the time
their child spans cover, so the self times of one root add up to its wall
time.  Wrappers only observe arguments and results; they never change them.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "start", "end", "parent", "root", "attrs")

    def __init__(self, name, parent, root, attrs):
        self.name = name
        self.start = time.perf_counter()
        self.end = None
        self.parent = parent
        self.root = root
        self.attrs = attrs

    def as_row(self):
        return [self.name, self.start, self.end, self.parent, self.root,
                self.attrs]


class Tracer:
    """Collects spans and exact counters for one traced run."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._root = None
        # kind of the last assembled matrix, so a backtrack knows whether it
        # follows a Newton step or a frozen-coefficient (Picard) step
        self._last_frozen = None

    @contextmanager
    def root(self, name, root_id):
        """Top-level span for one set-up or one sweep point."""
        previous = self._root
        self._root = root_id
        try:
            with self.span(name):
                yield
        finally:
            self._root = previous

    @contextmanager
    def span(self, name, attrs=None):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        span = Span(name, parent, self._root, attrs)
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end = time.perf_counter()


# --------------------------------------------------------------------------
# what is wrapped, and what each wrapper records


def _arg(args, kwargs, position, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[position] if len(args) > position else default


def _traced(tracer, name, fn, attrs_of=None, observe=None):
    """Wrapper recording one span per call, plus optional attrs/observer."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        attrs = attrs_of(args, kwargs) if attrs_of else None
        with tracer.span(name, attrs):
            result = fn(*args, **kwargs)
        if observe:
            observe(args, result)
        return result

    return wrapper


def _dirichlet_attrs(args, kwargs):
    return {"cold": _arg(args, kwargs, 4, "initial_guess") is None}


def _assemble(tracer, fn):
    def attrs_of(args, kwargs):
        frozen = bool(_arg(args, kwargs, 4, "frozen"))
        tracer._last_frozen = frozen
        tracer.counts["assemble.frozen" if frozen else "assemble.newton"] += 1
        return None

    return _traced(tracer, "plap.assemble", fn, attrs_of)


def _factor(tracer, fn):
    def observe(args, result):
        tracer.counts["factor.nnz"] += int(args[0].nnz)
        if result is None:
            tracer.counts["factor.failed"] += 1

    return _traced(tracer, "plap.factor", fn, observe=observe)


def _inner_attrs(args, kwargs):
    return {"start": _arg(args, kwargs, 6, "start", "super")}


def _linear_poisson(tracer, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.counts["linear_poisson"] += 1
        return fn(*args, **kwargs)

    return wrapper


def _backtrack(tracer, fn):
    """Counts residual trials and acceptances; no span of its own, so its
    time stays in the enclosing Dirichlet solve."""

    @functools.wraps(fn)
    def wrapper(u, direction, interior, residual, *rest):
        def counted_residual(vals):
            tracer.counts["backtrack.trials"] += 1
            return residual(vals)

        newton = tracer._last_frozen is False
        result = fn(u, direction, interior, counted_residual, *rest)
        if result is not None:
            tracer.counts["backtrack.accepted"] += 1
            if newton:
                tracer.counts["newton.accepted"] += 1
        return result

    return wrapper


def _span(name, attrs_of=None):
    return lambda tracer, fn: _traced(tracer, name, fn, attrs_of)


# (defining module, function name, wrapper factory)
LAYERS = (
    ("plaplab.grid", "_plap_raw", _span("grid.plap_raw")),
    ("plaplab.grid", "gradient", _span("grid.gradient")),
    ("plaplab.expr", "evaluate_on", _span("expr.evaluate_on")),
    ("plaplab.plap", "solve_plap_dirichlet",
     _span("plap.dirichlet", _dirichlet_attrs)),
    ("plaplab.plap", "_assemble", _assemble),
    ("plaplab.plap", "_try_solve", _factor),
    ("plaplab.plap", "_linear_poisson", _linear_poisson),
    ("plaplab.plap", "_backtrack", _backtrack),
    ("plaplab.plap", "estimate_grad_constant", _span("plap.grad_constant")),
    ("plaplab.spectral", "torsion_function", _span("spectral.torsion")),
    ("plaplab.spectral", "first_eigenpair", _span("spectral.eigen")),
    ("plaplab.constants", "compute_constants", _span("constants.compute")),
    ("plaplab.constants", "region_classify",
     _span("constants.region_classify")),
    ("plaplab.scheme", "outer_fixed_point", _span("scheme.outer")),
    ("plaplab.scheme", "freeze_nonlinearity", _span("scheme.freeze")),
    ("plaplab.scheme", "verify_subsuper", _span("scheme.verify_subsuper")),
    ("plaplab.scheme", "inner_monotone_solve",
     _span("scheme.inner", _inner_attrs)),
)


@contextmanager
def patched(tracer):
    """Route every traced function through ``tracer`` in every importer."""
    modules = [mod for name, mod in list(sys.modules.items())
               if name.split(".")[0] == "plaplab"]
    saved = []
    try:
        for home, attr, factory in LAYERS:
            original = getattr(sys.modules[home], attr)
            wrapper = factory(tracer, original)
            for mod in modules:
                if mod.__dict__.get(attr) is original:
                    saved.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        yield tracer
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)


# --------------------------------------------------------------------------
# per-layer metrics


COUNT, SECONDS, RATIO = "count", "s", "ratio"

# Every per-layer metric, in report order, with its unit.
LAYER_METRICS = (
    ("grid.plap_raw.calls", COUNT), ("grid.plap_raw.s", SECONDS),
    ("grid.gradient.calls", COUNT), ("grid.gradient.s", SECONDS),
    ("expr.evaluate_on.calls", COUNT), ("expr.evaluate_on.s", SECONDS),
    ("plap.dirichlet.calls", COUNT), ("plap.dirichlet.s", SECONDS),
    ("plap.dirichlet.cold", COUNT),
    ("plap.assemble.newton.calls", COUNT),
    ("plap.assemble.picard.calls", COUNT), ("plap.assemble.s", SECONDS),
    ("plap.factor.calls", COUNT), ("plap.factor.s", SECONDS),
    ("plap.factor.failed", COUNT), ("plap.factor.nnz", COUNT),
    ("plap.backtrack.trials", COUNT), ("plap.backtrack.accepted", COUNT),
    ("plap.factor_per_solve", RATIO), ("plap.newton.accept_ratio", RATIO),
    ("plap.grad_constant.s", SECONDS),
    ("spectral.torsion.calls", COUNT), ("spectral.torsion.s", SECONDS),
    ("spectral.eigen.s", SECONDS), ("spectral.eigen.sweeps", COUNT),
    ("constants.compute.s", SECONDS),
    ("constants.region_classify.calls", COUNT),
    ("constants.region_classify.s", SECONDS),
    ("scheme.outer.s", SECONDS), ("scheme.outer.iters", COUNT),
    ("scheme.freeze.calls", COUNT), ("scheme.freeze.s", SECONDS),
    ("scheme.verify_subsuper.calls", COUNT),
    ("scheme.verify_subsuper.s", SECONDS),
    ("scheme.inner.calls", COUNT), ("scheme.inner.s", SECONDS),
    ("scheme.inner.sweeps", COUNT),
    ("scheme.certificate.s", SECONDS), ("scheme.certificate.sweeps", COUNT),
)

# Counters that do not depend on the machine: a rerun with one seed repeats
# them exactly.
EXACT_COUNTERS = tuple(name for name, unit in LAYER_METRICS if unit == COUNT)


def _certificate_spans(spans):
    """Indices of the two inner limits each outer run computes after its
    loop: the last two inner children, when the last one starts from below."""
    inner_children = defaultdict(list)
    for i, s in enumerate(spans):
        if (s.name == "scheme.inner" and s.parent is not None
                and spans[s.parent].name == "scheme.outer"):
            inner_children[s.parent].append(i)
    marked = set()
    for children in inner_children.values():
        if len(children) >= 2 and spans[children[-1]].attrs["start"] == "sub":
            marked.update(children[-2:])
    return marked


def layer_metrics(tracer, outer_iters):
    """Per-layer values from the recorded spans and counters."""
    spans = tracer.spans
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end - s.start
    certificate = _certificate_spans(spans)

    calls = Counter()
    self_s = defaultdict(float)
    sweeps = Counter()
    cold = 0
    for i, s in enumerate(spans):
        name = "scheme.certificate" if i in certificate else s.name
        calls[name] += 1
        self_s[name] += (s.end - s.start) - covered[i]
        if s.name == "plap.dirichlet":
            cold += s.attrs["cold"]
            if s.parent in certificate:
                sweeps["scheme.certificate"] += 1
            elif s.parent is not None:
                sweeps[spans[s.parent].name] += 1

    c = tracer.counts
    newton = c["assemble.newton"]
    values = {
        "plap.dirichlet.cold": cold,
        "plap.assemble.newton.calls": newton,
        "plap.assemble.picard.calls": (c["assemble.frozen"]
                                       - c["linear_poisson"]),
        "plap.factor.failed": c["factor.failed"],
        "plap.factor.nnz": c["factor.nnz"],
        "plap.backtrack.trials": c["backtrack.trials"],
        "plap.backtrack.accepted": c["backtrack.accepted"],
        "plap.factor_per_solve": (calls["plap.factor"]
                                  / max(calls["plap.dirichlet"], 1)),
        "plap.newton.accept_ratio": c["newton.accepted"] / max(newton, 1),
        "spectral.eigen.sweeps": sweeps["spectral.eigen"],
        "scheme.outer.iters": outer_iters,
        "scheme.inner.sweeps": sweeps["scheme.inner"],
        "scheme.certificate.sweeps": sweeps["scheme.certificate"],
    }
    for name, unit in LAYER_METRICS:
        if name in values:
            continue
        layer, _, kind = name.rpartition(".")
        values[name] = calls[layer] if kind == "calls" else self_s[layer]
    return values
