"""Span recording around jetstar's public functions, for traced runs.

Nothing in jetstar is edited: :meth:`Tracer.install` replaces each traced
public function (and method) by a wrapper, in every loaded ``jetstar``
module that holds a reference to it, so calls made inside the package are
recorded as nested spans too.  Spans are kept in memory as
``[name, start, end, parent, op]`` and written out when the run ends.

Per-layer metrics are derived from the spans.  ``busy_s`` of a name is the
time covered by its outermost spans, ``self_s`` subtracts the time covered
by child spans.  Names that only run while the workload sets up are
reported whole; every other name is reported per timed operation, so a
faster layer shows as less time per operation even though a time-bounded
run then completes more operations.  Counts that need the arguments or
results of a call are taken after its span has closed.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from math import comb

SETUP = "setup"


def phase(op):
    """'setup', 'prefix' (untimed operations before the timed phase) or 'timed'."""
    if op == SETUP:
        return SETUP
    return "prefix" if isinstance(op, str) and op.startswith("prefix") else "timed"


SPAN_NAMES = (
    "fedosov.build_A",
    "fedosov.quantize",
    "fedosov.star",
    "parsing.parse_element",
    "elements.to_str",
    "whitney.setup",
    "whitney.project",
    "whitney.star",
    "whitney.flat_basis",
    "whitney.verify_ideal_stability",
    "derham.cohomology_dims",
    "derham.poisson_homology_dims",
    "derham.duality_table",
    "homology.FiniteAlgebra",
    "homology.hochschild_b",
    "homology.connes_B",
    "homology.mu",
    "homology.e1_probe",
    "homology.hochschild_dims",
)

# Names whose work happens only while a workload sets up.
SETUP_NAMES = ("fedosov.build_A", "whitney.setup", "homology.FiniteAlgebra")

# Counters: (name, unit, better).
COUNTERS = (
    ("fedosov.quantize.section_terms", "count", "lower"),
    ("fedosov.quantize.repeat_ratio", "ratio", "higher"),
    ("weyl.moyal.term_pairs", "count", "lower"),
    ("weyl.moyal.terms_out", "count", "lower"),
    ("fedosov.symbol.terms_out", "count", "lower"),
    ("whitney.evaluator.rows", "count", "lower"),
    ("whitney.evaluator.cols", "count", "lower"),
    ("derham.matrix_cells", "count", "lower"),
    ("derham.repeat_ratio", "ratio", "higher"),
    ("homology.FiniteAlgebra.dim", "count", "lower"),
)

EXTRA = (
    ("trace.ops", "count", "higher"),
    ("trace.overhead_s", "s", "lower"),
)


def metric_specs():
    """Every per-layer metric as (name, unit, better), in report order."""
    specs = []
    for name in SPAN_NAMES:
        specs.append((f"{name}.calls", "count", "lower"))
        specs.append((f"{name}.busy_s", "s", "lower"))
        specs.append((f"{name}.self_s", "s", "lower"))
    return specs + list(COUNTERS) + list(EXTRA)


def _monomial_count(nvars, cap):
    return comb(cap + nvars, nvars) if cap >= 0 else 0


def derham_matrices(kind, dim, jet):
    """(key, rows, cols) of every matrix a derham dimension count builds.

    ``cohomology_dims`` builds d from q-forms with coefficient cap jet - q,
    ``poisson_homology_dims`` the Brylinski boundary from q-forms with cap
    jet - (dim - q); a form basis is (wedge, monomial) pairs.
    """
    out = []
    if kind == "d":
        for q in range(dim):
            cap = jet - q
            cols = comb(dim, q) * _monomial_count(dim, cap)
            rows = comb(dim, q + 1) * _monomial_count(dim, cap - 1)
            out.append((("d", dim, q, cap), rows, cols))
    else:
        for q in range(1, dim + 1):
            cap = jet - (dim - q)
            cols = comb(dim, q) * _monomial_count(dim, cap)
            rows = comb(dim, q - 1) * _monomial_count(dim, cap - 1)
            out.append((("delta", dim, q, cap), rows, cols))
    return out


class Tracer:
    """In-memory span recorder; ``active`` is False while outputs are checked."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = SETUP
        self.active = True
        self._stack = []
        self._quantized = {}
        self._matrices = set()

    # ------------------------------------------------------------------
    # recording

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    @contextmanager
    def span(self, name):
        """A span around a block of the benchmark's own code."""
        if not self.active:
            yield
            return
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def wrap(self, name, fn, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if name is not None:
                tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                if name is not None:
                    tracer._close()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # ------------------------------------------------------------------
    # installation

    @staticmethod
    def _rebind(original, wrapper, modules=None):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "jetstar" or mod_name.startswith("jetstar.")):
                continue
            if modules is not None and mod_name not in modules:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)

    def _function(self, module, attr, name, after=None, modules=None):
        original = getattr(module, attr)
        self._rebind(original, self.wrap(name, original, after), modules)

    def _method(self, cls, attr, name, after=None):
        setattr(cls, attr, self.wrap(name, vars(cls)[attr], after))

    def install(self):
        """Wrap jetstar's public functions; call before building any state."""
        from jetstar import derham, elements, fedosov, homology, parsing, whitney

        self._function(fedosov, "build_A", "fedosov.build_A")
        self._function(fedosov, "quantize", "fedosov.quantize", self._after_quantize)
        self._function(fedosov, "star", "fedosov.star")
        # moyal and symbol as called by fedosov.star: counts only
        self._function(fedosov, "moyal", None, self._after_moyal, modules=("jetstar.fedosov",))
        self._function(fedosov, "symbol", None, self._after_symbol, modules=("jetstar.fedosov",))
        self._function(parsing, "parse_element", "parsing.parse_element")
        self._method(elements.MixedElement, "to_str", "elements.to_str")
        self._method(whitney.JetEvaluator, "__init__", None, self._after_evaluator)
        self._method(whitney.WhitneyAlgebra, "project", "whitney.project")
        self._method(whitney.WhitneyAlgebra, "flat_basis", "whitney.flat_basis")
        self._method(whitney.WhitneyClass, "star", "whitney.star")
        self._function(whitney, "verify_ideal_stability", "whitney.verify_ideal_stability")
        self._function(derham, "cohomology_dims", "derham.cohomology_dims",
                       self._after_derham("d"))
        self._function(derham, "poisson_homology_dims", "derham.poisson_homology_dims",
                       self._after_derham("delta"))
        self._function(derham, "duality_table", "derham.duality_table")
        self._method(homology.FiniteAlgebra, "__init__", "homology.FiniteAlgebra",
                     self._after_algebra)
        for attr in ("hochschild_b", "connes_B", "mu", "e1_probe", "hochschild_dims"):
            self._function(homology, attr, f"homology.{attr}")

    # ------------------------------------------------------------------
    # counters

    def _count(self, name, value):
        self.counts[(name, phase(self.op))] += value

    def _after_quantize(self, args, result):
        f, fd = args[0], args[1]
        seen = self._quantized.setdefault(id(fd), set())
        self._count("fedosov.quantize.section_terms", len(result.terms))
        self._count("fedosov.quantize.repeats", 1 if f in seen else 0)
        self._count("fedosov.quantize.calls", 1)
        seen.add(f)

    def _after_moyal(self, args, result):
        self._count("weyl.moyal.term_pairs", len(args[0].terms) * len(args[1].terms))
        self._count("weyl.moyal.terms_out", len(result.terms))

    def _after_symbol(self, args, result):
        self._count("fedosov.symbol.terms_out", len(result.terms))

    def _after_evaluator(self, args, result):
        evaluator = args[0]
        self._count("whitney.evaluator.rows", len(evaluator.rows))
        self._count("whitney.evaluator.cols", len(evaluator.domain))

    def _after_derham(self, kind):
        def after(args, result):
            subset, policy = args[0], args[-1]
            for key, rows, cols in derham_matrices(kind, subset.dim, policy.jet_order):
                self._count("derham.matrix_cells", rows * cols)
                self._count("derham.matrix_requests", 1)
                self._count("derham.matrix_repeats", 1 if key in self._matrices else 0)
                self._matrices.add(key)

        return after

    def _after_algebra(self, args, result):
        self._count("homology.FiniteAlgebra.dim", args[0].dim)

    # ------------------------------------------------------------------
    # results

    def summary(self, timed_ops):
        """Per-layer metric values: set-up names whole, others per timed op."""
        per_op = max(timed_ops, 1)
        busy = Counter()
        own = Counter()
        calls = Counter()
        for name, start, end, parent, op in self.spans:
            duration = end - start
            key = (name, phase(op))
            calls[key] += 1
            own[key] += duration
            if parent >= 0:
                p_name, _, _, _, p_op = self.spans[parent]
                own[(p_name, phase(p_op))] -= duration
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                busy[key] += duration

        def pick(table, name):
            if name in SETUP_NAMES:
                return sum(table[(name, p)] for p in (SETUP, "prefix", "timed"))
            return table[(name, "timed")] / per_op

        values = {}
        for name in SPAN_NAMES:
            values[f"{name}.calls"] = pick(calls, name)
            values[f"{name}.busy_s"] = pick(busy, name)
            values[f"{name}.self_s"] = pick(own, name)
        counts = self.counts
        for name in ("fedosov.quantize.section_terms", "weyl.moyal.term_pairs",
                     "weyl.moyal.terms_out", "fedosov.symbol.terms_out",
                     "derham.matrix_cells"):
            values[name] = counts[(name, "timed")] / per_op
        for name in ("whitney.evaluator.rows", "whitney.evaluator.cols",
                     "homology.FiniteAlgebra.dim"):
            values[name] = sum(counts[(name, p)] for p in (SETUP, "prefix", "timed"))
        values["fedosov.quantize.repeat_ratio"] = _ratio(
            counts[("fedosov.quantize.repeats", "timed")],
            counts[("fedosov.quantize.calls", "timed")],
        )
        values["derham.repeat_ratio"] = _ratio(
            counts[("derham.matrix_repeats", "timed")],
            counts[("derham.matrix_requests", "timed")],
        )
        return values

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, handle)


def _ratio(part, whole):
    return part / whole if whole else 0.0
