"""Spans and counters around cmreg's layers, installed from outside.

The tracer rebinds public names in the loaded ``cmreg.*`` module
namespaces (every module that imported the name, since callers look names
up at call time) and a few methods on classes.  ``cmreg`` itself is never
edited.  Spans are timed; kernels are only counted, and their time lands
in the self time of the span that called them.

A span records its name, start, end, parent span and job id.  Spans live
in memory for one job and are folded into per-name totals when the job
ends, so a long run does not hold millions of records.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

# (module, attribute, span name).  Layer = the span name up to its first dot.
SPANS = (
    ("cli", "main", "cli.main"),
    ("sessions", "parse_session", "sessions.parse_session"),
    ("asymptotics", "power_table", "asymptotics.power_table"),
    ("asymptotics", "epsilon_containment", "asymptotics.epsilon_containment"),
    ("asymptotics", "bound_report", "asymptotics.bound_report"),
    ("resolution", "minimal_free_resolution",
     "resolution.minimal_free_resolution"),
    ("resolution", "regularity", "resolution.regularity"),
    ("resolution", "syzygies", "resolution.syzygies"),
    ("hilbert", "hilbert_numerator", "hilbert.hilbert_numerator"),
    ("hilbert", "hilbert_function", "hilbert.hilbert_function"),
    ("hilbert", "quotient_dimension", "hilbert.quotient_dimension"),
    ("hilbert", "quotient_degree", "hilbert.quotient_degree"),
    ("hilbert", "finite_length_witness", "hilbert.finite_length_witness"),
    ("hilbert", "top_degree_finite", "hilbert.top_degree_finite"),
    ("groebner", "intersect", "groebner.intersect"),
    ("groebner", "colon", "groebner.colon"),
    ("groebner", "saturate", "groebner.saturate"),
    ("groebner", "saturate_variable", "groebner.saturate_variable"),
    ("geometry", "check_finite", "geometry.check_finite"),
    ("geometry", "max_fiber_regularity", "geometry.max_fiber_regularity"),
    ("geometry", "fiber_regularity", "geometry.fiber_regularity"),
    ("geometry", "twovars_verify", "geometry.twovars_verify"),
    ("geometry", "twovars_r", "geometry.twovars_r"),
    ("geometry", "binary_gcd", "geometry.binary_gcd"),
)

# (module, class, attribute, span name)
METHOD_SPANS = (
    ("groebner", "Ideal", "groebner_basis", "groebner.groebner_basis"),
    ("reports", "Report", "to_json", "reports.render"),
    ("reports", "Report", "to_text", "reports.render"),
)

# Generators: each next() call is one span; yielded items are counted.
GENERATOR_SPANS = (
    ("geometry", "enumerate_closed_points", "geometry.enumerate_closed_points"),
)

# Kernels: counted, not timed.
COUNTED = (
    ("polynomials", "lift_polynomial", "polynomials.lift_polynomial.calls"),
)
METHOD_COUNTED = (
    ("polynomials", "Polynomial", "__mul__", "polynomials.mul.calls"),
    ("polynomials", "Polynomial", "__rmul__", "polynomials.mul.calls"),
    ("polynomials", "Polynomial", "__sub__", "polynomials.sub.calls"),
    ("fields", "PrimeField", "inv", "fields.inv.calls"),
    ("fields", "ExtensionField", "inv", "fields.inv.calls"),
)


class Tracer:
    """Installs wrappers into the given cmreg modules and aggregates spans.

    ``modules`` maps short module names (``"groebner"``) to module objects.
    Names that a later cmreg no longer defines are skipped, so their
    metrics read zero instead of breaking the benchmark.
    """

    def __init__(self, modules):
        self.modules = modules
        self.job = None
        self.spans = []          # [name, start, end, parent, job] of one job
        self.stack = []          # indices of open spans
        self.counts = Counter()  # kernel calls and generator items
        self.calls = Counter()   # span name -> calls
        self.total = defaultdict(float)   # span name -> summed duration
        self.self_time = defaultdict(float)
        self._undo = []

    # --- wrappers ---

    def _span(self, name, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1,
                          self.job])
            stack.append(idx)
            spans[idx][1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
        return traced

    def _generator(self, name, fn):
        step = self._span(name, next)
        counts = self.counts
        key = name + ".points"

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = step(it)
                except StopIteration:
                    return
                counts[key] += 1
                yield item
        return traced

    def _counter(self, key, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    # --- install / uninstall ---

    def _rebind(self, mod, attr, make):
        module = self.modules.get(mod)
        orig = getattr(module, attr, None)
        if orig is None:
            return
        wrapper = make(orig)
        for other in self.modules.values():
            for name, value in list(vars(other).items()):
                if value is orig:
                    self._undo.append((other, name, orig))
                    setattr(other, name, wrapper)

    def _rebind_method(self, mod, cls_name, attr, make):
        cls = getattr(self.modules.get(mod), cls_name, None)
        orig = getattr(cls, "__dict__", {}).get(attr)
        if orig is None:
            return
        self._undo.append((cls, attr, orig))
        setattr(cls, attr, make(orig))

    def install(self):
        for mod, attr, name in SPANS:
            self._rebind(mod, attr, lambda f, n=name: self._span(n, f))
        for mod, cls, attr, name in METHOD_SPANS:
            self._rebind_method(mod, cls, attr,
                                lambda f, n=name: self._span(n, f))
        for mod, attr, name in GENERATOR_SPANS:
            self._rebind(mod, attr, lambda f, n=name: self._generator(n, f))
        for mod, attr, key in COUNTED:
            self._rebind(mod, attr, lambda f, k=key: self._counter(k, f))
        for mod, cls, attr, key in METHOD_COUNTED:
            self._rebind_method(mod, cls, attr,
                                lambda f, k=key: self._counter(k, f))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # --- aggregation ---

    def begin_job(self, job_id):
        self.job = job_id
        self.spans.clear()
        self.stack.clear()

    def end_job(self):
        """Fold this job's spans into per-name calls, duration and self time
        (duration minus the time its direct children cover)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _job in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _parent, _job) in enumerate(self.spans):
            self.calls[name] += 1
            self.total[name] += end - start
            self.self_time[name] += end - start - child[i]
        self.spans.clear()
