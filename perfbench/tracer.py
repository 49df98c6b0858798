"""Per-layer tracing installed from outside the program.

The tracer replaces public functions of ``hyperpoly`` modules with wrappers
for the length of one traced pass and puts every original back afterwards.
Coarse boundaries (the CLI entry, field parsing, the multiplicity search,
the exact rational code) get spans: name, start, end, the span that caused
it and the case it belongs to.  The hot element operations in ``core`` run
about a million times per deep case, so they only get call counters.

A function is patched in every ``hyperpoly`` namespace that binds it by
name, because callers reach it in different ways: ``cli`` imports
``multiplicity`` and friends by name, the search recursion looks up the
module-global ``quotients``, and ``descartes`` calls ``ratpoly.*`` as
attributes.  Counted methods are patched on every class that defines
its own.  A traced name the package no longer has is skipped and reported,
and its metrics read 0.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
from time import perf_counter

PACKAGE = "hyperpoly"

SPANS = {
    "cli": ("main",),
    "instances": ("parse_field", "build_quotient", "phase_canonical"),
    "core": ("check_axioms",),
    "polynomial": ("quotients", "multiplicity", "hyper_mul_poly", "hyper_product"),
    "descartes": ("verify_descartes", "count_positive_roots", "count_negative_roots"),
    "ratpoly": ("yun_squarefree", "sturm_chain", "count_distinct_positive_roots",
                "expand_roots"),
    "tropical_newton": ("newton_polygon", "tropical_roots", "in_product",
                        "functional_equiv", "newton_rule_verify", "mult_tropical"),
}
# Hyperfield methods that are counted, never spanned: element-level
# operations, then raw-value operations; counted on every class that
# defines its own
COUNTED = {"check_member": "core.check_member", "__eq__": "core.Hyperfield.eq",
           "hyperadd": "core.hyperadd", "mul": "core.mul", "neg": "core.neg",
           "hyperadd_values": "core.hyperadd_values",
           "add_set_value": "core.add_set_value", "mul_values": "core.mul_values"}
# span -> counter whose calls made inside the span are credited to the span
NESTED = {"core.check_axioms": "core.hyperadd_values",
          "instances.build_quotient": "core.check_axioms"}

# name, unit, better: every metric a traced run prints
PER_LAYER = (
    ("polynomial.quotients.calls", "count", "lower"),
    ("polynomial.quotients.self_s", "s", "lower"),
    ("polynomial.quotients.out_mean", "count", "lower"),
    ("polynomial.quotients.empty_frac", "ratio", "lower"),
    ("polynomial.multiplicity.calls", "count", "lower"),
    ("polynomial.multiplicity.self_s", "s", "lower"),
    ("polynomial.search.useful_frac", "ratio", "higher"),
    ("polynomial.hyper_mul_poly.calls", "count", "lower"),
    ("polynomial.hyper_product.self_s", "s", "lower"),
    ("core.check_member.calls", "count", "lower"),
    ("core.Hyperfield.eq.calls", "count", "lower"),
    ("core.hyperadd.calls", "count", "lower"),
    ("core.mul.calls", "count", "lower"),
    ("core.neg.calls", "count", "lower"),
    ("core.hyperadd_values.calls", "count", "lower"),
    ("core.add_set_value.calls", "count", "lower"),
    ("core.mul_values.calls", "count", "lower"),
    ("core.check_axioms.calls", "count", "lower"),
    ("core.check_axioms.self_s", "s", "lower"),
    ("core.check_axioms.hyperadd_values_calls", "count", "lower"),
    ("instances.parse_field.self_s", "s", "lower"),
    ("instances.build_quotient.calls", "count", "lower"),
    ("instances.build_quotient.check_axioms_calls", "count", "lower"),
    ("instances.phase_canonical.calls", "count", "lower"),
    ("instances.phase_canonical.self_s", "s", "lower"),
    ("descartes.verify_descartes.self_s", "s", "lower"),
    ("descartes.count_positive_roots.self_s", "s", "lower"),
    ("descartes.count_negative_roots.self_s", "s", "lower"),
    ("ratpoly.yun_squarefree.calls", "count", "lower"),
    ("ratpoly.yun_squarefree.self_s", "s", "lower"),
    ("ratpoly.sturm_chain.calls", "count", "lower"),
    ("ratpoly.sturm_chain.self_s", "s", "lower"),
    ("ratpoly.count_distinct_positive_roots.self_s", "s", "lower"),
    ("ratpoly.expand_roots.self_s", "s", "lower"),
    ("tropical_newton.newton_polygon.calls", "count", "lower"),
    ("tropical_newton.newton_polygon.self_s", "s", "lower"),
    ("tropical_newton.tropical_roots.self_s", "s", "lower"),
    ("tropical_newton.in_product.self_s", "s", "lower"),
    ("tropical_newton.functional_equiv.self_s", "s", "lower"),
    ("tropical_newton.newton_rule_verify.self_s", "s", "lower"),
    ("tropical_newton.mult_tropical.self_s", "s", "lower"),
    ("cli.main.self_ms_per_case", "ms", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


def _subclasses(cls) -> list:
    out = [cls]
    for sub in cls.__subclasses__():
        out += _subclasses(sub)
    return out


class Tracer:
    """Spans and counters for one traced pass; use as a context manager."""

    def __init__(self):
        self.case = None
        self.counts = {}
        self.self_s = {}
        self.credited = {}
        self.spans = []           # (id, parent id, name, case, start, end)
        self.quotients_out = 0
        self.quotients_empty = 0
        self.multiplicity_sum = 0
        self._stack = []          # [span id, seconds covered by child spans]
        self._ids = itertools.count()
        self._patches = []        # (owner, attribute, original)
        self.missing = []         # traced names the package no longer has

    # -- installing and removing ------------------------------------------------

    def __enter__(self):
        try:
            self._install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def _install(self):
        namespaces = [m for name, m in list(sys.modules.items())
                      if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for module, functions in SPANS.items():
            owner = sys.modules.get(f"{PACKAGE}.{module}")
            for fn in functions:
                original = getattr(owner, fn, None)
                if original is None:
                    self.missing.append(f"{module}.{fn}")
                    continue
                wrapper = self._span(f"{module}.{fn}", original)
                for ns in namespaces:
                    if vars(ns).get(fn) is original:
                        self._patch(ns, fn, wrapper)
        for cls in _subclasses(sys.modules[f"{PACKAGE}.core"].Hyperfield):
            for attr, name in COUNTED.items():
                if attr in vars(cls):
                    self._patch(cls, attr, self._counter(name, vars(cls)[attr]))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- wrappers -------------------------------------------------------------

    def _counter(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _span(self, name, fn):
        counts, self_s, stack, spans = self.counts, self.self_s, self._stack, self.spans
        counts.setdefault(name, 0)
        self_s.setdefault(name, 0.0)
        nested = NESTED.get(name)
        on_result = {"polynomial.quotients": self._quotients_result,
                     "polynomial.multiplicity": self._multiplicity_result}.get(name)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            counts[name] += 1
            before = counts.get(nested, 0)
            span_id = next(self._ids)
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self_s[name] += end - start - frame[1]
                if stack:
                    stack[-1][1] += end - start
                spans.append((span_id, parent, name, self.case, start, end))
                if nested:
                    self.credited[name] = (self.credited.get(name, 0)
                                           + counts.get(nested, 0) - before)
            if on_result:
                on_result(result)
            return result

        return spanned

    def _quotients_result(self, result):
        self.quotients_out += len(result)
        self.quotients_empty += not result

    def _multiplicity_result(self, report):
        self.multiplicity_sum += report.multiplicity

    # -- results ----------------------------------------------------------------

    def metrics(self, cases: int, traced_wall: float, untraced_wall: float) -> dict:
        calls, secs = self.counts.get, self.self_s.get

        def ratio(a, b):
            return a / b if b else 0.0

        q_calls = calls("polynomial.quotients", 0)
        values = {
            "polynomial.quotients.out_mean": ratio(self.quotients_out, q_calls),
            "polynomial.quotients.empty_frac": ratio(self.quotients_empty, q_calls),
            "polynomial.search.useful_frac": ratio(self.multiplicity_sum,
                                                   self.quotients_out),
            "core.check_axioms.hyperadd_values_calls":
                self.credited.get("core.check_axioms", 0),
            "instances.build_quotient.check_axioms_calls":
                self.credited.get("instances.build_quotient", 0),
            "cli.main.self_ms_per_case": 1000 * ratio(secs("cli.main", 0.0), cases),
            "trace.overhead_frac": traced_wall / untraced_wall - 1,
        }
        for name, _, _ in PER_LAYER:
            if name not in values:
                base, _, kind = name.rpartition(".")
                values[name] = calls(base, 0) if kind == "calls" else secs(base, 0.0)
        return {name: values[name] for name, _, _ in PER_LAYER}

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="ascii") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
