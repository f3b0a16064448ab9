"""Spans and counters around the calls into each `gml` module.

Installed only in the traced run.  Every public function that crosses a
module boundary is replaced, at the name its callers look it up under, by a
wrapper that records a span (query id, name, start, end, parent).  The hot
recursive methods `Evaluator.contains` and `Evaluator.enumerate` only count
calls.  Spans stay in memory until the run ends; a layer's self time is the
time of its spans minus the part covered by their child spans.
"""

from __future__ import annotations

import json
import time
from collections import Counter

# (module attribute to patch, span name).  The same function is patched under
# every name a caller uses, so calls from the CLI, from other modules and
# from the module itself are all seen.
BOUNDARIES = [
    ("cli.parse", "terms.parse"),
    ("cli.enumerate_closed_terms", "terms.codec"),
    ("terms.godel_encode", "terms.codec"),
    ("terms.godel_decode", "terms.codec"),
    ("cli.validate", "pairs.validate"),
    ("pairs.validate", "pairs.validate"),
    ("approximation.validate", "pairs.validate"),
    ("cli.union", "pairs.union"),
    ("approximation.union", "pairs.union"),
    ("minmodel.union", "pairs.union"),
    ("cli.interpret", "semantics.interpret"),
    ("approximation.interpret", "semantics.interpret"),
    ("cli.elements_up_to", "completion.elements_up_to"),
    ("completion.elements_up_to", "completion.elements_up_to"),
    ("approximation.elements_up_to", "completion.elements_up_to"),
    ("minmodel.elements_up_to", "completion.elements_up_to"),
    ("approximation.restrict", "completion.restrict"),
    ("cli.member", "approximation.member"),
    ("approximation.member", "approximation.member"),
    ("cli.check_inequation", "approximation.check_inequation"),
    ("approximation.check_inequation", "approximation.check_inequation"),
    ("minmodel.check_inequation", "approximation.check_inequation"),
    ("cli.check_equation", "approximation.check_equation"),
    ("cli.extract_witness_subpair", "approximation.extract_witness_subpair"),
    ("approximation.extract_witness_subpair", "approximation.extract_witness_subpair"),
    ("approximation.approx_interpret", "approximation.approx_interpret"),
    ("minmodel.approx_interpret", "approximation.approx_interpret"),
    ("minmodel.search_counterexample", "minmodel.search_counterexample"),
    ("minmodel.relocate", "minmodel.relocate"),
    ("minmodel.enumerate_pair", "minmodel.enumerate_pair"),
    ("minmodel.encode_pair", "minmodel.encode_pair"),
    ("minmodel.element_code", "minmodel.element_code"),
    ("minmodel.element_decode", "minmodel.element_decode"),
]

# Reported per-layer metrics, each with the end-to-end metric and workload it
# should move.
LAYER_METRICS = {
    "cli.main.calls": ("count", "query_p50_s on certify and search (fixed cost per call)"),
    "cli.self_s": ("s", "query_p50_s on certify and search (fixed cost per call)"),
    "terms.parse.calls": ("count", "query_p50_s on certify and search"),
    "terms.self_s": ("s", "query_p50_s on numeration"),
    "terms.codec.calls": ("count", "query_p50_s and query_p90_s on numeration"),
    "terms.codec.self_s": ("s", "query_p50_s and query_p90_s on numeration"),
    "pairs.load.self_s": ("s", "query_p50_s on certify"),
    "pairs.validate.calls": ("count", "query_p50_s on certify and search"),
    "pairs.validate.self_s": ("s", "query_p50_s on certify and search"),
    "pairs.union.calls": ("count", "query_p90_s on certify"),
    "semantics.interpret.calls": ("count", "query_p90_s on certify; 0 on numeration and member"),
    "semantics.interpret.self_s": ("s", "query_p90_s on certify"),
    "completion.restrict.calls": ("count", "query_p90_s and peak_rss_mb on certify"),
    "completion.restrict.elements": ("count", "query_p90_s and peak_rss_mb on certify"),
    "completion.restrict.self_s": ("s", "query_p90_s and peak_rss_mb on certify"),
    "completion.restrict.yield": ("ratio", "witness-subpair atoms per restriction element"),
    "completion.elements_up_to.calls": ("count", "query_p90_s on search"),
    "completion.elements_up_to.elements": ("count", "query_p90_s on search"),
    "completion.elements_up_to.self_s": ("s", "query_p90_s on search"),
    "completion.refusals": ("count", "decided_share"),
    "approximation.evaluators": ("count", "query_p50_s on certify and search"),
    "approximation.contains.calls": ("count", "query_p90_s on certify and search"),
    "approximation.enumerate.calls": ("count", "query_p90_s on certify and search"),
    "approximation.self_s": ("s", "query_p90_s on certify and search"),
    "approximation.check_inequation.calls": ("count", "query_p90_s on certify"),
    "approximation.extract_witness_subpair.self_s": ("s", "query_p90_s on certify"),
    "approximation.refusals": ("count", "decided_share on certify"),
    "minmodel.components_checked": ("count", "decided_share on search"),
    "minmodel.components_skipped": ("count", "decided_share on search"),
    "minmodel.enumerate_pair.calls": ("count", "peak_rss_mb on numeration; cached lookups on search"),
    "minmodel.enumerate_pair.self_s": ("s", "query_p50_s and peak_rss_mb on numeration; ~0 on search"),
    "minmodel.encode_pair.self_s": ("s", "none: only the answer checker ranks pairs"),
    "minmodel.self_s": ("s", "query_p50_s on numeration (prime sieve of relocate)"),
    "trace.overhead_s": ("s", "traced minus untraced wall time of the same queries"),
}


class Tracer:
    def __init__(self, gml):
        self.gml = gml
        self.names: list[str] = []
        self.spans: list = []  # (query, start, end, parent index); None while open
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.query = -1

    def wrap(self, fn, name: str, on_result=None):
        """`fn` inside a span; `on_result(result, parent_name)` runs after a
        normal return."""
        names, spans, stack, counts = self.names, self.spans, self.stack, self.counts
        clock = time.perf_counter
        ceiling, infeasible = self.gml.completion.CeilingExceeded, self.gml.approximation.ApproximationInfeasible

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            names.append(name)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except ceiling as exc:
                # count each refusal once, at the layer that raised it
                if not getattr(exc, "_refusal_counted", False):
                    exc._refusal_counted = True
                    layer = "approximation" if isinstance(exc, infeasible) else "completion"
                    counts[layer + ".refusals"] += 1
                raise
            finally:
                spans[index] = (self.query, start, clock(), parent)
                stack.pop()
            if on_result is not None:
                on_result(out, names[parent] if parent >= 0 else None)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        gml, counts = self.gml, self.counts

        def restricted(r, parent):
            counts["completion.restrict.elements"] += len(r.elements)

        def levels(r, parent):
            if parent != "completion.elements_up_to":  # count each level once
                counts["completion.elements_up_to.elements"] += len(r)

        def witnessed(r, parent):
            counts["witness.atoms"] += len(r.atoms)

        def checked(r, parent):
            if parent == "minmodel.search_counterexample":
                counts["minmodel.components_checked"] += 1

        on_result = {
            "completion.restrict": restricted,
            "completion.elements_up_to": levels,
            "approximation.extract_witness_subpair": witnessed,
            "approximation.check_inequation": checked,
        }
        for target, name in BOUNDARIES:
            module_name, attr = target.split(".")
            module = getattr(gml, module_name)
            fn = getattr(module, attr)
            setattr(module, attr, self.wrap(getattr(fn, "__wrapped__", fn), name, on_result.get(name)))

        load = gml.pairs.PartialPair.load.__func__
        gml.pairs.PartialPair.load = classmethod(self.wrap(load, "pairs.load"))

        evaluator = gml.approximation.Evaluator
        init, contains, enumerate_ = evaluator.__init__, evaluator.contains, evaluator.enumerate

        def counted_init(ev, *args, **kwargs):
            counts["approximation.evaluators"] += 1
            init(ev, *args, **kwargs)

        def counted_contains(ev, t, env, e):
            counts["approximation.contains.calls"] += 1
            return contains(ev, t, env, e)

        def counted_enumerate(ev, t, env, trim):
            counts["approximation.enumerate.calls"] += 1
            return enumerate_(ev, t, env, trim)

        evaluator.__init__ = counted_init
        evaluator.contains = counted_contains
        evaluator.enumerate = counted_enumerate

    # -- results ---------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time of direct children."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = Counter()
        for i, (_, start, end, _) in enumerate(self.spans):
            out[self.names[i]] += end - start - child_time[i]
        return out

    def metrics(self, overhead_s: float, components_skipped: int) -> dict:
        calls = Counter(self.names)
        own = self.self_times()

        def layer(prefix: str) -> float:
            return sum(v for k, v in own.items() if k.startswith(prefix + "."))

        elements = self.counts["completion.restrict.elements"]
        values = {
            "cli.main.calls": calls["cli.main"],
            "cli.self_s": own["cli.main"],
            "terms.parse.calls": calls["terms.parse"],
            "terms.self_s": layer("terms"),
            "terms.codec.calls": calls["terms.codec"],
            "terms.codec.self_s": own["terms.codec"],
            "pairs.load.self_s": own["pairs.load"],
            "pairs.validate.calls": calls["pairs.validate"],
            "pairs.validate.self_s": own["pairs.validate"],
            "pairs.union.calls": calls["pairs.union"],
            "semantics.interpret.calls": calls["semantics.interpret"],
            "semantics.interpret.self_s": own["semantics.interpret"],
            "completion.restrict.calls": calls["completion.restrict"],
            "completion.restrict.elements": elements,
            "completion.restrict.self_s": own["completion.restrict"],
            "completion.restrict.yield": self.counts["witness.atoms"] / elements if elements else 0.0,
            "completion.elements_up_to.calls": calls["completion.elements_up_to"],
            "completion.elements_up_to.elements": self.counts["completion.elements_up_to.elements"],
            "completion.elements_up_to.self_s": own["completion.elements_up_to"],
            "completion.refusals": self.counts["completion.refusals"],
            "approximation.evaluators": self.counts["approximation.evaluators"],
            "approximation.contains.calls": self.counts["approximation.contains.calls"],
            "approximation.enumerate.calls": self.counts["approximation.enumerate.calls"],
            "approximation.self_s": layer("approximation"),
            "approximation.check_inequation.calls": calls["approximation.check_inequation"],
            "approximation.extract_witness_subpair.self_s": own["approximation.extract_witness_subpair"],
            "approximation.refusals": self.counts["approximation.refusals"],
            "minmodel.components_checked": self.counts["minmodel.components_checked"],
            "minmodel.components_skipped": components_skipped,
            "minmodel.enumerate_pair.calls": calls["minmodel.enumerate_pair"],
            "minmodel.enumerate_pair.self_s": own["minmodel.enumerate_pair"],
            "minmodel.encode_pair.self_s": own["minmodel.encode_pair"],
            "minmodel.self_s": layer("minmodel"),
            "trace.overhead_s": overhead_s,
        }
        return {name: {"value": values[name], "unit": unit} for name, (unit, _) in LAYER_METRICS.items()}

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, (query, start, end, parent) in zip(self.names, self.spans):
                fh.write(json.dumps([query, name, round(start, 7), round(end, 7), parent]) + "\n")
