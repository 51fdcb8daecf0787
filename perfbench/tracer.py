"""Spans around collabref's public functions, recorded from outside the engine.

``Tracer.install`` rebinds each traced function at every module of the
package that holds it (``planner.unify``, ``beliefs.unify``, ...), and
each traced method on its class. A call through a wrapper records a span:
name, start, end and the span open when it began. A call made while a span
of the same name is innermost (recursion, as in ``unify`` or
``Substitution.resolve``) runs unwrapped, so a span is one call across a
layer boundary and its self time includes its own recursion.

Spans are kept in memory for one pass of requests at a time. At the end of
each pass they are folded into per-name totals; the first traced pass's
spans are also kept whole, to be written out when the run ends.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_right
from collections import Counter
from time import perf_counter

# (span name, module, function) for module functions
FUNCTIONS = (
    ("terms.unify", "terms", "unify"),
    ("terms.rename_apart", "terms", "rename_apart"),
    ("terms.canon", "terms", "canon"),
    ("plans.unify_bridged", "plans", "unify_bridged"),
    ("plans.substitute_node", "plans", "substitute_node"),
    ("planner.solve", "planner", "solve"),
    ("planner.evaluate", "planner", "evaluate"),
    ("planner.infer", "planner", "infer"),
    ("planner.construct", "planner", "construct"),
    ("scenario.load", "scenario", "load_scenario"),
    ("scenario.run", "scenario", "run_scenario"),
)
# (span name, module, class, method)
METHODS = (
    ("terms.resolve", "terms", "Substitution", "resolve"),
    ("terms.read", "terms", "TermReader", "read"),
    ("beliefs.query", "beliefs", "BeliefBase", "query"),
    ("beliefs.assert", "beliefs", "BeliefBase", "assert_prop"),
    ("beliefs.retract", "beliefs", "BeliefBase", "retract_matching"),
    ("schemas.instantiate", "schemas", "ActionSchema", "instantiate"),
    ("collab.hearer_step", "collab", "MentalState", "hearer_step"),
    ("collab.speaker_step", "collab", "MentalState", "speaker_step"),
)
# ``BeliefBase`` renames apart one stored fact per fact it tries, in its
# scans and retractions; no other belief code calls ``rename_apart``.
FACT_SCAN_BINDING = ("beliefs", "rename_apart")
BUDGET_MESSAGE = "exceeded its budget"

# Per-layer metrics, as (name, unit, better). Counts and times are per
# request, so whole passes of the same requests give the same values.
PER_LAYER = (
    ("terms.unify.calls", "count/req", "lower"),
    ("terms.unify.self_ms", "ms/req", "lower"),
    ("terms.unify.hit_ratio", "ratio", "higher"),
    ("terms.rename_apart.calls", "count/req", "lower"),
    ("terms.rename_apart.self_ms", "ms/req", "lower"),
    ("terms.canon.calls", "count/req", "lower"),
    ("terms.canon.self_ms", "ms/req", "lower"),
    ("terms.resolve.calls", "count/req", "lower"),
    ("terms.read.calls", "count/req", "lower"),
    ("terms.read.self_ms", "ms/req", "lower"),
    ("beliefs.query.calls", "count/req", "lower"),
    ("beliefs.query.self_ms", "ms/req", "lower"),
    ("beliefs.facts_scanned", "count/req", "lower"),
    ("beliefs.scan_yield_ratio", "ratio", "higher"),
    ("beliefs.assert.calls", "count/req", "lower"),
    ("beliefs.assert.self_ms", "ms/req", "lower"),
    ("beliefs.retract.self_ms", "ms/req", "lower"),
    ("schemas.instantiate.calls", "count/req", "lower"),
    ("schemas.instantiate.self_ms", "ms/req", "lower"),
    ("plans.unify_bridged.calls", "count/req", "lower"),
    ("plans.unify_bridged.self_ms", "ms/req", "lower"),
    ("plans.substitute_node.self_ms", "ms/req", "lower"),
    ("planner.construct.total_ms", "ms/req", "lower"),
    ("planner.construct.self_ms", "ms/req", "lower"),
    ("planner.construct.ids_minted", "count/req", "lower"),
    ("planner.construct.cap_hits", "count/req", "lower"),
    ("planner.infer.total_ms", "ms/req", "lower"),
    ("planner.infer.parses", "count/req", "lower"),
    ("planner.infer.candidates", "count/req", "lower"),
    ("planner.evaluate.total_ms", "ms/req", "lower"),
    ("planner.evaluate.valid_ratio", "ratio", "higher"),
    ("planner.solve.calls", "count/req", "lower"),
    ("planner.solve.self_ms", "ms/req", "lower"),
    ("collab.hearer_step.self_ms", "ms/req", "lower"),
    ("collab.speaker_step.self_ms", "ms/req", "lower"),
    ("collab.rule_firings", "count/req", "lower"),
    ("scenario.load.self_ms", "ms/req", "lower"),
    ("scenario.run.self_ms", "ms/req", "lower"),
    ("trace.requests_per_s", "1/s", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def counting_names(base: type) -> type:
    """A NameSource subclass that counts the ids it mints; the ids are the same."""

    class CountingNames(base):
        minted = 0

        def next_id(self) -> int:
            self.minted += 1
            return base.next_id(self)

    return CountingNames


class Tracer:
    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self.calls: Counter = Counter()
        self.total: Counter = Counter()
        self.self_time: Counter = Counter()
        self._names: list[str] = []
        self._parents = array("l")
        self._starts = array("d")
        self._ends = array("d")
        self._stack: list[int] = []
        self._request_starts = array("l")
        self.kept: tuple | None = None

    # -- installing -------------------------------------------------------

    def install(self, package: str) -> None:
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))
        ]
        for span, module, attr in FUNCTIONS:
            original = getattr(sys.modules[f"{package}.{module}"], attr)
            inner = self._count_minted(original) if span == "planner.construct" else original
            for m in modules:
                if getattr(m, attr, None) is original:
                    observe = self._observer(span, m.__name__.rpartition(".")[2], attr)
                    setattr(m, attr, self._wrap(span, inner, observe))
        for span, module, cls_name, attr in METHODS:
            cls = getattr(sys.modules[f"{package}.{module}"], cls_name)
            observe = self._observer(span, module, attr)
            setattr(cls, attr, self._wrap(span, getattr(cls, attr), observe))

    def _observer(self, span: str, module: str, attr: str):
        counts = self.counts
        if (module, attr) == FACT_SCAN_BINDING:
            def observe(result, error):
                counts["beliefs.facts_scanned"] += 1
        elif span == "terms.unify":
            def observe(result, error):
                counts["terms.unify.hits"] += result is not None
        elif span == "beliefs.query":
            def observe(result, error):
                if error is None:
                    counts["beliefs.query.solutions"] += len(result)
        elif span == "planner.infer":
            def observe(result, error):
                if error is None:
                    counts["planner.infer.parses"] += result.parse_count
                    counts["planner.infer.candidates"] += len(result.candidates)
        elif span == "planner.evaluate":
            def observe(result, error):
                if error is None:
                    counts["planner.evaluate.valid"] += result.valid
        elif span == "planner.construct":
            def observe(result, error):
                if error is not None and BUDGET_MESSAGE in str(error):
                    counts["planner.construct.cap_hits"] += 1
        else:
            observe = None
        return observe

    def _count_minted(self, construct):
        counts = self.counts

        def counted(ctx, goal):
            before = ctx.names.minted
            try:
                return construct(ctx, goal)
            finally:
                counts["planner.construct.ids_minted"] += ctx.names.minted - before

        return counted

    def _wrap(self, span: str, fn, observe):
        names, parents, starts, ends, stack = (
            self._names, self._parents, self._starts, self._ends, self._stack
        )

        def traced(*args, **kwargs):
            if stack and names[stack[-1]] is span:
                return fn(*args, **kwargs)
            index = len(names)
            names.append(span)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                ends[index] = perf_counter()
                stack.pop()
                if observe is not None:
                    observe(result, error)

        return traced

    # -- recording --------------------------------------------------------

    def begin_request(self) -> None:
        self._request_starts.append(len(self._names))

    def end_pass(self, keep: bool) -> None:
        """Fold this pass's spans into the totals; keep them whole if asked."""
        names, parents, starts, ends = self._names, self._parents, self._starts, self._ends
        child = [0.0] * len(names)
        for i, parent in enumerate(parents):
            if parent >= 0:
                child[parent] += ends[i] - starts[i]
        for i, name in enumerate(names):
            duration = ends[i] - starts[i]
            self.calls[name] += 1
            self.total[name] += duration
            self.self_time[name] += duration - child[i]
        if keep:
            self.kept = (
                list(names), array("l", parents), array("d", starts), array("d", ends),
                array("l", self._request_starts),
            )
        # the wrappers hold these containers, so they are emptied in place
        names.clear()
        del parents[:], starts[:], ends[:], self._request_starts[:]

    def write_spans(self, path) -> int:
        """Write the kept pass's spans as tab-separated lines; returns the count."""
        names, parents, starts, ends, request_starts = self.kept
        origin = starts[0] if starts else 0.0
        with open(path, "w") as out:
            out.write("id\trequest\tname\tparent\tstart_us\tend_us\n")
            for i, name in enumerate(names):
                request = bisect_right(request_starts, i) - 1
                out.write(
                    f"{i}\t{request}\t{name}\t{parents[i]}\t"
                    f"{(starts[i] - origin) * 1e6:.1f}\t{(ends[i] - origin) * 1e6:.1f}\n"
                )
        return len(names)

    # -- reporting --------------------------------------------------------

    def metrics(self, requests: int, rule_firings: int, rate: float, overhead: float) -> dict:
        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        per = {}
        for span in {s for s, *_ in FUNCTIONS} | {s for s, *_ in METHODS}:
            per[f"{span}.calls"] = self.calls[span] / requests
            per[f"{span}.self_ms"] = self.self_time[span] * 1000 / requests
            per[f"{span}.total_ms"] = self.total[span] * 1000 / requests
        counts = self.counts
        for key in ("beliefs.facts_scanned", "planner.construct.ids_minted",
                    "planner.construct.cap_hits", "planner.infer.parses",
                    "planner.infer.candidates"):
            per[key] = counts[key] / requests
        per["terms.unify.hit_ratio"] = ratio(counts["terms.unify.hits"], self.calls["terms.unify"])
        per["beliefs.scan_yield_ratio"] = ratio(
            counts["beliefs.query.solutions"], counts["beliefs.facts_scanned"])
        per["planner.evaluate.valid_ratio"] = ratio(
            counts["planner.evaluate.valid"], self.calls["planner.evaluate"])
        per["collab.rule_firings"] = rule_firings / requests
        per["trace.requests_per_s"] = rate
        per["trace.overhead_ratio"] = overhead
        return {name: {"value": per[name], "unit": unit} for name, unit, _ in PER_LAYER}
