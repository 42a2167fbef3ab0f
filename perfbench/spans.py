"""Span recording at the package's module boundaries, from outside.

A :class:`Tracer` replaces the public names that one layer reaches in
another through a module attribute with timing wrappers, records one span
per call in memory (name, layer, start, end, parent span, request) and
puts the original attributes back on exit.  Nothing under ``src/`` is
changed.  :class:`LayerTotals` folds spans into per-layer sums, with a
span's self time taken as its duration minus the durations of its child
spans.
"""

import importlib
from collections import Counter
from time import perf_counter_ns


def _rows(out):
    return len(out)


def _exceptional(out):
    return len(out.exceptional)


def _degenerate(out):
    return int(out.is_degenerate)


#: (module, attribute, span name, layer, info).  Each attribute is looked up
#: by its caller at call time, so replacing it intercepts every call across
#: that boundary.  ``info`` maps the return value to the count a span keeps:
#: rows for kernels and batch classification, exceptional points for a
#: pencil profile, 1 for a Degenerate verdict.
BOUNDARIES = (
    ("slocc4.quad", "classify4", "classify4", "quad", _degenerate),
    ("slocc4.quad", "bipartition_ranks", "bipartition_ranks", "qstate", None),
    ("slocc4.quad", "decompose", "decompose", "qstate", None),
    ("slocc4.quad", "span_dimension", "span_dimension", "qstate", None),
    ("slocc4.quad", "analyze_span", "analyze_span", "pencil", _exceptional),
    ("slocc4.quad", "classify3", "classify3", "tri", None),
    ("slocc4.pencil", "quartic", "quartic", "pencil", None),
    ("slocc4.pencil", "quartic_roots", "quartic_roots", "pencil", None),
    ("slocc4.pencil", "clause_quadratics", "clause_quadratics", "pencil", None),
    ("slocc4.pencil", "common_roots", "common_roots", "pencil", None),
    ("slocc4.pencil", "cluster_points", "cluster_points", "pencil", None),
    ("slocc4.pencil", "classify3_batch", "classify3_batch", "tri", _rows),
    ("slocc4.pencil", "classify3_exact_amps", "classify3_exact", "exact", None),
    ("slocc4.kernels", "ghz_invariant_batch", "ghz_invariant_batch", "kernels", _rows),
    ("slocc4.kernels", "clause_quantities_batch", "clause_quantities_batch", "kernels", _rows),
    ("slocc4.kernels", "tri_codes_batch", "tri_codes_batch", "kernels", _rows),
    ("slocc4.kernels", "pencil_elements", "pencil_elements", "kernels", _rows),
    ("slocc4.exact", "lift", "lift", "exact", None),
    ("slocc4.exact", "quartic_exact", "quartic_exact", "exact", None),
    ("slocc4.exact", "clause_quadratics_exact", "clause_quadratics_exact", "exact", None),
    ("slocc4.exact", "exact_rank", "exact_rank", "exact", None),
)


class Tracer:
    """Context manager that wraps every boundary in :data:`BOUNDARIES`.

    Spans are tuples ``(name, layer, start_ns, end_ns, parent, request,
    info)`` in start order; ``parent`` is the index of the enclosing span
    or -1, and ``request`` is the value of :attr:`request` when the span
    started, so the spans of one state share it.
    """

    def __init__(self):
        self.spans = []
        self.request = 0
        self._stack = []
        self._saved = []

    def __enter__(self):
        for module_name, attr, name, layer, info in BOUNDARIES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, layer, info))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False

    def _wrap(self, fn, name, layer, info):
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            out = None
            start = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = perf_counter_ns()
                stack.pop()
                count = info(out) if info is not None and out is not None else 0
                spans[index] = (name, layer, start, end, parent, self.request, count)

        traced.__wrapped__ = fn
        return traced


class LayerTotals:
    """Sums over spans: per span name and per layer, in nanoseconds."""

    def __init__(self):
        self.incl_ns = Counter()
        self.self_ns = Counter()
        self.calls = Counter()
        self.info = Counter()
        self.layer_ns = Counter()
        self.layer_calls = Counter()
        self.layer_info = Counter()
        self.candidates = 0

    def add(self, spans):
        """Fold a finished list of spans (no span still open) into the sums."""
        child_ns = [0] * len(spans)
        for name, layer, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        last_batch = {}
        for i, (name, layer, start, end, parent, _, count) in enumerate(spans):
            duration = end - start
            self.incl_ns[name] += duration
            self.self_ns[name] += duration - child_ns[i]
            self.calls[name] += 1
            self.info[name] += count
            self.layer_calls[layer] += 1
            self.layer_info[layer] += count
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][1] != layer:
                ancestor = spans[ancestor][4]
            if ancestor < 0:
                self.layer_ns[layer] += duration
            # the candidate points of a pencil are classified by the last
            # batch call under analyze_span; earlier ones are generic probes
            if name == "classify3_batch" and parent >= 0 and spans[parent][0] == "analyze_span":
                last_batch[parent] = count
        self.candidates += sum(last_batch.values())

    def metrics(self, states: int) -> dict:
        """Per-layer metrics, per state unless the name says otherwise."""
        per = 1.0 / max(states, 1)

        def us(ns):
            return ns * per / 1000.0

        kernel_calls = self.layer_calls["kernels"]
        pencils = self.calls["analyze_span"]
        return {
            "qstate.bipartition_ranks.us": us(self.incl_ns["bipartition_ranks"]),
            "qstate.bipartition_ranks.calls": self.calls["bipartition_ranks"] * per,
            "qstate.decompose.us": us(self.incl_ns["decompose"]),
            "qstate.span_dimension.us": us(self.incl_ns["span_dimension"]),
            "kernels.us": us(self.layer_ns["kernels"]),
            "kernels.calls": kernel_calls * per,
            "kernels.rows_per_call": self.layer_info["kernels"] / kernel_calls if kernel_calls else 0.0,
            "tri.us": us(self.layer_ns["tri"]),
            "tri.calls": self.layer_calls["tri"] * per,
            "pencil.analyze_span.self_us": us(self.self_ns["analyze_span"]),
            "pencil.quartic.us": us(self.incl_ns["quartic"]),
            "pencil.quartic_roots.us": us(self.incl_ns["quartic_roots"]),
            "pencil.clause_quadratics.us": us(self.incl_ns["clause_quadratics"]),
            "pencil.common_roots.us": us(self.incl_ns["common_roots"]),
            "pencil.cluster_points.calls": self.calls["cluster_points"] * per,
            "pencil.candidates": self.candidates / pencils if pencils else 0.0,
            "pencil.exceptional_per_candidate": (
                self.info["analyze_span"] / self.candidates if self.candidates else 0.0
            ),
            "quad.classify4.self_us": us(self.self_ns["classify4"]),
            "quad.degenerate_frac": (
                self.info["classify4"] / self.calls["classify4"] if self.calls["classify4"] else 0.0
            ),
            "exact.us": us(self.layer_ns["exact"]),
            "exact.exact_rank.us": us(self.incl_ns["exact_rank"]),
            "exact.quartic_exact.us": us(self.incl_ns["quartic_exact"]),
            "exact.clause_quadratics_exact.us": us(self.incl_ns["clause_quadratics_exact"]),
            "exact.classify3_exact.calls": self.calls["classify3_exact"] * per,
        }
