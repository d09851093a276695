"""Spans and counters recorded from the benchmark's side of each layer boundary.

Nothing inside `src/` is changed: the tracer replaces public functions and
methods with timing wrappers before the first operation.  A module-level
function is replaced in every `cycbmw` module whose namespace holds it,
because callers look it up there (`cycbmw.repn.nullspace`,
`cycbmw.presentation.complete`, ...); patching only the defining module
would leave those spans at zero.  Methods are replaced on their class.

Spans are kept in memory as (name, start, end, parent index, run id) and
written out after the pass.  A span's self time is its duration minus the
time covered by its child spans.

The `Field` counters run in a separate count-only pass: a wrapper on
`Field.add`/`mul` costs as much as the call it wraps, so it would distort
every span time.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import defaultdict

from cycbmw import combinatorics, fields, linalg, presentation, repn, rewriting

# (span name, owner, attribute); owner is a module (function patched at
# every lookup site) or a class (method patched on the class)
SPANS = (
    ("rewriting.reduce", rewriting.RewriteSystem, "reduce"),
    ("rewriting.complete", rewriting, "complete"),
    ("rewriting.enumerate", rewriting, "enumerate_irreducible_words"),
    ("presentation.probe", presentation, "select_orientation13"),
    ("presentation.table", presentation.StructureAlgebra, "materialize"),
    ("presentation.dump", presentation, "dumps_algebra"),
    ("presentation.load", presentation, "load_algebra"),
    ("presentation.mul", presentation.StructureAlgebra, "mul"),
    ("linalg.insert", linalg.EchelonSpan, "insert"),
    ("linalg.nullspace", linalg, "nullspace"),
    ("linalg.rowbasis", linalg.RowBasis, "__init__"),
    ("linalg.rowbasis", linalg.RowBasis, "coords"),
    ("repn.radical", repn, "radical"),
    ("repn.quotient", repn, "semisimple_quotient"),
    ("repn.center", repn, "center"),
    ("repn.central_idempotents", repn, "central_primitive_idempotents"),
    ("repn.primitive_idempotent", repn, "primitive_idempotent"),
    ("repn.wedderburn", repn, "wedderburn"),
    ("repn.simple_modules", repn, "simple_modules"),
    ("combinatorics.classify", combinatorics, "classify_cyclotomic"),
)

FIELD_COUNTS = ("add", "mul", "inv")


def _cycbmw_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "cycbmw" or name.startswith("cycbmw."))]


def _replace(owner, attr, wrapper):
    if isinstance(owner, type):
        setattr(owner, attr, wrapper)
        return
    original = getattr(owner, attr)
    for mod in _cycbmw_modules():
        if getattr(mod, attr, None) is original:
            setattr(mod, attr, wrapper)


class Tracer:
    """In-memory span recorder for one pass."""

    def __init__(self):
        self.spans = []           # (name, start, end, parent index, run id)
        self.stack = []
        self.run_id = None
        self.counts = defaultdict(int)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.run_id)
        return wrapper

    def install_spans(self):
        counts = self.counts
        for name, owner, attr in SPANS:
            _replace(owner, attr, self._wrap(name, getattr(owner, attr)))

        # counters read from results, at the same boundaries
        complete = rewriting.complete

        def complete_counted(*args, **kwargs):
            rs, stats = complete(*args, **kwargs)
            counts["rewriting.complete.rules_added"] += stats.rules_added
            counts["rewriting.complete.rules_removed"] += stats.rules_removed
            counts["rewriting.complete.ambiguities"] += stats.ambiguities_checked
            counts["rewriting.complete.verify_ambiguities"] += stats.verification_ambiguities
            return rs, stats
        _replace(rewriting, "complete", complete_counted)

        materialize = presentation.StructureAlgebra.materialize

        def materialize_counted(alg):
            before = len(alg._table)
            materialize(alg)
            counts["presentation.table.entries"] += len(alg._table) - before
        presentation.StructureAlgebra.materialize = materialize_counted

        dumps = presentation.dumps_algebra

        def dumps_counted(alg):
            text = dumps(alg)
            counts["presentation.dump.bytes"] += len(text.encode())
            return text
        _replace(presentation, "dumps_algebra", dumps_counted)

        insert = linalg.EchelonSpan.insert

        def insert_counted(span, v):
            grew = insert(span, v)
            counts["linalg.insert.useful"] += bool(grew)
            return grew
        linalg.EchelonSpan.insert = insert_counted

        radical = repn.radical

        def radical_counted(alg):
            rows = radical(alg)
            counts["repn.radical.dim"] += len(rows)
            return rows
        _replace(repn, "radical", radical_counted)

        classify = combinatorics.classify_cyclotomic

        def classify_counted(*args, **kwargs):
            entries = classify(*args, **kwargs)
            counts["combinatorics.classify.entries"] += len(entries)
            return entries
        _replace(combinatorics, "classify_cyclotomic", classify_counted)

    def install_field_counts(self):
        counts = self.counts
        for op in FIELD_COUNTS:
            fn = getattr(fields.Field, op)
            key = f"fields.{op}.calls"

            def counted(self_field, *args, _fn=fn, _key=key):
                counts[_key] += 1
                return _fn(self_field, *args)
            setattr(fields.Field, op, counted)

    def layer_times(self):
        """name -> [calls, seconds, self seconds, call durations]."""
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(lambda: [0, 0.0, 0.0, []])
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            agg = out[name]
            agg[0] += 1
            agg[1] += t1 - t0
            agg[2] += t1 - t0 - child[i]
            agg[3].append(t1 - t0)
        return out

    def layer_metrics(self) -> dict:
        """The per-layer metrics of one traced pass (fields counts aside)."""
        times = self.layer_times()

        def calls(name):
            return times[name][0]

        def incl(name):
            return times[name][1]

        def own(name):
            return times[name][2]

        reduce_ms = sorted(d * 1000.0 for d in times["rewriting.reduce"][3])
        inserts = calls("linalg.insert")
        c = self.counts
        return {
            "rewriting.reduce.calls": calls("rewriting.reduce"),
            "rewriting.reduce.s": incl("rewriting.reduce"),
            "rewriting.reduce.p50_ms": _percentile(reduce_ms, 50),
            "rewriting.reduce.p99_ms": _percentile(reduce_ms, 99),
            "rewriting.complete.s": incl("rewriting.complete"),
            "rewriting.complete.rules_added": c["rewriting.complete.rules_added"],
            "rewriting.complete.rules_removed": c["rewriting.complete.rules_removed"],
            "rewriting.complete.ambiguities": c["rewriting.complete.ambiguities"],
            "rewriting.complete.verify_ambiguities": c["rewriting.complete.verify_ambiguities"],
            "rewriting.enumerate.s": incl("rewriting.enumerate"),
            "presentation.probe.s": incl("presentation.probe"),
            "presentation.table.s": own("presentation.table"),
            "presentation.table.entries": c["presentation.table.entries"],
            "presentation.dump.s": incl("presentation.dump"),
            "presentation.dump.bytes": c["presentation.dump.bytes"],
            "presentation.load.s": incl("presentation.load"),
            "presentation.mul.calls": calls("presentation.mul"),
            "presentation.mul.s": incl("presentation.mul"),
            "linalg.insert.calls": inserts,
            "linalg.insert.s": incl("linalg.insert"),
            "linalg.insert.useful_ratio": c["linalg.insert.useful"] / inserts if inserts else 0.0,
            "linalg.nullspace.s": incl("linalg.nullspace"),
            "linalg.rowbasis.s": incl("linalg.rowbasis"),
            "repn.radical.s": own("repn.radical"),
            "repn.radical.dim": c["repn.radical.dim"],
            "repn.quotient.s": incl("repn.quotient"),
            "repn.center.s": incl("repn.center"),
            "repn.central_idempotents.s": incl("repn.central_idempotents"),
            "repn.primitive_idempotent.s": incl("repn.primitive_idempotent"),
            "repn.wedderburn.s": incl("repn.wedderburn"),
            "repn.simple_modules.s": incl("repn.simple_modules"),
            "combinatorics.classify.s": incl("combinatorics.classify"),
            "combinatorics.classify.entries": c["combinatorics.classify.entries"],
        }

    def span_names(self) -> set:
        return {s[0] for s in self.spans}

    def field_counts(self) -> dict:
        return {f"fields.{op}.calls": self.counts[f"fields.{op}.calls"]
                for op in FIELD_COUNTS}

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _percentile(sorted_values, pct):
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    cuts = statistics.quantiles(sorted_values, n=100, method="inclusive")
    return cuts[pct - 1]
