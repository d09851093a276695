"""The per-layer metrics, which layer each workload must exercise, and which
end-to-end metric each layer metric should move.

Kept free of `cycbmw` imports: `run.py` reads it without the package on its
path.
"""

# Per-layer metric -> (unit, better).  Every traced run reports all of them;
# a layer a workload never calls reads 0.
PER_LAYER = {
    "rewriting.reduce.calls": ("count", "lower"),
    "rewriting.reduce.s": ("s", "lower"),
    "rewriting.reduce.p50_ms": ("ms", "lower"),
    "rewriting.reduce.p99_ms": ("ms", "lower"),
    "rewriting.complete.s": ("s", "lower"),
    "rewriting.complete.rules_added": ("count", "lower"),
    "rewriting.complete.rules_removed": ("count", "lower"),
    "rewriting.complete.ambiguities": ("count", "lower"),
    "rewriting.complete.verify_ambiguities": ("count", "lower"),
    "rewriting.enumerate.s": ("s", "lower"),
    "presentation.probe.s": ("s", "lower"),
    "presentation.table.s": ("s", "lower"),
    "presentation.table.entries": ("count", "lower"),
    "presentation.dump.s": ("s", "lower"),
    "presentation.dump.bytes": ("bytes", "lower"),
    "presentation.load.s": ("s", "lower"),
    "presentation.mul.calls": ("count", "lower"),
    "presentation.mul.s": ("s", "lower"),
    "linalg.insert.calls": ("count", "lower"),
    "linalg.insert.s": ("s", "lower"),
    "linalg.insert.useful_ratio": ("ratio", "higher"),
    "linalg.nullspace.s": ("s", "lower"),
    "linalg.rowbasis.s": ("s", "lower"),
    "repn.radical.s": ("s", "lower"),
    "repn.radical.dim": ("count", "lower"),
    "repn.quotient.s": ("s", "lower"),
    "repn.center.s": ("s", "lower"),
    "repn.central_idempotents.s": ("s", "lower"),
    "repn.primitive_idempotent.s": ("s", "lower"),
    "repn.wedderburn.s": ("s", "lower"),
    "repn.simple_modules.s": ("s", "lower"),
    "fields.add.calls": ("count", "lower"),
    "fields.mul.calls": ("count", "lower"),
    "fields.inv.calls": ("count", "lower"),
    "combinatorics.classify.s": ("s", "lower"),
    "combinatorics.classify.entries": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# Spans each workload must record at least once in a traced pass; a zero
# means a wrapper missed its lookup site, and the run is reported incorrect.
ACTIVE = {
    "build": ("rewriting.reduce", "rewriting.complete", "rewriting.enumerate",
              "presentation.probe", "presentation.table", "presentation.dump",
              "linalg.insert"),
    "complete": ("rewriting.reduce", "rewriting.complete", "rewriting.enumerate",
                 "presentation.probe"),
    "analyze": ("presentation.load", "presentation.mul", "linalg.insert",
                "linalg.nullspace", "linalg.rowbasis", "repn.radical",
                "repn.quotient", "repn.center", "repn.central_idempotents",
                "repn.primitive_idempotent", "repn.wedderburn", "combinatorics.classify"),
    "fields_wide": ("rewriting.reduce", "rewriting.complete", "presentation.table",
                    "presentation.dump", "presentation.load", "presentation.mul",
                    "linalg.insert", "repn.radical", "repn.wedderburn",
                    "repn.simple_modules", "combinatorics.classify"),
}


# Layer metric prefix -> (end-to-end metrics it should move, prediction),
# written down before any optimisation is measured against it.
MOVES = {
    "rewriting.reduce": ("build.wall_ref_s, complete.wall_ref_s, analyze.setup_s",
                         "no change in analyze.wall_ref_s: analyze algebras are "
                         "table-born"),
    "rewriting.complete": ("complete.wall_ref_s",
                           "minor on build.wall_ref_s: its completions take < 1 s"),
    "rewriting.enumerate": ("complete.wall_ref_s", ""),
    "presentation.probe": ("build.wall_ref_s", ""),
    "presentation.table": ("build.wall_ref_s", "no change in complete.wall_ref_s"),
    "presentation.dump": ("build.wall_ref_s, analyze.setup_s", ""),
    "presentation.load": ("analyze.wall_ref_s, fields_wide.wall_ref_s", ""),
    "presentation.mul": ("analyze.wall_ref_s, analyze.peak_rss_mb, fields_wide.wall_ref_s",
                         "the dim^3 int64 tensor on analyze, the list path with "
                         "Fraction and big-int scalars on fields_wide"),
    "linalg": ("analyze.wall_ref_s, fields_wide.wall_ref_s",
               "no change in build.wall_ref_s or complete.wall_ref_s"),
    "repn": ("analyze.wall_ref_s, fields_wide.wall_ref_s",
             "no change in build.wall_ref_s or complete.wall_ref_s"),
    "fields": ("fields_wide.wall_ref_s, build.wall_ref_s",
               "a numpy-only speed-up leaves fields_wide unchanged"),
    "combinatorics.classify": ("none", "negligible everywhere: no change"),
    "trace.overhead_s": ("none", "cost of the span wrappers, not of the program"),
}
