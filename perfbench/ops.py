"""The benchmark's operations, one per instance, and the gate on each output.

`worker.py` runs them in a timed pass; `check.py` runs them against right
and deliberately wrong references.  Each gate returns a list of problems,
empty when the output is right; a raise or a problem is a failed operation.
"""

from __future__ import annotations

import hashlib
import json
import os
import time

from cycbmw import combinatorics, presentation, repn, rewriting
from instances import Instance


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def dump_path(dumps_dir: str, inst: Instance) -> str:
    return os.path.join(dumps_dir, inst.name + ".json")


# -- gates: each returns a list of problems, empty when the output is right ---

def gate_dump(inst: Instance, dim: int, text: str) -> list:
    problems = []
    if dim != inst.dim:
        problems.append(f"dimension {dim} != {inst.dim}")
    if sha256(text) != inst.digest:
        problems.append("canonical dump digest differs from the reference")
    return problems


def gate_analysis(inst: Instance, alg, rad_rows, report, classified) -> list:
    problems = []
    if alg.dim != inst.dim:
        problems.append(f"dimension {alg.dim} != {inst.dim}")
    if len(rad_rows) != inst.radical_dim:
        problems.append(f"radical dim {len(rad_rows)} != {inst.radical_dim}")
    if not report.split:
        problems.append("semisimple quotient did not split")
    if sum(d * d for d in report.blocks) != alg.dim - len(rad_rows):
        problems.append("sum of d^2 over blocks != dim - dim rad")
    if tuple(report.block_dims_sorted()) != inst.blocks:
        problems.append(f"blocks {report.block_dims_sorted()} != {list(inst.blocks)}")
    if classified != inst.classify_count:
        problems.append(f"classification count {classified} != {inst.classify_count}")
    if inst.classify_is_blocks and classified != len(report.blocks):
        problems.append(f"{len(report.blocks)} blocks but {classified} classified simples")
    return problems


def classification_count(alg) -> int:
    """The `cycbmw analyze` count: every index pair, or the contraction-free
    layer for the Hecke quotient."""
    mc = combinatorics.Multicharge.from_parameters(alg.params)
    entries = combinatorics.classify_cyclotomic(alg.params, mc, alg.n)
    if alg.variant == "ariki_koike":
        return sum(1 for ent in entries if ent.f == 0)
    return len(entries)


# -- operations: one per instance ---------------------------------------------

def op_build(inst, params, ctx):
    """Construction: completion, word enumeration, product table, dump."""
    alg = presentation.build_algebra(inst.n, params, variant=inst.variant)
    return gate_dump(inst, alg.dim, presentation.dumps_algebra(alg))


def op_complete(inst, params, ctx):
    """Orientation probe, completion and word enumeration: the steps of
    build_algebra before its product table."""
    cap = presentation.default_degree_cap(inst.n, params.r)
    orientation = presentation.select_orientation13(params, variant=inst.variant)
    eqs = presentation.canonical_relations(inst.n, params, variant=inst.variant,
                                           orientation13=orientation)
    rules, _ = rewriting.complete(eqs, params.field, cap)
    words = rewriting.enumerate_irreducible_words(
        rules, presentation.gen_count(inst.n), cap)
    problems = []
    if len(words) != inst.dim:
        problems.append(f"{len(words)} irreducible words != {inst.dim}")
    if sha256("\n".join(w.hex() for w in words)) != inst.digest:
        problems.append("irreducible word list digest differs from the reference")
    return problems


def analyze(inst, blob, ctx, modules):
    """The `cycbmw analyze` steps on a parsed dump, optionally followed by
    the simple modules."""
    alg = presentation.load_algebra(blob)
    rad_rows = repn.radical(alg)
    report = repn.wedderburn(alg, rad_rows, seed=ctx["seed"])
    problems = gate_analysis(inst, alg, rad_rows, report, classification_count(alg))
    if modules:
        sizes = sorted((m.dim for m in repn.simple_modules(alg, report)), reverse=True)
        if sizes != list(inst.blocks):
            problems.append(f"simple module dims {sizes} != {list(inst.blocks)}")
    return problems


def op_analyze(inst, params, ctx):
    """`cycbmw analyze` on a dump written in set-up."""
    if inst.name in ctx["bad_dumps"]:
        return ["set-up dump failed its gate"]
    with open(dump_path(ctx["dumps"], inst), "r", encoding="utf-8") as fh:
        blob = json.load(fh)
    return analyze(inst, blob, ctx, modules=False)


def op_pipeline(inst, params, ctx):
    """The whole pipeline: build, dump, load, analyze, simple modules."""
    alg = presentation.build_algebra(inst.n, params, variant=inst.variant)
    text = presentation.dumps_algebra(alg)
    return gate_dump(inst, alg.dim, text) + analyze(inst, json.loads(text), ctx, modules=True)


OPS = {"build": op_build, "complete": op_complete, "analyze": op_analyze,
       "fields_wide": op_pipeline}


def run_op(op, inst, params, ctx, clock=None) -> dict:
    """Run one operation; a raise or a missed gate is a failed operation.
    With a `RefClock`, its reference seconds are recorded too."""
    ref0 = clock.read() if clock else 0.0
    t0 = time.perf_counter()
    try:
        problems = op(inst, params, ctx)
    except Exception as exc:     # a failing operation is counted, not fatal
        problems = [f"{type(exc).__name__}: {exc}"]
    seconds = time.perf_counter() - t0
    return {"instance": inst.name, "seconds": seconds,
            "ref_s": clock.read() - ref0 if clock else seconds,
            "ok": not problems, "problems": problems}


def write_dump(dumps_dir: str, inst: Instance) -> list:
    """Build one analyze dump with the program under test; return its gate."""
    alg = presentation.build_algebra(inst.n, inst.params(), variant=inst.variant)
    text = presentation.dumps_algebra(alg)
    with open(dump_path(dumps_dir, inst), "w", encoding="utf-8") as fh:
        fh.write(text)
    return gate_dump(inst, alg.dim, text)
