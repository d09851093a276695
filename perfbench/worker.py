"""One pass of a workload in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE [...]

MODE is `plain` (timed, untraced), `spans` (timed, span wrappers on),
`counts` (Field call counters only) or `prepare` (write the canonical dumps
the analyze workload loads into --dumps).  The last stdout line is one JSON
object with the pass's timings, operations and, when traced, its per-layer
metrics.  `run.py` starts one worker per pass, so module-level caches such
as the orientation-probe cache and each algebra's lazily filled product
table start empty every time.

A `RefClock` starts before `cycbmw` is imported, so set-up (the import and
parameter construction) and the timed part are both measured in reference
seconds of CPU time as well as in wall and CPU seconds.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from clock import INTERP, TENSOR, RefClock  # noqa: E402
from layers import ACTIVE  # noqa: E402

# analyze runs GF(101) algebras, so StructureAlgebra.mul takes its int64
# structure-tensor path, bound by memory bandwidth; that time is rescaled by
# the clock's tensor kernel.  With the interpreted kernel alone, analyze's
# wall_ref_s spread (interquartile range over median, five seeds) was 0.14;
# with the tensor kernel it was 0.03 to 0.07.  The other workloads never
# take the tensor path: build and complete do not multiply, and
# fields_wide's fields are not GF(p) with p < 2^15.
TENSOR_WORKLOADS = ("analyze",)


def rescale_tensor_products(clock) -> None:
    """Time inside StructureAlgebra.mul counts as tensor work on `clock`."""
    from cycbmw import presentation

    mul = presentation.StructureAlgebra.mul

    @functools.wraps(mul)
    def timed_mul(self, a, b):
        clock.switch(TENSOR)
        try:
            return mul(self, a, b)
        finally:
            clock.switch(INTERP)

    presentation.StructureAlgebra.mul = timed_mul


def cpu_seconds() -> float:
    """User+sys CPU time of this process and its waited-for children."""
    t = os.times()
    return time.process_time() + t.children_user + t.children_system


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(ACTIVE))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("plain", "spans", "counts", "prepare"))
    ap.add_argument("--dumps", help="directory of the analyze workload's dumps")
    ap.add_argument("--bad-dumps", default="", help="comma list of dumps that failed set-up")
    ap.add_argument("--pass-id", default="0")
    ap.add_argument("--spans-out", help="file the traced pass writes its spans to")
    args = ap.parse_args(argv)

    boot = time.monotonic()
    clock = RefClock(tensor=args.mode != "prepare" and args.workload in TENSOR_WORKLOADS)
    clock.start()
    try:
        out = run_pass(args, clock)
    finally:
        clock.stop()
    out["boot"] = boot
    print(json.dumps(out))
    return 0


def run_pass(args, clock) -> dict:
    import ops
    from instances import WORKLOADS

    if args.mode == "prepare":
        os.makedirs(args.dumps, exist_ok=True)
        bad = [inst.name for inst in WORKLOADS["analyze"] if ops.write_dump(args.dumps, inst)]
        return {"bad_dumps": bad, "prep_ref_s": clock.read()}

    order = list(WORKLOADS[args.workload])
    random.Random(args.seed).shuffle(order)
    params = {inst.name: inst.params() for inst in order}
    ctx = {"seed": args.seed, "dumps": args.dumps,
           "bad_dumps": set(filter(None, args.bad_dumps.split(",")))}
    tracer = None
    if args.mode != "plain":
        from tracing import Tracer
        tracer = Tracer()
        if args.mode == "spans":
            tracer.install_spans()
        else:
            tracer.install_field_counts()
    if args.workload in TENSOR_WORKLOADS:
        rescale_tensor_products(clock)

    op = ops.OPS[args.workload]
    setup_ref_s = clock.read()
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    done = []
    for inst in order:
        if tracer is not None:
            tracer.run_id = f"{args.workload}:{args.seed}:{args.pass_id}:{inst.name}"
        done.append(ops.run_op(op, inst, params[inst.name], ctx, clock))
    wall = time.perf_counter() - t0
    cpu = cpu_seconds() - cpu0
    cpu_ref = clock.read() - setup_ref_s

    out = {"setup_ref_s": setup_ref_s, "wall_s": wall, "cpu_s": cpu, "cpu_ref_s": cpu_ref,
           "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
           "ops": done}
    if args.mode == "spans":
        out["layers"] = tracer.layer_metrics()
        out["span_names"] = sorted(tracer.span_names())
        if args.spans_out:
            tracer.write_spans(args.spans_out)
    elif args.mode == "counts":
        out["layers"] = tracer.field_counts()
    return out


if __name__ == "__main__":
    sys.exit(main())
