"""Self-check of the benchmark's output gate.

    python3 perfbench/check.py        (from the root of a checkout)

Runs small operations against their recorded references and against
deliberately wrong ones: a wrong reference digest, a wrong block list and
an operation that raises must each be reported as a failed operation,
while the true references pass.  Exit status 0 when the gate behaves.
"""

from __future__ import annotations

import dataclasses
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import ops  # noqa: E402
from instances import B22, B32, Q13  # noqa: E402


def main() -> int:
    out_dir = os.path.join(os.getcwd(), ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as dumps:
        if ops.write_dump(dumps, B32):
            print("BAD set-up: the B(3,2) dump misses its reference")
            return 1
        ctx = {"seed": 1, "dumps": dumps, "bad_dumps": set()}
        wrong_digest = dataclasses.replace(B22, digest="0" * 64)
        wrong_blocks = dataclasses.replace(B32, blocks=(3, 3, 2, 1, 1, 1, 1, 1, 1, 1))
        wrong_q_digest = dataclasses.replace(Q13, digest="0" * 64)
        cases = [
            ("recorded digest", ops.op_build, B22, True),
            ("wrong reference digest", ops.op_build, wrong_digest, False),
            ("recorded blocks", ops.op_analyze, B32, True),
            ("wrong reference blocks", ops.op_analyze, wrong_blocks, False),
            ("operation that raises (missing dump)", ops.op_analyze, Q13, False),
            ("whole pipeline, recorded references", ops.op_pipeline, Q13, True),
            ("whole pipeline, wrong reference digest", ops.op_pipeline, wrong_q_digest, False),
        ]
        ok = True
        for label, op, inst, want_ok in cases:
            res = ops.run_op(op, inst, inst.params(), ctx)
            good = res["ok"] == want_ok
            ok &= good
            verdict = "passed" if res["ok"] else f"failed {res['problems']}"
            print(f"{'OK ' if good else 'BAD'} {label}: operation {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
