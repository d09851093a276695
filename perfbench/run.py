"""The cycbmw benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports `cycbmw` from `src/`.
Each workload is a closed loop with one caller: a pass runs every instance
of the workload once, back to back, in an order drawn from --seed, in a
fresh interpreter (`worker.py`) with numpy/BLAS/OpenMP pinned to one
thread.  Passes repeat until S seconds of timed work and at least
MIN_PASSES passes are done.  Every operation's output is gated
(`ops.py`); a raise or a missed gate counts as a failed operation.

Times are in reference seconds (`clock.py`): CPU time rescaled by the
speed of fixed calibration kernels sampled every 0.1 s during the pass, so
that the drift of a shared CPU's speed cancels while a slower program still
reads slower.  The raw wall and CPU times are in the run record.  The
kernels add 1% (3% on analyze) to a pass's time, and analyze's tensor
kernel adds 7 MB to its peak memory.

--trace 0 prints the end-to-end metrics:
  wall_ref_s   median over passes of a pass's wall time, rescaled by the same
               factor as its CPU time; unlike cpu_ref_s it counts the time
               the machine took the CPU away (steal) or the pass waited
  cpu_ref_s    median over passes of a pass's user+sys CPU time, in
               reference seconds
  setup_s      median over passes of the time from starting the worker
               process to its first timed operation (interpreter start,
               `import cycbmw`, parameter construction); for `analyze`
               plus the one-off build of the dumps it loads; the
               interpreter's start before the clock runs in wall seconds,
               the rest in reference seconds of CPU time
  peak_rss_mb  largest ru_maxrss of the pass workers
--trace 1 prints the per-layer metrics of `layers.PER_LAYER`: one untraced
pass, traced passes for S seconds (medians), and one count-only pass for
the `fields.*.calls` counters.  Layer times are raw wall seconds and include
the clock's samples.  trace.overhead_s is the traced minus the untraced
pass's cpu_ref_s.

The last stdout line is the result object; the line before it is the run
record (code identity, versions, CPU count, load average before and
after, per-pass and per-operation times in wall and reference seconds),
also appended to .perfbench/runs.jsonl.  Spans of traced passes are written
to .perfbench/spans/.  Exit status is non-zero, with no result line, when
the checkout has no `src/cycbmw` or a worker crashes.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from layers import ACTIVE, PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = tuple(ACTIVE)
MIN_PASSES = 2
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def loadavg():
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return fh.read().split()[:3]
    except OSError:
        return None


def source_identity(root):
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            proc = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                                  capture_output=True, text=True)
            commit = proc.stdout.strip() or None
        except OSError:         # no git executable
            pass
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "cycbmw")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return commit, h.hexdigest()


def versions():
    out = {"python": platform.python_version()}
    for dist in ("numpy", "sympy"):
        try:
            out[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            out[dist] = None
    return out


def worker_env(root):
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    env.pop("BMW_DEGREE_CAP", None)     # the default degree caps are benchmarked
    return env


class Runner:
    def __init__(self, root, workload, seed, out_dir):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.out_dir = out_dir
        self.env = worker_env(root)
        self.start = time.monotonic()
        self.passes = 0

    def worker(self, mode, *extra):
        """Run one worker; return its result and the monotonic spawn time."""
        remaining = DEADLINE_S - (time.monotonic() - self.start)
        if remaining <= 0:
            raise BenchError("time budget exhausted")
        cmd = [sys.executable, WORKER, "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode, *extra]
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=self.root, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} worker exceeded the time budget") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{mode} worker exited with {proc.returncode}:\n"
                             f"{proc.stderr.strip()[-4000:]}")
        return json.loads(lines[-1]), spawned

    def timed_pass(self, mode, *extra):
        self.passes += 1
        pass_id = str(self.passes)
        if mode == "spans":
            extra = extra + ("--spans-out", os.path.join(
                self.out_dir, "spans", f"{self.workload}-seed{self.seed}-pass{pass_id}.jsonl"))
        res, spawned = self.worker(mode, "--pass-id", pass_id, *extra)
        res["setup_s"] = res["boot"] - spawned + res["setup_ref_s"]
        res["wall_ref_s"] = res["wall_s"] * res["cpu_ref_s"] / res["cpu_s"]
        return res


def median_of(passes, key):
    return statistics.median(p[key] for p in passes)


def measure(runner, seconds, extra, prep_s):
    """Untraced passes until `seconds` of timed work and MIN_PASSES passes."""
    passes = []
    while len(passes) < MIN_PASSES or sum(p["wall_s"] for p in passes) < seconds:
        passes.append(runner.timed_pass("plain", *extra))
    metrics = {
        "wall_ref_s": (median_of(passes, "wall_ref_s"), "s"),
        "cpu_ref_s": (median_of(passes, "cpu_ref_s"), "s"),
        "setup_s": (prep_s + median_of(passes, "setup_s"), "s"),
        "peak_rss_mb": (max(p["maxrss_kb"] for p in passes) / 1024.0, "MB"),
    }
    return passes, metrics, [], []


def measure_traced(runner, seconds, extra):
    """One untraced pass, span-traced passes for `seconds`, one count-only pass."""
    plain = runner.timed_pass("plain", *extra)
    traced = []
    while not traced or sum(p["wall_s"] for p in traced) < seconds:
        traced.append(runner.timed_pass("spans", *extra))
    counted = runner.timed_pass("counts", *extra)
    problems, warnings = [], []
    for p in traced:
        missing = sorted(set(ACTIVE[runner.workload]) - set(p["span_names"]))
        if missing:
            problems.append(f"traced pass recorded no span for {missing}")
    metrics = {}
    for name, (unit, _) in PER_LAYER.items():
        if name == "trace.overhead_s":
            value = median_of(traced, "cpu_ref_s") - plain["cpu_ref_s"]
        elif name.startswith("fields."):
            value = counted["layers"][name]
        elif unit in ("count", "bytes"):
            # exact counts: every traced pass must agree
            values = {p["layers"][name] for p in traced}
            if len(values) > 1:
                warnings.append(f"{name} differs between passes: {sorted(values)}")
            value = traced[0]["layers"][name]
        else:
            value = statistics.median(p["layers"][name] for p in traced)
        metrics[name] = (value, unit)
    return [plain, *traced, counted], metrics, problems, warnings


def run(args, root):
    out_dir = os.path.join(root, ".perfbench")
    os.makedirs(os.path.join(out_dir, "spans"), exist_ok=True)
    runner = Runner(root, args.workload, args.seed, out_dir)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "loadavg_before": loadavg()}
    record["commit"], record["source_sha256"] = source_identity(root)
    record.update(versions())
    record["nproc"] = os.cpu_count()
    record["cpus_allowed"] = len(os.sched_getaffinity(0))

    extra = ()
    prep_s = 0.0
    dumps_dir = os.path.join(out_dir, f"dumps-{os.getpid()}")
    try:
        if args.workload == "analyze":
            prep, spawned = runner.worker("prepare", "--dumps", dumps_dir)
            prep_s = prep["boot"] - spawned + prep["prep_ref_s"]
            extra = ("--dumps", dumps_dir, "--bad-dumps", ",".join(prep["bad_dumps"]))
        if args.trace:
            passes, metrics, problems, warnings = measure_traced(runner, args.seconds, extra)
        else:
            passes, metrics, problems, warnings = measure(runner, args.seconds, extra, prep_s)
    finally:
        shutil.rmtree(dumps_dir, ignore_errors=True)

    ops = [op for p in passes for op in p["ops"]]
    failed = [op for op in ops if not op["ok"]]
    record["loadavg_after"] = loadavg()
    record["passes"] = [{"wall_s": p["wall_s"], "cpu_s": p["cpu_s"],
                         "cpu_ref_s": p["cpu_ref_s"], "setup_s": p["setup_s"],
                         "ops": {op["instance"]: [op["seconds"], op["ref_s"]]
                                 for op in p["ops"]}}
                        for p in passes]
    record["prep_s"] = prep_s
    record["fail_share"] = len(failed) / len(ops)
    record["failures"] = [{"instance": op["instance"], "problems": op["problems"]}
                          for op in failed]
    record["problems"] = problems
    record["warnings"] = warnings
    with open(os.path.join(out_dir, "runs.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps({"record": record}))
    return {
        "correct": not failed and not problems,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "cycbmw", "__init__.py")):
        print("perfbench: run from the root of a cycbmw checkout (no src/cycbmw here)",
              file=sys.stderr)
        return 2
    try:
        result = run(args, root)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
