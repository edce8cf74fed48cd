#!/usr/bin/env python3
"""Closed-loop benchmark of russell: one caller, one operation at a time.

    python3 perfbench/run.py --workload verify-seeds --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Inputs come from ``--seed`` only.  The operations run one after
another until their times add up to ``--seconds``; each output is checked
right after its operation, outside its timing, by routes that do not share
code with the program.

With ``--trace 0`` the last line of standard output reports the end-to-end
metrics; with ``--trace 1`` it reports the per-layer metrics of a traced run,
in which each input runs once untraced and once traced so that the tracing
overhead can be read off.  The line before it holds run metadata: seed,
per-op input sizes, interpreter, processor count, source revision and a
digest of the first outputs.  Exit status is 0 when the run completed (the
result line says whether the outputs were correct) and 2 when it could not
start.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"

# Fresh interpreters per run, half before the timed window and half after it,
# so that setup_s, their median, spans more than one state of a shared host.
SETUP_REPEATS = 10
SETUP_TIMEOUT_S = 60
DIGEST_OPS = 16     # outputs covered by the output digest
MAX_PROBLEMS = 5    # problem messages kept in the metadata

# (name, unit, better); bounds live in BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p90_ms", "ms", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("pass_ratio", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

# A fresh interpreter imports the program and builds what the workload needs
# before its first op.
SETUP_CODE = """\
import os, sys
root, name = sys.argv[1], sys.argv[2]
sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
import workloads
workloads.WORKLOADS[name].prepare()
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_seconds(workload: str, repeats: int) -> list[float]:
    """Wall times of fresh interpreters doing the workload's set-up.

    The exit is awaited on a pidfd: ``Popen.wait(timeout)`` polls with sleeps
    of up to 50 ms, which would quantize the measured times.
    """
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE, str(ROOT), workload],
                                stdout=subprocess.DEVNULL)
        pidfd = os.pidfd_open(proc.pid)
        try:
            exited, _, _ = select.select([pidfd], [], [], SETUP_TIMEOUT_S)
        finally:
            os.close(pidfd)
        if not exited:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"set-up of {workload} took over {SETUP_TIMEOUT_S} s")
        code = proc.wait()
        samples.append(time.perf_counter() - start)
        if code:
            raise RuntimeError(f"set-up of {workload} exited with status {code}")
    return samples


class OpLoop:
    """The closed loop: ops back to back until their times add up to the window.

    Each output is checked as soon as its op returns, outside the op's timing,
    and then dropped, so memory holds one output at a time and the checks
    spread the window over a longer stretch of wall time.
    """

    def __init__(self, args, workload, ctx, run_one):
        self.records: list[dict] = []   # per op: wall ms, input sizes, problem text
        self.busy_s = 0.0               # wall time spent inside ops
        digest = hashlib.sha256()
        for i, item in enumerate(workload.inputs(args.seed)):
            start = time.perf_counter()
            try:
                output, problem = run_one(item), None
            except Exception as exc:  # a failing op is counted, and the loop goes on
                output, problem = None, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            self.busy_s += elapsed
            record = {"ms": elapsed * 1000}
            if problem is None:
                try:
                    problem = "; ".join(workload.check(ctx, item, output,
                                                       random.Random(f"{args.seed}:{i}")))
                    record.update(workload.sizes(item, output))
                except Exception as exc:
                    problem = f"check raised {type(exc).__name__}: {exc}"
            if i < DIGEST_OPS:
                text = problem if output is None else workload.digest_text(ctx, output)
                digest.update(text.encode() + b"\0")
            record["problem"] = problem
            self.records.append(record)
            if self.busy_s >= args.seconds:
                break
        self.digest = digest.hexdigest()
        self.failed = sum(1 for r in self.records if r["problem"])


def source_revision() -> dict:
    """Git commit when the checkout has one, and a digest of the program sources."""
    sha = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            if ref_file.is_file():
                sha = ref_file.read_text().strip()
            else:
                packed = ROOT / ".git" / "packed-refs"
                for line in packed.read_text().splitlines() if packed.is_file() else ():
                    if line.endswith(" " + ref[5:]):
                        sha = line.split()[0]
        else:
            sha = ref
    digest = hashlib.sha256()
    for path in sorted((SRC / "russell").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def metadata(args, loop: OpLoop) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "ops": len(loop.records),
        "python": platform.python_version(), "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "platform": platform.platform(),
        **source_revision(),
        "output_digest": {"ops": min(DIGEST_OPS, len(loop.records)), "sha256": loop.digest},
        "problems": [r["problem"] for r in loop.records if r["problem"]][:MAX_PROBLEMS],
        "op_sizes": [{k: v for k, v in r.items() if k != "problem"} for r in loop.records],
    }


def end_to_end_run(args, workload, ctx):
    setup_seconds(args.workload, 1)  # warm-up: byte-code caches, file cache
    setup = setup_seconds(args.workload, SETUP_REPEATS // 2)
    loop = OpLoop(args, workload, ctx, lambda item: workload.op(ctx, item))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup += setup_seconds(args.workload, SETUP_REPEATS - SETUP_REPEATS // 2)
    times_ms = [r["ms"] for r in loop.records]
    p90 = statistics.quantiles(times_ms, n=10)[8] if len(times_ms) > 1 else times_ms[0]
    values = {
        "setup_s": statistics.median(setup),
        "op_p50_ms": statistics.median(times_ms),
        "op_p90_ms": p90,
        "ops_per_s": len(times_ms) / loop.busy_s,
        "pass_ratio": (len(times_ms) - loop.failed) / len(times_ms),
        "peak_rss_mb": peak_rss_mb,
    }
    meta = metadata(args, loop)
    meta["setup_samples_s"] = setup
    meta["ops_beyond_p90"] = sum(1 for t in times_ms if t > p90)
    return meta, loop, {name: (values[name], unit) for name, unit, _ in END_TO_END}


def traced_run(args, workload, ctx):
    tracer = tracing.Tracer()
    plain_s = traced_s = 0.0

    def run_one(item):
        nonlocal plain_s, traced_s
        start = time.perf_counter()
        workload.op(ctx, item)
        middle = time.perf_counter()
        output = tracer.run_op(workload.op, ctx, item)
        plain_s += middle - start
        traced_s += time.perf_counter() - middle
        return output

    loop = OpLoop(args, workload, ctx, run_one)
    overhead = traced_s / plain_s if plain_s else 0.0  # 0 when every op raised
    values = tracing.per_layer_values(tracer, len(loop.records), overhead)
    OUT_DIR.mkdir(exist_ok=True)
    spans_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write_spans(spans_file)
    meta = metadata(args, loop)
    meta.update(spans_file=str(spans_file.relative_to(ROOT)), spans_kept=len(tracer.spans),
                spans_dropped=tracer.dropped)
    spec = tracing.per_layer_spec(workloads.FROZEN_CHECK_IDS)
    return meta, loop, {name: (values.get(name, 0.0), unit) for name, unit, _ in spec}


def main(argv=None) -> int:
    if not (SRC / "russell" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC / 'russell'}; run from a russell checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    ctx = workload.prepare()
    run = traced_run if args.trace else end_to_end_run
    meta, loop, metrics = run(args, workload, ctx)
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": len(loop.records),
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
