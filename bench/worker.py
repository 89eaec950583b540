"""The measured process: drives ``aoinet.cli.main`` in a closed loop.

One client: op ``i + 1`` starts only when op ``i`` has returned, as a CLI
user waits for each command.  Each op's stdout, exit code, wall and CPU time
go to a JSON-lines file that the parent checks and reduces; this process
computes no reference, so its memory high-water mark is the program's own.

Usage (from ``run.py``, with ``src`` on ``PYTHONPATH`` and thread caps set):
    python bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
        --net NET.json --out OPS.jsonl

With ``--trace 1`` every op runs twice, untraced and traced in alternating
order (their ratio is the tracing overhead), and op 0 runs once more under
tracemalloc for the per-function memory peaks and the exact counts.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import tracemalloc

import workloads
from tracer import ROOT, Tracer

MAX_MEASURE_S = 120.0


def run_op(main, argvs, tracer=None):
    """Run one op's commands; return (wall_s, cpu_s, outputs, span summary)."""
    outs = []
    if tracer is not None:
        tracer.reset()
        tracer.install()
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            rec = {"rc": None, "exc": None}
            k = tracer.open(ROOT) if tracer is not None else None
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rec["rc"] = main(argv)
            except Exception as exc:  # an op failure is counted, never fatal
                rec["exc"] = f"{type(exc).__name__}: {exc}"
            finally:
                if tracer is not None:
                    tracer.close(k)
            rec["stdout"], rec["stderr"] = out.getvalue(), err.getvalue()
            outs.append(rec)
    finally:
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        if tracer is not None:
            tracer.uninstall()
    summary = tracer.summary() if tracer is not None else None
    counts = dict(tracer.counts) if tracer is not None else None
    return wall, cpu, outs, summary, counts


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--net", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    from aoinet.cli import main as cli_main

    w = workloads.make(args.workload, args.seed)
    tracer = Tracer() if args.trace else None

    with open(args.out, "w", encoding="utf-8") as fh:

        def emit(rec):
            fh.write(json.dumps(rec) + "\n")

        def op(i, kind, tr=None):
            wall, cpu, outs, summary, counts = run_op(cli_main, w.op_argvs(i, args.net), tr)
            emit({"kind": kind, "i": i, "wall_s": wall, "cpu_s": cpu,
                  "outs": outs, "spans": summary, "counts": counts})

        # let lazy imports, caches and page faults settle before timing
        op(0, "warmup")
        t0 = time.perf_counter()
        i = 0
        while True:
            if args.trace:
                order = ("untraced", "traced") if i % 2 == 0 else ("traced", "untraced")
                for kind in order:
                    op(i, kind, tracer if kind == "traced" else None)
            else:
                op(i, "timed")
            i += 1
            elapsed = time.perf_counter() - t0
            enough = elapsed >= args.seconds and i % w.stop_every == 0
            if not args.trace:  # the tail percentile needs 10 ops beyond it
                enough = enough and i >= w.min_ops
            if enough or elapsed >= MAX_MEASURE_S:
                break
        measure_s = time.perf_counter() - t0
        if args.trace:
            tracer.memory = True
            tracemalloc.start()
            try:
                op(0, "memory", tracer)
            finally:
                tracemalloc.stop()
                tracer.memory = False

        import networkx
        import numpy
        import scipy

        emit({
            "kind": "end",
            "measure_s": measure_s,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "absent": tracer.absent if tracer else [],
            "bad_hooks": sorted(tracer.bad_hooks) if tracer else [],
            "versions": {
                "python": sys.version.split()[0],
                "numpy": numpy.__version__,
                "scipy": scipy.__version__,
                "networkx": networkx.__version__,
            },
            "cpu_affinity": len(os.sched_getaffinity(0)),
        })
    return 0


if __name__ == "__main__":
    sys.exit(main())
