"""aoinet benchmark: four CLI workloads, end-to-end timings, per-module layer split.

Usage, from the root of a checkout:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark drives the ``aoinet`` CLI in-process (``aoinet.cli.main``)
from the checkout's own ``src/``, in a closed loop with one client.  Each
run makes its inputs from ``--seed``, times set-up in fresh interpreters,
runs the workload in one child process with BLAS/OpenMP threads capped at
1, checks every op's output against an independent reference computed in
this (unmeasured) process, and prints every metric by name and unit.  The
last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``).  Details of each run, with
provenance and input fingerprints, go to ``.bench_out/``.

Workloads and the layers they load (layers are the package modules):
- crosscheck: ``compare`` (1M samples, 1M events) on r8, cycling over every
  node and one two-node subset; sampler and simulator do ~95% of the work.
- tails: ``cdf`` on a 17-point grid then ``chernoff --d 4``, same targets;
  the exact MGF recursion under scipy quadrature, no sampling.
- lattice: ``exact --all`` on r20, at the exact engine's default node
  limit; a few huge memoized recursions.
- chain: ``cascade`` on a 1000-triangle chain (2001 nodes); the only
  workload that reaches cascade, and the largest parse and output.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import FUNCTIONS, ROOT  # noqa: E402

SETUP_REPEATS = 3
TAIL_BEYOND = 10
THREAD_CAPS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
# what a console-script call of ``aoinet`` runs
CLI_CODE = "import sys; from aoinet.cli import main; sys.exit(main(sys.argv[1:]))"
RUN_LIMIT_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "op_cpu_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer, func in FUNCTIONS:
        units[f"{layer}.{func}.self_s"] = "s"
        units[f"{layer}.{func}.calls"] = "count"
    units.update({
        "exact.points_per_s": "1/s",
        "sampler.replicates": "count",
        "sampler.replicates_per_s": "1/s",
        "sampler.sample_ages.peak_mb": "MB",
        "simulator.events_per_s": "1/s",
        "simulator.birth_changes": "count",
        "simulator.useful_event_frac": "ratio",
        "simulator.simulate.peak_mb": "MB",
        "cli.self_s": "s",
        "trace.overhead_frac": "ratio",
    })
    return units


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.update(THREAD_CAPS)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def git_state(root: Path) -> dict:
    if not (root / ".git").exists():
        return {"sha": None, "dirty": None}
    try:
        sha = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "-C", str(root), "status", "--porcelain", "--untracked-files=no"],
            capture_output=True, text=True, timeout=30,
        ).stdout
    except (OSError, subprocess.TimeoutExpired):
        return {"sha": None, "dirty": None}
    return {"sha": sha or None, "dirty": bool(status.strip())}


def time_setup(net: Path, env: dict, repeats: int) -> tuple[list[float], str]:
    """Wall times of ``repeats`` fresh ``aoinet validate`` runs, and the fingerprint."""
    times, fingerprint = [], None
    for _ in range(repeats):
        t = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", CLI_CODE, "validate", "--net", str(net)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        times.append(time.perf_counter() - t)
        if proc.returncode != 0:
            raise RuntimeError(f"validate failed ({proc.returncode}): {proc.stderr[-500:]}")
        fingerprint = json.loads(proc.stdout.splitlines()[0])["meta"]["fingerprint"]
    return times, fingerprint


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile that leaves ``TAIL_BEYOND`` values beyond it.

    Returns (value, percentile); with too few values, the maximum at 100.
    """
    xs = sorted(values)
    k = len(xs) - TAIL_BEYOND - 1
    if k < 0:
        return xs[-1], 100.0
    return xs[k], 100.0 * (k + 1) / len(xs)


def end_to_end(ops: list[dict], end: dict, setup: list[float]) -> tuple[dict, dict]:
    walls = [r["wall_s"] for r in ops]
    tail_s, tail_pct = tail(walls)
    values = {
        "setup_s": statistics.median(setup),
        "op_p50_s": statistics.median(walls),
        "op_tail_s": tail_s,
        "ops_per_s": len(walls) / sum(walls),
        "op_cpu_s": statistics.median(r["cpu_s"] for r in ops),
        "peak_rss_mb": end["maxrss_kb"] / 1024.0,
    }
    extra = {"op_tail_pct": tail_pct, "ops": len(walls)}
    return values, extra


def per_layer(recs: list[dict]) -> tuple[dict, dict]:
    traced = [r for r in recs if r["kind"] == "traced"]
    untraced = [r for r in recs if r["kind"] == "untraced"]
    mem = next(r for r in recs if r["kind"] == "memory")

    def self_s(name):  # mean per op, so the layers add up to the mean op time
        return total(name, "self_s") / len(traced)

    def total(name, field):
        return sum(r["spans"].get(name, {}).get(field, 0) for r in traced)

    def rate(work, name):  # work per second the function was busy
        busy = total(name, "incl_s")
        return work / busy if busy > 0 else 0.0

    def count(key):
        return sum(r["counts"].get(key, 0) for r in traced)

    def in_memory_pass(name, field):
        return mem["spans"].get(name, {}).get(field, 0)

    values = {}
    for layer, func in FUNCTIONS:
        name = f"{layer}.{func}"
        values[f"{name}.self_s"] = self_s(name)
        values[f"{name}.calls"] = in_memory_pass(name, "calls")
    counts = mem["counts"]
    events = counts.get("events", 0)
    values.update({
        "exact.points_per_s": rate(
            total("exact.cdf_via_inversion", "calls"), "exact.cdf_via_inversion"
        ),
        "sampler.replicates": counts.get("replicates", 0),
        "sampler.replicates_per_s": rate(count("replicates"), "sampler.sample_ages"),
        "sampler.sample_ages.peak_mb": in_memory_pass("sampler.sample_ages", "peak_b") / 2**20,
        "simulator.events_per_s": rate(count("events"), "simulator.simulate"),
        "simulator.birth_changes": counts.get("birth_changes", 0),
        "simulator.useful_event_frac": counts.get("birth_changes", 0) / events if events else 0.0,
        "simulator.simulate.peak_mb": in_memory_pass("simulator.simulate", "peak_b") / 2**20,
        "cli.self_s": self_s(ROOT),
        "trace.overhead_frac": statistics.median(r["wall_s"] for r in traced)
        / statistics.median(r["wall_s"] for r in untraced) - 1.0,
    })
    called = {n for r in traced + [mem] for n in r["spans"]}
    idle = [f"{l}.{f}" for l, f in FUNCTIONS if f"{l}.{f}" not in called]
    return values, {"idle": idle, "traced_ops": len(traced)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()

    root = HERE.parent
    if not (root / "src" / "aoinet" / "cli.py").is_file():
        print(f"error: no aoinet sources under {root / 'src'}", file=sys.stderr)
        return 2
    env = child_env(root)
    w = workloads.make(args.workload, args.seed)
    work = root / ".bench_out" / f"{w.name}-s{args.seed}-t{args.trace}"
    work.mkdir(parents=True, exist_ok=True)
    net = work / "net.json"
    workloads.write_doc(w.doc, net)

    setup, fingerprint = time_setup(net, env, 1 if args.trace else SETUP_REPEATS)

    sys.path.insert(0, str(root / "src"))
    from oracles import Reference

    ref = Reference(w)

    ops_path = work / "ops.jsonl"
    budget = RUN_LIMIT_S - (time.perf_counter() - started)
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", w.name,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--net", str(net), "--out", str(ops_path)],
        env=env, capture_output=True, text=True, timeout=budget,
    )
    if proc.returncode != 0:
        print(f"error: worker exited {proc.returncode}: {proc.stderr[-2000:]}", file=sys.stderr)
        return 1
    with open(ops_path, encoding="utf-8") as fh:
        recs = [json.loads(line) for line in fh]
    ops_path.unlink()
    end = recs.pop()
    failures = []
    for r in recs:
        reason = ref.check(r["i"], r["outs"])
        if reason is not None:
            failures.append({"kind": r["kind"], "i": r["i"], "reason": reason})

    if args.trace:
        metrics, extra = per_layer(recs)
        units = per_layer_units()
    else:
        metrics, extra = end_to_end([r for r in recs if r["kind"] == "timed"], end, setup)
        units = END_TO_END
    attempted, failed = len(recs), len(failures)
    extra["fail_frac"] = failed / attempted

    result = {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fingerprint": fingerprint,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "extra": extra,
        "setup_runs_s": setup,
        "absent": end["absent"],
        "bad_hooks": end["bad_hooks"],
        "provenance": {
            "nproc": os.cpu_count(),
            "cpu_affinity": end["cpu_affinity"],
            "versions": end["versions"],
            "git": git_state(root),
            "thread_caps": THREAD_CAPS,
            "measure_s": end["measure_s"],
        },
    }
    with open(work / "result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    print(f"# {w.name} seed={args.seed} trace={args.trace} fingerprint={fingerprint} "
          f"attempted={attempted} failed={failed}")
    for k, v in metrics.items():
        print(f"{k:40s} {v:.6g} {units[k]}")
    # not a benchmark metric (it is 0 when all is well); failed/attempted carry it
    print(f"{'fail_frac':40s} {extra.pop('fail_frac'):.6g} ratio")
    for k, v in extra.items():
        print(f"# {k}: {v}")
    for f in failures[:5]:
        print(f"# failure: {f}")
    if end["absent"] or end["bad_hooks"]:
        print(f"# absent: {end['absent']} counts absent: {end['bad_hooks']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
