"""Reduce the per-run results in ``.bench_out/`` to one trajectory point.

Usage, from the repository root, after runs of ``bench/run.py``:
    python3 bench/summarize.py > bench/results/BENCH_<n>.json

For each workload and trace mode: every metric's median, quartiles and
spread (quartile distance over median) across the runs' seeds, the op
counts and failures, each seed's input fingerprint, and the provenance of
the runs.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def summarize(out_dir: Path) -> dict:
    groups: dict[tuple[str, int], list[dict]] = {}
    for path in sorted(out_dir.glob("*/result.json")):
        with open(path, encoding="utf-8") as fh:
            r = json.load(fh)
        groups.setdefault((r["workload"], r["trace"]), []).append(r)
    point = {"runs": {}}
    for (workload, trace), runs in sorted(groups.items()):
        runs.sort(key=lambda r: r["seed"])
        metrics = {}
        for name, m in runs[0]["metrics"].items():
            xs = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(xs)
            q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [med, med, med]
            metrics[name] = {
                "unit": m["unit"],
                "median": med,
                "q1": q[0],
                "q3": q[2],
                "spread": (q[2] - q[0]) / med if med else None,
            }
        point["runs"][f"{workload}/trace{trace}"] = {
            "seeds": [r["seed"] for r in runs],
            "seconds": runs[0]["seconds"],
            "fingerprints": {str(r["seed"]): r["fingerprint"] for r in runs},
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "failures": [f for r in runs for f in r["failures"]][:20],
            "ops_per_run": [r["extra"].get("ops", r["extra"].get("traced_ops")) for r in runs],
            "metrics": metrics,
        }
        point["provenance"] = runs[-1]["provenance"]
    return point


if __name__ == "__main__":
    root = Path(__file__).resolve().parent.parent
    json.dump(summarize(root / ".bench_out"), sys.stdout, indent=1)
    sys.stdout.write("\n")
