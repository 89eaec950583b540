"""Self-test of the benchmark itself.

Run from the repository root:
    PYTHONPATH=src python -m pytest -q bench/tests
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import run_op  # noqa: E402

from aoinet import parse_network, validate_ssn  # noqa: E402
from aoinet.cli import main as cli_main  # noqa: E402


def _fingerprint(doc):
    return validate_ssn(parse_network(json.dumps(doc))).fingerprint


def _test_conftest():
    spec = importlib.util.spec_from_file_location(
        "aoinet_tests_conftest", ROOT / "tests" / "conftest.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _net_path(tmp_path, w):
    path = tmp_path / f"{w.name}.json"
    workloads.write_doc(w.doc, path)
    return str(path)


def test_default_seed_networks_are_the_roadmap_baselines():
    ct = _test_conftest()
    r8 = ct.random_ssn(8, 2024).fingerprint
    r20 = ct.random_ssn(20, 7).fingerprint
    assert _fingerprint(workloads.make("crosscheck", 0).doc) == r8
    assert _fingerprint(workloads.make("tails", 0).doc) == r8
    assert _fingerprint(workloads.make("lattice", 0).doc) == r20


def test_seed_nudges_rates_on_the_same_topology():
    a, b = workloads.make("lattice", 0).doc, workloads.make("lattice", 3).doc
    assert workloads.make("lattice", 3).doc == b
    assert [(e["from"], e["to"]) for e in a["edges"]] == [
        (e["from"], e["to"]) for e in b["edges"]
    ]
    assert _fingerprint(a) != _fingerprint(b)


def test_perturbed_reference_turns_ops_into_failures(tmp_path):
    for name, rel in (("lattice", 1e-6), ("chain", 1e-6), ("tails", 0.05)):
        w = workloads.make(name, 1)
        ref = oracles.Reference(w)
        _, _, outs, _, _ = run_op(cli_main, w.op_argvs(0, _net_path(tmp_path, w)))
        assert ref.check(0, outs) is None, name
        assert ref.perturbed(rel).check(0, outs) is not None, name


def test_failed_command_is_a_failure_not_a_crash(tmp_path):
    w = workloads.make("chain", 1)
    ref = oracles.Reference(w)
    _, _, outs, _, _ = run_op(cli_main, w.op_argvs(0, str(tmp_path / "missing.json")))
    assert outs[0]["rc"] == 1
    assert ref.check(0, outs) is not None


def _memory_pass(w, net):
    tracer = Tracer()
    tracer.memory = True
    tracemalloc.start()
    try:
        _, _, outs, spans, counts = run_op(cli_main, w.op_argvs(0, net), tracer)
    finally:
        tracemalloc.stop()
    return {k: v["calls"] for k, v in spans.items()}, counts, outs


def test_counts_of_two_traced_passes_are_identical(tmp_path):
    w = workloads.make("crosscheck", 2)
    net = _net_path(tmp_path, w)
    calls_a, counts_a, outs = _memory_pass(w, net)
    calls_b, counts_b, _ = _memory_pass(w, net)
    assert oracles.Reference(w).check(0, outs) is None
    assert calls_a == calls_b
    assert counts_a == counts_b
    assert counts_a["replicates"] == workloads.CROSSCHECK_SAMPLES
    assert counts_a["events"] == workloads.CROSSCHECK_EVENTS
    assert 0 < counts_a["birth_changes"] < counts_a["events"]


def test_absent_function_is_reported_not_fatal(monkeypatch):
    from aoinet import sampler

    monkeypatch.delattr(sampler, "estimate")
    tracer = Tracer()
    assert "sampler.estimate" in tracer.absent
    tracer.install()
    tracer.uninstall()


def _traced_run(seed):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "lattice",
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    return last["metrics"]


def test_traced_runs_repeat_their_counts():
    a, b = _traced_run(4), _traced_run(4)
    counts = {k for k, m in a.items() if m["unit"] == "count"}
    assert counts and {k: a[k] for k in counts} == {k: b[k] for k in counts}
    assert a["exact.average_age.calls"]["value"] == 20


def test_refuses_a_tree_without_the_program(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "bench" / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "chain", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
