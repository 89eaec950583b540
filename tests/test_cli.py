import csv
import functools
import io
import json
import math
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import aoinet as a
from aoinet import cli, sampler
from aoinet.cli import main
from conftest import merged_subset_values, net_json, random_ssn


@pytest.fixture
def tri_file(tmp_path):
    path = tmp_path / "triangle.json"
    path.write_text(
        net_json(1.0, "s", [("s", "v", 1), ("v", "d", 1), ("s", "d", 1)])
    )
    return str(path)


@pytest.fixture
def two_tri_file(tmp_path):
    edges = [
        ("v0", "v1", 1),
        ("v1", "v2", 1),
        ("v0", "v2", 1),
        ("v2", "v3", 1),
        ("v3", "v4", 1),
        ("v2", "v4", 1),
    ]
    path = tmp_path / "two_triangles.json"
    path.write_text(net_json(1.0, "v0", edges))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rows_of(out):
    return [json.loads(line) for line in out.strip().splitlines()]


# what the console script ``aoinet`` runs
CLI_CODE = "import sys; from aoinet.cli import main; sys.exit(main(sys.argv[1:]))"


def run_fresh(argv, code=CLI_CODE, text=True):
    """``code`` run with ``argv`` in a fresh interpreter on this checkout's src."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=text,
        env=env,
        timeout=120,
    )


def test_exact_single_node(capsys, tri_file):
    code, out, _ = run_cli(capsys, "exact", "--net", tri_file, "--node", "d")
    assert code == 0
    rows = rows_of(out)
    assert len(rows) == 1
    assert rows[0]["target"] == "d"
    assert rows[0]["method"] == "exact"
    assert rows[0]["value"] == pytest.approx(1.75, abs=1e-12)
    assert rows[0]["stderr"] is None


def test_exact_all_nodes(capsys, tri_file):
    code, out, _ = run_cli(capsys, "exact", "--net", tri_file, "--all")
    assert code == 0
    by_target = {r["target"]: r["value"] for r in rows_of(out)}
    assert by_target["s"] == pytest.approx(1.0)
    assert by_target["v"] == pytest.approx(2.0)
    assert by_target["d"] == pytest.approx(1.75)


def test_exact_subset_expression(capsys, tri_file):
    code, out, _ = run_cli(
        capsys, "exact", "--net", tri_file, "--subset", "{v, d}"
    )
    assert code == 0
    (row,) = rows_of(out)
    assert row["value"] == pytest.approx(1.5)
    assert set(row["target"]) >= {"v", "d"}


@pytest.mark.parametrize("expr", ["", "{}", "x"])
def test_bad_subset_expression_refused(capsys, tri_file, expr):
    code, out, err = run_cli(capsys, "exact", "--net", tri_file, "--subset", expr)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_validate(capsys, tri_file):
    code, out, _ = run_cli(capsys, "validate", "--net", tri_file)
    assert code == 0
    (row,) = rows_of(out)
    assert row["meta"]["nodes"] == "3"
    assert row["meta"]["edges"] == "3"
    assert row["value"] == pytest.approx(4.0)  # total augmented rate


def test_validate_two_roots_names_both(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(net_json(1.0, "a", [("a", "c", 1), ("b", "c", 1)]))
    code, out, err = run_cli(capsys, "validate", "--net", str(path))
    assert code == 1
    assert out == ""
    assert "'a'" in err and "'b'" in err


def test_missing_file_is_model_error(capsys):
    code, _, err = run_cli(capsys, "validate", "--net", "/no/such/file.json")
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize(
    "case", ["not-utf8", "deep-json", "huge-int", "dump-csv", "trace"]
)
def test_bad_files_refused(capsys, monkeypatch, tmp_path, tri_file, case):
    net = tmp_path / "net.json"
    missing = str(tmp_path / "no-such-dir" / "out.csv")
    if case == "not-utf8":
        net.write_bytes(net_json(1.0, "s", [("s", "d", 1)]).encode("utf-16"))
        argv = ["validate", "--net", str(net)]
    elif case == "deep-json":
        net.write_text("[" * 100_000 + "]" * 100_000)
        argv = ["validate", "--net", str(net)]
    elif case == "huge-int":  # more digits than int() converts
        net.write_text(net_json(1.0, "s", [("s", "d", 1)]).replace("1.0", "1" * 5000))
        argv = ["validate", "--net", str(net)]
    elif case == "dump-csv":
        argv = ["sample", "--net", tri_file, "--samples", "10", "--dump-csv", missing]
    else:
        argv = ["simulate", "--net", tri_file, "--events", "1000", "--trace", missing]

    def no_work(*args, **kwargs):
        raise AssertionError("ran before the output path was checked")

    # a bad output path is refused before any sampling or simulation
    monkeypatch.setattr(a.sampler, "sample_ages", no_work)
    monkeypatch.setattr(a.simulator, "simulate", no_work)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_usage_error_exit_code(capsys, tri_file):
    assert run_cli(capsys, "exact", "--net", tri_file)[0] == 2  # no target
    assert run_cli(capsys, "frobnicate")[0] == 2


def test_csv_format(capsys, tri_file):
    code, out, _ = run_cli(
        capsys, "--format", "csv", "exact", "--net", tri_file, "--node", "d"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["target", "method", "value", "stderr", "meta"]
    assert rows[1][0] == "d"
    assert float(rows[1][2]) == pytest.approx(1.75)


def test_mgf(capsys, tri_file):
    code, out, _ = run_cli(
        capsys, "mgf", "--net", tri_file, "--node", "s", "--s", "0.5"
    )
    assert code == 0
    (row,) = rows_of(out)
    assert row["value"] == pytest.approx(2.0)  # lambda/(lambda-s) at s=1/2


def test_cdf_inversion_grid(capsys, tri_file):
    code, out, _ = run_cli(
        capsys, "cdf", "--net", tri_file, "--node", "d", "--d-grid", "0:2:0.5"
    )
    assert code == 0
    rows = rows_of(out)
    assert len(rows) == 5
    vals = [r["value"] for r in rows]
    assert vals[0] == 0.0
    assert all(x <= y + 1e-9 for x, y in zip(vals, vals[1:]))


def test_cdf_sample_accepts_one_sample(capsys, tri_file):
    # an empirical CDF needs no stderr of a mean, so one replicate is allowed
    code, out, _ = run_cli(
        capsys, "cdf", "--net", tri_file, "--node", "d", "--d-grid", "0:1:1",
        "--method", "sample", "--samples", "1", "--seed", "1",
    )
    assert code == 0
    assert [r["meta"]["n"] for r in rows_of(out)] == ["1", "1"]


def test_cdf_sample_requires_samples(capsys, tri_file):
    code, _, err = run_cli(
        capsys,
        "cdf",
        "--net",
        tri_file,
        "--node",
        "d",
        "--d-grid",
        "0:1:1",
        "--method",
        "sample",
    )
    assert code == 1
    assert "--samples" in err


def test_cdf_bad_grid(capsys, tri_file):
    code, _, err = run_cli(
        capsys, "cdf", "--net", tri_file, "--node", "d", "--d-grid", "oops"
    )
    assert code == 1
    assert "d-grid" in err


def test_chernoff(capsys, tri_file):
    code, out, _ = run_cli(
        capsys, "chernoff", "--net", tri_file, "--node", "d", "--d", "4"
    )
    assert code == 0
    (row,) = rows_of(out)
    assert 0.0 < row["value"] <= 1.0


def test_chernoff_where_phi_overflows_is_quiet(tmp_path):
    # Erlang(300, 1): phi overflows on the top of the scan grid; the bound is
    # the optimum at s = 1 - 300 / d, with nothing on stderr
    path = tmp_path / "serial.json"
    edges = [(f"v{i}", f"v{i + 1}", 1) for i in range(299)]
    path.write_text(net_json(1.0, "v0", edges))
    proc = run_fresh(["chernoff", "--net", str(path), "--node", "v299", "--d", "600"])
    assert proc.returncode == 0 and proc.stderr == ""
    (row,) = rows_of(proc.stdout)
    optimum = math.exp(-300.0 + 300.0 * math.log(2.0))  # at s = 1/2
    assert row["value"] == pytest.approx(optimum, rel=1e-12)


def test_repeated_main_calls_match_fresh_processes(capsys, tri_file, monkeypatch):
    builds, build = [], cli.build_parser.__wrapped__

    def counted():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", functools.cache(counted))
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal
    cdf = ["--format", "csv", "cdf", "--net", tri_file, "--node", "d", "--d-grid"]
    calls = [
        (["chernoff", "--net", tri_file, "--node", "d", "--d", "-1"], 2),
        (["mgf", "--net", tri_file, "--node", "d", "--s", "5"], 1),
        (cdf + ["0:2"], 1),
        (cdf + ["0:2:0.5"], 0),
        (["chernoff", "--net", tri_file, "--node", "d", "--d", "4"], 0),
    ]
    for argv, want in calls:
        code = main(argv)
        got = capsys.readouterr()
        proc = run_fresh(argv, text=False)  # bytes: csv ends its rows with \r\n
        assert code == proc.returncode == want
        assert (got.out.encode(), got.err.encode()) == (proc.stdout, proc.stderr)
        assert got.out or got.err
    assert len(builds) == 1


def test_jsonl_rows_are_json_dumps_with_sorted_keys():
    rows = [
        cli._row("v\u00e9", "m", math.inf, None, d=0.5),
        cli._row("{a,b}", "m", 0.1, 1e-300, n=3, seed=7),
    ]
    buf = io.StringIO()
    cli._emit(rows, "jsonl", buf)
    assert buf.getvalue() == "".join(json.dumps(r, sort_keys=True) + "\n" for r in rows)


def test_sample_deterministic_and_seed_reported(capsys, tri_file):
    args = ("sample", "--net", tri_file, "--samples", "5000", "--seed", "3")
    out1 = run_cli(capsys, *args)[1]
    out2 = run_cli(capsys, *args)[1]
    assert out1 == out2
    for row in rows_of(out1):
        assert row["meta"]["seed"] == "3"
        assert row["stderr"] > 0


def test_sample_auto_seed_reported(capsys, tri_file):
    _, out, _ = run_cli(capsys, "sample", "--net", tri_file, "--samples", "100")
    seeds = {r["meta"]["seed"] for r in rows_of(out)}
    assert len(seeds) == 1
    assert int(seeds.pop()) >= 0


def test_sample_workers_do_not_change_output(capsys, monkeypatch, tri_file):
    # three chunks, so that two or three threads each take one
    argv = ["sample", "--net", tri_file, "--samples", str(2 * sampler.CHUNK + 5)]
    argv += ["--seed", "9"]
    monkeypatch.setattr(sampler, "_usable_cpus", lambda: 1)
    base = run_cli(capsys, *argv)[1]
    for cpus in (2, 3):
        monkeypatch.setattr(sampler, "_usable_cpus", lambda: cpus)
        assert run_cli(capsys, *argv)[1] == base


def test_sample_dump_csv(capsys, tri_file, tmp_path):
    dump = tmp_path / "ages.csv"
    code, _, _ = run_cli(
        capsys,
        "sample",
        "--net",
        tri_file,
        "--samples",
        "50",
        "--seed",
        "1",
        "--dump-csv",
        str(dump),
    )
    assert code == 0
    with open(dump) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["s", "v", "d"]
    assert len(rows) == 51
    assert all(float(x) > 0 for x in rows[1])


def test_simulate_with_thresholds_and_trace(capsys, tri_file, tmp_path):
    trace = tmp_path / "trace.csv"
    code, out, _ = run_cli(
        capsys,
        "simulate",
        "--net",
        tri_file,
        "--events",
        "20000",
        "--seed",
        "5",
        "--thresholds",
        "1.0,2.0",
        "--trace",
        str(trace),
    )
    assert code == 0
    rows = rows_of(out)
    means = [r for r in rows if r["method"] == "simulate"]
    viols = [r for r in rows if r["method"] == "simulate-violation"]
    assert len(means) == 3 and len(viols) == 6
    d_mean = next(r for r in means if r["target"] == "d")
    assert d_mean["value"] == pytest.approx(1.75, rel=0.1)
    assert trace.exists()


def test_cascade_two_triangles(capsys, two_tri_file):
    code, out, _ = run_cli(capsys, "cascade", "--net", two_tri_file)
    assert code == 0
    rows = rows_of(out)
    by_target = {r["target"]: r for r in rows}
    assert by_target["v4"]["value"] == pytest.approx(2.5, abs=1e-12)


def test_cascade_on_tri_equals_exact_all(capsys, tri_file):
    code, out, _ = run_cli(capsys, "cascade", "--net", tri_file)
    assert code == 0
    cascade = rows_of(out)
    code, out, _ = run_cli(capsys, "exact", "--net", tri_file, "--all")
    assert code == 0
    exact = rows_of(out)
    assert [r["method"] for r in cascade] == ["cascade"] * 3
    assert [(r["target"], r["value"], r["meta"]) for r in cascade] == [
        (r["target"], r["value"], r["meta"]) for r in exact
    ]


def test_compare_verdict_passes(capsys, tri_file):
    code, out, _ = run_cli(
        capsys,
        "compare",
        "--net",
        tri_file,
        "--node",
        "d",
        "--samples",
        "200000",
        "--events",
        "200000",
        "--seed",
        "7",
    )
    assert code == 0
    rows = {r["method"]: r for r in rows_of(out)}
    assert set(rows) == {"exact", "sample", "simulate", "verdict"}
    assert rows["exact"]["value"] == pytest.approx(1.75)
    assert rows["verdict"]["value"] == 1.0
    assert rows["verdict"]["meta"]["sampler_gate"] == "pass"
    assert rows["verdict"]["meta"]["simulator_gate"] == "pass"


def test_compare_subset_target(capsys, tri_file):
    code, out, _ = run_cli(
        capsys,
        "compare",
        "--net",
        tri_file,
        "--node",
        "{v,d}",
        "--samples",
        "200000",
        "--events",
        "200000",
        "--seed",
        "11",
    )
    assert code == 0
    rows = {r["method"]: r for r in rows_of(out)}
    assert rows["exact"]["value"] == pytest.approx(1.5)
    assert rows["verdict"]["value"] == 1.0


def _doc(lam, rates):
    edges = ", ".join(
        f'{{"from": "{f}", "to": "{t}", "rate": {r}}}'
        for (f, t), r in zip([("s", "v"), ("v", "d"), ("s", "d")], rates)
    )
    return f'{{"lambda": {lam}, "source": "s", "edges": [{edges}]}}'


@pytest.mark.parametrize(
    "text",
    [
        _doc("Infinity", [1, 1, 1]),
        _doc("-Infinity", [1, 1, 1]),
        _doc("NaN", [1, 1, 1]),
        _doc(1, ["Infinity", 1, 1]),
        _doc(1, ["-Infinity", 1, 1]),
        _doc(1, ["NaN", 1, 1]),
        _doc(1, ["1e400", 1, 1]),  # parses to a float infinity
        _doc(1, [10**400, 1, 1]),  # an integer no float can hold
        _doc(1, [1e308, 1e308, 1]),  # finite rates, infinite total rate
        _doc(1e308, [1e308, 1, 1]),
    ],
    ids=[
        "lambda-inf",
        "lambda-minus-inf",
        "lambda-nan",
        "rate-inf",
        "rate-minus-inf",
        "rate-nan",
        "rate-1e400",
        "rate-huge-int",
        "total-of-rates",
        "total-with-lambda",
    ],
)
def test_non_finite_rates_refused(capsys, tmp_path, text):
    path = tmp_path / "net.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "exact", "--net", str(path), "--all")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and ("finite" in err or "overflow" in err)


@pytest.mark.parametrize(
    "args, code",
    [
        ("sample --samples 0", 2),
        ("sample --samples 1", 2),  # its stderr would be infinite
        ("sample --samples 10 --workers 4", 2),  # the usable CPUs decide
        ("sample --samples 10 --seed -1", 2),
        (f"sample --samples 10 --seed {1 << 64}", 2),
        ("simulate --events 0", 2),
        ("simulate --events 10 --seed -1", 2),
        ("simulate --events 10 --burn-in 1.0", 2),
        ("simulate --events 10 --burn-in nan", 2),
        ("simulate --events 10 --thresholds 1,x", 2),
        ("simulate --events 10 --thresholds nan", 2),
        ("simulate --events 10 --thresholds 1,1.0", 2),
        ("compare --node d --samples 0 --events 10", 2),
        ("compare --node d --samples 1 --events 100", 2),
        ("compare --node d --samples 10 --events 0", 2),
        ("chernoff --node d --d -1", 2),
        ("chernoff --node d --d nan", 2),
        ("mgf --node d --s nan", 2),
        ("cdf --node d --d-grid 0:4:0", 1),
        ("cdf --node d --d-grid 4:0:1", 1),
        ("cdf --node d --d-grid=-1:1:1", 1),
        ("cdf --node d --d-grid 0:inf:1", 1),
        ("cdf --node d --d-grid 0:1:1 --method sample --samples 0", 2),
        ("cdf --node d --d-grid 0:1e12:1e-9", 1),
        ("cdf --node d --d-grid 1e16:1e16:1", 1),  # no point: 1e16 + 0.5 == 1e16
        ("cdf --node d --d-grid 1e16:1.00000000000001e16:1", 1),  # repeated points
        ("simulate --events 3", 1),
        ("simulate --events 34", 1),  # 31 left after the 10% burn-in
        ("compare --node d --samples 10 --events 3", 1),
        ("compare --node {v,d} --samples 10 --events 3", 1),
    ],
)
def test_bad_arguments_refused(capsys, tri_file, args, code):
    command, *rest = args.split()
    got, out, err = run_cli(capsys, command, "--net", tri_file, *rest)
    assert got == code
    assert out == ""
    assert "error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--events", "1000"],
        ["compare", "--node", "d", "--samples", "1000", "--events", "1000"],
        ["compare", "--node", "{v,d}", "--samples", "1000", "--events", "1000"],
        ["sample", "--samples", "1000"],
    ],
)
def test_overflowing_integrals_refused(capsys, tmp_path, argv):
    # every age is near 1e300, so its square overflows
    path = tmp_path / "net.json"
    path.write_text(_doc(1e-300, [1e-300] * 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning either
        code, out, err = run_cli(
            capsys, argv[0], "--net", str(path), *argv[1:], "--seed", "1"
        )
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "not finite" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--samples", "1000"],
        ["simulate", "--events", "1000"],
        ["compare", "--node", "d", "--samples", "1000", "--events", "1000"],
        ["compare", "--node", "{v,d}", "--samples", "1000", "--events", "1000"],
    ],
)
def test_underflowing_ages_refused(capsys, tmp_path, argv):
    # every age is near 1e-300, so its square underflows to 0
    path = tmp_path / "net.json"
    path.write_text(_doc(1e300, [1e300] * 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(
            capsys, argv[0], "--net", str(path), *argv[1:], "--seed", "1"
        )
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "underflow" in err


@pytest.mark.parametrize("target", ["d", "{v,d}"])
def test_tiny_ages_still_compared(capsys, tmp_path, target):
    # every age is near 1e-120: the cube of the age underflows, but neither
    # the means nor their standard errors do, so both gates are computed
    path = tmp_path / "net.json"
    path.write_text(_doc(1e120, [1e120] * 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(
            capsys, "compare", "--net", str(path), "--node", target,
            "--samples", "1000", "--events", "1000", "--seed", "1",
        )
    assert code == 0, err
    rows = {r["method"]: r for r in map(json.loads, out.splitlines())}
    assert rows["verdict"]["value"] == 1.0
    for method in ("sample", "simulate"):
        assert rows[method]["stderr"] > 0.0
        assert rows[method]["value"] == pytest.approx(
            rows["exact"]["value"], rel=0.2
        )


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--events", "1000"],
        ["compare", "--node", "d", "--samples", "1000", "--events", "1000"],
        ["compare", "--node", "{v,d}", "--samples", "1000", "--events", "1000"],
        ["sample", "--samples", "1000"],
    ],
)
def test_huge_ages_below_overflow_computed(capsys, tmp_path, argv):
    # every age is near 1e105: its cube overflows, but no printed integral,
    # mean or standard error does
    path = tmp_path / "net.json"
    path.write_text(_doc(1e-105, [1e-105] * 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(
            capsys, argv[0], "--net", str(path), *argv[1:], "--seed", "1"
        )
    assert code == 0, err
    rows = rows_of(out)
    assert rows and all(math.isfinite(r["value"]) for r in rows)
    assert all(r["stderr"] is None or 0.0 < r["stderr"] < math.inf for r in rows)
    if argv[0] == "compare":
        assert rows[-1]["value"] == 1.0


def _serial_chain(n_nodes):
    return [(f"v{i}", f"v{i + 1}", 1) for i in range(n_nodes - 1)]


def _triangle_chain(n_triangles):
    edges = []
    for i in range(1, n_triangles + 1):
        a, b, c = f"v{2 * i - 2}", f"v{2 * i - 1}", f"v{2 * i}"
        edges += [(a, b, 1), (b, c, 1), (a, c, 1)]
    return edges


@pytest.mark.parametrize(
    "edges, node, s",
    [
        (_serial_chain(20), "v19", "0.9999999999999999"),  # overflows to inf
        (_triangle_chain(1000), "v2000", "0.9"),  # inf times complex: nan
    ],
    ids=["serial-20", "triangles-1000"],
)
def test_non_finite_mgf_refused(capsys, tmp_path, edges, node, s):
    path = tmp_path / "chain.json"
    path.write_text(net_json(1.0, "v0", edges))
    code, out, err = run_cli(
        capsys, "mgf", "--net", str(path), "--node", node, "--s", s
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "not finite" in err


def test_one_target_commands_match_the_full_batch(capsys, tmp_path):
    # compare and cdf --method sample draw only the target's ancestor edges,
    # and compare simulates only the target's ancestors; their rows equal the
    # ones computed from every node's sampled ages and simulated births
    net = random_ssn(8, 2024)
    path = tmp_path / "r8.json"
    edges = [(e.frm, e.to, e.rate) for e in net.base.edges]
    path.write_text(net_json(net.lam, "v0", edges))
    n = 70_000
    events = 50_000
    batch = a.sample_ages(net, n, a.RngPolicy(5))
    cfg = a.SimConfig(total_events=events, master_seed=5)
    whole = a.simulate(net, cfg)
    grid = np.arange(0.0, 4.25, 0.5)
    for target in [f"v{i}" for i in range(8)] + ["{v6,v7}"]:
        labels = target.strip("{}").split(",")
        mask = net.subset_mask(labels)
        common = ["--net", str(path), "--node", target, "--samples", str(n)]
        code, out, _ = run_cli(
            capsys, "compare", *common, "--events", str(events), "--seed", "5"
        )
        assert code == 0
        rows = {r["method"]: r for r in rows_of(out)}
        want = a.estimate(batch, mask)
        assert (rows["sample"]["value"], rows["sample"]["stderr"]) == want
        want = merged_subset_values(net, cfg, whole, labels)[:2]
        assert (rows["simulate"]["value"], rows["simulate"]["stderr"]) == want
        code, out, _ = run_cli(
            capsys, "cdf", *common, "--d-grid", "0:4:0.5", "--method", "sample",
            "--seed", "5",
        )
        assert code == 0
        assert [r["value"] for r in rows_of(out)] == [
            a.empirical_cdf(batch, mask, d) for d in grid
        ]


@pytest.mark.parametrize("target", ["v1", "v7", "{v6,v7}"])
def test_cdf_sample_independent_of_cpu_count(capsys, monkeypatch, tmp_path, target):
    # cdf --method sample runs on every usable CPU; their number moves no byte
    net = random_ssn(8, 2024)
    path = tmp_path / "r8.json"
    edges = [(e.frm, e.to, e.rate) for e in net.base.edges]
    path.write_text(net_json(net.lam, "v0", edges))
    n = str(2 * a.sampler.CHUNK + 5)
    outs = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(a.sampler, "_usable_cpus", lambda: cpus)
        code, out, _ = run_cli(
            capsys, "cdf", "--net", str(path), "--node", target, "--d-grid",
            "0:4:0.5", "--method", "sample", "--samples", n, "--seed", "3",
        )
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]


@pytest.mark.parametrize("target", ["v7", "{v6,v7}"])
def test_compare_independent_of_cpu_count(capsys, monkeypatch, tmp_path, target):
    # the simulator runs on a thread of its own beside the sampler's chunks;
    # neither the CPU count nor the overlap moves a byte, and each row is the
    # value its route computes alone with the same seed
    net = random_ssn(8, 2024)
    path = tmp_path / "r8.json"
    edges = [(e.frm, e.to, e.rate) for e in net.base.edges]
    path.write_text(net_json(net.lam, "v0", edges))
    n, events, seed = 2 * a.sampler.CHUNK + 5, 50_000, 4
    mask = net.subset_mask(target.strip("{}").split(","))
    argv = ["compare", "--net", str(path), "--node", target, "--samples", str(n)]
    argv += ["--events", str(events), "--seed", str(seed)]
    threads = threading.active_count()
    outs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, more of them than CPUs
    try:
        for cpus in (1, 2, 3):
            monkeypatch.setattr(a.sampler, "_usable_cpus", lambda: cpus)
            code, out, err = run_cli(capsys, *argv)
            assert (code, err) == (0, "")
            assert threading.active_count() == threads
            outs.append(out)
    finally:
        sys.setswitchinterval(interval)
    assert outs[0] == outs[1] == outs[2]
    rows = {r["method"]: r for r in rows_of(outs[0])}
    want = a.estimate(a.sample_subset(net, mask, n, a.RngPolicy(seed)), 1)
    assert (rows["sample"]["value"], rows["sample"]["stderr"]) == want
    cfg = a.SimConfig(total_events=events, master_seed=seed)
    whole = a.simulate(net, cfg)
    want = merged_subset_values(net, cfg, whole, net.subset_labels(mask))[:2]
    assert (rows["simulate"]["value"], rows["simulate"]["stderr"]) == want


@pytest.mark.parametrize("node", ["d", "{v,d}"])
@pytest.mark.parametrize(
    "rate, events, want",
    [
        (1e-300, 1000, "the age integrals over the kept window are not finite"),
        (
            1.0,
            3,
            "3 events after burn-in cannot support a stderr from 32 batch "
            "means; keep at least 32",
        ),
    ],
    ids=["rates-1e-300", "events-3"],
)
def test_compare_simulator_error_wins(
    capsys, monkeypatch, tmp_path, node, rate, events, want
):
    # the simulator's refusal is the one printed, as when it ran before the
    # sampler, even where the sampler beside it fails too; no thread outlives
    # the call
    path = tmp_path / "net.json"
    path.write_text(_doc(rate, [rate] * 3))
    argv = ["compare", "--net", str(path), "--node", node]
    argv += ["--samples", str(2 * a.sampler.CHUNK + 5), "--events", str(events)]
    argv += ["--seed", "1"]
    threads = threading.active_count()
    assert run_cli(capsys, *argv) == (1, "", f"error: {want}\n")
    assert threading.active_count() == threads

    calls = []

    def refuse(*args):
        calls.append(args)
        raise a.errors.AoiError("the sampler refused")

    monkeypatch.setattr(a.sampler, "sample_subset", refuse)
    assert run_cli(capsys, *argv) == (1, "", f"error: {want}\n")
    assert threading.active_count() == threads
    # too few events are refused before either Monte Carlo route starts
    assert len(calls) == (0 if events == 3 else 1)


@pytest.mark.parametrize(
    "rate, grid, want",
    [(1e-300, "1:1:1", 0.0), (1e300, "1:1:1", 1.0), (1.0, "1e6:1e6:1", 1.0)],
)
def test_cdf_at_extreme_scales(capsys, tmp_path, rate, grid, want):
    path = tmp_path / "net.json"
    path.write_text(_doc(rate, [rate] * 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(
            capsys, "cdf", "--net", str(path), "--node", "d", "--d-grid", grid
        )
    assert code == 0 and err == ""
    assert [r["value"] for r in rows_of(out)] == [want]


def test_cdf_too_stiff_refused(capsys, tmp_path):
    path = tmp_path / "net.json"
    path.write_text(_doc(1.0, [1.0, 1.0, 1e9]))
    code, out, err = run_cli(
        capsys, "cdf", "--net", str(path), "--node", "d", "--d-grid", "0:4:0.25"
    )
    assert code == 1 and out == ""
    assert err.startswith("error:") and "uniformization jumps" in err


def test_long_chain_means_at_default_limit(capsys, tmp_path):
    # 1000 triangles, 2001 nodes: every walk spans one triangle
    edges = []
    for i in range(1, 1001):
        a, b, c = f"v{2 * i - 2}", f"v{2 * i - 1}", f"v{2 * i}"
        edges += [(a, b, 1), (b, c, 1), (a, c, 1)]
    path = tmp_path / "chain.json"
    path.write_text(net_json(1.0, "v0", edges))
    code, out, _ = run_cli(capsys, "exact", "--net", str(path), "--node", "v2000")
    assert code == 0
    (node,) = rows_of(out)
    assert node["value"] == pytest.approx(1.0 + 0.75 * 1000)
    for command in (["exact", "--all"], ["cascade"]):
        code, out, _ = run_cli(capsys, command[0], "--net", str(path), *command[1:])
        assert code == 0
        rows = rows_of(out)
        assert len(rows) == 2001
        assert rows[-1]["target"] == "v2000"
        assert rows[-1]["value"] == node["value"]


def test_long_chain_distributions_at_default_limit(capsys, tmp_path):
    # 100 triangles, 201 nodes: the cut plan chains one region per triangle
    edges = []
    for i in range(1, 101):
        a, b, c = f"v{2 * i - 2}", f"v{2 * i - 1}", f"v{2 * i}"
        edges += [(a, b, 1), (b, c, 1), (a, c, 1)]
    path = tmp_path / "chain.json"
    path.write_text(net_json(1.0, "v0", edges))

    def values(*argv):
        code, out, err = run_cli(capsys, argv[0], "--net", str(path), *argv[1:])
        assert code == 0 and err == ""
        return [r["value"] for r in rows_of(out)]

    cdf = values("cdf", "--node", "v200", "--d-grid", "0:150:10")
    assert len(cdf) == 16 and cdf[0] == 0.0
    assert all(0.0 <= x <= y <= 1.0 for x, y in zip(cdf, cdf[1:]))
    assert cdf[7] < 0.5 < cdf[8]  # the mean is 1 + 0.75 * 100 = 76
    (tail,) = values("chernoff", "--node", "v200", "--d", "100")
    assert 1.0 - cdf[10] <= tail < 1.0
    # the age is Exp(1) plus 100 independent triangle crossings
    (whole,) = values("mgf", "--node", "v200", "--s", "0.1")
    (first,) = values("mgf", "--node", "v2", "--s", "0.1")
    stage = 1.0 / (1.0 - 0.1)
    assert whole == pytest.approx(stage * (first / stage) ** 100, rel=1e-12)


def test_cascade_counts_the_nodes_of_a_long_two_path_block(
    capsys, tmp_path, monkeypatch
):
    # two 12-node paths from cut vertex c to t, then a second block t -> w;
    # t's walk is based at c and spans both paths: 24 + t + c = 26 nodes,
    # though it reaches only 13 * 13 supersets
    edges = [("s", "c", 1)]
    for p in "ab":
        hops = ["c"] + [f"{p}{i}" for i in range(1, 13)] + ["t"]
        edges += [(u, v, 1) for u, v in zip(hops, hops[1:])]
    edges.append(("t", "w", 1))
    path = tmp_path / "two_paths.json"
    path.write_text(net_json(1.0, "s", edges))
    for command in (["cascade"], ["exact", "--all"], ["exact", "--node", "t"]):
        code, out, err = run_cli(capsys, command[0], "--net", str(path), *command[1:])
        assert code == 1 and out == ""
        assert err.startswith("error:") and "26 nodes in one region" in err
    monkeypatch.setenv("AOI_MAX_EXACT_NODES", "26")
    code, out, _ = run_cli(capsys, "cascade", "--net", str(path))
    assert code == 0
    by_target = {r["target"]: r["value"] for r in rows_of(out)}
    assert len(by_target) == 28
    # E[min of two independent Erlang(13, 1) path lengths]
    shorter = sum(
        math.comb(j + k, j) / 2 ** (j + k + 1) for j in range(13) for k in range(13)
    )
    assert by_target["c"] == pytest.approx(2.0, rel=1e-12)
    assert by_target["t"] == pytest.approx(2.0 + shorter, rel=1e-12)
    assert by_target["w"] == pytest.approx(3.0 + shorter, rel=1e-12)
    code, out, _ = run_cli(capsys, "exact", "--net", str(path), "--node", "t")
    assert code == 0
    assert rows_of(out)[0]["value"] == by_target["t"]


@pytest.mark.parametrize(
    "grid", ["0:1e12:1e-9", "0:1e6:1e-3", "0:100000:1", "0:1:1e-320", "0:1e308:1e-300"]
)
def test_cdf_grid_counted_before_allocation(capsys, tri_file, monkeypatch, grid):
    def refuse(*args, **kwargs):
        raise AssertionError("the grid was allocated")

    monkeypatch.setattr(np, "arange", refuse)
    code, out, err = run_cli(
        capsys, "cdf", "--net", tri_file, "--node", "d", "--d-grid", grid
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "100000" in err


@pytest.mark.parametrize("value", ["abc", "2.5", "0", "-3"])
def test_bad_node_limit_setting_refused(capsys, tri_file, monkeypatch, value):
    monkeypatch.setenv("AOI_MAX_EXACT_NODES", value)
    code, out, err = run_cli(capsys, "exact", "--net", tri_file, "--all")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "AOI_MAX_EXACT_NODES" in err


def test_simulate_smallest_window_with_stderr(capsys, tri_file):
    # 35 events keep 32 after the 10% burn-in: one per batch mean
    code, out, _ = run_cli(
        capsys, "simulate", "--net", tri_file, "--events", "35", "--seed", "1"
    )
    assert code == 0
    assert all(r["stderr"] > 0 for r in rows_of(out))


@pytest.mark.parametrize(
    "argv",
    [
        ["validate"],
        ["exact", "--node", "d"],
        ["exact", "--all"],
        ["cascade"],
        ["cdf", "--node", "d", "--d-grid", "0:2:0.5"],
    ],
)
def test_cheap_commands_skip_scipy_and_networkx(tri_file, argv):
    # a fresh interpreter, so modules other tests loaded do not count
    code = (
        "import sys; from aoinet.cli import main; "
        "rc = main(sys.argv[1:]); "
        "print(sorted({m.split('.')[0] for m in sys.modules} "
        "& {'scipy', 'networkx'})); "
        "sys.exit(rc)"
    )
    proc = run_fresh([*argv[:1], "--net", tri_file, *argv[1:]], code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
