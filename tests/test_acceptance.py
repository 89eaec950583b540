"""End-to-end acceptance suite.

One test per release criterion.  Each prints a PASS/FAIL line directly to
the terminal (bypassing capture) so the acceptance record is visible in the
plain pytest transcript.
"""

import math
import time

import conftest

import aoinet as a
from aoinet import sampler
from aoinet.cli import main as cli_main
from conftest import (
    average_age_all,
    net_json,
    random_ssn,
    serial,
    triangle,
    triangle_chain,
    two_node,
)


def report(num, label, ok):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label}"
    conftest.acceptance_lines.append(line)
    print(line)
    assert ok, line


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def test_criterion_01_serial_cascade_exactness():
    net = serial(1.0, [2.0, 2.0, 2.0, 2.0])
    mask = net.subset_mask(["v4"])
    a.average_age(net, mask)  # warm caches before timing
    val, dt = timed(lambda: a.average_age(net, mask))
    ok = abs(val - 3.0) < 1e-9 and dt < 1e-3
    report(1, f"serial cascade mean {val:.12f} in {dt * 1e6:.0f} us", ok)


def test_criterion_02_triangle_exactness():
    distinct = triangle(1.0, 1.0, 2.0, 3.0)
    equal = triangle()
    a.average_age(distinct, distinct.subset_mask(["d"]))
    v1, t1 = timed(lambda: a.average_age(distinct, distinct.subset_mask(["d"])))
    v2, t2 = timed(lambda: a.average_age(equal, equal.subset_mask(["d"])))
    ok = abs(v1 - 1.3) < 1e-9 and abs(v2 - 1.75) < 1e-9 and t1 < 1e-3 and t2 < 1e-3
    report(2, f"triangle means {v1:.12f}, {v2:.12f}", ok)


def test_criterion_03_two_triangle_cascade():
    net = triangle_chain(1.0, [(1, 1, 1), (1, 1, 1)])
    table = a.chain_average_ages(net)
    last = net.subset_mask(["v4"])
    ok = abs(table[last] - 2.5) < 1e-9
    ok &= abs(a.average_age(net, last) - 2.5) < 1e-9
    worst = max(
        abs(table[1 << v] - a.average_age(net, 1 << v)) for v in range(net.n_user)
    )
    ok &= worst < 1e-9
    report(3, f"two-triangle mean 2.5, engine gap {worst:.2e}", ok)


def test_criterion_04_cross_validation():
    t0 = time.perf_counter()
    nets = [triangle(), random_ssn(8, 2024)]
    worst_sigma = 0.0
    for net in nets:
        batch = a.sample_ages(net, 1_000_000, a.RngPolicy(404))
        res = a.simulate(net, a.SimConfig(total_events=1_000_000, master_seed=404))
        for v, name in enumerate(net.node_names):
            exact = a.average_age(net, 1 << v)
            est, se = a.estimate(batch, 1 << v, a.Functional.mean())
            worst_sigma = max(worst_sigma, abs(est - exact) / se)
            sim = a.time_average(res, name)
            sim_se = a.time_average_stderr(res, name)
            worst_sigma = max(worst_sigma, abs(sim - exact) / sim_se)
    dt = time.perf_counter() - t0
    ok = worst_sigma < 4.0 and dt < 60.0
    report(4, f"cross-validation worst {worst_sigma:.2f} sigma in {dt:.1f} s", ok)


def test_criterion_05_mgf_matches_mean():
    h = 1e-4
    nets = [two_node(), triangle(1.0, 1.0, 2.0, 3.0), serial(1.0, [2, 3, 1]),
            random_ssn(6, 5), random_ssn(6, 6)]
    worst = 0.0
    for net in nets:
        table = average_age_all(net)
        for mask in range(1, 1 << net.n_user):
            fp = a.mgf(net, a.MgfQuery(mask, h)).real
            fm = a.mgf(net, a.MgfQuery(mask, -h)).real
            deriv = (fp - fm) / (2 * h)
            worst = max(worst, abs(deriv - table[mask]) / table[mask])
    ok = worst < 1e-6
    report(5, f"MGF derivative vs mean, worst rel err {worst:.2e}", ok)


def test_criterion_06_distribution_pipeline():
    net = two_node()
    d_mask = net.subset_mask(["d"])
    oracle = 1.0 - 2.0 * math.exp(-1.0)
    (inv,) = a.cdf_grid(net, d_mask, [1.0])
    batch = a.sample_ages(net, 1_000_000, a.RngPolicy(606))
    emp = a.empirical_cdf(batch, d_mask, 1.0)
    res = a.simulate(
        net, a.SimConfig(total_events=1_000_000, master_seed=606), thresholds=[1.0]
    )
    viol = a.violation_fraction(res, "d", 1.0)
    ok = (
        abs(inv - oracle) < 1e-4
        and abs(emp - oracle) < 0.002
        and abs(viol - 2.0 * math.exp(-1.0)) < 0.01
    )
    report(
        6,
        f"CDF at 1: inversion {inv:.6f}, empirical {emp:.6f}, "
        f"violation {viol:.6f}",
        ok,
    )


def test_criterion_07_chernoff_soundness():
    net = two_node()
    d_mask = net.subset_mask(["d"])
    ok = True
    ratio8 = None
    for d in (1.0, 2.0, 4.0, 8.0):
        tail = (1.0 + d) * math.exp(-d)
        bound = a.chernoff_bound(net, a.TailQuery(d_mask, d))
        ok &= bound >= tail
        if d == 8.0:
            ratio8 = bound / tail
            # the best achievable Chernoff bound for this Erlang tail is
            # exp(2) d^2 / (4 (1 + d)) times the exact value; the optimizer
            # must land within half a percent of that optimum
            optimum = math.exp(2.0) * d * d / (4.0 * (1.0 + d))
            ok &= ratio8 <= optimum * 1.005
    report(7, f"Chernoff sound on grid, ratio at d=8 is {ratio8:.2f}x", ok)


def test_criterion_08_monotonicity():
    ok = True
    for net in (two_node(), triangle(), serial(1.0, [2, 3, 1]),
                random_ssn(6, 5), random_ssn(6, 6), random_ssn(5, 7)):
        table = average_age_all(net)
        for mask in range(1, 1 << net.n_user):
            for bit in range(net.n_user):
                sup = mask | (1 << bit)
                if sup != mask:
                    ok &= table[sup] <= table[mask] + 1e-12
    from conftest import build_net

    base_edges = [("s", "v", 1.0), ("v", "d", 1.0)]
    small = build_net(1.0, "s", base_edges)
    bigger = build_net(1.0, "s", base_edges + [("s", "d", 1.0)])
    rng = a.RngPolicy(808)
    b1 = a.sample_ages(small, 10_000, rng)
    b2 = a.sample_ages(bigger, 10_000, rng)
    for name in small.node_names:
        x = b1.ages[:, small.index_of[name]]
        y = b2.ages[:, bigger.index_of[name]]
        ok &= bool((y <= x + 1e-12).all())
    report(8, "subset and edge-addition monotonicity, exhaustive", ok)


def test_criterion_09_n_triangle_scaling():
    ok = abs(a.triangle_cascade_age(1.0, [(1, 1, 1)]) - 1.75) < 1e-9
    times = {}
    for n in range(2, 51):
        net = triangle_chain(1.0, [(1, 1, 1)] * n)
        val, dt = timed(
            lambda: a.chain_average_ages(net)[net.subset_mask([f"v{2 * n}"])]
        )
        times[n] = dt
        ok &= abs(val - (1.0 + 0.75 * n)) < 1e-9
    # linear scaling: doubling n should not blow past 4x plus noise floor
    ok &= times[50] <= 4.0 * times[25] + 0.02
    for n in range(2, 7):
        net = triangle_chain(1.0, [(1, 1, 1)] * n)
        last = net.subset_mask([f"v{2 * n}"])
        ok &= abs(a.average_age(net, last) - (1.0 + 0.75 * n)) < 1e-9
    report(
        9,
        f"n-triangle 1+0.75n up to n=50, t(50)={times[50] * 1e3:.1f} ms, "
        f"t(25)={times[25] * 1e3:.1f} ms",
        ok,
    )


def test_criterion_10_reproducibility(tmp_path, capsys, monkeypatch):
    path = tmp_path / "tri.json"
    path.write_text(
        net_json(1.0, "s", [("s", "v", 1), ("v", "d", 1), ("s", "d", 1)])
    )

    def run(*argv):
        code = cli_main(list(argv))
        out = capsys.readouterr().out
        assert code == 0
        return out

    # three chunks, so that two or three threads each take one
    samples = str(2 * sampler.CHUNK + 5)
    s_args = ("sample", "--net", str(path), "--samples", samples, "--seed", "99")
    monkeypatch.setattr(sampler, "_usable_cpus", lambda: 1)
    base = run(*s_args)
    ok = base == run(*s_args)
    for cpus in (2, 3):
        monkeypatch.setattr(sampler, "_usable_cpus", lambda: cpus)
        ok &= base == run(*s_args)
    sim_args = ("simulate", "--net", str(path), "--events", "50000", "--seed", "99")
    ok &= run(*sim_args) == run(*sim_args)
    report(10, "byte-identical output across runs and 1, 2 and 3 threads", ok)
