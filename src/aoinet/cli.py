"""Command-line front end.

Loads a network file, dispatches to the requested engine and prints one
report row per result as JSON lines (default) or CSV.  Every randomized
subcommand either takes an explicit --seed or reports the seed it chose, so
published numbers are reproducible.  Exit codes: 0 success, 1 validation or
model errors, 2 usage errors.

:func:`main` may be called repeatedly in one process; it builds its parser
once and reuses it, and writes to the ``sys.stdout`` and ``sys.stderr`` of
each call.
"""

from __future__ import annotations

import argparse
import contextlib
import csv as csv_mod
import functools
import io
import json
import math
import secrets
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import exact as exact_mod
from . import sampler as sampler_mod
from . import simulator as sim_mod
from .errors import AoiError, MalformedNetwork
from .network import parse_network, validate_ssn

MAX_GRID_POINTS = 100_000  # largest --d-grid a cdf run will evaluate
_JSONL = json.JSONEncoder(sort_keys=True)  # what json.dumps(r, sort_keys=True) uses


def _load_network(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise AoiError(f"cannot read network file {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise MalformedNetwork(f"network file {path!r} is not UTF-8: {exc}") from exc
    return validate_ssn(parse_network(text))


def _output(path: str):
    """``path`` opened for writing, refused with an error if it cannot be."""
    try:
        return open(path, "w", newline="")
    except OSError as exc:
        raise AoiError(f"cannot write {path!r}: {exc}") from exc


def _parse_subset_expr(net, expr: str) -> int:
    expr = expr.strip()
    if expr.startswith("{") and expr.endswith("}"):
        labels = [x.strip() for x in expr[1:-1].split(",") if x.strip()]
    else:
        labels = [expr]
    if not labels:
        raise AoiError(f"empty subset expression {expr!r}")
    try:
        return net.subset_mask(labels)
    except KeyError as exc:
        raise AoiError(str(exc)) from exc


def _arg_type(convert, ok, want: str):
    """An argparse ``type`` that refuses values ``ok`` rejects."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"want {want}, got {text!r}")
        return value

    return parse


_COUNT = _arg_type(int, lambda x: x >= 1, "an integer >= 1")
# a mean's stderr needs two samples; one gives an infinite stderr
_SAMPLES = _arg_type(int, lambda x: x >= 2, "an integer >= 2")
_SEED = _arg_type(int, lambda x: 0 <= x < 1 << 64, "an integer in [0, 2**64)")
_FRACTION = _arg_type(float, lambda x: 0.0 <= x < 1.0, "a number in [0, 1)")
_REAL = _arg_type(float, math.isfinite, "a finite number")
_THRESHOLD = _arg_type(float, lambda x: 0.0 <= x < math.inf, "a finite number >= 0")


def _thresholds(text: str) -> list[float]:
    values = [_THRESHOLD(x) for x in text.split(",")]
    if len(set(values)) != len(values):
        raise argparse.ArgumentTypeError(f"want distinct thresholds, got {text!r}")
    return values


def _row(target, method, value, stderr=None, **meta):
    return {
        "target": target,
        "method": method,
        "value": float(value),
        "stderr": None if stderr is None else float(stderr),
        "meta": {k: str(v) for k, v in meta.items()},
    }


def _emit(rows, fmt: str, out) -> None:
    if fmt == "csv":
        writer = csv_mod.writer(out)
        writer.writerow(["target", "method", "value", "stderr", "meta"])
        for r in rows:
            meta = ";".join(f"{k}={v}" for k, v in sorted(r["meta"].items()))
            stderr = "" if r["stderr"] is None else repr(r["stderr"])
            writer.writerow([r["target"], r["method"], repr(r["value"]), stderr, meta])
    else:
        for r in rows:
            out.write(_JSONL.encode(r) + "\n")


def _seed_of(args) -> int:
    if args.seed is not None:
        return args.seed
    return secrets.randbits(63)


def cmd_validate(args):
    net = _load_network(args.net)
    return [
        _row(
            "network",
            "validate",
            net.total_rate,
            nodes=net.n_user,
            edges=len(net.edge_rates) - 1,
            source=net.node_names[net.source_index],
            fingerprint=net.fingerprint,
        )
    ]


def _all_means(net, method: str):
    table = exact_mod.chain_average_ages(net)
    return [_row(name, method, table[1 << i]) for i, name in enumerate(net.node_names)]


def cmd_exact(args):
    net = _load_network(args.net)
    if args.all:
        return _all_means(net, "exact")
    mask = _parse_subset_expr(net, args.node if args.subset is None else args.subset)
    return [_row(net.subset_name(mask), "exact", exact_mod.average_age(net, mask))]


def cmd_mgf(args):
    net = _load_network(args.net)
    mask = _parse_subset_expr(net, args.node)
    value = exact_mod.mgf(net, mask, args.s)
    return [_row(net.subset_name(mask), "mgf", value.real, s=args.s)]


def cmd_cdf(args):
    net = _load_network(args.net)
    mask = _parse_subset_expr(net, args.node)
    name = net.subset_name(mask)
    try:
        start, stop, step = (float(x) for x in args.d_grid.split(":"))
    except ValueError as exc:
        raise AoiError(f"bad --d-grid {args.d_grid!r}, want START:STOP:STEP") from exc
    if not (0.0 <= start <= stop < math.inf and 0.0 < step < math.inf):
        raise AoiError(
            f"bad --d-grid {args.d_grid!r}, want finite 0 <= START <= STOP, STEP > 0"
        )
    # counted before np.arange allocates anything; inf when the count overflows
    points = (stop + step * 0.5 - start) / step
    if not points <= MAX_GRID_POINTS:
        raise AoiError(
            f"--d-grid {args.d_grid!r} has {points:.3g} points; "
            f"at most {MAX_GRID_POINTS} are allowed"
        )
    grid = np.arange(start, stop + step * 0.5, step)
    if not (grid.size and np.all(grid[1:] > grid[:-1])):
        raise AoiError(
            f"bad --d-grid {args.d_grid!r}: its points are not distinct and "
            "increasing at float spacing"
        )
    if args.method == "inversion":
        values = exact_mod.cdf_grid(net, mask, grid)
        return [_row(name, "cdf-inversion", v, d=d) for v, d in zip(values, grid)]
    if args.samples is None:
        raise AoiError("--method sample requires --samples")
    seed = _seed_of(args)
    batch = sampler_mod.sample_subset(
        net, mask, args.samples, sampler_mod.RngPolicy(seed)
    )
    n = args.samples
    rows = []
    for d in grid:
        value = sampler_mod.empirical_cdf(batch, 1, d)
        stderr = (value * (1.0 - value) / n) ** 0.5
        rows.append(_row(name, "cdf-sample", value, stderr, d=d, n=n, seed=seed))
    return rows


def cmd_chernoff(args):
    net = _load_network(args.net)
    mask = _parse_subset_expr(net, args.node)
    value = exact_mod.chernoff_bound(net, mask, args.d)
    return [_row(net.subset_name(mask), "chernoff", value, d=args.d)]


def cmd_sample(args):
    net = _load_network(args.net)
    seed = _seed_of(args)
    # the dump is opened first, so that a bad path costs no sampling
    with _output(args.dump_csv) if args.dump_csv else contextlib.nullcontext() as fh:
        batch = sampler_mod.sample_ages(net, args.samples, sampler_mod.RngPolicy(seed))
        if fh is not None:
            writer = csv_mod.writer(fh)
            writer.writerow(net.node_names)
            for row in batch.ages:
                writer.writerow([f"{x:.12g}" for x in row])
    rows = []
    for i, name in enumerate(net.node_names):
        est, stderr = sampler_mod.estimate(batch, 1 << i)
        rows.append(_row(name, "sample", est, stderr, n=args.samples, seed=seed))
    return rows


def cmd_simulate(args):
    net = _load_network(args.net)
    seed = _seed_of(args)
    thresholds = args.thresholds or []
    cfg = sim_mod.SimConfig(
        total_events=args.events,
        master_seed=seed,
        burn_in_fraction=args.burn_in,
    )
    if args.trace is not None:
        _output(args.trace).close()  # a bad path costs no run; simulate rewrites it
    res = sim_mod.simulate(net, cfg, thresholds=thresholds, trace_path=args.trace)
    rows = []
    for name in net.node_names:
        rows.append(
            _row(
                name,
                "simulate",
                sim_mod.time_average(res, name),
                sim_mod.time_average_stderr(res, name),
                events=args.events,
                seed=seed,
                burn_in=args.burn_in,
            )
        )
        for d in thresholds:
            rows.append(
                _row(
                    name,
                    "simulate-violation",
                    sim_mod.violation_fraction(res, name, d),
                    events=args.events,
                    seed=seed,
                    d=d,
                )
            )
    return rows


def cmd_cascade(args):
    return _all_means(_load_network(args.net), "cascade")


def _simulated_mean(net, mask: int, cfg) -> tuple[float, float]:
    """Time-averaged age of subset ``mask`` and its stderr from one run.

    The run solves only the nodes that reach the subset, and its result has
    one column, the subset's age.  ``compare`` runs it beside the sampler,
    so its change log and the sampled column are in memory at once.
    """
    res = sim_mod.simulate(net, cfg, target=mask)
    return sim_mod.time_average(res, 0), sim_mod.time_average_stderr(res, 0)


def cmd_compare(args):
    net = _load_network(args.net)
    mask = _parse_subset_expr(net, args.node)
    name = net.subset_name(mask)
    seed = _seed_of(args)

    exact_val = exact_mod.average_age(net, mask)
    cfg = sim_mod.SimConfig(total_events=args.events, master_seed=seed)
    sim_mod.check_batches(sim_mod.kept_events(cfg))  # before either route starts
    # the simulator runs beside the sampler; its result is read first, so its error wins
    with ThreadPoolExecutor(max_workers=1) as pool:
        simulated = pool.submit(_simulated_mean, net, mask, cfg)
        try:
            batch = sampler_mod.sample_subset(
                net, mask, args.samples, sampler_mod.RngPolicy(seed)
            )
        finally:
            sim_val, sim_se = simulated.result()
    samp, samp_se = sampler_mod.estimate(batch, 1)

    gate_sampler = abs(samp - exact_val) <= 4.0 * samp_se
    gate_sim = abs(sim_val - exact_val) <= 4.0 * sim_se
    verdict = gate_sampler and gate_sim
    return [
        _row(name, "exact", exact_val),
        _row(name, "sample", samp, samp_se, n=args.samples, seed=seed),
        _row(name, "simulate", sim_val, sim_se, events=args.events, seed=seed),
        _row(
            name,
            "verdict",
            1.0 if verdict else 0.0,
            sampler_gate="pass" if gate_sampler else "fail",
            simulator_gate="pass" if gate_sim else "fail",
            sigma=4,
        ),
    ]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aoinet",
        description="Age-of-information analysis for single-source networks",
    )
    parser.add_argument(
        "--format", choices=["jsonl", "csv"], default="jsonl", help="output format"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--net", required=True, help="network JSON file")
        p.set_defaults(func=func)
        return p

    add("validate", cmd_validate, help="check the single-source model")

    p = add("exact", cmd_exact, help="exact average ages")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--node")
    g.add_argument("--subset")
    g.add_argument("--all", action="store_true")

    p = add("mgf", cmd_mgf, help="E[exp(s*age)] at a real s")
    p.add_argument("--node", required=True)
    p.add_argument("--s", type=_REAL, required=True)

    p = add("cdf", cmd_cdf, help="CDF values over a threshold grid")
    p.add_argument("--node", required=True)
    p.add_argument("--d-grid", required=True, metavar="START:STOP:STEP")
    p.add_argument("--method", choices=["inversion", "sample"], default="inversion")
    p.add_argument("--samples", type=_COUNT)
    p.add_argument("--seed", type=_SEED)

    p = add("chernoff", cmd_chernoff, help="Chernoff tail bound")
    p.add_argument("--node", required=True)
    p.add_argument("--d", type=_THRESHOLD, required=True)

    p = add("sample", cmd_sample, help="Monte Carlo shortest-path sampling")
    p.add_argument("--samples", type=_SAMPLES, required=True)
    p.add_argument("--seed", type=_SEED)
    p.add_argument("--dump-csv", metavar="FILE")

    p = add("simulate", cmd_simulate, help="discrete-event ground truth")
    p.add_argument("--events", type=_COUNT, required=True)
    p.add_argument("--seed", type=_SEED)
    p.add_argument("--burn-in", type=_FRACTION, default=0.1)
    p.add_argument("--thresholds", type=_thresholds, metavar="d1,d2,...")
    p.add_argument("--trace", metavar="FILE")

    add("cascade", cmd_cascade, help="exact averages of every node, by dominators")

    p = add("compare", cmd_compare, help="cross-method agreement check")
    p.add_argument("--node", required=True)
    p.add_argument("--samples", type=_SAMPLES, required=True)
    p.add_argument("--events", type=_COUNT, required=True)
    p.add_argument("--seed", type=_SEED)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        rows = args.func(args)
    except AoiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    buf = io.StringIO()
    _emit(rows, args.format, buf)
    sys.stdout.write(buf.getvalue())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
