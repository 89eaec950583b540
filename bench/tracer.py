"""Spans and counts around the program's public functions, from outside it.

The tracer replaces each listed function, wherever an ``aoinet`` module
binds it (``cli`` imports ``parse_network`` by name, ``exact`` calls
``average_age`` through its own globals), with a wrapper that records a
span: name, start, end and parent.  Self time is a span's duration minus
the time its child spans cover.  A listed function that the program no
longer has is reported as absent; nothing else changes.

Count hooks read work counts from a call's arguments and result (replicates
drawn, events run, birth changes).  A hook that no longer fits the
program's types marks its counts absent instead of failing the op.

With ``memory=True`` each span also records the tracemalloc peak above
its entry level; the caller starts tracemalloc, and runs that pass apart
from the timed ones because tracemalloc slows allocation-heavy code.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import tracemalloc

# (layer, function) pairs: the public functions the CLI reaches through
# module attributes, named after the module that defines them.
FUNCTIONS = (
    ("network", "parse_network"),
    ("network", "validate_ssn"),
    ("exact", "average_age"),
    ("exact", "cdf_via_inversion"),
    ("exact", "chernoff_bound"),
    ("exact", "mgf_convergence_bound"),
    ("sampler", "sample_ages"),
    ("sampler", "estimate"),
    ("simulator", "simulate"),
    ("simulator", "time_average_stderr"),
    ("cascade", "decompose_chain"),
    ("cascade", "chain_average_ages"),
)

ROOT = "cli"
PACKAGE = "aoinet"


def _sample_counts(bound, result):
    return {"replicates": int(result.ages.shape[0])}


def _simulate_counts(bound, result):
    events = int(bound.arguments["cfg"].total_events)
    changes = sum(len(t) - 1 for t in result.change_times)
    return {"events": events, "birth_changes": int(changes)}


HOOKS = {
    "sampler.sample_ages": _sample_counts,
    "simulator.simulate": _simulate_counts,
}


class Tracer:
    """Installs wrappers, collects spans per op, restores the originals."""

    def __init__(self):
        self.absent: list[str] = []
        self.bad_hooks: set[str] = set()
        self.memory = False
        self._patches = []  # (module, attr, original)
        self._wrappers = {}  # name -> (original, wrapper)
        self.reset()
        for layer, func in FUNCTIONS:
            name = f"{layer}.{func}"
            try:
                mod = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                self.absent.append(name)
                continue
            orig = getattr(mod, func, None)
            if not callable(orig):
                self.absent.append(name)
                continue
            self._wrappers[name] = (orig, self._wrap(name, orig))

    def reset(self) -> None:
        """Forget the spans and counts of the previous op."""
        self.spans = []  # [name, start, end, parent, peak_bytes]
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._mem: list[list[int]] = []  # [entry_current, max_peak] per open span

    def _wrap(self, name, orig):
        hook = HOOKS.get(name)
        try:
            sig = inspect.signature(orig)
        except (TypeError, ValueError):
            sig = None

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            k = self.open(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                self.close(k)
            if hook is not None and name not in self.bad_hooks:
                try:
                    bound = sig.bind(*args, **kwargs) if sig else None
                    for key, val in hook(bound, result).items():
                        self.counts[key] = self.counts.get(key, 0) + val
                except (AttributeError, KeyError, TypeError, ValueError, IndexError):
                    self.bad_hooks.add(name)
            return result

        return wrapper

    def open(self, name: str) -> int:
        if self.memory:
            cur, peak = tracemalloc.get_traced_memory()
            for frame in self._mem:
                frame[1] = max(frame[1], peak)
            self._mem.append([cur, cur])
            tracemalloc.reset_peak()
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, 0])
        k = len(self.spans) - 1
        self._stack.append(k)
        return k

    def close(self, k: int) -> None:
        span = self.spans[k]
        span[2] = time.perf_counter()
        self._stack.pop()
        if self.memory:
            frame = self._mem.pop()
            _, peak = tracemalloc.get_traced_memory()
            frame[1] = max(frame[1], peak)
            span[4] = frame[1] - frame[0]
            if self._mem:
                self._mem[-1][1] = max(self._mem[-1][1], frame[1])

    def install(self) -> None:
        """Bind every wrapper wherever a loaded package module binds the original."""
        originals = {id(o): (o, w) for o, w in self._wrappers.values()}
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, val in list(vars(mod).items()):
                hit = originals.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._patches):
            setattr(mod, attr, val)
        self._patches = []

    def summary(self) -> dict:
        """Per-name self seconds, inclusive seconds, calls and peak bytes."""
        out: dict[str, dict] = {}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for k, (name, start, end, parent, peak) in enumerate(self.spans):
            rec = out.setdefault(name, {"self_s": 0.0, "incl_s": 0.0, "calls": 0, "peak_b": 0})
            rec["self_s"] += (end - start) - child_time[k]
            rec["incl_s"] += end - start
            rec["calls"] += 1
            rec["peak_b"] = max(rec["peak_b"], peak)
        return out
