"""Spans around the public functions of digraphon's modules, recorded from outside.

``install`` replaces every public module-level function defined in one of
``LAYERS``, in every ``LAYERS`` module that holds it (so ``limits.sample_w_random``
and ``cli.step_spectrum`` are wrapped too), by a wrapper that hands the call
to a callback. ``Recorder`` is the callback of the traced pass: it keeps one
span per call in memory (name, start, end, parent, thread and a work count)
and the workload process writes them out when it ends. ``PeakMemory`` is the
callback of the tracemalloc pass. ``layer_metrics`` turns spans into
per-layer self times and counts.

Spans that start on a pool thread with nothing open on that thread take the
innermost span open on the main thread as their parent: the only pool in the
package is created by ``limits.convergence_experiment`` on the caller's thread.
"""
from __future__ import annotations

import importlib
import inspect
import itertools
import threading
import time
import tracemalloc
from collections import defaultdict

LAYERS = ("digraph", "spectra", "stepkernel", "limits", "cli")

# Per-call work counts, computed from the arguments: (metric suffix, function).
WORK = {
    # Dense non-symmetric eigensolve: about 10 n^3 flops (Golub & Van Loan).
    "spectra.eigenvalues": ("gflop_computed", lambda args: 10 * len(args[0]) ** 3 / 1e9),
    "stepkernel.cut_norm_witness": ("subsets_scanned", lambda args: 2 ** args[0].k),
}

# Parts of cli.main, the CLI layer's entry point; their time is its self time.
INNER = {"cli.run", "cli.build_parser", "cli.entrypoint"}

# Functions whose peak traced memory is reported per n^2 (n = vertex count).
PEAK_N = {
    "digraph.sample_w_random": lambda args: args[1],
    "spectra.normalized_spectrum": lambda args: args[0].n,
}


def install(wrap, only=None) -> None:
    """Replace public layer functions by ``wrap(name, fn)`` in every layer module.

    ``only`` restricts wrapping to a set of span names.
    """
    mods = [importlib.import_module(f"digraphon.{name}") for name in LAYERS]
    wrapped = {}
    for mod in mods:
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj) or id(obj) in wrapped:
                continue
            owner = obj.__module__.rpartition(".")[2]
            name = f"{owner}.{obj.__name__}"
            if owner in LAYERS and name not in INNER and (only is None or name in only):
                wrapped[id(obj)] = wrap(name, obj)
    for mod in mods:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrapped:
                setattr(mod, attr, wrapped[id(obj)])


class Recorder:
    """Span collector; ``spans`` rows are (id, name, start, end, parent, thread, work)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident

    def __call__(self, name, fn):
        work = WORK.get(name, (None, None))[1]

        def wrapper(*args, **kwargs):
            tid = threading.get_ident()
            with self._lock:
                stack = self._stacks.setdefault(tid, [])
                main = self._stacks.get(self._main) or [None]
                parent = stack[-1] if stack else (None if tid == self._main else main[-1])
                sid = next(self._ids)
                stack.append(sid)
            amount = work(args) if work else None
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                with self._lock:
                    stack.pop()
                    self.spans.append((sid, name, start, end, parent, tid, amount))

        return wrapper


class PeakMemory:
    """Largest traced allocation peak per n^2 of each ``PEAK_N`` function, at its largest n.

    ``tracemalloc.reset_peak`` is process-wide, so the pass must run serially.
    """

    def __init__(self):
        self.peaks: dict[str, tuple[int, float]] = {}

    def __call__(self, name, fn):
        size_of = PEAK_N[name]

        def wrapper(*args, **kwargs):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            result = fn(*args, **kwargs)
            n = int(size_of(args))
            ratio = (tracemalloc.get_traced_memory()[1] - base) / n**2
            prev_n, prev = self.peaks.get(name, (0, 0.0))
            if (n, ratio) > (prev_n, prev):
                self.peaks[name] = (n, ratio)
            return result

        return wrapper


def _covered(lo: float, hi: float, intervals) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def layer_metrics(spans, workers: int) -> dict[str, float]:
    """Self time and calls per function and per module, work counts, pool efficiency.

    Self time is span time minus the part of it covered by child spans.
    ``limits.parallel_efficiency`` is the busy time summed over the children of
    ``convergence_experiment`` divided by workers times its span; it is 0 when
    the experiment did not run.
    """
    children = defaultdict(list)
    for s in spans:
        children[s[4]].append(s)
    out: dict[str, float] = defaultdict(float)
    busy = elapsed = 0.0
    for sid, name, start, end, _parent, _tid, amount in spans:
        kids = children.get(sid, [])
        own = (end - start) - _covered(start, end, [(k[2], k[3]) for k in kids])
        out[f"{name}.self_s"] += own
        out[f"{name}.calls"] += 1
        out[name.partition(".")[0] + ".self_s"] += own
        if amount is not None:
            out[f"{name}.{WORK[name][0]}"] += amount
        if name == "limits.convergence_experiment":
            busy += sum(k[3] - k[2] for k in kids)
            elapsed += end - start
    out["limits.parallel_efficiency"] = busy / (workers * elapsed) if elapsed else 0.0
    return dict(out)
