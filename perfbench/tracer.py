"""Outside-in tracing of mixlim for the benchmark's traced run.

The tracer wraps every public function of the library's layers and rebinds
the wrapper wherever a caller looks the function up: the defining module, the
package namespace and every module that imported the name directly (``cli``
imports ``monte_carlo``, ``ks_*``, ``ecf_distance``, ``sample_stable`` and
``char_exponent`` by name; ``stats`` imports ``monte_carlo``).  Patching only
the defining module would miss those calls.

Each call becomes a span (name, start, end, parent) kept in memory in one flat
integer array and written out once, by ``dump``.  Spans opened on pool threads
take the innermost open span of the main thread as their parent: the only
pool in the library lives inside ``monte_carlo``, whose caller blocks on the
main thread until the pool is done.  ``RngStream.uniforms`` and
``substream_seed`` run once per chunk or per replicate on the pool threads, so
they are counted (calls, units, nanoseconds summed across threads) in
per-thread counters instead of spanned.

``summarize`` turns spans into per-name and per-layer figures.  A span's self
time is its duration minus the part of it that its child spans cover; children
that ran in parallel are merged first, so self time never goes negative.
"""

from __future__ import annotations

import array
import functools
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("model", "regimes", "samplers", "stable_limit", "stats", "diagnostics")

# Span record layout in the flat array: one row of FIELDS integers per span.
FIELDS = 6  # index, name id, start ns, end ns, parent index (-1: root), raised


class Tracer:
    """Collects spans and counters for one process."""

    def __init__(self):
        self.names: list[str] = []
        self.spans = array.array("q")
        self.counters: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._next_index = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._thread_counters: list[dict] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            main = threading.current_thread() is threading.main_thread()
            stack = self._main_stack if main else []
            self._local.stack = stack
        return stack

    def wrap(self, name: str, fn, meter=None):
        """Return ``fn`` recording a span ``name`` per call.

        ``meter(counters, bound_args, result, elapsed_ns)`` runs under the lock
        after each call that returned, with the call's arguments bound to
        ``fn``'s signature.
        """
        name_id = len(self.names)
        self.names.append(name)
        signature = inspect.signature(fn) if meter is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif self._main_stack:
                parent = self._main_stack[-1]
            else:
                parent = -1
            index = next(self._next_index)
            stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(index, name_id, start, parent, 1, stack)
                raise
            elapsed = self._close(index, name_id, start, parent, 0, stack)
            if meter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                with self._lock:
                    meter(self.counters, bound.arguments, result, elapsed)
            return result

        return traced

    def _close(self, index, name_id, start, parent, raised, stack) -> int:
        end = time.perf_counter_ns()
        stack.pop()
        with self._lock:
            self.spans.extend((index, name_id, start, end, parent, raised))
        return end - start

    def count(self, key: str, fn, units=None):
        """Return ``fn`` adding its calls, nanoseconds and ``units(*args)`` to counters.

        For functions called per replicate or per chunk on the pool threads:
        a span there would cost more than the call.  Each thread adds to its
        own counters, which ``dump`` sums, so no lock is taken per call.
        """

        @functools.wraps(fn)
        def counted(*args):
            start = time.perf_counter_ns()
            result = fn(*args)
            elapsed = time.perf_counter_ns() - start
            counters = getattr(self._local, "counters", None)
            if counters is None:
                counters = self._local.counters = defaultdict(float)
                with self._lock:
                    self._thread_counters.append(counters)
            counters[key + ".calls"] += 1
            counters[key + ".ns"] += elapsed
            if units is not None:
                counters[key + ".units"] += units(*args)
            return result

        return counted

    def install(self, package, meters: dict, counted: dict) -> None:
        """Wrap each layer's public functions wherever the package binds them.

        Functions named in ``counted`` (name -> units function or None) are
        counted instead of spanned; the others get a span per call and, if
        named in ``meters``, their meter.
        """
        modules = [m for n, m in sys.modules.items()
                   if n == package.__name__ or n.startswith(package.__name__ + ".")]
        for layer in LAYERS:
            module = sys.modules[f"{package.__name__}.{layer}"]
            for attr in module.__all__:
                original = getattr(module, attr)
                if not inspect.isfunction(original):
                    continue
                name = f"{layer}.{attr}"
                if name in counted:
                    wrapper = self.count(name, original, counted[name])
                else:
                    wrapper = self.wrap(name, original, meters.get(name))
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)

    def dump(self, path: str) -> None:
        """Write names, counters and spans: a JSON header line, then the raw array."""
        counters = defaultdict(float, self.counters)
        for per_thread in self._thread_counters:
            for key, value in per_thread.items():
                counters[key] += value
        header = {"names": self.names, "counters": counters,
                  "count": len(self.spans) // FIELDS}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            self.spans.tofile(fh)


def load(path: str) -> tuple[list[str], dict, array.array]:
    """Read what ``Tracer.dump`` wrote."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        spans = array.array("q")
        spans.fromfile(fh, header["count"] * FIELDS)
    return header["names"], header["counters"], spans


def covered_ns(start: int, end: int, intervals) -> int:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def summarize(names: list[str], spans) -> dict:
    """Per-name and per-layer totals of one process's spans.

    Returns {"names": {name: {calls, raised, busy_ns, self_ns}},
             "layers": {layer: {busy_ns, self_ns}}, "root_ns": int}.
    ``busy_ns`` counts only spans with no ancestor of the same name (or, for
    layers, of the same layer), so recursion and nesting are not counted twice.
    """
    rows = {}
    for i in range(0, len(spans), FIELDS):
        index, name_id, start, end, parent, raised = spans[i:i + FIELDS]
        rows[index] = (names[name_id], start, end, parent, raised)
    children = defaultdict(list)
    for index, (_, start, end, parent, _) in rows.items():
        if parent in rows:
            children[parent].append((start, end))

    def has_ancestor(index, same) -> bool:
        parent = rows[index][3]
        while parent in rows:
            if same(rows[parent][0]):
                return True
            parent = rows[parent][3]
        return False

    per_name = defaultdict(lambda: {"calls": 0, "raised": 0, "busy_ns": 0, "self_ns": 0})
    per_layer = defaultdict(lambda: {"busy_ns": 0, "self_ns": 0})
    root_ns = 0
    for index, (name, start, end, parent, raised) in rows.items():
        duration = end - start
        own = duration - covered_ns(start, end, children.get(index, ()))
        layer = name.split(".", 1)[0]
        entry = per_name[name]
        entry["calls"] += 1
        entry["self_ns"] += own
        per_layer[layer]["self_ns"] += own
        if not has_ancestor(index, lambda other: other == name):
            entry["busy_ns"] += duration
            entry["raised"] += raised
        if not has_ancestor(index, lambda other: other.split(".", 1)[0] == layer):
            per_layer[layer]["busy_ns"] += duration
        if parent not in rows:
            root_ns += duration
    return {"names": dict(per_name), "layers": dict(per_layer), "root_ns": root_ns}


def merge(summaries) -> dict:
    """Sum several ``summarize`` results (one per process)."""
    total = {"names": defaultdict(lambda: defaultdict(int)),
             "layers": defaultdict(lambda: defaultdict(int)), "root_ns": 0}
    for summary in summaries:
        for group in ("names", "layers"):
            for key, values in summary[group].items():
                for field, value in values.items():
                    total[group][key][field] += value
        total["root_ns"] += summary["root_ns"]
    return total
