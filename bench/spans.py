"""Per-layer spans recorded from outside diffsets.

``Tracer.install`` wraps every public function defined in a diffsets module,
plus the ``IntSet.members`` generator, and binds each wrapper in every
``diffsets`` module namespace that holds the original.  A module that imported
a function by name (``upper_banach_est`` lives in ``density`` and is bound in
``cli``, ``delta``, ``cover``, ``embed`` and ``extract``) therefore calls the
wrapper too.  ``uninstall`` puts every original back.

A span is (id, parent id, "layer.function", start ns, end ns, busy ns,
command).  Spans stay in memory until ``write`` dumps them at the end of the
run; ``metrics`` turns them into self times (a span's duration minus the
union of its children's intervals), call counts, work counters and the
4*10^5 : 10^5 ``scale_x`` ratios.

Two conventions keep the wrappers transparent and the arithmetic simple:

* ``IntSet.members`` is a generator, so its busy time is the sum of the time
  spent inside its steps, not the time from first to last step; its parent is
  the span that created it and consumes it.
* Spans opened on a ``par.ordered_map`` worker thread (whose own stack is
  empty) are children of the enclosing ``ordered_map`` span.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter_ns

LAYERS = (
    "cli", "intset", "density", "delta", "embed", "cover",
    "extract", "bohr", "gen", "prng", "report", "par",
)

# functions that report their own self time, by layer
FUNCTIONS = {
    "intset": ("members", "make_set", "read_set_file", "write_set_file",
               "intersect", "difference_set"),
    "density": ("bit_vector", "prefix_counts", "upper_banach_est", "upper_asymptotic_est"),
    "delta": ("eps_delta_banach", "eps_delta_upper", "shift_intersection"),
    "embed": ("window_embeddable", "shift_set_of"),
    "cover": ("greedy_shift_cover", "verify_cover_certificate", "quotient_cover"),
    "extract": ("trace_extract", "verify_extraction", "prefix_dense_region",
                "block_walk_bound", "joint_extract"),
    "bohr": ("piecewise_bohr_search", "bohr_generate"),
    "gen": ("gen",),
    "prng": ("stream_block",),
    "report": ("render",),
    "par": ("ordered_map",),
}

# layers whose listed functions get a scale_x row
SCALE_LAYERS = ("intset", "extract", "embed", "gen")

# counters: name -> (unit, better)
COUNTERS = {
    "intset.members.yielded": ("count", "lower"),
    "intset.bytes_read": ("B", "lower"),
    "intset.bytes_written": ("B", "lower"),
    "delta.shifts": ("count", "lower"),
    "par.items": ("count", "lower"),
    "par.threads": ("count", "higher"),
    "embed.traces_checked": ("count", "lower"),
    "embed.distinct_traces": ("count", "lower"),
    "embed.cache_hit_ratio": ("ratio", "higher"),
    "cover.candidates": ("count", "lower"),
    "cover.rounds": ("count", "lower"),
    "cover.rounds_per_k_bound": ("ratio", "lower"),
    "extract.region_size": ("count", "higher"),
    "extract.matches": ("count", "higher"),
    "bohr.specs_tried": ("count", "lower"),
    "report.bytes": ("B", "lower"),
}

MEMBERS = "intset.members"
ORDERED_MAP = "par.ordered_map"


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric ``Tracer.metrics`` returns."""
    out = []
    for layer in LAYERS:
        out += [(f"{layer}.self_s", "s", "lower"), (f"{layer}.calls", "count", "lower")]
    for layer, fns in FUNCTIONS.items():
        out += [(f"{layer}.{fn}.self_s", "s", "lower") for fn in fns]
    for layer in SCALE_LAYERS:
        out += [(f"{layer}.{fn}.scale_x", "x", "lower") for fn in FUNCTIONS[layer]]
    out += [(name, unit, better) for name, (unit, better) in COUNTERS.items()]
    return out


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


# -- counters read from arguments and results ---------------------------------
# each hook gets (counts, parent span name, args, kwargs, result)


def _bytes_read(c, parent, args, kwargs, result):
    c["intset.bytes_read"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _bytes_written(c, parent, args, kwargs, result):
    c["intset.bytes_written"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


def _shifts(c, parent, args, kwargs, result):
    c["delta.shifts"] += len(result.per_t)


def _items(c, parent, args, kwargs, result):
    c["par.items"] += len(_arg(args, kwargs, 1, "items"))


def _traces(c, parent, args, kwargs, result):
    c["embed.traces_checked"] += result.checked


def _distinct(c, parent, args, kwargs, result):
    if parent == "embed.window_embeddable":  # one witness search per cache miss
        c["embed.distinct_traces"] += 1


def _greedy(c, parent, args, kwargs, result):
    c["cover.candidates"] += len(set(_arg(args, kwargs, 1, "candidates")))
    c["cover.rounds"] += len(result.shifts)
    c["cover.k_bound"] += result.k_bound


def _trace_extract(c, parent, args, kwargs, result):
    c["extract.region_size"] += result.region_size
    c["extract.matches"] += result.matches.count


def _specs(c, parent, args, kwargs, result):
    if parent == "bohr.piecewise_bohr_search":
        c["bohr.specs_tried"] += 1


def _report_bytes(c, parent, args, kwargs, result):
    c["report.bytes"] += len(result)


HOOKS = {
    "intset.read_set_file": _bytes_read,
    "intset.write_set_file": _bytes_written,
    "delta.eps_delta_banach": _shifts,
    "delta.eps_delta_upper": _shifts,
    ORDERED_MAP: _items,
    "embed.window_embeddable": _traces,
    "embed.embed_witness": _distinct,
    "cover.greedy_shift_cover": _greedy,
    "extract.trace_extract": _trace_extract,
    "bohr.bohr_generate": _specs,
    "report.render": _report_bytes,
}


def _union_ns(intervals) -> int:
    total, end = 0, None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


class Tracer:
    """Records spans of diffsets calls while installed; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.cmd = None  # the benchmark command running now, stamped on each span
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._pool = (0, "")  # innermost open ordered_map span, parent of worker spans
        self._workers: dict[int, set[int]] = defaultdict(set)
        self._saved: list[tuple[object, str, object]] = []

    # -- install / uninstall ---------------------------------------------------

    def install(self) -> None:
        mods = [m for name, m in list(sys.modules.items())
                if m is not None and (name == "diffsets" or name.startswith("diffsets."))]
        wrappers = {}
        for mod in mods:
            layer = mod.__name__.rpartition(".")[2]
            if layer not in LAYERS:
                continue
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
        for mod in mods:
            for name, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._saved.append((mod, name, obj))
                    setattr(mod, name, hit[1])
        intset_cls = sys.modules["diffsets.intset"].IntSet
        self._saved.append((intset_cls, "members", intset_cls.members))
        intset_cls.members = self._wrap_members(intset_cls.members)

    def uninstall(self) -> None:
        for owner, name, obj in reversed(self._saved):
            setattr(owner, name, obj)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- wrappers ----------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        tracer = self
        hook = HOOKS.get(name)
        pool = name == ORDERED_MAP

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._pool
                if parent[0]:
                    tracer._workers[parent[0]].add(threading.get_ident())
            sid = next(tracer._ids)
            stack.append((sid, name))
            if pool:
                outer, tracer._pool = tracer._pool, (sid, name)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                if pool:
                    tracer._pool = outer
                tracer.spans.append((sid, parent[0], name, t0, t1, t1 - t0, tracer.cmd))
            if hook is not None:
                hook(tracer.counts, parent[1], args, kwargs, result)
            return result

        return traced

    def _wrap_members(self, fn):
        tracer = self

        @functools.wraps(fn)
        def members(intset):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._pool
            return tracer._steps(fn(intset), next(tracer._ids), parent[0], tracer.cmd)

        return members

    def _steps(self, it, sid, parent, cmd):
        busy = count = 0
        first = last = 0
        try:
            while True:
                t0 = perf_counter_ns()
                first = first or t0
                try:
                    x = next(it)
                except StopIteration:
                    return
                finally:
                    last = perf_counter_ns()
                    busy += last - t0
                count += 1
                yield x
        finally:
            self.spans.append((sid, parent, MEMBERS, first, last, busy, cmd))
            self.counts["intset.members.yielded"] += count

    # -- results -------------------------------------------------------------------

    def write(self, path) -> None:
        """Dump the spans as JSON rows: id, parent, name, start, end, busy ns, command."""
        rows = [[sid, parent, name, t0, t1, busy, cmd.label if cmd else None]
                for sid, parent, name, t0, t1, busy, cmd in self.spans]
        with open(path, "w") as fh:
            json.dump(rows, fh)

    def self_times(self) -> list[tuple[str, object, int]]:
        """(name, command, self ns) for every span."""
        kids = defaultdict(list)
        gen_busy = defaultdict(int)
        for sid, parent, name, t0, t1, busy, cmd in self.spans:
            if name == MEMBERS:
                gen_busy[parent] += busy
            else:
                kids[parent].append((t0, t1))
        out = []
        for sid, parent, name, t0, t1, busy, cmd in self.spans:
            own = busy
            if name != MEMBERS:
                own -= _union_ns(kids.get(sid, ())) + gen_busy.get(sid, 0)
            out.append((name, cmd, own))
        return out

    def map_seconds(self) -> float:
        """Wall time spent inside par.ordered_map calls."""
        spans = (t1 - t0 for _, _, name, t0, t1, _, _ in self.spans if name == ORDERED_MAP)
        return sum(spans) / 1e9

    def metrics(self) -> dict[str, float]:
        """Every metric of ``metric_specs``; 0 for what the traced commands never ran."""
        layer_s, layer_calls, fn_s = Counter(), Counter(), Counter()
        paired = defaultdict(lambda: defaultdict(Counter))  # fn -> pair key -> size -> ns
        for name, cmd, own in self.self_times():
            layer = name.partition(".")[0]
            layer_s[layer] += own
            layer_calls[layer] += 1
            fn_s[name] += own
            if cmd is not None and cmd.pair is not None:
                key, size = cmd.pair
                paired[name][key][size] += own
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_s[layer] / 1e9
            out[f"{layer}.calls"] = layer_calls[layer]
        for layer, fns in FUNCTIONS.items():
            for fn in fns:
                out[f"{layer}.{fn}.self_s"] = fn_s[f"{layer}.{fn}"] / 1e9
        for layer in SCALE_LAYERS:
            for fn in FUNCTIONS[layer]:
                sizes = [s for s in paired[f"{layer}.{fn}"].values() if len(s) == 2]
                small = sum(s[min(s)] for s in sizes)
                large = sum(s[max(s)] for s in sizes)
                out[f"{layer}.{fn}.scale_x"] = large / small if small else 0.0
        c = self.counts
        for name in COUNTERS:
            out[name] = c[name]
        checked = c["embed.traces_checked"]
        out["embed.cache_hit_ratio"] = (
            (checked - c["embed.distinct_traces"]) / checked if checked else 0.0
        )
        out["cover.rounds_per_k_bound"] = (
            c["cover.rounds"] / c["cover.k_bound"] if c["cover.k_bound"] else 0.0
        )
        out["par.threads"] = (
            max((len(t) for t in self._workers.values()), default=0)
            or (1 if layer_calls["par"] else 0)
        )
        return out
