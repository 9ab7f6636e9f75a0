"""Spans around the calls into each weilparity module, and the per-layer
numbers derived from them.

A traced child process calls :func:`install`, which wraps the public
functions of every layer module (and the arithmetic methods of
``IntPoly``) so that each call records a span: name, start, end and
parent span.  Spans stay in memory in flat arrays and are written once,
when the child ends (:meth:`SpanLog.dump`).  The benchmark then turns
them into per-layer counts and self times (:func:`layer_metrics`).

Only this file knows how the package is wrapped; the program itself is
not changed.
"""

from __future__ import annotations

import importlib
import pickle
import statistics
from array import array
from time import perf_counter

LAYERS = ("intpoly", "cyclotomic", "weil", "enumerator", "bounds", "cli")

# IntPoly methods that do arithmetic or text work.  Accessors such as
# ``coefficient`` and ``is_monic`` are left unwrapped: a span costs about
# a microsecond, more than the work they do.  Aliases (``__rmul__`` is
# ``__mul__``) share the span name of the function they alias.
INTPOLY_METHODS = {
    "__add__": "add",
    "__neg__": "neg",
    "__sub__": "sub",
    "__rsub__": "rsub",
    "__mul__": "mul",
    "__pow__": "pow",
    "exact_div": "exact_div",
    "compose_power": "compose_power",
    "sign_flip": "sign_flip",
    "eval_int": "eval_int",
    "from_line": "from_line",
    "to_line": "to_line",
}

# Per-layer metrics reported by a traced run: name -> (unit, better).
PER_LAYER = {
    "intpoly.mul.calls": ("count", "lower"),
    "intpoly.mul.self_s": ("s", "lower"),
    "intpoly.mul.coeff_products": ("count", "lower"),
    "intpoly.mul.packed_share": ("ratio", "lower"),
    "intpoly.pow.calls": ("count", "lower"),
    "intpoly.pow.self_s": ("s", "lower"),
    "intpoly.exact_div.calls": ("count", "lower"),
    "intpoly.exact_div.self_s": ("s", "lower"),
    "intpoly.exact_div.coeff_ops": ("count", "lower"),
    "intpoly.exact_div.packed_share": ("ratio", "lower"),
    "cyclotomic.cyclotomic.calls": ("count", "lower"),
    "cyclotomic.cyclotomic.self_s": ("s", "lower"),
    "cyclotomic.memo_hit_ratio": ("ratio", "higher"),
    "cyclotomic.factorize.cache_hit_ratio": ("ratio", "higher"),
    "cyclotomic.is_prime.calls": ("count", "lower"),
    "cyclotomic.totient.calls": ("count", "lower"),
    "weil.minpoly_full_degree.calls": ("count", "lower"),
    "weil.minpoly_full_degree.self_s": ("s", "lower"),
    "weil.is_full_degree.calls": ("count", "lower"),
    "enumerator.cells": ("count", "higher"),
    "enumerator.candidates": ("count", "higher"),
    "enumerator.mul_per_candidate": ("count", "lower"),
    "enumerator.enumerate_candidates.self_s": ("s", "lower"),
    "enumerator.admissible_full_degree_specs.self_s": ("s", "lower"),
    "enumerator.half_degree_candidates.self_s": ("s", "lower"),
    "enumerator.primes_between.self_s": ("s", "lower"),
    "bounds.full_bounds_report.calls": ("count", "lower"),
    "bounds.full_bounds_report.self_s": ("s", "lower"),
    "cli.run.self_s": ("s", "lower"),
    "cli.ingest_reference.self_s": ("s", "lower"),
    "cli.output_bytes": ("bytes", "lower"),
    **{f"{layer}.calls": ("count", "lower") for layer in LAYERS},
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "trace.untraced_wall_s": ("s", "lower"),
    "trace.traced_wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


class SpanLog:
    """Spans of one process, in start order, kept in flat arrays."""

    def __init__(self, invocation: str = ""):
        self.invocation = invocation
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("q")  # size of the call's input, where measured
        self.packed = array("b")  # 1 if the sizes select a packed IntPoly path
        self.meta: dict = {}
        self._stack: list[int] = []

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, measure=None):
        """Return ``fn`` wrapped so that every call records a span."""
        nid = self.intern(name)
        stack = self._stack
        ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        works, packs = self.work, self.packed

        def traced(*args, **kwargs):
            work, packed = measure(args) if measure else (0, 0)
            index = len(ids)
            ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            works.append(work)
            packs.append(packed)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def dump(self, path) -> None:
        state = {
            "invocation": self.invocation,
            "names": self.names,
            "meta": self.meta,
            **{key: getattr(self, key).tobytes() for key in _ARRAYS},
        }
        with open(path, "wb") as handle:
            pickle.dump(state, handle, protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def load(cls, path) -> SpanLog:
        # Only span files written by dump() in this benchmark are read.
        with open(path, "rb") as handle:
            state = pickle.load(handle)
        log = cls(state["invocation"])
        log.names = state["names"]
        log.meta = state["meta"]
        for key in _ARRAYS:
            getattr(log, key).frombytes(state[key])
        return log


_ARRAYS = ("name_id", "parent", "start", "end", "work", "packed")


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover.

    Spans are given in order of start time; ``parents[i]`` is the index of
    span i's parent, or -1.  Overlapping children are counted once, and a
    child reaching past its parent's end covers only up to that end.
    """
    n = len(starts)
    covered = [0.0] * n
    reach = list(starts)  # per span: end of the part its children cover so far
    for i in range(n):
        p = parents[i]
        if p < 0:
            continue
        lo = max(starts[i], reach[p])
        hi = min(ends[i], ends[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [ends[i] - starts[i] - covered[i] for i in range(n)]


# -- installing the wrappers (in the traced child) ----------------------


def _mul_measure(threshold):
    def measure(args):
        a, b = args[0].coeffs, args[1]
        size = len(a) * (len(b.coeffs) if hasattr(b, "coeffs") else 1)
        packed = threshold is not None and hasattr(b, "coeffs") and size > threshold
        return size, int(packed and bool(a) and bool(b.coeffs))

    return measure


def _div_measure(threshold):
    def measure(args):
        num, den = args[0].coeffs, args[1].coeffs
        if not num or not den or len(num) < len(den):
            return 0, 0
        ops = (len(num) - len(den) + 1) * sum(1 for c in den if c)
        return ops, int(threshold is not None and ops > threshold)

    return measure


def _public_functions(module):
    for name, obj in vars(module).items():
        if (
            not name.startswith("_")
            and callable(obj)
            and not isinstance(obj, type)
            and getattr(obj, "__module__", None) == module.__name__
        ):
            yield name, obj


def install(invocation: str = "") -> SpanLog:
    """Wrap every layer's public functions; return the log they record into.

    Modules are taken with ``importlib.import_module``: the package
    attribute ``weilparity.cyclotomic`` is the function, which shadows
    the submodule.  A wrapper replaces the original wherever a module
    bound it at import time (``enumerator`` binds ``totient`` and
    ``minpoly_full_degree``, ``cli`` binds ``cyclotomic``, ...), and
    wherever ``IntPoly`` aliases it (``__rmul__`` is ``__mul__``).
    """
    log = SpanLog(invocation)
    package = importlib.import_module("weilparity")
    modules = {layer: importlib.import_module(f"weilparity.{layer}") for layer in LAYERS}
    intpoly = modules["intpoly"]

    replace: dict[int, object] = {}
    for layer, module in modules.items():
        for name, fn in _public_functions(module):
            replace[id(fn)] = log.wrap(fn, f"{layer}.{name}")

    cls = intpoly.IntPoly
    measures = {
        "mul": _mul_measure(getattr(intpoly, "_MUL_PACK_THRESHOLD", None)),
        "exact_div": _div_measure(getattr(intpoly, "_DIV_PACK_THRESHOLD", None)),
    }
    methods = {}
    for attr, short in INTPOLY_METHODS.items():
        raw = vars(cls).get(attr)
        if raw is None:
            continue
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        methods[id(fn)] = log.wrap(fn, f"intpoly.{short}", measures.get(short))
    for attr, raw in list(vars(cls).items()):
        if isinstance(raw, classmethod) and id(raw.__func__) in methods:
            setattr(cls, attr, classmethod(methods[id(raw.__func__)]))
        elif id(raw) in methods:
            setattr(cls, attr, methods[id(raw)])

    for module in (package, *modules.values()):
        for name, obj in list(vars(module).items()):
            if id(obj) in replace:
                setattr(module, name, replace[id(obj)])

    return log


def finish(log: SpanLog) -> None:
    """Record the end-of-run cache statistics into the log's metadata."""
    cyclotomic = importlib.import_module("weilparity.cyclotomic")
    caches = {
        "memo": getattr(cyclotomic, "_cyclotomic", None),
        "factorize": getattr(cyclotomic.factorize, "__wrapped__", None),
    }
    stats = {}
    for key, fn in caches.items():
        info = fn.cache_info() if hasattr(fn, "cache_info") else None
        stats[key] = (info.hits, info.misses) if info else (0, 0)
    log.meta["cache"] = stats


# -- turning spans into per-layer numbers -------------------------------


def summarize(log: SpanLog) -> dict:
    """Per span name: calls, self time, summed work and packed calls."""
    selfs = self_times(log.start, log.end, log.parent)
    out: dict[str, list] = {}
    for nid, s, w, pk in zip(log.name_id, selfs, log.work, log.packed):
        entry = out.setdefault(log.names[nid], [0, 0.0, 0, 0])
        entry[0] += 1
        entry[1] += s
        entry[2] += w
        entry[3] += pk
    return {
        "names": out,
        "cache": log.meta.get("cache", {}),
    }


def merge(summaries) -> dict:
    """Add up the summaries of the invocations of one round."""
    names: dict[str, list] = {}
    cache: dict[str, list] = {}
    for summary in summaries:
        for name, entry in summary["names"].items():
            acc = names.setdefault(name, [0, 0.0, 0, 0])
            for i, value in enumerate(entry):
                acc[i] += value
        for key, (hits, misses) in summary["cache"].items():
            acc = cache.setdefault(key, [0, 0])
            acc[0] += hits
            acc[1] += misses
    return {"names": names, "cache": cache}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(round_summary: dict, cells: int, candidates: int, output_bytes: int) -> dict:
    """The per-layer metrics of one traced round.

    ``cells``, ``candidates`` and ``output_bytes`` come from the checked
    CLI outputs, so they do not depend on how the program is organised.
    """
    names = round_summary["names"]

    def get(name, field):
        return names.get(name, [0, 0.0, 0, 0])[field]

    out = {}
    for fn in ("mul", "pow", "exact_div"):
        out[f"intpoly.{fn}.calls"] = get(f"intpoly.{fn}", 0)
        out[f"intpoly.{fn}.self_s"] = get(f"intpoly.{fn}", 1)
    out["intpoly.mul.coeff_products"] = get("intpoly.mul", 2)
    out["intpoly.mul.packed_share"] = _ratio(get("intpoly.mul", 3), get("intpoly.mul", 0))
    out["intpoly.exact_div.coeff_ops"] = get("intpoly.exact_div", 2)
    out["intpoly.exact_div.packed_share"] = _ratio(
        get("intpoly.exact_div", 3), get("intpoly.exact_div", 0)
    )
    out["cyclotomic.cyclotomic.calls"] = get("cyclotomic.cyclotomic", 0)
    out["cyclotomic.cyclotomic.self_s"] = get("cyclotomic.cyclotomic", 1)
    cache = round_summary["cache"]
    for metric, key in (
        ("cyclotomic.memo_hit_ratio", "memo"),
        ("cyclotomic.factorize.cache_hit_ratio", "factorize"),
    ):
        hits, misses = cache.get(key, (0, 0))
        out[metric] = _ratio(hits, hits + misses)
    out["cyclotomic.is_prime.calls"] = get("cyclotomic.is_prime", 0)
    out["cyclotomic.totient.calls"] = get("cyclotomic.totient", 0)
    out["weil.minpoly_full_degree.calls"] = get("weil.minpoly_full_degree", 0)
    out["weil.minpoly_full_degree.self_s"] = get("weil.minpoly_full_degree", 1)
    out["weil.is_full_degree.calls"] = get("weil.is_full_degree", 0)
    out["enumerator.cells"] = cells
    out["enumerator.candidates"] = candidates
    out["enumerator.mul_per_candidate"] = _ratio(get("intpoly.mul", 0), candidates)
    for fn in (
        "enumerate_candidates",
        "admissible_full_degree_specs",
        "half_degree_candidates",
        "primes_between",
    ):
        out[f"enumerator.{fn}.self_s"] = get(f"enumerator.{fn}", 1)
    out["bounds.full_bounds_report.calls"] = get("bounds.full_bounds_report", 0)
    out["bounds.full_bounds_report.self_s"] = get("bounds.full_bounds_report", 1)
    out["cli.run.self_s"] = get("cli.run", 1)
    out["cli.ingest_reference.self_s"] = get("cli.ingest_reference", 1)
    out["cli.output_bytes"] = output_bytes
    for layer in LAYERS:
        prefix = layer + "."
        entries = [e for name, e in names.items() if name.startswith(prefix)]
        out[f"{layer}.calls"] = sum(e[0] for e in entries)
        out[f"{layer}.self_s"] = sum(e[1] for e in entries)
    return out


def median_metrics(rounds: list[dict]) -> dict:
    """Median of each metric over rounds."""
    return {key: statistics.median(r[key] for r in rounds) for key in rounds[0]}
