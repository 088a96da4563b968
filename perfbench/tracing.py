"""Span tracing for the traced benchmark run.

The tracer wraps qamont functions at the module attributes through which
they are called, so the program itself is not edited:

* every function one traced module imports from another (for example
  ``qamont.lattice.invariant_factors``, which lives in ``qamont.intmat``);
* the calls a module makes to itself that the per-layer metrics need
  (``INTRA_MODULE``);
* the entry points the benchmark calls (``ENTRY_POINTS``).

A span is named ``<defining module>.<function>``; its layer is the part
before the first dot.  Generators are timed per ``next()``, so a rank
search is the sum of its steps.  Spans stay in memory (name, start, end,
parent, item) until ``write_spans`` runs after the measured phase.  A
span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import importlib
import inspect
from array import array
from collections import Counter, defaultdict
from functools import wraps
from time import perf_counter_ns

LAYERS = ("classifier", "cli", "lattice", "laufer", "plumbing", "montesinos", "intmat")

INTRA_MODULE = (
    ("qamont.lattice", "enumerate_embeddings"),
    ("qamont.lattice", "transpose_surjective"),
)

ENTRY_POINTS = (
    ("qamont.classifier", "classify"),
    ("qamont.classifier", "verify"),
    ("qamont.cli", "main"),
    ("qamont.montesinos", "parse_link"),
)

# Which end-to-end metrics a layer metric should move, and on which workloads.
_SEARCH = ("throughput_per_s item_ms_p95", "verify-family embed-exhaustive")
_CACHE = ("throughput_per_s peak_rss_mb", "verify-family")
_FULL_ENUMERATION = ("throughput_per_s", "embed-exhaustive")
_PER_LINK = ("item_ms_p50", "verify-family")
_BULK = ("throughput_per_s peak_rss_mb", "enumerate-bulk")

# name -> (unit, better, end-to-end metrics it should move, workloads).
LAYER_METRICS = {
    "lattice.share": ("ratio", "lower", "throughput_per_s", "verify-family embed-exhaustive"),
    "lattice.enumerate_s": ("s", "lower", *_SEARCH),
    "lattice.ranks_searched": ("count", "lower", *_SEARCH),
    "lattice.empty_ranks": ("count", "lower", *_SEARCH),
    "lattice.empty_rank_share": ("ratio", "lower", *_SEARCH),
    "lattice.embeddings_yielded": ("count", "lower", *_SEARCH),
    "lattice.search_s_max": ("s", "lower", *_SEARCH),
    "lattice.cache_hits": ("count", "higher", *_CACHE),
    "lattice.cache_misses": ("count", "lower", *_CACHE),
    "lattice.cache_hit_ratio": ("ratio", "higher", *_CACHE),
    "lattice.surjective_tests": ("count", "lower", *_FULL_ENUMERATION),
    "lattice.surjective_ratio": ("ratio", "higher", *_FULL_ENUMERATION),
    "intmat.invariant_factors_s": ("s", "lower", *_FULL_ENUMERATION),
    "intmat.definiteness_checks": ("count", "lower", *_PER_LINK),
    "intmat.definiteness_s": ("s", "lower", *_PER_LINK),
    "plumbing.self_s": ("s", "lower", *_PER_LINK),
    "laufer.calls": ("count", "lower", *_PER_LINK),
    "laufer.steps": ("count", "lower", *_PER_LINK),
    "laufer.self_s": ("s", "lower", *_PER_LINK),
    "classifier.verify.self_s": ("s", "lower", *_PER_LINK),
    "montesinos.calls": ("count", "lower", *_BULK),
    "montesinos.self_s": ("s", "lower", *_BULK),
    "classifier.classify.self_s": ("s", "lower", *_BULK),
    "cli.self_s": ("s", "lower", *_BULK),
    "cli.output_bytes": ("bytes", "lower", *_BULK),
    "trace.overhead_ratio": ("ratio", "lower", "none (traced / untraced time)", "all"),
}

_ITEM = "bench.item"
_RANK_SEARCH = "lattice.enumerate_embeddings"


def _traced_targets() -> list[tuple[object, str, str]]:
    """(module, attribute, span name) for every wrap point."""
    modules = {layer: importlib.import_module(f"qamont.{layer}") for layer in LAYERS}
    targets = []
    for module in modules.values():
        for attr, obj in vars(module).items():
            home = getattr(obj, "__module__", "") or ""
            if not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
                continue
            if home.startswith("qamont.") and home != module.__name__ \
                    and home.split(".")[1] in modules:
                targets.append((module, attr, f"{home.split('.')[1]}.{attr}"))
    for module_name, attr in INTRA_MODULE + ENTRY_POINTS:
        module = importlib.import_module(module_name)
        targets.append((module, attr, f"{module_name.split('.')[1]}.{attr}"))
    return targets


class Tracer:
    """In-memory span recorder; ``install`` wraps the program's functions."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.item = array("i")
        self._stack = [-1]
        self._current_item = -1
        self.counters: Counter = Counter()
        self.rank_s = 0.0
        self.empty_rank_s = 0.0

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1])
        self.item.append(self._current_item)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _close(self, idx: int) -> int:
        t = perf_counter_ns()
        self.end[idx] = t
        self._stack.pop()
        return t - self.start[idx]

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def begin_item(self, index: int) -> int:
        self._current_item = index
        return self._open(self._id(_ITEM))

    def end_item(self, idx: int) -> None:
        self._close(idx)
        self._current_item = -1

    def add_output_bytes(self, count: int) -> None:
        self.counters["cli.output_bytes"] += count

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = self._id(name)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(nid, fn)
        after = self._after_hook(name, fn)

        @wraps(fn)
        def traced(*args, **kwargs):
            before = fn.cache_info().hits if after is _cache_hook else None
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(self, fn, result, before)
            return result
        return traced

    def _wrap_generator(self, nid: int, fn):
        rank_search = self.names[nid] == _RANK_SEARCH

        @wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            spent = yielded = 0
            try:
                while True:
                    idx = self._open(nid)
                    try:
                        value = next(inner)
                    except StopIteration:
                        return
                    finally:
                        spent += self._close(idx)
                    yielded += 1
                    yield value
            finally:
                # Also reached when the consumer stops early (a witness was
                # found) and closes this generator at the yield.
                if rank_search:
                    self._end_rank_search(spent / 1e9, yielded)
        return traced

    def _end_rank_search(self, seconds: float, yielded: int) -> None:
        c = self.counters
        c["lattice.ranks_searched"] += 1
        c["lattice.embeddings_yielded"] += yielded
        self.rank_s += seconds
        if not yielded:
            c["lattice.empty_ranks"] += 1
            self.empty_rank_s += seconds

    @staticmethod
    def _after_hook(name: str, fn):
        if hasattr(fn, "cache_info"):
            return _cache_hook
        return {"laufer.laufer_run": _laufer_hook,
                "lattice.transpose_surjective": _surjective_hook}.get(name)

    def install(self) -> None:
        for module, attr, name in _traced_targets():
            setattr(module, attr, self._wrap(name, getattr(module, attr)))

    # -- results ----------------------------------------------------------

    def self_times(self) -> tuple[list[float], list[float]]:
        """Per span: (duration, self time) in seconds."""
        count = len(self.start)
        duration = [(self.end[i] - self.start[i]) / 1e9 for i in range(count)]
        child = [0.0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child[p] += duration[i]
        return duration, [d - c for d, c in zip(duration, child)]

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except ``trace.overhead_ratio``, which needs
        an untraced pass to compare with."""
        duration, self_s = self.self_times()
        names = self.names
        layer_of = [n.split(".")[0] for n in names]
        by_name: defaultdict[str, float] = defaultdict(float)
        by_layer: defaultdict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        lattice_per_item: defaultdict[int, float] = defaultdict(float)
        item_total = 0.0
        for i, nid in enumerate(self.name_id):
            name = names[nid]
            layer = layer_of[nid]
            by_name[name] += self_s[i]
            by_layer[layer] += self_s[i]
            p = self.parent[i]
            outer = p < 0 or layer_of[self.name_id[p]] != layer
            if outer:
                calls[layer] += 1
            if name == _ITEM:
                item_total += duration[i]
            elif layer == "lattice" and outer:
                lattice_per_item[self.item[i]] += duration[i]
        c = self.counters
        hits, misses = c["lattice.cache_hits"], c["lattice.cache_misses"]
        tests = c["lattice.surjective_tests"]
        lattice_s = sum(lattice_per_item.values())
        out = {
            "lattice.share": lattice_s / item_total if item_total else 0.0,
            "lattice.enumerate_s": by_name[_RANK_SEARCH],
            "lattice.ranks_searched": c["lattice.ranks_searched"],
            "lattice.empty_ranks": c["lattice.empty_ranks"],
            "lattice.empty_rank_share": self.empty_rank_s / self.rank_s if self.rank_s else 0.0,
            "lattice.embeddings_yielded": c["lattice.embeddings_yielded"],
            "lattice.search_s_max": max(lattice_per_item.values(), default=0.0),
            "lattice.cache_hits": hits,
            "lattice.cache_misses": misses,
            "lattice.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "lattice.surjective_tests": tests,
            "lattice.surjective_ratio": c["lattice.surjective_true"] / tests if tests else 0.0,
            "intmat.invariant_factors_s": by_name["intmat.invariant_factors"],
            "intmat.definiteness_checks": sum(
                1 for nid in self.name_id if names[nid] == "intmat.is_negative_definite_matrix"),
            "intmat.definiteness_s": by_name["intmat.is_negative_definite_matrix"],
            "plumbing.self_s": by_layer["plumbing"],
            "laufer.calls": calls["laufer"],
            "laufer.steps": c["laufer.steps"],
            "laufer.self_s": by_layer["laufer"],
            "classifier.verify.self_s": by_name["classifier.verify"],
            "montesinos.calls": calls["montesinos"],
            "montesinos.self_s": by_layer["montesinos"],
            "classifier.classify.self_s": by_name["classifier.classify"],
            "cli.self_s": by_layer["cli"],
            "cli.output_bytes": c["cli.output_bytes"],
        }
        if set(out) | {"trace.overhead_ratio"} != set(LAYER_METRICS):
            raise RuntimeError("per-layer metrics and LAYER_METRICS disagree")
        return out

    def write_spans(self, path) -> None:
        """Tab-separated spans, one per line, times in ns from the first span."""
        t0 = self.start[0] if len(self.start) else 0
        with open(path, "w") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\titem\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(f"{names[self.name_id[i]]}\t{self.start[i] - t0}\t"
                         f"{self.end[i] - t0}\t{self.parent[i]}\t{self.item[i]}\n")


def _cache_hook(tracer: Tracer, fn, result, hits_before) -> None:
    hit = fn.cache_info().hits > hits_before
    tracer.counters["lattice.cache_hits" if hit else "lattice.cache_misses"] += 1


def _laufer_hook(tracer: Tracer, fn, result, _before) -> None:
    tracer.counters["laufer.steps"] += result.steps


def _surjective_hook(tracer: Tracer, fn, result, _before) -> None:
    tracer.counters["lattice.surjective_tests"] += 1
    tracer.counters["lattice.surjective_true"] += bool(result)
