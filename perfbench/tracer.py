"""Span tracing of chromarel's public functions, installed from outside.

The tracer replaces every public module-level function of the chromarel
modules with a wrapper that records one span per call: name, start, end and
the id of the enclosing span. Names rebound by ``from .x import y`` are
replaced too, because the swap walks every module namespace and replaces
each binding of a wrapped function object. Spans are kept in flat arrays in
memory and reduced to a per-name summary once, when the process is done.

Generators are not timed by default: a call that returns an iterator is
wrapped so that its yields are counted, keyed by the span that created it.
The few generators whose iteration is the work being measured (corpus
enumeration) get one span per resume instead.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from collections import Counter

MODULES = (
    "graphs", "io", "coloring", "polynomial", "planarity",
    "relations", "families", "checks", "cli",
)

# Generators whose resumes are timed as spans, in addition to counting yields.
TIMED_GENERATORS = frozenset({"families.enumerate_graphs", "checks.iter_corpus"})


def _k_colorable_variant(args, kwargs, result) -> str:
    return "sat" if result is not None else "unsat"


def _run_check_variant(args, kwargs, result) -> str:
    return str(args[0] if args else kwargs.get("check_id"))


# Some spans are split by outcome or argument: the variant is appended to the name.
VARIANTS = {
    "coloring.k_colorable": _k_colorable_variant,
    "checks.run_check": _run_check_variant,
}


def _graph_key(args, kwargs):
    g = args[0] if args else kwargs.get("g")
    return hash((getattr(g, "n", None), getattr(g, "rows", id(g))))


# Calls whose distinct first arguments are counted (the memo's repeat rate).
DISTINCT = {"coloring.chromatic_number": _graph_key}

# Results that are values, never streams of yields to count.
_NOT_STREAMS = (type(None), int, float, str, bytes, tuple, list, dict, set, frozenset)


class Tracer:
    """In-memory span store for one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.yields: Counter = Counter()  # (generator name, creator span name) -> count
        self.distinct: dict[str, set] = {}

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int, clock=time.perf_counter) -> int:
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(clock())
        return sid

    def _close(self, sid: int, clock=time.perf_counter) -> None:
        self.end[sid] = clock()
        self._stack.pop()

    def wrap(self, qualname: str, fn):
        """A traced stand-in for fn, recorded under qualname."""
        nid = self._name_id(qualname)
        variant = VARIANTS.get(qualname)
        distinct_key = DISTINCT.get(qualname)
        if distinct_key is not None:
            seen = self.distinct.setdefault(qualname, set())
        timed = qualname in TIMED_GENERATORS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if distinct_key is not None:
                seen.add(distinct_key(args, kwargs))
            sid = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if variant is not None:
                self.name[sid] = self._name_id(f"{qualname}.{variant(args, kwargs, result)}")
            return self._follow(qualname, sid, result, timed)

        return traced

    def _follow(self, qualname: str, sid: int, result, timed: bool):
        if isinstance(result, _NOT_STREAMS) or not hasattr(type(result), "__iter__"):
            return result
        it = iter(result)
        key = (qualname, self.names[self.name[self.parent[sid]]] if self.parent[sid] >= 0 else "")
        if it is not result:
            # a re-iterable container (ColoringStream): count it without consuming
            self.yields[key] += sum(1 for _ in it)
            return result
        return self._timed_iter(it, key) if timed else self._counted_iter(it, key)

    def _counted_iter(self, it, key):
        yields = self.yields
        for item in it:
            yields[key] += 1
            yield item

    def _timed_iter(self, it, key):
        nid = self._name_id(key[0])
        while True:
            sid = self._open(nid)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self._close(sid)
            self.yields[key] += 1
            yield item

    def install(self) -> None:
        """Swap every public chromarel function, in every namespace binding it."""
        package = importlib.import_module("chromarel")
        modules = [importlib.import_module(f"chromarel.{m}") for m in MODULES]
        swaps = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    swaps[obj] = self.wrap(f"{short}.{attr}", obj)
        for mod in [package, *modules]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in swaps:
                    setattr(mod, attr, swaps[obj])
        # catalog check bodies are private and held in a table; span them so
        # that run_check's self time is the runner's own overhead
        checks = importlib.import_module("chromarel.checks")
        for cid, entry in list(checks.CHECKS.items()):
            if isinstance(entry, tuple) and entry and callable(entry[0]):
                checks.CHECKS[cid] = (self.wrap(f"checks.check.{cid}", entry[0]), *entry[1:])

    def summary(self) -> dict:
        """Per-name calls, inclusive and self seconds, plus yield and distinct counts."""
        names, parent, start, end = self.name, self.parent, self.start, self.end
        count = len(start)
        covered = [0.0] * count
        for sid in range(count):
            p = parent[sid]
            if p >= 0:
                covered[p] += end[sid] - start[sid]
        spans: dict[str, list] = {}
        for sid in range(count):
            row = spans.get(self.names[names[sid]])
            if row is None:
                row = spans[self.names[names[sid]]] = [0, 0.0, 0.0]
            dur = end[sid] - start[sid]
            row[0] += 1
            row[1] += dur
            row[2] += dur - covered[sid]
        return {
            "spans": {k: {"calls": v[0], "incl_s": v[1], "self_s": v[2]} for k, v in spans.items()},
            "yields": [[gen, creator, n] for (gen, creator), n in sorted(self.yields.items())],
            "distinct": {k: len(v) for k, v in self.distinct.items()},
            "span_count": count,
        }
