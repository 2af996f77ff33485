"""Spans around the calls into each layer of epcodes, recorded from outside.

The tracer rebinds public functions and properties of the modules ``fp``,
``code``, ``equiv``, ``classify``, ``tables`` and ``cli`` to wrappers that
record one span per call: name, start, end and the enclosing span.  A
function is rebound in its home module and wherever another module bound it
at import (``classify`` binds ``iter_subspaces_with_pivots``,
``canonical_form_free`` and ``canonical_form``; ``cli`` binds
``verify_table``, ``equivalent_ep`` and the ``CLASSIFY_KINDS`` table), so
calls through every name are seen.  Spans stay in memory and are written out
once, when the traced process ends.  The program itself is not modified.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

# span name -> (module, attribute) of the callable it wraps
FUNCTIONS = {
    "fp.enumerate": ("fp", "iter_subspaces_with_pivots"),
    "equiv.canon_free": ("equiv", "canonical_form_free"),
    "equiv.canon_joint": ("equiv", "canonical_form"),
    "equiv.equivalent": ("equiv", "equivalent_ep"),
    "classify.lcd": ("classify", "classify_lcd"),
    "classify.mds_amds_lcd": ("classify", "classify_mds_amds_lcd"),
    "classify.left_self_dual": ("classify", "classify_left_self_dual"),
    "classify.self_dual": ("classify", "classify_self_dual"),
    "classify.verify_table": ("classify", "verify_table"),
    "tables.load": ("tables", "load_table"),
    "cli.main": ("cli", "main"),
}
CLASSIFY_SPANS = ("classify.lcd", "classify.mds_amds_lcd", "classify.left_self_dual", "classify.self_dual")

# the F_p predicates that filter enumerated subspaces
PREDICATES = ("is_lcd", "is_self_dual", "is_self_orthogonal")

# EpCode invariants read when class records are built and validated; the
# shape accessors p and n are left out, being plain field reads
INVARIANTS = (
    "m1", "m2", "cardinality_exp", "is_free", "is_lcd", "is_left_self_dual",
    "is_right_self_dual", "is_self_dual", "is_qsd", "min_distance", "mds_status",
)

# the layers, named after the modules of epcodes; a span's layer is the part
# of its name before the first dot
LAYERS = ("fp", "code", "equiv", "classify", "tables", "cli")


class Tracer:
    """In-memory span store; one instance per traced process."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self.counts: dict[str, int] = {}

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, by: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    def call(self, name: str, fn, after=None):
        """Wrap ``fn`` in a span; ``after(result)`` runs outside it."""
        nid = self.intern(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(result)
            return result

        return wrapper

    def generator(self, name: str, fn):
        """Wrap a generator function: one span per resumption, so the
        consumer's work between items is not charged to the generator."""
        nid = self.intern(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = self.open(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.close(idx)
                self.count(name + ".count")
                yield item

        return wrapper

    # -- summaries ---------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, total, self time and longest call."""
        n = len(self.name)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, dict] = {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "max_s": 0.0} for name in self.names
        }
        roots = 0.0
        for i in range(n):
            dur = self.end[i] - self.start[i]
            agg = out[self.names[self.name[i]]]
            agg["calls"] += 1
            agg["total_s"] += dur
            agg["self_s"] += dur - child[i]
            if dur > agg["max_s"]:
                agg["max_s"] = dur
            if self.parent[i] < 0:
                roots += dur
        return {"spans": out, "counts": dict(self.counts), "roots_s": roots, "n": n}

    def write(self, path: str) -> None:
        """Tab-separated spans: run id, index, name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("run_id\tspan\tname\tstart\tend\tparent\n")
            names, rid = self.names, self.run_id
            for i in range(len(self.name)):
                fh.write(
                    f"{rid}\t{i}\t{names[self.name[i]]}\t{self.start[i]:.9f}\t"
                    f"{self.end[i]:.9f}\t{self.parent[i]}\n"
                )


def _rebind(modules: dict, original, wrapper) -> None:
    for mod in modules.values():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Rebind the traced callables of an imported epcodes package."""
    modules = {name: importlib.import_module(f"epcodes.{name}") for name in LAYERS}
    modules["epcodes"] = importlib.import_module("epcodes")
    classify = modules["classify"]
    kinds = classify.CLASSIFY_KINDS
    for span, (mod, attr) in FUNCTIONS.items():
        original = getattr(modules[mod], attr)
        if span == "fp.enumerate":
            wrapper = tracer.generator(span, original)
        elif span in CLASSIFY_SPANS:
            wrapper = _classify_wrapper(tracer, span, original, classify)
        else:
            wrapper = tracer.call(span, original)
        _rebind(modules, original, wrapper)
        for kind, fn in kinds.items():
            if fn is original:
                kinds[kind] = wrapper

    fp_code = modules["fp"].FpCode
    for attr in PREDICATES:
        _wrap_property(tracer, fp_code, attr, "fp.predicate", _hit_counter(tracer))
    ep_code = modules["code"].EpCode
    for attr in INVARIANTS:
        _wrap_property(tracer, ep_code, attr, "code.invariants")
    ep_code.generator_matrix = tracer.call("code.invariants", ep_code.generator_matrix)


def _hit_counter(tracer: Tracer):
    def after(result):
        if result:
            tracer.count("fp.predicate.hits")

    return after


def _wrap_property(tracer: Tracer, cls, attr: str, name: str, after=None) -> None:
    prop = cls.__dict__[attr]
    setattr(cls, attr, property(tracer.call(name, prop.fget, after)))


def _classify_wrapper(tracer: Tracer, span: str, fn, classify):
    """A classify_* call is a cache hit when it returns a Classification that
    was already cached; a miss of a pipeline that builds classes adds the
    number of classes it found (mds-amds-lcd only filters classify_lcd)."""
    nid = tracer.intern(span)
    builds = span != "classify.mds_amds_lcd"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        cached = {id(v) for v in classify._cache.values()}
        idx = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        tracer.count("classify.calls")
        if id(result) in cached:
            tracer.count("classify.cache_hits")
        elif builds:
            tracer.count("classify.classes", result.seen_total)
        return result

    return wrapper
