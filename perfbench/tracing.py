"""Layer tracing from outside the engine: wrap public functions, record spans.

The engine has no instrumentation of its own, so the traced run replaces
every binding of each traced function object in the ``supercluster.*``
namespaces with a timing wrapper (``cli`` and ``verify`` use ``from ...
import``, so patching the defining module alone would miss their calls).
Nothing under ``src/`` is edited; ``Tracer.uninstall`` restores every
binding.

Every call is counted at its boundary: calls, total time, self time (its
duration minus the time its traced children cover), and exceptions that
cross from one module into another.  Individual spans (name, start, end,
parent span, case id) are kept for the first ``SPAN_CAP`` calls of each
name; later calls still count in the per-name totals, which is what the
per-layer metrics read, but the span file stays small even when a leaf such
as ``cyclotomic.mul`` runs millions of times.

Calls made inside forked pool workers run the wrapper in the child and are
lost with it; the parent sees ``util.parallel_map`` as its wait for them.

Span names are ``<module>.<function>``, the names a stats spine in the
engine can adopt unchanged.  Cyclotomic operators are ``cyclotomic.add``,
``.sub``, ``.mul``, ``.conjugate``, ``.eq`` and ``cyclotomic.new`` (the
constructor); table rendering is ``characters.to_csv`` / ``.to_json``; the
verify checks are ``verify.<report key>``.
"""

from __future__ import annotations

import functools
import inspect
import json
import multiprocessing.pool
import sys
import time

SPAN_CAP = 2000

# Layer modules, innermost first.  Every public module-level function
# defined in one of them is traced.
LAYERS = (
    "gf", "core", "linalg", "cyclotomic", "clusters", "characters",
    "util", "tensor", "discrete", "oracle", "verify", "cli",
)

# Methods traced under an explicit span name: (module, class, attribute, name).
METHODS = (
    ("cyclotomic", "Cyclotomic", "__init__", "cyclotomic.new"),
    ("cyclotomic", "Cyclotomic", "__add__", "cyclotomic.add"),
    ("cyclotomic", "Cyclotomic", "__sub__", "cyclotomic.sub"),
    ("cyclotomic", "Cyclotomic", "__mul__", "cyclotomic.mul"),
    ("cyclotomic", "Cyclotomic", "conjugate", "cyclotomic.conjugate"),
    ("cyclotomic", "Cyclotomic", "__eq__", "cyclotomic.eq"),
    ("characters", "CharacterTable", "to_csv", "characters.to_csv"),
    ("characters", "CharacterTable", "to_json", "characters.to_json"),
)

# verify's check functions are private; each is traced under its report key.
VERIFY_CHECKS = {
    "_check_counting": "Thm5.1",
    "_check_adjoint_classification": "Thm4.1",
    "_check_coadjoint_classification": "Thm4.2",
    "_check_sizes_and_degrees": "Thm6.2",
    "_check_character_sum": "Thm3.5",
    "_check_closed_formula": "A.1",
    "_check_axioms": "A.2",
    "_check_primary_factorization": "Thm7.1",
    "_check_tensor_ring": "Thm8.6",
    "_check_delta_value": "Thm9.1",
    "_check_delta_decomposition": "Thm9.3",
}

# Names whose first argument is remembered, to count calls a memo could save.
REPEAT_TRACKED = ("clusters.cluster_elements", "clusters.coadjoint_template")


class _Stat:
    __slots__ = ("module", "calls", "total_s", "self_s", "errors", "repeats", "recorded", "seen")

    def __init__(self, module: str, track_repeats: bool):
        self.module = module
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.errors = 0
        self.repeats = 0
        self.recorded = 0
        self.seen = set() if track_repeats else None


def _count_cells(counters, table):
    counters["characters.cells"] += len(table.rows) * len(table.cols)


def _count_terms(counters, result):
    counters["tensor.result_terms"] += len(result.terms)


def _count_items(counters, result):
    counters["util.parallel_map.items"] += len(result)


# Counters taken from a call's result at the same boundary as its span.
RESULT_COUNTERS = {
    "characters.build_table": _count_cells,
    "tensor.tensor_rewrite": _count_terms,
    "util.parallel_map": _count_items,
}


class Tracer:
    """Holds the spans and per-name totals of one traced pass."""

    def __init__(self):
        self.case = "setup"
        self.spans: list[tuple] = []
        self.stats: dict[str, _Stat] = {}
        self.counters = {
            "characters.cells": 0,
            "tensor.result_terms": 0,
            "util.parallel_map.items": 0,
            "util.parallel_map.pooled_items": 0,
        }
        self._stack: list[list] = []
        self._restore: list[tuple] = []

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, name: str, module: str):
        stat = self.stats.setdefault(name, _Stat(module, name in REPEAT_TRACKED))
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        after = RESULT_COUNTERS.get(name)
        counters = self.counters
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            parent_span = parent[1] if parent is not None else -1
            if stat.recorded < SPAN_CAP:
                stat.recorded += 1
                span_id = len(spans)
                spans.append(None)
            else:
                span_id = -1
            # frame: [time covered by children, nearest recorded span, module]
            frame = [0.0, span_id if span_id >= 0 else parent_span, module]
            if stat.seen is not None and args:
                key = hash(args[0])
                if key in stat.seen:
                    stat.repeats += 1
                else:
                    stat.seen.add(key)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if parent is None or parent[2] != module:
                    stat.errors += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stat.calls += 1
                stat.total_s += duration
                stat.self_s += duration - frame[0]
                if parent is not None:
                    parent[0] += duration
                if span_id >= 0:
                    spans[span_id] = (span_id, parent_span, tracer.case, name, start, end)
            if after is not None:
                after(counters, result)
            return result

        # Pickle finds functions by module and qualified name; a Field pickled
        # for a pool worker refers to field_make, which is now this wrapper.
        return functools.update_wrapper(traced, fn)

    def _rebind(self, original, wrapper) -> None:
        """Point every binding of ``original`` in supercluster.* at ``wrapper``."""
        for modname, mod in list(sys.modules.items()):
            if modname != "supercluster" and not modname.startswith("supercluster."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        """Trace every layer; the supercluster package must be imported."""
        mods = {name: sys.modules[f"supercluster.{name}"] for name in LAYERS}
        for name, mod in mods.items():
            for attr, value in list(vars(mod).items()):
                if (
                    inspect.isfunction(value)
                    and value.__module__ == mod.__name__
                    and not hasattr(value, "__wrapped__")
                    and not attr.startswith("_")
                ):
                    self._rebind(value, self._wrap(value, f"{name}.{attr}", name))
        verify = mods["verify"]
        for attr, key in VERIFY_CHECKS.items():
            original = getattr(verify, attr)
            self._rebind(original, self._wrap(original, f"verify.{key}", "verify"))
        for module, cls_name, attr, name in METHODS:
            cls = getattr(mods[module], cls_name)
            original = cls.__dict__[attr]
            wrapper = self._wrap(original, name, module)
            for other, value in list(vars(cls).items()):  # __radd__ is __add__, ...
                if value is original:
                    self._restore.append((cls, other, original))
                    setattr(cls, other, wrapper)
        pool_map = multiprocessing.pool.Pool.map
        counters = self.counters

        def counted_map(pool, func, iterable, chunksize=None):
            items = list(iterable)
            counters["util.parallel_map.pooled_items"] += len(items)
            return pool_map(pool, func, items, chunksize)

        self._restore.append((multiprocessing.pool.Pool, "map", pool_map))
        multiprocessing.pool.Pool.map = counted_map

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- output --------------------------------------------------------------

    def summary(self) -> dict:
        """Per-name and per-layer totals and the boundary counters, as plain data."""
        layers: dict[str, dict] = {}
        for s in self.stats.values():
            layer = layers.setdefault(s.module, {"calls": 0, "self_s": 0.0, "errors": 0})
            layer["calls"] += s.calls
            layer["self_s"] += s.self_s
            layer["errors"] += s.errors
        return {
            "layers": layers,
            "names": {
                name: {
                    "module": s.module,
                    "calls": s.calls,
                    "self_s": s.self_s,
                    "total_s": s.total_s,
                    "errors": s.errors,
                    "repeats": s.repeats,
                    "spans_recorded": s.recorded,
                }
                for name, s in sorted(self.stats.items())
            },
            "counters": dict(self.counters),
        }

    def write(self, spans_path: str, summary_path: str, cases: dict) -> None:
        """Spans as JSON lines (one case table first), the summary as JSON."""
        with open(spans_path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"cases": cases, "span_cap_per_name": SPAN_CAP}) + "\n")
            for span in self.spans:
                if span is None:  # a call still open when the pass ended
                    continue
                span_id, parent, case, name, start, end = span
                fh.write(json.dumps({
                    "id": span_id, "parent": parent, "case": case,
                    "name": name, "start": start, "end": end,
                }) + "\n")
        with open(summary_path, "w", encoding="utf-8") as fh:
            json.dump(self.summary(), fh, indent=1, sort_keys=True)
            fh.write("\n")
