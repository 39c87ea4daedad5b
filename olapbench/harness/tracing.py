"""The traced pass: timing wrappers around each layer's entry points.

Only the traced pass installs these wrappers, and it removes them when
it ends; the engine's own code is untouched.  Each wrapper is patched
where the caller looks the name up (``repro.engine.query.aggregate``,
not ``repro.algebra.aggregate``), so the call sites inside the engine
see it.  A span is ``[layer, start, end, parent, op]``; spans stay in
memory until the pass ends and are then folded into per-layer self
time: a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import time
from typing import Dict, List, Optional, Tuple

#: the benchmark's own per-operation span; its self time is the time no
#: layer span covers (client-side query building and loop overhead)
CLIENT = "client"

#: layer span -> per-layer metric name (self time, ms per operation)
LAYER_METRICS = {
    "analyze.check": "analyze.check_ms",
    "engine.plan_fingerprint.fingerprint":
        "engine.plan_fingerprint.fingerprint_ms",
    "engine.result_cache.get": "engine.result_cache.get_ms",
    "engine.result_cache.put": "engine.result_cache.put_ms",
    "engine.result_cache.version_vector":
        "engine.result_cache.version_vector_ms",
    "engine.query.self": "engine.query.self_ms",
    "engine.backends.dispatch": "engine.backends.dispatch_ms",
    "algebra.selection.select": "algebra.selection.select_ms",
    "algebra.aggregate.self": "algebra.aggregate.self_ms",
    "engine.rollup_index.char_map": "engine.rollup_index.char_map_ms",
    "engine.rollup_index.summarizability":
        "engine.rollup_index.summarizability_ms",
    "engine.rollup_index.accessor": "engine.rollup_index.accessor_ms",
    "engine.columnar.grouping": "engine.columnar.grouping_ms",
    "engine.columnar.evaluate": "engine.columnar.evaluate_ms",
    "engine.sharded.payload": "engine.sharded.payload_ms",
    "engine.sharded.pool_wait": "engine.sharded.pool_wait_ms",
    "engine.sharded.merge": "engine.sharded.merge_ms",
    "relational.backend.load": "relational.backend.load_ms",
    "relational.backend.compile": "relational.backend.compile_ms",
    "relational.backend.run_rows": "relational.backend.run_rows_ms",
    "core.mo.write": "core.mo.write_ms",
}


def _targets():
    """``(layer, owner, attribute)`` for every wrapped entry point."""
    import repro.engine.query as query_module
    import repro.engine.sharded as sharded_module
    from repro.core.mo import MultidimensionalObject
    from repro.engine.backends import MemoryBackend
    from repro.engine.columnar import ColumnarGrouping, ColumnarStore
    from repro.engine.query import Query
    from repro.engine.result_cache import ResultCache
    from repro.engine.rollup_index import RollupIndex
    from repro.relational.backend import SqlBackend
    return [
        ("analyze.check", Query, "check"),
        ("engine.plan_fingerprint.fingerprint", query_module, "fingerprint"),
        ("engine.result_cache.get", ResultCache, "get"),
        ("engine.result_cache.put", ResultCache, "put"),
        ("engine.result_cache.version_vector", query_module,
         "version_vector"),
        ("engine.query.self", Query, "execute"),
        # the memory backend is an adapter that calls straight back into
        # Query._run (store/index/α ladder, re-expansion, row sort), so
        # its self time is query-layer work
        ("engine.query.self", MemoryBackend, "run"),
        ("engine.backends.dispatch", query_module, "dispatch"),
        ("algebra.selection.select", query_module, "select"),
        ("algebra.aggregate.self", query_module, "aggregate"),
        ("engine.rollup_index.char_map", RollupIndex,
         "characterization_map"),
        ("engine.rollup_index.summarizability", RollupIndex,
         "summarizability"),
        ("engine.rollup_index.accessor", MultidimensionalObject,
         "rollup_index"),
        ("engine.columnar.grouping", ColumnarStore, "grouping"),
        ("engine.columnar.evaluate", ColumnarGrouping, "evaluate"),
        ("engine.sharded.payload", sharded_module, "build_payloads"),
        ("engine.sharded.merge", sharded_module.ShardedBackend, "run"),
        ("relational.backend.load", SqlBackend, "ensure_loaded"),
        ("relational.backend.compile", SqlBackend, "compile"),
        ("relational.backend.run_rows", SqlBackend, "run_rows"),
        ("core.mo.write", MultidimensionalObject, "relate"),
        ("core.mo.write", MultidimensionalObject, "add_fact"),
    ]


class _PoolProxy:
    """The sharded worker pool with a timed, eagerly drained ``map``:
    the span covers pickling, IPC and worker compute until the last
    result is back."""

    def __init__(self, pool, tracer: "Tracer") -> None:
        self._pool = pool
        self._tracer = tracer

    def map(self, fn, *iterables):
        with self._tracer.span("engine.sharded.pool_wait"):
            return iter(list(self._pool.map(fn, *iterables)))


class Tracer:
    """Installs the wrappers on ``__enter__`` and restores the original
    attributes on ``__exit__``.  Single-threaded: the benchmark has one
    client thread, and pool workers run in other processes."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._current: Optional[int] = None
        self._op = -1
        self._saved: List[Tuple[object, str, object]] = []

    # -- span recording ------------------------------------------------------

    def _open(self, layer: str) -> Tuple[list, Optional[int]]:
        record = [layer, 0.0, 0.0, self._current, self._op]
        parent = self._current
        self._current = len(self.spans)
        self.spans.append(record)
        record[1] = time.perf_counter()
        return record, parent

    def span(self, layer: str) -> "_Span":
        return _Span(self, layer)

    def op(self, index: int) -> "_Span":
        """The root span of one client operation."""
        self._op = index
        return _Span(self, CLIENT)

    def _wrap(self, layer: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with _Span(tracer, layer):
                return fn(*args, **kwargs)

        return traced

    # -- install / restore ---------------------------------------------------

    def __enter__(self) -> "Tracer":
        import repro.engine.sharded as sharded_module
        for layer, owner, attribute in _targets():
            original = owner.__dict__[attribute] \
                if isinstance(owner, type) else getattr(owner, attribute)
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(layer, original))
        original_pool = sharded_module._pool
        self._saved.append((sharded_module, "_pool", original_pool))
        sharded_module._pool = lambda n: _PoolProxy(original_pool(n), self)
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, attribute, original in reversed(self._saved):
            setattr(owner, attribute, original)
        self._saved.clear()

    # -- folding -------------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Seconds of self time per layer over every recorded span."""
        totals: Dict[str, float] = {}
        spans = self.spans
        for layer, start, end, parent, _op in spans:
            duration = end - start
            totals[layer] = totals.get(layer, 0.0) + duration
            if parent is not None:
                parent_layer = spans[parent][0]
                totals[parent_layer] = totals.get(parent_layer, 0.0) \
                    - duration
        return totals

    def client_seconds(self) -> float:
        """Total duration of the client operation spans."""
        return sum(end - start for layer, start, end, _p, _o in self.spans
                   if layer == CLIENT)


class _Span:
    __slots__ = ("_tracer", "_layer", "_record", "_parent")

    def __init__(self, tracer: Tracer, layer: str) -> None:
        self._tracer = tracer
        self._layer = layer

    def __enter__(self) -> "_Span":
        self._record, self._parent = self._tracer._open(self._layer)
        return self

    def __exit__(self, *exc_info) -> None:
        self._record[2] = time.perf_counter()
        self._tracer._current = self._parent
