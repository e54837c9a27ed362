"""Span tracing of the ``repro`` layers, installed from outside the program.

:func:`install` swaps wrappers onto the public attributes that callers
resolve at call time (class methods, and module globals such as
``repro.core.laf.post_process``) and restores the originals on exit.
Nothing under ``src/`` changes: with tracing off the program runs
exactly as shipped.

Each span records its name, start, end, parent and thread. Spans stay
in memory on the :class:`Tracer`; :meth:`Tracer.to_json` writes them out
when the run ends. A span's self time is its duration minus the part of
it that its children cover.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from dataclasses import asdict, dataclass

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory spans and counters; one parent stack per thread."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, name: str) -> tuple[int, str, float, int | None]:
        """Start a span and make it the parent of what this thread runs next."""
        stack = self._stack()
        handle = (next(self._ids), name, self.clock(), stack[-1] if stack else None)
        stack.append(handle[0])
        return handle

    def close(self, handle: tuple[int, str, float, int | None]) -> None:
        end = self.clock()
        span_id, name, start, parent = handle
        stack = self._stack()
        if stack and stack[-1] == span_id:
            stack.pop()
        self._append(Span(span_id, name, start, end, parent, threading.get_ident()))

    @contextlib.contextmanager
    def span(self, name: str):
        handle = self.open(name)
        try:
            yield
        finally:
            self.close(handle)

    def record(self, name: str, start: float, end: float, parent: int | None) -> None:
        """A finished span that never became a parent (a generator's block)."""
        self._append(
            Span(next(self._ids), name, start, end, parent, threading.get_ident())
        )

    def _append(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)

    def add(self, key: str, n: float = 1) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + n

    # ------------------------------------------------------------------
    # analysis

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the union of its children's intervals."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out = {}
        for s in self.spans:
            covered = 0.0
            cursor = s.start
            for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
                lo, hi = max(c.start, cursor), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out[s.id] = s.duration - covered
        return out

    def _ancestor_names(self, span: Span, by_id: dict[int, Span]) -> set[str]:
        names = set()
        parent = span.parent
        while parent is not None and parent in by_id:
            names.add(by_id[parent].name)
            parent = by_id[parent].parent
        return names

    def select(self, name: str, within: str | None = None) -> list[Span]:
        """Spans called ``name``, optionally only those below a ``within`` span."""
        spans = [s for s in self.spans if s.name == name]
        if within is None:
            return spans
        by_id = {s.id: s for s in self.spans}
        return [s for s in spans if within in self._ancestor_names(s, by_id)]

    def total(self, name: str, within: str | None = None) -> float:
        return float(sum(s.duration for s in self.select(name, within)))

    def self_total(self, name: str) -> float:
        self_times = self.self_times()
        return float(sum(self_times[s.id] for s in self.select(name)))

    def to_json(self) -> str:
        return json.dumps(
            {"spans": [asdict(s) for s in self.spans], "counts": self.counts}
        )


# ----------------------------------------------------------------------
# wrappers


def _timed(tracer: Tracer, name: str, count=None):
    """Wrap a callable in a span; ``count(tracer, args, result)`` adds counters."""

    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(tracer, args, result)
            return result

        return wrapper

    return make


def _kernel_blocks(tracer: Tracer, outer: str | None = None):
    """Wrap ``iter_distance_blocks``: one ``distances.kernel`` span per block.

    The function is a generator, so a block's kernel time is the time
    spent producing it, taken around each ``next``. With ``outer`` the
    whole iteration (consumer included) is also one span of that name.
    """

    def make(fn):
        @functools.wraps(fn)
        def wrapper(Q, X, *args, **kwargs):
            handle = tracer.open(outer) if outer else None
            parent = tracer.current()
            d = int(np.shape(X)[1])
            n_x = int(np.shape(X)[0])
            blocks = fn(Q, X, *args, **kwargs)
            try:
                while True:
                    t0 = tracer.clock()
                    try:
                        item = next(blocks)
                    except StopIteration:
                        return
                    tracer.record("distances.kernel", t0, tracer.clock(), parent)
                    rows = item[1] - item[0]
                    tracer.add("distances.blocks")
                    tracer.add("distances.gflop", 2.0 * rows * n_x * d / 1e9)
                    tracer.add(
                        "distances.bytes_moved", 8.0 * (rows * d + n_x * d + rows * n_x)
                    )
                    yield item
            finally:
                if handle is not None:
                    tracer.close(handle)

        return wrapper

    return make


def _fetch_misses(tracer: Tracer):
    """Span only the engine fetches that compute (cache hits stay unwrapped)."""

    def make(fn):
        @functools.wraps(fn)
        def wrapper(self, point):
            if self.is_cached(point):
                return fn(self, point)
            with tracer.span("engine.fetch"):
                return fn(self, point)

        return wrapper

    return make


def _frame_bytes(header: dict, arrays: dict | None) -> int:
    payload = sum(int(np.asarray(a).nbytes) for a in (arrays or {}).values())
    return 8 + len(json.dumps(header, separators=(",", ":"))) + payload


def _count_sent(tracer, args, result) -> None:
    tracer.add("remote.frames")
    tracer.add("remote.bytes_sent", _frame_bytes(args[1], args[2] if len(args) > 2 else None))


def _count_received(tracer, args, result) -> None:
    if result is not None:
        tracer.add("remote.frames")
        tracer.add("remote.bytes_received", _frame_bytes(*result))


def _count_rows(key: str):
    def count(tracer, args, result) -> None:
        tracer.add(key, len(np.atleast_2d(args[1])))

    return count


def _count_neighbors(tracer, args, result) -> None:
    tracer.add("index.neighbors_returned", sum(len(row) for row in result))


def _targets(tracer: Tracer) -> list[tuple[object, str, object]]:
    """(owner, attribute, wrapper factory) for every traced boundary."""
    import repro.core.laf
    import repro.core.laf_dbscanpp
    import repro.index.brute_force
    import repro.index.sharded
    import repro.remote.pool
    import repro.serving.server
    from repro.clustering.dbscan import DBSCAN
    from repro.core.laf_dbscan import LAFDBSCAN
    from repro.core.laf_dbscanpp import LAFDBSCANPlusPlus
    from repro.core.partial_neighbors import PartialNeighborMap
    from repro.estimators.base import CardinalityEstimator
    from repro.estimators.rmi import RMICardinalityEstimator
    from repro.index.brute_force import BruteForceIndex
    from repro.index.engine import NeighborhoodCache
    from repro.index.sharded import ShardedIndex
    from repro.persistence import ClusterModel
    from repro.remote.pool import RemoteExecutor

    t = tracer
    return [
        (RMICardinalityEstimator, "fit", _timed(t, "estimators.train")),
        (
            CardinalityEstimator,
            "estimate_many",
            _timed(t, "estimators.estimate", _count_rows("estimators.rows")),
        ),
        (DBSCAN, "fit", _timed(t, "clustering.dbscan_fit")),
        (LAFDBSCAN, "fit", _timed(t, "core.laf_fit")),
        (LAFDBSCANPlusPlus, "fit", _timed(t, "core.lafpp_fit")),
        (PartialNeighborMap, "update", _timed(t, "core.partial_neighbors_update")),
        (repro.core.laf, "post_process", _timed(t, "core.post_process")),
        (
            repro.core.laf_dbscanpp,
            "connected_components_within",
            _timed(t, "core.lafpp_components"),
        ),
        (
            repro.core.laf_dbscanpp,
            "iter_distance_blocks",
            _kernel_blocks(t, outer="core.lafpp_assign"),
        ),
        (NeighborhoodCache, "fetch", _fetch_misses(t)),
        (
            BruteForceIndex,
            "batch_range_query",
            _timed(t, "index.range_query", _count_neighbors),
        ),
        (repro.index.brute_force, "iter_distance_blocks", _kernel_blocks(t)),
        (
            ClusterModel,
            "predict",
            _timed(t, "persistence.predict", _count_rows("persistence.predict_rows")),
        ),
        (ClusterModel, "save", _timed(t, "persistence.save")),
        (repro.serving.server, "load_model", _timed(t, "persistence.load")),
        (ShardedIndex, "batch_range_query", _timed(t, "sharded.range_query")),
        (RemoteExecutor, "run", _timed(t, "sharded.fanout_wait")),
        (repro.index.sharded, "csr_to_rows", _timed(t, "sharded.merge")),
        (repro.index.sharded, "concat_shard_rows", _timed(t, "sharded.merge")),
        (repro.remote.pool, "send_msg", _timed(t, "remote.send", _count_sent)),
        (repro.remote.pool, "recv_msg", _timed(t, "remote.recv", _count_received)),
    ]


@contextlib.contextmanager
def install(tracer: Tracer):
    """Trace every layer boundary into ``tracer`` until the block exits."""
    undo = []
    try:
        for owner, attr, make in _targets(tracer):
            had_own = attr in vars(owner)
            original = getattr(owner, attr)
            setattr(owner, attr, make(original))
            undo.append((owner, attr, original, had_own))
        yield tracer
    finally:
        for owner, attr, original, had_own in reversed(undo):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
