"""Sharded execution backend for the batched range-query engine.

:class:`ShardedIndex` partitions the dataset into contiguous row shards,
fits one inner index per shard (any registered backend: brute force,
cover tree, k-means tree, grid), and answers the batched query API by
fanning query blocks across the shards through a pluggable executor:

* ``serial``  — one shard after another in the calling process (the
  reference executor every other one is differentially tested against);
* ``thread``  — a thread pool; NumPy releases the GIL inside BLAS, so
  shard GEMMs genuinely overlap on multi-core machines;
* ``process`` — a pool of single-process workers that attach the
  dataset through :mod:`multiprocessing.shared_memory` (one row-major
  float64 segment written at build time), so the data matrix is never
  pickled; each live shard is pinned to exactly one worker (stable
  shard→worker affinity), which builds that shard's inner index lazily
  from the shared segment on first use and reuses it for every later
  query block. A fit therefore pays exactly ``n_live_shards`` inner
  builds — never ``n_workers × n_shards`` — and when a worker dies its
  shards are rebalanced across the survivors (who rebuild just those
  shards) with the failed calls retried.
* ``remote``  — a fleet of :mod:`repro.remote` worker processes reached
  over a length-prefixed socket protocol, each holding its pinned
  shards' inner indexes *warm across fits*: a second fit on the same
  pool attaches to the cached indexes and pays zero inner builds.
  Same affinity + rebalance protocol as ``process``, with per-call
  timeouts and bounded retry on top.

Executors are named by :class:`ExecutorSpec` — a registered value type
(``name`` + JSON-safe ``options``) that replaces the former magic
strings. Plain strings still work everywhere as a back-compat
constructor path (``executor="thread"`` coerces to
``ExecutorSpec("thread")``); unknown names raise listing the registered
executors, and :func:`register_executor` lets external packages plug in
new fabrics behind the same seam.

Build lifecycle: an inner index is a build-once, query-many artifact.
The serial/thread executors build all live shards eagerly in
:meth:`ShardedIndex.build`; the process executor builds them lazily in
the owning worker. Either way :meth:`ShardedIndex.stats` reports the
instrumented ``shard_inner_builds`` counter so hosts can prove the
build-once property per fit. :func:`resolve_engine_index` is the
shard-before-build seam: handed an *unbuilt* backend it constructs the
per-shard indexes directly, so no whole-dataset index is ever built just
to be thrown away.

Per-shard results arrive as CSR triples in *shard-local* row numbering;
the merge kernels below (:func:`merge_shard_rows`, :func:`merge_knn_rows`)
re-index them into global row ids and reassemble per-query rows that are
sorted, deduplicated and bit-identical to the single-index answer. Shards
are contiguous and disjoint, so re-indexing is one offset add per shard
and deduplication can never actually drop anything — the kernels still
enforce both properties so they hold for arbitrary (even overlapping)
splits, which is what the property-based tests exercise.

The module also hosts :class:`ShardingConfig`, the declarative sharding
spec that :class:`~repro.engine_config.ExecutionConfig` embeds and
threads explicitly into :class:`~repro.index.engine.NeighborhoodCache` /
:func:`resolve_engine_index` — the *only* way to shard a fit. The PR 5
thread-local deprecation shims (:func:`set_sharding` /
:func:`sharded_queries`) completed their cycle and now raise
:class:`~repro.exceptions.RemovedAPIError` naming the replacement;
there is no ambient sharding state of any scope anymore.

Exactness: range queries and counts are exact for exact inner backends
(a point's eps-neighborhood is the disjoint union of its per-shard
neighborhoods). KNN is a per-shard candidate merge: the returned
*distances* are exact for exact inner backends, and the returned ids
follow the deterministic (distance, global index) order — under exactly
tied distances (duplicated points) the id sequence may therefore differ
from a single brute-force index, whose tie order is argpartition-
arbitrary. Approximate inner backends (k-means tree below
``checks_ratio=1.0``) prune per shard and may surface different
candidates than one big tree — same contract as any partitioned ANN
index.
"""

from __future__ import annotations

import multiprocessing
import os
import warnings
import weakref
from collections.abc import Callable, Mapping, Sequence
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from multiprocessing import shared_memory

import numpy as np

from repro.exceptions import InvalidParameterError, NotFittedError, RemovedAPIError
from repro.index.base import NeighborIndex
from repro.index.brute_force import BruteForceIndex
from repro.index.cover_tree import CoverTree
from repro.index.grid import GridIndex
from repro.index.kmeans_tree import KMeansTree

__all__ = [
    "EXECUTOR_NAMES",
    "INNER_BACKENDS",
    "ExecutorSpec",
    "ShardedIndex",
    "ShardingConfig",
    "backend_spec_of",
    "concat_shard_rows",
    "csr_to_rows",
    "make_inner_backend",
    "maybe_shard",
    "merge_knn_rows",
    "merge_shard_rows",
    "register_executor",
    "registered_executors",
    "resolve_engine_index",
    "rows_to_csr",
    "set_sharding",
    "shard_offsets",
    "sharded_queries",
    "sharding_config",
]

#: Default number of query rows fanned out per executor round.
DEFAULT_QUERY_BLOCK = 2048

#: Upper bound on one worker's stats round-trip (a wedged worker must
#: not hang close(), which snapshots build counters before teardown).
_STATS_TIMEOUT_S = 10.0

#: The always-registered single-box executors (back-compat constant;
#: the authoritative list is :func:`registered_executors`, which also
#: names ``remote`` and anything added via :func:`register_executor`).
EXECUTOR_NAMES = ("serial", "thread", "process")

#: Registered inner backends, constructible by name in worker processes.
INNER_BACKENDS = {
    "brute_force": BruteForceIndex,
    "cover_tree": CoverTree,
    "grid": GridIndex,
    "kmeans_tree": KMeansTree,
}


def make_inner_backend(name: str, kwargs: dict | None = None):
    """Construct a registered inner backend from its picklable spec."""
    cls = INNER_BACKENDS.get(name)
    if cls is None:
        raise InvalidParameterError(
            f"unknown inner backend {name!r}; "
            f"available: {', '.join(sorted(INNER_BACKENDS))}"
        )
    return cls(**(kwargs or {}))


def backend_spec_of(index) -> tuple[str, dict] | None:
    """The ``(name, kwargs)`` spec reconstructing ``index``'s configuration.

    Returns None for index types (or states, e.g. a k-means tree seeded
    with a live Generator) that cannot be rebuilt from a picklable spec —
    callers leave such indexes unsharded rather than guessing.
    """
    if isinstance(index, BruteForceIndex):
        return "brute_force", {
            "block_size": index.block_size,
            "metric": index.metric.name,
        }
    if isinstance(index, CoverTree):
        return "cover_tree", {"base": index.base}
    if isinstance(index, KMeansTree):
        seed = getattr(index, "seed", None)
        if not (seed is None or isinstance(seed, int)):
            return None
        return "kmeans_tree", {
            "branching": index.branching,
            "checks_ratio": index.checks_ratio,
            "leaf_size": index.leaf_size,
            "seed": seed,
        }
    if isinstance(index, GridIndex):
        return "grid", {"eps": index.eps, "rho": index.rho}
    return None


# ----------------------------------------------------------------------
# Executor specs and the executor registry
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _ExecutorEntry:
    """One registered executor fabric.

    ``make_local`` (serial/thread style) receives the per-shard indexes
    the parent built eagerly; ``make`` (process/remote style) receives
    the raw dataset + shard bounds and owns building inside its workers.
    Exactly one of the two is set.
    """

    name: str
    normalize: Callable[[dict], dict]
    make_local: Callable | None = None
    make: Callable | None = None

    @property
    def local(self) -> bool:
        return self.make_local is not None


_EXECUTOR_REGISTRY: dict[str, _ExecutorEntry] = {}


def register_executor(
    name: str,
    *,
    normalize_options: Callable[[dict], dict] | None = None,
    make_local: Callable | None = None,
    make: Callable | None = None,
) -> None:
    """Register an executor fabric under ``name``.

    Exactly one of ``make_local(indexes, n_workers)`` (the parent builds
    the per-shard indexes eagerly and hands them over) or
    ``make(X, bounds, inner_name, inner_kwargs, n_workers, spec)`` (the
    executor owns building inside its workers) must be given.
    ``normalize_options`` validates and canonicalizes the
    :class:`ExecutorSpec` options dict (default: reject any option).
    """
    if (make_local is None) == (make is None):
        raise InvalidParameterError(
            "register_executor needs exactly one of make_local= or make="
        )
    _EXECUTOR_REGISTRY[name] = _ExecutorEntry(
        name=name,
        normalize=normalize_options or (lambda opts: _no_options(name, opts)),
        make_local=make_local,
        make=make,
    )


def registered_executors() -> tuple[str, ...]:
    """Names of every registered executor, sorted."""
    return tuple(sorted(_EXECUTOR_REGISTRY))


def _no_options(name: str, options: dict) -> dict:
    if options:
        raise InvalidParameterError(
            f"the {name!r} executor accepts no options; got {sorted(options)}"
        )
    return {}


def _json_safe_option(value):
    return list(value) if isinstance(value, tuple) else value


@dataclass(frozen=True)
class ExecutorSpec:
    """A registered executor by name, plus its JSON-safe options.

    The first-class replacement for the former magic strings: anywhere
    that accepted ``executor="thread"`` now accepts an ``ExecutorSpec``
    (plain strings keep working as a back-compat coercion path, and wire
    dicts round-trip through :meth:`to_dict` / :meth:`from_dict`).
    Unknown names raise listing the registered executors; options are
    validated and canonicalized per executor at construction, so a spec
    that exists is a spec that can run.
    """

    name: str
    options: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.name, str):
            raise InvalidParameterError(
                f"executor name must be a string; got {type(self.name).__name__}"
            )
        entry = _EXECUTOR_REGISTRY.get(self.name)
        if entry is None:
            raise InvalidParameterError(
                f"unknown executor {self.name!r}; registered executors: "
                f"{', '.join(registered_executors())}"
            )
        if not isinstance(self.options, Mapping):
            raise InvalidParameterError(
                f"executor options must be a mapping; "
                f"got {type(self.options).__name__}"
            )
        object.__setattr__(self, "options", entry.normalize(dict(self.options)))

    # options is a dict, which the generated __hash__ would choke on;
    # hash the canonical sorted item view instead (values are hashable
    # after normalization: scalars and tuples only).
    def __hash__(self) -> int:
        return hash((self.name, tuple(sorted(self.options.items()))))

    @classmethod
    def coerce(cls, value) -> "ExecutorSpec":
        """Accept a spec, a bare name string, or a wire dict."""
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls(value)
        if isinstance(value, Mapping):
            return cls.from_dict(value)
        raise InvalidParameterError(
            "executor must be an ExecutorSpec, a registered executor name, "
            f"or a wire dict; got {type(value).__name__}"
        )

    def to_dict(self) -> dict:
        """JSON-safe wire form; inverse of :meth:`from_dict`."""
        return {
            "name": self.name,
            "options": {k: _json_safe_option(v) for k, v in self.options.items()},
        }

    def wire_value(self) -> "str | dict":
        """The compact wire spelling :meth:`coerce` round-trips.

        Option-free specs serialize as their bare name — byte-identical
        to the pre-spec string wire format — optioned specs as the
        strict :meth:`to_dict` dict.
        """
        return self.name if not self.options else self.to_dict()

    @classmethod
    def from_dict(cls, data: Mapping) -> "ExecutorSpec":
        """Strict reconstruction from :meth:`to_dict` output."""
        if not isinstance(data, Mapping):
            raise InvalidParameterError(
                f"ExecutorSpec.from_dict needs a mapping; got {type(data).__name__}"
            )
        unknown = set(data) - {"name", "options"}
        if unknown:
            raise InvalidParameterError(
                f"unknown ExecutorSpec keys: {sorted(unknown)}"
            )
        if "name" not in data:
            raise InvalidParameterError("ExecutorSpec dict requires a 'name' key")
        return cls(data["name"], data.get("options") or {})


# ----------------------------------------------------------------------
# Partitioning and CSR merge kernels
# ----------------------------------------------------------------------


def shard_offsets(n_points: int, n_shards: int) -> np.ndarray:
    """Balanced contiguous row partition: offsets of length ``n_shards + 1``.

    Shard ``s`` owns rows ``[offsets[s], offsets[s + 1])``; the first
    ``n_points % n_shards`` shards get one extra row. With
    ``n_shards > n_points`` the trailing shards are empty — legal, they
    simply contribute nothing.
    """
    if n_shards < 1:
        raise InvalidParameterError(f"n_shards must be >= 1; got {n_shards}")
    if n_points < 0:
        raise InvalidParameterError(f"n_points must be >= 0; got {n_points}")
    base, extra = divmod(n_points, n_shards)
    sizes = np.full(n_shards, base, dtype=np.int64)
    sizes[:extra] += 1
    offsets = np.zeros(n_shards + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    return offsets


def rows_to_csr(rows: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Pack ragged per-query rows into ``(indptr, flat)`` CSR arrays.

    The compact wire format shard workers return: two flat arrays pickle
    an order of magnitude cheaper than a list of small ndarrays.
    """
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    for i, row in enumerate(rows):
        indptr[i + 1] = indptr[i] + len(row)
    if indptr[-1] == 0:
        return indptr, np.empty(0, dtype=np.int64)
    flat = np.concatenate([np.asarray(row, dtype=np.int64) for row in rows])
    return indptr, flat


def csr_to_rows(indptr: np.ndarray, flat: np.ndarray) -> list[np.ndarray]:
    """Inverse of :func:`rows_to_csr`: slice flat storage back into rows."""
    return [flat[indptr[i] : indptr[i + 1]] for i in range(len(indptr) - 1)]


def merge_shard_rows(
    per_shard_rows: Sequence[Sequence[np.ndarray]],
    shard_starts: Sequence[int],
    n_queries: int | None = None,
) -> list[np.ndarray]:
    """Merge shard-local hit rows into global, sorted, deduplicated rows.

    ``per_shard_rows[s][q]`` holds query ``q``'s hits within shard ``s``
    in shard-local numbering; ``shard_starts[s]`` is the shard's first
    global row. Row ``q`` of the result is the sorted union of
    ``per_shard_rows[s][q] + shard_starts[s]`` over all shards. For the
    disjoint contiguous shards :class:`ShardedIndex` produces, the union
    is a plain concatenation — but the kernel deduplicates regardless,
    so it is correct for arbitrary overlapping splits too.
    """
    if n_queries is None:
        n_queries = len(per_shard_rows[0]) if per_shard_rows else 0
    starts = [np.int64(s) for s in shard_starts]
    merged: list[np.ndarray] = []
    for q in range(n_queries):
        parts = [
            np.asarray(rows[q], dtype=np.int64) + start
            for rows, start in zip(per_shard_rows, starts)
            if len(rows[q])
        ]
        if not parts:
            merged.append(np.empty(0, dtype=np.int64))
        elif len(parts) == 1:
            merged.append(np.unique(parts[0]))
        else:
            merged.append(np.unique(np.concatenate(parts)))
    return merged


def concat_shard_rows(
    per_shard_rows: Sequence[Sequence[np.ndarray]],
    shard_starts: Sequence[int],
    n_queries: int,
) -> list[np.ndarray]:
    """Fast-path merge for disjoint ascending shards with sorted rows.

    When shard ``s`` owns the contiguous global range starting at
    ``shard_starts[s]``, the starts ascend, and every per-shard row is
    sorted (true for all registered inner backends), the global row is a
    plain offset-add concatenation — already sorted and duplicate-free,
    no per-row sort needed. :func:`merge_shard_rows` is the general
    kernel the property tests prove for arbitrary (even overlapping)
    splits; this one skips its ``np.unique`` on the hot path.
    """
    starts = [np.int64(s) for s in shard_starts]
    merged: list[np.ndarray] = []
    for q in range(n_queries):
        parts = [
            np.asarray(rows[q], dtype=np.int64) + start
            for rows, start in zip(per_shard_rows, starts)
            if len(rows[q])
        ]
        if not parts:
            merged.append(np.empty(0, dtype=np.int64))
        elif len(parts) == 1:
            merged.append(parts[0])
        else:
            merged.append(np.concatenate(parts))
    return merged


def merge_knn_rows(
    per_shard_idx: Sequence[Sequence[np.ndarray]],
    per_shard_dist: Sequence[Sequence[np.ndarray]],
    shard_starts: Sequence[int],
    k: int,
    n_queries: int | None = None,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Merge per-shard KNN candidates into global top-``k`` rows.

    Every shard contributes its local top-``min(k, shard_size)``; the
    global answer is the ``k`` best candidates overall, ordered by
    ascending distance with ties broken by ascending global index (a
    deterministic order regardless of how candidates were split across
    shards).
    """
    if n_queries is None:
        n_queries = len(per_shard_idx[0]) if per_shard_idx else 0
    starts = [np.int64(s) for s in shard_starts]
    idx_rows: list[np.ndarray] = []
    dist_rows: list[np.ndarray] = []
    for q in range(n_queries):
        idx_parts = [
            np.asarray(rows[q], dtype=np.int64) + start
            for rows, start in zip(per_shard_idx, starts)
            if len(rows[q])
        ]
        if not idx_parts:
            idx_rows.append(np.empty(0, dtype=np.int64))
            dist_rows.append(np.empty(0))
            continue
        idx = np.concatenate(idx_parts)
        dist = np.concatenate(
            [
                np.asarray(rows[q], dtype=np.float64)
                for rows in per_shard_dist
                if len(rows[q])
            ]
        )
        order = np.lexsort((idx, dist))[:k]
        idx_rows.append(idx[order])
        dist_rows.append(dist[order])
    return idx_rows, dist_rows


# ----------------------------------------------------------------------
# Shard query operations (module-level so process pools can pickle them)
# ----------------------------------------------------------------------


def _op_range(index, Q: np.ndarray, eps: float):
    csr = getattr(index, "batch_range_csr", None)
    if csr is not None:
        return csr(Q, eps)
    return rows_to_csr(index.batch_range_query(Q, eps))


def _op_count(index, Q: np.ndarray, eps: float):
    counter = getattr(index, "batch_range_count", None)
    if counter is not None:
        return np.asarray(counter(Q, eps), dtype=np.int64)
    rows = index.batch_range_query(Q, eps)
    return np.array([len(row) for row in rows], dtype=np.int64)


def _op_knn(index, Q: np.ndarray, k: int):
    query = getattr(index, "batch_knn_query", None)
    if query is None:
        raise InvalidParameterError(
            f"inner backend {type(index).__name__} does not support KNN queries"
        )
    idx_rows, dist_rows = query(Q, k)
    indptr, flat_idx = rows_to_csr(idx_rows)
    flat_dist = (
        np.concatenate([np.asarray(r, dtype=np.float64) for r in dist_rows])
        if indptr[-1]
        else np.empty(0)
    )
    return indptr, flat_idx, flat_dist


_SHARD_OPS = {"range": _op_range, "count": _op_count, "knn": _op_knn}


# ----------------------------------------------------------------------
# Executors
# ----------------------------------------------------------------------


class _SerialExecutor:
    """Runs shard calls one after another in the calling process."""

    def __init__(self, indexes: dict[int, object]) -> None:
        self._indexes = indexes

    def run(self, op: str, calls: list[tuple[int, tuple]]) -> list:
        fn = _SHARD_OPS[op]
        return [fn(self._indexes[shard_id], *args) for shard_id, args in calls]

    def close(self) -> None:
        pass


class _ThreadExecutor:
    """Runs shard calls on a thread pool (BLAS releases the GIL)."""

    def __init__(self, indexes: dict[int, object], n_workers: int) -> None:
        self._indexes = indexes
        self._pool = ThreadPoolExecutor(max_workers=n_workers)

    def run(self, op: str, calls: list[tuple[int, tuple]]) -> list:
        fn = _SHARD_OPS[op]
        futures = [
            self._pool.submit(fn, self._indexes[shard_id], *args)
            for shard_id, args in calls
        ]
        return [future.result() for future in futures]

    def close(self) -> None:
        self._pool.shutdown()


# Worker-process state, populated once per worker by _worker_init.
_WORKER_STATE: dict = {}  # reprolint: disable=RPL003 -- per-process worker
# state, written exactly once by the pool initializer in each worker


def _pin_blas_single_thread():
    """Limit BLAS pools in this process to one thread; returns the limiter.

    One BLAS thread per worker: the parallelism budget is spent on
    processes, and oversubscription (workers x BLAS threads) is the
    classic way a process pool ends up slower than serial. Returns
    ``None`` when threadpoolctl is unavailable — the worker still runs,
    just at risk of oversubscription.
    """
    try:
        import threadpoolctl
    except ImportError:
        return None
    try:
        return threadpoolctl.threadpool_limits(limits=1)
    except Exception as exc:
        warnings.warn(
            f"could not pin BLAS threads to 1: {exc}",
            RuntimeWarning,
            stacklevel=2,
        )
        return None


def _worker_init(
    shm_name: str,
    shape: tuple[int, int],
    dtype_str: str,
    bounds: tuple[tuple[int, int], ...],
    inner_name: str,
    inner_kwargs: dict,
) -> None:
    """Attach the shared dataset segment and stash the shard specs."""
    limiter = _pin_blas_single_thread()
    # The attachment lives as long as the worker process: _WORKER_STATE
    # holds it and the OS reclaims the mapping when the pool shuts down.
    shm = shared_memory.SharedMemory(name=shm_name)  # reprolint: disable=RPL001
    X = np.ndarray(shape, dtype=np.dtype(dtype_str), buffer=shm.buf)
    _WORKER_STATE.clear()
    _WORKER_STATE.update(
        shm=shm,
        X=X,
        bounds=bounds,
        inner=(inner_name, dict(inner_kwargs)),
        indexes={},
        limiter=limiter,
        n_builds=0,
    )


def _worker_shard_index(shard_id: int):
    """The worker's inner index for one shard, built lazily from shm."""
    index = _WORKER_STATE["indexes"].get(shard_id)
    if index is None:
        lo, hi = _WORKER_STATE["bounds"][shard_id]
        name, kwargs = _WORKER_STATE["inner"]
        index = make_inner_backend(name, kwargs).build(_WORKER_STATE["X"][lo:hi])
        _WORKER_STATE["indexes"][shard_id] = index
        _WORKER_STATE["n_builds"] += 1
    return index


def _worker_call(task: tuple[str, int, tuple]):
    op, shard_id, args = task
    return _SHARD_OPS[op](_worker_shard_index(shard_id), *args)


def _worker_stats() -> int:
    """This worker's inner-build count (queried by ``stats()``)."""
    return int(_WORKER_STATE.get("n_builds", 0))


def _release_process_resources(slots, shm) -> None:
    """Teardown without waiting on in-flight shard calls.

    ``shutdown(wait=False)`` signals each single-worker pool and cancels
    *queued* work, but a call already running would keep its worker
    alive — and a wedged worker (the classic BLAS-after-fork deadlock)
    would keep it alive forever — so any still-running worker is then
    terminated outright, matching the prompt-release semantics the
    pre-affinity ``pool.terminate()`` had. The segment is unlinked last:
    existing attachments in a straggler keep working (POSIX unlink only
    removes the name), and the memory is freed once every process lets
    go. ``slots`` is the executor's live slot list — mutated in place by
    rebalancing, so this sees whatever slots exist at release time.
    """
    workers = []
    for slot in slots:
        if slot is not None:
            workers.extend((getattr(slot, "_processes", None) or {}).values())
            slot.shutdown(wait=False, cancel_futures=True)
    for proc in workers:
        if proc.is_alive():
            proc.terminate()
    for proc in workers:
        proc.join(timeout=5.0)
    shm.close()
    try:
        shm.unlink()
    except FileNotFoundError:
        pass


def _start_method() -> str:
    """Prefer fork where available: no interpreter reboot per worker."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else methods[0]


class _ProcessExecutor:
    """Affinity-routed shard execution over shared memory.

    The dataset is written once into a ``SharedMemory`` segment. Each
    worker slot is a single-process pool; every live shard is pinned to
    one slot by a stable assignment (``shard_id % n_slots``), so the
    worker that owns a shard builds its inner index exactly once (lazily,
    from the shared segment) and reuses it for every later query block.
    Only query blocks travel to the workers and only compact CSR result
    arrays travel back — the data matrix itself is never pickled.

    Fault tolerance: a dead worker surfaces as ``BrokenProcessPool`` on
    its futures. Its shards are rebalanced round-robin across the
    surviving slots (which lazily rebuild just those shards) and the
    failed calls are retried; if every slot is gone a fresh one is
    spawned. ``n_rebalances`` counts these events for ``stats()``.
    """

    def __init__(
        self,
        X: np.ndarray,
        bounds: tuple[tuple[int, int], ...],
        inner_name: str,
        inner_kwargs: dict,
        n_workers: int,
    ) -> None:
        self._shm = shared_memory.SharedMemory(create=True, size=X.nbytes)
        try:
            np.ndarray(X.shape, dtype=X.dtype, buffer=self._shm.buf)[:] = X
            self._ctx = multiprocessing.get_context(_start_method())
            self._initargs = (
                self._shm.name,
                X.shape,
                X.dtype.str,
                bounds,
                inner_name,
                inner_kwargs,
            )
            n_slots = max(1, min(n_workers, len(bounds)))
            self._slots: list = [self._new_slot() for _ in range(n_slots)]
            # Stable shard→slot affinity: contiguous shards are balanced
            # within one row, so modulo routing is an even split.
            self._assignment = {s: s % n_slots for s in range(len(bounds))}
            # Slots that have accepted at least one task: stats can skip
            # the rest (their pools spawn workers lazily, and a worker
            # that never started has trivially built nothing).
            self._used_slots: set[int] = set()
            self.n_rebalances = 0
        except BaseException:
            # Construction failed after the segment was created: release
            # it here, nobody else holds a handle yet.
            self._shm.close()
            self._shm.unlink()
            raise
        # Guaranteed teardown even when close() is never called: finalize
        # must not reference self, or it would keep the executor alive.
        self._finalizer = weakref.finalize(
            self, _release_process_resources, self._slots, self._shm
        )

    def _new_slot(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=1,
            mp_context=self._ctx,
            initializer=_worker_init,
            initargs=self._initargs,
        )

    def _live_slot_ids(self) -> list[int]:
        return [i for i, slot in enumerate(self._slots) if slot is not None]

    def _rebalance(self, dead_slot_ids: set[int]) -> None:
        """Retire dead slots and move their shards to the survivors."""
        for slot_id in dead_slot_ids:
            slot = self._slots[slot_id]
            if slot is not None:
                slot.shutdown(wait=False, cancel_futures=True)
                self._slots[slot_id] = None
        survivors = self._live_slot_ids()
        if not survivors:
            # Every worker died: spawn one fresh slot so the fit can
            # still finish (its worker rebuilds shards lazily).
            self._slots.append(self._new_slot())
            survivors = self._live_slot_ids()
        orphaned = sorted(
            shard_id
            for shard_id, slot_id in self._assignment.items()
            if slot_id not in survivors
        )
        for rank, shard_id in enumerate(orphaned):
            self._assignment[shard_id] = survivors[rank % len(survivors)]
        self.n_rebalances += 1

    def run(self, op: str, calls: list[tuple[int, tuple]]) -> list:
        results: list = [None] * len(calls)
        pending = list(enumerate(calls))
        # Each retry round retires at least one slot; one extra round
        # covers the all-slots-dead respawn. Beyond that the machine is
        # actively killing workers and retrying would loop forever.
        for _ in range(len(self._slots) + 2):
            submitted: list[tuple[int, int, object]] = []
            broken: set[int] = set()
            failed: list[int] = []
            for pos, (shard_id, args) in pending:
                slot_id = self._assignment[shard_id]
                try:
                    future = self._slots[slot_id].submit(
                        _worker_call, (op, shard_id, args)
                    )
                except BrokenProcessPool:
                    broken.add(slot_id)
                    failed.append(pos)
                    continue
                self._used_slots.add(slot_id)
                submitted.append((pos, slot_id, future))
            for pos, slot_id, future in submitted:
                try:
                    results[pos] = future.result()
                except BrokenProcessPool:
                    broken.add(slot_id)
                    failed.append(pos)
            if not broken:
                return results
            self._rebalance(broken)
            pending = [(pos, calls[pos]) for pos in sorted(failed)]
        raise BrokenProcessPool(  # reprolint: disable=RPL004 -- callers
            # catch the stdlib executor's failure type; converting it
            # to a ReproError would break that contract
            f"shard workers keep dying; gave up after {self.n_rebalances} "
            f"rebalances with {len(pending)} calls outstanding"
        )

    def collect_stats(self) -> dict[str, int]:
        """Aggregate build accounting across the live workers.

        Only slots that ever accepted a task are queried: the others
        have lazily-unspawned workers, and starting a whole process just
        to hear "0 builds" would make close() pay worker start-up for an
        index that never served a query. Builds done by a worker that
        has since died are gone with it — the counter reflects the
        indexes the surviving pool actually built, which is what the
        build-once contract is about.
        """
        builds = 0
        for slot_id in self._live_slot_ids():
            if slot_id not in self._used_slots:
                continue
            try:
                # Bounded wait: a wedged worker must not turn a stats
                # snapshot (close() takes one) into an indefinite hang.
                builds += (
                    self._slots[slot_id]
                    .submit(_worker_stats)
                    .result(timeout=_STATS_TIMEOUT_S)
                )
            except (BrokenProcessPool, FuturesTimeoutError):
                continue
        return {"inner_builds": builds, "n_rebalances": self.n_rebalances}

    def close(self) -> None:
        self._finalizer()


# ----------------------------------------------------------------------
# Built-in executor registrations
# ----------------------------------------------------------------------


def _normalize_remote_options(options: dict) -> dict:
    allowed = {"addresses", "timeout_s", "retries", "connect_timeout_s"}
    unknown = set(options) - allowed
    if unknown:
        raise InvalidParameterError(
            f"unknown 'remote' executor options: {sorted(unknown)}; "
            f"allowed: {sorted(allowed)}"
        )
    addresses = options.get("addresses")
    if isinstance(addresses, str) or not isinstance(addresses, Sequence):
        raise InvalidParameterError(
            "the 'remote' executor requires an 'addresses' option: a "
            "sequence of 'host:port' worker endpoints "
            "(see `repro-cli pool serve`)"
        )
    normalized: list[str] = []
    for address in addresses:
        address = str(address)
        host, sep, port = address.rpartition(":")
        if not sep or not host or not port.isdigit():
            raise InvalidParameterError(
                f"remote worker address must look like 'host:port'; "
                f"got {address!r}"
            )
        normalized.append(address)
    if not normalized:
        raise InvalidParameterError(
            "the 'remote' executor needs at least one worker address"
        )
    out: dict[str, object] = {"addresses": tuple(normalized)}
    for key in ("timeout_s", "connect_timeout_s"):
        if key in options:
            value = float(options[key])
            if not value > 0:
                raise InvalidParameterError(f"{key} must be > 0; got {value}")
            out[key] = value
    if "retries" in options:
        retries = int(options["retries"])
        if retries < 0:
            raise InvalidParameterError(f"retries must be >= 0; got {retries}")
        out["retries"] = retries
    return out


def _make_remote_executor(X, bounds, inner_name, inner_kwargs, n_workers, spec):
    # Imported lazily: the remote package pulls in the socket client and
    # is only needed once a remote spec actually builds.
    from repro.remote.pool import RemoteExecutor

    return RemoteExecutor(
        X=X,
        shards={s: bounds[s] for s in range(len(bounds))},
        inner_name=inner_name,
        inner_kwargs=inner_kwargs,
        options=spec.options,
    )


register_executor(
    "serial", make_local=lambda indexes, n_workers: _SerialExecutor(indexes)
)
register_executor(
    "thread", make_local=lambda indexes, n_workers: _ThreadExecutor(indexes, n_workers)
)
register_executor(
    "process",
    make=lambda X, bounds, inner_name, inner_kwargs, n_workers, spec: _ProcessExecutor(
        X, bounds, inner_name, inner_kwargs, n_workers
    ),
)
register_executor(
    "remote",
    normalize_options=_normalize_remote_options,
    make=_make_remote_executor,
)


# ----------------------------------------------------------------------
# The sharded index
# ----------------------------------------------------------------------


class ShardedIndex(NeighborIndex):
    """Row-sharded composite index behind the batched query API.

    Parameters
    ----------
    inner:
        Name of the registered inner backend fitted per shard
        (``"brute_force"``, ``"cover_tree"``, ``"kmeans_tree"``,
        ``"grid"``), or a zero-argument callable returning an unbuilt
        index (serial/thread executors only — worker processes can only
        rebuild from a picklable name + kwargs spec).
    inner_kwargs:
        Constructor arguments for the named inner backend (e.g. the
        grid's ``eps`` / ``rho``).
    n_shards:
        Number of contiguous row shards (>= 1). Empty shards (when
        ``n_shards > n_points``) are skipped.
    executor:
        An :class:`ExecutorSpec`, a registered executor name
        (``"serial"``, ``"thread"``, ``"process"``, ``"remote"``), or a
        spec wire dict. Stored coerced: ``self.executor`` is always an
        :class:`ExecutorSpec`.
    n_workers:
        Pool width for the thread/process executors; defaults to
        ``min(n_live_shards, cpu_count)``. The remote executor's width
        is its address list.
    query_block:
        Query rows fanned out per executor round; bounds both the
        per-task pickle size and peak memory of the merge.
    """

    def __init__(
        self,
        inner="brute_force",
        inner_kwargs: dict | None = None,
        n_shards: int = 4,
        executor: "ExecutorSpec | str" = "serial",
        n_workers: int | None = None,
        query_block: int = DEFAULT_QUERY_BLOCK,
    ) -> None:
        if n_shards < 1:
            raise InvalidParameterError(f"n_shards must be >= 1; got {n_shards}")
        executor = ExecutorSpec.coerce(executor)
        if n_workers is not None and n_workers < 1:
            raise InvalidParameterError(f"n_workers must be >= 1; got {n_workers}")
        if query_block < 1:
            raise InvalidParameterError(f"query_block must be >= 1; got {query_block}")
        if callable(inner):
            if not _EXECUTOR_REGISTRY[executor.name].local:
                raise InvalidParameterError(
                    f"the {executor.name!r} executor rebuilds inner indexes "
                    "in worker processes and therefore needs a registered "
                    "backend name, not a factory callable"
                )
        elif inner not in INNER_BACKENDS:
            raise InvalidParameterError(
                f"unknown inner backend {inner!r}; "
                f"available: {', '.join(sorted(INNER_BACKENDS))}"
            )
        self.inner = inner
        self.inner_kwargs = dict(inner_kwargs or {})
        self.n_shards = int(n_shards)
        self.executor = executor
        self.n_workers = n_workers
        self.query_block = int(query_block)
        self._points: np.ndarray | None = None
        self._offsets: np.ndarray | None = None
        self._live: list[tuple[int, int, int]] = []  # (shard_id, lo, hi)
        self._executor_obj = None
        self._parent_builds = 0
        self._stats_snapshot: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _make_inner(self):
        if callable(self.inner):
            return self.inner()
        return make_inner_backend(self.inner, self.inner_kwargs)

    def build(self, X: np.ndarray) -> "ShardedIndex":
        X = np.ascontiguousarray(np.asarray(X, dtype=np.float64))
        if X.ndim != 2:
            raise InvalidParameterError(f"X must be 2-d; got shape {X.shape}")
        self.close()
        self._points = X
        self._parent_builds = 0
        self._stats_snapshot = {}
        self._offsets = shard_offsets(X.shape[0], self.n_shards)
        self._live = [
            (s, int(self._offsets[s]), int(self._offsets[s + 1]))
            for s in range(self.n_shards)
            if self._offsets[s + 1] > self._offsets[s]
        ]
        n_workers = self.n_workers or max(
            1, min(len(self._live) or 1, os.cpu_count() or 1)
        )
        entry = _EXECUTOR_REGISTRY[self.executor.name]
        if not self._live:
            # Zero live shards (empty dataset): nothing to execute, and a
            # zero-byte SharedMemory segment is illegal — every executor
            # degenerates to the task-free serial one.
            self._executor_obj = _SerialExecutor({})
        elif not entry.local:
            bounds = tuple((lo, hi) for _, lo, hi in self._live)
            # Re-key shard ids to positions in the live list so worker
            # bounds index directly.
            self._live = [(pos, lo, hi) for pos, (_, lo, hi) in enumerate(self._live)]
            self._executor_obj = entry.make(
                X, bounds, self.inner, self.inner_kwargs, n_workers, self.executor
            )
        else:
            indexes = {
                s: self._make_inner().build(X[lo:hi]) for s, lo, hi in self._live
            }
            self._parent_builds = len(indexes)
            self._executor_obj = entry.make_local(indexes, n_workers)
        return self

    def close(self) -> None:
        """Release executor resources (pool, shared memory). Idempotent.

        The final build accounting is snapshotted first, so
        :meth:`stats` keeps answering after the pools are gone.
        """
        if self._executor_obj is not None:
            self._stats_snapshot = self._collect_stats()
            self._executor_obj.close()
            self._executor_obj = None

    def __enter__(self) -> "ShardedIndex":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def n_live_shards(self) -> int:
        """Number of non-empty shards after :meth:`build`."""
        self._require_built()
        return len(self._live)

    def _collect_stats(self) -> dict[str, int]:
        stats = {
            "shard_live_shards": len(self._live),
            "shard_inner_builds": self._parent_builds,
            "shard_rebalances": 0,
        }
        # Duck-typed: any executor that owns building in its workers
        # (process, remote, registered externals) reports its own
        # counters through collect_stats().
        collect = getattr(self._executor_obj, "collect_stats", None)
        if collect is not None:
            snapshot = collect()
            stats["shard_inner_builds"] = snapshot["inner_builds"]
            stats["shard_rebalances"] = snapshot["n_rebalances"]
        return stats

    def stats(self) -> dict[str, int]:
        """Instrumented build accounting of the current fit.

        ``shard_inner_builds`` counts inner-index constructions since
        :meth:`build`: eager per-shard builds for the serial/thread
        executors, lazy in-worker builds (queried from the live workers)
        for the process executor. The build-once contract is
        ``shard_inner_builds == shard_live_shards`` once every shard has
        served a query — never ``n_workers × n_shards``.
        ``shard_rebalances`` counts worker-death rebalancing events.
        After :meth:`close` the snapshot taken at close time is returned.
        """
        self._require_built()
        if self._executor_obj is not None:
            self._stats_snapshot = self._collect_stats()
        return dict(self._stats_snapshot)

    def _require_executor(self):
        self._require_built()
        if self._executor_obj is None:
            raise NotFittedError(
                "ShardedIndex has been closed; call build() again to reopen"
            )
        return self._executor_obj

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def shard_indexes(self) -> dict[int, object]:
        """The built per-shard inner indexes, keyed by live shard id.

        Only the local (serial/thread) executors hold their indexes in
        this process; the process and remote executors' live in worker
        memory, so they cannot be handed out from the parent.
        (:func:`repro.persistence.save_index` no longer needs them — it
        rebuilds per-shard indexes parent-side when serializing a
        worker-held executor.)
        """
        executor = self._require_executor()
        indexes = getattr(executor, "_indexes", None)
        if indexes is None:
            from repro.exceptions import PersistenceError

            raise PersistenceError(
                f"a {self.executor.name!r}-sharded index keeps its shard "
                "indexes in worker memory; they cannot be handed out from "
                "the parent process"
            )
        return dict(indexes)

    def _attach_loaded(
        self, points, offsets, live, indexes, artifact_path=None
    ) -> "ShardedIndex":
        """Adopt reloaded per-shard state (repro.persistence's seam).

        ``points`` is typically a read-only memory map and is adopted
        as-is — reattaching never copies the matrix. The process
        executor cannot be reconstructed from artifacts (its workers
        rebuild from raw points, defeating the point of persisting the
        built trees), so a saved process-sharded spec reattaches on the
        thread executor instead. A remote spec reattaches through the
        pool: ``artifact_path`` travels to the workers, which
        :func:`~repro.persistence.load_index` their pinned shards from
        the shared filesystem (``indexes`` may then be None — nothing is
        deserialized parent-side).
        """
        self.close()
        self._points = points
        self._parent_builds = 0
        self._stats_snapshot = {}
        self._offsets = np.asarray(offsets, dtype=np.int64)
        self._live = [(int(s), int(lo), int(hi)) for s, lo, hi in live]
        name = self.executor.name
        if name == "remote" and self._live:
            from repro.remote.pool import RemoteExecutor

            self._executor_obj = RemoteExecutor(
                X=np.asarray(points, dtype=np.float64),
                shards={s: (lo, hi) for s, lo, hi in self._live},
                inner_name=self.inner,
                inner_kwargs=self.inner_kwargs,
                options=self.executor.options,
                artifact_path=artifact_path,
            )
            return self
        indexes = dict(indexes)
        if name in ("thread", "process") and self._live:
            n_workers = self.n_workers or max(
                1, min(len(self._live), os.cpu_count() or 1)
            )
            self._executor_obj = _ThreadExecutor(indexes, n_workers)
        else:
            self._executor_obj = _SerialExecutor(indexes)
        return self

    # ------------------------------------------------------------------
    # Batched queries (the native forms; scalars route through them)
    # ------------------------------------------------------------------

    def batch_range_query(self, Q: np.ndarray, eps: float) -> list[np.ndarray]:
        executor = self._require_executor()
        Q = self._as_query_matrix(Q)
        n_queries = Q.shape[0]
        out: list[np.ndarray] = []
        starts = [lo for _, lo, _ in self._live]
        for block_lo in range(0, n_queries, self.query_block):
            Qb = Q[block_lo : block_lo + self.query_block]
            if not self._live:
                out.extend(np.empty(0, dtype=np.int64) for _ in range(Qb.shape[0]))
                continue
            calls = [(shard_id, (Qb, eps)) for shard_id, _, _ in self._live]
            results = executor.run("range", calls)
            per_shard = [csr_to_rows(indptr, flat) for indptr, flat in results]
            # Registered backends return sorted rows over disjoint
            # ascending shards: concatenation is the merged answer. A
            # factory inner makes no such promise and takes the general
            # sort-and-dedup kernel.
            if isinstance(self.inner, str):
                out.extend(concat_shard_rows(per_shard, starts, Qb.shape[0]))
            else:
                out.extend(merge_shard_rows(per_shard, starts, n_queries=Qb.shape[0]))
        return out

    def batch_range_count(self, Q: np.ndarray, eps: float) -> np.ndarray:
        executor = self._require_executor()
        Q = self._as_query_matrix(Q)
        n_queries = Q.shape[0]
        counts = np.zeros(n_queries, dtype=np.int64)
        for block_lo in range(0, n_queries, self.query_block):
            block_hi = min(block_lo + self.query_block, n_queries)
            Qb = Q[block_lo:block_hi]
            if not self._live:
                continue
            calls = [(shard_id, (Qb, eps)) for shard_id, _, _ in self._live]
            for shard_counts in executor.run("count", calls):
                counts[block_lo:block_hi] += shard_counts
        return counts

    def batch_knn_query(
        self, Q: np.ndarray, k: int
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        executor = self._require_executor()
        if k <= 0:
            raise InvalidParameterError(f"k must be positive; got {k}")
        Q = self._as_query_matrix(Q)
        n_queries = Q.shape[0]
        idx_out: list[np.ndarray] = []
        dist_out: list[np.ndarray] = []
        starts = [lo for _, lo, _ in self._live]
        for block_lo in range(0, n_queries, self.query_block):
            Qb = Q[block_lo : block_lo + self.query_block]
            if not self._live:
                idx_out.extend(np.empty(0, dtype=np.int64) for _ in range(Qb.shape[0]))
                dist_out.extend(np.empty(0) for _ in range(Qb.shape[0]))
                continue
            calls = [
                (shard_id, (Qb, min(k, hi - lo))) for shard_id, lo, hi in self._live
            ]
            results = executor.run("knn", calls)
            per_shard_idx = [
                csr_to_rows(indptr, flat_idx) for indptr, flat_idx, _ in results
            ]
            per_shard_dist = [
                csr_to_rows(indptr, flat_dist) for indptr, _, flat_dist in results
            ]
            idx_rows, dist_rows = merge_knn_rows(
                per_shard_idx, per_shard_dist, starts, k, n_queries=Qb.shape[0]
            )
            idx_out.extend(idx_rows)
            dist_out.extend(dist_rows)
        return idx_out, dist_out

    # ------------------------------------------------------------------
    # Scalar queries (single-row batches)
    # ------------------------------------------------------------------

    def range_query(self, q: np.ndarray, eps: float) -> np.ndarray:
        (row,) = self.batch_range_query(np.asarray(q, dtype=np.float64)[None, :], eps)
        return row

    def range_count(self, q: np.ndarray, eps: float) -> int:
        (count,) = self.batch_range_count(np.asarray(q, dtype=np.float64)[None, :], eps)
        return int(count)

    def knn_query(self, q: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        idx_rows, dist_rows = self.batch_knn_query(
            np.asarray(q, dtype=np.float64)[None, :], k
        )
        return idx_rows[0], dist_rows[0]


# ----------------------------------------------------------------------
# Engine-level sharding configuration
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ShardingConfig:
    """How :class:`~repro.index.engine.NeighborhoodCache` shards queries.

    ``executor`` accepts an :class:`ExecutorSpec`, a registered name
    string, or a spec wire dict, and is stored coerced to an
    :class:`ExecutorSpec` — so configs compare, hash, and serialize on
    the canonical form regardless of how they were spelled.
    """

    n_shards: int = 4
    executor: "ExecutorSpec | str" = "serial"
    n_workers: int | None = None
    query_block: int = DEFAULT_QUERY_BLOCK

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise InvalidParameterError(f"n_shards must be >= 1; got {self.n_shards}")
        object.__setattr__(self, "executor", ExecutorSpec.coerce(self.executor))
        if self.n_workers is not None and self.n_workers < 1:
            raise InvalidParameterError(f"n_workers must be >= 1; got {self.n_workers}")
        if self.query_block < 1:
            raise InvalidParameterError(
                f"query_block must be >= 1; got {self.query_block}"
            )

    def make_index(self, inner: str, inner_kwargs: dict) -> "ShardedIndex":
        """An unbuilt :class:`ShardedIndex` configured per this config."""
        return ShardedIndex(
            inner=inner,
            inner_kwargs=inner_kwargs,
            n_shards=self.n_shards,
            executor=self.executor,
            n_workers=self.n_workers,
            query_block=self.query_block,
        )


# The PR 5 thread-local deprecation shims completed their cycle: there
# is no ambient sharding state at all anymore. The entry points survive
# only to raise a typed error naming the ExecutionConfig replacement.


def set_sharding(config=None):
    """Removed: there is no ambient sharding state to install.

    Raises :class:`~repro.exceptions.RemovedAPIError` — pass an
    :class:`~repro.engine_config.ExecutionConfig` with
    ``sharding=ShardingConfig(...)`` to the clusterer (or to
    :func:`repro.cluster`) instead.
    """
    raise RemovedAPIError(
        "set_sharding() was removed after its deprecation cycle; pass "
        "ExecutionConfig(sharding=ShardingConfig(...)) to the clusterer "
        "(or repro.cluster) instead"
    )


def sharding_config() -> None:
    """Always None: the ambient thread-local sharding scope is gone.

    Kept so hosts probing for ambient state keep working; execution is
    configured exclusively through
    :class:`~repro.engine_config.ExecutionConfig`.
    """
    return None


def sharded_queries(config=None, **fields):
    """Removed: there is no ambient sharding scope to enter.

    Raises :class:`~repro.exceptions.RemovedAPIError` — pass an
    :class:`~repro.engine_config.ExecutionConfig` with
    ``sharding=ShardingConfig(...)`` to the clusterer (or to
    :func:`repro.cluster`) instead.
    """
    raise RemovedAPIError(
        "sharded_queries() was removed after its deprecation cycle; pass "
        "ExecutionConfig(sharding=ShardingConfig(...)) to the clusterer "
        "(or repro.cluster) instead"
    )


def maybe_shard(index, config: ShardingConfig | None = None):
    """Wrap a *fitted* single index per the active sharding configuration.

    This is the fallback wrap-a-fitted-index path: it re-fits per-shard
    copies of ``index``'s configuration over its own points, paying the
    already-done whole-dataset build a second time. Hosts that can defer
    the build should hand the *unbuilt* index to
    :func:`resolve_engine_index` instead, which builds the shards
    directly.

    Returns ``index`` unchanged when sharding is disabled, when the index
    is already sharded, or when its type has no picklable rebuild spec
    (custom user indexes keep working, just unsharded). A recognised
    index whose points are unavailable — not built yet, or a subclass
    that dropped the public ``points`` property — is returned unsharded
    with a :class:`RuntimeWarning` naming the reason, never silently.

    ``config`` follows the :class:`~repro.engine_config.ExecutionConfig`
    convention: both None (unset) and ``False`` (explicitly disabled)
    mean no sharding — with the ambient thread-local scope retired,
    there is nothing left for *unset* to fall back to.
    """
    if config is False:
        config = None
    if config is None or isinstance(index, ShardedIndex):
        return index
    spec = backend_spec_of(index)
    if spec is None:
        return index
    try:
        points = index.points
    except NotFittedError:
        warnings.warn(
            f"sharding is active but this {type(index).__name__} has not "
            "been built: returning it unsharded (build it first, or hand "
            "the unbuilt index to resolve_engine_index for a "
            "shard-before-build fit)",
            RuntimeWarning,
            stacklevel=2,
        )
        return index
    except AttributeError:
        points = None
    if points is None:
        warnings.warn(
            f"sharding is active but {type(index).__name__} exposes no "
            "public 'points' property: returning it unsharded",
            RuntimeWarning,
            stacklevel=2,
        )
        return index
    name, kwargs = spec
    return config.make_index(name, kwargs).build(points)


def resolve_engine_index(index, X: np.ndarray, config: ShardingConfig | None = None):
    """Resolve the engine's query index, building shard-first when possible.

    The shard-before-build seam of the batched engine
    (:class:`~repro.index.engine.NeighborhoodCache`): hosts hand over the
    *unbuilt* backend they would have fitted themselves, and

    * with sharding active and a registered backend spec, the per-shard
      indexes are built directly over ``X`` — the whole-dataset index is
      never constructed, so a sharded fit pays exactly ``n_live_shards``
      inner builds;
    * with sharding active but no picklable spec (a custom unbuilt
      index), the single index is built and used unsharded, with a
      :class:`RuntimeWarning`;
    * with sharding inactive, the single index is built over ``X``
      exactly as the host would have done.

    A *fitted* index takes the legacy :func:`maybe_shard` fallback,
    which re-fits shard copies over the index's own points (one
    redundant whole-dataset build — the price of handing over a built
    artifact).

    Returns ``(resolved_index, owned)``. ``owned`` means the resolver
    *built* the result — including the in-place build of an unbuilt
    object the host handed over — and the host should treat it as the
    engine's to ``close()``; only a fitted index passed through
    untouched stays the caller's (``owned`` False). ``config`` is a
    :class:`ShardingConfig`, or None / ``False`` for no sharding.
    """
    if config is False:
        config = None
    built = getattr(index, "is_built", None)
    if built is None or built:
        wrapped = maybe_shard(index, config)
        return wrapped, wrapped is not index
    if isinstance(index, ShardedIndex):
        return index.build(X), True
    if config is not None:
        spec = backend_spec_of(index)
        if spec is not None:
            name, kwargs = spec
            return config.make_index(name, kwargs).build(X), True
        warnings.warn(
            f"sharding is active but {type(index).__name__} has no "
            "registered rebuild spec: building it unsharded",
            RuntimeWarning,
            stacklevel=2,
        )
    return index.build(X), True
