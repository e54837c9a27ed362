"""Client side of the remote worker pool.

:class:`RemoteExecutor` implements the shard-executor contract
(``run(op, calls)`` / ``close()`` / ``collect_stats()``) over a fleet
of :mod:`repro.remote.worker` processes. It is what the registered
``remote`` :class:`~repro.index.sharded.ExecutorSpec` constructs behind
:class:`~repro.index.sharded.ShardedIndex` — the sharded index itself
is unchanged: query blocks fan out with the stable ``shard → worker``
affinity, per-shard CSR arrays come back and feed the existing merge
kernels.

Robustness contract:

* every call runs under a per-call socket timeout; a timed-out call is
  retried (fresh connection, bounded by the ``retries`` option) and
  then raises :class:`~repro.exceptions.RetryExhaustedError` — the
  *fit* fails typed, the pool and its warm shards stay usable;
* a worker that cannot be reached at all is declared dead: its shards
  are rebalanced round-robin across the surviving workers (who attach
  them on first use, exactly like the single-box process executor) and
  the failed calls are retried — ``n_rebalances`` counts these events
  into ``ShardedIndex.stats()``;
* when every worker is gone, :class:`~repro.exceptions.WorkerUnavailableError`.

Warm-reuse accounting: every worker reply says whether it had to build
the shard index (``built``); the executor sums the builds *it*
triggered, so a second fit on a warm pool reports
``shard_inner_builds == 0`` in ``ClusteringResult.stats`` — the
counter-proof the acceptance criteria ask for.

:class:`WorkerPool` is the lifecycle helper: spawn a local fleet
(tests, benchmarks, ``repro-cli pool serve``), mint the matching
executor spec, shut the fleet down.
"""

from __future__ import annotations

import multiprocessing
import os
import socket
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.exceptions import (
    InvalidParameterError,
    RemoteExecutorError,
    RemoteProtocolError,
    RemoteTimeoutError,
    RetryExhaustedError,
    WorkerUnavailableError,
)
from repro.remote.protocol import recv_msg, send_msg

__all__ = ["RemoteExecutor", "WorkerPool", "DEFAULT_TIMEOUT_S", "DEFAULT_RETRIES"]

#: Per-call socket timeout (seconds) unless the spec says otherwise.
DEFAULT_TIMEOUT_S = 120.0

#: Connection-establishment timeout — kept short so a dead worker is
#: detected (and rebalanced around) quickly instead of after a full
#: call timeout.
DEFAULT_CONNECT_TIMEOUT_S = 5.0

#: Retries per call after a timeout, unless the spec says otherwise.
DEFAULT_RETRIES = 2


def _parse_address(address: str) -> tuple[str, int]:
    host, _, port = str(address).rpartition(":")
    return host, int(port)


class _WorkerClient:
    """One worker endpoint: lazy connection, serialized request/reply."""

    def __init__(self, address: str, timeout_s: float, connect_timeout_s: float):
        self.address = address
        self._timeout_s = timeout_s
        self._connect_timeout_s = connect_timeout_s
        self._sock: socket.socket | None = None
        self._lock = threading.Lock()

    def _connect(self) -> socket.socket:
        host, port = _parse_address(self.address)
        try:
            sock = socket.create_connection(
                (host, port), timeout=self._connect_timeout_s
            )
        except OSError as exc:
            raise WorkerUnavailableError(
                f"cannot reach pool worker at {self.address}: {exc}"
            ) from exc
        sock.settimeout(self._timeout_s)
        return sock

    def call(self, header: dict, arrays: dict | None = None) -> tuple[dict, dict]:
        """One request/reply round-trip; failures mapped to typed errors."""
        with self._lock:
            try:
                if self._sock is None:
                    self._sock = self._connect()
                send_msg(self._sock, header, arrays)
                reply = recv_msg(self._sock)
            except TimeoutError as exc:
                # The worker may still be computing — drop only the
                # connection so a retry (or the next fit) starts clean.
                self._drop()
                raise RemoteTimeoutError(
                    f"pool worker at {self.address} did not answer a "
                    f"{header.get('op')!r} call within {self._timeout_s}s"
                ) from exc
            except (WorkerUnavailableError, OSError) as exc:
                self._drop()
                if isinstance(exc, WorkerUnavailableError):
                    raise
                raise WorkerUnavailableError(
                    f"pool worker at {self.address} failed mid-call: {exc}"
                ) from exc
            except RemoteProtocolError:
                self._drop()
                raise
            if reply is None:
                self._drop()
                raise WorkerUnavailableError(
                    f"pool worker at {self.address} closed the connection"
                )
        header_out, arrays_out = reply
        error = header_out.get("error")
        if error:
            # A worker-side application error (bad parameter, missing
            # artifact, ...) is deterministic: retrying or rebalancing
            # would just repeat it, so it surfaces immediately.
            raise RemoteExecutorError(
                f"pool worker at {self.address} reported "
                f"{error.get('type')}: {error.get('message')}"
            )
        return header_out, arrays_out

    def _drop(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def close(self) -> None:
        with self._lock:
            self._drop()


class RemoteExecutor:
    """Affinity-routed shard execution over a worker fleet.

    Implements the same contract as the in-process executors in
    :mod:`repro.index.sharded` (``run`` / ``close`` / ``collect_stats``)
    so :class:`~repro.index.sharded.ShardedIndex` cannot tell the
    difference. ``shards`` maps shard id → ``(lo, hi)`` global rows;
    shard data reaches a worker either as the content-addressed dataset
    (pushed once per worker, sliced and built lazily there) or as an
    ``artifact_path`` into a persisted sharded artifact on a shared
    filesystem (:func:`repro.persistence.load_shard_index` — the warm
    reattach of PR 6 artifacts).
    """

    def __init__(
        self,
        X: np.ndarray,
        shards: dict[int, tuple[int, int]],
        inner_name: str,
        inner_kwargs: dict,
        options: dict,
        artifact_path: str | None = None,
    ) -> None:
        if not isinstance(inner_name, str):
            raise InvalidParameterError(
                "the remote executor rebuilds inner indexes in its "
                "workers and needs a registered backend name"
            )
        addresses = tuple(options.get("addresses") or ())
        if not addresses:
            raise InvalidParameterError(
                "the 'remote' executor needs at least one worker address"
            )
        self._timeout_s = float(options.get("timeout_s", DEFAULT_TIMEOUT_S))
        self._connect_timeout_s = float(
            options.get("connect_timeout_s", DEFAULT_CONNECT_TIMEOUT_S)
        )
        self._retries = int(options.get("retries", DEFAULT_RETRIES))
        self._clients: list[_WorkerClient | None] = [
            _WorkerClient(a, self._timeout_s, self._connect_timeout_s)
            for a in addresses
        ]
        self._X = np.ascontiguousarray(np.asarray(X, dtype=np.float64))
        self._shards = {int(s): (int(lo), int(hi)) for s, (lo, hi) in shards.items()}
        self._inner_name = inner_name
        self._inner_kwargs = dict(inner_kwargs or {})
        self._artifact_path = artifact_path
        self._fingerprint: str | None = None
        # Stable shard→worker affinity, same scheme as the process
        # executor: position in the sorted shard list, modulo the fleet.
        n_slots = len(self._clients)
        self._assignment = {
            s: pos % n_slots for pos, s in enumerate(sorted(self._shards))
        }
        self._dataset_on: set[int] = set()
        self._lock = threading.Lock()
        self._inner_builds = 0
        self.n_rebalances = 0
        self._fanout = ThreadPoolExecutor(
            max_workers=max(1, n_slots), thread_name_prefix="repro-pool"
        )

    # ------------------------------------------------------------------
    # Wire helpers
    # ------------------------------------------------------------------

    def _shard_payload(self, shard_id: int) -> dict:
        lo, hi = self._shards[shard_id]
        payload = {
            "shard_id": shard_id,
            "lo": lo,
            "hi": hi,
            "inner": self._inner_name,
            "inner_kwargs": self._inner_kwargs,
        }
        if self._artifact_path is not None:
            payload["artifact"] = self._artifact_path
        else:
            payload["dataset"] = self._dataset_fingerprint()
        return payload

    def _dataset_fingerprint(self) -> str:
        if self._fingerprint is None:
            from repro.remote.worker import dataset_fingerprint

            self._fingerprint = dataset_fingerprint(self._X)
        return self._fingerprint

    def _ensure_dataset(self, slot_id: int, client: _WorkerClient) -> None:
        """Push the dataset to a worker once (content-addressed skip)."""
        if self._artifact_path is not None or slot_id in self._dataset_on:
            return
        fingerprint = self._dataset_fingerprint()
        have, _ = client.call({"op": "ensure_dataset", "fingerprint": fingerprint})
        if not have.get("have"):
            client.call(
                {"op": "put_dataset", "fingerprint": fingerprint}, {"X": self._X}
            )
        with self._lock:
            self._dataset_on.add(slot_id)

    def _call_shard(self, slot_id: int, op: str, shard_id: int, args: tuple):
        """One shard call with per-timeout retry on a fresh connection."""
        client = self._clients[slot_id]
        if client is None:
            raise WorkerUnavailableError(
                f"slot {slot_id} is already retired"
            )
        Q, arg = args
        header = {
            "op": "query",
            "qop": op,
            "arg": arg,
            "shard": self._shard_payload(shard_id),
        }
        last: RemoteTimeoutError | None = None
        for _ in range(self._retries + 1):
            try:
                self._ensure_dataset(slot_id, client)
                reply, arrays = client.call(header, {"Q": Q})
                break
            except RemoteTimeoutError as exc:
                last = exc
        else:
            raise RetryExhaustedError(
                f"shard {shard_id} {op!r} call to {client.address} timed "
                f"out {self._retries + 1} times ({self._timeout_s}s each); "
                "giving up — the pool itself stays usable"
            ) from last
        if reply.get("built"):
            with self._lock:
                self._inner_builds += 1
        if op == "range":
            return arrays["indptr"], arrays["flat"]
        if op == "count":
            return arrays["counts"]
        return arrays["indptr"], arrays["flat_idx"], arrays["flat_dist"]

    # ------------------------------------------------------------------
    # Executor contract
    # ------------------------------------------------------------------

    def _live_slot_ids(self) -> list[int]:
        return [i for i, c in enumerate(self._clients) if c is not None]

    def _rebalance(self, dead_slot_ids: set[int]) -> None:
        """Retire dead workers, move their shards to the survivors."""
        for slot_id in dead_slot_ids:
            client = self._clients[slot_id]
            if client is not None:
                client.close()
                self._clients[slot_id] = None
            self._dataset_on.discard(slot_id)
        survivors = self._live_slot_ids()
        if not survivors:
            raise WorkerUnavailableError(
                "every pool worker is unreachable; cannot rebalance "
                f"(after {self.n_rebalances} earlier rebalances)"
            )
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
        # Each retry round retires at least one worker; beyond that the
        # fleet is actively dying under us and retrying would loop.
        for _ in range(len(self._clients) + 1):
            by_slot: dict[int, list[tuple[int, int, tuple]]] = {}
            for pos, (shard_id, args) in pending:
                by_slot.setdefault(self._assignment[shard_id], []).append(
                    (pos, shard_id, args)
                )

            def run_slot(slot_id, batch):
                # One worker's calls run in order on its one connection;
                # different workers run concurrently.
                out = []
                for pos, shard_id, args in batch:
                    out.append((pos, self._call_shard(slot_id, op, shard_id, args)))
                return out

            broken: set[int] = set()
            failed: list[int] = []
            futures = {
                slot_id: self._fanout.submit(run_slot, slot_id, batch)
                for slot_id, batch in by_slot.items()
            }
            for slot_id, future in futures.items():
                try:
                    for pos, result in future.result():
                        results[pos] = result
                except WorkerUnavailableError:
                    broken.add(slot_id)
                    failed.extend(pos for pos, _, _ in by_slot[slot_id])
            if not broken:
                return results
            self._rebalance(broken)
            pending = [(pos, calls[pos]) for pos in sorted(failed)]
        raise RetryExhaustedError(
            f"pool workers keep dying; gave up after {self.n_rebalances} "
            f"rebalances with {len(pending)} calls outstanding"
        )

    def collect_stats(self) -> dict[str, int]:
        """Builds *this executor* triggered, plus rebalance events.

        Purely local accounting — no network round-trip, so stats stay
        answerable while workers are wedged, and a second fit on a warm
        pool genuinely reports zero builds (the workers' cache hits are
        its builds-not-paid).
        """
        with self._lock:
            return {
                "inner_builds": self._inner_builds,
                "n_rebalances": self.n_rebalances,
            }

    def close(self) -> None:
        """Drop the connections; the workers (and their shards) stay warm."""
        self._fanout.shutdown(wait=True)
        for client in self._clients:
            if client is not None:
                client.close()


class WorkerPool:
    """Lifecycle of a worker fleet: spawn, address, spec, shut down.

    Construct with known ``addresses`` to manage an existing fleet, or
    :meth:`spawn_local` to fork one on this machine (tests, benchmarks,
    ``repro-cli pool serve``). The pool object is deliberately separate
    from :class:`RemoteExecutor`: many fits (many executors) come and
    go against one long-lived pool — that is the warm-reuse point.
    """

    def __init__(self, addresses, processes=None) -> None:
        self.addresses = tuple(str(a) for a in addresses)
        if not self.addresses:
            raise InvalidParameterError("WorkerPool needs at least one address")
        self._processes = list(processes or [])

    @classmethod
    def spawn_local(
        cls,
        n_workers: int,
        host: str = "127.0.0.1",
        start_timeout_s: float = 30.0,
        *,
        max_cached_shards: int | None = None,
        max_cached_bytes: int | None = None,
    ) -> "WorkerPool":
        """Fork ``n_workers`` local workers on ephemeral ports.

        ``max_cached_shards`` / ``max_cached_bytes`` bound each worker's
        warm shard-index cache (LRU eviction; see
        :class:`~repro.remote.worker.ShardHolder`).
        """
        if n_workers < 1:
            raise InvalidParameterError(f"n_workers must be >= 1; got {n_workers}")
        from repro.index.sharded import _start_method

        ctx = multiprocessing.get_context(_start_method())
        queue = ctx.Queue()
        processes = []
        for _ in range(n_workers):
            proc = ctx.Process(
                target=_serve_reporting,
                args=(host, queue, max_cached_shards, max_cached_bytes),
            )
            proc.daemon = True
            proc.start()
            processes.append(proc)
        bound: dict[int, str] = {}
        try:
            for _ in range(n_workers):
                pid, bound_host, bound_port = queue.get(timeout=start_timeout_s)
                bound[pid] = f"{bound_host}:{bound_port}"
        except Exception as exc:
            for proc in processes:
                proc.terminate()
            raise WorkerUnavailableError(
                f"local pool workers failed to start within "
                f"{start_timeout_s}s: {exc}"
            ) from exc
        # Workers report in whatever order they bind; list each address in
        # its process's place, so ``addresses[i]`` is ``worker_pids[i]``'s.
        return cls([bound[proc.pid] for proc in processes], processes)

    def executor_spec(self, **options):
        """The ``remote`` :class:`~repro.index.sharded.ExecutorSpec` for
        this pool (extra options — ``timeout_s``, ``retries`` — pass
        through)."""
        from repro.index.sharded import ExecutorSpec

        return ExecutorSpec("remote", {"addresses": self.addresses, **options})

    def ping(self, timeout_s: float = 10.0) -> list[int]:
        """Worker pids, in address order; proves the fleet is listening."""
        pids = []
        for address in self.addresses:
            client = _WorkerClient(address, timeout_s, timeout_s)
            try:
                reply, _ = client.call({"op": "ping"})
                pids.append(int(reply["pid"]))
            finally:
                client.close()
        return pids

    @property
    def worker_pids(self) -> list[int]:
        """Pids of locally spawned workers (empty for an external fleet)."""
        return [proc.pid for proc in self._processes]

    def shutdown(self, join_timeout_s: float = 10.0) -> None:
        """Ask every worker to exit, then reap local processes."""
        for address in self.addresses:
            client = _WorkerClient(address, join_timeout_s, 2.0)
            try:
                client.call({"op": "shutdown"})
            except RemoteExecutorError:
                pass  # already dead is shut down enough
            finally:
                client.close()
        for proc in self._processes:
            proc.join(timeout=join_timeout_s)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=join_timeout_s)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


def _serve_reporting(
    host: str,
    queue,
    max_cached_shards: int | None = None,
    max_cached_bytes: int | None = None,
) -> None:
    """Worker-process entry: serve on an ephemeral port, report it back."""
    from repro.remote.worker import ShardHolder, serve

    holder = ShardHolder(
        max_cached_shards=max_cached_shards,
        max_cached_bytes=max_cached_bytes,
    )
    serve(
        host, 0, on_bound=lambda h, p: queue.put((os.getpid(), h, p)), holder=holder
    )
