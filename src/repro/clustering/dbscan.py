"""Original DBSCAN (Ester et al. 1996) under cosine distance.

This is Algorithm 1 of the paper *without* the red LAF insertions: one
range query per point, expansion of clusters through core points, noise
points reclaimable as borders. Its output is the ground truth every
approximate method is scored against in the paper's evaluation.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.clustering.base import (
    NOISE,
    Clusterer,
    ClusteringResult,
    canonicalize_labels,
)
from repro.distances.metric import COSINE, Metric
from repro.engine_config import ExecutionConfig
from repro.index.base import NeighborIndex

__all__ = ["DBSCAN"]

#: Internal sentinel for points not yet visited (paper: "undefined").
UNDEFINED = -2


class DBSCAN(Clusterer):
    """Exact density-based clustering with per-point range queries.

    Parameters
    ----------
    eps:
        Cosine-distance threshold; neighbors satisfy ``d(P, Q) < eps``.
    tau:
        Minimum neighborhood size (including the point itself) for a
        core point — the paper's "minimum number of neighbors".
    metric:
        "cosine" (default) or "euclidean" — the future-work extension.
    execution:
        Execution policy (:class:`~repro.engine_config.ExecutionConfig`):
        backend spec (default exact brute force in the chosen metric),
        sharding, batched-vs-per-point switch, engine block size, cache
        eviction. On the default batched path plain DBSCAN plans all
        ``n`` queries up front (every point is queried exactly once, in
        the outer loop or at its dequeue) and executes them as blocked
        matrix products; ``batch_queries=False`` keeps the per-point
        reference loop. The clustering is identical either way.
    index_factory, batch_queries:
        Removed: passing either raises
        :class:`~repro.exceptions.RemovedAPIError` naming its
        ``execution=ExecutionConfig(...)`` replacement.

    Examples
    --------
    >>> from repro.data import load_dataset
    >>> ds = load_dataset("Glove-150k", scale=0.002, seed=0)
    >>> result = DBSCAN(eps=0.5, tau=3).fit(ds.X)
    >>> result.labels.shape == (ds.n_points,)
    True
    """

    algo_name = "dbscan"

    def __init__(
        self,
        eps: float,
        tau: int,
        index_factory: Callable[[], NeighborIndex] | None = None,
        metric: str | Metric = COSINE,
        batch_queries: bool | None = None,
        execution: ExecutionConfig | None = None,
    ) -> None:
        super().__init__(eps, tau, metric=metric, execution=execution)
        self._resolve_legacy_execution(index_factory, batch_queries)

    def fit(self, X: np.ndarray) -> ClusteringResult:
        X = self.metric.validate(X)
        n = X.shape[0]
        labels = np.full(n, UNDEFINED, dtype=np.int64)
        core_mask = np.zeros(n, dtype=bool)
        # Queue dedup: enqueueing a point twice is a semantic no-op (its
        # second visit hits the label check), so skip the duplicate.
        enqueued = np.zeros(n, dtype=bool)
        n_range_queries = 0
        cluster_id = -1

        # Every point's range query executes exactly once (in the outer
        # loop or at its dequeue), so the full visit order is a safe
        # prefetch plan: nothing speculative is ever computed.
        with self._engine(X, plan=np.arange(n)) as engine:
            fetch = engine.fetch
            for p in range(n):
                if labels[p] != UNDEFINED:
                    continue
                neighbors = fetch(p)
                n_range_queries += 1
                if neighbors.size < self.tau:
                    labels[p] = NOISE
                    continue
                cluster_id += 1
                labels[p] = cluster_id
                core_mask[p] = True
                # Expansion queue: the paper's growing seed set S = N - {P}.
                queue = neighbors[neighbors != p].tolist()
                enqueued[neighbors] = True
                head = 0
                while head < len(queue):
                    q = queue[head]
                    head += 1
                    if labels[q] == NOISE:
                        labels[q] = cluster_id  # noise reclaimed as border
                    if labels[q] != UNDEFINED:
                        continue
                    labels[q] = cluster_id
                    q_neighbors = fetch(q)
                    n_range_queries += 1
                    if q_neighbors.size >= self.tau:
                        core_mask[q] = True
                        fresh = q_neighbors[~enqueued[q_neighbors]]
                        enqueued[fresh] = True
                        queue.extend(fresh.tolist())

            stats: dict[str, int | float] = {"range_queries": n_range_queries}
            stats.update(engine.stats())
        return ClusteringResult(
            labels=canonicalize_labels(labels),
            core_mask=core_mask,
            stats=stats,
        )
