"""Exact brute-force index over vectors, metric-pluggable.

One blockwise matrix product per batch of queries. This is the "range
query" primitive of Algorithm 1 and the reference answer that every
approximate index is tested against. Under cosine distance every range
method (scalar and batched), and the nearest-within selection of model
serving, run on :class:`~repro.distances.cosine_kernel.CosineRangeKernel`:
float32 dot products with an exact float64 re-check at the ``eps``
boundary, so decisions equal the float64 predicate on every pair.

The default metric is cosine distance on unit vectors (the paper's
setting); Euclidean distance is available through the ``metric``
parameter (the paper's future-work extension, see
:mod:`repro.distances.metric`).
"""

from __future__ import annotations

import numpy as np

from repro.distances.cosine_kernel import CosineRangeKernel
from repro.distances.matrix import iter_distance_blocks
from repro.distances.metric import COSINE, Metric, get_metric
from repro.exceptions import InvalidParameterError
from repro.index.base import NeighborIndex

__all__ = ["BruteForceIndex"]


class BruteForceIndex(NeighborIndex):
    """Exact distance index backed by dense matrix products.

    Parameters
    ----------
    block_size:
        Row-block size for the batched query paths; bounds peak memory at
        about ``block_size * n_points`` floats.
    metric:
        "cosine" (default, requires unit rows) or "euclidean".

    Examples
    --------
    >>> import numpy as np
    >>> from repro.distances import normalize_rows
    >>> X = normalize_rows(np.random.default_rng(0).normal(size=(100, 16)))
    >>> index = BruteForceIndex().build(X)
    >>> neighbors = index.range_query(X[0], eps=0.5)
    >>> bool(np.isin(0, neighbors))  # a point is its own neighbor (d=0 < eps)
    True
    """

    def __init__(self, block_size: int = 1024, metric: str | Metric = COSINE) -> None:
        if block_size <= 0:
            raise InvalidParameterError(
                f"block_size must be positive; got {block_size}"
            )
        self.block_size = block_size
        self.metric = get_metric(metric)
        self._points: np.ndarray | None = None
        self._kernel: CosineRangeKernel | None = None

    def build(self, X: np.ndarray) -> "BruteForceIndex":
        return self._attach(self.metric.validate(X))

    def _attach(self, points: np.ndarray) -> "BruteForceIndex":
        self._points = points
        self._kernel = (
            CosineRangeKernel(points, self.block_size)
            if self.metric.name == COSINE.name
            else None
        )
        return self

    def range_query(self, q: np.ndarray, eps: float) -> np.ndarray:
        (row,) = self.batch_range_query(q, eps)
        return row

    def range_count(self, q: np.ndarray, eps: float) -> int:
        return int(self.batch_range_count(q, eps)[0])

    def knn_query(self, q: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        self._require_built()
        if k <= 0:
            raise InvalidParameterError(f"k must be positive; got {k}")
        k = min(k, self.n_points)
        dists = self.metric.distance_to_many(
            np.asarray(q, dtype=np.float64), self._points
        )
        nearest = np.argpartition(dists, k - 1)[:k]
        order = np.argsort(dists[nearest], kind="stable")
        idx = nearest[order]
        return idx, dists[idx]

    # ------------------------------------------------------------------
    # Batched forms (exact, blockwise)
    # ------------------------------------------------------------------

    def _iter_blocks(self, Q: np.ndarray):
        yield from iter_distance_blocks(
            self._as_query_matrix(Q),
            self._points,
            block_size=self.block_size,
            metric=self.metric.name,
        )

    def batch_range_csr(
        self, Q: np.ndarray, eps: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Neighbours of every row of ``Q`` as ``(indptr, indices)`` CSR.

        Row ``i``'s neighbours, ascending, are
        ``indices[indptr[i] : indptr[i + 1]]``. Thresholding and
        extraction are one pass per block; this is also the shard
        workers' wire format. Cosine goes through the float32 kernel
        with its float64 boundary re-check; other metrics threshold
        float64 blocks.
        """
        self._require_built()
        Q = self._as_query_matrix(Q)
        if self._kernel is not None:
            return self._kernel.range_csr(Q, eps)
        counts = np.zeros(Q.shape[0], dtype=np.int64)
        parts = [np.empty(0, dtype=np.int64)]
        for start, stop, block in self._iter_blocks(Q):
            hit = block < eps
            counts[start:stop] = np.count_nonzero(hit, axis=1)
            parts.append(np.nonzero(hit)[1])
        indptr = np.zeros(Q.shape[0] + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return indptr, np.concatenate(parts)

    def batch_range_query(self, Q: np.ndarray, eps: float) -> list[np.ndarray]:
        """Exact neighbor index arrays for every row of ``Q``, blockwise."""
        indptr, indices = self.batch_range_csr(Q, eps)
        return [indices[indptr[i] : indptr[i + 1]] for i in range(indptr.size - 1)]

    def batch_range_count(self, Q: np.ndarray, eps: float) -> np.ndarray:
        """Exact neighbor counts for every row of ``Q`` at threshold ``eps``."""
        self._require_built()
        Q = self._as_query_matrix(Q)
        if self._kernel is not None:
            return self._kernel.range_counts(Q, eps)
        counts = np.zeros(Q.shape[0], dtype=np.int64)
        for start, stop, block in self._iter_blocks(Q):
            counts[start:stop] = np.count_nonzero(block < eps, axis=1)
        return counts

    def batch_nearest_within(
        self, Q: np.ndarray, eps: float, metric: Metric
    ) -> np.ndarray:
        """Nearest point within ``eps`` per row of ``Q`` (``-1`` if none).

        A cosine index asked for cosine distance picks the winner from
        the range kernel's own block, re-checking only near-best
        candidates in float64; anything else takes the generic rule.
        """
        if self._kernel is None or metric.name != COSINE.name:
            return super().batch_nearest_within(Q, eps, metric)
        self._require_built()
        return self._kernel.nearest_within(self._as_query_matrix(Q), eps)

    def batch_knn_query(
        self, Q: np.ndarray, k: int
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Exact blocked KNN: argpartition per distance block."""
        self._require_built()
        if k <= 0:
            raise InvalidParameterError(f"k must be positive; got {k}")
        k = min(k, self.n_points)
        indices: list[np.ndarray] = []
        dists: list[np.ndarray] = []
        for _, _, block in self._iter_blocks(Q):
            if k < block.shape[1]:
                part = np.argpartition(block, k - 1, axis=1)[:, :k]
            else:
                part = np.broadcast_to(
                    np.arange(block.shape[1]), (block.shape[0], block.shape[1])
                )
            part_d = np.take_along_axis(block, part, axis=1)
            order = np.argsort(part_d, axis=1, kind="stable")
            row_idx = np.take_along_axis(part, order, axis=1)
            row_d = np.take_along_axis(part_d, order, axis=1)
            # Copy rows out so returned arrays don't pin the whole block.
            indices.extend(np.array(r, dtype=np.int64) for r in row_idx)
            dists.extend(np.array(r) for r in row_d)
        return indices, dists

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def to_arrays(self) -> dict[str, np.ndarray]:
        self._require_built()
        return {"points": self._points}

    def from_arrays(self, arrays: dict) -> "BruteForceIndex":
        # Rows were validated at the original build; reattach without
        # copying so a memory-mapped matrix stays a map.
        return self._attach(np.asarray(arrays["points"], dtype=np.float64))

    def range_count_multi_eps(
        self, Q: np.ndarray, eps_values: np.ndarray
    ) -> np.ndarray:
        """Counts for every (query row, eps value) pair.

        Returns shape ``(len(Q), len(eps_values))``. Used by the estimator
        training-set builder, which needs counts at many radii per query.
        """
        self._require_built()
        eps_values = np.asarray(eps_values, dtype=np.float64)
        Q = np.atleast_2d(np.asarray(Q, dtype=np.float64))
        counts = np.empty((Q.shape[0], eps_values.size), dtype=np.int64)
        # One radius at a time, so no (block, n, R) boolean temporary.
        for start, stop, block in self._iter_blocks(Q):
            for j, eps in enumerate(eps_values.tolist()):
                counts[start:stop, j] = np.count_nonzero(block < eps, axis=1)
        return counts
