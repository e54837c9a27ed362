"""Float32 cosine range kernel with an exact float64 boundary re-check.

For ``eps > 0`` the cosine neighbourhood predicate
``max(0, 1 - q·x) < eps`` is a threshold on the dot product,
``q·x > t`` with ``t = 1 - eps``. :class:`CosineRangeKernel` evaluates
the dots blockwise as one float32 GEMM against a float32 copy of the
points (cast once per index), which moves half the bytes of the float64
GEMM and runs about twice as fast on CPU BLAS.

Every pair whose float32 dot lies outside a proven rounding band
``[t - B, t + B]`` is decided from the float32 value alone; the band
(:meth:`CosineRangeKernel.band`) is wide enough that such a decision
equals the float64 one whatever the reduction order. Pairs inside the
band are re-evaluated in float64 by :func:`exact_dots`, one fixed
reduction per pair. Every decision therefore equals
``max(0, 1 - exact_dots(q, x)) < eps``, independent of how the queries
are grouped into blocks: a query asked alone, inside a 1024-row block or
through a shard reaches the same answer on every pair. The derivation of
``B`` is in ``docs/engine.md``.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.distances.matrix import DEFAULT_BLOCK_SIZE

__all__ = ["CosineRangeKernel", "exact_dots"]

#: Unit roundoffs of float32 and float64 (round to nearest).
_U32 = 2.0**-24
_U64 = 2.0**-53

#: Absolute slack added to the band: covers rounding ``1 - eps`` and
#: ``1 - q·x`` in float64, float32 underflow of tiny coordinates, and the
#: float64 evaluation of the band itself.
_ABS_SLACK = 2.0**-50

#: Upper bound on the floats gathered per operand in one re-check chunk.
_PAIR_CHUNK_FLOATS = 1 << 20


def _gamma(k: int, u: float) -> float:
    """Higham's ``γ_k = k·u / (1 - k·u)``: the error factor of a k-term dot."""
    return k * u / (1.0 - k * u) if k * u < 1.0 else float("inf")


def exact_dots(
    Q: np.ndarray, X: np.ndarray, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """Float64 dots ``Q[rows[i]] · X[cols[i]]`` for every listed pair.

    The one reduction every boundary decision is made with: a row-wise
    ``einsum`` over the gathered pairs, whose value for a pair does not
    depend on which other pairs share the call. Gathers in bounded
    chunks so an adversarial band (many pairs at exactly ``eps``) cannot
    blow up memory.
    """
    out = np.empty(rows.shape[0])
    chunk = max(1, _PAIR_CHUNK_FLOATS // max(1, Q.shape[1]))
    for lo in range(0, rows.shape[0], chunk):
        hi = lo + chunk
        out[lo:hi] = np.einsum("ij,ij->i", Q[rows[lo:hi]], X[cols[lo:hi]])
    return out


class CosineRangeKernel:
    """Blockwise cosine range decisions over a fixed point matrix.

    Parameters
    ----------
    points:
        The float64 point matrix; kept by reference (a memory map stays
        a map) and used for the float64 re-checks.
    block_size:
        Query rows per float32 GEMM. Peak memory is about
        ``6 * block_size * n_points`` bytes (float32 dots and two
        boolean masks, allocated once per call and reused for every
        block; ``nearest_within`` adds up to two more mask bytes), plus
        the returned neighbours and 16 bytes per pair inside the band.
    """

    def __init__(self, points: np.ndarray, block_size: int = DEFAULT_BLOCK_SIZE):
        self.points = points
        self.points32 = np.ascontiguousarray(points, dtype=np.float32)
        self.block_size = block_size
        sq_norms = np.einsum("ij,ij->i", points, points)
        self._max_norm = float(np.sqrt(sq_norms.max())) if sq_norms.size else 0.0
        d = points.shape[1]
        # |fl32(q'·x') - q·x| <= (γ_d(1+u)² + 2u + u²)·‖q‖‖x‖ for the
        # float32 roundings q', x'; γ_d of float64 covers the re-check's
        # own reduction error. See docs/engine.md.
        self._coef = (
            _gamma(d, _U32) * (1.0 + _U32) ** 2 + 2.0 * _U32 + _U32**2 + _gamma(d, _U64)
        )

    def band(self, Q: np.ndarray) -> np.ndarray:
        """Half-width ``B`` of the undecided band for every query row."""
        q_norms = np.sqrt(np.einsum("ij,ij->i", Q, Q))
        return self._coef * q_norms * self._max_norm + _ABS_SLACK

    def _iter_hits(
        self, Q: np.ndarray, eps_values: list[float]
    ) -> Iterator[tuple[int, int, np.ndarray, int, np.ndarray]]:
        """Yield ``(start, stop, dots32, j, hit)`` per query block and radius.

        One float32 GEMM per block serves every radius ``eps_values[j] > 0``
        of that block; radii ``<= 0`` (and NaN) are skipped, since no pair
        can qualify. ``dots32`` and ``hit`` are views of buffers reused
        for every block and radius.
        """
        radii = [(j, eps) for j, eps in enumerate(eps_values) if eps > 0]
        if not radii or self.points.shape[0] == 0:
            return
        shape = (min(self.block_size, Q.shape[0]), self.points.shape[0])
        dots_buf = np.empty(shape, dtype=np.float32)
        hit_buf = np.empty(shape, dtype=bool)
        unsure_buf = np.empty(shape, dtype=bool)
        for start in range(0, Q.shape[0], self.block_size):
            stop = min(start + self.block_size, Q.shape[0])
            Qb = Q[start:stop]
            dots = dots_buf[: stop - start]
            hit = hit_buf[: stop - start]
            unsure = unsure_buf[: stop - start]
            np.matmul(Qb.astype(np.float32), self.points32.T, out=dots)
            band = self.band(Qb)
            for j, eps in radii:
                t = 1.0 - eps
                # Round each edge to float32, then one ulp further out.
                lo = np.nextafter((t - band).astype(np.float32), np.float32(-np.inf))
                hi = np.nextafter((t + band).astype(np.float32), np.float32(np.inf))
                np.greater(dots, hi[:, None], out=hit)
                np.greater_equal(dots, lo[:, None], out=unsure)
                unsure ^= hit  # lo <= dot32 <= hi: the band
                # A flat nonzero + divmod is several times faster than a
                # 2-d nonzero on a mask this sparse.
                rows, cols = np.divmod(np.flatnonzero(unsure), dots.shape[1])
                if rows.size:
                    exact = exact_dots(Qb, self.points, rows, cols)
                    ok = np.maximum(0.0, 1.0 - exact) < eps
                    hit[rows[ok], cols[ok]] = True
                yield start, stop, dots, j, hit

    def iter_blocks(
        self, Q: np.ndarray, eps: float
    ) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
        """Yield ``(start, stop, dots32, hit)`` per query block.

        ``dots32`` is the block's float32 dot matrix and ``hit`` the
        boolean decision mask: ``hit[i, j]`` is ``max(0, 1 - q·x) < eps``
        for query ``start + i`` and point ``j``. Both are views of
        buffers reused for every block, so one block's worth of memory
        is live however the caller loops: a caller must be done with
        them before it advances. Yields nothing when no pair can qualify
        (``eps <= 0`` or no points).
        """
        for start, stop, dots, _, hit in self._iter_hits(Q, [eps]):
            yield start, stop, dots, hit

    def range_counts(self, Q: np.ndarray, eps: float) -> np.ndarray:
        """Number of points within ``eps`` of every row of ``Q``."""
        return self.range_counts_multi(Q, [eps])[:, 0]

    def range_counts_multi(self, Q: np.ndarray, eps_values: list[float]) -> np.ndarray:
        """Counts within every radius, shape ``(len(Q), len(eps_values))``.

        Each query block's float32 GEMM is shared by all radii, and each
        radius is decided with the predicate and band re-check of
        :meth:`iter_blocks`, so column ``j`` equals
        ``range_counts(Q, eps_values[j])``. A radius ``<= 0`` counts 0.
        """
        counts = np.zeros((Q.shape[0], len(eps_values)), dtype=np.int64)
        for start, stop, _, j, hit in self._iter_hits(Q, eps_values):
            counts[start:stop, j] = np.count_nonzero(hit, axis=1)
        return counts

    def range_csr(self, Q: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
        """Neighbours of every row of ``Q`` as ``(indptr, indices)`` CSR.

        Each row's indices ascend. The flat positions of a block's hits
        are turned into column indices in place, so extraction allocates
        nothing per neighbour beyond the output.
        """
        counts = np.zeros(Q.shape[0], dtype=np.int64)
        parts = [np.empty(0, dtype=np.int64)]
        for start, stop, _, hit in self.iter_blocks(Q, eps):
            n = hit.shape[1]
            flat = np.flatnonzero(hit)
            # Positions ascend, so row boundaries are a binary search.
            edges = np.searchsorted(flat, np.arange(stop - start + 1) * n)
            counts[start:stop] = np.diff(edges)
            parts.append(np.remainder(flat, n, out=flat))
        indptr = np.zeros(Q.shape[0] + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return indptr, np.concatenate(parts)

    def nearest_within(self, Q: np.ndarray, eps: float) -> np.ndarray:
        """Index of the nearest point within ``eps`` per query row, or -1.

        Nearest by float64 cosine distance ``max(0, 1 - exact_dots)``;
        exact ties go to the smallest index. ``eps=np.inf`` means nearest
        with no radius. Only in-range candidates whose float32 dot is
        within ``2B`` of the row's best one (capped at 1, where the
        distance clamps to 0) can win, so only those are re-checked in
        float64.
        """
        chosen = np.full(Q.shape[0], -1, dtype=np.int64)
        for start, stop, dots, hit in self.iter_blocks(Q, eps):
            Qb = Q[start:stop]
            span = np.arange(stop - start)
            top = dots.argmax(axis=1)
            # A row whose largest dot is a hit has that dot as its best
            # hit. In any other row every hit is a re-checked band pair,
            # so keeping all of them (floor -inf) costs little.
            best = dots[span, top].astype(np.float64)
            floor = np.where(
                hit[span, top], np.minimum(best, 1.0) - 2.0 * self.band(Qb), -np.inf
            )
            floor32 = np.nextafter(floor.astype(np.float32), np.float32(-np.inf))
            candidates = dots >= floor32[:, None]
            candidates &= hit
            rows, cols = np.divmod(np.flatnonzero(candidates), dots.shape[1])
            dist = np.maximum(0.0, 1.0 - exact_dots(Qb, self.points, rows, cols))
            # Per row: smallest distance, exact ties to the smallest index.
            order = np.lexsort((cols, dist, rows))
            winners = order[np.flatnonzero(np.diff(rows[order], prepend=-1))]
            chosen[start + rows[winners]] = cols[winners]
        return chosen
