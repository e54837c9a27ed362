"""Benchmark: the float32 cosine range kernel vs the float64 block path.

``BruteForceIndex.batch_range_query`` answers cosine range queries with
one float32 GEMM per block, a float64 re-check of the pairs inside the
proven rounding band, and one threshold-and-CSR pass
(:mod:`repro.distances.cosine_kernel`). The reference is the path it
replaced: float64 ``iter_distance_blocks`` distance blocks and a per-row
``flatnonzero``. The tracked metric is ``float32_kernel_speedup``
(reference seconds over kernel seconds, same machine, same run), for an
all-points batch at n=4096 and d=768 — the paper's MS embedding width —
recorded to ``benchmarks/out/cosine_kernel_n{N}.json`` for the CI
regression gate.

Both paths must return identical neighbour rows before anything is
timed.
"""

from __future__ import annotations

import time

import numpy as np
from conftest import out_path

from repro.distances import iter_distance_blocks
from repro.index import BruteForceIndex
from repro.testing import make_blobs_on_sphere, write_benchmark_rows

N = 4096
DIM = 768
EPS = 0.55
REPEATS = 3


def float64_range_query(X: np.ndarray, Q: np.ndarray, eps: float) -> list[np.ndarray]:
    """The float64 reference: distance blocks, then one flatnonzero per row."""
    rows: list[np.ndarray] = []
    for _, _, block in iter_distance_blocks(Q, X):
        rows.extend(np.flatnonzero(row < eps) for row in block)
    return rows


def _best_of(fn, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_float32_kernel_speedup():
    X, _ = make_blobs_on_sphere(N // 16, 16, DIM, spread=1.0, seed=0)
    index = BruteForceIndex().build(X)

    got = index.batch_range_query(X, EPS)
    expected = float64_range_query(X, X, EPS)
    assert len(got) == len(expected)
    for got_row, exp_row in zip(got, expected):
        assert np.array_equal(got_row, exp_row)
    neighbors = sum(row.size for row in got)

    t_float64 = _best_of(lambda: float64_range_query(X, X, EPS))
    t_kernel = _best_of(lambda: index.batch_range_query(X, EPS))
    row = {
        "method": "float32_kernel",
        "n": N,
        "dim": DIM,
        "eps": EPS,
        "neighbors": neighbors,
        "float64_s": t_float64,
        "kernel_s": t_kernel,
        "float32_kernel_speedup": t_float64 / t_kernel,
    }
    print()
    print(
        f"n={N} d={DIM}: float64 {t_float64:.3f}s, kernel {t_kernel:.3f}s "
        f"-> {row['float32_kernel_speedup']:.2f}x ({neighbors} neighbours)"
    )
    write_benchmark_rows(out_path(f"cosine_kernel_n{N}.json"), [row])
