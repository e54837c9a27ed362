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

The same file's ``core_graph_speedup`` row times the DBSCAN++ core
graph: ``connected_components_within`` (one kernel CSR self-join and
``scipy.sparse.csgraph``) against the float64 BFS it replaced, which
runs one matrix-vector product per visited point, on the same points.

Both paths of each row must return identical results before anything
is timed.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from conftest import out_path

from repro.clustering.components import connected_components_within
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


def float64_bfs_components(X: np.ndarray, eps: float) -> np.ndarray:
    """The float64 core-graph reference: BFS, one matvec per visited point."""
    labels = np.full(X.shape[0], -1, dtype=np.int64)
    component = -1
    for start in range(X.shape[0]):
        if labels[start] != -1:
            continue
        component += 1
        labels[start] = component
        frontier = [start]
        while frontier:
            dists = 1.0 - X @ X[frontier.pop()]
            neighbors = np.flatnonzero((dists < eps) & (labels == -1))
            labels[neighbors] = component
            frontier.extend(neighbors.tolist())
    return labels


@pytest.fixture(scope="module")
def bench_rows():
    """Rows measured in this file, written together once it finishes."""
    measured: list[dict] = []
    yield measured
    write_benchmark_rows(out_path(f"cosine_kernel_n{N}.json"), measured)


def _points() -> np.ndarray:
    return make_blobs_on_sphere(N // 16, 16, DIM, spread=1.0, seed=0)[0]


def _best_of(fn, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_float32_kernel_speedup(bench_rows):
    X = _points()
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
    bench_rows.append(row)


def test_core_graph_speedup(bench_rows):
    X = _points()
    labels = connected_components_within(X, EPS)
    assert np.array_equal(labels, float64_bfs_components(X, EPS))

    # The BFS takes seconds, so one timed run is as stable as a best of three.
    t_float64 = _best_of(lambda: float64_bfs_components(X, EPS), repeats=1)
    t_kernel = _best_of(lambda: connected_components_within(X, EPS))
    row = {
        "method": "core_graph",
        "n": N,
        "dim": DIM,
        "eps": EPS,
        "components": int(labels.max()) + 1,
        "float64_s": t_float64,
        "kernel_s": t_kernel,
        "core_graph_speedup": t_float64 / t_kernel,
    }
    print()
    print(
        f"core graph n={N} d={DIM}: float64 BFS {t_float64:.3f}s, "
        f"kernel {t_kernel:.3f}s -> {row['core_graph_speedup']:.2f}x "
        f"({row['components']} components)"
    )
    bench_rows.append(row)
