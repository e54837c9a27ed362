"""Tests for the DBSCAN++ core graph and nearest-core assignment.

The float64 oracle below is the implementation both stages replaced: a
BFS with one matrix-vector product per visited core, and an argmin over
float64 ``1 - x·c`` distance blocks.
"""

import numpy as np
import pytest

import repro.clustering.dbscanpp
import repro.core.laf_dbscanpp
from repro.clustering import DBSCANPlusPlus
from repro.clustering.base import NOISE
from repro.clustering.components import connected_components_within
from repro.core import LAFDBSCANPlusPlus
from repro.distances import iter_distance_blocks, normalize_rows
from repro.distances.cosine_kernel import exact_dots
from repro.distances.matrix import DEFAULT_BLOCK_SIZE
from repro.estimators import ExactCardinalityEstimator


def bfs_components(X: np.ndarray, eps: float) -> np.ndarray:
    """Float64 oracle: BFS whose adjacency test is ``1 - X @ x < eps``."""
    m = X.shape[0]
    labels = np.full(m, -1, dtype=np.int64)
    component = -1
    for start in range(m):
        if labels[start] != -1:
            continue
        component += 1
        labels[start] = component
        frontier = [start]
        while frontier:
            node = frontier.pop()
            dists = 1.0 - X @ X[node]
            neighbors = np.flatnonzero((dists < eps) & (labels == -1))
            if neighbors.size:
                labels[neighbors] = component
                frontier.extend(neighbors.tolist())
    return labels


class Float64NearestCore:
    """Float64 oracle for ``CosineRangeKernel(cores).nearest_within``."""

    def __init__(self, cores: np.ndarray):
        self.cores = cores

    def nearest_within(self, X: np.ndarray, eps: float) -> np.ndarray:
        chosen = np.empty(X.shape[0], dtype=np.int64)
        for start, stop, block in iter_distance_blocks(X, self.cores):
            nearest = np.argmin(block, axis=1)
            within = block[np.arange(stop - start), nearest] < eps
            chosen[start:stop] = np.where(within, nearest, -1)
        return chosen


def unit_rows(n: int, dim: int, seed: int) -> np.ndarray:
    return normalize_rows(np.random.default_rng(seed).normal(size=(n, dim)))


def pair_distance(x: np.ndarray, y: np.ndarray) -> float:
    dot = exact_dots(x[None], y[None], np.zeros(1, int), np.zeros(1, int))[0]
    return max(0.0, 1.0 - float(dot))


class TestConnectedComponentsWithin:
    def test_two_far_groups(self):
        rng = np.random.default_rng(0)
        a = normalize_rows(np.array([1.0, 0.0, 0.0]) + 0.01 * rng.normal(size=(5, 3)))
        b = normalize_rows(np.array([-1.0, 0.0, 0.0]) + 0.01 * rng.normal(size=(5, 3)))
        labels = connected_components_within(np.vstack([a, b]), eps=0.5)
        assert len(set(labels[:5].tolist())) == 1
        assert len(set(labels[5:].tolist())) == 1
        assert labels[0] != labels[5]

    def test_chain_connectivity(self):
        # Points on a great-circle arc, each within eps of its neighbor
        # but not of the far end: one chained component.
        angles = np.linspace(0.0, 1.2, 7)
        X = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        step_gap = 1.0 - np.cos(angles[1] - angles[0])
        end_gap = 1.0 - np.cos(angles[-1] - angles[0])
        eps = step_gap * 1.5
        assert eps < end_gap
        labels = connected_components_within(X, eps=eps)
        assert len(set(labels.tolist())) == 1

    def test_all_singletons(self):
        X = np.eye(4)
        labels = connected_components_within(X, eps=0.5)
        assert len(set(labels.tolist())) == 4

    def test_matches_naive_union_find(self):
        from repro.clustering import UnionFind

        rng = np.random.default_rng(3)
        X = normalize_rows(rng.normal(size=(40, 6)))
        eps = 0.6
        fast = connected_components_within(X, eps)
        uf = UnionFind(40)
        dists = 1.0 - X @ X.T
        for i in range(40):
            for j in range(i + 1, 40):
                if dists[i, j] < eps:
                    uf.union(i, j)
        for i in range(40):
            for j in range(40):
                assert (fast[i] == fast[j]) == uf.connected(i, j)

    @pytest.mark.parametrize("dim", [3, 768])
    @pytest.mark.parametrize("ulps", [-1, 0, 1])
    def test_pair_at_eps_and_one_ulp_either_side(self, dim, ulps):
        X = unit_rows(2, dim, seed=dim)
        eps = pair_distance(X[0], X[1])
        for _ in range(abs(ulps)):
            eps = float(np.nextafter(eps, np.inf if ulps > 0 else -np.inf))
        labels = connected_components_within(X, eps)
        # Strict <: the pair at exactly eps is apart, one ulp above joined.
        assert labels.tolist() == ([0, 0] if ulps > 0 else [0, 1])

    def test_duplicate_rows_share_a_component(self):
        base = unit_rows(4, 32, seed=1)
        X = np.vstack([base, base[2], base[0], base[2]])
        labels = connected_components_within(X, 1e-12)
        assert labels.tolist() == [0, 1, 2, 3, 2, 0, 2]

    def test_one_row_and_no_rows(self):
        assert connected_components_within(unit_rows(1, 8, seed=2), 0.5).tolist() == [0]
        empty = connected_components_within(np.empty((0, 8)), 0.5)
        assert empty.shape == (0,) and empty.dtype == np.int64

    def test_chain_across_kernel_blocks(self):
        # An arc of more than one kernel block of rows, shuffled so most
        # links join rows of different blocks; each row is within eps of
        # its arc neighbours only.
        m = DEFAULT_BLOCK_SIZE + 500
        angles = np.linspace(0.0, 2.5, m)
        arc = np.stack([np.cos(angles), np.sin(angles), np.zeros(m)], axis=1)
        step_gap = 1.0 - np.cos(angles[1] - angles[0])
        far = np.array([[0.0, 0.0, 1.0]])
        X = np.vstack([arc[np.random.default_rng(4).permutation(m)], far])
        labels = connected_components_within(X, 1.5 * step_gap)
        assert np.array_equal(labels, bfs_components(X, 1.5 * step_gap))
        assert (labels[:m] == 0).all() and labels[m] == 1

    def test_numbered_by_smallest_member(self):
        a, b, c = unit_rows(3, 16, seed=5) * 10
        rng = np.random.default_rng(6)
        groups = [a, b, a, c, b, c, a]
        X = normalize_rows(np.vstack(groups) + 0.01 * rng.normal(size=(7, 16)))
        labels = connected_components_within(X, 0.1)
        assert labels.tolist() == [0, 1, 0, 2, 1, 2, 0]

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_bfs_oracle(self, seed):
        rng = np.random.default_rng(seed)
        X = normalize_rows(rng.normal(size=(300, 8)))
        eps = float(rng.uniform(0.1, 0.6))
        labels = connected_components_within(X, eps)
        assert np.array_equal(labels, bfs_components(X, eps))


def star_with_boundary_point() -> tuple[np.ndarray, float]:
    """A core ``c`` with three satellites, and ``z`` exactly eps from ``c``.

    At ``tau = 4`` only ``c`` is core: it has itself and three
    satellites, every satellite sees only itself and ``c``, and ``z``
    only itself. Returns the rows ``[c, s1, s2, s3, z]`` and the eps.
    """
    a = 0.3
    satellites = normalize_rows(np.eye(5)[0] + a * np.eye(5)[1:4])
    theta = np.arccos(0.94)
    z = np.array([np.cos(theta), 0.0, 0.0, 0.0, np.sin(theta)])
    X = np.vstack([np.eye(5)[0], satellites, z])
    eps = pair_distance(X[0], z)
    assert pair_distance(X[0], X[1]) < eps < pair_distance(X[1], X[2])
    return X, eps


def make_dbscanpp_uniform(eps, tau, assign):
    return DBSCANPlusPlus(eps=eps, tau=tau, p=0.5, assign_within_eps=assign, seed=3)


def make_dbscanpp_kcenter(eps, tau, assign):
    return DBSCANPlusPlus(
        eps=eps, tau=tau, p=0.5, init="k-center", assign_within_eps=assign, seed=3
    )


def make_laf_dbscanpp(eps, tau, assign):
    return LAFDBSCANPlusPlus(
        eps=eps,
        tau=tau,
        estimator=ExactCardinalityEstimator(),
        p=0.5,
        alpha=1.4,
        assign_within_eps=assign,
        seed=3,
    )


CLUSTERERS = {
    "dbscanpp_uniform": (repro.clustering.dbscanpp, make_dbscanpp_uniform),
    "dbscanpp_kcenter": (repro.clustering.dbscanpp, make_dbscanpp_kcenter),
    "laf_dbscanpp": (repro.core.laf_dbscanpp, make_laf_dbscanpp),
}


class TestNearestCoreAssignment:
    @pytest.mark.parametrize("assign", [True, False])
    def test_point_exactly_eps_from_its_only_core(self, assign):
        X, eps = star_with_boundary_point()
        clusterers = [
            DBSCANPlusPlus(eps=eps, tau=4, p=1.0, assign_within_eps=assign),
            LAFDBSCANPlusPlus(
                eps=eps,
                tau=4,
                estimator=ExactCardinalityEstimator(),
                p=1.0,
                assign_within_eps=assign,
            ),
        ]
        for clusterer in clusterers:
            result = clusterer.fit(X)
            assert result.core_mask.tolist() == [True] + [False] * 4
            assert result.labels[:4].tolist() == [0] * 4
            assert result.labels[4] == (NOISE if assign else 0)

    @pytest.mark.parametrize("name", sorted(CLUSTERERS))
    @pytest.mark.parametrize("assign", [True, False])
    @pytest.mark.parametrize("data", ["clusterable_data", "blob_data"])
    @pytest.mark.parametrize("eps, tau", [(0.5, 5), (0.3, 3)])
    def test_labels_match_float64_oracle(
        self, name, assign, data, eps, tau, request, monkeypatch
    ):
        X = request.getfixturevalue(data)
        X = X[0] if isinstance(X, tuple) else X
        module, make = CLUSTERERS[name]
        fast = make(eps, tau, assign).fit(X)
        assert fast.stats["n_core"] > 0
        monkeypatch.setattr(module, "connected_components_within", bfs_components)
        monkeypatch.setattr(module, "CosineRangeKernel", Float64NearestCore)
        oracle = make(eps, tau, assign).fit(X)
        assert np.array_equal(fast.labels, oracle.labels)
        assert np.array_equal(fast.core_mask, oracle.core_mask)
        if not assign:
            assert (fast.labels != NOISE).all()
