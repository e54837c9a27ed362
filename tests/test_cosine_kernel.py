"""Edge cases of the float32 cosine range kernel and its float64 re-check.

The contract (``docs/engine.md``): every neighbour decision equals the
float64 predicate ``max(0, 1 - q·x) < eps`` with the dot taken by the
kernel's one fixed reduction, a row-wise ``einsum`` over the pair. The
reference below evaluates exactly that predicate on every pair, in pure
float64, and the tests put pairs at, and one ulp either side of, ``eps``.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distances import normalize_rows
from repro.distances.cosine_kernel import CosineRangeKernel
from repro.distances.metric import COSINE, EUCLIDEAN
from repro.index import BruteForceIndex
from repro.index.base import NeighborIndex
from repro.index.sharded import ShardedIndex


def reference_distances(Q: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Pure float64 ``max(0, 1 - q·x)`` for every pair, shape (len(Q), len(X))."""
    rr, cc = np.meshgrid(np.arange(len(Q)), np.arange(len(X)), indexing="ij")
    dots = np.einsum("ij,ij->i", Q[rr.ravel()], X[cc.ravel()])
    return np.maximum(0.0, 1.0 - dots).reshape(len(Q), len(X))


def reference_rows(Q: np.ndarray, X: np.ndarray, eps: float) -> list[np.ndarray]:
    return [np.flatnonzero(row < eps) for row in reference_distances(Q, X)]


def reference_nearest(Q: np.ndarray, X: np.ndarray, eps: float) -> np.ndarray:
    out = np.full(len(Q), -1, dtype=np.int64)
    for i, row in enumerate(reference_distances(Q, X)):
        hits = np.flatnonzero(row < eps)
        if hits.size:
            out[i] = hits[row[hits] == row[hits].min()].min()
    return out


def assert_matches_reference(index: BruteForceIndex, Q: np.ndarray, eps: float):
    X = index.points
    expected = reference_rows(Q, X, eps)
    got = index.batch_range_query(Q, eps)
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert np.array_equal(g, e)
    assert index.batch_range_count(Q, eps).tolist() == [e.size for e in expected]
    for q, e in zip(Q, expected):
        assert np.array_equal(index.range_query(q, eps), e)
        assert index.range_count(q, eps) == e.size
    assert np.array_equal(
        index.batch_nearest_within(Q, eps, COSINE), reference_nearest(Q, X, eps)
    )
    assert_multi_matches_reference(index, Q, [eps])


def assert_multi_matches_reference(index: BruteForceIndex, Q: np.ndarray, radii):
    """``range_count_multi_eps`` against the float64 predicate and per-radius counts."""
    got = index.range_count_multi_eps(Q, radii)
    assert got.shape == (len(Q), len(radii))
    distances = reference_distances(Q, index.points)
    for j, eps in enumerate(radii):
        assert got[:, j].tolist() == np.count_nonzero(distances < eps, axis=1).tolist()
        assert np.array_equal(got[:, j], index.batch_range_count(Q, eps))
    return got


def unit_rows(n: int, dim: int, seed: int) -> np.ndarray:
    return normalize_rows(np.random.default_rng(seed).normal(size=(n, dim)))


def pair_distance(q: np.ndarray, x: np.ndarray) -> float:
    return float(reference_distances(q[None], x[None])[0, 0])


class TestBoundary:
    @pytest.mark.parametrize("dim", [3, 64, 768])
    @pytest.mark.parametrize("ulps", [-1, 0, 1])
    def test_pair_at_eps_and_one_ulp_either_side(self, dim, ulps):
        X = unit_rows(12, dim, seed=dim)
        index = BruteForceIndex().build(X)
        for j in range(1, 6):
            d = pair_distance(X[0], X[j])
            eps = d
            for _ in range(abs(ulps)):
                eps = float(np.nextafter(eps, np.inf if ulps > 0 else -np.inf))
            # Strict <: the pair at exactly eps is out, one ulp above is in.
            assert (j in index.range_query(X[0], eps)) == (ulps > 0)
            assert_matches_reference(index, X[:3], eps)

    def test_duplicates_at_distance_zero(self):
        base = unit_rows(5, 32, seed=1)
        X = np.vstack([base, base[2], base[2], base[4]])
        index = BruteForceIndex().build(X)
        for eps in (1e-12, 0.3, 1.0):
            assert_matches_reference(index, X, eps)
        assert index.range_query(base[2], 1e-12).tolist() == [2, 5, 6]
        # Every duplicate is at distance 0: the tie goes to the smallest index.
        nearest = index.batch_nearest_within(X[[5, 6, 7]], 0.3, COSINE)
        assert nearest.tolist() == [2, 2, 4]

    def test_naive_float32_compare_is_wrong_and_recheck_fixes_it(self):
        """A constructed pair the plain float32 threshold misjudges."""
        rng = np.random.default_rng(3)
        dim = 768
        found = 0
        for _ in range(200):
            q, x = normalize_rows(rng.normal(size=(2, dim)) + 3.0 * np.ones(dim))
            dot64 = 1.0 - pair_distance(q, x)
            dot32 = np.float32(q.astype(np.float32) @ x.astype(np.float32))
            if float(dot32) == dot64:
                continue
            # Put the threshold t = 1 - eps strictly between the two dots.
            eps = 1.0 - (dot64 + float(dot32)) / 2.0
            naive = bool(dot32 > np.float32(1.0 - eps))
            truth = bool(max(0.0, 1.0 - dot64) < eps)
            if naive == truth:
                continue
            found += 1
            index = BruteForceIndex().build(np.vstack([x, q]))
            assert (0 in index.range_query(q, eps)) == truth
            assert_matches_reference(index, q[None], eps)
        assert found > 0

    def test_rows_with_norm_one_plus_minus_1e4(self):
        X = unit_rows(40, 128, seed=4)
        X[::3] *= 1.0 + 0.99e-4
        X[1::3] *= 1.0 - 0.99e-4
        index = BruteForceIndex().build(X)
        for j in (1, 2, 3):
            d = pair_distance(X[0], X[j])
            for eps in (d, float(np.nextafter(d, np.inf)), d + 1e-9, d - 1e-9):
                assert_matches_reference(index, X[:8], eps)
        # Near-parallel rows with norms above 1: dots exceed 1 and clamp.
        assert_matches_reference(index, X, 1e-6)

    def test_nonpositive_eps_is_empty(self):
        X = unit_rows(6, 8, seed=5)
        index = BruteForceIndex().build(X)
        for eps in (0.0, -0.5):
            assert all(row.size == 0 for row in index.batch_range_query(X, eps))
            assert index.batch_nearest_within(X, eps, COSINE).tolist() == [-1] * 6


class TestDegenerateShapes:
    def test_single_point(self):
        X = unit_rows(1, 16, seed=6)
        index = BruteForceIndex().build(X)
        assert index.range_query(X[0], 0.1).tolist() == [0]
        assert index.batch_nearest_within(X, 0.1, COSINE).tolist() == [0]
        assert_matches_reference(index, unit_rows(4, 16, seed=7), 1.0)

    def test_empty_query_batch(self):
        index = BruteForceIndex().build(unit_rows(10, 16, seed=8))
        Q = np.empty((0, 16))
        assert index.batch_range_query(Q, 0.5) == []
        assert index.batch_range_count(Q, 0.5).shape == (0,)
        assert index.batch_nearest_within(Q, 0.5, COSINE).shape == (0,)
        indptr, indices = index.batch_range_csr(Q, 0.5)
        assert indptr.tolist() == [0] and indices.size == 0

    def test_more_shards_than_points(self):
        X = unit_rows(3, 16, seed=9)
        single = BruteForceIndex().build(X)
        with ShardedIndex(n_shards=5).build(X) as sharded:
            for eps in (0.5, 1.5):
                for g, e in zip(
                    sharded.batch_range_query(X, eps), single.batch_range_query(X, eps)
                ):
                    assert np.array_equal(g, e)
                assert np.array_equal(
                    sharded.batch_nearest_within(X, eps, COSINE),
                    single.batch_nearest_within(X, eps, COSINE),
                )


class TestOneDecisionPerPair:
    def test_alone_in_a_block_and_through_a_shard(self):
        rng = np.random.default_rng(10)
        X = unit_rows(1500, 768, seed=11)
        q = X[700]
        eps = pair_distance(q, X[3])
        # Nudge eps into the float32 band so the pair needs the re-check.
        eps = float(np.nextafter(eps, np.inf))
        block = X[rng.permutation(len(X))[:1024]].copy()
        block[517] = q
        index = BruteForceIndex(block_size=1024).build(X)
        alone = index.range_query(q, eps)
        in_block = index.batch_range_query(block, eps)[517]
        with ShardedIndex(n_shards=3).build(X) as sharded:
            via_shard = sharded.batch_range_query(block, eps)[517]
        assert 3 in alone
        assert np.array_equal(alone, in_block)
        assert np.array_equal(alone, via_shard)
        assert np.array_equal(alone, reference_rows(q[None], X, eps)[0])


class TestKernel:
    def test_band_scales_with_norms(self):
        X = unit_rows(4, 768, seed=12)
        kernel = CosineRangeKernel(X)
        small, large = kernel.band(np.vstack([X[0], 2.0 * X[0]]))
        assert 0.0 < small < large
        # Near γ_768 for float32: about 4.6e-5 on unit rows.
        assert 4e-5 < small < 6e-5

    def test_nearest_within_matches_generic_rule(self):
        X = unit_rows(300, 32, seed=13)
        Q = unit_rows(50, 32, seed=14)
        index = BruteForceIndex().build(X)
        fast = index.batch_nearest_within(Q, 0.6, COSINE)
        generic = NeighborIndex.batch_nearest_within(index, Q, 0.6, COSINE)
        assert np.array_equal(fast, generic)
        assert (fast >= 0).any() and (fast == -1).any()


class TestNearestWithin:
    @pytest.mark.parametrize("dim", [8, 768])
    def test_infinite_eps_is_the_float64_argmin(self, dim):
        # DBSCAN++'s absorb-everything assignment: nearest with no radius.
        cores = unit_rows(200, dim, seed=dim)
        X = unit_rows(500, dim, seed=dim + 1)
        got = CosineRangeKernel(cores).nearest_within(X, np.inf)
        assert np.array_equal(got, np.argmin(1.0 - X @ cores.T, axis=1))
        assert np.array_equal(got, reference_nearest(X, cores, np.inf))

    def test_sharded_and_unsharded_agree_on_near_tied_points(self):
        # Near-copies of one point, perturbed at the ulp scale, so the
        # query's distances to them tie or differ in the last bits and
        # any second reduction order could pick another winner.
        rng = np.random.default_rng(15)
        base = unit_rows(1, 64, seed=16)[0]
        copies = base + rng.normal(size=(40, 64)) * 1e-16
        X = normalize_rows(np.vstack([unit_rows(60, 64, seed=17), copies]))
        Q = normalize_rows(base + rng.normal(size=(25, 64)) * 1e-3)
        single = BruteForceIndex(block_size=8).build(X)
        expected = reference_nearest(Q, X, 0.4)
        assert (expected >= 60).all()
        assert np.array_equal(single.batch_nearest_within(Q, 0.4, COSINE), expected)
        with ShardedIndex(n_shards=3).build(X) as sharded:
            assert np.array_equal(
                sharded.batch_nearest_within(Q, 0.4, COSINE), expected
            )

    def test_generic_rule_measures_with_the_given_metric(self):
        # An index with no ``metric`` of its own, serving euclidean
        # queries over rows of different norms: the candidates' order
        # differs between euclidean and cosine distance.
        rng = np.random.default_rng(18)
        X = rng.normal(size=(60, 8)) * rng.uniform(0.5, 2.0, size=(60, 1))
        Q = rng.normal(size=(30, 8))
        inner = BruteForceIndex(metric="euclidean").build(X)
        host = SimpleNamespace(points=X, batch_range_query=inner.batch_range_query)
        got = NeighborIndex.batch_nearest_within(host, Q, 2.5, EUCLIDEAN)
        expected = np.full(len(Q), -1)
        for i, q in enumerate(Q):
            d = np.linalg.norm(X - q, axis=1)
            hits = np.flatnonzero(d < 2.5)
            if hits.size:
                expected[i] = hits[np.argmin(d[hits])]
        assert np.array_equal(got, expected)
        as_cosine = NeighborIndex.batch_nearest_within(host, Q, 2.5, COSINE)
        assert not np.array_equal(got, as_cosine)


class TestMultiRadiusCounts:
    """``range_count_multi_eps``: one GEMM per block shared by every radius."""

    @pytest.mark.parametrize("dim", [3, 64, 768])
    def test_radius_at_pair_distance_and_one_ulp_either_side(self, dim):
        X = unit_rows(12, dim, seed=dim)
        radii = []
        for j in range(1, 6):
            d = pair_distance(X[0], X[j])
            radii += [np.nextafter(d, -np.inf), d, np.nextafter(d, np.inf)]
        got = assert_multi_matches_reference(BruteForceIndex().build(X), X[:3], radii)
        # Strict <: the pair at exactly eps is out, one ulp above is in.
        for j in range(1, 6):
            below, at, above = got[0, 3 * (j - 1) : 3 * j]
            assert below == at < above

    def test_duplicates(self):
        base = unit_rows(5, 32, seed=1)
        X = np.vstack([base, base[2], base[2], base[4]])
        got = assert_multi_matches_reference(
            BruteForceIndex().build(X), X, [1e-12, 0.3, 1.0]
        )
        assert got[2, 0] == got[5, 0] == got[6, 0] == 3

    def test_single_point_and_empty_batch(self):
        single = BruteForceIndex().build(unit_rows(1, 16, seed=6))
        Q = unit_rows(4, 16, seed=7)
        assert_multi_matches_reference(single, Q, [0.5, 1.0, 2.0])
        index = BruteForceIndex().build(unit_rows(10, 16, seed=8))
        got = index.range_count_multi_eps(np.empty((0, 16)), [0.2, 0.5])
        assert got.shape == (0, 2) and got.dtype == np.int64

    def test_unsorted_repeated_and_nonpositive_radii(self):
        X = unit_rows(50, 24, seed=19)
        radii = [0.9, 0.2, 0.9, 0.0, -0.5, 0.45, 0.2]
        got = assert_multi_matches_reference(BruteForceIndex().build(X), X[:10], radii)
        assert np.array_equal(got[:, 0], got[:, 2])
        assert np.array_equal(got[:, 1], got[:, 6])
        assert not got[:, 3].any() and not got[:, 4].any()

    def test_same_counts_straight_and_across_block_boundaries(self):
        X = unit_rows(300, 64, seed=20)
        Q = X[:40]
        # Radii inside the float32 band of real pairs, so re-checks happen.
        radii = [np.nextafter(pair_distance(X[i], X[i + 1]), np.inf) for i in range(5)]
        straight = BruteForceIndex(block_size=1024).build(X)
        blocked = BruteForceIndex(block_size=7).build(X)
        got = assert_multi_matches_reference(blocked, Q, radii)
        assert np.array_equal(straight.range_count_multi_eps(Q, radii), got)

    def test_euclidean_keeps_float64_blocks(self):
        rng = np.random.default_rng(21)
        X = rng.normal(size=(40, 5))
        index = BruteForceIndex(metric="euclidean").build(X)
        radii = [0.5, 2.0, 0.0]
        got = index.range_count_multi_eps(X[:6], radii)
        for j, eps in enumerate(radii):
            assert np.array_equal(got[:, j], index.batch_range_count(X[:6], eps))


@st.composite
def near_boundary_cases(draw):
    seed = draw(st.integers(0, 2**16))
    dim = draw(st.sampled_from([2, 5, 16, 97, 300]))
    n = draw(st.integers(1, 24))
    X = unit_rows(n, dim, seed=seed)
    # Optional near-copies so some distances sit at ~0.
    if draw(st.booleans()):
        X = normalize_rows(np.vstack([X, X[: n // 2] + 1e-9]))
    i, j = draw(st.integers(0, len(X) - 1)), draw(st.integers(0, len(X) - 1))
    eps = pair_distance(X[i], X[j])
    shift = draw(st.sampled_from(["ulps", "tiny"]))
    if shift == "ulps":
        for _ in range(draw(st.integers(0, 3))):
            eps = float(np.nextafter(eps, np.inf if draw(st.booleans()) else -np.inf))
    else:
        eps += draw(st.floats(-1e-6, 1e-6))
    eps = max(eps, 1e-300)
    return X, X[: draw(st.integers(0, len(X)))], eps


@given(near_boundary_cases())
@settings(max_examples=150, deadline=None)
def test_decisions_equal_float64_reference(case):
    X, Q, eps = case
    index = BruteForceIndex(block_size=7).build(X)
    assert_matches_reference(index, Q, eps)
