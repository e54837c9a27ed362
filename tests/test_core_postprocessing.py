"""Tests for Algorithm 3 (PostProcessing)."""

import numpy as np

from repro.core import PartialNeighborMap, post_process


def build_E(n, entries):
    """entries: {stop_point: [partial neighbors]}"""
    E = PartialNeighborMap(n)
    for p, neighbors in entries.items():
        E.register_stop_point(p)
        for q in neighbors:
            E.update(q, np.array([p]))
    return E


class TestNoFalseNegatives:
    def test_below_tau_untouched(self):
        labels = np.array([0, 0, 1, 1, -1])
        E = build_E(5, {4: [0, 2]})  # only 2 partial neighbors < tau=3
        outcome = post_process(labels, E, tau=3, seed=0)
        assert np.array_equal(outcome.labels, labels)
        assert outcome.n_false_negatives == 0
        assert outcome.n_merges == 0

    def test_empty_E(self):
        labels = np.array([0, 1, -1])
        outcome = post_process(labels, PartialNeighborMap(3), tau=2, seed=0)
        assert np.array_equal(outcome.labels, labels)

    def test_input_not_mutated(self):
        labels = np.array([0, 0, 1, 1, -1])
        E = build_E(5, {4: [0, 1, 2, 3]})
        post_process(labels, E, tau=3, seed=0)
        assert labels[4] == -1


class TestMerging:
    def test_split_cluster_is_repaired(self):
        # Points 0,1 in cluster 0; points 2,3 in cluster 1; point 4 is a
        # false stop point adjacent to all of them -> one merged cluster.
        labels = np.array([0, 0, 1, 1, -1])
        E = build_E(5, {4: [0, 1, 2, 3]})
        outcome = post_process(labels, E, tau=3, seed=0)
        assert outcome.n_false_negatives == 1
        assert outcome.n_merges == 1
        merged = outcome.labels
        assert merged[0] == merged[1] == merged[2] == merged[3] == merged[4]

    def test_false_negative_point_joins_destination(self):
        labels = np.array([0, 0, 0, -1])
        E = build_E(4, {3: [0, 1, 2]})
        outcome = post_process(labels, E, tau=3, seed=0)
        assert outcome.labels[3] == outcome.labels[0]

    def test_labeled_stop_point_merges_its_own_cluster(self):
        # Point 4 was claimed as a border of cluster 0 before it was
        # recorded, so E(4) only holds cluster-1 points. Being core, it
        # bridges both clusters; moving it alone would split cluster 0.
        labels = np.array([0, 0, 1, 1, 0])
        E = build_E(5, {4: [2, 3]})
        outcome = post_process(labels, E, tau=2, seed=0)
        assert outcome.n_merges == 1
        assert len(set(outcome.labels.tolist())) == 1

    def test_three_way_merge(self):
        labels = np.array([0, 1, 2, -1])
        E = build_E(4, {3: [0, 1, 2]})
        outcome = post_process(labels, E, tau=3, seed=0)
        assert outcome.n_merges == 2
        assert len(set(outcome.labels.tolist())) == 1

    def test_noise_partial_neighbors_stay_noise(self):
        labels = np.array([0, 0, -1, -1, -1])
        # Stop point 4 has neighbors {0, 1, 2}: 2 is noise and must not
        # be pulled into the cluster by the merge.
        E = build_E(5, {4: [0, 1, 2]})
        outcome = post_process(labels, E, tau=3, seed=0)
        assert outcome.labels[2] == -1
        assert outcome.labels[4] == outcome.labels[0]

    def test_all_noise_neighbors_no_merge(self):
        labels = np.array([-1, -1, -1, -1])
        E = build_E(4, {3: [0, 1, 2]})
        outcome = post_process(labels, E, tau=3, seed=0)
        assert outcome.n_false_negatives == 1
        assert outcome.n_merges == 0
        assert np.array_equal(outcome.labels, labels)

    def test_chained_merges_compose(self):
        # Two false stop points each bridging a different pair of the
        # same three clusters; union-find must chain them.
        labels = np.array([0, 0, 1, 1, 2, 2, -1, -1])
        E = build_E(8, {6: [0, 1, 2, 3], 7: [2, 3, 4, 5]})
        outcome = post_process(labels, E, tau=3, seed=0)
        cluster_ids = set(outcome.labels[outcome.labels >= 0].tolist())
        assert len(cluster_ids) == 1

    def test_deterministic_given_seed(self):
        labels = np.array([0, 0, 1, 1, 2, 2, -1])
        E = build_E(7, {6: [0, 2, 4]})
        a = post_process(labels, E, tau=3, seed=5)
        b = post_process(labels, E, tau=3, seed=5)
        assert np.array_equal(a.labels, b.labels)

    def test_unrelated_clusters_untouched(self):
        labels = np.array([0, 0, 1, 1, 2, 2, -1])
        E = build_E(7, {6: [0, 1, 2]})  # bridges clusters 0 and 1 only
        outcome = post_process(labels, E, tau=3, seed=0)
        assert outcome.labels[0] == outcome.labels[2]
        # Cluster 2 remains distinct.
        assert outcome.labels[4] != outcome.labels[0]
