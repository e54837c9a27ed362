"""Algorithm 3: detect false negatives and merge wrongly split clusters.

A false-negative prediction (a true core point predicted as stop point)
can split one DBSCAN cluster into several: the cluster expansion stops
at the false stop point instead of flowing through it. Post-processing
repairs this with only the bookkeeping gathered during clustering:

for every recorded stop point ``P`` with ``|E(P)| >= tau`` (proof that
``P`` is truly core), pick a random non-noise partial neighbor ``P'``,
take its cluster as the destination, and merge the clusters of all
points in ``E(P)`` — and ``P``'s own cluster, if it already has one —
into it.

Merges use union-find so chains of repairs compose; the false-negative
point itself joins the destination cluster (it is a core member of the
merged cluster by construction).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.clustering.base import NOISE
from repro.clustering.union_find import UnionFind
from repro.core.partial_neighbors import PartialNeighborMap
from repro.rng import ensure_rng

__all__ = ["PostProcessOutcome", "post_process"]


@dataclasses.dataclass(frozen=True)
class PostProcessOutcome:
    """Labels after repair plus the counters the paper discusses."""

    labels: np.ndarray
    n_false_negatives: int
    n_merges: int


def post_process(
    labels: np.ndarray,
    partial_neighbors: PartialNeighborMap,
    tau: int,
    seed: int | np.random.Generator | None = 0,
) -> PostProcessOutcome:
    """Run Algorithm 3 over a finished labeling.

    Parameters
    ----------
    labels:
        Cluster ids with ``-1`` noise, as produced by the host algorithm
        *before* repair. Not mutated.
    partial_neighbors:
        The map ``E`` accumulated during clustering.
    tau:
        The core threshold; ``|E(P)| >= tau`` flags a false negative.
    seed:
        Seed for the random destination-cluster choice (line 3).
    """
    labels = np.asarray(labels, dtype=np.int64)
    rng = ensure_rng(seed)
    n_clusters = int(labels.max()) + 1 if labels.size and labels.max() >= 0 else 0
    uf = UnionFind(n_clusters)
    out = labels.copy()
    n_false_negatives = 0
    n_merges = 0
    for point, neighbors in partial_neighbors.items():
        if len(neighbors) < tau:
            continue
        n_false_negatives += 1
        members = np.fromiter(neighbors, dtype=np.int64)
        member_labels = out[members]
        non_noise = members[member_labels != NOISE]
        if non_noise.size == 0:
            continue  # nothing to merge into — every partial neighbor is noise
        # Line 3: randomly select a non-noise neighbor; its cluster is
        # the destination.
        destination_point = int(rng.choice(np.sort(non_noise)))
        destination = uf.find(int(out[destination_point]))
        merged = out[non_noise]
        if out[point] != NOISE:
            # A stop point claimed as a border before it was recorded has
            # its own cluster missing from E(P); as P is core, that
            # cluster merges too, so repair never splits P from it.
            merged = np.append(merged, out[point])
        for label in np.unique(merged):
            root = uf.find(int(label))
            if root != destination:
                uf.union(destination, root)
                destination = uf.find(destination)
                n_merges += 1
        # The false negative itself is a core member of the merged cluster.
        out[point] = destination
    if n_clusters:
        cluster_ids = out >= 0
        out[cluster_ids] = [uf.find(int(label)) for label in out[cluster_ids]]
    return PostProcessOutcome(
        labels=out,
        n_false_negatives=n_false_negatives,
        n_merges=n_merges,
    )
