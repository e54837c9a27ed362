"""Independent answers the benchmark checks the program's outputs against.

The DBSCAN reference is built from one blocked float64 GEMM and
``scipy.sparse.csgraph.connected_components`` — no code of the program
under test. Border labels depend on scan order, so only the core mask,
the partition of the core points into clusters and the noise set are
compared.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

BLOCK_ROWS = 1024


@dataclass(frozen=True)
class DBSCANReference:
    core: np.ndarray  # bool, one per point
    core_component: np.ndarray  # component id per core point, in point order
    noise: np.ndarray  # bool: not core and no core within eps


def dbscan_reference(X: np.ndarray, eps: float, tau: int) -> DBSCANReference:
    """Exact DBSCAN structure of the unit rows ``X`` under cosine distance."""
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    rows, cols = [], []
    for lo in range(0, n, BLOCK_ROWS):
        hit = (1.0 - X[lo : lo + BLOCK_ROWS] @ X.T) < eps
        r, c = np.nonzero(hit)
        rows.append(r + lo)
        cols.append(c)
    r = np.concatenate(rows)
    c = np.concatenate(cols)
    degree = np.bincount(r, minlength=n)
    core = degree >= tau
    core_ids = np.flatnonzero(core)
    position = np.full(n, -1, dtype=np.int64)
    position[core_ids] = np.arange(core_ids.size)
    both = core[r] & core[c]
    graph = csr_matrix(
        (np.ones(int(both.sum()), dtype=np.int8), (position[r[both]], position[c[both]])),
        shape=(core_ids.size, core_ids.size),
    )
    _, component = connected_components(graph, directed=False)
    near_core = np.zeros(n, dtype=bool)
    near_core[r[core[c]]] = True
    return DBSCANReference(core=core, core_component=component, noise=~near_core)


def same_partition(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two label arrays group the same items together."""
    if a.shape != b.shape:
        return False
    if a.size == 0:
        return True
    pairs = np.unique(np.stack([a, b], axis=1), axis=0)
    return pairs.shape[0] == np.unique(a).size == np.unique(b).size


def dbscan_errors(labels: np.ndarray, core_mask: np.ndarray, ref: DBSCANReference) -> list[str]:
    """What a DBSCAN result gets wrong against the reference (empty if nothing)."""
    errors = []
    if labels.shape != ref.core.shape or not np.array_equal(core_mask, ref.core):
        return ["core mask differs from the reference"]
    if not same_partition(labels[ref.core], ref.core_component):
        errors.append("core points are partitioned differently from the reference")
    if not np.array_equal(labels == -1, ref.noise):
        errors.append("noise set differs from the reference")
    return errors
