"""Connected components of the eps-proximity graph over a point set.

DBSCAN++ (and LAF-DBSCAN++) cluster their detected core points by
connecting any two within ``eps``. The graph is built as one sparse CSR
range self-join on the float32 cosine kernel
(:class:`~repro.distances.cosine_kernel.CosineRangeKernel`), so an edge
exists exactly when ``max(0, 1 - exact_dots) < eps`` — the predicate the
core counts use — and ``scipy.sparse.csgraph`` labels its components.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from repro.distances.cosine_kernel import CosineRangeKernel

__all__ = ["connected_components_within"]


def connected_components_within(X: np.ndarray, eps: float) -> np.ndarray:
    """Component id per row of ``X`` under cosine-distance-< eps adjacency.

    Returns an int array of component labels ``0 .. k-1`` (every row gets
    one; singletons form their own components), numbered in order of
    each component's smallest member.
    """
    X = np.asarray(X, dtype=np.float64)
    m = X.shape[0]
    indptr, indices = CosineRangeKernel(X).range_csr(X, eps)
    graph = csr_matrix((np.ones(indices.size, dtype=np.int8), indices, indptr), (m, m))
    _, labels = connected_components(graph, directed=False)
    return labels.astype(np.int64)
