"""Shared test/benchmark helpers: fixture data and reference algorithms.

Lives inside the package (rather than in a ``conftest.py``) so both test
trees — ``tests/`` and ``benchmarks/`` — and downstream users writing
their own differential tests can import the same helpers without relying
on pytest's conftest module injection, which breaks when two conftests
with the same bare module name are collected in one run.

``reference_dbscan`` is deliberately implemented independently of the
library code paths (full distance matrix + BFS) so algorithmic tests
compare two distinct implementations rather than a module with itself.
``reference_mlp_fit`` is the float64 training loop that
``MLPRegressor.fit`` replaced with a float32 one: the oracle the
reduced-precision estimator is tested and benchmarked against.

The runtime resource sanitizer lives in the ``repro.testing.sanitizer``
submodule (a pytest plugin — load it with ``-p repro.testing.sanitizer``;
it is intentionally not imported here so importing the helpers never
requires pytest).
"""

from __future__ import annotations

import numpy as np

from repro.distances import normalize_rows

__all__ = [
    "canonical",
    "make_blobs_on_sphere",
    "median_q_error",
    "reference_dbscan",
    "reference_mlp_fit",
    "write_benchmark_rows",
]


def write_benchmark_rows(path: str, rows: list[dict]) -> str:
    """Write one benchmark's measured rows as ``{"rows": [...]}`` JSON.

    The single writer shared by every micro-benchmark that feeds the CI
    regression gate (``benchmarks/check_regression.py`` expects exactly
    this shape); delegates to the atomic
    :func:`repro.experiments.reporting.save_json` so an interrupted run
    never leaves a torn file. Returns ``path`` for convenience.
    """
    # Imported lazily: repro.testing stays importable without dragging in
    # the experiments package.
    from repro.experiments.reporting import save_json

    save_json(path, {"rows": list(rows)})
    return path


def reference_dbscan(X: np.ndarray, eps: float, tau: int) -> np.ndarray:
    """Naive DBSCAN: O(n^2) matrix + breadth-first cluster expansion."""
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    dists = 1.0 - X @ X.T
    neighbor_sets = [np.flatnonzero(dists[i] < eps) for i in range(n)]
    core = np.array([len(nbrs) >= tau for nbrs in neighbor_sets])
    labels = np.full(n, -1, dtype=np.int64)
    cluster = -1
    for start in range(n):
        if labels[start] != -1 or not core[start]:
            continue
        cluster += 1
        frontier = [start]
        labels[start] = cluster
        while frontier:
            p = frontier.pop()
            if not core[p]:
                continue
            for q in neighbor_sets[p]:
                if labels[q] == -1:
                    labels[q] = cluster
                    frontier.append(q)
    return labels


def reference_mlp_fit(model, X: np.ndarray, y: np.ndarray):
    """Train an ``MLPRegressor`` in float64, one Adam state per tensor.

    The loop ``MLPRegressor.fit`` ran before it moved to float32. It
    makes the same seeded draws in the same order (He initialization,
    then one permutation per epoch), so it sees the same batches as a
    float32 fit of the same seed. It trains through the model's own
    ``_forward`` and ``_backward``, which compute in float64 here because
    the features and parameters are float64. Returns ``model``.
    """
    # Imported lazily: the helpers stay importable without the estimators.
    from repro.estimators.mlp import TrainingHistory

    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    model._feature_mean = X.mean(axis=0)
    std = X.std(axis=0)
    std[std < 1e-12] = 1.0
    model._feature_std = std
    Xs = model._standardize(X)
    model._init_params(X.shape[1])
    params = model._weights + model._biases
    moments = [(np.zeros(p.shape), np.zeros(p.shape)) for p in params]
    beta1, beta2, adam_eps, lr = 0.9, 0.999, 1e-8, model.learning_rate
    step = 0
    model.history = TrainingHistory()
    n = Xs.shape[0]
    for _ in range(model.epochs):
        order = model._rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, model.batch_size):
            batch = order[start : start + model.batch_size]
            pred, activations = model._forward(Xs[batch])
            residual = pred - y[batch]
            epoch_loss += float((residual**2).sum())
            grad_w, grad_b = model._backward(activations, residual)
            step += 1
            for param, grad, (m, v) in zip(params, grad_w + grad_b, moments):
                m[...] = beta1 * m + (1.0 - beta1) * grad
                v[...] = beta2 * v + (1.0 - beta2) * grad * grad
                m_hat = m / (1.0 - beta1**step)
                v_hat = v / (1.0 - beta2**step)
                param -= lr * m_hat / (np.sqrt(v_hat) + adam_eps)
        model.history.losses.append(epoch_loss / n)
    model._fold_cache = None
    return model


def median_q_error(estimated: np.ndarray, true: np.ndarray) -> float:
    """Median of ``max(est/true, true/est)``, both counts floored at 1."""
    est = np.maximum(np.asarray(estimated, dtype=np.float64), 1.0)
    ref = np.maximum(np.asarray(true, dtype=np.float64), 1.0)
    return float(np.median(np.maximum(est / ref, ref / est)))


def canonical(labels: np.ndarray) -> np.ndarray:
    """Relabel clusters in first-appearance order (noise preserved)."""
    labels = np.asarray(labels)
    out = np.full_like(labels, -1)
    mapping: dict[int, int] = {}
    for i, label in enumerate(labels):
        if label == -1:
            continue
        if label not in mapping:
            mapping[label] = len(mapping)
        out[i] = mapping[label]
    return out


def make_blobs_on_sphere(
    n_per_cluster: int,
    n_clusters: int,
    dim: int,
    spread: float = 0.15,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Well-separated spherical blobs: easy ground truth for clustering."""
    rng = np.random.default_rng(seed)
    centers = normalize_rows(rng.normal(size=(n_clusters, dim)))
    parts, labels = [], []
    for c, center in enumerate(centers):
        pts = center[None, :] + spread * rng.normal(
            size=(n_per_cluster, dim)
        ) / np.sqrt(dim)
        parts.append(normalize_rows(pts))
        labels.append(np.full(n_per_cluster, c))
    X = np.vstack(parts)
    y = np.concatenate(labels)
    order = rng.permutation(X.shape[0])
    return X[order], y[order]
