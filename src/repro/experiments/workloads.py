"""Prepared workloads: dataset + split + fitted estimator bundles.

The paper's protocol for every experiment is: generate the dataset,
split 8:2, train the cardinality estimator on the training split, then
run all methods on the test split. This module packages that pipeline
and memoizes it in-process, because estimator training is by far the
most expensive step and is shared by many benchmarks.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.data.datasets import DATASET_SPECS, load_dataset
from repro.estimators.rmi import RMICardinalityEstimator

__all__ = ["Workload", "prepare_workload", "prepare_workloads", "clear_cache"]

#: Process-wide memo of prepared workloads.
_CACHE: dict[tuple, "Workload"] = {}  # reprolint: disable=RPL003 -- keyed
# memo with an exported clear_cache(); entries are deterministic in the key


@dataclasses.dataclass(frozen=True)
class Workload:
    """One ready-to-cluster experiment input.

    ``X_test`` is what the methods cluster (the paper's protocol);
    ``estimator`` is already fitted on ``X_train``; ``alpha`` is the
    dataset's Table 1 error factor.
    """

    name: str
    X_train: np.ndarray
    X_test: np.ndarray
    estimator: RMICardinalityEstimator
    alpha: float
    scale: float
    seed: int


def prepare_workload(
    name: str,
    scale: float = 0.01,
    seed: int = 0,
    epochs: int = 25,
    n_train_queries: int | None = 400,
    hidden_layers: tuple[int, ...] = (64, 64, 32),
) -> Workload:
    """Generate, split and train for one dataset (memoized).

    The estimator defaults are the benchmark-friendly reduction of the
    paper's setup; pass ``epochs=200``,
    ``hidden_layers=(512, 512, 256, 128)``, ``n_train_queries=None`` for
    the full paper configuration.
    """
    key = (name, scale, seed, epochs, n_train_queries, tuple(hidden_layers))
    if key in _CACHE:
        return _CACHE[key]
    ds = load_dataset(name, scale=scale, seed=seed)
    X_train, X_test = ds.split()
    estimator = RMICardinalityEstimator(
        hidden_layers=hidden_layers,
        epochs=epochs,
        n_train_queries=n_train_queries,
        seed=seed,
    ).fit(X_train)
    workload = Workload(
        name=name,
        X_train=X_train,
        X_test=X_test,
        estimator=estimator,
        alpha=DATASET_SPECS[name].alpha,
        scale=scale,
        seed=seed,
    )
    _CACHE[key] = workload
    return workload


def prepare_workloads(
    names: tuple[str, ...], scale: float = 0.01, seed: int = 0, **estimator_kwargs
) -> dict[str, Workload]:
    """Prepare several datasets with shared settings."""
    return {
        name: prepare_workload(name, scale=scale, seed=seed, **estimator_kwargs)
        for name in names
    }


def clear_cache() -> None:
    """Drop all memoized workloads (tests use this for isolation)."""
    _CACHE.clear()
