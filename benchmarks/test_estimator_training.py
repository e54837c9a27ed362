"""Benchmark: float32 RMI stage-network training vs the float64 loop.

``MLPRegressor.fit`` trains in float32: the parameters, gradients and
Adam moments are flat float32 vectors updated in place once per step.
The reference is ``repro.testing.reference_mlp_fit``, the float64 loop
it replaced (one Adam state per tensor, temporaries every step), which
makes the same seeded draws and so sees the same batches. Both train one
stage network with hidden layers (64, 64, 32) — the width perfbench and
the paper benchmarks train — on the same d=768 training set: an MS
surrogate's training split, 300 queries at the paper's nine radii.

Before anything is timed, both networks are scored by their median
q-error on held-out queries (test-split rows counted against the
training split at every radius): each must beat the constant predictor,
and the float32 one must be within 10% of the float64 one. The tracked
metric is ``rmi_train_speedup`` (float64 seconds over float32 seconds,
same machine, same run), written to
``benchmarks/out/estimator_training_n{N}.json`` for the CI regression
gate.
"""

from __future__ import annotations

import time

import numpy as np
from conftest import out_path

from repro.data import load_dataset
from repro.estimators import MLPRegressor
from repro.estimators.training_data import build_training_set, make_features
from repro.index import BruteForceIndex
from repro.testing import median_q_error, reference_mlp_fit, write_benchmark_rows

SCALE = 0.1  # MS-50k at this scale: 4296 training rows, d = 768
N_QUERIES = 300
N_HELD_OUT = 200
HIDDEN = (64, 64, 32)
EPOCHS = 20
REPEATS = 3


def _best_of(fn, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_rmi_train_speedup():
    X_train, X_test = load_dataset("MS-50k", scale=SCALE, seed=0).split()
    training = build_training_set(X_train, n_queries=N_QUERIES, seed=0)
    targets = np.log1p(training.fractions * training.n_reference)
    held_out = X_test[:N_HELD_OUT]
    index = BruteForceIndex().build(X_train)
    true = index.range_count_multi_eps(held_out, training.radii).T.reshape(-1)
    features = np.vstack([make_features(held_out, r) for r in training.radii])

    def network() -> MLPRegressor:
        return MLPRegressor(hidden_layers=HIDDEN, epochs=EPOCHS, seed=0)

    def q_error(model: MLPRegressor) -> float:
        return median_q_error(np.expm1(model.predict(features)), true)

    float64 = reference_mlp_fit(network(), training.features, targets)
    float32 = network().fit(training.features, targets)
    assert float64._weights[0].dtype == np.float64
    assert float32._weights[0].dtype == np.float32
    q64, q32 = q_error(float64), q_error(float32)
    constant = median_q_error(np.full(true.shape, np.expm1(targets.mean())), true)
    assert q64 < constant and q32 < constant, (q64, q32, constant)
    assert q32 <= 1.10 * q64, (q32, q64)

    t_float64 = _best_of(
        lambda: reference_mlp_fit(network(), training.features, targets)
    )
    t_float32 = _best_of(lambda: network().fit(training.features, targets))
    row = {
        "method": "rmi_train",
        "n": training.n_examples,
        "dim": training.dim,
        "epochs": EPOCHS,
        "q_error_float64": q64,
        "q_error_float32": q32,
        "float64_s": t_float64,
        "float32_s": t_float32,
        "rmi_train_speedup": t_float64 / t_float32,
    }
    print()
    print(
        f"{training.n_examples} examples d={training.dim}, {EPOCHS} epochs: "
        f"float64 {t_float64:.3f}s, float32 {t_float32:.3f}s "
        f"-> {row['rmi_train_speedup']:.2f}x "
        f"(median q-error {q64:.3f} vs {q32:.3f}; constant {constant:.3f})"
    )
    name = f"estimator_training_n{training.n_examples}.json"
    write_benchmark_rows(out_path(name), [row])
