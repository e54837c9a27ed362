"""Tests for RMI save/load."""

import re

import numpy as np
import pytest

from repro.estimators import MLPRegressor, RMICardinalityEstimator
from repro.exceptions import NotFittedError

from repro.testing import make_blobs_on_sphere, reference_mlp_fit

#: Stage-network parameter keys in an RMI ``.npz`` ("s0m0_W0", "s1m1_b2", ...).
PARAM_KEY = re.compile(r"^s\d+m\d+_[Wb]\d+$")


def param_dtypes(path: str) -> set[np.dtype]:
    with np.load(path, allow_pickle=False) as data:
        keys = [k for k in data.files if PARAM_KEY.match(k)]
        assert keys
        assert data["s0m0_feature_mean"].dtype == np.float64
        return {data[k].dtype for k in keys}


class TestRMIPersistence:
    @pytest.fixture(scope="class")
    def fitted(self):
        X, _ = make_blobs_on_sphere(40, 2, 12, spread=0.4, seed=0)
        est = RMICardinalityEstimator(
            hidden_layers=(16, 8), epochs=10, n_train_queries=60, seed=0
        ).fit(X)
        return est, X

    def test_round_trip_predictions_identical(self, fitted, tmp_path):
        est, X = fitted
        path = str(tmp_path / "rmi.npz")
        est.save(path)
        loaded = RMICardinalityEstimator.load(path)
        est.bind(X)
        loaded.bind(X)
        assert np.allclose(
            est.estimate_many(X[:15], 0.5), loaded.estimate_many(X[:15], 0.5)
        )

    def test_round_trip_architecture(self, fitted, tmp_path):
        est, X = fitted
        path = str(tmp_path / "rmi.npz")
        est.save(path)
        loaded = RMICardinalityEstimator.load(path)
        assert loaded.stages == est.stages
        assert loaded.hidden_layers == est.hidden_layers

    def test_loaded_transfers_to_other_data(self, fitted, tmp_path):
        # The paper's transfer argument: reuse on similar distributions.
        est, X = fitted
        path = str(tmp_path / "rmi.npz")
        est.save(path)
        loaded = RMICardinalityEstimator.load(path)
        other, _ = make_blobs_on_sphere(30, 2, 12, spread=0.4, seed=9)
        loaded.bind(other)
        counts = loaded.estimate_many(other[:5], 0.5)
        assert counts.shape == (5,)
        assert np.isfinite(counts).all()

    def test_save_unfitted_raises(self, tmp_path):
        with pytest.raises(NotFittedError):
            RMICardinalityEstimator().save(str(tmp_path / "x.npz"))



class TestWeightPrecision:
    """Artifacts hold float32 weights now; float64 ones still load and predict."""

    EPS = (0.3, 0.5, 0.7)

    def test_float32_weights_round_trip_bit_identical(self, tmp_path):
        X, _ = make_blobs_on_sphere(40, 2, 12, spread=0.4, seed=0)
        est = RMICardinalityEstimator(
            hidden_layers=(16, 8), epochs=5, n_train_queries=60, seed=0
        ).fit(X)
        path = str(tmp_path / "rmi.npz")
        est.save(path)
        assert param_dtypes(path) == {np.dtype(np.float32)}
        loaded = RMICardinalityEstimator.load(path)
        est.bind(X)
        loaded.bind(X)
        for eps in self.EPS:
            assert np.array_equal(
                est.estimate_many(X, eps), loaded.estimate_many(X, eps)
            )

    def test_float64_artifact_loads_and_predicts_as_before(self, tmp_path, monkeypatch):
        # Earlier versions trained, and so saved, in float64; the float64
        # reference loop makes the same weights those versions made.
        X, _ = make_blobs_on_sphere(40, 2, 12, spread=0.4, seed=0)
        monkeypatch.setattr(MLPRegressor, "fit", reference_mlp_fit)
        est = RMICardinalityEstimator(
            hidden_layers=(16, 8), epochs=5, n_train_queries=60, seed=0
        ).fit(X)
        monkeypatch.undo()
        path = str(tmp_path / "rmi.npz")
        est.save(path)
        assert param_dtypes(path) == {np.dtype(np.float64)}
        loaded = RMICardinalityEstimator.load(path)
        assert loaded.stage_model(0, 0)._weights[0].dtype == np.float64
        est.bind(X)
        loaded.bind(X)
        for eps in self.EPS:
            assert np.array_equal(
                est.estimate_many(X, eps), loaded.estimate_many(X, eps)
            )
