"""Tests for the RMI cardinality estimator."""

import numpy as np
import pytest

from repro.data import load_dataset
from repro.estimators import MLPRegressor, RMICardinalityEstimator
from repro.exceptions import InvalidParameterError, NotFittedError
from repro.index import BruteForceIndex

from repro.testing import make_blobs_on_sphere, median_q_error, reference_mlp_fit


@pytest.fixture(scope="module")
def fitted():
    """A small RMI fitted on clusterable data (shared; read-only)."""
    X, _ = make_blobs_on_sphere(60, 3, 24, spread=0.4, seed=0)
    est = RMICardinalityEstimator(
        hidden_layers=(64, 32), epochs=120, learning_rate=2e-3, seed=0
    ).fit(X)
    return est, X


class TestConstruction:
    def test_paper_configuration(self):
        est = RMICardinalityEstimator.paper_configuration()
        assert est.stages == (1, 2, 4)
        assert est.hidden_layers == (512, 512, 256, 128)
        assert est.epochs == 200
        assert est.batch_size == 512

    def test_paper_configuration_overrides(self):
        est = RMICardinalityEstimator.paper_configuration(epochs=3)
        assert est.epochs == 3
        assert est.hidden_layers == (512, 512, 256, 128)

    def test_invalid_stages(self):
        with pytest.raises(InvalidParameterError):
            RMICardinalityEstimator(stages=())
        with pytest.raises(InvalidParameterError):
            RMICardinalityEstimator(stages=(2, 4))  # root must be single
        with pytest.raises(InvalidParameterError):
            RMICardinalityEstimator(stages=(1, 0))

    def test_n_models(self):
        assert RMICardinalityEstimator(stages=(1, 2, 4)).n_models == 7

    def test_predict_before_fit(self):
        est = RMICardinalityEstimator()
        with pytest.raises(NotFittedError):
            est.predict_fraction(np.ones((1, 4)), 0.5)
        with pytest.raises(NotFittedError):
            est.stage_model(0, 0)


class TestFitAndPredict:
    def test_estimates_correlate_with_truth(self, fitted):
        # Evaluate at a radius where true counts actually vary across
        # queries (at small radii every blob point sees its whole blob,
        # making per-query correlation meaningless).
        est, X = fitted
        index = BruteForceIndex().build(X)
        est.bind(X)
        eps = 0.6
        predicted = est.estimate_many(X, eps)
        actual = index.batch_range_count(X, eps).astype(float)
        assert actual.std() > 5  # the radius is discriminative
        corr = np.corrcoef(predicted, actual)[0, 1]
        assert corr > 0.5, f"prediction correlation too weak: {corr:.3f}"

    def test_mean_estimates_track_truth_across_radii(self, fitted):
        est, X = fitted
        index = BruteForceIndex().build(X)
        est.bind(X)
        for eps in (0.3, 0.5, 0.7):
            predicted = est.estimate_many(X, eps).mean()
            actual = index.batch_range_count(X, eps).mean()
            assert predicted == pytest.approx(actual, rel=0.4), eps

    def test_fractions_clipped_to_unit_interval(self, fitted):
        est, X = fitted
        fracs = est.predict_fraction(X[:20], 0.5)
        assert (fracs >= 0).all()

    def test_counts_scale_with_bound_size(self, fitted):
        est, X = fitted
        est.bind(X)
        full = est.estimate_many(X[:5], 0.5)
        est.bind(X[:90])
        half = est.estimate_many(X[:5], 0.5)
        assert np.allclose(half, full * 90 / X.shape[0], rtol=1e-9)

    def test_estimate_scalar_form(self, fitted):
        est, X = fitted
        est.bind(X)
        single = est.estimate(X[0], 0.5)
        many = est.estimate_many(X[:1], 0.5)[0]
        assert single == pytest.approx(many)

    def test_stage_models_all_fitted(self, fitted):
        est, _ = fitted
        for stage, n in enumerate(est.stages):
            for i in range(n):
                assert est.stage_model(stage, i).is_fitted

    def test_deterministic_given_seed(self):
        X, _ = make_blobs_on_sphere(40, 2, 16, spread=0.3, seed=1)
        def build():
            return (
                RMICardinalityEstimator(
                    hidden_layers=(8,), epochs=5, n_train_queries=30, seed=9
                )
                .fit(X)
                .bind(X)
                .estimate_many(X[:6], 0.5)
            )
        assert np.allclose(build(), build())

    def test_larger_radius_larger_estimates_on_average(self, fitted):
        est, X = fitted
        est.bind(X)
        small = est.estimate_many(X, 0.2).mean()
        large = est.estimate_many(X, 0.8).mean()
        assert large > small

    def test_training_set_exposed(self, fitted):
        est, X = fitted
        assert est.training_set_ is not None
        assert est.training_set_.n_reference == X.shape[0]

    def test_unbound_estimate_raises(self):
        X, _ = make_blobs_on_sphere(30, 2, 8, seed=2)
        est = RMICardinalityEstimator(hidden_layers=(8,), epochs=2, seed=0).fit(X)
        with pytest.raises(NotFittedError):
            est.estimate_many(X[:2], 0.5)


class TestRouting:
    def test_routing_partitions_all_examples(self):
        X, _ = make_blobs_on_sphere(40, 2, 12, spread=0.5, seed=3)
        est = RMICardinalityEstimator(
            stages=(1, 2, 4), hidden_layers=(8,), epochs=3, seed=0
        ).fit(X)
        # Internal routing: every leaf index must be within range.
        from repro.estimators.training_data import make_features

        feats = make_features(X, 0.5)
        preds = est._predict_log_counts(feats)
        assert np.isfinite(preds).all()

    def test_two_stage_variant(self):
        X, _ = make_blobs_on_sphere(30, 2, 8, spread=0.4, seed=4)
        est = RMICardinalityEstimator(
            stages=(1, 3), hidden_layers=(8,), epochs=3, seed=0
        ).fit(X)
        est.bind(X)
        assert est.estimate_many(X[:4], 0.5).shape == (4,)

    def test_single_stage_variant(self):
        X, _ = make_blobs_on_sphere(30, 2, 8, spread=0.4, seed=5)
        est = RMICardinalityEstimator(
            stages=(1,), hidden_layers=(8,), epochs=3, seed=0
        ).fit(X)
        est.bind(X)
        assert est.estimate_many(X[:4], 0.5).shape == (4,)


class RecordingRng:
    """A seeded generator that records every draw the network makes."""

    def __init__(self, seed: int) -> None:
        self._rng = np.random.default_rng(seed)
        self.draws: list[tuple[str, np.ndarray]] = []

    def normal(self, **kwargs) -> np.ndarray:
        out = self._rng.normal(**kwargs)
        self.draws.append(("normal", out.copy()))  # training updates ``out``
        return out

    def permutation(self, n: int) -> np.ndarray:
        out = self._rng.permutation(n)
        self.draws.append(("permutation", out))
        return out


class TestFloat32Training:
    """The reduced-precision training contract (float64 oracle in repro.testing)."""

    RADII = (0.3, 0.4, 0.5, 0.6, 0.7)

    @pytest.fixture(scope="class")
    def q_errors(self):
        """(float32, float64 oracle) median q-error per seed of a small MS surrogate."""
        out = []
        for seed in (0, 1, 2):
            X_train, X_test = load_dataset("MS-50k", scale=0.01, seed=seed).split()
            index = BruteForceIndex().build(X_train)
            true = np.concatenate(
                [index.batch_range_count(X_test, r) for r in self.RADII]
            )
            kwargs = dict(
                hidden_layers=(32, 16), epochs=20, n_train_queries=80, seed=seed
            )

            def q_error(estimator):
                estimator.bind(X_train)
                est = np.concatenate(
                    [estimator.estimate_many(X_test, r) for r in self.RADII]
                )
                return median_q_error(est, true)

            fast = RMICardinalityEstimator(**kwargs).fit(X_train)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(MLPRegressor, "fit", reference_mlp_fit)
                oracle = RMICardinalityEstimator(**kwargs).fit(X_train)
            # Same seed, same training set: only the training precision differs.
            assert np.array_equal(
                fast.training_set_.features, oracle.training_set_.features
            )
            assert oracle.stage_model(0, 0)._weights[0].dtype == np.float64
            out.append((q_error(fast), q_error(oracle)))
        return out

    def test_q_error_within_ten_percent_of_float64_oracle(self, q_errors):
        for fast, oracle in q_errors:
            assert fast <= 1.10 * oracle, (fast, oracle)

    def test_trajectory_tracks_the_float64_oracle(self):
        # Same draws, same batches: over a few epochs float32 rounding
        # moves the weights by ~1e-7, far inside this bound, while a
        # wrong Adam moment or bias correction moves them by ~1e-3.
        rng = np.random.default_rng(3)
        X = rng.normal(size=(600, 10))
        y = X[:, 0] - 2 * X[:, 3] + np.sin(X[:, 1])
        fast = MLPRegressor(hidden_layers=(16, 8), epochs=5, seed=0).fit(X, y)
        oracle = reference_mlp_fit(
            MLPRegressor(hidden_layers=(16, 8), epochs=5, seed=0), X, y
        )
        for got, expected in zip(
            fast._weights + fast._biases, oracle._weights + oracle._biases
        ):
            assert np.allclose(got, expected, rtol=0.0, atol=1e-4)
        assert fast.history.losses == pytest.approx(oracle.history.losses, rel=1e-5)

    def test_weights_are_float32_and_fits_are_bit_identical(self):
        X, _ = make_blobs_on_sphere(40, 2, 16, spread=0.3, seed=1)

        def fit():
            return RMICardinalityEstimator(
                hidden_layers=(8, 4), epochs=4, n_train_queries=30, seed=9
            ).fit(X)

        first, second = fit(), fit()
        for stage, n in enumerate(first.stages):
            for i in range(n):
                a, b = first.stage_model(stage, i), second.stage_model(stage, i)
                for p, q in zip(a._weights + a._biases, b._weights + b._biases):
                    assert p.dtype == np.float32
                    assert np.array_equal(p, q)
                assert a.history.losses == b.history.losses

    def test_draws_equal_the_float64_loop(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(300, 6))
        y = X[:, 0] - X[:, 1]
        models = []
        for train in (MLPRegressor.fit, reference_mlp_fit):
            model = MLPRegressor(hidden_layers=(5, 3), batch_size=64, epochs=3, seed=0)
            model._rng = RecordingRng(4)
            train(model, X, y)
            models.append(model)
        fast, oracle = (m._rng.draws for m in models)
        # The stream the float64 trainer always drew: He initialization
        # per layer, then one permutation per epoch.
        replay = np.random.default_rng(4)
        expected = [
            replay.normal(scale=np.sqrt(2.0 / fan_in), size=(fan_in, fan_out))
            for fan_in, fan_out in ((6, 5), (5, 3), (3, 1))
        ] + [replay.permutation(300) for _ in range(3)]
        assert [kind for kind, _ in fast] == ["normal"] * 3 + ["permutation"] * 3
        for draws in (fast, oracle):
            assert len(draws) == len(expected)
            for (kind, got), want in zip(draws, expected):
                assert np.array_equal(got, want), kind
        assert models[0]._weights[0].dtype == np.float32
