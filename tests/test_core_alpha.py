"""Tests for alpha selection and the predicted-core-ratio rule."""

import numpy as np
import pytest

from repro.clustering import DBSCAN
from repro.core import predicted_core_ratio, select_alpha
from repro.core.alpha import AlphaCandidate
from repro.estimators import ExactCardinalityEstimator, SamplingCardinalityEstimator
from repro.exceptions import InvalidParameterError
from repro.index import BruteForceIndex

from repro.testing import make_blobs_on_sphere


@pytest.fixture(scope="module")
def data():
    X, _ = make_blobs_on_sphere(40, 3, 16, spread=0.3, seed=0)
    return X


class TestPredictedCoreRatio:
    def test_oracle_matches_true_ratio(self, data):
        eps, tau = 0.5, 5
        index = BruteForceIndex().build(data)
        true_ratio = np.count_nonzero(
            index.batch_range_count(data, eps) >= tau
        ) / data.shape[0]
        ratio = predicted_core_ratio(ExactCardinalityEstimator(), data, eps, tau)
        assert ratio == pytest.approx(true_ratio)

    def test_alpha_monotone(self, data):
        est = ExactCardinalityEstimator()
        r1 = predicted_core_ratio(est, data, 0.5, 5, alpha=1.0)
        r2 = predicted_core_ratio(est, data, 0.5, 5, alpha=2.0)
        assert r2 <= r1

    def test_range(self, data):
        ratio = predicted_core_ratio(ExactCardinalityEstimator(), data, 0.5, 5)
        assert 0.0 <= ratio <= 1.0


class TestSelectAlpha:
    def test_returns_candidate_from_grid(self, data):
        gt = DBSCAN(eps=0.5, tau=5).fit(data)
        est = SamplingCardinalityEstimator(sample_size=40, seed=0).fit(data)
        best, candidates = select_alpha(
            data, gt.labels, est, eps=0.5, tau=5, alpha_grid=(1.0, 2.0), seed=0
        )
        assert best in (1.0, 2.0)
        assert len(candidates) == 2
        assert all(isinstance(c, AlphaCandidate) for c in candidates)

    def test_oracle_alpha_one_perfect_quality(self, data):
        gt = DBSCAN(eps=0.5, tau=5).fit(data)
        _, candidates = select_alpha(
            data,
            gt.labels,
            ExactCardinalityEstimator(),
            eps=0.5,
            tau=5,
            alpha_grid=(1.0,),
            seed=0,
        )
        assert candidates[0].ari == pytest.approx(1.0)
        assert candidates[0].ami == pytest.approx(1.0)

    def test_quality_bar_falls_back_to_best_ami(self, data):
        gt = DBSCAN(eps=0.5, tau=5).fit(data)
        est = SamplingCardinalityEstimator(sample_size=40, seed=0).fit(data)
        best, candidates = select_alpha(
            data,
            gt.labels,
            est,
            eps=0.5,
            tau=5,
            alpha_grid=(50.0, 100.0),  # both destroy quality
            min_ami=0.99,
            seed=0,
        )
        best_candidate = max(candidates, key=lambda c: c.ami)
        assert best == best_candidate.alpha

    def test_empty_grid_raises(self, data):
        with pytest.raises(InvalidParameterError):
            select_alpha(
                data,
                np.zeros(data.shape[0], dtype=int),
                ExactCardinalityEstimator(),
                eps=0.5,
                tau=5,
                alpha_grid=(),
            )
