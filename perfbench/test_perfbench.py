"""Self-tests of the benchmark, on the smoke size (seconds per workload)."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import run
import session
from reference import dbscan_errors, dbscan_reference, same_partition
from tracing import Tracer, install

BENCHMARK = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
SMOKE = ["--size", "smoke", "--seconds", "2", "--seed", str(run.DEV_SEED)]


def _last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_metric_tables_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(session.WORKLOADS)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace, capsys):
    code = run.main(["--workload", workload, "--trace", str(trace), *SMOKE])
    result = _last_json(capsys)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    table = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in table
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], float) and np.isfinite(m["value"])
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _blobs(seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(4, 16))
    X = np.repeat(centers, 40, axis=0) + 0.15 * rng.normal(size=(160, 16))
    X = np.vstack([X, rng.normal(size=(20, 16))])
    return X / np.linalg.norm(X, axis=1, keepdims=True)


def test_reference_accepts_dbscan_and_rejects_corrupted_labels():
    from repro import DBSCAN

    X = _blobs()
    ref = dbscan_reference(X, 0.3, 5)
    result = DBSCAN(eps=0.3, tau=5).fit(X)
    assert ref.core.any() and ref.noise.any()
    assert dbscan_errors(result.labels, result.core_mask, ref) == []

    relabelled = np.where(result.labels >= 0, result.labels.max() - result.labels, -1)
    assert dbscan_errors(relabelled, result.core_mask, ref) == []

    merged = result.labels.copy()
    merged[merged == 1] = 0
    assert dbscan_errors(merged, result.core_mask, ref)

    noise_claimed = result.labels.copy()
    noise_claimed[np.flatnonzero(ref.noise)[0]] = 0
    assert dbscan_errors(noise_claimed, result.core_mask, ref)


def test_same_partition():
    assert same_partition(np.array([0, 0, 1]), np.array([5, 5, 2]))
    assert not same_partition(np.array([0, 0, 1]), np.array([5, 2, 2]))
    assert not same_partition(np.array([0, 1, 1]), np.array([3, 3, 3]))


def test_corrupted_fit_fails_the_run(monkeypatch, capsys):
    from repro.clustering.dbscan import DBSCAN

    fit = DBSCAN.fit

    def corrupted(self, X):
        result = fit(self, X)
        result.labels[np.flatnonzero(result.core_mask)[0]] = result.labels.max() + 1
        return result

    monkeypatch.setattr(DBSCAN, "fit", corrupted)
    code = run.main(["--workload", "laf-fit-ms768", "--trace", "0", *SMOKE])
    result = _last_json(capsys)
    assert code == 1 and not result["correct"] and result["failed"] >= 1


def test_corrupted_served_labels_fail_the_run(monkeypatch, capsys):
    from repro.persistence import ClusterModel

    predict = ClusterModel.predict
    calls = {"n": 0}

    def corrupted(self, X):
        labels = predict(self, X)
        calls["n"] += 1
        if calls["n"] == 5:  # one served batch, not the sequential check
            labels = labels + 1
        return labels

    monkeypatch.setattr(ClusterModel, "predict", corrupted)
    code = run.main(["--workload", "laf-fit-ms768", "--trace", "0", *SMOKE])
    result = _last_json(capsys)
    assert code == 1 and result["failed"] >= 1


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_child_self_times_sum_to_their_parent():
    tracer = Tracer(clock=_Clock())
    with tracer.span("root"):
        with tracer.span("a"):
            with tracer.span("a1"):
                pass
        tracer.record("block", tracer.clock(), tracer.clock(), tracer.current())
        with tracer.span("b"):
            pass
    _assert_subtrees_add_up(tracer)
    root = tracer.select("root")[0]
    assert tracer.self_times()[root.id] < root.duration


def _assert_subtrees_add_up(tracer: Tracer) -> None:
    self_times = tracer.self_times()
    children: dict[int, list[int]] = {}
    for s in tracer.spans:
        children.setdefault(s.parent, []).append(s.id)

    def subtree_self(span_id: int) -> float:
        return self_times[span_id] + sum(subtree_self(c) for c in children.get(span_id, []))

    for s in tracer.spans:
        assert subtree_self(s.id) == pytest.approx(s.duration, abs=1e-9)


def test_real_fit_spans_add_up_and_wrappers_come_off():
    from repro import LAFDBSCANPlusPlus
    from repro.core.laf_dbscanpp import iter_distance_blocks
    from repro.estimators import ExactCardinalityEstimator

    X = _blobs()
    tracer = Tracer()
    with install(tracer):
        LAFDBSCANPlusPlus(eps=0.3, tau=5, estimator=ExactCardinalityEstimator()).fit(X)
    names = {s.name for s in tracer.spans}
    assert {"core.lafpp_fit", "core.lafpp_assign", "distances.kernel"} <= names
    _assert_subtrees_add_up(tracer)
    from repro.core import laf_dbscanpp

    assert laf_dbscanpp.iter_distance_blocks is iter_distance_blocks
