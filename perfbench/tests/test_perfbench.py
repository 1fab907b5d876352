"""Tests of the benchmark itself: its percentile rule, span arithmetic and gate.

Run from the root of the repository::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import numpy as np
import pytest

import worker
from checks import percentile, samples_beyond
from spans import Hook, Instrumentation, SpanRecorder, self_times
from workloads import GRID_POINTS, Estimate1M, ServeHot


# ----------------------------------------------------------------------
# Percentiles are named only with ten samples beyond them.
# ----------------------------------------------------------------------
def test_tail_needs_ten_samples_beyond():
    assert samples_beyond(100, 90) == 10
    assert samples_beyond(1000, 99) == 10
    assert samples_beyond(999, 99) == 9
    assert percentile(list(range(1, 101)), 90) == 90.0
    with pytest.raises(ValueError):
        percentile(list(range(1, 100)), 90)
    with pytest.raises(ValueError):
        percentile(list(range(999)), 99)
    assert percentile(list(range(1000)), 99) == 989.0


def test_percentile_is_nearest_rank_on_unsorted_input():
    samples = list(np.random.default_rng(0).permutation(200).astype(float))
    assert percentile(samples, 50) == 99.0
    assert percentile(samples, 90) == 179.0


# ----------------------------------------------------------------------
# Self time: a span's duration minus what its children cover.
# ----------------------------------------------------------------------
def test_self_time_subtracts_direct_children_only():
    #          0: root [0, 10]
    #          1: child [1, 4]     2: child [5, 7]
    #          3: grandchild of 1 [2, 3]
    start = np.array([0.0, 1.0, 5.0, 2.0])
    end = np.array([10.0, 4.0, 7.0, 3.0])
    parent = np.array([-1, 0, 0, 1])
    np.testing.assert_allclose(self_times(start, end, parent), [5.0, 2.0, 2.0, 1.0])


def test_self_time_clips_children_to_the_parent():
    start = np.array([0.0, 3.0])
    end = np.array([4.0, 6.0])
    parent = np.array([-1, 0])
    np.testing.assert_allclose(self_times(start, end, parent), [3.0, 3.0])


def test_recorder_nests_spans_and_instrumentation_restores_names():
    import checks

    recorder = SpanRecorder()
    original = checks.samples_beyond
    hooks = [Hook("outer", "checks", "percentile"), Hook("inner", "checks", "samples_beyond")]
    instrumentation = Instrumentation(recorder, hooks)
    instrumentation.install()
    try:
        # percentile looks samples_beyond up as a module global, so the
        # wrapped name is the one it calls.
        assert checks.percentile(list(range(100)), 50) == 49.0
    finally:
        instrumentation.uninstall()
    assert checks.samples_beyond is original
    cols = recorder.columns()
    assert [recorder.names[i] for i in cols["name"]] == ["outer", "inner"]
    assert list(cols["parent"]) == [-1, 0]
    assert np.all(cols["end"] >= cols["start"])


# ----------------------------------------------------------------------
# The correctness gate passes on the real program and trips on wrong output.
# ----------------------------------------------------------------------
def _small_estimate(seed=3):
    return Estimate1M(seed, n_peers=2_000, n_items=20_000)


def _small_serve(seed=3):
    return ServeHot(seed, n_peers=500, n_items=5_000)


def test_gate_passes_and_tracing_leaves_outputs_unchanged():
    plain = worker.run(_small_estimate(), 0.0, trace=False, full=False)
    traced = worker.run(_small_estimate(), 0.0, trace=True, full=False)
    assert plain["correct"], plain["problems"]
    assert traced["correct"], traced["problems"]
    assert plain["digest"] == traced["digest"]
    assert plain["deterministic"] == traced["deterministic"]


def test_gate_trips_on_assembly_shifted_by_one_grid_step(monkeypatch):
    import repro.core.estimator as estimator
    from repro.core.cdf import PiecewiseCDF
    from repro.core.cdf_sampling import InterpolatedReconstruction

    assemble = estimator.assemble_cdf_interpolated

    def shifted(summaries, domain, *args, **kwargs):
        result = assemble(summaries, domain, *args, **kwargs)
        step = (domain[1] - domain[0]) / (GRID_POINTS - 1)
        cdf = PiecewiseCDF(result.cdf.xs + step, result.cdf.fs, kind="linear")
        return InterpolatedReconstruction(cdf, result.total_items, result.gap_masses)

    monkeypatch.setattr(estimator, "assemble_cdf_interpolated", shifted)
    report = worker.run(_small_estimate(), 0.0, trace=False, full=False)
    assert not report["correct"]
    assert any("exact over probed segments" in p for p in report["problems"])


def test_gate_trips_on_a_served_answer_one_ulp_off(monkeypatch):
    from repro.serve.service import EstimationService

    cdf_batch = EstimationService.cdf_batch

    def off_by_one_ulp(self, x):
        return np.nextafter(cdf_batch(self, x), 2.0)

    monkeypatch.setattr(EstimationService, "cdf_batch", off_by_one_ulp)
    report = worker.run(_small_serve(), 0.0, trace=False, full=False)
    assert not report["correct"]
    assert any("differs from the scalar answer" in p for p in report["problems"])


def test_untraced_run_reports_every_end_to_end_metric():
    report = worker.run(_small_serve(), 0.0, trace=False, full=True)
    assert report["correct"], report["problems"]
    assert report["samples"]["ops"] == ServeHot.min_steps
    assert report["samples"]["beyond_tail"] >= 10
    metrics = report["metrics"]
    assert set(metrics) == {
        "setup_s", "peak_rss_mb", "latency_p50_ms", "latency_tail_ms", "ops_per_s", "messages_per_estimate",
    }
    assert all(value > 0 for value in metrics.values())


def test_timed_run_reports_every_metric_and_declared_layers():
    report = worker.run(_small_serve(), 0.2, trace=True, full=True)
    assert report["correct"], report["problems"]
    metrics = report["metrics"]
    assert metrics["cache.lookups"] == 1.0
    assert metrics["cdf.eval_us"] > 0
    assert metrics["trace.overhead_ratio"] > 0
