"""Tests for the ``repro-bench`` perf-trajectory CLI."""

import json

from repro.experiments import bench_cli


def _doc(scale, **medians):
    return {
        "scale": scale,
        "benches": {name: {"median_s": m} for name, m in medians.items()},
    }


class TestCheckRegression:
    def test_no_regression_passes(self):
        assert bench_cli.check_regression(_doc(1.0, F6=0.4), _doc(1.0, F6=0.5)) == []

    def test_small_slowdown_within_threshold(self):
        assert bench_cli.check_regression(_doc(1.0, F6=0.55), _doc(1.0, F6=0.5)) == []

    def test_large_slowdown_fails(self):
        failures = bench_cli.check_regression(_doc(1.0, F6=0.7), _doc(1.0, F6=0.5))
        assert len(failures) == 1
        assert "F6" in failures[0]

    def test_mismatched_scale_skips(self):
        assert bench_cli.check_regression(_doc(0.5, F6=9.0), _doc(1.0, F6=0.5)) == []

    def test_benches_only_in_one_side_ignored(self):
        current = _doc(1.0, F6=0.4)
        baseline = _doc(1.0, F6=0.5, F11=4.0)
        assert bench_cli.check_regression(current, baseline) == []


class TestPayload:
    def test_build_payload_shape(self):
        payload = bench_cli.build_payload(
            {"F6": {"median_s": 0.4, "runs_s": [0.4]}}, scale=1.0, seed=0, repetitions=1
        )
        assert payload["schema"] == 1
        assert payload["benches"]["F6"]["median_s"] == 0.4
        assert "platform" in payload["machine"]
        assert "python" in payload["machine"]
        # In this checkout the sha must resolve; outside git it may be None.
        assert payload["git_sha"] is None or len(payload["git_sha"]) == 40
        assert payload["dirty"] is None or isinstance(payload["dirty"], bool)

    def test_sha_resolved_at_bench_time_not_cached(self, monkeypatch):
        # BENCH_PR6.json shipped with the seed commit's sha because the
        # stamp was effectively stale; the payload must call git at build
        # time so it always describes the tree the numbers came from.
        monkeypatch.setattr(bench_cli, "_git_sha", lambda: "f" * 40)
        monkeypatch.setattr(bench_cli, "_git_dirty", lambda: True)
        payload = bench_cli.build_payload({}, scale=1.0, seed=0, repetitions=1)
        assert payload["git_sha"] == "f" * 40
        assert payload["dirty"] is True

    def test_time_experiment_median(self):
        calls = []

        def fake_runner(experiment_id, scale, seed):
            calls.append((experiment_id, scale, seed))

        result = bench_cli.time_experiment("F6", 0.5, 3, repetitions=3, runner=fake_runner)
        # One warmup run by default, then the timed repetitions.
        assert calls == [("F6", 0.5, 3)] * 4
        assert len(result["runs_s"]) == 3
        assert result["median_s"] == sorted(result["runs_s"])[1]

    def test_time_experiment_no_warmup(self):
        calls = []

        def fake_runner(experiment_id, scale, seed):
            calls.append(experiment_id)

        bench_cli.time_experiment("F6", 1.0, 0, repetitions=2, runner=fake_runner, warmup=0)
        assert calls == ["F6", "F6"]


class TestMain:
    def test_unknown_id_rejected(self, capsys):
        assert bench_cli.main(["NOPE"]) == 2

    def test_writes_json_and_checks_baseline(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            bench_cli,
            "time_experiment",
            lambda experiment_id, scale, seed, repetitions: {
                "median_s": 0.1,
                "runs_s": [0.1] * repetitions,
            },
        )
        out = tmp_path / "BENCH.json"
        assert bench_cli.main(["F6", "--json", str(out), "--scale", "0.25"]) == 0
        payload = json.loads(out.read_text())
        assert payload["benches"]["F6"]["median_s"] == 0.1

        # Same numbers as baseline: passes.
        assert (
            bench_cli.main(
                ["F6", "--scale", "0.25", "--baseline", str(out)]
            )
            == 0
        )

        # A much faster committed baseline: the fresh run is a regression.
        fast = dict(payload)
        fast["benches"] = {"F6": {"median_s": 0.01, "runs_s": [0.01]}}
        baseline = tmp_path / "BASE.json"
        baseline.write_text(json.dumps(fast))
        assert (
            bench_cli.main(["F6", "--scale", "0.25", "--baseline", str(baseline)]) == 1
        )

    def test_missing_baseline_skips(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            bench_cli,
            "time_experiment",
            lambda experiment_id, scale, seed, repetitions: {
                "median_s": 0.1,
                "runs_s": [0.1],
            },
        )
        missing = tmp_path / "nope.json"
        assert bench_cli.main(["F6", "--baseline", str(missing)]) == 0

    def test_mismatched_baseline_scale_skips(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            bench_cli,
            "time_experiment",
            lambda experiment_id, scale, seed, repetitions: {
                "median_s": 9.9,
                "runs_s": [9.9],
            },
        )
        baseline = tmp_path / "BASE.json"
        baseline.write_text(json.dumps(_doc(1.0, F6=0.1)))
        assert (
            bench_cli.main(["F6", "--scale", "0.25", "--baseline", str(baseline)]) == 0
        )


FAKE_METRICS = {
    "speedup": 12.0,
    "p50_ms": 0.05,
    "p99_ms": 1.0,
    "hit_rate": 0.5,
    "slo_met": 1.0,
}


class TestServingBench:
    """The non-registry serving bench rides the same CLI and trajectory."""

    def test_s1_is_a_known_id(self):
        # S1 is CLI-only: wall-clock metrics cannot satisfy the registry's
        # bit-identity contract, so it must never appear in EXPERIMENTS.
        assert "S1" in bench_cli.EXTRA_BENCHES
        assert "S1" not in bench_cli.EXPERIMENTS

    def test_time_serving_bench_records_metrics(self, monkeypatch):
        calls = []

        def fake_bench(scale, seed):
            calls.append((scale, seed))
            return dict(FAKE_METRICS)

        monkeypatch.setitem(bench_cli.EXTRA_BENCHES, "S1", fake_bench)
        result = bench_cli.time_serving_bench("S1", 0.5, 3, repetitions=2)
        # One warmup plus the timed repetitions, all at (scale, seed).
        assert calls == [(0.5, 3)] * 3
        assert len(result["runs_s"]) == 2
        assert result["metrics"] == FAKE_METRICS

    def test_main_writes_s1_metrics_into_trajectory(self, tmp_path, monkeypatch):
        monkeypatch.setitem(
            bench_cli.EXTRA_BENCHES, "S1", lambda scale, seed: dict(FAKE_METRICS)
        )
        out = tmp_path / "BENCH.json"
        assert bench_cli.main(["S1", "--json", str(out), "--repetitions", "1"]) == 0
        payload = json.loads(out.read_text())
        assert payload["benches"]["S1"]["metrics"] == FAKE_METRICS
        assert "median_s" in payload["benches"]["S1"]

    def test_s1_regression_checked_like_any_bench(self, tmp_path, monkeypatch):
        monkeypatch.setitem(
            bench_cli.EXTRA_BENCHES, "S1", lambda scale, seed: dict(FAKE_METRICS)
        )
        baseline = tmp_path / "BASE.json"
        baseline.write_text(
            json.dumps({"scale": 1.0, "benches": {"S1": {"median_s": 1e-9}}})
        )
        assert bench_cli.main(
            ["S1", "--repetitions", "1", "--baseline", str(baseline)]
        ) == 1


FAKE_SCALE_METRICS = {
    "peers_per_s": 150_000.0,
    "bytes_per_peer": 224.0,
    "events_per_s": 90_000.0,
    "max_queue_depth": 4.0,
}


class TestScaleBench:
    """E1 (compact-ring + event-engine throughput) rides the same CLI."""

    def test_e1_is_a_known_extra_bench(self):
        # E1 is CLI-only for the same reason as S1: peers/sec and
        # events/sec are wall-clock, which the registry contract forbids.
        assert "E1" in bench_cli.EXTRA_BENCHES
        assert "E1" not in bench_cli.EXPERIMENTS

    def test_main_writes_e1_metrics_into_trajectory(self, tmp_path, monkeypatch):
        monkeypatch.setitem(
            bench_cli.EXTRA_BENCHES, "E1", lambda scale, seed: dict(FAKE_SCALE_METRICS)
        )
        out = tmp_path / "BENCH.json"
        assert bench_cli.main(["E1", "--json", str(out), "--repetitions", "1"]) == 0
        payload = json.loads(out.read_text())
        assert payload["benches"]["E1"]["metrics"] == FAKE_SCALE_METRICS
        assert "median_s" in payload["benches"]["E1"]

    def test_scale_bench_metrics_shape(self):
        from repro.experiments.scale_bench import run_scale_bench

        metrics = run_scale_bench(scale=0.01, seed=0)
        for key in (
            "peers_per_s",
            "bytes_per_peer",
            "scan_width",
            "mean_hops",
            "events_per_s",
            "max_queue_depth",
        ):
            assert key in metrics
            assert isinstance(metrics[key], float)
        assert metrics["peers"] >= 10_000  # the compact-plane floor
        assert metrics["bytes_per_peer"] > 0.0
        assert metrics["mean_hops"] > 1.0
        assert metrics["storm_events"] > metrics["storm_lookups"]


FAKE_ESTIMATION_METRICS = {
    "items_per_s": 1_900_000.0,
    "bytes_per_peer": 296.0,
    "synopsis_bytes_per_peer": 80.0,
    "estimate_s": 0.01,
    "probes": 256.0,
    "ks_256": 0.13,
}


class TestEstimationBench:
    """E2 (full estimator stack on the compact backend) rides the same CLI."""

    def test_e2_is_a_known_extra_bench(self):
        # E2 is CLI-only for the same reason as S1/E1: load throughput and
        # estimate wall time are wall-clock, which the registry forbids.
        assert "E2" in bench_cli.EXTRA_BENCHES
        assert "E2" not in bench_cli.EXPERIMENTS

    def test_main_writes_e2_metrics_into_trajectory(self, tmp_path, monkeypatch):
        monkeypatch.setitem(
            bench_cli.EXTRA_BENCHES,
            "E2",
            lambda scale, seed: dict(FAKE_ESTIMATION_METRICS),
        )
        out = tmp_path / "BENCH.json"
        assert bench_cli.main(["E2", "--json", str(out), "--repetitions", "1"]) == 0
        payload = json.loads(out.read_text())
        assert payload["benches"]["E2"]["metrics"] == FAKE_ESTIMATION_METRICS
        assert "median_s" in payload["benches"]["E2"]

    def test_estimation_bench_metrics_shape(self):
        from repro.experiments.estimation_bench import run_estimation_bench

        metrics = run_estimation_bench(scale=0.01, seed=0)
        for key in (
            "items_per_s",
            "bytes_per_peer",
            "synopsis_bytes_per_peer",
            "estimate_s",
            "ks_64",
            "ks_256",
            "refresh_s",
        ):
            assert key in metrics
            assert isinstance(metrics[key], float)
        assert metrics["peers"] >= 10_000  # the compact-plane floor
        assert metrics["synopsis_bytes_per_peer"] >= 80.0  # plane allocated
        assert 0.0 < metrics["ks_256"] < 0.5  # estimation ran, not garbage
        assert metrics["mean_hops"] > 1.0
