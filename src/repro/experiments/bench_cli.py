"""Command-line entry point: ``repro-bench``.

Times a selection of experiments (by default the churn-heavy trio
F6/F11/F12 that the snapshot plane targets) and records the perf
trajectory as JSON: per-bench wall-clock medians, machine info, and the
git sha.  With ``--baseline`` pointing at a previously committed file,
the run fails when any shared bench regressed by more than the threshold
— the CI smoke check against the repository's committed trajectory.

Besides the registry experiments, three ids run wall-clock benchmarks
that the registry's bit-identity contract forbids: ``S1``, the serving
benchmark (:func:`repro.serve.bench.run_serving_bench`); ``E1``, the
scale benchmark (:func:`repro.experiments.scale_bench.run_scale_bench` —
million-peer compact-ring throughput plus event-engine storm throughput);
and ``E2``, the scale-estimation benchmark
(:func:`repro.experiments.estimation_bench.run_estimation_bench` — the
full estimator stack answering from a million-peer compact ring's
columnar synopsis plane, with F1-at-scale KS accuracy).
Their entries carry the full metrics document under ``"metrics"``
alongside the usual ``median_s``, so the regression check applies to them
unchanged.

The payload stamps the commit the numbers were taken at: ``git_sha`` is
resolved at bench time (not imported from anywhere it could go stale) and
``dirty`` records whether the working tree had uncommitted changes — a
trajectory file whose ``dirty`` is true describes a tree that no single
sha reproduces.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from typing import Callable, Optional, Sequence

from repro.experiments.estimation_bench import ESTIMATION_BENCH_ID, run_estimation_bench
from repro.experiments.registry import EXPERIMENTS, run_experiment
from repro.experiments.scale_bench import SCALE_BENCH_ID, run_scale_bench
from repro.serve.bench import SERVING_BENCH_ID, run_serving_bench

__all__ = ["main", "build_payload", "check_regression", "time_serving_bench"]

DEFAULT_BENCHES = ("F6", "F11", "F12")
DEFAULT_THRESHOLD = 0.25

#: Non-registry benches keyed by id: wall-clock benchmarks (serving QPS,
#: scale throughput) whose metrics ride along under ``"metrics"``.
EXTRA_BENCHES: dict[str, Callable[..., dict[str, float]]] = {
    SERVING_BENCH_ID: run_serving_bench,
    SCALE_BENCH_ID: run_scale_bench,
    ESTIMATION_BENCH_ID: run_estimation_bench,
}


def _git_sha() -> Optional[str]:
    """The current commit sha, or ``None`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except OSError:
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def _git_dirty() -> Optional[bool]:
    """Whether the working tree differs from HEAD (``None`` outside git).

    A bench taken on a dirty tree measures code no commit contains; the
    flag makes such trajectory files self-describing instead of silently
    attributing the numbers to the stamped sha.
    """
    try:
        out = subprocess.run(
            ["git", "status", "--porcelain"],
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except OSError:
        return None
    if out.returncode != 0:
        return None
    return bool(out.stdout.strip())


def machine_info() -> dict[str, object]:
    """Hardware/interpreter context the timings were taken on."""
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def time_experiment(
    experiment_id: str,
    scale: float,
    seed: int,
    repetitions: int,
    runner: Callable[..., object] = run_experiment,
    warmup: int = 1,
) -> dict[str, object]:
    """Median wall time (seconds) over ``repetitions`` runs of one bench.

    ``warmup`` untimed runs absorb one-time costs (lazy imports, numpy
    dispatch caches) so the recorded medians compare steady-state work.
    """
    for _ in range(warmup):
        runner(experiment_id, scale=scale, seed=seed)
    runs: list[float] = []
    for _ in range(repetitions):
        started = time.perf_counter()  # repro-lint: disable=RNG002 (wall_s instrumentation; timing is reported, never fed into results)
        runner(experiment_id, scale=scale, seed=seed)
        runs.append(time.perf_counter() - started)  # repro-lint: disable=RNG002 (wall_s instrumentation; timing is reported, never fed into results)
    ordered = sorted(runs)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        median = ordered[mid]
    else:
        median = (ordered[mid - 1] + ordered[mid]) / 2.0
    return {"median_s": median, "runs_s": runs}


def time_serving_bench(
    bench_id: str, scale: float, seed: int, repetitions: int
) -> dict[str, object]:
    """Median wall time of a non-registry bench plus its last run's metrics.

    Timing goes through :func:`time_experiment` (same warmup and median
    protocol as the registry benches); the metrics document of the final
    timed run — QPS, latency percentiles, peers/sec, bytes/peer — rides
    along under ``"metrics"``.  Every run's logical content is identical
    (it is a function of ``(seed, scale)``), so "the last run" is not a
    choice that matters beyond the wall-clock fields.
    """
    bench = EXTRA_BENCHES[bench_id]
    metrics: dict[str, float] = {}

    def runner(_bench_id: str, scale: float, seed: int) -> None:
        metrics.clear()
        metrics.update(bench(scale=scale, seed=seed))

    result = time_experiment(bench_id, scale, seed, repetitions, runner=runner)
    result["metrics"] = metrics
    return result


def build_payload(
    benches: dict[str, dict[str, object]], scale: float, seed: int, repetitions: int
) -> dict[str, object]:
    """The JSON document ``repro-bench --json`` writes."""
    return {
        "schema": 1,
        "git_sha": _git_sha(),
        "dirty": _git_dirty(),
        "machine": machine_info(),
        "scale": scale,
        "seed": seed,
        "repetitions": repetitions,
        "benches": benches,
    }


def check_regression(
    current: dict[str, object],
    baseline: dict[str, object],
    threshold: float = DEFAULT_THRESHOLD,
) -> list[str]:
    """Benches slower than ``baseline`` by more than ``threshold``.

    Only benches present in both documents are compared, and only when
    the runs used the same scale — medians at different scales measure
    different work.  Returns human-readable failure lines (empty = pass).
    """
    if current.get("scale") != baseline.get("scale"):
        return []
    failures = []
    current_benches = current.get("benches", {})
    for name, base in baseline.get("benches", {}).items():
        now = current_benches.get(name)
        if now is None:
            continue
        base_median = float(base["median_s"])
        now_median = float(now["median_s"])
        if base_median <= 0:
            continue
        ratio = now_median / base_median
        if ratio > 1.0 + threshold:
            failures.append(
                f"{name}: {now_median:.3f}s vs baseline {base_median:.3f}s "
                f"({(ratio - 1.0) * 100.0:.0f}% slower, threshold {threshold * 100.0:.0f}%)"
            )
    return failures


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Time experiments and persist the perf trajectory as JSON.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="ID",
        help=f"experiment ids to bench (default: {', '.join(DEFAULT_BENCHES)})",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write the trajectory JSON here (e.g. BENCH_PR2.json)",
    )
    parser.add_argument(
        "--baseline",
        metavar="PATH",
        action="append",
        default=None,
        help=(
            "previously committed trajectory to compare against; the run "
            "fails on regression beyond --threshold (missing file = skip). "
            "Repeatable: every given baseline must hold, so benchmarks won "
            "in an older PR stay won even after a newer baseline is added"
        ),
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="allowed slowdown fraction vs the baseline (default 0.25)",
    )
    parser.add_argument(
        "--scale", type=float, default=1.0, help="experiment scale factor (default 1.0)"
    )
    parser.add_argument("--seed", type=int, default=0, help="base random seed")
    parser.add_argument(
        "--repetitions",
        type=int,
        default=3,
        help="timed runs per bench; the median is recorded (default 3)",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    ids = [e.upper() for e in args.experiments] or list(DEFAULT_BENCHES)
    unknown = [e for e in ids if e not in EXPERIMENTS and e not in EXTRA_BENCHES]
    if unknown:
        print(f"unknown experiment ids: {unknown}", file=sys.stderr)
        return 2
    if args.repetitions < 1:
        print("--repetitions must be >= 1", file=sys.stderr)
        return 2

    benches: dict[str, dict[str, object]] = {}
    for experiment_id in ids:
        if experiment_id in EXTRA_BENCHES:
            result = time_serving_bench(
                experiment_id, args.scale, args.seed, args.repetitions
            )
            metrics = result["metrics"]
            assert isinstance(metrics, dict)
            if experiment_id == SERVING_BENCH_ID:
                print(
                    f"{experiment_id}: median {result['median_s']:.3f}s over "
                    f"{args.repetitions} runs — speedup {metrics['speedup']:.1f}x, "
                    f"p50 {metrics['p50_ms']:.3f}ms, p99 {metrics['p99_ms']:.3f}ms, "
                    f"hit rate {metrics['hit_rate']:.2f}, "
                    f"slo_met {int(metrics['slo_met'])}"
                )
            elif experiment_id == SCALE_BENCH_ID:
                print(
                    f"{experiment_id}: median {result['median_s']:.3f}s over "
                    f"{args.repetitions} runs — "
                    f"{metrics['peers_per_s']:,.0f} peers/s, "
                    f"{metrics['bytes_per_peer']:.1f} B/peer, "
                    f"{metrics['events_per_s']:,.0f} events/s, "
                    f"max queue {metrics['max_queue_depth']:.0f}"
                )
            elif experiment_id == ESTIMATION_BENCH_ID:
                print(
                    f"{experiment_id}: median {result['median_s']:.3f}s over "
                    f"{args.repetitions} runs — "
                    f"{metrics['items_per_s']:,.0f} items/s loaded, "
                    f"{metrics['bytes_per_peer']:.1f} B/peer "
                    f"({metrics['synopsis_bytes_per_peer']:.1f} synopsis), "
                    f"estimate {metrics['estimate_s'] * 1000.0:.1f}ms at "
                    f"s={metrics['probes']:.0f}, "
                    f"KS {metrics['ks_256']:.4f}"
                )
            else:  # pragma: no cover - no fourth extra bench yet
                print(
                    f"{experiment_id}: median {result['median_s']:.3f}s over "
                    f"{args.repetitions} runs"
                )
        else:
            result = time_experiment(
                experiment_id, args.scale, args.seed, args.repetitions
            )
            print(
                f"{experiment_id}: median {result['median_s']:.3f}s "
                f"over {args.repetitions} runs"
            )
        benches[experiment_id] = result
    payload = build_payload(benches, args.scale, args.seed, args.repetitions)

    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"trajectory written to {args.json}")

    exit_code = 0
    for baseline_path in args.baseline or ():
        if not os.path.exists(baseline_path):
            print(f"baseline {baseline_path} not found; skipping regression check")
            continue
        with open(baseline_path, "r", encoding="utf-8") as fh:
            baseline = json.load(fh)
        if payload.get("scale") != baseline.get("scale"):
            print(
                f"baseline scale {baseline.get('scale')} != current scale "
                f"{payload.get('scale')}; skipping regression check"
            )
            continue
        failures = check_regression(payload, baseline, args.threshold)
        if failures:
            for line in failures:
                print(f"REGRESSION vs {baseline_path}: {line}", file=sys.stderr)
            exit_code = 1
        else:
            print(f"no regression vs {baseline_path}")
    return exit_code


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
