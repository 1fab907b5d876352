"""One workload in one process: set-up, checked prefix, timed loop.

``run.py`` starts this twice per benchmark run: once in ``full`` mode (the
measured run) and once in ``check`` mode (set-up and the checked prefix
only, under the other trace mode and another ``PYTHONHASHSEED``).  The last
line of standard output is a JSON report for ``run.py``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import time
from typing import Any

import numpy as np

from checks import AssemblyLog, Digest, Gate, check_backend_parity, percentile, samples_beyond
from spans import Instrumentation, SpanRecorder, self_times
from workloads import WORKLOADS, Meter, Workload

#: A traced run alternates traced and untraced blocks of this length, so
#: ``trace.overhead_ratio`` compares like steps of one run.
TRACE_BLOCK_S = 0.25
SPAN_DIR = ".perfbench"


def resident_bytes() -> int:
    """Current resident set size of this process."""
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def _setup(workload: Workload, repeats: int, log: AssemblyLog) -> dict[str, float]:
    """Build the world ``repeats`` times; medians of each phase time.

    The previous world is dropped and collected before each timed set-up,
    so no set-up pays for freeing the last one and peak memory holds one
    world at a time.
    """
    phases: dict[str, list[float]] = {}
    bytes_per_peer = 0.0
    for index in range(repeats):
        workload.teardown()
        gc.collect()
        if index == repeats - 1:
            log.install()  # gate the bootstrap estimate of the world we keep
        before = resident_bytes()
        started = time.perf_counter()
        times = workload.setup()
        times["setup_s"] = time.perf_counter() - started
        if index == 0:
            bytes_per_peer = (resident_bytes() - before) / workload.n_peers
        for key, value in times.items():
            phases.setdefault(key, []).append(value)
    medians = {key: statistics.median(values) for key, values in phases.items()}
    medians["bytes_per_peer"] = bytes_per_peer
    return medians


def _timed_loop(
    workload: Workload,
    gate: Gate,
    steps: int,
    instrumentation: Instrumentation | None,
) -> tuple[Meter, list[float], list[float]]:
    """Run ``steps`` steps of the timed loop.

    Returns the meter and each step's busy time, split into traced and
    untraced steps: with ``instrumentation``, blocks of about
    ``TRACE_BLOCK_S`` alternate between the two.
    """
    meter = Meter()
    traced: list[float] = []
    plain: list[float] = []
    block = max(1, min(round(TRACE_BLOCK_S * workload.steps_per_s), steps // 2))
    for index in range(steps):
        tracing = instrumentation is not None and (index // block) % 2 == 0
        if instrumentation is not None and index % block == 0:
            if tracing:
                instrumentation.install()
            else:
                instrumentation.uninstall()
        busy = meter.busy
        workload.step(meter, gate)
        (traced if tracing else plain).append(meter.busy - busy)
    if instrumentation is not None:
        instrumentation.uninstall()
    return meter, traced, plain


def _end_to_end(setup: dict[str, float], meter: Meter, workload: Workload, det: dict[str, float]) -> dict[str, float]:
    latencies = meter.latencies
    return {
        "setup_s": setup["setup_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "latency_p50_ms": percentile(latencies, 50.0) * 1e3,
        "latency_tail_ms": percentile(latencies, workload.tail_percentile) * 1e3,
        "ops_per_s": len(latencies) / meter.busy,
        "messages_per_estimate": det["messages_per_estimate"],
    }


class _Spans:
    """Per-layer sums over the spans a run recorded from ``first`` on."""

    def __init__(self, recorder: SpanRecorder, first: int) -> None:
        cols = recorder.columns()
        name, parent = cols["name"], cols["parent"]
        self.layer = np.asarray(recorder.names, dtype=object)[name]
        self.duration = cols["end"] - cols["start"]
        self.self_time = self_times(cols["start"], cols["end"], parent)
        self.window = np.arange(name.size) >= first
        # Walk up the ancestors once per depth level: a span is outermost
        # for its layer when no ancestor has the same layer, and a refresh
        # is an estimate run under a served batch.
        self.outer = np.ones(name.size, dtype=bool)
        self.under_batch = np.zeros(name.size, dtype=bool)
        ancestor = parent.copy()
        while np.any(ancestor >= 0):
            live = ancestor >= 0
            up = np.where(live, ancestor, 0)
            self.outer &= ~(live & (name[up] == name))
            self.under_batch |= live & (self.layer[up] == "serve.batch")
            ancestor = np.where(live, parent[up], -1)

    def mask(self, layer: str) -> np.ndarray:
        return self.window & self.outer & (self.layer == layer)

    def calls(self, layer: str) -> int:
        return int(np.count_nonzero(self.mask(layer)))

    def busy(self, layer: str) -> float:
        return float(self.duration[self.mask(layer)].sum())

    def own(self, layer: str) -> float:
        return float(self.self_time[self.window & (self.layer == layer)].sum())

    def refreshes(self) -> np.ndarray:
        return self.duration[self.window & self.under_batch & (self.layer == "estimate")]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _per_layer(
    spans: _Spans,
    counters: dict[str, float],
    steps: int,
    setup: dict[str, float],
    det: dict[str, float],
    workload: Workload,
    overhead: float,
) -> dict[str, float]:
    def c(name: str) -> float:
        return counters.get(name, 0.0)

    rounds = spans.calls("churn.round")
    refreshes = spans.refreshes()
    return {
        "route.calls": _ratio(spans.calls("route"), steps),
        "route.probes": _ratio(c("route.probes"), steps),
        "route.busy_ms": _ratio(spans.busy("route"), steps) * 1e3,
        "route.us_per_probe": _ratio(spans.busy("route"), c("route.probes")) * 1e6,
        "route.mean_hops": det["route.mean_hops"],
        "reply.busy_ms": _ratio(spans.busy("reply"), steps) * 1e3,
        "reply.rows": _ratio(c("reply.rows"), steps),
        "reply.memo_hit_ratio": _ratio(c("reply.memo_hits"), c("reply.rows")),
        "reply.memo_entries": float(workload.memo_entries()),
        "assemble.busy_ms": _ratio(spans.busy("assemble"), steps) * 1e3,
        "assemble.breakpoints": _ratio(c("assemble.breakpoints"), spans.calls("assemble")),
        "estimate.self_ms": _ratio(spans.own("estimate"), spans.calls("estimate")) * 1e3,
        "cache.lookups": _ratio(spans.calls("cache.lookup"), steps),
        "cache.hit_ratio": _ratio(c("cache.hits"), spans.calls("cache.lookup")),
        "cache.evictions": _ratio(c("cache.evictions"), steps),
        "cache.key_us": _ratio(spans.busy("cache.key"), spans.calls("cache.key")) * 1e6,
        "cdf.eval_us": _ratio(spans.busy("cdf.eval"), spans.calls("cdf.eval")) * 1e6,
        "serve.batch_self_us": _ratio(spans.own("serve.batch"), spans.calls("serve.batch")) * 1e6,
        "serve.refreshes": _ratio(refreshes.size, steps),
        "serve.refresh_ms": float(refreshes.mean()) * 1e3 if refreshes.size else 0.0,
        "serve.drift_checks": _ratio(spans.calls("serve.drift_check"), steps),
        "serve.drift_check_ms": _ratio(spans.busy("serve.drift_check"), spans.calls("serve.drift_check")) * 1e3,
        "serve.checks_kept_ratio": _ratio(c("serve.checks_kept"), spans.calls("serve.policy")),
        "serve.maintenance_messages": det.get("serve.maintenance_messages", 0.0),
        "churn.round_ms": _ratio(spans.busy("churn.round"), rounds) * 1e3,
        "mutation.plan_ms": _ratio(spans.busy("mutation.plan"), rounds) * 1e3,
        "mutation.splice_ms": _ratio(spans.busy("mutation.splice"), rounds) * 1e3,
        "mutation.maintenance_ms": _ratio(spans.busy("mutation.maintenance"), rounds) * 1e3,
        "mutation.kernel_accept_ratio": _ratio(c("mutation.kernel_accepts"), c("mutation.kernel_tries")),
        "churn.values_moved": _ratio(c("churn.values_moved"), rounds),
        "churn.joins": _ratio(c("churn.joins"), rounds),
        "churn.departures": _ratio(c("churn.departures"), rounds),
        "writes.owner_lookup_ms": _ratio(spans.busy("writes.owner_lookup"), rounds) * 1e3,
        "writes.store_ms": _ratio(spans.own("writes.store"), rounds) * 1e3,
        "setup.build_s": setup["build_s"],
        "setup.load_s": setup["load_s"],
        "setup.synopsis_plane_s": setup["synopsis_plane_s"],
        "setup.bootstrap_s": setup["bootstrap_s"],
        "setup.bytes_per_peer": setup["bytes_per_peer"],
        "accuracy.ks_mean": det["accuracy.ks_mean"],
        "accuracy.ks_max": det["accuracy.ks_max"],
        "trace.overhead_ratio": overhead,
    }


def run(workload: Workload, seconds: float, trace: bool, full: bool) -> dict[str, Any]:
    gate = Gate()
    digest = Digest()
    log = AssemblyLog()
    recorder = SpanRecorder() if trace else None
    instrumentation = Instrumentation(recorder, workload.hooks) if recorder is not None else None
    gate.recorder = recorder

    setup = _setup(workload, workload.setup_repeats if full else 1, log)
    check_backend_parity(gate, workload.seed)
    if instrumentation is not None:
        instrumentation.install()
    det = workload.prefix(gate, digest, log)
    if instrumentation is not None:
        instrumentation.uninstall()
    log.uninstall()
    report: dict[str, Any] = {"digest": digest.hexdigest(), "deterministic": det}
    if full:
        first = len(recorder.name_col) if recorder is not None else 0
        counters_before = dict(recorder.counters) if recorder is not None else {}
        steps = max(workload.min_steps, math.ceil(seconds * workload.steps_per_s))
        meter, traced, plain = _timed_loop(workload, gate, steps, instrumentation)
        workload.finish()
        n = len(meter.latencies)
        report["samples"] = {
            "ops": n,
            "tail_percentile": workload.tail_percentile,
            "beyond_tail": samples_beyond(n, workload.tail_percentile),
        }
        if recorder is None:
            report["metrics"] = _end_to_end(setup, meter, workload, det)
        else:
            spans = _Spans(recorder, first)
            counters = {k: v - counters_before.get(k, 0.0) for k, v in recorder.counters.items()}
            overhead = statistics.fmean(traced) / statistics.fmean(plain) if plain else 0.0
            report["metrics"] = _per_layer(spans, counters, len(traced), setup, det, workload, overhead)
            for layer in workload.layers:
                gate.require(spans.calls(layer) > 0, f"traced run: layer {layer} recorded no calls")
            os.makedirs(SPAN_DIR, exist_ok=True)
            recorder.write(os.path.join(SPAN_DIR, f"spans-{workload.name}-seed{workload.seed}.npz"))
    report.update(
        correct=gate.ok,
        problems=gate.problems,
        checks=gate.checks,
        attempted=workload.attempted,
        failed=workload.failed,
        errors=workload.errors,
    )
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--mode", choices=("full", "check"), required=True)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload](args.seed)
    report = run(workload, args.seconds, bool(args.trace), args.mode == "full")
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
