"""The benchmark's three workloads.

Each is a closed loop with one caller: every call waits for its reply
before the next is made.  A workload exposes

* ``teardown()`` — drops the previous world, untimed, so a repeated
  set-up neither pays for freeing it nor holds two worlds in memory;
* ``setup()`` — builds its world from the seed and returns the phase
  times; everything lazy (routing snapshot, synopsis plane, the service's
  bootstrap estimate) is finished here, before any timing;
* ``prefix(gate, digest, log)`` — a fixed, untimed amount of work from the
  fresh world, checked by the correctness gate and folded into the output
  digest; it returns the deterministic metrics;
* ``step(meter, gate)`` — one step of the timed loop; operations whose
  latency the user sees go through ``meter.op``, other timed work through
  ``meter.side``.

Sizes are constructor arguments only so the tests can run the same code on
small worlds; the benchmark always uses the defaults.
"""

from __future__ import annotations

import time
from typing import Any, Callable

import numpy as np

from checks import AssemblyLog, Digest, Gate
from spans import Hook, SpanRecorder

__all__ = ["WORKLOADS", "Meter"]

BATCH = 512
KINDS = ("cdf", "quantile", "selectivity", "sample")
GRID_POINTS = 512


class Meter:
    """Timed sections of the loop: user-visible operations and side work."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.busy = 0.0

    def op(self, fn: Callable[..., Any], *args: Any) -> Any:
        start = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - start
        self.latencies.append(elapsed)
        self.busy += elapsed
        return result

    def side(self, fn: Callable[..., Any], *args: Any) -> Any:
        start = time.perf_counter()
        result = fn(*args)
        self.busy += time.perf_counter() - start
        return result


# ----------------------------------------------------------------------
# Layer observers: counters recorded next to the spans of a traced run.
# ----------------------------------------------------------------------
def _route_compact(rec: SpanRecorder, args: tuple, kwargs: dict, result: Any, token: Any) -> None:
    rec.count("route.probes", len(args[2]))
    rec.count("route.hops", float(np.sum(result[1])))


def _route_object(rec: SpanRecorder, args: tuple, kwargs: dict, result: Any, token: Any) -> None:
    rec.count("route.probes", len(result))
    rec.count("route.hops", float(sum(route.hops for route in result)))


def _memo_size(args: tuple, kwargs: dict) -> int:
    return len(args[0]._summary_cache)


def _reply_compact(rec: SpanRecorder, args: tuple, kwargs: dict, result: Any, token: Any) -> None:
    rows = len(result)
    rec.count("reply.rows", rows)
    rec.count("reply.memo_hits", rows - (len(args[0]._summary_cache) - token))


def _cached_reply(args: tuple, kwargs: dict) -> Any:
    return args[1].summary_cache.get((args[2], kwargs.get("kind", "equi-width")))


def _reply_object(rec: SpanRecorder, args: tuple, kwargs: dict, result: Any, token: Any) -> None:
    rec.count("reply.rows")
    if token is not None and token[1] is result:
        rec.count("reply.memo_hits")


def _assembled(rec: SpanRecorder, args: tuple, kwargs: dict, result: Any, token: Any) -> None:
    rec.count("assemble.breakpoints", result.cdf.xs.size)


def _cache_lookup(rec: SpanRecorder, args: tuple, kwargs: dict, result: Any, token: Any) -> None:
    if result is not None:
        rec.count("cache.hits")


def _evictions(args: tuple, kwargs: dict) -> int:
    return args[0].stats.evictions


def _cache_store(rec: SpanRecorder, args: tuple, kwargs: dict, result: Any, token: Any) -> None:
    rec.count("cache.evictions", args[0].stats.evictions - token)


def _check_kept(rec: SpanRecorder, args: tuple, kwargs: dict, result: Any, token: Any) -> None:
    if not result:
        rec.count("serve.checks_kept")


def _kernel_gate(rec: SpanRecorder, args: tuple, kwargs: dict, result: Any, token: Any) -> None:
    rec.count("mutation.kernel_tries")
    if result:
        rec.count("mutation.kernel_accepts")


def _round_report(rec: SpanRecorder, args: tuple, kwargs: dict, result: Any, token: Any) -> None:
    rec.count("churn.values_moved", result.values_moved)
    rec.count("churn.joins", result.joins)
    rec.count("churn.departures", result.graceful_leaves + result.crashes)


ESTIMATE_HOOKS = [
    Hook("estimate", "repro.core.estimator:DistributionFreeEstimator", "estimate"),
    Hook("assemble", "repro.core.estimator", "assemble_cdf_interpolated", _assembled),
    Hook("assemble", "repro.core.tracking", "assemble_cdf_interpolated", _assembled),
]
COMPACT_HOOKS = [
    Hook("route", "repro.ring.compact:CompactRing", "route_batch", _route_compact),
    Hook("reply", "repro.core.cdf_sampling", "summarize_compact", _reply_compact, _memo_size),
]
OBJECT_HOOKS = [
    Hook("route", "repro.core.cdf_sampling", "route_probes_batch", _route_object),
    Hook("reply", "repro.core.cdf_sampling", "summarize_peer", _reply_object, _cached_reply),
]
SERVE_HOOKS = [
    Hook("serve.batch", "repro.serve.service:EstimationService", name)
    for name in ("cdf_batch", "quantile_batch", "selectivity_batch", "sample_batch")
] + [
    Hook("serve.drift_check", "repro.serve.service", "drift_score_between"),
    Hook("serve.policy", "repro.serve.policy:AdaptiveRefreshPolicy", "observe_check", _check_kept),
    Hook("cache.key", "repro.serve.cache:VersionKeyedCache", "key"),
    Hook("cache.lookup", "repro.serve.cache:VersionKeyedCache", "lookup", _cache_lookup),
    Hook("cache.store", "repro.serve.cache:VersionKeyedCache", "store", _cache_store, _evictions),
] + [
    Hook("cdf.eval", "repro.core.cdf:PiecewiseCDF", name)
    for name in ("__call__", "inverse", "sample")
]
CHURN_HOOKS = [
    Hook("churn.round", "repro.ring.churn:ChurnProcess", "run_round", _round_report),
    Hook("mutation.plan", "repro.ring.mutation", "plan_round"),
    Hook("mutation.kernel", "repro.ring.mutation", "ring_is_clean", _kernel_gate),
    Hook("mutation.kernel", "repro.ring.mutation", "matrix_maintenance_round", _kernel_gate),
    Hook("mutation.splice", "repro.ring.mutation", "apply_joins"),
    Hook("mutation.splice", "repro.ring.chord", "crash"),
    Hook("mutation.splice", "repro.ring.chord", "leave_gracefully"),
    Hook("mutation.maintenance", "repro.ring.chord", "maintenance_round"),
    Hook("writes.owner_lookup", "repro.ring.network:RingNetwork", "owners_of_values"),
    Hook("writes.store", "workloads:ChurnServe", "apply_updates"),
]


class Workload:
    """Shared bookkeeping: failure accounting per operation class."""

    name = ""
    tail_percentile = 99.0
    #: Steps per second on the reference machine (2-vCPU VM): a run of
    #: ``--seconds`` times a fixed ``seconds * steps_per_s`` steps, so every
    #: run does the same work whatever the machine's speed that minute.
    #: (The reply memo grows with every estimate: a time-bounded loop
    #: would let machine speed change the work itself.)
    steps_per_s = 1.0
    #: Floor on timed steps, so the tail percentile always has ten samples
    #: beyond it.
    min_steps = 1
    #: Set-ups per measured run; ``setup_s`` is their median.
    setup_repeats = 5
    hooks: list[Hook] = []
    #: Layers that must record calls in a traced run of this workload.
    layers: tuple[str, ...] = ()
    n_peers = 0
    #: Steps of the untimed, checked prefix.
    prefix_steps = 0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.attempted: dict[str, int] = {}
        self.failed: dict[str, int] = {}
        self.errors: list[str] = []

    def outcome(self, kind: str, ok: bool) -> None:
        self.attempted[kind] = self.attempted.get(kind, 0) + 1
        if not ok:
            self.failed[kind] = self.failed.get(kind, 0) + 1

    def attempt(
        self,
        kind: str,
        fn: Callable[..., Any],
        *args: Any,
        healthy: Callable[[Any], bool] = lambda result: True,
    ) -> Any:
        """Run one operation; an exception or an unhealthy result is a failure."""
        try:
            result = fn(*args)
        except Exception as exc:  # the loop must keep running and report it
            self.outcome(kind, False)
            if len(self.errors) < 5:
                self.errors.append(f"{kind}: {type(exc).__name__}: {exc}")
            return None
        self.outcome(kind, healthy(result))
        return result

    def teardown(self) -> None:
        """Drop the world the last ``setup()`` built."""

    def finish(self) -> None:
        """Fold end-of-run library counters into the failure accounting."""

    def memo_entries(self) -> int:
        raise NotImplementedError


def _query_pools(domain: tuple[float, float], distinct: int, rng: np.random.Generator) -> dict[str, list[Any]]:
    """Per-kind pools of distinct query batches; batches are drawn from them."""
    low, high = domain
    pools: dict[str, list[Any]] = {kind: [] for kind in KINDS}
    for index in range(distinct):
        pools["cdf"].append(rng.uniform(low, high, size=BATCH))
        pools["quantile"].append(rng.uniform(0.0, 1.0, size=BATCH))
        lows = rng.uniform(low, high, size=BATCH)
        highs = np.minimum(lows + rng.uniform(0.0, (high - low) * 0.2, size=BATCH), high)
        pools["selectivity"].append((lows, highs))
        pools["sample"].append(index)  # a sample batch is named by its seed
    return pools


class _Serving(Workload):
    """Query batches through an ``EstimationService`` over an object ring."""

    distribution = "normal"
    #: Distinct batches per query kind: 4 x 96 = 384 batches against the
    #: service's 256-entry cache, so a Zipf-like pick both hits and misses.
    distinct = 96

    def __init__(self, seed: int, n_peers: int = 10_000, n_items: int = 100_000) -> None:
        super().__init__(seed)
        self.n_peers = n_peers
        self.n_items = n_items
        self._picks = np.random.default_rng(seed + 31)
        self._batches = 0

    def teardown(self) -> None:
        self.dataset = self.network = self.service = self.pools = None

    def _build(self, probes: int, slo: Any) -> dict[str, float]:
        from repro.core.estimator import DistributionFreeEstimator
        from repro.data.workload import build_dataset
        from repro.ring.network import RingNetwork
        from repro.serve.service import EstimationService

        t0 = time.perf_counter()
        dataset = build_dataset(self.distribution, self.n_items, seed=self.seed)
        self.domain = dataset.distribution.domain.as_tuple()
        t1 = time.perf_counter()
        network = RingNetwork.create(self.n_peers, seed=self.seed + 1, domain=self.domain)
        t2 = time.perf_counter()
        network.load_data(dataset.values)
        network.reset_stats()
        t3 = time.perf_counter()
        network.snapshot()
        t4 = time.perf_counter()
        service = EstimationService(
            network,
            estimator=DistributionFreeEstimator(probes=probes),
            slo=slo,
            cache_entries=256,
            rng=np.random.default_rng(self.seed + 11),
        )
        service.refresh()
        t5 = time.perf_counter()
        self.dataset, self.network, self.service = dataset, network, service
        self.degraded_adoptions = 0
        self.pools = _query_pools(self.domain, self.distinct, np.random.default_rng(self.seed + 23))
        return {"build_s": t2 - t1, "load_s": (t1 - t0) + (t3 - t2), "synopsis_plane_s": t4 - t3, "bootstrap_s": t5 - t4}

    def _next_batch(self) -> tuple[str, Any]:
        kind = KINDS[self._batches % len(KINDS)]
        self._batches += 1
        # Squared uniform skews towards 0: low indexes are the hot queries.
        index = min(int(self._picks.random() ** 2 * self.distinct), self.distinct - 1)
        return kind, self.pools[kind][index]

    def _serve(self, kind: str, batch: Any) -> Any:
        service = self.service
        if kind == "cdf":
            return service.cdf_batch(batch)
        if kind == "quantile":
            return service.quantile_batch(batch)
        if kind == "selectivity":
            return service.selectivity_batch(batch[0], batch[1])
        return service.sample_batch(BATCH, seed=batch)

    @staticmethod
    def _scalar(estimate: Any, kind: str, batch: Any) -> Any:
        """The same batch answered one query at a time."""
        if kind == "cdf":
            return [estimate.cdf_at(float(x)) for x in batch]
        if kind == "quantile":
            return [estimate.quantile(float(q)) for q in batch]
        if kind == "selectivity":
            return [estimate.selectivity(float(a), float(b)) for a, b in zip(batch[0], batch[1])]
        return estimate.sample(BATCH, rng=np.random.default_rng(batch))

    def served_batch(self, meter: Meter) -> None:
        kind, batch = self._next_batch()
        self.attempt("query_batches", meter.op, self._serve, kind, batch)

    def checked_batch(self, gate: Gate, digest: Digest) -> None:
        """One untimed batch whose answer is compared with the scalar path."""
        kind, batch = self._next_batch()
        answer = self.attempt("query_batches", self._serve, kind, batch)
        if gate.require(answer is not None, f"{self.name}: {kind} batch raised"):
            estimate = self.service.current
            gate.same(answer, self._scalar(estimate, kind, batch), f"{self.name} {kind} batch")
            digest.add(kind, np.asarray(answer))

    def served_estimate_ok(self, gate: Gate) -> bool:
        estimate = self.service.current
        gate.valid_cdf(estimate.cdf, self.domain, f"{self.name} served estimate")
        return not estimate.degraded

    def maintenance_messages(self) -> float:
        """Drift-check and refresh messages per prefix step."""
        return (self.service.stats.maintenance_messages - self._messages_base) / self.prefix_steps

    def finish(self) -> None:
        stats = self.service.stats
        self.attempted["refreshes"] = stats.refreshes + stats.failed_refreshes
        self.failed["refreshes"] = stats.failed_refreshes + self.degraded_adoptions

    def memo_entries(self) -> int:
        return sum(len(node.summary_cache) for node in self.network.peers())


class ServeHot(_Serving):
    name = "serve-hot"
    hooks = ESTIMATE_HOOKS + OBJECT_HOOKS + SERVE_HOOKS
    layers = ("serve.batch", "cache.key", "cache.lookup", "cdf.eval")
    prefix_steps = 64
    steps_per_s = 19_000.0
    min_steps = 1_000

    def setup(self) -> dict[str, float]:
        from repro.serve.policy import StalenessSLO

        return self._build(probes=128, slo=StalenessSLO(max_error=0.1, check_probes=16))

    def prefix(self, gate: Gate, digest: Digest, log: AssemblyLog) -> dict[str, float]:
        log.check(gate, "serve-hot bootstrap")
        if not self.served_estimate_ok(gate):
            self.degraded_adoptions += 1
        estimate = self.service.current
        digest.add_cdf(estimate.cdf)
        ks = _ks(estimate.cdf, self.dataset.values, self.domain)
        self._messages_base = self.service.stats.maintenance_messages
        for _ in range(self.prefix_steps):
            self.checked_batch(gate, digest)
        return {
            "messages_per_estimate": float(estimate.messages),
            "route.mean_hops": estimate.hops / estimate.probes,
            "accuracy.ks_mean": ks,
            "accuracy.ks_max": ks,
            "serve.maintenance_messages": self.maintenance_messages(),
        }

    def step(self, meter: Meter, gate: Gate) -> None:
        self.served_batch(meter)


def _ks(cdf: Any, values: np.ndarray, domain: tuple[float, float]) -> float:
    from repro.core.cdf import empirical_cdf
    from repro.core.metrics import ks_distance

    return ks_distance(cdf, empirical_cdf(values), np.linspace(domain[0], domain[1], GRID_POINTS))


class ChurnServe(_Serving):
    """Writes beside reads: updates, one churn round, then query batches."""

    name = "churn-serve"
    distribution = "zipf"
    hooks = ESTIMATE_HOOKS + OBJECT_HOOKS + SERVE_HOOKS + CHURN_HOOKS
    layers = (
        "route", "reply", "assemble", "estimate", "serve.batch", "serve.drift_check",
        "cache.key", "cache.lookup", "cdf.eval", "churn.round", "mutation.plan",
        "mutation.splice", "mutation.maintenance", "writes.owner_lookup", "writes.store",
    )
    batches_per_round = 32
    updates_per_round = 1_000
    #: The insert share that holds the item count steady: each round's
    #: crashes (0.5% of peers) lose about 0.5% of the items.
    insert_fraction = 0.75
    #: Rounds per sweep of the insert distribution across the domain.
    drift_period = 32
    prefix_steps = 12
    steps_per_s = 3.3
    min_steps = 32  # 32 x 32 = 1,024 batches: ten beyond p99

    def setup(self) -> dict[str, float]:
        from repro.serve.policy import StalenessSLO

        phases = self._build(probes=128, slo=StalenessSLO(max_error=0.1, check_probes=16))
        from repro.data.workload import UpdateStream
        from repro.ring.churn import ChurnConfig, ChurnProcess

        self.churn = ChurnProcess(
            self.network,
            ChurnConfig(join_rate=0.01, leave_rate=0.01, crash_fraction=0.5),
            rng=np.random.default_rng(self.seed + 41),
        )
        self.stream = UpdateStream(self.dataset, insert_fraction=self.insert_fraction, seed=self.seed + 5)
        self.rounds = 0
        self._epoch = self.service.epoch_key
        return phases

    def _updates(self) -> list[Any]:
        from repro.data.distributions import TruncatedNormal

        low, high = self.domain
        phase = (self.rounds % self.drift_period) / self.drift_period
        self.stream.insert_distribution = TruncatedNormal(
            mean=low + (high - low) * (0.1 + 0.8 * phase),
            std=0.08 * (high - low),
            _domain=self.dataset.distribution.domain,
        )
        return list(self.stream.ops(self.updates_per_round))

    def apply_updates(self, ops: list[Any]) -> None:
        owners = self.network.owners_of_values(np.asarray([op.value for op in ops], dtype=float))
        for op, owner in zip(ops, owners):
            if op.kind == "insert":
                owner.store.insert(op.value)
            else:
                owner.store.remove(op.value)

    def teardown(self) -> None:
        super().teardown()
        self.churn = self.stream = None

    def _round(self, ops: list[Any]) -> Any:
        """The write side of a round: ``ops``, then one churn round."""
        self.apply_updates(ops)
        return self.churn.run_round()

    def _note_refresh(self, gate: Gate) -> Any:
        """Gate a newly adopted served estimate; returns it (or None)."""
        if self.service.epoch_key == self._epoch:
            return None
        self._epoch = self.service.epoch_key
        if not self.served_estimate_ok(gate):
            self.degraded_adoptions += 1
        return self.service.current

    def prefix(self, gate: Gate, digest: Digest, log: AssemblyLog) -> dict[str, float]:
        from repro.core.cdf import empirical_cdf
        from repro.core.metrics import ks_distance

        log.check(gate, "churn-serve bootstrap")
        self._messages_base = self.service.stats.maintenance_messages
        grid = np.linspace(self.domain[0], self.domain[1], GRID_POINTS)
        adopted = [self.service.current]
        ks: list[float] = []
        for _ in range(self.prefix_steps):
            report = self.attempt("churn_rounds", self._round, self._updates())
            self.rounds += 1
            if report is not None:
                digest.add(report.joins, report.graceful_leaves, report.crashes, report.items_lost, report.values_moved)
            for _ in range(self.batches_per_round):
                self.checked_batch(gate, digest)
                fresh = self._note_refresh(gate)
                if fresh is not None:
                    adopted.append(fresh)
                    digest.add_cdf(fresh.cdf)
            log.check(gate, "churn-serve refresh or drift check")
            truth = empirical_cdf(self.network.all_values(), presorted=True)
            ks.append(ks_distance(self.service.current.cdf, truth, grid))
        digest.add(self.network.n_peers, self.network.total_count, tuple(ks))
        return {
            "messages_per_estimate": float(np.mean([e.messages for e in adopted])),
            "route.mean_hops": sum(e.hops for e in adopted) / sum(e.probes for e in adopted),
            "accuracy.ks_mean": float(np.mean(ks)),
            "accuracy.ks_max": float(np.max(ks)),
            "serve.maintenance_messages": self.maintenance_messages(),
        }

    def step(self, meter: Meter, gate: Gate) -> None:
        ops = self._updates()  # the update stream is input, made untimed
        self.attempt("churn_rounds", meter.side, self._round, ops)
        self.rounds += 1
        for _ in range(self.batches_per_round):
            self.served_batch(meter)
            self._note_refresh(gate)


class Estimate1M(Workload):
    """Back-to-back estimates on a million-peer compact ring."""

    name = "estimate-1m"
    tail_percentile = 90.0
    steps_per_s = 75.0
    min_steps = 100
    setup_repeats = 3  # each set-up builds a million-peer ring
    hooks = ESTIMATE_HOOKS + COMPACT_HOOKS
    layers = ("route", "reply", "assemble", "estimate")
    prefix_steps = 32

    def __init__(self, seed: int, n_peers: int = 1_000_000, n_items: int = 2_000_000) -> None:
        super().__init__(seed)
        self.n_peers = n_peers
        self.n_items = n_items
        self.calls = 0

    def setup(self) -> dict[str, float]:
        from repro.core.estimator import DistributionFreeEstimator
        from repro.data.workload import build_dataset
        from repro.ring.network import RingNetwork

        t0 = time.perf_counter()
        dataset = build_dataset("normal", self.n_items, seed=self.seed)
        domain = dataset.distribution.domain.as_tuple()
        t1 = time.perf_counter()
        ring = RingNetwork.create(self.n_peers, seed=self.seed + 1, domain=domain, compact=True)
        t2 = time.perf_counter()
        ring.load_counts(dataset.values)
        t3 = time.perf_counter()
        ring.synopsis_plane()
        t4 = time.perf_counter()
        self.values, self.domain, self.ring = dataset.values, domain, ring
        self.estimator = DistributionFreeEstimator(probes=256)
        return {"build_s": t2 - t1, "load_s": (t1 - t0) + (t3 - t2), "synopsis_plane_s": t4 - t3, "bootstrap_s": 0.0}

    def teardown(self) -> None:
        self.ring = self.values = None

    def _estimate(self) -> Any:
        # A fresh generator per call: probe positions depend only on the
        # seed and the call's index.
        rng = np.random.default_rng([self.seed, self.calls])
        self.calls += 1
        return self.estimator.estimate(self.ring, rng=rng)

    def _checked(self, call: Callable[..., Any], gate: Gate) -> Any:
        """One estimate through ``call``; failed if it raises or degrades."""
        estimate = self.attempt("estimates", call, self._estimate, healthy=lambda e: not e.degraded)
        if estimate is not None:
            gate.valid_cdf(estimate.cdf, self.domain, f"estimate {self.calls - 1}")
        return estimate

    def prefix(self, gate: Gate, digest: Digest, log: AssemblyLog) -> dict[str, float]:
        from repro.core.cdf import empirical_cdf
        from repro.core.metrics import ks_distance

        truth = empirical_cdf(self.values)
        grid = np.linspace(self.domain[0], self.domain[1], GRID_POINTS)
        estimates = []
        for _ in range(self.prefix_steps):
            estimate = self._checked(lambda fn: fn(), gate)
            if not gate.require(estimate is not None, f"estimate {self.calls - 1} raised"):
                continue
            log.check(gate, f"estimate {self.calls - 1}")
            digest.add_cdf(estimate.cdf)
            digest.add(estimate.n_items, estimate.n_peers, estimate.messages, estimate.hops)
            estimates.append(estimate)
        ks = [ks_distance(e.cdf, truth, grid) for e in estimates]
        return {
            "messages_per_estimate": float(np.mean([e.messages for e in estimates])),
            "route.mean_hops": sum(e.hops for e in estimates) / sum(e.probes for e in estimates),
            "accuracy.ks_mean": float(np.mean(ks)),
            "accuracy.ks_max": float(np.max(ks)),
        }

    def step(self, meter: Meter, gate: Gate) -> None:
        self._checked(meter.op, gate)

    def memo_entries(self) -> int:
        return len(self.ring._summary_cache)


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (Estimate1M, ServeHot, ChurnServe)
}
