"""Micro-benchmarks of the core primitives (real pytest-benchmark timing).

These are not paper figures; they document the simulator's raw throughput
so regressions in the hot paths (CDF evaluation/inversion, probing,
routing) are visible.
"""

import numpy as np
import pytest

from repro.core.cdf import PiecewiseCDF, empirical_cdf
from repro.core.cdf_sampling import collect_probes
from repro.core.estimator import DistributionFreeEstimator
from repro.data.workload import build_dataset
from repro.ring.churn import ChurnConfig, ChurnProcess
from repro.ring.network import RingNetwork
from repro.ring.routing import route_probes_batch, route_to_key


@pytest.fixture(scope="module")
def loaded_network():
    data = build_dataset("normal", 50_000, seed=1)
    network = RingNetwork.create(512, domain=(0.0, 1.0), seed=2)
    network.load_data(data.values)
    network.reset_stats()
    return network


@pytest.fixture(scope="module")
def big_cdf():
    values = np.random.default_rng(0).normal(0.5, 0.15, 20_000)
    return empirical_cdf(np.clip(values, 0, 1))


def test_cdf_evaluation(benchmark, big_cdf):
    xs = np.linspace(0, 1, 10_000)
    benchmark(big_cdf, xs)


def test_cdf_inversion(benchmark, big_cdf):
    us = np.linspace(0, 1, 10_000)
    benchmark(big_cdf.inverse, us)


def test_cdf_sampling(benchmark, big_cdf):
    rng = np.random.default_rng(1)
    benchmark(big_cdf.sample, 10_000, rng)


def test_mixture_assembly(benchmark):
    rng = np.random.default_rng(2)
    components = [
        PiecewiseCDF(np.sort(rng.uniform(size=10)), np.linspace(0, 1, 10))
        for _ in range(64)
    ]
    weights = rng.uniform(size=64)
    benchmark(PiecewiseCDF.mixture, components, weights)


def test_routed_lookup(benchmark, loaded_network):
    rng = np.random.default_rng(3)

    def lookup():
        key = int(rng.integers(0, loaded_network.space.size, dtype=np.uint64))
        route_to_key(loaded_network, loaded_network.random_peer(), key)

    benchmark(lookup)


def test_probe_batch(benchmark, loaded_network):
    rng = np.random.default_rng(4)
    benchmark(collect_probes, loaded_network, 32, 8, rng)


def test_full_estimate(benchmark, loaded_network):
    estimator = DistributionFreeEstimator(probes=64)
    rng = np.random.default_rng(5)
    benchmark(estimator.estimate, loaded_network, rng)


def test_network_construction(benchmark):
    benchmark(RingNetwork.create, 256, seed=6)


def test_overlay_refresh_after_churn(benchmark):
    """A 128-probe batch right after a 1% churn round on a 10^4-peer ring.

    Each timed call pays the snapshot refresh the round left behind: the
    data plane and the overlay view, which is updated from the round's
    pointer writes rather than re-read peer by peer.  The churn round
    itself runs in the untimed set-up.
    """
    data = build_dataset("zipf", 100_000, seed=7)
    network = RingNetwork.create(10_000, domain=data.distribution.domain.as_tuple(), seed=8)
    network.load_data(data.values)
    network.snapshot().finger_scan_tables()
    churn = ChurnProcess(
        network,
        ChurnConfig(join_rate=0.01, leave_rate=0.01, crash_fraction=0.5),
        rng=np.random.default_rng(9),
    )
    rng = np.random.default_rng(10)

    def churn_round():
        churn.run_round()
        entries = [network.random_peer() for _ in range(128)]
        keys = [int(k) for k in rng.integers(0, network.space.size, 128, dtype=np.uint64)]
        return (network, entries, keys), {}

    benchmark.pedantic(route_probes_batch, setup=churn_round, rounds=8)
