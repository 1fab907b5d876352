"""Tests for the lossy-delivery model."""

import numpy as np
import pytest

from repro.core.estimator import DistributionFreeEstimator
from repro.data.workload import build_dataset
from repro.ring.faults import FaultPlane
from repro.ring.network import RingNetwork
from repro.ring.routing import route_to_key


def make_lossy_network(loss_rate, n_peers=64, n_items=2_000, seed=5):
    data = build_dataset("normal", n_items, seed=seed)
    network = RingNetwork.create(n_peers, domain=(0.0, 1.0), seed=seed)
    network.install_faults(FaultPlane(loss_rate=loss_rate))
    network.load_data(data.values)
    network.reset_stats()
    return network


class TestLossModel:
    def test_loss_rate_validated(self):
        network = RingNetwork.create(4)
        with pytest.raises(ValueError):
            network.install_faults(FaultPlane(loss_rate=1.0))
        with pytest.raises(ValueError):
            network.install_faults(FaultPlane(loss_rate=-0.1))

    def test_zero_loss_always_delivers(self):
        network = RingNetwork.create(4, seed=1)
        assert all(network.delivery_succeeds() for _ in range(100))

    def test_loss_frequency_matches_rate(self):
        network = RingNetwork.create(4, seed=2)
        network.install_faults(FaultPlane(loss_rate=0.3))
        outcomes = [network.delivery_succeeds() for _ in range(5_000)]
        assert np.mean(outcomes) == pytest.approx(0.7, abs=0.03)

    def test_routing_still_reaches_owner(self):
        network = make_lossy_network(loss_rate=0.25)
        rng = np.random.default_rng(3)
        for key in rng.integers(0, network.space.size, size=25, dtype=np.uint64):
            result = route_to_key(network, network.random_peer(), int(key))
            assert result.owner.ident == network.owner_of(int(key)).ident

    def test_loss_inflates_hop_count(self):
        clean = make_lossy_network(loss_rate=0.0)
        lossy = make_lossy_network(loss_rate=0.3)
        rng = np.random.default_rng(4)
        keys = rng.integers(0, clean.space.size, size=60, dtype=np.uint64)

        def total_hops(network):
            return sum(
                route_to_key(network, network.node(network.peer_ids()[0]), int(k)).hops
                for k in keys
            )

        assert total_hops(lossy) > total_hops(clean)

    def test_estimation_accuracy_unaffected(self):
        from repro.core.cdf import empirical_cdf
        from repro.core.metrics import evaluate_estimate

        lossy = make_lossy_network(loss_rate=0.3, n_items=4_000)
        truth = empirical_cdf(lossy.all_values())
        estimate = DistributionFreeEstimator(probes=64).estimate(
            lossy, rng=np.random.default_rng(5)
        )
        report = evaluate_estimate(estimate.cdf, truth, lossy.domain)
        assert report.ks < 0.12

    def test_probe_rpc_retransmissions_counted(self):
        from repro.ring.messages import MessageType

        lossy = make_lossy_network(loss_rate=0.4)
        from repro.core.cdf_sampling import collect_probes

        collect_probes(lossy, 30, buckets=8, rng=np.random.default_rng(6))
        requests = lossy.stats.count_of(MessageType.PROBE_REQUEST)
        replies = lossy.stats.count_of(MessageType.PROBE_REPLY)
        # With 40% loss, ~1/(1-p)^2 request attempts per delivered pair.
        assert requests > 30
        assert replies >= 30
        assert requests >= replies
