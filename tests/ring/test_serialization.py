"""Tests for network checkpointing."""

import numpy as np
import pytest

from repro.ring import chord
from repro.ring.replication import ReplicationManager
from repro.ring.serialization import (
    load_network,
    network_from_dict,
    network_to_dict,
    save_network,
)

from tests.conftest import make_loaded_network


class TestRoundTrip:
    def test_structure_preserved(self):
        network, _ = make_loaded_network(n_peers=24, n_items=500)
        restored = network_from_dict(network_to_dict(network))
        assert restored.n_peers == network.n_peers
        assert list(restored.peer_ids()) == list(network.peer_ids())
        assert restored.domain == network.domain
        assert restored.space.bits == network.space.bits

    def test_data_preserved_exactly(self):
        network, _ = make_loaded_network(n_peers=16, n_items=800)
        restored = network_from_dict(network_to_dict(network))
        np.testing.assert_array_equal(restored.all_values(), network.all_values())
        for ident in network.peer_ids():
            assert restored.node(ident).store.values() == network.node(ident).store.values()

    def test_pointers_preserved_verbatim(self):
        network, _ = make_loaded_network(n_peers=16, n_items=100)
        # Create some stale state: crash without repair.
        chord.crash(network, network.random_peer().ident)
        restored = network_from_dict(network_to_dict(network))
        for ident in network.peer_ids():
            original = network.node(ident)
            clone = restored.node(ident)
            assert clone.predecessor_id == original.predecessor_id
            assert clone.successor_id == original.successor_id
            assert clone.fingers == original.fingers
            assert clone.successor_list == original.successor_list

    def test_replicas_preserved(self):
        network, _ = make_loaded_network(n_peers=12, n_items=300)
        ReplicationManager(network, factor=3).replicate_round()
        restored = network_from_dict(network_to_dict(network))
        for ident in network.peer_ids():
            assert restored.node(ident).replicas == network.node(ident).replicas

    def test_loss_rate_preserved(self):
        from repro.ring.faults import FaultPlane
        from repro.ring.network import RingNetwork

        network = RingNetwork.create(4, seed=1)
        network.install_faults(FaultPlane(loss_rate=0.2))
        restored = network_from_dict(network_to_dict(network))
        assert restored.loss_rate == 0.2

    def test_ledger_not_checkpointed(self):
        network, _ = make_loaded_network(n_peers=8, n_items=100)
        network.record(__import__("repro.ring.messages", fromlist=["MessageType"]).MessageType.JOIN)
        restored = network_from_dict(network_to_dict(network))
        assert restored.stats.messages == 0

    def test_unknown_version_rejected(self):
        with pytest.raises(ValueError):
            network_from_dict({"format_version": 99})


class TestFileRoundTrip:
    def test_save_load(self, tmp_path):
        network, _ = make_loaded_network(n_peers=16, n_items=400)
        path = save_network(network, tmp_path / "checkpoints" / "net.json")
        restored = load_network(path)
        np.testing.assert_array_equal(restored.all_values(), network.all_values())

    def test_estimation_identical_after_reload(self, tmp_path):
        """An estimate over a restored network equals one over the original
        (given the same probe generator) — checkpoints are faithful."""
        from repro.core.estimator import DistributionFreeEstimator

        network, _ = make_loaded_network(n_peers=32, n_items=1_000)
        path = save_network(network, tmp_path / "net.json")
        restored = load_network(path)
        a = DistributionFreeEstimator(probes=24).estimate(
            network, rng=np.random.default_rng(7)
        )
        b = DistributionFreeEstimator(probes=24).estimate(
            restored, rng=np.random.default_rng(7)
        )
        np.testing.assert_array_equal(a.cdf.xs, b.cdf.xs)
        np.testing.assert_array_equal(a.cdf.fs, b.cdf.fs)

    def test_simulation_continues_after_reload(self, tmp_path):
        network, _ = make_loaded_network(n_peers=16, n_items=300)
        path = save_network(network, tmp_path / "net.json")
        restored = load_network(path)
        chord.join(restored, chord.random_unused_identifier(restored, np.random.default_rng(1)))
        chord.maintenance_round(restored)
        assert restored.n_peers == 17
        assert restored.total_count == 300
