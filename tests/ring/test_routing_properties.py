"""Property-based tests: routing and overlay invariants on random worlds."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ring import chord
from repro.ring.churn import ChurnConfig, ChurnProcess
from repro.ring.faults import FaultPlane
from repro.ring.messages import MessageType
from repro.ring.network import RingNetwork
from repro.ring.routing import route_probes_batch, route_to_key

SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

world = st.fixed_dictionaries(
    {
        "n_peers": st.integers(min_value=1, max_value=64),
        "seed": st.integers(min_value=0, max_value=10_000),
        "loss_rate": st.sampled_from([0.0, 0.0, 0.1, 0.3]),
    }
)


@SETTINGS
@given(params=world, key_unit=st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_routing_always_finds_true_owner(params, key_unit):
    """From any start, any key routes to the oracle owner — even lossy."""
    network = RingNetwork.create(params["n_peers"], seed=params["seed"])
    network.install_faults(FaultPlane(loss_rate=params["loss_rate"]))
    key = min(int(key_unit * network.space.size), network.space.size - 1)
    result = route_to_key(network, network.random_peer(), key)
    assert result.owner.ident == network.owner_of(key).ident
    assert result.hops >= 0


@SETTINGS
@given(params=world)
def test_intervals_partition_ring(params):
    """Peer ownership arcs tile the identifier space exactly."""
    network = RingNetwork.create(params["n_peers"], seed=params["seed"])
    total = sum(node.segment_length for node in network.peers())
    assert total == network.space.size


@SETTINGS
@given(
    params=world,
    churn_ops=st.lists(st.sampled_from(["join", "leave", "crash"]), max_size=8),
)
def test_overlay_survives_arbitrary_churn_sequences(params, churn_ops):
    """Any short join/leave/crash sequence leaves a routable overlay.

    Chord's guarantee is *eventual* consistency: adversarial sequences
    (e.g. a graceful leave propagating a predecessor pointer left stale by
    an unrepaired crash) need several stabilize rounds to converge, so the
    property runs maintenance until quiescent before asserting ownership.
    """
    network = RingNetwork.create(
        max(params["n_peers"], 4), seed=params["seed"]
    )
    rng = np.random.default_rng(params["seed"])
    for op in churn_ops:
        if op == "join":
            chord.join(network, chord.random_unused_identifier(network, rng))
        elif network.n_peers > 2:
            victim = network.random_peer().ident
            if op == "leave":
                chord.leave_gracefully(network, victim)
            else:
                chord.crash(network, victim)
    for _ in range(max(len(churn_ops), 1) + 2):
        chord.maintenance_round(network)
    key = int(rng.integers(0, network.space.size, dtype=np.uint64))
    result = route_to_key(network, network.random_peer(), key)
    assert result.owner.ident == network.owner_of(key).ident


def _hops_posted(network, route):
    """Run ``route()`` and return its result and the LOOKUP_HOP it posted."""
    before = network.stats.count_of(MessageType.LOOKUP_HOP)
    result = route()
    return result, network.stats.count_of(MessageType.LOOKUP_HOP) - before


@SETTINGS
@given(
    n_peers=st.integers(min_value=16, max_value=400),
    churn_rounds=st.integers(min_value=0, max_value=3),
    extra_crashes=st.integers(min_value=0, max_value=40),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_batch_routing_matches_sequential_on_stale_rings(
    n_peers, churn_rounds, extra_crashes, seed
):
    """route_probes_batch ≡ route_to_key per probe, stale pointers included.

    Churn with mostly crashes, then crashes no maintenance repairs, leaves
    dead fingers (timeouts in the batch) and dead successors (probes the
    batch hands to the scalar resume) — owner, hops, timeouts, and the
    ledger must still be those of the sequential loop.
    """
    network = RingNetwork.create(n_peers, seed=seed)
    rng = np.random.default_rng(seed + 1)
    config = ChurnConfig(join_rate=0.05, leave_rate=0.05, crash_fraction=0.7)
    ChurnProcess(network, config, rng=rng).run(churn_rounds)
    ids = network.peer_ids()
    for index in rng.permutation(len(ids))[: min(extra_crashes, len(ids) - 8)].tolist():
        chord.crash(network, ids[index])
    ids = network.peer_ids()
    entries = [network.node(ids[i]) for i in rng.integers(0, len(ids), size=300).tolist()]
    keys = rng.integers(0, network.space.size, size=300, dtype=np.uint64).tolist()

    batch, batch_hops = _hops_posted(
        network, lambda: route_probes_batch(network, entries, keys)
    )
    sequential, sequential_hops = _hops_posted(
        network, lambda: [route_to_key(network, e, k) for e, k in zip(entries, keys)]
    )
    assert [(r.owner.ident, r.hops, r.timeouts) for r in batch] == [
        (r.owner.ident, r.hops, r.timeouts) for r in sequential
    ]
    assert batch_hops == sequential_hops == sum(r.hops for r in sequential)


@SETTINGS
@given(
    n_peers=st.integers(min_value=1, max_value=400),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_compact_routing_matches_object_batch(n_peers, seed):
    """CompactRing.route_batch ≡ route_probes_batch on the same stabilized ring."""
    network = RingNetwork.create(n_peers, seed=seed)
    compact = RingNetwork.create(n_peers, seed=seed, compact=True)
    rng = np.random.default_rng(seed)
    entries = rng.integers(0, n_peers, size=300)
    keys = rng.integers(0, network.space.size, size=300, dtype=np.uint64)
    ids = network.peer_ids()

    batch = route_probes_batch(
        network, [network.node(ids[i]) for i in entries.tolist()], keys.tolist()
    )
    owners, hops = compact.route_batch(entries, keys)
    assert compact.ids[owners].tolist() == [r.owner.ident for r in batch]
    assert hops.tolist() == [r.hops for r in batch]
    assert all(r.timeouts == 0 for r in batch)
    assert compact.stats.as_dict() == network.stats.as_dict()
