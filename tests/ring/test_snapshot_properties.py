"""Property-style tests for the ring snapshot plane.

The snapshot is maintained incrementally from churn deltas; its one
correctness obligation is to stay indistinguishable from a from-scratch
rebuild.  These tests interleave joins, graceful leaves, crashes, and
direct store writes in randomized rounds and assert, after every round,
that the incrementally refreshed snapshot equals both the raw object
graph and a fresh :class:`RingSnapshot` built from nothing.  The overlay
views (pointer arrays, finger tables, scan table, resolved pointers,
adjacency) are kept current from the network's pointer-write log; a
Hypothesis property interleaves every pointer-writing operation and checks
them against a cold rebuild after each one.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.baselines.random_walk import _build_adjacency
from repro.ring.chord import (
    _maintenance_round_fast,
    crash,
    fix_one_finger,
    join,
    leave_gracefully,
    maintenance_round,
    stabilize,
)
from repro.ring.churn import ChurnConfig, ChurnProcess
from repro.ring.messages import MessageType
from repro.ring.mutation import matrix_maintenance_round
from repro.ring.network import NetworkError, RingNetwork
from repro.ring.routing import _BATCH_TAIL_CUTOFF, route_probes_batch, route_to_key
from repro.ring.serialization import clone_network
from repro.ring.snapshot import RingSnapshot

from tests.conftest import make_loaded_network


def _reference_arrays(network):
    """Data-plane ground truth computed straight off the object graph."""
    ids = sorted(network.peer_ids())
    chunks = [np.asarray(list(network.node(ident).store), dtype=float) for ident in ids]
    counts = np.asarray([c.size for c in chunks], dtype=np.int64)
    values = np.concatenate(chunks) if chunks else np.empty(0)
    return (
        np.asarray(ids, dtype=np.uint64),
        counts,
        np.concatenate((np.zeros(1, dtype=np.int64), np.cumsum(counts))),
        values,
        np.sort(values),
    )


def _assert_snapshot_exact(network):
    """The incremental snapshot must equal the reference and a cold rebuild."""
    snap = network.snapshot()
    ids, counts, cum, values, sorted_values = _reference_arrays(network)
    assert np.array_equal(snap.ids, ids)
    assert np.array_equal(snap.counts, counts)
    assert np.array_equal(snap.cum_counts, cum)
    assert np.array_equal(snap.offsets, cum)
    assert np.array_equal(snap.values, values)
    assert np.array_equal(snap.sorted_values, sorted_values)
    assert snap.total_count == int(cum[-1])
    for index, ident in enumerate(ids.tolist()):
        assert np.array_equal(snap.chunk(ident), values[cum[index] : cum[index + 1]])
    # A snapshot that has never seen the network takes the full-rebuild
    # path; byte-equality with it proves the delta path lost nothing.
    cold = RingSnapshot(network).refresh()
    assert np.array_equal(snap.ids, cold.ids)
    assert np.array_equal(snap.values, cold.values)
    assert np.array_equal(snap.sorted_values, cold.sorted_values)


def _random_live_ident(network, rng):
    ids = list(network.peer_ids())
    return int(ids[int(rng.integers(0, len(ids)))])


def _random_free_ident(network, rng):
    while True:
        ident = int(rng.integers(0, network.space.size, dtype=np.uint64))
        if ident not in network:
            return ident


def _churn_round(network, rng, joins, leaves, crashes, writes):
    """One interleaved round of membership and data mutations."""
    operations = (
        ["join"] * joins + ["leave"] * leaves + ["crash"] * crashes + ["write"] * writes
    )
    rng.shuffle(operations)
    for op in operations:
        if op == "join":
            join(network, _random_free_ident(network, rng))
        elif op == "leave" and network.n_peers > 4:
            leave_gracefully(network, _random_live_ident(network, rng))
        elif op == "crash" and network.n_peers > 4:
            crash(network, _random_live_ident(network, rng))
        elif op == "write":
            node = network.random_peer()
            low, high = network.domain
            node.store.insert_many(rng.uniform(low, high, size=int(rng.integers(1, 40))))


class TestSnapshotChurnEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_interleaved_churn_rounds(self, seed):
        network, _ = make_loaded_network(n_peers=24, n_items=600, seed=seed)
        rng = np.random.default_rng(seed + 100)
        _assert_snapshot_exact(network)
        for round_index in range(8):
            _churn_round(network, rng, joins=2, leaves=1, crashes=1, writes=3)
            if round_index % 2 == 0:
                maintenance_round(network)
            _assert_snapshot_exact(network)

    def test_write_only_rounds_use_dirty_stores(self):
        # No membership change: the delta path runs purely off the
        # dirty-store set.
        network, _ = make_loaded_network(n_peers=16, n_items=400, seed=7)
        rng = np.random.default_rng(7)
        network.snapshot()
        for _ in range(5):
            _churn_round(network, rng, joins=0, leaves=0, crashes=0, writes=4)
            _assert_snapshot_exact(network)

    def test_removals_with_duplicate_values(self):
        # Duplicated values stress the occurrence-rank delete: removing one
        # peer's copies must not delete another peer's equal items.
        network, _ = make_loaded_network(n_peers=12, n_items=200, seed=11)
        rng = np.random.default_rng(11)
        dup = float(np.mean(network.domain))
        for node in list(network.peers()):
            node.store.insert_many([dup] * 3)
        network.snapshot()
        for _ in range(4):
            crash(network, _random_live_ident(network, rng))
            leave_gracefully(network, _random_live_ident(network, rng))
            _assert_snapshot_exact(network)

    def test_bulk_turnover_triggers_full_resort(self):
        # Churning most of the data in one delta crosses the full-rebuild
        # fraction; the answer must not change.
        network, _ = make_loaded_network(n_peers=8, n_items=300, seed=13)
        rng = np.random.default_rng(13)
        network.snapshot()
        low, high = network.domain
        for node in list(network.peers()):
            node.store.pop_all()
            node.store.insert_many(rng.uniform(low, high, size=80))
        _assert_snapshot_exact(network)

    def test_adjacency_matches_scalar_reference(self):
        network, _ = make_loaded_network(n_peers=20, n_items=100, seed=17)
        rng = np.random.default_rng(17)
        for _ in range(3):
            _churn_round(network, rng, joins=1, leaves=1, crashes=1, writes=0)
            maintenance_round(network)
            assert network.snapshot().adjacency() == _build_adjacency(network)


# ----------------------------------------------------------------------
# Overlay views maintained from the network's pointer-write log
# ----------------------------------------------------------------------
STEPS = (
    "join",
    "leave",
    "crash",
    "stabilize",
    "fix_finger",
    "break_finger",
    "matrix_round",
    "scalar_round",
    "churn_round",
    "rebuild",
    "clone",
)


def _overlay_views(snap):
    """Every overlay-plane view of a snapshot, as comparable values."""
    predecessors, predecessor_valid = snap.predecessor_array()
    fingers, finger_valid = snap.finger_tables()
    return {
        "successors": snap.successor_array(),
        "predecessors": predecessors,
        "predecessor_valid": predecessor_valid,
        "fingers": fingers,
        "finger_valid": finger_valid,
        "scan": snap.finger_scan_tables(),
        **{f"pointers.{name}": value for name, value in snap.pointers()._asdict().items()},
        "adjacency": snap.adjacency(),
    }


def _assert_overlay_exact(network):
    """The live (delta-maintained) overlay views equal a cold rebuild's."""
    live = _overlay_views(network.snapshot())
    cold = _overlay_views(RingSnapshot(network))
    for name, value in live.items():
        if name == "adjacency":
            assert value == cold[name], name
        else:
            assert value.shape == cold[name].shape, name
            assert np.array_equal(value, cold[name]), name


def _route_outcome(network, route, entries, keys):
    """Owners, hops, timeouts and the LOOKUP_HOP ledger delta of a routing call."""
    before = network.stats.count_of(MessageType.LOOKUP_HOP)
    try:
        results = route(entries, keys)
    except NetworkError as exc:
        return type(exc).__name__
    rows = [(r.owner.ident, r.hops, r.timeouts) for r in results]
    return rows, network.stats.count_of(MessageType.LOOKUP_HOP) - before


def _assert_batch_matches_sequential(network, rng, count):
    entries = [network.random_peer() for _ in range(count)]
    keys = [int(k) for k in rng.integers(0, network.space.size, size=count, dtype=np.uint64)]
    batch = _route_outcome(
        network, lambda e, k: route_probes_batch(network, e, k), entries, keys
    )
    sequential = _route_outcome(
        network,
        lambda e, k: [route_to_key(network, entry, key) for entry, key in zip(e, k)],
        entries,
        keys,
    )
    assert batch == sequential


def _apply_step(network, step, rng, churn):
    """One overlay mutation; returns a new clone for the ``clone`` step."""
    ids = list(network.peer_ids())
    peer = network.node(ids[int(rng.integers(0, len(ids)))])
    if step == "join":
        join(network, _random_free_ident(network, rng))
    elif step == "leave" and network.n_peers > 4:
        leave_gracefully(network, peer.ident)
    elif step == "crash" and network.n_peers > 4:
        crash(network, peer.ident)
    elif step == "stabilize":
        stabilize(network, peer)
    elif step == "fix_finger":
        fix_one_finger(network, peer)
    elif step == "break_finger":
        # fix_one_finger's failed-lookup branch: the entry becomes None.
        k = int(rng.integers(0, network.space.bits))
        if peer.set_finger(k, None):
            network.note_overlay_change((), [(peer.ident, k)])
    elif step == "matrix_round":
        matrix_maintenance_round(network, 1)  # declines (a no-op) off its state
    elif step == "scalar_round":
        _maintenance_round_fast(network, 1)
    elif step == "churn_round":
        churn.run_round()
    elif step == "rebuild":
        network.rebuild_overlay()
    elif step == "clone":
        return clone_network(network)
    return None


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    bits=st.sampled_from([8, 12, 64]),
    steps=st.lists(st.sampled_from(STEPS), min_size=1, max_size=14),
)
def test_overlay_delta_equals_cold_rebuild(seed, bits, steps):
    """After every pointer mutation, the overlay views kept current from
    the write log equal a fresh snapshot's, batch routing equals
    sequential routing, and clones taken earlier are untouched by the
    source's later churn."""
    network = RingNetwork.create(12, bits=bits, seed=seed)
    network.load_data(np.random.default_rng(seed).uniform(size=200))
    rng = np.random.default_rng(seed + 1)
    churn = ChurnProcess(
        network,
        ChurnConfig(join_rate=0.2, leave_rate=0.2, crash_fraction=0.5),
        rng=np.random.default_rng(seed + 2),
    )
    clones = []
    _assert_overlay_exact(network)
    for step in steps:
        clone = _apply_step(network, step, rng, churn)
        if clone is not None:
            clones.append(clone)
        _assert_overlay_exact(network)
        _assert_batch_matches_sequential(network, rng, 2 * _BATCH_TAIL_CUTOFF)
        for clone in clones:
            _assert_overlay_exact(clone)
    for clone in clones:
        # A clone's own churn runs on its own write log.
        _maintenance_round_fast(clone, 1)
        join(clone, _random_free_ident(clone, rng))
        _assert_overlay_exact(clone)
        _assert_overlay_exact(network)


def test_small_batch_skips_the_snapshot_after_churn():
    """A batch of at most the straggler cutoff routes sequentially: it
    leaves the overlay view alone and matches route_to_key exactly."""
    network, _ = make_loaded_network(n_peers=64, n_items=2_000, seed=5)
    network.snapshot().finger_scan_tables()
    churn = ChurnProcess(
        network,
        ChurnConfig(join_rate=0.05, leave_rate=0.05, crash_fraction=0.5),
        rng=np.random.default_rng(6),
    )
    churn.run_round()
    snap = network._snapshot
    overlay_token = snap._overlay_token
    data_token = snap.version_token
    rng = np.random.default_rng(7)
    dirty = next(ident for ident in network._dirty_stores if ident in network)
    _assert_batch_matches_sequential(network, rng, _BATCH_TAIL_CUTOFF)
    assert snap._overlay_token == overlay_token
    assert snap.version_token == data_token
    # The listeners a refresh would have re-armed are re-armed, so the
    # next write to an already-changed store still advances data_version.
    version = network.data_version
    network.node(dirty).store.insert(0.5)
    assert network.data_version == version + 1
