"""Checkpointing: serialize a network's full state to JSON and back.

Long experiments (churn campaigns, drift runs) benefit from reproducible
snapshots: a checkpoint captures every peer's identifier, overlay pointers
(including possibly-stale ones — they are state, not derivable), stored
values, and replica snapshots, plus the network-level configuration.  The
message ledger is *not* checkpointed: costs belong to a run, not a state.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np

from repro.ring.faults import FaultPlane
from repro.ring.identifier import IdentifierSpace
from repro.ring.network import RingNetwork
from repro.ring.node import PeerNode

__all__ = [
    "clone_network",
    "network_to_dict",
    "network_from_dict",
    "save_network",
    "load_network",
]

_FORMAT_VERSION = 1


def clone_network(network: RingNetwork) -> RingNetwork:
    """Deep-copy a network in memory, including its RNG stream position.

    Experiments that sweep a parameter while holding the fixture constant
    (F6 runs five churn rates against the *same* seeded network, F18 runs
    three retry budgets per fault scenario) used to rebuild the identical
    fixture once per cell.  A structural copy is an order of magnitude
    cheaper than ``create`` + ``load_data`` and — because the generator
    state is copied via ``bit_generator.state`` — the clone draws exactly
    the stream a freshly built fixture would, so every downstream table
    stays byte-identical.

    The clone gets a fresh ledger (costs belong to a run, not a state) but
    *inherits* the source's derived caches wherever sharing is sound: the
    snapshot plane's data arrays and overlay views (read-only by contract,
    and never mutated in place — incremental refreshes rebind fresh
    arrays), each store's hashed/packed caches, and each peer's synopsis
    memo (summaries are immutable and keyed on store version and
    predecessor, both of which the clone starts out sharing).  Without
    this, every clone would pay a full snapshot rebuild and a cold
    synopsis cache on its first estimate — most of the cost cloning is
    meant to avoid.

    Fault planes are deliberately not cloned: the plane's RNG is stateful
    and cell-specific, so callers must install a fresh one per clone
    (exactly what F18 does).  Cloning a network with an *active* plane —
    structural faults configured or scheduled — is therefore refused
    rather than silently shared.  An inert plane carrying only a base
    ``loss_rate`` (what ``install_faults(FaultPlane(loss_rate=p))``
    installs) is pure configuration: the clone gets its own equivalent plane, built
    from the same seed, and the scalar loss model keeps drawing from the
    network generator whose state is copied below.
    """
    if network.faults is not None and network.faults.active:
        raise ValueError(
            "refusing to clone a network with an active fault plane; "
            "clone first, then install a fresh plane per clone"
        )
    clone = RingNetwork(network.space, domain=network.domain)
    if network.faults is not None:
        clone.install_faults(
            FaultPlane(seed=network.faults.seed, loss_rate=network.faults.loss_rate)
        )
    clone.loss_rate = network.loss_rate
    source_bg = network.rng.bit_generator
    clone_bg = type(source_bg)()
    clone_bg.state = source_bg.state  # the property returns a fresh dict
    clone.rng = np.random.Generator(clone_bg)

    nodes = clone._nodes
    for src in network._nodes.values():
        node = PeerNode(src.ident, network.space)
        node.predecessor_id = src.predecessor_id
        node.successor_id = src.successor_id
        node._fingers = list(src._fingers)
        node.successor_list = list(src.successor_list)
        node.next_finger_index = src.next_finger_index
        node.alive = src.alive
        node.host_id = src.host_id
        node.byzantine = src.byzantine
        node.replicas = dict(src.replicas)  # value snapshots are immutable tuples
        node.store._list = list(src.store._list)
        node.store.version = src.store.version
        # Shared memo caches: summaries are immutable, and their keys
        # (store version, predecessor, byzantine profile) hold in the clone
        # until its own state diverges — at which point lookups simply miss.
        node.summary_cache = dict(src.summary_cache)
        nodes[node.ident] = node
        clone._arm_store(node)
    clone._sorted_ids = list(network._sorted_ids)

    # Hand the clone a pre-warmed snapshot plane instead of letting it pay
    # a full rebuild (global sort plus overlay reconstruction) on first
    # use.  Freshen the source's snapshot, then alias its arrays: they are
    # read-only caches, and every refresh path rebinds new arrays rather
    # than mutating these, so sharing across networks is safe.
    source_snapshot = network.snapshot()
    source_snapshot.successor_array()  # warm the overlay views too
    snap = clone._snapshot
    snap._token = (clone.topology_version, clone.data_version)
    snap._ids = source_snapshot._ids
    snap._chunks = dict(source_snapshot._chunks)
    snap._counts = source_snapshot._counts
    snap._cum_counts = source_snapshot._cum_counts
    snap._values = source_snapshot._values
    snap._sorted_values = source_snapshot._sorted_values
    if source_snapshot._overlay_token == network.topology_version:
        snap._overlay_token = clone.topology_version
        snap._successors = source_snapshot._successors
        snap._predecessors = source_snapshot._predecessors
        snap._predecessor_valid = source_snapshot._predecessor_valid
        snap._finger_matrix = source_snapshot._finger_matrix
        snap._finger_valid = source_snapshot._finger_valid
        snap._adjacency = source_snapshot._adjacency
        snap._overlay_ids = source_snapshot._overlay_ids
        if source_snapshot._scan_token == source_snapshot._overlay_token:
            snap._scan_token = snap._overlay_token
            snap._scan_matrix = source_snapshot._scan_matrix
    return clone


def network_to_dict(network: RingNetwork) -> dict[str, Any]:
    """Snapshot a network (peers, pointers, data, replicas) as plain data."""
    peers = []
    for node in network.peers():
        peers.append(
            {
                "ident": node.ident,
                "predecessor": node.predecessor_id,
                "successor": node.successor_id,
                "fingers": list(node.fingers),
                "successor_list": list(node.successor_list),
                "next_finger_index": node.next_finger_index,
                "values": list(node.store.values()),
                "replicas": {
                    str(owner): list(snapshot)
                    for owner, snapshot in node.replicas.items()
                },
            }
        )
    return {
        "format_version": _FORMAT_VERSION,
        "bits": network.space.bits,
        "domain": list(network.domain),
        "loss_rate": network.loss_rate,
        "peers": peers,
    }


def network_from_dict(payload: dict[str, Any]) -> RingNetwork:
    """Rebuild a network from a :func:`network_to_dict` snapshot.

    Overlay pointers are restored verbatim (stale state is preserved);
    only the oracle registry is reconstructed.  The restored network gets
    a fresh ledger and a fresh default generator — pass reproducibility
    concerns through your own seeds as usual.
    """
    version = payload.get("format_version")
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format version: {version!r}")
    space = IdentifierSpace(int(payload["bits"]))
    domain = tuple(payload["domain"])
    network = RingNetwork(space, domain=domain)
    loss_rate = float(payload["loss_rate"])
    if loss_rate > 0.0:
        # Checkpoints predate the plane-owned loss model: restore the rate
        # as an equivalent base-loss plane (the scalar field's one owner).
        network.install_faults(FaultPlane(loss_rate=loss_rate))
    for entry in payload["peers"]:
        node = PeerNode(int(entry["ident"]), space)
        node.predecessor_id = (
            int(entry["predecessor"]) if entry["predecessor"] is not None else None
        )
        node.successor_id = int(entry["successor"])
        node.fingers = [
            int(f) if f is not None else None for f in entry["fingers"]
        ]
        node.successor_list = [int(s) for s in entry["successor_list"]]
        node.next_finger_index = int(entry["next_finger_index"])
        node.store.insert_many(float(v) for v in entry["values"])
        node.replicas = {
            int(owner): tuple(float(v) for v in snapshot)
            for owner, snapshot in entry["replicas"].items()
        }
        network._register(node)
    return network


def save_network(network: RingNetwork, path: str | Path) -> Path:
    """Write a JSON checkpoint; returns the written path."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(network_to_dict(network)), encoding="utf-8")
    return target


def load_network(path: str | Path) -> RingNetwork:
    """Read a JSON checkpoint written by :func:`save_network`."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    return network_from_dict(payload)
