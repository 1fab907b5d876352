"""Chord protocol dynamics: join, leave, crash, and maintenance.

The construction path (:meth:`RingNetwork.create` + ``rebuild_overlay``)
gives a perfectly stabilized ring for static experiments.  This module
provides the *incremental* protocol the churn experiments exercise: peers
join through a routed lookup, take over part of their successor's interval
(with data handoff), depart gracefully or by crashing, and the background
``stabilize`` / ``fix_fingers`` maintenance repairs the pointer state — all
with honest message accounting.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.ring.identifier import RingInterval
from repro.ring.messages import MessageType
from repro.ring.network import NetworkError, RingNetwork
from repro.ring.node import PeerNode
from repro.ring.routing import _EMPTY_EXCLUSIONS, _live_successor, route_to_key

__all__ = [
    "join",
    "leave_gracefully",
    "crash",
    "stabilize",
    "fix_one_finger",
    "maintenance_round",
    "random_unused_identifier",
]


#: Attempt budget multiplier for identifier rejection sampling.  Expected
#: draws per success is ``size / free``; going this far past it means the
#: space is effectively saturated and the caller gets an error, not a spin.
_SATURATION_ATTEMPT_FACTOR = 32

#: Escalating batch sizes for the (rare) collision path.
_REJECTION_BATCHES = (8, 32, 128)


def random_unused_identifier(network: RingNetwork, rng: Optional[np.random.Generator] = None) -> int:
    """Draw a uniform identifier not currently claimed by a live peer.

    Sparse spaces draw one identifier at a time — bit-stream identical to
    the historical rejection loop, so callers whose generator is correlated
    with the construction draws see exactly the identifiers they always
    did.  Only a dense space (at least half taken) escalates to batch draws
    checked against the sorted-id array in one vectorized membership pass,
    and raises :class:`NetworkError` instead of spinning forever when the
    identifier space is (nearly) saturated.
    """
    generator = rng if rng is not None else network.rng
    return _draw_unused_identifier(network, generator, None)


def _draw_unused_identifier(
    network: RingNetwork,
    generator: np.random.Generator,
    reserved: Optional[set[int]],
) -> int:
    """Rejection-sampling core shared with the churn round-planner.

    ``reserved`` holds identifiers claimed by the caller but not yet
    registered (the planner's already-drawn joins); membership is the union
    of the live registry and that set, so the planner consumes draws in
    exactly the pattern the sequential join loop would.
    """
    space = network.space
    size = space.size
    nodes = network._nodes
    taken_count = len(nodes) + (len(reserved) if reserved else 0)
    free = size - taken_count
    if free <= 0:
        raise NetworkError(
            f"identifier space saturated: {taken_count} of {size} identifiers taken"
        )
    ident = int(generator.integers(0, size, dtype=np.uint64))
    if ident not in nodes and (reserved is None or ident not in reserved):
        return ident
    attempts = 1
    # Repeated collisions in a sparse space are astronomically unlikely
    # under an independent stream but entirely possible under a correlated
    # one (a caller reusing the construction seed replays the very draws
    # that placed the peers).  Such callers depend on consuming the stream
    # one value per attempt — a batch draw would hand later joins different
    # identifiers and hence a different (but equally legal) topology — so
    # the sparse path stays scalar and unbounded, exactly the historical
    # loop.  Expected draws per success is size/free, i.e. barely above 1.
    dense = taken_count >= free
    if not dense:
        while True:
            ident = int(generator.integers(0, size, dtype=np.uint64))
            if ident not in nodes and (reserved is None or ident not in reserved):
                return ident
    # Dense space: exhaustion is the plausible explanation for collisions,
    # so escalate to vectorized batch draws under a give-up limit.
    limit = _SATURATION_ATTEMPT_FACTOR * max(1, size // free)
    sorted_ids = network.sorted_ids_array()
    batch_index = 0
    while attempts < limit:
        batch = _REJECTION_BATCHES[batch_index]
        batch_index = min(batch_index + 1, len(_REJECTION_BATCHES) - 1)
        candidates = generator.integers(0, size, size=batch, dtype=np.uint64)
        attempts += batch
        if sorted_ids.size:
            pos = np.searchsorted(sorted_ids, candidates)
            np.minimum(pos, sorted_ids.size - 1, out=pos)
            live = sorted_ids[pos] == candidates
        else:
            live = np.zeros(batch, dtype=bool)
        for candidate, taken in zip(candidates.tolist(), live.tolist()):
            if not taken and (reserved is None or candidate not in reserved):
                return int(candidate)
    raise NetworkError(
        f"no unused identifier found after {attempts} draws; identifier "
        f"space nearly saturated ({taken_count} of {size} taken)"
    )


def join(network: RingNetwork, new_ident: int, via: Optional[PeerNode] = None) -> PeerNode:
    """A new peer with identifier ``new_ident`` joins through peer ``via``.

    The join routes a lookup for its own identifier to find its successor,
    splits the successor's ownership interval, receives the data items that
    now belong to it, and links itself between predecessor and successor.
    Its finger table starts as a copy of the successor's (the standard
    practical bootstrap) and is repaired incrementally by ``fix_fingers``.
    """
    network.space.validate(new_ident)
    if new_ident in network:
        raise ValueError(f"identifier {new_ident} already in use")
    if network.n_peers == 0:
        raise NetworkError("cannot join an empty network; create it first")
    entry = via if via is not None else network.random_peer()

    network.record(MessageType.JOIN)
    successor = route_to_key(network, entry, new_ident).owner

    new_node = PeerNode(new_ident, network.space)
    predecessor_id = successor.predecessor_id
    new_node.predecessor_id = predecessor_id
    new_node.successor_id = successor.ident
    # Bootstrap fingers and successor list from the successor; fix_fingers
    # and stabilize refine them incrementally.
    new_node.fingers = list(successor.fingers)
    new_node.set_finger(0, successor.ident)
    new_node.successor_list = [successor.ident, *successor.successor_list][
        : network.SUCCESSOR_LIST_LENGTH
    ]

    # Hand off the data the new node now owns: ring interval (pred, new].
    if predecessor_id is not None:
        taken_interval = RingInterval(network.space, predecessor_id, new_ident)
    else:
        taken_interval = RingInterval(network.space, successor.ident, new_ident)
    moved = _pop_interval(network, successor, taken_interval)
    new_node.store.insert_many(moved)
    network.record(MessageType.DATA_TRANSFER, payload=len(moved))

    # Link in: successor's predecessor, predecessor's successor.
    successor.predecessor_id = new_ident
    relinked = [successor.ident]
    if predecessor_id is not None:
        predecessor = network.try_node(predecessor_id)
        if predecessor is not None:
            predecessor.successor_id = new_ident
            relinked.append(predecessor_id)
            network.record(MessageType.NOTIFY)

    network._note_pointer_writes(relinked)
    network._register(new_node)
    return new_node


def _pop_interval(network: RingNetwork, node: PeerNode, interval: RingInterval) -> list[float]:
    """Extract ``node``'s items whose ring positions fall in ``interval``.

    Vectorized twin of ``store.pop_where(lambda v: interval.contains(
    data_hash(v)))``: all values are hashed in one pass (byte-identical to
    the scalar hash by the ``map_values`` contract) and the ``(start, end]``
    membership test is the usual two-complement distance comparison, so the
    extracted set matches the predicate exactly.
    """
    arr = node.store.as_array()
    if not arr.size:
        return []
    if interval.start == interval.end:  # full ring: the node cedes everything
        return node.store.pop_all()
    keys = network.data_hash.map_values(arr)
    mask = np.uint64(network.space.mask)
    distance = (keys - np.uint64(interval.start)) & mask
    reach = np.uint64(network.space.distance(interval.start, interval.end))
    return node.store.pop_mask((distance > np.uint64(0)) & (distance <= reach))


def leave_gracefully(network: RingNetwork, ident: int) -> None:
    """Peer departs politely: ships its data to its successor and relinks.

    The last peer of the network may not leave (the data would have no home).
    """
    node = network.node(ident)
    if network.n_peers == 1:
        raise NetworkError("the last peer cannot leave the network")
    network.record(MessageType.LEAVE)

    successor = _live_neighbor(network, node.successor_id, node.ident)
    moved = node.store.pop_all()
    successor.store.insert_many(moved)
    network.record(MessageType.DATA_TRANSFER, payload=len(moved))

    # Relink neighbours around the departing peer.
    successor.predecessor_id = node.predecessor_id
    relinked = [successor.ident]
    if node.predecessor_id is not None:
        predecessor = network.try_node(node.predecessor_id)
        if predecessor is not None:
            predecessor.successor_id = successor.ident
            relinked.append(predecessor.ident)
            network.record(MessageType.NOTIFY)

    network._note_pointer_writes(relinked)
    node.alive = False
    network._unregister(ident)


def crash(network: RingNetwork, ident: int) -> int:
    """Peer fails abruptly; its data is lost (no replication in this model).

    Returns the number of items lost.  Neighbour pointers are left stale on
    purpose — only subsequent :func:`stabilize` rounds repair the ring,
    which is what makes churn genuinely stress the estimators.
    """
    node = network.node(ident)
    if network.n_peers == 1:
        raise NetworkError("the last peer cannot crash away the whole network")
    lost = node.store.count
    node.store.pop_all()
    node.alive = False
    network._unregister(ident)
    return lost


def stabilize(network: RingNetwork, node: PeerNode) -> None:
    """One Chord stabilization step for ``node``.

    Ask the successor for its predecessor; adopt it if it sits between;
    then notify the successor so it can adopt us as predecessor.  A dead
    successor pointer is repaired through the successor-list fallback
    (modelled by one oracle repair at the cost of the timed-out probe).
    """
    network.record(MessageType.STABILIZE)
    successor_before = node.successor_id
    successor = network.try_node(node.successor_id)
    if successor is None or not successor.alive:
        # Timed-out probe, then fall back to the successor list.
        repaired = network._oracle_successor(network.space.add(node.ident, 1))
        node.successor_id = repaired
        successor = network.node(repaired)
    candidate_id = successor.predecessor_id
    if candidate_id is not None and candidate_id != node.ident:
        candidate = network.try_node(candidate_id)
        if candidate is not None and network.space.in_open(
            candidate_id, node.ident, successor.ident
        ):
            node.successor_id = candidate_id
            successor = candidate
    # Refresh the successor list from the (now live) successor: its
    # identity followed by the head of its own list.
    length = network.SUCCESSOR_LIST_LENGTH
    refreshed = [successor.ident]
    for entry in successor.successor_list:
        if len(refreshed) >= length:
            break
        if entry != node.ident and entry not in refreshed:
            refreshed.append(entry)
    node.successor_list = refreshed
    network.record(MessageType.NOTIFY)
    relinked = [node.ident] if node.successor_id != successor_before else []
    predecessor_before = successor.predecessor_id
    _notify(network, successor, node)
    if successor.predecessor_id != predecessor_before:
        relinked.append(successor.ident)
    network.note_overlay_change(relinked)


def _notify(network: RingNetwork, successor: PeerNode, node: PeerNode) -> None:
    """Chord ``notify``: successor adopts ``node`` as predecessor if better."""
    current = successor.predecessor_id
    if current is None or network.try_node(current) is None:
        successor.predecessor_id = node.ident  # repro-lint: disable=VER001 (sole caller stabilize() bumps via note_overlay_change after notifying)
        return
    if network.space.in_open(node.ident, current, successor.ident):
        successor.predecessor_id = node.ident


def fix_one_finger(network: RingNetwork, node: PeerNode) -> None:
    """Repair the next finger (round-robin) with one routed lookup."""
    k = node.next_finger_index
    node.next_finger_index = (k + 1) % network.space.bits
    network.record(MessageType.FIX_FINGER)
    try:
        result = route_to_key(network, node, node.finger_target(k))
    except NetworkError:
        changed = node.set_finger(k, None)
    else:
        changed = node.set_finger(k, result.owner.ident)
    network.note_overlay_change((), [(node.ident, k)] if changed else ())


def maintenance_round(network: RingNetwork, fingers_per_peer: int = 1) -> None:
    """One background maintenance round across all live peers.

    Every peer runs one stabilize step and repairs ``fingers_per_peer``
    fingers.  Iteration order is ring order over the peers alive at the
    start of the round.

    At ``loss_rate == 0`` the round first tries the whole-ring matrix path
    in :mod:`repro.ring.mutation` — vectorized pointer repair and finger
    classification over the sorted-id vector — which applies when the ring
    is in the "true-or-dead" pointer state churn rounds leave behind and
    every finger fix terminates within one hop of its owner.  States the
    matrix cannot batch (mid-join pointers, finger fixes needing multi-hop
    routing) fall back to the bulk scalar fast path; pointer mutations,
    finger contents, and message totals are identical on every path (the
    scalar loop remains the reference, and the only path once deliveries
    can fail and consume RNG draws).
    """
    if network.loss_rate > 0.0:
        for ident in list(network.peer_ids()):
            node = network.try_node(ident)
            if node is None:
                continue
            stabilize(network, node)
            for _ in range(fingers_per_peer):
                fix_one_finger(network, node)
        return
    from repro.ring.mutation import matrix_maintenance_round

    if matrix_maintenance_round(network, fingers_per_peer):
        return
    _maintenance_round_fast(network, fingers_per_peer)


def _maintenance_round_fast(network: RingNetwork, fingers_per_peer: int) -> None:
    """Loss-free maintenance round: same protocol, bulk accounting.

    Mirrors :func:`stabilize` + :func:`fix_one_finger` per peer in the same
    ring order with the same pointer updates, but accumulates STABILIZE /
    NOTIFY / FIX_FINGER / LOOKUP_HOP counts locally and posts them in one
    bulk record each at round end — Counter totals are exactly those of the
    per-call records.  Finger lookups resolve through an inlined
    ``route_to_key`` fast path for the (overwhelmingly common) case where
    the target terminates at the node itself or its direct successor; any
    multi-hop lookup falls back to the full router, which does its own hop
    accounting.
    """
    space = network.space
    mask = space.mask
    size = space.size
    bits = space.bits
    list_length = network.SUCCESSOR_LIST_LENGTH
    nodes_get = network._nodes.get
    stabilizes = 0
    fixes = 0
    bulk_hops = 0
    # Peers whose successor or predecessor changed value, and the finger
    # entries that did.
    relinked: set[int] = set()
    fixed: list[tuple[int, int]] = []
    # Modular membership tests are inlined throughout (in_open(x, a, b) ⇔
    # 0 < (x−a)&mask < reach with reach = (b−a)&mask or size): they run a
    # handful of times per peer per round, and the method-call overhead
    # would dominate the integer work.
    for ident in list(network.peer_ids()):
        node = nodes_get(ident)
        if node is None:
            continue
        # --- stabilize (inlined; ledger deferred) ---
        stabilizes += 1
        self_id = node.ident
        successor = nodes_get(node.successor_id)
        if successor is None or not successor.alive:
            repaired = network._oracle_successor((self_id + 1) & mask)
            node.successor_id = repaired
            relinked.add(self_id)
            successor = network.node(repaired)
        candidate_id = successor.predecessor_id
        if candidate_id is not None and candidate_id != self_id:
            candidate = nodes_get(candidate_id)
            if candidate is not None and 0 < (candidate_id - self_id) & mask < (
                (successor.ident - self_id) & mask or size
            ):
                node.successor_id = candidate_id
                relinked.add(self_id)
                successor = candidate
        sl = successor.successor_list
        if self_id not in sl and successor.ident not in sl:
            # Common case: every stabilize/join/rebuild path produces
            # duplicate-free lists excluding their owner, so the reference
            # dedup loop below reduces to prepend-and-truncate.
            node.successor_list = [successor.ident, *sl[: list_length - 1]]
        else:
            refreshed = [successor.ident]
            for entry in sl:
                if len(refreshed) >= list_length:
                    break
                if entry != self_id and entry not in refreshed:
                    refreshed.append(entry)
            node.successor_list = refreshed
        # --- notify (inlined _notify) ---
        current = successor.predecessor_id
        if (
            current is None
            or nodes_get(current) is None
            or 0 < (self_id - current) & mask < ((successor.ident - current) & mask or size)
        ):
            successor.predecessor_id = self_id  # never its value already: self is live
            relinked.add(successor.ident)
        # --- fix fingers (inlined; ledger deferred) ---
        for _ in range(fingers_per_peer):
            k = node.next_finger_index
            node.next_finger_index = (k + 1) % bits
            fixes += 1
            target = (self_id + (1 << k)) & mask
            owner_id = -1
            if target == self_id:
                owner_id = self_id
            else:
                pred = node.predecessor_id
                if (
                    pred is not None
                    and nodes_get(pred) is not None
                    # in_half_open(target, pred, self): (pred, pred] is the
                    # full ring, else 0 < (t−p)&mask ≤ (s−p)&mask.
                    and (
                        pred == self_id
                        or 0 < (target - pred) & mask <= (self_id - pred) & mask
                    )
                ):
                    owner_id = self_id
                else:
                    successor_id = node.successor_id
                    if successor_id == self_id:
                        successor_id = _live_successor(network, node, _EMPTY_EXCLUSIONS)
                    else:
                        succ = nodes_get(successor_id)
                        if succ is None or not succ.alive:
                            successor_id = _live_successor(network, node, _EMPTY_EXCLUSIONS)
                    if (
                        successor_id == self_id
                        or 0 < (target - self_id) & mask <= (successor_id - self_id) & mask
                    ):
                        owner_id = successor_id
                        if owner_id != self_id:
                            bulk_hops += 1  # the final delivery hop
            finger: Optional[int] = owner_id
            if owner_id < 0:
                # Multi-hop lookup: the full router replays the identical
                # scan from scratch and bulk-records its own hops.
                try:
                    finger = route_to_key(network, node, target).owner.ident
                except NetworkError:
                    finger = None
            if node.set_finger(k, finger):
                fixed.append((self_id, k))
    if stabilizes:
        network.record(MessageType.STABILIZE, count=stabilizes)
        network.record(MessageType.NOTIFY, count=stabilizes)
    if fixes:
        network.record(MessageType.FIX_FINGER, count=fixes)
    if bulk_hops:
        network.record(MessageType.LOOKUP_HOP, count=bulk_hops)
    network.note_overlay_change(relinked, fixed)


def _live_neighbor(network: RingNetwork, pointer: Optional[int], self_ident: int) -> PeerNode:
    """Resolve a neighbour pointer, repairing through the oracle if stale."""
    if pointer is not None:
        node = network.try_node(pointer)
        if node is not None and node.alive:
            return node
    return network.node(network._oracle_successor(network.space.add(self_ident, 1)))
