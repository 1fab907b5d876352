"""Cost-counted routing over the overlay.

These functions implement Chord's iterative ``find_successor`` and plain
successor walks using only node-local pointers, recording every hop in the
network's message ledger.  They tolerate the stale pointers churn leaves
behind: a hop to a departed peer costs a (counted) timeout and the router
retries from the same node with that peer excluded.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

import numpy as np

from repro.ring.faults import FaultPlane, RetryPolicy
from repro.ring.lockstep import Pointers, route_lockstep
from repro.ring.messages import MessageType
from repro.ring.network import NetworkError, RingNetwork
from repro.ring.node import PeerNode

__all__ = [
    "RouteResult",
    "RouteOutcome",
    "RouteStep",
    "route_to_key",
    "route_probes_batch",
    "route_to_value",
    "route_with_policy",
    "iter_route_steps",
    "successor_walk",
    "RoutingError",
]


class RoutingError(NetworkError):
    """Raised when a lookup cannot make progress (partitioned overlay)."""


_EMPTY_EXCLUSIONS: frozenset[int] = frozenset()

#: Below this many still-advancing probes the batch router hands the
#: stragglers to the scalar loop: a vectorized step costs the same
#: whether it moves sixty probes or three, while a scalar hop is a few
#: microseconds, so the crossover sits well above a handful of probes.
_BATCH_TAIL_CUTOFF = 16


class RouteResult(NamedTuple):
    """Outcome of one lookup: the owning peer and what it cost.

    A named tuple: lookups run hundreds of thousands of times per
    experiment and tuple construction skips the frozen-dataclass
    ``__setattr__`` round-trip.
    """

    owner: PeerNode
    hops: int
    timeouts: int


class RouteOutcome(NamedTuple):
    """Outcome of a policy-aware lookup: possibly partial, never raised.

    The graceful-degradation counterpart of :class:`RouteResult`: instead
    of raising on a disconnected or faulty overlay, the router reports what
    happened.  ``owner is None`` iff ``failure`` is set.
    """

    owner: Optional[PeerNode]
    hops: int
    timeouts: int
    #: Retransmissions performed (lost sends that were retried).
    retries: int
    #: Accumulated exponential-backoff wait, in abstract time units (a
    #: latency cost model; backoff sends no messages).
    backoff_cost: float
    #: Why the lookup gave up, or ``None`` on success.  One of
    #: ``"empty_ring"``, ``"entry_stalled"``, ``"hop_budget"``,
    #: ``"retry_exhausted"``, ``"owner_unresponsive"``, ``"partitioned"``,
    #: ``"stuck"``.
    failure: Optional[str] = None

    @property
    def ok(self) -> bool:
        """Did the lookup reach the owner?"""
        return self.failure is None


def route_to_key(
    network: RingNetwork,
    start: PeerNode,
    key: int,
    max_hops: int | None = None,
    *,
    policy: RetryPolicy | None = None,
    _initial_hops: int = 0,
) -> RouteResult:
    """Route from ``start`` to the live peer owning ring position ``key``.

    Every forwarding step costs one ``LOOKUP_HOP`` message; a step towards a
    departed peer costs one hop (the timed-out probe) and is retried with
    that peer excluded.  Raises :class:`RoutingError` if the hop budget is
    exhausted, which only happens when churn has disconnected the overlay.

    ``policy`` bounds the lossy-delivery retransmission loops: with a
    bounded :class:`RetryPolicy` a link whose every attempt is lost raises
    :class:`RoutingError` instead of retrying forever, and the policy's
    ``max_hops`` supplies the hop budget when the argument is omitted.
    ``None`` (the default) is the historical unbounded-retry model,
    bit-identical to before the policy existed.  Callers that want partial
    results instead of exceptions use :func:`route_with_policy`.

    ``_initial_hops`` resumes a lookup mid-route for the batch router: the
    hops its vectorized prefix already took seed the counter (and the final
    bulk ledger record), and the entry shortcuts are skipped — a mid-route
    node answers through the standard termination test only, exactly as the
    sequential loop would have.
    """
    network.space.validate(key)
    attempt_cap = policy.max_attempts if policy is not None else None
    if max_hops is None and policy is not None:
        max_hops = policy.max_hops
    if max_hops is None:
        # Generous default: stabilized Chord needs O(log N); churned rings
        # may degenerate towards successor walking, so allow up to N + slack.
        max_hops = 2 * network.n_peers + network.space.bits
    current = start
    # Hops are accumulated locally and posted to the ledger in one bulk
    # record per lookup (including the error paths): final totals are
    # identical to per-hop recording at a fraction of the ledger calls.
    hops = _initial_hops
    timeouts = 0
    if _initial_hops == 0:
        if key == current.ident:
            return RouteResult(owner=current, hops=0, timeouts=0)
        # Local shortcut: a node whose *live* predecessor precedes the key
        # can answer immediately.  (If the predecessor has departed,
        # ownership is uncertain until stabilization, so fall through to
        # standard routing.)
        if current.predecessor_id is not None and network.try_node(current.predecessor_id):
            if network.space.in_half_open(key, current.predecessor_id, current.ident):
                return RouteResult(owner=current, hops=0, timeouts=0)
    # Ring membership tests are inlined modular arithmetic on the hot loop
    # (key ∈ (current, successor] ⇔ 0 < (key−current) < ∞ mod-distance at
    # or under the successor's; mod 2**m is a mask AND), and the loss model
    # is hoisted: at loss_rate 0 every delivery succeeds, so the
    # retransmission loops collapse to single counted hops.
    mask = network.space.mask
    size = network.space.size
    loss_free = network.loss_rate <= 0.0
    nodes_get = network._nodes.get
    try:
        while True:
            # Standard Chord termination: once key ∈ (current, successor],
            # the successor is the owner.  Predecessor pointers are never
            # consulted — they may be stale after a crash, but successor
            # pointers define ownership and are what stabilization keeps
            # correct.
            excluded: set[int] | None = None
            ident = current.ident
            # Inlined `_live_successor` fast path: the primary successor
            # pointer is almost always live; only fall back to the full
            # successor-list consult when it is not.
            successor_id = current.successor_id
            if successor_id == ident:
                successor_id = _live_successor(network, current, _EMPTY_EXCLUSIONS)
            else:
                succ = nodes_get(successor_id)
                if succ is None or not succ.alive:
                    successor_id = _live_successor(network, current, _EMPTY_EXCLUSIONS)
            if successor_id == ident or 0 < (key - ident) & mask <= (successor_id - ident) & mask:
                owner = network.node(successor_id)
                if owner.ident != ident:
                    # Final delivery hop, retransmitted until it arrives
                    # (or a bounded policy runs out of attempts).
                    attempts = 0
                    while True:
                        hops += 1
                        attempts += 1
                        if loss_free or network.delivery_succeeds():
                            break
                        if attempt_cap is not None and attempts >= attempt_cap:
                            raise RoutingError(
                                f"delivery of key {key} to owner {owner.ident} "
                                f"failed after {attempts} attempts"
                            )
                return RouteResult(owner=owner, hops=hops, timeouts=timeouts)
            next_node = None
            send_attempts = 0
            last_sent = -1
            while next_node is None:
                if excluded is None:
                    # Inlined timeout-free fast path of
                    # PeerNode.closest_preceding_finger (the reference
                    # implementation, kept there for the excluded case):
                    # scan the memoized finger order for the farthest
                    # finger inside (ident, key), then successor, then self.
                    scan = current._finger_scan
                    if scan is None:
                        scan = current._finger_scan_order()
                    reach = (key - ident) & mask or size
                    candidate = ident
                    for finger_id in scan:
                        if 0 < (finger_id - ident) & mask < reach:
                            candidate = finger_id
                            break
                    if candidate == ident:
                        successor_id = current.successor_id
                        if successor_id != ident and 0 < (successor_id - ident) & mask < reach:
                            candidate = successor_id
                else:
                    # A plain set works for the membership tests; building
                    # a frozenset per hop was measurable on churned rings.
                    candidate = current.closest_preceding_finger(key, excluded)
                if candidate == ident:
                    # No live finger precedes the key: fall to successor.
                    candidate = _live_successor(
                        network, current, _EMPTY_EXCLUSIONS if excluded is None else excluded
                    )
                resolved = nodes_get(candidate)
                hops += 1
                if hops > max_hops:
                    raise RoutingError(
                        f"lookup for key {key} exceeded {max_hops} hops from {start.ident}"
                    )
                if not loss_free and not network.delivery_succeeds():
                    if attempt_cap is not None:
                        # Bounded policy: after max_attempts lost sends to one
                        # candidate, declare the link down and fail over to the
                        # next route (successor-list / alternate finger).
                        send_attempts = send_attempts + 1 if candidate == last_sent else 1
                        last_sent = candidate
                        if send_attempts >= attempt_cap:
                            timeouts += 1
                            if excluded is None:
                                excluded = set()
                            excluded.add(candidate)
                            send_attempts = 0
                            last_sent = -1
                    continue  # lost in transit: retransmit to same candidate
                if resolved is not None and resolved.alive:
                    next_node = resolved
                else:
                    timeouts += 1
                    if excluded is None:
                        excluded = set()
                    excluded.add(candidate)
            if next_node.ident == ident:
                raise RoutingError(f"lookup for key {key} stuck at peer {current.ident}")
            current = next_node
    finally:
        if hops:
            network.record(MessageType.LOOKUP_HOP, count=hops)


class RouteStep(NamedTuple):
    """One routing decision of :func:`iter_route_steps`.

    ``kind`` is one of:

    * ``"forward"`` — one counted hop to the live peer ``ident``;
    * ``"timeout"`` — one counted hop towards the departed peer ``ident``
      (the sender times out and rescans at the same node with it excluded);
    * ``"deliver"`` — the final counted delivery hop to the owner ``ident``;
    * ``"done"`` — termination without a message: ``ident`` is the owner
      (the entry shortcuts, or the current node owns the key itself);
    * ``"fail"`` — one counted hop that exhausted the hop budget; ``detail``
      carries the :class:`RoutingError` message the reference would raise.
    """

    kind: str
    ident: int
    detail: str = ""


def iter_route_steps(
    network: RingNetwork,
    start: PeerNode,
    key: int,
    max_hops: int | None = None,
):
    """Loss-free routing decisions as a lazy step sequence (no ledger writes).

    This is :func:`route_to_key` factored into per-hop decisions so the
    event engine (:mod:`repro.ring.events`) can lay each hop out on the
    simulated clock: same entry shortcuts, same inlined finger scan, same
    timeout-and-exclude retries, same termination test, raised
    :class:`RoutingError` for the same stuck/budget states.  Consuming the
    whole sequence and recording one ``LOOKUP_HOP`` per ``forward`` /
    ``timeout`` / ``deliver`` / ``fail`` step reproduces the reference's
    owner, hop count, timeout count, and ledger totals exactly — the
    replay property the event-engine tests pin.

    Loss-free only: lossy delivery draws from the network RNG *during* the
    route, which only the synchronous reference may do (stream order).
    """
    network.space.validate(key)
    if network.loss_rate > 0.0:
        raise ValueError(
            "iter_route_steps models loss-free routing only; lossy delivery "
            "must go through route_to_key (RNG stream order)"
        )
    if max_hops is None:
        max_hops = 2 * network.n_peers + network.space.bits
    current = start
    if key == current.ident:
        yield RouteStep("done", current.ident)
        return
    if current.predecessor_id is not None and network.try_node(current.predecessor_id):
        if network.space.in_half_open(key, current.predecessor_id, current.ident):
            yield RouteStep("done", current.ident)
            return
    mask = network.space.mask
    size = network.space.size
    nodes_get = network._nodes.get
    hops = 0
    while True:
        excluded: set[int] | None = None
        ident = current.ident
        successor_id = current.successor_id
        if successor_id == ident:
            successor_id = _live_successor(network, current, _EMPTY_EXCLUSIONS)
        else:
            succ = nodes_get(successor_id)
            if succ is None or not succ.alive:
                successor_id = _live_successor(network, current, _EMPTY_EXCLUSIONS)
        if successor_id == ident or 0 < (key - ident) & mask <= (successor_id - ident) & mask:
            owner = network.node(successor_id)
            if owner.ident != ident:
                yield RouteStep("deliver", owner.ident)
            else:
                yield RouteStep("done", owner.ident)
            return
        next_node = None
        while next_node is None:
            if excluded is None:
                scan = current._finger_scan
                if scan is None:
                    scan = current._finger_scan_order()
                reach = (key - ident) & mask or size
                candidate = ident
                for finger_id in scan:
                    if 0 < (finger_id - ident) & mask < reach:
                        candidate = finger_id
                        break
                if candidate == ident:
                    successor_id = current.successor_id
                    if successor_id != ident and 0 < (successor_id - ident) & mask < reach:
                        candidate = successor_id
            else:
                candidate = current.closest_preceding_finger(key, excluded)
            if candidate == ident:
                candidate = _live_successor(
                    network, current, _EMPTY_EXCLUSIONS if excluded is None else excluded
                )
            resolved = nodes_get(candidate)
            hops += 1
            if hops > max_hops:
                yield RouteStep(
                    "fail",
                    candidate,
                    f"lookup for key {key} exceeded {max_hops} hops from {start.ident}",
                )
                return
            if resolved is not None and resolved.alive:
                next_node = resolved
                yield RouteStep("forward", candidate)
            else:
                yield RouteStep("timeout", candidate)
                if excluded is None:
                    excluded = set()
                excluded.add(candidate)
        if next_node.ident == ident:
            raise RoutingError(f"lookup for key {key} stuck at peer {current.ident}")
        current = next_node


def route_probes_batch(
    network: RingNetwork,
    entries: Sequence[PeerNode],
    keys: Sequence[int],
    *,
    policy: RetryPolicy | None = None,
) -> list[RouteResult]:
    """Route many independent lookups in vectorized lockstep.

    Loss-free routing is a pure read of the overlay (no pointer mutations,
    no RNG), so a batch of lookups against one frozen snapshot can advance
    all of them at once through :func:`repro.ring.lockstep.route_lockstep`
    over the snapshot's compressed finger-scan table.  Each probe's hop
    count, timeout count, and owner are exactly those of
    :func:`route_to_key`: the kernel takes the reference's steps,
    timed-out fingers included.  This function resolves which successor
    and predecessor pointers are live, and re-routes the probes the kernel
    leaves unfinished — a dead or self-looped successor pointer (the
    successor-list repair path), an exhausted hop budget, or the last few
    stragglers — through the scalar reference from the node where they
    stopped, byte-identical because the overlay state it reads is
    unchanged.  ``LOOKUP_HOP`` totals match the sequential path; with
    losses enabled the sequential path runs unconditionally to preserve
    RNG interleaving.
    """
    if len(keys) == 0:
        return []
    if policy is not None or network.loss_rate > 0.0 or network.n_peers == 0:
        # A policy implies per-link attempt accounting (stateful across the
        # lossy retransmission draws), so the sequential reference runs.
        return [
            route_to_key(network, entry, int(key), policy=policy)
            for entry, key in zip(entries, keys)
        ]
    snap = network.snapshot()
    ids = snap.ids
    last = ids.size - 1
    successors = snap.successor_array()
    predecessors, pred_valid = snap.predecessor_array()
    # A pointer is live iff it appears in the sorted live-id array
    # (departed peers are unregistered, so membership here is exactly
    # ``try_node(...) is not None``); its row doubles as the hop target.
    succ = np.minimum(np.searchsorted(ids, successors), last)
    pred = np.minimum(np.searchsorted(ids, predecessors), last)
    pointers = Pointers(
        succ=succ,
        succ_ok=(ids[succ] == successors) & (successors != ids),
        pred=predecessors,
        pred_ok=pred_valid & (ids[pred] == predecessors),
    )
    entry_ids = np.asarray([entry.ident for entry in entries], dtype=np.uint64)
    routes = route_lockstep(
        ids,
        snap.finger_scan_tables(),
        np.searchsorted(ids, entry_ids),
        [int(key) for key in keys],
        bits=network.space.bits,
        pointers=pointers,
        tail_cutoff=_BATCH_TAIL_CUTOFF,
    )
    batch_hops = int(routes.hops[~routes.unfinished].sum())
    if batch_hops:
        network.record(MessageType.LOOKUP_HOP, count=batch_hops)
    node_of = network.node
    id_list = ids.tolist()
    results: list[RouteResult] = []
    columns = (column.tolist() for column in routes)
    for key, row, hops, timeouts, unfinished in zip(keys, *columns):
        if unfinished:
            # Resume from the node where the batch stopped; its prefix is
            # the sequential loop's own first ``hops`` steps, so seeding the
            # counter (and skipping the entry shortcuts when any step was
            # taken) reproduces the full route's owner, hop total, and
            # single ledger record.  The prefix's timeouts are added back.
            resumed = route_to_key(
                network, node_of(id_list[row]), int(key), _initial_hops=hops
            )
            results.append(resumed._replace(timeouts=resumed.timeouts + timeouts))
        else:
            results.append(RouteResult(node_of(id_list[row]), hops, timeouts))
    return results


def route_with_policy(
    network: RingNetwork,
    start: PeerNode,
    key: int,
    policy: RetryPolicy | None = None,
    max_hops: int | None = None,
) -> RouteOutcome:
    """Route to the owner of ``key`` under an explicit retry policy,
    returning a partial result with a failure reason instead of raising.

    The graceful-degradation entry point: it consults the network's
    :class:`~repro.ring.faults.FaultPlane` (peer stalls, ring partitions,
    per-link loss) in addition to the overlay state, honours the policy's
    attempt and hop budgets, and accounts every timed-out probe and
    retransmission — in the returned :class:`RouteOutcome` and, as hops, in
    the message ledger.  It never raises on network conditions.

    ``policy=None`` selects :data:`RetryPolicy.DEFAULT` when structural
    faults are active and :data:`RetryPolicy.UNBOUNDED` otherwise.  With no
    active fault plane and an unbounded policy this delegates to
    :func:`route_to_key` — identical cost and RNG stream — and merely wraps
    any :class:`RoutingError` in a failed outcome.
    """
    faults: FaultPlane | None = network.faults
    plane_active = faults is not None and faults.active
    if policy is None:
        policy = RetryPolicy.DEFAULT if plane_active else RetryPolicy.UNBOUNDED
    if network.n_peers == 0:
        return RouteOutcome(None, 0, 0, 0, 0.0, "empty_ring")
    if not plane_active:
        # Fault-free ring: the legacy router is the reference; translate
        # its exceptions into failure outcomes (hops read back from the
        # ledger, where the router posts them even on the error paths).
        before = network.stats.count_of(MessageType.LOOKUP_HOP)
        try:
            result = route_to_key(network, start, key, max_hops=max_hops, policy=policy)
        except RoutingError as exc:
            hops = network.stats.count_of(MessageType.LOOKUP_HOP) - before
            message = str(exc)
            if "attempts" in message:
                reason = "retry_exhausted"
            elif "stuck" in message:
                reason = "stuck"
            else:
                reason = "hop_budget"
            return RouteOutcome(None, hops, 0, 0, 0.0, reason)
        return RouteOutcome(result.owner, result.hops, result.timeouts, 0, 0.0, None)

    space = network.space
    space.validate(key)
    if max_hops is None:
        max_hops = policy.max_hops
    if max_hops is None:
        max_hops = 2 * network.n_peers + space.bits
    if faults.is_stalled(start.ident):
        return RouteOutcome(None, 0, 0, 0, 0.0, "entry_stalled")
    mask = space.mask
    loss_free = network.loss_rate <= 0.0
    attempt_cap = policy.max_attempts
    nodes_get = network._nodes.get
    hops = 0
    timeouts = 0
    retries = 0
    backoff = 0.0
    partition_blocked = False

    def transmit(src_id: int, dst_id: int) -> Optional[str]:
        """One message send with retransmission; None means delivered.

        A cross-partition send is one deterministic timed-out probe; a
        lossy link is retried up to the policy's attempt budget, each retry
        waiting out one exponential-backoff step.  Every attempt costs a
        counted hop.
        """
        nonlocal hops, timeouts, retries, backoff, partition_blocked
        if not faults.reachable(src_id, dst_id):
            hops += 1
            timeouts += 1
            partition_blocked = True
            return "unreachable"
        attempts = 0
        while True:
            hops += 1
            attempts += 1
            if (loss_free or network.delivery_succeeds()) and faults.link_delivers(
                src_id, dst_id
            ):
                return None
            if attempt_cap is not None and attempts >= attempt_cap:
                timeouts += 1
                return "retry_exhausted"
            if hops > max_hops:
                timeouts += 1
                return "hop_budget"
            retries += 1
            backoff += policy.backoff_base * policy.backoff_factor ** (attempts - 1)

    current = start
    excluded: set[int] = set()
    try:
        if key == current.ident:
            return RouteOutcome(current, 0, 0, 0, 0.0, None)
        if current.predecessor_id is not None and network.try_node(current.predecessor_id):
            if space.in_half_open(key, current.predecessor_id, current.ident):
                return RouteOutcome(current, 0, 0, 0, 0.0, None)
        while True:
            ident = current.ident
            successor_id = _live_successor(network, current, excluded)
            if successor_id == ident or 0 < (key - ident) & mask <= (successor_id - ident) & mask:
                owner = network.node(successor_id)
                if owner.ident != ident:
                    if faults.is_stalled(owner.ident):
                        # The owner receives but never replies.
                        hops += 1
                        timeouts += 1
                        return RouteOutcome(
                            None, hops, timeouts, retries, backoff, "owner_unresponsive"
                        )
                    verdict = transmit(ident, owner.ident)
                    if verdict == "unreachable":
                        return RouteOutcome(
                            None, hops, timeouts, retries, backoff, "partitioned"
                        )
                    if verdict is not None:
                        return RouteOutcome(None, hops, timeouts, retries, backoff, verdict)
                return RouteOutcome(owner, hops, timeouts, retries, backoff, None)
            next_node = None
            while next_node is None:
                if hops > max_hops:
                    return RouteOutcome(None, hops, timeouts, retries, backoff, "hop_budget")
                candidate = current.closest_preceding_finger(key, excluded)
                if candidate == ident:
                    # No usable finger: fall to the successor-list failover.
                    candidate = _live_successor(network, current, excluded)
                if candidate == ident or candidate in excluded:
                    reason = "partitioned" if partition_blocked or faults.partitioned else "stuck"
                    return RouteOutcome(None, hops, timeouts, retries, backoff, reason)
                resolved = nodes_get(candidate)
                if resolved is None or not resolved.alive or faults.is_stalled(candidate):
                    # Departed or unresponsive: one timed-out probe, then
                    # fail over with the peer excluded.
                    hops += 1
                    timeouts += 1
                    excluded.add(candidate)
                    continue
                verdict = transmit(ident, candidate)
                if verdict == "hop_budget":
                    return RouteOutcome(None, hops, timeouts, retries, backoff, "hop_budget")
                if verdict is not None:
                    excluded.add(candidate)
                    continue
                next_node = resolved
            if next_node.ident == ident:
                return RouteOutcome(None, hops, timeouts, retries, backoff, "stuck")
            current = next_node
    finally:
        if hops:
            network.record(MessageType.LOOKUP_HOP, count=hops)


def _live_successor(
    network: RingNetwork, node: PeerNode, excluded: set[int] | frozenset[int]
) -> int:
    """The node's first live successor: primary pointer, then the list.

    Chord's successor list is exactly this fallback: when the primary
    successor has failed (and is in ``excluded`` after its timeout), the
    node tries the next list entry.  Only if the *entire* list is dead —
    which needs ``len(list)`` simultaneous adjacent failures between two
    maintenance rounds — do we repair through the oracle, modelling the
    out-of-band rejoin a real deployment would perform.
    """
    # Fast path: the primary successor pointer is almost always live.
    primary = node.successor_id
    if primary != node.ident and primary not in excluded:
        resolved = network.try_node(primary)
        if resolved is not None and resolved.alive:
            return primary
    for candidate in node.successor_list:
        if candidate in excluded or candidate == node.ident:
            continue
        resolved = network.try_node(candidate)
        if resolved is not None and resolved.alive:
            return candidate
    return network._oracle_successor(network.space.add(node.ident, 1))


def route_to_value(
    network: RingNetwork,
    start: PeerNode,
    value: float,
    max_hops: int | None = None,
) -> RouteResult:
    """Route to the peer owning a *data value* (order-preserving position)."""
    return route_to_key(network, start, network.data_hash(value), max_hops=max_hops)


def successor_walk(
    network: RingNetwork,
    start: PeerNode,
    steps: int,
) -> list[PeerNode]:
    """Walk ``steps`` successor pointers from ``start``, counting each hop.

    Returns the peers visited after each step (length ``steps``).  Departed
    successors are skipped through the same repair path routing uses.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    visited: list[PeerNode] = []
    current = start
    taken = 0
    try:
        for _ in range(steps):
            taken += 1
            succ = network.try_node(current.successor_id)
            if succ is None or not succ.alive:
                succ = network.node(_live_successor(network, current, set()))
            current = succ
            visited.append(current)
    finally:
        if taken:
            network.record(MessageType.SUCCESSOR_WALK, count=taken)
    return visited
