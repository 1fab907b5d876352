"""Batched churn-mutation kernel: whole-round joins and matrix maintenance.

The sequential churn loop applies each join as an independent protocol
action — a routed lookup, a per-value interval scan over the successor's
store, and scalar pointer writes — and repairs the overlay one peer at a
time.  On a loss-free ring both are deterministic functions of the round's
random draws and the ring state, so an entire round can instead be *planned*
up front (consuming the RNG streams in exactly the sequential per-stream
order) and *applied* as array operations:

* :func:`plan_round` draws all joins, graceful leaves, and crashes for the
  round against a simulated membership list, so the churn RNG and the
  network RNG advance exactly as the scalar loop would advance them.
* :func:`apply_joins` splices the planned identifiers into the ring.  The
  successor of each joiner is resolved by rank over the sorted membership
  (on a clean ring the routed lookup's owner is exactly the oracle
  successor), and the data handoff moves the successor's owned values as
  one or two *contiguous slab slices* of its sorted backing: the data hash
  is monotone, so one ``searchsorted`` of the interval boundaries into the
  hashed key array replaces the per-value membership scan of
  ``_pop_interval``.
* :func:`matrix_maintenance_round` replaces the per-peer ``stabilize`` /
  ``fix_one_finger`` sweep with whole-ring vector computation: true
  successors and predecessors come from one roll of the sorted-id vector,
  successor lists from one matrix recurrence, and finger fixes from a
  vectorized owner classification.  It applies only when the ring is in
  the "true-or-dead" pointer state loss-free churn rounds leave behind and
  every finger fix terminates at the node or its direct successor; anything
  else falls back to the scalar reference.

Equivalence contract
--------------------
For a round the kernel accepts, the resulting ring state — membership,
stores, predecessor/successor pointers, successor lists, finger tables,
``next_finger_index`` cursors — and the message ledger's STABILIZE /
NOTIFY / FIX_FINGER / JOIN / LEAVE / DATA_TRANSFER totals (counts *and*
payloads) are identical to the sequential loop's, and both RNG streams end
in identical states.  The one accepted divergence: the sequential join
routes a lookup for the joiner's own identifier and records its
``LOOKUP_HOP`` cost, while the kernel resolves the successor by rank and
records none.  No experiment table or estimate reads churn-phase lookup
hops (estimation costs are measured as per-estimate ledger deltas), so the
tables are unaffected; the property tests in
``tests/ring/test_mutation_kernel.py`` pin the full state equivalence.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np
from numpy.typing import NDArray

from repro.ring.messages import MessageType
from repro.ring.network import RingNetwork
from repro.ring.node import PeerNode

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (churn -> chord)
    from repro.ring.churn import ChurnConfig

__all__ = [
    "KERNEL_MIN_PEERS",
    "RoundPlan",
    "plan_round",
    "spread_plan",
    "apply_joins",
    "matrix_maintenance_round",
    "ring_is_clean",
]

#: Below this size the scalar loop is already cheap and ring edge cases
#: (wrap-heavy successor lists, near-full finger arcs) start to matter;
#: the kernel declines and the sequential reference runs.
KERNEL_MIN_PEERS = 8


@dataclass(frozen=True)
class RoundPlan:
    """One churn round drawn up front: arrival-ordered joins/departures."""

    #: New peer identifiers in arrival order.
    joins: list[int] = field(default_factory=list)
    #: ``(identifier, is_crash)`` per departure, in departure order.
    departures: list[tuple[int, bool]] = field(default_factory=list)


def ring_is_clean(network: RingNetwork) -> bool:
    """Is every neighbour pointer live and exactly true?

    This is the state a loss-free maintenance round leaves behind, and the
    precondition for rank-based successor resolution in :func:`apply_joins`
    to match the sequential routed lookups: with live true pointers every
    join's routed owner is the oracle successor and every relink touches a
    live peer.  A fault-plane crash burst (or any externally perturbed
    state) fails this check and the round runs sequentially.
    """
    if network.n_peers < KERNEL_MIN_PEERS:
        return False
    nodes = network._nodes
    id_list = network.peer_ids()
    prev = id_list[-1]
    for ident in id_list:
        node = nodes[ident]
        if node.predecessor_id != prev or nodes[prev].successor_id != ident:
            return False
        prev = ident
    return True


def plan_round(
    network: RingNetwork, config: "ChurnConfig", rng: np.random.Generator
) -> RoundPlan:
    """Draw one round's joins and departures without touching the ring.

    Consumes the churn RNG (Poisson counts, identifier draws, crash coins)
    and the network RNG (join entry peers, victim picks) in exactly the
    per-stream order of the sequential loop, simulating membership growth
    so every bounded draw sees the same range the scalar code would see.
    The entry-peer draws are consumed and discarded: they only select where
    a join's lookup *starts*, which the kernel does not route.
    """
    from repro.ring.chord import _draw_unused_identifier

    n = network.n_peers
    net_rng = network.rng
    joins: list[int] = []
    reserved: set[int] = set()
    n_joins = int(rng.poisson(config.join_rate * n))
    sim_size = n
    for _ in range(n_joins):
        ident = _draw_unused_identifier(network, rng, reserved)
        net_rng.integers(0, sim_size)  # the sequential join's entry pick
        reserved.add(ident)
        joins.append(ident)
        sim_size += 1

    departures: list[tuple[int, bool]] = []
    n_leaves = int(rng.poisson(config.leave_rate * n))
    if n_leaves:
        sim_ids = list(network._sorted_ids)
        for ident in joins:
            bisect.insort(sim_ids, ident)
        for _ in range(n_leaves):
            if len(sim_ids) <= config.min_peers:
                break
            index = int(net_rng.integers(0, len(sim_ids)))
            victim = sim_ids.pop(index)
            is_crash = bool(rng.random() < config.crash_fraction)
            departures.append((victim, is_crash))
    return RoundPlan(joins=joins, departures=departures)


def spread_plan(
    plan: RoundPlan, round_start: float, round_duration: float
) -> list[tuple[float, str, int, bool]]:
    """Lay one round's plan out on a simulated-time interval.

    Returns ``(time, kind, ident, is_crash)`` tuples — ``kind`` one of
    ``"join"``/``"leave"``/``"crash"`` — preserving the plan's sequential
    order (joins first, then departures, exactly as the scalar loop
    applies them) and spacing the transitions evenly across
    ``[round_start, round_start + round_duration)``.  Pure arithmetic on
    the plan: no RNG, no ring access, so the event schedule is a
    deterministic function of the plan alone.
    """
    if round_duration < 0.0:
        raise ValueError(f"round_duration must be >= 0, got {round_duration}")
    entries: list[tuple[str, int, bool]] = [
        ("join", ident, False) for ident in plan.joins
    ]
    entries.extend(
        ("crash" if is_crash else "leave", ident, is_crash)
        for ident, is_crash in plan.departures
    )
    total = len(entries)
    if not total:
        return []
    step = round_duration / total
    return [
        (round_start + index * step, kind, ident, is_crash)
        for index, (kind, ident, is_crash) in enumerate(entries)
    ]


def apply_joins(network: RingNetwork, idents: list[int]) -> int:
    """Splice the planned joiners into a clean ring; returns values moved.

    Per joiner, in arrival order: resolve the true successor by rank,
    bootstrap pointers/fingers/successor-list exactly as the scalar join
    does, and hand off the successor's items in ``(pred, new]`` as
    contiguous slab slices located by ``searchsorted`` over the hashed key
    array (maintained incrementally across same-round joins, so nested
    splits of one arc never re-hash).  Ledger totals — JOIN, DATA_TRANSFER
    (count and payload), NOTIFY — are posted in bulk and equal the
    sequential per-join records.
    """
    if not idents:
        return 0
    space = network.space
    nodes = network._nodes
    data_hash = network.data_hash
    list_length = network.SUCCESSOR_LIST_LENGTH
    sim_ids = list(network._sorted_ids)
    # Hashed keys of each opened store, kept in lockstep with its contents.
    keys_of: dict[int, NDArray[np.uint64]] = {}
    notifies = 0
    moved_total = 0
    for new_ident in idents:
        pos = bisect.bisect_left(sim_ids, new_ident)
        succ_ident = sim_ids[pos] if pos < len(sim_ids) else sim_ids[0]
        successor = nodes[succ_ident]
        predecessor_id = successor.predecessor_id

        new_node = PeerNode(new_ident, space)
        new_node.predecessor_id = predecessor_id
        new_node.successor_id = succ_ident
        fingers = list(successor.fingers)
        fingers[0] = succ_ident
        new_node.fingers = fingers
        new_node.successor_list = [succ_ident, *successor.successor_list][:list_length]

        store = successor.store
        keys = keys_of.get(succ_ident)
        if keys is None:
            keys = data_hash.map_values(store.as_array())
        start = predecessor_id if predecessor_id is not None else succ_ident
        if start < new_ident:
            lo = int(np.searchsorted(keys, np.uint64(start), side="right"))
            hi = int(np.searchsorted(keys, np.uint64(new_ident), side="right"))
            moved = store.pop_slice(lo, hi)
            new_keys = keys[lo:hi]
            if moved:
                keys = np.concatenate((keys[:lo], keys[hi:]))
        else:
            # The interval wraps the origin: a low head plus a high tail,
            # which in (value == key) sort order concatenate head-first.
            tail_lo = int(np.searchsorted(keys, np.uint64(start), side="right"))
            head_hi = int(np.searchsorted(keys, np.uint64(new_ident), side="right"))
            tail = store.pop_slice(tail_lo, int(keys.size))
            head = store.pop_slice(0, head_hi)
            moved = head + tail
            new_keys = np.concatenate((keys[:head_hi], keys[tail_lo:]))
            keys = keys[head_hi:tail_lo]
        keys_of[succ_ident] = keys
        keys_of[new_ident] = new_keys
        new_node.store.adopt_sorted(moved)
        moved_total += len(moved)

        successor.predecessor_id = new_ident
        relinked = [succ_ident]
        if predecessor_id is not None:
            predecessor = nodes.get(predecessor_id)
            if predecessor is not None:
                predecessor.successor_id = new_ident
                relinked.append(predecessor_id)
                notifies += 1

        network._note_pointer_writes(relinked)
        network._register(new_node)
        sim_ids.insert(pos, new_ident)

    count = len(idents)
    network.record(MessageType.JOIN, count=count)
    network.record(MessageType.DATA_TRANSFER, count=count, payload=moved_total)
    if notifies:
        network.record(MessageType.NOTIFY, count=notifies)
    return moved_total


def _dedup_refresh(
    self_id: int, succ_id: int, source: list[int], length: int
) -> list[int]:
    """The reference successor-list refresh (dedup path of ``stabilize``)."""
    refreshed = [succ_id]
    for entry in source:
        if len(refreshed) >= length:
            break
        if entry != self_id and entry not in refreshed:
            refreshed.append(entry)
    return refreshed


def matrix_maintenance_round(network: RingNetwork, fingers_per_peer: int) -> bool:
    """One loss-free maintenance round as whole-ring vector operations.

    Returns ``False`` (having mutated nothing) when the state is not
    batchable, in which case the caller runs the scalar reference.  The
    batchable state is the one loss-free churn rounds produce: every
    successor pointer either names the true successor or a departed peer,
    successor lists are regular (full length), and — checked per finger
    sub-round — every finger fix classifies as owner-self or owner-successor
    (a multi-hop fix would consult mid-round pointer state that only the
    interleaved scalar sweep reproduces).

    On the batchable state the final pointers are provably those of the
    scalar sweep: stabilization repairs every successor to the true one
    (candidate adoption never fires because no live peer sits strictly
    between true neighbours), every notify installs the true predecessor,
    and the successor-list recurrence ``new[i] = [succ_i, *old[i+1][:L-1]]``
    (with the wrap row reading row 0's *new* list, exactly as ring-order
    iteration does) reproduces the per-peer refresh.  Ledger totals match
    the scalar fast path: STABILIZE and NOTIFY once per peer, FIX_FINGER
    per fix, LOOKUP_HOP once per owner-successor fix.

    Two token-based shortcuts keep quiet rounds cheap without weakening the
    contract (version counters are cache keys, not ring state):

    * A successful round stores the post-round :attr:`topology_version` in
      ``network._exact_ring_token``.  While the token still matches,
      nothing has touched the overlay since — every pointer-mutating path
      bumps the version — so the ring is exactly true by this function's
      own postcondition and the gates plus all stabilize writes (which
      would be no-ops) are skipped wholesale.
    * :meth:`~repro.ring.network.RingNetwork.note_overlay_change` is called
      only when some pointer actually changed value.  A round that writes
      nothing leaves every overlay-derived cache (snapshots, finger views)
      valid, so invalidating them — as the scalar sweep does
      unconditionally — would only force identical rebuilds.
    """
    n = network.n_peers
    if n < KERNEL_MIN_PEERS:
        return False
    space = network.space
    mask = np.uint64(space.mask)
    zero = np.uint64(0)
    bits = space.bits
    nodes = network._nodes
    id_list = list(network.peer_ids())
    ids = network.sorted_ids_array()
    node_list = [nodes[ident] for ident in id_list]
    true_succ = np.roll(ids, -1)
    true_pred = np.roll(ids, 1)
    list_length = network.SUCCESSOR_LIST_LENGTH
    exact = network._exact_ring_token == network.topology_version

    if exact:
        stale = None
        lists = None
        preds_fix = true_pred
        pred_live = None  # all neighbours live and true by the token
    else:
        # --- gate: successor pointers true-or-dead ----------------------
        succs = np.fromiter(
            (node.successor_id for node in node_list), dtype=np.uint64, count=n
        )
        stale = succs != true_succ
        if stale.any():
            wrong = succs[stale]
            where = np.searchsorted(ids, wrong)
            np.minimum(where, n - 1, out=where)
            if (ids[where] == wrong).any():
                return False  # a live-but-wrong pointer: not a churn-round state
        # --- gate: regular successor lists ------------------------------
        lists = [node.successor_list for node in node_list]
        if any(len(entry) != list_length for entry in lists):
            return False
        # The finger classification reads only final stabilized neighbours
        # (true successors; true predecessors for all but the first peer,
        # whose notifier runs last in ring order and therefore fixes
        # against its pre-round predecessor), so it is computable before
        # any mutation.
        first = node_list[0]
        pred_first = first.predecessor_id
        preds_fix = true_pred.copy()
        pred_live = np.ones(n, dtype=bool)
        if pred_first is None or pred_first not in nodes:
            pred_live[0] = False
        else:
            preds_fix[0] = np.uint64(pred_first)

    # --- gate: every finger fix single-hop ------------------------------
    ks = np.fromiter(
        (node.next_finger_index for node in node_list), dtype=np.uint64, count=n
    )
    d_sp = (ids - preds_fix) & mask
    d_ss = (true_succ - ids) & mask
    self_owned: list[NDArray[np.bool_]] = []
    succ_owned: list[NDArray[np.bool_]] = []
    for sub in range(fingers_per_peer):
        kf = (ks + np.uint64(sub)) % np.uint64(bits)
        targets = (ids + (np.uint64(1) << kf)) & mask
        d_tp = (targets - preds_fix) & mask
        self_own = (d_tp > zero) & (d_tp <= d_sp)
        if not exact:
            self_own &= pred_live
            if pred_live[0] and preds_fix[0] == ids[0]:
                self_own[0] = True  # pred == self: the full-ring interval
        d_ts = (targets - ids) & mask
        succ_own = ~self_own & (d_ts > zero) & (d_ts <= d_ss)
        if not (self_own | succ_own).all():
            return False  # a multi-hop fix: only the scalar sweep is exact
        self_owned.append(self_own)
        succ_owned.append(succ_own)

    mutated = False
    # Peers whose successor or predecessor changed value, and the finger
    # entries that did (successor lists are not part of the overlay view).
    relinked: list[int] = []
    fixed: list[tuple[int, int]] = []
    if not exact:
        # --- stabilize: successors, successor lists, predecessors -------
        stale_indices = np.flatnonzero(stale).tolist()
        if stale_indices:
            mutated = True
            for index in stale_indices:
                node_list[index].successor_id = int(true_succ[index])  # repro-lint: disable=VER001 (every write sets `mutated`; note_overlay_change fires under that flag at function end)
                relinked.append(id_list[index])
        matrix = np.array(lists, dtype=np.uint64)
        new_rows = np.empty_like(matrix)
        new_rows[:, 0] = true_succ
        new_rows[:-1, 1:] = matrix[1:, : list_length - 1]
        rows = new_rows.tolist()
        irregular = (
            (matrix[1:] == ids[:-1, None]) | (matrix[1:] == true_succ[:-1, None])
        ).any(axis=1)
        for index in np.flatnonzero(irregular).tolist():
            rows[index] = _dedup_refresh(
                id_list[index], id_list[index + 1], lists[index + 1], list_length
            )
        last_id = id_list[-1]
        head_id = id_list[0]
        head_row = rows[0]  # the wrap peer reads its successor's refreshed list
        if last_id not in head_row and head_id not in head_row:
            rows[-1] = [head_id, *head_row[: list_length - 1]]
        else:
            rows[-1] = _dedup_refresh(last_id, head_id, head_row, list_length)
        for index, (node, row) in enumerate(zip(node_list, rows)):
            if row != lists[index]:
                node.successor_list = row
                mutated = True
        prev = last_id
        for node in node_list:
            if node.predecessor_id != prev:
                node.predecessor_id = prev
                relinked.append(node.ident)
                mutated = True
            prev = node.ident

    # --- fix fingers -----------------------------------------------------
    bulk_hops = 0
    advance = np.uint64(fingers_per_peer)
    ubits = np.uint64(bits)
    for sub in range(fingers_per_peer):
        self_own = self_owned[sub]
        owners = np.where(self_own, ids, true_succ)
        bulk_hops += int(succ_owned[sub].sum())
        kf = ((ks + np.uint64(sub)) % ubits).tolist()
        for index, owner in enumerate(owners.tolist()):
            node = node_list[index]
            k = kf[index]
            if node._fingers[k] != owner:
                node._fingers[k] = owner
                node._finger_scan = None
                fixed.append((node.ident, k))
                mutated = True
    next_ks = ((ks + advance) % ubits).tolist()
    for node, cursor in zip(node_list, next_ks):
        node.next_finger_index = cursor

    network.record(MessageType.STABILIZE, count=n)
    network.record(MessageType.NOTIFY, count=n)
    network.record(MessageType.FIX_FINGER, count=n * fingers_per_peer)
    if bulk_hops:
        network.record(MessageType.LOOKUP_HOP, count=bulk_hops)
    if mutated:
        network.note_overlay_change(relinked, fixed)
    network._exact_ring_token = network.topology_version
    return True
