"""The ring overlay simulator.

:class:`RingNetwork` owns the peers, the order-preserving placement of data,
and the message ledger.  It is a *synchronous* simulator: operations are
method calls, and network cost is accounted in messages/hops rather than
simulated time — which is exactly the cost model the paper's efficiency
claims are stated in.

Two views coexist deliberately:

* the **overlay view** — each node's own pointers (possibly stale under
  churn); all cost-counted operations (routing, probing, estimation) use
  only this view, via :mod:`repro.ring.routing`;
* the **oracle view** — the simulator's sorted registry of live peers, used
  for ground truth (true global CDF, true owner) and for free bootstrap
  tasks like initial construction.  Oracle calls never touch the ledger.
"""

from __future__ import annotations

import bisect
import os
from collections import Counter
from functools import partial
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.ring.faults import FAULT_PROFILE_ENV, FaultPlane, plane_from_profile
from repro.ring.hashing import OrderPreservingHash
from repro.ring.identifier import IdentifierSpace
from repro.ring.lockstep import exact_fingers
from repro.ring.messages import MessageStats, MessageType
from repro.ring.node import PeerNode
from repro.ring.snapshot import PointerWrites, RingSnapshot

__all__ = ["RingNetwork", "NetworkError"]


class NetworkError(RuntimeError):
    """Raised when an overlay operation cannot complete (e.g. empty ring)."""


class RingNetwork:
    """A ring-based P2P network with order-preserving data placement.

    Parameters
    ----------
    space:
        The identifier space shared by peers and data.
    domain:
        ``(low, high)`` bounds of the scalar data domain; data values map
        onto the ring through an order-preserving hash over this range.
    rng:
        Source of randomness for peer placement and routing entry points.
    """

    #: Successor-list length: how many fallback routes stabilization keeps.
    SUCCESSOR_LIST_LENGTH = 4

    def __init__(
        self,
        space: IdentifierSpace,
        domain: tuple[float, float] = (0.0, 1.0),
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.space = space
        self.data_hash = OrderPreservingHash(space, domain[0], domain[1])
        # Seeded default: a network built without an explicit generator
        # must still behave identically run to run.
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.stats = MessageStats()
        #: Scalar per-message loss probability.  Owned by the attached
        #: :class:`FaultPlane`: ``install_faults(FaultPlane(loss_rate=p))``
        #: sets it.
        self.loss_rate = 0.0
        #: Optional unified fault plane (see :mod:`repro.ring.faults`).
        #: ``None`` — and an attached-but-inactive plane — leave every code
        #: path bit-identical to a fault-free network.
        self.faults: Optional[FaultPlane] = None
        self._nodes: dict[int, PeerNode] = {}
        self._sorted_ids: list[int] = []
        # Cached read-only views of the registry, rebuilt lazily after a
        # membership change (register/unregister bumps topology_version).
        self._ids_tuple: Optional[tuple[int, ...]] = None
        self._ids_array: Optional[np.ndarray] = None
        #: Monotone membership-mutation counter (joins/leaves/crashes).
        self.topology_version: int = 0
        #: Monotone data-mutation counter: advanced whenever any peer's
        #: store changes (via the per-store listener) or membership changes
        #: move items in or out of the network.  Together with
        #: :attr:`topology_version` it keys the snapshot plane.
        self.data_version: int = 0
        #: Peers whose stores mutated since the last snapshot refresh.
        self._dirty_stores: set[int] = set()
        #: :attr:`topology_version` as of the last whole-ring matrix
        #: maintenance round (:func:`repro.ring.mutation.matrix_maintenance_round`).
        #: While it still equals the live version, nothing has touched the
        #: overlay since that round, so every neighbour pointer is exactly
        #: true by the round's own postcondition and the kernel skips its
        #: re-validation gates.  Every pointer-mutating code path bumps the
        #: version (membership through the registry, scalar maintenance via
        #: :meth:`note_overlay_change`), which invalidates this token.
        self._exact_ring_token: Optional[int] = None
        #: Overlay pointer writes since the snapshot's overlay view was
        #: last refreshed; the next refresh re-reads only these entries.
        #: ``None`` when a writer could not name its writes
        #: (:meth:`note_overlay_change` without arguments): the next
        #: refresh rebuilds the whole view.
        self._pointer_writes: Optional[PointerWrites] = None
        self._snapshot = RingSnapshot(self)

    def delivery_succeeds(self) -> bool:
        """Draw one message-delivery outcome under the loss model.

        The sender times out on a lost message and retransmits; callers on
        the cost-counted paths loop on this predicate, paying for every
        attempt.  ``loss_rate=0`` (the default) short-circuits to True.
        """
        if self.loss_rate <= 0.0:
            return True
        return bool(self.rng.random() >= self.loss_rate)

    def install_faults(self, plane: FaultPlane, *, replace: bool = False) -> FaultPlane:
        """Attach a fault plane to this network and return it.

        The plane subsumes the scalar loss model: a plane carrying a base
        ``loss_rate`` installs it as :attr:`loss_rate`, so the legacy
        retransmission machinery (and its exact RNG stream) keeps handling
        uniform loss.  Structural faults (stalls, partitions, per-link
        loss, scheduled bursts) are consulted only by the policy-aware
        routing path — with none configured, behaviour is bit-identical to
        an unattached network.

        A network has at most one plane.  Attaching a second one used to
        silently drop the first (last-attached-wins); that is now an
        error unless ``replace=True`` states the intent — callers that
        deliberately override an existing plane (a controlled experiment
        scenario displacing the whole-suite profile, or a fresh plane per
        measured contender) must say so.  Re-attaching the already
        installed plane is a no-op-safe idempotent call.  See
        ``docs/ROBUSTNESS.md`` for the contract.
        """
        if self.faults is not None and self.faults is not plane and not replace:
            raise ValueError(
                "a FaultPlane is already attached to this network; pass "
                "replace=True to swap it deliberately (the previous "
                "last-attached-plane-wins behaviour was silent data loss)"
            )
        self.faults = plane
        plane.attach(self)
        return plane

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        n_peers: int,
        *,
        bits: int = 64,
        domain: tuple[float, float] = (0.0, 1.0),
        seed: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
        compact: bool = False,
        synopsis_buckets: int = 8,
    ):
        """Build a stabilized network of ``n_peers`` randomly placed peers.

        Peer identifiers are drawn uniformly at random (the distribution a
        cryptographic peer-id hash induces).  Construction is an oracle
        operation: the returned network is fully stabilized with exact
        finger tables and an empty ledger.  Lossy delivery is configured
        afterwards with ``install_faults(FaultPlane(loss_rate=p))``.

        ``compact=True`` returns a :class:`~repro.ring.compact.CompactRing`
        instead of an object-backed network: the same membership for the
        same seed (identifier draws are replayed exactly), held as columnar
        arrays so million-peer rings fit in memory.  The compact backend
        models the stabilized loss-free ring only, so no fault profile
        attaches.  ``synopsis_buckets`` sizes the compact backend's
        columnar synopsis plane (its fixed probe-reply histogram
        resolution); the object backend builds synopses at probe time for
        any requested width and ignores it.
        """
        if n_peers < 1:
            raise ValueError(f"need at least one peer, got {n_peers}")
        if compact:
            from repro.ring.compact import CompactRing  # local: only compact rings load it

            return CompactRing.build(
                n_peers,
                bits=bits,
                domain=domain,
                seed=seed,
                rng=rng,
                synopsis_buckets=synopsis_buckets,
            )
        if rng is None:
            rng = np.random.default_rng(seed)
        space = IdentifierSpace(bits)
        network = cls(space, domain=domain, rng=rng)
        idents: set[int] = set()
        while len(idents) < n_peers:
            needed = n_peers - len(idents)
            draws = rng.integers(0, space.size, size=needed, dtype=np.uint64)
            idents.update(int(d) for d in draws)
        for ident in idents:
            network._register(PeerNode(ident, space))
        network.rebuild_overlay()
        # Opt-in fault profile for whole-suite smoke runs: when the
        # environment names a profile (repro-experiments --faults), every
        # created network — including those built in worker subprocesses —
        # gets the same deterministic fault plane attached.  Unset (the
        # default), this branch never runs and behaviour is unchanged.
        profile = os.environ.get(FAULT_PROFILE_ENV)
        if profile:
            network.install_faults(
                plane_from_profile(
                    profile, seed=seed if seed is not None else 0, ring_size=space.size
                )
            )
        return network

    @classmethod
    def create_balanced(
        cls,
        n_peers: int,
        values,
        *,
        bits: int = 64,
        domain: tuple[float, float] = (0.0, 1.0),
        seed: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> "RingNetwork":
        """Build a network whose peers sit at the data's equi-depth quantiles.

        This models a ring system running a load balancer: peer boundaries
        are placed at the ``i/N`` quantiles of ``values``, so each peer
        owns (approximately) an equal share of the *data* rather than of
        the identifier space.  Estimation behaves differently here — peer
        positions themselves carry distribution information and naive
        pooling loses most of its bias — which the F14 experiment measures.

        ``values`` are used only to compute boundary positions; call
        :meth:`load_data` afterwards as usual.
        """
        if n_peers < 1:
            raise ValueError(f"need at least one peer, got {n_peers}")
        arr = np.sort(np.asarray(list(values), dtype=float))
        if arr.size < n_peers:
            raise ValueError(
                f"balanced placement needs at least one value per peer "
                f"({arr.size} values for {n_peers} peers)"
            )
        if rng is None:
            rng = np.random.default_rng(seed)
        space = IdentifierSpace(bits)
        network = cls(space, domain=domain, rng=rng)
        quantile_levels = (np.arange(1, n_peers + 1)) / n_peers
        boundaries = np.quantile(arr, quantile_levels)
        used: set[int] = set()
        for boundary in boundaries:
            ident = network.data_hash(float(boundary))
            while ident in used:
                ident = space.add(ident, 1)
            used.add(ident)
            network._register(PeerNode(ident, space))
        network.rebuild_overlay()
        return network

    @classmethod
    def create_virtual(
        cls,
        n_hosts: int,
        virtual_per_host: int,
        *,
        bits: int = 64,
        domain: tuple[float, float] = (0.0, 1.0),
        seed: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> "RingNetwork":
        """Build a network of ``n_hosts`` physical hosts, each running
        ``virtual_per_host`` ring nodes at random positions.

        Virtual nodes are Chord's classic load-balancing device: a host's
        total load is the sum over its v segments, whose relative variance
        shrinks like ``1/v``.  Host attribution is carried on each node
        (``PeerNode.host_id``) so :meth:`host_loads` can report the
        physical balance the F16 experiment measures.
        """
        if n_hosts < 1:
            raise ValueError(f"need at least one host, got {n_hosts}")
        if virtual_per_host < 1:
            raise ValueError(f"need at least one virtual node per host, got {virtual_per_host}")
        network = cls.create(
            n_hosts * virtual_per_host, bits=bits, domain=domain, seed=seed, rng=rng
        )
        # Random ids are exchangeable, so blocks of the sorted id list are
        # a uniformly random host assignment; shuffle for good measure.
        ids = list(network.peer_ids())
        network.rng.shuffle(ids)
        for index, ident in enumerate(ids):
            network.node(ident).host_id = index % n_hosts
        return network

    def host_loads(self) -> dict[int, int]:
        """Item counts aggregated per physical host."""
        loads: Counter[int] = Counter()
        for node in self.peers():
            loads[node.host_id] += node.store.count
        return dict(loads)

    def _register(self, node: PeerNode) -> None:
        """Insert a node into the oracle registry (no overlay wiring)."""
        if node.ident in self._nodes:
            raise ValueError(f"duplicate peer identifier {node.ident}")
        self._nodes[node.ident] = node
        bisect.insort(self._sorted_ids, node.ident)
        if self._pointer_writes is not None:
            self._pointer_writes.joined.add(node.ident)
        self._arm_store(node)
        self._invalidate_registry_views()
        self.data_version += 1

    def _unregister(self, ident: int) -> PeerNode:
        """Remove a node from the oracle registry."""
        node = self._nodes.pop(ident)
        index = bisect.bisect_left(self._sorted_ids, ident)
        del self._sorted_ids[index]
        if self._pointer_writes is not None:
            self._pointer_writes.forget(ident)
        node.store._listener = None
        self._invalidate_registry_views()
        self.data_version += 1
        return node

    def _note_data_change(self, ident: int) -> None:
        """Advance the data token after a peer-store mutation.

        The mutated peer is remembered in :attr:`_dirty_stores` so the next
        snapshot refresh rebuilds only that peer's chunk.  Store listeners
        are one-shot (see :class:`LocalStore`), so this fires once per
        store per refresh interval; the snapshot refresh re-arms them.
        """
        self._dirty_stores.add(ident)
        self.data_version += 1

    def _arm_store(self, node: PeerNode) -> None:
        """(Re-)install the one-shot data-change listener on a peer store."""
        node.store._listener = partial(self._note_data_change, node.ident)

    def _rearm_dirty_stores(self) -> None:
        """Re-arm the listeners a snapshot refresh would re-arm, without one.

        A refresh re-arms exactly the live stores in :attr:`_dirty_stores`
        (every other live store is still armed), so calling this instead
        leaves :attr:`data_version` advancing on the next writes exactly as
        it would after the refresh.  The serving layer counts those
        advances as drift, so paths that observe the network without
        refreshing the snapshot keep its accounting unchanged this way.
        """
        nodes = self._nodes
        for ident in self._dirty_stores:
            node = nodes.get(ident)
            if node is not None:
                self._arm_store(node)

    def _invalidate_registry_views(self) -> None:
        """Drop cached id views after a membership change."""
        self._ids_tuple = None
        self._ids_array = None
        self.topology_version += 1

    @property
    def version_token(self) -> tuple[int, int]:
        """The ``(topology_version, data_version)`` pair as one token.

        This is the staleness key shared by every version-aware consumer:
        the snapshot plane refreshes against it, the serving layer
        (:mod:`repro.serve`) keys its result cache on it, and cached
        derived state (models, prefix indexes) is valid exactly as long as
        the token it was built under still equals the live one.
        """
        return (self.topology_version, self.data_version)

    def note_overlay_change(
        self,
        peers: Optional[Iterable[int]] = None,
        fingers: Iterable[tuple[int, int]] = (),
    ) -> None:
        """Advance the overlay token after a pointer-only mutation.

        Membership changes bump :attr:`topology_version` through the
        registry; maintenance (stabilize / fix_fingers) and bulk pointer
        rebuilds mutate finger and neighbour pointers *without* touching
        membership, so they must advance the token themselves.  Derived
        overlay views (e.g. the random-walk adjacency) key their caches on
        this counter.

        ``peers`` names the peers whose successor or predecessor changed
        value and ``fingers`` the ``(peer, k)`` finger entries that did,
        so the snapshot's overlay view re-reads only those entries.
        ``peers=None`` means the caller cannot name its writes: the next
        overlay refresh rebuilds the whole view.
        """
        self.topology_version += 1
        if peers is None:
            self._pointer_writes = None
        else:
            self._note_pointer_writes(peers, fingers)

    def _note_pointer_writes(
        self, peers: Iterable[int], fingers: Iterable[tuple[int, int]] = ()
    ) -> None:
        """Record pointer writes whose version bump comes from elsewhere.

        Joins and graceful leaves relink their neighbours and then bump
        :attr:`topology_version` through the registry; they report the
        relinked neighbours here.  Arguments as in
        :meth:`note_overlay_change`.
        """
        writes = self._pointer_writes
        if writes is None:
            return
        writes.relinked.update(peers)
        columns = writes.fingers
        for ident, k in fingers:
            columns[ident] = columns.get(ident, 0) | (1 << k)

    def sorted_ids_array(self) -> np.ndarray:
        """Live peer identifiers as a sorted ``uint64`` array (cached).

        Oracle-view helper backing the vectorized bulk paths (data loading,
        batched owner resolution).  Treat as read-only; it is rebuilt after
        the next membership change.
        """
        if self._ids_array is None:
            self._ids_array = np.asarray(self._sorted_ids, dtype=np.uint64)
        return self._ids_array

    def rebuild_overlay(self) -> None:
        """Recompute every peer's pointers exactly (oracle operation).

        Gives each node its true predecessor, successor, and finger table.
        Used after bulk construction; churn experiments instead rely on the
        incremental protocol in :mod:`repro.ring.chord`.
        """
        ids = self._sorted_ids
        n = len(ids)
        if n == 0:
            return
        list_length = min(self.SUCCESSOR_LIST_LENGTH, max(n - 1, 1))
        finger_rows = exact_fingers(self.sorted_ids_array(), self.space.bits).tolist()
        for index, ident in enumerate(ids):
            node = self._nodes[ident]
            node.predecessor_id = ids[index - 1] if n > 1 else ident
            node.successor_id = ids[(index + 1) % n] if n > 1 else ident
            node.successor_list = [
                ids[(index + 1 + offset) % n] for offset in range(list_length)
            ]
            node.fingers = finger_rows[index]
        self.note_overlay_change()

    def _oracle_successor(self, key: int) -> int:
        """First live peer at or clockwise after ``key`` (oracle view)."""
        if not self._sorted_ids:
            raise NetworkError("network has no peers")
        index = bisect.bisect_left(self._sorted_ids, key)
        if index == len(self._sorted_ids):
            index = 0
        return self._sorted_ids[index]

    # ------------------------------------------------------------------
    # Node access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, ident: int) -> bool:
        return ident in self._nodes

    @property
    def n_peers(self) -> int:
        """Number of live peers."""
        return len(self._nodes)

    def node(self, ident: int) -> PeerNode:
        """Resolve a live peer by identifier."""
        node = self._nodes.get(ident)
        if node is None:
            raise NetworkError(f"no live peer with identifier {ident}")
        return node

    def try_node(self, ident: int) -> Optional[PeerNode]:
        """Resolve a peer, or None if it has departed (stale pointer)."""
        return self._nodes.get(ident)

    def peer_ids(self) -> Sequence[int]:
        """Live peer identifiers in ring order.

        The tuple is cached and reused until the next join/leave/crash, so
        read-only callers (maintenance sweeps, ground-truth scans) no longer
        pay an O(n) copy per call.
        """
        if self._ids_tuple is None:
            self._ids_tuple = tuple(self._sorted_ids)
        return self._ids_tuple

    def peers(self) -> Iterator[PeerNode]:
        """Live peers in ring order."""
        for ident in self._sorted_ids:
            yield self._nodes[ident]

    def random_peer(self) -> PeerNode:
        """A live peer chosen uniformly at random (estimation entry point)."""
        if not self._sorted_ids:
            raise NetworkError("network has no peers")
        index = int(self.rng.integers(0, len(self._sorted_ids)))
        return self._nodes[self._sorted_ids[index]]

    # ------------------------------------------------------------------
    # Data placement (oracle: bulk load is an out-of-band operation)
    # ------------------------------------------------------------------
    def owner_of(self, key: int) -> PeerNode:
        """True owner of a ring position (oracle view, no cost)."""
        return self._nodes[self._oracle_successor(key)]

    def owner_of_value(self, value: float) -> PeerNode:
        """True owner of a data value (oracle view, no cost)."""
        return self.owner_of(self.data_hash(value))

    def owners_of_keys(self, keys: np.ndarray) -> list[PeerNode]:
        """True owners of many ring positions at once (oracle view, no cost).

        One vectorized ``searchsorted`` over the cached registry array
        replaces a bisect-per-key Python loop; the result matches
        :meth:`owner_of` element-wise.
        """
        if not self._sorted_ids:
            raise NetworkError("network has no peers")
        ids = self.sorted_ids_array()
        positions = np.searchsorted(ids, np.asarray(keys, dtype=np.uint64), side="left")
        positions[positions == ids.size] = 0
        nodes = self._nodes
        return [nodes[int(ids[p])] for p in positions]

    def owners_of_values(self, values) -> list[PeerNode]:
        """True owners of many data values at once (oracle view, no cost).

        Hashes all values in one vectorized pass (byte-identical to the
        scalar hash by the :meth:`OrderPreservingHash.map_values` contract)
        and resolves owners with one ``searchsorted`` — element-wise equal
        to calling :meth:`owner_of_value` per value.
        """
        arr = np.asarray(values, dtype=float)
        if arr.size == 0:
            return []
        return self.owners_of_keys(self.data_hash.map_values(arr))

    def load_data(self, values: Iterable[float]) -> None:
        """Place data values on their owning peers (oracle bulk load)."""
        ids = self._sorted_ids
        if not ids:
            raise NetworkError("cannot load data into an empty network")
        arr = np.asarray(list(values), dtype=float)
        if arr.size == 0:
            return
        keys = self.data_hash.map_values(arr)
        positions = np.searchsorted(self.sorted_ids_array(), keys, side="left")
        positions[positions == len(ids)] = 0
        order = np.argsort(positions, kind="stable")
        sorted_positions = positions[order]
        sorted_values = arr[order]
        boundaries = np.searchsorted(sorted_positions, np.arange(len(ids) + 1))
        for index, ident in enumerate(ids):
            chunk = sorted_values[boundaries[index] : boundaries[index + 1]]
            if chunk.size:
                self._nodes[ident].store.insert_many(chunk)

    def clear_data(self) -> None:
        """Drop all stored items from every peer."""
        for node in self._nodes.values():
            node.store.pop_all()

    # ------------------------------------------------------------------
    # Snapshot plane / ground truth (oracle view)
    # ------------------------------------------------------------------
    def snapshot(self) -> RingSnapshot:
        """The structure-of-arrays view of the current network state.

        Refreshed lazily against ``(topology_version, data_version)`` and
        updated *incrementally* from churn deltas — see
        :class:`repro.ring.snapshot.RingSnapshot`.  The snapshot is a pure
        view; node and store objects remain the source of truth.
        """
        self._snapshot.refresh()
        return self._snapshot

    @property
    def total_count(self) -> int:
        """Total items across all live peers."""
        return self.snapshot().total_count

    def all_values(self) -> np.ndarray:
        """Every stored value, sorted (the ground-truth dataset).

        Served from the snapshot plane; treat the array as read-only (it is
        cached until the next data or membership change).
        """
        return self.snapshot().sorted_values

    def peer_loads(self) -> np.ndarray:
        """Per-peer item counts in ring order (load-balance ground truth).

        Served from the snapshot plane; treat the array as read-only.
        """
        return self.snapshot().counts

    def peer_segment_lengths(self) -> np.ndarray:
        """Per-peer ownership arc lengths in ring order."""
        return np.asarray([node.segment_length for node in self.peers()], dtype=float)

    # ------------------------------------------------------------------
    # Message ledger helpers
    # ------------------------------------------------------------------
    def record(self, message_type: MessageType, count: int = 1, payload: float = 0.0) -> None:
        """Record simulated network traffic (optionally carrying payload)."""
        self.stats.record(message_type, count, payload=payload)

    def record_rpc(
        self, request: MessageType, reply: MessageType, reply_payload: float = 0.0
    ) -> None:
        """Record a request/reply pair; the reply may carry payload."""
        self.stats.record(request)
        self.stats.record(reply, payload=reply_payload)

    def reset_stats(self) -> None:
        """Zero the ledger (typically right after construction/loading)."""
        self.stats.reset()

    # ------------------------------------------------------------------
    # Domain helpers
    # ------------------------------------------------------------------
    @property
    def domain(self) -> tuple[float, float]:
        """The scalar data domain ``(low, high)``."""
        return (self.data_hash.low, self.data_hash.high)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RingNetwork(peers={self.n_peers}, items={self.total_count}, "
            f"bits={self.space.bits}, domain={self.domain})"
        )
