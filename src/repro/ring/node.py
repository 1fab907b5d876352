"""Peer node state.

A :class:`PeerNode` is deliberately thin: identifier, overlay pointers
(predecessor, successor, finger table), and a local store.  Protocol logic
(routing, join/leave, stabilization) lives in :mod:`repro.ring.routing` and
:mod:`repro.ring.chord`; estimation logic never reaches into a node beyond
the public accessors here, mirroring what a real peer would expose over RPC.
"""

from __future__ import annotations

from typing import Optional

from repro.ring.identifier import IdentifierSpace, RingInterval
from repro.ring.storage import LocalStore

__all__ = ["PeerNode"]

_NO_EXCLUSIONS: frozenset[int] = frozenset()


class PeerNode:
    """One peer in the ring overlay.

    Overlay pointers hold peer *identifiers*, not object references — the
    network layer resolves identifiers to nodes, which keeps stale pointers
    representable (a pointer may name a departed peer until stabilization
    repairs it, exactly as in a real deployment).
    """

    def __init__(self, ident: int, space: IdentifierSpace) -> None:
        space.validate(ident)
        self.ident = ident
        self.space = space
        self.predecessor_id: Optional[int] = None
        self.successor_id: int = ident  # self-loop until joined
        self._fingers: list[Optional[int]] = [None] * space.bits
        # Memoized routing scan order (deduplicated reversed finger list);
        # rebuilt lazily after any finger change.
        self._finger_scan: Optional[list[int]] = None
        self.store = LocalStore()
        self.alive = True
        # Round-robin cursor for incremental finger repair (fix_fingers).
        self.next_finger_index = 0
        # Successor list: fallback routes when the successor fails.  Kept
        # short (Chord uses O(log N)); refreshed by stabilization.
        self.successor_list: list[int] = []
        # Physical host this (possibly virtual) node runs on.  Plain
        # networks use one node per host; virtual-node deployments map
        # several ring nodes to one host id (see RingNetwork.create_virtual).
        self.host_id: int = ident
        # Byzantine behaviour (repro.core.byzantine); None = honest peer.
        self.byzantine = None
        # Replicas held on behalf of other peers: owner ident -> values
        # snapshot (see repro.ring.replication).
        self.replicas: dict[int, tuple[float, ...]] = {}
        # Memoized probe replies, keyed by (buckets, kind) and validated
        # against (store.version, predecessor_id, byzantine) — see
        # repro.core.synopsis.summarize_peer.
        self.summary_cache: dict = {}

    # ------------------------------------------------------------------
    # Ownership
    # ------------------------------------------------------------------
    @property
    def interval(self) -> RingInterval:
        """The arc of keys this peer owns: ``(predecessor, self]``.

        A peer that has not learnt its predecessor yet (mid-join) owns the
        full ring by the Chord convention; callers that care should check
        :attr:`predecessor_id` first.
        """
        start = self.predecessor_id if self.predecessor_id is not None else self.ident
        return RingInterval(self.space, start, self.ident)

    def owns(self, key: int) -> bool:
        """True if ``key`` falls in this peer's ownership arc."""
        return self.interval.contains(key)

    @property
    def segment_length(self) -> int:
        """Length of the ownership arc in identifiers (``ℓ_p``)."""
        return self.interval.length

    @property
    def local_count(self) -> int:
        """Number of locally stored items (``c_p``)."""
        return self.store.count

    # ------------------------------------------------------------------
    # Finger table
    # ------------------------------------------------------------------
    def finger_target(self, k: int) -> int:
        """Ring position the ``k``-th finger should point past."""
        return self.space.finger_target(self.ident, k)

    @property
    def fingers(self) -> list[Optional[int]]:
        """The finger table.  Mutate through :meth:`set_finger` or by
        assigning a whole list — both invalidate the routing scan memo;
        writing ``node.fingers[k] = ...`` directly would not."""
        return self._fingers

    @fingers.setter
    def fingers(self, value: list[Optional[int]]) -> None:
        self._fingers = value
        self._finger_scan = None

    def set_finger(self, k: int, node_id: Optional[int]) -> bool:
        """Install the ``k``-th finger (``None`` marks it unknown/broken).

        Returns whether the entry changed value; rewriting the value it
        already holds leaves the table and its scan memo untouched.
        """
        if not 0 <= k < self.space.bits:
            raise IndexError(f"finger index {k} outside [0, {self.space.bits})")
        if self._fingers[k] == node_id:
            return False
        self._fingers[k] = node_id
        self._finger_scan = None
        return True

    def _finger_scan_order(self) -> list[int]:
        """Fingers in routing scan order: reversed, ``None``s and duplicate
        values dropped (a duplicate re-tests the same predicate, so skipping
        it never changes which finger a scan returns).  With ``bits`` well
        above ``log2 N`` most entries collapse, shrinking the per-hop scan
        from ``bits`` to ~``log2 N`` candidates."""
        scan = self._finger_scan
        if scan is None:
            # dict.fromkeys deduplicates at C speed keeping first
            # occurrence, which in the reversed table is the farthest
            # finger holding each value — the entry the scan must keep.
            scan = [
                finger_id
                for finger_id in dict.fromkeys(reversed(self._fingers))
                if finger_id is not None
            ]
            self._finger_scan = scan
        return scan

    def closest_preceding_finger(
        self, target: int, excluded: frozenset[int] = _NO_EXCLUSIONS
    ) -> int:
        """Best known hop towards ``target``: the farthest finger that
        precedes it, falling back to the successor, then to self.

        This is the node-local half of Chord's ``find_successor``; it never
        consults global state, so routing cost in the simulator reflects
        what a real overlay would pay.  ``excluded`` lists peers the caller
        has already found unreachable (timed out), so retries after a failed
        hop make progress instead of looping.
        """
        # Inlined modular arithmetic: this runs once per routing hop over up
        # to ``bits`` fingers, so the per-finger cost must stay a couple of
        # integer ops rather than method calls (in_open == two clockwise
        # distances plus an inequality).
        space = self.space
        mask = space.mask
        ident = self.ident
        # target == ident means the open arc is the whole ring minus self.
        reach = (target - ident) & mask or space.size
        scan = self._finger_scan
        if scan is None:
            scan = self._finger_scan_order()
        if not excluded:
            # Fast path for the overwhelmingly common timeout-free lookup:
            # skip the per-finger membership test entirely.
            for finger_id in scan:
                if 0 < (finger_id - ident) & mask < reach:
                    return finger_id
            successor_id = self.successor_id
            if successor_id != ident and 0 < (successor_id - ident) & mask < reach:
                return successor_id
            return ident
        for finger_id in scan:
            if finger_id in excluded:
                continue
            if 0 < (finger_id - ident) & mask < reach:
                return finger_id
        successor_id = self.successor_id
        if (
            successor_id != ident
            and successor_id not in excluded
            and 0 < (successor_id - ident) & mask < reach
        ):
            return successor_id
        return ident

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PeerNode(id={self.ident}, pred={self.predecessor_id}, "
            f"succ={self.successor_id}, items={self.local_count})"
        )
