"""The ring snapshot plane: structure-of-arrays views of the live network.

Estimation-side consumers (ground-truth CDFs, gossip base synopses, the
random-walk overlay graph, the batch app APIs) repeatedly ask the network
global questions — "all values, sorted", "per-peer loads", "who owns these
keys" — that the object graph answers only by walking every peer.  Under
churn those walks dominate wall time: every round invalidates the caches
and the next estimate rebuilds identical arrays from scratch.

:class:`RingSnapshot` fixes this by maintaining *one* frozen columnar view
of the network:

* ``ids`` — sorted live peer identifiers (``uint64``),
* ``counts`` / ``cum_counts`` — per-peer item counts and their prefix sums,
* ``values`` / ``offsets`` — every stored item packed per peer in ring
  order (peer ``i`` owns ``values[offsets[i]:offsets[i+1]]``),
* ``sorted_values`` — the same multiset globally sorted (the ground truth
  dataset),
* successor/predecessor arrays and the finger table as an ``(n, bits)``
  integer matrix (lazy; keyed on the overlay token), with the router's
  compressed scan table and resolved pointers derived from them.

The snapshot is keyed on ``(topology_version, data_version)`` and is
**updated incrementally**: the network records which stores mutated
(``RingNetwork._dirty_stores``) and the refresh diffs membership against
the previous snapshot, so a churn round that touched ``k`` peers costs
O(k · chunk + n) instead of a full O(total · log total) rebuild.  Equal
floats are indistinguishable, so the incrementally maintained
``sorted_values`` is byte-identical to a from-scratch sort — the snapshot
is a pure view and never a second source of truth.  The overlay views are
updated the same way from the network's pointer-write log
(:class:`PointerWrites`): a refresh re-reads only the pointer entries that
changed value since the last one.
"""

from __future__ import annotations

from itertools import chain
from typing import TYPE_CHECKING, Optional

import numpy as np
from numpy.typing import NDArray

from repro.ring.lockstep import Pointers, compress_scan

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (network imports us)
    from repro.ring.network import RingNetwork
    from repro.ring.node import PeerNode

__all__ = ["RingSnapshot", "PointerWrites"]

_EMPTY_F = np.empty(0, dtype=float)
_EMPTY_U = np.empty(0, dtype=np.uint64)
_EMPTY_I = np.empty(0, dtype=np.int64)

# Above this fraction of churned items per refresh the incremental
# delete-and-merge stops paying off and one full sort of the packed pool
# is cheaper (and trivially equal, since both produce the sorted multiset).
_FULL_REBUILD_FRACTION = 0.5


class PointerWrites:
    """Overlay pointer writes since the overlay view's last refresh.

    ``since`` is the :attr:`RingNetwork.topology_version` the log counts
    from; ``joined`` the peers registered since (their rows are read
    whole); ``relinked`` the peers whose successor or predecessor changed
    value; ``fingers`` maps a peer to the bit mask of its finger columns
    that changed value.  Every entry names a live peer: departures are
    forgotten, and their rows leave the view with the membership diff.
    """

    __slots__ = ("since", "joined", "relinked", "fingers")

    def __init__(self, since: int) -> None:
        self.since = since
        self.joined: set[int] = set()
        self.relinked: set[int] = set()
        self.fingers: dict[int, int] = {}

    def forget(self, ident: int) -> None:
        """Drop a departed peer's entries."""
        self.joined.discard(ident)
        self.relinked.discard(ident)
        self.fingers.pop(ident, None)


class RingSnapshot:
    """Incrementally maintained structure-of-arrays view of a network.

    Obtain via :meth:`RingNetwork.snapshot`, which refreshes lazily; all
    exposed arrays are caches shared across callers — treat them as
    read-only.
    """

    def __init__(self, network: "RingNetwork") -> None:
        self._network = network
        self._token: Optional[tuple[int, int]] = None
        self._ids: NDArray[np.uint64] = _EMPTY_U
        # Per-peer value chunk as of the last refresh.  Store arrays are
        # never mutated in place (mutations rebind a fresh array), so
        # holding the old object preserves the pre-delta contents needed to
        # subtract a changed peer's items from the sorted pool.
        self._chunks: dict[int, NDArray[np.float64]] = {}
        self._counts: NDArray[np.int64] = _EMPTY_I
        self._cum_counts: NDArray[np.int64] = np.zeros(1, dtype=np.int64)
        self._values: NDArray[np.float64] = _EMPTY_F
        self._sorted_values: NDArray[np.float64] = _EMPTY_F
        # Overlay-pointer views, keyed on topology_version alone (pointer
        # maintenance advances it without touching the data plane).
        self._overlay_token: Optional[int] = None
        self._successors: NDArray[np.uint64] = _EMPTY_U
        self._predecessors: NDArray[np.uint64] = _EMPTY_U
        self._predecessor_valid: NDArray[np.bool_] = np.empty(0, dtype=bool)
        self._finger_matrix: NDArray[np.uint64] = _EMPTY_U.reshape(0, 0)
        self._finger_valid: NDArray[np.bool_] = np.empty((0, 0), dtype=bool)
        self._adjacency: Optional[dict[int, list[int]]] = None
        self._overlay_ids: NDArray[np.uint64] = _EMPTY_U
        # Compressed finger-scan view, derived lazily from the finger
        # matrix (its own token: callers may never ask for it).
        self._scan_token: Optional[int] = None
        self._scan_matrix: NDArray[np.uint64] = _EMPTY_U.reshape(0, 0)
        # Entries each scan row keeps (the table is as wide as the widest).
        self._scan_widths: NDArray[np.int64] = _EMPTY_I
        # Row-resolved neighbour pointers for the batch router.
        self._pointers_token: Optional[int] = None
        self._pointers: Optional[Pointers] = None

    # ------------------------------------------------------------------
    # Data-plane views
    # ------------------------------------------------------------------
    @property
    def version_token(self) -> Optional[tuple[int, int]]:
        """The ``(topology_version, data_version)`` this view reflects.

        ``None`` before the first refresh.  Downstream epoch-keyed caches
        (the serving layer's result cache, app-level model caches) compare
        this against :attr:`RingNetwork.version_token` to decide whether
        derived state built from the snapshot is still current.
        """
        return self._token

    @property
    def ids(self) -> NDArray[np.uint64]:
        """Sorted live peer identifiers (``uint64``)."""
        return self._ids

    @property
    def counts(self) -> NDArray[np.int64]:
        """Per-peer item counts in ring order (``int64``)."""
        return self._counts

    @property
    def cum_counts(self) -> NDArray[np.int64]:
        """Prefix sums of :attr:`counts`, length ``n_peers + 1``."""
        return self._cum_counts

    @property
    def values(self) -> NDArray[np.float64]:
        """All stored items packed per peer in ring order."""
        return self._values

    @property
    def offsets(self) -> NDArray[np.int64]:
        """Alias of :attr:`cum_counts`: peer ``i`` owns
        ``values[offsets[i]:offsets[i+1]]``."""
        return self._cum_counts

    @property
    def sorted_values(self) -> NDArray[np.float64]:
        """Every stored value globally sorted (the ground-truth dataset)."""
        return self._sorted_values

    @property
    def total_count(self) -> int:
        """Total items across all live peers."""
        return int(self._cum_counts[-1])

    def chunk(self, ident: int) -> NDArray[np.float64]:
        """One peer's sorted values as of this snapshot."""
        return self._chunks[ident]

    # ------------------------------------------------------------------
    # Refresh machinery
    # ------------------------------------------------------------------
    def refresh(self) -> "RingSnapshot":
        """Bring the view up to date with the live network (lazy, cheap).

        A clean token is a tuple compare; a dirty one applies the recorded
        churn delta, falling back to a full rebuild only on first use or
        bulk turnover.
        """
        network = self._network
        token = (network.topology_version, network.data_version)
        if token == self._token:
            return self
        if self._token is None:
            self._rebuild()
        else:
            self._apply_delta()
        self._token = token
        network._dirty_stores.clear()
        return self

    def _rebuild(self) -> None:
        """Construct every data-plane array from scratch."""
        network = self._network
        ids = network.sorted_ids_array()
        nodes = network._nodes
        chunks: dict[int, NDArray[np.float64]] = {}
        for ident in ids.tolist():
            node = nodes[ident]
            chunks[ident] = node.store.as_array()
            network._arm_store(node)
        self._ids = ids
        self._chunks = chunks
        self._repack()
        self._sorted_values = np.sort(self._values) if self._values.size else _EMPTY_F

    def _repack(self) -> None:
        """Rebuild counts/offsets/packed values from the chunk table.

        This is pure memcpy over the cached per-peer arrays — O(total
        items) with a tiny constant — so it runs on every refresh; only the
        global *sort* is worth maintaining incrementally.
        """
        ids = self._ids
        chunk_list = [self._chunks[int(ident)] for ident in ids]
        counts = np.fromiter((c.size for c in chunk_list), dtype=np.int64, count=len(chunk_list))
        self._counts = counts
        self._cum_counts = np.concatenate((np.zeros(1, dtype=np.int64), np.cumsum(counts)))
        self._values = np.concatenate(chunk_list) if chunk_list else _EMPTY_F

    def _apply_delta(self) -> None:
        """Update the view from the churn delta since the last refresh.

        Membership changes come from diffing the previous id array against
        the registry; content changes come from the network's dirty-store
        set.  Removed items are deleted from the sorted pool by position
        (searchsorted plus per-value occurrence rank handles duplicates);
        incoming items are merged in with one vectorized ``insert``.
        """
        network = self._network
        nodes = network._nodes
        old_ids = self._ids
        new_ids = network.sorted_ids_array()

        gone = old_ids[~np.isin(old_ids, new_ids, assume_unique=True)]
        came = new_ids[~np.isin(new_ids, old_ids, assume_unique=True)]
        came_set = {int(i) for i in came}
        dirty_kept = sorted(
            ident
            for ident in network._dirty_stores
            if ident in nodes and ident not in came_set
        )

        removed_arrays: list[NDArray[np.float64]] = []
        added_arrays: list[NDArray[np.float64]] = []
        chunks = self._chunks
        for ident in gone.tolist():
            old_chunk = chunks.pop(ident)
            if old_chunk.size:
                removed_arrays.append(old_chunk)
        for ident in dirty_kept:
            old_chunk = chunks[ident]
            if old_chunk.size:
                removed_arrays.append(old_chunk)
            node = nodes[ident]
            new_chunk = node.store.as_array()
            chunks[ident] = new_chunk
            network._arm_store(node)
            if new_chunk.size:
                added_arrays.append(new_chunk)
        for ident in came.tolist():
            node = nodes[ident]
            new_chunk = node.store.as_array()
            chunks[ident] = new_chunk
            network._arm_store(node)
            if new_chunk.size:
                added_arrays.append(new_chunk)

        self._ids = new_ids
        self._repack()

        removed_total = sum(a.size for a in removed_arrays)
        added_total = sum(a.size for a in added_arrays)
        if removed_total == 0 and added_total == 0:
            return
        if removed_total + added_total > _FULL_REBUILD_FRACTION * max(self._values.size, 1):
            self._sorted_values = np.sort(self._values) if self._values.size else _EMPTY_F
            return

        pool = self._sorted_values
        if removed_total:
            removed = np.sort(np.concatenate(removed_arrays))
            # Position of the j-th copy of each removed value: first
            # occurrence in the pool plus the copy's rank among its equals.
            first = np.searchsorted(pool, removed, side="left")
            rank = np.arange(removed.size) - np.searchsorted(removed, removed, side="left")
            pool = np.delete(pool, first + rank)
        if added_total:
            added = np.sort(np.concatenate(added_arrays))
            pool = np.insert(pool, np.searchsorted(pool, added, side="left"), added)
        self._sorted_values = pool

    # ------------------------------------------------------------------
    # Overlay-plane views (lazy; keyed on topology_version)
    # ------------------------------------------------------------------
    def _ensure_overlay(self) -> None:
        """Bring the overlay views up to the live topology version.

        The network logs which pointer entries changed value since this
        view's token (:class:`PointerWrites`), so a refresh re-reads only
        those entries, recompresses only the scan rows whose fingers
        changed, and carries everything else over by index.  The first
        refresh, and the first after a writer that could not name its
        writes, reads every row.  Every refresh binds new arrays and never
        writes into the old ones: clones alias them.
        """
        network = self._network
        token = network.topology_version
        old_token = self._overlay_token
        if old_token == token:
            return
        ids = network.sorted_ids_array()
        writes = network._pointer_writes
        if writes is None or writes.since != old_token or not self._overlay_ids.size:
            self._read_overlay(ids)
        else:
            self._apply_overlay_writes(ids, writes)
        self._adjacency = None
        self._overlay_token = token
        # The overlay views diff membership through sorted_ids_array, so
        # they can serve callers that never touch the data plane; ids may
        # therefore be newer than self._ids until the next data refresh.
        self._overlay_ids = ids
        network._pointer_writes = PointerWrites(token)

    def _read_overlay(self, ids: NDArray[np.uint64]) -> None:
        """Read every peer's pointers into fresh overlay arrays."""
        network = self._network
        nodes = network._nodes
        (
            self._successors,
            self._predecessors,
            self._predecessor_valid,
            self._finger_matrix,
            self._finger_valid,
        ) = _read_pointer_rows([nodes[ident] for ident in ids.tolist()], network.space.bits)

    def _apply_overlay_writes(self, ids: NDArray[np.uint64], writes: PointerWrites) -> None:
        """Carry the previous overlay arrays over to ``ids``, re-reading ``writes``."""
        network = self._network
        nodes = network._nodes
        # Row of every peer in the previous view; rows read whole (new
        # peers among them) get a placeholder and are overwritten.
        source = np.searchsorted(self._overlay_ids, ids)
        np.minimum(source, self._overlay_ids.size - 1, out=source)
        successors = self._successors[source]
        predecessors = self._predecessors[source]
        predecessor_valid = self._predecessor_valid[source]
        finger_matrix = self._finger_matrix[source]
        finger_valid = self._finger_valid[source]

        # Single finger entries first, then whole rows, which hold the
        # final values of every entry they cover.
        entry_peers: list[int] = []
        entry_columns: list[int] = []
        entry_values: list[Optional[int]] = []
        for ident, mask in writes.fingers.items():
            node = nodes.get(ident)
            if node is None:
                continue  # written after it departed (a stale node object)
            fingers = node._fingers
            while mask:
                k = mask.bit_length() - 1
                mask ^= 1 << k
                entry_peers.append(ident)
                entry_columns.append(k)
                entry_values.append(fingers[k])
        entry_rows = _rows_of(ids, entry_peers)
        columns = np.asarray(entry_columns, dtype=np.intp)
        if None in entry_values:
            finger_valid[entry_rows, columns] = [value is not None for value in entry_values]
            entry_values = [0 if value is None else value for value in entry_values]
        else:
            finger_valid[entry_rows, columns] = True
        finger_matrix[entry_rows, columns] = np.asarray(entry_values, dtype=np.uint64)

        joined = list(writes.joined)
        rows = _rows_of(ids, joined)
        (
            successors[rows],
            predecessors[rows],
            predecessor_valid[rows],
            finger_matrix[rows],
            finger_valid[rows],
        ) = _read_pointer_rows([nodes[ident] for ident in joined], network.space.bits)

        relinked = [ident for ident in writes.relinked if ident in nodes]
        relinked_rows = _rows_of(ids, relinked)
        (
            successors[relinked_rows],
            predecessors[relinked_rows],
            predecessor_valid[relinked_rows],
        ) = _read_neighbours([nodes[ident] for ident in relinked])

        if self._scan_token == self._overlay_token:
            changed = np.zeros(ids.size, dtype=bool)
            changed[entry_rows] = True
            changed[rows] = True
            self._carry_scan(ids, source, np.flatnonzero(changed), finger_matrix, finger_valid)
            self._scan_token = network.topology_version
        self._successors = successors
        self._predecessors = predecessors
        self._predecessor_valid = predecessor_valid
        self._finger_matrix = finger_matrix
        self._finger_valid = finger_valid

    def _carry_scan(
        self,
        ids: NDArray[np.uint64],
        source: NDArray[np.intp],
        rows: NDArray[np.intp],
        finger_matrix: NDArray[np.uint64],
        finger_valid: NDArray[np.bool_],
    ) -> None:
        """Recompress scan ``rows`` from the new finger matrix, carry the rest.

        The table stays exactly what :func:`compress_scan` would build from
        the whole matrix: as wide as its widest row, every row padded with
        its own identifier.
        """
        part, part_widths = compress_scan(finger_matrix[rows], ids[rows], finger_valid[rows])
        widths = self._scan_widths[source]
        widths[rows] = part_widths
        width = max(int(widths.max(initial=0)), 1)
        scan = self._scan_matrix[source, :width]
        if scan.shape[1] < width:
            padding = np.repeat(ids[:, None], width - scan.shape[1], axis=1)
            scan = np.concatenate((scan, padding), axis=1)
        scan[rows] = ids[rows, None]
        scan[rows, : part.shape[1]] = part
        self._scan_matrix = scan
        self._scan_widths = widths

    def successor_array(self) -> NDArray[np.uint64]:
        """Per-peer primary successor pointers in ring order (``uint64``)."""
        self._ensure_overlay()
        return self._successors

    def predecessor_array(self) -> tuple[NDArray[np.uint64], NDArray[np.bool_]]:
        """Per-peer predecessor pointers and their validity mask."""
        self._ensure_overlay()
        return self._predecessors, self._predecessor_valid

    def finger_tables(self) -> tuple[NDArray[np.uint64], NDArray[np.bool_]]:
        """The ``(n, bits)`` finger matrix and its validity mask."""
        self._ensure_overlay()
        return self._finger_matrix, self._finger_valid

    def finger_scan_tables(self) -> NDArray[np.uint64]:
        """The finger matrix in the compressed scan layout the router reads.

        See :func:`repro.ring.lockstep.compress_scan`: invalid (``None``)
        fingers dropped, duplicate runs collapsed to their highest column,
        rows padded with the peer's own identifier.  Cached until the next
        overlay change.
        """
        self._ensure_overlay()
        if self._scan_token != self._overlay_token:
            self._scan_matrix, self._scan_widths = compress_scan(
                self._finger_matrix, self._overlay_ids, self._finger_valid
            )
            self._scan_token = self._overlay_token
        return self._scan_matrix

    def pointers(self) -> Pointers:
        """Neighbour pointers resolved to rows, as the batch router reads them.

        A pointer is live iff it appears in the sorted live-id array
        (departed peers are unregistered, so membership there is exactly
        ``try_node(...) is not None``); its row doubles as the hop target.
        Cached until the next overlay change.
        """
        self._ensure_overlay()
        pointers = self._pointers
        if pointers is None or self._pointers_token != self._overlay_token:
            ids = self._overlay_ids
            last = ids.size - 1
            successors = self._successors
            predecessors = self._predecessors
            succ = np.minimum(np.searchsorted(ids, successors), last)
            pred = np.minimum(np.searchsorted(ids, predecessors), last)
            pointers = Pointers(
                succ=succ,
                succ_ok=(ids[succ] == successors) & (successors != ids),
                pred=predecessors,
                pred_ok=self._predecessor_valid & (ids[pred] == predecessors),
            )
            self._pointers = pointers
            self._pointers_token = self._overlay_token
        return pointers

    def adjacency(self) -> dict[int, list[int]]:
        """Symmetrized overlay graph (fingers ∪ ring links ∪ reverses).

        Exactly the mapping :func:`repro.core.baselines.random_walk` used
        to build with per-node set operations — neighbours sorted, dead
        targets dropped — computed here from the finger matrix with
        vectorized index arithmetic.
        """
        self._ensure_overlay()
        if self._adjacency is not None:
            return self._adjacency
        ids = self._overlay_ids
        n = ids.size
        if n == 0:
            self._adjacency = {}
            return self._adjacency
        valid = self._finger_valid.ravel()
        finger_src = np.repeat(np.arange(n, dtype=np.int64), self._finger_matrix.shape[1])[valid]
        finger_dst = self._finger_matrix.ravel()[valid]
        succ_src = np.arange(n, dtype=np.int64)
        pred_src = succ_src[self._predecessor_valid]
        src_idx = np.concatenate((finger_src, succ_src, pred_src))
        dst_vals = np.concatenate(
            (finger_dst, self._successors, self._predecessors[self._predecessor_valid])
        )
        # Keep only edges whose target is a live peer, expressed as an
        # index into the sorted id array; drop self-loops.
        dst_idx = np.searchsorted(ids, dst_vals)
        np.minimum(dst_idx, n - 1, out=dst_idx)
        live = ids[dst_idx] == dst_vals
        src_idx = src_idx[live]
        dst_idx = dst_idx[live]
        keep = src_idx != dst_idx
        src_idx = src_idx[keep]
        dst_idx = dst_idx[keep]
        # Symmetrize and deduplicate in one pass over packed (src, dst)
        # keys; n² fits int64 for any simulated ring.
        keys = np.unique(
            np.concatenate((src_idx * n + dst_idx, dst_idx * n + src_idx))
        )
        edge_src = keys // n
        edge_dst = ids[keys % n].tolist()
        boundaries = np.searchsorted(edge_src, np.arange(n + 1, dtype=np.int64))
        adjacency: dict[int, list[int]] = {}
        for index, ident in enumerate(ids.tolist()):
            adjacency[ident] = edge_dst[boundaries[index] : boundaries[index + 1]]
        self._adjacency = adjacency
        return adjacency


def _read_neighbours(
    peers: list["PeerNode"],
) -> tuple[NDArray[np.uint64], NDArray[np.uint64], NDArray[np.bool_]]:
    """Successors, predecessors and predecessor validity of ``peers``."""
    count = len(peers)
    preds = [node.predecessor_id for node in peers]
    return (
        np.fromiter((node.successor_id for node in peers), dtype=np.uint64, count=count),
        np.fromiter((0 if p is None else p for p in preds), dtype=np.uint64, count=count),
        np.fromiter((p is not None for p in preds), dtype=bool, count=count),
    )


def _read_pointer_rows(
    peers: list["PeerNode"], bits: int
) -> tuple[
    NDArray[np.uint64], NDArray[np.uint64], NDArray[np.bool_], NDArray[np.uint64], NDArray[np.bool_]
]:
    """Neighbour pointers and whole finger rows of ``peers``.

    Returns :func:`_read_neighbours`'s arrays followed by the
    ``(len(peers), bits)`` finger matrix and its validity mask.
    """
    count = len(peers)
    rows = [node._fingers for node in peers]
    try:
        fingers = np.fromiter(chain.from_iterable(rows), dtype=np.uint64, count=count * bits)
        finger_valid = np.ones(count * bits, dtype=bool)
    except TypeError:
        # A broken (None) finger somewhere, rare outside heavy churn: the
        # conversion refuses it, so read every entry with its validity.
        flat = list(chain.from_iterable(rows))
        fingers = np.fromiter((0 if f is None else f for f in flat), dtype=np.uint64, count=count * bits)
        finger_valid = np.fromiter((f is not None for f in flat), dtype=bool, count=count * bits)
    return (
        *_read_neighbours(peers),
        fingers.reshape(count, bits),
        finger_valid.reshape(count, bits),
    )


def _rows_of(ids: NDArray[np.uint64], idents: list[int]) -> NDArray[np.intp]:
    """Row positions of live peers ``idents`` in the sorted ``ids``."""
    return np.searchsorted(ids, np.asarray(idents, dtype=np.uint64))
