"""The routing core both ring backends share: finger tables and lockstep lookups.

Every estimator probe is one routed lookup, so this module holds the one
copy of the arithmetic that decides where a lookup goes.  The object
backend (:func:`repro.ring.routing.route_probes_batch`) and the compact
backend (:meth:`repro.ring.compact.CompactRing.route_batch`) both run
:func:`route_lockstep` over the compressed finger-scan layout that
:func:`exact_fingers` and :func:`compress_scan` build, so the two backends
route identically by construction.  The module is NumPy-only: it works on
sorted identifier arrays and row indices and knows nothing of peer
objects, ledgers, or fault models.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Union

import numpy as np
from numpy.typing import ArrayLike, NDArray

__all__ = ["Pointers", "LockstepRoutes", "exact_fingers", "compress_scan", "route_lockstep"]


def exact_fingers(
    ids: NDArray[np.uint64], bits: int, lo: int = 0, hi: Optional[int] = None
) -> NDArray[np.uint64]:
    """Exact finger tables of rows ``lo:hi`` of the ring with sorted ``ids``.

    Entry ``[r, k]`` is the owner of ``(ids[lo + r] + 2^k) mod 2^bits``:
    the first identifier at or clockwise after it, found with one
    ``searchsorted`` — the same ``bisect_left`` the scalar oracle performs.
    The result has shape ``(hi - lo, bits)``; callers bound the transient
    footprint by choosing the row range.
    """
    if hi is None:
        hi = int(ids.size)
    powers = np.uint64(1) << np.arange(bits, dtype=np.uint64)
    mask = np.uint64((1 << bits) - 1)
    targets = (ids[lo:hi, None] + powers[None, :]) & mask
    indices = np.searchsorted(ids, targets, side="left")
    indices[indices == ids.size] = 0
    return ids[indices]


def compress_scan(
    fingers: NDArray[np.uint64],
    row_ids: NDArray[np.uint64],
    valid: Optional[NDArray[np.bool_]] = None,
) -> tuple[NDArray[np.uint64], NDArray[np.int64]]:
    """The finger table with invalid entries dropped and duplicate runs collapsed.

    Finger targets are successors of exponentially spaced points, so a
    ``bits``-wide table usually holds only ~log2(n) distinct values, in
    consecutive runs.  Routing only ever asks "highest column inside an
    arc", and equal values at lower columns can never change that answer,
    so each run compresses to its highest-column entry.  A valid entry is
    dropped only when the *next* column is valid and equal: stale,
    non-monotone tables under churn at worst keep redundant duplicates,
    never lose a value.  Invalid entries (``valid`` False; ``None`` means
    every entry is valid) are dropped outright, and rows are padded to the
    common width with the row's own identifier from ``row_ids``, which
    fails every strict in-arc test — so the router needs no validity mask.

    Returns the scan table and how many entries each row kept.  The table
    is as wide as its widest row (at least one column), so a caller that
    recompresses some rows and carries the rest over keeps the widths to
    know the width a full recompression would have.
    """
    n, bits = fingers.shape
    if valid is None:
        valid = np.ones(fingers.shape, dtype=bool)
    keep = valid.copy()
    if bits > 1:
        keep[:, :-1] &= (fingers[:, :-1] != fingers[:, 1:]) | ~valid[:, 1:]
    widths = keep.sum(axis=1)
    scan = np.repeat(row_ids[:, None], max(int(widths.max(initial=0)), 1), axis=1)
    rows = np.repeat(np.arange(n), widths)
    starts = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(widths, out=starts[1:])
    scan[rows, np.arange(rows.size) - starts[rows]] = fingers[keep]
    return scan, widths


class Pointers(NamedTuple):
    """Per-row neighbour pointers of a ring whose pointers may be stale.

    ``succ`` is the row of each peer's primary successor and ``succ_ok``
    whether a lookup may follow it in batch: its target is live and is not
    the peer itself.  ``pred`` holds the predecessor pointers as
    identifiers and ``pred_ok`` whether each is set and live.
    """

    succ: NDArray[np.int64]
    succ_ok: NDArray[np.bool_]
    pred: NDArray[np.uint64]
    pred_ok: NDArray[np.bool_]


class LockstepRoutes(NamedTuple):
    """What :func:`route_lockstep` returns, one entry per lookup.

    ``rows`` is the owner's row for a finished lookup and, for an
    unfinished one, the row it stopped at — where a scalar router resumes
    it.  An unfinished lookup's ``hops`` and ``timeouts`` count only the
    steps that brought it to that row.
    """

    rows: NDArray[np.int64]
    hops: NDArray[np.int64]
    timeouts: NDArray[np.int64]
    unfinished: NDArray[np.bool_]


def route_lockstep(
    ids: NDArray[np.uint64],
    scan: NDArray[np.uint64],
    entries: ArrayLike,
    keys: ArrayLike,
    *,
    bits: int,
    pointers: Optional[Pointers] = None,
    tail_cutoff: int = 0,
    traffic: Optional[NDArray[np.int64]] = None,
) -> LockstepRoutes:
    """Route many lookups from rows ``entries`` to ring positions ``keys`` at once.

    Each lookup takes exactly the steps of the scalar reference
    :func:`repro.ring.routing.route_to_key`:

    * entry shortcuts: the entry owns its own identifier, and a node whose
      live predecessor precedes the key answers with 0 hops;
    * the terminal test: once the key lies in ``(current, successor]`` the
      successor owns it, at one final delivery hop;
    * otherwise one hop to the highest ``scan`` column strictly inside
      ``(current, key)``, falling back to the successor;
    * a hop towards an identifier missing from ``ids`` (a departed peer)
      is one counted hop and one timeout, after which the lookup rescans
      at the same node with that identifier excluded — the reference's
      per-node ``excluded`` set.

    ``pointers`` gives the neighbour pointers of a ring that may be stale;
    ``None`` is the stabilized ring, where row ``i``'s successor is row
    ``i + 1`` and its predecessor row ``i - 1`` (mod ``n``), both live.  A
    lookup leaves the batch unfinished when its successor pointer cannot
    be followed in batch (``succ_ok`` False), when its next hop would
    exceed the hop budget ``2 n + bits``, or when at most ``tail_cutoff``
    lookups are still routing.  The exclusion hops counted at the node an
    unfinished lookup stopped at are rolled back, because a resume replays
    that whole stay.  When ``traffic`` (length ``n``) is given, every hop
    to a live peer increments that peer's entry.
    """
    n = int(ids.size)
    mask = np.uint64((1 << bits) - 1)
    zero = np.uint64(0)
    max_hops = 2 * n + bits
    cur = np.array(entries, dtype=np.int64)
    targets = np.asarray(keys, dtype=np.uint64)
    count = int(targets.size)
    hops = np.zeros(count, dtype=np.int64)
    timeouts = np.zeros(count, dtype=np.int64)
    rows = np.full(count, -1, dtype=np.int64)
    unfinished = np.zeros(count, dtype=bool)
    # Timed-out identifiers per lookup at its current node, keyed by lookup
    # index; the reference rebuilds its exclusion set at every node, so an
    # entry is dropped the moment its lookup advances.  Only stuck lookups
    # appear here, so the per-step masking loop is short.
    excluded: dict[int, list[int]] = {}

    def give_up(probes: NDArray[np.intp]) -> None:
        for probe in probes.tolist():
            rolled = len(excluded.pop(probe, ()))
            hops[probe] -= rolled
            timeouts[probe] -= rolled
        unfinished[probes] = True

    entry_ids = ids[cur]
    pred_ok: Union[bool, NDArray[np.bool_]]
    if pointers is None:
        preds = ids[cur - 1]  # row -1 is the last row: the ring wraps
        pred_ok = True
    else:
        preds = pointers.pred[cur]
        pred_ok = pointers.pred_ok[cur]
    pred_dist = (targets - preds) & mask
    done = (targets == entry_ids) | (
        pred_ok
        & (
            (preds == entry_ids)
            | ((pred_dist > zero) & (pred_dist <= (entry_ids - preds) & mask))
        )
    )
    rows[done] = cur[done]

    active = np.flatnonzero(~done)
    while active.size:
        if active.size <= tail_cutoff:
            # A vectorized step costs the same whether it advances sixty
            # lookups or three, so the last few go to the scalar router.
            give_up(active)
            break
        at = cur[active]
        if pointers is None:
            succ = at + 1
            succ[succ == n] = 0
        else:
            plain = pointers.succ_ok[at]
            if not plain.all():
                give_up(active[~plain])
                active = active[plain]
                at = at[plain]
            succ = pointers.succ[at]
        at_ids = ids[at]
        succ_ids = ids[succ]
        key_dist = (targets[active] - at_ids) & mask  # > 0 mid-route
        terminal = key_dist <= (succ_ids - at_ids) & mask
        finished = active[terminal]
        if finished.size:
            rows[finished] = succ[terminal]
            hops[finished] += 1  # the final delivery hop (owner != current)
            if traffic is not None:
                np.add.at(traffic, succ[terminal], 1)
            routing = ~terminal
            active = active[routing]
            at = at[routing]
            at_ids = at_ids[routing]
            succ_ids = succ_ids[routing]
            key_dist = key_dist[routing]
        if not active.size:
            break
        finger_dist = (scan[at] - at_ids[:, None]) & mask
        in_arc = (finger_dist > zero) & (finger_dist < key_dist[:, None])
        if excluded:
            # ``active`` stays sorted through every boolean filter, so a
            # stuck lookup's row is one bisection away.
            for probe, gone in excluded.items():
                row = int(np.searchsorted(active, probe))
                if row < active.size and active[row] == probe:
                    fingers = scan[at[row]]
                    arc = in_arc[row]
                    for ident in gone:
                        arc &= fingers != ident
        hit = in_arc.any(axis=1)
        last = in_arc.shape[1] - 1 - np.argmax(in_arc[:, ::-1], axis=1)
        # No finger inside the arc: fall to the successor, which always
        # qualifies here (not terminal means it precedes the key strictly).
        candidate = np.where(hit, scan[at, last], succ_ids)
        cand = np.searchsorted(ids, candidate)
        np.minimum(cand, n - 1, out=cand)
        dead = ids[cand] != candidate
        over = hops[active] >= max_hops
        if over.any():
            give_up(active[over])
            within = ~over
            active = active[within]
            candidate = candidate[within]
            cand = cand[within]
            dead = dead[within]
        moved = active
        if dead.any():
            stuck = active[dead]
            hops[stuck] += 1
            timeouts[stuck] += 1
            for probe, ident in zip(stuck.tolist(), candidate[dead].tolist()):
                excluded.setdefault(probe, []).append(ident)
            moved = active[~dead]
            cand = cand[~dead]
        hops[moved] += 1
        cur[moved] = cand
        if traffic is not None:
            np.add.at(traffic, cand, 1)
        if excluded:
            for probe in moved.tolist():
                excluded.pop(probe, None)  # exclusions are per node
    rows[unfinished] = cur[unfinished]
    return LockstepRoutes(rows, hops, timeouts, unfinished)
