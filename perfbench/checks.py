"""Correctness gate, output digest and percentile rule of the benchmark.

Every check here tests an invariant the program already promises; none
compares against numbers recorded from an earlier run:

* an estimate is a valid CDF — breakpoints increasing, values
  non-decreasing and inside [0, 1], and 1 at the top of the domain;
* the interpolated reconstruction is exact over probed segments — across
  each probed bucket, F̂ rises by that bucket's count over the estimated
  total (as ``assemble_cdf_interpolated`` documents);
* a served batch answer equals the scalar ``cdf_at`` / ``quantile`` /
  ``selectivity`` / ``sample`` answers bit for bit;
* the compact backend answers exactly as the object backend at equal seeds.

Determinism (the same digest and deterministic metrics from a repeated run
under the other trace mode and another ``PYTHONHASHSEED``) is checked by
``run.py``, which compares two worker processes.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
from typing import Any, Iterator, Sequence

import numpy as np

from spans import Hook, Instrumentation

__all__ = [
    "Gate",
    "Digest",
    "AssemblyLog",
    "percentile",
    "samples_beyond",
    "check_backend_parity",
]

#: Slack for F̂ increments over a probed bucket: F̂ is a cumulative sum of
#: non-integer gap masses and counts divided by the total, so an increment
#: carries a few ulps of rounding.
EXACTNESS_TOLERANCE = 1e-9

_MAX_PROBLEMS = 20


class Gate:
    """Collects failed checks; the run is correct iff none failed."""

    def __init__(self) -> None:
        self.problems: list[str] = []
        self.checks = 0
        #: The span recorder of a traced run, paused while a check runs so
        #: the gate's own calls into the program leave no spans.
        self.recorder: Any = None

    @contextlib.contextmanager
    def quiet(self) -> Iterator[None]:
        recorder = self.recorder
        if recorder is None or not recorder.active:
            yield
            return
        recorder.active = False
        try:
            yield
        finally:
            recorder.active = True

    @property
    def ok(self) -> bool:
        return not self.problems

    def require(self, condition: bool, message: str) -> bool:
        self.checks += 1
        if not condition and len(self.problems) < _MAX_PROBLEMS:
            self.problems.append(message)
        return condition

    def valid_cdf(self, cdf: Any, domain: tuple[float, float], what: str) -> bool:
        """Monotone, inside [0, 1], and exactly 1 at the domain's top."""
        xs = np.asarray(cdf.xs, dtype=float)
        fs = np.asarray(cdf.fs, dtype=float)
        with self.quiet():
            top = float(np.asarray(cdf(np.asarray([domain[1]], dtype=float)))[0])
        return self.require(
            xs.size >= 1
            and bool(np.all(np.isfinite(xs)) and np.all(np.isfinite(fs)))
            and bool(np.all(np.diff(xs) > 0))
            and bool(np.all(np.diff(fs) >= 0))
            and float(fs.min()) >= 0.0
            and float(fs.max()) <= 1.0
            and top == 1.0,
            f"{what}: not a valid CDF (F(top)={top!r})",
        )

    def exact_segments(self, summaries: Sequence[Any], reconstruction: Any, what: str) -> bool:
        """F̂ rises by ``count / n̂`` across every probed bucket."""
        unique = {summary.peer_id: summary for summary in summaries}
        total = float(reconstruction.total_items)
        worst = 0.0
        for summary in unique.values():
            for seg in summary.segments:
                edges = np.asarray(seg.bucket_edges(), dtype=float)
                if not np.all(np.diff(edges) > 0):
                    continue  # a float-degenerate range has no interior to test
                with self.quiet():
                    rises = np.diff(np.asarray(reconstruction.cdf(edges), dtype=float))
                expected = np.asarray(seg.counts, dtype=float) / total
                worst = max(worst, float(np.max(np.abs(rises - expected))))
        return self.require(
            worst <= EXACTNESS_TOLERANCE,
            f"{what}: F̂ is not exact over probed segments (off by {worst:.3g})",
        )

    def same(self, served: Any, scalar: Any, what: str) -> bool:
        """Bit-for-bit equality of two answers."""
        a = np.asarray(served, dtype=float)
        b = np.asarray(scalar, dtype=float)
        return self.require(
            a.shape == b.shape and a.tobytes() == b.tobytes(),
            f"{what}: served answer differs from the scalar answer",
        )


class Digest:
    """A running BLAKE2b digest of everything a run outputs."""

    def __init__(self) -> None:
        self._hash = hashlib.blake2b(digest_size=16)

    def add(self, *parts: Any) -> None:
        for part in parts:
            if isinstance(part, np.ndarray):
                self._hash.update(str(part.dtype).encode())
                self._hash.update(np.ascontiguousarray(part).tobytes())
            else:
                self._hash.update(repr(part).encode())

    def add_cdf(self, cdf: Any) -> None:
        self.add(np.asarray(cdf.xs, dtype=float), np.asarray(cdf.fs, dtype=float))

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


class AssemblyLog:
    """Records every ``assemble_cdf_interpolated`` call with its inputs.

    A span-less :class:`Instrumentation` observes the name in both
    modules that call it (the estimator and the drift check), so the gate
    can test each reconstruction against the probe replies it was built
    from.
    """

    CALLERS = ("repro.core.estimator", "repro.core.tracking")

    def __init__(self) -> None:
        self.calls: list[tuple[Any, Any]] = []
        self._hooks = Instrumentation(
            None, [Hook("assemble", caller, "assemble_cdf_interpolated", self._record) for caller in self.CALLERS]
        )
        self.install = self._hooks.install
        self.uninstall = self._hooks.uninstall

    def _record(self, recorder: Any, args: tuple, kwargs: dict, result: Any, token: Any) -> None:
        self.calls.append((args[0], result))

    def check(self, gate: Gate, what: str) -> int:
        """Gate every recorded reconstruction, then forget them."""
        calls, self.calls = self.calls, []
        for summaries, reconstruction in calls:
            gate.exact_segments(summaries, reconstruction, what)
        return len(calls)


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``p``-th percentile."""
    return n - max(1, math.ceil(p / 100.0 * n))


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile, named only with ten samples beyond it.

    Raises ``ValueError`` when fewer than ten samples lie above the
    percentile: such a tail would be one or two samples, not a percentile.
    The median (``p=50``) needs the same ten, which any real run has.
    """
    n = len(samples)
    if n == 0 or samples_beyond(n, p) < 10:
        raise ValueError(f"p{p:g} of {n} samples leaves fewer than ten samples beyond it")
    ordered = np.sort(np.asarray(samples, dtype=float))
    return float(ordered[max(1, math.ceil(p / 100.0 * n)) - 1])


def check_backend_parity(gate: Gate, seed: int) -> None:
    """Object and compact rings built from one seed give identical estimates."""
    from repro.core.estimator import DistributionFreeEstimator
    from repro.data.workload import build_dataset
    from repro.ring.network import RingNetwork

    dataset = build_dataset("normal", 20_000, seed=seed)
    domain = dataset.distribution.domain.as_tuple()
    rings = (
        RingNetwork.create(2_000, seed=seed + 1, domain=domain),
        RingNetwork.create(2_000, seed=seed + 1, domain=domain, compact=True),
    )
    rings[0].load_data(dataset.values)
    rings[1].load_counts(dataset.values)
    estimator = DistributionFreeEstimator(probes=64)
    for call in range(4):
        obj, compact = (
            estimator.estimate(ring, rng=np.random.default_rng(seed + 100 + call)) for ring in rings
        )
        gate.require(
            np.array_equal(obj.cdf.xs, compact.cdf.xs)
            and np.array_equal(obj.cdf.fs, compact.cdf.fs)
            and (obj.n_items, obj.n_peers, obj.messages, obj.hops)
            == (compact.n_items, compact.n_peers, compact.messages, compact.hops),
            f"backend parity: estimate {call} differs between object and compact rings",
        )
