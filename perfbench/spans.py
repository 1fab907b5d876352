"""Span recorder for the traced benchmark run.

A span is one call into a layer's public function: its layer name, start,
end and the span that was open when it began (its parent).  Spans live in
flat in-memory columns while the workload runs and are written once, at
exit, by :meth:`SpanRecorder.write`.

Wrapping is done from the benchmark side only: :class:`Instrumentation`
replaces a function under the exact name its caller looks it up by (a
module attribute such as ``repro.core.estimator.assemble_cdf_interpolated``
or a class attribute such as ``CompactRing.route_batch``) and puts the
original back on :meth:`Instrumentation.uninstall`.  Without a recorder
it records no spans and only calls each hook's observer, which is how the
correctness gate logs calls.  The program itself is never edited.
"""

from __future__ import annotations

import importlib
import time
from array import array
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

__all__ = ["SpanRecorder", "Instrumentation", "Hook", "self_times"]

#: Called as ``observe(recorder, args, kwargs, result, token)`` after a
#: wrapped call returns, to add layer counters (probes routed, rows
#: replied, ...); ``token`` is what ``before(args, kwargs)`` returned when
#: the call began, or ``None``.  ``recorder`` is ``None`` under a span-less
#: :class:`Instrumentation`.
Observer = Callable[[Optional["SpanRecorder"], tuple, dict, Any, Any], None]
Before = Callable[[tuple, dict], Any]


class SpanRecorder:
    """In-memory span columns plus named counters.

    ``active`` gates recording without touching the wrappers, so untimed
    checks the benchmark makes between operations leave no spans.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self.parent_col = array("i")
        self.counters: dict[str, float] = {}
        self.active = True
        self._stack: list[int] = []

    def _name_id(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = len(self.names)
            self._name_ids[name] = ident
            self.names.append(name)
        return ident

    def count(self, name: str, amount: float = 1.0) -> None:
        """Add ``amount`` to the counter ``name``."""
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        observe: Optional[Observer] = None,
        before: Optional[Before] = None,
    ) -> Callable[..., Any]:
        """``fn`` recording one span named ``name`` per call while active."""
        name_id = self._name_id(name)
        clock = time.perf_counter
        stack = self._stack

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self.active:
                return fn(*args, **kwargs)
            token = before(args, kwargs) if before is not None else None
            index = len(self.name_col)
            self.name_col.append(name_id)
            self.parent_col.append(stack[-1] if stack else -1)
            self.end_col.append(0.0)
            stack.append(index)
            self.start_col.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end_col[index] = clock()
                stack.pop()
            if observe is not None:
                observe(self, args, kwargs, result, token)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def columns(self) -> dict[str, np.ndarray]:
        """The span columns as arrays (name ids index :attr:`names`)."""
        return {
            "name": np.frombuffer(self.name_col, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start_col, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end_col, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent_col, dtype=np.int32).copy(),
        }

    def write(self, path: str) -> None:
        """Write every span and counter to ``path`` (a NumPy ``.npz``)."""
        cols = self.columns()
        np.savez_compressed(
            path,
            names=np.asarray(self.names, dtype=str),
            counter_names=np.asarray(list(self.counters), dtype=str),
            counter_values=np.asarray(list(self.counters.values()), dtype=float),
            **cols,
        )


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its child spans cover.

    Spans come from one thread, so the children of one span run one after
    another and never overlap; each child is clipped to its parent's
    interval before it is subtracted.
    """
    duration = end - start
    child = np.flatnonzero(parent >= 0)
    owner = parent[child]
    covered = np.minimum(end[child], end[owner]) - np.maximum(start[child], start[owner])
    return duration - np.bincount(owner, weights=np.maximum(covered, 0.0), minlength=duration.size)


@dataclass(frozen=True)
class Hook:
    """One wrapped name: ``owner`` is a module path, or ``module:Class``."""

    layer: str
    owner: str
    attr: str
    observe: Optional[Observer] = None
    before: Optional[Before] = None

    def resolve(self) -> Any:
        module_name, _, class_name = self.owner.partition(":")
        target: Any = importlib.import_module(module_name)
        if class_name:
            target = getattr(target, class_name)
        return target


def observed(fn: Callable[..., Any], observe: Optional[Observer], before: Optional[Before]) -> Callable[..., Any]:
    """``fn`` calling ``observe`` after each call, with no recorder (``None``)."""

    def wrapped(*args: Any, **kwargs: Any) -> Any:
        token = before(args, kwargs) if before is not None else None
        result = fn(*args, **kwargs)
        if observe is not None:
            observe(None, args, kwargs, result, token)
        return result

    wrapped.__wrapped__ = fn  # type: ignore[attr-defined]
    return wrapped


class Instrumentation:
    """Installs a set of :class:`Hook` wrappers and restores the originals.

    With ``recorder=None`` the wrappers record no spans and only call the
    hooks' observers.
    """

    def __init__(self, recorder: Optional[SpanRecorder], hooks: list[Hook]) -> None:
        self.recorder = recorder
        self.hooks = hooks
        self._saved: list[tuple[Any, str, Any]] = []

    def install(self) -> None:
        if self._saved:
            return
        for hook in self.hooks:
            target = hook.resolve()
            original = target.__dict__[hook.attr] if isinstance(target, type) else getattr(target, hook.attr)
            self._saved.append((target, hook.attr, original))
            if self.recorder is None:
                wrapper = observed(original, hook.observe, hook.before)
            else:
                wrapper = self.recorder.wrap(hook.layer, original, hook.observe, hook.before)
            setattr(target, hook.attr, wrapper)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._saved):
            setattr(target, attr, original)
        self._saved.clear()
