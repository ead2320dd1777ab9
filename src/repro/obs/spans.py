"""Timed regions: where does the wall-clock go, and in which stage?

A *span* is a nestable timed region; the harness wraps each pipeline
stage in one (``trace``, ``profile``, ``select``, ``compile.<pass>``,
``simulate``) and the execution engine wraps each job in ``cell``.
Spans form a tree: entering ``span("simulate")`` inside
``span("cell")`` records under the path ``("cell", "simulate")``.
Each path accumulates

- ``seconds`` — cumulative wall-clock (the span and everything below);
- ``self_seconds`` — cumulative minus the children's cumulative, i.e.
  the time spent *in this region itself*;
- ``events`` — an optional throughput count (instructions, rows, ...);
- ``calls`` — how many times the path was entered.

:meth:`SpanTree.by_name` is the per-stage view the run manifest
(``phases``) reports: totals per span name that count only the
outermost occurrence of a name on each path, so nothing is counted
twice.  Closing a span builds one :class:`~repro.obs.events.SpanEnd`:
the tracer emits it when tracing is on, and an active distributed
:class:`~repro.obs.tracectx.TraceContext` spools the same record with
its trace identity, so ``trace-report`` and ``trace show`` read one
format.  Snapshots (:meth:`SpanTree.as_dict`) merge across ``--jobs N``
workers in plan order exactly like metrics snapshots do.

The stack of open spans is per thread, so the serve daemon's request
threads can share one tree.

Usage::

    with span("simulate", events=len(trace)) as sp:
        with span("fetch"):
            ...
        sp.events = stats.retired_instructions
"""

import threading
import time
from contextlib import contextmanager

#: Separator used in snapshot keys ("simulate/fetch") and SpanEnd paths.
PATH_SEP = "/"


class SpanHandle:
    """Mutable box the ``with span(...)`` body fills in."""

    __slots__ = ("name", "events", "child_seconds")

    def __init__(self, name, events=0):
        self.name = name
        self.events = events
        self.child_seconds = 0.0


class SpanTree:
    """Accumulated wall-clock per span path (tuple of names from root)."""

    __slots__ = ("_entries", "_local")

    def __init__(self):
        self._entries = {}
        self._local = threading.local()

    def _stack(self):
        """This thread's stack of open :class:`SpanHandle` objects."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, path, seconds, self_seconds=None, events=0, calls=1):
        """Fold one completed span (or a merged aggregate) into ``path``.

        ``self_seconds`` defaults to ``seconds`` (a span without
        children).
        """
        path = tuple(path)
        entry = self._entries.get(path)
        if entry is None:
            entry = self._entries[path] = {
                "seconds": 0.0, "self_seconds": 0.0,
                "events": 0, "calls": 0,
            }
        entry["seconds"] += seconds
        entry["self_seconds"] += (
            seconds if self_seconds is None else self_seconds
        )
        entry["events"] += events
        entry["calls"] += calls
        return entry

    def __len__(self):
        return len(self._entries)

    def __contains__(self, path):
        return tuple(path) in self._entries

    def get(self, path):
        """The mutable entry dict for ``path``, or None."""
        return self._entries.get(tuple(path))

    def seconds(self, path):
        entry = self._entries.get(tuple(path))
        return entry["seconds"] if entry else 0.0

    def self_seconds(self, path):
        entry = self._entries.get(tuple(path))
        return entry["self_seconds"] if entry else 0.0

    def paths(self):
        """All recorded paths, sorted (parents before children)."""
        return sorted(self._entries)

    def current_path(self):
        """The path of the spans open on this thread."""
        return tuple(handle.name for handle in self._stack())

    def as_dict(self):
        """JSON-ready snapshot keyed by ``"/"``-joined path."""
        return {
            PATH_SEP.join(path): dict(self._entries[path])
            for path in sorted(self._entries)
        }

    def merge_snapshot(self, snapshot):
        """Fold another tree's :meth:`as_dict` snapshot into this one.

        Per-path addition, applied in the snapshot's own order — the
        parallel engine calls this once per worker payload in plan
        order, so parallel runs aggregate deterministically (sums per
        path; ``seconds`` are total CPU-seconds across workers).
        """
        for key, entry in snapshot.items():
            self.record(
                tuple(key.split(PATH_SEP)),
                entry["seconds"],
                entry["self_seconds"],
                entry["events"],
                entry["calls"],
            )
        return self

    def by_name(self):
        """Per-name totals, JSON-ready and sorted by name.

        A path counts towards its last name only when that name does
        not also appear higher up the path, so a region nested inside
        itself is not counted twice.  ``events_per_sec`` is derived.
        """
        totals = {}
        for path, entry in self._entries.items():
            name = path[-1]
            if name in path[:-1]:
                continue
            total = totals.setdefault(
                name, {"seconds": 0.0, "events": 0, "calls": 0}
            )
            total["seconds"] += entry["seconds"]
            total["events"] += entry["events"]
            total["calls"] += entry["calls"]
        for total in totals.values():
            total["events_per_sec"] = (
                total["events"] / total["seconds"]
                if total["seconds"] > 0 and total["events"] else 0.0
            )
        return dict(sorted(totals.items()))

    def report(self):
        """Human-readable indented tree, one line per path."""
        paths = self.paths()
        if not paths:
            return "no spans recorded"
        width = max(len("  " * (len(p) - 1) + p[-1]) for p in paths)
        lines = ["span timings:"]
        for path in paths:
            entry = self._entries[path]
            label = "  " * (len(path) - 1) + path[-1]
            line = (
                f"  {label.ljust(width)}  {entry['seconds']:8.3f}s"
                f"  (self {entry['self_seconds']:8.3f}s)"
                f"  x{entry['calls']}"
            )
            if entry["events"]:
                line += f"  {entry['events']} events"
            lines.append(line)
        return "\n".join(lines)


@contextmanager
def span(name, events=0, tree=None, tracer=None, attrs=None):
    """Time one nested region; see the module docstring for the contract.

    ``tree``/``tracer`` default to the active telemetry context.  The
    span stack unwinds correctly when the body raises: the handle is
    popped and the elapsed time recorded either way.

    When a distributed :class:`~repro.obs.tracectx.TraceContext` is
    active on this thread, the span also gets a trace-wide span id and
    its record is appended to the per-process spool on close; ``attrs``
    ride along on that record only.
    """
    from repro.obs import context, tracectx

    tree = tree if tree is not None else context.get_spans()
    tracer = tracer if tracer is not None else context.get_tracer()

    handle = SpanHandle(name, events)
    stack = tree._stack()
    path = tuple(h.name for h in stack) + (name,)
    stack.append(handle)
    ctx = tracectx.current()
    if ctx is not None:
        span_id, parent_id = ctx.enter_span()
        start_ts = time.time()
    start = time.perf_counter()
    try:
        yield handle
    finally:
        elapsed = time.perf_counter() - start
        stack.pop()
        self_seconds = max(elapsed - handle.child_seconds, 0.0)
        if stack:
            stack[-1].child_seconds += elapsed
        tree.record(path, elapsed, self_seconds, handle.events)
        if tracer.enabled or ctx is not None:
            from repro.obs.events import SpanEnd

            end = SpanEnd(
                name=name,
                path=PATH_SEP.join(path),
                depth=len(path),
                seconds=elapsed,
                self_seconds=self_seconds,
                events=handle.events,
            )
            if tracer.enabled:
                tracer.emit(end)
            if ctx is not None:
                ctx.exit_span(span_id, parent_id, end, start_ts, attrs)
