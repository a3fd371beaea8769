"""Span tracing from outside the program.

A traced run wraps the public entry points of each layer — by patching
the name in the namespace that calls it, never by editing ``src/`` —
and records one span per call: ``(id, name, start, end, parent, op)``.
Spans stay in memory and are written as JSON lines when the run ends.
A span's *self time* is its duration minus the part of that interval
its child spans cover, so a layer is charged only for the time it did
not hand to a layer below.

Spans of one op (one click, one pass, one import cycle) share its op
id. On the service's dispatch threads a span has no caller on its own
stack; ``FairScheduler.take`` hands the thread a request, and the
request's session names the click in flight, so the wrapper around
``take`` pins that op on the thread until the next ``take``.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

#: One closed span: (id, name, start, end, parent id or None, op id or None).
Span = tuple[int, str, float, float, "int | None", Any]


@dataclass
class Aggregate:
    """Every span of one name, summed."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: list[float] = field(default_factory=list)


@dataclass
class Tally:
    """Calls too frequent to keep as spans: a count, a time, outcomes."""

    calls: int = 0
    seconds: float = 0.0
    outcomes: Counter = field(default_factory=Counter)


class Tracer:
    """Records spans while ``enabled``; costs one attribute test when not."""

    def __init__(self) -> None:
        self.enabled = False
        self.epoch = time.perf_counter()
        self.spans: list[Span] = []
        self.tallies: dict[str, Tally] = defaultdict(Tally)
        #: session -> op id of the click that session has in flight.
        self.session_ops: dict[Any, Any] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._op_roots: dict[Any, int] = {}
        self._patched: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------
    def _open(self, op_id: Any) -> tuple[int, "int | None", Any, list]:
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
        if stack:
            parent, inherited = stack[-1]
        else:
            inherited = getattr(local, "op", None)
            parent = self._op_roots.get(inherited)
        if op_id is None:
            op_id = inherited
        span_id = next(self._ids)
        stack.append((span_id, op_id))
        return span_id, parent, op_id, stack

    @contextlib.contextmanager
    def span(self, name: str, op_id: Any = None) -> Iterator[None]:
        """Record the enclosed block; ``op_id`` starts a new op."""
        if not self.enabled:
            yield
            return
        span_id, parent, op_id, stack = self._open(op_id)
        if parent is None and op_id is not None:
            self._op_roots[op_id] = span_id
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent, op_id))

    # -- patching ----------------------------------------------------------
    def patch(
        self,
        owner: Any,
        attr: str,
        name: str,
        op_of_result: "Callable[[Any], Any] | None" = None,
    ) -> None:
        """Replace ``owner.attr`` with a wrapper that records a span.

        ``op_of_result`` maps the call's return value to the op the
        calling thread works on from here on (see the module docstring).
        """
        original = getattr(owner, attr)
        spans = self.spans
        local = self._local

        def traced(*args: Any, **kwargs: Any) -> Any:
            span_id, parent, op_id, stack = self._open(None)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((span_id, name, start, end, parent, op_id))
            if op_of_result is not None:
                local.op = op_of_result(result)
            return result

        self._install(owner, attr, original, traced)

    def patch_tally(
        self, owner: Any, attr: str, name: str, outcome: Callable[[Any], Any]
    ) -> None:
        """Replace ``owner.attr`` with a wrapper that only counts and times.

        The increments are not atomic: with concurrent callers a count
        can lose an update, so exact counts hold single-threaded only.
        """
        original = getattr(owner, attr)
        tally = self.tallies[name]

        def tallied(*args: Any, **kwargs: Any) -> Any:
            start = time.perf_counter()
            result = original(*args, **kwargs)
            tally.seconds += time.perf_counter() - start
            tally.calls += 1
            tally.outcomes[outcome(result)] += 1
            return result

        self._install(owner, attr, original, tallied)

    def _install(self, owner: Any, attr: str, original: Any, wrapper: Any) -> None:
        wrapper.__wrapped__ = original
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def unpatch_all(self) -> None:
        """Restore every patched name, last patched first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------
    def self_seconds(self) -> dict[int, float]:
        """Span id -> duration minus the union of its children's intervals."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        bounds: dict[int, tuple[float, float]] = {}
        for span_id, __, start, end, parent, ___ in self.spans:
            bounds[span_id] = (start, end)
            if parent is not None:
                children[parent].append((start, end))
        result: dict[int, float] = {}
        for span_id, (start, end) in bounds.items():
            covered = 0.0
            cursor = start
            for child_start, child_end in sorted(children.get(span_id, ())):
                child_start = max(child_start, cursor)
                child_end = min(child_end, end)
                if child_end > child_start:
                    covered += child_end - child_start
                    cursor = child_end
            result[span_id] = (end - start) - covered
        return result

    def aggregate(self, op_ids: "set[Any] | None" = None) -> dict[str, Aggregate]:
        """Span name -> totals, over the spans of ``op_ids`` (None: all)."""
        self_seconds = self.self_seconds()
        out: dict[str, Aggregate] = defaultdict(Aggregate)
        for span_id, name, start, end, __, op_id in self.spans:
            if op_ids is not None and op_id not in op_ids:
                continue
            agg = out[name]
            agg.calls += 1
            agg.total_s += end - start
            agg.self_s += self_seconds[span_id]
            agg.durations.append(end - start)
        return out

    def write(self, path: str) -> None:
        """Dump every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, op_id in self.spans:
                record = {
                    "id": span_id,
                    "name": name,
                    "start": start - self.epoch,
                    "end": end - self.epoch,
                    "parent": parent,
                    "op": op_id,
                }
                handle.write(json.dumps(record) + "\n")


def install_layer_patches(tracer: Tracer) -> None:
    """Wrap the public entry points the program calls on its own.

    Entry points the benchmark calls itself (import, save, load, …) are
    wrapped at their call sites with :meth:`Tracer.span` instead.
    """
    from repro.core import datastore as datastore_module
    from repro.core.datastore import DataStore
    from repro.core.executor import ExecutionStrategy, ProcessExecutor
    from repro.core.restriction import Restriction
    from repro.service import cache as cache_module
    from repro.service import scheduler as scheduler_module
    from repro.service import service as service_module

    for module in (datastore_module, service_module):
        tracer.patch(module, "parse_query", "sql.parse")
    tracer.patch(datastore_module, "resolve_group_aliases", "plan.resolve")
    tracer.patch(datastore_module, "plan_group_query", "plan.group")
    tracer.patch(service_module, "query_fingerprint", "plan.fingerprint")
    tracer.patch(service_module, "where_conjuncts", "plan.fingerprint")
    tracer.patch(datastore_module, "compile_restriction", "restriction.compile")
    tracer.patch_tally(
        Restriction, "decide", "restriction.decide",
        lambda decision: decision.status.name,
    )
    tracer.patch(DataStore, "execute", "datastore.execute")
    tracer.patch(datastore_module, "finalize", "datastore.finalize")
    tracer.patch(DataStore, "ensure_arena", "arena.build")
    tracer.patch(ExecutionStrategy, "map_supervised", "executor.map")
    tracer.patch(ProcessExecutor, "map_supervised", "executor.map")
    tracer.patch(service_module.QueryService, "submit", "service.submit")
    tracer.patch(scheduler_module.FairScheduler, "offer", "scheduler.offer")
    tracer.patch(
        scheduler_module.FairScheduler, "take", "scheduler.take",
        op_of_result=lambda picked: (
            None
            if picked is None
            else tracer.session_ops.get(getattr(picked[1], "session", None))
        ),
    )
    tracer.patch(cache_module.SemanticResultCache, "lookup", "result_cache.lookup")
    # How many chunks a subsumption footprint leaves to look at.
    tracer.patch_tally(
        cache_module.SemanticResultCache, "lookup", "result_cache.footprint",
        lambda found: None if found[1] is None else len(found[1]),
    )
    tracer.patch(cache_module.SemanticResultCache, "admit", "result_cache.admit")
