"""Admission control and per-tenant fair scheduling.

One shared engine serves every tenant, so the queue in front of it is
where multi-tenant isolation is won or lost. Three mechanisms, matching
the tentpole's contract:

- **Bounded per-tenant queues** — each tenant owns a small FIFO with an
  explicit depth; a full queue sheds the offer immediately (the caller
  turns that into an explicit ``QueryRejected`` outcome). One tenant
  flooding the service can only ever occupy its own queue.
- **Smooth weighted round-robin dispatch** — workers pick the next
  request with the classic smooth-WRR rule (each eligible tenant's
  credit grows by its weight; the max-credit tenant is picked and pays
  back the total), which interleaves tenants proportionally to weight
  with bounded deviation instead of bursting one tenant's backlog.
- **Per-tenant in-flight caps** — a tenant already occupying its
  allowed number of engine slots is ineligible until one completes, so
  a hot looper cannot monopolize the workers between picks.

All waits are bounded (condition waits with timeouts); the scheduler
never sleeps and never blocks forever.

Fairness is stated on a logical clock, not in seconds: the scheduler
counts its picks, and every pick reports how many *turns* the item
waited — picks of other tenants between its offer and its own pick.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Iterator

from repro.errors import ServiceError


class _TenantState:
    """One tenant's queue and scheduling credit (guarded by the lock)."""

    __slots__ = ("name", "weight", "queue", "inflight", "credit", "picks")

    def __init__(self, name: str, weight: int, queue_depth: int) -> None:
        self.name = name
        self.weight = weight
        # maxlen is a hard backstop; offer() rejects explicitly before
        # ever reaching it, so nothing is silently dropped.
        self.queue: deque = deque(maxlen=queue_depth)
        self.inflight = 0
        self.credit = 0
        self.picks = 0


class FairScheduler:
    """Bounded queues + smooth weighted round-robin + in-flight caps."""

    def __init__(
        self,
        queue_depth: int = 32,
        max_inflight_per_tenant: int = 2,
    ) -> None:
        if queue_depth < 1:
            raise ServiceError("queue_depth must be >= 1")
        if max_inflight_per_tenant < 1:
            raise ServiceError("max_inflight_per_tenant must be >= 1")
        self._queue_depth = queue_depth
        self._max_inflight = max_inflight_per_tenant
        self._lock = threading.Lock()
        self._ready = threading.Condition(self._lock)
        self._tenants: dict[str, _TenantState] = {}
        self._picks = 0  # the logical clock: every pick made, any tenant
        self._closed = False

    # -- tenant management (lock held in callers below) ------------------------
    def _state(self, tenant: str) -> _TenantState:
        state = self._tenants.get(tenant)
        if state is None:
            # Weight 1 until set_weight says otherwise.
            state = _TenantState(tenant, 1, self._queue_depth)
            self._tenants[tenant] = state
        return state

    def set_weight(self, tenant: str, weight: int) -> None:
        """Give ``tenant`` a share proportional to ``weight`` (>= 1)."""
        if weight < 1:
            raise ServiceError("tenant weight must be >= 1")
        with self._lock:
            self._state(tenant).weight = weight

    # -- admission --------------------------------------------------------------
    def offer(self, tenant: str, item: Any) -> bool:
        """Enqueue ``item`` for ``tenant``; False = shed (queue full)."""
        with self._ready:
            if self._closed:
                return False
            state = self._state(tenant)
            if len(state.queue) >= self._queue_depth:
                return False
            # Queued with the other tenants' picks so far; _pick reads
            # the same difference again and reports what was added.
            state.queue.append((item, self._picks - state.picks))
            self._ready.notify()
            return True

    # -- dispatch ----------------------------------------------------------------
    def _eligible(self) -> list[_TenantState]:
        return [
            state
            for state in self._tenants.values()
            if state.queue and state.inflight < self._max_inflight
        ]

    def _pick(self) -> tuple[str, Any, int] | None:
        eligible = self._eligible()
        if not eligible:
            return None
        # Smooth WRR: credit every eligible tenant, pick the richest
        # (name-tie-broken for determinism), who pays back the round.
        total = sum(state.weight for state in eligible)
        for state in eligible:
            state.credit += state.weight
        best = max(eligible, key=lambda state: (state.credit, state.name))
        best.credit -= total
        best.inflight += 1
        item, others_at_offer = best.queue.popleft()
        turns_waited = self._picks - best.picks - others_at_offer
        self._picks += 1
        best.picks += 1
        return best.name, item, turns_waited

    def take(self, timeout: float) -> tuple[str, Any, int] | None:
        """The next ``(tenant, item, turns_waited)``, or None after ``timeout``.

        ``turns_waited`` counts the picks of *other* tenants made since
        the item was offered. The wait is bounded: workers poll this in
        their loop, checking their own stop signal between calls.
        """
        with self._ready:
            picked = self._pick()
            if picked is not None:
                return picked
            if self._closed:
                return None
            self._ready.wait(timeout)
            return self._pick()

    def complete(self, tenant: str) -> None:
        """Release ``tenant``'s in-flight slot (call once per take)."""
        with self._ready:
            state = self._tenants.get(tenant)
            if state is None or state.inflight == 0:
                raise ServiceError(
                    f"complete() without a matching take() for {tenant!r}"
                )
            state.inflight -= 1
            self._ready.notify()

    # -- observability / shutdown ------------------------------------------------
    def queue_depths(self) -> dict[str, int]:
        with self._lock:
            return {
                name: len(state.queue)
                for name, state in sorted(self._tenants.items())
            }

    def backlog(self) -> int:
        with self._lock:
            return sum(len(state.queue) for state in self._tenants.values())

    def close(self) -> None:
        """Stop admitting; wake every waiting worker."""
        with self._ready:
            self._closed = True
            self._ready.notify_all()

    def drain(self) -> Iterator[tuple[str, Any]]:
        """Remove and yield every queued item (after close)."""
        with self._lock:
            leftovers: list[tuple[str, Any]] = []
            for name, state in sorted(self._tenants.items()):
                while state.queue:
                    leftovers.append((name, state.queue.popleft()[0]))
        return iter(leftovers)
