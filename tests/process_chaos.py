"""Deterministic *real* fault injection for the process executor.

``repro.distributed.faults.FaultPlan`` injects software-simulated
faults into the simulated cluster; this module is its local,
**genuinely destructive** counterpart. A seeded :class:`ChaosPlan`
decides which chunk tasks draw which worker fault, and
:class:`ChaosTask` fires them from inside the pool worker that picked
the task up:

- ``kill``  — ``os.kill(os.getpid(), SIGKILL)``: the hard death the
  OOM killer delivers; the pool breaks mid-batch.
- ``exit``  — ``os._exit(3)``: an abrupt clean-looking exit that still
  breaks the pool (no atexit, no cleanup, like a crashed native ext).
- ``hang``  — a real blocking sleep longer than any sane deadline; the
  supervisor must time the task out and kill the pool.

Determinism across retries: a *transient* fault fires exactly once per
task key, armed through an ``O_CREAT | O_EXCL`` sentinel file in a
caller-owned flag directory — whichever worker draws the task first
takes the fault, the re-dispatched attempt finds the sentinel and
computes normally, so a recovered run is bit-identical to a fault-free
one. *Persistent* faults skip the sentinel and fire on every attempt,
driving the retry budget to exhaustion (the degraded-coverage path).

Tasks run only under a multi-worker process executor: under inline
execution the fault would hit the caller's own process.
"""

from __future__ import annotations

import os
import re
import signal
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.core.executor import ExecutionStrategy, MapOutcome
from repro.errors import ExecutionError

#: The injectable worker-fault kinds.
CHAOS_KINDS = ("kill", "hang", "exit")


def task_key(item: Any) -> Any:
    """The plan key for one mapped item.

    A scan run (``repro.core.datastore.Run``) keys by its chunk indices,
    a tuple with one plan key per chunk; cluster shard items key by
    ``shard_id``; anything else keys by its string form.
    """
    chunks = getattr(item, "chunks", None)
    if chunks is not None:
        return tuple(chunks)
    shard_id = getattr(item, "shard_id", None)
    if shard_id is not None:
        return shard_id
    return str(item)


@dataclass(frozen=True)
class ChaosPlan:
    """A seeded map of task key → injected worker fault.

    ``faults`` pairs each targeted key with a kind from
    :data:`CHAOS_KINDS`; keys in ``persistent`` re-fire on every
    attempt (everything else is one-shot). ``hang_seconds`` is how long
    a hung worker blocks — choose it well past the task deadline under
    test, since a hang shorter than the deadline is just a slow task.
    """

    faults: tuple[tuple[Any, str], ...] = ()
    persistent: tuple[Any, ...] = ()
    hang_seconds: float = 30.0

    def __post_init__(self) -> None:
        for key, kind in self.faults:
            if kind not in CHAOS_KINDS:
                raise ExecutionError(
                    f"unknown chaos kind {kind!r} for task {key!r}; "
                    f"choose from {CHAOS_KINDS}"
                )
        planned = {key for key, __ in self.faults}
        stray = [key for key in self.persistent if key not in planned]
        if stray:
            raise ExecutionError(
                f"persistent keys {stray!r} have no planned fault"
            )
        if self.hang_seconds <= 0:
            raise ExecutionError(
                f"hang_seconds must be > 0, got {self.hang_seconds}"
            )

    def fault_for(self, key: Any) -> str | None:
        for planned_key, kind in self.faults:
            if planned_key == key:
                return kind
        return None

    @classmethod
    def seeded(
        cls,
        seed: int,
        keys: Sequence[Any],
        kill_rate: float = 0.0,
        hang_rate: float = 0.0,
        exit_rate: float = 0.0,
        persistent_rate: float = 0.0,
        hang_seconds: float = 30.0,
    ) -> "ChaosPlan":
        """Draw a deterministic plan over ``keys`` from ``seed``.

        Each key independently draws at most one fault (the rates are
        cumulative-disjoint, so they must sum to <= 1); each *faulted*
        key then independently draws persistence. Same seed and keys ⇒
        same plan, on every platform — the chaos analogue of the
        simulated cluster's ``FaultPlan`` determinism contract.
        """
        for name, rate in (
            ("kill_rate", kill_rate),
            ("hang_rate", hang_rate),
            ("exit_rate", exit_rate),
            ("persistent_rate", persistent_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise ExecutionError(
                    f"{name} must be in [0, 1], got {rate}"
                )
        if kill_rate + hang_rate + exit_rate > 1.0 + 1e-12:
            raise ExecutionError(
                "kill_rate + hang_rate + exit_rate must be <= 1, got "
                f"{kill_rate + hang_rate + exit_rate}"
            )
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC4A05]))
        faults: list[tuple[Any, str]] = []
        persistent: list[Any] = []
        for key in keys:
            draw = float(rng.random())
            if draw < kill_rate:
                kind = "kill"
            elif draw < kill_rate + hang_rate:
                kind = "hang"
            elif draw < kill_rate + hang_rate + exit_rate:
                kind = "exit"
            else:
                rng.random()  # keep the persistence stream aligned
                continue
            faults.append((key, kind))
            if float(rng.random()) < persistent_rate:
                persistent.append(key)
        return cls(
            faults=tuple(faults),
            persistent=tuple(persistent),
            hang_seconds=hang_seconds,
        )


def _flag_name(key: Any) -> str:
    return "fault_" + re.sub(r"[^A-Za-z0-9_.-]", "_", repr(key))


def _inject(kind: str, hang_seconds: float) -> None:
    """Fire one fault inside the current (worker) process."""
    if kind == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    elif kind == "exit":
        os._exit(3)
    elif kind == "hang":
        # The injected fault must genuinely block the worker — that is
        # the scenario under test, not a retry delay.
        time.sleep(hang_seconds)


class ChaosTask:
    """Picklable wrapper that injects planned faults, then delegates.

    Wraps the real task callable; each invocation looks its item's
    :func:`task_key` up in the plan — every chunk of a run — and, when
    a planned fault arms (first attempt for transient faults, every
    attempt for persistent ones), fires it inside the worker before the
    inner callable ever runs. A hung worker therefore holds no partial
    state, and a killed one re-runs the pure task from scratch — the
    at-least-once execution model the supervisor is built for.
    """

    def __init__(
        self,
        inner: Callable[[Any], Any],
        plan: ChaosPlan,
        flag_dir: str,
    ) -> None:
        self.inner = inner
        self.plan = plan
        self.flag_dir = flag_dir

    def _arm(self, key: Any) -> bool:
        if key in self.plan.persistent:
            return True
        path = os.path.join(self.flag_dir, _flag_name(key))
        try:
            descriptor = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False  # already fired on an earlier attempt
        os.close(descriptor)
        return True

    def __call__(self, item: Any) -> Any:
        key = task_key(item)
        for planned_key in key if isinstance(key, tuple) else (key,):
            kind = self.plan.fault_for(planned_key)
            if kind is not None and self._arm(planned_key):
                _inject(kind, self.plan.hang_seconds)
        return self.inner(item)


class ChaosExecutor(ExecutionStrategy):
    """Decorator executor: every submitted callable gets the chaos plan.

    Drop-in over a (usually process) strategy::

        store.executor = ChaosExecutor(store.executor, plan, flag_dir)

    so real queries exercise the supervisor without the engine knowing
    chaos exists. ``flag_dir`` must be an existing caller-owned
    directory (one per plan run) — the one-shot sentinels live there.
    """

    name = "chaos"

    def __init__(
        self,
        inner: ExecutionStrategy,
        plan: ChaosPlan,
        flag_dir: str,
    ) -> None:
        if not os.path.isdir(flag_dir):
            raise ExecutionError(
                f"chaos flag_dir {flag_dir!r} is not a directory"
            )
        self.inner = inner
        self.plan = plan
        self.flag_dir = flag_dir

    @property
    def wants_picklable_tasks(self) -> bool:  # type: ignore[override]
        return self.inner.wants_picklable_tasks

    @property
    def workers(self) -> int:  # type: ignore[override]
        return self.inner.workers

    @property
    def last_outcome(self) -> MapOutcome | None:
        return getattr(self.inner, "last_outcome", None)

    def _wrap(self, fn: Callable[[Any], Any]) -> ChaosTask:
        return ChaosTask(fn, self.plan, self.flag_dir)

    def map_ordered(
        self, fn: Callable[[Any], Any], items: Sequence[Any]
    ) -> list[Any]:
        return self.inner.map_ordered(self._wrap(fn), items)

    def map_supervised(
        self, fn: Callable[[Any], Any], items: Sequence[Any]
    ) -> MapOutcome:
        return self.inner.map_supervised(self._wrap(fn), items)

    def track_arena(self, arena: Any) -> None:
        self.inner.track_arena(arena)

    def close(self) -> None:
        self.inner.close()

    def describe(self) -> str:
        return f"chaos({self.inner.describe()})"
