"""Deterministic fault injection and fault handling — Section 4's
"Reliable Distributed Execution", made to actually fail.

The happy-path cluster simulation assumes every machine is up and every
response arrives intact. This module supplies the reliability half of
the paper's story: a seeded :class:`FaultPlan` decides — fully
deterministically — which machines are crashed during which query,
which sub-query attempts time out, run slow or arrive corrupted; and
:func:`dispatch_sub_query` is the fault-*handling* engine the cluster
runs every sub-query through:

- **hedged dispatch**: the sub-query goes to the primary and every
  live replica at once; the fastest valid answer wins (stragglers and
  slow-machine episodes are hidden, exactly the paper's scheme).
- **deadlines**: an attempt that exceeds ``deadline_seconds`` (or draws
  an injected timeout fault) is abandoned at the deadline.
- **corruption detection**: responses are sealed with the same CRC32
  tag the PDS2 file format uses (:func:`repro.storage.serde.crc32_tag`
  over the pickled partial); a corrupted response fails verification,
  raises :class:`~repro.errors.ResponseCorruptionError` internally and
  quarantines that replica for the rest of the sub-query.
- **bounded retry with exponential backoff**: when a whole wave fails,
  the dispatcher waits :func:`backoff_delay` (simulated — never a real
  ``time.sleep``) and retries against the surviving, non-quarantined
  replicas, up to ``max_retries`` waves.
  The local process supervisor reuses the same schedule through
  :func:`real_backoff_sleep`, the one place a genuine sleep is
  sanctioned, because its faults are real OS events.
- **graceful degradation**: when every replica is dead or every wave
  fails, the sub-query is reported unserved; the cluster merges
  without that shard and accounts for the missing rows.

Determinism contract: all randomness derives from
``numpy.random.SeedSequence`` keyed by ``(seed, query_index, shard,
machine, attempt)`` (attempt faults) or ``(seed, machine)`` (crash
schedules), so the same ``(query, fault seed)`` pair reproduces the
identical fault schedule, events, counters and simulated latency on
every run, because every draw happens in shard order.
"""

from __future__ import annotations

import pickle
import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.errors import DistributedError, ResponseCorruptionError
from repro.storage.serde import crc32_tag, verify_crc32_tag

#: Fault-event kinds a :class:`FaultEvent` may carry.  The first six
#: are emitted by the simulated cluster dispatch below;
#: ``task-unserved`` is emitted by the local process supervisor
#: (:meth:`repro.core.executor.ProcessExecutor.map_supervised`) when a
#: chunk task is abandoned after its retry budget — the local and
#: distributed fault models share this one vocabulary.
EVENT_KINDS = (
    "crash",
    "slow",
    "timeout",
    "corrupt",
    "retry",
    "shard-unavailable",
    "task-unserved",
)


@dataclass(frozen=True)
class FaultConfig:
    """Knobs of the seeded fault model (all rates are probabilities).

    ``crash_rate`` is the per-machine, per-query probability of going
    down; a crashed machine stays down for a geometric number of
    queries with mean ``mean_downtime_queries``. ``timeout_rate``,
    ``slow_rate`` and ``corruption_rate`` are per-attempt faults:
    a lost response, a ``slow_factor``-times slowdown episode, and a
    bit-flipped response payload respectively.
    """

    seed: int = 0
    crash_rate: float = 0.0
    mean_downtime_queries: float = 2.0
    timeout_rate: float = 0.0
    slow_rate: float = 0.0
    slow_factor: float = 8.0
    corruption_rate: float = 0.0
    deadline_seconds: float | None = 0.5
    max_retries: int = 2
    backoff_base_seconds: float = 0.01
    backoff_multiplier: float = 2.0

    def __post_init__(self) -> None:
        for name in ("crash_rate", "timeout_rate", "slow_rate", "corruption_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise DistributedError(f"{name} must be in [0, 1], got {rate}")
        if self.mean_downtime_queries < 1.0:
            raise DistributedError(
                "mean_downtime_queries must be >= 1 (a crash lasts at "
                f"least the query it hits), got {self.mean_downtime_queries}"
            )
        if self.slow_factor < 1.0:
            raise DistributedError(
                f"slow_factor must be >= 1, got {self.slow_factor}"
            )
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise DistributedError(
                f"deadline_seconds must be > 0, got {self.deadline_seconds}"
            )
        if self.timeout_rate > 0 and self.deadline_seconds is None:
            raise DistributedError(
                "timeout faults need a deadline to be detected; set "
                "deadline_seconds"
            )
        if self.max_retries < 0:
            raise DistributedError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff_base_seconds < 0:
            raise DistributedError(
                f"backoff_base_seconds must be >= 0, got "
                f"{self.backoff_base_seconds}"
            )
        if self.backoff_multiplier < 1.0:
            raise DistributedError(
                f"backoff_multiplier must be >= 1, got "
                f"{self.backoff_multiplier}"
            )


#: The no-faults configuration the cluster uses when none is given.
#: ``deadline_seconds=None`` keeps legacy behaviour bit-identical: the
#: fault layer is inert, honest stragglers are never killed.
NO_FAULTS = FaultConfig(deadline_seconds=None)


@dataclass(frozen=True)
class FaultEvent:
    """One injected or handled fault, attributed to a sub-query."""

    kind: str
    query_index: int
    shard_id: int
    machine: int
    attempt: int

    def describe(self) -> str:
        where = f"shard {self.shard_id}"
        if self.machine >= 0:
            where += f" machine {self.machine}"
        return f"q{self.query_index} {self.kind}: {where} wave {self.attempt}"


@dataclass(frozen=True)
class AttemptFaults:
    """The injected faults one (sub-query, machine, wave) attempt draws."""

    timeout: bool = False
    slow: bool = False
    corrupt: bool = False


_NO_ATTEMPT_FAULTS = AttemptFaults()


def backoff_delay(
    retry_index: int, base_seconds: float, multiplier: float
) -> float:
    """Simulated exponential-backoff delay before retry ``retry_index``.

    This is the **sanctioned backoff helper**: the delay is added to
    the simulated clock, never slept for real. Retry 0 waits
    ``base_seconds``, each further retry ``multiplier``× more.
    """
    if retry_index < 0:
        raise DistributedError(
            f"retry_index must be >= 0, got {retry_index}"
        )
    return base_seconds * multiplier**retry_index


def real_backoff_sleep(
    retry_index: int, base_seconds: float, multiplier: float
) -> float:
    """Sleep the exponential-backoff delay for real, and return it.

    The simulated cluster only ever *accounts* for backoff on its
    virtual clock (:func:`backoff_delay`).  Local process supervision
    cannot: the faults it recovers from are genuine OS events — a
    SIGKILLed worker, a wedged pool — and the respawned pool needs real
    wall-clock headroom before the next dispatch wave.  This is the one
    sanctioned real sleep in the tree; call it instead of ``time.sleep``
    anywhere a supervisor must wait out a retry.
    """
    delay = backoff_delay(retry_index, base_seconds, multiplier)
    if delay > 0:
        time.sleep(delay)
    return delay


class FaultPlan:
    """The seeded, deterministic fault schedule for one cluster.

    Crash/recover schedules are lazy per-machine streams from a
    dedicated RNG (same seed ⇒ same schedule, however queries
    interleave); per-attempt faults are stateless draws keyed by
    ``(seed, query_index, shard, machine, attempt)`` so dispatch order
    cannot perturb them.
    """

    def __init__(self, config: FaultConfig, n_machines: int) -> None:
        if n_machines < 1:
            raise DistributedError("fault plan needs at least one machine")
        self.config = config
        self.n_machines = n_machines
        self._schedules: list[list[bool]] = [[] for __ in range(n_machines)]
        self._schedule_rngs = [
            np.random.default_rng(np.random.SeedSequence((config.seed, 7, m)))
            for m in range(n_machines)
        ]

    @property
    def active(self) -> bool:
        """False when the plan can never inject anything."""
        cfg = self.config
        return (
            cfg.crash_rate > 0
            or cfg.timeout_rate > 0
            or cfg.slow_rate > 0
            or cfg.corruption_rate > 0
            or cfg.deadline_seconds is not None
        )

    # -- crash schedule ------------------------------------------------------
    def is_down(self, machine: int, query_index: int) -> bool:
        """True when ``machine`` is crashed during query ``query_index``."""
        if self.config.crash_rate == 0.0:
            return False
        schedule = self._schedules[machine]
        rng = self._schedule_rngs[machine]
        while len(schedule) <= query_index:
            was_down = schedule[-1] if schedule else False
            if was_down:
                recovers = rng.random() < 1.0 / self.config.mean_downtime_queries
                schedule.append(not recovers)
            else:
                schedule.append(rng.random() < self.config.crash_rate)
        return schedule[query_index]

    def down_machines(self, query_index: int) -> list[int]:
        """Machines crashed during ``query_index`` (ascending)."""
        return [
            m for m in range(self.n_machines) if self.is_down(m, query_index)
        ]

    # -- per-attempt faults --------------------------------------------------
    def attempt_faults(
        self, query_index: int, shard_id: int, machine: int, attempt: int
    ) -> AttemptFaults:
        """The injected faults for one dispatch attempt (stateless)."""
        cfg = self.config
        if (
            cfg.timeout_rate == 0.0
            and cfg.slow_rate == 0.0
            and cfg.corruption_rate == 0.0
        ):
            return _NO_ATTEMPT_FAULTS
        rng = np.random.default_rng(
            np.random.SeedSequence(
                (cfg.seed, 11, query_index, shard_id, machine, attempt)
            )
        )
        draws = rng.random(3)
        return AttemptFaults(
            timeout=bool(draws[0] < cfg.timeout_rate),
            slow=bool(draws[1] < cfg.slow_rate),
            corrupt=bool(draws[2] < cfg.corruption_rate),
        )

    # -- response integrity --------------------------------------------------
    def verify_response(
        self,
        query_index: int,
        shard_id: int,
        machine: int,
        attempt: int,
        response: object,
        corrupt: bool,
    ) -> None:
        """CRC-check one sub-query response, corrupting it when injected.

        The response is sealed exactly like a PDS2 store body: the
        pickled partial plus its :func:`~repro.storage.serde.crc32_tag`.
        An injected corruption fault flips one deterministic bit of the
        payload in flight; verification then fails (CRC32 detects every
        single-bit flip) and :class:`ResponseCorruptionError` is raised
        so the dispatcher quarantines this replica and fails over.
        """
        if self.config.corruption_rate == 0.0:
            return
        payload = pickle.dumps(response, protocol=pickle.HIGHEST_PROTOCOL)
        tag = crc32_tag(payload)
        if corrupt:
            rng = np.random.default_rng(
                np.random.SeedSequence(
                    (self.config.seed, 13, query_index, shard_id, machine, attempt)
                )
            )
            payload = flip_bit(payload, int(rng.integers(len(payload) * 8)))
        if not verify_crc32_tag(tag, payload):
            raise ResponseCorruptionError(
                f"sub-query response for shard {shard_id} from machine "
                f"{machine} failed its checksum (query {query_index}, "
                f"wave {attempt}); quarantining the replica"
            )


def flip_bit(payload: bytes, bit_index: int) -> bytes:
    """Return ``payload`` with one bit flipped (the corruption fault)."""
    if not payload:
        raise DistributedError("cannot corrupt an empty payload")
    byte_index, bit = divmod(bit_index % (len(payload) * 8), 8)
    corrupted = bytearray(payload)
    corrupted[byte_index] ^= 1 << bit
    return bytes(corrupted)


# -- the dispatch engine --------------------------------------------------------


@dataclass
class DispatchOutcome:
    """What happened to one sub-query under the fault plan."""

    shard_id: int
    served: bool
    seconds: float
    winner: int | None = None
    replica_win: bool = False
    failover: bool = False
    retries: int = 0
    timeouts: int = 0
    quarantines: int = 0
    crashes: int = 0
    backoff_seconds: float = 0.0
    disk_bytes: int = 0
    events: list[FaultEvent] = field(default_factory=list)


def dispatch_sub_query(
    plan: FaultPlan,
    query_index: int,
    shard_id: int,
    replicas: list[int],
    attempt_cost: Callable[[int], tuple[float, int]],
    response: object = None,
) -> DispatchOutcome:
    """Run one sub-query through hedging, deadlines, retries, failover.

    ``replicas`` lists the machines holding the shard, primary first.
    ``attempt_cost(machine)`` returns the simulated ``(seconds,
    disk_bytes)`` one machine's attempt costs (the caller's cost model);
    it is called once per attempted machine per wave, in placement
    order, on the calling thread — which is what keeps the simulation
    deterministic. The callback must be *pure*: it reports costs
    through its return value, never by mutating captured state — the
    dispatcher accumulates the bytes of every attempt into
    ``DispatchOutcome.disk_bytes`` for the caller to fold into its
    metrics.

    Wave semantics: wave 0 is the hedged dispatch to every live
    replica at simulated time 0. If no attempt of a wave succeeds, the
    dispatcher learns of the failure at the slowest failure-detection
    time, backs off exponentially, and retries the surviving,
    non-quarantined replicas — up to ``max_retries`` extra waves. The
    sub-query is served at the earliest valid response of the first
    successful wave; otherwise it is unserved and ``seconds`` is the
    time wasted discovering that.
    """
    cfg = plan.config
    outcome = DispatchOutcome(shard_id=shard_id, served=False, seconds=0.0)
    live = []
    for machine in replicas:
        if plan.is_down(machine, query_index):
            outcome.crashes += 1
            outcome.events.append(
                FaultEvent("crash", query_index, shard_id, machine, 0)
            )
        else:
            live.append(machine)
    quarantined: set[int] = set()
    wave_start = 0.0
    wave = 0
    primary = replicas[0] if replicas else None
    while True:
        candidates = [m for m in live if m not in quarantined]
        if not candidates:
            break
        successes: list[tuple[float, int]] = []
        failures: list[float] = []
        for machine in candidates:
            seconds, attempt_disk_bytes = attempt_cost(machine)
            outcome.disk_bytes += attempt_disk_bytes
            faults = plan.attempt_faults(query_index, shard_id, machine, wave)
            if faults.slow:
                seconds *= cfg.slow_factor
                outcome.events.append(
                    FaultEvent("slow", query_index, shard_id, machine, wave)
                )
            deadline = cfg.deadline_seconds
            if faults.timeout or (deadline is not None and seconds > deadline):
                # An injected timeout loses the response outright; an
                # honest overrun is abandoned when the deadline fires.
                outcome.timeouts += 1
                outcome.events.append(
                    FaultEvent("timeout", query_index, shard_id, machine, wave)
                )
                failures.append(deadline if deadline is not None else seconds)
                continue
            try:
                plan.verify_response(
                    query_index, shard_id, machine, wave, response,
                    corrupt=faults.corrupt,
                )
            except ResponseCorruptionError:
                quarantined.add(machine)
                outcome.quarantines += 1
                outcome.events.append(
                    FaultEvent("corrupt", query_index, shard_id, machine, wave)
                )
                failures.append(seconds)
                continue
            successes.append((seconds, machine))
        if successes:
            best_seconds, winner = min(successes, key=lambda pair: pair[0])
            outcome.served = True
            outcome.seconds = wave_start + best_seconds
            outcome.winner = winner
            outcome.replica_win = winner != primary
            outcome.failover = all(m != primary for __, m in successes)
            return outcome
        wave_end = wave_start + (max(failures) if failures else 0.0)
        if wave >= cfg.max_retries:
            wave_start = wave_end
            break
        delay = backoff_delay(
            wave, cfg.backoff_base_seconds, cfg.backoff_multiplier
        )
        outcome.backoff_seconds += delay
        outcome.retries += 1
        outcome.events.append(
            FaultEvent("retry", query_index, shard_id, -1, wave + 1)
        )
        wave_start = wave_end + delay
        wave += 1
    outcome.seconds = wave_start
    outcome.events.append(
        FaultEvent("shard-unavailable", query_index, shard_id, -1, wave)
    )
    return outcome
