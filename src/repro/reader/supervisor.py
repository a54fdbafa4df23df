"""Supervised reader operations: retry, health monitoring, failover.

The paper gets its reliability from *redundancy* — multiple tags,
antennas, readers. This module adds the dependability machinery that
makes reader-level redundancy work when components actually fail
rather than merely fade:

* :class:`SupervisedReader` — wraps a poll transport with bounded
  retry + exponential backoff, classifies the reader as healthy,
  degraded, or down from consecutive poll outcomes, and records every
  health transition so faults are *observable*, never silent;
* :class:`ReaderFailoverGroup` — a primary plus standbys; every
  non-down member is polled each cycle (session-level redundancy in
  the spirit of Jacobsen et al.'s independent reader sessions) and the
  *active* role — the reader that would receive commands — is promoted
  away from a member that goes down.

All time is the caller's simulation clock: a retry "waits" by polling
at ``now + backoff``, which against a buffered reader is exactly what
a blocking sleep would have produced on real hardware.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from ..sim.events import TagReadEvent
from .wire import PollOrderError, TransportError, WireFormatError, parse_tag_list


class SupervisorError(ValueError):
    """Raised for inconsistent supervisor configuration."""


class ReaderHealth(enum.Enum):
    """Coarse liveness classification of one reader."""

    HEALTHY = "healthy"
    DEGRADED = "degraded"
    DOWN = "down"


@dataclass(frozen=True)
class RetryPolicy:
    """Knobs for one reader's supervision loop."""

    #: Attempts per poll (first try + retries).
    max_attempts: int = 3
    #: Backoff before the first retry; doubles (by default) per retry.
    base_backoff_s: float = 0.05
    backoff_multiplier: float = 2.0
    #: Consecutive failed polls before the reader counts as degraded...
    degraded_after: int = 1
    #: ...and before it counts as down.
    down_after: int = 3

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise SupervisorError(
                f"max_attempts must be >= 1, got {self.max_attempts!r}"
            )
        if self.base_backoff_s < 0.0:
            raise SupervisorError(
                f"base backoff must be >= 0, got {self.base_backoff_s!r}"
            )
        if self.backoff_multiplier < 1.0:
            raise SupervisorError(
                "backoff multiplier must be >= 1, got "
                f"{self.backoff_multiplier!r}"
            )
        if not 1 <= self.degraded_after <= self.down_after:
            raise SupervisorError(
                "need 1 <= degraded_after <= down_after, got "
                f"{self.degraded_after!r} / {self.down_after!r}"
            )

    def backoff_before_attempt(self, attempt: int) -> float:
        """Delay inserted before attempt ``attempt`` (0-based)."""
        if attempt == 0:
            return 0.0
        return self.base_backoff_s * self.backoff_multiplier ** (attempt - 1)


@dataclass(frozen=True)
class HealthTransition:
    """One observable state change of one reader's health."""

    time: float
    reader_id: str
    old: ReaderHealth
    new: ReaderHealth
    reason: str


@dataclass
class PollStats:
    """Counters the supervisor keeps per reader."""

    polls: int = 0
    attempts: int = 0
    retries: int = 0
    failed_polls: int = 0
    malformed_documents: int = 0
    events_delivered: int = 0


class SupervisedReader:
    """Retry/backoff/health wrapper around one reader's poll transport.

    ``transport`` is anything with ``poll(now) -> str`` returning a
    tag-list XML document — a bare
    :class:`~repro.reader.wire.PolledInterface` or a fault-injecting
    :class:`~repro.faults.injectors.FaultyTransport`. Transport errors
    and malformed documents both count as failed attempts; a poll that
    exhausts its attempts returns ``[]`` and advances the health state
    machine instead of raising, because a supervisor's job is to keep
    the application running.
    """

    def __init__(
        self,
        reader_id: str,
        transport,
        policy: Optional[RetryPolicy] = None,
    ) -> None:
        if not reader_id:
            raise SupervisorError("reader_id must be non-empty")
        self.reader_id = reader_id
        self._transport = transport
        self.policy = policy if policy is not None else RetryPolicy()
        self._health = ReaderHealth.HEALTHY
        self._consecutive_failures = 0
        self._clock = float("-inf")
        self.transitions: List[HealthTransition] = []
        self.stats = PollStats()

    @property
    def health(self) -> ReaderHealth:
        return self._health

    def poll(self, now: float) -> List[TagReadEvent]:
        """One supervised poll: retries inside, parsed events out.

        Retries poll at ``now + backoff`` — simulated time advances
        with each attempt, so a buffered reader that recovers during
        the backoff window is caught by the retry, exactly as it would
        be on hardware.
        """
        self.stats.polls += 1
        virtual = max(now, self._clock)
        last_error: Optional[BaseException] = None
        for attempt in range(self.policy.max_attempts):
            virtual += self.policy.backoff_before_attempt(attempt)
            self._clock = virtual
            self.stats.attempts += 1
            if attempt:
                self.stats.retries += 1
            try:
                events = parse_tag_list(self._transport.poll(virtual))
            except WireFormatError as exc:
                self.stats.malformed_documents += 1
                last_error = exc
            except (TransportError, PollOrderError) as exc:
                last_error = exc
            else:
                self._note_success(virtual)
                self.stats.events_delivered += len(events)
                return events
        self.stats.failed_polls += 1
        self._note_failure(virtual, last_error)
        return []

    # -- health state machine ---------------------------------------------

    def _note_success(self, time: float) -> None:
        self._consecutive_failures = 0
        if self._health is not ReaderHealth.HEALTHY:
            self._transition(time, ReaderHealth.HEALTHY, "poll succeeded")

    def _note_failure(
        self, time: float, error: Optional[BaseException]
    ) -> None:
        self._consecutive_failures += 1
        reason = (
            f"{type(error).__name__}: {error}" if error else "poll failed"
        )
        if self._consecutive_failures >= self.policy.down_after:
            target = ReaderHealth.DOWN
        elif self._consecutive_failures >= self.policy.degraded_after:
            target = ReaderHealth.DEGRADED
        else:
            target = self._health
        if target is not self._health:
            self._transition(time, target, reason)

    def _transition(
        self, time: float, new: ReaderHealth, reason: str
    ) -> None:
        transition = HealthTransition(
            time=time,
            reader_id=self.reader_id,
            old=self._health,
            new=new,
            reason=reason,
        )
        self.transitions.append(transition)
        self._health = new


@dataclass(frozen=True)
class Promotion:
    """A failover: the active role moved from one reader to another."""

    time: float
    from_reader: str
    to_reader: str


class ReaderFailoverGroup:
    """A redundant set of supervised readers watching the same zone.

    Every member that is not down is polled each cycle and the events
    are unioned — redundant sessions observe independently, so the
    group's view is at least as complete as its best member's. The
    *active* reader (the one that would receive configuration commands
    and single-read requests) starts as the first member and is
    promoted to the next live member when it goes down; promotions are
    recorded, never silent. A recovered ex-primary stays standby — no
    failback flapping.
    """

    def __init__(self, readers: Sequence[SupervisedReader]) -> None:
        if not readers:
            raise SupervisorError("a failover group needs >= 1 reader")
        ids = [r.reader_id for r in readers]
        if len(set(ids)) != len(ids):
            raise SupervisorError(f"duplicate reader ids in group: {ids}")
        self._readers = list(readers)
        self._active = ids[0]
        #: Every member's health transition and every promotion, in the
        #: order they happened.
        self.history: List[Union[HealthTransition, Promotion]] = []
        #: How many of each member's transitions are in the history.
        self._seen = [0] * len(self._readers)

    @property
    def active_reader_id(self) -> str:
        return self._active

    @property
    def readers(self) -> List[SupervisedReader]:
        return list(self._readers)

    @property
    def promotions(self) -> List[Promotion]:
        """Every failover so far, in order."""
        return [e for e in self.history if isinstance(e, Promotion)]

    def health(self) -> Dict[str, ReaderHealth]:
        return {r.reader_id: r.health for r in self._readers}

    @property
    def degraded(self) -> bool:
        """True when any member is not fully healthy."""
        return any(
            r.health is not ReaderHealth.HEALTHY for r in self._readers
        )

    @property
    def live_fraction(self) -> float:
        """Fraction of members currently not down."""
        live = sum(
            1 for r in self._readers if r.health is not ReaderHealth.DOWN
        )
        return live / len(self._readers)

    def transitions(self) -> List[HealthTransition]:
        """All members' health transitions, in time order."""
        merged = [t for r in self._readers for t in r.transitions]
        return sorted(merged, key=lambda t: (t.time, t.reader_id))

    def poll(self, now: float) -> List[TagReadEvent]:
        """Poll every member, union the events, run failover checks."""
        events: List[TagReadEvent] = []
        for index, reader in enumerate(self._readers):
            events.extend(reader.poll(now))
            transitions = reader.transitions
            self.history.extend(transitions[self._seen[index]:])
            self._seen[index] = len(transitions)
        self._maybe_promote(now)
        events.sort(key=lambda e: (e.time, e.epc))
        return events

    def _maybe_promote(self, now: float) -> None:
        active = self._reader(self._active)
        if active.health is not ReaderHealth.DOWN:
            return
        for reader in self._readers:
            if reader.health is not ReaderHealth.DOWN:
                self.history.append(
                    Promotion(now, self._active, reader.reader_id)
                )
                self._active = reader.reader_id
                return
        # Everyone is down; keep the stale assignment (nothing to do).

    def _reader(self, reader_id: str) -> SupervisedReader:
        for reader in self._readers:
            if reader.reader_id == reader_id:
                return reader
        raise SupervisorError(f"unknown reader {reader_id!r}")
