"""Event types for the discrete-event core.

The engine itself (:mod:`repro.sim.engine`) is agnostic to payloads; the
classes here give the protocol and reader layers a shared vocabulary of
timestamped happenings so traces can be analysed uniformly.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

#: Monotonic tie-breaker so simultaneous events pop in scheduling order.
_EVENT_COUNTER = itertools.count()


@dataclass(order=True)
class ScheduledEvent:
    """An entry in the engine's priority queue.

    Ordering is by time, then by insertion order, which makes runs
    deterministic even when many events share a timestamp.
    """

    time: float
    sequence: int = field(compare=True)
    action: Callable[[], None] = field(compare=False)
    label: str = field(compare=False, default="")
    cancelled: bool = field(compare=False, default=False)

    def cancel(self) -> None:
        """Mark this event so the engine skips it when popped."""
        self.cancelled = True


def next_sequence() -> int:
    """Hand out the global tie-break counter value."""
    return next(_EVENT_COUNTER)


@dataclass(frozen=True)
class TagReadEvent:
    """A successful tag singulation observed by a reader.

    Attributes mirror what the Matrics AR400's XML tag list reports:
    which antenna saw which EPC, when, and with what signal strength.
    """

    time: float
    epc: str
    reader_id: str
    antenna_id: str
    rssi_dbm: float

    def key(self) -> tuple:
        """Identity used for duplicate elimination in the middleware."""
        return (self.epc, self.reader_id, self.antenna_id)

    def __setstate__(self, state: dict) -> None:
        # Events unpickled from a worker share the parent's EPC strings
        # instead of each carrying its own copy.
        state["epc"] = sys.intern(state["epc"])
        self.__dict__.update(state)


@dataclass(frozen=True)
class SlotOutcome:
    """Result of one ALOHA slot during an inventory round."""

    time: float
    slot_index: int
    responders: int
    epc: Optional[str] = None

    @property
    def kind(self) -> str:
        """One of ``"empty"``, ``"success"``, ``"collision"``."""
        if self.responders == 0:
            return "empty"
        if self.epc is not None:
            return "success"
        return "collision"
