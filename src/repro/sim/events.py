"""Timestamped event types shared by the protocol and reader layers.

A :class:`TagReadEvent` is one entry of a pass's read trace; a
:class:`SlotOutcome` is one slot of an inventory round.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Optional, Tuple


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
    """Result of one ALOHA slot during an inventory round.

    ``responders`` are the EPCs that replied in the slot — identity the
    air interface hides from the reader (a collision is anonymous on
    real hardware), which the observability layer uses to attribute
    misses to collisions. ``epc`` is the tag the slot singulated.
    """

    time: float
    slot_index: int
    responders: Tuple[str, ...]
    epc: Optional[str] = None

    @property
    def kind(self) -> str:
        """One of ``"empty"``, ``"success"``, ``"collision"``."""
        if not self.responders:
            return "empty"
        if self.epc is not None:
            return "success"
        return "collision"
