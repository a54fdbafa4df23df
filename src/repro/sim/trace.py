"""Trace recording for read events.

A :class:`ReadTrace` is what a portal pass produces: the time-ordered
list of successful singulations, from which reliability metrics are
computed. It deliberately mirrors the information content of the
AR400's XML tag lists that the paper's Java harness consumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional

from .events import TagReadEvent


@dataclass
class ReadTrace:
    """An append-only, time-ordered record of tag reads.

    Per-EPC queries (:meth:`was_read`, :meth:`read_counts`,
    :meth:`first_read_time`) are served from a lazily built per-EPC
    index rather than full scans: the index is constructed on the first
    query and invalidated by :meth:`record`, so dedup-style access
    patterns (many queries against a settled trace) run in O(1) per
    lookup while the append path stays a plain list append.
    """

    events: List[TagReadEvent] = field(default_factory=list)
    #: Lazy EPC -> events index; never part of equality or repr — two
    #: traces with the same events are equal whether or not either has
    #: been queried yet.
    _epc_index: Optional[Dict[str, List[TagReadEvent]]] = field(
        default=None, compare=False, repr=False
    )

    def record(self, event: TagReadEvent) -> None:
        """Append one read event; times must be non-decreasing."""
        if self.events and event.time < self.events[-1].time - 1e-12:
            raise ValueError(
                "read events must be recorded in non-decreasing time order: "
                f"{event.time} after {self.events[-1].time}"
            )
        self.events.append(event)
        self._epc_index = None

    def _index(self) -> Dict[str, List[TagReadEvent]]:
        """The per-EPC index, built on first use after any mutation."""
        index = self._epc_index
        if index is None:
            index = {}
            for e in self.events:
                index.setdefault(e.epc, []).append(e)
            self._epc_index = index
        return index

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TagReadEvent]:
        return iter(self.events)

    @property
    def is_empty(self) -> bool:
        return not self.events

    def epcs_seen(self) -> FrozenSet[str]:
        """The distinct EPCs read at least once."""
        return frozenset(self._index())

    def was_read(self, epc: str) -> bool:
        """True when ``epc`` appears anywhere in the trace."""
        return epc in self._index()

    def read_counts(self) -> Dict[str, int]:
        """Number of reads per EPC."""
        return {epc: len(events) for epc, events in self._index().items()}

    def first_read_time(self, epc: str) -> Optional[float]:
        """Time of the first read of ``epc``, or None if never read."""
        events = self._index().get(epc)
        return events[0].time if events else None
