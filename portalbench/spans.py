"""In-memory span recorder and the self-time arithmetic behind it.

A :class:`SpanRecorder` wraps callables so that each call records one
span: name, start, end, parent span and the pass id shared by every span
of one portal pass. Spans live in flat arrays (a cart pass makes ~10^5
of them) and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Span name that opens a new pass id; every span nested in it shares it.
PASS_SPAN = "pass"

#: Name of the spans that time the benchmark's own bookkeeping (result
#: observers). They are children of the span that triggered them, so
#: their cost is subtracted from that span's self time.
OBSERVE_SPAN = "bench.observe"


def self_times(
    starts: Sequence[float], ends: Sequence[float], parents: Sequence[int]
) -> List[float]:
    """Each span's duration minus the durations of its direct children.

    ``parents[i]`` is the index of span ``i``'s parent, or -1. The
    recorder runs on one thread with an explicit stack, so a span's
    children are disjoint and lie inside it.
    """
    selfs = [end - start for start, end in zip(starts, ends)]
    for i, p in enumerate(parents):
        if p >= 0:
            selfs[p] -= ends[i] - starts[i]
    return selfs


class SpanRecorder:
    """Records one span per call of every callable it wraps.

    Single-threaded by design: the traced run is serial, so an explicit
    stack gives each span its parent.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.pass_id = array("q")
        self._stack: List[int] = []
        self._passes = 0
        self._current_pass = -1
        self._pass_nid = self._intern(PASS_SPAN)
        self._observe_nid = self._intern(OBSERVE_SPAN)

    def __len__(self) -> int:
        return len(self.start)

    @property
    def passes(self) -> int:
        return self._passes

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._name_ids[name] = nid
            self.names.append(name)
        return nid

    def call(self, name_id: int, fn: Callable, args: tuple, kwargs: dict) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a span named ``names[name_id]``."""
        stack = self._stack
        idx = len(self.start)
        outer_pass = self._current_pass
        if name_id == self._pass_nid:
            self._current_pass = self._passes
            self._passes += 1
        self.name_id.append(name_id)
        self.parent.append(stack[-1] if stack else -1)
        self.pass_id.append(self._current_pass)
        self.end.append(0.0)
        stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = time.perf_counter()
            stack.pop()
            self._current_pass = outer_pass

    def wrap(
        self,
        name: str,
        fn: Callable,
        observe: Optional[Callable[[tuple, dict, Any], None]] = None,
    ) -> Callable:
        """A stand-in for ``fn`` that records a span per call.

        ``observe(args, kwargs, result)``, when given, runs after the
        span closes, inside its own :data:`OBSERVE_SPAN` span.
        """
        nid = self._intern(name)
        oid = self._observe_nid
        call = self.call

        if observe is None:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return call(nid, fn, args, kwargs)
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                result = call(nid, fn, args, kwargs)
                call(oid, observe, (args, kwargs, result), {})
                return result

        return traced

    def totals(self) -> Dict[str, Tuple[int, float]]:
        """``{name: (calls, total self seconds)}`` over every span."""
        selfs = self_times(self.start, self.end, self.parent)
        totals: Dict[str, List[float]] = {}
        for nid, s in zip(self.name_id, selfs):
            entry = totals.setdefault(self.names[nid], [0, 0.0])
            entry[0] += 1
            entry[1] += s
        return {name: (int(c), t) for name, (c, t) in totals.items()}

    def write(self, path: str) -> None:
        """Write every span as a tab-separated line, with a header."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_s\tend_s\tparent\tpass\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(
                    f"{names[self.name_id[i]]}\t{self.start[i]!r}\t"
                    f"{self.end[i]!r}\t{self.parent[i]}\t{self.pass_id[i]}\n"
                )
