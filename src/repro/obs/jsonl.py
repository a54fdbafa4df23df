"""JSONL serialization of observability records.

One record per line, ``{"type": ..., **fields}``. Finite floats
round-trip losslessly through Python's ``json`` (it emits ``repr``
shortest-form floats), so a parsed file reproduces the recorded
records bit-for-bit.
"""

from __future__ import annotations

import json
import os
from typing import Any, Iterable, Iterator, List

from .records import record_from_dict


def dump_records(records: Iterable[Any]) -> Iterator[str]:
    """Yield one JSON line per record (no trailing newlines)."""
    for record in records:
        yield json.dumps(record.to_dict(), sort_keys=True)


def write_events_jsonl(path: str, records: Iterable[Any]) -> int:
    """Write records to a JSONL file; returns the number written."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for line in dump_records(records):
            handle.write(line)
            handle.write("\n")
            count += 1
    return count


def parse_records(lines: Iterable[str]) -> Iterator[Any]:
    """Rebuild typed records from JSONL lines (blank lines skipped)."""
    for line in lines:
        stripped = line.strip()
        if not stripped:
            continue
        yield record_from_dict(json.loads(stripped))


def read_events_jsonl(path: str) -> List[Any]:
    """Load every record of an ``events.jsonl`` file."""
    with open(path, "r", encoding="utf-8") as handle:
        return list(parse_records(handle))
