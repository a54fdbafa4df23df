"""Binary-tree anti-collision baseline.

The deterministic alternative to ALOHA: the reader walks the binary
prefix tree of tag IDs, splitting every collision into two child
queries (prefix + '0', prefix + '1') until every responding tag sits
alone under its prefix. Guarantees every energized, decodable tag is
eventually read, at the cost of a query count that grows with both
population and ID entropy.

Included as a baseline for the protocol-level ablation: the paper's
reliability problems are physical, and showing they persist under a
deterministic protocol demonstrates that better collision control alone
(scoped out by the paper) cannot fix them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..sim.events import SlotOutcome
from ..sim.rng import RandomStream
from .crc import bytes_to_bits
from .gen2 import ChannelFn, InventoryResult
from .timing import DEFAULT_TIMING, Gen2Timing


def _epc_bits(epc_hex: str) -> List[int]:
    """MSB-first bit expansion of an EPC hex string."""
    try:
        raw = bytes.fromhex(epc_hex)
    except ValueError:
        raise ValueError(f"invalid EPC hex {epc_hex!r}") from None
    return bytes_to_bits(raw)


def _matches_prefix(bits: Sequence[int], prefix: Sequence[int]) -> bool:
    if len(prefix) > len(bits):
        return False
    return all(b == p for b, p in zip(bits, prefix))


@dataclass
class TreeWalkStats:
    """Query accounting for one tree traversal."""

    queries: int = 0
    collisions: int = 0
    max_depth: int = 0


def inventory_tree(
    population: Sequence[str],
    channel: ChannelFn,
    rng: RandomStream,
    time_budget_s: Optional[float] = None,
    timing: Gen2Timing = DEFAULT_TIMING,
    start_time: float = 0.0,
    stats: Optional[TreeWalkStats] = None,
) -> InventoryResult:
    """Depth-first binary tree walk over the energized population.

    Parameters mirror :func:`repro.protocol.gen2.inventory_until`. A
    decode failure re-queues the node for one retry (real tree readers
    re-query garbled prefixes), after which the tag is abandoned for
    the current walk. When a ``time_budget_s`` is given and budget
    remains after a walk completes, the reader starts a fresh walk over
    the still-unread tags — the tree-protocol equivalent of buffered
    continuous mode.
    """
    result = InventoryResult()
    elapsed = 0.0

    energized: Dict[str, float] = {}
    bit_cache: Dict[str, List[int]] = {}
    for epc in population:
        state = channel(epc)
        if state.energized:
            energized[epc] = state.reply_decode_p
            bit_cache[epc] = _epc_bits(epc)

    # Stack of (prefix, retries_left) nodes, LIFO for depth-first order.
    stack: List[tuple] = [((), 1)]
    walk = stats if stats is not None else TreeWalkStats()

    while stack:
        if time_budget_s is not None and elapsed >= time_budget_s:
            break
        prefix, retries = stack.pop()
        if not stack and not prefix and time_budget_s is not None:
            # Root node of a walk: queue the next full walk behind it so
            # leftover budget re-attempts tags whose replies garbled.
            remaining = any(
                epc in energized and epc not in result.read_times
                for epc in bit_cache
            )
            if remaining:
                stack.append(((), 1))
        walk.queries += 1
        walk.max_depth = max(walk.max_depth, len(prefix))
        responders = [
            epc
            for epc, bits in bit_cache.items()
            if epc in energized and _matches_prefix(bits, prefix)
            and epc not in result.read_times
        ]
        slot_time = start_time + elapsed
        result.rounds += 1
        if not responders:
            result.slots.append(SlotOutcome(slot_time, walk.queries, ()))
            elapsed += timing.empty_slot_s
            continue
        if len(responders) == 1:
            epc = responders[0]
            decode_p = energized[epc]
            if rng.bernoulli(decode_p) and rng.bernoulli(decode_p):
                result.slots.append(
                    SlotOutcome(slot_time, walk.queries, (epc,), epc=epc)
                )
                result.read_epcs.append(epc)
                result.read_times[epc] = slot_time
                elapsed += timing.success_slot_s
            else:
                result.slots.append(
                    SlotOutcome(slot_time, walk.queries, (epc,))
                )
                elapsed += timing.collision_slot_s
                if retries > 0:
                    stack.append((prefix, retries - 1))
            continue
        # Collision: split the prefix.
        walk.collisions += 1
        result.slots.append(
            SlotOutcome(slot_time, walk.queries, tuple(responders))
        )
        elapsed += timing.collision_slot_s
        if len(prefix) < 96:
            stack.append((prefix + (1,), 1))
            stack.append((prefix + (0,), 1))
    result.duration_s = elapsed
    return result
