"""Fixed-frame framed-slotted-ALOHA baseline (Vogt, 2002).

Before Gen 2's adaptive Q, readers ran framed-slotted ALOHA with a
frame size chosen per round. Vogt's scheme estimates the tag population
from the previous frame's (empty, success, collision) counts and picks
the next frame size to maximise throughput (frame size ~ population).

This baseline exists for two reasons: the paper explicitly scopes out
"better collision control algorithms" as an orthogonal axis — having
both protocols lets us quantify how much of the measured unreliability
is protocol-independent — and it is the reference point for the
population-estimation module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..sim.events import SlotOutcome
from ..sim.rng import RandomStream
from .estimation import vogt_estimate
from .gen2 import ChannelFn, InventoryResult
from .timing import DEFAULT_TIMING, Gen2Timing

#: Frame sizes Vogt's scheme may select (powers of two, hardware-friendly).
ALLOWED_FRAME_SIZES = (16, 32, 64, 128, 256)


@dataclass
class FrameOutcome:
    """Counts observed in one ALOHA frame."""

    empty: int
    success: int
    collision: int

    @property
    def slots(self) -> int:
        return self.empty + self.success + self.collision


def choose_frame_size(estimated_tags: float) -> int:
    """Smallest allowed frame size >= the estimated backlog.

    Throughput of slotted ALOHA peaks when frame size equals the number
    of contenders; rounding up costs little (extra empties are cheap)
    while rounding down costs collisions (expensive slots).
    """
    if estimated_tags < 0:
        raise ValueError(f"estimate must be non-negative, got {estimated_tags!r}")
    for size in ALLOWED_FRAME_SIZES:
        if size >= estimated_tags:
            return size
    return ALLOWED_FRAME_SIZES[-1]


def run_aloha_frame(
    population: Sequence[str],
    channel: ChannelFn,
    rng: RandomStream,
    frame_size: int,
    already_read: Optional[set] = None,
    timing: Gen2Timing = DEFAULT_TIMING,
    start_time: float = 0.0,
) -> InventoryResult:
    """Run one fixed-size ALOHA frame over the not-yet-read population."""
    if frame_size < 1:
        raise ValueError(f"frame size must be >= 1, got {frame_size!r}")
    read_set = already_read if already_read is not None else set()
    result = InventoryResult()
    result.rounds = 1
    elapsed = timing.query_s

    contenders: Dict[str, float] = {}
    for epc in population:
        if epc in read_set:
            continue
        state = channel(epc)
        if state.energized:
            contenders[epc] = state.reply_decode_p

    counters = {epc: rng.randint(0, frame_size - 1) for epc in contenders}
    for slot_index in range(frame_size):
        responders = [e for e, c in counters.items() if c == slot_index]
        slot_time = start_time + elapsed
        if not responders:
            result.slots.append(SlotOutcome(slot_time, slot_index, ()))
            elapsed += timing.empty_slot_s
        elif len(responders) == 1:
            epc = responders[0]
            decode_p = contenders[epc]
            if rng.bernoulli(decode_p) and rng.bernoulli(decode_p):
                result.slots.append(
                    SlotOutcome(slot_time, slot_index, (epc,), epc=epc)
                )
                result.read_epcs.append(epc)
                result.read_times[epc] = slot_time
                read_set.add(epc)
                elapsed += timing.success_slot_s
            else:
                result.slots.append(SlotOutcome(slot_time, slot_index, (epc,)))
                elapsed += timing.collision_slot_s
        else:
            result.slots.append(
                SlotOutcome(slot_time, slot_index, tuple(responders))
            )
            elapsed += timing.collision_slot_s
    result.duration_s = elapsed
    return result


def inventory_until_aloha(
    population: Sequence[str],
    channel: ChannelFn,
    rng: RandomStream,
    time_budget_s: float,
    initial_frame_size: int = 16,
    timing: Gen2Timing = DEFAULT_TIMING,
    start_time: float = 0.0,
) -> InventoryResult:
    """Vogt-adaptive framed ALOHA until the time budget is spent.

    Mirrors :func:`repro.protocol.gen2.inventory_until` so the two
    protocols are drop-in comparable in the benchmarks.
    """
    if time_budget_s < 0.0:
        raise ValueError(f"time budget must be non-negative, got {time_budget_s!r}")
    total = InventoryResult()
    read_set: set = set()
    frame_size = choose_frame_size(initial_frame_size)
    elapsed = 0.0
    while elapsed < time_budget_s:
        frame = run_aloha_frame(
            population,
            channel,
            rng,
            frame_size,
            already_read=read_set,
            timing=timing,
            start_time=start_time + elapsed,
        )
        total.read_epcs.extend(frame.read_epcs)
        total.read_times.update(frame.read_times)
        total.slots.extend(frame.slots)
        total.rounds += frame.rounds
        elapsed += frame.duration_s
        if len(read_set) >= len(population):
            break
        outcome = FrameOutcome(
            empty=sum(1 for s in frame.slots if s.kind == "empty"),
            success=sum(1 for s in frame.slots if s.kind == "success"),
            collision=sum(1 for s in frame.slots if s.kind == "collision"),
        )
        backlog = vogt_estimate(outcome.empty, outcome.success, outcome.collision)
        frame_size = choose_frame_size(max(backlog, 1.0))
    total.duration_s = min(elapsed, time_budget_s)
    return total
