"""EPC Gen 2 inventory (singulation) simulator.

Implements the Q-algorithm framed-slotted-ALOHA inventory process of
EPCglobal Class-1 Gen-2: the reader opens a round with a Query carrying
a Q value, energized tags draw a slot counter in ``[0, 2^Q - 1]``,
every QueryRep decrements counters, and a tag replies an RN16 when its
counter hits zero. Singles are ACKed and backscatter their PC/EPC/CRC;
collisions and decode failures waste their slots. The reader adapts Q
between rounds using the standard Qfp floating-point update.

The physical layer enters through a :class:`ChannelFn`: for each read
*attempt* the world model reports whether a tag is energized at all and
with what probability one backscatter reply decodes. This keeps the
protocol simulator reusable for stationary populations (Figure 2),
conveyor passes (Figure 4), and portal dwells (Tables 1-5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..sim.events import SlotOutcome
from ..sim.rng import RandomStream
from .timing import DEFAULT_TIMING, Gen2Timing


@dataclass(frozen=True)
class TagChannel:
    """Physical-layer state of one tag for one read attempt.

    Attributes
    ----------
    energized:
        Whether the forward link closes: an un-energized tag is silent
        and does not participate in the round at all.
    reply_decode_p:
        Probability that a single backscatter reply from this tag
        decodes at the reader (reverse-link quality in [0, 1]).
    """

    energized: bool
    reply_decode_p: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.reply_decode_p <= 1.0:
            raise ValueError(
                f"decode probability must be in [0, 1], got {self.reply_decode_p!r}"
            )


#: World-model hook: ``channel(epc) -> TagChannel`` for the current attempt.
ChannelFn = Callable[[str], TagChannel]

SILENT = TagChannel(energized=False, reply_decode_p=0.0)
"""Channel state of a tag that is out of the field entirely."""


@dataclass
class QAlgorithm:
    """Gen 2 Annex D Q-selection: float Qfp nudged by slot outcomes.

    Collisions push Qfp up (frame too small), empties push it down
    (frame too large), successes leave it unchanged.
    """

    q_initial: int = 4
    q_min: int = 0
    q_max: int = 15
    c: float = 0.3

    def __post_init__(self) -> None:
        if not self.q_min <= self.q_initial <= self.q_max:
            raise ValueError(
                f"q_initial {self.q_initial} outside [{self.q_min}, {self.q_max}]"
            )
        if not 0.1 <= self.c <= 0.5:
            raise ValueError(f"C must be in [0.1, 0.5] per Gen 2, got {self.c!r}")
        self._qfp = float(self.q_initial)

    @property
    def q(self) -> int:
        """Current integer Q."""
        return int(round(self._qfp))

    @property
    def at_floor(self) -> bool:
        """Qfp sits at ``q_min``: an empty slot leaves it where it is.

        From here on every round in which no tag contends is the same
        ``2**q_min``-slot frame and leaves the algorithm as it found it.
        """
        return self._qfp == self.q_min

    def on_empty(self) -> None:
        self._qfp = max(float(self.q_min), self._qfp - self.c)

    def on_collision(self) -> None:
        self._qfp = min(float(self.q_max), self._qfp + self.c)

    def on_success(self) -> None:
        """Successful singulation leaves Qfp unchanged."""

    def reset(self) -> None:
        self._qfp = float(self.q_initial)


@dataclass
class InventoryResult:
    """Outcome of running inventory rounds over a population."""

    read_epcs: List[str] = field(default_factory=list)
    read_times: Dict[str, float] = field(default_factory=dict)
    slots: List[SlotOutcome] = field(default_factory=list)
    rounds: int = 0
    duration_s: float = 0.0

    @property
    def unique_reads(self) -> Set[str]:
        return set(self.read_epcs)

    @property
    def collisions(self) -> int:
        return sum(1 for s in self.slots if s.kind == "collision")

    @property
    def empties(self) -> int:
        return sum(1 for s in self.slots if s.kind == "empty")

    @property
    def successes(self) -> int:
        return sum(1 for s in self.slots if s.kind == "success")


class InventorySession:
    """Session inventoried-flag store (Gen 2 sessions S0-S3).

    Tags read in a session flip A -> B and stop replying to that
    session's queries until the flag persistence lapses. For portal
    dwell times (a second or two) S1 flags persist through the whole
    pass, which is what lets a reader spend its slots on not-yet-read
    tags — and what our reader model uses.
    """

    def __init__(self) -> None:
        self._flagged: Set[str] = set()

    def is_inventoried(self, epc: str) -> bool:
        return epc in self._flagged

    def mark(self, epc: str) -> None:
        self._flagged.add(epc)

    def reset(self) -> None:
        self._flagged.clear()

    @property
    def inventoried_count(self) -> int:
        return len(self._flagged)


def run_inventory_round(
    population: Sequence[str],
    channel: ChannelFn,
    rng: RandomStream,
    q_algo: QAlgorithm,
    session: Optional[InventorySession] = None,
    timing: Gen2Timing = DEFAULT_TIMING,
    start_time: float = 0.0,
    time_budget_s: Optional[float] = None,
    capture_probability: float = 0.1,
) -> InventoryResult:
    """Run one full inventory round (one Query + its slots).

    Parameters
    ----------
    population:
        EPC hex strings of every tag physically present.
    channel:
        Physical-layer oracle, consulted once per tag per round for
        energization and per reply for decoding.
    rng:
        Randomness for slot draws, decode Bernoullis, and capture.
    q_algo:
        Adaptive Q state; mutated by slot outcomes.
    session:
        Inventoried-flag store; flagged tags stay silent. ``None`` means
        every round targets the whole population (session S0 with
        immediate flag decay — the paper's "single read" mode).
    timing:
        Air-interface timing used to charge airtime per slot.
    start_time:
        Simulation time at the Query.
    time_budget_s:
        If given, the round is truncated when airtime exceeds the
        budget (the cart left the read zone mid-round).
    capture_probability:
        Probability that the strongest replier of a 2-tag collision is
        captured and decoded anyway (receiver capture effect).

    Returns
    -------
    InventoryResult
        Reads, per-slot outcomes (with their responder EPCs), and
        airtime consumed by this round.
    """
    if not 0.0 <= capture_probability <= 1.0:
        raise ValueError(
            f"capture probability must be in [0, 1], got {capture_probability!r}"
        )
    result = InventoryResult()
    result.rounds = 1
    elapsed = timing.query_s
    q = q_algo.q
    frame = 1 << q

    # Determine the contenders: energized, not yet inventoried.
    contenders: Dict[str, TagChannel] = {}
    for epc in population:
        if session is not None and session.is_inventoried(epc):
            continue
        state = channel(epc)
        if state.energized:
            contenders[epc] = state

    # Slot draws.
    counters: Dict[str, int] = {
        epc: rng.randint(0, frame - 1) for epc in contenders
    }

    for slot_index in range(frame):
        if time_budget_s is not None and elapsed >= time_budget_s:
            break
        responders = [epc for epc, ctr in counters.items() if ctr == slot_index]
        slot_time = start_time + elapsed
        if not responders:
            result.slots.append(SlotOutcome(slot_time, slot_index, ()))
            q_algo.on_empty()
            elapsed += timing.empty_slot_s
            continue

        if len(responders) == 1:
            winner: Optional[str] = responders[0]
        else:
            # Collision; maybe the strongest replier captures the receiver.
            winner = None
            if len(responders) == 2 and rng.bernoulli(capture_probability):
                winner = max(responders, key=lambda e: contenders[e].reply_decode_p)
            if winner is None:
                result.slots.append(
                    SlotOutcome(slot_time, slot_index, tuple(responders))
                )
                q_algo.on_collision()
                elapsed += timing.collision_slot_s
                continue

        # Attempt singulation of the winner: RN16 decode, then EPC decode.
        decode_p = contenders[winner].reply_decode_p
        rn16_ok = rng.bernoulli(decode_p)
        epc_ok = rn16_ok and rng.bernoulli(decode_p)
        if epc_ok:
            result.slots.append(
                SlotOutcome(slot_time, slot_index, tuple(responders), winner)
            )
            result.read_epcs.append(winner)
            result.read_times[winner] = slot_time
            if session is not None:
                session.mark(winner)
            q_algo.on_success()
            elapsed += timing.success_slot_s
        else:
            # A garbled reply looks like a collision to the reader.
            result.slots.append(
                SlotOutcome(slot_time, slot_index, tuple(responders))
            )
            q_algo.on_collision()
            elapsed += timing.collision_slot_s

    result.duration_s = elapsed
    return result


def run_idle_round(
    q_algo: QAlgorithm,
    timing: Gen2Timing = DEFAULT_TIMING,
    start_time: float = 0.0,
    time_budget_s: Optional[float] = None,
    slot_times: Optional[List[float]] = None,
) -> float:
    """Airtime of a round in which no tag contends: a Query and empty slots.

    Does to ``q_algo`` exactly what :func:`run_inventory_round` does when
    every tag is silent or inventoried — one ``on_empty`` per slot of the
    frame, up to the time budget — and returns the same duration, summed
    in the same order. The round draws no randomness, so a caller that
    knows no tag can contend may run this instead. ``slot_times``, when
    given, receives each slot's start time.
    """
    elapsed = timing.query_s
    for _ in range(1 << q_algo.q):
        if time_budget_s is not None and elapsed >= time_budget_s:
            break
        if slot_times is not None:
            slot_times.append(start_time + elapsed)
        q_algo.on_empty()
        elapsed += timing.empty_slot_s
    return elapsed


def idle_round_airtime(
    q: int, timing: Gen2Timing = DEFAULT_TIMING
) -> Tuple[float, float]:
    """Offset of the last slot, and airtime, of a whole idle round at ``q``.

    The same sums, in the same order, as :func:`run_idle_round`: a
    round at ``q`` given a time budget runs all ``2**q`` slots exactly
    when the offset of its last slot is below the budget, and then
    returns this airtime.
    """
    elapsed = timing.query_s
    last_slot = elapsed
    for _ in range(1 << q):
        last_slot = elapsed
        elapsed += timing.empty_slot_s
    return last_slot, elapsed


def inventory_until(
    population: Sequence[str],
    channel: ChannelFn,
    rng: RandomStream,
    time_budget_s: float,
    q_algo: Optional[QAlgorithm] = None,
    session: Optional[InventorySession] = None,
    timing: Gen2Timing = DEFAULT_TIMING,
    start_time: float = 0.0,
    capture_probability: float = 0.1,
) -> InventoryResult:
    """Run back-to-back inventory rounds until a time budget is spent.

    This is the reader's buffered "continuous read" mode from the paper:
    rounds repeat for as long as tags are in the field, and the session
    flags keep already-read tags silent so airtime concentrates on the
    stragglers.
    """
    if time_budget_s < 0.0:
        raise ValueError(f"time budget must be non-negative, got {time_budget_s!r}")
    if q_algo is None:
        q_algo = QAlgorithm()
    own_session = session if session is not None else InventorySession()
    total = InventoryResult()
    elapsed = 0.0
    while elapsed < time_budget_s:
        round_result = run_inventory_round(
            population,
            channel,
            rng,
            q_algo,
            session=own_session,
            timing=timing,
            start_time=start_time + elapsed,
            time_budget_s=time_budget_s - elapsed,
            capture_probability=capture_probability,
        )
        total.read_epcs.extend(round_result.read_epcs)
        total.read_times.update(round_result.read_times)
        total.slots.extend(round_result.slots)
        total.rounds += round_result.rounds
        elapsed += round_result.duration_s
        if round_result.duration_s <= 0.0:
            # Degenerate safety valve; a round always costs at least a Query.
            break
        if own_session.inventoried_count >= len(population):
            # Everything read; continuous mode would idle-query, which
            # costs airtime but changes nothing observable.
            break
    total.duration_s = min(elapsed, time_budget_s)
    return total
