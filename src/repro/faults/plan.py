"""Deterministic fault plans: what breaks, when, and for how long.

The paper's redundancy arguments (multiple tags, antennas, readers per
portal) are stressed in the reproduction only by RF read-misses; a DSN
deployment also faces *component* faults — a reader crashing mid-pass,
an antenna cable working loose, a forklift radio splattering the band.
A :class:`FaultPlan` is a declarative, seed-reproducible schedule of
such faults. The same plan object is consumed by two layers:

* the pass simulator (:mod:`repro.world.simulation`) consults it for
  physical faults — reader outages, antenna impairments, interference
  bursts — while generating the read trace;
* the transport layer (:mod:`repro.faults.injectors`) consults it for
  wire-level faults — unreachable readers, corrupted XML, dropped or
  delayed or duplicated polls.

Plans are plain frozen data. Randomly *sampled* plans
(:meth:`FaultPlan.sample`) draw every fault time from a named
:class:`~repro.sim.rng.RandomStream`, so an experiment replays
bit-for-bit from its root seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..sim.rng import RandomStream


class FaultPlanError(ValueError):
    """Raised for inconsistent fault specifications."""


def _require_time(value: float, what: str) -> None:
    if value < 0.0 or not math.isfinite(value):
        raise FaultPlanError(f"{what} must be finite and >= 0, got {value!r}")


def _require_probability(value: float, what: str) -> None:
    if not 0.0 <= value <= 1.0:
        raise FaultPlanError(f"{what} must be in [0, 1], got {value!r}")


# -- fault specifications --------------------------------------------------


@dataclass(frozen=True)
class ReaderCrash:
    """The reader process dies at ``at_s``; optionally restarts later.

    A restart wipes the reader's unread buffer (the AR400 keeps its tag
    list in RAM), which is what distinguishes a crash from a
    :class:`ReaderHang`: after a hang clears, buffered reads are still
    there to drain.
    """

    reader_id: str
    at_s: float
    restart_at_s: Optional[float] = None

    def __post_init__(self) -> None:
        _require_time(self.at_s, "crash time")
        if self.restart_at_s is not None and self.restart_at_s <= self.at_s:
            raise FaultPlanError(
                f"restart at {self.restart_at_s!r} must come after the "
                f"crash at {self.at_s!r}"
            )

    @property
    def down_until(self) -> float:
        return math.inf if self.restart_at_s is None else self.restart_at_s


@dataclass(frozen=True)
class ReaderHang:
    """Firmware wedge: no inventory and no poll responses for a window."""

    reader_id: str
    at_s: float
    duration_s: float

    def __post_init__(self) -> None:
        _require_time(self.at_s, "hang time")
        if self.duration_s <= 0.0:
            raise FaultPlanError(
                f"hang duration must be positive, got {self.duration_s!r}"
            )

    @property
    def end_s(self) -> float:
        return self.at_s + self.duration_s


@dataclass(frozen=True)
class AntennaFault:
    """One antenna port is impaired during [start_s, end_s).

    ``gain_penalty_db`` of ``None`` means total silence (cable cut or
    connector failure); a finite value models detune or water ingress —
    the port still radiates, just ``gain_penalty_db`` weaker.
    """

    reader_id: str
    antenna_id: str
    start_s: float
    end_s: float = math.inf
    gain_penalty_db: Optional[float] = None

    def __post_init__(self) -> None:
        _require_time(self.start_s, "antenna fault start")
        if self.end_s <= self.start_s:
            raise FaultPlanError(
                f"antenna fault window [{self.start_s!r}, {self.end_s!r}) "
                "is empty"
            )
        if self.gain_penalty_db is not None and self.gain_penalty_db <= 0.0:
            raise FaultPlanError(
                "gain penalty must be positive dB (or None for silence), "
                f"got {self.gain_penalty_db!r}"
            )

    @property
    def silent(self) -> bool:
        return self.gain_penalty_db is None


@dataclass(frozen=True)
class InterferenceBurst:
    """Ambient in-band interference raising every reader's receive floor."""

    start_s: float
    end_s: float
    power_dbm: float

    def __post_init__(self) -> None:
        _require_time(self.start_s, "burst start")
        if self.end_s <= self.start_s:
            raise FaultPlanError(
                f"burst window [{self.start_s!r}, {self.end_s!r}) is empty"
            )
        if not -120.0 <= self.power_dbm <= 30.0:
            raise FaultPlanError(
                f"burst power {self.power_dbm!r} dBm outside a plausible "
                "-120..30 range"
            )


@dataclass(frozen=True)
class WireCorruption:
    """Each poll response is corrupted with some probability.

    Modes mirror how an HTTP/XML transport actually fails:

    * ``"truncate"`` — the connection dies mid-body;
    * ``"garble"`` — bytes flip in transit (bad serial link, proxy bug);
    * ``"drop_field"`` — a field goes missing (firmware version skew).
    """

    MODES = ("truncate", "garble", "drop_field")

    reader_id: str
    probability: float
    mode: str = "truncate"

    def __post_init__(self) -> None:
        _require_probability(self.probability, "corruption probability")
        if self.mode not in self.MODES:
            raise FaultPlanError(
                f"unknown corruption mode {self.mode!r}; pick from {self.MODES}"
            )


@dataclass(frozen=True)
class PollFault:
    """Transport-level poll trouble: drops, delays, duplicate delivery."""

    reader_id: str
    drop_probability: float = 0.0
    delay_probability: float = 0.0
    delay_s: float = 0.5
    duplicate_probability: float = 0.0

    def __post_init__(self) -> None:
        _require_probability(self.drop_probability, "drop probability")
        _require_probability(self.delay_probability, "delay probability")
        _require_probability(self.duplicate_probability, "duplicate probability")
        if self.delay_s < 0.0:
            raise FaultPlanError(
                f"delay must be non-negative, got {self.delay_s!r}"
            )


# -- coverage accounting ---------------------------------------------------


def _merge_intervals(
    intervals: List[Tuple[float, float]]
) -> List[Tuple[float, float]]:
    """Union of half-open intervals, sorted and non-overlapping."""
    merged: List[Tuple[float, float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def _clipped_length(
    intervals: List[Tuple[float, float]], duration: float
) -> float:
    total = 0.0
    for start, end in _merge_intervals(intervals):
        lo = max(0.0, start)
        hi = min(duration, end)
        if hi > lo:
            total += hi - lo
    return total


@dataclass(frozen=True)
class AntennaCoverage:
    """How much of a pass one antenna actually watched."""

    reader_id: str
    antenna_id: str
    #: Fraction of the pass during which this port could read at all.
    live_fraction: float
    #: Fraction during which it was radiating but gain-impaired.
    impaired_fraction: float = 0.0

    @property
    def degraded(self) -> bool:
        return self.live_fraction < 1.0 or self.impaired_fraction > 0.0


@dataclass(frozen=True)
class CoverageReport:
    """Per-antenna liveness over one observation window.

    This is the artifact that lets the back-end distinguish "the object
    was absent" from "the infrastructure was blind": a pass observed
    with a downed antenna reports reduced coverage, and every tracking
    decision made from it carries that reduced confidence.
    """

    duration_s: float
    antennas: Tuple[AntennaCoverage, ...]
    interference_fraction: float = 0.0

    @property
    def live_fraction(self) -> float:
        """Mean antenna liveness — 1.0 means the portal never blinked."""
        if not self.antennas:
            return 1.0
        return sum(a.live_fraction for a in self.antennas) / len(self.antennas)

    @property
    def degraded(self) -> bool:
        return (
            any(a.degraded for a in self.antennas)
            or self.interference_fraction > 0.0
        )

    def for_reader(self, reader_id: str) -> List[AntennaCoverage]:
        return [a for a in self.antennas if a.reader_id == reader_id]

    @staticmethod
    def full(
        antennas: Sequence[Tuple[str, str]], duration_s: float
    ) -> "CoverageReport":
        """The no-fault report: every antenna live for the whole pass."""
        return CoverageReport(
            duration_s=duration_s,
            antennas=tuple(
                AntennaCoverage(reader_id, antenna_id, 1.0)
                for reader_id, antenna_id in antennas
            ),
        )


# -- the plan --------------------------------------------------------------


@dataclass(frozen=True)
class FaultPlan:
    """A complete, declarative fault schedule for one experiment run."""

    crashes: Tuple[ReaderCrash, ...] = ()
    hangs: Tuple[ReaderHang, ...] = ()
    antenna_faults: Tuple[AntennaFault, ...] = ()
    interference_bursts: Tuple[InterferenceBurst, ...] = ()
    wire_corruptions: Tuple[WireCorruption, ...] = ()
    poll_faults: Tuple[PollFault, ...] = ()

    def __post_init__(self) -> None:
        seen_wire = set()
        for corruption in self.wire_corruptions:
            if corruption.reader_id in seen_wire:
                raise FaultPlanError(
                    "multiple wire corruptions for reader "
                    f"{corruption.reader_id!r}; merge them into one"
                )
            seen_wire.add(corruption.reader_id)
        seen_poll = set()
        for fault in self.poll_faults:
            if fault.reader_id in seen_poll:
                raise FaultPlanError(
                    "multiple poll faults for reader "
                    f"{fault.reader_id!r}; merge them into one"
                )
            seen_poll.add(fault.reader_id)

    @property
    def is_empty(self) -> bool:
        return not (
            self.crashes
            or self.hangs
            or self.antenna_faults
            or self.interference_bursts
            or self.wire_corruptions
            or self.poll_faults
        )

    # -- point queries (used per dwell / per poll) -------------------------

    def reader_down(self, reader_id: str, t: float) -> bool:
        """Is the reader dead or wedged at time ``t``?"""
        for crash in self.crashes:
            if crash.reader_id == reader_id and crash.at_s <= t < crash.down_until:
                return True
        for hang in self.hangs:
            if hang.reader_id == reader_id and hang.at_s <= t < hang.end_s:
                return True
        return False

    def reader_outages(self, reader_id: str) -> List[Tuple[float, float]]:
        """Merged [start, end) windows during which the reader is down."""
        windows = [
            (c.at_s, c.down_until)
            for c in self.crashes
            if c.reader_id == reader_id
        ] + [(h.at_s, h.end_s) for h in self.hangs if h.reader_id == reader_id]
        return _merge_intervals(windows)

    def crash_restarts(self, reader_id: str) -> List[ReaderCrash]:
        """Crashes of this reader that eventually restart (buffer loss)."""
        return sorted(
            (
                c
                for c in self.crashes
                if c.reader_id == reader_id and c.restart_at_s is not None
            ),
            key=lambda c: c.at_s,
        )

    def antenna_state(
        self, reader_id: str, antenna_id: str, t: float
    ) -> Tuple[bool, float]:
        """(silent, gain_penalty_db) for one port at time ``t``."""
        penalty = 0.0
        for fault in self.antenna_faults:
            if (
                fault.reader_id == reader_id
                and fault.antenna_id == antenna_id
                and fault.start_s <= t < fault.end_s
            ):
                if fault.silent:
                    return True, 0.0
                penalty += fault.gain_penalty_db or 0.0
        return False, penalty

    def interference_dbm_at(self, t: float) -> Optional[float]:
        """Strongest active ambient burst at ``t``, or None when quiet."""
        active = [
            b.power_dbm
            for b in self.interference_bursts
            if b.start_s <= t < b.end_s
        ]
        return max(active) if active else None

    def change_points(self, reader_id: str) -> List[float]:
        """Sorted finite times at which this reader's dwell queries change.

        Between two consecutive points (and after the last),
        :meth:`reader_down` of every reader, :meth:`antenna_state` of
        this reader's ports and :meth:`interference_dbm_at` are all
        constant, so a query at a stretch's start holds for all of it.
        Every reader counts because another reader's outage silences an
        aggressor. A new time-varying fault must add its edges here.
        """
        edges = {0.0}
        for crash in self.crashes:
            edges.update((crash.at_s, crash.down_until))
        for hang in self.hangs:
            edges.update((hang.at_s, hang.end_s))
        for fault in self.antenna_faults:
            if fault.reader_id == reader_id:
                edges.update((fault.start_s, fault.end_s))
        for burst in self.interference_bursts:
            edges.update((burst.start_s, burst.end_s))
        return sorted(e for e in edges if e < math.inf)

    def wire_corruption_for(self, reader_id: str) -> Optional[WireCorruption]:
        for corruption in self.wire_corruptions:
            if corruption.reader_id == reader_id:
                return corruption
        return None

    def poll_fault_for(self, reader_id: str) -> Optional[PollFault]:
        for fault in self.poll_faults:
            if fault.reader_id == reader_id:
                return fault
        return None

    # -- coverage ----------------------------------------------------------

    def coverage_report(
        self, antennas: Sequence[Tuple[str, str]], duration_s: float
    ) -> CoverageReport:
        """What fraction of ``[0, duration_s)`` each port was actually live.

        A port is blind while its reader is down *or* a silent antenna
        fault covers it; gain-impaired (but radiating) windows are
        reported separately.
        """
        if duration_s <= 0.0:
            raise FaultPlanError(
                f"duration must be positive, got {duration_s!r}"
            )
        entries: List[AntennaCoverage] = []
        for reader_id, antenna_id in antennas:
            blind = list(self.reader_outages(reader_id))
            impaired: List[Tuple[float, float]] = []
            for fault in self.antenna_faults:
                if (
                    fault.reader_id != reader_id
                    or fault.antenna_id != antenna_id
                ):
                    continue
                window = (fault.start_s, fault.end_s)
                if fault.silent:
                    blind.append(window)
                else:
                    impaired.append(window)
            blind_s = _clipped_length(blind, duration_s)
            impaired_s = _clipped_length(impaired, duration_s)
            entries.append(
                AntennaCoverage(
                    reader_id=reader_id,
                    antenna_id=antenna_id,
                    live_fraction=1.0 - blind_s / duration_s,
                    impaired_fraction=impaired_s / duration_s,
                )
            )
        burst_windows = [
            (b.start_s, b.end_s) for b in self.interference_bursts
        ]
        return CoverageReport(
            duration_s=duration_s,
            antennas=tuple(entries),
            interference_fraction=(
                _clipped_length(burst_windows, duration_s) / duration_s
            ),
        )

    # -- sampling ----------------------------------------------------------

    @staticmethod
    def sample(
        stream: RandomStream,
        reader_ids: Sequence[str],
        duration_s: float,
        crash_probability: float = 0.0,
        restart_probability: float = 0.0,
        hang_probability: float = 0.0,
        hang_duration_s: float = 1.0,
        antenna_silence_probability: float = 0.0,
        antennas: Sequence[Tuple[str, str]] = (),
        burst_probability: float = 0.0,
        burst_power_dbm: float = -50.0,
        burst_duration_s: float = 1.0,
    ) -> "FaultPlan":
        """Draw a random plan from a named stream — deterministic per seed.

        Every fault fires independently per component with the given
        probability; times are uniform over the pass. Because all draws
        come from ``stream``, re-running with the same root seed and the
        same arguments reproduces the identical plan.
        """
        _require_probability(crash_probability, "crash probability")
        _require_probability(restart_probability, "restart probability")
        _require_probability(hang_probability, "hang probability")
        _require_probability(
            antenna_silence_probability, "antenna silence probability"
        )
        _require_probability(burst_probability, "burst probability")
        if duration_s <= 0.0:
            raise FaultPlanError(
                f"duration must be positive, got {duration_s!r}"
            )
        crashes: List[ReaderCrash] = []
        hangs: List[ReaderHang] = []
        antenna_faults: List[AntennaFault] = []
        bursts: List[InterferenceBurst] = []
        for reader_id in reader_ids:
            if stream.bernoulli(crash_probability):
                at = stream.uniform(0.0, duration_s)
                restart: Optional[float] = None
                if stream.bernoulli(restart_probability):
                    restart = at + stream.uniform(
                        0.1, max(0.2, duration_s - at)
                    )
                crashes.append(ReaderCrash(reader_id, at, restart))
            if stream.bernoulli(hang_probability):
                at = stream.uniform(0.0, duration_s)
                hangs.append(ReaderHang(reader_id, at, hang_duration_s))
        for reader_id, antenna_id in antennas:
            if stream.bernoulli(antenna_silence_probability):
                start = stream.uniform(0.0, duration_s)
                antenna_faults.append(
                    AntennaFault(reader_id, antenna_id, start)
                )
        if stream.bernoulli(burst_probability):
            start = stream.uniform(0.0, duration_s)
            bursts.append(
                InterferenceBurst(
                    start, start + burst_duration_s, burst_power_dbm
                )
            )
        return FaultPlan(
            crashes=tuple(crashes),
            hangs=tuple(hangs),
            antenna_faults=tuple(antenna_faults),
            interference_bursts=tuple(bursts),
        )
