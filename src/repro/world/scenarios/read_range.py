"""Figure 2 scenario: read reliability vs tag-antenna distance.

The paper: 20 tags in a single plane parallel to the antenna (Figure 1
grid, 12.5 cm x-pitch and 20 cm y-pitch — comfortably beyond coupling
range), fixed facing the antenna, a single read per measurement,
repeated 40 times per distance from 1 m to 10 m.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ...core.calibration import PaperSetup
from ...core.experiment import DEFAULT_SEED, run_trials
from ...core.parallel import PassTrialTask
from ...core.reliability import CountDistribution
from ...obs.recorder import Recorder
from ...protocol.epc import EpcFactory
from ...rf.geometry import Vec3
from ..motion import StationaryPlacement
from ..portal import single_antenna_portal
from ..simulation import CarrierGroup
from ..tags import Tag, TagOrientation

#: The paper's grid: 20 tags, 5 columns x 4 rows.
GRID_COLUMNS = 5
GRID_ROWS = 4
X_PITCH_M = 0.125
Y_PITCH_M = 0.20

#: Airtime of one "single read" poll: one HTTP-triggered inventory
#: cycle. 0.5 s resolves 20 unobstructed tags with margin.
SINGLE_READ_WINDOW_S = 0.5

PAPER_DISTANCES_M = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0)
PAPER_REPETITIONS = 40


#: Carrier-frame position of each grid cell, keyed ``(row, column)``.
#: Vec3 is immutable, so every plane built shares these.
_GRID_POSITIONS: Dict[Tuple[int, int], Vec3] = {
    (row, col): Vec3(
        -(GRID_COLUMNS - 1) / 2.0 * X_PITCH_M + col * X_PITCH_M,
        1.0 - (GRID_ROWS - 1) / 2.0 * Y_PITCH_M + row * Y_PITCH_M,
        0.0,
    )
    for row in range(GRID_ROWS)
    for col in range(GRID_COLUMNS)
}


def build_tag_plane(distance_m: float) -> CarrierGroup:
    """The 20-tag plane at ``distance_m`` from the antenna, facing it."""
    if distance_m <= 0.0:
        raise ValueError(f"distance must be positive, got {distance_m!r}")
    factory = EpcFactory()
    tags: List[Tag] = []
    for (row, col), position in _GRID_POSITIONS.items():
        tags.append(
            Tag(
                epc=factory.next_epc().to_hex(),
                local_position=position,
                orientation=TagOrientation.CASE_2_HORIZONTAL_FACING,
                label=f"grid-{row}-{col}",
            )
        )
    return CarrierGroup(
        motion=StationaryPlacement(
            position=Vec3(0.0, 0.0, distance_m),
            duration_s=SINGLE_READ_WINDOW_S,
        ),
        tags=tags,
    )


@functools.lru_cache(maxsize=64)
def _shared_tag_plane(distance_m: float) -> CarrierGroup:
    """One plane per distance, shared by every experiment call.

    Passes only read a carrier, so calls can share it; a caller that
    keeps each call's trial task then keeps one plane per distance, not
    one per call. Callers that may modify a plane use
    :func:`build_tag_plane`.

    This does nothing for a single run: it exists only because the
    ``portalbench`` harness keeps every call's task alive for its
    output check, so its peak RSS grows with passes per run. Delete
    it once that harness stops retaining tasks (ROADMAP item 1,
    "Benchmark retention fix").
    """
    return build_tag_plane(distance_m)


@dataclass
class ReadRangePoint:
    """Result at one distance: the tags-read distribution over repetitions."""

    distance_m: float
    distribution: CountDistribution

    @property
    def mean_tags_read(self) -> float:
        return self.distribution.mean


def run_read_range_experiment(
    distances_m: Sequence[float] = PAPER_DISTANCES_M,
    repetitions: int = PAPER_REPETITIONS,
    seed: int = DEFAULT_SEED,
    workers: Optional[int] = None,
    recorder: Optional[Recorder] = None,
) -> Dict[float, ReadRangePoint]:
    """Reproduce Figure 2: mean (and quartiles) of tags read per distance.

    ``recorder``, when given, records every pass and absorbs each
    distance's trial set (observations plus per-trial wall times) —
    recording never perturbs the results.

    Each distance seeds its trials with ``seed ^ int(distance * 1000)``;
    two distances with the same ``int(distance * 1000)`` would share a
    seed (and, if equal, one result), so such a pair raises
    :class:`ValueError`, as does a non-positive distance; both are
    checked before any pass runs.
    """
    seen: Dict[int, float] = {}
    for distance in distances_m:
        if distance <= 0.0:
            raise ValueError(f"distance must be positive, got {distance!r}")
        key = int(distance * 1000)
        if key in seen:
            raise ValueError(
                f"distances {seen[key]!r} m and {distance!r} m share the "
                f"seed offset int(distance * 1000) = {key}"
            )
        seen[key] = distance
    sim = PaperSetup().simulator(single_antenna_portal(), recorder)
    results: Dict[float, ReadRangePoint] = {}
    for distance in distances_m:
        carrier = _shared_tag_plane(distance)
        epcs = [t.epc for t in carrier.tags]
        label = f"read-range@{distance}m"
        trial_set = run_trials(
            label,
            PassTrialTask(simulator=sim, carriers=(carrier,)),
            repetitions,
            seed=seed ^ int(distance * 1000),
            workers=workers,
            recorder=recorder,
        )
        distribution = trial_set.count_distribution(
            lambda r: r.tags_read(epcs), total=len(epcs)
        )
        results[distance] = ReadRangePoint(distance, distribution)
    return results
