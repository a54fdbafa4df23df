"""Figure 4 scenario: inter-tag distance x tag orientation.

The paper: 10 tags in parallel on a cardboard box, carted past a
single antenna at ~1 m/s and 1 m lane distance — "a situation where
items are carried by a conveyor belt through a gate". Five inter-tag
spacings (0.3, 4, 10, 20, 40 mm) crossed with the six Figure 3
orientations, at least 10 repetitions each.

Tags are stacked along their inlay normal (like book covers on a
shelf — the paper's own motivating image), so parallel neighbours
couple fully at small spacings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ...core.calibration import PaperSetup
from ...core.experiment import DEFAULT_SEED, run_trials
from ...core.parallel import PassTrialTask
from ...core.reliability import CountDistribution
from ...protocol.epc import EpcFactory
from ...rf.geometry import Vec3
from ..motion import LinearPass
from ..portal import single_antenna_portal
from ..simulation import CarrierGroup, PortalPassSimulator
from ..tags import ALL_ORIENTATIONS, Tag, TagOrientation

PAPER_SPACINGS_M = (0.0003, 0.004, 0.010, 0.020, 0.040)
PAPER_TAG_COUNT = 10
PAPER_REPETITIONS = 10

#: Height of the tag row on the cart.
TAG_HEIGHT_M = 1.0


def build_tag_row(
    spacing_m: float,
    orientation: TagOrientation,
    tag_count: int = PAPER_TAG_COUNT,
) -> CarrierGroup:
    """Ten parallel tags stacked along their normal, riding the cart."""
    if spacing_m < 0.0:
        raise ValueError(f"spacing must be non-negative, got {spacing_m!r}")
    if tag_count < 1:
        raise ValueError(f"tag count must be >= 1, got {tag_count!r}")
    factory = EpcFactory()
    stack_axis = orientation.normal
    tags: List[Tag] = []
    span = (tag_count - 1) * spacing_m
    for i in range(tag_count):
        offset = stack_axis * (i * spacing_m - span / 2.0)
        tags.append(
            Tag(
                epc=factory.next_epc().to_hex(),
                local_position=Vec3(
                    offset.x, TAG_HEIGHT_M + offset.y, offset.z
                ),
                orientation=orientation,
                label=f"row-{i}",
            )
        )
    return CarrierGroup(
        motion=LinearPass.centered_lane_pass(
            lane_distance_m=1.0, speed_mps=1.0, half_span_m=2.0, height_m=0.0
        ),
        tags=tags,
    )


@dataclass
class OrientationSpacingPoint:
    """Tags-read distribution for one (orientation, spacing) cell."""

    orientation: TagOrientation
    spacing_m: float
    distribution: CountDistribution

    @property
    def mean_tags_read(self) -> float:
        return self.distribution.mean


def run_orientation_spacing_experiment(
    spacings_m: Sequence[float] = PAPER_SPACINGS_M,
    orientations: Sequence[TagOrientation] = ALL_ORIENTATIONS,
    repetitions: int = PAPER_REPETITIONS,
    seed: int = DEFAULT_SEED,
    simulator: Optional[PortalPassSimulator] = None,
    workers: Optional[int] = None,
) -> Dict[Tuple[int, float], OrientationSpacingPoint]:
    """Reproduce Figure 4: the full orientation x spacing grid.

    Returns a dict keyed by (orientation case number, spacing).
    """
    sim = simulator or PaperSetup().simulator(single_antenna_portal())
    results: Dict[Tuple[int, float], OrientationSpacingPoint] = {}
    for orientation in orientations:
        for spacing in spacings_m:
            carrier = build_tag_row(spacing, orientation)
            epcs = [t.epc for t in carrier.tags]
            trial_set = run_trials(
                f"fig4:case{orientation.case_number}@{spacing * 1000:.1f}mm",
                PassTrialTask(simulator=sim, carriers=(carrier,)),
                repetitions,
                seed=seed
                ^ (orientation.case_number * 7919)
                ^ int(spacing * 1e6),
                workers=workers,
            )
            distribution = trial_set.count_distribution(
                lambda r: r.tags_read(epcs), total=len(epcs)
            )
            results[(orientation.case_number, spacing)] = OrientationSpacingPoint(
                orientation, spacing, distribution
            )
    return results


def minimum_safe_spacing(
    results: Dict[Tuple[int, float], OrientationSpacingPoint],
    case_number: int,
    threshold_fraction: float = 0.9,
) -> float:
    """Smallest tested spacing whose mean read fraction clears a threshold.

    The paper's headline: "tags require at least 20 to 40 mm spacing
    between them to operate in a reliable fashion". Returns ``inf``
    when no tested spacing clears the bar (the perpendicular cases
    never reach 90% regardless of spacing).
    """
    candidates = sorted(
        (point.spacing_m, point.distribution.mean_fraction)
        for (case, _), point in results.items()
        if case == case_number
    )
    if not candidates:
        raise ValueError(f"no results for orientation case {case_number}")
    # Reliability must be judged relative to this orientation's own
    # wide-spacing plateau, otherwise pattern loss masks coupling.
    plateau = candidates[-1][1]
    if plateau <= 0.0:
        return float("inf")
    for spacing, fraction in candidates:
        if fraction >= threshold_fraction * plateau:
            return spacing
    return float("inf")
