"""Table 1 and Table 3/Figure 5 scenarios: tracking tagged router boxes.

The paper: 12 identical boxes, each containing a network router
("metal casing and relatively large size ... a challenging scenario"),
stacked on a cart as three rows of 2x2 and carted past the antenna at
1 m/s and 1 m lane distance, 12 repetitions.

* **Table 1** puts one tag per box at a fixed location (front / side
  closer / side farther / top) and measures per-tag read reliability.
* **Table 3 / Figure 5** adds redundancy: two antennas per portal,
  two tags per box (front + side), or both, and measures per-object
  *tracking* reliability against the analytical R_C.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ...core.calibration import PaperSetup
from ...core.experiment import DEFAULT_SEED, run_trials, stable_hash
from ...core.parallel import PassTrialTask
from ...core.redundancy import combined_reliability
from ...core.reliability import ReliabilityEstimate, tracking_success
from ...obs.recorder import Recorder
from ...protocol.epc import EpcFactory
from ..motion import LinearPass
from ..objects import BoxFace, TaggedBox, cart_of_boxes
from ..portal import dual_antenna_portal, single_antenna_portal
from ..simulation import CarrierGroup, Occluder

PAPER_BOX_COUNT = 12
PAPER_REPETITIONS = 12

#: Face keys as the paper's Table 1 rows name them.
TABLE1_LOCATIONS: Tuple[BoxFace, ...] = (
    BoxFace.FRONT,
    BoxFace.SIDE_CLOSER,
    BoxFace.SIDE_FARTHER,
    BoxFace.TOP,
)


#: Calibrated carrier-local clutter for a cart of metal-content boxes:
#: the surrounding routers scatter strongly and the scatterers ride
#: with the tags (see CarrierGroup.clutter_sigma_db).
BOX_CART_CLUTTER_SIGMA_DB = 7.0


def _has_box_above(box: TaggedBox, boxes: Sequence[TaggedBox]) -> bool:
    """True when another box sits directly on top of ``box``."""
    for other in boxes:
        if other.box_id == box.box_id:
            continue
        same_column = (
            abs(other.local_position.x - box.local_position.x) < 0.05
            and abs(other.local_position.z - box.local_position.z) < 0.05
        )
        if same_column and other.local_position.y > box.local_position.y:
            return True
    return False


def build_box_cart(
    faces_per_box: Sequence[BoxFace],
    box_count: int = PAPER_BOX_COUNT,
    clutter_sigma_db: float = BOX_CART_CLUTTER_SIGMA_DB,
) -> Tuple[CarrierGroup, List[TaggedBox]]:
    """The loaded cart: boxes with tags on the given faces, plus occluders."""
    if not faces_per_box:
        raise ValueError("each box needs at least one tagged face")
    boxes = cart_of_boxes(box_count=box_count)
    factory = EpcFactory()
    occluders: List[Occluder] = []
    for box in boxes:
        for face in faces_per_box:
            tag = box.attach_tag(factory.next_epc().to_hex(), face)
            if face is BoxFace.TOP and _has_box_above(box, boxes):
                # A stacked box sandwiches the top tag against the
                # upper box's (metal-filled) base: near-contact detuning.
                tag.mount_gap_m = 0.005
        content_centre = box.content_centre()
        if content_centre is not None and box.content is not None:
            occluders.append(
                Occluder(
                    centre=content_centre,
                    radius_m=box.content.radius_m,
                    material=box.content.material,
                )
            )
    carrier = CarrierGroup(
        motion=LinearPass.centered_lane_pass(
            lane_distance_m=1.0, speed_mps=1.0, half_span_m=2.5, height_m=0.0
        ),
        tags=[tag for box in boxes for tag in box.all_tags()],
        occluders=occluders,
        clutter_sigma_db=clutter_sigma_db,
    )
    return carrier, boxes


@dataclass
class ObjectTrackingResult:
    """Per-configuration outcome: tag-level and object-level reliability."""

    label: str
    tag_reliability: Dict[BoxFace, ReliabilityEstimate] = field(
        default_factory=dict
    )
    tracking_reliability: Optional[ReliabilityEstimate] = None

    @property
    def average_tag_reliability(self) -> float:
        if not self.tag_reliability:
            raise ValueError("no tag reliabilities recorded")
        rates = [e.rate for e in self.tag_reliability.values()]
        return sum(rates) / len(rates)


def run_table1_experiment(
    locations: Sequence[BoxFace] = TABLE1_LOCATIONS,
    repetitions: int = PAPER_REPETITIONS,
    seed: int = DEFAULT_SEED,
    workers: Optional[int] = None,
    recorder: Optional[Recorder] = None,
) -> Dict[BoxFace, ReliabilityEstimate]:
    """Reproduce Table 1: per-location tag read reliability.

    Each location is measured in its own run (as the paper did: "We
    performed this experiment for different tag locations"), one tag
    per box, 12 boxes x 12 repetitions = 144 Bernoulli trials per row.
    ``recorder`` turns observability on for every pass; results are
    bit-identical with or without it.
    """
    sim = PaperSetup().simulator(single_antenna_portal(), recorder)
    results: Dict[BoxFace, ReliabilityEstimate] = {}
    for face in locations:
        carrier, boxes = build_box_cart([face])
        epcs = [t.epc for t in carrier.tags]
        label = f"table1:{face.value}"
        trial_set = run_trials(
            label,
            PassTrialTask(simulator=sim, carriers=(carrier,)),
            repetitions,
            seed=seed ^ stable_hash(face.value),
            workers=workers,
            recorder=recorder,
        )
        successes = 0
        for outcome in trial_set.outcomes:
            seen = outcome.read_epcs
            successes += sum(1 for epc in epcs if epc in seen)
        results[face] = ReliabilityEstimate(
            successes=successes, trials=len(epcs) * repetitions
        )
    return results


@dataclass(frozen=True)
class RedundancyCase:
    """One Table 3 row: a portal and a tag placement set."""

    name: str
    antennas: int
    faces: Tuple[BoxFace, ...]


TABLE3_CASES: Tuple[RedundancyCase, ...] = (
    RedundancyCase("1 antenna, 1 tag (front)", 1, (BoxFace.FRONT,)),
    RedundancyCase("1 antenna, 1 tag (side)", 1, (BoxFace.SIDE_CLOSER,)),
    RedundancyCase("2 antennas, 1 tag (front)", 2, (BoxFace.FRONT,)),
    RedundancyCase("2 antennas, 1 tag (side)", 2, (BoxFace.SIDE_CLOSER,)),
    RedundancyCase(
        "1 antenna, 2 tags (front+side)", 1, (BoxFace.FRONT, BoxFace.SIDE_CLOSER)
    ),
    RedundancyCase(
        "2 antennas, 2 tags (front+side)", 2, (BoxFace.FRONT, BoxFace.SIDE_CLOSER)
    ),
)


@dataclass
class RedundancyOutcome:
    """Measured tracking reliability plus the paper-style R_C prediction."""

    case: RedundancyCase
    measured: ReliabilityEstimate
    calculated: float


def run_object_redundancy_experiment(
    cases: Sequence[RedundancyCase] = TABLE3_CASES,
    repetitions: int = PAPER_REPETITIONS,
    seed: int = DEFAULT_SEED,
    single_opportunity: Optional[Dict[BoxFace, float]] = None,
    workers: Optional[int] = None,
    recorder: Optional[Recorder] = None,
) -> List[RedundancyOutcome]:
    """Reproduce Table 3 / Figure 5: redundancy for object tracking.

    ``single_opportunity`` supplies the per-face single-antenna
    reliabilities used for the R_C columns; by default they are
    measured first with :func:`run_table1_experiment`, mirroring the
    paper ("R_C is calculated based on the read reliabilities measured
    in Section 3").
    """
    if single_opportunity is None:
        table1 = run_table1_experiment(
            repetitions=repetitions, seed=seed, workers=workers,
            recorder=recorder,
        )
        single_opportunity = {face: est.rate for face, est in table1.items()}

    outcomes: List[RedundancyOutcome] = []
    for case in cases:
        portal = (
            single_antenna_portal()
            if case.antennas == 1
            else dual_antenna_portal()
        )
        sim = PaperSetup().simulator(portal, recorder)
        carrier, boxes = build_box_cart(list(case.faces))
        box_epcs: List[List[str]] = [
            [tag.epc for tag in box.all_tags()] for box in boxes
        ]
        label = f"table3:{case.name}"
        trial_set = run_trials(
            label,
            PassTrialTask(simulator=sim, carriers=(carrier,)),
            repetitions,
            seed=seed ^ stable_hash(case.name),
            workers=workers,
            recorder=recorder,
        )
        successes = 0
        trials = 0
        for outcome in trial_set.outcomes:
            seen = outcome.read_epcs
            for epcs in box_epcs:
                trials += 1
                if tracking_success(seen, epcs):
                    successes += 1
        measured = ReliabilityEstimate(successes=successes, trials=trials)

        # Paper-style R_C: every (tag, antenna) pair is an opportunity
        # with the single-antenna measured reliability for its face.
        ps = [
            single_opportunity[face]
            for face in case.faces
            for _ in range(case.antennas)
        ]
        outcomes.append(
            RedundancyOutcome(
                case=case, measured=measured, calculated=combined_reliability(ps)
            )
        )
    return outcomes
