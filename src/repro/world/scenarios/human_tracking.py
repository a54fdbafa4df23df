"""Tables 2, 4 and 5 / Figures 6-7 scenarios: tracking people.

The paper hangs tags at waist level ("from the belt or pocket, as
often seen with ID cards") and walks one or two volunteers past the
antenna at ~1 m, 20 repetitions per configuration. Two-subject walks
are abreast "to maximize blocking".

* **Table 2** — single tag per placement, one antenna: per-placement
  read reliability for one subject and for the closer/farther of two.
* **Table 4** — redundant tags (2 or 4 per person), one antenna.
* **Table 5** — one, two or four tags with a two-antenna portal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ...core.calibration import PaperSetup
from ...core.experiment import DEFAULT_SEED, run_trials, stable_hash
from ...core.parallel import PassTrialTask
from ...core.redundancy import combined_reliability
from ...core.reliability import ReliabilityEstimate, tracking_success
from ...obs.recorder import Recorder
from ...protocol.epc import EpcFactory
from ..humans import Human, HumanTagPlacement, two_abreast
from ..motion import LinearPass
from ..portal import dual_antenna_portal, single_antenna_portal
from ..simulation import CarrierGroup, Occluder

PAPER_REPETITIONS = 20

#: Placement sets used by the redundancy tables.
PLACEMENT_SETS: Dict[str, Tuple[str, ...]] = {
    "front_back": (HumanTagPlacement.FRONT, HumanTagPlacement.BACK),
    "sides": (HumanTagPlacement.SIDE_CLOSER, HumanTagPlacement.SIDE_FARTHER),
    "all": (
        HumanTagPlacement.FRONT,
        HumanTagPlacement.BACK,
        HumanTagPlacement.SIDE_CLOSER,
        HumanTagPlacement.SIDE_FARTHER,
    ),
}


#: Calibrated carrier-local clutter for walking subjects: the body and
#: hanging tag sway and scatter, and both move with the tag.
HUMAN_CLUTTER_SIGMA_DB = 5.0


def build_walk(
    subjects: int,
    placements: Sequence[str],
    clutter_sigma_db: float = HUMAN_CLUTTER_SIGMA_DB,
) -> Tuple[CarrierGroup, List[Human]]:
    """One or two subjects walking the lane with tags at ``placements``."""
    if subjects not in (1, 2):
        raise ValueError(f"the paper tests 1 or 2 subjects, got {subjects!r}")
    if not placements:
        raise ValueError("need at least one tag placement")
    humans = (
        [Human("subject-0")] if subjects == 1 else two_abreast()
    )
    factory = EpcFactory()
    for human in humans:
        for placement in placements:
            human.attach_tag(factory.next_epc().to_hex(), placement)
    occluders = [
        Occluder(
            centre=h.torso_centre(),
            radius_m=h.torso_radius_m,
            material=h.torso_material,
            reflective=True,
        )
        for h in humans
    ]
    carrier = CarrierGroup(
        motion=LinearPass.centered_lane_pass(
            lane_distance_m=1.0, speed_mps=1.0, half_span_m=2.0, height_m=0.0
        ),
        tags=[t for h in humans for t in h.tags],
        occluders=occluders,
        clutter_sigma_db=clutter_sigma_db,
    )
    return carrier, humans


@dataclass
class HumanPlacementResult:
    """Table 2 style row: reliability per placement and subject role."""

    placement: str
    one_subject: ReliabilityEstimate
    two_subject_closer: ReliabilityEstimate
    two_subject_farther: ReliabilityEstimate

    @property
    def two_subject_average(self) -> float:
        return (
            self.two_subject_closer.rate + self.two_subject_farther.rate
        ) / 2.0


def run_table2_experiment(
    placements: Sequence[str] = (
        HumanTagPlacement.FRONT,
        HumanTagPlacement.SIDE_CLOSER,
        HumanTagPlacement.SIDE_FARTHER,
    ),
    repetitions: int = PAPER_REPETITIONS,
    seed: int = DEFAULT_SEED,
    workers: Optional[int] = None,
    recorder: Optional[Recorder] = None,
) -> Dict[str, HumanPlacementResult]:
    """Reproduce Table 2: per-placement read reliability, 1 and 2 subjects.

    The paper's "Front / Back" row pools the two symmetric placements;
    we measure FRONT and report it for that row (BACK is symmetric
    under the pass geometry). ``recorder`` turns observability on for
    every pass; results are bit-identical with or without it.
    """
    sim = PaperSetup().simulator(single_antenna_portal(), recorder)
    results: Dict[str, HumanPlacementResult] = {}
    for placement in placements:
        # One subject.
        carrier1, humans1 = build_walk(1, [placement])
        epc1 = humans1[0].tags[0].epc
        label1 = f"table2:one:{placement}"
        set1 = run_trials(
            label1,
            PassTrialTask(simulator=sim, carriers=(carrier1,)),
            repetitions,
            seed=seed ^ stable_hash("one:" + placement),
            workers=workers,
            recorder=recorder,
        )
        one = set1.success_estimate(lambda r: epc1 in r.read_epcs)

        # Two subjects, same placement on each.
        carrier2, humans2 = build_walk(2, [placement])
        closer_epc = humans2[0].tags[0].epc
        farther_epc = humans2[1].tags[0].epc
        label2 = f"table2:two:{placement}"
        set2 = run_trials(
            label2,
            PassTrialTask(simulator=sim, carriers=(carrier2,)),
            repetitions,
            seed=seed ^ stable_hash("two:" + placement),
            workers=workers,
            recorder=recorder,
        )
        closer = set2.success_estimate(lambda r: closer_epc in r.read_epcs)
        farther = set2.success_estimate(lambda r: farther_epc in r.read_epcs)
        results[placement] = HumanPlacementResult(
            placement=placement,
            one_subject=one,
            two_subject_closer=closer,
            two_subject_farther=farther,
        )
    return results


@dataclass(frozen=True)
class HumanRedundancyCase:
    """One Table 4/5 row."""

    name: str
    antennas: int
    subjects: int
    placement_set: str


@dataclass
class HumanRedundancyOutcome:
    """Measured person-tracking reliability plus paper-style R_C."""

    case: HumanRedundancyCase
    measured_per_person: Dict[str, ReliabilityEstimate]
    calculated: float

    @property
    def measured_average(self) -> float:
        rates = [e.rate for e in self.measured_per_person.values()]
        return sum(rates) / len(rates)


def run_human_redundancy_experiment(
    cases: Sequence[HumanRedundancyCase],
    single_opportunity: Dict[str, float],
    repetitions: int = PAPER_REPETITIONS,
    seed: int = DEFAULT_SEED,
    workers: Optional[int] = None,
) -> List[HumanRedundancyOutcome]:
    """Tables 4 and 5: tag- and antenna-level redundancy for people.

    ``single_opportunity`` maps placement name to its single-antenna
    single-subject reliability (Table 2 measurements), used for the R_C
    column exactly as the paper does.
    """
    outcomes: List[HumanRedundancyOutcome] = []
    for case in cases:
        portal = (
            single_antenna_portal()
            if case.antennas == 1
            else dual_antenna_portal()
        )
        sim = PaperSetup().simulator(portal)
        placements = PLACEMENT_SETS[case.placement_set]
        carrier, humans = build_walk(case.subjects, placements)
        person_epcs = {
            h.person_id: [t.epc for t in h.tags] for h in humans
        }
        trial_set = run_trials(
            f"human-redundancy:{case.name}",
            PassTrialTask(simulator=sim, carriers=(carrier,)),
            repetitions,
            seed=seed ^ stable_hash(case.name),
            workers=workers,
        )
        measured: Dict[str, ReliabilityEstimate] = {}
        for person_id, epcs in person_epcs.items():
            measured[person_id] = ReliabilityEstimate.from_outcomes(
                [
                    tracking_success(o.read_epcs, epcs)
                    for o in trial_set.outcomes
                ]
            )
        ps = [
            single_opportunity[p]
            for p in placements
            for _ in range(case.antennas)
        ]
        outcomes.append(
            HumanRedundancyOutcome(
                case=case,
                measured_per_person=measured,
                calculated=combined_reliability(ps),
            )
        )
    return outcomes


TABLE4_CASES: Tuple[HumanRedundancyCase, ...] = (
    HumanRedundancyCase("1ant/2tags/front+back/1subj", 1, 1, "front_back"),
    HumanRedundancyCase("1ant/2tags/sides/1subj", 1, 1, "sides"),
    HumanRedundancyCase("1ant/4tags/all/1subj", 1, 1, "all"),
    HumanRedundancyCase("1ant/2tags/front+back/2subj", 1, 2, "front_back"),
    HumanRedundancyCase("1ant/2tags/sides/2subj", 1, 2, "sides"),
    HumanRedundancyCase("1ant/4tags/all/2subj", 1, 2, "all"),
)

TABLE5_CASES: Tuple[HumanRedundancyCase, ...] = (
    HumanRedundancyCase("2ant/2tags/front+back/1subj", 2, 1, "front_back"),
    HumanRedundancyCase("2ant/2tags/sides/1subj", 2, 1, "sides"),
    HumanRedundancyCase("2ant/4tags/all/1subj", 2, 1, "all"),
    HumanRedundancyCase("2ant/2tags/front+back/2subj", 2, 2, "front_back"),
    HumanRedundancyCase("2ant/2tags/sides/2subj", 2, 2, "sides"),
    HumanRedundancyCase("2ant/4tags/all/2subj", 2, 2, "all"),
)
