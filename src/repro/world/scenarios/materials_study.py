"""Tagged-materials study (the paper's reference [12]).

The paper cites Ramakrishnan & Deavours' performance benchmark, which
measured "read reliability for different tagged materials on a conveyer
belt". Section 2.1 summarises the physics: "Materials such as metals
and liquids not only block the signal when the material is placed
between the antenna and the tag, but may act as a grounding plate if
the tag is too close to the material."

This scenario reruns the paper's box-cart workload with the box
*contents* swept over materials — empty, cardboard-only, metal, liquid
— so the material effect is measured with everything else held fixed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ...core.calibration import PaperSetup
from ...core.experiment import DEFAULT_SEED, run_trials, stable_hash
from ...core.parallel import PassTrialTask
from ...core.reliability import ReliabilityEstimate
from ...protocol.epc import EpcFactory
from ...rf.materials import CARDBOARD, LIQUID, METAL, Material
from ..motion import LinearPass
from ..objects import BoxContent, BoxFace, cart_of_boxes
from ..portal import single_antenna_portal
from ..simulation import CarrierGroup, Occluder

#: Content configurations swept by the study: name -> (material, radius).
MATERIAL_CASES: Dict[str, Optional[Tuple[Material, float]]] = {
    "empty": None,
    "cardboard": (CARDBOARD, 0.125),
    "liquid": (LIQUID, 0.125),
    "metal": (METAL, 0.125),
}

PAPER_REPETITIONS = 10


def build_material_cart(
    case: str,
    face: BoxFace = BoxFace.SIDE_CLOSER,
    clutter_sigma_db: float = 5.0,
) -> Tuple[CarrierGroup, List[str]]:
    """The 12-box cart with every box filled per ``case``.

    Tags go on the antenna-facing side so the *content* effect (not
    geometry) dominates; returns the carrier and its tag EPCs.
    """
    if case not in MATERIAL_CASES:
        known = ", ".join(sorted(MATERIAL_CASES))
        raise ValueError(f"unknown material case {case!r}; known: {known}")
    boxes = cart_of_boxes()
    spec = MATERIAL_CASES[case]
    factory = EpcFactory()
    occluders: List[Occluder] = []
    for box in boxes:
        if spec is None:
            box.content = None
        else:
            material, radius = spec
            box.content = BoxContent(material=material, radius_m=radius)
        box.attach_tag(factory.next_epc().to_hex(), face)
        centre = box.content_centre()
        if centre is not None and box.content is not None:
            occluders.append(
                Occluder(
                    centre=centre,
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
    return carrier, [t.epc for t in carrier.tags]


@dataclass(frozen=True)
class MaterialStudyResult:
    """Per-material read reliability."""

    rates: Dict[str, ReliabilityEstimate]

    def ordered(self) -> List[Tuple[str, float]]:
        """(case, rate) pairs, most readable first."""
        return sorted(
            ((name, est.rate) for name, est in self.rates.items()),
            key=lambda pair: pair[1],
            reverse=True,
        )


def run_materials_study(
    cases: Sequence[str] = tuple(MATERIAL_CASES),
    repetitions: int = PAPER_REPETITIONS,
    seed: int = DEFAULT_SEED,
    workers: Optional[int] = None,
) -> MaterialStudyResult:
    """Measure per-material tag read reliability on the conveyor pass."""
    simulator = PaperSetup().simulator(single_antenna_portal())
    rates: Dict[str, ReliabilityEstimate] = {}
    for case in cases:
        carrier, epcs = build_material_cart(case)
        trials = run_trials(
            f"materials:{case}",
            PassTrialTask(simulator=simulator, carriers=(carrier,)),
            repetitions,
            seed=seed ^ stable_hash(f"materials:{case}"),
            workers=workers,
        )
        successes = sum(o.tags_read(epcs) for o in trials.outcomes)
        rates[case] = ReliabilityEstimate(
            successes=successes, trials=len(epcs) * repetitions
        )
    return MaterialStudyResult(rates=rates)
