"""The scene catalog: every named single pass, in one registry.

A scene is one canonical pass of a paper setup — the Table 1 box cart,
the Table 2 walking subject, the Figure 2 tag plane — plus the variants
that stress one layer (redundant tags, a collision-saturated protocol,
an injected antenna fault). ``build()`` returns a fresh
:class:`~repro.core.parallel.PassTrialTask`, so a caller may attach a
recorder or run it on a pool without touching anyone else's copy.

``repro explain`` re-runs a scene by name, the golden-trace pillar pins
each one under ``tests/golden/<name>.json``, and the metamorphic checks
draw their instrumented passes from here.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict

from ...core.calibration import PaperSetup
from ...core.parallel import PassTrialTask
from ...faults.plan import AntennaFault, FaultPlan
from ..humans import HumanTagPlacement
from ..objects import BoxFace
from ..portal import single_antenna_portal
from ..simulation import CarrierGroup
from .human_tracking import build_walk
from .object_tracking import build_box_cart
from .read_range import build_tag_plane


@dataclass(frozen=True)
class Scene:
    """One named single pass."""

    name: str
    description: str
    #: Returns a fresh task: simulator, carriers and fault plan.
    build: Callable[[], PassTrialTask]
    #: Trials the golden-trace pin records.
    trials: int = 2


def _single_antenna(carrier: CarrierGroup) -> PassTrialTask:
    simulator = PaperSetup().simulator(single_antenna_portal())
    return PassTrialTask(simulator=simulator, carriers=(carrier,))


def _cart_front() -> PassTrialTask:
    carrier, _ = build_box_cart([BoxFace.FRONT])
    return _single_antenna(carrier)


def _cart_front_back() -> PassTrialTask:
    carrier, _ = build_box_cart([BoxFace.FRONT, BoxFace.BACK])
    return _single_antenna(carrier)


def _walk_front() -> PassTrialTask:
    carrier, _ = build_walk(1, [HumanTagPlacement.FRONT])
    return _single_antenna(carrier)


def _tag_plane_3m() -> PassTrialTask:
    return _single_antenna(build_tag_plane(3.0))


def _cart_collisions() -> PassTrialTask:
    """The cart with one-slot frames pinned: every round collides, so
    this trace is dense in collision slots — the workload that catches
    a flipped slot outcome."""
    task = _cart_front()
    sim = task.simulator
    sim.params = dataclasses.replace(sim.params, q_initial=0, q_max=0)
    return task


def _cart_antenna_fault() -> PassTrialTask:
    fault = AntennaFault(reader_id="reader-0", antenna_id="ant-0", start_s=1.0)
    return dataclasses.replace(
        _cart_front(), fault_plan=FaultPlan(antenna_faults=(fault,))
    )


#: One scene per experiment axis: baseline object cart, tag redundancy,
#: human tracking, the Figure 2 tag plane, a collision-saturated
#: protocol trace, and a faulted pass.
SCENES: Dict[str, Scene] = {
    scene.name: scene
    for scene in (
        Scene(
            "cart-front",
            "Table 1 box cart, front tags, single antenna",
            _cart_front,
        ),
        Scene(
            "cart-front-back",
            "Box cart with redundant front+back tags",
            _cart_front_back,
        ),
        Scene(
            "walk-front",
            "Table 2 walking subject, front tag",
            _walk_front,
        ),
        Scene(
            "tag-plane-3m",
            "Figure 2 twenty-tag plane at 3 m, single poll",
            _tag_plane_3m,
        ),
        Scene(
            "cart-collisions",
            "Box cart with one-slot frames (collision-saturated)",
            _cart_collisions,
            trials=1,
        ),
        Scene(
            "cart-antenna-fault",
            "Box cart with the antenna going silent at t=1s",
            _cart_antenna_fault,
            trials=1,
        ),
    )
}


def get_scene(name: str) -> Scene:
    """The scene called ``name``; ``ValueError`` names the known ones."""
    scene = SCENES.get(name)
    if scene is None:
        known = ", ".join(sorted(SCENES))
        raise ValueError(f"unknown scenario {name!r}; known: {known}")
    return scene
