"""Tag inlays and the paper's six test orientations.

World-frame conventions (see :mod:`repro.rf.geometry`): carts and
people move along **+x**, **y** is up, and the reader antenna looks
along **+z** into the lane, so "toward the antenna" is **-z** from the
moving object's point of view.

The paper's Figure 3 tests six orientations of the Symbol single-dipole
inlay (2.5 cm x 10 cm). What matters physically is the direction of the
**dipole axis** (sets the pattern null) and the **inlay normal** (sets
the stacking direction for the inter-tag-distance experiments and which
mounting surface the tag touches). Orientations 1 and 5 point the
dipole at the antenna — those are the paper's "perpendicular to the
antenna" worst cases.
"""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Tuple

from ..rf.antenna import STOCK_DIPOLE, DipoleAntenna
from ..rf.geometry import Vec3
from ..rf.materials import AIR, Material

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .tag_designs import TagDesign as TagDesignRef
else:
    TagDesignRef = "TagDesign"

#: Symbol single-dipole inlay footprint from the paper (metres).
PAPER_TAG_LENGTH_M = 0.10
PAPER_TAG_WIDTH_M = 0.025


class TagOrientation(enum.Enum):
    """The six orientations of Figure 3, as (dipole axis, inlay normal).

    Axis vectors are in the *carrier frame* (the cart/box/person frame,
    aligned with the world frame for straight-line passes).
    """

    #: 1 — dipole points down the lane axis *at* the antenna (face sideways):
    #: pattern null toward the reader. Paper's worst case.
    CASE_1_AXIAL_EDGE = (Vec3(0.0, 0.0, 1.0), Vec3(1.0, 0.0, 0.0))
    #: 2 — dipole horizontal along the movement direction, face to the
    #: antenna. The canonical "label facing the reader" placement.
    CASE_2_HORIZONTAL_FACING = (Vec3(1.0, 0.0, 0.0), Vec3(0.0, 0.0, -1.0))
    #: 3 — dipole vertical, face to the antenna.
    CASE_3_VERTICAL_FACING = (Vec3(0.0, 1.0, 0.0), Vec3(0.0, 0.0, -1.0))
    #: 4 — dipole along movement, lying flat (face up).
    CASE_4_HORIZONTAL_FLAT = (Vec3(1.0, 0.0, 0.0), Vec3(0.0, 1.0, 0.0))
    #: 5 — dipole at the antenna, lying flat. Paper's other worst case.
    CASE_5_AXIAL_FLAT = (Vec3(0.0, 0.0, 1.0), Vec3(0.0, 1.0, 0.0))
    #: 6 — dipole vertical, edge to the antenna (face down the lane).
    CASE_6_VERTICAL_EDGE = (Vec3(0.0, 1.0, 0.0), Vec3(1.0, 0.0, 0.0))

    @property
    def dipole_axis(self) -> Vec3:
        return self.value[0]

    @property
    def normal(self) -> Vec3:
        return self.value[1]

    @property
    def case_number(self) -> int:
        """The 1-based case index used in the paper's Figure 3/4."""
        return int(self.name.split("_")[1])

    @property
    def is_perpendicular_to_antenna(self) -> bool:
        """True for the two cases whose dipole points at the reader."""
        return abs(self.dipole_axis.z) > 0.5


ALL_ORIENTATIONS: Tuple[TagOrientation, ...] = tuple(TagOrientation)


@dataclass(slots=True)
class Tag:
    """One passive tag instance placed on a carrier.

    Attributes
    ----------
    epc:
        Unique EPC hex string (24 hex digits).
    local_position:
        Position in the carrier's body frame (metres).
    orientation:
        One of the six Figure 3 orientations (carrier frame).
    mount_material:
        The material immediately behind the inlay (cardboard for the
        bare-tag tests, metal for router boxes, body for humans).
    mount_gap_m:
        Distance between inlay and that material; controls the
        grounding/detuning penalty.
    antenna:
        Radiating element model.
    design:
        Optional inlay design (see :mod:`repro.world.tag_designs`).
        ``None`` means the paper's single-dipole inlay with the link
        environment's stock antenna; a design overrides the pattern,
        scales mounting detuning, and scales inter-tag coupling.
    """

    epc: str
    local_position: Vec3 = field(default_factory=Vec3.zero)
    orientation: TagOrientation = TagOrientation.CASE_2_HORIZONTAL_FACING
    mount_material: Material = AIR
    mount_gap_m: float = 0.01
    antenna: DipoleAntenna = STOCK_DIPOLE
    label: str = ""
    design: Optional["TagDesignRef"] = None

    def __post_init__(self) -> None:
        if len(self.epc) != 24:
            raise ValueError(
                f"EPC hex must be 24 digits (96 bits), got {len(self.epc)}"
            )
        int(self.epc, 16)  # raises ValueError on malformed hex
        # One string object per EPC (and label), however many tags and
        # read events name it: scenes rebuilt per call repeat them.
        self.epc = sys.intern(self.epc)
        self.label = sys.intern(self.label)
        if self.mount_gap_m < 0.0:
            raise ValueError(
                f"mount gap must be non-negative, got {self.mount_gap_m!r}"
            )

    def detuning_db(self) -> float:
        """Grounding-plate penalty from the mounting material.

        A metal-mount or loop design largely shrugs this off (see
        ``tag_designs.DesignCharacteristics.detuning_factor``).
        """
        raw = self.mount_material.detuning_loss_db(self.mount_gap_m)
        if self.design is None:
            return raw
        from .tag_designs import characteristics

        return characteristics(self.design).detuning_factor * raw

    def pattern_gain_dbi(self, direction: Vec3) -> float:
        """Antenna gain toward ``direction`` honouring the inlay design."""
        if self.design is None:
            return self.antenna.gain_dbi(direction, self.world_dipole_axis())
        from .tag_designs import design_gain_dbi

        return design_gain_dbi(
            self.design, direction, self.world_dipole_axis()
        )

    def coupling_factor(self) -> float:
        """Multiplier on inter-tag coupling penalties for this inlay."""
        if self.design is None:
            return 1.0
        from .tag_designs import characteristics

        return characteristics(self.design).coupling_factor

    def world_position(self, carrier_position: Vec3) -> Vec3:
        """Tag position when the carrier origin sits at ``carrier_position``.

        Straight-line passes keep the carrier frame aligned with the
        world frame, so this is a pure translation.
        """
        return carrier_position + self.local_position

    def world_dipole_axis(self) -> Vec3:
        """Dipole axis in the world frame (aligned carrier assumption)."""
        return self.orientation.dipole_axis
