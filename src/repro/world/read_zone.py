"""Read-zone mapping: where can a portal actually read?

Deployments need the spatial footprint of a portal — for placing
conveyor lanes inside it and staging areas outside it (the
false-positive concern). This module Monte-Carlo maps the probability
of reading a reference tag over an (x, z) grid at a fixed height,
producing data ready for :func:`repro.analysis.figures.heatmap`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..core.experiment import DEFAULT_SEED
from ..protocol.epc import EpcFactory
from ..rf.geometry import Vec3
from ..sim.rng import SeedSequence
from .motion import StationaryPlacement
from .portal import Portal
from .simulation import CarrierGroup, PortalPassSimulator
from .tags import Tag, TagOrientation


@dataclass(frozen=True)
class ReadZoneMap:
    """P(read) over a regular (x, z) grid at one height."""

    x_values: Tuple[float, ...]
    z_values: Tuple[float, ...]
    height_m: float
    #: probabilities[zi][xi] — row-major with z as the row axis.
    probabilities: Tuple[Tuple[float, ...], ...]

    def probability_at(self, xi: int, zi: int) -> float:
        return self.probabilities[zi][xi]

    def covered_cells(self, threshold: float = 0.9) -> int:
        """Grid cells with read probability at or above ``threshold``."""
        return sum(
            1 for row in self.probabilities for p in row if p >= threshold
        )

    def max_reliable_range_m(self, threshold: float = 0.9) -> float:
        """Largest z (boresight distance) still read at ``threshold``."""
        best = 0.0
        for zi, z in enumerate(self.z_values):
            if any(p >= threshold for p in self.probabilities[zi]):
                best = max(best, z)
        return best


def map_read_zone(
    portal: Portal,
    simulator: Optional[PortalPassSimulator] = None,
    x_range: Tuple[float, float] = (-3.0, 3.0),
    z_range: Tuple[float, float] = (0.5, 8.0),
    steps: int = 12,
    height_m: float = 1.0,
    trials: int = 8,
    dwell_s: float = 0.3,
    orientation: TagOrientation = TagOrientation.CASE_2_HORIZONTAL_FACING,
    seed: int = DEFAULT_SEED,
) -> ReadZoneMap:
    """Monte-Carlo the portal's read zone with a reference tag.

    Each grid cell gets ``trials`` independent stationary dwells of a
    single facing tag; the cell's value is the fraction of dwells with
    at least one read.
    """
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps!r}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials!r}")
    if simulator is None:
        # Function-local: repro.core.calibration imports this package.
        from ..core.calibration import PaperSetup

        simulator = PaperSetup().simulator(portal)

    xs = tuple(
        x_range[0] + i * (x_range[1] - x_range[0]) / (steps - 1)
        for i in range(steps)
    )
    zs = tuple(
        z_range[0] + i * (z_range[1] - z_range[0]) / (steps - 1)
        for i in range(steps)
    )
    factory = EpcFactory()
    rows: List[Tuple[float, ...]] = []
    for zi, z in enumerate(zs):
        row: List[float] = []
        for xi, x in enumerate(xs):
            tag = Tag(
                epc=factory.next_epc().to_hex(),
                local_position=Vec3(0.0, height_m, 0.0),
                orientation=orientation,
            )
            carrier = CarrierGroup(
                motion=StationaryPlacement(
                    position=Vec3(x, 0.0, z), duration_s=dwell_s
                ),
                tags=[tag],
            )
            seeds = SeedSequence(seed ^ (zi * 1009 + xi))
            scene = simulator.compile([carrier])
            hits = sum(
                1
                for trial in range(trials)
                if simulator.run_pass(scene, seeds, trial).read_epcs
            )
            row.append(hits / trials)
        rows.append(tuple(row))
    return ReadZoneMap(
        x_values=xs,
        z_values=zs,
        height_m=height_m,
        probabilities=tuple(rows),
    )
