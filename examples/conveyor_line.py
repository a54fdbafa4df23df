#!/usr/bin/env python3
"""Conveyor-line scenario: spacing, speed, and software correction.

Scenario (paper Section 3, Figure 4 motivation): items ride a conveyor
belt through a read gate. Line engineers control three things — the
spacing between tagged items, the belt speed, and the software layer
behind the readers. This example quantifies all three:

1. **Spacing sweep** — how close can tagged items ride before
   near-field coupling kills reads (the paper's 20-40 mm rule)?
2. **Speed sweep** — how fast can the belt run before dwell starvation?
3. **Software correction** — a route constraint (checkpoints along the
   line) recovers misses that physics could not prevent.

Run:
    python examples/conveyor_line.py      (takes a minute or two)
"""

from repro.core.calibration import PaperSetup
from repro.core.constraints import Observation, RouteConstraint
from repro.core.experiment import run_trials
from repro.protocol.epc import EpcFactory
from repro.rf.geometry import Vec3
from repro.world.motion import LinearPass
from repro.world.portal import single_antenna_portal
from repro.world.scenarios.orientation_spacing import build_tag_row
from repro.world.simulation import CarrierGroup, PortalPassSimulator
from repro.world.tags import Tag, TagOrientation

TRIALS = 6


def spacing_sweep(simulator: PortalPassSimulator) -> None:
    print("1. Item spacing (10 parallel tags, facing orientation):")
    for spacing_mm in (0.3, 4, 10, 20, 40):
        carrier = build_tag_row(
            spacing_mm / 1000.0, TagOrientation.CASE_2_HORIZONTAL_FACING
        )
        epcs = [t.epc for t in carrier.tags]
        trials = run_trials(
            f"spacing-{spacing_mm}",
            lambda seeds, i: simulator.run_pass([carrier], seeds, i),
            TRIALS,
        )
        mean = sum(o.tags_read(epcs) for o in trials.outcomes) / TRIALS
        bar = "#" * int(round(mean))
        print(f"   {spacing_mm:5.1f} mm : {mean:4.1f}/10 {bar}")
    print("   -> match the paper: allow >= 20-40 mm between tagged items.\n")


def speed_sweep(simulator: PortalPassSimulator) -> None:
    print("2. Belt speed (10 well-spaced facing tags):")
    factory = EpcFactory()
    for speed in (0.5, 1.0, 2.0, 4.0):
        tags = [
            Tag(
                epc=factory.next_epc().to_hex(),
                local_position=Vec3((i - 5) * 0.1, 1.0, 0.0),
            )
            for i in range(10)
        ]
        carrier = CarrierGroup(
            motion=LinearPass.centered_lane_pass(
                lane_distance_m=1.0, speed_mps=speed, half_span_m=2.0,
                height_m=0.0,
            ),
            tags=tags,
            clutter_sigma_db=4.0,
        )
        epcs = [t.epc for t in tags]
        trials = run_trials(
            f"speed-{speed}",
            lambda seeds, i: simulator.run_pass([carrier], seeds, i),
            TRIALS,
        )
        mean = sum(o.tags_read(epcs) for o in trials.outcomes) / TRIALS
        print(f"   {speed:3.1f} m/s : {mean:4.1f}/10 read")
    print("   -> dwell time shrinks with speed; budget ~0.02 s per tag "
          "in the gate.\n")


def software_correction() -> None:
    print("3. Route-constraint correction (three gates along the line):")
    route = RouteConstraint(["infeed", "sorter", "outfeed"])
    # Simulated day: 200 items, the middle gate misses 30% of them.
    observations = []
    missed = 0
    for i in range(200):
        item = f"item-{i:03d}"
        observations.append(Observation(item, "infeed", float(i)))
        if i % 10 < 7:
            observations.append(Observation(item, "sorter", i + 100.0))
        else:
            missed += 1
        observations.append(Observation(item, "outfeed", i + 200.0))
    recovered = route.recover(observations)
    print(f"   sorter-gate misses          : {missed}")
    print(f"   recovered by route constraint: {len(recovered)}")
    print("   -> software correction complements, not replaces, physical "
          "redundancy:\n      it only works for items seen downstream.")


def main() -> None:
    setup = PaperSetup()
    simulator = setup.simulator(single_antenna_portal())
    spacing_sweep(simulator)
    speed_sweep(simulator)
    software_correction()


if __name__ == "__main__":
    main()
