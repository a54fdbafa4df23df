#!/usr/bin/env python3
"""Quickstart: simulate a tagged box passing an RFID portal.

Builds the smallest end-to-end setup — one reader, one antenna, one
cardboard box with a metal router inside, one tag on the front face —
runs a few cart passes, and reports the measured read reliability next
to the paper's analytical redundancy model.

Run:
    python examples/quickstart.py
"""

from repro import PaperSetup, combined_reliability, single_antenna_portal
from repro.core.experiment import run_trials
from repro.protocol.epc import EpcFactory
from repro.world.motion import LinearPass
from repro.world.objects import BoxFace, TaggedBox
from repro.world.simulation import CarrierGroup, Occluder

TRIALS = 20


def main() -> None:
    # 1. The fixed infrastructure: one reader with one area antenna at
    #    waist height, looking into a 1 m lane (the paper's baseline).
    setup = PaperSetup()
    simulator = setup.simulator(single_antenna_portal())

    # 2. The moving world: a box with a metal router inside, one tag on
    #    the front face, riding a cart at 1 m/s.
    factory = EpcFactory()
    box = TaggedBox("router-box")
    front_tag = box.attach_tag(factory.next_epc().to_hex(), BoxFace.FRONT)
    side_tag = box.attach_tag(
        factory.next_epc().to_hex(), BoxFace.SIDE_CLOSER
    )
    carrier = CarrierGroup(
        motion=LinearPass.centered_lane_pass(
            lane_distance_m=1.0, speed_mps=1.0, half_span_m=2.0, height_m=0.0
        ),
        tags=box.all_tags(),
        occluders=[
            Occluder(
                centre=box.content_centre(),
                radius_m=box.content.radius_m,
                material=box.content.material,
            )
        ],
        clutter_sigma_db=5.0,
    )

    # 3. Repeat the pass, as the paper repeats each experiment.
    trials = run_trials(
        "quickstart",
        lambda seeds, index: simulator.run_pass([carrier], seeds, index),
        TRIALS,
    )
    front_reads = sum(
        1 for r in trials.outcomes if front_tag.epc in r.read_epcs
    )
    side_reads = sum(
        1 for r in trials.outcomes if side_tag.epc in r.read_epcs
    )
    either = sum(
        1
        for r in trials.outcomes
        if {front_tag.epc, side_tag.epc} & r.read_epcs
    )

    p_front = front_reads / TRIALS
    p_side = side_reads / TRIALS
    print(f"Front tag read reliability : {p_front:6.1%}")
    print(f"Side tag read reliability  : {p_side:6.1%}")
    print(f"Object tracking (either)   : {either / TRIALS:6.1%}")
    if 0 < p_front < 1 or 0 < p_side < 1:
        expected = combined_reliability([p_front, p_side])
        print(f"Paper's R_C prediction     : {expected:6.1%}")
    print()
    print(
        "Two cheap tags turn an unreliable portal into a dependable one —\n"
        "the central result of the DSN'07 paper this library reproduces."
    )


if __name__ == "__main__":
    main()
