#!/usr/bin/env python3
"""Badge-gate scenario: tracking people through a doorway.

Scenario (paper Section 3, "Human Tracking"): employees carry passive
RFID badges at waist level and walk through an instrumented doorway.
The facility wants room-level presence without badge-to-reader taps.

This example reproduces the paper's finding that a single hanging badge
is hopeless (~63%) and that two badges (front + back, as on a lanyard
with a second card) plus a second antenna make the gate dependable. It
then runs the full reader stack: buffered reads polled as XML,
middleware smoothing, and the back-end's person-level decisions.

Run:
    python examples/access_gate.py
"""

from repro.core.calibration import PaperSetup
from repro.core.experiment import run_trials
from repro.reader.backend import ObjectRegistry, TrackedObject, TrackingBackend
from repro.reader.middleware import MiddlewarePipeline
from repro.reader.wire import PolledInterface, parse_tag_list
from repro.world.humans import HumanTagPlacement
from repro.world.portal import dual_antenna_portal, single_antenna_portal
from repro.world.scenarios.human_tracking import build_walk

TRIALS = 15

CONFIGURATIONS = (
    ("1 badge, 1 antenna", 1, [HumanTagPlacement.FRONT]),
    (
        "2 badges, 1 antenna",
        1,
        [HumanTagPlacement.FRONT, HumanTagPlacement.BACK],
    ),
    (
        "2 badges, 2 antennas",
        2,
        [HumanTagPlacement.FRONT, HumanTagPlacement.BACK],
    ),
)


def measure(antennas: int, placements) -> float:
    """Person-tracking reliability for one gate configuration."""
    setup = PaperSetup()
    portal = single_antenna_portal() if antennas == 1 else dual_antenna_portal()
    simulator = setup.simulator(portal)
    carrier, humans = build_walk(1, placements)
    epcs = [t.epc for t in humans[0].tags]
    trials = run_trials(
        f"gate:{antennas}x{len(placements)}",
        lambda seeds, i: simulator.run_pass([carrier], seeds, i),
        TRIALS,
    )
    hits = sum(
        1 for r in trials.outcomes if set(epcs) & r.read_epcs
    )
    return hits / TRIALS


def demonstrate_full_stack() -> None:
    """One pass through the whole pipeline, reader to door decision."""
    setup = PaperSetup()
    simulator = setup.simulator(dual_antenna_portal())
    carrier, humans = build_walk(
        1, [HumanTagPlacement.FRONT, HumanTagPlacement.BACK]
    )
    from repro.sim.rng import SeedSequence

    result = simulator.run_pass([carrier], SeedSequence(7), 0)

    # The reader buffers; the application polls XML (the paper's Java
    # harness over the AR400's HTTP interface).
    interface = PolledInterface(list(result.trace))
    raw_events = parse_tag_list(interface.poll(now=result.duration_s))

    # Middleware: dedup + presence smoothing.
    clean, presences = MiddlewarePipeline().process(raw_events)

    # Back-end: who walked through?
    registry = ObjectRegistry()
    registry.register(
        TrackedObject(
            humans[0].person_id,
            frozenset(t.epc for t in humans[0].tags),
            kind="person",
        )
    )
    opened = []
    backend = TrackingBackend(
        registry, on_detect=lambda d: opened.append(d.object_id)
    )
    backend.ingest(clean)
    decisions = backend.decide()

    print("\nFull-stack walkthrough (one pass):")
    print(f"  raw reads     : {len(raw_events)}")
    print(f"  after dedup   : {len(clean)}")
    print(f"  presences     : {len(presences)}")
    decision = decisions[humans[0].person_id]
    print(f"  detected      : {decision.detected}")
    if decision.detected:
        print(f"  first seen    : t = {decision.first_seen:.2f} s")
        print(f"  badges seen   : {len(decision.tags_seen)} of "
              f"{decision.total_tags}")
        print(f"  door action   : opened for {opened}")


def main() -> None:
    print("Badge gate reliability (one person, walking pass at 1 m/s):")
    for name, antennas, placements in CONFIGURATIONS:
        rate = measure(antennas, placements)
        print(f"  {name:22s}: {rate:6.1%}")
    demonstrate_full_stack()


if __name__ == "__main__":
    main()
