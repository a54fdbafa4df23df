#!/usr/bin/env python3
"""Distribution centre: three portals, physical + software redundancy.

Scenario (the paper's supply-chain motivation): pallets of router boxes
move dock -> conveyor gate -> shipping door. Each checkpoint is an RFID
portal; every box carries a single front tag (so per-portal misses are
visible and the software layer has work to do); boxes on one pallet are
registered as an accompany group.

The pipeline stacks all three reliability layers this library models:

1. per-portal tracking (any tag read = box seen at that checkpoint);
2. site-level software correction (route + accompany constraints
   recover checkpoint misses);
3. and, by editing ``build_box_cart`` to two faces, physical tag-level
   redundancy on top.

Run:
    python examples/distribution_center.py   (takes ~a minute)
"""

from repro.core.calibration import PaperSetup
from repro.reader.backend import ObjectRegistry, TrackedObject
from repro.reader.site import Checkpoint, SiteTracker
from repro.sim.events import TagReadEvent
from repro.sim.rng import SeedSequence
from repro.world.objects import BoxFace
from repro.world.portal import single_antenna_portal
from repro.world.scenarios.object_tracking import build_box_cart

CHECKPOINTS = ("dock", "belt", "gate")


def simulate_checkpoint_pass(name, reader_id, carrier, trial):
    """One pallet pass at one checkpoint; reads re-labelled to its reader."""
    setup = PaperSetup()
    simulator = setup.simulator(single_antenna_portal())
    result = simulator.run_pass(
        [carrier], SeedSequence(hash_free_seed(name)), trial
    )
    return [
        TagReadEvent(
            time=event.time + 1000.0 * CHECKPOINTS.index(name),
            epc=event.epc,
            reader_id=reader_id,
            antenna_id=event.antenna_id,
            rssi_dbm=event.rssi_dbm,
        )
        for event in result.trace
    ]


def hash_free_seed(name: str) -> int:
    """Stable per-checkpoint seed (no salted hash())."""
    return sum(ord(c) * (i + 1) for i, c in enumerate(name)) * 7919


def main() -> None:
    # One pallet: 12 boxes, one front tag each.
    carrier, boxes = build_box_cart([BoxFace.FRONT])
    registry = ObjectRegistry()
    for box in boxes:
        registry.register(
            TrackedObject(
                box.box_id, frozenset(t.epc for t in box.all_tags())
            )
        )
    site = SiteTracker(
        checkpoints=[
            Checkpoint("dock", (("reader-dock", "ant-0"),)),
            Checkpoint("belt", (("reader-belt", "ant-0"),)),
            Checkpoint("gate", (("reader-gate", "ant-0"),)),
        ],
        registry=registry,
        groups={"pallet-1": [box.box_id for box in boxes]},
    )

    print("Simulating the pallet through three portals...")
    for trial, name in enumerate(CHECKPOINTS):
        events = simulate_checkpoint_pass(
            name, f"reader-{name}", carrier, trial
        )
        landed = site.ingest(events)
        distinct = len({e.epc for e in events})
        print(
            f"  {name:5s}: {len(events):3d} reads, {distinct:2d}/12 tags, "
            f"{landed} sightings ingested"
        )

    raw, corrected, total = site.completion_report()
    print(f"\nJourney completeness over {total} boxes:")
    print(f"  raw (all 3 checkpoints read)     : {raw}/{total}")
    print(f"  after route+accompany correction : {corrected}/{total}")

    journeys = site.journeys()
    recovered = [
        j.object_id for j in journeys.values() if j.inferred
    ]
    if recovered:
        print(f"  software-recovered boxes         : {sorted(recovered)}")
    print(
        "\nThe stack in action: tag redundancy keeps per-portal misses "
        "rare,\nand the constraint layer absorbs the stragglers."
    )


if __name__ == "__main__":
    main()
