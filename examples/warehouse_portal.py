#!/usr/bin/env python3
"""Warehouse dock-door portal: plan and validate a redundancy scheme.

Scenario (the paper's Section 1 motivation): a distribution centre must
track cases of networking gear through a dock door with a contractual
tracking reliability of 99.5%. Tags cost cents; antennas cost hundreds
of dollars. How much redundancy does the door need, and does the plan
hold up in a physical simulation?

Pipeline:
1. measure single-opportunity reliabilities per tag placement with the
   calibrated simulator (a cheap stand-in for a site survey);
2. feed them to the deployment planner, which inverts the paper's
   R_C model under a cost model;
3. validate the chosen configuration end to end, including the back-end
   tracking decision.

Run:
    python examples/warehouse_portal.py       (takes a minute or two)
"""

from repro.core.calibration import PaperSetup
from repro.core.experiment import run_trials
from repro.core.planner import CostModel, DeploymentPlanner
from repro.core.reliability import tracking_success
from repro.world.objects import BoxFace
from repro.world.portal import dual_antenna_portal, single_antenna_portal
from repro.world.scenarios.object_tracking import build_box_cart

SURVEY_TRIALS = 6
VALIDATION_TRIALS = 10
TARGET = 0.995

#: Placements the site can physically apply (no bottom: boxes slide on
#: conveyors; avoid top per the paper's worst-case finding).
CANDIDATE_FACES = (
    BoxFace.FRONT,
    BoxFace.SIDE_CLOSER,
    BoxFace.SIDE_FARTHER,
)


def survey_single_opportunities(setup: PaperSetup) -> dict:
    """Measure per-placement read reliability with one antenna."""
    simulator = setup.simulator(single_antenna_portal())
    rates = {}
    for face in CANDIDATE_FACES:
        carrier, _ = build_box_cart([face])
        epcs = [t.epc for t in carrier.tags]
        trials = run_trials(
            f"survey:{face.value}",
            lambda seeds, i: simulator.run_pass([carrier], seeds, i),
            SURVEY_TRIALS,
        )
        reads = sum(o.tags_read(epcs) for o in trials.outcomes)
        rates[face.value] = reads / (len(epcs) * SURVEY_TRIALS)
        print(f"  survey {face.value:13s}: {rates[face.value]:6.1%}")
    return rates


def main() -> None:
    setup = PaperSetup()
    print("Step 1 — site survey (single antenna, one tag per placement):")
    rates = survey_single_opportunities(setup)

    print(f"\nStep 2 — plan for {TARGET:.1%} tracking reliability:")
    planner = DeploymentPlanner(
        rates,
        cost_model=CostModel(
            cost_per_tag=0.05,
            cost_per_antenna=300.0,
            objects_per_deployment=500_000,
        ),
        antenna_efficiency=0.7,  # antennas share the cart's blocked view
    )
    plan = planner.plan(TARGET, max_antennas=2)
    print(f"  tags/object : {plan.tags_per_object} ({', '.join(plan.placements)})")
    print(f"  antennas    : {plan.antennas}")
    print(f"  predicted   : {plan.predicted_reliability:.2%}")
    print(f"  cost        : ${plan.cost:,.0f}")

    print("\nStep 3 — validate the plan in the physics simulator:")
    portal = (
        single_antenna_portal() if plan.antennas == 1 else dual_antenna_portal()
    )
    simulator = setup.simulator(portal)
    faces = [BoxFace(value) for value in plan.placements]
    carrier, boxes = build_box_cart(faces)
    box_epcs = [[t.epc for t in b.all_tags()] for b in boxes]
    trials = run_trials(
        "validation",
        lambda seeds, i: simulator.run_pass([carrier], seeds, i),
        VALIDATION_TRIALS,
    )
    tracked = 0
    total = 0
    for outcome in trials.outcomes:
        for epcs in box_epcs:
            total += 1
            tracked += tracking_success(outcome.read_epcs, epcs)
    measured = tracked / total
    print(f"  measured tracking reliability: {measured:.2%} "
          f"({tracked}/{total} object-passes)")
    verdict = "MEETS" if measured >= TARGET - 0.02 else "MISSES"
    print(f"  verdict: plan {verdict} the {TARGET:.1%} target "
          "(within simulation noise)")


if __name__ == "__main__":
    main()
