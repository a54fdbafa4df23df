#!/usr/bin/env python3
"""A portal that survives its reader dying mid-pass.

Scenario: the dock-door reader crashes 50 ms after a subject walks in —
before the application's first poll, so the crash also wipes every read
the reader was buffering. An unsupervised single-reader portal silently
loses the pass. This example runs the same pass through the supervised
stack twice:

1. one supervised reader — the loss still happens, but it is now
   *observable* (health transitions to down, the tracking verdict is
   "unobserved" instead of a confident "absent");
2. a two-reader failover group on the hot-standby portal — the standby's
   independent Gen 2 session covers the outage, the RF mux hands it the
   dead reader's antenna, and tracking succeeds.

Run:
    python examples/faulty_portal.py          (a few seconds)
"""

from repro.analysis.tables import Table, percent
from repro.core.calibration import PaperSetup
from repro.reader.backend import ObjectRegistry, TrackedObject
from repro.sim.rng import SeedSequence
from repro.world.portal import failover_portal, single_antenna_portal
from repro.world.scenarios.fault_injection import (
    primary_crash_plan,
    run_fault_injection_experiment,
    run_supervised_pass,
)
from repro.world.scenarios.human_tracking import build_walk

SEED = 1234
REPETITIONS = 8


def one_pass(setup, portal, label):
    """Run a single crashed pass and narrate what the supervisor saw."""
    simulator = setup.simulator(portal)
    carrier, humans = build_walk(1, ["front"])
    registry = ObjectRegistry()
    registry.register(
        TrackedObject("subject-0", frozenset({humans[0].tags[0].epc}))
    )
    plan = primary_crash_plan(carrier.motion.duration_s)
    outcome = run_supervised_pass(
        simulator,
        [carrier],
        registry,
        "subject-0",
        SeedSequence(SEED),
        0,
        plan,
    )
    print(f"\n{label}:")
    for tr in outcome.transitions:
        print(
            f"  t={tr.time:5.2f}s  {tr.reader_id}: "
            f"{tr.old.value} -> {tr.new.value}  ({tr.reason})"
        )
    for promo in outcome.promotions:
        print(
            f"  t={promo.time:5.2f}s  FAILOVER "
            f"{promo.from_reader} -> {promo.to_reader}"
        )
    print(
        f"  verdict: {outcome.verdict!r}  detected={outcome.detected}  "
        f"coverage={outcome.coverage:.2f}"
    )
    return outcome


def main() -> None:
    setup = PaperSetup()
    print(
        "The primary reader crashes 50 ms into the pass and reboots "
        "only after\nthe subject is gone. Watch the supervisor notice."
    )
    single = one_pass(setup, single_antenna_portal(), "1 supervised reader")
    pair = one_pass(setup, failover_portal(), "2-reader failover group")
    assert single.verdict == "unobserved"  # blind, and says so
    assert pair.detected  # the standby covered the outage

    print(f"\nStatistics over {REPETITIONS} passes per cell:")
    result = run_fault_injection_experiment(
        repetitions=REPETITIONS, seed=SEED
    )
    table = Table(
        "Tracking reliability, fault-free vs primary crash",
        headers=("Configuration", "Reliability", "Failovers"),
    )
    for cell in (
        result.single_fault_free,
        result.single_crash,
        result.failover_fault_free,
        result.failover_crash,
    ):
        table.add_row(
            cell.label,
            percent(cell.estimate.rate),
            f"{cell.promoted_trials}/{len(cell.outcomes)}",
        )
    print(table.render())
    print(
        "The failover pair holds its fault-free baseline "
        f"(gap {result.failover_recovery_gap:+.2f}); the lone reader "
        f"loses {result.single_collapse:.0%} of its reliability."
    )


if __name__ == "__main__":
    main()
