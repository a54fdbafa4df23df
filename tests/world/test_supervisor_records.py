"""Order of the supervision records a recorded supervised pass keeps.

A recorded :func:`run_supervised_pass` folds every health transition
and every failover promotion into ``obs.supervisor_records`` in the
order the supervisors made them: member by member within a poll, the
promotion check after the poll. A failed poll stamps its transition
with the retry clock, which runs ahead of the poll time; a promotion
is stamped no earlier than the DOWN transition that caused it.
"""

import dataclasses

import pytest

from repro.core.calibration import PaperSetup
from repro.faults.plan import PollFault
from repro.obs import Recorder
from repro.reader.backend import ObjectRegistry, TrackedObject
from repro.sim.rng import SeedSequence
from repro.world.portal import failover_portal
from repro.world.scenarios.fault_injection import (
    primary_crash_plan,
    run_supervised_pass,
)
from repro.world.scenarios.human_tracking import build_walk

SEED = 1234

#: (kind, reader_id, time, old, new) of the primary's crash, the
#: promotion of the standby and the primary's recovery after the
#: watchdog restart.
CRASH = [
    ("health", "reader-0", 0.4, "healthy", "degraded"),
    ("health", "reader-0", 0.9, "degraded", "down"),
    ("promotion", "reader-1", 0.9, "reader-0", "reader-1"),
    ("health", "reader-0", 4.05, "down", "healthy"),
]

#: The same crash while the standby loses 70% of its polls: its own
#: transitions interleave with the primary's, and once the standby goes
#: down the recovered primary takes the active role back.
CRASH_WITH_DROPS = [
    ("health", "reader-0", 0.4, "healthy", "degraded"),
    ("health", "reader-0", 0.9, "degraded", "down"),
    ("promotion", "reader-1", 0.9, "reader-0", "reader-1"),
    ("health", "reader-1", 2.4, "healthy", "degraded"),
    ("health", "reader-1", 2.65, "degraded", "healthy"),
    ("health", "reader-1", 2.9, "healthy", "degraded"),
    ("health", "reader-1", 3.0, "degraded", "healthy"),
    ("health", "reader-1", 3.9, "healthy", "degraded"),
    ("health", "reader-0", 4.05, "down", "healthy"),
    ("health", "reader-1", 4.3999999999999995, "degraded", "down"),
    ("promotion", "reader-0", 4.3999999999999995, "reader-1", "reader-0"),
]


def _recorded_pass(poll_faults):
    carrier, humans = build_walk(1, ["front"])
    registry = ObjectRegistry()
    registry.register(
        TrackedObject("subject-0", frozenset({humans[0].tags[0].epc}))
    )
    plan = dataclasses.replace(
        primary_crash_plan(carrier.motion.duration_s),
        poll_faults=poll_faults,
    )
    simulator = PaperSetup().simulator(failover_portal(), Recorder())
    return run_supervised_pass(
        simulator,
        [carrier],
        registry,
        "subject-0",
        SeedSequence(SEED),
        0,
        plan,
    )


@pytest.mark.parametrize(
    "poll_faults, expected",
    [
        ((), CRASH),
        ((PollFault("reader-1", drop_probability=0.7),), CRASH_WITH_DROPS),
    ],
    ids=["crash", "crash-with-standby-drops"],
)
def test_supervisor_record_order(poll_faults, expected):
    outcome = _recorded_pass(poll_faults)
    records = outcome.obs.supervisor_records
    assert [
        (r.kind, r.reader_id, r.time, r.old, r.new) for r in records
    ] == expected
    assert {r.trial for r in records} == {0}
    assert (
        outcome.obs.metrics.get("pass.supervisor_events").value
        == len(expected)
    )
    # The records are the pass outcome's own health log and promotions.
    assert sorted(
        (t.time, t.reader_id) for t in outcome.transitions
    ) == sorted((r.time, r.reader_id) for r in records if r.kind == "health")
    assert [
        (p.time, p.from_reader, p.to_reader) for p in outcome.promotions
    ] == [(r.time, r.old, r.new) for r in records if r.kind == "promotion"]


@pytest.mark.parametrize(
    "poll_faults",
    [(), (PollFault("reader-1", drop_probability=0.7),)],
    ids=["crash", "crash-with-standby-drops"],
)
def test_no_promotion_precedes_its_cause(poll_faults):
    records = _recorded_pass(poll_faults).obs.supervisor_records
    down_at = {}
    promotions = 0
    for record in records:
        if record.kind == "health" and record.new == "down":
            down_at[record.reader_id] = record.time
        elif record.kind == "promotion":
            promotions += 1
            # The member promoted away from went down first.
            assert record.time >= down_at[record.old]
    assert promotions > 0
