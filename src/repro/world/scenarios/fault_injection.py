"""Fault-injection scenario: reader redundancy under *component* faults.

The paper's Section 4 measures reader-level redundancy against RF
read-misses; a deployed portal also loses readers outright — a crash
mid-pass, a wedge, a power cycle. This scenario reruns the Section 4
workload (one walking subject, front tag) with a deterministic
:class:`~repro.faults.plan.FaultPlan` that kills the primary reader
mid-pass, and measures how the supervised stack responds:

* a **single supervised reader** collapses — everything after the
  crash is unobservable;
* a **two-reader failover group** (dense-reader mode, so the standby
  does not jam the primary) recovers to the fault-free two-reader
  baseline: the standby's independent session covers the outage, the
  supervisor's health monitor makes the failure *observable*, and the
  coverage annotation keeps the miss from being booked as "object
  absent".

Everything — fault times, retry outcomes, RF draws — derives from the
root seed, so runs replay bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ...core.calibration import PaperSetup
from ...core.experiment import DEFAULT_SEED, run_trials, stable_hash
from ...core.parallel import CompiledSceneTask
from ...core.reliability import ReliabilityEstimate
from ...faults import FaultPlan, FaultyTransport, ReaderCrash
from ...obs.recorder import PassObservation, Recorder
from ...obs.records import SupervisorRecord
from ...reader.backend import ObjectRegistry, TrackedObject, TrackingBackend
from ...reader.supervisor import (
    HealthTransition,
    Promotion,
    ReaderFailoverGroup,
    RetryPolicy,
    SupervisedReader,
)
from ...reader.wire import PolledInterface
from ...sim.rng import SeedSequence
from ..humans import HumanTagPlacement
from ..portal import Portal, failover_portal, single_antenna_portal
from ..simulation import CarrierGroup, CompiledScene, PortalPassSimulator
from .human_tracking import build_walk

PAPER_REPETITIONS = 20

#: When the primary dies, as a fraction of the pass. 50 ms into the 4 s
#: walk is the worst realistic moment for a lone reader: the portal has
#: already seen the tag (reads start the instant the subject enters the
#: arch), but the application has not yet polled, so the crash's buffer
#: wipe destroys every read the reader was holding — and the outage
#: swallows the rest of the entry read window.
DEFAULT_CRASH_FRACTION = 0.0125

#: How long the watchdog takes to power-cycle a crashed reader. The
#: AR400-class readers the paper used take longer to reboot than a 4 s
#: portal pass lasts: the supervisor *observes* the recovery (down ->
#: healthy), but the subject is already gone. Pass ``None`` through the
#: plan factory for a reader that never comes back.
DEFAULT_WATCHDOG_RESTART_S = 4.0

#: Application-level poll cadence. The paper found tracking independent
#: of polling speed for healthy readers; under faults the cadence sets
#: how fast the supervisor notices trouble.
POLL_INTERVAL_S = 0.25

#: A plan factory maps (seeds, trial, pass duration) to that trial's
#: fault schedule (None = fault-free).
PlanFactory = Callable[[SeedSequence, int, float], Optional[FaultPlan]]


@dataclass(frozen=True)
class CrashPlanFactory:
    """Picklable plan factory: each listed reader crashes with probability
    ``rate``, at the canonical :func:`primary_crash_plan` timing.

    Rate 0 is the fault-free baseline; any other rate draws each crash
    decision from a named per-trial stream, in ``reader_ids`` order, so
    a sweep replays bit-for-bit from its seed regardless of worker
    count (rate 1 crashes every listed reader).
    """

    rate: float
    reader_ids: Tuple[str, ...] = ("reader-0",)
    crash_fraction: float = DEFAULT_CRASH_FRACTION
    restart_after_s: Optional[float] = DEFAULT_WATCHDOG_RESTART_S

    def __call__(
        self, seeds: SeedSequence, trial: int, duration: float
    ) -> Optional[FaultPlan]:
        if self.rate == 0.0:
            return None
        stream = seeds.trial_stream(f"faultplan:rate={self.rate!r}", trial)
        crashed = tuple(
            reader_id
            for reader_id in self.reader_ids
            if stream.bernoulli(self.rate)
        )
        if not crashed:
            return None
        return FaultPlan(
            crashes=tuple(
                crash
                for reader_id in crashed
                for crash in primary_crash_plan(
                    duration,
                    self.crash_fraction,
                    self.restart_after_s,
                    reader_id=reader_id,
                ).crashes
            )
        )


@dataclass(frozen=True)
class SupervisedTrialOutcome:
    """What one supervised pass reported — decision plus observability."""

    detected: bool
    degraded: bool
    verdict: str
    coverage: float
    active_reader: str
    transitions: Tuple[HealthTransition, ...]
    promotions: Tuple[Promotion, ...]
    #: Recorded pass observation (with the supervision layer's health
    #: and failover events folded in) when the simulator carried a
    #: :class:`~repro.obs.Recorder`; ``None`` otherwise.
    obs: Optional[PassObservation] = None


@dataclass(frozen=True)
class ConfigOutcome:
    """Aggregate over repetitions of one portal/fault configuration."""

    label: str
    estimate: ReliabilityEstimate
    outcomes: Tuple[SupervisedTrialOutcome, ...]

    @property
    def degraded_trials(self) -> int:
        return sum(1 for o in self.outcomes if o.degraded)

    @property
    def promoted_trials(self) -> int:
        return sum(1 for o in self.outcomes if o.promotions)

    @property
    def misreported_blind_trials(self) -> int:
        """Trials where a blind miss was booked as a confident absence.

        The whole point of degraded-mode tracking is that this is zero:
        a trial that was not detected *and* ran under reduced coverage
        must carry verdict ``"unobserved"``, never ``"absent"``.
        """
        return sum(
            1
            for o in self.outcomes
            if not o.detected and o.degraded and o.verdict == "absent"
        )


@dataclass(frozen=True)
class FaultInjectionResult:
    """The four cells of the crash experiment."""

    single_fault_free: ConfigOutcome
    single_crash: ConfigOutcome
    failover_fault_free: ConfigOutcome
    failover_crash: ConfigOutcome

    @property
    def single_collapse(self) -> float:
        """Reliability lost by the unsupervised-redundancy build."""
        return (
            self.single_fault_free.estimate.rate
            - self.single_crash.estimate.rate
        )

    @property
    def failover_recovery_gap(self) -> float:
        """How far the crashed failover group sits below its baseline."""
        return (
            self.failover_fault_free.estimate.rate
            - self.failover_crash.estimate.rate
        )


def primary_crash_plan(
    duration_s: float,
    crash_fraction: float = DEFAULT_CRASH_FRACTION,
    restart_after_s: Optional[float] = DEFAULT_WATCHDOG_RESTART_S,
    reader_id: str = "reader-0",
) -> FaultPlan:
    """The canonical fault: the primary dies mid-pass; a watchdog reboots it.

    The crash wipes the reader's buffer (reads the application had not
    yet polled are gone) and the outage covers the rest of the read
    window. ``restart_after_s=None`` keeps the reader down for the
    remainder of the pass; a restart brings it back with a fresh
    inventory session (and an empty buffer).
    """
    if not 0.0 < crash_fraction < 1.0:
        raise ValueError(
            f"crash fraction must be in (0, 1), got {crash_fraction!r}"
        )
    at = crash_fraction * duration_s
    restart = None if restart_after_s is None else at + restart_after_s
    return FaultPlan(crashes=(ReaderCrash(reader_id, at, restart),))


def run_supervised_pass(
    simulator: PortalPassSimulator,
    carriers: Union[Sequence[CarrierGroup], CompiledScene],
    registry: ObjectRegistry,
    object_id: str,
    seeds: SeedSequence,
    trial: int,
    plan: Optional[FaultPlan],
    policy: Optional[RetryPolicy] = None,
    poll_interval_s: float = POLL_INTERVAL_S,
) -> SupervisedTrialOutcome:
    """One pass driven end to end through the supervised reader stack.

    The pass simulator produces each reader's (possibly fault-thinned)
    trace; per-reader buffers get wrapped in fault-injecting transports;
    a :class:`ReaderFailoverGroup` polls them on the application cadence;
    and the back-end renders a coverage-aware tracking decision.
    ``carriers`` is whatever
    :meth:`~repro.world.simulation.PortalPassSimulator.run_pass` takes.
    """
    result = simulator.run_pass(carriers, seeds, trial, fault_plan=plan)

    readers: List[SupervisedReader] = []
    for assignment in simulator.portal.readers:
        interface = PolledInterface(
            [
                e
                for e in result.trace
                if e.reader_id == assignment.reader_id
            ]
        )
        transport = FaultyTransport(
            interface,
            assignment.reader_id,
            plan,
            rng=seeds.trial_stream(
                f"transport:{assignment.reader_id}", trial
            ),
        )
        readers.append(SupervisedReader(assignment.reader_id, transport, policy))
    group = ReaderFailoverGroup(readers)
    backend = TrackingBackend(registry)
    t = poll_interval_s
    # Poll through the pass, then once more to drain stragglers (and
    # give a restarted reader a final chance to answer).
    while t < result.duration_s + 2.0 * poll_interval_s:
        backend.ingest(group.poll(t))
        t += poll_interval_s
    decision = backend.decide(coverage=result.coverage)[object_id]

    # A recorded pass folds the supervision layer's lifecycle events,
    # read from the group's log, into the same observation.
    observation = result.obs
    if observation is not None and group.history:
        records = tuple(
            _supervisor_record(event, trial) for event in group.history
        )
        observation.metrics.counter("pass.supervisor_events").inc(
            len(records)
        )
        observation = replace(
            observation,
            supervisor_records=observation.supervisor_records + records,
        )

    return SupervisedTrialOutcome(
        detected=decision.detected,
        degraded=decision.degraded,
        verdict=decision.verdict,
        coverage=decision.coverage,
        active_reader=group.active_reader_id,
        transitions=tuple(group.transitions()),
        promotions=tuple(group.promotions),
        obs=observation,
    )


def _supervisor_record(
    event: Union[HealthTransition, Promotion], trial: int
) -> SupervisorRecord:
    """The observability record of one supervision-log entry."""
    if isinstance(event, Promotion):
        return SupervisorRecord(
            time=event.time,
            trial=trial,
            reader_id=event.to_reader,
            kind="promotion",
            old=event.from_reader,
            new=event.to_reader,
            reason="failover",
        )
    return SupervisorRecord(
        time=event.time,
        trial=trial,
        reader_id=event.reader_id,
        kind="health",
        old=event.old.value,
        new=event.new.value,
        reason=event.reason,
    )


@dataclass(frozen=True)
class SupervisedPassTask(CompiledSceneTask):
    """Picklable trial callable: one pass through the supervised stack.

    The parallel-capable counterpart of the per-cell closure around
    :func:`run_supervised_pass` — every field is a plain dataclass (the
    plan factory above replaces the original lambdas), so the whole
    cell ships to worker processes and fans out with bit-identical
    outcomes. Every pass runs on the task's compiled
    :meth:`~repro.core.parallel.CompiledSceneTask.scene`.
    """

    simulator: PortalPassSimulator
    carriers: Tuple[CarrierGroup, ...]
    registry: ObjectRegistry
    object_id: str
    plan_factory: PlanFactory
    policy: Optional[RetryPolicy] = None
    poll_interval_s: float = POLL_INTERVAL_S

    def __call__(
        self, seeds: SeedSequence, trial: int
    ) -> SupervisedTrialOutcome:
        scene = self.scene()
        plan = self.plan_factory(seeds, trial, scene.duration)
        return run_supervised_pass(
            self.simulator,
            scene,
            self.registry,
            self.object_id,
            seeds,
            trial,
            plan,
            policy=self.policy,
            poll_interval_s=self.poll_interval_s,
        )


def _measure_config(
    portal: Portal,
    label: str,
    plan_factory: PlanFactory,
    placement: str,
    repetitions: int,
    seed: int,
    poll_interval_s: float = POLL_INTERVAL_S,
    stream_label: Optional[str] = None,
    workers: Optional[int] = None,
    recorder: Optional[Recorder] = None,
) -> ConfigOutcome:
    """Measure one (portal, fault plan) cell.

    ``stream_label`` names the RNG stream family; configurations that
    share it run *paired* trials — identical RF/protocol draws, so any
    outcome difference is caused by the fault plan, not by sampling a
    different batch of passes. The fault-free and faulted cells of each
    portal share their stream label for exactly this reason.
    """
    carrier, humans = build_walk(1, [placement])
    epc = humans[0].tags[0].epc
    registry = ObjectRegistry()
    registry.register(TrackedObject("subject-0", frozenset({epc})))
    task = SupervisedPassTask(
        simulator=PaperSetup().simulator(portal, recorder),
        carriers=(carrier,),
        registry=registry,
        object_id="subject-0",
        plan_factory=plan_factory,
        poll_interval_s=poll_interval_s,
    )
    trials = run_trials(
        label,
        task,
        repetitions,
        seed=seed ^ stable_hash(stream_label or label),
        workers=workers,
        recorder=recorder,
    )
    return ConfigOutcome(
        label=label,
        estimate=trials.success_estimate(lambda o: o.detected),
        outcomes=tuple(trials.outcomes),
    )


def run_fault_injection_experiment(
    placement: str = HumanTagPlacement.FRONT,
    crash_fraction: float = DEFAULT_CRASH_FRACTION,
    restart_after_s: Optional[float] = DEFAULT_WATCHDOG_RESTART_S,
    repetitions: int = PAPER_REPETITIONS,
    seed: int = DEFAULT_SEED,
    workers: Optional[int] = None,
    recorder: Optional[Recorder] = None,
) -> FaultInjectionResult:
    """Kill the primary mid-pass; compare one reader vs a failover pair.

    The pair is the hot-standby build (:func:`failover_portal`): the
    paper's dual-reader wiring with dense-reader mode on (the Section 4
    lesson: without it the standby jams the primary), each reader
    running its own Gen 2 session so the standby's inventory survives
    the primary's death.
    """
    no_faults = CrashPlanFactory(rate=0.0)
    crash = CrashPlanFactory(
        rate=1.0,
        crash_fraction=crash_fraction,
        restart_after_s=restart_after_s,
    )
    single = single_antenna_portal()
    pair = failover_portal()
    return FaultInjectionResult(
        single_fault_free=_measure_config(
            single, "faults:single-clean", no_faults, placement,
            repetitions, seed, stream_label="faults:single",
            workers=workers, recorder=recorder,
        ),
        single_crash=_measure_config(
            single, "faults:single-crash", crash, placement,
            repetitions, seed, stream_label="faults:single",
            workers=workers, recorder=recorder,
        ),
        failover_fault_free=_measure_config(
            pair, "faults:failover-clean", no_faults, placement,
            repetitions, seed, stream_label="faults:failover",
            workers=workers, recorder=recorder,
        ),
        failover_crash=_measure_config(
            pair, "faults:failover-crash", crash, placement,
            repetitions, seed, stream_label="faults:failover",
            workers=workers, recorder=recorder,
        ),
    )


def run_fault_rate_sweep(
    rates: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 1.0),
    placement: str = HumanTagPlacement.FRONT,
    crash_fraction: float = DEFAULT_CRASH_FRACTION,
    restart_after_s: Optional[float] = DEFAULT_WATCHDOG_RESTART_S,
    repetitions: int = PAPER_REPETITIONS,
    seed: int = DEFAULT_SEED,
    workers: Optional[int] = None,
    recorder: Optional[Recorder] = None,
) -> Dict[float, Tuple[ConfigOutcome, ConfigOutcome]]:
    """Tracking reliability vs per-pass crash probability, 1 vs 2 readers.

    At each rate, every reader independently suffers the canonical
    worst-case crash (:func:`primary_crash_plan` timing) with that
    probability, drawn from a named per-trial stream so the sweep
    replays exactly from its seed. A lone reader's reliability decays
    with the crash rate; the failover pair only loses a pass when
    *both* readers die, so its curve bends like ``1 - rate**2``.
    Returns ``{rate: (single_outcome, failover_outcome)}``; a repeated
    rate, or one outside [0, 1], raises :class:`ValueError` before any
    pass runs.
    """
    if len(set(rates)) != len(rates):
        raise ValueError(f"fault rates must be distinct, got {list(rates)!r}")
    for rate in rates:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {rate!r}")
    results: Dict[float, Tuple[ConfigOutcome, ConfigOutcome]] = {}
    for rate in rates:
        single, failover = (
            _measure_config(
                portal,
                f"faults:sweep-{name}:rate={rate!r}",
                CrashPlanFactory(
                    rate=rate,
                    reader_ids=tuple(r.reader_id for r in portal.readers),
                    crash_fraction=crash_fraction,
                    restart_after_s=restart_after_s,
                ),
                placement,
                repetitions,
                seed,
                stream_label=f"faults:{name}",
                workers=workers,
                recorder=recorder,
            )
            for name, portal in (
                ("single", single_antenna_portal()),
                ("failover", failover_portal()),
            )
        )
        results[rate] = (single, failover)
    return results
