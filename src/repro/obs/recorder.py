"""The event bus: per-pass recording, attribution, run-level aggregation.

Three objects split the work so that the hot path stays allocation-free
when observability is off:

* :class:`Recorder` — the run-level handle an experiment owns: one
  switch (``detail``) plus the run's aggregate, the absorbed
  observations and their merged
  :class:`~repro.obs.metrics.MetricsRegistry`. The aggregate never
  leaves the process that owns it: a recorder pickles as its switch
  alone. A simulator holding ``recorder=None`` pays exactly one
  ``is not None`` test per potential hook site and allocates nothing.
* :class:`PassRecording` — the per-pass accumulator the simulator
  drives. One is created per :meth:`run_pass` call; it never crosses a
  process boundary.
* :class:`PassObservation` — the frozen, picklable result of a
  recorded pass, attached to ``PassResult.obs``. This is how parallel
  workers ship their observations home: **with the results**, not
  through shared state. Everything in it is a pure function of the
  seeds, so serial and parallel runs produce identical observations.

Every recorded pass keeps its tag outcomes, masked dwells, supervision
events and metrics. ``detail=True`` adds the per-dwell link records
(at most :data:`MAX_LINK_RECORDS_PER_PASS`), the slot records and the
RNG provenance.

Miss-cause attribution (:meth:`PassRecording.finalize`) assigns exactly
one :class:`~repro.obs.records.MissCause` to every tag that produced no
read, by this precedence:

1. ``COLLISION`` — the tag replied in at least one multi-responder slot
   that capture did not resolve;
2. ``NOT_INVENTORIED`` — the tag was energized in at least one dwell
   but never successfully singulated (slot starvation or garbled solo
   replies);
3. ``FAULT_MASKED`` — never energized, and either dwells were skipped
   outright by injected faults (crashed reader, silent antenna) or a
   port-level fault loss is what kept an otherwise within-head-room
   forward link dark;
4. ``UNDER_ENERGIZED`` — never energized although at least one dwell
   was within the fading head-room: the draws were unlucky;
5. ``OUT_OF_ZONE`` — no dwell came within the head-room: the geometry
   never supported a read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..rf.link import LinkResult
from ..sim.events import SlotOutcome
from ..sim.rng import RandomStream, SeedSequence
from .metrics import MARGIN_EDGES_DB, Counter, MetricsRegistry
from .records import (
    DwellLinkRecord,
    MaskedDwellRecord,
    MissCause,
    RngStreamRecord,
    SlotRecord,
    SupervisorRecord,
    TagOutcomeRecord,
)

#: Link records one detailed pass keeps; the rest are only counted
#: (``PassObservation.truncated_link_records``).
MAX_LINK_RECORDS_PER_PASS = 20000


class _TagAggregate:
    """Per-tag rollup of everything seen during one pass (hot path)."""

    __slots__ = (
        "dwells",
        "energized",
        "collision_slots",
        "solo_garbled_slots",
        "best_no_fade_margin_db",
        "best_unfaulted_margin_db",
    )

    def __init__(self) -> None:
        self.dwells = 0
        self.energized = 0
        self.collision_slots = 0
        self.solo_garbled_slots = 0
        self.best_no_fade_margin_db: Optional[float] = None
        self.best_unfaulted_margin_db: Optional[float] = None


@dataclass(frozen=True)
class PassObservation:
    """Everything a recorded pass observed, ready to pickle.

    Deterministic by construction: no wall-clock values, only functions
    of the seeds — so parity checks (serial vs parallel, cached vs
    uncached) hold with recording enabled too.
    """

    trial: int
    tag_outcomes: Tuple[TagOutcomeRecord, ...]
    #: The per-pass counters and margin histograms; merged into the
    #: run registry on absorb.
    metrics: MetricsRegistry
    link_records: Tuple[DwellLinkRecord, ...] = ()
    slot_records: Tuple[SlotRecord, ...] = ()
    masked_dwells: Tuple[MaskedDwellRecord, ...] = ()
    supervisor_records: Tuple[SupervisorRecord, ...] = ()
    rng_records: Tuple[RngStreamRecord, ...] = ()
    #: Link records dropped beyond the per-pass cap (0 = complete).
    truncated_link_records: int = 0

    def miss_causes(self) -> Dict[str, MissCause]:
        """EPC -> cause for every missed tag of this pass."""
        return {
            out.epc: out.cause
            for out in self.tag_outcomes
            if not out.read and out.cause is not None
        }

    def outcome_for(self, epc: str) -> Optional[TagOutcomeRecord]:
        for out in self.tag_outcomes:
            if out.epc == epc:
                return out
        return None

    def records(self) -> Iterator[Any]:
        """All typed records of this pass, for JSONL export."""
        for rec in self.tag_outcomes:
            yield rec
        for rec in self.masked_dwells:
            yield rec
        for rec in self.supervisor_records:
            yield rec
        for rec in self.link_records:
            yield rec
        for rec in self.slot_records:
            yield rec
        for rec in self.rng_records:
            yield rec


class PassRecording:
    """Mutable per-pass sink the simulator's hooks write into."""

    def __init__(self, detail: bool, trial: int) -> None:
        self.detail = detail
        self.trial = trial
        self._aggregates: Dict[str, _TagAggregate] = {}
        self._metrics = MetricsRegistry()
        self._forward_hist = self._metrics.histogram(
            "pass.forward_margin_db", MARGIN_EDGES_DB
        )
        self._reverse_hist = self._metrics.histogram(
            "pass.reverse_margin_db", MARGIN_EDGES_DB
        )
        self._link_records: List[DwellLinkRecord] = []
        self._slot_records: List[SlotRecord] = []
        self._masked: List[MaskedDwellRecord] = []
        self._rng: List[RngStreamRecord] = []
        self._masked_count = 0
        self._truncated = 0
        #: Counter handles by name, each kept from its first increment
        #: on. Declaring a counter only when it first counts keeps the
        #: registry's names, and their order, what the hooks make them.
        self._counters: Dict[str, Counter] = {}

    def _count(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to the per-pass counter ``name``."""
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = self._metrics.counter(name)
        counter.inc(amount)

    def _aggregate(self, epc: str) -> _TagAggregate:
        agg = self._aggregates.get(epc)
        if agg is None:
            agg = _TagAggregate()
            self._aggregates[epc] = agg
        return agg

    # -- hooks driven by the simulator ------------------------------------

    def link(
        self,
        epc: str,
        result: Optional[LinkResult],
        fault_loss_db: float,
        no_fade_margin_db: float,
    ) -> bool:
        """One link-budget evaluation for one (tag, dwell).

        ``result`` is ``None`` when the forward-link short-circuit
        skipped the composition. ``no_fade_margin_db`` is the forward
        margin with the small-scale fading term removed — the quantity
        the head-room classification (OUT_OF_ZONE vs UNDER_ENERGIZED) is
        decided on. Returns whether the pass keeps a
        :class:`~repro.obs.records.DwellLinkRecord` of the evaluation:
        only a detailed pass does, up to
        :data:`MAX_LINK_RECORDS_PER_PASS`. The caller then builds it and
        hands it to :meth:`keep_link`.
        """
        agg = self._aggregate(epc)
        agg.dwells += 1
        if result is not None and result.activated:
            agg.energized += 1
        unfaulted = no_fade_margin_db + fault_loss_db
        if (
            agg.best_no_fade_margin_db is None
            or no_fade_margin_db > agg.best_no_fade_margin_db
        ):
            agg.best_no_fade_margin_db = no_fade_margin_db
        if (
            agg.best_unfaulted_margin_db is None
            or unfaulted > agg.best_unfaulted_margin_db
        ):
            agg.best_unfaulted_margin_db = unfaulted
        self._count("pass.link_evals")
        if result is None:
            self._count("pass.short_circuits")
        else:
            self._forward_hist.observe(result.forward_margin_db)
            self._reverse_hist.observe(result.reverse_margin_db)
        if not self.detail:
            return False
        if len(self._link_records) < MAX_LINK_RECORDS_PER_PASS:
            return True
        self._truncated += 1
        return False

    def keep_link(self, record: DwellLinkRecord) -> None:
        """Keep the record of the evaluation :meth:`link` just accepted."""
        self._link_records.append(record)

    def round(
        self, reader_id: str, antenna_id: str, slots: Sequence[SlotOutcome]
    ) -> None:
        """One full inventory round: the slots it returned, in order."""
        for slot in slots:
            responders = slot.responders
            outcome = slot.kind
            if outcome == "collision":
                if len(responders) >= 2:
                    for epc in responders:
                        self._aggregate(epc).collision_slots += 1
                    self._count("pass.collision_slots")
                else:
                    # A garbled solo reply: the reader files it as a
                    # collision, but nobody else was on the air.
                    self._aggregate(responders[0]).solo_garbled_slots += 1
                    self._count("pass.garbled_slots")
            elif outcome == "success":
                self._count("pass.success_slots")
            else:
                self._count("pass.empty_slots")
            if self.detail:
                self._slot_records.append(
                    SlotRecord(
                        time=slot.time,
                        trial=self.trial,
                        reader_id=reader_id,
                        antenna_id=antenna_id,
                        slot_index=slot.slot_index,
                        responders=responders,
                        outcome=outcome,
                        winner=slot.epc,
                    )
                )
        self._count("pass.rounds")

    def idle_round(
        self, reader_id: str, antenna_id: str, slot_times: Sequence[float]
    ) -> None:
        """A round in which no tag contended: the start time of each of
        its empty slots."""
        if slot_times:
            self._count("pass.empty_slots", len(slot_times))
            if self.detail:
                self._slot_records.extend(
                    SlotRecord(
                        time=time,
                        trial=self.trial,
                        reader_id=reader_id,
                        antenna_id=antenna_id,
                        slot_index=index,
                        responders=(),
                        outcome="empty",
                    )
                    for index, time in enumerate(slot_times)
                )
        self._count("pass.rounds")

    def idle_run(
        self,
        reader_id: str,
        antenna_id: str,
        rounds: int,
        slots_per_round: int,
    ) -> None:
        """``rounds`` back-to-back idle rounds of ``slots_per_round``
        empty slots each.

        Declares and adds to the counters exactly as ``rounds`` calls of
        :meth:`idle_round` would. A detailed recording keeps a record of
        every slot, with its time, so it takes :meth:`idle_round` for
        each round instead; this raises :class:`ValueError` on one.
        """
        if self.detail:
            raise ValueError(
                "a detailed recording keeps every slot's record: "
                "record each idle round with idle_round"
            )
        if rounds <= 0:
            return
        if slots_per_round > 0:
            self._count("pass.empty_slots", rounds * slots_per_round)
        self._count("pass.rounds", rounds)

    def masked_dwell(
        self,
        time: float,
        reader_id: str,
        antenna_id: Optional[str],
        reason: str,
    ) -> None:
        """A dwell skipped by an injected fault (the blind evidence)."""
        self._masked_count += 1
        self._count("pass.masked_dwells")
        self._masked.append(
            MaskedDwellRecord(
                time=time,
                trial=self.trial,
                reader_id=reader_id,
                antenna_id=antenna_id,
                reason=reason,
            )
        )

    def rng_stream(self, name: str, seed: int) -> None:
        self._rng.append(RngStreamRecord(trial=self.trial, name=name, seed=seed))

    # -- attribution -------------------------------------------------------

    def finalize(
        self,
        population: Tuple[str, ...],
        read_epcs: Any,
        first_read_times: Dict[str, float],
        read_counts: Dict[str, int],
        headroom_db: float,
        had_fault_plan: bool,
    ) -> PassObservation:
        """Attribute exactly one cause to every miss; freeze the pass.

        ``headroom_db`` is the simulator's fading head-room constant
        (:data:`repro.world.simulation.MAX_FADING_HEADROOM_DB`): a tag
        whose best no-fading forward margin never came within it could
        not have been energized by any draw.
        """
        outcomes: List[TagOutcomeRecord] = []
        causes = self._metrics  # shorthand for counter bumps below
        for epc in population:
            agg = self._aggregates.get(epc)
            was_read = epc in read_epcs
            cause: Optional[MissCause] = None
            if not was_read:
                cause = self._attribute(agg, headroom_db, had_fault_plan)
                causes.counter(f"pass.miss.{cause.value}").inc()
            else:
                causes.counter("pass.tags_read").inc()
            outcomes.append(
                TagOutcomeRecord(
                    trial=self.trial,
                    epc=epc,
                    read=was_read,
                    cause=cause,
                    first_read_time=first_read_times.get(epc),
                    reads=read_counts.get(epc, 0),
                    dwells_evaluated=agg.dwells if agg else 0,
                    energized_dwells=agg.energized if agg else 0,
                    collision_slots=agg.collision_slots if agg else 0,
                    solo_garbled_slots=agg.solo_garbled_slots if agg else 0,
                    best_no_fade_margin_db=(
                        agg.best_no_fade_margin_db if agg else None
                    ),
                    best_unfaulted_margin_db=(
                        agg.best_unfaulted_margin_db if agg else None
                    ),
                )
            )
        return PassObservation(
            trial=self.trial,
            tag_outcomes=tuple(outcomes),
            metrics=self._metrics,
            link_records=tuple(self._link_records),
            slot_records=tuple(self._slot_records),
            masked_dwells=tuple(self._masked),
            rng_records=tuple(self._rng),
            truncated_link_records=self._truncated,
        )

    def _attribute(
        self,
        agg: Optional[_TagAggregate],
        headroom_db: float,
        had_fault_plan: bool,
    ) -> MissCause:
        """The precedence documented in the module docstring."""
        if agg is not None and agg.collision_slots > 0:
            return MissCause.COLLISION
        if agg is not None and agg.energized > 0:
            return MissCause.NOT_INVENTORIED
        # Never energized from here on.
        if had_fault_plan and self._masked_count > 0:
            return MissCause.FAULT_MASKED
        best = agg.best_no_fade_margin_db if agg is not None else None
        unfaulted = agg.best_unfaulted_margin_db if agg is not None else None
        within = best is not None and best + headroom_db >= 0.0
        if (
            had_fault_plan
            and not within
            and unfaulted is not None
            and unfaulted + headroom_db >= 0.0
        ):
            # The injected port loss is what pushed it out of reach.
            return MissCause.FAULT_MASKED
        if within:
            return MissCause.UNDER_ENERGIZED
        return MissCause.OUT_OF_ZONE


class TracingSeedSequence(SeedSequence):
    """A :class:`~repro.sim.rng.SeedSequence` that logs every derivation.

    Wraps the root seed of a detailed pass: each named stream handed
    out is reported (once — re-derivations of the same name are
    deduplicated) to the pass recording as an
    :class:`~repro.obs.records.RngStreamRecord`. Derivation itself is
    untouched, so the streams — and therefore the run — are bit-identical
    with tracing on or off.
    """

    def __init__(self, root_seed: int, recording: PassRecording) -> None:
        super().__init__(root_seed)
        self._recording = recording
        self._seen: set = set()

    def _report(self, name: str, stream: RandomStream) -> RandomStream:
        if name not in self._seen:
            self._seen.add(name)
            self._recording.rng_stream(name, stream.seed)
        return stream

    def stream(self, name: str) -> RandomStream:
        return self._report(name, super().stream(name))

    def trial_stream(self, name: str, trial_index: int) -> RandomStream:
        return self._report(
            f"{name}#trial={trial_index}",
            super().trial_stream(name, trial_index),
        )


class Recorder:
    """Run-level observability handle: one switch plus the run aggregate.

    Hand one to a :class:`~repro.world.simulation.PortalPassSimulator`
    (or a scenario entry point) to turn recording on; ``detail=True``
    also captures link, slot and RNG records. A recorder pickles as its
    switch alone, so worker processes get an empty recorder with the
    same ``detail``; their observations come back inside each
    ``PassResult`` and are folded in by :meth:`absorb_trial_set` in the
    parent process. :func:`copy.copy` and :func:`copy.deepcopy` go
    through the same path, so they too return an empty recorder with
    the same ``detail``: read a finished run from the recorder itself.
    """

    def __init__(self, detail: bool = False) -> None:
        self.detail = detail
        self.metrics = MetricsRegistry()
        self.observations: List[PassObservation] = []
        #: Passes absorbed per trial-set label, in absorption order.
        self.trial_sets: Dict[str, int] = {}

    def __reduce__(self) -> Tuple[type, Tuple[bool]]:
        return (Recorder, (self.detail,))

    def begin_pass(self, trial: int) -> PassRecording:
        return PassRecording(self.detail, trial)

    @property
    def events(self) -> List[Any]:
        """Every absorbed pass's records, in absorption order."""
        return [rec for obs in self.observations for rec in obs.records()]

    # -- aggregation (parent process only) ---------------------------------

    def absorb_observation(self, observation: PassObservation) -> None:
        """Fold one pass's observation into the run totals."""
        self.metrics.merge(observation.metrics)
        self.observations.append(observation)

    def absorb_trial_set(self, label: str, trial_set: Any) -> None:
        """Fold a :class:`~repro.core.experiment.TrialSet` in.

        Collects ``PassResult.obs`` observations (however the trials
        were executed — worker registries arrive pickled inside the
        outcomes), the per-trial wall times and the set's pass count.
        """
        outcomes = getattr(trial_set, "outcomes", [])
        for outcome in outcomes:
            observation = getattr(outcome, "obs", None)
            if observation is not None:
                self.absorb_observation(observation)
        self.trial_sets[label] = self.trial_sets.get(label, 0) + len(outcomes)
        for seconds in getattr(trial_set, "trial_seconds", []):
            self.metrics.timer("trial.wall_s").observe_s(seconds)
            self.metrics.timer(f"trial.wall_s[{label}]").observe_s(seconds)

    def miss_cause_counts(self) -> Dict[str, int]:
        """Total misses by cause across everything absorbed so far."""
        totals: Dict[str, int] = {}
        for cause in MissCause:
            metric = self.metrics.get(f"pass.miss.{cause.value}")
            if metric is not None:
                totals[cause.value] = metric.value
        return totals
