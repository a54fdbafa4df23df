"""The benchmark's workloads, each run through a public scenario entry point.

Importing this module imports the simulator; ``run.py`` times that
import as part of set-up.

* ``cart_redundancy`` — the six Table 3 cases, serial. A moving 12-box
  cart with 12 metal occluders: occlusion geometry, link terms and the
  pass loop dominate, and the geometry cache never hits. Too few passes
  fit in a run for steady throughput, so ``BENCHMARK.json`` does not
  gate it; it runs by hand and traced.
* ``read_range_sweep`` — Figure 2 (20 stationary tags, 10 distances)
  with two workers. The geometry cache saturates and there are no
  occluders: link composition, the Gen 2 protocol, per-pass stream
  derivation and process-pool dispatch dominate.
* ``failover_recorded`` — the fault-injection experiment with a default
  recorder attached: several readers, fault-masked dwells, mux
  takeovers, interference on every dwell, the supervised reader stack
  and observability capture.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import statistics
import traceback
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.model import (
    OBJECT_LOCATION_RELIABILITY,
    OBJECT_REDUNDANCY_SUMMARY,
    READ_RANGE_MEAN_TAGS,
)
from repro.obs import Recorder
from repro.sim.rng import SeedSequence
from repro.world.humans import HumanTagPlacement
from repro.world.objects import BoxFace
from repro.world.scenarios import fault_injection, read_range
from repro.world.scenarios.fault_injection import run_fault_injection_experiment
from repro.world.scenarios.object_tracking import (
    TABLE3_CASES,
    run_object_redundancy_experiment,
)
from repro.world.scenarios.read_range import (
    PAPER_DISTANCES_M,
    run_read_range_experiment,
)
from repro.world.simulation import PortalPassSimulator

from .capture import TrialsCall, Unit, capture_trials


def unit_seed(workload: str, seed: int, unit: int) -> int:
    """The scenario seed of the ``unit``-th call in a run seeded ``seed``."""
    digest = hashlib.sha256(f"{workload}:{seed}:{unit}".encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def unrecorded(
    simulator: PortalPassSimulator, use_link_cache: bool
) -> PortalPassSimulator:
    """A simulator for the same portal and link model, with no recorder."""
    return PortalPassSimulator(
        portal=simulator.portal,
        env=simulator.env,
        params=simulator.params,
        timing=simulator.timing,
        use_link_cache=use_link_cache,
    )


class Workload:
    """A named, seeded workload driven through one scenario entry point."""

    name: str = ""
    #: Module whose ``run_trials`` name the entry point resolves.
    module: str = ""
    workers: int = 1
    #: Passes one entry-point call runs.
    planned_passes: int = 0
    #: Passes per run re-checked on the scalar oracle path.
    oracle_sample: int = 1
    #: Spans that must record calls when this workload is traced.
    exercised_spans: Tuple[str, ...] = ()

    def call(self, seed: int, workers: int) -> Tuple[Any, Optional[Recorder]]:
        """Run the entry point once; returns (result, recorder)."""
        raise NotImplementedError

    def reliabilities(self, unit: Unit) -> List[float]:
        raise NotImplementedError

    def paper_error_pp(self, units: Sequence[Unit]) -> Optional[float]:
        """Mean absolute error against the paper, in percentage points."""
        return None

    def rounds(self, unit: Unit) -> int:
        return sum(o.rounds for c in unit.calls for o in c.outcomes)

    def outcome_key(self, outcome: Any) -> Any:
        """The part of a pass outcome the output check compares."""
        return sorted(outcome.read_epcs)

    def run_unit(self, seed: int, workers: int) -> Unit:
        """One entry-point call, with every trial loop it runs captured."""
        unit = Unit(seed=seed, planned_passes=self.planned_passes)
        module = importlib.import_module(self.module)
        with capture_trials(module, unit.calls):
            try:
                unit.result, unit.recorder = self.call(seed, workers)
            except Exception:
                unit.error = traceback.format_exc()
        if unit.error is None:
            if not unit.calls:
                raise RuntimeError(
                    f"{self.module}.run_trials was never called: the capture "
                    "hook is not bound to the name the entry point resolves"
                )
            unit.rounds = self.rounds(unit)
            unit.reliabilities = self.reliabilities(unit)
        return unit

    def compact(self, unit: Unit) -> None:
        """Keep only what the output check and the run record read.

        Whole pass outcomes, or a recorder left on a captured task's
        simulator, kept until the check would make memory grow with the
        length of the run, and ``peak_rss_mb`` with it.
        """
        for call in unit.calls:
            call.outcomes = [self.outcome_key(o) for o in call.outcomes]
            simulator = call.task.simulator
            if simulator.recorder is not None:
                call.task = dataclasses.replace(
                    call.task,
                    simulator=unrecorded(simulator, simulator.use_link_cache),
                )
        unit.recorder = None

    def oracle(self, call: TrialsCall, trial: int) -> Any:
        """Re-run one pass serially on the uncached scalar path, unrecorded.

        The portal, link model and carriers are the captured task's own.
        """
        task = dataclasses.replace(
            call.task, simulator=unrecorded(call.task.simulator, False)
        )
        return task(SeedSequence(call.seed), trial)


class CartRedundancy(Workload):
    name = "cart_redundancy"
    module = "repro.world.scenarios.object_tracking"
    planned_passes = len(TABLE3_CASES)
    oracle_sample = 1
    exercised_spans = (
        "pass",
        "world.run_pass",
        "world.channel",
        "rf.chord",
        "rf.link_terms",
        "rf.compose",
        "protocol.round",
        "sim.trial_stream",
    )

    #: Per-face single-antenna reliabilities for the R_C columns, taken
    #: from the paper rather than measured first (Table 1 is not rerun).
    SINGLE_OPPORTUNITY = {
        face: OBJECT_LOCATION_RELIABILITY[face.value]
        for face in (BoxFace.FRONT, BoxFace.SIDE_CLOSER)
    }

    #: Figure 5 bar of each (antennas, tags per box) configuration.
    BARS = {
        (1, 1): "1 antenna, 1 tag",
        (2, 1): "2 antennas, 1 tag",
        (1, 2): "1 antenna, 2 tags",
        (2, 2): "2 antennas, 2 tags",
    }

    def call(self, seed: int, workers: int) -> Tuple[Any, Optional[Recorder]]:
        result = run_object_redundancy_experiment(
            repetitions=1,
            seed=seed,
            single_opportunity=dict(self.SINGLE_OPPORTUNITY),
            workers=workers,
        )
        return result, None

    def reliabilities(self, unit: Unit) -> List[float]:
        return [
            value
            for outcome in unit.result
            for value in (outcome.measured.rate, outcome.calculated)
        ]

    def paper_error_pp(self, units: Sequence[Unit]) -> Optional[float]:
        tallies: Dict[str, List[int]] = {}
        for unit in units:
            for outcome in unit.result or ():
                tally = tallies.setdefault(outcome.case.name, [0, 0])
                tally[0] += outcome.measured.successes
                tally[1] += outcome.measured.trials
        if not tallies:
            return None
        bars: Dict[str, List[float]] = {}
        for case in TABLE3_CASES:
            successes, trials = tallies[case.name]
            key = (case.antennas, len(case.faces))
            bars.setdefault(self.BARS[key], []).append(successes / trials)
        return 100.0 * statistics.mean(
            abs(statistics.mean(rates) - OBJECT_REDUNDANCY_SUMMARY[bar][0])
            for bar, rates in bars.items()
        )


class ReadRangeSweep(Workload):
    name = "read_range_sweep"
    module = "repro.world.scenarios.read_range"
    workers = 2
    #: Figure 2's 40 reads per distance. A smaller call would spread one
    #: pool start-up over fewer passes and overstate dispatch cost.
    repetitions = read_range.PAPER_REPETITIONS
    planned_passes = len(PAPER_DISTANCES_M) * repetitions
    oracle_sample = 10
    exercised_spans = (
        "pass",
        "world.run_pass",
        "world.channel",
        "rf.link_terms",
        "rf.compose",
        "protocol.round",
        "sim.trial_stream",
    )

    def call(self, seed: int, workers: int) -> Tuple[Any, Optional[Recorder]]:
        result = run_read_range_experiment(
            repetitions=self.repetitions, seed=seed, workers=workers
        )
        return result, None

    def reliabilities(self, unit: Unit) -> List[float]:
        return [p.distribution.mean_fraction for p in unit.result.values()]

    def paper_error_pp(self, units: Sequence[Unit]) -> Optional[float]:
        counts: Dict[float, List[int]] = {}
        total_tags = 0
        for unit in units:
            for distance, point in (unit.result or {}).items():
                counts.setdefault(distance, []).extend(point.distribution.counts)
                total_tags = point.distribution.total_tags
        if not counts:
            return None
        return 100.0 * statistics.mean(
            abs(statistics.mean(c) - READ_RANGE_MEAN_TAGS[d]) / total_tags
            for d, c in counts.items()
        )


class FailoverRecorded(Workload):
    name = "failover_recorded"
    module = "repro.world.scenarios.fault_injection"
    repetitions = fault_injection.PAPER_REPETITIONS
    #: One reader and a failover pair, each with and without a crash.
    planned_passes = 4 * repetitions
    oracle_sample = 8
    #: A tag on the side facing the antenna is read on every fault-free
    #: pass. With the default front tag some passes miss it, and a pass
    #: that never reads its tag evaluates the link on every round, costing
    #: 3-7x a pass that reads it early: throughput then swings with how
    #: many passes of a run happen to miss.
    PLACEMENT = HumanTagPlacement.SIDE_CLOSER
    exercised_spans = (
        "pass",
        "world.run_pass",
        "world.channel",
        "rf.chord",
        "rf.link_terms",
        "rf.compose",
        "protocol.round",
        "protocol.interference",
        "sim.trial_stream",
        "reader.poll",
        "reader.backend",
        "obs.record",
    )

    def call(self, seed: int, workers: int) -> Tuple[Any, Optional[Recorder]]:
        recorder = Recorder()
        result = run_fault_injection_experiment(
            placement=self.PLACEMENT,
            repetitions=self.repetitions,
            seed=seed,
            workers=workers,
            recorder=recorder,
        )
        return result, recorder

    def rounds(self, unit: Unit) -> int:
        return unit.recorder.metrics.get("pass.rounds").value

    def outcome_key(self, outcome: Any) -> Any:
        return [outcome.detected, outcome.verdict]

    def reliabilities(self, unit: Unit) -> List[float]:
        cells = (
            unit.result.single_fault_free,
            unit.result.single_crash,
            unit.result.failover_fault_free,
            unit.result.failover_crash,
        )
        return [cell.estimate.rate for cell in cells]

    def compact(self, unit: Unit) -> None:
        super().compact(unit)
        unit.result = None  # it holds every pass's recorded observation


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (CartRedundancy(), ReadRangeSweep(), FailoverRecorded())
}
