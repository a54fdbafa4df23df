"""Section 4 scenario: reader-level redundancy (and its failure).

The paper: "While one might expect to see similar improvements for
multiple readers per portal, our measurement clearly showed the
opposite: read reliability was severely reduced ... The reason is
reader-to-reader RF interference. While Gen 2 has standard measures to
combat this problem, called dense-reader mode, it is optional for
readers. Our readers did not support dense-reader mode."

This scenario measures one-subject tracking under three portal builds:
one reader (baseline), two readers without DRM (the paper's failing
configuration), and two readers with DRM (the fix the paper's hardware
lacked).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ...core.calibration import PaperSetup
from ...core.experiment import DEFAULT_SEED, run_trials, stable_hash
from ...core.parallel import PassTrialTask
from ...core.reliability import ReliabilityEstimate
from ...obs.recorder import Recorder
from ..humans import HumanTagPlacement
from ..portal import Portal, dual_reader_portal, single_antenna_portal
from .human_tracking import build_walk

PAPER_REPETITIONS = 20


@dataclass(frozen=True)
class ReaderRedundancyResult:
    """Tracking reliability per portal build."""

    single_reader: ReliabilityEstimate
    dual_no_drm: ReliabilityEstimate
    dual_with_drm: ReliabilityEstimate

    @property
    def interference_penalty(self) -> float:
        """Reliability lost by adding a non-DRM reader."""
        return self.single_reader.rate - self.dual_no_drm.rate

    @property
    def drm_recovery(self) -> float:
        """Reliability recovered by enabling dense-reader mode."""
        return self.dual_with_drm.rate - self.dual_no_drm.rate


def _measure(
    portal: Portal,
    label: str,
    placement: str,
    repetitions: int,
    seed: int,
    workers: Optional[int] = None,
    recorder: Optional[Recorder] = None,
) -> ReliabilityEstimate:
    simulator = PaperSetup().simulator(portal, recorder)
    carrier, humans = build_walk(1, [placement])
    epc = humans[0].tags[0].epc
    trials = run_trials(
        label,
        PassTrialTask(simulator=simulator, carriers=(carrier,)),
        repetitions,
        seed=seed ^ stable_hash(label),
        workers=workers,
        recorder=recorder,
    )
    return trials.success_estimate(lambda r: epc in r.read_epcs)


def run_reader_redundancy_experiment(
    placement: str = HumanTagPlacement.FRONT,
    repetitions: int = PAPER_REPETITIONS,
    seed: int = DEFAULT_SEED,
    workers: Optional[int] = None,
    recorder: Optional[Recorder] = None,
) -> ReaderRedundancyResult:
    """Measure the three portal builds on the same walking workload."""
    return ReaderRedundancyResult(
        single_reader=_measure(
            single_antenna_portal(), "reader-red:single", placement,
            repetitions, seed, workers=workers, recorder=recorder,
        ),
        dual_no_drm=_measure(
            dual_reader_portal(dense_reader_mode=False),
            "reader-red:dual-nodrm",
            placement,
            repetitions,
            seed,
            workers=workers,
            recorder=recorder,
        ),
        dual_with_drm=_measure(
            dual_reader_portal(dense_reader_mode=True),
            "reader-red:dual-drm",
            placement,
            repetitions,
            seed,
            workers=workers,
            recorder=recorder,
        ),
    )
