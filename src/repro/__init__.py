"""repro — reproduction of "Reliability Techniques for RFID-Based Object
Tracking Applications" (Rahmati, Zhong, Hiltunen, Jana; DSN 2007).

A physics-grounded passive-UHF RFID reliability simulator plus the
paper's redundancy analysis:

* :mod:`repro.rf` — propagation, antennas, materials, link budgets;
* :mod:`repro.sim` — seeded RNG streams, event types, read traces;
* :mod:`repro.protocol` — EPC Gen 2 inventory and baselines;
* :mod:`repro.world` — tags, boxes, humans, portals, pass simulation;
* :mod:`repro.reader` — wire format, middleware, back-end;
* :mod:`repro.core` — reliability metrics, the R_C redundancy model,
  calibration, planning, and software-correction baselines;
* :mod:`repro.analysis` — statistics and table/figure rendering;
* :mod:`repro.obs` — observability: link-budget tracing, miss-cause
  attribution, run metrics, manifests, and the ``explain`` pipeline.

Quickstart::

    from repro import PaperSetup, PortalPassSimulator, single_antenna_portal
    from repro.world.scenarios import run_table1_experiment

    table1 = run_table1_experiment(repetitions=12)
    for face, estimate in table1.items():
        print(face.value, f"{estimate.percent:.0f}%")
"""

from .core import (
    DEFAULT_SEED,
    DeploymentPlanner,
    EmpiricalReliabilityModel,
    PaperSetup,
    ReliabilityEstimate,
    combined_reliability,
    opportunities_needed,
    run_trials,
    tracking_success,
)
from .world import (
    CarrierGroup,
    Human,
    PortalPassSimulator,
    Tag,
    TagOrientation,
    TaggedBox,
    dual_antenna_portal,
    dual_reader_portal,
    failover_portal,
    single_antenna_portal,
)

__version__ = "1.2.0"

__all__ = [
    "DEFAULT_SEED",
    "DeploymentPlanner",
    "EmpiricalReliabilityModel",
    "PaperSetup",
    "ReliabilityEstimate",
    "combined_reliability",
    "opportunities_needed",
    "run_trials",
    "tracking_success",
    "CarrierGroup",
    "Human",
    "PortalPassSimulator",
    "Tag",
    "TagOrientation",
    "TaggedBox",
    "dual_antenna_portal",
    "dual_reader_portal",
    "failover_portal",
    "single_antenna_portal",
    "__version__",
]
