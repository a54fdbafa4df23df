"""The paper's contribution: reliability analysis and redundancy techniques."""

from .calibration import (
    CALIBRATED_TX_POWER_DBM,
    PaperSetup,
    paper_link_environment,
    paper_simulation_parameters,
)
from .cascade import (
    CascadeHierarchy,
    MacroTag,
    cascade_item_reliability,
    expected_items_lost_jointly,
)
from .constraints import (
    AccompanyConstraint,
    ConstraintPipeline,
    Observation,
    RouteConstraint,
)
from .experiment import DEFAULT_SEED, TrialSet, run_trials, sweep
from .parallel import (
    REPRO_WORKERS_ENV,
    PassTrialTask,
    execute_timed_trials,
    resolve_workers,
    task_is_picklable,
)
from .model import (
    EmpiricalReliabilityModel,
    HUMAN_ONE_SUBJECT_RELIABILITY,
    HUMAN_TWO_SUBJECT_RELIABILITY,
    OBJECT_AVERAGE_RELIABILITY,
    OBJECT_LOCATION_RELIABILITY,
    OBJECT_REDUNDANCY_SUMMARY,
    OBJECT_TRACKING_BASELINE,
    READ_RANGE_MEAN_TAGS,
)
from .planner import CostModel, DeploymentPlanner, PlanOption
from .redundancy import (
    ReadOpportunity,
    RedundancyConfiguration,
    combined_reliability,
    combined_reliability_correlated,
    marginal_gain,
    opportunities_needed,
    uniform_opportunity_table,
)
from .reliability import (
    CountDistribution,
    ReliabilityEstimate,
    per_location_reliability,
    tracking_success,
)

from .sensitivity import (
    ParameterSpec,
    SensitivityResult,
    conclusion_robust,
    one_at_a_time,
    tornado_rows,
)

from .localization import (
    LandmarcLocator,
    LocalizationError,
    LocationEstimate,
    ReferenceTag,
    grid_references,
    signal_distance,
)

from .certification import SequentialCertifier, Verdict

__all__ = [
    "SequentialCertifier",
    "Verdict",

    "LandmarcLocator",
    "LocalizationError",
    "LocationEstimate",
    "ReferenceTag",
    "grid_references",
    "signal_distance",

    "ParameterSpec",
    "SensitivityResult",
    "conclusion_robust",
    "one_at_a_time",
    "tornado_rows",

    "CALIBRATED_TX_POWER_DBM",
    "PaperSetup",
    "paper_link_environment",
    "paper_simulation_parameters",
    "CascadeHierarchy",
    "MacroTag",
    "cascade_item_reliability",
    "expected_items_lost_jointly",
    "AccompanyConstraint",
    "ConstraintPipeline",
    "Observation",
    "RouteConstraint",
    "DEFAULT_SEED",
    "TrialSet",
    "run_trials",
    "sweep",
    "REPRO_WORKERS_ENV",
    "PassTrialTask",
    "execute_timed_trials",
    "resolve_workers",
    "task_is_picklable",
    "EmpiricalReliabilityModel",
    "HUMAN_ONE_SUBJECT_RELIABILITY",
    "HUMAN_TWO_SUBJECT_RELIABILITY",
    "OBJECT_AVERAGE_RELIABILITY",
    "OBJECT_LOCATION_RELIABILITY",
    "OBJECT_REDUNDANCY_SUMMARY",
    "OBJECT_TRACKING_BASELINE",
    "READ_RANGE_MEAN_TAGS",
    "CostModel",
    "DeploymentPlanner",
    "PlanOption",
    "ReadOpportunity",
    "RedundancyConfiguration",
    "combined_reliability",
    "combined_reliability_correlated",
    "marginal_gain",
    "opportunities_needed",
    "uniform_opportunity_table",
    "CountDistribution",
    "ReliabilityEstimate",
    "per_location_reliability",
    "tracking_success",
]
