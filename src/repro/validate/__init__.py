"""Validation subsystem: continuous proof the simulator stays honest.

Every result this repository reports rests on three kinds of claims,
and each gets its own pillar of machine-checkable validation:

* **invariants** (:mod:`repro.validate.invariants`) — physical and
  model laws swept across configurations: link reciprocity, antenna
  pattern symmetry, monotonicity of reliability in power / distance /
  population, the independence-model bound ``R_C = 1 - Π(1 - P_i)``
  (matched within CI for independent opportunities, strict shortfall
  under induced correlation), and slotted-ALOHA throughput against the
  analytical ``n·p·(1-p)^(n-1)`` curve;
* **metamorphic** (:mod:`repro.validate.metamorphic`) — relations that
  must hold between *pairs* of runs: redundancy never hurts, EPC
  relabeling permutes but never changes aggregates, seed-split
  parallel trials merge to the serial result, CRC/EPC/JSONL round
  trips (the Hypothesis-driven versions live in ``tests/validate``;
  the deterministic sweeps here run in CI and from the CLI);
* **golden traces** (:mod:`repro.validate.golden`) — canonical
  recorded runs pinned as digest manifests under ``tests/golden/``;
  any bit-level drift in traces, waterfalls, slots or miss-cause
  counts fails the check, and ``python -m repro validate --bless``
  re-pins them intentionally.

Run everything with ``python -m repro validate`` (exit code 0 only
when every check passes) or per pillar with ``--pillar``. The
``REPRO_VALIDATE_DEEP=1`` environment variable (or ``--deep``) widens
every sweep for nightly-style runs.
"""

from .golden import (
    GOLDEN_DIR,
    bless_golden,
    check_golden,
    compute_golden_doc,
    diff_golden_docs,
    records_digest,
)
from .invariants import INVARIANT_CHECKS
from .metamorphic import METAMORPHIC_CHECKS
from .result import CheckResult, ValidationReport
from .runner import PILLARS, run_validation
from .statistics import (
    binomial_agreement,
    mean_confidence_interval,
    wilson_interval,
)

__all__ = [
    "CheckResult",
    "GOLDEN_DIR",
    "INVARIANT_CHECKS",
    "METAMORPHIC_CHECKS",
    "PILLARS",
    "ValidationReport",
    "binomial_agreement",
    "bless_golden",
    "check_golden",
    "compute_golden_doc",
    "diff_golden_docs",
    "mean_confidence_interval",
    "records_digest",
    "run_validation",
    "wilson_interval",
]
