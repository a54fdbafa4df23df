"""repro.obs — the observability subsystem.

Zero-cost when disabled, structured when enabled:

* :mod:`repro.obs.records` — typed event records and the
  :class:`~repro.obs.records.MissCause` vocabulary;
* :mod:`repro.obs.metrics` — counters, fixed-bucket histograms and
  timers, mergeable across worker processes;
* :mod:`repro.obs.recorder` — the event bus: per-pass recording,
  miss-cause attribution, run-level aggregation. ``Recorder()`` keeps
  tag outcomes, masked dwells, supervision events and metrics;
  ``Recorder(detail=True)`` adds link, slot and RNG records;
* :mod:`repro.obs.manifest` — ``manifest.json`` provenance records;
* :mod:`repro.obs.jsonl` — ``events.jsonl`` round-trip;
* :mod:`repro.obs.explain` — the ``python -m repro explain`` pipeline
  (imported lazily: it depends on the scenario layer).

Quickstart::

    from repro.obs import Recorder
    from repro.world.scenarios import run_table1_experiment

    recorder = Recorder()
    run_table1_experiment(repetitions=2, recorder=recorder)
    print(recorder.miss_cause_counts())
"""

from .jsonl import (
    dump_records,
    parse_records,
    read_events_jsonl,
    write_events_jsonl,
)
from .manifest import (
    EVENTS_FILENAME,
    MANIFEST_FILENAME,
    RunManifest,
    config_hash,
    events_path,
    manifest_path,
    read_manifest,
    write_manifest,
)
from .metrics import (
    MARGIN_EDGES_DB,
    SECONDS_EDGES,
    Counter,
    Histogram,
    MetricsError,
    MetricsRegistry,
    Timer,
    percentile,
    summarise_timer,
)
from .records import (
    RECORD_TYPES,
    DwellLinkRecord,
    MaskedDwellRecord,
    MissCause,
    RngStreamRecord,
    SlotRecord,
    SupervisorRecord,
    TagOutcomeRecord,
    record_from_dict,
)
from .recorder import (
    PassObservation,
    PassRecording,
    Recorder,
    TracingSeedSequence,
)

__all__ = [
    "Counter",
    "DwellLinkRecord",
    "EVENTS_FILENAME",
    "Histogram",
    "MANIFEST_FILENAME",
    "MARGIN_EDGES_DB",
    "MaskedDwellRecord",
    "MetricsError",
    "MetricsRegistry",
    "MissCause",
    "PassObservation",
    "PassRecording",
    "RECORD_TYPES",
    "Recorder",
    "RngStreamRecord",
    "RunManifest",
    "SECONDS_EDGES",
    "SlotRecord",
    "SupervisorRecord",
    "TagOutcomeRecord",
    "Timer",
    "TracingSeedSequence",
    "config_hash",
    "dump_records",
    "events_path",
    "manifest_path",
    "parse_records",
    "percentile",
    "read_events_jsonl",
    "read_manifest",
    "record_from_dict",
    "summarise_timer",
    "write_events_jsonl",
    "write_manifest",
]
