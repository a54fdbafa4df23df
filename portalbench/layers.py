"""Per-layer metrics: traced calls into each module, and dispatch cost.

:func:`traced` swaps each public function or method listed in
:func:`trace_targets` for a span-recording stand-in, under the name its
caller resolves (``simulation.py`` imports ``compose_link`` and friends
by name, so those are patched in ``repro.world.simulation``) and
restores the originals on exit. No source file changes. A swap of a
name no caller resolves shows up as a span with no calls, which the
traced run refuses.
"""

from __future__ import annotations

import contextlib
import pickle
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from .capture import TrialsCall
from .spans import SpanRecorder

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("world.run_pass.self_s", "s/pass", "lower"),
    ("world.cache.geometry_hit_ratio", "ratio", "higher"),
    ("world.cache.fading_hit_ratio", "ratio", "higher"),
    ("world.cache.short_circuit_ratio", "ratio", "higher"),
    ("rf.chord.calls", "calls/pass", "lower"),
    ("rf.chord.self_s", "s/pass", "lower"),
    ("rf.link_terms.calls", "calls/pass", "lower"),
    ("rf.link_terms.self_s", "s/pass", "lower"),
    ("rf.compose.calls", "calls/pass", "lower"),
    ("rf.compose.self_s", "s/pass", "lower"),
    ("protocol.round.calls", "calls/pass", "lower"),
    ("protocol.round.self_s", "s/pass", "lower"),
    ("protocol.slot_success_ratio", "ratio", "higher"),
    ("protocol.collision_frac", "ratio", "lower"),
    ("protocol.interference.calls", "calls/pass", "lower"),
    ("protocol.interference.self_s", "s/pass", "lower"),
    ("sim.trial_stream.calls", "calls/pass", "lower"),
    ("sim.trial_stream.self_s", "s/pass", "lower"),
    ("core.pool_overhead_s", "s/pass", "lower"),
    ("core.worker_busy_frac", "ratio", "higher"),
    ("core.task_pickle_bytes", "B/pass", "lower"),
    ("core.result_pickle_bytes", "B/pass", "lower"),
    ("reader.poll.calls", "calls/pass", "lower"),
    ("reader.poll.self_s", "s/pass", "lower"),
    ("reader.retries", "count/pass", "lower"),
    ("reader.failed_polls", "count/pass", "lower"),
    ("reader.backend.self_s", "s/pass", "lower"),
    ("faults.masked_dwells", "count/pass", "higher"),
    ("obs.record.self_s", "s/pass", "lower"),
    ("obs.link_records", "count/pass", "higher"),
    ("trace.overhead_ratio", "x", "lower"),
)

#: Spans whose calls and self time are reported as ``<span>.calls`` and
#: ``<span>.self_s``.
COUNTED_SPANS = (
    "rf.chord",
    "rf.link_terms",
    "rf.compose",
    "protocol.round",
    "protocol.interference",
    "sim.trial_stream",
    "reader.poll",
)

#: Spans whose self time is summed into one ``<metric>`` each. Channel
#: callbacks are the pass loop's own code (obstruction ray-march, motion
#: lookups) run from inside an inventory round.
SELF_TIME_GROUPS = {
    "world.run_pass.self_s": ("world.run_pass", "world.channel"),
    "reader.backend.self_s": ("reader.backend",),
    "obs.record.self_s": ("obs.record",),
}


class LayerCounters:
    """Counts read from results as traced calls return."""

    def __init__(self) -> None:
        self.cache: Dict[str, int] = {}
        self.slots: Dict[str, int] = {}
        self.readers: Dict[int, Any] = {}

    def after_pass(self, args: tuple, kwargs: dict, result: Any) -> None:
        for key, value in (args[0]._last_cache_stats or {}).items():
            self.cache[key] = self.cache.get(key, 0) + value

    def after_round(self, args: tuple, kwargs: dict, result: Any) -> None:
        for slot in result.slots:
            self.slots[slot.kind] = self.slots.get(slot.kind, 0) + 1

    def after_poll(self, args: tuple, kwargs: dict, result: Any) -> None:
        self.readers[id(args[0])] = args[0]


def _public_methods(cls: type) -> List[str]:
    return sorted(
        name
        for name, value in vars(cls).items()
        if callable(value) and not name.startswith("_")
    )


def trace_targets(counters: LayerCounters) -> List[Tuple[str, Any, str, Any]]:
    """(span name, owner, attribute, observer) of every traced callable."""
    from repro.core import parallel
    from repro.obs.recorder import PassRecording, Recorder
    from repro.reader.backend import TrackingBackend
    from repro.reader.supervisor import SupervisedReader
    from repro.sim.rng import SeedSequence
    from repro.world import simulation
    from repro.world.scenarios import fault_injection

    targets = [
        ("pass", parallel.PassTrialTask, "__call__", None),
        ("pass", fault_injection.SupervisedPassTask, "__call__", None),
        (
            "world.run_pass",
            simulation.PortalPassSimulator,
            "run_pass",
            counters.after_pass,
        ),
        ("rf.chord", simulation, "segment_sphere_chord_length", None),
        ("rf.link_terms", simulation, "compute_link_terms", None),
        ("rf.compose", simulation, "compose_link", None),
        ("protocol.round", simulation, "run_inventory_round", counters.after_round),
        (
            "protocol.interference",
            simulation,
            "interference_at_receiver_dbm",
            None,
        ),
        ("sim.trial_stream", SeedSequence, "trial_stream", None),
        ("reader.poll", SupervisedReader, "poll", counters.after_poll),
        ("reader.backend", TrackingBackend, "ingest", None),
        ("reader.backend", TrackingBackend, "decide", None),
    ]
    for cls in (Recorder, PassRecording):
        targets.extend(
            ("obs.record", cls, name, None) for name in _public_methods(cls)
        )
    return targets


@contextlib.contextmanager
def traced(spans: SpanRecorder, counters: LayerCounters) -> Iterator[None]:
    """Patch every trace target for the duration of the block."""
    patched: List[Tuple[Any, str, Any]] = []
    try:
        for name, owner, attr, observe in trace_targets(counters):
            original = getattr(owner, attr)
            wrapper = spans.wrap(name, original, observe)
            if name == "protocol.round":
                wrapper = _wrap_channel(spans, wrapper)
            setattr(owner, attr, wrapper)
            patched.append((owner, attr, original))
        yield
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


def _wrap_channel(spans: SpanRecorder, traced_round: Any) -> Any:
    """Trace the channel callback an inventory round receives, so the
    round's self time excludes the link budgets evaluated for it."""

    def run_inventory_round(population, channel, *args, **kwargs):
        return traced_round(
            population, spans.wrap("world.channel", channel), *args, **kwargs
        )

    return run_inventory_round


def span_metrics(
    passes: int,
    totals: Dict[str, Tuple[int, float]],
    counters: LayerCounters,
    recorders: Sequence[Any],
) -> Dict[str, float]:
    """Per-pass layer metrics of one traced run.

    ``totals`` is :meth:`SpanRecorder.totals` of the run.
    """
    metrics: Dict[str, float] = {}
    for name in COUNTED_SPANS:
        calls, self_s = totals.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = _ratio(calls, passes)
        metrics[f"{name}.self_s"] = _ratio(self_s, passes)
    for metric, names in SELF_TIME_GROUPS.items():
        metrics[metric] = _ratio(
            sum(totals.get(n, (0, 0.0))[1] for n in names), passes
        )

    cache = counters.cache
    lookups = cache.get("geometry_hits", 0) + cache.get("geometry_misses", 0)
    fading = cache.get("fading_hits", 0) + cache.get("fading_misses", 0)
    metrics["world.cache.geometry_hit_ratio"] = _ratio(
        cache.get("geometry_hits", 0), lookups
    )
    metrics["world.cache.fading_hit_ratio"] = _ratio(
        cache.get("fading_hits", 0), fading
    )
    metrics["world.cache.short_circuit_ratio"] = _ratio(
        cache.get("short_circuits", 0), lookups
    )

    slots = counters.slots
    replies = slots.get("success", 0) + slots.get("collision", 0)
    metrics["protocol.slot_success_ratio"] = _ratio(slots.get("success", 0), replies)
    metrics["protocol.collision_frac"] = _ratio(
        slots.get("collision", 0), sum(slots.values())
    )

    readers = counters.readers.values()
    metrics["reader.retries"] = _ratio(sum(r.stats.retries for r in readers), passes)
    metrics["reader.failed_polls"] = _ratio(
        sum(r.stats.failed_polls for r in readers), passes
    )
    metrics["faults.masked_dwells"] = _ratio(
        _counter(recorders, "pass.masked_dwells"), passes
    )
    metrics["obs.link_records"] = _ratio(
        _counter(recorders, "pass.link_evals"), passes
    )
    return metrics


def core_metrics(calls: Sequence[TrialsCall]) -> Dict[str, float]:
    """Dispatch cost of the captured trial loops, per pass.

    Only loops that ran on a process pool ship tasks and results, so a
    serial workload reports zero bytes.
    """
    passes = sum(len(c.outcomes) for c in calls)
    busy = sum(sum(c.trial_seconds) for c in calls)
    capacity = sum(c.wall_s * c.workers for c in calls)
    overhead = sum(c.wall_s - sum(c.trial_seconds) / c.workers for c in calls)
    task_bytes = 0
    result_bytes = 0
    for c in calls:
        if c.workers > 1:
            chunks = min(c.workers, len(c.outcomes))
            task_bytes += chunks * len(pickle.dumps(c.task))
            result_bytes += len(
                pickle.dumps(
                    list(zip(range(len(c.outcomes)), c.outcomes, c.trial_seconds))
                )
            )
    return {
        "core.pool_overhead_s": _ratio(overhead, passes),
        "core.worker_busy_frac": _ratio(busy, capacity),
        "core.task_pickle_bytes": _ratio(task_bytes, passes),
        "core.result_pickle_bytes": _ratio(result_bytes, passes),
    }


def _ratio(part: float, whole: float) -> float:
    """``part / whole``, or 0 when there is nothing to divide by."""
    return part / whole if whole else 0.0


def _counter(recorders: Sequence[Any], name: str) -> int:
    total = 0
    for recorder in recorders:
        metric: Optional[Any] = recorder.metrics.get(name)
        if metric is not None:
            total += metric.value
    return total
