"""Recorded performance benchmarks: ``python -m repro bench``.

The ROADMAP's north star is a simulator that runs "as fast as the
hardware allows"; this module is how that is *tracked* rather than
assumed. One invocation measures the hot paths (link-budget
evaluation, the per-pass cache, the read-range search) and a
representative repeat-the-pass workload in serial and parallel, then
writes everything to a machine-readable ``BENCH_<date>.json`` so the
perf trajectory survives across PRs.

The workload numbers double as a determinism check: the parallel run
must reproduce the serial outcomes bit-for-bit (``workload.parity``),
which is the contract :mod:`repro.core.parallel` is built on.
"""

from __future__ import annotations

import datetime as _datetime
import json
import os
import platform
import sys
import time
from typing import Any, Dict, List, Optional

from ..rf.link import (
    LinkEnvironment,
    _boresight_geometry,
    _linear_scan_read_range_m,
    compose_link,
    compute_link_terms,
    evaluate_link,
    free_space_read_range_m,
)
from ..sim.rng import SeedSequence
from .experiment import DEFAULT_SEED, run_trials

#: Workload sizes: (trials, link evaluations) per mode.
_FULL_TRIALS = 16
_QUICK_TRIALS = 4
_FULL_LINK_EVALS = 2000
_QUICK_LINK_EVALS = 200


def _time(fn, iterations: int) -> float:
    """Wall-clock seconds for ``iterations`` calls of ``fn``."""
    start = time.perf_counter()
    for _ in range(iterations):
        fn()
    return time.perf_counter() - start


def _bench_link_budget(link_evals: int) -> Dict[str, Any]:
    """Hot path 1: full link evaluation vs cached-terms composition."""
    env = LinkEnvironment()
    geometry = _boresight_geometry(2.5)
    full_s = _time(
        lambda: evaluate_link(
            env,
            30.0,
            geometry,
            obstruction_loss_db=5.0,
            tag_detuning_db=3.0,
            shadowing_db=-1.5,
            fading_power_gain=0.8,
        ),
        link_evals,
    )
    terms = compute_link_terms(env, geometry)
    cached_s = _time(
        lambda: compose_link(
            env,
            30.0,
            terms,
            obstruction_loss_db=5.0,
            tag_detuning_db=3.0,
            shadowing_db=-1.5,
            fading_power_gain=0.8,
        ),
        link_evals,
    )
    return {
        "iterations": link_evals,
        "evaluate_link_s": full_s,
        "evaluate_link_per_sec": link_evals / full_s if full_s > 0 else None,
        "compose_cached_terms_s": cached_s,
        "compose_cached_terms_per_sec": (
            link_evals / cached_s if cached_s > 0 else None
        ),
        "terms_cache_speedup": full_s / cached_s if cached_s > 0 else None,
    }


def _bench_read_range(quick: bool) -> Dict[str, Any]:
    """Hot path 2: envelope-bisect search vs the legacy linear scan."""
    env = LinkEnvironment()
    step = 0.05 if quick else 0.01
    fast_s = _time(lambda: free_space_read_range_m(env, 30.0, step_m=step), 3)
    scan_s = _time(lambda: _linear_scan_read_range_m(env, 30.0, step_m=step), 3)
    return {
        "step_m": step,
        "bisect_search_s": fast_s / 3.0,
        "linear_scan_s": scan_s / 3.0,
        "speedup": scan_s / fast_s if fast_s > 0 else None,
        "answers_equal": free_space_read_range_m(env, 30.0, step_m=step)
        == _linear_scan_read_range_m(env, 30.0, step_m=step),
    }


def _workload_task():
    """The representative workload: the paper's box cart, front tags."""
    from ..world.objects import BoxFace
    from ..world.portal import single_antenna_portal
    from ..world.scenarios.object_tracking import (
        _make_simulator,
        build_box_cart,
    )
    from .parallel import PassTrialTask

    sim = _make_simulator(single_antenna_portal())
    carrier, _ = build_box_cart([BoxFace.FRONT])
    return sim, PassTrialTask(simulator=sim, carriers=(carrier,))


def _plane_task():
    """The Figure 2 workload: the stationary 20-tag plane at 3 m."""
    from ..world.portal import single_antenna_portal
    from ..world.scenarios.object_tracking import _make_simulator
    from ..world.scenarios.read_range import build_tag_plane
    from .parallel import PassTrialTask

    sim = _make_simulator(single_antenna_portal())
    return sim, PassTrialTask(simulator=sim, carriers=(build_tag_plane(3.0),))


def _cache_on_off(sim, task, trials: int, seed: int) -> Dict[str, Any]:
    """Time ``task`` with the link cache on, then off, on the same seeds.

    The cache counters are summed over the cached passes. The composed
    layer answers ``composed_hits`` of the evaluations; a moving scene
    never repeats a link state, a stationary one does on every round
    after the first.
    """
    seeds = SeedSequence(seed)

    sim.use_link_cache = True
    totals: Dict[str, int] = {}
    cached = []
    start = time.perf_counter()
    for i in range(trials):
        cached.append(task(seeds, i))
        for key, value in sim._last_cache_stats.items():
            totals[key] = totals.get(key, 0) + value
    cached_s = time.perf_counter() - start
    cache_stats = sim._last_cache_stats

    sim.use_link_cache = False
    start = time.perf_counter()
    uncached = [task(seeds, i) for i in range(trials)]
    uncached_s = time.perf_counter() - start
    sim.use_link_cache = True

    lookups = totals["composed_hits"] + totals["composed_misses"]
    return {
        "passes": trials,
        "cached_s": cached_s,
        "cached_passes_per_sec": trials / cached_s if cached_s > 0 else None,
        "uncached_s": uncached_s,
        "uncached_passes_per_sec": (
            trials / uncached_s if uncached_s > 0 else None
        ),
        "cache_speedup": uncached_s / cached_s if cached_s > 0 else None,
        "bit_identical": cached == uncached,
        "composed_hits": totals["composed_hits"],
        "composed_misses": totals["composed_misses"],
        "composed_hit_ratio": (
            totals["composed_hits"] / lookups if lookups else None
        ),
        "cache_stats": totals,
        "last_pass_cache_stats": cache_stats,
    }


def _bench_pass_cache(trials: int, seed: int) -> Dict[str, Any]:
    """Hot path 3: the per-pass link cache, on vs off (serial).

    The top level times the moving cart; ``stationary_plane`` times the
    Figure 2 plane, where the composed layer replays link states.
    """
    sim, task = _workload_task()
    doc = _cache_on_off(sim, task, trials, seed)
    plane_sim, plane_task = _plane_task()
    doc["stationary_plane"] = _cache_on_off(plane_sim, plane_task, trials, seed)
    return doc


def _bench_workload(
    trials: int, workers: int, seed: int
) -> Dict[str, Any]:
    """Serial vs parallel fan-out of the representative workload."""
    _, task = _workload_task()

    start = time.perf_counter()
    serial = run_trials("bench:serial", task, trials, seed=seed, workers=1)
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    parallel = run_trials(
        "bench:parallel", task, trials, seed=seed, workers=workers
    )
    parallel_s = time.perf_counter() - start

    return {
        "description": (
            "12-box cart, front tags, full portal pass per trial "
            "(paper Table 1 workload)"
        ),
        "trials": trials,
        "serial": {
            "seconds": serial_s,
            "passes_per_sec": trials / serial_s if serial_s > 0 else None,
            "trial_times": serial.timing_summary(),
        },
        "parallel": {
            "workers": workers,
            "seconds": parallel_s,
            "passes_per_sec": trials / parallel_s if parallel_s > 0 else None,
            "trial_times": parallel.timing_summary(),
        },
        "speedup": serial_s / parallel_s if parallel_s > 0 else None,
        "parity": serial.outcomes == parallel.outcomes,
    }


def _bench_obs_overhead(trials: int, seed: int) -> Dict[str, Any]:
    """Observability cost on the Table 1 cart workload, three ways.

    * ``off`` — ``recorder=None``: the hooks reduce to one identity
      test per site; this is the mode every existing experiment runs in
      and the mode the <2% overhead budget applies to.
    * ``metrics`` — a default :class:`~repro.obs.Recorder`: per-pass
      counters, histograms and miss attribution, no event capture.
    * ``full`` — every capture flag on: link waterfalls, slots, RNG
      provenance.

    Read outcomes must be identical in all three modes — recording
    never perturbs the simulation.
    """
    from ..obs import Recorder
    from ..sim.trace import ReadTrace  # noqa: F401  (import cost off the clock)

    sim, task = _workload_task()
    seeds = SeedSequence(seed)

    def _run(recorder) -> Any:
        sim.recorder = recorder
        start = time.perf_counter()
        results = [task(seeds, i) for i in range(trials)]
        elapsed = time.perf_counter() - start
        sim.recorder = None
        return results, elapsed

    off, off_s = _run(None)
    metrics, metrics_s = _run(Recorder())
    full, full_s = _run(
        Recorder(capture_link_budget=True, capture_slots=True, capture_rng=True)
    )

    def _traces(results) -> Any:
        return [r.trace for r in results]

    return {
        "passes": trials,
        "off_s": off_s,
        "off_passes_per_sec": trials / off_s if off_s > 0 else None,
        "metrics_s": metrics_s,
        "metrics_overhead_pct": (
            100.0 * (metrics_s - off_s) / off_s if off_s > 0 else None
        ),
        "full_capture_s": full_s,
        "full_capture_overhead_pct": (
            100.0 * (full_s - off_s) / off_s if off_s > 0 else None
        ),
        "bit_identical": (
            _traces(off) == _traces(metrics) == _traces(full)
        ),
    }


def run_benchmark(
    workers: Optional[int] = None,
    quick: bool = False,
    seed: int = DEFAULT_SEED,
) -> Dict[str, Any]:
    """Run the full bench suite and return the result document."""
    if workers is None:
        workers = min(4, os.cpu_count() or 1)
    workers = max(1, workers)
    trials = _QUICK_TRIALS if quick else _FULL_TRIALS
    link_evals = _QUICK_LINK_EVALS if quick else _FULL_LINK_EVALS

    stages: List[str] = []

    def _stage(name: str) -> None:
        stages.append(name)
        print(f"bench: {name} ...", flush=True)

    _stage("link-budget microbench")
    link = _bench_link_budget(link_evals)
    _stage("read-range search")
    read_range = _bench_read_range(quick)
    _stage("pass cache on/off")
    pass_cache = _bench_pass_cache(max(2, trials // 4), seed)
    _stage("observability overhead")
    obs_overhead = _bench_obs_overhead(max(2, trials // 4), seed)
    _stage(f"workload serial vs {workers}-worker")
    workload = _bench_workload(trials, workers, seed)

    return {
        "meta": {
            "date": _datetime.date.today().isoformat(),  # repro: allow[det-wallclock] names the BENCH_<date>.json artifact; not simulated state
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
            "workers": workers,
            "quick": quick,
            "seed": seed,
            "stages": stages,
        },
        "hot_paths": {
            "link_budget": link,
            "read_range_search": read_range,
            "pass_cache": pass_cache,
            "obs_overhead": obs_overhead,
        },
        "workload": workload,
    }


def default_output_path(doc: Dict[str, Any]) -> str:
    """The conventional artifact name: ``BENCH_<date>.json``."""
    return f"BENCH_{doc['meta']['date']}.json"


def write_benchmark(doc: Dict[str, Any], path: Optional[str] = None) -> str:
    """Serialise a bench document; returns the path written."""
    path = path or default_output_path(doc)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")
    return path


def summarise(doc: Dict[str, Any]) -> str:
    """A human-readable recap of the numbers that matter."""
    wl = doc["workload"]
    pc = doc["hot_paths"]["pass_cache"]
    lines = [
        f"serial:   {wl['serial']['passes_per_sec']:.2f} passes/s",
        (
            f"parallel: {wl['parallel']['passes_per_sec']:.2f} passes/s "
            f"({wl['parallel']['workers']} workers, "
            f"speedup {wl['speedup']:.2f}x, "
            f"parity={'OK' if wl['parity'] else 'FAIL'})"
        ),
        (
            f"link cache: {pc['cache_speedup']:.2f}x over uncached "
            f"(bit-identical={'OK' if pc['bit_identical'] else 'FAIL'})"
        ),
        (
            f"link cache, stationary plane: "
            f"{pc['stationary_plane']['cache_speedup']:.2f}x over uncached, "
            f"composed hit ratio "
            f"{pc['stationary_plane']['composed_hit_ratio']:.3f} "
            f"(bit-identical="
            f"{'OK' if pc['stationary_plane']['bit_identical'] else 'FAIL'})"
        ),
        (
            f"trial time: p50 {wl['serial']['trial_times']['p50_s'] * 1e3:.1f} ms, "
            f"p95 {wl['serial']['trial_times']['p95_s'] * 1e3:.1f} ms (serial)"
        ),
        (
            "obs overhead: "
            f"{doc['hot_paths']['obs_overhead']['metrics_overhead_pct']:+.1f}% "
            "metrics-only, "
            f"{doc['hot_paths']['obs_overhead']['full_capture_overhead_pct']:+.1f}% "
            "full capture "
            f"(traces identical="
            f"{'OK' if doc['hot_paths']['obs_overhead']['bit_identical'] else 'FAIL'})"
        ),
        (
            f"read-range search: "
            f"{doc['hot_paths']['read_range_search']['speedup']:.1f}x "
            f"over linear scan"
        ),
    ]
    return "\n".join(lines)
