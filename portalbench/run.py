"""Portal-pass benchmark: command-line entry point.

Usage, from the repository root::

    python3 portalbench/run.py --workload cart_redundancy --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` times the workload with nothing patched and reports the
end-to-end metrics; ``--trace 1`` runs one fixed-size sample serially
with every layer boundary wrapped and reports the per-layer metrics.
The last line of standard output is the result as one JSON object; a
fuller record of the run (environment, outcome digest, tail latency,
paper error, problems) is written under ``portalbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "portalbench" / "out"

#: Set-up is measured this many times per run and reported as the
#: median: once in this process, then in fresh interpreters, half of
#: them before the timed section and half after it, so the median
#: spans the machine's speed over the whole run.
SETUP_SAMPLES = 11

#: (name, unit) of every end-to-end metric, in report order.
END_TO_END = (
    ("passes_per_s", "1/s"),
    ("rounds_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="only import and build the workload, then print the seconds taken",
    )
    return parser.parse_args(argv)


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        return os.cpu_count() or 1


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setup():
    """Import the simulator and the workloads; return the workload table."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from portalbench.workloads import WORKLOADS

    return WORKLOADS


def _probe_setup(workload: str) -> float:
    """Set-up seconds measured in a fresh interpreter."""
    proc = subprocess.run(
        [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", workload,
            "--seed", "0",
            "--setup-probe",
        ],
        cwd=str(ROOT),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def _untraced(wl, args, setup_s: List[float]) -> Dict[str, Any]:
    from portalbench import stats
    from portalbench.check import check_units
    from portalbench.workloads import unit_seed

    probes = SETUP_SAMPLES - len(setup_s)
    setup_s.extend(_probe_setup(wl.name) for _ in range(probes // 2))

    units = []
    walls = []
    began = time.perf_counter()
    while True:
        unit_began = time.perf_counter()
        unit = wl.run_unit(unit_seed(wl.name, args.seed, len(units)), wl.workers)
        walls.append(time.perf_counter() - unit_began)
        wl.compact(unit)
        units.append(unit)
        if unit.error is not None or time.perf_counter() - began >= args.seconds:
            break
    rss = peak_rss_mb()
    probes = SETUP_SAMPLES - len(setup_s)
    setup_s.extend(_probe_setup(wl.name) for _ in range(probes))

    report = check_units(
        units, wl.outcome_key, _oracles(wl), wl.oracle_sample, args.seed
    )
    good = [u for u in units if u.error is None]
    wall = sum(walls)
    by_config: Dict[str, List[float]] = {}
    for u in good:
        for c in u.calls:
            by_config.setdefault(c.label, []).extend(c.trial_seconds)
    seconds = [s for v in by_config.values() for s in v]
    metrics = {name: 0.0 for name, _ in END_TO_END}  # no call completed
    if good:
        metrics = {
            "passes_per_s": len(seconds) / wall,
            "rounds_per_s": sum(u.rounds for u in good) / wall,
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": rss,
        }
    # The median per configuration first: configurations of very
    # different cost cannot leave the median in the gap between them.
    p50 = [statistics.median(v) for v in by_config.values()]
    tail = stats.tail_percentile(seconds)
    return {
        "report": report,
        "metrics": metrics,
        "record": {
            "unit_walls_s": walls,
            "pass_seconds": by_config,
            "setup_samples_s": setup_s,
            "pass_p50_ms": 1e3 * statistics.median(p50) if p50 else None,
            "pass_tail_ms": (
                None
                if tail is None
                else {"percentile": tail[0], "value": 1e3 * tail[1], "n": len(seconds)}
            ),
            "paper_err_pp": wl.paper_error_pp(good),
            "failed_frac": report.failed_frac,
            "digest": stats.digest(_keys(units)),
        },
    }


def _oracles(wl) -> Dict[str, Any]:
    from portalbench.check import serial_rerun

    oracles = {"scalar": wl.oracle}
    if wl.workers > 1:
        oracles["serial"] = serial_rerun
    return oracles


def _keys(units) -> List[Any]:
    """Outcome keys of compacted units, per captured trial loop."""
    return [[c.label, c.seed, c.outcomes] for u in units for c in u.calls]


def _traced(wl, args) -> Dict[str, Any]:
    from portalbench import stats
    from portalbench.check import check_units
    from portalbench.layers import (
        LayerCounters,
        core_metrics,
        span_metrics,
        traced,
    )
    from portalbench.spans import SpanRecorder
    from portalbench.workloads import unit_seed

    seed = unit_seed(wl.name, args.seed, 0)

    def timed_unit(workers: int):
        began = time.perf_counter()
        unit = wl.run_unit(seed, workers)
        return unit, time.perf_counter() - began

    normal, normal_wall = timed_unit(wl.workers)
    # The traced run is serial; its baseline is the faster of two
    # untraced serial runs, one on each side of it.
    baseline, untraced_wall = (
        timed_unit(1) if wl.workers > 1 else (normal, normal_wall)
    )
    spans = SpanRecorder()
    counters = LayerCounters()
    with traced(spans, counters):
        traced_unit, traced_wall = timed_unit(1)
    untraced_wall = min(untraced_wall, timed_unit(1)[1])

    totals = spans.totals()
    unbound = [n for n in wl.exercised_spans if totals.get(n, (0, 0.0))[0] == 0]
    metrics = span_metrics(
        spans.passes,
        totals,
        counters,
        [traced_unit.recorder] if traced_unit.recorder is not None else [],
    )
    metrics.update(core_metrics(normal.calls))
    metrics["trace.overhead_ratio"] = traced_wall / untraced_wall

    for unit in {id(u): u for u in (normal, baseline, traced_unit)}.values():
        wl.compact(unit)
    report = check_units(
        [normal, traced_unit],
        wl.outcome_key,
        _oracles(wl),
        wl.oracle_sample,
        args.seed,
    )
    # Tracing must not change a single outcome.
    expected, got = _keys([baseline]), _keys([traced_unit])
    if expected != got:
        changed = sum(
            a != b for x, y in zip(expected, got) for a, b in zip(x[2], y[2])
        )
        report.failed += max(changed, 1)
        report.problems.append(f"tracing changed {changed} pass outcomes")

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    span_path = OUT_DIR / f"{wl.name}-seed{args.seed}-spans.tsv"
    spans.write(str(span_path))
    return {
        "report": report,
        "metrics": metrics,
        "unbound": unbound,
        "record": {
            "passes": spans.passes,
            "spans": len(spans),
            "span_file": str(span_path.relative_to(ROOT)),
            "traced_wall_s": traced_wall,
            "untraced_wall_s": untraced_wall,
            "span_totals": {
                n: {"calls": c, "self_s": s} for n, (c, s) in totals.items()
            },
            "digest": stats.digest(_keys([normal])),
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    began = time.perf_counter()
    workloads = _setup()
    if args.workload not in workloads:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"choose from {', '.join(workloads)}",
            file=sys.stderr,
        )
        return 2
    setup_s = [time.perf_counter() - began]
    wl = workloads[args.workload]
    if args.setup_probe:
        print(repr(setup_s[0]))
        return 0
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    cores = nproc()
    if wl.workers > cores:
        print(
            f"error: {wl.name} needs {wl.workers} workers but only "
            f"{cores} CPUs are available",
            file=sys.stderr,
        )
        return 2

    if args.trace:
        from portalbench.layers import PER_LAYER

        outcome = _traced(wl, args)
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        outcome = _untraced(wl, args, setup_s)
        units = dict(END_TO_END)
    report = outcome["report"]
    metrics = outcome["metrics"]
    correct = report.failed == 0 and not outcome.get("unbound")

    record = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {
            "nproc": cores,
            "workers": wl.workers,
            "python": platform.python_version(),
            "platform": platform.platform(),
            "git_commit": git_commit(),
        },
        "correct": correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "problems": report.problems,
        "unbound_spans": outcome.get("unbound", []),
        "metrics": metrics,
        **outcome["record"],
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    record_path = OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2) + "\n")

    for problem in report.problems:
        print(f"check: {problem}", file=sys.stderr)
    if outcome.get("unbound"):
        print(
            "error: spans recorded no calls on "
            f"{wl.name}: {', '.join(outcome['unbound'])}",
            file=sys.stderr,
        )
        return 1
    print(
        f"{wl.name} seed={args.seed} trace={args.trace} "
        f"attempted={report.attempted} failed={report.failed} "
        f"record={record_path.relative_to(ROOT)}",
        file=sys.stderr,
    )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": report.attempted,
                "failed": report.failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
