"""Output check: which passes of a run count as failed.

A pass fails when its entry-point call raised, when the call reported a
reliability outside [0, 1], or when it was sampled for re-execution and
an oracle disagreed with it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence, Tuple

from .capture import TrialsCall, Unit

#: ``oracle(call, trial)`` re-runs one captured pass another way.
Oracle = Callable[[TrialsCall, int], Any]

#: (unit index, call index, trial index) of one pass.
PassRef = Tuple[int, int, int]


@dataclass
class CheckReport:
    attempted: int
    failed: int
    problems: List[str] = field(default_factory=list)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted


def pass_refs(units: Sequence[Unit]) -> List[PassRef]:
    return [
        (u, c, t)
        for u, unit in enumerate(units)
        for c, call in enumerate(unit.calls)
        for t in range(len(call.outcomes))
    ]


def check_units(
    units: Sequence[Unit],
    key: Callable[[Any], Any],
    oracles: Dict[str, Oracle],
    sample: int,
    seed: int,
) -> CheckReport:
    """Count failed passes over ``units``.

    The captured outcomes must already be reduced to their ``key`` (see
    ``Workload.compact``). ``sample`` passes, chosen by ``seed``, are
    re-run through every oracle; a pass fails when the ``key`` of any
    oracle's outcome differs from its own.
    """
    attempted = 0
    failed: set = set()
    problems: List[str] = []
    for u, unit in enumerate(units):
        if unit.error is not None:
            attempted += unit.planned_passes
            failed.update((u, -1, t) for t in range(unit.planned_passes))
            problems.append(f"unit {u} raised:\n{unit.error}")
            continue
        attempted += unit.passes
        bad = [r for r in unit.reliabilities if not 0.0 <= r <= 1.0]
        if bad:
            failed.update(ref for ref in pass_refs(units) if ref[0] == u)
            problems.append(f"unit {u}: reliabilities outside [0, 1]: {bad}")
    candidates = [
        ref for ref in pass_refs(units) if units[ref[0]].error is None
    ]
    rng = random.Random(seed)  # repro: allow[rng-raw-stream] picks which passes to re-check; no simulated draw
    for u, c, t in rng.sample(candidates, min(sample, len(candidates))):
        call = units[u].calls[c]
        expected = call.outcomes[t]
        for name, oracle in oracles.items():
            try:
                got = key(oracle(call, t))
            except Exception as exc:  # a crashing oracle is a failed check
                got = f"raised {type(exc).__name__}: {exc}"
            if got != expected:
                failed.add((u, c, t))
                problems.append(
                    f"{call.label} trial {t} (seed {call.seed}): {name} "
                    f"oracle gave {got!r}, run gave {expected!r}"
                )
    return CheckReport(attempted=attempted, failed=len(failed), problems=problems)


def serial_rerun(call: TrialsCall, trial: int) -> Any:
    """The captured task run again in this process (parallel parity)."""
    from repro.sim.rng import SeedSequence

    return call.task(SeedSequence(call.seed), trial)
