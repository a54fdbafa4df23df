"""Physics and model invariants, swept across configurations.

Each check asserts a *law* — something that must hold for every
configuration, not a pinned value for one — and reports the first
counterexample when it breaks. The laws:

* **link reciprocity** — the backscatter channel is one physical
  channel traversed twice: the one-way gain inferred from the forward
  budget must equal the one inferred from the reverse budget, and the
  deterministic path gain must be symmetric under swapping the two
  ends (two-ray geometry depends on the height *pair*, not on which
  end transmits);
* **antenna pattern symmetry** — the patch pattern is a body of
  revolution about its boresight and the dipole doughnut is symmetric
  about its axis and its equatorial plane;
* **monotonicity** — read reliability cannot degrade when physics gets
  strictly easier: more TX power, less distance, fewer contending tags;
* **independence model** — simulated redundant opportunities match the
  paper's ``R_C = 1 - Π(1 - P_i)`` within a 95% CI when draws are
  independent, and fall measurably short of it under induced
  common-cause correlation (never exceeding it beyond CI);
* **slotted-ALOHA efficiency** — frame throughput tracks the
  analytical ``n·p·(1-p)^(n-1)`` (``p = 1/L``) within CI, and peaks
  where the theory says it must (frame size ≈ population).

Checks call the production code through its *modules* (``link_mod``,
``antenna_mod`` …) rather than through from-imports, so a test can
monkeypatch e.g. :func:`repro.rf.link.compose_link` and watch the
corresponding check fail — the proof the watchdog actually bites.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Tuple

from ..core.redundancy import (
    combined_reliability,
    combined_reliability_correlated,
)
from ..protocol import aloha as aloha_mod
from ..protocol.gen2 import TagChannel
from ..rf import antenna as antenna_mod
from ..rf import link as link_mod
from ..rf.geometry import Vec3
from ..sim.rng import SeedSequence
from .result import CheckResult, failed, ok
from .statistics import (
    binomial_agreement,
    holm_all_within,
    mean_confidence_interval,
)

PILLAR = "invariants"

#: Tolerance for identities that hold up to float summation order.
FLOAT_TOL = 1e-9


# ---------------------------------------------------------------------------
# link reciprocity


def _one_way_gains(
    env: "link_mod.LinkEnvironment",
    tx_power_dbm: float,
    geometry: "link_mod.LinkGeometry",
    **kwargs: float,
) -> Tuple[float, float]:
    """One-way channel gain inferred from each direction of the budget.

    ``forward = tx - cable + G`` and
    ``reverse = forward - backscatter + G - cable``, so both directions
    expose the same ``G`` — unless something breaks reciprocity.
    """
    result = link_mod.evaluate_link(env, tx_power_dbm, geometry, **kwargs)
    g_forward = result.forward_power_dbm - (tx_power_dbm - env.cable_loss_db)
    g_reverse = (
        result.reverse_power_dbm
        - result.forward_power_dbm
        + env.backscatter_loss_db
        + env.cable_loss_db
    )
    return g_forward, g_reverse


def check_link_reciprocity(seed: int, deep: bool = False) -> CheckResult:
    """Forward and reverse traverse one reciprocal channel; swapping the
    two ends of the deterministic path leaves its gain unchanged."""
    env = link_mod.LinkEnvironment()
    seeds = SeedSequence(seed)
    rng = seeds.stream("validate:reciprocity")
    cases = 200 if deep else 50
    checked = 0
    for i in range(cases):
        ant = Vec3(rng.uniform(-1, 1), rng.uniform(0.5, 2.0), 0.0)
        tag = Vec3(
            rng.uniform(-1, 1), rng.uniform(0.5, 2.0), rng.uniform(0.3, 8.0)
        )
        geometry = link_mod.LinkGeometry(
            antenna_position=ant,
            antenna_boresight=Vec3.unit_z(),
            tag_position=tag,
            tag_axis=Vec3.unit_x(),
        )
        g_fwd, g_rev = _one_way_gains(
            env,
            rng.uniform(20.0, 33.0),
            geometry,
            obstruction_loss_db=rng.uniform(0.0, 10.0),
            shadowing_db=rng.gauss(0.0, 3.0),
            fading_power_gain=math.exp(rng.gauss(0.0, 0.5)),
        )
        if abs(g_fwd - g_rev) > FLOAT_TOL:
            return failed(
                "link_reciprocity",
                PILLAR,
                f"one-way gain asymmetric at case {i}: forward "
                f"{g_fwd:.6f} dB vs reverse {g_rev:.6f} dB",
                case=i,
                g_forward_db=g_fwd,
                g_reverse_db=g_rev,
            )
        # Path-gain symmetry under swapping the two ends: the two-ray
        # geometry sees the same height pair either way.
        model = env.channel.path_loss
        d = geometry.distance_m
        a_to_b = model.path_gain_db(d, tx_height_m=ant.y, rx_height_m=tag.y)
        b_to_a = model.path_gain_db(d, tx_height_m=tag.y, rx_height_m=ant.y)
        if abs(a_to_b - b_to_a) > FLOAT_TOL:
            return failed(
                "link_reciprocity",
                PILLAR,
                f"path gain not symmetric at d={d:.3f} m, heights "
                f"({ant.y:.3f}, {tag.y:.3f}): {a_to_b:.9f} vs {b_to_a:.9f}",
                distance_m=d,
                gain_ab_db=a_to_b,
                gain_ba_db=b_to_a,
            )
        checked += 1
    return ok(
        "link_reciprocity",
        PILLAR,
        f"{checked} random geometries: one-way gains equal both "
        f"directions, path gain end-symmetric",
        cases=checked,
    )


# ---------------------------------------------------------------------------
# antenna pattern symmetry


def _rotate_about_z(v: Vec3, angle: float) -> Vec3:
    c, s = math.cos(angle), math.sin(angle)
    return Vec3(c * v.x - s * v.y, s * v.x + c * v.y, v.z)


def check_antenna_pattern_symmetry(seed: int, deep: bool = False) -> CheckResult:
    """The patch pattern is a body of revolution about boresight; the
    dipole doughnut is symmetric about its axis and equator."""
    patch = antenna_mod.PatchAntenna()
    dipole = antenna_mod.DipoleAntenna()
    boresight = Vec3.unit_z()
    axis = Vec3.unit_x()
    seeds = SeedSequence(seed)
    rng = seeds.stream("validate:pattern")
    cases = 400 if deep else 100
    checked = 0
    for i in range(cases):
        theta = rng.uniform(0.0, math.pi)
        roll_a = rng.uniform(0.0, 2.0 * math.pi)
        roll_b = rng.uniform(0.0, 2.0 * math.pi)
        base = Vec3(math.sin(theta), 0.0, math.cos(theta))
        d_a = _rotate_about_z(base, roll_a)
        d_b = _rotate_about_z(base, roll_b)
        g_a = patch.gain_dbi(d_a, boresight)
        g_b = patch.gain_dbi(d_b, boresight)
        if abs(g_a - g_b) > FLOAT_TOL:
            return failed(
                "antenna_pattern_symmetry",
                PILLAR,
                f"patch gain differs under rotation about boresight at "
                f"theta={theta:.4f}: {g_a:.9f} vs {g_b:.9f} dBi",
                theta_rad=theta,
                gain_a_dbi=g_a,
                gain_b_dbi=g_b,
            )
        direction = Vec3(
            rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)
        )
        if direction.norm() < 1e-6:
            continue
        direction = direction.normalized()
        g_fwd = dipole.gain_dbi(direction, axis)
        g_mirror = dipole.gain_dbi(direction * -1.0, axis)
        g_flip = dipole.gain_dbi(direction, axis * -1.0)
        if abs(g_fwd - g_mirror) > FLOAT_TOL or abs(g_fwd - g_flip) > FLOAT_TOL:
            return failed(
                "antenna_pattern_symmetry",
                PILLAR,
                f"dipole pattern asymmetric at case {i}: "
                f"{g_fwd:.9f} / {g_mirror:.9f} / {g_flip:.9f} dBi",
                case=i,
                gain_dbi=g_fwd,
                gain_mirror_dbi=g_mirror,
                gain_flip_dbi=g_flip,
            )
        checked += 1
    return ok(
        "antenna_pattern_symmetry",
        PILLAR,
        f"{checked} random directions: patch rotationally symmetric, "
        f"dipole axis/equator symmetric",
        cases=checked,
    )


# ---------------------------------------------------------------------------
# monotonicity


def check_monotone_tx_power(seed: int, deep: bool = False) -> CheckResult:
    """More conducted power never reads worse: margins rise dB-for-dB
    and the deterministic read range never shrinks."""
    env = link_mod.LinkEnvironment()
    geometry = link_mod.LinkGeometry(
        antenna_position=Vec3(0.0, 1.0, 0.0),
        antenna_boresight=Vec3.unit_z(),
        tag_position=Vec3(0.2, 1.1, 2.5),
        tag_axis=Vec3.unit_x(),
    )
    terms = link_mod.compute_link_terms(env, *geometry.components())
    powers = [20.0 + 0.5 * k for k in range(27)]  # 20..33 dBm
    margins = [
        link_mod.compose_link(env, p, terms).forward_margin_db for p in powers
    ]
    for (p_lo, m_lo), (p_hi, m_hi) in zip(
        zip(powers, margins), zip(powers[1:], margins[1:])
    ):
        if m_hi <= m_lo:
            return failed(
                "monotone_tx_power",
                PILLAR,
                f"forward margin fell from {m_lo:.3f} to {m_hi:.3f} dB "
                f"raising power {p_lo:g} -> {p_hi:g} dBm",
                power_low_dbm=p_lo,
                power_high_dbm=p_hi,
            )
    step = 0.05 if deep else 0.1
    ranges = [
        link_mod.free_space_read_range_m(env, p, step_m=step)
        for p in powers[:: 2 if not deep else 1]
    ]
    for i, (r_lo, r_hi) in enumerate(zip(ranges, ranges[1:])):
        if r_hi < r_lo:
            return failed(
                "monotone_tx_power",
                PILLAR,
                f"read range shrank from {r_lo:.2f} to {r_hi:.2f} m when "
                f"power rose (sweep index {i})",
                index=i,
                range_low_m=r_lo,
                range_high_m=r_hi,
            )
    return ok(
        "monotone_tx_power",
        PILLAR,
        f"forward margin and read range non-decreasing over "
        f"{powers[0]:g}..{powers[-1]:g} dBm",
        powers=len(powers),
        max_range_m=max(ranges),
    )


def check_monotone_distance(seed: int, deep: bool = False) -> CheckResult:
    """Farther tag planes never read better (Figure 2's backbone),
    measured end-to-end through the pass simulator."""
    from ..world.scenarios.read_range import run_read_range_experiment

    distances = (1.0, 3.0, 5.0, 8.0) if deep else (1.0, 3.0, 5.0)
    reps = 6 if deep else 3
    results = run_read_range_experiment(
        distances_m=distances, repetitions=reps, seed=seed
    )
    means: List[Tuple[float, float, float]] = []
    for d in distances:
        dist = results[d].distribution
        mean, low, high = mean_confidence_interval(
            [float(c) for c in dist.counts]
        )
        means.append((d, mean, high - mean))
    for (d_near, m_near, h_near), (d_far, m_far, h_far) in zip(
        means, means[1:]
    ):
        # Allow CI-wide slack: equality within noise is fine, a clear
        # inversion is not.
        if m_far > m_near + h_near + h_far:
            return failed(
                "monotone_distance",
                PILLAR,
                f"mean tags read rose from {m_near:.2f}@{d_near:g}m to "
                f"{m_far:.2f}@{d_far:g}m beyond CI slack",
                near_m=d_near,
                far_m=d_far,
                mean_near=m_near,
                mean_far=m_far,
            )
    return ok(
        "monotone_distance",
        PILLAR,
        "mean tags read non-increasing over "
        + " > ".join(f"{m:.1f}@{d:g}m" for d, m, _ in means),
        points=[{"distance_m": d, "mean": m} for d, m, _ in means],
    )


def _perfect_channel(epc: str) -> TagChannel:
    return TagChannel(energized=True, reply_decode_p=1.0)


def _frame_successes(
    population_sizes: List[int],
    frame_size: int,
    frames: int,
    seeds: SeedSequence,
) -> Dict[int, List[int]]:
    """Per-frame success counts for each population size (clean channel)."""
    per_n: Dict[int, List[int]] = {}
    for n in population_sizes:
        epcs = [f"EPC-{n}-{i:04d}" for i in range(n)]
        counts: List[int] = []
        for f in range(frames):
            rng = seeds.trial_stream(f"validate:aloha:{n}:{frame_size}", f)
            result = aloha_mod.run_aloha_frame(
                epcs, _perfect_channel, rng, frame_size
            )
            counts.append(len(result.read_epcs))
        per_n[n] = counts
    return per_n


def check_monotone_tag_count(seed: int, deep: bool = False) -> CheckResult:
    """Per-tag read probability in a fixed frame never improves when
    more tags contend (collision pressure only ever rises)."""
    seeds = SeedSequence(seed)
    frame_size = 32
    sizes = [1, 4, 16, 32, 64]
    frames = 200 if deep else 60
    per_n = _frame_successes(sizes, frame_size, frames, seeds)
    rates: List[Tuple[int, float, float]] = []
    for n in sizes:
        mean, low, high = mean_confidence_interval(
            [c / n for c in per_n[n]]
        )
        rates.append((n, mean, high - mean))
    for (n_lo, r_lo, h_lo), (n_hi, r_hi, h_hi) in zip(rates, rates[1:]):
        if r_hi > r_lo + h_lo + h_hi:
            return failed(
                "monotone_tag_count",
                PILLAR,
                f"per-tag read rate rose from {r_lo:.3f} (n={n_lo}) to "
                f"{r_hi:.3f} (n={n_hi}) beyond CI slack",
                n_low=n_lo,
                n_high=n_hi,
            )
    return ok(
        "monotone_tag_count",
        PILLAR,
        "per-tag read rate non-increasing over n="
        + " > ".join(f"{r:.2f}@{n}" for n, r, _ in rates),
        frame_size=frame_size,
        frames=frames,
    )


# ---------------------------------------------------------------------------
# independence model


def check_independence_model(seed: int, deep: bool = False) -> CheckResult:
    """Monte Carlo over redundant read opportunities: independent draws
    match ``R_C`` within CI; induced common-cause correlation falls
    measurably short and never exceeds the model."""
    ps = (0.6, 0.75, 0.85)
    correlation = 0.5
    trials = 20000 if deep else 4000
    seeds = SeedSequence(seed)
    r_c = combined_reliability(list(ps))
    r_corr = combined_reliability_correlated(list(ps), correlation)

    rng = seeds.stream("validate:independence")
    ind_successes = 0
    for _ in range(trials):
        if any(rng.bernoulli(p) for p in ps):
            ind_successes += 1
    independent = binomial_agreement(ind_successes, trials, r_c)
    if not independent.within:
        return failed(
            "independence_model",
            PILLAR,
            f"independent draws measured {independent.measured:.4f}, CI "
            f"[{independent.low:.4f}, {independent.high:.4f}] excludes "
            f"R_C={r_c:.4f}",
            measured=independent.measured,
            r_c=r_c,
        )

    rng = seeds.stream("validate:correlated")
    best = max(ps)
    corr_successes = 0
    for _ in range(trials):
        if rng.bernoulli(correlation):
            tracked = rng.bernoulli(best)
        else:
            tracked = any(rng.bernoulli(p) for p in ps)
        if tracked:
            corr_successes += 1
    correlated = binomial_agreement(corr_successes, trials, r_corr)
    if not correlated.within:
        return failed(
            "independence_model",
            PILLAR,
            f"correlated draws measured {correlated.measured:.4f}, CI "
            f"excludes the common-cause prediction {r_corr:.4f}",
            measured=correlated.measured,
            predicted=r_corr,
        )
    # The paper's bound: under correlation the measured reliability
    # falls short of the independence model, and never exceeds it.
    shortfall = binomial_agreement(corr_successes, trials, r_c)
    if not shortfall.below:
        return failed(
            "independence_model",
            PILLAR,
            f"correlated measurement {shortfall.measured:.4f} does not "
            f"fall short of R_C={r_c:.4f} beyond CI — redundancy under "
            f"common-cause correlation should underperform the model",
            measured=shortfall.measured,
            r_c=r_c,
        )
    return ok(
        "independence_model",
        PILLAR,
        f"independent {independent.measured:.4f} ≈ R_C {r_c:.4f} within "
        f"CI; correlated {correlated.measured:.4f} matches common-cause "
        f"model and undershoots R_C",
        trials=trials,
        r_c=r_c,
        r_correlated=r_corr,
        measured_independent=independent.measured,
        measured_correlated=correlated.measured,
    )


# ---------------------------------------------------------------------------
# slotted-ALOHA efficiency


def expected_frame_successes(n: int, frame_size: int) -> float:
    """Analytical mean singulations in one frame: ``n·(1-1/L)^(n-1)``.

    Each tag picks a slot uniformly (``p = 1/L``); it is singulated when
    nobody else picked its slot, so the expected success count is
    ``n·p·(1-p)^(n-1)·L = n·(1-1/L)^(n-1)``.
    """
    if n < 1 or frame_size < 1:
        raise ValueError("population and frame size must be >= 1")
    if frame_size == 1:
        return 1.0 if n == 1 else 0.0
    return n * (1.0 - 1.0 / frame_size) ** (n - 1)


def check_aloha_efficiency(seed: int, deep: bool = False) -> CheckResult:
    """Measured frame throughput tracks the analytical curve within a
    95% CI and peaks where the theory puts it (frame size ≈ n)."""
    seeds = SeedSequence(seed)
    frames = 300 if deep else 80
    n = 32
    sweep_sizes = [8, 16, 32, 64, 128]
    agreements = []
    measured_means: Dict[int, float] = {}
    for frame_size in sweep_sizes:
        counts = _frame_successes([n], frame_size, frames, seeds)[n]
        mean, low, high = mean_confidence_interval(counts)
        predicted = expected_frame_successes(n, frame_size)
        measured_means[frame_size] = mean
        agreements.append((frame_size, mean, low, high, predicted))
    outside = [
        (L, mean, predicted)
        for L, mean, low, high, predicted in agreements
        if not low <= predicted <= high
    ]
    # 5 independent 95% intervals: allow one to miss.
    if len(outside) > 1:
        L, mean, predicted = outside[0]
        return failed(
            "aloha_efficiency",
            PILLAR,
            f"{len(outside)}/5 frame sizes outside CI; first: L={L} "
            f"measured {mean:.2f} vs analytic {predicted:.2f}",
            outside=len(outside),
            frame_size=L,
            measured=mean,
            predicted=predicted,
        )
    # Optimum location: per-slot efficiency S/L peaks at L ≈ n among
    # the swept powers of two.
    efficiency = {L: measured_means[L] / L for L in sweep_sizes}
    best_L = max(efficiency, key=lambda L: efficiency[L])
    if best_L not in (16, 32):
        return failed(
            "aloha_efficiency",
            PILLAR,
            f"per-slot efficiency peaked at L={best_L} for n={n}; "
            f"theory puts the optimum at L ≈ n",
            best_frame_size=best_L,
            population=n,
        )
    return ok(
        "aloha_efficiency",
        PILLAR,
        f"throughput within CI of n·p·(1-p)^(n-1) at {5 - len(outside)}/5 "
        f"frame sizes; efficiency peak at L={best_L} for n={n}",
        frames=frames,
        population=n,
        measured={str(L): m for L, m in measured_means.items()},
        analytic={
            str(L): expected_frame_successes(n, L) for L in sweep_sizes
        },
    )


#: Ordered registry the runner walks; names are stable CLI/report keys.
INVARIANT_CHECKS: Dict[str, Callable[[int, bool], CheckResult]] = {
    "link_reciprocity": check_link_reciprocity,
    "antenna_pattern_symmetry": check_antenna_pattern_symmetry,
    "monotone_tx_power": check_monotone_tx_power,
    "monotone_distance": check_monotone_distance,
    "monotone_tag_count": check_monotone_tag_count,
    "independence_model": check_independence_model,
    "aloha_efficiency": check_aloha_efficiency,
}
