"""Large- and small-scale propagation models for the portal environment.

Three layers combine to form the channel gain between a reader antenna
and a tag:

1. **Deterministic path loss** — free-space Friis or a two-ray
   ground-reflection model (indoor lab floors cause the long-range
   ripple the paper observes between 2 m and 9 m in Figure 2).
2. **Log-normal shadowing** — slowly varying obstruction loss, sampled
   once per trial so repeated reads within a pass are correlated.
3. **Small-scale fading** — Rician fading per read attempt; the strong
   line-of-sight component in a portal makes Rician (rather than pure
   Rayleigh) the appropriate model, with the K-factor dropping when the
   path is obstructed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from .units import UHF_RFID_FREQ_HZ, db_to_linear, linear_to_db, wavelength
from ..sim.rng import RandomStream

#: ``4.0 * math.pi``, the value the amplitude formula's left factor takes.
_FOUR_PI = 4.0 * math.pi


def _wave_constants(freq_hz: float) -> Tuple[float, float, float]:
    """(wavelength, its tenth, wavenumber) at ``freq_hz``: what the path
    gain derives from its frequency, by the same operations. Raises as
    :func:`wavelength` does."""
    lam = wavelength(freq_hz)
    return lam, lam / 10.0, 2.0 * math.pi / lam


#: The constants at the band centre every calibrated environment uses,
#: derived once rather than on every call or in a model's own state.
_UHF_WAVE = _wave_constants(UHF_RFID_FREQ_HZ)


@dataclass(frozen=True)
class PathLossModel:
    """Deterministic path gain between two points at fixed heights.

    Parameters
    ----------
    freq_hz:
        Carrier frequency.
    use_two_ray:
        When true, add the ground-reflected ray (floor bounce). The
        interference between direct and reflected rays produces the
        distance-dependent ripple responsible for the gradual, bumpy
        reliability decay in the paper's Figure 2.
    ground_reflection_coeff:
        Amplitude reflection coefficient of the floor (negative for the
        phase inversion of a conductive/dielectric floor at shallow
        grazing angles).
    path_loss_exponent:
        Large-scale decay exponent. Free space is 2.0; cluttered indoor
        lab environments measure 2.2-2.8 because energy scatters out of
        the direct path. Applied as excess loss beyond a 1 m reference
        on top of the (two-ray) geometry.
    """

    freq_hz: float = UHF_RFID_FREQ_HZ
    use_two_ray: bool = True
    ground_reflection_coeff: float = -0.7
    path_loss_exponent: float = 2.0

    def path_gain_db(
        self,
        distance_m: float,
        tx_height_m: float = 1.0,
        rx_height_m: float = 1.0,
    ) -> float:
        """Path gain (dB, negative) for a link of horizontal separation ``distance_m``.

        ``distance_m`` is the horizontal ground distance; the direct-ray
        length is derived from the two heights.
        """
        if distance_m < 0.0:
            raise ValueError(f"distance must be non-negative, got {distance_m!r}")
        lam, min_distance, k = (
            _UHF_WAVE
            if self.freq_hz == UHF_RFID_FREQ_HZ
            else _wave_constants(self.freq_hz)
        )
        # Direct ray.
        dh = tx_height_m - rx_height_m
        d_direct = math.sqrt(distance_m * distance_m + dh * dh)
        # max(d_direct, min_distance), NaN included, without the call.
        if min_distance > d_direct:
            d_direct = min_distance
        # Excess clutter loss beyond the 1 m reference distance.
        excess_db = 0.0
        if d_direct > 1.0 and self.path_loss_exponent > 2.0:
            excess_db = (
                10.0
                * (self.path_loss_exponent - 2.0)
                * math.log10(d_direct)
            )
        # Complex amplitude of the direct ray, normalised to Friis.
        amp_direct = (lam / (_FOUR_PI * d_direct))
        if not self.use_two_ray:
            return linear_to_db(amp_direct * amp_direct) - excess_db
        # Ground-reflected ray: image of the transmitter below the floor.
        sh = tx_height_m + rx_height_m
        d_reflect = math.sqrt(distance_m * distance_m + sh * sh)
        if min_distance > d_reflect:
            d_reflect = min_distance
        amp_reflect = abs(self.ground_reflection_coeff) * (
            lam / (_FOUR_PI * d_reflect)
        )
        phase = k * (d_reflect - d_direct)
        if self.ground_reflection_coeff < 0.0:
            phase += math.pi
        # Coherent sum of the two rays.
        real = amp_direct + amp_reflect * math.cos(phase)
        imag = amp_reflect * math.sin(phase)
        power = real * real + imag * imag
        if power <= 0.0:
            power = 1e-30
        return linear_to_db(power) - excess_db

    def path_gain_upper_bound_db(
        self,
        distance_m: float,
        tx_height_m: float = 1.0,
        rx_height_m: float = 1.0,
    ) -> float:
        """A monotone-decreasing upper bound on :meth:`path_gain_db`.

        Replaces the coherent two-ray sum with its constructive maximum
        ``(|a_direct| + |a_reflect|)^2``, which bounds the true gain at
        every distance and — unlike the rippled exact gain — decreases
        monotonically with distance. Used by the read-range search to
        bracket the farthest point any link could possibly close.
        Without the two-ray term the bound equals the exact gain.
        """
        if distance_m < 0.0:
            raise ValueError(f"distance must be non-negative, got {distance_m!r}")
        lam = wavelength(self.freq_hz)
        dh = tx_height_m - rx_height_m
        d_direct = math.sqrt(distance_m * distance_m + dh * dh)
        d_direct = max(d_direct, lam / 10.0)
        excess_db = 0.0
        if d_direct > 1.0 and self.path_loss_exponent > 2.0:
            excess_db = (
                10.0
                * (self.path_loss_exponent - 2.0)
                * math.log10(d_direct)
            )
        amp_direct = lam / (4.0 * math.pi * d_direct)
        if not self.use_two_ray:
            return linear_to_db(amp_direct * amp_direct) - excess_db
        sh = tx_height_m + rx_height_m
        d_reflect = math.sqrt(distance_m * distance_m + sh * sh)
        d_reflect = max(d_reflect, lam / 10.0)
        amp_reflect = abs(self.ground_reflection_coeff) * (
            lam / (4.0 * math.pi * d_reflect)
        )
        amp = amp_direct + amp_reflect
        return linear_to_db(amp * amp) - excess_db


@dataclass(frozen=True)
class ShadowingModel:
    """Log-normal shadowing, sampled once per (trial, link) pair.

    The shadowing term models quasi-static obstruction differences
    between nominally identical trials — the reason the paper reports
    quartiles over 10-40 repetitions rather than a single number.
    """

    sigma_db: float = 2.5

    def sample_db(self, rng: RandomStream) -> float:
        """Draw one shadowing realisation in dB (zero-mean Gaussian)."""
        if self.sigma_db == 0.0:
            return 0.0
        return rng.gauss(0.0, self.sigma_db)


@dataclass(frozen=True)
class RicianFading:
    """Small-scale Rician fading drawn per read attempt.

    Parameters
    ----------
    k_factor_db:
        Ratio of line-of-sight to scattered power, in dB. A portal with
        clear line of sight sits around 6-10 dB; a body- or
        metal-obstructed path degrades towards Rayleigh (K -> -inf).
    """

    k_factor_db: float = 7.0

    def sample_power_gain(self, rng: RandomStream) -> float:
        """Draw a linear power gain with unit mean.

        The envelope is ``|v + s|`` where ``v`` is the fixed LOS phasor
        and ``s`` a complex Gaussian scatter term; the power gain is the
        squared envelope normalised so its expectation is 1.
        """
        k = db_to_linear(self.k_factor_db)
        # LOS amplitude and scatter variance for unit mean power.
        los = math.sqrt(k / (k + 1.0))
        sigma = math.sqrt(1.0 / (2.0 * (k + 1.0)))
        re = los + rng.gauss(0.0, sigma)
        im = rng.gauss(0.0, sigma)
        return re * re + im * im

    def scale(self, k_penalty_db: float) -> Tuple[float, float]:
        """(LOS amplitude, scatter sigma) of ``degraded(k_penalty_db)``.

        The two factors :meth:`power_gain_from_normals` of the degraded
        channel applies to its normals, by the same operations, so
        ``re = los + z1 * sigma``, ``im = z2 * sigma`` and
        ``re * re + im * im`` give its value bit for bit. They depend
        on the K-factor alone: the pass simulator takes them once per
        penalty and pass.
        """
        k = db_to_linear(self.k_factor_db - k_penalty_db)
        return math.sqrt(k / (k + 1.0)), math.sqrt(1.0 / (2.0 * (k + 1.0)))

    def power_gain_from_normals(self, z1: float, z2: float) -> float:
        """The :meth:`sample_power_gain` value for given unit normals.

        ``z1``/``z2`` are standard-normal draws (``rng.gauss(0.0, 1.0)``
        twice from a fresh stream). Splitting the draw from the K-factor
        scaling lets the pass simulator cache the expensive part — the
        seeded stream construction and its Gaussian pair — per fading
        coherence cell, while still honouring a per-evaluation K
        penalty. Yields exactly the value ``sample_power_gain`` would
        have produced from the same stream.
        """
        k = db_to_linear(self.k_factor_db)
        los = math.sqrt(k / (k + 1.0))
        sigma = math.sqrt(1.0 / (2.0 * (k + 1.0)))
        re = los + z1 * sigma
        im = z2 * sigma
        return re * re + im * im

    def degraded(self, k_penalty_db: float) -> "RicianFading":
        """A copy with the K-factor reduced by ``k_penalty_db``.

        Used when a path is partially obstructed: obstruction removes
        line-of-sight energy, pushing the channel towards Rayleigh.
        """
        return RicianFading(self.k_factor_db - k_penalty_db)


RAYLEIGH = RicianFading(k_factor_db=-40.0)
"""A Rician channel so scatter-dominated it is effectively Rayleigh."""


@dataclass(frozen=True)
class ChannelModel:
    """Bundle of the three propagation layers used by the link budget."""

    path_loss: PathLossModel = PathLossModel()
    shadowing: ShadowingModel = ShadowingModel()
    fading: RicianFading = RicianFading()

    def large_scale_gain_db(
        self,
        distance_m: float,
        tx_height_m: float,
        rx_height_m: float,
        shadowing_db: float,
    ) -> float:
        """Deterministic path gain plus an externally sampled shadowing term."""
        return (
            self.path_loss.path_gain_db(distance_m, tx_height_m, rx_height_m)
            + shadowing_db
        )
