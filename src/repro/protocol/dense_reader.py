"""Reader-to-reader interference and dense-reader mode.

The paper's sharpest negative result: adding a *second reader* to a
portal **reduced** reliability severely, because the readers' carriers
interfered and their Matrics AR400s did not implement Gen 2's optional
dense-reader mode (DRM).

The mechanism: a reader transmits a strong CW carrier continuously
while listening for microwatt backscatter. A neighbouring reader's
carrier, even several channels away, leaks into the listener's receive
band (phase noise + spectral regrowth) and desensitizes it. DRM fixes
this by confining reader transmissions to dedicated spectral channels
and tag backscatter to Miller-subcarrier sidebands between them.

This module computes the interference power one reader's receiver sees
from its neighbours, which the link budget then turns into an elevated
decode floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from ..rf.geometry import Vec3
from ..rf.units import friis_path_gain_db, sum_powers_dbm

#: Spectral isolation a DRM-compliant reader pair achieves (carriers in
#: dedicated channels, tag backscatter in Miller sidebands between
#: them): pushes the coupled carrier below the receiver's thermal floor,
#: effectively removing reader-on-reader desensitization.
DRM_ISOLATION_DB = 90.0

#: Isolation between two *non*-DRM readers on different hop channels:
#: FHSS helps only when the hop sequences collide rarely, and adjacent-
#: channel leakage remains strong.
NON_DRM_CHANNEL_ISOLATION_DB = 15.0

#: Probability two frequency-hopping non-DRM readers land co-channel in
#: any given dwell (50 FCC channels, but synchronised dwell patterns and
#: adjacent-channel overlap make effective collisions far more common).
CO_CHANNEL_DWELL_PROBABILITY = 0.25


@dataclass(frozen=True)
class ReaderRadio:
    """Placement and RF state of one reader's antenna for interference purposes."""

    reader_id: str
    position: Vec3
    tx_power_dbm: float = 30.0
    antenna_gain_dbi: float = 6.0
    dense_reader_mode: bool = False


def carrier_coupling_db(
    distance_m: float,
    tx_gain_dbi: float,
    rx_gain_dbi: float,
) -> float:
    """Antenna-to-antenna coupling gain between two reader antennas.

    Free-space Friis between the ports; portal antennas usually face
    each other or the same zone, so boresight-ish gains are the
    realistic worst case the paper hit.
    """
    if distance_m <= 0.0:
        raise ValueError(f"distance must be positive, got {distance_m!r}")
    return tx_gain_dbi + rx_gain_dbi + friis_path_gain_db(distance_m)


def interference_at_receiver_dbm(
    victim: ReaderRadio,
    aggressors: Sequence[ReaderRadio],
    co_channel: bool = True,
) -> Optional[float]:
    """In-band interference power at ``victim``'s receiver, or None if quiet.

    Parameters
    ----------
    victim:
        The reader whose receive path is being desensitized.
    aggressors:
        Other simultaneously transmitting readers.
    co_channel:
        Whether the hop channels collide. The pass simulator rolls this
        once per inventory round with
        :data:`CO_CHANNEL_DWELL_PROBABILITY`.
    """
    levels = []
    for agg in aggressors:
        if agg.reader_id == victim.reader_id:
            continue
        distance = victim.position.distance_to(agg.position)
        if distance <= 0.0:
            distance = 0.01
        coupled = agg.tx_power_dbm + carrier_coupling_db(
            distance, agg.antenna_gain_dbi, victim.antenna_gain_dbi
        )
        if agg.dense_reader_mode and victim.dense_reader_mode:
            coupled -= DRM_ISOLATION_DB
        elif not co_channel:
            coupled -= NON_DRM_CHANNEL_ISOLATION_DB
        levels.append(coupled)
    if not levels:
        return None
    return sum_powers_dbm(*levels)


def tdma_schedule(antenna_ids: Sequence[str], dwell_s: float) -> Sequence[tuple]:
    """Round-robin (antenna_id, start_offset, duration) TDMA schedule.

    One reader multiplexes its antennas in time — "readers employ
    measures such as TDMA to prevent interference between two or more
    of their antennas" — so per-antenna dwell shrinks as antennas are
    added. That shrink is the "slight decrease in performance when
    blocking was not an issue" the paper observed for 2 antennas.
    """
    if not antenna_ids:
        raise ValueError("need at least one antenna")
    if dwell_s <= 0.0:
        raise ValueError(f"dwell must be positive, got {dwell_s!r}")
    slot = dwell_s / len(antenna_ids)
    return tuple(
        (antenna_id, i * slot, slot) for i, antenna_id in enumerate(antenna_ids)
    )
