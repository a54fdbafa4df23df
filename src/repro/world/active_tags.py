"""Active (battery-powered) tags — the paper's stated future work.

"Future extensions of this work involve experimenting with active
tags" (Section 5). Active tags change the physics completely: the tag
*transmits* its own beacon instead of backscattering, so

* there is no forward-link activation threshold — the dominant passive
  failure mode disappears;
* the link closes one way (tag -> reader) with transmit power in the
  0 to +10 dBm range, giving tens of metres of range through exactly
  the obstructions that kill passive tags;
* the cost is a battery: beacon rate trades tracking latency against
  lifetime.

This module models beaconing active tags against the same portal
geometry and occlusion world as the passive simulator, so the two
technologies are compared on identical workloads
(``benchmarks/test_extension_active_tags.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..rf.units import linear_to_db
from ..sim.events import TagReadEvent
from ..sim.rng import SeedSequence
from ..sim.trace import ReadTrace
from .simulation import CarrierGroup, PassResult, PortalPassSimulator
from .tags import Tag


@dataclass(frozen=True)
class ActiveTagModel:
    """Radio and battery characteristics of an active tag.

    Defaults follow 2006-era 433 MHz/915 MHz active RFID (e.g. the
    LANDMARC hardware of the paper's reference [11]).
    """

    tx_power_dbm: float = 0.0
    beacon_interval_s: float = 0.5
    antenna_gain_dbi: float = 0.0
    battery_mah: float = 500.0
    #: Charge per beacon (transmit burst + wakeup), in microamp-hours.
    charge_per_beacon_uah: float = 0.01
    #: Standby current between beacons.
    standby_current_ua: float = 5.0

    def __post_init__(self) -> None:
        if self.beacon_interval_s <= 0.0:
            raise ValueError(
                f"beacon interval must be positive, got {self.beacon_interval_s!r}"
            )
        if self.battery_mah <= 0.0:
            raise ValueError("battery capacity must be positive")
        if self.charge_per_beacon_uah < 0 or self.standby_current_ua < 0:
            raise ValueError("charge figures must be non-negative")

    @property
    def beacons_per_day(self) -> float:
        return 86400.0 / self.beacon_interval_s

    def battery_life_days(self) -> float:
        """Expected lifetime under continuous beaconing.

        Daily draw = beacons/day * charge/beacon + 24 h of standby.
        """
        daily_beacon_uah = self.beacons_per_day * self.charge_per_beacon_uah
        daily_standby_uah = self.standby_current_ua * 24.0
        daily_uah = daily_beacon_uah + daily_standby_uah
        return (self.battery_mah * 1000.0) / daily_uah


class ActiveTagSimulator:
    """Beacon-based pass simulation over the passive world model.

    Reuses the passive simulator's geometry, occlusion, and static-fade
    machinery (obstruction chords, clutter), but replaces the two-way
    backscatter budget with a one-way beacon budget evaluated at each
    beacon instant.
    """

    def __init__(
        self,
        passive: PortalPassSimulator,
        model: Optional[ActiveTagModel] = None,
    ) -> None:
        self._sim = passive
        self.model = model or ActiveTagModel()
        #: Active receivers listen on a quiet channel; sensitivity is
        #: thermal-limited rather than carrier-leak limited.
        self.receiver_sensitivity_dbm = -95.0

    def run_pass(
        self,
        carriers: Sequence[CarrierGroup],
        seeds: SeedSequence,
        trial: int,
    ) -> PassResult:
        """Simulate one pass with every tag beaconing on its interval."""
        all_tags: List[Tuple[CarrierGroup, Tag]] = [
            (carrier, tag) for carrier in carriers for tag in carrier.tags
        ]
        if not all_tags:
            raise ValueError("no tags in any carrier group")
        duration = max(c.motion.duration_s for c in carriers)
        env = self._sim.env

        # Static fades: same structure as the passive simulator.
        clutter: Dict[str, float] = {}
        for carrier, tag in all_tags:
            stream = seeds.trial_stream(f"active-clutter:{tag.epc}", trial)
            clutter[tag.epc] = (
                stream.gauss(0.0, carrier.clutter_sigma_db)
                if carrier.clutter_sigma_db > 0.0
                else 0.0
            )

        events: List[TagReadEvent] = []
        for reader in self._sim.portal.readers:
            for antenna in reader.antennas:
                for carrier, tag in all_tags:
                    shadow_stream = seeds.trial_stream(
                        f"active-shadow:{tag.epc}:{antenna.antenna_id}", trial
                    )
                    static_db = (
                        env.channel.shadowing.sample_db(shadow_stream)
                        + clutter[tag.epc]
                    )
                    # Beacon phase: tags are unsynchronised.
                    phase_stream = seeds.trial_stream(
                        f"active-phase:{tag.epc}", trial
                    )
                    t = phase_stream.uniform(
                        0.0, self.model.beacon_interval_s
                    )
                    while t < duration:
                        rx_dbm = self._rx_power_dbm(
                            carriers, carrier, tag, antenna, t,
                            static_db, seeds, trial,
                        )
                        if rx_dbm >= self.receiver_sensitivity_dbm:
                            events.append(
                                TagReadEvent(
                                    time=t,
                                    epc=tag.epc,
                                    reader_id=reader.reader_id,
                                    antenna_id=antenna.antenna_id,
                                    rssi_dbm=rx_dbm,
                                )
                            )
                        t += self.model.beacon_interval_s

        trace = ReadTrace()
        for event in sorted(events, key=lambda e: e.time):
            trace.record(event)
        return PassResult(trace=trace, duration_s=duration, rounds=0)

    # -- internals --------------------------------------------------------

    def _rx_power_dbm(
        self, carriers, carrier, tag, antenna, t, static_db, seeds, trial
    ) -> float:
        tag_pos = carrier.tag_world_position(tag, t)
        antenna_pos = antenna.position
        obstruction_db, _ = self._sim._obstruction_db(
            [(c, c.motion.position_at(t)) for c in carriers],
            antenna_pos.x,
            antenna_pos.y,
            antenna_pos.z,
            tag_pos.x,
            tag_pos.y,
            tag_pos.z,
        )
        direction = (tag_pos - antenna.position).normalized()
        reader_gain = self._sim.env.reader_antenna.gain_dbi(
            direction, antenna.boresight
        )
        distance = antenna.position.distance_to(tag_pos)
        path_gain = self._sim.env.channel.large_scale_gain_db(
            distance,
            tx_height_m=tag_pos.y,
            rx_height_m=antenna.position.y,
            shadowing_db=static_db,
        )
        cell = self._sim.params.fading_coherence_m
        bin_key = (
            int(tag_pos.x // cell),
            int(tag_pos.y // cell),
            int(tag_pos.z // cell),
        )
        fading_rng = seeds.trial_stream(
            f"active-fade:{tag.epc}:{antenna.antenna_id}:"
            f"{bin_key[0]}:{bin_key[1]}:{bin_key[2]}",
            trial,
        )
        fading_db = linear_to_db(
            max(
                self._sim.env.channel.fading.sample_power_gain(fading_rng),
                1e-12,
            )
        )
        return (
            self.model.tx_power_dbm
            + self.model.antenna_gain_dbi
            + reader_gain
            + path_gain
            - obstruction_db
            + fading_db
        )
