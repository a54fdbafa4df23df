"""Exact interference levels from the reader-to-reader model.

The co-channel/off-channel/DRM isolations are the whole interference
model the pass simulator uses for a second reader (the hop-collision
roll itself is ``CO_CHANNEL_DWELL_PROBABILITY``), so these tests pin
the levels in dB rather than only their ordering.
"""

import math

import pytest

from repro.protocol.dense_reader import (
    CO_CHANNEL_DWELL_PROBABILITY,
    DRM_ISOLATION_DB,
    NON_DRM_CHANNEL_ISOLATION_DB,
    ReaderRadio,
    carrier_coupling_db,
    interference_at_receiver_dbm,
    tdma_schedule,
)
from repro.rf.geometry import Vec3
from repro.rf.units import friis_path_gain_db, sum_powers_dbm
from repro.world.simulation import SimulationParameters


def _radio(reader_id, x, drm=False, power=30.0, gain=6.0):
    return ReaderRadio(
        reader_id=reader_id,
        position=Vec3(x, 1.0, 0.0),
        tx_power_dbm=power,
        antenna_gain_dbi=gain,
        dense_reader_mode=drm,
    )


def _single_aggressor_level(distance, power=30.0, gain=6.0):
    return power + 2 * gain + friis_path_gain_db(distance)


class TestCouplingFormula:
    @pytest.mark.parametrize("distance", [0.5, 1.0, 2.0, 3.7, 10.0])
    def test_coupling_is_gains_plus_friis(self, distance):
        assert carrier_coupling_db(distance, 6.0, 4.0) == pytest.approx(
            10.0 + friis_path_gain_db(distance)
        )

    @pytest.mark.parametrize("distance", [1.0, 2.5, 5.0])
    def test_doubling_distance_costs_six_db(self, distance):
        near = carrier_coupling_db(distance, 6.0, 6.0)
        far = carrier_coupling_db(2.0 * distance, 6.0, 6.0)
        assert near - far == pytest.approx(20.0 * math.log10(2.0))

    def test_gains_are_interchangeable(self):
        assert carrier_coupling_db(2.0, 3.0, 9.0) == pytest.approx(
            carrier_coupling_db(2.0, 9.0, 3.0)
        )

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            carrier_coupling_db(-1.0, 6.0, 6.0)


class TestInterferenceLevels:
    @pytest.mark.parametrize("distance", [1.0, 2.0, 4.0])
    def test_co_channel_level_is_full_coupling(self, distance):
        level = interference_at_receiver_dbm(
            _radio("r0", 0.0), [_radio("r1", distance)], co_channel=True
        )
        assert level == pytest.approx(_single_aggressor_level(distance))

    def test_off_channel_isolation_is_exact(self):
        victim, agg = _radio("r0", 0.0), _radio("r1", 2.0)
        co = interference_at_receiver_dbm(victim, [agg], co_channel=True)
        off = interference_at_receiver_dbm(victim, [agg], co_channel=False)
        assert co - off == pytest.approx(NON_DRM_CHANNEL_ISOLATION_DB)

    @pytest.mark.parametrize("co_channel", [True, False])
    def test_drm_pair_isolation_ignores_hop_collision(self, co_channel):
        plain = interference_at_receiver_dbm(
            _radio("r0", 0.0), [_radio("r1", 2.0)], co_channel=True
        )
        drm = interference_at_receiver_dbm(
            _radio("r0", 0.0, drm=True),
            [_radio("r1", 2.0, drm=True)],
            co_channel=co_channel,
        )
        assert plain - drm == pytest.approx(DRM_ISOLATION_DB)

    def test_level_tracks_aggressor_power(self):
        victim = _radio("r0", 0.0)
        full = interference_at_receiver_dbm(victim, [_radio("r1", 2.0)])
        backed_off = interference_at_receiver_dbm(
            victim, [_radio("r1", 2.0, power=20.0)]
        )
        assert full - backed_off == pytest.approx(10.0)

    def test_symmetric_between_identical_readers(self):
        a, b = _radio("r0", 0.0), _radio("r1", 3.0)
        assert interference_at_receiver_dbm(a, [b]) == pytest.approx(
            interference_at_receiver_dbm(b, [a])
        )

    def test_co_located_aggressor_uses_one_centimetre(self):
        level = interference_at_receiver_dbm(
            _radio("r0", 0.0), [_radio("r1", 0.0)]
        )
        assert level == pytest.approx(_single_aggressor_level(0.01))

    @pytest.mark.parametrize("count", [1, 2, 3, 4])
    def test_equal_aggressors_add_in_linear_power(self, count):
        aggressors = [_radio(f"r{i + 1}", 2.0) for i in range(count)]
        level = interference_at_receiver_dbm(_radio("r0", 0.0), aggressors)
        assert level == pytest.approx(
            _single_aggressor_level(2.0) + 10.0 * math.log10(count)
        )

    def test_mixed_distances_sum_powers(self):
        victim = _radio("r0", 0.0)
        level = interference_at_receiver_dbm(
            victim, [_radio("r1", 1.0), _radio("r2", 4.0)]
        )
        assert level == pytest.approx(
            sum_powers_dbm(
                _single_aggressor_level(1.0), _single_aggressor_level(4.0)
            )
        )

    def test_only_self_listed_is_quiet(self):
        victim = _radio("r0", 0.0)
        assert interference_at_receiver_dbm(victim, [victim, victim]) is None


class TestCoChannelDwell:
    def test_probability_is_a_probability(self):
        assert 0.0 < CO_CHANNEL_DWELL_PROBABILITY < 1.0

    def test_simulator_defaults_to_the_constant(self):
        assert (
            SimulationParameters().co_channel_probability
            == CO_CHANNEL_DWELL_PROBABILITY
        )


class TestTdmaSlots:
    @pytest.mark.parametrize("count", [1, 2, 3, 4])
    def test_slots_are_contiguous_and_equal(self, count):
        ids = [f"a{i}" for i in range(count)]
        schedule = tdma_schedule(ids, 0.3)
        assert [slot[0] for slot in schedule] == ids
        for i, (_, start, duration) in enumerate(schedule):
            assert duration == pytest.approx(0.3 / count)
            assert start == pytest.approx(i * 0.3 / count)
        last = schedule[-1]
        assert last[1] + last[2] == pytest.approx(0.3)
