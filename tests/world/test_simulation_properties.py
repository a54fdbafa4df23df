"""Property-based tests on simulator invariants (hypothesis)."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tests.hypothesis_budget import examples

from repro.core.calibration import PaperSetup
from repro.protocol.epc import EpcFactory
from repro.rf.geometry import Vec3
from repro.sim.rng import SeedSequence
from repro.world.motion import StationaryPlacement
from repro.world.portal import single_antenna_portal
from repro.world.simulation import CarrierGroup, PortalPassSimulator
from repro.world.tags import Tag

SETUP = PaperSetup()

slow_settings = settings(
    max_examples=examples(10),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _carrier(tag_count, distance, duration=0.2):
    factory = EpcFactory()
    tags = [
        Tag(
            epc=factory.next_epc().to_hex(),
            local_position=Vec3((i % 4) * 0.15, 1.0 + (i // 4) * 0.2, 0.0),
        )
        for i in range(tag_count)
    ]
    return CarrierGroup(
        motion=StationaryPlacement(Vec3(0, 0, distance), duration_s=duration),
        tags=tags,
    )


def _sim():
    return PortalPassSimulator(
        portal=single_antenna_portal(), env=SETUP.env, params=SETUP.params
    )


class TestInvariants:
    @given(
        st.integers(min_value=1, max_value=6),
        st.floats(min_value=0.5, max_value=12.0),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @slow_settings
    def test_reads_subset_of_population(self, tag_count, distance, seed):
        carrier = _carrier(tag_count, distance)
        result = _sim().run_pass([carrier], SeedSequence(seed), 0)
        population = {t.epc for t in carrier.tags}
        assert result.read_epcs <= population

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @slow_settings
    def test_event_times_sorted_and_bounded(self, seed):
        carrier = _carrier(3, 2.0)
        result = _sim().run_pass([carrier], SeedSequence(seed), 0)
        times = [e.time for e in result.trace]
        assert times == sorted(times)
        assert all(0.0 <= t <= result.duration_s for t in times)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @slow_settings
    def test_bitwise_determinism(self, seed):
        carrier = _carrier(4, 3.0)
        a = _sim().run_pass([carrier], SeedSequence(seed), 1)
        b = _sim().run_pass([carrier], SeedSequence(seed), 1)
        assert [(e.time, e.epc) for e in a.trace] == [
            (e.time, e.epc) for e in b.trace
        ]

    @given(
        st.floats(min_value=0.5, max_value=3.0),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @slow_settings
    def test_more_power_never_hurts_on_average(self, distance, seed):
        """Across trials, a 30 dBm portal reads at least as many tags as
        a 24 dBm one (monotonicity of the physical layer)."""
        carrier = _carrier(4, distance, duration=0.2)

        def total_reads(power):
            sim = PortalPassSimulator(
                portal=single_antenna_portal(tx_power_dbm=power),
                env=SETUP.env,
                params=SETUP.params,
            )
            return sum(
                len(sim.run_pass([carrier], SeedSequence(seed), t).read_epcs)
                for t in range(6)
            )

        assert total_reads(30.0) >= total_reads(24.0) - 1

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @slow_settings
    def test_rssi_physically_plausible(self, seed):
        carrier = _carrier(3, 1.0)
        result = _sim().run_pass([carrier], SeedSequence(seed), 0)
        for event in result.trace:
            # Backscatter can never exceed the conducted power, and a
            # decodable read sits above the clean-channel sensitivity.
            assert -90.0 <= event.rssi_dbm <= 30.0
