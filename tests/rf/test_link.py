"""Tests for the forward/reverse backscatter link budget."""

import pytest
from hypothesis import given, strategies as st

from repro.rf.geometry import Vec3
from repro.rf.link import (
    LinkEnvironment,
    LinkGeometry,
    evaluate_link,
    free_space_read_range_m,
)
from repro.rf.propagation import ChannelModel, PathLossModel, ShadowingModel


def _clean_env(**overrides) -> LinkEnvironment:
    """Deterministic environment: free space, no shadowing ripple."""
    defaults = dict(
        channel=ChannelModel(
            path_loss=PathLossModel(use_two_ray=False),
            shadowing=ShadowingModel(sigma_db=0.0),
        ),
    )
    defaults.update(overrides)
    return LinkEnvironment(**defaults)


def _geometry(distance_m: float) -> LinkGeometry:
    return LinkGeometry(
        antenna_position=Vec3(0, 1, 0),
        antenna_boresight=Vec3.unit_z(),
        tag_position=Vec3(0, 1, distance_m),
        tag_axis=Vec3.unit_x(),
    )


class TestGeometry:
    def test_distance(self):
        assert _geometry(3.0).distance_m == pytest.approx(3.0)

    def test_direction_unit(self):
        assert _geometry(2.0).direction.is_close(Vec3.unit_z())


class TestForwardLink:
    def test_close_tag_activates(self):
        result = evaluate_link(_clean_env(), 30.0, _geometry(1.0))
        assert result.activated
        assert result.forward_margin_db > 5.0

    def test_distant_tag_does_not_activate(self):
        result = evaluate_link(_clean_env(), 30.0, _geometry(25.0))
        assert not result.activated

    def test_forward_power_decreases_with_distance(self):
        env = _clean_env()
        p1 = evaluate_link(env, 30.0, _geometry(1.0)).forward_power_dbm
        p2 = evaluate_link(env, 30.0, _geometry(2.0)).forward_power_dbm
        assert p2 == pytest.approx(p1 - 6.02, abs=0.1)

    def test_obstruction_reduces_power(self):
        env = _clean_env()
        clear = evaluate_link(env, 30.0, _geometry(2.0))
        blocked = evaluate_link(
            env, 30.0, _geometry(2.0), obstruction_loss_db=10.0
        )
        assert blocked.forward_power_dbm == pytest.approx(
            clear.forward_power_dbm - 10.0
        )

    def test_detuning_and_coupling_stack(self):
        env = _clean_env()
        clear = evaluate_link(env, 30.0, _geometry(2.0))
        hit = evaluate_link(
            env,
            30.0,
            _geometry(2.0),
            tag_detuning_db=5.0,
            coupling_penalty_db=7.0,
        )
        assert hit.forward_power_dbm == pytest.approx(
            clear.forward_power_dbm - 12.0
        )

    def test_shadowing_applies(self):
        env = _clean_env()
        clear = evaluate_link(env, 30.0, _geometry(2.0))
        shadowed = evaluate_link(env, 30.0, _geometry(2.0), shadowing_db=-6.0)
        assert shadowed.forward_power_dbm == pytest.approx(
            clear.forward_power_dbm - 6.0
        )

    def test_fading_gain_applies(self):
        env = _clean_env()
        base = evaluate_link(env, 30.0, _geometry(2.0), fading_power_gain=1.0)
        faded = evaluate_link(env, 30.0, _geometry(2.0), fading_power_gain=0.25)
        assert faded.forward_power_dbm == pytest.approx(
            base.forward_power_dbm - 6.02, abs=0.05
        )

    def test_forward_power_below_transmit_power(self):
        # evaluate_link composes through compose_link, so this covers both.
        result = evaluate_link(
            _clean_env(),
            30.0,
            _geometry(1.0),
            obstruction_loss_db=5.0,
            tag_detuning_db=3.0,
            shadowing_db=-1.5,
            fading_power_gain=0.8,
        )
        assert result.forward_power_dbm < 30.0

    def test_negative_fading_rejected(self):
        with pytest.raises(ValueError):
            evaluate_link(
                _clean_env(), 30.0, _geometry(2.0), fading_power_gain=-0.1
            )

    def test_axial_tag_orientation_kills_link(self):
        # Dipole pointing at the antenna: pattern null (paper cases 1/5).
        env = _clean_env()
        geometry = LinkGeometry(
            antenna_position=Vec3(0, 1, 0),
            antenna_boresight=Vec3.unit_z(),
            tag_position=Vec3(0, 1, 1.0),
            tag_axis=Vec3.unit_z(),
        )
        facing = evaluate_link(env, 30.0, _geometry(1.0))
        axial = evaluate_link(env, 30.0, geometry)
        assert axial.forward_power_dbm < facing.forward_power_dbm - 20.0


class TestReverseLink:
    def test_reverse_below_forward(self):
        result = evaluate_link(_clean_env(), 30.0, _geometry(1.0))
        assert result.reverse_power_dbm < result.forward_power_dbm

    def test_readable_requires_both(self):
        result = evaluate_link(_clean_env(), 30.0, _geometry(1.0))
        assert result.readable == (result.activated and result.decodable)

    def test_interference_desensitizes(self):
        env = _clean_env()
        quiet = evaluate_link(env, 30.0, _geometry(2.0))
        jammed = evaluate_link(
            env, 30.0, _geometry(2.0), interference_dbm=-30.0
        )
        assert quiet.decodable
        assert not jammed.decodable
        assert jammed.reverse_margin_db < quiet.reverse_margin_db

    def test_weak_interference_harmless(self):
        env = _clean_env()
        quiet = evaluate_link(env, 30.0, _geometry(2.0))
        weak = evaluate_link(
            env, 30.0, _geometry(2.0), interference_dbm=-120.0
        )
        assert weak.reverse_margin_db == pytest.approx(quiet.reverse_margin_db)

    def test_forward_limited_for_passive_tags(self):
        """With 2006-era sensitivities the forward link dies first —
        the defining property of passive UHF range limits."""
        env = _clean_env()
        for d in (1.0, 3.0, 5.0, 8.0, 12.0):
            result = evaluate_link(env, 30.0, _geometry(d))
            if not result.activated:
                # By the time the tag cannot wake, the reverse link
                # margin test is moot; before that, reverse must hold.
                break
            assert result.decodable, f"reverse died before forward at {d} m"


class TestReadRange:
    def test_paper_era_range_is_a_few_metres(self):
        env = _clean_env()
        rng = free_space_read_range_m(env, 30.0, step_m=0.05)
        assert 3.0 <= rng <= 10.0

    def test_more_power_more_range(self):
        env = _clean_env()
        low = free_space_read_range_m(env, 24.0, step_m=0.1)
        high = free_space_read_range_m(env, 30.0, step_m=0.1)
        assert high > low

    def test_better_chip_more_range(self):
        base = free_space_read_range_m(_clean_env(), 30.0, step_m=0.1)
        modern = free_space_read_range_m(
            _clean_env(tag_sensitivity_dbm=-18.0), 30.0, step_m=0.1
        )
        assert modern > base

    def test_invalid_step_rejected(self):
        with pytest.raises(ValueError):
            free_space_read_range_m(_clean_env(), 30.0, step_m=0.0)

    @given(st.floats(min_value=20.0, max_value=33.0))
    def test_range_monotone_in_power(self, power):
        env = _clean_env()
        assert free_space_read_range_m(
            env, power, step_m=0.25
        ) <= free_space_read_range_m(env, power + 1.0, step_m=0.25)


class TestForwardWaterfall:
    def test_sums_to_compose_link_forward_power(self):
        """The waterfall is the itemised form of compose_link's forward
        budget: summing its contributions reproduces the power exactly."""
        from repro.rf.link import LinkTerms, compose_link, forward_waterfall

        env = _clean_env()
        terms = LinkTerms(
            reader_gain_dbi=6.0,
            tag_gain_dbi=1.5,
            polarization_loss_db=3.0,
            path_gain_db=-38.25,
        )
        result = compose_link(
            env, 30.0, terms,
            obstruction_loss_db=4.0, tag_detuning_db=0.5,
            coupling_penalty_db=1.25, shadowing_db=-2.0,
        )
        waterfall = forward_waterfall(
            tx_power_dbm=30.0,
            cable_loss_db=env.cable_loss_db,
            reader_gain_dbi=terms.reader_gain_dbi,
            path_gain_db=terms.path_gain_db,
            shadowing_db=-2.0,
            tag_gain_dbi=terms.tag_gain_dbi,
            polarization_loss_db=terms.polarization_loss_db,
            obstruction_db=4.0,
            detuning_db=0.5,
            coupling_db=1.25,
        )
        total = sum(value for _, value in waterfall)
        assert total == pytest.approx(result.forward_power_dbm, abs=1e-9)

    def test_losses_enter_negated(self):
        from repro.rf.link import forward_waterfall

        waterfall = dict(
            forward_waterfall(
                tx_power_dbm=30.0, cable_loss_db=1.0, reader_gain_dbi=6.0,
                path_gain_db=-40.0, shadowing_db=0.0, tag_gain_dbi=1.0,
                polarization_loss_db=3.0, obstruction_db=2.0,
                detuning_db=0.5, coupling_db=0.25, fault_loss_db=4.0,
                fading_db=1.5,
            )
        )
        assert waterfall["cable loss"] == -1.0
        assert waterfall["port fault loss"] == -4.0
        assert waterfall["obstruction loss"] == -2.0
        assert waterfall["small-scale fading"] == 1.5
        assert len(waterfall) == 12
