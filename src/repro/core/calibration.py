"""Calibrated physical parameters for reproducing the paper's testbed.

The simulator has a handful of free physical parameters the paper does
not (and could not) report: shadowing spread, Rician K-factor, body and
packaging losses, diffraction caps. This module pins them.

Calibration procedure (run once, results frozen here):

1. set the hardware constants to the paper's published setup (30 dBm
   conducted, area antenna ~6 dBic, single-dipole tag, 2006-era chip
   sensitivity around -12 dBm);
2. tune ``ShadowingModel.sigma_db`` and the two-ray floor reflection so
   the 20-tag read-range curve is ~100% at 1 m and decays over 2-9 m
   (paper Figure 2);
3. tune the obstruction cap and body/metal losses so the
   single-antenna, single-tag placements land near Table 1/Table 2;
4. leave every Section 4 (redundancy) experiment untouched — those
   results must *emerge* from the calibrated physics.

The values below are the outcome of that procedure; the calibration
tests in ``tests/core/test_calibration.py`` pin the resulting
single-opportunity reliabilities to the paper's bands so regressions
are caught.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..obs.recorder import Recorder
from ..rf.antenna import DipoleAntenna, PatchAntenna
from ..rf.coupling import CouplingModel
from ..rf.link import LinkEnvironment
from ..rf.propagation import ChannelModel, PathLossModel, RicianFading, ShadowingModel
from ..world.portal import Portal
from ..world.simulation import PortalPassSimulator, SimulationParameters

#: Conducted power of the paper's Matrics AR400 at default settings.
CALIBRATED_TX_POWER_DBM = 30.0


def paper_link_environment() -> LinkEnvironment:
    """Link environment matching the paper's hardware."""
    return LinkEnvironment(
        channel=ChannelModel(
            path_loss=PathLossModel(
                use_two_ray=True,
                ground_reflection_coeff=-0.35,
                path_loss_exponent=2.1,
            ),
            shadowing=ShadowingModel(sigma_db=3.0),
            fading=RicianFading(k_factor_db=7.0),
        ),
        reader_antenna=PatchAntenna(boresight_gain_dbi=6.0, rolloff_exponent=2.0),
        tag_antenna=DipoleAntenna(broadside_gain_dbi=2.15),
        # 2006-era Gen 2 chips; modern silicon is ~8 dB better, which is
        # why today's portals outperform the paper's numbers.
        tag_sensitivity_dbm=-13.5,
        reader_sensitivity_dbm=-75.0,
        backscatter_loss_db=5.0,
        cable_loss_db=1.0,
        required_sinr_db=10.0,
    )


def paper_simulation_parameters() -> SimulationParameters:
    """Calibrated simulator knobs (see module docstring for procedure)."""
    return SimulationParameters(
        obstruction_cap_db=25.0,
        k_penalty_per_obstruction=0.5,
        decode_slope_db=1.5,
        capture_probability=0.1,
        tdma_slot_s=0.10,
        coupling=CouplingModel(
            contact_penalty_db=30.0,
            safe_distance_m=0.04,
            falloff_exponent=2.0,
        ),
        reflection_gain_db=4.0,
        reflection_range_m=1.2,
    )


@dataclass(frozen=True)
class PaperSetup:
    """One-stop bundle of the calibrated environment and parameters."""

    tx_power_dbm: float = CALIBRATED_TX_POWER_DBM
    env: LinkEnvironment = field(default_factory=paper_link_environment)
    params: SimulationParameters = field(
        default_factory=paper_simulation_parameters
    )

    def simulator(
        self, portal: Portal, recorder: Optional[Recorder] = None
    ) -> PortalPassSimulator:
        """The calibrated pass simulator for ``portal``."""
        return PortalPassSimulator(
            portal=portal, env=self.env, params=self.params, recorder=recorder
        )
