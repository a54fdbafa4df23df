"""Portal pass simulation: physics + protocol, end to end.

This module replaces the paper's lab: it takes a :class:`Portal`
(antennas + readers), one or more :class:`CarrierGroup` objects (tags
riding a motion profile together with their occluding geometry), and a
calibrated :class:`SimulationParameters`, and produces the
:class:`~repro.sim.trace.ReadTrace` a real reader would have reported.

Per trial:

1. shadowing is sampled once per (tag, antenna) link — trials differ
   the way physical repetitions differ;
2. the carrier moves along its motion profile while each reader runs
   Gen 2 inventory rounds, TDMA-cycling its antennas;
3. for every round, each candidate tag's link budget is evaluated at
   the carrier's current position — occlusion chords through box
   contents and bodies, mount detuning, inter-tag coupling, polarization
   and pattern losses, plus a fresh small-scale fading draw — yielding
   the tag's energization and decode probability for that round;
4. with multiple readers and no dense-reader mode, each reader's
   receive floor is raised by the other readers' coupled carriers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover - annotation-only, avoids a cycle
    from ..faults.plan import CoverageReport, FaultPlan

from ..obs.recorder import (
    PassObservation,
    PassRecording,
    Recorder,
    TracingSeedSequence,
)
from ..obs.records import DwellLinkRecord
from ..protocol.dense_reader import (
    CO_CHANNEL_DWELL_PROBABILITY,
    ReaderRadio,
    interference_at_receiver_dbm,
)
from ..protocol.gen2 import (
    InventorySession,
    QAlgorithm,
    TagChannel,
    run_inventory_round,
)
from ..protocol.timing import DEFAULT_TIMING, Gen2Timing
from ..rf.coupling import CouplingModel
from ..rf.geometry import Vec3, segment_sphere_chord_length
from ..rf.units import linear_to_db, sum_powers_dbm
from ..rf.link import (
    LinkEnvironment,
    LinkGeometry,
    LinkResult,
    LinkTerms,
    compose_link,
    compute_link_terms,
    evaluate_link,
)
from ..rf.materials import Material
from ..sim.events import TagReadEvent
from ..sim.rng import RandomStream, SeedSequence
from ..sim.trace import ReadTrace
from .motion import LinearPass, StationaryPlacement
from .portal import AntennaInstallation, Portal, ReaderAssignment
from .tags import Tag

Motion = Union[LinearPass, StationaryPlacement]

#: Head-room the forward-link short-circuit allows for small-scale
#: fading before declaring a tag un-energizable. A +20 dB fade is a
#: linear power gain of 100; for any Rician K the unit-mean envelope
#: needs a >14-sigma Gaussian pair to reach it, which a seeded PRNG
#: will not produce in the lifetime of the universe. When even this
#: head-room cannot close the forward budget, the fading draw and the
#: full link composition are skipped for the round.
MAX_FADING_HEADROOM_DB = 20.0


#: The channel of a tag whose forward link cannot close: silent this round.
_DEAD_CHANNEL = TagChannel(energized=False, reply_decode_p=0.0)


@dataclass(slots=True)
class ComposedLink:
    """A composed link for one geometry entry (one link state).

    Besides the geometry entry it hangs under (antenna, tag, tag and
    occluder positions), a link state is fixed by the reader, the
    dwell's interference value and the antenna's fault loss; everything
    else ``compose_link`` consumes — shadowing, detuning, coupling, the
    fading normals of the tag's coherence cell — is constant for the
    pass. ``result`` is ``None`` when the forward-link short-circuit
    fired. The remaining fields exist so a replay can re-emit the
    waterfall record without recomputing anything; the reference
    evaluation, which never short-circuits, leaves
    ``forward_no_fade_dbm`` at ``None``.
    """

    reader_id: str
    interference_dbm: Optional[float]
    fault_loss_db: float
    result: Optional[LinkResult]
    channel: TagChannel
    fading_gain: Optional[float]
    forward_no_fade_dbm: Optional[float]


@dataclass(slots=True)
class GeometryEntry:
    """Geometry terms of one (tag, antenna, scene) key.

    ``link`` is the last :class:`ComposedLink` evaluated under this
    geometry. One slot is enough: an antenna port is driven by one
    reader at a time, so a second reader only takes it over after a
    crash, and then simply replaces the stored state.
    """

    terms: LinkTerms
    obstruction_db: float
    reflector: bool
    link: Optional[ComposedLink] = None


class PassLinkCache:
    """Per-pass memo of the link-budget terms that do not change per round.

    ``_run_reader_timeline`` consults the link budget for every
    (candidate tag, inventory round) pair — hundreds of evaluations per
    pass, most of which recompute values that are pinned for the whole
    pass or for the current dwell geometry:

    * **geometry** — antenna pattern gain, tag pattern gain,
      polarization loss, deterministic path gain, and occluder chords,
      keyed by ``(epc, antenna_id, carrier position, positions of the
      other carriers that have occluders)`` at the round's time: the
      tag's carrier position pins its world position, and the occluder
      positions pin its obstruction. Exact float positions are used
      (not quantized), so a hit replays terms that are *bit-identical*
      to recomputation; stationary scenes hit on every round after the
      first, moving passes hit whenever two rounds sample the same
      scene.
    * **composed links** — under each geometry entry, the
      :class:`ComposedLink` of the last link state evaluated there. A
      round whose reader, interference value and fault loss match it
      replays the stored ``LinkResult`` and ``TagChannel`` instead of
      drawing fading and composing the budget again: the same pure
      arithmetic on the same inputs gives the same values.
    * **fading normals** — the standard-normal pair behind each Rician
      draw, keyed by ``(reader_id, antenna_id, epc, coherence cell)``.
      The serial simulator derives a fresh seeded stream from exactly
      that tuple every round, so within one coherence cell the draw is
      the same pair of normals each time; caching them skips the
      sha256-based stream construction while the K-factor penalty is
      still applied per round (obstruction may vary).

    Counters keep their per-evaluation meaning whichever layer answers:
    a composed replay still counts as a geometry hit and as the fading
    hit or short-circuit the full evaluation would have been.

    One cache covers one :meth:`PortalPassSimulator.run_pass` call (all
    readers — geometry terms are reader-independent, so a mux takeover
    re-uses the owning reader's entries). Counters feed
    ``PortalPassSimulator._last_cache_stats``.

    ``PortalPassSimulator(use_link_cache=False)`` bypasses the cache;
    that uncached path is the reference the parity tests and the
    benchmark's output check compare against.
    """

    __slots__ = (
        "geometry",
        "fading_normals",
        "geometry_hits",
        "geometry_misses",
        "composed_hits",
        "composed_misses",
        "fading_hits",
        "fading_misses",
        "short_circuits",
    )

    def __init__(self) -> None:
        self.geometry: Dict[tuple, GeometryEntry] = {}
        self.fading_normals: Dict[
            Tuple[str, str, str, int, int, int], Tuple[float, float]
        ] = {}
        self.geometry_hits = 0
        self.geometry_misses = 0
        self.composed_hits = 0
        self.composed_misses = 0
        self.fading_hits = 0
        self.fading_misses = 0
        self.short_circuits = 0

    def stats(self) -> Dict[str, int]:
        """Counter snapshot (plain dict, safe to pickle/serialise)."""
        return {
            "geometry_hits": self.geometry_hits,
            "geometry_misses": self.geometry_misses,
            "composed_hits": self.composed_hits,
            "composed_misses": self.composed_misses,
            "fading_hits": self.fading_hits,
            "fading_misses": self.fading_misses,
            "short_circuits": self.short_circuits,
        }


@dataclass(frozen=True)
class Occluder:
    """A blocking blob riding with a carrier (box content, torso)."""

    centre: Vec3
    radius_m: float
    material: Material
    reflective: bool = False

    def __post_init__(self) -> None:
        if self.radius_m <= 0.0:
            raise ValueError(f"radius must be positive, got {self.radius_m!r}")


@dataclass
class CarrierGroup:
    """Tags plus occluders sharing one motion profile.

    ``tags`` and ``occluders`` positions are in the carrier frame;
    world positions at time ``t`` add ``motion.position_at(t)``.

    ``clutter_sigma_db`` models *carrier-local* multipath: scatterers
    that ride along with the tags (the other metal boxes on the cart,
    the carrier's own body). Because they move with the tag, the fade
    they cause is frozen for the whole pass — one draw per (tag,
    antenna, trial) — unlike the motion-decorrelated small-scale fading
    of the fixed environment. This static component is what makes a
    badly placed tag miss an *entire* pass rather than flicker.
    """

    motion: Motion
    tags: List[Tag] = field(default_factory=list)
    occluders: List[Occluder] = field(default_factory=list)
    clutter_sigma_db: float = 0.0

    def tag_world_position(self, tag: Tag, t: float) -> Vec3:
        return self.motion.position_at(t) + tag.local_position


@dataclass(frozen=True)
class SimulationParameters:
    """Calibration knobs of the pass simulator.

    Values are set by :mod:`repro.core.calibration` to land the
    single-opportunity reliabilities near the paper's Section 3
    measurements; see that module for the rationale behind each number.
    """

    #: Cap on total through-material loss: energy diffracts around
    #: obstacles, so even a router stack is not a perfect screen.
    obstruction_cap_db: float = 25.0
    #: Rician K-factor penalty per dB of obstruction loss (a
    #: dimensionless dB/dB ratio): blocked paths lose their
    #: line-of-sight component and fade harder.
    k_penalty_per_obstruction: float = 0.5
    #: Logistic slope (dB) mapping reverse-link margin to decode
    #: probability; models coding/BER softness around the threshold.
    decode_slope_db: float = 1.5
    #: Receiver capture probability for 2-way collisions.
    capture_probability: float = 0.1
    #: TDMA dwell per antenna before the reader switches.
    tdma_slot_s: float = 0.10
    #: Chance per dwell that two non-DRM readers land co-channel.
    co_channel_probability: float = CO_CHANNEL_DWELL_PROBABILITY
    #: Inter-tag near-field coupling model.
    coupling: CouplingModel = field(default_factory=CouplingModel)
    #: Reflection bonus (dB) when a reflective occluder backs the tag.
    reflection_gain_db: float = 4.0
    #: How far behind the tag (m) a reflector still helps.
    reflection_range_m: float = 1.2
    #: Spatial coherence of small-scale fading: the channel decorrelates
    #: only when the tag *moves* about half a wavelength (0.164 m at
    #: 915 MHz). Stationary tags keep one fading realisation for a whole
    #: trial; a 1 m/s cart sees a fresh one roughly every 0.16 s.
    fading_coherence_m: float = 0.164
    #: How long an orphaned antenna stays dark before the portal's RF
    #: multiplexer hands it to a backup reader (see
    #: :attr:`~repro.world.portal.ReaderAssignment.backup_antennas`).
    #: The mux fails over on early evidence — a single missed 0.25 s
    #: poll, the same event that makes the supervisor flag the reader
    #: degraded — since rerouting a passive port to the standby is
    #: cheap and instantly reversible if the owner answers again.
    mux_takeover_delay_s: float = 0.25
    #: Gen 2 Q-algorithm bounds for each reader's inventory rounds. The
    #: defaults match :class:`~repro.protocol.gen2.QAlgorithm`; the
    #: knobs exist so experiments (and the miss-cause tests) can pin the
    #: frame size — ``q_initial=0, q_max=0`` forces one-slot frames,
    #: which makes any 2-tag population collide every round.
    q_initial: int = 4
    q_min: int = 0
    q_max: int = 15

    def __post_init__(self) -> None:
        # A zero TDMA dwell never advances a reader's clock, and the
        # slot, cell and slope are divisors in the pass loop.
        for name in ("tdma_slot_s", "fading_coherence_m", "decode_slope_db"):
            value = getattr(self, name)
            if not value > 0.0:
                raise ValueError(f"{name} must be positive, got {value!r}")
        for name in ("co_channel_probability", "capture_probability"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value!r}")


@dataclass
class PassResult:
    """Everything observed during one portal pass (one trial)."""

    trace: ReadTrace
    duration_s: float
    rounds: int
    #: Infrastructure liveness during this pass; ``None`` for a
    #: fault-free run (full coverage implied). Downstream tracking
    #: decisions consume this to avoid conflating "tag absent" with
    #: "reader blind".
    coverage: Optional["CoverageReport"] = None
    #: Frozen observability payload when the simulator held a live
    #: :class:`~repro.obs.recorder.Recorder`; ``None`` otherwise. Rides
    #: through pickling, which is how parallel workers ship their
    #: observations back to the parent with the results.
    obs: Optional[PassObservation] = None

    @property
    def read_epcs(self) -> Set[str]:
        return set(e.epc for e in self.trace)

    def tags_read(self, epcs: Sequence[str]) -> int:
        """How many of ``epcs`` were read at least once."""
        seen = self.read_epcs
        return sum(1 for epc in epcs if epc in seen)


@dataclass(slots=True)
class _Pass:
    """What one :meth:`PortalPassSimulator.run_pass` call fixes for all readers.

    Built once per pass; the reader timelines and every link evaluation
    read the pass's tables, streams, cache and recording from it.
    """

    carriers: Sequence[CarrierGroup]
    epc_index: Dict[str, Tuple[CarrierGroup, Tag]]
    population: List[str]
    #: Static per-tag coupling and mount-detuning penalties, by EPC.
    coupling_db: Dict[str, float]
    detuning_db: Dict[str, float]
    #: Per-trial static fade, by (EPC, antenna id).
    shadowing: Dict[Tuple[str, str], float]
    seeds: SeedSequence
    trial: int
    duration: float
    interference_rng: RandomStream
    fault_plan: Optional["FaultPlan"]
    cache: Optional[PassLinkCache]
    rec: Optional[PassRecording]


class _Scene:
    """Where every carrier is at one round's time, taken once per round.

    ``placed`` pairs each carrier with its position; the round's tag
    positions, occluder centres and geometry-cache keys all read it, so
    a round calls ``position_at`` once per carrier.
    """

    __slots__ = ("placed", "positions", "keys")

    def __init__(
        self, carriers: Sequence[CarrierGroup], antenna_id: str, t: float
    ) -> None:
        self.placed = [(c, c.motion.position_at(t)) for c in carriers]
        self.positions = {id(c): pos for c, pos in self.placed}
        self.keys = _scene_keys(antenna_id, self.placed)

    def tag_position(self, carrier: CarrierGroup, tag: Tag) -> Vec3:
        return self.positions[id(carrier)] + tag.local_position


def _scene_keys(
    antenna_id: str, placed: Sequence[Tuple[CarrierGroup, Vec3]]
) -> Dict[int, tuple]:
    """Per-carrier scene part of the geometry-cache key.

    For each carrier (by ``id``): the antenna, the carrier's own
    position — which pins its tags and its own occluders — then the
    position of every other carrier that has occluders. An occluder
    riding another carrier can cross a stationary tag's sight line, so
    the tag's own position alone does not pin its obstruction.
    """
    scenes: Dict[int, tuple] = {}
    for carrier, own in placed:
        scene = [antenna_id, own.x, own.y, own.z]
        for other, pos in placed:
            if other is not carrier and other.occluders:
                scene += (pos.x, pos.y, pos.z)
        scenes[id(carrier)] = tuple(scene)
    return scenes


def _fading_stream(ctx: _Pass, key: tuple) -> RandomStream:
    """The seeded stream behind the fading draw of one coherence cell."""
    return ctx.seeds.trial_stream("fading:" + ":".join(map(str, key)), ctx.trial)


class PortalPassSimulator:
    """Runs seeded portal passes for a fixed portal and link environment."""

    def __init__(
        self,
        portal: Portal,
        env: Optional[LinkEnvironment] = None,
        params: Optional[SimulationParameters] = None,
        timing: Gen2Timing = DEFAULT_TIMING,
        use_link_cache: bool = True,
        recorder: Optional[Recorder] = None,
    ) -> None:
        self.portal = portal
        self.env = env if env is not None else LinkEnvironment()
        self.params = params if params is not None else SimulationParameters()
        self.timing = timing
        #: Observability sink; ``None`` (the default) keeps every hook
        #: site down to a single identity test — no records, no
        #: allocation, bit-identical results.
        self.recorder = recorder
        #: The per-pass link cache is bit-identical to direct evaluation
        #: (see :class:`PassLinkCache`); the flag exists so the parity
        #: tests and the benchmark's output check can run the uncached
        #: reference, not because results differ.
        self.use_link_cache = use_link_cache
        #: Counter snapshot from the most recent :meth:`run_pass`;
        #: ``None`` before the first pass or when the cache is disabled.
        self._last_cache_stats: Optional[Dict[str, int]] = None

    # -- physics ---------------------------------------------------------

    def _obstruction_db(
        self,
        placed: Sequence[Tuple[CarrierGroup, Vec3]],
        antenna_pos: Vec3,
        tag_pos: Vec3,
    ) -> Tuple[float, bool]:
        """Total through-material loss on the antenna->tag path, capped.

        ``placed`` pairs each carrier with its position at the round's
        time. Returns (loss_db, reflector_behind): the second element
        reports whether a reflective occluder sits behind the tag (for
        the body reflection bonus).
        """
        total = 0.0
        reflector_behind = False
        ray_dir = tag_pos - antenna_pos
        ray_len = ray_dir.norm()
        if ray_len < 1e-9:
            return 0.0, False
        ray_unit = ray_dir / ray_len
        for carrier, pos in placed:
            for occluder in carrier.occluders:
                centre = pos + occluder.centre
                chord = segment_sphere_chord_length(
                    antenna_pos, tag_pos, centre, occluder.radius_m
                )
                if chord > 0.0:
                    total += occluder.material.through_loss_db(chord)
                elif occluder.reflective:
                    # Is the occluder behind the tag along the ray?
                    along = (centre - antenna_pos).dot(ray_unit)
                    lateral = (
                        (centre - antenna_pos) - ray_unit * along
                    ).norm()
                    behind_by = along - ray_len
                    if (
                        0.0 < behind_by <= self.params.reflection_range_m
                        and lateral <= occluder.radius_m + 0.3
                    ):
                        reflector_behind = True
        return min(total, self.params.obstruction_cap_db), reflector_behind

    def _coupling_db(self, carrier: CarrierGroup, tag: Tag) -> float:
        """Near-field coupling penalty from this carrier's other tags.

        Carrier-local tag geometry is static, so distances at t=0 hold
        for the whole pass.
        """
        positions = [t.local_position for t in carrier.tags]
        axes = [t.world_dipole_axis() for t in carrier.tags]
        index = next(
            i for i, t in enumerate(carrier.tags) if t.epc == tag.epc
        )
        penalty = self.params.coupling.total_penalty_db(index, positions, axes)
        return tag.coupling_factor() * penalty

    @staticmethod
    def _link_geometry(
        antenna: AntennaInstallation, tag: Tag, tag_pos: Vec3
    ) -> Tuple[LinkGeometry, Optional[float]]:
        """The link's geometry and, for an alternative inlay, its tag gain."""
        geometry = LinkGeometry(
            antenna_position=antenna.position,
            antenna_boresight=antenna.boresight,
            tag_position=tag_pos,
            tag_axis=tag.world_dipole_axis(),
        )
        tag_gain_override = None
        if tag.design is not None:
            # Alternative inlay: its own pattern replaces the stock
            # dipole (note the arriving-wave direction is -direction).
            tag_gain_override = tag.pattern_gain_dbi(-geometry.direction)
        return geometry, tag_gain_override

    def _fading_key(
        self,
        reader: ReaderAssignment,
        antenna: AntennaInstallation,
        tag: Tag,
        tag_pos: Vec3,
    ) -> Tuple[str, str, str, int, int, int]:
        """(reader, antenna, EPC, coherence cell) of one fading draw.

        Keyed by (radio, antenna): two radios driving the same port see
        decorrelated small-scale fading, since they hop on different
        frequency channels.
        """
        cell = self.params.fading_coherence_m
        return (
            reader.reader_id, antenna.antenna_id, tag.epc,
            int(tag_pos.x // cell), int(tag_pos.y // cell), int(tag_pos.z // cell),
        )

    def _evaluate_tag(
        self,
        ctx: _Pass,
        scene: _Scene,
        carrier: CarrierGroup,
        tag: Tag,
        antenna: AntennaInstallation,
        reader: ReaderAssignment,
        t: float,
        interference_dbm: Optional[float],
        fault_loss_db: float,
    ) -> ComposedLink:
        """The reference evaluation of one read attempt at round time ``t``.

        No cache, no short-circuit: one ray-trace, one geometry, a
        fading draw from a stream derived fresh for this evaluation,
        and the full :func:`evaluate_link`. Obstruction comes first
        because it degrades the K-factor of the fading draw. The draw is
        deterministic per (trial, link, coherence cell): the channel of
        a static geometry does not re-roll itself — only motion across
        ~lambda/2 decorrelates it.

        ``fault_loss_db`` models port-level impairments (a detuned or
        water-logged antenna from a fault plan): applied at the reader
        port, it attenuates the forward link and — through the tag's
        reduced backscatter power — the reverse link as well.
        """
        epc = tag.epc
        tag_pos = scene.tag_position(carrier, tag)
        obstruction_db, reflector = self._obstruction_db(
            scene.placed, antenna.position, tag_pos
        )
        geometry, tag_gain_override = self._link_geometry(antenna, tag, tag_pos)
        fading_rng = _fading_stream(
            ctx, self._fading_key(reader, antenna, tag, tag_pos)
        )
        fading_gain = self.env.channel.fading.degraded(
            obstruction_db * self.params.k_penalty_per_obstruction
        ).sample_power_gain(fading_rng)
        gain_bonus = self.params.reflection_gain_db if reflector else 0.0
        result = evaluate_link(
            self.env,
            reader.tx_power_dbm + gain_bonus - fault_loss_db,
            geometry,
            obstruction_loss_db=obstruction_db,
            tag_detuning_db=ctx.detuning_db[epc],
            coupling_penalty_db=ctx.coupling_db[epc],
            shadowing_db=ctx.shadowing[(epc, antenna.antenna_id)],
            fading_power_gain=fading_gain,
            interference_dbm=interference_dbm,
            tag_gain_override_dbi=tag_gain_override,
        )
        channel = TagChannel(
            energized=result.activated,
            reply_decode_p=self._decode_probability(result),
        )
        link = ComposedLink(
            reader.reader_id, interference_dbm, fault_loss_db, result,
            channel, fading_gain, None,
        )
        if ctx.rec is not None:
            # The waterfall record needs the per-term breakdown that
            # evaluate_link composed without exposing (recording only).
            terms = compute_link_terms(self.env, geometry, tag_gain_override)
            entry = GeometryEntry(terms, obstruction_db, reflector)
            self._record_composed(ctx, entry, link, tag, antenna, reader, t)
        return link

    def _evaluate_tag_cached(
        self,
        ctx: _Pass,
        scene: _Scene,
        carrier: CarrierGroup,
        tag: Tag,
        antenna: AntennaInstallation,
        reader: ReaderAssignment,
        t: float,
        interference_dbm: Optional[float],
        fault_loss_db: float,
    ) -> ComposedLink:
        """Cache-assisted equivalent of :meth:`_evaluate_tag`.

        The geometry entry is keyed by the tag and its carrier's scene
        key (see :func:`_scene_keys`), which pin the tag's world
        position and the obstruction the entry stores; the tag position
        itself is only computed when the geometry or the link state has
        to be evaluated. The returned link's ``result`` is ``None`` when
        the forward link cannot close under any plausible fading draw
        (see :data:`MAX_FADING_HEADROOM_DB`): the tag is not energized,
        so the fading draw and the composition are skipped and its
        channel is dead. Otherwise ``result`` is bit-identical to what
        the reference produces for the same round.
        """
        cache = ctx.cache
        key = (tag.epc, scene.keys[id(carrier)])
        entry = cache.geometry.get(key)
        tag_pos = None
        if entry is None:
            cache.geometry_misses += 1
            tag_pos = scene.tag_position(carrier, tag)
            obstruction_db, reflector = self._obstruction_db(
                scene.placed, antenna.position, tag_pos
            )
            geometry, tag_gain_override = self._link_geometry(
                antenna, tag, tag_pos
            )
            terms = compute_link_terms(self.env, geometry, tag_gain_override)
            entry = GeometryEntry(terms, obstruction_db, reflector)
            cache.geometry[key] = entry
        else:
            cache.geometry_hits += 1
        link = entry.link
        if (
            link is not None
            and link.reader_id == reader.reader_id
            and link.interference_dbm == interference_dbm
            and link.fault_loss_db == fault_loss_db
        ):
            cache.composed_hits += 1
            if link.result is None:
                cache.short_circuits += 1
            else:
                cache.fading_hits += 1
        else:
            cache.composed_misses += 1
            if tag_pos is None:
                tag_pos = scene.tag_position(carrier, tag)
            link = self._compose_cached(
                ctx, entry, tag, tag_pos, antenna, reader,
                interference_dbm, fault_loss_db,
            )
            entry.link = link
        if ctx.rec is not None:
            self._record_composed(ctx, entry, link, tag, antenna, reader, t)
        return link

    def _compose_cached(
        self,
        ctx: _Pass,
        entry: GeometryEntry,
        tag: Tag,
        tag_pos: Vec3,
        antenna: AntennaInstallation,
        reader: ReaderAssignment,
        interference_dbm: Optional[float],
        fault_loss_db: float,
    ) -> ComposedLink:
        """Evaluate one link state on top of its cached geometry terms."""
        cache = ctx.cache
        terms = entry.terms
        obstruction_db = entry.obstruction_db
        shadowing_db = ctx.shadowing[(tag.epc, antenna.antenna_id)]
        detuning_db = ctx.detuning_db[tag.epc]
        coupling_db = ctx.coupling_db[tag.epc]
        gain_bonus = self.params.reflection_gain_db if entry.reflector else 0.0
        tx_power = reader.tx_power_dbm + gain_bonus - fault_loss_db
        # Forward budget with the fading term left out: if even a +20 dB
        # fade cannot wake the chip, skip the draw and the composition.
        forward_no_fade = (
            tx_power
            - self.env.cable_loss_db
            + terms.reader_gain_dbi
            + (terms.path_gain_db + shadowing_db)
            + terms.tag_gain_dbi
            - terms.polarization_loss_db
            - (obstruction_db + detuning_db + coupling_db)
        )
        if forward_no_fade + MAX_FADING_HEADROOM_DB < self.env.tag_sensitivity_dbm:
            cache.short_circuits += 1
            return ComposedLink(
                reader.reader_id,
                interference_dbm,
                fault_loss_db,
                None,
                _DEAD_CHANNEL,
                None,
                forward_no_fade,
            )
        fading_key = self._fading_key(reader, antenna, tag, tag_pos)
        normals = cache.fading_normals.get(fading_key)
        if normals is None:
            cache.fading_misses += 1
            fading_rng = _fading_stream(ctx, fading_key)
            normals = (fading_rng.gauss(0.0, 1.0), fading_rng.gauss(0.0, 1.0))
            cache.fading_normals[fading_key] = normals
        else:
            cache.fading_hits += 1
        fading_gain = self.env.channel.fading.degraded(
            obstruction_db * self.params.k_penalty_per_obstruction
        ).power_gain_from_normals(normals[0], normals[1])
        result = compose_link(
            self.env,
            tx_power,
            terms,
            obstruction_loss_db=obstruction_db,
            tag_detuning_db=detuning_db,
            coupling_penalty_db=coupling_db,
            shadowing_db=shadowing_db,
            fading_power_gain=fading_gain,
            interference_dbm=interference_dbm,
        )
        return ComposedLink(
            reader.reader_id,
            interference_dbm,
            fault_loss_db,
            result,
            TagChannel(
                energized=result.activated,
                reply_decode_p=self._decode_probability(result),
            ),
            fading_gain,
            forward_no_fade,
        )

    def _record_composed(
        self,
        ctx: _Pass,
        entry: GeometryEntry,
        link: ComposedLink,
        tag: Tag,
        antenna: AntennaInstallation,
        reader: ReaderAssignment,
        t: float,
    ) -> None:
        """Emit the waterfall record of one evaluation at round time ``t``.

        A short-circuited link (``link.result is None``) stops before
        the fading draw, so the composed-budget fields stay ``None``.
        Summing the record's terms (gains minus losses, fault loss and
        cable loss included) reproduces ``forward_power_dbm`` exactly.
        """
        epc = tag.epc
        terms = entry.terms
        result = link.result
        if result is None:
            fading_db = None
            no_fade_margin_db = (
                link.forward_no_fade_dbm - self.env.tag_sensitivity_dbm
            )
        else:
            fading_db = linear_to_db(max(link.fading_gain, 1e-300))
            no_fade_margin_db = result.forward_margin_db - fading_db
        gain_bonus = self.params.reflection_gain_db if entry.reflector else 0.0
        ctx.rec.link(
            DwellLinkRecord(
                time=t,
                trial=ctx.trial,
                reader_id=reader.reader_id,
                antenna_id=antenna.antenna_id,
                epc=epc,
                tx_power_dbm=reader.tx_power_dbm + gain_bonus,
                cable_loss_db=self.env.cable_loss_db,
                reader_gain_dbi=terms.reader_gain_dbi,
                path_gain_db=terms.path_gain_db,
                shadowing_db=ctx.shadowing[(epc, antenna.antenna_id)],
                tag_gain_dbi=terms.tag_gain_dbi,
                polarization_loss_db=terms.polarization_loss_db,
                obstruction_db=entry.obstruction_db,
                detuning_db=ctx.detuning_db[epc],
                coupling_db=ctx.coupling_db[epc],
                fault_loss_db=link.fault_loss_db,
                fading_db=fading_db,
                interference_dbm=link.interference_dbm,
                forward_power_dbm=(
                    result.forward_power_dbm if result is not None else None
                ),
                forward_margin_db=(
                    result.forward_margin_db if result is not None else None
                ),
                reverse_power_dbm=(
                    result.reverse_power_dbm if result is not None else None
                ),
                reverse_margin_db=(
                    result.reverse_margin_db if result is not None else None
                ),
                energized=result.activated if result is not None else False,
                short_circuited=result is None,
            ),
            no_fade_margin_db=no_fade_margin_db,
        )

    def _decode_probability(self, result: LinkResult) -> float:
        """Map the reverse margin to a per-reply decode probability."""
        if not result.activated:
            return 0.0
        slope = self.params.decode_slope_db
        margin = result.reverse_margin_db
        # Logistic centred at 0 margin; slope in dB per e-fold.
        return 1.0 / (1.0 + math.exp(-margin / slope))

    # -- the pass loop ----------------------------------------------------

    def run_pass(
        self,
        carriers: Sequence[CarrierGroup],
        seeds: SeedSequence,
        trial: int,
        fault_plan: Optional["FaultPlan"] = None,
    ) -> PassResult:
        """Simulate one complete pass (one physical repetition).

        Parameters
        ----------
        carriers:
            Everything moving through the portal together.
        seeds:
            Root seed container; all randomness below derives from it.
        trial:
            Repetition index; distinct trials get independent shadowing
            and fading but share the deterministic geometry.
        fault_plan:
            Optional component-fault schedule
            (:class:`~repro.faults.plan.FaultPlan`). Physical faults are
            honoured here — a crashed or hung reader runs no inventory
            rounds, a silent antenna port reads nothing, a detuned port
            reads weaker, interference bursts raise every receive floor
            — and the resulting :class:`PassResult` carries a coverage
            report of what the infrastructure actually watched.
            Transport-level faults (poll drops, XML corruption) live at
            the wire layer instead; see
            :class:`~repro.faults.injectors.FaultyTransport`.
        """
        all_tags: List[Tuple[CarrierGroup, Tag]] = [
            (carrier, tag) for carrier in carriers for tag in carrier.tags
        ]
        if not all_tags:
            raise ValueError("no tags in any carrier group")
        epc_index: Dict[str, Tuple[CarrierGroup, Tag]] = {}
        for carrier, tag in all_tags:
            if tag.epc in epc_index:
                raise ValueError(f"duplicate EPC in pass: {tag.epc}")
            epc_index[tag.epc] = (carrier, tag)
        population = list(epc_index.keys())
        duration = max(c.motion.duration_s for c in carriers)

        rec: Optional[PassRecording] = None
        if self.recorder is not None and self.recorder.enabled:
            rec = self.recorder.begin_pass(trial)
            if self.recorder.capture_rng:
                # Same derivations, same seeds — just logged. The traced
                # wrapper never perturbs a draw.
                seeds = TracingSeedSequence(seeds.root_seed, rec)

        # Per-trial static fade per (tag, antenna) link: environment
        # shadowing (independent per antenna — different sight lines
        # through the fixed environment) plus carrier-local clutter,
        # which is a property of how the tag sits among its co-moving
        # scatterers and is therefore COMMON to every antenna. The
        # shared component is why antenna-level redundancy underperforms
        # the independence model (paper Table 3: measured 86% vs
        # calculated 96%) while tag-level redundancy matches it.
        clutter: Dict[str, float] = {}
        for carrier, tag in all_tags:
            if carrier.clutter_sigma_db > 0.0:
                stream = seeds.trial_stream(f"clutter:{tag.epc}", trial)
                clutter[tag.epc] = stream.gauss(0.0, carrier.clutter_sigma_db)
            else:
                clutter[tag.epc] = 0.0
        shadowing: Dict[Tuple[str, str], float] = {}
        for antenna in self.portal.all_antennas:
            for carrier, tag in all_tags:
                stream = seeds.trial_stream(
                    f"shadow:{tag.epc}:{antenna.antenna_id}", trial
                )
                shadowing[(tag.epc, antenna.antenna_id)] = (
                    self.env.channel.shadowing.sample_db(stream)
                    + clutter[tag.epc]
                )

        ctx = _Pass(
            carriers=carriers,
            epc_index=epc_index,
            population=population,
            coupling_db={
                tag.epc: self._coupling_db(carrier, tag)
                for carrier, tag in all_tags
            },
            detuning_db={tag.epc: tag.detuning_db() for _, tag in all_tags},
            shadowing=shadowing,
            seeds=seeds,
            trial=trial,
            duration=duration,
            interference_rng=seeds.trial_stream("interference", trial),
            fault_plan=fault_plan,
            cache=PassLinkCache() if self.use_link_cache else None,
            rec=rec,
        )
        # Each reader runs its own inventory timeline; simultaneous
        # readers interfere but do not share airtime. Traces merge at
        # the end (the back-end sees the union).
        events: List[TagReadEvent] = []
        total_rounds = 0
        for reader in self.portal.readers:
            total_rounds += self._run_reader_timeline(ctx, reader, events)
        self._last_cache_stats = (
            ctx.cache.stats() if ctx.cache is not None else None
        )

        trace = ReadTrace()
        for event in sorted(events, key=lambda e: e.time):
            trace.record(event)
        coverage = None
        if fault_plan is not None and not fault_plan.is_empty:
            coverage = fault_plan.coverage_report(
                [
                    (r.reader_id, a.antenna_id)
                    for r in self.portal.readers
                    for a in r.antennas
                ],
                duration,
            )
        observation = None
        if rec is not None:
            observation = rec.finalize(
                population=tuple(population),
                read_epcs=trace.epcs_seen(),
                first_read_times={
                    epc: trace.first_read_time(epc) for epc in trace.epcs_seen()
                },
                read_counts=trace.read_counts(),
                headroom_db=MAX_FADING_HEADROOM_DB,
                had_fault_plan=fault_plan is not None and not fault_plan.is_empty,
            )
        return PassResult(
            trace=trace,
            duration_s=duration,
            rounds=total_rounds,
            coverage=coverage,
            obs=observation,
        )

    def _run_reader_timeline(
        self, ctx: _Pass, reader: ReaderAssignment, events: List[TagReadEvent]
    ) -> int:
        """One reader's full pass: TDMA over its antennas, round after round.

        Appends the reader's reads to ``events``; returns its round count.
        """
        fault_plan = ctx.fault_plan
        rec = ctx.rec
        duration = ctx.duration
        protocol_rng = ctx.seeds.trial_stream(
            f"protocol:{reader.reader_id}", ctx.trial
        )
        session = InventorySession()
        q_algo = QAlgorithm(
            q_initial=self.params.q_initial,
            q_min=self.params.q_min,
            q_max=self.params.q_max,
        )
        evaluate = (
            self._evaluate_tag_cached if ctx.cache is not None
            else self._evaluate_tag
        )
        rounds = 0
        t = 0.0
        antennas = tuple(reader.antennas)
        other_radios = self._other_radios(reader)
        restarts = (
            [] if fault_plan is None
            else [c.down_until for c in fault_plan.crash_restarts(reader.reader_id)]
        )
        restart_cursor = 0
        # RF-mux takeover windows: [start + detection delay, end) slices
        # of another reader's outage during which its orphaned antennas
        # are rerouted to this reader.
        owner_of_antenna = {
            a.antenna_id: r.reader_id
            for r in self.portal.readers
            for a in r.antennas
        }
        takeovers: List[Tuple[AntennaInstallation, float, float]] = []
        if fault_plan is not None and reader.backup_antennas:
            delay = self.params.mux_takeover_delay_s
            for backup in reader.backup_antennas:
                owner = owner_of_antenna[backup.antenna_id]
                for start, end in fault_plan.reader_outages(owner):
                    if start + delay < end:
                        takeovers.append((backup, start + delay, end))

        # Takeover windows open and close a handful of times per pass at
        # most, so the active-antenna tuple is rebuilt only when the
        # liveness mask changes instead of being re-allocated per dwell.
        takeover_mask: Optional[Tuple[bool, ...]] = None
        active: Tuple[AntennaInstallation, ...] = antennas

        while t < duration:
            # A power-cycled reader comes back with a fresh inventory
            # session: its carrier dropped, so the tags' S0 flags (and,
            # over a seconds-long reboot, S1 persistence) lapse, and
            # previously read tags answer again.
            while restart_cursor < len(restarts) and t >= restarts[restart_cursor]:
                session.reset()
                restart_cursor += 1
            if fault_plan is not None and fault_plan.reader_down(
                reader.reader_id, t
            ):
                # Crashed or hung: no inventory, no airtime, no reads.
                if rec is not None:
                    rec.masked_dwell(t, reader.reader_id, None, "reader_down")
                t += self.params.tdma_slot_s
                continue
            if takeovers:
                mask = tuple(start <= t < end for (_, start, end) in takeovers)
                if mask != takeover_mask:
                    takeover_mask = mask
                    inherited = tuple(
                        a for (a, _, _), live in zip(takeovers, mask) if live
                    )
                    active = antennas + inherited if inherited else antennas
            antenna = active[
                int(t / self.params.tdma_slot_s) % len(active)
            ]
            fault_loss_db = 0.0
            if fault_plan is not None:
                silent, fault_loss_db = fault_plan.antenna_state(
                    reader.reader_id, antenna.antenna_id, t
                )
                if silent:
                    # Cable cut: the dwell happens but nothing radiates.
                    if rec is not None:
                        rec.masked_dwell(
                            t,
                            reader.reader_id,
                            antenna.antenna_id,
                            "antenna_silent",
                        )
                    t += self.params.tdma_slot_s
                    continue
            # A crashed neighbour radiates nothing: drop it from the
            # aggressor list for dwells inside its outage.
            live_radios = other_radios
            if fault_plan is not None and other_radios:
                live_radios = [
                    radio
                    for radio in other_radios
                    if not fault_plan.reader_down(radio.reader_id, t)
                ]
            interference = self._interference_for(
                reader, antenna, live_radios, ctx.interference_rng
            )
            if fault_plan is not None:
                burst = fault_plan.interference_dbm_at(t)
                if burst is not None:
                    interference = (
                        burst
                        if interference is None
                        else sum_powers_dbm(interference, burst)
                    )
            last_result: Dict[str, LinkResult] = {}
            # Taken on the round's first evaluation: many rounds of a
            # long pass evaluate no tag at all.
            scene: List[_Scene] = []

            def channel(epc: str) -> TagChannel:
                carrier, tag = ctx.epc_index[epc]
                if not scene:
                    scene.append(_Scene(ctx.carriers, antenna.antenna_id, t))
                link = evaluate(
                    ctx, scene[0], carrier, tag, antenna, reader, t,
                    interference, fault_loss_db,
                )
                # A short-circuited link has no result: its tag is not
                # energized, never replies, and so nothing downstream
                # consumes a LinkResult for it.
                if link.result is not None:
                    last_result[epc] = link.result
                return link.channel

            slot_observer = None
            if rec is not None:
                def slot_observer(
                    outcome,
                    responders,
                    _rec=rec,
                    _reader_id=reader.reader_id,
                    _antenna_id=antenna.antenna_id,
                ):
                    _rec.slot(
                        outcome.time,
                        _reader_id,
                        _antenna_id,
                        outcome.slot_index,
                        responders,
                        outcome.kind,
                        outcome.epc,
                    )

            round_result = run_inventory_round(
                ctx.population,
                channel,
                protocol_rng,
                q_algo,
                session=session,
                timing=self.timing,
                start_time=t,
                time_budget_s=duration - t,
                capture_probability=self.params.capture_probability,
                slot_observer=slot_observer,
            )
            rounds += 1
            if rec is not None:
                rec.round_complete()
            for epc in round_result.read_epcs:
                result = last_result.get(epc)
                rssi = result.reverse_power_dbm if result else -99.0
                events.append(
                    TagReadEvent(
                        time=round_result.read_times[epc],
                        epc=epc,
                        reader_id=reader.reader_id,
                        antenna_id=antenna.antenna_id,
                        rssi_dbm=rssi,
                    )
                )
            # Advance by the airtime the round consumed (at least one
            # Query even if the field was empty).
            t += max(round_result.duration_s, self.timing.query_s)
        return rounds

    def _other_radios(self, reader: ReaderAssignment) -> List[ReaderRadio]:
        """Radios of every *other* reader in the portal (the aggressors)."""
        radios = []
        for other in self.portal.readers:
            if other.reader_id == reader.reader_id:
                continue
            for antenna in other.antennas:
                radios.append(
                    ReaderRadio(
                        reader_id=other.reader_id,
                        position=antenna.position,
                        tx_power_dbm=other.tx_power_dbm,
                        antenna_gain_dbi=self.env.reader_antenna.boresight_gain_dbi,
                        dense_reader_mode=other.dense_reader_mode,
                    )
                )
        return radios

    def _interference_for(
        self,
        reader: ReaderAssignment,
        antenna: AntennaInstallation,
        aggressors: List[ReaderRadio],
        rng,
    ) -> Optional[float]:
        """In-band interference at this reader's receiver for one dwell."""
        if not aggressors:
            return None
        victim = ReaderRadio(
            reader_id=reader.reader_id,
            position=antenna.position,
            tx_power_dbm=reader.tx_power_dbm,
            antenna_gain_dbi=self.env.reader_antenna.boresight_gain_dbi,
            dense_reader_mode=reader.dense_reader_mode,
        )
        co_channel = rng.bernoulli(self.params.co_channel_probability)
        return interference_at_receiver_dbm(victim, aggressors, co_channel)
