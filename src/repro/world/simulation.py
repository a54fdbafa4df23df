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
    SILENT,
    InventorySession,
    QAlgorithm,
    TagChannel,
    idle_round_airtime,
    run_idle_round,
    run_inventory_round,
)
from ..protocol.timing import DEFAULT_TIMING, Gen2Timing
from ..rf.coupling import CouplingModel
from ..rf.geometry import Vec3, segment_sphere_chord_length
from ..rf.units import linear_to_db, sum_powers_dbm
from ..rf.link import (
    LinkEnvironment,
    LinkResult,
    LinkTerms,
    compose_link,
    compute_link_terms,
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


#: Geometry terms of one (epc, scene key): link terms, obstruction loss
#: and whether a reflector backs the tag.
SharedGeometry = Tuple[LinkTerms, float, bool]


@dataclass(slots=True)
class ComposedLink:
    """One composed link state: its geometry terms and what they gave.

    ``geometry`` fixes the antenna, the tag, and the tag and occluder
    positions; the rest of a link state is the reader, the dwell's
    interference value and the antenna's fault loss. Everything else
    ``compose_link`` consumes — shadowing, detuning, coupling, the
    fading normals of the tag's coherence cell — is constant for the
    pass. ``result`` is ``None`` when the forward-link short-circuit
    fired. The remaining fields exist so a replay can re-emit the
    waterfall record without recomputing anything; the reference
    evaluation, which never short-circuits, leaves
    ``forward_no_fade_dbm`` at ``None``.
    """

    geometry: SharedGeometry
    reader_id: str
    interference_dbm: Optional[float]
    fault_loss_db: float
    result: Optional[LinkResult]
    channel: TagChannel
    fading_gain: Optional[float]
    forward_no_fade_dbm: Optional[float]


class PassLinkCache:
    """Per-pass memo of the link-budget work that does not change per round.

    ``_run_reader_timeline`` consults the link budget for every
    (candidate tag, inventory round) pair — hundreds of evaluations per
    pass, most of which recompute values that are pinned for the whole
    pass or for the current dwell geometry:

    * **links** — the last :class:`ComposedLink` evaluated under each
      ``(epc, scene key)``: the antenna, the tag's carrier position and
      the positions of the other carriers that have occluders at the
      round's time (see :func:`_scene_keys`). Exact float positions
      are used (not quantized), so the key pins the link's geometry
      terms bit for bit. A round whose reader, interference value and
      fault loss match the stored link replays its ``LinkResult`` and
      ``TagChannel`` instead of drawing fading and composing the budget
      again: the same pure arithmetic on the same inputs gives the same
      values. Otherwise the new link state is composed on the stored
      link's geometry. One link per key is enough: an antenna port is
      driven by one reader at a time, so a second reader only takes it
      over after a crash, and then simply replaces the stored state.
    * **fading normals** — the standard-normal pair behind each Rician
      draw, keyed by ``(reader_id, antenna_id, epc, coherence cell)``.
      The serial simulator derives a fresh seeded stream from exactly
      that tuple every round, so within one coherence cell the draw is
      the same pair of normals each time; caching them skips the
      sha256-based stream construction while the K-factor penalty is
      still applied per round (obstruction may vary).
    * **interference** — the Friis sum at a reader's receiver by
      (reader, antenna, live aggressors, co-channel flag).

    Counters keep their per-evaluation meaning whichever layer answers:
    a geometry hit means the pass already held a link under the key,
    and a composed replay still counts as the fading hit or
    short-circuit the full evaluation would have been, and so does each
    evaluation an idle round skipped (see :class:`_IdleProof`). A key
    the compiled scene's geometry table answers is still this pass's
    geometry miss.

    One cache covers one :meth:`PortalPassSimulator.run_pass` call (all
    readers — geometry terms are reader-independent, so a mux takeover
    composes on the owning reader's links). On a static scene, the
    :class:`CompiledScene` keeps the geometry terms across passes.
    Counters feed ``PortalPassSimulator._last_cache_stats``.

    ``PortalPassSimulator(use_link_cache=False)`` bypasses the cache;
    that uncached path is the reference the parity tests and the
    benchmark's output check compare against.
    """

    __slots__ = (
        "links",
        "fading_normals",
        "interference",
        "geometry_hits",
        "geometry_misses",
        "composed_hits",
        "composed_misses",
        "fading_hits",
        "fading_misses",
        "short_circuits",
    )

    def __init__(self) -> None:
        self.links: Dict[tuple, ComposedLink] = {}
        self.fading_normals: Dict[
            Tuple[str, str, str, int, int, int], Tuple[float, float]
        ] = {}
        self.interference: Dict[tuple, Optional[float]] = {}
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
    #: Chance that two non-DRM readers land co-channel, drawn once per
    #: inventory round.
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


@dataclass(slots=True, eq=False)
class CompiledScene:
    """What every pass of one simulator over one carrier set shares.

    Built by :meth:`PortalPassSimulator.compile` and accepted by
    :meth:`~PortalPassSimulator.run_pass` in place of the carriers, so
    repeated passes over a fixed population — Figure 2's 40 reads per
    distance — derive these once instead of once per pass. Nothing
    here depends on the seed or the trial: shadowing, clutter, fading,
    composed links and rng streams stay per pass.

    A scene is a snapshot of the carriers and of the simulator's link
    model when it was compiled, as a pickled task already is: changing
    either afterwards needs a fresh scene.
    """

    #: The simulator that compiled the scene; only it may run it.
    simulator: "PortalPassSimulator"
    carriers: Tuple[CarrierGroup, ...]
    #: Every (carrier, tag) pair, carrier by carrier.
    tags: Tuple[Tuple[CarrierGroup, Tag], ...]
    epc_index: Dict[str, Tuple[CarrierGroup, Tag]]
    population: Tuple[str, ...]
    duration: float
    #: Every carrier is stationary, so no tag's scene key ever changes.
    static: bool
    #: Static per-tag coupling and mount-detuning penalties, by EPC.
    coupling_db: Dict[str, float]
    detuning_db: Dict[str, float]
    #: Geometry terms by (epc, scene key), filled the first time a pass
    #: evaluates each link; ``None`` unless the scene is static, since a
    #: moving carrier's keys would grow without bound.
    geometry: Optional[Dict[tuple, SharedGeometry]]


@dataclass(slots=True)
class _Pass:
    """What one :meth:`PortalPassSimulator.run_pass` call fixes for all readers.

    Built once per pass; the reader timelines and every link evaluation
    read the compiled scene's tables and the pass's streams, cache and
    recording from it. ``cache is None`` selects the reference path.
    """

    scene: CompiledScene
    #: Per-trial static fade, by (EPC, antenna id).
    shadowing: Dict[Tuple[str, str], float]
    seeds: SeedSequence
    trial: int
    interference_rng: RandomStream
    fault_plan: Optional["FaultPlan"]
    cache: Optional[PassLinkCache]
    rec: Optional[PassRecording]


@dataclass(slots=True)
class _Segment:
    """A stretch of one reader's timeline over which no fault changes.

    Valid from the previous segment's ``end`` (or 0) up to ``end``: every
    fault window is half-open with its edges among the segment edges, so
    the :class:`~repro.faults.plan.FaultPlan` point queries evaluated at
    the segment's start hold for all of it.
    """

    end: float
    #: The reader is crashed or hung.
    down: bool
    #: Own antennas plus any backup ports taken over from a downed owner.
    active: Tuple[AntennaInstallation, ...]
    #: (silent, fault loss dB) of each active port, by antenna id.
    ports: Dict[str, Tuple[bool, float]]
    #: Other readers' radios that are up (the aggressors), and their ids.
    live_radios: Tuple[ReaderRadio, ...]
    live_key: Tuple[str, ...]
    #: Strongest ambient interference burst, if one is on.
    burst_dbm: Optional[float]
    #: This reader's crash restart falls at the segment's start.
    restart: bool = False


@dataclass(slots=True)
class _IdleProof:
    """Why the next rounds of a reader cannot read anything.

    Taken in a round in which no tag contended: ``links`` holds the
    (tag, composed link) of every uninventoried tag that round
    evaluated, none of them energized. While the scene is static
    and the reader keeps the antenna, interference value and fault loss
    of that round, every one of those evaluations would replay the same
    dead channel, so a round is only a Query and empty slots.
    """

    antenna: AntennaInstallation
    interference_dbm: Optional[float]
    fault_loss_db: float
    links: List[Tuple[Tag, ComposedLink]]
    short_circuits: int = field(init=False)

    def __post_init__(self) -> None:
        self.short_circuits = sum(
            1 for _, link in self.links if link.result is None
        )

    def holds(
        self,
        antenna: AntennaInstallation,
        interference_dbm: Optional[float],
        fault_loss_db: float,
    ) -> bool:
        return (
            antenna is self.antenna
            and interference_dbm == self.interference_dbm
            and fault_loss_db == self.fault_loss_db
        )

    def replay(self, cache: PassLinkCache, rounds: int = 1) -> None:
        """Count ``rounds`` rounds' evaluations as the cache would have."""
        evaluated = len(self.links) * rounds
        short_circuits = self.short_circuits * rounds
        cache.geometry_hits += evaluated
        cache.composed_hits += evaluated
        cache.short_circuits += short_circuits
        cache.fading_hits += evaluated - short_circuits


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

    def tag_position(
        self, carrier: CarrierGroup, tag: Tag
    ) -> Tuple[float, float, float]:
        """The tag's world position, as the sum ``Vec3`` addition makes."""
        pos = self.positions[id(carrier)]
        local = tag.local_position
        return (pos.x + local.x, pos.y + local.y, pos.z + local.z)


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

    def __getstate__(self) -> Dict[str, object]:
        # The last pass's counters describe this process only; a pickled
        # task ships the same bytes before and after it has run.
        state = dict(self.__dict__)
        state["_last_cache_stats"] = None
        return state

    # -- physics ---------------------------------------------------------

    def _obstruction_db(
        self,
        placed: Sequence[Tuple[CarrierGroup, Vec3]],
        ax: float,
        ay: float,
        az: float,
        tx: float,
        ty: float,
        tz: float,
    ) -> Tuple[float, bool]:
        """Through-material loss from the antenna at ``a`` to the tag at ``t``, capped.

        ``placed`` pairs each carrier with its position at the round's
        time. Returns (loss_db, reflector_behind): the second element
        reports whether a reflective occluder sits behind the tag (for
        the body reflection bonus). The ray's direction and length are
        taken once and shared by every occluder's chord.
        """
        total = 0.0
        reflector_behind = False
        dx = tx - ax
        dy = ty - ay
        dz = tz - az
        ray_len = math.sqrt(dx * dx + dy * dy + dz * dz)
        if ray_len < 1e-9:
            return 0.0, False
        ux = dx / ray_len
        uy = dy / ray_len
        uz = dz / ray_len
        for carrier, pos in placed:
            for occluder in carrier.occluders:
                centre = occluder.centre
                cx = pos.x + centre.x
                cy = pos.y + centre.y
                cz = pos.z + centre.z
                radius_m = occluder.radius_m
                chord = segment_sphere_chord_length(
                    ax, ay, az, ux, uy, uz, ray_len, cx, cy, cz, radius_m
                )
                if chord > 0.0:
                    total += occluder.material.through_loss_db(chord)
                elif occluder.reflective:
                    # Is the occluder behind the tag along the ray?
                    ox = cx - ax
                    oy = cy - ay
                    oz = cz - az
                    along = ox * ux + oy * uy + oz * uz
                    lx = ox - ux * along
                    ly = oy - uy * along
                    lz = oz - uz * along
                    lateral = math.sqrt(lx * lx + ly * ly + lz * lz)
                    behind_by = along - ray_len
                    if (
                        0.0 < behind_by <= self.params.reflection_range_m
                        and lateral <= radius_m + 0.3
                    ):
                        reflector_behind = True
        return min(total, self.params.obstruction_cap_db), reflector_behind

    def _coupling_table(
        self, carriers: Sequence[CarrierGroup]
    ) -> Dict[str, float]:
        """Near-field coupling penalty of every tag, by EPC.

        A tag couples with its own carrier's other tags. Carrier-local
        tag geometry is static, so distances at t=0 hold for the whole
        pass, and each carrier's positions and axes are taken once.
        """
        coupling = self.params.coupling
        table: Dict[str, float] = {}
        for carrier in carriers:
            positions = [t.local_position for t in carrier.tags]
            axes = [t.world_dipole_axis() for t in carrier.tags]
            for index, tag in enumerate(carrier.tags):
                penalty = coupling.total_penalty_db(index, positions, axes)
                table[tag.epc] = tag.coupling_factor() * penalty
        return table

    def _geometry_terms(
        self,
        placed: Sequence[Tuple[CarrierGroup, Vec3]],
        antenna: AntennaInstallation,
        tag: Tag,
        tag_pos: Tuple[float, float, float],
    ) -> SharedGeometry:
        """One ray-march and one link-terms evaluation: a link's geometry terms."""
        tx, ty, tz = tag_pos
        a = antenna.position
        ax = a.x
        ay = a.y
        az = a.z
        obstruction_db, reflector = self._obstruction_db(
            placed, ax, ay, az, tx, ty, tz
        )
        tag_gain_override = None
        if tag.design is not None:
            tag_gain_override = tag.pattern_gain_dbi(
                -(Vec3(tx, ty, tz) - a).normalized()
            )
        b = antenna.boresight
        k = tag.world_dipole_axis()
        terms = compute_link_terms(
            self.env,
            ax, ay, az,
            b.x, b.y, b.z,
            tx, ty, tz,
            k.x, k.y, k.z,
            tag_gain_override,
        )
        return terms, obstruction_db, reflector

    def _fading_key(
        self,
        reader: ReaderAssignment,
        antenna: AntennaInstallation,
        tag: Tag,
        tag_pos: Tuple[float, float, float],
    ) -> Tuple[str, str, str, int, int, int]:
        """(reader, antenna, EPC, coherence cell) of one fading draw.

        Keyed by (radio, antenna): two radios driving the same port see
        decorrelated small-scale fading, since they hop on different
        frequency channels.
        """
        cell = self.params.fading_coherence_m
        x, y, z = tag_pos
        return (
            reader.reader_id, antenna.antenna_id, tag.epc,
            int(x // cell), int(y // cell), int(z // cell),
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

        No cache, no short-circuit: one ray-trace, one
        :func:`compute_link_terms`, a fading draw from a stream derived
        fresh for this evaluation, and the full :func:`compose_link`,
        as :func:`~repro.rf.link.evaluate_link` composes them. The
        functions are the cached path's own; only the memos differ.
        Obstruction comes first because it degrades the K-factor of
        the fading draw. The draw is
        deterministic per (trial, link, coherence cell): the channel of
        a static geometry does not re-roll itself — only motion across
        ~lambda/2 decorrelates it.

        ``fault_loss_db`` models port-level impairments (a detuned or
        water-logged antenna from a fault plan): applied at the reader
        port, it attenuates the forward link and — through the tag's
        reduced backscatter power — the reverse link as well.
        """
        epc = tag.epc
        compiled = ctx.scene
        tag_pos = scene.tag_position(carrier, tag)
        geometry = self._geometry_terms(scene.placed, antenna, tag, tag_pos)
        terms, obstruction_db, reflector = geometry
        fading_rng = _fading_stream(
            ctx, self._fading_key(reader, antenna, tag, tag_pos)
        )
        fading_gain = self.env.channel.fading.degraded(
            obstruction_db * self.params.k_penalty_per_obstruction
        ).sample_power_gain(fading_rng)
        gain_bonus = self.params.reflection_gain_db if reflector else 0.0
        result = compose_link(
            self.env,
            reader.tx_power_dbm + gain_bonus - fault_loss_db,
            terms,
            obstruction_loss_db=obstruction_db,
            tag_detuning_db=compiled.detuning_db[epc],
            coupling_penalty_db=compiled.coupling_db[epc],
            shadowing_db=ctx.shadowing[(epc, antenna.antenna_id)],
            fading_power_gain=fading_gain,
            interference_dbm=interference_dbm,
        )
        channel = TagChannel(
            energized=result.activated,
            reply_decode_p=self._decode_probability(result),
        )
        link = ComposedLink(
            geometry, reader.reader_id, interference_dbm, fault_loss_db,
            result, channel, fading_gain, None,
        )
        if ctx.rec is not None:
            self._record_composed(ctx, link, tag, antenna, reader, t)
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

        The pass's link is keyed by the tag and its carrier's scene key
        (see :func:`_scene_keys`), which pin the tag's world position
        and the geometry terms the link carries. A link state the stored
        link does not match is composed on its geometry; a key the pass
        has not met takes its geometry from the compiled scene's table
        when an earlier pass over a static scene met it, and evaluates
        it otherwise. The tag position itself is only computed when the
        geometry or the link state has to be evaluated. The returned
        link's ``result`` is ``None`` when the forward link cannot close
        under any plausible fading draw (see
        :data:`MAX_FADING_HEADROOM_DB`): the tag is not energized, so
        the fading draw and the composition are skipped and its channel
        is dead. Otherwise ``result`` is bit-identical to what the
        reference produces for the same round.
        """
        cache = ctx.cache
        key = (tag.epc, scene.keys[id(carrier)])
        link = cache.links.get(key)
        tag_pos = None
        if link is None:
            # Still a miss when the compiled scene answers it: the
            # counters describe this pass's cache.
            cache.geometry_misses += 1
            table = ctx.scene.geometry
            geometry = table.get(key) if table is not None else None
            if geometry is None:
                tag_pos = scene.tag_position(carrier, tag)
                geometry = self._geometry_terms(
                    scene.placed, antenna, tag, tag_pos
                )
                if table is not None:
                    table[key] = geometry
        else:
            cache.geometry_hits += 1
            geometry = link.geometry
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
                ctx, geometry, tag, tag_pos, antenna, reader,
                interference_dbm, fault_loss_db,
            )
            cache.links[key] = link
        if ctx.rec is not None:
            self._record_composed(ctx, link, tag, antenna, reader, t)
        return link

    def _compose_cached(
        self,
        ctx: _Pass,
        geometry: SharedGeometry,
        tag: Tag,
        tag_pos: Tuple[float, float, float],
        antenna: AntennaInstallation,
        reader: ReaderAssignment,
        interference_dbm: Optional[float],
        fault_loss_db: float,
    ) -> ComposedLink:
        """Evaluate one link state on top of its geometry terms."""
        cache = ctx.cache
        terms, obstruction_db, reflector = geometry
        shadowing_db = ctx.shadowing[(tag.epc, antenna.antenna_id)]
        detuning_db = ctx.scene.detuning_db[tag.epc]
        coupling_db = ctx.scene.coupling_db[tag.epc]
        gain_bonus = self.params.reflection_gain_db if reflector else 0.0
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
                geometry,
                reader.reader_id,
                interference_dbm,
                fault_loss_db,
                None,
                SILENT,
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
            geometry,
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
        link: ComposedLink,
        tag: Tag,
        antenna: AntennaInstallation,
        reader: ReaderAssignment,
        t: float,
    ) -> None:
        """Report one evaluation at round time ``t`` to the recording.

        The waterfall record is only built when the recording keeps it.
        A short-circuited link (``link.result is None``) stops before
        the fading draw, so the composed-budget fields stay ``None``.
        Summing the record's terms (gains minus losses, fault loss and
        cable loss included) reproduces ``forward_power_dbm`` exactly.
        """
        epc = tag.epc
        result = link.result
        if result is None:
            fading_db = None
            no_fade_margin_db = (
                link.forward_no_fade_dbm - self.env.tag_sensitivity_dbm
            )
        else:
            fading_db = linear_to_db(max(link.fading_gain, 1e-300))
            no_fade_margin_db = result.forward_margin_db - fading_db
        rec = ctx.rec
        if not rec.link(epc, result, link.fault_loss_db, no_fade_margin_db):
            return
        terms, obstruction_db, reflector = link.geometry
        gain_bonus = self.params.reflection_gain_db if reflector else 0.0
        rec.keep_link(
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
                obstruction_db=obstruction_db,
                detuning_db=ctx.scene.detuning_db[epc],
                coupling_db=ctx.scene.coupling_db[epc],
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
            )
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

    def compile(self, carriers: Sequence[CarrierGroup]) -> CompiledScene:
        """What every pass of this simulator over ``carriers`` shares.

        Raises :class:`ValueError` when no carrier has a tag or two tags
        share an EPC. The geometry table of a static scene starts empty
        and fills as passes meet each link, so compiling costs what one
        pass over the carriers always spent on these tables.
        """
        tags = tuple(
            (carrier, tag) for carrier in carriers for tag in carrier.tags
        )
        if not tags:
            raise ValueError("no tags in any carrier group")
        epc_index: Dict[str, Tuple[CarrierGroup, Tag]] = {}
        for carrier, tag in tags:
            if tag.epc in epc_index:
                raise ValueError(f"duplicate EPC in pass: {tag.epc}")
            epc_index[tag.epc] = (carrier, tag)
        static = all(
            isinstance(c.motion, StationaryPlacement) for c in carriers
        )
        return CompiledScene(
            simulator=self,
            carriers=tuple(carriers),
            tags=tags,
            epc_index=epc_index,
            population=tuple(epc_index),
            duration=max(c.motion.duration_s for c in carriers),
            static=static,
            coupling_db=self._coupling_table(carriers),
            detuning_db={tag.epc: tag.detuning_db() for _, tag in tags},
            geometry={} if static else None,
        )

    def run_pass(
        self,
        carriers: Union[Sequence[CarrierGroup], CompiledScene],
        seeds: SeedSequence,
        trial: int,
        fault_plan: Optional["FaultPlan"] = None,
    ) -> PassResult:
        """Simulate one complete pass (one physical repetition).

        Parameters
        ----------
        carriers:
            Everything moving through the portal together, or a
            :class:`CompiledScene` this simulator compiled from them
            (:meth:`compile`); a scene another simulator compiled raises
            :class:`ValueError`.
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
        if isinstance(carriers, CompiledScene):
            scene = carriers
            if scene.simulator is not self:
                raise ValueError("the scene was compiled by another simulator")
        else:
            scene = self.compile(carriers)
        duration = scene.duration

        rec: Optional[PassRecording] = None
        if self.recorder is not None:
            rec = self.recorder.begin_pass(trial)
            if self.recorder.detail:
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
        for carrier, tag in scene.tags:
            if carrier.clutter_sigma_db > 0.0:
                stream = seeds.trial_stream(f"clutter:{tag.epc}", trial)
                clutter[tag.epc] = stream.gauss(0.0, carrier.clutter_sigma_db)
            else:
                clutter[tag.epc] = 0.0
        shadowing: Dict[Tuple[str, str], float] = {}
        for antenna in self.portal.all_antennas:
            for carrier, tag in scene.tags:
                stream = seeds.trial_stream(
                    f"shadow:{tag.epc}:{antenna.antenna_id}", trial
                )
                shadowing[(tag.epc, antenna.antenna_id)] = (
                    self.env.channel.shadowing.sample_db(stream)
                    + clutter[tag.epc]
                )

        ctx = _Pass(
            scene=scene,
            shadowing=shadowing,
            seeds=seeds,
            trial=trial,
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
                population=scene.population,
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

        With the link cache on, a round in which no tag can contend is
        idle: it runs the Q algorithm over its empty slots and charges
        their airtime, but runs no inventory round. A round is idle when
        the session has inventoried every tag, when an
        :class:`_IdleProof` from an earlier round still holds (then it
        evaluates no link either), or when the links of every
        uninventoried tag, evaluated first, energize none of them. Once
        the Q algorithm sits at its floor (:attr:`QAlgorithm.at_floor`)
        the idle rounds that need no evaluation run in one loop up to
        the next edge (see :meth:`_idle_run`). An idle round's co-channel
        draw and cache counters are the ones the full round would have
        made, and the recorder gets the same link evaluations and empty
        slots. The reference path (``use_link_cache=False``) runs every
        round.
        """
        rec = ctx.rec
        cache = ctx.cache
        compiled = ctx.scene
        duration = compiled.duration
        tdma_slot_s = self.params.tdma_slot_s
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
            self._evaluate_tag_cached if cache is not None
            else self._evaluate_tag
        )
        tag_count = len(compiled.population)
        rounds = 0
        t = 0.0
        segments = self._fault_timeline(ctx.fault_plan, reader)
        segment_index = 0
        segment = segments[0]
        idle: Optional[_IdleProof] = None
        # The co-channel outcome an idle run drew for the round it
        # stopped before; that round uses it instead of drawing again.
        drawn: Optional[bool] = None
        # (last slot offset, airtime) of an idle round at the Q floor.
        floor_frame: Optional[Tuple[float, float]] = None

        while t < duration:
            while t >= segment.end:
                segment_index += 1
                segment = segments[segment_index]
                if segment.restart:
                    # A power-cycled reader comes back with a fresh
                    # inventory session: its carrier dropped, so the
                    # tags' S0 flags (and, over a seconds-long reboot,
                    # S1 persistence) lapse, and previously read tags
                    # answer again.
                    session.reset()
                    idle = None
            if segment.down:
                # Crashed or hung: no inventory, no airtime, no reads.
                if rec is not None:
                    rec.masked_dwell(t, reader.reader_id, None, "reader_down")
                t += tdma_slot_s
                continue
            dwell = int(t / tdma_slot_s) % len(segment.active)
            antenna = segment.active[dwell]
            silent, fault_loss_db = segment.ports[antenna.antenna_id]
            if silent:
                # Cable cut: the dwell happens but nothing radiates.
                if rec is not None:
                    rec.masked_dwell(
                        t, reader.reader_id, antenna.antenna_id, "antenna_silent"
                    )
                t += tdma_slot_s
                continue
            if drawn is None:
                co_channel = self._co_channel(ctx, segment)
            else:
                co_channel, drawn = drawn, None
            interference = self._interference_for(
                ctx, reader, antenna, segment, co_channel
            )

            everyone_read = session.inventoried_count == tag_count
            if cache is not None and (
                everyone_read
                or (
                    idle is not None
                    and idle.holds(antenna, interference, fault_loss_db)
                )
            ):
                if idle is not None:
                    idle.replay(cache)
                    if rec is not None:
                        for tag, link in idle.links:
                            self._record_composed(
                                ctx, link, tag, antenna, reader, t
                            )
            else:
                # The evaluations run_inventory_round would make before
                # its first draw: every uninventoried tag, in population
                # order.
                links: List[Tuple[Tag, ComposedLink]] = []
                if not everyone_read:
                    scene = _Scene(compiled.carriers, antenna.antenna_id, t)
                    for epc in compiled.population:
                        if session.is_inventoried(epc):
                            continue
                        carrier, tag = compiled.epc_index[epc]
                        links.append((tag, evaluate(
                            ctx, scene, carrier, tag, antenna, reader, t,
                            interference, fault_loss_db,
                        )))
                if cache is None or any(
                    link.channel.energized for _, link in links
                ):
                    idle = None
                    t = self._full_round(
                        ctx, reader, antenna, links, protocol_rng, q_algo,
                        session, t, events,
                    )
                    rounds += 1
                    continue
                idle = (
                    _IdleProof(antenna, interference, fault_loss_db, links)
                    if compiled.static
                    else None
                )

            # No tag contends: a Query and empty slots.
            slot_times: Optional[List[float]] = [] if rec is not None else None
            elapsed = run_idle_round(
                q_algo, self.timing, t, duration - t, slot_times
            )
            rounds += 1
            if rec is not None:
                rec.idle_round(reader.reader_id, antenna.antenna_id, slot_times)
            t += max(elapsed, self.timing.query_s)

            # The next rounds need no evaluation when everyone is read
            # (then there is no proof) or a proof holds. A recorded
            # proof replay feeds float histograms, and a detailed
            # recording keeps every slot: those stay round by round.
            if (
                q_algo.at_floor
                and (everyone_read or idle is not None)
                and (rec is None or (everyone_read and not rec.detail))
            ):
                if floor_frame is None:
                    floor_frame = idle_round_airtime(q_algo.q, self.timing)
                run, t, drawn = self._idle_run(
                    ctx, reader, segment, dwell, idle, floor_frame, t
                )
                if run:
                    rounds += run
                    if idle is not None:
                        idle.replay(cache, run)
                    if rec is not None:
                        rec.idle_run(
                            reader.reader_id, antenna.antenna_id, run,
                            1 << q_algo.q,
                        )
        return rounds

    def _full_round(
        self,
        ctx: _Pass,
        reader: ReaderAssignment,
        antenna: AntennaInstallation,
        links: List[Tuple[Tag, ComposedLink]],
        protocol_rng: RandomStream,
        q_algo: QAlgorithm,
        session: InventorySession,
        t: float,
        events: List[TagReadEvent],
    ) -> float:
        """Run one inventory round on the links already evaluated for it.

        ``links`` holds every uninventoried tag's link; the round reads
        their channels instead of evaluating them again. Appends the
        round's reads to ``events`` and returns the time after it.
        """
        compiled = ctx.scene
        by_epc = {tag.epc: link for tag, link in links}
        round_result = run_inventory_round(
            compiled.population,
            lambda epc: by_epc[epc].channel,
            protocol_rng,
            q_algo,
            session=session,
            timing=self.timing,
            start_time=t,
            time_budget_s=compiled.duration - t,
            capture_probability=self.params.capture_probability,
        )
        if ctx.rec is not None:
            ctx.rec.round(
                reader.reader_id, antenna.antenna_id, round_result.slots
            )
        for epc in round_result.read_epcs:
            # Only an energized tag contends, so a read tag's link was
            # composed, not short-circuited.
            events.append(
                TagReadEvent(
                    time=round_result.read_times[epc],
                    epc=epc,
                    reader_id=reader.reader_id,
                    antenna_id=antenna.antenna_id,
                    rssi_dbm=by_epc[epc].result.reverse_power_dbm,
                )
            )
        # Advance by the airtime the round consumed (at least one Query
        # even if the field was empty).
        return t + max(round_result.duration_s, self.timing.query_s)

    def _idle_run(
        self,
        ctx: _Pass,
        reader: ReaderAssignment,
        segment: _Segment,
        dwell: int,
        proof: Optional[_IdleProof],
        floor_frame: Tuple[float, float],
        t: float,
    ) -> Tuple[int, float, Optional[bool]]:
        """Run the idle rounds after one at the Q floor, in one loop.

        At the floor an idle round leaves the Q algorithm as it is, and
        unless the pass end truncates it, it is the same frame with the
        same airtime (``floor_frame``, from :func:`idle_round_airtime`).
        So while the next round needs no evaluation — the session has
        inventoried every tag (``proof`` is ``None``) or ``proof`` still
        holds — a round only adds that airtime to ``t`` and draws its
        co-channel Bernoulli. The run stops before the first round that
        falls past the segment's end, that the pass end would truncate,
        that the TDMA schedule gives to another antenna (``dwell`` is
        this one's index among the active ones) or whose interference
        value breaks the proof. A silent port cannot start inside a run:
        the run keeps its antenna and its segment.

        Returns the rounds run, the time after them, and the co-channel
        outcome already drawn for the round the run stopped before
        (``None`` when it drew none for it).
        """
        duration = ctx.scene.duration
        last_slot, airtime = floor_frame
        step = max(airtime, self.timing.query_s)
        tdma_slot_s = self.params.tdma_slot_s
        active = len(segment.active)
        antenna = segment.active[dwell]
        end = segment.end
        draws = bool(segment.live_radios)
        # Interference value by co-channel outcome, taken through the
        # memo as the rounds themselves would take it.
        values: Dict[bool, Optional[float]] = {}
        run = 0
        while (
            t < end
            and last_slot < duration - t
            and int(t / tdma_slot_s) % active == dwell
        ):
            if draws:
                co_channel = self._co_channel(ctx, segment)
                if co_channel not in values:
                    values[co_channel] = self._interference_for(
                        ctx, reader, antenna, segment, co_channel
                    )
                if (
                    proof is not None
                    and values[co_channel] != proof.interference_dbm
                ):
                    return run, t, co_channel
            t += step
            run += 1
        return run, t, None

    def _fault_timeline(
        self, plan: Optional["FaultPlan"], reader: ReaderAssignment
    ) -> List[_Segment]:
        """Compile the fault plan into this reader's piecewise timeline.

        Segment edges are the plan's
        :meth:`~repro.faults.plan.FaultPlan.change_points` for
        this reader plus the edges of its RF-mux takeover windows; each
        segment holds the plan's point queries at its start. A
        fault-free pass is one segment.
        """
        antennas = tuple(reader.antennas)
        others = self._other_radios(reader)
        if plan is None:
            return [
                _Segment(
                    end=math.inf,
                    down=False,
                    active=antennas,
                    ports={a.antenna_id: (False, 0.0) for a in antennas},
                    live_radios=tuple(others),
                    live_key=tuple(r.reader_id for r in others),
                    burst_dbm=None,
                )
            ]
        # RF-mux takeover windows: [start + detection delay, end) slices
        # of another reader's outage during which its orphaned antennas
        # are rerouted to this reader.
        owner_of_antenna = {
            a.antenna_id: r.reader_id
            for r in self.portal.readers
            for a in r.antennas
        }
        takeovers: List[Tuple[AntennaInstallation, float, float]] = []
        delay = self.params.mux_takeover_delay_s
        for backup in reader.backup_antennas:
            owner = owner_of_antenna[backup.antenna_id]
            for start, end in plan.reader_outages(owner):
                if start + delay < end:
                    takeovers.append((backup, start + delay, end))

        restarts = {
            c.down_until for c in plan.crash_restarts(reader.reader_id)
        }
        # The plan owns its own change points, restarts among them; a
        # takeover window adds the detection delay past an outage start.
        starts = sorted(
            set(plan.change_points(reader.reader_id))
            | {x for _, lo, hi in takeovers for x in (lo, hi) if x < math.inf}
        )

        segments = []
        for i, start in enumerate(starts):
            inherited = tuple(a for a, lo, hi in takeovers if lo <= start < hi)
            active = antennas + inherited
            # A crashed neighbour radiates nothing: it is no aggressor
            # while it is down.
            live = tuple(
                r for r in others if not plan.reader_down(r.reader_id, start)
            )
            segments.append(
                _Segment(
                    end=starts[i + 1] if i + 1 < len(starts) else math.inf,
                    down=plan.reader_down(reader.reader_id, start),
                    active=active,
                    ports={
                        a.antenna_id: plan.antenna_state(
                            reader.reader_id, a.antenna_id, start
                        )
                        for a in active
                    },
                    live_radios=live,
                    live_key=tuple(r.reader_id for r in live),
                    burst_dbm=plan.interference_dbm_at(start),
                    restart=start in restarts,
                )
            )
        return segments

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

    def _co_channel(self, ctx: _Pass, segment: _Segment) -> bool:
        """One inventory round's co-channel draw.

        Live aggressors cost one Bernoulli on the pass's interference
        stream per round; with none there is nothing to draw.
        """
        return bool(segment.live_radios) and ctx.interference_rng.bernoulli(
            self.params.co_channel_probability
        )

    def _interference_for(
        self,
        ctx: _Pass,
        reader: ReaderAssignment,
        antenna: AntennaInstallation,
        segment: _Segment,
        co_channel: bool,
    ) -> Optional[float]:
        """In-band interference at this reader's receiver for one round.

        ``co_channel`` is the round's draw (:meth:`_co_channel`). The
        Friis sum of the live aggressors for that outcome is memoized in
        the pass's link cache. An ambient burst adds on top.
        """
        interference = None
        if segment.live_radios:
            key = (reader.reader_id, antenna.antenna_id, segment.live_key, co_channel)
            memo = ctx.cache.interference if ctx.cache is not None else None
            if memo is not None and key in memo:
                interference = memo[key]
            else:
                victim = ReaderRadio(
                    reader_id=reader.reader_id,
                    position=antenna.position,
                    tx_power_dbm=reader.tx_power_dbm,
                    antenna_gain_dbi=self.env.reader_antenna.boresight_gain_dbi,
                    dense_reader_mode=reader.dense_reader_mode,
                )
                interference = interference_at_receiver_dbm(
                    victim, segment.live_radios, co_channel
                )
                if memo is not None:
                    memo[key] = interference
        burst = segment.burst_dbm
        if burst is not None:
            interference = (
                burst
                if interference is None
                else sum_powers_dbm(interference, burst)
            )
        return interference
