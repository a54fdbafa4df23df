"""The scalar link-geometry kernel against the vector form it replaced.

``compute_link_terms``, ``segment_sphere_chord_length`` and the pass
simulator's obstruction ray-march run on plain floats. They must give
the same bits as the ``Vec3`` composition they replaced, so the oracle
below is that composition, written out with ``Vec3`` arithmetic, and
every comparison is ``==``. Random geometries run alongside one fixed
case per branch of the kernel.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from tests.hypothesis_budget import examples

from repro.rf.antenna import (
    CIRCULAR_TO_LINEAR_LOSS_DB,
    NULL_FLOOR_DB,
    DipoleAntenna,
    PatchAntenna,
)
from repro.rf.geometry import Vec3, segment_sphere_chord_length
from repro.rf.link import LinkEnvironment, LinkGeometry, LinkTerms, compute_link_terms
from repro.rf.materials import BODY, CARDBOARD, LIQUID, METAL
from repro.rf.propagation import ChannelModel, PathLossModel, RicianFading
from repro.rf.units import db_to_linear, linear_to_db, wavelength
from repro.world.motion import StationaryPlacement
from repro.world.portal import AntennaInstallation, single_antenna_portal
from repro.world.simulation import (
    CarrierGroup,
    Occluder,
    PortalPassSimulator,
    SimulationParameters,
)
from repro.world.tag_designs import TagDesign, characteristics
from repro.world.tags import ALL_ORIENTATIONS, Tag, TagOrientation

EXAMPLES = settings(max_examples=examples(300))

# ---------------------------------------------------------------------------
# the oracle: the vector form, operation for operation


def _angle_to(a, b):
    denom = a.norm() * b.norm()
    if denom < 1e-24:
        raise ValueError("angle with a zero vector is undefined")
    cosine = max(-1.0, min(1.0, a.dot(b) / denom))
    return math.acos(cosine)


def _patch_gain(patch, direction, boresight):
    angle = _angle_to(boresight, direction)
    if angle >= math.pi / 2.0:
        return patch.boresight_gain_dbi + NULL_FLOOR_DB
    pattern = math.cos(angle) ** patch.rolloff_exponent
    pattern_db = linear_to_db(max(pattern, db_to_linear(NULL_FLOOR_DB)))
    return patch.boresight_gain_dbi + pattern_db


def _dipole_gain(broadside_gain_dbi, direction, dipole_axis):
    theta = _angle_to(dipole_axis, direction)
    sin_theta = math.sin(theta)
    if sin_theta < 1e-6:
        return broadside_gain_dbi + NULL_FLOOR_DB
    pattern = math.cos((math.pi / 2.0) * math.cos(theta)) / sin_theta
    power = pattern * pattern
    floor = db_to_linear(NULL_FLOOR_DB)
    return broadside_gain_dbi + linear_to_db(max(power, floor))


def _polarization_loss(circular, tag_axis, propagation_dir):
    reader_pol_axis = Vec3.unit_x()
    k = propagation_dir.normalized()
    tag_t = tag_axis - k * tag_axis.dot(k)
    if tag_t.norm() < 1e-9:
        return -NULL_FLOOR_DB
    if circular:
        return CIRCULAR_TO_LINEAR_LOSS_DB
    reader_t = reader_pol_axis - k * reader_pol_axis.dot(k)
    if reader_t.norm() < 1e-9:
        return -NULL_FLOOR_DB
    cos2 = math.cos(_angle_to(tag_t, reader_t)) ** 2
    return -linear_to_db(max(cos2, db_to_linear(NULL_FLOOR_DB)))


def _design_gain(design, direction, dipole_axis):
    spec = characteristics(design)
    if spec.orientation_insensitive:
        return spec.peak_gain_dbi
    return _dipole_gain(spec.peak_gain_dbi, direction, dipole_axis)


def oracle_link_terms(env, geometry, tag_gain_override_dbi=None):
    distance = geometry.antenna_position.distance_to(geometry.tag_position)
    direction = (geometry.tag_position - geometry.antenna_position).normalized()
    reader_gain = _patch_gain(
        env.reader_antenna, direction, geometry.antenna_boresight
    )
    if tag_gain_override_dbi is not None:
        tag_gain = tag_gain_override_dbi
    else:
        tag_gain = _dipole_gain(
            env.tag_antenna.broadside_gain_dbi, -direction, geometry.tag_axis
        )
    pol_loss = _polarization_loss(
        env.reader_antenna.circular, geometry.tag_axis, direction
    )
    path_gain = env.channel.path_loss.path_gain_db(
        distance,
        tx_height_m=geometry.antenna_position.y,
        rx_height_m=geometry.tag_position.y,
    )
    return LinkTerms(reader_gain, tag_gain, pol_loss, path_gain)


def _oracle_chord(start, end, centre, radius):
    d = end - start
    seg_len = d.norm()
    if seg_len < 1e-12:
        return 0.0
    u = d / seg_len
    oc = start - centre
    b = oc.dot(u)
    c = oc.dot(oc) - radius * radius
    disc = b * b - c
    if disc <= 0.0:
        return 0.0
    sqrt_disc = math.sqrt(disc)
    t0 = max(-b - sqrt_disc, 0.0)
    t1 = min(-b + sqrt_disc, seg_len)
    return max(0.0, t1 - t0)


def oracle_obstruction(params, placed, antenna_pos, tag_pos):
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
            chord = _oracle_chord(antenna_pos, tag_pos, centre, occluder.radius_m)
            if chord > 0.0:
                total += occluder.material.through_loss_db(chord)
            elif occluder.reflective:
                along = (centre - antenna_pos).dot(ray_unit)
                lateral = ((centre - antenna_pos) - ray_unit * along).norm()
                behind_by = along - ray_len
                if (
                    0.0 < behind_by <= params.reflection_range_m
                    and lateral <= occluder.radius_m + 0.3
                ):
                    reflector_behind = True
    return min(total, params.obstruction_cap_db), reflector_behind


def oracle_geometry_terms(simulator, placed, antenna, tag, tag_pos):
    """What the pass simulator's geometry miss computed: the ray-march,
    the inlay's own pattern gain, then the link terms."""
    obstruction = oracle_obstruction(
        simulator.params, placed, antenna.position, tag_pos
    )
    geometry = LinkGeometry(
        antenna_position=antenna.position,
        antenna_boresight=antenna.boresight,
        tag_position=tag_pos,
        tag_axis=tag.world_dipole_axis(),
    )
    override = None
    if tag.design is not None:
        override = _design_gain(
            tag.design, -geometry.direction, tag.world_dipole_axis()
        )
    return (oracle_link_terms(simulator.env, geometry, override),) + obstruction


# ---------------------------------------------------------------------------
# inputs

coords = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)
points = st.builds(Vec3, coords, coords, coords)
directions = points.filter(lambda v: v.norm() > 1e-3)
envs = st.builds(
    lambda circular, rolloff, two_ray, exponent, broadside: LinkEnvironment(
        channel=ChannelModel(
            path_loss=PathLossModel(
                use_two_ray=two_ray, path_loss_exponent=exponent
            )
        ),
        reader_antenna=PatchAntenna(rolloff_exponent=rolloff, circular=circular),
        tag_antenna=DipoleAntenna(broadside_gain_dbi=broadside),
    ),
    st.booleans(),
    st.sampled_from([1.0, 2.0, 2.5]),
    st.booleans(),
    st.sampled_from([2.0, 2.2, 2.8]),
    st.sampled_from([2.15, 0.0]),
)


def _kernel_terms(env, geometry, tag_gain_override_dbi=None):
    return compute_link_terms(
        env, *geometry.components(), tag_gain_override_dbi
    )


def _assert_same_terms(env, geometry, override=None):
    try:
        expected = oracle_link_terms(env, geometry, override)
    except ValueError:
        with pytest.raises(ValueError):
            _kernel_terms(env, geometry, override)
        return
    assert _kernel_terms(env, geometry, override) == expected


class TestLinkTerms:
    @EXAMPLES
    @given(envs, points, directions, points, directions)
    def test_random_geometry(self, env, antenna, boresight, tag, axis):
        _assert_same_terms(env, LinkGeometry(antenna, boresight, tag, axis))

    @EXAMPLES
    @given(envs, points, directions, points, directions, st.floats(-30.0, 5.0))
    def test_gain_override(self, env, antenna, boresight, tag, axis, gain):
        _assert_same_terms(env, LinkGeometry(antenna, boresight, tag, axis), gain)

    @EXAMPLES
    @given(envs, points, directions, st.floats(0.05, 8.0), st.booleans())
    def test_axis_along_the_ray(self, env, antenna, direction, distance, flip):
        # Dipole null and no transverse component: the tag axis is the
        # antenna-to-tag direction itself.
        unit = direction.normalized()
        axis = -unit if flip else unit
        tag = antenna + unit * distance
        _assert_same_terms(env, LinkGeometry(antenna, Vec3.unit_z(), tag, axis))

    @pytest.mark.parametrize("circular", [True, False])
    @pytest.mark.parametrize("two_ray", [True, False])
    @pytest.mark.parametrize("exponent", [2.0, 2.6])
    @pytest.mark.parametrize(
        "case",
        [
            # Broadside, on boresight.
            (Vec3(0.0, 1.0, 0.0), Vec3.unit_z(), Vec3(0.0, 1.0, 3.0), Vec3.unit_x()),
            # Behind the patch: angle >= pi/2.
            (Vec3(0.0, 1.0, 0.0), Vec3.unit_z(), Vec3(0.3, 1.2, -2.0), Vec3.unit_x()),
            # Exactly at 90 degrees off boresight.
            (Vec3(0.0, 1.0, 0.0), Vec3.unit_z(), Vec3(2.0, 1.0, 0.0), Vec3.unit_y()),
            # Dipole pointing at the antenna: sin(theta) < 1e-6 and a
            # transverse norm under 1e-9.
            (Vec3(0.0, 1.0, 0.0), Vec3.unit_z(), Vec3(0.0, 1.0, 2.0), Vec3.unit_z()),
            # A linear reader whose E-field axis lies along the ray.
            (Vec3(0.0, 1.0, 0.0), Vec3.unit_x(), Vec3(3.0, 1.0, 0.0), Vec3.unit_y()),
            # Inside the lambda/10 floor of the path-loss model.
            (Vec3(0.0, 1.0, 0.0), Vec3.unit_z(), Vec3(0.0, 1.0, 0.01), Vec3.unit_x()),
            # Beyond 1 m: excess clutter loss applies.
            (Vec3(0.5, 1.5, 0.0), Vec3(0.0, -0.2, 1.0), Vec3(-1.0, 0.4, 6.0), Vec3(1.0, 1.0, 0.0)),
        ],
    )
    def test_branch(self, circular, two_ray, exponent, case):
        env = LinkEnvironment(
            channel=ChannelModel(
                path_loss=PathLossModel(
                    use_two_ray=two_ray, path_loss_exponent=exponent
                )
            ),
            reader_antenna=PatchAntenna(circular=circular),
        )
        _assert_same_terms(env, LinkGeometry(*case))

    def test_coincident_ends_raise_like_the_vector_form(self):
        env = LinkEnvironment()
        at = Vec3(0.0, 1.0, 0.0)
        geometry = LinkGeometry(at, Vec3.unit_z(), at, Vec3.unit_x())
        with pytest.raises(ValueError):
            oracle_link_terms(env, geometry)
        with pytest.raises(ValueError):
            _kernel_terms(env, geometry)


# ---------------------------------------------------------------------------
# obstruction ray-march and the whole geometry miss


ANTENNA = AntennaInstallation("ant-0", Vec3(0.0, 1.0, 0.0), Vec3.unit_z())


def _simulator(**params):
    return PortalPassSimulator(
        portal=single_antenna_portal(),
        params=SimulationParameters(**params),
    )


def _placed(occluders, position=Vec3(0.0, 0.0, 0.0)):
    carrier = CarrierGroup(
        motion=StationaryPlacement(position, duration_s=1.0),
        occluders=list(occluders),
    )
    return [(carrier, position)]


def _assert_same_obstruction(simulator, placed, antenna_pos, tag_pos):
    expected = oracle_obstruction(simulator.params, placed, antenna_pos, tag_pos)
    got = simulator._obstruction_db(
        placed,
        antenna_pos.x, antenna_pos.y, antenna_pos.z,
        tag_pos.x, tag_pos.y, tag_pos.z,
    )
    assert got == expected
    return got


occluders = st.builds(
    lambda along, lateral, radius, material, reflective: (
        along, lateral, radius, material, reflective
    ),
    st.floats(-0.5, 1.5),
    st.floats(0.0, 1.5),
    st.floats(0.05, 1.0),
    st.sampled_from([METAL, LIQUID, BODY, CARDBOARD]),
    st.booleans(),
)


def _along_ray(antenna_pos, tag_pos, spec):
    """An occluder ``along`` ray-lengths down the ray, ``lateral`` radii
    off it (so lateral < 1 cuts the ray, 1 grazes it, > 1 misses)."""
    along, lateral, radius, material, reflective = spec
    ray = tag_pos - antenna_pos
    side = ray.cross(Vec3.unit_y())
    if side.norm() < 1e-6:
        side = ray.cross(Vec3.unit_x())
    if side.norm() < 1e-6:
        side = Vec3.unit_x()  # no ray to step off
    centre = antenna_pos + ray * along + side.normalized() * (lateral * radius)
    return Occluder(centre, radius, material, reflective)


class TestChord:
    @EXAMPLES
    @given(points, points, points, st.floats(0.01, 3.0))
    def test_random_segments(self, start, end, centre, radius):
        # The ray form, built the way the obstruction ray-march builds it.
        dx, dy, dz = end.x - start.x, end.y - start.y, end.z - start.z
        length = math.sqrt(dx * dx + dy * dy + dz * dz)
        if length < 1e-12:
            ux = uy = uz = 0.0
        else:
            ux, uy, uz = dx / length, dy / length, dz / length
        got = segment_sphere_chord_length(
            start.x, start.y, start.z, ux, uy, uz, length,
            centre.x, centre.y, centre.z, radius,
        )
        assert got == _oracle_chord(start, end, centre, radius)

    @EXAMPLES
    @given(points, points, occluders)
    def test_segments_that_cut_the_sphere(self, start, end, spec):
        occluder = _along_ray(start, end, spec)
        dx, dy, dz = end.x - start.x, end.y - start.y, end.z - start.z
        length = math.sqrt(dx * dx + dy * dy + dz * dz)
        if length < 1e-12:
            return
        c = occluder.centre
        got = segment_sphere_chord_length(
            start.x, start.y, start.z, dx / length, dy / length, dz / length,
            length, c.x, c.y, c.z, occluder.radius_m,
        )
        assert got == _oracle_chord(start, end, c, occluder.radius_m)


class TestObstruction:
    @EXAMPLES
    @given(
        points,
        points,
        st.lists(occluders, max_size=6),
        points,
        st.sampled_from([25.0, 1e9]),
    )
    def test_random_rays_and_occluders(
        self, antenna_pos, tag_pos, specs, shift, cap_db
    ):
        # An unreachable cap keeps every chord's loss in the total.
        placed = _placed(
            [_along_ray(antenna_pos, tag_pos, s) for s in specs]
            + [Occluder(shift, 0.3, BODY, reflective=True)]
        )
        _assert_same_obstruction(
            _simulator(obstruction_cap_db=cap_db), placed, antenna_pos, tag_pos
        )

    def test_chord_misses(self):
        placed = _placed([Occluder(Vec3(1.0, 1.0, 2.0), 0.5, METAL)])
        got = _assert_same_obstruction(
            _simulator(), placed, ANTENNA.position, Vec3(0.0, 1.0, 4.0)
        )
        assert got == (0.0, False)

    def test_chord_is_tangent(self):
        # b = -2, c = 4: the discriminant is exactly zero.
        placed = _placed([Occluder(Vec3(1.0, 0.0, 2.0), 1.0, METAL)])
        got = _assert_same_obstruction(
            _simulator(), placed, Vec3(0.0, 0.0, 0.0), Vec3(0.0, 0.0, 4.0)
        )
        assert got == (0.0, False)

    @pytest.mark.parametrize("centre_z", [0.0, 4.0, 2.0])
    def test_chord_clipped_at_either_end(self, centre_z):
        placed = _placed([Occluder(Vec3(0.1, 1.0, centre_z), 0.4, BODY)])
        total, _ = _assert_same_obstruction(
            _simulator(), placed, ANTENNA.position, Vec3(0.0, 1.0, 4.0)
        )
        assert total > 0.0

    @pytest.mark.parametrize(
        "offset",
        [
            Vec3(0.0, 0.0, 0.3),
            # Exactly radius + 0.3 m off the ray: lateral == 0.5 holds.
            Vec3(0.5, 0.0, 0.5),
        ],
    )
    def test_reflector_behind_the_tag(self, offset):
        torso = Occluder(offset, 0.2, BODY, reflective=True)
        placed = _placed([torso], Vec3(0.0, 1.0, 4.0))
        got = _assert_same_obstruction(
            _simulator(), placed, ANTENNA.position, Vec3(0.0, 1.0, 4.0)
        )
        assert got == (0.0, True)

    @pytest.mark.parametrize(
        "centre",
        [
            Vec3(0.0, 1.0, 5.5),  # beyond the reflection range
            Vec3(0.6, 1.0, 4.5),  # too far off the ray
            Vec3(1.0, 1.0, 1.0),  # in front of the tag
        ],
    )
    def test_reflector_that_does_not_help(self, centre):
        torso = Occluder(centre, 0.2, BODY, reflective=True)
        got = _assert_same_obstruction(
            _simulator(), _placed([torso]), ANTENNA.position, Vec3(0.0, 1.0, 4.0)
        )
        assert got == (0.0, False)

    def test_obstruction_cap(self):
        boxes = [Occluder(Vec3(0.0, 1.0, z), 0.2, METAL) for z in (1.0, 2.0, 3.0)]
        total, _ = _assert_same_obstruction(
            _simulator(), _placed(boxes), ANTENNA.position, Vec3(0.0, 1.0, 4.0)
        )
        assert total == SimulationParameters().obstruction_cap_db

    @pytest.mark.parametrize("offset", [0.0, 5e-10])
    def test_ray_shorter_than_a_nanometre(self, offset):
        tag_pos = Vec3(0.0, 1.0, offset)
        placed = _placed([Occluder(Vec3(0.0, 1.0, 0.0), 0.5, METAL)])
        got = _assert_same_obstruction(
            _simulator(), placed, ANTENNA.position, tag_pos
        )
        assert got == (0.0, False)


def _axis(tag):
    """The tag's dipole axis components, as a compiled scene holds them."""
    axis = tag.world_dipole_axis()
    return (axis.x, axis.y, axis.z)


tag_designs = st.sampled_from(
    [None, TagDesign.SINGLE_DIPOLE, TagDesign.DUAL_DIPOLE, TagDesign.METAL_MOUNT]
)


class TestGeometryMiss:
    @EXAMPLES
    @given(
        envs,
        points,
        st.sampled_from(ALL_ORIENTATIONS),
        tag_designs,
        st.lists(occluders, max_size=4),
    )
    def test_geometry_terms(self, env, tag_pos, orientation, design, specs):
        assert {
            characteristics(d).orientation_insensitive
            for d in (TagDesign.DUAL_DIPOLE, TagDesign.METAL_MOUNT)
        } == {True, False}
        simulator = PortalPassSimulator(portal=single_antenna_portal(), env=env)
        tag = Tag("0" * 24, orientation=orientation, design=design)
        placed = _placed(
            [_along_ray(ANTENNA.position, tag_pos, s) for s in specs]
        )
        try:
            expected = oracle_geometry_terms(
                simulator, placed, ANTENNA, tag, tag_pos
            )
        except ValueError:
            with pytest.raises(ValueError):
                simulator._geometry_terms(
                    placed, ANTENNA, tag, (tag_pos.x, tag_pos.y, tag_pos.z),
                    _axis(tag),
                )
            return
        got = simulator._geometry_terms(
            placed, ANTENNA, tag, (tag_pos.x, tag_pos.y, tag_pos.z),
            _axis(tag),
        )
        assert got == expected

    @pytest.mark.parametrize("design", [None, TagDesign.DUAL_DIPOLE, TagDesign.METAL_MOUNT])
    def test_dipole_pointing_at_the_antenna(self, design):
        simulator = _simulator()
        tag = Tag(
            "0" * 24, orientation=TagOrientation.CASE_1_AXIAL_EDGE, design=design
        )
        tag_pos = Vec3(0.0, 1.0, 2.5)
        got = simulator._geometry_terms(
            [], ANTENNA, tag, (0.0, 1.0, 2.5), _axis(tag)
        )
        assert got == oracle_geometry_terms(simulator, [], ANTENNA, tag, tag_pos)


# ---------------------------------------------------------------------------
# kernel trims: values taken once that the per-call forms derived each time


def oracle_path_gain_db(model, distance_m, tx_height_m, rx_height_m):
    """``PathLossModel.path_gain_db`` deriving its wavelength terms per call."""
    lam = wavelength(model.freq_hz)
    dh = tx_height_m - rx_height_m
    d_direct = math.sqrt(distance_m * distance_m + dh * dh)
    d_direct = max(d_direct, lam / 10.0)
    k = 2.0 * math.pi / lam
    excess_db = 0.0
    if d_direct > 1.0 and model.path_loss_exponent > 2.0:
        excess_db = (
            10.0 * (model.path_loss_exponent - 2.0) * math.log10(d_direct)
        )
    amp_direct = (lam / (4.0 * math.pi * d_direct))
    if not model.use_two_ray:
        return linear_to_db(amp_direct * amp_direct) - excess_db
    sh = tx_height_m + rx_height_m
    d_reflect = math.sqrt(distance_m * distance_m + sh * sh)
    d_reflect = max(d_reflect, lam / 10.0)
    amp_reflect = abs(model.ground_reflection_coeff) * (
        lam / (4.0 * math.pi * d_reflect)
    )
    phase = k * (d_reflect - d_direct)
    if model.ground_reflection_coeff < 0.0:
        phase += math.pi
    real = amp_direct + amp_reflect * math.cos(phase)
    imag = amp_reflect * math.sin(phase)
    power = real * real + imag * imag
    if power <= 0.0:
        power = 1e-30
    return linear_to_db(power) - excess_db


path_models = st.builds(
    PathLossModel,
    freq_hz=st.sampled_from([865.7e6, 915e6, 2.45e9]),
    use_two_ray=st.booleans(),
    ground_reflection_coeff=st.sampled_from([-0.7, -0.35, 0.0, 0.4]),
    path_loss_exponent=st.sampled_from([2.0, 2.1, 2.8]),
)
heights = st.floats(min_value=0.0, max_value=3.0)


class TestPathGainConstants:
    @EXAMPLES
    @given(path_models, st.floats(min_value=0.0, max_value=12.0), heights, heights)
    def test_matches_the_per_call_derivation(self, model, distance, h_tx, h_rx):
        assert model.path_gain_db(distance, h_tx, h_rx) == oracle_path_gain_db(
            model, distance, h_tx, h_rx
        )

    def test_short_range_floor_and_bad_frequency(self):
        model = PathLossModel()
        assert model.path_gain_db(0.0, 1.0, 1.0) == oracle_path_gain_db(
            model, 0.0, 1.0, 1.0
        )
        with pytest.raises(ValueError, match="frequency"):
            PathLossModel(freq_hz=0.0).path_gain_db(1.0)


class TestRicianScale:
    @EXAMPLES
    @given(
        st.sampled_from([7.0, 3.0, -40.0]),
        st.floats(min_value=-5.0, max_value=60.0),
        st.floats(min_value=-8.0, max_value=8.0),
        st.floats(min_value=-8.0, max_value=8.0),
    )
    def test_scale_gives_the_degraded_draw(self, k_factor_db, penalty, z1, z2):
        # The pass simulator's fading gain on a memoized scale.
        los, sigma = RicianFading(k_factor_db).scale(penalty)
        re = los + z1 * sigma
        im = z2 * sigma
        gain = re * re + im * im
        expected = RicianFading(k_factor_db - penalty).power_gain_from_normals(
            z1, z2
        )
        assert gain == expected
        assert gain == RicianFading(k_factor_db).degraded(
            penalty
        ).power_gain_from_normals(z1, z2)

    def test_no_penalty_is_the_channel_itself(self):
        fading = RicianFading()
        los, sigma = fading.scale(0.0)
        # Unit mean power: LOS power plus both scatter variances.
        assert los * los + 2.0 * sigma * sigma == pytest.approx(1.0)
        assert (los, sigma) == fading.degraded(0.0).scale(0.0)
