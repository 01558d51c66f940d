import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tangible_tracker.cli import main
from tangible_tracker.simulator import (
    CALIBRATION_IMAGES,
    MAX_SCENE_PIXELS,
    SCENE_FIELDS,
    SceneSpec,
    _fill_disc,
    apply_projective,
    ball_geometry,
    circular_trajectory,
    depth_alignment,
    fill_convex_polygon,
    marker_plane_corners,
    random_quadrangle_scene,
    render_scene,
    render_sequence,
    spec_from_dict,
)
from tests.test_imaging import full_warp_oracle
from tests.test_malformed_inputs import _reject_constant


def test_ball_at_zero_height_projects_to_footprint():
    spec = SceneSpec(ball_height_mm=0.0)
    _, _, truth = render_scene(spec)
    assert truth.ball_center_px == truth.ball_plane_px


def test_half_height_doubles_offset_from_principal_point():
    spec = SceneSpec(ball_plane_mm=(50.0, 0.0), ball_height_mm=300.0)
    a, b, _ = ball_geometry(spec)
    ox, oy = spec.principal_point
    assert a[0] - ox == pytest.approx(100.0)  # 2 px/mm marker scale
    assert b[0] - ox == pytest.approx(200.0)
    assert b[1] == pytest.approx(oy)


def test_render_is_deterministic():
    spec = SceneSpec(hue_jitter=4, depth_jitter=5, seed=123)
    rgb_a, depth_a, _ = render_scene(spec)
    rgb_b, depth_b, _ = render_scene(spec)
    assert (rgb_a.pixels == rgb_b.pixels).all()
    assert (depth_a.pixels == depth_b.pixels).all()


def test_truth_corners_are_exact_homography_images():
    warped = np.array([[2.1, 0.2, 300.0], [-0.1, 1.9, 250.0],
                       [2e-5, -1e-5, 1.0]])
    spec = SceneSpec(marker_to_image=warped)
    _, _, truth = render_scene(spec)
    expected = apply_projective(warped, marker_plane_corners())
    assert (truth.marker_corners_px == expected).all()


def test_noise_free_truth_identical_across_seeds():
    a = render_scene(SceneSpec(seed=1))
    b = render_scene(SceneSpec(seed=2))
    assert a[2].ball_center_px == b[2].ball_center_px
    assert (a[0].pixels == b[0].pixels).all()
    assert (a[1].pixels == b[1].pixels).all()


def test_depth_frame_offset_round_trips_through_alignment():
    spec = SceneSpec(depth_frame_offset=(6, 3))
    _, depth, _ = render_scene(spec)
    aligned = full_warp_oracle(depth, depth_alignment(spec)).pixels
    reference = render_scene(dataclasses.replace(spec, depth_frame_offset=(0, 0)))[1].pixels
    h, w = reference.shape
    # pixels left of x=6 / above y=3 were never seen by the depth camera
    interior = (slice(3, h), slice(6, w))
    assert (aligned[interior] == reference[interior]).all()
    assert (aligned[:3, :] == 0).all() and (aligned[:, :6] == 0).all()


def test_shadow_region_present_and_zero():
    spec = SceneSpec(depth_frame_offset=(0, 0))
    _, depth, truth = render_scene(spec)
    bx, by = truth.ball_center_px
    assert (depth.pixels == 0).any()
    zero_ys, zero_xs = np.nonzero(depth.pixels == 0)
    # shadow sits along the configured baseline, right of the ball
    assert zero_xs.mean() > bx
    assert abs(zero_ys.mean() - by) < 20


def test_sequence_files_and_truth(tmp_path):
    spec = SceneSpec(seed=5)
    trajectory = [(0.0, 0.0, 50.0), (10.0, 5.0, 80.0), (-20.0, 8.0, 120.0)]
    render_sequence(spec, trajectory, tmp_path)
    for name in CALIBRATION_IMAGES:
        assert (tmp_path / name).exists(), name
    assert CALIBRATION_IMAGES == ("background.ppm", "with_marker.ppm",
                                  "with_pointer.ppm")
    assert sorted(p.name for p in tmp_path.glob("*.pgm")) == [
        f"depth_{i:04d}.pgm" for i in range(3)]
    for i in range(3):
        assert (tmp_path / f"rgb_{i:04d}.ppm").exists()
        assert (tmp_path / f"depth_{i:04d}.pgm").exists()
    truth = json.loads((tmp_path / "truth.json").read_text())
    assert set(truth) == {"h_mm", "principal_point", "rho_z", "t_rv", "frames"}
    assert len(truth["t_rv"]) == 9
    assert len(truth["frames"]) == 3
    frame = truth["frames"][1]
    assert set(frame) == {"idx", "marker_corners", "ball_px", "ball_plane_px",
                          "ball_real", "virtual"}
    assert frame["ball_real"] == [10.0, 5.0, 80.0]


# sha256 of every file two rigs write with no random draw (jitter 0): the
# geometry of perfbench's track-vga, and that of its track-hd-miss with one
# ball out of view. A refactor of the renderer keeps these bytes.
RIG_DIGESTS = {
    "vga": {
        "background.ppm": "309f8ba249c7df1e6843da61006925084043469e4de3d5e132a56fd0a72a66f4",
        "depth_0000.pgm": "87db617c993eda24e07e63a7bb1fe6b54bc3354634ffa2b48ae151336cc6e1ba",
        "depth_0001.pgm": "01bfddbbf5220084b94ce52193ccb59d4b5c38d02de081ccac064fba40b2c2f6",
        "rgb_0000.ppm": "3ce4e7595c1b7b0aeb265433b26e7424c284c1c695d5674a4d807ebbc2c61c21",
        "rgb_0001.ppm": "a49c794aeedea30de9254f3d3d51c8e95d57021cd2bc246a47bed7c094771b55",
        "truth.json": "ef81983431c5470525bece5d21e6c373fb359cef489dadb104613a668be51b50",
        "with_marker.ppm": "9ba9d588b273345ff0d8579dd49e2cdfd6a550924e26b59d0b75231923552813",
        "with_pointer.ppm": "2862b51bd2a1d6682a743cd335a5f6d1fb3ce5bef36d0d4403be70f8c3810cb7",
    },
    "hd-miss": {
        "background.ppm": "f83eb0c3f6a9157915300159dad3c73b8fe67c3cd29c5c23dc53add21a28f7e9",
        "depth_0000.pgm": "12f6bd982f1ced5f5af38abd189144a8db05b13d9c8d3edce1a32ac72bfeb74b",
        "depth_0001.pgm": "73da90727c88ad2805613bcc91b2def66308c89c94fea005fb3275618c83368c",
        "depth_0002.pgm": "ea1e90ab9c9922091530444368f323cb2cbb62afca41719e90e73fd83c6a5238",
        "rgb_0000.ppm": "5828e58ed0eb09f6b4b27c9a6547a28730a1a90e4092630f61d1b1a8ae109c40",
        "rgb_0001.ppm": "0d064ecfdfe89c9e28eeca0fa7684beb8647a28a2bc0cefd1d346a240a82af59",
        "rgb_0002.ppm": "7618471269108e61611394160fad1445936a5f8bf5ec194a6ec0c4b5bb9d5b74",
        "truth.json": "a323e6b34a1b561fd3a251249c62e6210f0d678af86ebb0c611a662c70afcf77",
        "with_marker.ppm": "7618471269108e61611394160fad1445936a5f8bf5ec194a6ec0c4b5bb9d5b74",
        "with_pointer.ppm": "f2da3f0b301f610e6a6b28d09627c37ca85505f646e66f310fcd07427a1de739",
    },
}


def rig_scene(rig):
    """The spec and ball path of one of RIG_DIGESTS' rigs."""
    if rig == "vga":
        return SceneSpec(depth_frame_offset=(4, 2)), circular_trajectory(2)
    spec = SceneSpec(width=1280, height=720, ball_hue=2, depth_frame_offset=(0, 0))
    return spec, [*circular_trajectory(2), (1200.0, 900.0, 120.0)]


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("rig", RIG_DIGESTS)
def test_rig_renders_keep_their_bytes(tmp_path, rig):
    render_sequence(*rig_scene(rig), tmp_path)
    assert {p.name: sha256_hex(p.read_bytes())
            for p in tmp_path.iterdir()} == RIG_DIGESTS[rig]


# sha256 of what calibrate and track make of each rig above: the profile
# file, calibrate's stdout but its last line (which names the profile's
# path), and track's stdout. A refactor of either command keeps these bytes.
RECORD_DIGESTS = {
    "vga": {
        "profile": "6d51eb76c8502403ba9577b1f31096bcb32f6139f799edf88deafdc040e67b9b",
        "calibrate": "258c6943530365b641edee840613d9f964ca92d5d1e8b12c2b7177bedf92540d",
        "track": "4682cb479d70766dccdedd60d21589e2471044286fbea41ba2d1767a4bb01cc0",
    },
    "hd-miss": {
        "profile": "511e89ca36dff05bf442a4165f59cdc3035ad78e5b22500ffecef185c0622371",
        "calibrate": "2e4e1ffa062d4db7a17e9bdf94dca21c8d5e609df7e3376b79dc6e872cc5e8a3",
        "track": "31b6cfd08d7ad805e66eeb29e3595f74f6ebe235cb86cfb22aceb7cca2948a73",
    },
}


def numbers_arg(values) -> str:
    """A comma-separated option value, each number as perfbench writes it."""
    return ",".join(repr(float(v)) for v in np.ravel(values))


@pytest.mark.parametrize("rig", RECORD_DIGESTS)
def test_rig_records_keep_their_bytes(tmp_path, capsys, rig):
    spec, trajectory = rig_scene(rig)
    frames, profile = tmp_path / "frames", tmp_path / "profile.json"
    render_sequence(spec, trajectory, frames)
    assert main(["calibrate", "--background", str(frames / "background.ppm"),
                 "--with-marker", str(frames / "with_marker.ppm"),
                 "--with-pointer", str(frames / "with_pointer.ppm"),
                 "--depth-to-rgb", numbers_arg(depth_alignment(spec).matrix),
                 "--camera-height", numbers_arg(spec.camera_height_mm),
                 "--principal-point", numbers_arg(spec.principal_point),
                 "--rho-z", numbers_arg(spec.rho_z),
                 "--raw-to-mm", numbers_arg(spec.raw_to_mm),
                 "--out", str(profile)]) == 0
    calibrate_out = capsys.readouterr().out
    assert calibrate_out.endswith(f"profile written to {profile}\n")
    assert main(["track", "--calib", str(profile), "--frames", str(frames)]) == 0
    assert {"profile": sha256_hex(profile.read_bytes()),
            "calibrate": sha256_hex(calibrate_out.rpartition("profile written")[0].encode()),
            "track": sha256_hex(capsys.readouterr().out.encode())} == RECORD_DIGESTS[rig]


def test_sequence_empty_trajectory(tmp_path):
    render_sequence(SceneSpec(), [], tmp_path)
    truth = json.loads((tmp_path / "truth.json").read_text())
    assert truth["frames"] == []
    for name in CALIBRATION_IMAGES:
        assert (tmp_path / name).exists()


def test_sequence_rejects_heights_at_or_above_camera(tmp_path):
    out = tmp_path / "seq"
    with pytest.raises(ValueError):
        render_sequence(SceneSpec(), [(0.0, 0.0, 600.0)], out)
    assert not out.exists()


def test_circular_trajectory_on_commanded_circle():
    points = circular_trajectory(100, radius_mm=60.0, height_mm=120.0,
                                 height_amp_mm=40.0)
    assert len(points) == 100
    for x, y, h in points:
        assert math.hypot(x, y) == pytest.approx(60.0)
        assert 80.0 - 1e-9 <= h <= 160.0 + 1e-9


def test_spec_dict_round_trip():
    spec = SceneSpec(width=320, height=240, ball_hue=100, hue_jitter=2, seed=9)
    names = [f.name for f in dataclasses.fields(SceneSpec)]
    doc = {name: getattr(spec, name) for name in names}
    doc["marker_to_image"] = doc["marker_to_image"].ravel().tolist()
    clone = spec_from_dict(json.loads(json.dumps(doc)))
    for name in names:
        assert np.array_equal(getattr(clone, name), getattr(spec, name)), name
    with pytest.raises(ValueError):
        spec_from_dict({"no_such_field": 1})


def test_spec_validation():
    with pytest.raises(ValueError):
        SceneSpec(ball_height_mm=700.0)
    with pytest.raises(ValueError):
        SceneSpec(ball_radius_mm=0.0)
    with pytest.raises(ValueError):
        SceneSpec(marker_to_image=np.zeros((3, 3)))


def test_spec_pixel_budget():
    # building a spec allocates no raster, so the budget's edge is cheap
    assert SceneSpec(width=3840, height=2160).width == 3840
    assert SceneSpec(width=MAX_SCENE_PIXELS // 16, height=16).height == 16
    for width, height in ((3841, 2160), (3840, 2161), (MAX_SCENE_PIXELS // 16 + 1, 16)):
        with pytest.raises(ValueError, match="budget"):
            SceneSpec(width=width, height=height)


def test_polygon_fill_is_boundary_inclusive():
    mask = fill_convex_polygon(10, 10, [(2.0, 2.0), (2.0, 7.0),
                                        (7.0, 7.0), (7.0, 2.0)])
    assert mask.bits[2, 2] and mask.bits[7, 7]
    assert not mask.bits[1, 2] and not mask.bits[8, 7]
    assert mask.area == 36


def frozen_fill_disc(width, height, center, radius):
    """The disc test over every pixel of the frame, frozen."""
    xs = np.arange(width, dtype=np.float64)[None, :]
    ys = np.arange(height, dtype=np.float64)[:, None]
    return (xs - center[0]) ** 2 + (ys - center[1]) ** 2 <= radius * radius


# centres on, near and far off a frame of up to 40x40 pixels, on the pixel
# grid, half way between pixels or anywhere, and radii from a sliver to
# twice the frame
@settings(max_examples=400, deadline=None)
@given(size=st.tuples(st.integers(1, 40), st.integers(1, 40)),
       center=st.tuples(st.floats(-120, 120), st.floats(-120, 120)),
       snap=st.sampled_from([0, 1, 2]),
       radius=st.floats(0.01, 80))
@example(size=(20, 10), center=(-3.5, 4.0), snap=0, radius=2.5)
@example(size=(20, 10), center=(22.0, 11.0), snap=0, radius=2.0)
def test_fill_disc_matches_the_full_frame_test(size, center, snap, radius):
    if snap:
        center = tuple(round(c * snap) / snap for c in center)
    assert np.array_equal(_fill_disc(*size, center, radius),
                          frozen_fill_disc(*size, center, radius))


# centres and radii at magnitudes a scene inside the domain reaches, about
# 1e27 px for a ball just below the camera
@pytest.mark.parametrize("center, radius", [
    ((1e27, 3.0), 5.0), ((-1e27, 3.0), 5.0), ((3.0, -1e27), 5.0),
    ((3.0, 3.0), 1e27), ((1e27, 3.0), 1e27), ((-1e27, -1e27), 1e27),
    ((1e27, 239.5), 50.0)])
def test_fill_disc_non_finite_or_far_centre_matches_the_full_frame_test(center, radius):
    assert np.array_equal(_fill_disc(20, 10, center, radius),
                          frozen_fill_disc(20, 10, center, radius))


# the scene file's table has one row per SceneSpec field, in field order,
# so a field added without a row fails here
def test_scene_fields_are_the_spec_fields_in_order():
    assert list(SCENE_FIELDS) == [field.name for field in dataclasses.fields(SceneSpec)]


# fields a bound needs beside it: a camera low enough for the smallest raw
# scale or height, and one high enough for the tallest ball
COMPANIONS = {("camera_height_mm", 1.0): {"ball_height_mm": 0.0},
              ("raw_to_mm", 1e-4): {"camera_height_mm": 1.0, "ball_height_mm": 0.0},
              ("ball_height_mm", 1e4): {"camera_height_mm": 1e4}}


def domain_value(name, value):
    """``value`` as scene field ``name`` takes it: every entry of a tuple."""
    default = getattr(SceneSpec(), name)
    return tuple([value] * len(default)) if isinstance(default, tuple) else value


def past(bound, direction):
    """The value just past ``bound``: the next integer or float."""
    if isinstance(bound, int):
        return bound + direction
    return math.nextafter(bound, direction * math.inf)


# each finite bound of each domain row renders a 32x32 sequence without a
# warning and writes strict-JSON truth; the ball stands on the spec's own
# plane point and height, and the tallest ball just below a camera at the
# top of its row, as the rule across the two fields asks
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, bound", [
    (name, bound) for name, (_, _, lo, hi) in SCENE_FIELDS.items() if lo is not None
    for bound in (lo, hi) if bound != math.inf])
def test_each_domain_bound_renders(tmp_path, name, bound):
    value = math.nextafter(bound, 0) if (name, bound) == ("ball_height_mm", 1e4) else bound
    doc = {"width": 32, "height": 32, **COMPANIONS.get((name, bound), {}),
           name: domain_value(name, value)}
    spec = SceneSpec(**doc)
    render_sequence(spec, [(*spec.ball_plane_mm, spec.ball_height_mm)], tmp_path)
    truth = json.loads((tmp_path / "truth.json").read_text(), parse_constant=_reject_constant)
    assert len(truth["frames"]) == 1


# the value just past each finite bound of each domain row exits 5, naming
# the field and its row, and writes nothing
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, bound, direction", [
    (name, bound, direction) for name, (_, _, lo, hi) in SCENE_FIELDS.items() if lo is not None
    for bound, direction in ((lo, -1), (hi, 1)) if bound != math.inf])
def test_just_past_each_domain_bound_exits_5(tmp_path, capsys, name, bound, direction):
    _, _, lo, hi = SCENE_FIELDS[name]
    value = domain_value(name, past(bound, direction))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"width": 32, "height": 32, name: value}))
    out = tmp_path / "seq"
    rc = main(["simulate", "--out", str(out), "--frames", "1", "--spec", str(spec)])
    assert rc == 5
    assert capsys.readouterr().err == \
        f"Validation: scene field {name} must lie in {lo:g}..{hi:g}, got {value!r}\n"
    assert not out.exists()


def marker_map(*entries, **fields):
    """SceneSpec fields with a row-major marker_to_image of ``entries``."""
    return {"marker_to_image": np.array(entries, dtype=float), **fields}


# a marker map inside each of its rules renders; one just outside is
# refused, naming the field: m33, the entries, the area scale at the
# centre, w at the marker's corners and at the ball's plane point, and the
# horizon
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("inside, outside", [
    (marker_map(2, 0, 320, 0, 2, 240, 0, 0, 1),
     marker_map(2, 0, 320, 0, 2, 240, 0, 0, math.nextafter(1, 2))),
    (marker_map(1, 1e6, 320, 0, 1, 240, 0, 0, 1),
     marker_map(1, math.nextafter(1e6, 2e6), 320, 0, 1, 240, 0, 0, 1)),
    (marker_map(1e-4, 0, 320, 0, 1, 240, 0, 0, 1),
     marker_map(math.nextafter(1e-4, 0), 0, 320, 0, 1, 240, 0, 0, 1)),
    (marker_map(1e4, 0, 320, 0, 1, 240, 0, 0, 1),
     marker_map(math.nextafter(1e4, 2e4), 0, 320, 0, 1, 240, 0, 0, 1)),
    (marker_map(2, 0, 16, 0, 2, 16, 0.015, 0, 1, width=32, height=32),
     marker_map(2, 0, 16, 0, 2, 16, 0.0151, 0, 1, width=32, height=32)),
    (marker_map(2, 0, 320, 0, 2, 240, 0, 1e-4, 1, ball_plane_mm=(0.0, -7.5e3)),
     marker_map(2, 0, 320, 0, 2, 240, 0, 1e-4, 1, ball_plane_mm=(0.0, -1e4))),
    (marker_map(0.5, 0, 320, 0, 0.5, 240, 0.0005, 0, 1),
     marker_map(0.5, 0, 320, 0, 0.5, 240, 0.0015, 0, 1)),
], ids=["m33", "entry", "least-scale", "largest-scale", "marker-w", "ball-w", "horizon"])
def test_marker_map_rules(inside, outside):
    _, _, truth = render_scene(SceneSpec(**inside))
    assert np.isfinite(truth.marker_corners_px).all()
    with pytest.raises(ValueError, match="^scene field marker_to_image must "):
        SceneSpec(**outside)


def strictly_convex(corners) -> bool:
    """Every turn of the closed polygon is of one sign, and none is 0."""
    u = np.roll(corners, -1, axis=0) - corners
    w = np.roll(corners, -2, axis=0) - corners
    turns = u[:, 0] * w[:, 1] - u[:, 1] * w[:, 0]
    return bool((turns > 0).all() or (turns < 0).all())


# the w and area rules alone make the marker's image strictly convex: a
# map of any scale, rotation, shear, reflection and perspective that the
# spec accepts takes the marker's corners to convex position
@settings(max_examples=300, deadline=None)
@given(log_scale=st.floats(-2.2, 2.2), theta=st.floats(-math.pi, math.pi),
       shear=st.floats(-3.0, 3.0), flip=st.sampled_from([1.0, -1.0]),
       log_perspective=st.tuples(st.floats(-6.0, -1.5), st.floats(-6.0, -1.5)),
       perspective_signs=st.tuples(st.sampled_from([1.0, -1.0]),
                                   st.sampled_from([1.0, -1.0])))
def test_every_accepted_marker_map_keeps_the_marker_convex(
        log_scale, theta, shear, flip, log_perspective, perspective_signs):
    c, s = math.cos(theta), math.sin(theta)
    linear = 10 ** log_scale * np.array([[c, -s], [s, c]]) @ np.array([[flip, shear],
                                                                      [0.0, 1.0]])
    perspective = np.multiply(perspective_signs, np.power(10.0, log_perspective))
    m = np.array([[*linear[0], 319.5], [*linear[1], 239.5], [*perspective, 1.0]])
    try:
        spec = SceneSpec(marker_to_image=m)
    except ValueError:
        return
    assert strictly_convex(apply_projective(spec.marker_to_image, marker_plane_corners()))


# sha256 over random_quadrangle_scene's draws on a grid of sizes and seeds,
# five draws from one generator per seed as run_benchmark draws them: the
# corners, the mask's packed bits or the refusal, and the generator's state
# after the draws. 300x40 holds no usable quadrangle, so it pins refusals.
def test_quadrangle_sampler_keeps_its_draws():
    digest = hashlib.sha256()
    for width, height in ((80, 80), (160, 120), (640, 480), (1280, 720), (300, 40)):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            for _ in range(5):
                try:
                    mask, corners = random_quadrangle_scene(width, height, rng)
                except ValueError as exc:
                    digest.update(str(exc).encode())
                else:
                    digest.update(corners.tobytes())
                    digest.update(np.packbits(mask.bits).tobytes())
            digest.update(rng.bytes(8))
    assert digest.hexdigest() == \
        "0593750b829d96a399f07ee5fd0778aac576236c17a7dfbf18f0560ae28367aa"


# every quadrangle the sampler returns, at any size in its range, is
# strictly convex, keeps every angle in 35..145 degrees and every edge at
# 40 px or more, and stays 8 px inside the frame; a size that holds none
# is refused by name
@settings(max_examples=150, deadline=None)
@given(width=st.integers(16, 3840), height=st.integers(16, 2160),
       seed=st.integers(0, 2 ** 32 - 1))
def test_sampled_quadrangles_keep_their_shape(width, height, seed):
    try:
        _, corners = random_quadrangle_scene(width, height, np.random.default_rng(seed))
    except ValueError as exc:
        assert str(exc) == f"no usable quadrangle fits in {width}x{height}"
        return
    assert strictly_convex(corners)
    prev, nxt = np.roll(corners, 1, axis=0) - corners, np.roll(corners, -1, axis=0) - corners
    assert (np.hypot(*nxt.T) >= 40).all()
    angles = np.degrees(np.arccos((prev * nxt).sum(axis=1)
                                  / (np.hypot(*prev.T) * np.hypot(*nxt.T))))
    assert ((35 <= angles) & (angles <= 145)).all()
    assert (corners >= 8).all()
    assert (corners <= (width - 9, height - 9)).all()
