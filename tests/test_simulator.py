import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tangible_tracker.simulator import (
    CALIBRATION_IMAGES,
    MAX_SCENE_PIXELS,
    SceneSpec,
    _fill_disc,
    apply_projective,
    ball_geometry,
    circular_trajectory,
    depth_alignment,
    fill_convex_polygon,
    marker_plane_corners,
    render_scene,
    render_sequence,
    spec_from_dict,
)
from tests.test_imaging import full_warp_oracle


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
    expected = apply_projective(warped, marker_plane_corners(spec))
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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf is nan
@pytest.mark.parametrize("center, radius", [
    ((np.inf, 3.0), 5.0), ((-np.inf, 3.0), 5.0), ((np.nan, 3.0), 5.0),
    ((3.0, 3.0), np.inf), ((3.0, 3.0), np.nan), ((np.inf, np.inf), np.inf),
    ((2.5e300, 239.5), 50.0)])
def test_fill_disc_non_finite_or_far_centre_matches_the_full_frame_test(center, radius):
    assert np.array_equal(_fill_disc(20, 10, center, radius),
                          frozen_fill_disc(20, 10, center, radius))
