import dataclasses
import itertools
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tangible_tracker.color_calibration import HueBounds
from tangible_tracker.errors import (
    DegenerateError,
    EmptyMaskError,
    ResidualTooHighError,
)
from tangible_tracker.imaging import AffineTransform
from tangible_tracker.registration import (
    CORNER_TARGETS,
    CalibrationProfile,
    VirtualMarker,
    apply_homography,
    calibrate_scene,
    check_principal_point,
    estimate_homography,
    load_profile,
    mean_reprojection_error,
    order_corners,
    save_profile,
)
from tangible_tracker.simulator import (
    MARKER_SIZE_MM,
    SceneSpec,
    depth_alignment,
    scene_truth,
)
from tests.conftest import calibrate_spec, render_calibration_trio


# -------------------------------------------------------------- order_corners

RECT = [(220.0, 90.0), (220.0, 390.0), (420.0, 390.0), (420.0, 90.0)]  # TL BL BR TR


def test_order_corners_rectangle_all_permutations():
    centroid = (320.0, 240.0)
    for perm in itertools.permutations(RECT):
        assert order_corners(perm, centroid) == tuple(RECT)


def test_order_corners_rotated_rectangle_keeps_cycle():
    import math
    phi = math.radians(10)
    c = np.array([320.0, 240.0])
    rot = [(float(x), float(y)) for x, y in
           (np.array(RECT) - c) @ np.array([[math.cos(phi), math.sin(phi)],
                                            [-math.sin(phi), math.cos(phi)]]) + c]
    got = order_corners(rot[::-1], (320.0, 240.0))
    assert got == tuple(rot)  # same cyclic order, start still nearest top-left


def test_order_corners_arity_and_duplicates():
    with pytest.raises(ValueError):
        order_corners(RECT[:3], (320.0, 240.0))
    with pytest.raises(ValueError):
        order_corners([RECT[0]] * 2 + RECT[2:], (320.0, 240.0))


def test_order_corners_centroid_outside():
    with pytest.raises(ValueError):
        order_corners(RECT, (10.0, 10.0))
    with pytest.raises(ValueError):
        order_corners(RECT, RECT[0])


# -------------------------------------------------------- estimate_homography

def random_homography(rng):
    while True:
        h = np.eye(3) + rng.uniform(-0.3, 0.3, size=(3, 3))
        h[2, 2] = 1.0
        h[2, :2] = rng.uniform(-1e-3, 1e-3, size=2)
        if abs(np.linalg.det(h)) > 1e-3:
            return h


def test_identity_fit():
    src = np.array([[0.0, 0.0], [10.0, 1.0], [3.0, 8.0], [12.0, 11.0]])
    h = estimate_homography(src, src)
    assert np.abs(h - np.eye(3)).max() < 1e-9


def test_recovers_known_homography():
    rng = np.random.default_rng(0)
    for _ in range(20):
        truth = random_homography(rng)
        src = rng.uniform(0, 100, size=(5, 2))
        dst = apply_homography(truth, src)
        fitted = estimate_homography(src, dst)
        assert np.abs(fitted - truth / truth[2, 2]).max() \
            < 1e-6 * max(1.0, np.abs(truth).max())


def test_collinear_sources_degenerate():
    src = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    dst = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(DegenerateError):
        estimate_homography(src, dst)


def test_similarity_invariance():
    rng = np.random.default_rng(1)
    truth = random_homography(rng)
    src = rng.uniform(0, 100, size=(6, 2))
    dst = apply_homography(truth, src)
    theta = 0.3
    s = 2.5
    sim = np.array([[s * np.cos(theta), -s * np.sin(theta), 4.0],
                    [s * np.sin(theta), s * np.cos(theta), -7.0],
                    [0.0, 0.0, 1.0]])
    direct = estimate_homography(apply_homography(sim, src), dst)
    composed = estimate_homography(src, dst) @ np.linalg.inv(sim)
    composed /= composed[2, 2]
    assert np.abs(direct - composed).max() < 1e-6


def test_residual_helper():
    src = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    h = np.eye(3)
    dst = src + np.array([[0.0, 0.1]])
    assert mean_reprojection_error(h, src, dst) == pytest.approx(0.1)


# ----------------------------------------------------------- apply_homography

ENTRY = st.floats(-1e3, 1e3, allow_nan=False)
COORD = st.floats(-1e4, 1e4, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(entries=st.lists(ENTRY, min_size=9, max_size=9), x=COORD, y=COORD)
def test_one_point_map_matches_scalar_expression_bitwise(entries, x, y):
    m = np.array(entries).reshape(3, 3)
    # reference: the projective map written out on scalars
    w = m[2, 0] * x + m[2, 1] * y + m[2, 2]
    assume(abs(w) >= 1e-12)
    xv = (m[0, 0] * x + m[0, 1] * y + m[0, 2]) / w
    yv = (m[1, 0] * x + m[1, 1] * y + m[1, 2]) / w
    got = apply_homography(m, [(x, y)])
    assert got.tobytes() == np.array([[xv, yv]]).tobytes()


def test_point_at_infinity_is_degenerate():
    m = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, -2.0]])
    with pytest.raises(DegenerateError):
        apply_homography(m, [(0.0, 0.0), (2.0, 5.0)])


# -------------------------------------------------------------- calibrate_scene

def test_identity_scene_yields_pure_scale_map():
    # axis-aligned marker sized to the virtual 2:3 aspect; the fitted map
    # should match the closed-form scale-and-shift within raster tolerance
    s, w, h = 12.0, 1300, 1900
    spec = SceneSpec(width=w, height=h, principal_point=(w // 2, h // 2),
                     marker_to_image=np.array([[s, 0.0, w // 2],
                                               [0.0, s, h // 2],
                                               [0.0, 0.0, 1.0]]))
    summary = calibrate_spec(spec)
    matrix = summary.profile.t_rv
    mw_px = MARKER_SIZE_MM[0] * s
    mh_px = MARKER_SIZE_MM[1] * s
    closed_form = np.array([[1.0 / mw_px, 0.0, -(w // 2) / mw_px],
                            [0.0, 1.5 / mh_px, -1.5 * (h // 2) / mh_px],
                            [0.0, 0.0, 1.0]])
    probes = np.array([[w // 2 - 600, h // 2 - 900], [w // 2 + 600, h // 2 + 900],
                       [w // 2, h // 2], [w // 2 + 300, h // 2 - 100]])
    got = apply_homography(matrix, probes)
    want = apply_homography(closed_form, probes)
    assert np.abs(got - want).max() < 1.5e-3


def test_fit_residual_small_on_mild_perspective_scene():
    warped = np.array([[2.0, 0.06, 320.0], [-0.05, 2.1, 242.0],
                       [1.5e-5, -1.2e-5, 1.0]])
    spec = SceneSpec(marker_to_image=warped)
    summary = calibrate_spec(spec)
    assert summary.fit_residual < 1e-2
    truth = scene_truth(spec)
    mapped = apply_homography(summary.profile.t_rv,
                              truth.marker_corners_px)
    assert np.abs(mapped - np.array(CORNER_TARGETS)).max() < 2e-2


def test_blank_marker_scene_propagates_empty_mask():
    spec = SceneSpec()
    background, _, with_pointer = render_calibration_trio(spec)
    with pytest.raises(EmptyMaskError):
        calibrate_scene(
            background, background, with_pointer,
            depth_to_rgb=depth_alignment(spec),
            camera_height_mm=spec.camera_height_mm,
            principal_point=spec.principal_point,
            rho_z=spec.rho_z,
        )


def test_residual_gate_fires_on_distorted_corners(monkeypatch):
    import tangible_tracker.registration as registration
    spec = SceneSpec()
    background, with_marker, with_pointer = render_calibration_trio(spec)
    real = registration.cminmax_corners

    def skewed(mask, params):
        result = real(mask, params)
        (x0, y0), *rest = result.corners
        bent = ((x0 + 60.0, y0 + 50.0),) + tuple(rest)
        return type(result)(bent, result.fallback_used)

    monkeypatch.setattr(registration, "cminmax_corners", skewed)
    with pytest.raises(ResidualTooHighError):
        calibrate_scene(
            background, with_marker, with_pointer,
            depth_to_rgb=depth_alignment(spec),
            camera_height_mm=spec.camera_height_mm,
            principal_point=spec.principal_point,
            rho_z=spec.rho_z,
        )


def test_principal_point_must_be_inside_image():
    spec = SceneSpec()
    background, with_marker, with_pointer = render_calibration_trio(spec)
    with pytest.raises(ValueError):
        calibrate_scene(
            background, with_marker, with_pointer,
            depth_to_rgb=depth_alignment(spec),
            camera_height_mm=spec.camera_height_mm,
            principal_point=(2000.0, 240.0),
            rho_z=spec.rho_z,
        )


def test_principal_point_check_bounds_and_message():
    for inside in [(0.0, 0.0), (639.5, 479.9), (0, 479)]:
        check_principal_point(inside, 640, 480)
    for outside in [(640.0, 10.0), (10.0, 480), (-0.5, 10.0), (10.0, -1e-9)]:
        with pytest.raises(ValueError) as err:
            check_principal_point(outside, 640, 480)
        assert f"({outside[0]}, {outside[1]})" in str(err.value)
        assert "640x480" in str(err.value)


# ------------------------------------------------------------------- profiles

def test_virtual_marker_constants():
    vm = VirtualMarker()
    assert vm.corners == ((-0.5, -0.75), (0.5, -0.75), (0.5, 0.75), (-0.5, 0.75))
    assert vm.centroid == (0.0, 0.0)
    assert set(CORNER_TARGETS) == set(vm.corners)


def test_homography_normalizes_h33(default_summary):
    m = np.array([[2.0, 0.0, 1.0], [0.0, 2.0, 0.0], [0.0, 0.0, 2.0]])
    profile = dataclasses.replace(default_summary.profile, t_rv=m)
    assert profile.t_rv[2, 2] == 1.0
    assert profile.t_rv[0, 0] == 1.0


def test_profile_refuses_a_t_rv_that_is_not_3x3(default_summary):
    with pytest.raises(ValueError, match=r"^t_rv must be a 3x3 matrix$"):
        dataclasses.replace(default_summary.profile, t_rv=np.eye(2))


def test_profile_round_trip_is_byte_identical(tmp_path, default_summary):
    path_a = tmp_path / "a.json"
    path_b = tmp_path / "b.json"
    save_profile(default_summary.profile, path_a)
    save_profile(load_profile(path_a), path_b)
    assert path_a.read_bytes() == path_b.read_bytes()


def test_profile_json_schema(tmp_path, default_summary):
    save_profile(default_summary.profile, tmp_path / "profile.json")
    doc = json.loads((tmp_path / "profile.json").read_text(encoding="utf-8"))
    assert list(doc) == ["depth_to_rgb", "hue_bounds", "t_rv", "rho_z",
                         "camera_height_mm", "principal_point", "raw_to_mm"]
    assert len(doc["depth_to_rgb"]) == 6
    assert len(doc["t_rv"]) == 9
    assert list(doc["hue_bounds"]) == ["lo", "hi"]
    clone = load_profile(tmp_path / "profile.json")
    assert isinstance(clone, CalibrationProfile)
    assert isinstance(clone.depth_to_rgb, AffineTransform)
    save_profile(clone, tmp_path / "clone.json")
    assert json.loads((tmp_path / "clone.json").read_text(encoding="utf-8")) == doc


# the whole text of one profile file: key order, indent, float reprs, integer
# hue bounds and the final newline; numpy and int values write as floats
GOLDEN_PROFILE = """\
{
  "depth_to_rgb": [
    1.02,
    0.0,
    4.5,
    -0.0,
    0.98,
    -2.25
  ],
  "hue_bounds": {
    "lo": 170,
    "hi": 10
  },
  "t_rv": [
    0.3333333333333333,
    0.0,
    -1.6,
    0.0,
    0.005,
    -1.2,
    1e-06,
    1e+16,
    1.0
  ],
  "rho_z": 0.002,
  "camera_height_mm": 600.0,
  "principal_point": [
    319.5,
    239.0
  ],
  "raw_to_mm": 1.0
}
"""


def test_profile_file_text_is_pinned(tmp_path):
    profile = CalibrationProfile(
        depth_to_rgb=AffineTransform(np.array([[1.02, 0.0, 4.5], [-0.0, 0.98, -2.25]])),
        hue_bounds=HueBounds(170, 10),
        t_rv=np.array([[1 / 3, 0.0, -1.6], [0.0, 0.005, -1.2], [1e-06, 1e16, 1.0]]),
        rho_z=0.002,
        camera_height_mm=600,
        principal_point=(np.float32(319.5), 239),
        raw_to_mm=np.float64(1),
    )
    save_profile(profile, tmp_path / "profile.json")
    assert (tmp_path / "profile.json").read_bytes() == GOLDEN_PROFILE.encode()


_FINITE = st.floats(-1e6, 1e6)
_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@settings(max_examples=150, deadline=None)
@given(affine=st.lists(_FINITE, min_size=6, max_size=6),
       lo=st.integers(0, 179), hi=st.integers(0, 179),
       # normalized as the profile stores it: h33 is 1, or 0 when it cannot be
       matrix=st.tuples(*[_FINITE] * 8, st.sampled_from([0.0, 1.0])),
       rho_z=_POSITIVE, height=_POSITIVE, raw_to_mm=_POSITIVE,
       principal=st.tuples(_FINITE, _FINITE))
# subnormal entries, whose numpy determinant warns as it returns 0
@example(affine=[-0.0, -1.0, 0.0, -5e-324, 3.0, 0.0], lo=5, hi=35,
         matrix=(1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0), rho_z=0.002,
         height=600.0, raw_to_mm=1.0, principal=(319.5, 239.5))
@example(affine=[1.0, 0.0, 4.0, 0.0, 1.0, 2.0], lo=5, hi=35,
         matrix=(0.0, 0.0, 1e6, 0.5, 1e-150, 1e-150, 2.2250738585072014e-308, -5e-324, 1.0),
         rho_z=0.002, height=600.0, raw_to_mm=1.0, principal=(319.5, 239.5))
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_profile_dict_round_trip_property(affine, lo, hi, matrix, rho_z,
                                          height, raw_to_mm, principal):
    try:
        profile = CalibrationProfile(
            depth_to_rgb=AffineTransform(np.reshape(affine, (2, 3))),
            hue_bounds=HueBounds(lo, hi),
            t_rv=np.reshape(matrix, (3, 3)),
            rho_z=rho_z,
            camera_height_mm=height,
            principal_point=principal,
            raw_to_mm=raw_to_mm,
        )
    except ValueError:  # a singular matrix
        assume(False)
    with tempfile.TemporaryDirectory() as work:
        save_profile(profile, Path(work, "a.json"))
        loaded = load_profile(Path(work, "a.json"))
        save_profile(loaded, Path(work, "b.json"))
        assert Path(work, "a.json").read_bytes() == Path(work, "b.json").read_bytes()
    assert np.array_equal(loaded.depth_to_rgb.matrix, profile.depth_to_rgb.matrix)
    assert loaded.hue_bounds == profile.hue_bounds
    assert np.array_equal(loaded.t_rv, profile.t_rv)
    assert (loaded.rho_z, loaded.camera_height_mm, loaded.raw_to_mm) == \
        (profile.rho_z, profile.camera_height_mm, profile.raw_to_mm)
    assert loaded.principal_point == tuple(profile.principal_point)
