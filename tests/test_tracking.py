import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage

from tangible_tracker import tracking
from tangible_tracker.errors import (
    DegenerateError,
    InvalidHeightError,
    NoDepthError,
    NonFiniteError,
    NoPointerError,
)
from tangible_tracker.color_calibration import HueBounds, hue_bounds_mask
from tangible_tracker.imaging import (
    DEPTH_SAMPLE,
    EIGHT_CONNECTED,
    AffineTransform,
    DepthImage,
    RgbImage,
    rgb_to_hsv,
)
from tangible_tracker.registration import apply_homography
from tangible_tracker.simulator import (
    SceneSpec,
    ball_geometry,
    render_scene,
)
from tangible_tracker.tracking import (
    MIN_POINTER_PIXELS,
    FramePair,
    _box_depth_samples,
    _filtered_depth_mm,
    correct_parallax,
    detect_pointer_2d,
    estimate_pointer_depth,
    frame_record,
    error_record,
    track_frame,
)
from tests.conftest import calibrate_spec
from tests.test_imaging import disc_bits, largest_label_oracle, solid_rgb, warp_cases

BOUNDS = HueBounds(5, 35)


def scene_frame(spec: SceneSpec):
    rgb, depth, truth = render_scene(spec)
    return FramePair(rgb, depth), truth


# ------------------------------------------------------------ detect_pointer_2d

def paint_disc(img: RgbImage, cx, cy, r, color) -> RgbImage:
    pixels = img.pixels.copy()
    pixels[disc_bits(img.height, img.width, cx, cy, r)] = color
    return RgbImage(pixels)


def test_detect_disc_center_and_bbox():
    img = paint_disc(solid_rgb(300, 400, (190, 190, 190)), 200, 150, 12,
                     (230, 180, 50))  # hue ~22
    center, bbox = detect_pointer_2d(img, BOUNDS)
    assert abs(center[0] - 200) <= 1 and abs(center[1] - 150) <= 1
    assert 24 <= bbox[2] <= 26 and 24 <= bbox[3] <= 26


def test_detect_no_pointer():
    with pytest.raises(NoPointerError):
        detect_pointer_2d(solid_rgb(60, 60, (190, 190, 190)), BOUNDS)


def test_detect_small_blob_rejected():
    img = paint_disc(solid_rgb(60, 60, (190, 190, 190)), 30, 30, 2, (230, 180, 50))
    with pytest.raises(NoPointerError):
        detect_pointer_2d(img, BOUNDS)


def test_detect_prefers_larger_blob():
    img = solid_rgb(200, 200, (190, 190, 190))
    img = paint_disc(img, 60, 60, 11, (230, 180, 50))    # ~380 px
    img = paint_disc(img, 150, 150, 5, (230, 180, 50))   # ~80 px
    center, bbox = detect_pointer_2d(img, BOUNDS)
    assert abs(center[0] - 60) <= 1 and abs(center[1] - 60) <= 1


def full_frame_detect_oracle(rgb: RgbImage, bounds: HueBounds):
    """``detect_pointer_2d`` as it was before the key and the labelling were
    narrowed: reference HSV and predicate, then labels over the whole frame."""
    keep = hue_bounds_mask(rgb_to_hsv(rgb), bounds)
    if not keep.bits.any():
        raise NoPointerError("no pixels inside the color bounds")
    labels, _ = ndimage.label(keep.bits, structure=EIGHT_CONNECTED)
    winner, area = largest_label_oracle(labels)
    if area < MIN_POINTER_PIXELS:
        raise NoPointerError("largest in-bounds blob too small")
    ys, xs = np.nonzero(labels == winner)
    x0 = int(xs.min())
    y0 = int(ys.min())
    w = int(xs.max()) - x0 + 1
    h = int(ys.max()) - y0 + 1
    center = (x0 + (w - 1) / 2.0, y0 + (h - 1) / 2.0)
    return center, (x0, y0, w, h)


KEYED = [(230, 180, 50), (200, 120, 40), (235, 60, 60)]  # hues 22, 15, 0
UNKEYED = [
    (190, 190, 190),  # gray
    (50, 100, 230),   # blue, outside every bounds below
    (200, 190, 170),  # hue 20 but saturation 38, under the floor
    (30, 24, 7),      # hue 22 but value 30, under the floor
]
KEY = KEYED[0]
DETECT_BOUNDS = [HueBounds(5, 35), HueBounds(170, 25)]


def paint_rects(height, width, background, rects) -> RgbImage:
    """Rectangles (y, x, h, w, color), clipped where they cross the border."""
    pixels = np.empty((height, width, 3), dtype=np.uint8)
    pixels[:] = background
    for y, x, h, w, color in rects:
        pixels[max(y, 0):y + h, max(x, 0):x + w] = color
    return RgbImage(pixels)


@st.composite
def blob_frames(draw):
    height = draw(st.integers(3, 40))
    width = draw(st.integers(3, 40))
    rects = []
    for _ in range(draw(st.integers(0, 5))):
        h = draw(st.integers(1, 8))
        w = draw(st.integers(1, 8))
        color = draw(st.sampled_from(KEYED + KEYED + UNKEYED))
        for _ in range(draw(st.integers(1, 3))):  # same-size copies tie on area
            rects.append((draw(st.integers(1 - h, height - 1)),
                          draw(st.integers(1 - w, width - 1)), h, w, color))
    if draw(st.booleans()):
        # two equal keyed rectangles, side by side with a gap: an area tie
        h = draw(st.integers(1, min(height, 8)))
        w = draw(st.integers(1, min((width - 1) // 2, 8)))
        split = draw(st.integers(w, width - w - 1))
        y1 = draw(st.integers(0, height - h))
        y2 = draw(st.integers(0, height - h))
        rects.append((y1, draw(st.integers(0, split - w)), h, w, KEY))
        rects.append((y2, draw(st.integers(split + 1, width - w)), h, w, KEY))
    return height, width, draw(st.sampled_from(UNKEYED)), rects


@settings(max_examples=400, deadline=None)
@given(frame=blob_frames(), bounds=st.sampled_from(DETECT_BOUNDS))
@example(frame=(30, 30, UNKEYED[0], []), bounds=DETECT_BOUNDS[0])  # nothing keyed
@example(frame=(30, 30, UNKEYED[2], [(3, 3, 4, 4, UNKEYED[3])]),
         bounds=DETECT_BOUNDS[0])  # only floor near-misses
@example(frame=(30, 30, UNKEYED[0], [(2, 2, 4, 4, KEY), (20, 20, 3, 3, KEY)]),
         bounds=DETECT_BOUNDS[0])  # every blob under MIN_POINTER_PIXELS
@example(frame=(30, 30, UNKEYED[0], [(20, 3, 5, 5, KEY), (3, 20, 5, 5, KEY)]),
         bounds=DETECT_BOUNDS[0])  # equal areas: the earlier first pixel wins
@example(frame=(30, 30, UNKEYED[0], [(10, 22, 5, 5, KEY), (10, 3, 5, 5, KEY)]),
         bounds=DETECT_BOUNDS[1])  # equal areas starting on the same row
@example(frame=(20, 24, UNKEYED[1], [(-2, -3, 6, 7, KEY), (15, 19, 6, 6, KEY),
                                     (0, 18, 6, 6, KEYED[2]), (14, 0, 6, 5, KEY)]),
         bounds=DETECT_BOUNDS[1])  # blobs touching all four borders
def test_detect_matches_full_frame_oracle(frame, bounds):
    rgb = paint_rects(*frame)
    try:
        expected = full_frame_detect_oracle(rgb, bounds)
    except NoPointerError:
        with pytest.raises(NoPointerError):
            detect_pointer_2d(rgb, bounds)
    else:
        assert detect_pointer_2d(rgb, bounds) == expected


@st.composite
def one_blob_frames(draw):
    """A frame whose keyed pixels are one 8-connected blob over unkeyed
    clutter: a chain of keyed rectangles, each covering an in-frame pixel
    of the last, so the blob can be any union of up to four rectangles
    (an L or a U among them) and may cross the frame's borders."""
    height = draw(st.integers(3, 40))
    width = draw(st.integers(3, 40))
    rects = [(draw(st.integers(0, height - 1)), draw(st.integers(0, width - 1)),
              draw(st.integers(1, 8)), draw(st.integers(1, 8)),
              draw(st.sampled_from(UNKEYED)))
             for _ in range(draw(st.integers(0, 3)))]
    color = draw(st.sampled_from(KEYED[:2]))  # keyed by every DETECT_BOUNDS
    y, x = draw(st.integers(0, height - 1)), draw(st.integers(0, width - 1))
    for _ in range(draw(st.integers(1, 4))):
        h, w = draw(st.integers(1, 14)), draw(st.integers(1, 14))
        top, left = y - draw(st.integers(0, h - 1)), x - draw(st.integers(0, w - 1))
        rects.append((top, left, h, w, color))
        y = draw(st.integers(max(top, 0), min(top + h, height) - 1))
        x = draw(st.integers(max(left, 0), min(left + w, width) - 1))
    return height, width, draw(st.sampled_from(UNKEYED)), rects


ONE_BLOB = (30, 40, UNKEYED[0], [(3, 5, 6, 7, KEY)])


# ``near`` is either any box, in or out of the frame, empty or negative, or
# the blob's own box moved by the drawn offsets, as a tracked ball moves
@settings(max_examples=400, deadline=None)
@given(frame=one_blob_frames(), bounds=st.sampled_from(DETECT_BOUNDS),
       near=st.tuples(st.integers(-60, 100), st.integers(-60, 100),
                      st.integers(-4, 60), st.integers(-4, 60)),
       around_the_blob=st.booleans())
@example(frame=ONE_BLOB, bounds=DETECT_BOUNDS[0], near=(1000, 600, 50, 50),
         around_the_blob=False)  # the window misses the frame
@example(frame=ONE_BLOB, bounds=DETECT_BOUNDS[0], near=(-200, 4, 50, 50),
         around_the_blob=False)  # wholly left of the frame
@example(frame=ONE_BLOB, bounds=DETECT_BOUNDS[0], near=(4, 4, 0, 9),
         around_the_blob=False)  # an empty box
@example(frame=ONE_BLOB, bounds=DETECT_BOUNDS[0], near=(4, 4, -3, 9),
         around_the_blob=False)  # a negative width
@example(frame=ONE_BLOB, bounds=DETECT_BOUNDS[0], near=(0, 0, 0, 0),
         around_the_blob=True)  # the blob's own box: the window holds it
@example(frame=(30, 40, UNKEYED[0], [(10, 2, 4, 36, KEY)]), bounds=DETECT_BOUNDS[1],
         near=(14, 10, 4, 4), around_the_blob=False)  # a bar crossing the window
@example(frame=(30, 40, UNKEYED[0], [(2, 2, 20, 4, KEY), (18, 2, 4, 30, KEY),
                                     (2, 28, 20, 4, KEY)]),
         bounds=DETECT_BOUNDS[0], near=(2, 12, 4, 4),
         around_the_blob=False)  # a U whose one arm the window holds
def test_detect_near_any_box_matches_the_whole_frame_on_one_blob(
        frame, bounds, near, around_the_blob):
    rgb = paint_rects(*frame)
    try:
        expected = detect_pointer_2d(rgb, bounds)
    except NoPointerError:
        with pytest.raises(NoPointerError):
            detect_pointer_2d(rgb, bounds, near)
        return
    if around_the_blob:
        x, y, w, h = expected[1]
        near = (x + near[0] // 8, y + near[1] // 8, w, h)
    assert detect_pointer_2d(rgb, bounds, near) == expected


def keyed_areas(monkeypatch):
    """The (height, width) of every image the key reads, in order."""
    areas = []
    real = tracking._keyed_indices

    def spy(rgb, bounds):
        areas.append((rgb.height, rgb.width))
        return real(rgb, bounds)

    monkeypatch.setattr(tracking, "_keyed_indices", spy)
    return areas


# an 8x8 ball, whole or cut by the frame's edges, and, away from it, a
# larger 10x10 blob of the same hue
@pytest.mark.parametrize("top, left", [(0, 0), (-2, -3), (52, 0), (0, 72), (55, 75)],
                         ids=["top-left", "cut-top-left", "bottom-left", "top-right",
                              "cut-bottom-right"])
def test_window_at_a_frame_edge_is_accepted(monkeypatch, top, left):
    rgb = paint_rects(60, 80, UNKEYED[0], [(top, left, 8, 8, KEY), (25, 35, 10, 10, KEY)])
    assert detect_pointer_2d(rgb, BOUNDS)[1] == (35, 25, 10, 10)
    x, y = max(left, 0), max(top, 0)
    ball = (x, y, min(left + 8, 80) - x, min(top + 8, 60) - y)
    areas = keyed_areas(monkeypatch)
    # the window is clipped at the frame edges the ball's box touches, and
    # its blob, touching them too, stands: the frame is not keyed whole
    assert detect_pointer_2d(rgb, BOUNDS, ball)[1] == ball
    assert len(areas) == 1 and areas[0] != (60, 80)


# near = (10, 10, 6, 6) makes the window x, y in 4..21
@pytest.mark.parametrize("rects, whole", [
    ([(10, 10, 6, 60, KEY)], (10, 10, 60, 6)),  # a bar leaving the window
    ([(12, 12, 3, 3, KEY), (30, 60, 6, 6, KEY)], (60, 30, 6, 6)),  # a 9 px speck
], ids=["cut-by-an-inner-edge", "below-the-pixel-floor"])
def test_window_blob_that_cannot_stand_falls_back_to_the_whole_frame(
        monkeypatch, rects, whole):
    rgb = paint_rects(40, 100, UNKEYED[0], rects)
    areas = keyed_areas(monkeypatch)
    assert detect_pointer_2d(rgb, BOUNDS, (10, 10, 6, 6)) == detect_pointer_2d(rgb, BOUNDS)
    assert detect_pointer_2d(rgb, BOUNDS)[1] == whole
    assert areas[:2] == [(18, 18), (40, 100)]  # the window, then the whole frame


# -------------------------------------------------------- estimate_pointer_depth

def two_pass_oracle(crop, raw_to_mm):
    """Literal restatement of the filter for small integer crops."""
    nonzero = [float(v) for row in crop for v in row if v > 0]
    if not nonzero:
        raise AssertionError("oracle needs nonzero samples")
    m1 = sum(nonzero) / len(nonzero)
    kept = [v for v in nonzero if v <= 1.10 * m1]
    m2 = sum(kept) / len(kept)
    return m2 * raw_to_mm


def test_depth_hand_computed_case():
    # 60 px at 1500 plus 40 px at 7500: mean 3900, cutoff 4290 drops the
    # background, second mean 1500
    crop = np.array([1500] * 60 + [7500] * 40, dtype=np.uint16).reshape(10, 10)
    depth = DepthImage(crop, raw_to_mm=1.0)
    assert estimate_pointer_depth(depth, (0, 0, 10, 10)) == 1500.0


def test_depth_uniform_crop_fixed_point():
    depth = DepthImage(np.full((8, 8), 2000, dtype=np.uint16), 1.0)
    assert estimate_pointer_depth(depth, (0, 0, 8, 8)) == 2000.0


def test_depth_all_shadow():
    depth = DepthImage(np.zeros((8, 8), dtype=np.uint16), 1.0)
    with pytest.raises(NoDepthError):
        estimate_pointer_depth(depth, (0, 0, 8, 8))


def test_depth_matches_oracle_exactly_on_random_crops():
    rng = np.random.default_rng(0)
    for _ in range(50):
        crop = rng.integers(0, 8000, size=(9, 13)).astype(np.uint16)
        crop[rng.random(crop.shape) < 0.2] = 0
        if not (crop > 0).any():
            crop[3, 3] = 1200
        depth = DepthImage(crop, raw_to_mm=1.25)
        got = estimate_pointer_depth(depth, (0, 0, 13, 9))
        assert got == two_pass_oracle(crop.tolist(), 1.25)


def test_depth_second_mean_never_exceeds_first():
    rng = np.random.default_rng(1)
    for _ in range(30):
        crop = rng.integers(1, 8000, size=(7, 7)).astype(np.uint16)
        depth = DepthImage(crop, raw_to_mm=1.0)
        m2 = estimate_pointer_depth(depth, (0, 0, 7, 7))
        assert m2 <= crop[crop > 0].mean() + 1e-9


# the smallest nonzero sample is at most the mean, so the filter keeps it:
# every crop with a return has a depth, and it lies within its samples
@given(arrays(np.uint16, st.tuples(st.integers(1, 12), st.integers(1, 12))),
       st.floats(0.01, 10.0))
@settings(max_examples=300, deadline=None)
@example(np.array([[1, 65535]], dtype=np.uint16), 1.0)
def test_depth_lies_within_the_nonzero_samples(pixels, raw_to_mm):
    nonzero = pixels[pixels > 0].astype(np.float64)
    if nonzero.size == 0:
        return
    depth = DepthImage(pixels, raw_to_mm)
    got = estimate_pointer_depth(depth, (0, 0, depth.width, depth.height))
    assert nonzero.min() * raw_to_mm <= got <= nonzero.max() * raw_to_mm


def native_box_depth(pixels: np.ndarray, t: AffineTransform, box, raw_to_mm: float):
    """The aligned box crop and its filtered depth (or the error class) as
    the box warp and estimate_pointer_depth computed them on native uint16
    pixels, before depth kept the file's byte order; frozen."""
    h, w = pixels.shape
    x, y, bw, bh = box
    if np.array_equal(t.matrix, np.eye(2, 3)):
        crop = pixels[y:y + bh, x:x + bw]
    else:
        inv = np.linalg.inv(t.matrix[:, :2])
        offset = t.matrix[:, 2]
        gx, gy = np.meshgrid(np.arange(x, x + bw, dtype=np.float64),
                             np.arange(y, y + bh, dtype=np.float64))
        dx = gx - offset[0]
        dy = gy - offset[1]
        sx = np.rint(inv[0, 0] * dx + inv[0, 1] * dy).astype(np.int64)
        sy = np.rint(inv[1, 0] * dx + inv[1, 1] * dy).astype(np.int64)
        ok = (sx >= 0) & (sx < w) & (sy >= 0) & (sy < h)
        crop = np.zeros((bh, bw), dtype=np.uint16)
        crop[ok] = pixels[sy[ok], sx[ok]]
    nonzero = crop[crop > 0].astype(np.float64)
    if nonzero.size == 0:
        return crop, NoDepthError
    first_mean = nonzero.mean()
    kept = nonzero[nonzero <= 1.10 * first_mean]
    return crop, float(kept.mean() * raw_to_mm)


@given(warp_cases(), st.booleans(), st.floats(0.0, 1.0),
       st.floats(0.01, 10.0), st.integers(1, 65535))
@settings(max_examples=300, deadline=None)
def test_box_depth_on_file_order_pixels_equals_the_native_path(
        case, identity, shadow, raw_to_mm, top):
    h, w, box, seed, t = case
    if identity:
        t = AffineTransform(np.eye(2, 3))
    rng = np.random.default_rng(seed)
    native = rng.integers(0, top + 1, size=(h, w), dtype=np.uint16)
    native[rng.random((h, w)) < shadow] = 0
    # the samples as read_depth views them: big-endian bytes of a file
    as_read = np.frombuffer(native.astype(">u2").tobytes(), dtype=">u2").reshape(h, w)
    want_crop, want = native_box_depth(native, t, box, raw_to_mm)

    samples = _box_depth_samples(DepthImage(as_read, raw_to_mm), t, box)
    assert samples.dtype == DEPTH_SAMPLE
    assert np.array_equal(samples[samples > 0], want_crop[want_crop > 0])
    try:
        got = _filtered_depth_mm(samples, raw_to_mm)
    except NoDepthError as exc:
        got = type(exc)
    assert got == want


@pytest.mark.parametrize("shear", [3.2e16, 1e300])
def test_box_depth_under_a_huge_shear_samples_the_one_row_in_frame(shear):
    # inv maps x to x - shear * (y - 2): beyond int64 on every row but y = 2,
    # and no such value may be cast, warn or land in the frame
    depth = DepthImage(np.arange(100, 164, dtype=np.uint16).reshape(8, 8))
    t = AffineTransform(np.array([[1.0, shear, 4.0], [0.0, 1.0, 2.0]]))
    samples = _box_depth_samples(depth, t, (5, 0, 3, 5))
    assert samples.tolist() == depth.pixels[0, 1:4].tolist()


def test_depth_bbox_bounds_checked():
    depth = DepthImage(np.full((8, 8), 100, dtype=np.uint16), 1.0)
    with pytest.raises(ValueError):
        estimate_pointer_depth(depth, (4, 4, 10, 2))


# ------------------------------------------------------------- correct_parallax

def test_parallax_zero_height_is_identity():
    assert correct_parallax((420.0, 250.0), (320.0, 240.0), 0.0, 600.0) \
        == (420.0, 250.0)


def test_parallax_midpoint_case():
    assert correct_parallax((420.0, 240.0), (320.0, 240.0), 300.0, 600.0) \
        == (370.0, 240.0)


def test_parallax_rejects_bad_heights():
    with pytest.raises(InvalidHeightError):
        correct_parallax((0.0, 0.0), (1.0, 1.0), 600.0, 600.0)
    with pytest.raises(InvalidHeightError):
        correct_parallax((0.0, 0.0), (1.0, 1.0), -5.0, 600.0)


@settings(max_examples=200, deadline=None)
@given(
    bx=st.floats(-500, 500), by=st.floats(-500, 500),
    ox=st.floats(-500, 500), oy=st.floats(-500, 500),
    ratio=st.floats(0.0, 0.999),
)
def test_parallax_point_stays_on_segment(bx, by, ox, oy, ratio):
    cam_h = 600.0
    ax, ay = correct_parallax((bx, by), (ox, oy), ratio * cam_h, cam_h)
    scale = 1.0 - ratio
    assert math.hypot(ax - ox, ay - oy) == pytest.approx(
        scale * math.hypot(bx - ox, by - oy), rel=1e-9, abs=1e-9)
    # collinearity of O, A, B
    cross = (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)
    assert abs(cross) <= 1e-6 * max(1.0, abs(bx - ox) * abs(by - oy))


def test_parallax_inverts_simulator_projection():
    spec = SceneSpec()
    for h_ratio in np.arange(0.0, 0.95, 0.1):
        for dx in (-180, -90, 0, 90, 180):
            for dy in (-120, 0, 120):
                sub = dataclasses.replace(
                    spec, ball_plane_mm=(dx / 2.0, dy / 2.0),
                    ball_height_mm=h_ratio * spec.camera_height_mm)
                a, b, _ = ball_geometry(sub)
                rec = correct_parallax(b, sub.principal_point,
                                       sub.ball_height_mm, sub.camera_height_mm)
                assert math.hypot(rec[0] - a[0], rec[1] - a[1]) < 1e-9


# ------------------------------------------------------------------ track_frame

@pytest.fixture(scope="module")
def profile(default_spec):
    return calibrate_spec(default_spec).profile


def test_track_frame_matches_truth(default_spec, profile):
    frame, truth = scene_frame(default_spec)
    fix = track_frame(frame, profile)
    assert math.hypot(fix.virtual[0] - truth.expected_virtual[0],
                      fix.virtual[1] - truth.expected_virtual[1]) < 0.02
    assert abs(fix.virtual[2] - truth.expected_virtual[2]) < 0.01 * 0.002 * 600 + 0.02
    assert abs(fix.real[2] - default_spec.ball_height_mm) < 10.0


def test_track_frame_plane_contact(default_spec, profile):
    spec = dataclasses.replace(default_spec, ball_height_mm=0.0)
    frame, _ = scene_frame(spec)
    fix = track_frame(frame, profile)
    assert fix.real[2] == 0.0
    assert fix.virtual[2] == 0.0
    assert fix.real[:2] == fix.pixel  # A equals B at zero height


def test_track_frame_empty_scene(default_spec, profile):
    rgb = solid_rgb(default_spec.height, default_spec.width, (190, 190, 190))
    depth = DepthImage(np.full((default_spec.height, default_spec.width), 600,
                               dtype=np.uint16), 1.0)
    with pytest.raises(NoPointerError):
        track_frame(FramePair(rgb, depth), profile)


def test_track_frame_height_clamp_and_error(default_spec, profile):
    rgb = paint_disc(solid_rgb(100, 100, (190, 190, 190)), 50, 50, 10,
                     (230, 180, 50))
    near = DepthImage(np.full((100, 100), 606, dtype=np.uint16), 1.0)  # 1% below
    fix = track_frame(FramePair(rgb, near), profile)
    assert fix.real[2] == 0.0
    far = DepthImage(np.full((100, 100), 650, dtype=np.uint16), 1.0)  # 8% below
    with pytest.raises(InvalidHeightError):
        track_frame(FramePair(rgb, far), profile)


def test_track_frame_plane_point_at_infinity(profile):
    rgb = paint_disc(solid_rgb(100, 100, (190, 190, 190)), 50, 50, 10,
                     (230, 180, 50))
    on_plane = DepthImage(np.full((100, 100), 600, dtype=np.uint16), 1.0)
    (px, _), _ = detect_pointer_2d(rgb, profile.hue_bounds)
    # at height 0 the plane point is the pixel itself, and this t_rv sends
    # the column x = px to infinity
    t_rv = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, -px]])
    with pytest.raises(DegenerateError):
        track_frame(FramePair(rgb, on_plane), dataclasses.replace(profile, t_rv=t_rv))


FINITE = st.floats(allow_nan=False, allow_infinity=False)
# |w| at the plane point that the third row is built to give: both sides
# of the 1e-12 edge, 0, and an ordinary value
W_TARGETS = st.sampled_from([0.0, 1e-13, -1e-13, 1e-12, -1e-12,
                             np.nextafter(1e-12, 0.0), np.nextafter(1e-12, 1.0), 0.5])


@st.composite
def planar_maps(draw):
    """(top two rows, how to build the third row, entries for it, a target
    for w, a nudge): finite 3x3 maps with h33 == 0, with the third row
    tuned to put w on either side of 1e-12 at the plane point,
    near-singular ones, and ones whose entries overflow the map."""
    entries = st.one_of(st.floats(-1e3, 1e3), FINITE,
                        st.sampled_from([1e306, -1e307, 1.7e308]))
    top = draw(st.lists(entries, min_size=6, max_size=6))
    third = draw(st.sampled_from(["free", "zero_h33", "tuned_w_h33_0", "tuned_w_h33_1",
                                  "near_singular"]))
    return top, third, draw(st.lists(entries, min_size=3, max_size=3)), \
        draw(W_TARGETS), draw(st.sampled_from([1e-300, 1e-15, 1e-9]))


@pytest.fixture(scope="module")
def raised_pointer(profile):
    """A frame whose pointer stands 150 mm over the plane, and its
    parallax-corrected plane point, which no planar map changes."""
    rgb = paint_disc(solid_rgb(100, 100, (190, 190, 190)), 37, 61, 10,
                     (230, 180, 50))
    frame = FramePair(rgb, DepthImage(np.full((100, 100), 450, dtype=np.uint16)))
    return frame, track_frame(frame, profile).real[:2]


@settings(max_examples=400, deadline=None)
@given(planar_maps())
@example(([1.0, 0.0, 0.0, 0.0, 1.0, 0.0], "zero_h33", [1.0, 0.0, 0.0], 0.0, 1e-9))
@example(([1e308, 0.0, 0.0, 0.0, 1e308, 0.0], "free", [0.0, 0.0, 1.0], 0.0, 1e-9))
@example(([1.0, 0.0, 0.0, 0.0, 1.0, 0.0], "tuned_w_h33_1", [0.0, 0.0, 0.0], 1e-12, 1e-9))
def test_track_frame_maps_the_plane_point_as_apply_homography(
        profile, raised_pointer, planar_map):
    # bit for bit the same virtual x and y, DegenerateError at exactly the
    # same points, and a NonFinite fix, never a warning, where the map
    # overflows
    frame, (x, y) = raised_pointer
    top, third, row, w_target, scale = planar_map
    if third == "zero_h33":
        row = [row[0], row[1], 0.0]
    elif third.startswith("tuned_w"):
        # h31 * x + h33 lands on or next to w_target; an h33 of 0 or 1 is
        # left as it is by the profile's division by h33
        h33 = float(third[-1])
        row = [(w_target - h33) / x, 0.0, h33]
    elif third == "near_singular":
        # a multiple of the first row, nudged
        row = [top[0] * 2.0 + scale, top[1] * 2.0, top[2] * 2.0 - scale]
    try:
        # an entry built above may be inf and dividing by a tiny h33 can
        # overflow: the profile refuses what is not finite, without a warning
        cal = dataclasses.replace(profile, t_rv=np.array(top + row).reshape(3, 3))
    except ValueError:
        assume(False)  # not finite after dividing by h33, or singular
    with np.errstate(all="ignore"):
        try:
            want = apply_homography(cal.t_rv, [(x, y)])[0].tolist()
        except DegenerateError:
            want = None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if want is None:
            with pytest.raises(DegenerateError):
                track_frame(frame, cal)
        elif all(map(math.isfinite, want)):
            fix = track_frame(frame, cal)
            assert fix.real[:2] == (x, y)
            assert [v.hex() for v in fix.virtual[:2]] == [v.hex() for v in want]
        else:
            with pytest.raises(NonFiniteError) as caught:
                track_frame(frame, cal)
            assert error_record(0, caught.value.name)["status"] == "NonFinite"


def test_track_frame_monotone_in_height(default_spec, profile):
    rgb = paint_disc(solid_rgb(default_spec.height, default_spec.width,
                               (190, 190, 190)), 420, 300, 14, (230, 180, 50))
    o_virtual = apply_homography(profile.t_rv,
                                 [profile.principal_point])[0]
    last_z = -1.0
    last_dist = None
    for depth_raw in (560, 480, 400, 320, 240):
        depth = DepthImage(np.full((default_spec.height, default_spec.width),
                                   depth_raw, dtype=np.uint16), 1.0)
        fix = track_frame(FramePair(rgb, depth), profile)
        assert fix.virtual[2] > last_z
        last_z = fix.virtual[2]
        dist = math.hypot(fix.virtual[0] - o_virtual[0],
                          fix.virtual[1] - o_virtual[1])
        if last_dist is not None:
            assert dist < last_dist
        last_dist = dist


def test_track_frame_scales_depth_by_the_profile(default_spec):
    # a frame read from disk carries no depth scale: the profile's applies
    spec = dataclasses.replace(default_spec, raw_to_mm=0.5)
    profile = calibrate_spec(spec).profile
    rgb, depth, _ = render_scene(spec)
    fix = track_frame(FramePair(rgb, DepthImage(depth.pixels)), profile)
    assert fix == track_frame(FramePair(rgb, depth), profile)
    assert abs(fix.real[2] - spec.ball_height_mm) < 10.0


def test_track_frame_stateless_across_order(default_spec, profile):
    specs = [dataclasses.replace(default_spec, ball_plane_mm=(x, 10.0), seed=s)
             for s, x in enumerate((0.0, 25.0, 50.0))]
    frames = [scene_frame(s)[0] for s in specs]
    forward = [track_frame(f, profile) for f in frames]
    backward = [track_frame(f, profile) for f in reversed(frames)]
    assert [f.virtual for f in forward] == [b.virtual for b in reversed(backward)]


def test_scene_translation_leaves_virtual_unchanged(default_spec, profile):
    # move marker and ball together by a whole-pixel offset; registration
    # absorbs the shift
    base_fix = track_frame(scene_frame(default_spec)[0], profile)
    shift = np.array([[1.0, 0.0, 37.0], [0.0, 1.0, -22.0], [0.0, 0.0, 1.0]])
    moved_spec = dataclasses.replace(
        default_spec, marker_to_image=shift @ default_spec.marker_to_image,
        principal_point=(default_spec.principal_point[0] + 37.0,
                         default_spec.principal_point[1] - 22.0))
    moved_profile = calibrate_spec(moved_spec).profile
    moved_fix = track_frame(scene_frame(moved_spec)[0], moved_profile)
    assert np.abs(np.array(moved_fix.virtual) - np.array(base_fix.virtual)).max() \
        < 0.02


# ---------------------------------------------------------------- JSONL records

def test_record_shapes(default_spec, profile):
    frame, _ = scene_frame(default_spec)
    fix = track_frame(frame, profile)
    rec = frame_record(3, fix)
    assert list(rec) == ["frame", "px", "depth_mm", "real", "virtual", "status"]
    assert rec["frame"] == 3 and rec["status"] == "ok"
    err = error_record(4, "NoPointer")
    assert err["status"] == "NoPointer"
    assert err["px"] is None and err["virtual"] is None
