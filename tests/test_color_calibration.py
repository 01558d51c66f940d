import functools
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields
from threading import Barrier
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tangible_tracker import color_calibration
from tangible_tracker.color_calibration import (
    MIN_SATURATION,
    MIN_VALUE,
    PEAK_MARGIN,
    _WINDOW_STARTS,
    HueBounds,
    _hue_key,
    _keyed_indices,
    _value_ceilings,
    calibrate_hue_bounds,
    hue_bounds_mask,
    key_tables,
)
from tangible_tracker.errors import LowSaturationError, PipelineError
from tangible_tracker.imaging import HUE_BINS, RgbImage, rgb_to_hsv
from tangible_tracker.mask_extraction import MaskRequest, extract_mask
from tangible_tracker.simulator import SceneSpec, hsv_to_rgb_bins, render_rgb
from tests.test_imaging import solid_rgb


def pointer_pair(ball_hue=20, sat=200, val=230, seed=0, jitter=0):
    spec = SceneSpec(ball_hue=ball_hue, ball_saturation=sat, ball_value=val,
                     hue_jitter=jitter, seed=seed)
    rng = np.random.default_rng(spec.seed)
    bg = render_rgb(spec, rng, with_marker=False, with_ball=False)
    wp = render_rgb(spec, np.random.default_rng(spec.seed),
                    with_marker=False, with_ball=True)
    return bg, wp


# every hue at full saturation and value: a (1, 180, 3) HSV row
ALL_HUES = np.array([[(h, 255, 255) for h in range(HUE_BINS)]], dtype=np.uint8)


def wrap_membership_oracle(lo, hi):
    """Hues inside [lo, hi] walking upward from lo with wraparound."""
    hues = set()
    h = lo
    while True:
        hues.add(h)
        if h == hi:
            return hues
        h = (h + 1) % 180


def test_ball_hue_20_gives_bounds_5_35():
    bg, wp = pointer_pair(ball_hue=20)
    bounds = calibrate_hue_bounds(bg, wp)
    assert (bounds.lo, bounds.hi, bounds.wraps) == (5, 35, False)


def test_pure_yellow_ball():
    bg, wp = pointer_pair(ball_hue=30, sat=255, val=255)
    assert rgb_to_hsv(wp)[..., 1].max() == 255
    bounds = calibrate_hue_bounds(bg, wp)
    assert (bounds.lo, bounds.hi) == (15, 45)


def test_red_ball_wraps():
    bg, wp = pointer_pair(ball_hue=8)
    bounds = calibrate_hue_bounds(bg, wp)
    assert (bounds.lo, bounds.hi, bounds.wraps) == (173, 23, True)
    inside = hue_bounds_mask(ALL_HUES, bounds).bits[0]
    for h, expected in ((0, True), (10, True), (23, True),
                        (24, False), (172, False), (173, True)):
        assert inside[h] == expected


def test_low_saturation_ball_rejected():
    bg, wp = pointer_pair(sat=10, val=90)
    with pytest.raises(LowSaturationError):
        calibrate_hue_bounds(bg, wp)


def test_dark_saturated_pointer_rejected():
    bg, wp = pointer_pair(sat=200, val=30)
    assert rgb_to_hsv(wp)[..., 1].max() >= MIN_SATURATION
    with pytest.raises(LowSaturationError, match=f"value {MIN_VALUE}"):
        calibrate_hue_bounds(bg, wp)


def test_only_pixels_the_key_can_keep_vote():
    # the dark half is saturated but below the value floor, and outnumbers
    # every single hue of the lit half's stripes
    background = np.full((120, 160, 3), 190, dtype=np.uint8)
    pixels = background.copy()
    pixels[40:80, 40:58] = hsv_to_rgb_bins(50, 200, 30)
    columns = np.arange(58, 80)
    pixels[40:80, 58:80] = hsv_to_rgb_bins(20 + (columns - 58) % 5, 200, 230)
    bounds = calibrate_hue_bounds(RgbImage(background), RgbImage(pixels))
    kept = hue_bounds_mask(rgb_to_hsv(RgbImage(pixels)), bounds).bits
    assert kept[40:80, 58:80].all()
    assert kept.sum() == 40 * 22


def test_peak_tie_breaks_to_smaller_bin():
    bg = solid_rgb(60, 60, (50, 50, 50))
    pixels = bg.pixels.copy()
    # two half-squares with equal pixel counts even after corner erosion:
    # each half loses exactly two corners of the 20x20 object
    pixels[20:40, 20:30] = (255, 85, 0)   # hue 10
    pixels[20:40, 30:40] = (255, 170, 0)  # hue 20
    bounds = calibrate_hue_bounds(bg, RgbImage(pixels))
    assert bounds.lo == (10 - 15) % 180 and bounds.hi == 25


def test_calibrate_hue_bounds_noisy_ball_peak():
    bg, wp = pointer_pair(ball_hue=20, seed=9, jitter=3)
    bounds = calibrate_hue_bounds(bg, wp)
    assert abs((bounds.lo + PEAK_MARGIN) % 180 - 20) <= 1


def frozen_calibrate_hue_bounds(background, with_pointer, *, min_area):
    """Calibration before it converted only the masked pixels: the whole
    frame to HSV, then a 180-bin histogram of the saturated masked hues."""
    mask = extract_mask(MaskRequest(background, with_pointer, min_area))
    hsv = rgb_to_hsv(with_pointer)
    saturated = mask.bits & (hsv[..., 1] >= MIN_SATURATION)
    if 2 * int(saturated.sum()) < mask.area:
        raise LowSaturationError("too gray")
    hist = np.bincount(hsv[..., 0][saturated], minlength=HUE_BINS).astype(np.int64)
    peak = int(np.argmax(hist))
    lo = (peak - PEAK_MARGIN) % HUE_BINS
    hi = (peak + PEAK_MARGIN) % HUE_BINS
    return HueBounds(lo, hi)


@st.composite
def pointer_patches(draw):
    """(hue, saturation) planes of a rectangular pointer whose hues jitter
    about a centre, wrapping through 0, and whose saturations straddle the
    calibration floor."""
    shape = draw(st.tuples(st.integers(5, 20), st.integers(5, 20)))
    centre = draw(st.integers(0, 179))
    jitter = draw(st.integers(0, 8))
    offsets = draw(arrays(np.int64, shape, elements=st.integers(-jitter, jitter)))
    saturations = draw(arrays(np.int64, shape, elements=st.sampled_from((20, 59, 60, 200))))
    return (centre + offsets) % 180, saturations


# a 20x10 pointer loses its four corners to the mask's smoothing
TIE_HUES = np.repeat([[10] * 5 + [20] * 5], 20, axis=0)  # 98 pixels each
HALF_SATURATED = np.repeat([[200], [20]] * 10, 10, axis=1)  # 98 of 196
ONE_SHORT = HALF_SATURATED.copy()
ONE_SHORT[2, 5] = 20  # 97 of 196


@settings(max_examples=200, deadline=None)
@given(patch=pointer_patches(), corner=st.tuples(st.integers(0, 12), st.integers(0, 12)))
@example(patch=(TIE_HUES, np.full((20, 10), 200)), corner=(6, 6))
@example(patch=(np.full((20, 10), 8), HALF_SATURATED), corner=(6, 6))
@example(patch=(np.full((20, 10), 8), ONE_SHORT), corner=(6, 6))
@example(patch=(np.tile([178, 179, 0, 1, 2], (10, 2)), np.full((10, 10), 200)),
         corner=(0, 0))
def test_calibrate_hue_bounds_matches_frozen_reference(patch, corner):
    hues, saturations = patch
    pixels = np.full((32, 32, 3), 50, dtype=np.uint8)
    y, x = corner
    pixels[y:y + hues.shape[0], x:x + hues.shape[1]] = hsv_to_rgb_bins(hues, saturations, 230)
    background, with_pointer = RgbImage(np.full_like(pixels, 50)), RgbImage(pixels)
    try:
        expected = frozen_calibrate_hue_bounds(background, with_pointer, min_area=16)
    except PipelineError as exc:
        with pytest.raises(type(exc)):
            calibrate_hue_bounds(background, with_pointer, min_area=16)
        return
    assert calibrate_hue_bounds(background, with_pointer, min_area=16) == expected


@settings(max_examples=150, deadline=None)
@given(peak=st.integers(min_value=0, max_value=179))
def test_membership_matches_exhaustive_enumeration(peak):
    lo = (peak - 15) % 180
    hi = (peak + 15) % 180
    bounds = HueBounds(lo, hi)
    expected = wrap_membership_oracle(lo, hi)
    member = set(np.flatnonzero(hue_bounds_mask(ALL_HUES, bounds).bits).tolist())
    assert member == expected
    assert len(member) == 31


def test_mask_exhaustive_over_hues_and_floors():
    # every hue, with saturation and value each one below and at the floor
    for bounds in (HueBounds(5, 35), HueBounds(173, 23)):
        inside = wrap_membership_oracle(bounds.lo, bounds.hi)
        floors = [(s, v) for s in (MIN_SATURATION - 1, MIN_SATURATION)
                  for v in (MIN_VALUE - 1, MIN_VALUE)]
        hsv = np.array([[(h, s, v) for h in range(180)] for s, v in floors],
                       dtype=np.uint8)
        mask = hue_bounds_mask(hsv, bounds).bits
        for row, (s, v) in enumerate(floors):
            expected = [h in inside and s >= MIN_SATURATION
                        and v >= MIN_VALUE for h in range(180)]
            assert mask[row].tolist() == expected


# ------------------------------------------------------------------ color key

# the key's channel sets (see color_calibration._channel_sets) differ
# between these: (r, g) over (r, b); r alone, g alone and b alone over all
# three channels
KEY_BOUNDS = (HueBounds(5, 35), HueBounds(165, 15), HueBounds(45, 75), HueBounds(105, 135))


def test_color_key_exhaustive_over_all_rgb_colors():
    # all 2^24 colors, one 256x256 (g, b) plane per red value
    g, b = np.meshgrid(np.arange(256), np.arange(256), indexing="ij")
    for r in range(256):
        img = RgbImage(np.stack([np.full_like(g, r), g, b], axis=2))
        hsv = rgb_to_hsv(img)
        for bounds in KEY_BOUNDS:
            expected = np.flatnonzero(hue_bounds_mask(hsv, bounds).bits)
            assert np.array_equal(_keyed_indices(img, bounds), expected), (r, bounds)


def value_chroma_colors():
    """Every valid (v, delta) pair, with the middle channel at three points
    of [v - delta, v] and the channels in all six orders, so each pair
    appears at many hues."""
    v, delta = np.meshgrid(np.arange(256), np.arange(256), indexing="ij")
    v, delta = v[delta <= v], delta[delta <= v]
    low = v - delta
    colors = []
    for mid in (low, low + delta // 2, v):
        for order in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
            channels = (v, mid, low)
            colors.append(np.stack([channels[i] for i in order], axis=1))
    return RgbImage(np.concatenate(colors)[:, None, :])


def test_color_key_on_every_value_and_chroma():
    # every (v, delta) pair at many hues, so each side of every floor shows
    img = value_chroma_colors()
    hsv = rgb_to_hsv(img)
    for bounds in KEY_BOUNDS + (HueBounds(0, 179),):
        expected = np.flatnonzero(hue_bounds_mask(hsv, bounds).bits)
        assert 0 < expected.size < img.height
        assert np.array_equal(_keyed_indices(img, bounds), expected), bounds


LAYOUTS = {
    "c": np.ascontiguousarray,
    "fortran": np.asfortranarray,
    "transposed": lambda a: a.transpose(1, 0, 2),
    "strided": lambda a: a[::2, ::-3],
}


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_color_key_any_memory_layout(layout):
    pixels = np.random.default_rng(3).integers(0, 256, (48, 64, 3), dtype=np.uint8)
    img = RgbImage(LAYOUTS[layout](pixels))
    for bounds in KEY_BOUNDS:
        expected = np.flatnonzero(hue_bounds_mask(rgb_to_hsv(img), bounds).bits)
        assert np.array_equal(_keyed_indices(img, bounds), expected)


@functools.cache
def reference_floor_passes():
    """passes[v, delta], over every (v, delta) pair: does the color
    (v, v - delta, v - delta) reach both floors under the reference
    conversion? False where delta > v. The floors depend on (v, delta)
    alone."""
    v, delta = np.meshgrid(np.arange(256), np.arange(256), indexing="ij")
    low = np.clip(v - delta, 0, 255)
    hsv = rgb_to_hsv(RgbImage(np.stack([v, low, low], axis=2)))
    return (hsv[..., 1] >= MIN_SATURATION) & (hsv[..., 2] >= MIN_VALUE) & (delta <= v)


def frozen_color_key(rgb, bounds):
    """The key before it was banded: full-frame channel max and min, the
    reference's floors looked up at every pixel, the survivors converted."""
    pixels = rgb.pixels
    r, g, b = pixels[..., 0], pixels[..., 1], pixels[..., 2]
    v = np.maximum(np.maximum(r, g), b)
    delta = v - np.minimum(np.minimum(r, g), b)
    keep = np.ascontiguousarray(reference_floor_passes()[v, delta])  # flat is a view
    flat = keep.reshape(-1)
    survivors = np.flatnonzero(flat)
    if survivors.size:
        hsv = rgb_to_hsv(RgbImage(pixels.reshape(-1, 3)[survivors][:, None, :]))
        flat[survivors] = hue_bounds_mask(hsv, bounds).bits[:, 0]
    return keep


any_bounds = st.builds(HueBounds, st.integers(0, 179), st.integers(0, 179))

# (255, 245, 245) has chroma 10, the smallest that passes the floors at
# any value, but needs 60 at value 255: a candidate that never survives
CANDIDATE_ONLY = (255, 245, 245)
GRAY = (90, 90, 90)
HIT = (255, 85, 0)  # hue 10: inside HueBounds(5, 35)
# (42, 37, 32) has chroma 10 and keys under HueBounds(5, 35): a survivor
# at the smallest chroma that can pass
FLOOR_HIT = (42, 37, 32)


@st.composite
def gray_step_frames(draw):
    """Gray rows whose level steps along the row, with channel noise of at
    most 4, so that no gray pixel's chroma reaches 10, plus a few other
    pixels. Uniform random frames almost never leave a band without a
    candidate; these mostly do, while the windows that straddle a step read
    a chroma that does reach it."""
    height, width = draw(st.integers(1, 9)), draw(st.integers(1, 11))
    start = draw(arrays(np.int16, (height, 1), elements=st.integers(0, 255)))
    steps = draw(arrays(np.int16, (height, width),
                        elements=st.sampled_from((0, 0, -60, -10, 10, 60))))
    noise = draw(arrays(np.int16, (height, width, 3), elements=st.integers(-4, 4)))
    gray = np.clip(start + np.cumsum(steps, axis=1), 0, 255)
    pixels = np.clip(gray[..., None] + noise, 0, 255).astype(np.uint8)
    others = st.one_of(st.sampled_from((HIT, FLOOR_HIT, CANDIDATE_ONLY, (0, 0, 255))),
                       arrays(np.uint8, 3))
    for _ in range(draw(st.integers(0, 3))):
        y, x = draw(st.integers(0, height - 1)), draw(st.integers(0, width - 1))
        pixels[y, x] = draw(others)
    return pixels


@settings(max_examples=300, deadline=None)
@given(pixels=st.one_of(
           arrays(np.uint8, st.tuples(st.integers(1, 9), st.integers(1, 11), st.just(3))),
           gray_step_frames()),
       layout=st.sampled_from(sorted(LAYOUTS)),
       band_bytes=st.integers(1, 3 * 11 * 4),
       bounds=any_bounds)
@example(pixels=np.array([[CANDIDATE_ONLY, (255, 85, 0), (90, 90, 90)],
                          [CANDIDATE_ONLY, CANDIDATE_ONLY, (90, 90, 90)],
                          [(0, 0, 255), CANDIDATE_ONLY, (255, 85, 0)]], dtype=np.uint8),
         layout="c", band_bytes=9, bounds=HueBounds(5, 35))  # the middle band
@example(pixels=np.full((4, 5, 3), CANDIDATE_ONLY, dtype=np.uint8),
         layout="c", band_bytes=15, bounds=HueBounds(5, 35))  # no survivor at all
@example(pixels=np.full((3, 7, 3), 128, dtype=np.uint8),
         layout="c", band_bytes=21, bounds=HueBounds(5, 35))  # no candidate at all
@example(pixels=np.array([[(90, 90, 90)] * 3] * 4
                         + [[(255, 85, 0), CANDIDATE_ONLY, (90, 90, 90)]], dtype=np.uint8),
         layout="c", band_bytes=18, bounds=HueBounds(5, 35))  # only the last, 1-row band
@example(pixels=np.arange(1 * 13 * 3, dtype=np.uint8).reshape(1, 13, 3) * 6,
         layout="c", band_bytes=1, bounds=HueBounds(165, 15))
@example(pixels=np.arange(13 * 1 * 3, dtype=np.uint8).reshape(13, 1, 3) * 6,
         layout="strided", band_bytes=1, bounds=HueBounds(0, 179))
@example(pixels=np.array([[(90, 90, 90)] * 3 + [(255, 85, 0)]] * 3, dtype=np.uint8),
         layout="c", band_bytes=12, bounds=HueBounds(5, 35))  # v read at the buffer's end
@example(pixels=np.array([[GRAY, (100, 100, 100)] * 4] * 3, dtype=np.uint8),
         layout="c", band_bytes=24, bounds=HueBounds(0, 179))  # every straddle reaches 10
@example(pixels=np.array([[HIT] + [GRAY] * 4, [GRAY] * 5], dtype=np.uint8),
         layout="c", band_bytes=15, bounds=HueBounds(5, 35))  # only the band's first pixel
@example(pixels=np.array([[GRAY] * 4 + [HIT], [GRAY] * 5], dtype=np.uint8),
         layout="c", band_bytes=15, bounds=HueBounds(5, 35))  # only the band's last pixel
@example(pixels=np.array([[HIT]], dtype=np.uint8),
         layout="c", band_bytes=3, bounds=HueBounds(5, 35))  # a 1x1 frame
@example(pixels=np.array([[GRAY, FLOOR_HIT, GRAY]], dtype=np.uint8),
         layout="c", band_bytes=9, bounds=HueBounds(5, 35))  # max exactly at the floor
@example(pixels=np.array([[GRAY], [(100, 100, 100)], [HIT], [GRAY]], dtype=np.uint8),
         layout="c", band_bytes=6, bounds=HueBounds(5, 35))  # a 1-pixel-wide column
# bands of 7 and of 9 pixels (23 and 29 bytes round down to whole pixels)
# end mid-row: at the pixel before a hit, so the next band starts at it,
# and at the pixel after one
@example(pixels=np.array([[GRAY] * 5, [GRAY, GRAY, HIT, GRAY, GRAY]], dtype=np.uint8),
         layout="c", band_bytes=23, bounds=HueBounds(5, 35))
@example(pixels=np.array([[GRAY] * 5, [GRAY, GRAY, HIT, GRAY, GRAY]], dtype=np.uint8),
         layout="c", band_bytes=29, bounds=HueBounds(5, 35))
# 3-pixel bands: row 0 spans three of them, and the third ends in row 1
@example(pixels=np.array([[GRAY, GRAY, HIT, HIT, CANDIDATE_ONLY, GRAY, FLOOR_HIT],
                          [GRAY, HIT, GRAY, GRAY, GRAY, GRAY, HIT]], dtype=np.uint8),
         layout="c", band_bytes=9, bounds=HueBounds(5, 35))
def test_color_key_matches_frozen_reference(pixels, layout, band_bytes, bounds):
    img = RgbImage(LAYOUTS[layout](pixels))
    # a budget of a few bytes makes every row, or every few rows, a band
    with mock.patch.object(color_calibration, "_BAND_BYTES", band_bytes):
        keyed = _keyed_indices(img, bounds)
    assert np.array_equal(keyed, np.flatnonzero(frozen_color_key(img, bounds)))


def test_color_key_without_candidates_is_empty_of_the_hit_dtype():
    gray = RgbImage(np.full((6, 8, 3), 90, dtype=np.uint8))
    hit = RgbImage(np.full((6, 8, 3), (255, 85, 0), dtype=np.uint8))
    bounds = HueBounds(5, 35)
    keyed_hit = _keyed_indices(hit, bounds)
    assert keyed_hit.size == 48
    for band_bytes in (1, 24, 10**6):  # one band per row, a few, one in all
        with mock.patch.object(color_calibration, "_BAND_BYTES", band_bytes):
            keyed = _keyed_indices(gray, bounds)
        assert keyed.shape == (0,) and keyed.dtype == keyed_hit.dtype


def test_color_key_on_uniform_random_hd_frame():
    # nearly every pixel is a candidate: the key's most expensive frame
    img = RgbImage(np.random.default_rng(7).integers(0, 256, (720, 1280, 3),
                                                     dtype=np.uint8))
    hsv = rgb_to_hsv(img)
    for bounds in KEY_BOUNDS:
        assert np.array_equal(_keyed_indices(img, bounds),
                              np.flatnonzero(hue_bounds_mask(hsv, bounds).bits))


def test_color_key_concurrent_calls_match_serial(monkeypatch):
    # gray frames with chroma noise and a few saturated patches: many
    # candidates, some survivors, and a different answer per frame; a few
    # rows of gray in luminance steps, one band each, have no candidate
    rng = np.random.default_rng(5)
    frames, step_rows = [], []
    for _ in range(4):
        gray = rng.integers(40, 216, (240, 320, 1))
        pixels = gray + rng.integers(-40, 41, (240, 320, 3))
        for y, x in rng.integers(0, 200, (6, 2)):
            pixels[y:y + 40, x:x + 40] = rng.integers(0, 256, 3)
        step_rows.append(rng.choice(240, 4, replace=False))
        for y in step_rows[-1]:
            pixels[y] = np.repeat(rng.integers(40, 216, 8), 40)[:, None]
        frames.append(RgbImage(np.clip(pixels, 0, 255).astype(np.uint8)))
    bounds = KEY_BOUNDS[1]
    monkeypatch.setattr(color_calibration, "_BAND_BYTES", 3 * 320)  # a row a band
    serial = [_keyed_indices(frame, bounds) for frame in frames]
    start = Barrier(4, timeout=60)

    def key_repeatedly(frame):
        start.wait()
        return [_keyed_indices(frame, bounds) for _ in range(20)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # hand the interpreter over mid-band
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            concurrent = list(pool.map(key_repeatedly, frames, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for expected, rows, results in zip(serial, step_rows, concurrent):
        assert 0 < expected.size < 240 * 320
        assert not np.isin(expected // 320, rows).any()
        assert all(np.array_equal(keyed, expected) for keyed in results)


def test_value_ceilings_end_every_passing_run():
    # over every (v, delta) pair, the reference passes exactly where the
    # color exists and v runs from the value floor to the delta's ceiling
    v, delta = np.meshgrid(np.arange(256), np.arange(256), indexing="ij")
    ceiling = _value_ceilings()
    assert ceiling.shape == (256,) and ceiling.dtype == np.uint8
    assert np.array_equal(reference_floor_passes(),
                          (delta <= v) & (MIN_VALUE <= v) & (v <= ceiling[delta]))


def test_value_ceiling_extremes():
    ceiling = _value_ceilings()
    # below chroma 10 no value from the value floor up reaches saturation
    # 60; at 10, value 42 still reads rint(2550 / 42) = 61; from 60 on,
    # value 255 reads the chroma itself
    assert (ceiling[:10] == 0).all() and ceiling[10] == 42
    assert (ceiling[60:] == 255).all() and ceiling[59] < 255
    # the bands' candidate floor is the smallest chroma with a ceiling
    assert key_tables(HueBounds(5, 35))[1] == 10


@settings(max_examples=200, deadline=None)
@given(colors=arrays(np.uint8, st.tuples(st.integers(1, 64), st.just(3))),
       bounds=any_bounds)
@example(colors=np.array([(0, 0, 0), (255, 255, 255), (255, 0, 0), (0, 255, 255),
                          (255, 0, 1), (255, 1, 0), (7, 3, 200)], dtype=np.uint8),
         bounds=HueBounds(165, 15))
# keys of (r - g, 255) and (r - g + 1, -255) sit side by side in the table
@example(colors=np.array([(254, 255, 0), (0, 0, 255), (255, 255, 0), (1, 0, 255)],
                         dtype=np.uint8),
         bounds=HueBounds(15, 45))
def test_hue_table_matches_the_reference_on_any_color(colors, bounds):
    # one lookup and two compares decide the whole key, the floors and the
    # hue, for every color, not only the zero-channel colors it was built from
    expected = hue_bounds_mask(rgb_to_hsv(RgbImage(colors[:, None, :])), bounds).bits[:, 0]
    ceiling = key_tables(bounds)[0][_hue_key(*colors.T.astype(np.int32))]
    v = colors.max(axis=1)
    assert np.array_equal((MIN_VALUE <= v) & (v <= ceiling), expected)


def test_hue_table_is_cached_and_read_only():
    table = key_tables(HueBounds(5, 35))[0]
    assert table.shape == (511 * 511,) and table.dtype == np.uint8
    assert not table.flags.writeable
    assert key_tables(HueBounds(5, 35))[0] is table


def key_grid_colors():
    """One int32 color per key of the 511x511 key grid, (r - g, 0, -(g - b)):
    the key's channel differences with g at 0, so a channel may be
    negative. Max minus min over any channels, and the hue, depend on the
    differences alone. Also whether an 8-bit color has the key."""
    rg, gb = np.divmod(np.arange(511 * 511), 511)
    rg, gb = rg - 255, gb - 255
    colors = np.stack([rg, np.zeros_like(rg), -gb], axis=1).astype(np.int32)
    return colors, np.abs(rg + gb) <= 255


CHANNEL_SET_BOUNDS = {
    "calibrated": [((p - PEAK_MARGIN) % HUE_BINS, (p + PEAK_MARGIN) % HUE_BINS)
                   for p in range(HUE_BINS)],
    "one-bin": [(h, h) for h in range(HUE_BINS)],
    "every-hue": [(0, HUE_BINS - 1)],
}


@pytest.mark.parametrize("kind", sorted(CHANNEL_SET_BOUNDS))
def test_key_table_is_the_value_ceiling_inside_the_interval(kind):
    # over every key: the ceiling of the key's chroma where the reference
    # hue of the key's zero-min color lies in the interval; 0 elsewhere,
    # and at every key that no 8-bit color has
    colors, reachable = key_grid_colors()
    zero_min = colors - colors.min(axis=1, keepdims=True)
    chroma = zero_min.max(axis=1)
    hue = rgb_to_hsv(RgbImage(np.minimum(zero_min, 255)[:, None, :]))[:, 0, 0]
    ceiling = _value_ceilings()[np.minimum(chroma, 255)]
    for lo, hi in CHANNEL_SET_BOUNDS[kind]:
        inside = np.isin(hue, list(wrap_membership_oracle(lo, hi))) & reachable
        expected = np.where(inside, ceiling, 0)
        assert np.array_equal(key_tables(HueBounds(lo, hi))[0], expected), (lo, hi)


@pytest.mark.parametrize("kind", sorted(CHANNEL_SET_BOUNDS))
def test_channel_sets_read_the_chroma_of_every_keyed_key(kind):
    # over every key: max over peaks minus min over bottoms is the chroma
    # wherever the key can be keyed, and from 0 to the chroma wherever an
    # 8-bit color has the key, so no uint8 difference wraps
    colors, reachable = key_grid_colors()
    chroma = colors.max(axis=1) - colors.min(axis=1)
    for lo, hi in CHANNEL_SET_BOUNDS[kind]:
        table, _, peaks, bottoms = key_tables(HueBounds(lo, hi))
        assert peaks and bottoms and set(peaks) & set(bottoms), (lo, hi)
        read = colors[:, list(peaks)].max(axis=1) - colors[:, list(bottoms)].min(axis=1)
        keyed = table > 0
        assert keyed.any() and not (keyed & ~reachable).any(), (lo, hi)
        assert np.array_equal(read[keyed], chroma[keyed]), (lo, hi)
        assert (read[reachable] >= 0).all(), (lo, hi)
        assert (read[reachable] <= chroma[reachable]).all(), (lo, hi)


def test_channel_sets_of_calibrated_bounds_take_five_passes():
    # one max and one min, or no max and two mins, for every calibrated
    # interval; all three channels twice for the whole hue circle
    for lo, hi in CHANNEL_SET_BOUNDS["calibrated"]:
        _, _, peaks, bottoms = key_tables(HueBounds(lo, hi))
        assert len(peaks) + len(bottoms) == 4, (lo, hi)
    assert key_tables(HueBounds(5, 35))[2:] == ((0, 1), (0, 2))
    assert key_tables(HueBounds(167, 17))[2:] == ((0,), (0, 1, 2))
    assert key_tables(HueBounds(0, HUE_BINS - 1))[2:] == ((0, 1, 2), (0, 1, 2))


def test_window_mask_is_cached_read_only_and_keeps_pixel_windows():
    assert _WINDOW_STARTS[:13].tolist() == [0xFF, 0, 0] * 4 + [0xFF]
    assert not _WINDOW_STARTS.flags.writeable
    assert _WINDOW_STARTS.size == color_calibration._BAND_BYTES


def test_a_band_longer_than_the_window_mask_fails_loudly(monkeypatch):
    frame = RgbImage(np.full((200, 300, 3), (255, 85, 0), dtype=np.uint8))
    monkeypatch.setattr(color_calibration, "_BAND_BYTES", 2 * _WINDOW_STARTS.size)
    with pytest.raises(ValueError):
        _keyed_indices(frame, HueBounds(5, 35))


def test_wraps_is_lo_above_hi():
    for lo in range(HUE_BINS):
        for hi in range(HUE_BINS):
            assert HueBounds(lo, hi).wraps == (lo > hi)


def test_bounds_invariant_validation():
    assert [f.name for f in fields(HueBounds)] == ["lo", "hi"]
    for lo, hi in ((5, 200), (-1, 35), (180, 0)):
        with pytest.raises(ValueError):
            HueBounds(lo, hi)


def test_illumination_robustness():
    # dimming the whole scene moves the detected peak by at most 2 bins
    bg, wp = pointer_pair(ball_hue=20, seed=2, jitter=2)
    reference = calibrate_hue_bounds(bg, wp)
    ref_peak = (reference.lo + 15) % 180
    for c in (0.5, 0.65, 0.8):
        dim_bg = RgbImage(np.rint(bg.pixels * c).astype(np.uint8))
        dim_wp = RgbImage(np.rint(wp.pixels * c).astype(np.uint8))
        bounds = calibrate_hue_bounds(dim_bg, dim_wp)
        peak = (bounds.lo + 15) % 180
        diff = min(abs(peak - ref_peak), 180 - abs(peak - ref_peak))
        assert diff <= 2
