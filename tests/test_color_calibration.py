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
    HueBounds,
    _floor_thresholds,
    _hue_key,
    _hue_passes,
    _keyed_indices,
    calibrate_hue_bounds,
    hue_bounds_mask,
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

KEY_BOUNDS = (HueBounds(5, 35), HueBounds(165, 15))


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


def frozen_color_key(rgb, bounds):
    """The key before it was banded: full-frame channel max and min, the
    floor table looked up at every pixel, the survivors converted."""
    pixels = rgb.pixels
    r, g, b = pixels[..., 0], pixels[..., 1], pixels[..., 2]
    v = np.maximum(np.maximum(r, g), b)
    delta = v - np.minimum(np.minimum(r, g), b)
    table = _floor_thresholds()
    keep = delta >= np.take(table, v)
    flat = keep.reshape(-1)
    survivors = np.flatnonzero(flat)
    if survivors.size:
        hsv = rgb_to_hsv(RgbImage(pixels.reshape(-1, 3)[survivors][:, None, :]))
        flat[survivors] = hue_bounds_mask(hsv, bounds).bits[:, 0]
    return keep


any_bounds = st.builds(HueBounds, st.integers(0, 179), st.integers(0, 179))

# (255, 245, 245) has chroma 10, the smallest entry of the floor table,
# but needs 60 at value 255: a candidate that never survives
CANDIDATE_ONLY = (255, 245, 245)


@settings(max_examples=300, deadline=None)
@given(pixels=arrays(np.uint8, st.tuples(st.integers(1, 9), st.integers(1, 11), st.just(3))),
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


def test_color_key_concurrent_calls_match_serial():
    # gray frames with chroma noise and a few saturated patches: many
    # candidates, some survivors, and a different answer per frame
    rng = np.random.default_rng(5)
    frames = []
    for _ in range(4):
        gray = rng.integers(40, 216, (240, 320, 1))
        pixels = gray + rng.integers(-40, 41, (240, 320, 3))
        for y, x in rng.integers(0, 200, (6, 2)):
            pixels[y:y + 40, x:x + 40] = rng.integers(0, 256, 3)
        frames.append(RgbImage(np.clip(pixels, 0, 255).astype(np.uint8)))
    bounds = KEY_BOUNDS[1]
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
    for expected, results in zip(serial, concurrent):
        assert 0 < expected.size < 240 * 320
        assert all(np.array_equal(keyed, expected) for keyed in results)


def test_floor_table_is_the_start_of_a_suffix():
    # passes[v, delta], over every (v, delta) pair: does the color
    # (v, v - delta, v - delta) reach both floors under the reference
    # conversion? False where delta > v. The passing deltas of each v are
    # exactly those from table[v] up.
    v, delta = np.meshgrid(np.arange(256), np.arange(256), indexing="ij")
    low = np.clip(v - delta, 0, 255)
    hsv = rgb_to_hsv(RgbImage(np.stack([v, low, low], axis=2)))
    passes = (hsv[..., 1] >= MIN_SATURATION) & (hsv[..., 2] >= MIN_VALUE) & (delta <= v)
    table = _floor_thresholds()
    assert table.shape == (256,) and table.dtype == np.uint16
    assert np.array_equal(passes, (delta >= table[:, None]) & (delta <= v))


def test_floor_table_extremes_and_cache():
    table = _floor_thresholds()
    # no delta lifts a value below the value floor; at the top value the
    # saturation rint(255 * delta / 255) is delta itself
    assert (table[:MIN_VALUE] == 256).all() and table[MIN_VALUE] < 256
    assert table[255] == MIN_SATURATION
    assert _floor_thresholds() is table
    assert not table.flags.writeable


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
    # the table decides the hue interval alone, for every color, not only
    # the zero-channel colors it was built from
    hue = rgb_to_hsv(RgbImage(colors[:, None, :]))[:, 0, 0]
    expected = np.isin(hue, list(wrap_membership_oracle(bounds.lo, bounds.hi)))
    table = _hue_passes(bounds.lo, bounds.hi)
    assert np.array_equal(table[_hue_key(*colors.T.astype(np.int32))], expected)


def test_hue_table_is_cached_and_read_only():
    table = _hue_passes(5, 35)
    assert table.shape == (511 * 511,) and table.dtype == bool
    assert not table.flags.writeable
    assert _hue_passes(5, 35) is table


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
