import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tangible_tracker.color_calibration import (
    HueBounds,
    calibrate_hue_bounds,
    hue_bounds_mask,
    hue_in_bounds,
)
from tangible_tracker.errors import LowSaturationError
from tangible_tracker.imaging import HsvImage, RgbImage, rgb_to_hsv
from tangible_tracker.simulator import SceneSpec, render_rgb
from tests.test_imaging import solid_rgb


def pointer_pair(ball_hue=20, sat=200, val=230, seed=0, jitter=0):
    spec = SceneSpec(ball_hue=ball_hue, ball_saturation=sat, ball_value=val,
                     hue_jitter=jitter, seed=seed)
    rng = np.random.default_rng(spec.seed)
    bg = render_rgb(spec, rng, with_marker=False, with_ball=False)
    wp = render_rgb(spec, np.random.default_rng(spec.seed),
                    with_marker=False, with_ball=True)
    return bg, wp


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
    assert rgb_to_hsv(wp).pixels[..., 1].max() == 255
    bounds = calibrate_hue_bounds(bg, wp)
    assert (bounds.lo, bounds.hi) == (15, 45)


def test_red_ball_wraps():
    bg, wp = pointer_pair(ball_hue=8)
    bounds = calibrate_hue_bounds(bg, wp)
    assert (bounds.lo, bounds.hi, bounds.wraps) == (173, 23, True)
    for h, expected in ((0, True), (10, True), (23, True),
                        (24, False), (172, False), (173, True)):
        assert hue_in_bounds(h, 255, 255, bounds) is expected


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


def test_hue_in_bounds_trivials():
    bounds = HueBounds(5, 35)
    assert hue_in_bounds(20, 255, 255, bounds)
    assert not hue_in_bounds(20, 10, 255, bounds)   # below saturation floor
    assert not hue_in_bounds(20, 255, 10, bounds)   # below value floor
    assert not hue_in_bounds(40, 255, 255, bounds)
    with pytest.raises(ValueError):
        hue_in_bounds(180, 255, 255, bounds)


@settings(max_examples=150, deadline=None)
@given(peak=st.integers(min_value=0, max_value=179))
def test_membership_matches_exhaustive_enumeration(peak):
    lo = (peak - 15) % 180
    hi = (peak + 15) % 180
    bounds = HueBounds(lo, hi, wraps=lo > hi)
    expected = wrap_membership_oracle(lo, hi)
    member = {h for h in range(180) if hue_in_bounds(h, 255, 255, bounds)}
    assert member == expected
    assert len(member) == 31


def test_mask_exhaustive_over_hues_and_floors():
    # every hue, with saturation and value each one below and at the floor
    for bounds in (HueBounds(5, 35), HueBounds(173, 23, wraps=True)):
        inside = wrap_membership_oracle(bounds.lo, bounds.hi)
        floors = [(s, v) for s in (bounds.min_saturation - 1, bounds.min_saturation)
                  for v in (bounds.min_value - 1, bounds.min_value)]
        hsv = np.array([[(h, s, v) for h in range(180)] for s, v in floors],
                       dtype=np.uint8)
        mask = hue_bounds_mask(HsvImage(hsv), bounds).bits
        for row, (s, v) in enumerate(floors):
            expected = [h in inside and s >= bounds.min_saturation
                        and v >= bounds.min_value for h in range(180)]
            assert mask[row].tolist() == expected


def test_bounds_invariant_validation():
    with pytest.raises(ValueError):
        HueBounds(35, 5)  # lo > hi needs wraps
    with pytest.raises(ValueError):
        HueBounds(5, 35, wraps=True)
    with pytest.raises(ValueError):
        HueBounds(5, 200)


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
