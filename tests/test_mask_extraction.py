import dataclasses

import numpy as np
import pytest

from tangible_tracker.errors import EmptyMaskError, PipelineError, TooSmallError
from tangible_tracker.imaging import RgbImage
from tangible_tracker.mask_extraction import MaskRequest, extract_mask
from tangible_tracker.simulator import (
    SceneSpec,
    apply_projective,
    fill_convex_polygon,
    marker_plane_corners,
    render_rgb,
)
from tests.test_imaging import (
    component_areas_oracle,
    disc_bits,
    has_holes_oracle,
    solid_rgb,
)


def iou(a, b):
    return float((a & b).sum()) / float((a | b).sum())


def paste_disc(background: RgbImage, cx, cy, r, color) -> RgbImage:
    pixels = background.pixels.copy()
    pixels[disc_bits(background.height, background.width, cx, cy, r)] = color
    return RgbImage(pixels)


def test_identical_pair_raises():
    bg = solid_rgb(60, 80, (120, 130, 140))
    with pytest.raises((EmptyMaskError, TooSmallError)):
        extract_mask(MaskRequest(bg, bg))


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        MaskRequest(solid_rgb(10, 10, (0, 0, 0)), solid_rgb(10, 11, (0, 0, 0)))


def test_disc_mask_iou():
    bg = solid_rgb(120, 160, (190, 190, 190))
    scene = paste_disc(bg, 80, 60, 30, (200, 170, 40))
    mask = extract_mask(MaskRequest(bg, scene))
    assert iou(mask.bits, disc_bits(120, 160, 80, 60, 30)) >= 0.95


def test_warped_marker_area_within_two_percent():
    spec = SceneSpec(seed=3)
    rng = np.random.default_rng(spec.seed)
    bg = render_rgb(spec, rng, with_marker=False, with_ball=False)
    wm = render_rgb(spec, rng, with_marker=True, with_ball=False)
    mask = extract_mask(MaskRequest(bg, wm))
    corners = apply_projective(spec.marker_to_image, marker_plane_corners())
    target = fill_convex_polygon(spec.width, spec.height, corners).area
    assert abs(mask.area - target) <= 0.02 * target


def test_output_is_single_filled_component():
    bg = solid_rgb(90, 120, (40, 60, 80))
    scene = paste_disc(paste_disc(bg, 30, 40, 18, (220, 100, 30)),
                       95, 60, 7, (220, 100, 30))
    mask = extract_mask(MaskRequest(bg, scene))
    assert len(component_areas_oracle(mask.bits)) == 1
    assert not has_holes_oracle(mask.bits)


def test_deterministic():
    bg = solid_rgb(80, 80, (100, 110, 120))
    scene = paste_disc(bg, 40, 40, 20, (10, 200, 30))
    a = extract_mask(MaskRequest(bg, scene))
    b = extract_mask(MaskRequest(bg, scene))
    assert (a.bits == b.bits).all()


def test_min_area_guard():
    bg = solid_rgb(100, 100, (100, 100, 100))
    scene = paste_disc(bg, 50, 50, 4, (240, 40, 40))  # ~50 px
    with pytest.raises(TooSmallError):
        extract_mask(MaskRequest(bg, scene, min_area=200))
    small_ok = extract_mask(MaskRequest(bg, scene, min_area=10))
    assert small_ok.area >= 10


def test_contrast_monotonicity():
    # a larger color distance to the background never shrinks mask IoU
    spec = SceneSpec(hue_jitter=4, seed=6)
    scores = []
    for value in (105, 130, 190, 250):
        sub = dataclasses.replace(spec, ball_value=value, ball_saturation=160)
        rng = np.random.default_rng(sub.seed)
        bg = render_rgb(sub, rng, with_marker=False, with_ball=False)
        wp = render_rgb(sub, np.random.default_rng(sub.seed),
                        with_marker=False, with_ball=True)
        from tangible_tracker.simulator import ball_geometry
        _, center, radius = ball_geometry(sub)
        target = disc_bits(sub.height, sub.width, center[0], center[1], radius)
        try:
            mask = extract_mask(MaskRequest(bg, wp))
            scores.append(iou(mask.bits, target))
        except PipelineError:
            scores.append(0.0)
    assert all(b >= a - 1e-9 for a, b in zip(scores, scores[1:]))
    assert scores[-1] > 0.9
