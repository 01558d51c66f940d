"""Derive the pointer's hue interval under the current lighting.

The pointer is isolated with a background-pair mask, its hue histogram is
peaked, and the calibrated interval is the peak widened by 15 bins on each
side (wrapping through 0 when needed), so the same object keys reliably as
room lighting drifts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LowSaturationError
from .imaging import HUE_BINS, BinaryMask, HsvImage, RgbImage, hue_histogram, rgb_to_hsv
from .mask_extraction import DEFAULT_MIN_AREA, MaskRequest, extract_mask

PEAK_MARGIN = 15  # hue bins kept on each side of the histogram peak

DEFAULT_MIN_SATURATION = 60
DEFAULT_MIN_VALUE = 40


@dataclass(frozen=True)
class HueBounds:
    """Calibrated hue interval [lo, hi] on the 0..179 scale.

    ``wraps`` marks intervals crossing the 179/0 seam (red objects); the
    saturation and value floors exclude near-gray pixels whose hue is
    numerically meaningless.
    """

    lo: int
    hi: int
    wraps: bool = False
    min_saturation: int = DEFAULT_MIN_SATURATION
    min_value: int = DEFAULT_MIN_VALUE

    def __post_init__(self):
        if not (0 <= self.lo < HUE_BINS and 0 <= self.hi < HUE_BINS):
            raise ValueError("hue bounds must lie in 0..179")
        if self.wraps != (self.lo > self.hi):
            raise ValueError("wraps flag inconsistent with lo/hi ordering")
        if not (0 <= self.min_saturation <= 255 and 0 <= self.min_value <= 255):
            raise ValueError("saturation/value floors must be 8-bit")


def calibrate_hue_bounds(
    background: RgbImage,
    with_pointer: RgbImage,
    *,
    min_saturation: int = DEFAULT_MIN_SATURATION,
    min_value: int = DEFAULT_MIN_VALUE,
    min_area: int = DEFAULT_MIN_AREA,
) -> HueBounds:
    """Histogram the masked pointer's hue and take the peak +- 15 bins.

    Only masked pixels at or above the saturation floor vote; if fewer than
    half of them qualify the object is too gray to color-key and
    LowSaturationError is raised. Peak ties break toward the smallest bin.
    """
    mask = extract_mask(MaskRequest(background, with_pointer, min_area))
    hsv = rgb_to_hsv(with_pointer)
    saturated = BinaryMask(mask.bits & (hsv.pixels[..., 1] >= min_saturation))
    if 2 * saturated.area < mask.area:
        raise LowSaturationError(
            f"only {saturated.area} of {mask.area} masked pixels reach "
            f"saturation {min_saturation}"
        )
    peak = int(np.argmax(hue_histogram(hsv, saturated)))
    lo = (peak - PEAK_MARGIN) % HUE_BINS
    hi = (peak + PEAK_MARGIN) % HUE_BINS
    return HueBounds(lo, hi, wraps=lo > hi,
                     min_saturation=min_saturation, min_value=min_value)


def hue_in_bounds(h: int, s: int, v: int, bounds: HueBounds) -> bool:
    """Membership test for one HSV pixel: ``hue_bounds_mask`` of a 1x1 image."""
    if not 0 <= h < HUE_BINS:
        raise ValueError("hue must be < 180")
    pixel = HsvImage(np.array([[[h, s, v]]], dtype=np.uint8))
    return bool(hue_bounds_mask(pixel, bounds).bits[0, 0])


def hue_bounds_mask(img: HsvImage, bounds: HueBounds) -> BinaryMask:
    """Pixels whose hue lies in the interval, wrapping through 0 when
    ``bounds.wraps``, and whose saturation and value reach the floors."""
    h = img.pixels[..., 0]
    s = img.pixels[..., 1]
    v = img.pixels[..., 2]
    if bounds.wraps:
        in_hue = (h >= bounds.lo) | (h <= bounds.hi)
    else:
        in_hue = (h >= bounds.lo) & (h <= bounds.hi)
    return BinaryMask(in_hue & (s >= bounds.min_saturation) & (v >= bounds.min_value))
