"""Derive the pointer's hue interval under the current lighting.

The pointer is isolated with a background-pair mask, its hue histogram is
peaked, and the calibrated interval is the peak widened by 15 bins on each
side (wrapping through 0 when needed), so the same object keys reliably as
room lighting drifts. ``color_key`` applies the calibrated interval to a
frame.
"""

from __future__ import annotations

import functools
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
    min_area: int = DEFAULT_MIN_AREA,
) -> HueBounds:
    """Histogram the masked pointer's hue and take the peak +- 15 bins.

    Only masked pixels at or above the saturation floor vote; if fewer than
    half of them qualify the object is too gray to color-key and
    LowSaturationError is raised. Peak ties break toward the smallest bin.
    """
    mask = extract_mask(MaskRequest(background, with_pointer, min_area))
    hsv = rgb_to_hsv(with_pointer)
    saturated = BinaryMask(mask.bits & (hsv.pixels[..., 1] >= DEFAULT_MIN_SATURATION))
    if 2 * saturated.area < mask.area:
        raise LowSaturationError(
            f"only {saturated.area} of {mask.area} masked pixels reach "
            f"saturation {DEFAULT_MIN_SATURATION}"
        )
    peak = int(np.argmax(hue_histogram(hsv, saturated)))
    lo = (peak - PEAK_MARGIN) % HUE_BINS
    hi = (peak + PEAK_MARGIN) % HUE_BINS
    return HueBounds(lo, hi, wraps=lo > hi)


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


@functools.lru_cache(maxsize=8)
def _floor_thresholds(min_saturation: int, min_value: int) -> np.ndarray:
    """Smallest chroma ``delta = max - min`` that passes both floors, per
    value ``v = max(r, g, b)``; 256 where no delta passes.

    Built by running the reference ``rgb_to_hsv`` and ``hue_bounds_mask``
    (over every hue) on the 256x256 grid of colors (v, v - delta, v - delta).
    The floors depend on (v, delta) alone, and for a fixed v the saturation
    ``rint(255 * delta / v)`` never decreases as delta grows, so a pixel
    passes both floors exactly when ``delta >= table[v]``. The result is
    shared between callers and marked read-only.
    """
    v = np.arange(256)[:, None]
    delta = np.arange(256)[None, :]
    low = np.clip(v - delta, 0, 255)
    grid = RgbImage(np.stack(np.broadcast_arrays(v, low, low), axis=2))
    any_hue = HueBounds(0, HUE_BINS - 1, min_saturation=min_saturation,
                        min_value=min_value)
    passes = hue_bounds_mask(rgb_to_hsv(grid), any_hue).bits & (delta <= v)
    table = np.where(passes.any(axis=1), passes.argmax(axis=1), 256).astype(np.uint16)
    table.flags.writeable = False
    return table


def color_key(rgb: RgbImage, bounds: HueBounds) -> BinaryMask:
    """``hue_bounds_mask(rgb_to_hsv(rgb), bounds)``, converting only the
    pixels that pass the saturation and value floors.

    The floors are applied in RGB through ``_floor_thresholds``; the
    survivors go through the reference conversion and predicate and are
    scattered back. Frames where most pixels pass the floors cost a little
    more than the reference; frames of mostly gray or dark pixels far less.
    """
    pixels = rgb.pixels
    r, g, b = pixels[..., 0], pixels[..., 1], pixels[..., 2]
    v = np.maximum(np.maximum(r, g), b)
    delta = v - np.minimum(np.minimum(r, g), b)
    table = _floor_thresholds(bounds.min_saturation, bounds.min_value)
    keep = delta >= np.take(table, v)  # np.take: twice as fast as table[v]
    flat = keep.reshape(-1)  # row-major, like pixels.reshape(-1, 3)
    survivors = np.flatnonzero(flat)
    if survivors.size:
        hsv = rgb_to_hsv(RgbImage(pixels.reshape(-1, 3)[survivors][:, None, :]))
        flat[survivors] = hue_bounds_mask(hsv, bounds).bits[:, 0]
    return BinaryMask(flat.reshape(keep.shape))
