"""Derive the pointer's hue interval under the current lighting.

The pointer is isolated with a background-pair mask, its hue histogram is
peaked, and the calibrated interval is the peak widened by 15 bins on each
side (wrapping through 0 when needed), so the same object keys reliably as
room lighting drifts. The interval is all that is calibrated: the key's
saturation and value floors are the constants ``MIN_SATURATION`` and
``MIN_VALUE``. ``_keyed_indices`` applies the key to a frame;
``hue_bounds_mask`` of ``rgb_to_hsv`` is its reference.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import LowSaturationError
from .imaging import HUE_BINS, BinaryMask, RgbImage, rgb_to_hsv
from .mask_extraction import DEFAULT_MIN_AREA, MaskRequest, extract_mask

PEAK_MARGIN = 15  # hue bins kept on each side of the histogram peak

# below these floors a pixel is too gray or too dark for its hue to mean anything
MIN_SATURATION = 60
MIN_VALUE = 40

# Bytes of the frame ``_keyed_indices`` keys per band: a band and its
# temporaries stay in cache, where frame-sized ones cost page faults.
_BAND_BYTES = 128 * 1024


@dataclass(frozen=True)
class HueBounds:
    """Calibrated hue interval [lo, hi] on the 0..179 scale; ``lo > hi``
    means the interval wraps through the 179/0 seam (red objects)."""

    lo: int
    hi: int

    def __post_init__(self):
        if not (0 <= self.lo < HUE_BINS and 0 <= self.hi < HUE_BINS):
            raise ValueError("hue bounds must lie in 0..179")

    @property
    def wraps(self) -> bool:
        return self.lo > self.hi


def calibrate_hue_bounds(
    background: RgbImage,
    with_pointer: RgbImage,
    *,
    min_area: int = DEFAULT_MIN_AREA,
) -> HueBounds:
    """Histogram the masked pointer's hue and take the peak +- 15 bins.

    Only the masked pixels are converted to HSV, and only those at or above
    the saturation floor vote; if fewer than half of them qualify the
    object is too gray to color-key and LowSaturationError is raised. Peak
    ties break toward the smallest bin.
    """
    mask = extract_mask(MaskRequest(background, with_pointer, min_area))
    hsv = rgb_to_hsv(RgbImage(with_pointer.pixels[mask.bits][:, None, :]))[:, 0]
    kept = hsv[hsv[:, 1] >= MIN_SATURATION, 0]
    if 2 * kept.size < mask.area:
        raise LowSaturationError(
            f"only {kept.size} of {mask.area} masked pixels reach "
            f"saturation {MIN_SATURATION}"
        )
    peak = int(np.argmax(np.bincount(kept, minlength=HUE_BINS)))
    lo = (peak - PEAK_MARGIN) % HUE_BINS
    hi = (peak + PEAK_MARGIN) % HUE_BINS
    return HueBounds(lo, hi)


def _in_interval(h: np.ndarray, bounds: HueBounds) -> np.ndarray:
    """Which hues lie in [lo, hi], wrapping through 0 when ``bounds.wraps``."""
    if bounds.wraps:
        return (h >= bounds.lo) | (h <= bounds.hi)
    return (h >= bounds.lo) & (h <= bounds.hi)


def hue_bounds_mask(hsv: np.ndarray, bounds: HueBounds) -> BinaryMask:
    """Pixels of an ``rgb_to_hsv`` array whose hue lies in the interval and
    whose saturation and value reach ``MIN_SATURATION`` and ``MIN_VALUE``."""
    return BinaryMask(_in_interval(hsv[..., 0], bounds)
                      & (hsv[..., 1] >= MIN_SATURATION) & (hsv[..., 2] >= MIN_VALUE))


@functools.cache
def _floor_thresholds() -> np.ndarray:
    """Smallest chroma ``delta = max - min`` that passes both floors, per
    value ``v = max(r, g, b)``; 256 where no delta passes.

    Built by running the reference ``rgb_to_hsv`` and ``hue_bounds_mask``
    (over every hue) on the 256x256 grid of colors (v, v - delta, v - delta).
    The floors depend on (v, delta) alone, and for a fixed v the saturation
    ``rint(255 * delta / v)`` never decreases as delta grows, so a pixel
    passes both floors exactly when ``delta >= table[v]``. Built once,
    shared between callers and marked read-only.
    """
    v = np.arange(256)[:, None]
    delta = np.arange(256)[None, :]
    low = np.clip(v - delta, 0, 255)
    grid = RgbImage(np.stack(np.broadcast_arrays(v, low, low), axis=2))
    any_hue = HueBounds(0, HUE_BINS - 1)
    passes = hue_bounds_mask(rgb_to_hsv(grid), any_hue).bits & (delta <= v)
    table = np.where(passes.any(axis=1), passes.argmax(axis=1), 256).astype(np.uint16)
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=8)
def _hue_passes(lo: int, hi: int) -> np.ndarray:
    """Flat 511x511 table over ``_hue_key``: is the hue of a color with
    channel differences (r - g, g - b) inside the interval [lo, hi]?

    ``rgb_to_hsv``'s hue depends on the channel differences alone, so every
    color has the hue of the color with its smallest channel lowered to 0,
    which has the same differences. Built by running the reference
    ``rgb_to_hsv`` and ``_in_interval``, the hue test of ``hue_bounds_mask``,
    on the three 256x256 faces of colors with a zero channel, a few rows at
    a time so that no temporary is large. Keys no 8-bit color reaches stay
    False. The result is shared between callers and marked read-only.
    """
    interval = HueBounds(lo, hi)
    table = np.zeros(511 * 511, dtype=bool)
    rows = 64  # slices of 16384 colors: no build temporary is large
    for zero in range(3):
        for row in range(0, 256, rows):
            face = np.zeros((rows, 256, 3), dtype=np.uint8)
            face[..., (zero + 1) % 3] = np.arange(row, row + rows)[:, None]
            face[..., (zero + 2) % 3] = np.arange(256)
            passes = _in_interval(rgb_to_hsv(RgbImage(face))[..., 0], interval)
            table[_hue_key(*np.moveaxis(face.astype(np.int32), 2, 0))] = passes
    table.flags.writeable = False
    return table


def _hue_key(r: np.ndarray, g: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Flat index of (r - g, g - b), each in -255..255, into ``_hue_passes``."""
    return (r - g + 255) * 511 + (g - b + 255)


def _keyed_indices(rgb: RgbImage, bounds: HueBounds) -> np.ndarray:
    """The color key of a frame: the sorted row-major flat indices
    ``np.flatnonzero(hue_bounds_mask(rgb_to_hsv(rgb), bounds).bits)``,
    computed from row bands of the frame's bytes and two tables built once
    from that reference, without converting any pixel to HSV.

    Each band of about ``_BAND_BYTES`` bytes is read as one contiguous byte
    run ``b``: ``max(b[i], b[i+1], b[i+2])`` and the matching min, taken over
    every byte, hold at byte ``3k`` pixel k's value ``v = max(r, g, b)`` and,
    as their difference, its chroma ``delta``. A strided compare gets no
    SIMD loop in numpy, so each band's chroma ``lo[::3]`` is copied once
    into a contiguous pixel-aligned buffer, where the compare runs. Pixels
    with ``delta`` below the smallest entry of ``_floor_thresholds`` cannot
    reach the floors and are dropped without a lookup; the rest are looked
    up at their value, read back as ``hi[3 * candidates]``, and a band with
    no candidate skips its lookup. The survivors' channels are gathered
    once, as int32, and their hue is tested by one lookup each in
    ``_hue_passes``, keyed on their channel differences.

    A mostly gray frame costs a few passes over its bytes, each band in
    cache, plus work in proportion to its few candidates; its bands with
    none make no lookup at all. A frame saturated everywhere adds a gather,
    a few integer passes and a lookup per pixel.
    """
    pixels = rgb.pixels
    height, width, _ = pixels.shape
    floor_table = _floor_thresholds()
    # fetched on every call, so a cold build lands in the first frame,
    # hit or miss, never in a later one
    hue_table = _hue_passes(bounds.lo, bounds.hi)
    floor = int(floor_table.min())  # no pixel below it reaches floor_table[v]
    band_rows = min(height, max(1, _BAND_BYTES // (3 * width)))
    # per call, not per module: concurrent calls share nothing writable
    hi_buf = np.empty(band_rows * width * 3 - 2, dtype=np.uint8)
    lo_buf = np.empty_like(hi_buf)
    delta_buf = np.empty(band_rows * width, dtype=np.uint8)
    parts = [np.empty(0, dtype=np.intp)]  # a frame with no candidate keys nothing
    for row in range(0, height, band_rows):
        b = pixels[row:row + band_rows].reshape(-1)  # a copy only if strided
        hi, lo = hi_buf[:b.size - 2], lo_buf[:b.size - 2]
        np.maximum(b[:-2], b[1:-1], out=hi)
        np.maximum(hi, b[2:], out=hi)
        np.minimum(b[:-2], b[1:-1], out=lo)
        np.minimum(lo, b[2:], out=lo)
        np.subtract(hi, lo, out=lo)
        delta = delta_buf[:b.size // 3]
        np.copyto(delta, lo[::3])  # pixel k's window starts at byte 3k
        candidates = np.flatnonzero(delta >= floor)
        if candidates.size == 0:
            continue  # a gray band: no lookup
        passes = delta[candidates] >= np.take(floor_table, hi[3 * candidates])
        parts.append(candidates[passes] + row * width)
    survivors = np.concatenate(parts)
    kept = np.take(pixels.reshape(-1, 3), survivors, axis=0)
    key = _hue_key(*kept.T.astype(np.int32, order="C"))
    return survivors[np.take(hue_table, key)]
