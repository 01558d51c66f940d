"""Derive the pointer's hue interval under the current lighting.

The pointer is isolated with a background-pair mask, its hue histogram is
peaked, and the calibrated interval is the peak widened by 15 bins on each
side (wrapping through 0 when needed), so the same object keys reliably as
room lighting drifts. The interval is all that is calibrated: the key's
saturation and value floors are the constants ``MIN_SATURATION`` and
``MIN_VALUE``. ``_keyed_indices`` applies the key to a frame through the
tables of ``key_tables``; ``hue_bounds_mask`` of ``rgb_to_hsv`` is its
reference.
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


_ANY_HUE = HueBounds(0, HUE_BINS - 1)  # under it, hue_bounds_mask tests the floors alone


def calibrate_hue_bounds(
    background: RgbImage,
    with_pointer: RgbImage,
    *,
    min_area: int = DEFAULT_MIN_AREA,
) -> HueBounds:
    """Histogram the masked pointer's hue and take the peak +- 15 bins.

    Only the masked pixels are converted to HSV, and only those that pass
    both of the key's floors vote, as ``hue_bounds_mask`` over the whole hue
    circle decides: a pixel the key can never keep does not shape the
    interval. If fewer than half of them pass, the object is too gray or
    too dark to color-key and LowSaturationError is raised. Peak ties break
    toward the smallest bin.
    """
    mask = extract_mask(MaskRequest(background, with_pointer, min_area))
    hsv = rgb_to_hsv(RgbImage(with_pointer.pixels[mask.bits][:, None, :]))
    kept = hsv[..., 0][hue_bounds_mask(hsv, _ANY_HUE).bits]
    if 2 * kept.size < mask.area:
        raise LowSaturationError(
            f"only {kept.size} of {mask.area} masked pixels reach "
            f"saturation {MIN_SATURATION} and value {MIN_VALUE}"
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
    passes = hue_bounds_mask(rgb_to_hsv(grid), _ANY_HUE).bits & (delta <= v)
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


@functools.lru_cache(maxsize=8)
def _window_starts(size: int) -> np.ndarray:
    """``size`` bytes, ``0xFF`` at every byte ``3k`` and 0 at the others.

    ANDed with a band's window chroma, it keeps the window at byte ``3k``,
    which is pixel k's own, and zeroes the two windows after it, which
    straddle two pixels. A prefix of it is the mask of any shorter band.
    Shared between callers and marked read-only.
    """
    mask = np.zeros(size, dtype=np.uint8)
    mask[::3] = 0xFF
    mask.flags.writeable = False
    return mask


def _hue_key(r: np.ndarray, g: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Flat index of (r - g, g - b), each in -255..255, into ``_hue_passes``."""
    return (r - g + 255) * 511 + (g - b + 255)


@functools.lru_cache(maxsize=8)
def _channel_sets(lo: int, hi: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The channels, as byte offsets in a pixel (0 = r, 1 = g, 2 = b), that
    ``_keyed_indices`` takes a pixel's max and its min over under the
    interval [lo, hi]: ``(peaks, bottoms)``.

    A keyed key is a key of ``_hue_passes(lo, hi)`` that passes the hue test
    and whose chroma reaches ``_floor_thresholds().min()``; only such keys
    belong to pixels the key can keep. Its channel differences (r - g,
    g - b) fix both the chroma and the order of the channels, read with
    sign tests on r - g, g - b and r - b. ``peaks`` holds every channel that
    is a largest channel of some keyed key, ``bottoms`` every channel that
    is a smallest one. So over a keyed pixel's channels, the max over
    ``peaks`` minus the min over ``bottoms`` is its chroma. If the two sets
    share no channel, the first channel of ``peaks`` joins ``bottoms``: a
    channel in both keeps that max at or above that min at every pixel, so
    the difference lies between 0 and the pixel's chroma. Built once per
    interval and cached; the sets are tuples, which no caller can change.
    """
    keys = np.flatnonzero(_hue_passes(lo, hi))
    rg, gb = np.divmod(keys, 511)
    rg -= 255
    gb -= 255
    rb = rg + gb
    chroma = np.maximum(np.maximum(np.abs(rg), np.abs(gb)), np.abs(rb))
    keyed = chroma >= int(_floor_thresholds().min())
    rg, gb, rb = rg[keyed], gb[keyed], rb[keyed]

    def largest(rg, gb, rb):
        return tuple(c for c, peak in enumerate(((rg >= 0) & (rb >= 0),
                                                 (rg <= 0) & (gb >= 0),
                                                 (gb <= 0) & (rb <= 0)))
                     if peak.any())

    # a smallest channel is a largest one of the negated color
    peaks, bottoms = largest(rg, gb, rb), largest(-rg, -gb, -rb)
    if not set(peaks) & set(bottoms):
        bottoms = tuple(sorted(bottoms + peaks[:1]))
    return peaks, bottoms


def key_tables(bounds: HueBounds) -> tuple[np.ndarray, np.ndarray,
                                           tuple[int, ...], tuple[int, ...]]:
    """The key's tables for ``bounds``: ``_floor_thresholds()``,
    ``_hue_passes(bounds.lo, bounds.hi)`` and the two channel sets of
    ``_channel_sets(bounds.lo, bounds.hi)``, on which each band is keyed.
    Each is built by its first call and cached, so a caller that times
    frames calls this before the first one to keep the builds out of the
    frame's time."""
    return (_floor_thresholds(), _hue_passes(bounds.lo, bounds.hi),
            *_channel_sets(bounds.lo, bounds.hi))


def _window_extreme(ufunc, b: np.ndarray, offsets: tuple[int, ...],
                    out: np.ndarray) -> np.ndarray:
    """``ufunc`` (``np.maximum`` or ``np.minimum``) over the ``out.size``
    byte windows of ``b`` at each of ``offsets``: byte i of the result reads
    ``b[i + offset]`` for every offset. One offset is a view of ``b``;
    more are written to ``out``, one pass per further offset."""
    first, *rest = offsets
    acc = b[first:first + out.size]
    for offset in rest:
        acc = ufunc(acc, b[offset:offset + out.size], out=out)
    return acc


def _keyed_indices(rgb: RgbImage, bounds: HueBounds) -> np.ndarray:
    """The color key of a frame: the sorted row-major flat indices
    ``np.flatnonzero(hue_bounds_mask(rgb_to_hsv(rgb), bounds).bits)``,
    computed from row bands of the frame's bytes and the tables of
    ``key_tables``, without converting any pixel to HSV.

    Each band of about ``_BAND_BYTES`` bytes is read as one contiguous byte
    run ``b``, and read at byte ``3k`` it holds pixel k's channels at
    ``b[3k]``, ``b[3k + 1]`` and ``b[3k + 2]``. The band's pass takes, at
    every byte i, ``A``, the max of ``b[i + c]`` over the channels c of the
    interval's ``peaks``, and ``B``, the min over its ``bottoms`` (see
    ``_channel_sets``), and reads ``A - B``. At byte ``3k`` that is, for
    every pixel that can be keyed, its chroma ``delta = max - min``, and
    for any pixel a value from 0 to its chroma, so it never wraps. A
    calibrated interval of 31 bins meets at most two of the hue sectors in
    which one channel is the largest, and two in which one is the smallest,
    so its sets hold four channels between them: one max and one min pass,
    or two mins and no max, five byte passes with the subtract, the AND and
    the max below. The full interval (0, 179) takes all three channels in
    both sets, and seven. The two windows between,
    at bytes ``3k + 1`` and ``3k + 2``, straddle two pixels and read a value
    no pixel has, so ``A - B`` is ANDed with ``_window_starts``, which zeroes
    them. A band whose masked max is below the smallest entry of
    ``_floor_thresholds`` holds no pixel that can reach the floors, and is
    done after that AND and one max. In any other band, a strided compare
    gets no SIMD loop in numpy, so ``A - B`` at the pixel windows is copied
    once into a contiguous pixel-aligned buffer, where the compare finds
    the band's candidates: pixels whose ``A - B`` reaches that smallest
    entry. That is all a band does. Since ``A - B`` is at most the chroma,
    and equal to it at every pixel that can be keyed, the skipped bands
    and the candidates are those of the full max and min over all three
    channels, less pixels that cannot be keyed.

    After the last band, the channels of every candidate of the frame are
    gathered once, as int32, and the floors and the hue are decided
    together: ``v`` and ``delta`` from the channels, the floor test
    ``delta >= floor_table[v]`` and the hue test, one lookup in
    ``_hue_passes`` keyed on the channel differences.

    A band with no candidate pays the passes, each in cache, and makes no
    copy or compare, and a frame with no candidate makes no gather. A band
    with a candidate pays the copy and the compare on top; the frame then
    pays one gather and a few integer passes over its candidates. A frame
    saturated everywhere pays those passes over every pixel, and so does,
    nearly, a gray frame whose sensor noise reaches the smallest floor
    chroma in every band.
    """
    pixels = rgb.pixels
    height, width, _ = pixels.shape
    floor_table, hue_table, peaks, bottoms = key_tables(bounds)
    floor = int(floor_table.min())  # no pixel below it reaches floor_table[v]
    band_rows = min(height, max(1, _BAND_BYTES // (3 * width)))
    # per call, not per module: concurrent calls share nothing writable
    hi_buf = np.empty(band_rows * width * 3 - 2, dtype=np.uint8)
    lo_buf = np.empty_like(hi_buf)
    delta_buf = np.empty(band_rows * width, dtype=np.uint8)
    starts = _window_starts(hi_buf.size)
    parts = []
    for row in range(0, height, band_rows):
        b = pixels[row:row + band_rows].reshape(-1)  # a copy only if strided
        hi, lo = hi_buf[:b.size - 2], lo_buf[:b.size - 2]
        # A - B: no wrap, as peaks and bottoms share a channel
        np.subtract(_window_extreme(np.maximum, b, peaks, hi),
                    _window_extreme(np.minimum, b, bottoms, lo), out=lo)
        np.bitwise_and(lo, starts[:lo.size], out=lo)  # pixel windows only
        if lo.max() < floor:
            continue  # a gray band: no copy or compare
        delta = delta_buf[:b.size // 3]
        np.copyto(delta, lo[::3])  # pixel k's window starts at byte 3k
        candidates = np.flatnonzero(delta >= floor)
        candidates += row * width
        parts.append(candidates)
    if not parts:
        return np.empty(0, dtype=np.intp)
    candidates = np.concatenate(parts)
    kept = np.take(pixels.reshape(-1, 3), candidates, axis=0)
    r, g, b = kept.T.astype(np.int32, order="C")
    v = np.maximum(np.maximum(r, g), b)
    delta = v - np.minimum(np.minimum(r, g), b)
    passes = delta >= np.take(floor_table, v)
    passes &= np.take(hue_table, _hue_key(r, g, b))
    return candidates[passes]
