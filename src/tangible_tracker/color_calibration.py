"""Derive the pointer's hue interval under the current lighting.

The pointer is isolated with a background-pair mask, its hue histogram is
peaked, and the calibrated interval is the peak widened by 15 bins on each
side (wrapping through 0 when needed), so the same object keys reliably as
room lighting drifts. The interval is all that is calibrated: the key's
saturation and value floors are the constants ``MIN_SATURATION`` and
``MIN_VALUE``. ``_keyed_indices`` applies the key to a frame through the
one table of ``key_tables``, which holds, per hue key, the largest value at
which a color passes both floors; ``hue_bounds_mask`` of ``rgb_to_hsv`` is
its reference.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass

import numpy as np

from .errors import LowSaturationError
from .imaging import HUE_BINS, BinaryMask, RgbImage, rgb_to_hsv
from .mask_extraction import DEFAULT_MIN_AREA, MaskRequest, extract_mask

log = logging.getLogger(__name__)

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
    log.info("pointer mask %d px, %d pass both floors, hue peak bin %d",
             mask.area, kept.size, peak)
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


def _value_ceilings() -> np.ndarray:
    """Largest value ``v = max(r, g, b)`` at which a color of chroma
    ``delta = max - min`` passes both floors, per delta; 0 where no value
    does.

    Built by running the reference ``rgb_to_hsv`` and ``hue_bounds_mask``
    (over every hue) on the 256x256 grid of colors (v, v - delta, v - delta).
    The floors depend on (v, delta) alone, and for a fixed delta the
    saturation ``rint(255 * delta / v)`` never rises as v grows, so the
    values that pass are the one run from ``max(MIN_VALUE, delta)`` to
    ``ceiling[delta]``. Every color has ``v >= delta``, so a color passes
    both floors exactly when ``MIN_VALUE <= v <= ceiling[delta]``.
    """
    v = np.arange(256)[:, None]
    delta = np.arange(256)[None, :]
    low = np.clip(v - delta, 0, 255)
    grid = RgbImage(np.stack(np.broadcast_arrays(v, low, low), axis=2))
    passes = hue_bounds_mask(rgb_to_hsv(grid), _ANY_HUE).bits & (delta <= v)
    last = 255 - passes[::-1].argmax(axis=0)  # the largest passing v of each delta
    return np.where(passes.any(axis=0), last, 0).astype(np.uint8)


def _hue_key(r: np.ndarray, g: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Flat index of (r - g, g - b), each in -255..255, into the key's table."""
    return (r - g + 255) * 511 + (g - b + 255)


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


def _channel_sets(table: np.ndarray) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The channels, as byte offsets in a pixel (0 = r, 1 = g, 2 = b), that
    ``_keyed_indices`` takes a pixel's max and its min over under the key
    ``table`` of ``key_tables``: ``(peaks, bottoms)``.

    A keyed key is one whose entry is not 0: only such keys belong to
    pixels the key can keep. Its channel differences (r - g, g - b) fix
    both the chroma and the order of the channels, read with sign tests on
    r - g, g - b and r - b. ``peaks`` holds every channel that is a largest
    channel of some keyed key, ``bottoms`` every channel that is a smallest
    one. So over a keyed pixel's channels, the max over ``peaks`` minus the
    min over ``bottoms`` is its chroma. If the two sets share no channel,
    the first channel of ``peaks`` joins ``bottoms``: a channel in both
    keeps that max at or above that min at every pixel, so the difference
    lies between 0 and the pixel's chroma.
    """
    rg, gb = np.divmod(np.flatnonzero(table), 511)
    rg -= 255
    gb -= 255
    rb = rg + gb

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


@functools.lru_cache(maxsize=8)
def key_tables(bounds: HueBounds) -> tuple[np.ndarray, int,
                                           tuple[int, ...], tuple[int, ...]]:
    """The key for ``bounds``: ``(table, floor, peaks, bottoms)``.

    ``table`` is a flat 511x511 uint8 table over ``_hue_key``. At the
    channel differences (r - g, g - b) of a color whose hue lies in the
    interval it holds the ceiling (see ``_value_ceilings``) of the color's
    chroma, elsewhere 0, so a color is keyed exactly when ``MIN_VALUE <= v
    <= table[key]``. ``rgb_to_hsv``'s hue and the chroma depend on the
    channel differences alone, so every color shares both with the color
    that has its smallest channel lowered to 0, whose value is its chroma.
    The table is built by running the reference ``rgb_to_hsv`` and
    ``_in_interval``, the hue test of ``hue_bounds_mask``, on the three
    256x256 faces of colors with a zero channel, a few rows at a time; keys
    no 8-bit color has stay 0. ``floor`` is the smallest chroma at which
    any value passes both floors (10), and ``peaks`` and ``bottoms`` are
    the channel sets of ``_channel_sets``, on which each band is keyed.

    Built by the first call per interval and cached, so a caller that
    times frames calls this before the first one. The table is marked
    read-only; the sets are tuples, which no caller can change.
    """
    ceilings = _value_ceilings()
    table = np.zeros(511 * 511, dtype=np.uint8)
    rows = 64  # slices of 16384 colors: no build temporary is large
    for zero in range(3):
        for row in range(0, 256, rows):
            face = np.zeros((rows, 256, 3), dtype=np.uint8)
            face[..., (zero + 1) % 3] = np.arange(row, row + rows)[:, None]
            face[..., (zero + 2) % 3] = np.arange(256)
            hsv = rgb_to_hsv(RgbImage(face))
            table[_hue_key(*np.moveaxis(face.astype(np.int32), 2, 0))] = np.where(
                _in_interval(hsv[..., 0], bounds), ceilings[hsv[..., 2]], 0)
    table.flags.writeable = False
    return (table, int(np.flatnonzero(ceilings)[0]), *_channel_sets(table))


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
    computed from row bands of the frame's bytes and the table of
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
    them. A band whose masked max is below ``floor``, the smallest chroma
    at which any value passes both floors, holds no pixel that can reach
    the floors, and is done after that AND and one max. In any other
    band, a strided compare gets no SIMD loop in numpy, so ``A - B`` at
    the pixel windows is copied once into a contiguous pixel-aligned
    buffer, where the compare finds the band's candidates: pixels whose
    ``A - B`` reaches ``floor``. That is all a band does. Since ``A - B`` is at most the chroma,
    and equal to it at every pixel that can be keyed, the skipped bands
    and the candidates are those of the full max and min over all three
    channels, less pixels that cannot be keyed.

    After the last band, the channels of every candidate of the frame are
    gathered once, as int32, and the floors and the hue are decided
    together by one lookup in the table, keyed on the channel differences,
    and two compares: ``MIN_VALUE <= v <= table[key]``. The entry is the
    largest value at which the key's chroma passes both floors, or 0 off
    the interval, and the values that pass at one chroma are one run that
    starts at ``MIN_VALUE`` or at the chroma (see ``_value_ceilings``).

    A band with no candidate pays the passes, each in cache, and makes no
    copy or compare, and a frame with no candidate makes no gather. A band
    with a candidate pays the copy and the compare on top; the frame then
    pays one gather and a few integer passes over its candidates. A frame
    saturated everywhere pays those passes over every pixel, and so does,
    nearly, a gray frame whose sensor noise reaches ``floor`` in every
    band.
    """
    pixels = rgb.pixels
    height, width, _ = pixels.shape
    table, floor, peaks, bottoms = key_tables(bounds)
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
    ceiling = np.take(table, _hue_key(r, g, b))
    return candidates[(v >= MIN_VALUE) & (v <= ceiling)]
