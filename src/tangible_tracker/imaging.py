"""Raster value types and the pixel-level primitives built on them.

Images are thin wrappers around row-major numpy arrays and are treated as
immutable after construction; every operation is a pure function returning
new values, so all of them are safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyMaskError

Point2 = tuple[float, float]
Point3 = tuple[float, float, float]

HUE_BINS = 180  # half-degree hue scale, 0..179
DEPTH_SAMPLE = np.dtype(">u2")  # big-endian uint16, the P5 depth file's sample order

EIGHT_CONNECTED = np.ones((3, 3), dtype=bool)  # for scipy.ndimage callers, e.g. perfbench


def _is_singular(matrix) -> bool:
    """Is numpy's determinant of the square matrix 0? Computed quietly:
    subnormal entries make it warn as it returns 0."""
    with np.errstate(all="ignore"):
        return bool(np.linalg.det(matrix) == 0.0)


def _samples(pixels, dtype: np.dtype) -> np.ndarray:
    """pixels in the sample dtype, converted by value: an array of that
    dtype is kept as it is, integer or bool values are converted when they
    all fit it, and anything else raises ValueError."""
    pixels = np.asarray(pixels)
    if not np.can_cast(pixels.dtype, dtype):
        info = np.iinfo(dtype)
        if pixels.dtype.kind not in "iu" or pixels.size and not (
                info.min <= pixels.min() and pixels.max() <= info.max):
            raise ValueError(f"pixels must be integers in {info.min}..{info.max}")
    return pixels.astype(dtype, copy=False)


@dataclass(frozen=True, eq=False)
class RgbImage:
    """8-bit RGB raster, pixels shaped (height, width, 3).

    Integer or boolean pixels of another dtype are converted by value when
    every value lies in 0..255; other pixels raise ValueError.
    """

    pixels: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "pixels", _samples(self.pixels, np.dtype(np.uint8)))
        if self.pixels.ndim != 3 or self.pixels.shape[2] != 3:
            raise ValueError("RgbImage expects pixels shaped (height, width, 3)")
        if self.pixels.shape[0] < 1 or self.pixels.shape[1] < 1:
            raise ValueError("image must be at least 1x1")

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


@dataclass(frozen=True, eq=False)
class DepthImage:
    """16-bit raw depth raster; 0 means no return (IR shadow).

    ``pixels`` is always big-endian uint16 (``DEPTH_SAMPLE``), the sample
    order of the P5 files depth is read from, so a raster read from a file
    is a view of its bytes and is never converted as a whole. Integer or
    boolean pixels of any other dtype are converted to it by value when
    every value lies in 0..65535; other pixels raise ValueError.
    """

    pixels: np.ndarray
    raw_to_mm: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "pixels", _samples(self.pixels, DEPTH_SAMPLE))
        if self.pixels.ndim != 2:
            raise ValueError("DepthImage expects pixels shaped (height, width)")
        if self.pixels.shape[0] < 1 or self.pixels.shape[1] < 1:
            raise ValueError("image must be at least 1x1")
        if not self.raw_to_mm > 0:
            raise ValueError("raw_to_mm must be positive")

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


@dataclass(frozen=True, eq=False)
class BinaryMask:
    """Boolean raster marking object pixels."""

    bits: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "bits", np.asarray(self.bits, dtype=bool))
        if self.bits.ndim != 2:
            raise ValueError("BinaryMask expects bits shaped (height, width)")

    @property
    def height(self) -> int:
        return self.bits.shape[0]

    @property
    def width(self) -> int:
        return self.bits.shape[1]

    @property
    def area(self) -> int:
        return int(self.bits.sum())


_IDENTITY = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


@dataclass(frozen=True, eq=False)
class AffineTransform:
    """2x3 matrix mapping depth-image pixel coordinates into RGB pixels."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", np.asarray(self.matrix, dtype=np.float64))
        if self.matrix.shape != (2, 3):
            raise ValueError("AffineTransform expects a 2x3 matrix")
        if not np.isfinite(self.matrix).all():
            raise ValueError("transform must be finite")
        if _is_singular(self.matrix[:, :2]):
            raise ValueError("singular transform")

    @staticmethod
    def identity() -> "AffineTransform":
        return AffineTransform(_IDENTITY.copy())


def rgb_to_hsv(img: RgbImage) -> np.ndarray:
    """Hexcone RGB to HSV: a uint8 array shaped like ``img.pixels`` holding
    hue on the 0..179 integer scale, 8-bit saturation and value.

    Gray pixels (r = g = b) get saturation 0 and hue 0 by convention.
    """
    r = img.pixels[..., 0].astype(np.int16)
    g = img.pixels[..., 1].astype(np.int16)
    b = img.pixels[..., 2].astype(np.int16)
    v = np.maximum(np.maximum(r, g), b)
    delta = v - np.minimum(np.minimum(r, g), b)

    # v == 0 implies delta == 0, so the guarded denominator is harmless
    sat = np.rint(255.0 * delta / np.maximum(v, 1)).astype(np.uint8)

    on_r = v == r
    on_g = (v == g) & ~on_r
    numer = np.where(on_r, g - b, np.where(on_g, b - r, r - g))
    base = np.where(on_r, 0.0, np.where(on_g, 60.0, 120.0))
    # gray pixels take the on_r branch with numer 0, so their hue is 0;
    # hue lies in -30..150 here, and one add of 180 wraps the negatives
    hue = np.rint(base + 30.0 * numer / np.maximum(delta, 1))
    np.add(hue, HUE_BINS, out=hue, where=hue < 0)
    hue = hue.astype(np.uint8)
    return np.stack([hue, sat, v.astype(np.uint8)], axis=2)


def abs_diff(a: RgbImage, b: RgbImage) -> np.ndarray:
    """Per-pixel channel-maximum absolute difference as one 8-bit plane."""
    if a.pixels.shape != b.pixels.shape:
        raise ValueError("images must have equal dimensions")
    # max - min is |a - b| without leaving uint8
    d = np.maximum(a.pixels, b.pixels)
    d -= np.minimum(a.pixels, b.pixels)
    return np.maximum(np.maximum(d[..., 0], d[..., 1]), d[..., 2])


def otsu_threshold(hist) -> int:
    """Smallest threshold t maximizing between-class variance of {<=t} / {>t}.

    Scores are compared as exact rationals so ties break toward the smallest
    t independent of float rounding. A histogram with all its mass in one
    bin has no valid split; the populated bin itself is returned.
    """
    counts = np.asarray(hist)
    if counts.shape != (256,):
        raise ValueError("expected a 256-bin histogram")
    counts = [int(c) for c in counts]
    if any(c < 0 for c in counts):
        raise ValueError("histogram counts must be non-negative")
    total = sum(counts)
    if total == 0:
        raise ValueError("empty histogram")
    total_sum = sum(i * c for i, c in enumerate(counts))

    # between-class variance at t is (s0*w1 - s1*w0)^2 / (w0*w1*total^2);
    # the constant total^2 is dropped and fractions compared cross-multiplied
    best_t = -1
    best_num = 0
    best_den = 1
    w0 = 0
    s0 = 0
    for t in range(256):
        w0 += counts[t]
        s0 += t * counts[t]
        w1 = total - w0
        if w0 == 0 or w1 == 0:
            continue
        split = s0 * w1 - (total_sum - s0) * w0
        num = split * split
        den = w0 * w1
        if best_t < 0 or num * best_den > best_num * den:
            best_t, best_num, best_den = t, num, den
    if best_t < 0:
        return next(i for i, c in enumerate(counts) if c)
    return best_t


def smooth_binary(mask: BinaryMask) -> BinaryMask:
    """3x3 majority vote (>= 5 of 9 set), zero padding at the borders."""
    h, w = mask.bits.shape
    padded = np.pad(mask.bits, 1).astype(np.uint8)
    votes = np.zeros((h, w), dtype=np.uint8)
    for dy in range(3):
        for dx in range(3):
            votes += padded[dy:dy + h, dx:dx + w]
    return BinaryMask(votes >= 5)


def _ranges(start: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The integer ranges [start, start + count), one after another."""
    return np.arange(count.sum()) + np.repeat(start - (np.cumsum(count) - count), count)


def _runs(flat: np.ndarray, width: int):
    """Maximal horizontal runs of the set pixels at sorted row-major flat
    indices, in row-major order of their first pixel: (row, first column,
    last column), each an array with one entry per run."""
    ends = np.flatnonzero((np.diff(flat) != 1) | (flat[1:] % width == 0))
    first = flat[np.concatenate(([0], ends + 1))]
    last = flat[np.append(ends, flat.size - 1)]
    row = first // width
    return row, first - row * width, last - row * width


def _components(a: np.ndarray, b: np.ndarray, count: int) -> np.ndarray:
    """Connected components of the graph on nodes 0 .. count - 1 with the
    edges a[i] - b[i]: each node's root is the smallest node of its
    component.

    Each round hooks every root onto the smallest root it touches, then
    jumps pointers until every node points at a root; a root only ever
    hooks onto a smaller index, so the component's smallest node stays its
    root.
    """
    root = np.arange(count)
    while True:
        ra, rb = root[a], root[b]
        split = ra != rb
        if not split.any():
            return root
        a, b, ra, rb = a[split], b[split], ra[split], rb[split]
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped


def _run_roots(row, c0, c1, width: int, diagonal: bool) -> np.ndarray:
    """Connected components of runs in row-major order: each run's root is
    the index of the first run of its component.

    Runs in adjacent rows touch when their column ranges overlap, widened by
    one column when ``diagonal`` (8-connectivity).
    """
    reach = int(diagonal)
    stride = width + 2  # keys of one row never reach the next row's
    base = row * stride + 1
    first, last = base + c0, base + c1
    # the runs b below run a with c0[b] <= c1[a] + reach and
    # c1[b] >= c0[a] - reach are one contiguous index range [lo, hi)
    lo = np.searchsorted(last, first + (stride - reach))
    hi = np.searchsorted(first, last + (stride + reach), side="right")
    count = np.maximum(hi - lo, 0)
    return _components(np.repeat(np.arange(row.size), count), _ranges(lo, count), row.size)


def _largest_run_component(flat: np.ndarray, width: int):
    """Runs of the largest 8-connected component of the set pixels at
    sorted row-major flat indices, in row-major order, and its area:
    (row, first column, last column, area). Area ties go to the component
    whose first pixel comes earliest in row-major order."""
    row, c0, c1 = _runs(flat, width)
    root = _run_roots(row, c0, c1, width, diagonal=True)
    areas = np.bincount(root, weights=c1 - c0 + 1)
    winner = int(np.argmax(areas))  # the first maximum: the smallest root
    keep = root == winner
    return row[keep], c0[keep], c1[keep], int(areas[winner])


def _gap_runs(row, c0, c1, height: int, width: int):
    """Runs of the pixels that the given runs leave unset, row-major."""
    lines = np.arange(height)
    rows = np.concatenate((lines, row, lines))
    # a run ending at column -1 opens every row, one starting at width ends it
    starts = np.concatenate((np.full(height, -1), c0, np.full(height, width)))
    ends = np.concatenate((np.full(height, -1), c1, np.full(height, width)))
    order = np.argsort(rows * (width + 2) + starts + 1, kind="stable")
    rows, starts, ends = rows[order], starts[order], ends[order]
    g0, g1 = ends[:-1] + 1, starts[1:] - 1
    keep = (rows[:-1] == rows[1:]) & (g0 <= g1)
    return rows[:-1][keep], g0[keep], g1[keep]


def largest_component(mask: BinaryMask) -> BinaryMask:
    """Largest 8-connected set component with its interior holes filled.

    A hole is a 4-connected unset region with no pixel on the image border.
    Both are found over horizontal runs of pixels: after one pass over the
    mask, the cost follows the number of runs and the area kept.
    """
    height, width = mask.bits.shape
    flat = np.flatnonzero(mask.bits)
    if flat.size == 0:
        raise EmptyMaskError("mask has no set pixels")
    row, c0, c1, _ = _largest_run_component(flat, width)

    g_row, g0, g1 = _gap_runs(row, c0, c1, height, width)
    g_root = _run_roots(g_row, g0, g1, width, diagonal=False)
    border = (g_row == 0) | (g_row == height - 1) | (g0 == 0) | (g1 == width - 1)
    hole = ~np.isin(g_root, g_root[border])
    row = np.concatenate((row, g_row[hole]))
    c0 = np.concatenate((c0, g0[hole]))
    c1 = np.concatenate((c1, g1[hole]))

    bits = np.zeros(height * width, dtype=bool)
    bits[_ranges(row * width + c0, c1 - c0 + 1)] = True
    return BinaryMask(bits.reshape(height, width))


def warp_affine(img: DepthImage, t: AffineTransform,
                box: tuple[int, int, int, int] | None = None) -> DepthImage:
    """Resample into the target frame by nearest neighbor.

    The target frame has the source's size. With ``box = (x, y, w, h)``,
    which must lie inside that frame, only the window's pixels are sampled
    and the w x h result equals that crop of the full warp: each pixel is
    computed alone, by the same float operations. The identity transform
    returns a view of the source and samples nothing.

    Destination pixels that map outside the source get raw value 0, which
    downstream consumers already treat as no-data.
    """
    h, w = img.pixels.shape
    x, y, bw, bh = (0, 0, w, h) if box is None else box
    if bw < 1 or bh < 1 or x < 0 or y < 0 or x + bw > w or y + bh > h:
        raise ValueError("box must lie within the frame")
    if np.array_equal(t.matrix, _IDENTITY):
        return DepthImage(img.pixels[y:y + bh, x:x + bw], img.raw_to_mm)

    inv = np.linalg.inv(t.matrix[:, :2])
    offset = t.matrix[:, 2]

    # x offsets as a row and y offsets as a column broadcast to the box
    dx = np.arange(x, x + bw, dtype=np.float64) - offset[0]
    dy = (np.arange(y, y + bh, dtype=np.float64) - offset[1])[:, None]
    sx = np.rint(inv[0, 0] * dx + inv[0, 1] * dy).astype(np.int64)
    sy = np.rint(inv[1, 0] * dx + inv[1, 1] * dy).astype(np.int64)
    ok = (sx >= 0) & (sx < w) & (sy >= 0) & (sy < h)

    # one flat gather, which np.take makes from any memory layout; pixels
    # off the source read pixel 0 and are then zeroed
    out = np.take(img.pixels, np.where(ok, sy * w + sx, 0))
    out[~ok] = 0
    return DepthImage(out, img.raw_to_mm)

