"""Corner detection for convex masks.

``cminmax_corners`` finds the vertices of a convex polygon mask from the
coordinate extremes of its set pixels under a small schedule of rotations,
then merges the candidates into bunches; it never reads pixel values, only
set-pixel coordinates, which is what makes it cheap. ``harris_corners`` is
a conventional structure-tensor detector kept as the benchmark baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMaskError, EmptyMaskError
from .imaging import BinaryMask, Point2, _components

HARRIS_K = 0.04
HARRIS_SIGMA = 1.0
HARRIS_REL_THRESHOLD = 0.01


@dataclass(frozen=True)
class CMinMaxParams:
    """n is the expected maximum vertex count."""

    n: int = 4

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("n must be at least 3")


@dataclass(frozen=True)
class CornerSet:
    corners: tuple[Point2, ...]
    fallback_used: bool


def _extreme_indices(x: np.ndarray, y: np.ndarray) -> list[int]:
    """Indices of both tie-run endpoints at each of the four extremes.

    For an extreme shared by several points (an axis-aligned edge), the run
    endpoints are the true vertices; a lone extreme point is simply emitted
    twice. Always returns 8 indices.
    """
    out = []
    for primary, secondary in ((x, y), (y, x)):
        for val in (primary.min(), primary.max()):
            run = np.flatnonzero(primary == val)
            sec = secondary[run]
            out.append(int(run[np.argmin(sec)]))
            out.append(int(run[np.argmax(sec)]))
    return out


def _clusters(candidates: np.ndarray, eps: float) -> list[tuple[np.ndarray, int]]:
    """Single-linkage clusters at distance eps.

    Returns (centroid, member_count) pairs ordered by first appearance in
    the candidate list, which keeps results stable across runs.
    """
    d2 = ((candidates[:, None, :] - candidates[None, :, :]) ** 2).sum(axis=2)
    root = _components(*np.nonzero(d2 <= eps * eps), len(candidates))
    # a component's root is its first member, so ascending roots are in
    # order of first appearance
    roots, counts = np.unique(root, return_counts=True)
    return [(candidates[root == r].mean(axis=0), int(c)) for r, c in zip(roots, counts)]


def cminmax_corners(mask: BinaryMask, params: CMinMaxParams) -> CornerSet:
    """Detect up to n corners of a convex mask from rotated coordinate extremes.

    For k = 0 .. int(n/2)-1 the set-pixel coordinates are rotated about the
    mask centroid by k*pi/n, the extremes collected, and the candidates
    rotated back; the bunches' centroids are the corners. If fewer than n
    bunches appear, one retry shifts every angle by -pi/(2n) and the attempt
    with more bunches wins (ties keep the first).
    """
    n = params.n

    ys, xs = np.nonzero(mask.bits)
    if xs.size < n:
        raise DegenerateMaskError(f"mask has {xs.size} set pixels, need >= {n}")

    # work in bounding-box-local coordinates so that translating the mask
    # translates every detected corner by exactly the same integer offset
    ox = int(xs.min())
    oy = int(ys.min())
    xf = (xs - ox).astype(np.float64)
    yf = (ys - oy).astype(np.float64)

    dx = xf - xf.mean()
    dy = yf - yf.mean()
    # count**2 times the coordinates' covariance, from sums of the local
    # coordinates: einsum sums without BLAS, whose threads spin on a busy
    # host, and sums of integer-valued floats are exact below 2**53, which
    # holds for masks up to 8192 pixels a side
    count, sx, sy = xs.size, int(xf.sum()), int(yf.sum())
    cxy = count * int(np.einsum("i,i", xf, yf)) - sx * sy
    cov = np.array([[count * int(np.einsum("i,i", xf, xf)) - sx * sx, cxy],
                    [cxy, count * int(np.einsum("i,i", yf, yf)) - sy * sy]],
                   dtype=np.float64)
    _, evecs = np.linalg.eigh(cov)
    if np.abs(dx * evecs[0, 0] + dy * evecs[1, 0]).max() < 1.0:
        raise DegenerateMaskError("set pixels are collinear within 1 px")

    # candidates closer than eps merge into one corner
    eps = max(3.0, 0.01 * math.hypot(float(xf.max()), float(yf.max())))

    n_passes = n // 2

    def run_attempt(offset: float) -> list[tuple[np.ndarray, int]]:
        # selecting indices in the rotated frame and reading the original
        # coordinates back is the exact rotate / pick extremes / unrotate
        # round trip, without its floating-point residue
        picked: list[int] = []
        for k in range(n_passes):
            theta = k * math.pi / n + offset
            c, s = math.cos(theta), math.sin(theta)
            picked.extend(_extreme_indices(c * dx - s * dy, s * dx + c * dy))
        candidates = np.column_stack([xf[picked], yf[picked]])
        return _clusters(candidates, eps)

    chosen = run_attempt(0.0)
    fallback = len(chosen) < n
    if fallback:
        retry = run_attempt(-math.pi / (2 * n))
        if len(retry) > len(chosen):
            chosen = retry

    if len(chosen) > n:
        # more bunches than requested corners: keep the n best supported,
        # preserving first-appearance order
        keep = sorted(sorted(range(len(chosen)),
                             key=lambda i: (-chosen[i][1], i))[:n])
        chosen = [chosen[i] for i in keep]

    corners = tuple((float(cx) + ox, float(cy) + oy) for (cx, cy), _ in chosen)
    return CornerSet(corners, fallback)


def mask_centroid(mask: BinaryMask) -> Point2:
    """Arithmetic mean of the set-pixel coordinates."""
    ys, xs = np.nonzero(mask.bits)
    if xs.size == 0:
        raise EmptyMaskError("mask has no set pixels")
    return (float(xs.mean()), float(ys.mean()))


def harris_corners(gray: np.ndarray, max_corners: int) -> list[Point2]:
    """Structure-tensor corner response, strongest peaks first.

    Sobel gradients, Gaussian window sigma 1, k = 0.04, 3x3 non-maximum
    suppression, positive responses above 1% of the peak. May return fewer
    than max_corners points.
    """
    # the only scipy user: tracking and calibration start without it
    from scipy import ndimage

    img = np.asarray(gray, dtype=np.float64)
    if img.ndim != 2 or min(img.shape) < 5:
        raise ValueError("expected a grayscale image at least 5x5")

    ix = ndimage.sobel(img, axis=1, mode="reflect")
    iy = ndimage.sobel(img, axis=0, mode="reflect")
    sxx = ndimage.gaussian_filter(ix * ix, HARRIS_SIGMA, mode="reflect")
    syy = ndimage.gaussian_filter(iy * iy, HARRIS_SIGMA, mode="reflect")
    sxy = ndimage.gaussian_filter(ix * iy, HARRIS_SIGMA, mode="reflect")
    resp = sxx * syy - sxy * sxy - HARRIS_K * (sxx + syy) ** 2

    peak = resp.max()
    if peak <= 0:
        return []
    maxima = (resp == ndimage.maximum_filter(resp, size=3)) \
        & (resp > HARRIS_REL_THRESHOLD * peak)
    ys, xs = np.nonzero(maxima)
    order = np.argsort(-resp[ys, xs], kind="stable")[:max_corners]
    return [(float(x), float(y)) for x, y in zip(xs[order], ys[order])]
