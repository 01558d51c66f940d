"""Per-frame pointer localization.

Each frame finds the pointer blob by its calibrated color, reads a
filtered depth from the depth pixels that the profile's alignment maps
into the blob's bounding box (a slice of the depth frame when the
alignment is an integer translation, the identity included), shifts the
observed pixel to its marker-plane footprint to undo parallax, and maps
the result into virtual coordinates. Frames are independent: the result
is a pure function of the frame, its search hint (``FramePair.near``, the
box where the caller last saw the ball) and an immutable calibration
profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .color_calibration import HueBounds, _keyed_indices
from .errors import InvalidHeightError, NoDepthError, NonFiniteError, NoPointerError
from .imaging import (
    AffineTransform,
    DepthImage,
    Point2,
    Point3,
    RgbImage,
    _largest_run_component,
)
from .registration import CalibrationProfile, projective_map

MIN_POINTER_PIXELS = 20
BACKGROUND_FACTOR = 1.10  # depth samples above this multiple of the mean are background
HEIGHT_SLACK = 0.02  # fraction of camera height forgiven below the plane

BBox = tuple[int, int, int, int]  # x, y, w, h

_IDENTITY_LINEAR = [[1.0, 0.0], [0.0, 1.0]]


@dataclass(frozen=True)
class PointerFix:
    """One frame's result: observed pixel, the blob's bounding box (the
    next frame's search hint), depth, corrected real and virtual
    coordinates."""

    pixel: Point2
    box: BBox
    depth_mm: float
    real: Point3
    virtual: Point3


@dataclass(frozen=True, eq=False)
class FramePair:
    """RGB frame plus the depth frame as read, in depth pixels.

    Both frames must have the same size, so every box found in ``rgb`` lies
    within ``depth``; ``track_frame`` maps the box's pixels to depth pixels
    through the inverse of the profile's ``depth_to_rgb``. ``near``, a box
    in RGB pixels such as the last fix's ``PointerFix.box``, is where the
    search for the pointer starts (see ``detect_pointer_2d``).
    """

    rgb: RgbImage
    depth: DepthImage
    near: BBox | None = None

    def __post_init__(self):
        if (self.rgb.height, self.rgb.width) != (self.depth.height, self.depth.width):
            raise ValueError("rgb and depth dimensions must match")


def _region_blob(rgb: RgbImage, bounds: HueBounds,
                 x0: int, y0: int, x1: int, y1: int) -> tuple[BBox | None, int]:
    """The largest in-bounds color blob of the frame's region ``[x0, x1) x
    [y0, y1)``: its bounding box, in frame coordinates, and its area.

    The key reads the region as a slice of the frame and makes the only
    copy, of a window (see ``_keyed_indices``). The box is None when
    nothing passes the color key (area 0), and when it touches a region
    edge that is not also a frame edge: a blob cut there may go on outside
    the region, so the whole frame never trips that rule.
    """
    keyed = _keyed_indices(RgbImage(rgb.pixels[y0:y1, x0:x1]), bounds)
    if keyed.size == 0:
        return None, 0
    row, c0, c1, area = _largest_run_component(keyed, x1 - x0)
    # the runs are in row-major order
    bx0, by0 = x0 + int(c0.min()), y0 + int(row[0])
    bx1, by1 = x0 + int(c1.max()) + 1, y0 + int(row[-1]) + 1
    if bx0 == x0 > 0 or by0 == y0 > 0 or bx1 == x1 < rgb.width or by1 == y1 < rgb.height:
        return None, area
    return (bx0, by0, bx1 - bx0, by1 - by0), area


def detect_pointer_2d(rgb: RgbImage, bounds: HueBounds,
                      near: BBox | None = None) -> tuple[Point2, BBox]:
    """Locate the pointer as the largest in-bounds color blob.

    Returns the blob's center and its bounding rectangle, in frame
    coordinates. With ``near`` (the last fix's box), the frame is keyed
    first inside a search window: ``near`` grown by its own width and
    height on each side and clipped to the frame. The window's blob stands
    if ``_region_blob`` gives it a box and it reaches MIN_POINTER_PIXELS;
    otherwise, and when the window is empty, the whole frame is keyed. So
    a frame with one blob gets the same answer with any ``near``; where a
    larger blob of the same hue lies outside the window, the window's own
    blob wins. Raises NoPointerError when the whole frame's largest blob
    is below MIN_POINTER_PIXELS, none included.
    """
    box, area = None, 0
    if near is not None:
        x, y, w, h = near
        x0, y0 = max(x - w, 0), max(y - h, 0)
        x1, y1 = min(x + 2 * w, rgb.width), min(y + 2 * h, rgb.height)
        if x0 < x1 and y0 < y1:  # else the window misses the frame, or near is degenerate
            box, area = _region_blob(rgb, bounds, x0, y0, x1, y1)
    if box is None or area < MIN_POINTER_PIXELS:
        box, area = _region_blob(rgb, bounds, 0, 0, rgb.width, rgb.height)
        if area < MIN_POINTER_PIXELS:
            raise NoPointerError(
                f"largest in-bounds blob is {area} px, need >= {MIN_POINTER_PIXELS}"
            )
    x0, y0, w, h = box
    center = (x0 + (w - 1) / 2.0, y0 + (h - 1) / 2.0)
    return center, box


def _filtered_depth_mm(samples: np.ndarray, raw_to_mm: float) -> float:
    """``estimate_pointer_depth``'s two-pass filter over raw samples of any
    shape.

    Both passes count and sum integers over one native uint16 copy of the
    samples, taken as Python ints. The sums stay below 2**53, where float
    addition is exact in any order, so each ``sum / count`` is the float
    numpy's mean of the same samples gives, and the result is a Python
    float, which overflows to inf quietly where numpy's would warn.
    """
    values = samples.astype(np.uint16)
    count = int(np.count_nonzero(values))
    if count == 0:
        raise NoDepthError("pointer region is entirely in IR shadow")
    keep = values <= BACKGROUND_FACTOR * (int(values.sum()) / count)
    # zeros are kept too, adding nothing to the sum; the smallest nonzero
    # sample is at most the mean, so at least one nonzero sample is kept
    kept = int(np.count_nonzero(keep)) - (values.size - count)
    return int(values.sum(where=keep)) / kept * raw_to_mm


def estimate_pointer_depth(depth: DepthImage, bbox: BBox) -> float:
    """Two-pass filtered depth of the pointer crop, scaled by
    ``depth.raw_to_mm``.

    The first pass averages nonzero samples; anything more than 10% above
    that average is background and is dropped; the surviving samples'
    average, times ``depth.raw_to_mm``, is the answer. That is millimeters
    only when the image carries the rig's scale: ``pnm.read_depth(path)``
    leaves it at 1.0, so a frame read that way gives raw units.
    ``track_frame`` does not call this; it scales by the profile's
    ``raw_to_mm`` instead.
    """
    x, y, w, h = bbox
    if w < 1 or h < 1 or x < 0 or y < 0 or x + w > depth.width or y + h > depth.height:
        raise ValueError("bbox must lie within the depth image")
    return _filtered_depth_mm(depth.pixels[y:y + h, x:x + w], depth.raw_to_mm)


def _box_depth_samples(depth: DepthImage, to_rgb: AffineTransform, box: BBox) -> np.ndarray:
    """The raw depth samples under an RGB-frame box that lies within the
    depth frame's size, in the box's row-major order.

    Each box pixel maps through the inverse of ``to_rgb`` to its nearest
    depth pixel; box pixels that map off the depth frame are left out. An
    integer translation, the identity included, maps the box to the box
    shifted by the negated offsets, so it returns a view of that box
    clipped to the depth frame and samples nothing; every other affine
    gathers its samples one by one.
    """
    x, y, w, h = box
    linear = to_rgb.matrix[:, :2].tolist()
    tx, ty = to_rgb.matrix[:, 2].tolist()
    if linear == _IDENTITY_LINEAR and tx.is_integer() and ty.is_integer():
        sx, sy = x - int(tx), y - int(ty)
        # slicing clips the ends past the frame; only the negative ones need it
        return depth.pixels[max(sy, 0):max(sy + h, 0), max(sx, 0):max(sx + w, 0)]
    inv = np.linalg.inv(to_rgb.matrix[:, :2])
    offset = to_rgb.matrix[:, 2]
    # x offsets as a row and y offsets as a column broadcast to the box
    dx = np.arange(x, x + w, dtype=np.float64) - offset[0]
    dy = (np.arange(y, y + h, dtype=np.float64) - offset[1])[:, None]
    # quietly: a near-singular affine sends pixels far off the frame, or to
    # inf or nan, and the bounds test, made before any integer cast that
    # such values would overflow, leaves them all out
    with np.errstate(all="ignore"):
        sx = np.rint(inv[0, 0] * dx + inv[0, 1] * dy)
        sy = np.rint(inv[1, 0] * dx + inv[1, 1] * dy)
    height, width = depth.pixels.shape
    ok = (sx >= 0) & (sx < width) & (sy >= 0) & (sy < height)
    # one flat gather, which np.take makes from any memory layout
    return np.take(depth.pixels, (sy[ok] * width + sx[ok]).astype(np.intp))


def correct_parallax(b: Point2, o: Point2, h: float, camera_height_mm: float) -> Point2:
    """Shift the observed pixel B to its marker-plane footprint A.

    A pointer at height h over the plane appears displaced away from the
    principal point O; the footprint is A = O + (B - O) * (1 - h/H).
    """
    if h < 0:
        raise InvalidHeightError("height below the marker plane")
    if h >= camera_height_mm:
        raise InvalidHeightError("pointer at or above the camera")
    if h == 0:
        return (float(b[0]), float(b[1]))  # on the plane: no displacement at all
    scale = 1.0 - h / camera_height_mm
    return (o[0] + (b[0] - o[0]) * scale, o[1] + (b[1] - o[1]) * scale)


def track_frame(frame: FramePair, cal: CalibrationProfile) -> PointerFix:
    """Detect (starting at ``frame.near``), depth-filter the box's aligned
    samples at the profile's ``raw_to_mm``, parallax-correct, and map one
    frame."""
    center, bbox = detect_pointer_2d(frame.rgb, cal.hue_bounds, frame.near)
    samples = _box_depth_samples(frame.depth, cal.depth_to_rgb, bbox)
    depth_mm = _filtered_depth_mm(samples, cal.raw_to_mm)

    cam_h = cal.camera_height_mm
    height = cam_h - depth_mm
    if height < 0:
        if height < -HEIGHT_SLACK * cam_h:
            raise InvalidHeightError(
                f"pointer {-height:.1f} mm below the marker plane"
            )
        height = 0.0  # sensor noise at plane contact

    plane_pt = correct_parallax(center, cal.principal_point, height, cam_h)

    # in Python floats, which overflow to inf and nan without a warning;
    # the finiteness test below decides
    xv, yv = projective_map(cal.t_rv.tolist(), *plane_pt)
    zv = cal.rho_z * height

    real = (plane_pt[0], plane_pt[1], height)
    virtual = (xv, yv, zv)
    if not all(map(math.isfinite, (depth_mm, *real, *virtual))):
        raise NonFiniteError(f"non-finite fix: real {real}, virtual {virtual}")
    return PointerFix(
        pixel=center,
        box=bbox,
        depth_mm=depth_mm,
        real=real,
        virtual=virtual,
    )


def frame_record(index: int, fix: PointerFix) -> dict:
    """JSONL payload for a successfully tracked frame."""
    return {
        "frame": index,
        "px": [fix.pixel[0], fix.pixel[1]],
        "depth_mm": fix.depth_mm,
        "real": list(fix.real),
        "virtual": list(fix.virtual),
        "status": "ok",
    }


def error_record(index: int, status: str) -> dict:
    """JSONL payload for a failed frame; coordinates are nulled but the
    line is still emitted so consumers never lose frame sync."""
    return {
        "frame": index,
        "px": None,
        "depth_mm": None,
        "real": None,
        "virtual": None,
        "status": status,
    }
