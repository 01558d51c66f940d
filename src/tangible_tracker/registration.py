"""Build the pixel-to-virtual planar map and the frozen calibration profile.

The detected marker corners are ordered, paired with the fixed virtual
corner constants, and a projective matrix is fit by normalized direct
linear transform over the four corners plus the marker centroid. The
profile stores that matrix as ``t_rv`` beside the depth factor ``rho_z``,
field for field as its JSON file does; it is immutable and shared by the
whole tracking loop.
"""

from __future__ import annotations

import json
import logging
import math
import reprlib
from dataclasses import dataclass

import numpy as np

from .color_calibration import HueBounds, calibrate_hue_bounds
from .corner_detection import CMinMaxParams, cminmax_corners, mask_centroid
from .errors import DegenerateError, DegenerateMaskError, ResidualTooHighError
from .imaging import AffineTransform, Point2, RgbImage, _is_singular
from .mask_extraction import DEFAULT_MIN_AREA, MaskRequest, extract_mask
from .pnm import write_by_rename

log = logging.getLogger(__name__)

RESIDUAL_LIMIT = 0.02  # virtual units, mean over the five fit points


@dataclass(frozen=True)
class VirtualMarker:
    """Fixed virtual-frame coordinates of the reference rectangle."""

    corners: tuple[Point2, ...] = (
        (-0.5, -0.75),
        (0.5, -0.75),
        (0.5, 0.75),
        (-0.5, 0.75),
    )
    centroid: Point2 = (0.0, 0.0)


# Ordered image corners (top-left, bottom-left, bottom-right, top-right)
# pair with the virtual cycle walked so that virtual y grows downward in
# the image; an axis-aligned marker then fits a pure-scale matrix.
_VIRTUAL = VirtualMarker()
CORNER_TARGETS = (
    _VIRTUAL.corners[0],
    _VIRTUAL.corners[3],
    _VIRTUAL.corners[2],
    _VIRTUAL.corners[1],
)


@dataclass(frozen=True, eq=False)
class CalibrationProfile:
    """Frozen output of initialization, consumed by every tracked frame.

    The fields are the profile file's keys in its order. ``t_rv`` is the
    3x3 real-to-virtual planar map, stored divided by its h33 unless h33
    is 0, and ``rho_z`` the factor from height in mm to virtual z.
    """

    depth_to_rgb: AffineTransform
    hue_bounds: HueBounds
    t_rv: np.ndarray
    rho_z: float
    camera_height_mm: float
    principal_point: Point2
    raw_to_mm: float

    def __post_init__(self):
        m = np.asarray(self.t_rv, dtype=np.float64)
        if m.shape != (3, 3):
            raise ValueError("t_rv must be a 3x3 matrix")
        if m[2, 2] != 0.0:
            with np.errstate(all="ignore"):  # what overflows is refused below
                m = m / m[2, 2]
        if not np.isfinite(m).all():
            raise ValueError("homography matrix must be finite")
        if _is_singular(m):
            raise ValueError("homography matrix must be invertible")
        object.__setattr__(self, "t_rv", m)
        if not 0 < self.rho_z < math.inf:
            raise ValueError("rho_z must be positive and finite")
        if not 0 < self.camera_height_mm < math.inf:
            raise ValueError("camera_height_mm must be positive and finite")
        if not 0 < self.raw_to_mm < math.inf:
            raise ValueError("raw_to_mm must be positive and finite")
        if not np.isfinite(self.principal_point).all():
            raise ValueError("principal_point must be finite")


_TOP_LEFT_ANGLE = math.atan2(-1.0, -1.0) % math.tau


def order_corners(corners, centroid: Point2) -> tuple[Point2, ...]:
    """Sort 4 corners counterclockwise on screen about the centroid.

    The cycle starts at the corner angularly nearest the up-left diagonal
    (top-left in image coordinates); angle ties break by radial distance.
    The same set of corners yields the same ordering in any input order.
    """
    pts = [(float(x), float(y)) for x, y in corners]
    if len(pts) != 4:
        raise ValueError("exactly 4 corners are required")
    if len(set(pts)) != 4:
        raise ValueError("duplicate corners")
    cx, cy = float(centroid[0]), float(centroid[1])
    rel = [(x - cx, y - cy) for x, y in pts]
    if any(dx == 0.0 and dy == 0.0 for dx, dy in rel):
        raise ValueError("centroid is not strictly inside the corner hull")
    angles = [math.atan2(dy, dx) % math.tau for dx, dy in rel]
    radii = [math.hypot(dx, dy) for dx, dy in rel]

    # strictly inside the hull <=> no angular gap of half a turn or more
    ordered_angles = sorted(angles)
    gaps = [b - a for a, b in zip(ordered_angles, ordered_angles[1:])]
    gaps.append(ordered_angles[0] + math.tau - ordered_angles[-1])
    if max(gaps) >= math.pi:
        raise ValueError("centroid is not strictly inside the corner hull")

    def tl_distance(i: int) -> float:
        d = abs(angles[i] - _TOP_LEFT_ANGLE)
        return min(d, math.tau - d)

    start = min(range(4), key=lambda i: (tl_distance(i), radii[i], angles[i]))
    # screen counterclockwise is descending atan2 angle (y points down)
    order = sorted(range(4),
                   key=lambda i: ((angles[start] - angles[i]) % math.tau, radii[i]))
    return tuple(pts[i] for i in order)


def _normalize(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Similarity moving the points to zero mean and mean distance sqrt(2)."""
    center = pts.mean(axis=0)
    spread = pts - center
    mean_dist = np.hypot(spread[:, 0], spread[:, 1]).mean()
    if mean_dist < 1e-12:
        raise DegenerateError("correspondence points coincide")
    s = math.sqrt(2.0) / mean_dist
    t = np.array([[s, 0.0, -s * center[0]],
                  [0.0, s, -s * center[1]],
                  [0.0, 0.0, 1.0]])
    return t, spread * s


def _check_collinear_triples(pts: np.ndarray) -> None:
    """Minimal 4-point sets lose rank as soon as any 3 points are collinear.

    Larger sets legitimately contain collinear triples (the registration
    fit pairs a rectangle's corners with its centroid, which sits on both
    diagonals), so those rely on the spectrum check instead.
    """
    if len(pts) != 4:
        return
    span = float(np.ptp(pts, axis=0).max())
    tol = 1e-9 * max(span * span, 1.0)
    for i in range(4):
        for j in range(i + 1, 4):
            for k in range(j + 1, 4):
                ab = pts[j] - pts[i]
                ac = pts[k] - pts[i]
                if abs(ab[0] * ac[1] - ab[1] * ac[0]) <= tol:
                    raise DegenerateError(
                        f"source points {i}, {j}, {k} are collinear"
                    )


def estimate_homography(src, dst) -> np.ndarray:
    """Least-squares projective fit by normalized direct linear transform.

    Both point sets are translated to zero mean and scaled to mean distance
    sqrt(2) before solving, and the result is renormalized so h33 = 1.
    """
    s = np.asarray(src, dtype=np.float64).reshape(-1, 2)
    d = np.asarray(dst, dtype=np.float64).reshape(-1, 2)
    if len(s) != len(d):
        raise ValueError("source and destination point counts differ")
    if len(s) < 4:
        raise ValueError("at least 4 correspondences are required")
    if not (np.isfinite(s).all() and np.isfinite(d).all()):
        raise ValueError("correspondences must be finite")
    _check_collinear_triples(s)

    ts, sn = _normalize(s)
    td, dn = _normalize(d)
    rows = []
    for (x, y), (u, v) in zip(sn, dn):
        rows.append([-x, -y, -1.0, 0.0, 0.0, 0.0, u * x, u * y, u])
        rows.append([0.0, 0.0, 0.0, -x, -y, -1.0, v * x, v * y, v])
    a = np.asarray(rows)
    _, sv, vt = np.linalg.svd(a)
    spectrum = np.zeros(9)
    spectrum[:sv.size] = sv
    if spectrum[7] < 1e-8 * spectrum[0]:
        raise DegenerateError("correspondences do not determine a unique map")
    hn = vt[-1].reshape(3, 3)
    h = np.linalg.inv(td) @ hn @ ts
    if abs(h[2, 2]) > 1e-12:
        h = h / h[2, 2]
    return h


def projective_map(m, x, y):
    """The image ``(x', y')`` of points ``(x, y)`` under the 3x3 projective
    matrix ``m``, given as nested lists of Python floats (``t.tolist()``).

    ``x`` and ``y`` are Python floats or float64 arrays of one shape, and
    the result is of the same kind: each point's three sums are the same
    float operations in the same order either way, so a point maps to the
    same bits as a float or inside an array. Raises DegenerateError when a
    point's ``|w|`` is below 1e-12, before either numerator is formed.
    """
    w = m[2][0] * x + m[2][1] * y + m[2][2]
    degenerate = abs(w) < 1e-12
    if degenerate.any() if isinstance(degenerate, np.ndarray) else degenerate:
        raise DegenerateError("point maps to infinity under the homography")
    return ((m[0][0] * x + m[0][1] * y + m[0][2]) / w,
            (m[1][0] * x + m[1][1] * y + m[1][2]) / w)


def apply_homography(h: np.ndarray, pts) -> np.ndarray:
    """Map (N, 2) points through a 3x3 projective matrix.

    Raises DegenerateError when a point maps to infinity.
    """
    p = np.asarray(pts, dtype=np.float64).reshape(-1, 2)
    m = np.asarray(h, dtype=np.float64).tolist()
    return np.stack(projective_map(m, p[:, 0], p[:, 1]), axis=1)


def mean_reprojection_error(h: np.ndarray, src, dst) -> float:
    d = np.asarray(dst, dtype=np.float64).reshape(-1, 2)
    err = apply_homography(h, src) - d
    return float(np.hypot(err[:, 0], err[:, 1]).mean())


@dataclass(frozen=True, eq=False)
class CalibrationSummary:
    """Profile plus the intermediate fit evidence worth surfacing."""

    profile: CalibrationProfile
    ordered_corners: tuple[Point2, ...]
    centroid: Point2
    fit_residual: float


def check_principal_point(point: Point2, width: int, height: int) -> None:
    """Raise ValueError unless the point lies inside a width x height frame."""
    px, py = point
    if not (0 <= px < width and 0 <= py < height):
        raise ValueError(f"principal point ({px}, {py}) lies outside the "
                         f"{width}x{height} frame")


def calibrate_scene(
    background: RgbImage,
    with_marker: RgbImage,
    with_pointer: RgbImage,
    *,
    depth_to_rgb: AffineTransform,
    camera_height_mm: float,
    principal_point: Point2,
    rho_z: float,
    raw_to_mm: float = 1.0,
    min_area: int = DEFAULT_MIN_AREA,
) -> CalibrationSummary:
    """Run the full initialization and return the profile with fit details.

    The marker mask yields 4 ordered corners plus the centroid; those five
    points are fit against the virtual marker constants. The pointer pair
    yields the hue bounds. Raises DegenerateMaskError when the marker mask
    shows fewer than 4 corners or its corners cannot be ordered about its
    centroid (the centroid lies outside them), and ResidualTooHighError when
    the mean reprojection residual of the five points exceeds 0.02 virtual
    units.
    """
    px, py = float(principal_point[0]), float(principal_point[1])
    check_principal_point((px, py), background.width, background.height)

    marker_mask = extract_mask(MaskRequest(background, with_marker, min_area))
    log.info("marker mask %d px", marker_mask.area)
    detected = cminmax_corners(marker_mask, CMinMaxParams(n=4))
    if len(detected.corners) < 4:
        raise DegenerateMaskError(
            f"marker mask shows {len(detected.corners)} corners, need 4")
    centroid = mask_centroid(marker_mask)
    try:
        ordered = order_corners(detected.corners, centroid)
    except ValueError as exc:
        raise DegenerateMaskError(f"marker corners cannot be ordered: {exc}") from None

    src = np.array(ordered + (centroid,))
    dst = np.array(CORNER_TARGETS + (_VIRTUAL.centroid,))
    matrix = estimate_homography(src, dst)
    residual = mean_reprojection_error(matrix, src, dst)
    log.info("fit residual %.6g", residual)
    if residual > RESIDUAL_LIMIT:
        raise ResidualTooHighError(
            f"mean fit residual {residual:.4g} exceeds {RESIDUAL_LIMIT}"
        )

    bounds = calibrate_hue_bounds(background, with_pointer, min_area=min_area)
    profile = CalibrationProfile(
        depth_to_rgb=depth_to_rgb,
        hue_bounds=bounds,
        t_rv=matrix,
        rho_z=rho_z,
        camera_height_mm=float(camera_height_mm),
        principal_point=(px, py),
        raw_to_mm=float(raw_to_mm),
    )
    return CalibrationSummary(profile, ordered, centroid, residual)


# The profile file, one row per field in the file's order: the field's
# JSON kind and list length (or "scalar"; a nested table is a nested
# object, and both levels take exactly these keys), how save_profile writes
# the profile's value, and how load_profile turns the checked value back.
_INTEGER = ("integer", "scalar")
_NUMBER = (("number", "scalar"), float, float)
PROFILE_FIELDS = {
    "depth_to_rgb": (("number", 6), lambda a: [float(v) for v in a.matrix.ravel()],
                     lambda v: AffineTransform(np.reshape(v, (2, 3)))),
    "hue_bounds": ({"lo": _INTEGER, "hi": _INTEGER}, lambda b: {"lo": b.lo, "hi": b.hi},
                   lambda v: HueBounds(**v)),
    "t_rv": (("number", 9), lambda m: [float(v) for v in m.ravel()],
             lambda v: np.reshape(v, (3, 3))),
    "rho_z": _NUMBER,
    "camera_height_mm": _NUMBER,
    "principal_point": (("number", 2), lambda p: [float(p[0]), float(p[1])], tuple),
    "raw_to_mm": _NUMBER,
}

# exact types: a bool is never a number and a float never an integer
_KIND_TYPES = {"number": (int, float), "integer": (int,)}


def checked_value(name: str, value, kind: str, length):
    """``value`` if it is a JSON ``kind``, or a JSON list of ``length`` of
    them unless ``length`` is "scalar"; numbers come back as floats and a
    list as a tuple.

    Raises ValueError, naming ``name``, for a value of another kind or
    length and for an integer too large for a float.
    """
    scalar = length == "scalar"
    items = [value] if scalar else value
    if not ((scalar or (type(value) is list and len(value) == length))
            and all(type(v) in _KIND_TYPES[kind] for v in items)):
        shape = f"JSON {kind}" if scalar else f"JSON list of {length} {kind}s"
        raise ValueError(f"{name} must be a {shape}, got {reprlib.repr(value)}")
    if kind == "number":
        try:
            items = [float(v) for v in items]
        except OverflowError:
            raise ValueError(f"{name} holds an integer too large "
                             "for a float") from None
    return items[0] if scalar else tuple(items)


def _checked(data, table: dict, prefix: str = "") -> dict:
    """``data`` matched against ``table`` by ``checked_value``.

    Raises ValueError for a missing or unknown key and for a value that
    ``checked_value`` rejects.
    """
    where = prefix.rstrip(".") or "profile"
    if type(data) is not dict:
        raise ValueError(f"{where} must be a JSON object, got {reprlib.repr(data)}")
    if data.keys() != table.keys():
        raise ValueError(f"{where} has missing keys {sorted(table.keys() - data.keys())} "
                         f"and unknown keys {sorted(data.keys() - table.keys())}")
    out = {}
    for key, spec in table.items():
        if isinstance(spec, dict):
            out[key] = _checked(data[key], spec, prefix + key + ".")
        else:
            out[key] = checked_value(prefix + key, data[key], *spec)
    return out


def save_profile(profile: CalibrationProfile, path) -> None:
    doc = {key: write(getattr(profile, key))
           for key, (_, write, _) in PROFILE_FIELDS.items()}
    with write_by_rename(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


def load_profile(path) -> CalibrationProfile:
    with open(path, "r", encoding="utf-8") as f:
        data = json.load(f)
    values = _checked(data, {key: shape for key, (shape, _, _) in PROFILE_FIELDS.items()})
    return CalibrationProfile(**{key: read(values[key])
                                 for key, (_, _, read) in PROFILE_FIELDS.items()})
