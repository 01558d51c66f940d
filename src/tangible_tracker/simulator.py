"""Synthetic RGB-D scenes with exact geometric ground truth.

The renderer projects a colored ball above a projectively warped reference
rectangle using the same pinhole geometry the tracker later inverts, but
through an independent forward code path, so full-pipeline round trips are
meaningful checks rather than tautologies. Anti-aliasing is deliberately
absent: hard edges keep the mask oracles exact.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import pnm
from .imaging import (
    DEPTH_SAMPLE,
    AffineTransform,
    BinaryMask,
    DepthImage,
    Point2,
    Point3,
    RgbImage,
)
from .registration import check_principal_point, checked_value

RGB_NAME = "rgb_%04d.ppm"
DEPTH_NAME = "depth_%04d.pgm"
TRUTH_NAME = "truth.json"
CALIBRATION_IMAGES = ("background.ppm", "with_marker.ppm", "with_pointer.ppm")

# Largest scene rendered: 3840x2160 pixels, four times the 1920x1080 colour
# stream of a commodity RGB-D camera. Rendering holds a few 8-byte planes of
# this size, so a larger scene is refused before anything is allocated.
MAX_SCENE_PIXELS = 3840 * 2160


# The scene file and the desk rigs the simulator renders, one row per
# SceneSpec field in field order: the field's JSON kind, its list length
# (or "scalar"; marker_to_image is a row-major 3x3 matrix), and the bounds
# lo..hi the field, or each entry of a list field, lies in (None for a
# field with no bounds of its own). A comparison with nan is false, so a
# non-finite value is refused too. The rules that span fields are
# SceneSpec.__post_init__'s.
SCENE_FIELDS = {
    "width": ("integer", "scalar", 16, math.inf),
    "height": ("integer", "scalar", 16, math.inf),
    "camera_height_mm": ("number", "scalar", 1.0, 1e4),
    "principal_point": ("number", 2, None, None),
    "marker_size_mm": ("number", 2, 1.0, 1e4),
    "marker_to_image": ("number", 9, None, None),
    "marker_color": ("integer", 3, 0, 255),
    "background_color": ("integer", 3, 0, 255),
    "ball_plane_mm": ("number", 2, -1e4, 1e4),
    "ball_height_mm": ("number", "scalar", 0.0, 1e4),
    "ball_radius_mm": ("number", "scalar", 0.1, 1e4),
    "ball_hue": ("integer", "scalar", 0, 179),
    "ball_saturation": ("integer", "scalar", 0, 255),
    "ball_value": ("integer", "scalar", 0, 255),
    "rho_z": ("number", "scalar", 1e-4, 1e4),
    "raw_to_mm": ("number", "scalar", 1e-4, 1e4),
    "depth_frame_offset": ("integer", 2, None, None),
    "shadow_offset_px": ("number", 2, -1e4, 1e4),
    "hue_jitter": ("integer", "scalar", 0, 179),
    "depth_jitter": ("integer", "scalar", 0, 65535),
    "seed": ("integer", "scalar", 0, math.inf),
}


@dataclass(frozen=True, eq=False)
class SceneSpec:
    """Complete description of one synthetic capture rig and scene.

    A scene outside the desk-scale domain, ``SCENE_FIELDS``' bounds and the
    rules of ``__post_init__``, is refused before anything is derived from
    it. Inside it nothing rendering derives from the scene leaves float
    range.
    """

    width: int = 640
    height: int = 480
    camera_height_mm: float = 600.0
    principal_point: Point2 | None = None  # image center when omitted
    marker_size_mm: tuple[float, float] = (100.0, 150.0)
    marker_to_image: np.ndarray | None = None  # plane mm -> image px, m33 = 1; default 2 px/mm
    marker_color: tuple[int, int, int] = (45, 45, 45)
    background_color: tuple[int, int, int] = (190, 190, 190)
    ball_plane_mm: Point2 = (30.0, 40.0)
    ball_height_mm: float = 120.0
    ball_radius_mm: float = 20.0
    ball_hue: int = 20
    ball_saturation: int = 200
    ball_value: int = 230
    rho_z: float = 0.002
    raw_to_mm: float = 1.0
    depth_frame_offset: tuple[int, int] = (4, 2)
    shadow_offset_px: tuple[float, float] = (8.0, 0.0)
    hue_jitter: int = 0
    depth_jitter: int = 0
    seed: int = 0

    def __post_init__(self):
        for name, (_, _, lo, hi) in SCENE_FIELDS.items():
            value = getattr(self, name)
            if lo is not None and not all(lo <= v <= hi for v in np.ravel(value)):
                raise ValueError(f"scene field {name} must lie in {lo:g}..{hi:g}, "
                                 f"got {value!r}")
        if self.width * self.height > MAX_SCENE_PIXELS:
            raise ValueError(f"scene of {self.width}x{self.height} pixels is above "
                             f"the budget of {MAX_SCENE_PIXELS} pixels")
        if not self.ball_height_mm < self.camera_height_mm:
            raise ValueError(f"scene field ball_height_mm {self.ball_height_mm!r} must "
                             f"lie below camera_height_mm {self.camera_height_mm!r}")
        if not self.camera_height_mm / self.raw_to_mm < 65535.5:
            raise ValueError("the plane's raw depth, camera_height_mm / raw_to_mm, "
                             "must fit 16 bits")
        if self.principal_point is None:
            object.__setattr__(
                self, "principal_point",
                ((self.width - 1) / 2.0, (self.height - 1) / 2.0),
            )
        check_principal_point(self.principal_point, self.width, self.height)
        if self.marker_to_image is None:
            m = np.array([[2.0, 0.0, self.principal_point[0]],
                          [0.0, 2.0, self.principal_point[1]],
                          [0.0, 0.0, 1.0]])
        else:
            m = np.asarray(self.marker_to_image, dtype=np.float64).reshape(3, 3)
        object.__setattr__(self, "marker_to_image", m)
        # the marker's rules compare Python floats, and divide by none of them
        entries = m.ravel().tolist()
        if not (entries[8] == 1.0 and all(abs(v) <= 1e6 for v in entries)):
            raise ValueError("scene field marker_to_image must have m33 = 1 and entries "
                             f"within +-1e6, got {entries}")
        a, b, c, d, e, f, g, h, _ = entries
        # |det| is the area scale of the marker at its centre: 0.01..100 px per mm
        det = (a - c * g) * (e - f * h) - (b - c * h) * (d - f * g)
        if not 1e-4 <= abs(det) <= 1e4:
            raise ValueError("scene field marker_to_image must scale the marker's area "
                             f"by 1e-4..1e4 at its centre, got {abs(det)!r}")
        points = [*marker_plane_corners(self).tolist(), self.ball_plane_mm]
        if not all(0.25 <= g * x + h * y + 1.0 <= 4.0 for x, y in points):
            raise ValueError("scene field marker_to_image must put the marker's corners "
                             "and ball_plane_mm in front of the camera, w in 0.25..4")
        # the inverse's third row is (d h - e g, b g - a h, a e - b d) / det
        sign, size = math.copysign(1.0, det), abs(det)
        if not all(0.25 * size <= sign * ((d * h - e * g) * u + (b * g - a * h) * v
                                          + a * e - b * d) <= 4.0 * size
                   for u in (0, self.width - 1) for v in (0, self.height - 1)):
            raise ValueError("scene field marker_to_image must keep the horizon out of "
                             "the frame, the inverse's w in 0.25..4 at its corners")
        if not _is_strictly_convex(apply_projective(m, marker_plane_corners(self))):
            raise ValueError("scene field marker_to_image must map the marker's corners "
                             "to convex position")


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """Analytic scene quantities every pipeline stage is checked against."""

    marker_corners_px: np.ndarray  # (4, 2), same order as the plane rectangle
    marker_centroid_px: Point2
    ball_center_px: Point2  # observed pixel B
    ball_plane_px: Point2   # plane footprint A
    ball_real_mm: Point3
    expected_virtual: Point3


def marker_plane_corners(spec: SceneSpec) -> np.ndarray:
    """Rectangle corners in plane mm, ordered TL, BL, BR, TR (plane y down)."""
    hw = spec.marker_size_mm[0] / 2.0
    hh = spec.marker_size_mm[1] / 2.0
    return np.array([[-hw, -hh], [-hw, hh], [hw, hh], [hw, -hh]])


def apply_projective(h: np.ndarray, pts) -> np.ndarray:
    p = np.asarray(pts, dtype=np.float64).reshape(-1, 2)
    mapped = np.hstack([p, np.ones((len(p), 1))]) @ np.asarray(h).T
    return mapped[:, :2] / mapped[:, 2:3]


def _turns(corners: np.ndarray) -> np.ndarray:
    """Cross product (b - a) x (c - a) of each three consecutive corners."""
    a, b, c = corners, np.roll(corners, -1, axis=0), np.roll(corners, -2, axis=0)
    (ux, uy), (wx, wy) = (b - a).T, (c - a).T
    return ux * wy - uy * wx


def _is_strictly_convex(corners: np.ndarray) -> bool:
    turns = _turns(corners)
    return bool((turns > 0).all() or (turns < 0).all())


def true_t_rv(spec: SceneSpec) -> np.ndarray:
    mw, mh = spec.marker_size_mm
    to_virtual = np.array([[1.0 / mw, 0.0, 0.0],
                           [0.0, 1.5 / mh, 0.0],
                           [0.0, 0.0, 1.0]])
    t = to_virtual @ np.linalg.inv(spec.marker_to_image)
    return t / t[2, 2]  # normalized as the profile stores t_rv


def _local_scale(h: np.ndarray, p) -> float:
    """Isotropic magnification of the projective map at a plane point."""
    x, y = float(p[0]), float(p[1])
    w = h[2, 0] * x + h[2, 1] * y + h[2, 2]
    nx = h[0, 0] * x + h[0, 1] * y + h[0, 2]
    ny = h[1, 0] * x + h[1, 1] * y + h[1, 2]
    j = np.array([
        [h[0, 0] * w - h[2, 0] * nx, h[0, 1] * w - h[2, 1] * nx],
        [h[1, 0] * w - h[2, 0] * ny, h[1, 1] * w - h[2, 1] * ny],
    ]) / (w * w)
    return math.sqrt(abs(np.linalg.det(j)))


def ball_geometry(spec: SceneSpec) -> tuple[Point2, Point2, float]:
    """(plane footprint A, observed center B, rendered radius) in pixels.

    A ball at height h over plane point P appears at
    B = O + (A - O) * H / (H - h) with its radius magnified the same way.
    """
    a = apply_projective(spec.marker_to_image, [spec.ball_plane_mm])[0]
    ox, oy = spec.principal_point
    lift = spec.camera_height_mm / (spec.camera_height_mm - spec.ball_height_mm)
    b = (ox + (a[0] - ox) * lift, oy + (a[1] - oy) * lift)
    radius = spec.ball_radius_mm * _local_scale(spec.marker_to_image, spec.ball_plane_mm) * lift
    return (float(a[0]), float(a[1])), b, radius


def fill_convex_polygon(width: int, height: int, corners) -> BinaryMask:
    """Rasterize a convex polygon over pixel centers, boundary inclusive."""
    pts = np.asarray(corners, dtype=np.float64)
    xs = np.arange(width, dtype=np.float64)[None, :]
    ys = np.arange(height, dtype=np.float64)[:, None]
    # every turn of a convex polygon has the sign of its orientation
    orient = 1.0 if _turns(pts).sum() > 0 else -1.0
    inside = np.ones((height, width), dtype=bool)
    n = len(pts)
    for i in range(n):
        j = (i + 1) % n
        cross = (pts[j, 0] - pts[i, 0]) * (ys - pts[i, 1]) \
            - (pts[j, 1] - pts[i, 1]) * (xs - pts[i, 0])
        inside &= orient * cross >= 0
    return BinaryMask(inside)


def _fill_disc(width: int, height: int, center, radius: float) -> np.ndarray:
    """Pixels whose centres lie within ``radius`` of ``center``, both finite.

    Only the disc's bounding box, widened by one pixel and clipped to the
    frame, is tested, so a centre far off the frame squares no huge offset
    and a box that misses the frame sets nothing.
    """
    size = (width, height)
    x0, y0 = np.clip(np.floor(np.subtract(center, radius)) - 1, 0, size).astype(int)
    x1, y1 = np.clip(np.ceil(np.add(center, radius)) + 2, 0, size).astype(int)
    xs = np.arange(x0, x1, dtype=np.float64)[None, :]
    ys = np.arange(y0, y1, dtype=np.float64)[:, None]
    disc = np.zeros((height, width), dtype=bool)
    disc[y0:y1, x0:x1] = (xs - center[0]) ** 2 + (ys - center[1]) ** 2 <= radius * radius
    return disc


def hsv_to_rgb_bins(h, s, v) -> np.ndarray:
    """Inverse hexcone for hue on the 0..179 scale; inputs broadcast."""
    hdeg = np.asarray(h, dtype=np.float64) * 2.0
    s = np.asarray(s, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    c = v * s / 255.0
    sector = hdeg / 60.0
    x = c * (1.0 - np.abs(np.mod(sector, 2.0) - 1.0))
    m = v - c
    zeros = np.zeros_like(c)
    idx = np.floor(sector).astype(int) % 6
    r = np.choose(idx, [c, x, zeros, zeros, x, c])
    g = np.choose(idx, [x, c, c, x, zeros, zeros])
    b = np.choose(idx, [zeros, zeros, x, c, c, x])
    rgb = np.stack([r + m, g + m, b + m], axis=-1)
    return np.clip(np.rint(rgb), 0, 255).astype(np.uint8)


def render_rgb(spec: SceneSpec, rng: np.random.Generator, *,
               with_marker: bool, with_ball: bool) -> RgbImage:
    canvas = np.empty((spec.height, spec.width, 3), dtype=np.uint8)
    canvas[:, :] = spec.background_color
    if with_marker:
        corners = apply_projective(spec.marker_to_image, marker_plane_corners(spec))
        canvas[fill_convex_polygon(spec.width, spec.height, corners).bits] = spec.marker_color
    if with_ball:
        _, b, radius = ball_geometry(spec)
        disc = _fill_disc(spec.width, spec.height, b, radius)
        count = int(disc.sum())
        hues = np.full(count, spec.ball_hue, dtype=np.int64)
        if spec.hue_jitter > 0:
            hues = (hues + rng.integers(-spec.hue_jitter, spec.hue_jitter + 1,
                                        size=count)) % 180
        sats = np.full(count, spec.ball_saturation)
        vals = np.full(count, spec.ball_value)
        canvas[disc] = hsv_to_rgb_bins(hues, sats, vals)
    return RgbImage(canvas)


def render_depth_rgb_frame(spec: SceneSpec, rng: np.random.Generator) -> np.ndarray:
    """Raw depth as seen from the RGB frame, before the depth-camera shift,
    in ``DepthImage``'s big-endian sample order."""
    plane_raw = int(round(spec.camera_height_mm / spec.raw_to_mm))
    canvas = np.full((spec.height, spec.width), plane_raw, dtype=np.int64)
    _, b, radius = ball_geometry(spec)
    ball_raw = max(1, int(round(
        (spec.camera_height_mm - spec.ball_height_mm) / spec.raw_to_mm)))
    shadow_center = np.add(b, spec.shadow_offset_px)
    canvas[_fill_disc(spec.width, spec.height, shadow_center, radius)] = 0
    canvas[_fill_disc(spec.width, spec.height, b, radius)] = ball_raw
    if spec.depth_jitter > 0:
        jitter = rng.integers(-spec.depth_jitter, spec.depth_jitter + 1,
                              size=canvas.shape)
        lit = canvas > 0
        canvas[lit] = np.clip(canvas[lit] + jitter[lit], 1, 65535)
    return np.clip(canvas, 0, 65535).astype(DEPTH_SAMPLE)


def _shift_to_depth_frame(plane: np.ndarray, offset: tuple[int, int]) -> np.ndarray:
    """The depth camera sees the scene displaced by the frame offset;
    pixels with no counterpart read 0 (no return)."""
    dx, dy = int(offset[0]), int(offset[1])
    h, w = plane.shape
    out = np.zeros_like(plane)
    x0, x1 = max(0, -dx), min(w, w - dx)
    y0, y1 = max(0, -dy), min(h, h - dy)
    if x1 > x0 and y1 > y0:
        out[y0:y1, x0:x1] = plane[y0 + dy:y1 + dy, x0 + dx:x1 + dx]
    return out


def depth_alignment(spec: SceneSpec) -> AffineTransform:
    """Affine mapping depth-frame pixels back into RGB-frame pixels."""
    dx, dy = spec.depth_frame_offset
    return AffineTransform(np.array([[1.0, 0.0, float(dx)],
                                     [0.0, 1.0, float(dy)]]))


def scene_truth(spec: SceneSpec) -> GroundTruth:
    corners = apply_projective(spec.marker_to_image, marker_plane_corners(spec))
    centroid = apply_projective(spec.marker_to_image, [(0.0, 0.0)])[0]
    a, b, _ = ball_geometry(spec)
    (x, y), (mw, mh) = spec.ball_plane_mm, spec.marker_size_mm
    return GroundTruth(
        marker_corners_px=corners,
        marker_centroid_px=(float(centroid[0]), float(centroid[1])),
        ball_center_px=b,
        ball_plane_px=a,
        ball_real_mm=(x, y, spec.ball_height_mm),
        # virtual units: x and y off the marker size, z through rho_z
        expected_virtual=(x / mw, 1.5 * y / mh, spec.rho_z * spec.ball_height_mm),
    )


def render_scene(spec: SceneSpec) -> tuple[RgbImage, DepthImage, GroundTruth]:
    """One frame: RGB, depth (in the depth-camera frame), and ground truth.

    Deterministic given the spec's seed.
    """
    rng = np.random.default_rng(spec.seed)
    rgb = render_rgb(spec, rng, with_marker=True, with_ball=True)
    raw = render_depth_rgb_frame(spec, rng)
    shifted = _shift_to_depth_frame(raw, spec.depth_frame_offset)
    return rgb, DepthImage(shifted, spec.raw_to_mm), scene_truth(spec)


def circular_trajectory(frames: int, radius_mm: float = 60.0,
                        height_mm: float = 120.0,
                        height_amp_mm: float = 40.0) -> list[Point3]:
    """Ball path on a plane circle with a gently varying height."""
    if frames < 0:
        raise ValueError(f"frame count must be non-negative, got {frames}")
    out = []
    for i in range(frames):
        phase = 2.0 * math.pi * i / max(frames, 1)
        out.append((radius_mm * math.cos(phase),
                    radius_mm * math.sin(phase),
                    height_mm + height_amp_mm * math.sin(2.0 * phase)))
    return out


def render_sequence(spec: SceneSpec, trajectory, out_dir) -> str:
    """Write calibration images, per-frame captures, and truth.json.

    Calibration files are the background, marker-only and pointer-only RGB
    captures. Frame files follow rgb_%04d.ppm / depth_%04d.pgm. Returns the
    truth.json path.
    """
    trajectory = [(float(x), float(y), float(h)) for x, y, h in trajectory]
    scenes = []
    # each point's scene is checked, by SceneSpec, before any file is written
    for idx, (x, y, h) in enumerate(trajectory):
        try:
            scenes.append(dataclasses.replace(spec, ball_plane_mm=(x, y), ball_height_mm=h,
                                              seed=spec.seed + idx))
        except ValueError as exc:
            raise ValueError(f"trajectory point {idx}: {exc}") from None

    os.makedirs(out_dir, exist_ok=True)
    # background, marker only, pointer only
    for name, marker, ball in zip(CALIBRATION_IMAGES, (False, True, False),
                                  (False, False, True)):
        pnm.write_ppm(os.path.join(out_dir, name),
                      render_rgb(spec, np.random.default_rng(spec.seed),
                                 with_marker=marker, with_ball=ball))

    frames = []
    for idx, sub in enumerate(scenes):
        rgb, depth, truth = render_scene(sub)
        pnm.write_ppm(os.path.join(out_dir, RGB_NAME % idx), rgb)
        pnm.write_depth(os.path.join(out_dir, DEPTH_NAME % idx), depth)
        frames.append({
            "idx": idx,
            "marker_corners": [[float(cx), float(cy)]
                               for cx, cy in truth.marker_corners_px],
            "ball_px": [truth.ball_center_px[0], truth.ball_center_px[1]],
            "ball_plane_px": [truth.ball_plane_px[0], truth.ball_plane_px[1]],
            "ball_real": list(truth.ball_real_mm),
            "virtual": list(truth.expected_virtual),
        })

    truth_doc = {
        "h_mm": float(spec.camera_height_mm),
        "principal_point": [float(spec.principal_point[0]),
                            float(spec.principal_point[1])],
        "rho_z": float(spec.rho_z),
        "t_rv": [float(v) for v in true_t_rv(spec).ravel()],
        "frames": frames,
    }
    truth_path = os.path.join(out_dir, TRUTH_NAME)
    with open(truth_path, "w", encoding="utf-8") as f:
        json.dump(truth_doc, f, indent=2)
        f.write("\n")
    return truth_path


def random_quadrangle_scene(width: int, height: int,
                            rng: np.random.Generator) -> tuple[BinaryMask, np.ndarray]:
    """Random mildly perspective-warped rectangle with exact vertex truth.

    Rejection-samples until the quadrangle is comfortably convex, fully in
    frame, and free of razor-thin angles that rasterize ambiguously; raises
    ValueError when the frame is too small to hold one.
    """
    if width < 1 or height < 1:
        raise ValueError(f"quadrangle scene size {width}x{height} has a zero side")
    if width * height > MAX_SCENE_PIXELS:
        raise ValueError(f"quadrangle scene of {width}x{height} pixels is above "
                         f"the budget of {MAX_SCENE_PIXELS} pixels")
    for _ in range(500):
        rw = width * rng.uniform(0.18, 0.30)
        rh = height * rng.uniform(0.18, 0.30)
        theta = rng.uniform(-0.5, 0.5)
        cx = width / 2.0 + rng.uniform(-0.08, 0.08) * width
        cy = height / 2.0 + rng.uniform(-0.08, 0.08) * height
        # perspective mild enough that w stays above 0.85 at every corner
        g = rng.uniform(-1.0, 1.0, size=2) * (0.25 / max(width, height))
        c, s = math.cos(theta), math.sin(theta)
        h = np.array([[c, -s, cx], [s, c, cy], [g[0], g[1], 1.0]])
        base = np.array([[-rw, -rh], [-rw, rh], [rw, rh], [rw, -rh]])
        corners = apply_projective(h, base)
        if corners[:, 0].min() < 8 or corners[:, 0].max() > width - 9:
            continue
        if corners[:, 1].min() < 8 or corners[:, 1].max() > height - 9:
            continue
        if not _is_strictly_convex(corners):
            continue
        ok = True
        for i in range(4):
            prev = corners[(i - 1) % 4] - corners[i]
            nxt = corners[(i + 1) % 4] - corners[i]
            if min(np.hypot(*prev), np.hypot(*nxt)) < 40:
                ok = False
                break
            cos_a = np.dot(prev, nxt) / (np.hypot(*prev) * np.hypot(*nxt))
            angle = math.degrees(math.acos(np.clip(cos_a, -1.0, 1.0)))
            if not 35.0 <= angle <= 145.0:
                ok = False
                break
        if not ok:
            continue
        return fill_convex_polygon(width, height, corners), corners
    raise ValueError(f"no usable quadrangle fits in {width}x{height}")


def spec_from_dict(data: dict) -> SceneSpec:
    """The SceneSpec of a JSON object; a field left out takes its default.

    Every value must have its field's JSON kind and length, as in the
    calibration profile: ``null`` is not a value.
    """
    unknown = data.keys() - SCENE_FIELDS.keys()
    if unknown:
        raise ValueError(f"unknown scene fields: {sorted(unknown)}")
    return SceneSpec(**{key: checked_value(f"scene field {key}", value,
                                           *SCENE_FIELDS[key][:2])
                        for key, value in data.items()})
