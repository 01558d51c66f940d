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
import typing
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
    _is_singular,
)
from .registration import checked_value

RGB_NAME = "rgb_%04d.ppm"
DEPTH_NAME = "depth_%04d.pgm"
TRUTH_NAME = "truth.json"
CALIBRATION_IMAGES = ("background.ppm", "with_marker.ppm", "with_pointer.ppm")

# Largest scene rendered: 3840x2160 pixels, four times the 1920x1080 colour
# stream of a commodity RGB-D camera. Rendering holds a few 8-byte planes of
# this size, so a larger scene is refused before anything is allocated.
MAX_SCENE_PIXELS = 3840 * 2160


@dataclass(frozen=True, eq=False)
class SceneSpec:
    """Complete description of one synthetic capture rig and scene."""

    width: int = 640
    height: int = 480
    camera_height_mm: float = 600.0
    principal_point: Point2 | None = None  # image center when omitted
    marker_size_mm: tuple[float, float] = (100.0, 150.0)
    marker_to_image: np.ndarray | None = None  # plane mm -> image px; default 2 px/mm centered
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
        for name in _FLOAT_FIELDS:
            value = getattr(self, name)
            if value is not None and not np.isfinite(value).all():
                raise ValueError(f"scene field {name} must be finite, got {value!r}")
        if self.width < 16 or self.height < 16:
            raise ValueError("scene must be at least 16x16")
        if self.width * self.height > MAX_SCENE_PIXELS:
            raise ValueError(f"scene of {self.width}x{self.height} pixels is above "
                             f"the budget of {MAX_SCENE_PIXELS} pixels")
        if not self.camera_height_mm > 0:
            raise ValueError("camera_height_mm must be positive")
        if not 0 <= self.ball_height_mm < self.camera_height_mm:
            raise ValueError("ball height must satisfy 0 <= h < camera height")
        if not self.ball_radius_mm > 0:
            raise ValueError("ball radius must be positive")
        if not (0 <= self.ball_hue < 180):
            raise ValueError("ball hue must be < 180")
        for name in ("marker_color", "background_color", "ball_saturation", "ball_value"):
            if not all(0 <= c <= 255 for c in np.ravel(getattr(self, name))):
                raise ValueError(f"scene field {name} must lie in 0..255, "
                                 f"got {getattr(self, name)!r}")
        if not self.rho_z > 0:
            raise ValueError("rho_z must be positive")
        if not self.raw_to_mm > 0:
            raise ValueError("raw_to_mm must be positive")
        if not self.camera_height_mm / self.raw_to_mm < 65535.5:
            raise ValueError("the plane's raw depth, camera_height_mm / raw_to_mm, "
                             "must fit 16 bits")
        if self.hue_jitter < 0 or self.depth_jitter < 0:
            raise ValueError("jitter amplitudes must be non-negative")
        if self.seed < 0:
            raise ValueError(f"scene field seed must be non-negative, got {self.seed}")
        if self.principal_point is None:
            object.__setattr__(
                self, "principal_point",
                ((self.width - 1) / 2.0, (self.height - 1) / 2.0),
            )
        if self.marker_to_image is None:
            m = np.array([[2.0, 0.0, self.principal_point[0]],
                          [0.0, 2.0, self.principal_point[1]],
                          [0.0, 0.0, 1.0]])
        else:
            m = np.asarray(self.marker_to_image, dtype=np.float64).reshape(3, 3)
        if _is_singular(m):
            raise ValueError("marker homography must be invertible")
        object.__setattr__(self, "marker_to_image", m)
        # finite fields can still put what rendering derives from them
        # beyond float range, or overflow on the way, where it would warn
        if _beyond_float_range(lambda: _marker_geometry(self)):
            raise ValueError("scene fields marker_size_mm and marker_to_image put the "
                             "marker's corners, centre or virtual map beyond float range")
        if _beyond_float_range(lambda: ball_geometry(self)):
            raise ValueError(f"scene field ball_plane_mm {self.ball_plane_mm!r} through "
                             "scene field marker_to_image puts the ball's footprint, "
                             "centre or radius beyond float range")
        # the truth file holds the ball's virtual coordinates too
        if _beyond_float_range(lambda: virtual_of_plane(self, self.ball_plane_mm)):
            raise ValueError(f"scene field ball_plane_mm {self.ball_plane_mm!r} through "
                             "scene field marker_size_mm puts the ball's virtual x, y "
                             "beyond float range")
        if _beyond_float_range(lambda: [self.rho_z * self.ball_height_mm]):
            raise ValueError(f"scene field rho_z {self.rho_z!r} puts the ball's virtual z, "
                             "rho_z * ball_height_mm, beyond float range")


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """Analytic scene quantities every pipeline stage is checked against."""

    marker_corners_px: np.ndarray  # (4, 2), same order as the plane rectangle
    marker_centroid_px: Point2
    ball_center_px: Point2  # observed pixel B
    ball_plane_px: Point2   # plane footprint A
    ball_real_mm: Point3
    expected_virtual: Point3


def _beyond_float_range(compute) -> bool:
    """Does ``compute()`` overflow, divide by zero or make a nan on the way,
    which numpy would warn of, or return a number that is not finite?"""
    try:
        with np.errstate(all="raise", under="ignore"):
            return not np.isfinite(np.hstack(compute())).all()
    except FloatingPointError:
        return True


def _marker_geometry(spec: SceneSpec) -> list:
    """The numbers rendering derives from the marker: its corners, the sum
    of their turns that orients the fill, its centre and the virtual map.
    Raises ValueError when the corners are not in convex position."""
    corners = apply_projective(spec.marker_to_image, marker_plane_corners(spec))
    if not _is_strictly_convex(corners):
        raise ValueError("marker corners must be in convex position")
    centre = apply_projective(spec.marker_to_image, [(0.0, 0.0)])
    return [corners.ravel(), _turns(corners).sum(), centre.ravel(), true_t_rv(spec).ravel()]


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


def virtual_of_plane(spec: SceneSpec, plane_pt) -> Point2:
    """Map a plane point (mm) into virtual units off the marker size."""
    mw, mh = spec.marker_size_mm
    return (float(plane_pt[0]) / mw, 1.5 * float(plane_pt[1]) / mh)


def true_t_rv(spec: SceneSpec) -> np.ndarray:
    mw, mh = spec.marker_size_mm
    to_virtual = np.array([[1.0 / mw, 0.0, 0.0],
                           [0.0, 1.5 / mh, 0.0],
                           [0.0, 0.0, 1.0]])
    t = to_virtual @ np.linalg.inv(spec.marker_to_image)
    return t / t[2, 2] if t[2, 2] != 0.0 else t  # normalized as the profile stores t_rv


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
    """Pixels whose centres lie within ``radius`` of ``center``.

    Only the disc's bounding box, widened by one pixel and clipped to the
    frame, is tested, so a centre far off the frame squares no huge offset
    and a box that misses the frame sets nothing.
    """
    size = (width, height)
    # overflows near float range give inf, which clips and compares as the largest float
    with np.errstate(over="ignore"):
        lo = np.floor(np.subtract(center, radius)) - 1
        hi = np.ceil(np.add(center, radius)) + 2
        # a nan bound (a non-finite centre or radius) leaves the whole axis
        # to the test, which then decides as it does over the full frame
        x0, y0 = np.clip(np.nan_to_num(lo, nan=0.0), 0, size).astype(int)
        x1, y1 = np.clip(np.nan_to_num(hi, nan=np.inf), 0, size).astype(int)
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
    with np.errstate(over="ignore"):  # a centre past float range misses the frame
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
    vx, vy = virtual_of_plane(spec, spec.ball_plane_mm)
    return GroundTruth(
        marker_corners_px=corners,
        marker_centroid_px=(float(centroid[0]), float(centroid[1])),
        ball_center_px=b,
        ball_plane_px=a,
        ball_real_mm=(spec.ball_plane_mm[0], spec.ball_plane_mm[1],
                      spec.ball_height_mm),
        expected_virtual=(vx, vy, spec.rho_z * spec.ball_height_mm),
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
    # each point's scene checks the point before any file is written
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
        g = rng.uniform(-1.0, 1.0, size=2) * (0.25 / max(width, height))
        c, s = math.cos(theta), math.sin(theta)
        h = np.array([[c, -s, cx], [s, c, cy], [g[0], g[1], 1.0]])
        base = np.array([[-rw, -rh], [-rw, rh], [rw, rh], [rw, -rh]])
        corners = apply_projective(h, base)
        if not np.isfinite(corners).all():
            continue
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


def _tuple_args(hint) -> tuple:
    """Element types of a tuple annotation, also of ``tuple[...] | None``."""
    for h in (hint, *typing.get_args(hint)):
        if typing.get_origin(h) is tuple:
            return typing.get_args(h)
    return ()


_KINDS = {int: "integer", float: "number"}


def _json_shape(hint) -> tuple:
    """JSON kind and list length (or "scalar") of a scene field from its
    annotation; the one array field, marker_to_image, is a row-major 3x3
    matrix."""
    if hint in _KINDS:
        return _KINDS[hint], "scalar"
    args = _tuple_args(hint)
    return (_KINDS[args[0]], len(args)) if args else ("number", 9)


_SHAPES = {name: _json_shape(hint)
           for name, hint in typing.get_type_hints(SceneSpec).items()}
_FLOAT_FIELDS = tuple(name for name, (kind, _) in _SHAPES.items() if kind == "number")


def spec_from_dict(data: dict) -> SceneSpec:
    """The SceneSpec of a JSON object; a field left out takes its default.

    Every value must have its field's JSON kind and length, as in the
    calibration profile: ``null`` is not a value.
    """
    unknown = data.keys() - _SHAPES.keys()
    if unknown:
        raise ValueError(f"unknown scene fields: {sorted(unknown)}")
    return SceneSpec(**{key: checked_value(f"scene field {key}", value, *_SHAPES[key])
                        for key, value in data.items()})
