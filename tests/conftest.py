import json
import math
import subprocess
import sys

import numpy as np
import pytest
from scipy import ndimage

from tangible_tracker.color_calibration import hue_bounds_mask
from tangible_tracker.registration import calibrate_scene
from tangible_tracker.simulator import (
    SceneSpec,
    circular_trajectory,
    depth_alignment,
    render_rgb,
    render_sequence,
)
from tests.test_imaging import frozen_rgb_to_hsv, largest_label_oracle


def render_calibration_trio(spec: SceneSpec):
    """The three initialization captures for a scene."""
    rng = np.random.default_rng(spec.seed)
    background = render_rgb(spec, rng, with_marker=False, with_ball=False)
    with_marker = render_rgb(spec, np.random.default_rng(spec.seed),
                             with_marker=True, with_ball=False)
    with_pointer = render_rgb(spec, np.random.default_rng(spec.seed),
                              with_marker=False, with_ball=True)
    return background, with_marker, with_pointer


def calibrate_spec(spec: SceneSpec):
    background, with_marker, with_pointer = render_calibration_trio(spec)
    return calibrate_scene(
        background, with_marker, with_pointer,
        depth_to_rgb=depth_alignment(spec),
        camera_height_mm=spec.camera_height_mm,
        principal_point=spec.principal_point,
        rho_z=spec.rho_z,
        raw_to_mm=spec.raw_to_mm,
    )


# The two rigs of perfbench's workloads (``perfbench/scenes.py``), restated:
# a 32-frame VGA loop with its depth offset by (4, 2), and a 28-frame HD
# loop of a red ball whose every fourth frame is out of view.
def workload_rig(workload, seed):
    frames = {"track-vga": 32, "track-hd-miss": 28}[workload]
    start = int(np.random.default_rng(seed).integers(frames))
    path = circular_trajectory(frames, radius_mm=60.0, height_mm=120.0,
                               height_amp_mm=40.0)
    path = path[start:] + path[:start]
    if workload == "track-vga":
        return SceneSpec(hue_jitter=3, depth_jitter=3, depth_frame_offset=(4, 2),
                         seed=seed), path
    return (SceneSpec(width=1280, height=720, ball_hue=2, hue_jitter=3, depth_jitter=3,
                      depth_frame_offset=(0, 0), seed=seed),
            [(1200.0, 900.0, h) if i % 4 == 3 else (x, y, h)
             for i, (x, y, h) in enumerate(path)])


def reference_track(rgb, depth, profile) -> dict:
    """The record of one frame keyed whole, but its ``seq`` and ``frame``,
    from the frozen parts: the reference HSV and predicate, scipy's
    8-connected labels with the first-in-row-major tie rule, the box
    centre, the box's depth samples mapped through the inverse of
    ``depth_to_rgb`` pixel by pixel, the two-pass filter as numpy means,
    and the height clamp, parallax and mapping formulas, each restated."""
    def failed(status):
        return {"px": None, "depth_mm": None, "real": None, "virtual": None,
                "status": status}

    keep = hue_bounds_mask(frozen_rgb_to_hsv(rgb), profile.hue_bounds).bits
    labels, _ = ndimage.label(keep, structure=np.ones((3, 3), dtype=bool))
    winner, area = largest_label_oracle(labels)
    if area < 20:
        return failed("NoPointer")
    ys, xs = np.nonzero(labels == winner)
    x0, y0, x1, y1 = int(xs.min()), int(ys.min()), int(xs.max()), int(ys.max())
    cx, cy = (x0 + x1) / 2, (y0 + y1) / 2

    inv = np.linalg.inv(profile.depth_to_rgb.matrix[:, :2]).tolist()
    tx, ty = profile.depth_to_rgb.matrix[:, 2].tolist()
    samples = []
    for y in range(y0, y1 + 1):
        for x in range(x0, x1 + 1):
            sx = round(inv[0][0] * (x - tx) + inv[0][1] * (y - ty))
            sy = round(inv[1][0] * (x - tx) + inv[1][1] * (y - ty))
            if 0 <= sx < depth.width and 0 <= sy < depth.height:
                samples.append(int(depth.pixels[sy, sx]))
    returns = np.array([s for s in samples if s], dtype=np.float64)
    if returns.size == 0:
        return failed("NoDepth")
    near = returns[returns <= 1.10 * returns.mean()]
    depth_mm = float(near.mean()) * profile.raw_to_mm

    cam_h = profile.camera_height_mm
    height = cam_h - depth_mm
    if height < -0.02 * cam_h:
        return failed("InvalidHeight")
    if height < 0:
        height = 0.0
    if height >= cam_h:
        return failed("InvalidHeight")
    (ox, oy), scale = profile.principal_point, 1.0 - height / cam_h
    px, py = (cx, cy) if height == 0 else (ox + (cx - ox) * scale, oy + (cy - oy) * scale)
    m = profile.t_rv.tolist()
    w = m[2][0] * px + m[2][1] * py + m[2][2]
    if abs(w) < 1e-12:
        return failed("Degenerate")
    real = [px, py, height]
    virtual = [(m[0][0] * px + m[0][1] * py + m[0][2]) / w,
               (m[1][0] * px + m[1][1] * py + m[1][2]) / w, profile.rho_z * height]
    if not all(map(math.isfinite, [depth_mm, *real, *virtual])):
        return failed("NonFinite")
    return {"px": [cx, cy], "depth_mm": depth_mm, "real": real,
            "virtual": virtual, "status": "ok"}


@pytest.fixture(scope="session")
def default_spec() -> SceneSpec:
    return SceneSpec()


@pytest.fixture(scope="session")
def default_summary(default_spec):
    return calibrate_spec(default_spec)


@pytest.fixture(scope="session")
def sequence_dir(tmp_path_factory):
    """100-frame circular sequence with mild hue and depth jitter."""
    out = tmp_path_factory.mktemp("sequence")
    spec = SceneSpec(hue_jitter=3, depth_jitter=3, seed=11)
    trajectory = circular_trajectory(100, radius_mm=60.0, height_mm=120.0,
                                     height_amp_mm=40.0)
    render_sequence(spec, trajectory, out)
    return out


@pytest.fixture(scope="session")
def sequence_profile_path(sequence_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("profile") / "profile.json"
    rc = subprocess.run(
        [sys.executable, "-m", "tangible_tracker", "calibrate",
         "--background", str(sequence_dir / "background.ppm"),
         "--with-marker", str(sequence_dir / "with_marker.ppm"),
         "--with-pointer", str(sequence_dir / "with_pointer.ppm"),
         "--depth-to-rgb", "1,0,4,0,1,2",
         "--camera-height", "600",
         "--principal-point", "319.5,239.5",
         "--rho-z", "0.002",
         "--out", str(out)],
        capture_output=True, text=True)
    assert rc.returncode == 0, rc.stderr
    return out


@pytest.fixture(scope="session")
def tracked_run(sequence_dir, sequence_profile_path):
    """One full CLI track run over the jittered sequence.

    Returns (records, fps_report, truth) parsed from stdout and truth.json.
    """
    proc = subprocess.run(
        [sys.executable, "-m", "tangible_tracker", "track",
         "--calib", str(sequence_profile_path),
         "--frames", str(sequence_dir),
         "--fps-report"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    records = [json.loads(line) for line in lines[:-1]]
    fps_report = json.loads(lines[-1])
    with open(sequence_dir / "truth.json", "r", encoding="utf-8") as f:
        truth = json.load(f)
    return records, fps_report, truth
