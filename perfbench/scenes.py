"""Seeded workload inputs, rendered with the package's own simulator.

Everything here is a pure function of the workload seed: the same seed
writes byte-identical netpbm files, truth and calibrate command line.
The tracker under test only ever sees the files and the profile.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from tangible_tracker.simulator import (
    SceneSpec,
    circular_trajectory,
    depth_alignment,
    render_sequence,
)

WORKLOADS = ("track-vga", "track-hd-miss")

# Frames per track directory. Every ``track`` run replays the whole
# directory, so fewer frames mean more runs, hence more set-up samples and
# more processes to average over: frame times differ by 10% and more from
# one process to the next on the same files.
TRACK_FRAMES = {"track-vga": 32, "track-hd-miss": 28}

# Every fourth frame of track-hd-miss carries the ball this far off the
# marker plane centre, well outside a 1280x720 view.
OUT_OF_VIEW_PLANE_MM = (1200.0, 900.0)


@dataclass(frozen=True)
class TrackSet:
    """A frame directory, its truth and how to calibrate its rig."""

    spec: SceneSpec
    frames_dir: str
    truth_path: str
    calibrate_argv: tuple[str, ...]
    profile_path: str
    listen: bool


def _fmt(value: float) -> str:
    return repr(float(value))


def calibrate_argv(spec: SceneSpec, capture_dir: str, out_path: str) -> tuple[str, ...]:
    """The ``calibrate`` command line for a rig rendered into capture_dir."""
    align = depth_alignment(spec).matrix.ravel()
    return (
        "calibrate",
        "--background", os.path.join(capture_dir, "background.ppm"),
        "--with-marker", os.path.join(capture_dir, "with_marker.ppm"),
        "--with-pointer", os.path.join(capture_dir, "with_pointer.ppm"),
        "--depth-to-rgb", ",".join(_fmt(v) for v in align),
        "--camera-height", _fmt(spec.camera_height_mm),
        "--principal-point", ",".join(_fmt(v) for v in spec.principal_point),
        "--rho-z", _fmt(spec.rho_z),
        "--raw-to-mm", _fmt(spec.raw_to_mm),
        "--out", out_path,
    )


def _track_spec(workload: str, seed: int) -> tuple[SceneSpec, list]:
    n = TRACK_FRAMES[workload]
    # the seed picks the start of the loop and the sensor noise; the path
    # itself is fixed so that seeds differ little in how much work they are
    start = int(np.random.default_rng(seed).integers(n))
    path = circular_trajectory(n, radius_mm=60.0, height_mm=120.0,
                               height_amp_mm=40.0)
    path = path[start:] + path[:start]
    if workload == "track-vga":
        spec = SceneSpec(hue_jitter=3, depth_jitter=3,
                         depth_frame_offset=(4, 2), seed=seed)
    else:
        spec = SceneSpec(width=1280, height=720, ball_hue=2, hue_jitter=3,
                         depth_jitter=3, depth_frame_offset=(0, 0), seed=seed)
        path = [(*OUT_OF_VIEW_PLANE_MM, h) if i % 4 == 3 else (x, y, h)
                for i, (x, y, h) in enumerate(path)]
    return spec, path


def make_track_set(workload: str, seed: int, out_dir: str) -> TrackSet:
    """Render the workload's frame directory and calibration captures."""
    spec, path = _track_spec(workload, seed)
    frames_dir = os.path.join(out_dir, "frames")
    truth_path = render_sequence(spec, path, frames_dir)
    profile_path = os.path.join(out_dir, "profile.json")
    return TrackSet(spec, frames_dir, truth_path,
                    calibrate_argv(spec, frames_dir, profile_path),
                    profile_path, listen=workload == "track-vga")


def load_truth(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)

