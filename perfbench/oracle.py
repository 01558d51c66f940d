"""Correctness oracle: every CLI output is checked against analytic truth.

The checks use the simulator's truth (``truth.json`` and ``scene_truth``)
and plain arithmetic, never the tracker's own predicates, so a defect in
the tracker cannot hide behind the oracle.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

from tangible_tracker.simulator import SceneSpec, scene_truth

# acceptance-6 tolerances
VIRTUAL_XY_TOL = 0.02
HEIGHT_TOL_MM = 10.0
# Corner tolerance for calibrate. The 3x3 majority vote in mask extraction
# removes each marker corner's tip pixel, so detected corners sit 1.4 px
# inside the true vertex on an axis-aligned marker and up to 2.9 px on
# rotated, tilted ones (2000 sampled poses, mean 1.8 px).
CORNER_TOL_PX = 3.0

_CORNER_RE = re.compile(r"^corner\[(\d)\] = \((-?[\d.]+), (-?[\d.]+)\)$")


def in_view(truth_frame: dict, width: int, height: int) -> bool:
    x, y = truth_frame["ball_px"]
    return 0.0 <= x < width and 0.0 <= y < height


def check_track_record(record: dict, seq: int, truth_frame: dict,
                       width: int, height: int) -> str | None:
    """Why the record for the seq-th frame is wrong, or None if it is right."""
    if record.get("seq") != seq or record.get("frame") != truth_frame["idx"]:
        return f"seq/frame {record.get('seq')}/{record.get('frame')}, expected {seq}/{truth_frame['idx']}"
    status = record.get("status")
    if not in_view(truth_frame, width, height):
        if status != "NoPointer":
            return f"frame {seq}: status {status!r} for an out-of-view ball"
        if any(record.get(k) is not None for k in ("px", "depth_mm", "real", "virtual")):
            return f"frame {seq}: NoPointer record with coordinates"
        return None
    if status != "ok":
        return f"frame {seq}: status {status!r} for an in-view ball"
    virtual, real = record.get("virtual"), record.get("real")
    values = list(virtual or []) + list(real or []) + list(record.get("px") or [])
    if len(values) != 8 or not all(isinstance(v, (int, float)) and math.isfinite(v)
                                   for v in values):
        return f"frame {seq}: malformed or non-finite coordinates"
    want = truth_frame["virtual"]
    xy = math.hypot(virtual[0] - want[0], virtual[1] - want[1])
    if not xy < VIRTUAL_XY_TOL:
        return f"frame {seq}: virtual xy off by {xy:.4f}"
    dz = abs(real[2] - truth_frame["ball_real"][2])
    if not dz < HEIGHT_TOL_MM:
        return f"frame {seq}: height off by {dz:.2f} mm"
    return None


def check_track_run(lines: list[str], truth: dict, width: int,
                    height: int) -> tuple[list[dict], list[str]]:
    """Parse one run's record lines and check each against truth.

    Returns the parsed records and one reason per wrong record. A run that
    emitted the wrong number of records has every missing frame counted
    wrong.
    """
    frames = truth["frames"]
    records, wrong = [], []
    for seq, line in enumerate(lines):
        try:
            record = json.loads(line, parse_constant=_reject_constant)
        except ValueError as exc:
            wrong.append(f"line {seq}: not strict JSON ({exc})")
            continue
        records.append(record)
        if seq >= len(frames):
            wrong.append(f"line {seq}: more records than frames")
            continue
        reason = check_track_record(record, seq, frames[seq], width, height)
        if reason:
            wrong.append(reason)
    for seq in range(len(lines), len(frames)):
        wrong.append(f"frame {seq}: no record")
    return records, wrong


def _reject_constant(name: str):
    raise ValueError(f"{name} is not JSON")


def check_stream(stdout_lines: list[str], received: list[str]) -> list[str]:
    """The client's lines must be a gap-free suffix of stdout's records.

    A client that connects late misses a prefix; everything from its first
    line on must match stdout exactly, through the last record.
    """
    if not received:
        return ["stream client received no records"]
    try:
        first = json.loads(received[0])["seq"]
    except (ValueError, KeyError, TypeError):
        return ["stream line 0 is not a record"]
    if not isinstance(first, int) or not 0 <= first < len(stdout_lines):
        return [f"stream starts at unknown seq {first!r}"]
    expected = stdout_lines[first:]
    wrong = []
    for i, line in enumerate(expected):
        if i >= len(received):
            wrong.append(f"stream missing seq {first + i}")
        elif received[i] != line:
            wrong.append(f"stream line for seq {first + i} differs from stdout")
    if len(received) > len(expected):
        wrong.append(f"stream has {len(received) - len(expected)} extra line(s)")
    return wrong


def parse_corners(stdout: str) -> list[tuple[float, float]]:
    corners = []
    for line in stdout.splitlines():
        m = _CORNER_RE.match(line)
        if m:
            corners.append((float(m.group(2)), float(m.group(3))))
    return corners


def corner_error_px(corners, spec: SceneSpec) -> float:
    """Largest distance from a true corner to its detected corner, pairing
    each true corner with a distinct detected one; inf if unpaired."""
    truth = scene_truth(spec).marker_corners_px
    got = np.asarray(corners, dtype=np.float64).reshape(-1, 2)
    if len(got) != len(truth):
        return math.inf
    dist = np.hypot(*(truth[:, None, :] - got[None, :, :]).transpose(2, 0, 1))
    nearest = dist.argmin(axis=1)
    if len(set(nearest.tolist())) != len(truth):
        return math.inf
    return float(dist[np.arange(len(truth)), nearest].max())


def hue_contains(bounds: dict, hue: int) -> bool:
    lo, hi = bounds["lo"], bounds["hi"]
    if lo > hi:  # interval wraps through 0
        return hue >= lo or hue <= hi
    return lo <= hue <= hi


def check_calibration(code: int, stdout: str, profile: dict | None,
                      spec: SceneSpec) -> str | None:
    """Why a calibrate invocation is wrong, or None if it is right."""
    if code != 0:
        return f"calibrate exited {code}"
    if profile is None:
        return "no profile written"
    err = corner_error_px(parse_corners(stdout), spec)
    if not err <= CORNER_TOL_PX:
        return f"corner off by {err:.2f} px"
    if not hue_contains(profile["hue_bounds"], spec.ball_hue):
        return f"hue bounds {profile['hue_bounds']} miss ball hue {spec.ball_hue}"
    return None
