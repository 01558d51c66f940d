import contextlib
import dataclasses
import errno
import io
import json
import math
import os
import pkgutil
import platform
import re
import resource
import shlex
import socket
import subprocess
import sys
import time
import types
import weakref
from pathlib import Path

import numpy as np
import pytest

import tangible_tracker
from tangible_tracker import bench, cli, color_calibration, imaging, pnm, simulator, tracking
from tangible_tracker.cli import main
from tangible_tracker.color_calibration import HueBounds
from tangible_tracker.errors import DegenerateError, PipelineError
from tangible_tracker.imaging import AffineTransform
from tangible_tracker.mask_extraction import DEFAULT_MIN_AREA, MaskRequest, extract_mask
from tangible_tracker.registration import apply_homography, load_profile, save_profile
from tangible_tracker.simulator import (
    SceneSpec,
    circular_trajectory,
    fill_convex_polygon,
    render_sequence,
)
from tangible_tracker.tracking import (
    FramePair,
    detect_pointer_2d,
    error_record,
    frame_record,
    track_frame,
)
from tests.conftest import calibrate_spec
from tests.test_imaging import full_warp_oracle
from tests.test_pnm import open_fd_count


def run_cli(*args, env=None):
    import os
    merged = dict(os.environ)
    if env:
        merged.update(env)
    return subprocess.run([sys.executable, "-m", "tangible_tracker", *args],
                          capture_output=True, text=True, env=merged)


def test_tt_log_controls_stderr_diagnostics(sequence_dir, sequence_profile_path,
                                            tmp_path):
    frames = tmp_path / "frames"
    frames.mkdir()
    (frames / "rgb_0000.ppm").write_bytes(b"P6\n2 2\n255\n")  # truncated
    quiet = run_cli("track", "--calib", str(sequence_profile_path),
                    "--frames", str(frames), env={"TT_LOG": "error"})
    chatty = run_cli("track", "--calib", str(sequence_profile_path),
                     "--frames", str(frames), env={"TT_LOG": "debug"})
    assert quiet.returncode == chatty.returncode == 0
    assert "frame 0" not in quiet.stderr
    assert "frame 0 invalid" in chatty.stderr


# three in-process calls, each under its own stderr and TT_LOG; run in a
# fresh interpreter, as a host program would, where no test harness holds
# a root handler already
_CALLS_WITH_THEIR_OWN_STDERR = """
import contextlib, io, json, os, sys
from tangible_tracker.cli import main
errs = []
for level in ("warn", "error", "info"):
    os.environ["TT_LOG"] = level
    with contextlib.redirect_stderr(io.StringIO()) as err, \\
            contextlib.redirect_stdout(io.StringIO()):
        main(["track", "--calib", sys.argv[1], "--frames", sys.argv[2]])
    errs.append(err.getvalue())
print(json.dumps(errs))
"""


def test_each_in_process_call_logs_to_its_own_stderr_at_its_own_level(
        sequence_profile_path, tmp_path):
    frames = tmp_path / "frames"
    frames.mkdir()
    (frames / "rgb_0000.ppm").write_bytes(b"P6\n2 2\n255\n")  # truncated
    done = subprocess.run([sys.executable, "-c", _CALLS_WITH_THEIR_OWN_STDERR,
                           str(sequence_profile_path), str(frames)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    warn, error, info = json.loads(done.stdout)
    assert warn.startswith("WARNING tangible_tracker.cli: frame 0 invalid: ")
    assert error == ""
    assert info == warn


def test_calibrate_logs_its_evidence_at_info(sequence_dir, tmp_path):
    captures = {name: sequence_dir / f"{name}.ppm"
                for name in ("background", "with_marker", "with_pointer")}
    args = ["calibrate", "--background", str(captures["background"]),
            "--with-marker", str(captures["with_marker"]),
            "--with-pointer", str(captures["with_pointer"]),
            "--camera-height", "600", "--principal-point", "319.5,239.5",
            "--rho-z", "0.002", "--out", str(tmp_path / "profile.json")]
    quiet = run_cli(*args)
    chatty = run_cli(*args, env={"TT_LOG": "info"})
    assert quiet.returncode == chatty.returncode == 0, chatty.stderr
    assert quiet.stderr == "" and quiet.stdout == chatty.stdout
    background, marker, pointer = (pnm.read_ppm(captures[name]) for name in
                                   ("background", "with_marker", "with_pointer"))
    marker_area = extract_mask(MaskRequest(background, marker, DEFAULT_MIN_AREA)).area
    pointer_mask = extract_mask(MaskRequest(background, pointer, DEFAULT_MIN_AREA))
    hsv = imaging.rgb_to_hsv(pointer)
    passing = int((color_calibration.hue_bounds_mask(hsv, HueBounds(0, 179)).bits
                   & pointer_mask.bits).sum())
    lo = int(re.search(r"hue_bounds = \[(\d+),", chatty.stdout).group(1))
    residual = re.search(r"fit_residual = (\S+)", chatty.stdout).group(1)
    assert chatty.stderr.splitlines() == [
        f"INFO tangible_tracker.registration: marker mask {marker_area} px",
        f"INFO tangible_tracker.registration: fit residual {residual}",
        f"INFO tangible_tracker.color_calibration: pointer mask {pointer_mask.area} px, "
        f"{passing} pass both floors, hue peak bin {(lo + 15) % 180}",
    ]


# ------------------------------------------------------------------- calibrate

def test_calibrate_writes_profile_matching_truth(sequence_dir, tmp_path, capsys):
    out = tmp_path / "profile.json"
    rc = main(["calibrate",
               "--background", str(sequence_dir / "background.ppm"),
               "--with-marker", str(sequence_dir / "with_marker.ppm"),
               "--with-pointer", str(sequence_dir / "with_pointer.ppm"),
               "--depth-to-rgb", "1,0,4,0,1,2",
               "--camera-height", "600",
               "--principal-point", "319.5,239.5",
               "--rho-z", "0.002",
               "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    assert "corner[0]" in captured.out
    assert "hue_bounds" in captured.out
    assert "fit_residual" in captured.out
    profile = load_profile(out)
    truth = json.loads((sequence_dir / "truth.json").read_text())
    t_true = np.array(truth["t_rv"]).reshape(3, 3)
    corners = np.array(truth["frames"][0]["marker_corners"])
    got = apply_homography(profile.t_rv, corners)
    want = apply_homography(t_true, corners)
    assert np.abs(got - want).max() < 0.02


def test_calibrate_degenerate_scene_exits_3(sequence_dir, tmp_path, capsys):
    out = tmp_path / "never.json"
    rc = main(["calibrate",
               "--background", str(sequence_dir / "background.ppm"),
               "--with-marker", str(sequence_dir / "background.ppm"),
               "--with-pointer", str(sequence_dir / "with_pointer.ppm"),
               "--camera-height", "600",
               "--principal-point", "319.5,239.5",
               "--rho-z", "0.002",
               "--out", str(out)])
    assert rc == 3
    assert "EmptyMask" in capsys.readouterr().err
    assert not out.exists()


def test_calibrate_three_corner_marker_exits_3(sequence_dir, tmp_path, capsys):
    background = pnm.read_ppm(sequence_dir / "background.ppm")
    pixels = background.pixels.copy()
    triangle = fill_convex_polygon(background.width, background.height,
                                   [(320, 50), (120, 400), (520, 400)])
    pixels[triangle.bits] = simulator.MARKER_COLOR
    with_marker = tmp_path / "triangle.ppm"
    pnm.write_ppm(with_marker, imaging.RgbImage(pixels))
    out = tmp_path / "never.json"
    rc = main(["calibrate",
               "--background", str(sequence_dir / "background.ppm"),
               "--with-marker", str(with_marker),
               "--with-pointer", str(sequence_dir / "with_pointer.ppm"),
               "--camera-height", "600",
               "--principal-point", "319.5,239.5",
               "--rho-z", "0.002",
               "--out", str(out)])
    assert rc == 3
    assert capsys.readouterr().err.startswith("DegenerateMask: marker mask shows 3 corners")
    assert not out.exists()


def test_calibrate_marker_whose_corners_cannot_be_ordered_exits_3(tmp_path, capsys):
    # a staircase whose four extreme corners leave its centroid outside them
    background = np.full((240, 320, 3), 190, dtype=np.uint8)
    marker = background.copy()
    for (top, bottom), (left, right) in [((103, 108), (19, 95)), ((109, 113), (19, 160)),
                                         ((114, 114), (19, 209)), ((115, 131), (85, 209)),
                                         ((132, 152), (85, 160))]:
        marker[top:bottom + 1, left:right + 1] = 45
    pointer = background.copy()
    yy, xx = np.mgrid[:240, :320]
    pointer[(yy - 60) ** 2 + (xx - 260) ** 2 <= 15 ** 2] = (255, 128, 0)
    for name, pixels in [("background", background), ("marker", marker),
                         ("pointer", pointer)]:
        pnm.write_ppm(tmp_path / f"{name}.ppm", imaging.RgbImage(pixels))
    out = tmp_path / "never.json"
    rc = main(["calibrate",
               "--background", str(tmp_path / "background.ppm"),
               "--with-marker", str(tmp_path / "marker.ppm"),
               "--with-pointer", str(tmp_path / "pointer.ppm"),
               "--camera-height", "600",
               "--principal-point", "160,120",
               "--rho-z", "0.002",
               "--out", str(out)])
    assert rc == 3
    assert capsys.readouterr().err.startswith("DegenerateMask: marker corners cannot be ordered")
    assert not out.exists()


def test_calibrate_passes_min_area_by_keyword(sequence_dir, tmp_path, monkeypatch):
    calls = []

    def record(*args, **kwargs):
        calls.append(kwargs)
        raise DegenerateError("recorded")

    monkeypatch.setattr(cli, "calibrate_scene", record)
    rc = main(["calibrate",
               "--background", str(sequence_dir / "background.ppm"),
               "--with-marker", str(sequence_dir / "with_marker.ppm"),
               "--with-pointer", str(sequence_dir / "with_pointer.ppm"),
               "--camera-height", "600",
               "--principal-point", "319.5,239.5",
               "--rho-z", "0.002",
               "--out", str(tmp_path / "never.json")])
    assert rc == 3
    assert [kwargs["min_area"] for kwargs in calls] == [DEFAULT_MIN_AREA]


def test_calibrate_unreadable_path_exits_4(tmp_path, capsys):
    out = tmp_path / "never.json"
    rc = main(["calibrate",
               "--background", str(tmp_path / "missing.ppm"),
               "--with-marker", str(tmp_path / "missing.ppm"),
               "--with-pointer", str(tmp_path / "missing.ppm"),
               "--camera-height", "600",
               "--principal-point", "1,1",
               "--rho-z", "0.002",
               "--out", str(out)])
    assert rc == 4
    assert not out.exists()


def test_calibrate_bad_flags_exit_5(sequence_dir, tmp_path):
    rc = main(["calibrate",
               "--background", str(sequence_dir / "background.ppm"),
               "--with-marker", str(sequence_dir / "with_marker.ppm"),
               "--with-pointer", str(sequence_dir / "with_pointer.ppm"),
               "--depth-to-rgb", "1,0,4",
               "--camera-height", "600",
               "--principal-point", "319.5,239.5",
               "--rho-z", "0.002",
               "--out", str(tmp_path / "x.json")])
    assert rc == 5


@pytest.mark.parametrize("height", ["0", "-600", "inf"])
def test_calibrate_camera_height_out_of_range_exits_5(sequence_dir, tmp_path, capsys,
                                                      height):
    # the profile's own check refuses it, after the fit and before any write
    out = tmp_path / "never.json"
    rc = main(["calibrate",
               "--background", str(sequence_dir / "background.ppm"),
               "--with-marker", str(sequence_dir / "with_marker.ppm"),
               "--with-pointer", str(sequence_dir / "with_pointer.ppm"),
               "--depth-to-rgb", "1,0,4,0,1,2",
               "--camera-height", height,
               "--principal-point", "319.5,239.5",
               "--rho-z", "0.002",
               "--out", str(out)])
    assert rc == 5
    assert capsys.readouterr().err == \
        "Validation: camera_height_mm must be positive and finite\n"
    assert not out.exists()


# ------------------------------------------------------------------------ track

def test_track_records_in_frame_order(sequence_dir, sequence_profile_path, tracked_run):
    records, fps_report, truth = tracked_run
    assert len(records) == 100
    assert [r["frame"] for r in records] == list(range(100))
    assert [r["seq"] for r in records] == list(range(100))
    assert all(r["status"] == "ok" for r in records)
    assert fps_report["frames"] == 100
    assert fps_report["fps"] > 0


def test_track_isolates_bad_frames(sequence_dir, sequence_profile_path, tmp_path):
    frames = tmp_path / "frames"
    frames.mkdir()
    for i in range(3):
        for kind in ("rgb_%04d.ppm", "depth_%04d.pgm"):
            src = sequence_dir / (kind % i)
            (frames / (kind % i)).write_bytes(src.read_bytes())
    (frames / "rgb_0001.ppm").write_bytes(b"P6\n9 9\n255\n")  # truncated
    proc = run_cli("track", "--calib", str(sequence_profile_path),
                   "--frames", str(frames))
    assert proc.returncode == 0
    records = [json.loads(line) for line in proc.stdout.strip().splitlines()]
    assert [r["status"] for r in records] == ["ok", "BadFrame", "ok"]
    assert records[1]["px"] is None


def test_track_depth_at_maxval_255_is_a_bad_frame(sequence_dir, sequence_profile_path,
                                                  tmp_path, capsys):
    frames = tmp_path / "frames"
    frames.mkdir()
    for i in range(2):
        (frames / f"rgb_{i:04d}.ppm").write_bytes(
            (sequence_dir / f"rgb_{i:04d}.ppm").read_bytes())
    (frames / "depth_0001.pgm").write_bytes((sequence_dir / "depth_0001.pgm").read_bytes())
    # frame 0's depth at a quarter scale in 8 bits: the ball still stands
    # out of the plane, at a quarter of its range
    depth = pnm.read_depth(sequence_dir / "depth_0000.pgm").pixels
    eight_bit = np.minimum(depth // 4, 255).astype(np.uint8)
    (frames / "depth_0000.pgm").write_bytes(
        b"P5\n%d %d\n255\n" % (depth.shape[1], depth.shape[0]) + eight_bit.tobytes())
    rc = main(["track", "--calib", str(sequence_profile_path), "--frames", str(frames)])
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert rc == 0
    assert [r["status"] for r in records] == ["BadFrame", "ok"]
    assert records[0]["depth_mm"] is None


def test_track_refuses_two_files_of_one_index(sequence_profile_path, monkeypatch, capsys):
    # rgb_1 and rgb_01 are both frame 1: which one is meant cannot be told,
    # whatever order the directory lists them in
    names = ["rgb_2.ppm", "rgb_01.ppm", "depth_1.pgm", "rgb_1.ppm", "rgb_0.ppm"]
    frames = os.path.join("frames", "")
    for listing in (names, names[::-1]):
        monkeypatch.setattr(cli.os, "listdir", lambda _dir, listing=listing: list(listing))
        rc = main(["track", "--calib", str(sequence_profile_path), "--frames", "frames"])
        captured = capsys.readouterr()
        assert rc == 5
        assert captured.err == (f"Validation: {frames}rgb_01.ppm and {frames}rgb_1.ppm "
                                "are both frame 1\n")
        assert captured.out == ""


def test_track_frame_names_take_only_ascii_digits(sequence_dir, sequence_profile_path,
                                                  tmp_path, capsys):
    # a non-ASCII digit and a trailing newline make no frame 1 of their own;
    # the newline name would otherwise pair with depth_1.pgm
    frames = tmp_path / "frames"
    frames.mkdir()
    for name in ("rgb_1.ppm", "rgb_1.ppm\n", "rgb_\u0661.ppm"):
        (frames / name).write_bytes((sequence_dir / "rgb_0000.ppm").read_bytes())
    (frames / "depth_1.pgm").write_bytes((sequence_dir / "depth_0000.pgm").read_bytes())
    rc = main(["track", "--calib", str(sequence_profile_path), "--frames", str(frames)])
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert rc == 0
    assert [(r["seq"], r["frame"], r["status"]) for r in records] == [(0, 1, "ok")]


def test_track_missing_profile_exits_4(tmp_path):
    rc = main(["track", "--calib", str(tmp_path / "no.json"),
               "--frames", str(tmp_path)])
    assert rc == 4


def test_track_empty_frames_dir_exits_5(sequence_profile_path, tmp_path):
    rc = main(["track", "--calib", str(sequence_profile_path),
               "--frames", str(tmp_path)])
    assert rc == 5


def _set(key, index, value):
    def mutate(doc):
        doc[key][index] = value
    return mutate


def _token(token, *path):
    """Write the field at ``path`` as the JSON token given, verbatim."""
    def mutate(doc):
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = "<token>"
        return json.dumps(doc).replace('"<token>"', token)
    return mutate


HUGE = "9" * 401  # a JSON integer far beyond the float range


@pytest.mark.parametrize("mutate", [
    _set("t_rv", 0, float("nan")),
    _set("depth_to_rgb", 2, float("inf")),
    _set("principal_point", 1, float("nan")),
    lambda doc: doc.update(camera_height_mm=float("inf")),
    lambda doc: doc.update(hue_bounds=5),
    lambda doc: doc.pop("rho_z"),
    None,  # not JSON at all
    _token("Infinity", "hue_bounds", "lo"),
    _token("1e400", "hue_bounds", "hi"),
    _token("5.7", "hue_bounds", "lo"),
    _token("true", "hue_bounds", "lo"),
    _token('"5"', "hue_bounds", "lo"),
    lambda doc: doc.update(principal_point="32"),
    lambda doc: doc.update(principal_point=[320, 240, 7]),
    lambda doc: doc.update(principal_point=[True, False]),
    lambda doc: doc.update(camera_height_mm="1000"),
    lambda doc: doc.update(camera_height_mm=True),
    lambda doc: doc.update(rho_z="0.01"),
    lambda doc: doc.update(raw_to_mm="1"),
    lambda doc: doc.update(t_rv=[str(v) for v in doc["t_rv"]]),
    lambda doc: doc.update(t_rv=[doc["t_rv"][i:i + 3] for i in (0, 3, 6)]),
    lambda doc: doc.update(depth_to_rgb=[True, False, 0, 0, True, 0]),
    lambda doc: doc.update(note="unknown"),
    lambda doc: doc["hue_bounds"].update(note="unknown"),
    _token(HUGE, "rho_z"),
    _token(HUGE, "camera_height_mm"),
    _token(HUGE, "raw_to_mm"),
    _token(HUGE, "t_rv", 0),
    _token(HUGE, "depth_to_rgb", 2),
    _token(HUGE, "principal_point", 0),
], ids=["nan-t_rv", "inf-depth_to_rgb", "nan-principal_point",
        "inf-camera_height", "int-hue_bounds", "missing-rho_z", "invalid-json",
        "inf-lo", "1e400-hi", "float-lo", "bool-lo", "string-lo",
        "string-principal_point", "three-principal_point",
        "bool-principal_point", "string-camera_height", "bool-camera_height",
        "string-rho_z", "string-raw_to_mm", "strings-t_rv", "nested-t_rv",
        "bool-depth_to_rgb", "unknown-key", "unknown-hue_bounds-key",
        "huge-rho_z", "huge-camera_height", "huge-raw_to_mm", "huge-t_rv",
        "huge-depth_to_rgb", "huge-principal_point"])
def test_track_malformed_profile_exits_5(sequence_dir, sequence_profile_path,
                                         tmp_path, capsys, mutate):
    doc = json.loads(sequence_profile_path.read_text())
    bad = tmp_path / "bad.json"
    if mutate is None:
        bad.write_text("{not json")
    else:
        text = mutate(doc)  # the whole text, for tokens json.dumps cannot write
        bad.write_text(text if isinstance(text, str) else json.dumps(doc))
    rc = main(["track", "--calib", str(bad), "--frames", str(sequence_dir)])
    captured = capsys.readouterr()
    assert rc == 5
    assert captured.out == ""
    assert captured.err.startswith("BadProfile:")
    assert "Traceback" not in captured.err


def test_track_profile_whose_h33_division_overflows_exits_5_quietly(
        sequence_dir, sequence_profile_path, tmp_path):
    # every entry is finite, but 1e300 / 1e-300 is not: the profile refuses
    # the map, and numpy prints no warning on the way
    profile = _profile_with(sequence_profile_path, tmp_path / "profile.json",
                            t_rv=[1, 0, 0, 0, 1, 1e300, 0, 0, 1e-300])
    proc = run_cli("track", "--calib", str(profile), "--frames", str(sequence_dir))
    assert proc.returncode == 5
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == ["BadProfile: homography matrix must be finite"]


@pytest.mark.parametrize("key, value", [("wraps", False), ("min_saturation", 60),
                                        ("min_value", 40)])
def test_track_profile_with_a_dropped_hue_key_exits_5(
        sequence_dir, sequence_profile_path, tmp_path, capsys, key, value):
    # the hue interval is all a profile holds: no old key is read or forgiven
    doc = json.loads(sequence_profile_path.read_text())
    doc["hue_bounds"][key] = value
    bad = tmp_path / "old.json"
    bad.write_text(json.dumps(doc))
    rc = main(["track", "--calib", str(bad), "--frames", str(sequence_dir)])
    captured = capsys.readouterr()
    assert rc == 5
    assert captured.out == ""
    assert captured.err.startswith("BadProfile: hue_bounds has")
    assert f"unknown keys ['{key}']" in captured.err


@pytest.mark.parametrize("listen", ["127.0.0.1:70000", "127.0.0.1:65536",
                                    "127.0.0.1"])
def test_track_bad_listen_address_exits_5(sequence_dir, sequence_profile_path,
                                          capsys, listen):
    rc = main(["track", "--calib", str(sequence_profile_path),
               "--frames", str(sequence_dir), "--listen", listen])
    captured = capsys.readouterr()
    assert rc == 5
    assert captured.out == ""
    assert captured.err.startswith("Validation:")
    assert "Traceback" not in captured.err


def _reject_constant(token):
    raise ValueError(f"non-JSON token {token}")


def test_track_non_finite_fix_is_a_status_not_infinity(
        sequence_dir, sequence_profile_path, tmp_path, capsys):
    frames = tmp_path / "frames"
    frames.mkdir()
    for i in range(3):
        for kind in ("rgb_%04d.ppm", "depth_%04d.pgm"):
            (frames / (kind % i)).write_bytes((sequence_dir / (kind % i)).read_bytes())
    doc = json.loads(sequence_profile_path.read_text())
    doc["rho_z"] = 1e308  # finite, so it loads; rho_z * height overflows
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps(doc))
    rc = main(["track", "--calib", str(profile), "--frames", str(frames),
               "--fps-report"])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 0
    parsed = [json.loads(line, parse_constant=_reject_constant) for line in lines]
    records = parsed[:-1]
    assert [r["status"] for r in records] == ["NonFinite"] * 3
    for r in records:
        assert r["px"] is r["depth_mm"] is r["real"] is r["virtual"] is None


@pytest.mark.parametrize("key, value, status", [
    ("raw_to_mm", 1e308, "InvalidHeight"),
    ("t_rv", [1e308, 0, 0, 0, 1e308, 0, 0, 0, 1], "NonFinite"),
], ids=["raw_to_mm", "t_rv"])
def test_track_overflowing_profile_warns_nothing(
        sequence_dir, sequence_profile_path, tmp_path, capsys, key, value, status):
    # finite, so the profile loads; the depth or the planar map overflows
    frames = tmp_path / "frames"
    frames.mkdir()
    for kind in ("rgb_0000.ppm", "depth_0000.pgm"):
        (frames / kind).write_bytes((sequence_dir / kind).read_bytes())
    doc = json.loads(sequence_profile_path.read_text())
    doc[key] = value
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps(doc))
    rc = main(["track", "--calib", str(profile), "--frames", str(frames)])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.err == ""
    record = json.loads(captured.out, parse_constant=_reject_constant)
    assert record["status"] == status and record["virtual"] is None


# the names perfbench/tracer.py patches onto the cli module; a missing one
# would be created silently there and read as zero work
CLI_SEAMS = ("pnm", "json", "load_profile", "track_frame",
             "calibrate_scene", "save_profile", "StreamServer")


def test_cli_seams_exist():
    for name in CLI_SEAMS:
        assert hasattr(cli, name), name


def _frames_with_miss_and_bad(sequence_dir, frames):
    """Frames 0-2 of the sequence, a pointer-free frame 3 and a truncated
    frame 4."""
    frames.mkdir()
    for i in range(3):
        for kind in ("rgb_%04d.ppm", "depth_%04d.pgm"):
            (frames / (kind % i)).write_bytes((sequence_dir / (kind % i)).read_bytes())
    (frames / "rgb_0003.ppm").write_bytes((sequence_dir / "background.ppm").read_bytes())
    (frames / "depth_0003.pgm").write_bytes((sequence_dir / "depth_0000.pgm").read_bytes())
    (frames / "rgb_0004.ppm").write_bytes(b"P6\n9 9\n255\n")
    (frames / "depth_0004.pgm").write_bytes((sequence_dir / "depth_0000.pgm").read_bytes())
    return frames


def _profile_with(sequence_profile_path, path, **fields):
    doc = json.loads(sequence_profile_path.read_text())
    doc.update(fields)
    path.write_text(json.dumps(doc))
    return path


ROTATE_SCALE = [1.02 * np.cos(0.03), -1.02 * np.sin(0.03), 4.3,
                1.02 * np.sin(0.03), 1.02 * np.cos(0.03), -2.6]


def full_warp_records(frames, profile):
    """Records of the pipeline that warped each whole depth frame with the
    frozen full-frame warp, then tracked it with nothing left to align."""
    aligned_profile = dataclasses.replace(profile,
                                          depth_to_rgb=AffineTransform(np.eye(2, 3)))
    lines = []
    for seq, (idx, rgb_path, depth_path) in enumerate(cli._scan_frames(str(frames))):
        try:
            rgb = pnm.read_ppm(rgb_path)
            depth = pnm.read_depth(depth_path, profile.raw_to_mm)
            frame = FramePair(rgb, full_warp_oracle(depth, profile.depth_to_rgb))
        except ValueError:
            record = error_record(idx, "BadFrame")
        else:
            try:
                record = frame_record(idx, track_frame(frame, aligned_profile))
            except PipelineError as exc:
                record = error_record(idx, exc.name)
        lines.append(json.dumps({"seq": seq, **record}, allow_nan=False))
    return lines


@pytest.mark.parametrize("depth_to_rgb,aligns", [
    (ROTATE_SCALE, True),
    ([1.0, 0.0, 0.0, 0.0, 1.0, 0.0], False),
    ([1.0, 0.0, 4.0, 0.0, 1.0, 2.0], False),
], ids=["rotate-scale", "identity", "translation"])
def test_track_aligns_only_the_pointer_box(
        sequence_dir, sequence_profile_path, tmp_path, capsys, monkeypatch,
        depth_to_rgb, aligns):
    frames = _frames_with_miss_and_bad(sequence_dir, tmp_path / "frames")
    profile_path = _profile_with(sequence_profile_path, tmp_path / "profile.json",
                                 depth_to_rgb=depth_to_rgb)
    profile = load_profile(profile_path)
    real_sampler = tracking._box_depth_samples
    calls = []

    def counting_sampler(depth, t, box):
        out = real_sampler(depth, t, box)
        # a view of the depth frame is a slice: nothing was sampled
        sampled = 0 if np.shares_memory(out, depth.pixels) else out.size
        calls.append((box, sampled))
        return out

    monkeypatch.setattr(tracking, "_box_depth_samples", counting_sampler)
    rc = main(["track", "--calib", str(profile_path), "--frames", str(frames)])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 0
    monkeypatch.undo()

    statuses = [json.loads(line)["status"] for line in lines]
    assert statuses == ["ok", "ok", "ok", "NoPointer", "BadFrame"]
    boxes = [detect_pointer_2d(pnm.read_ppm(str(frames / f"rgb_{i:04d}.ppm")),
                               profile.hue_bounds)[1] for i in range(3)]
    assert [box for box, _ in calls] == boxes  # one call per hit, none on the miss
    for box, sampled in calls:
        assert sampled == (box[2] * box[3] if aligns else 0)
    assert lines == full_warp_records(frames, profile)


@pytest.mark.parametrize("principal_point", [
    [5000.0, -300.0], [640.0, 239.5], [319.5, -0.5],
], ids=["far-outside", "x-at-width", "y-below-0"])
def test_track_principal_point_outside_frame_exits_5(
        sequence_dir, sequence_profile_path, tmp_path, capsys, principal_point):
    frames = tmp_path / "frames"
    frames.mkdir()
    # frame 0 does not read, so frame 1 is the first whose size is known
    (frames / "rgb_0000.ppm").write_bytes(b"P6\n9 9\n255\n")
    (frames / "depth_0000.pgm").write_bytes((sequence_dir / "depth_0000.pgm").read_bytes())
    for i in (1, 2):
        for kind in ("rgb_%04d.ppm", "depth_%04d.pgm"):
            (frames / (kind % i)).write_bytes((sequence_dir / (kind % i)).read_bytes())
    profile = _profile_with(sequence_profile_path, tmp_path / "profile.json",
                            principal_point=principal_point)
    rc = main(["track", "--calib", str(profile), "--frames", str(frames),
               "--fps-report"])
    captured = capsys.readouterr()
    assert rc == 5
    assert [json.loads(line)["status"] for line in captured.out.splitlines()] \
        == ["BadFrame"]
    assert captured.err.startswith("BadProfile:")
    assert "Traceback" not in captured.err


def test_fps_report_counts_statuses(sequence_dir, sequence_profile_path,
                                    tmp_path, capsys):
    frames = _frames_with_miss_and_bad(sequence_dir, tmp_path / "frames")
    rc = main(["track", "--calib", str(sequence_profile_path),
               "--frames", str(frames), "--fps-report"])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 0
    report = json.loads(lines[-1])
    assert list(report) == ["fps", "frames", "kernel_seconds", "kernel_cpu_seconds",
                            "wall_seconds", "status_counts", "peak_rss_kb"]
    # the high-water mark of this very process, read after the frame loop
    assert isinstance(report["peak_rss_kb"], int)
    assert 0 < report["peak_rss_kb"] <= resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    assert report["frames"] == 5
    assert report["fps"] > 0
    assert 0 < report["kernel_seconds"] <= report["wall_seconds"]
    # the tracking thread's CPU time over the same calls, which host load
    # does not stretch
    assert 0 < report["kernel_cpu_seconds"] <= report["wall_seconds"]
    assert report["status_counts"] == {"ok": 3, "NoPointer": 1, "BadFrame": 1}


@pytest.mark.parametrize("readable", [2, 0])
def test_fps_report_rates_only_the_tracked_frames(sequence_dir, sequence_profile_path,
                                                  tmp_path, capsys, readable):
    # frames without a depth file never reach track_frame, so they add
    # neither kernel time nor a frame to the rate
    frames = tmp_path / "frames"
    frames.mkdir()
    for i in range(8):
        kinds = ("rgb_%04d.ppm", "depth_%04d.pgm") if i < readable else ("rgb_%04d.ppm",)
        for kind in kinds:
            (frames / (kind % i)).write_bytes((sequence_dir / (kind % i)).read_bytes())
    rc = main(["track", "--calib", str(sequence_profile_path),
               "--frames", str(frames), "--fps-report"])
    report = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert rc == 0
    assert report["frames"] == 8
    assert report["status_counts"]["IOError"] == 8 - readable
    if readable:
        assert report["fps"] * report["kernel_seconds"] == pytest.approx(readable)
    else:
        assert report["fps"] == 0.0 and report["kernel_seconds"] == 0.0


def test_fps_report_leaves_out_the_key_table_build(sequence_dir, sequence_profile_path,
                                                  tmp_path, capsys, monkeypatch):
    # a fresh process builds the key's tables once; track builds them before
    # its first frame, so kernel_seconds holds none of that build
    frames = tmp_path / "frames"
    frames.mkdir()
    for i in range(3):
        for kind in ("rgb_%04d.ppm", "depth_%04d.pgm"):
            (frames / (kind % i)).write_bytes((sequence_dir / (kind % i)).read_bytes())
    build_seconds = []
    in_kernel = []
    kernel_builds = []

    def slow_rgb_to_hsv(img):
        t0 = time.perf_counter()
        time.sleep(0.05)
        out = imaging.rgb_to_hsv(img)
        build_seconds.append(time.perf_counter() - t0)
        if in_kernel:
            kernel_builds.append(img.pixels.shape)
        return out

    def marked_track_frame(frame, profile):
        in_kernel.append(True)
        built = color_calibration.key_tables.cache_info().misses
        try:
            return track_frame(frame, profile)
        finally:
            in_kernel.pop()
            if color_calibration.key_tables.cache_info().misses != built:
                kernel_builds.append("key tables")

    color_calibration.key_tables.cache_clear()
    monkeypatch.setattr(color_calibration, "rgb_to_hsv", slow_rgb_to_hsv)
    monkeypatch.setattr(cli, "track_frame", marked_track_frame)
    rc = main(["track", "--calib", str(sequence_profile_path), "--frames", str(frames),
               "--fps-report"])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 0
    report = json.loads(lines[-1])
    assert report["status_counts"] == {"ok": 3}
    assert len(build_seconds) > 1 and kernel_builds == []  # every table, before the loop
    assert color_calibration.key_tables.cache_info().misses == 1
    assert report["kernel_seconds"] < sum(build_seconds)


def test_tracked_frames_make_no_hsv_conversion(sequence_dir, sequence_profile_path,
                                                capsys, monkeypatch):
    # the reference conversion only builds the key's tables: once they are
    # cached, a whole track run converts no pixel to HSV
    calls = []

    def counting_rgb_to_hsv(img):
        calls.append(img.pixels.shape)
        return imaging.rgb_to_hsv(img)

    monkeypatch.setattr(color_calibration, "rgb_to_hsv", counting_rgb_to_hsv)
    argv = ["track", "--calib", str(sequence_profile_path), "--frames", str(sequence_dir)]
    assert main(argv) == 0
    calls.clear()
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert '"status": "ok"' in first
    assert calls == []


def test_tracked_frames_make_no_depth_image_but_the_read(sequence_dir, sequence_profile_path,
                                                         capsys, monkeypatch):
    # the pointer box's depth is sampled straight from the frame as read:
    # read_depth builds the only DepthImage of each frame, hit or miss
    calls = []
    post_init = imaging.DepthImage.__post_init__

    def counting_post_init(self):
        calls.append(self.pixels.shape)
        post_init(self)

    monkeypatch.setattr(imaging.DepthImage, "__post_init__", counting_post_init)
    argv = ["track", "--calib", str(sequence_profile_path), "--frames", str(sequence_dir)]
    assert main(argv) == 0
    statuses = [json.loads(line)["status"] for line in capsys.readouterr().out.splitlines()]
    assert statuses.count("ok") > 0
    assert len(calls) == len(statuses)


@pytest.mark.parametrize("empty", ["rgb_0000.ppm", "depth_0000.pgm"])
def test_track_empty_frame_file_is_a_bad_frame(sequence_dir, sequence_profile_path,
                                               tmp_path, capsys, caplog, empty):
    frames = tmp_path / "frames"
    frames.mkdir()
    for i in range(2):
        for name in (f"rgb_{i:04d}.ppm", f"depth_{i:04d}.pgm"):
            (frames / name).write_bytes((sequence_dir / name).read_bytes())
    (frames / empty).write_bytes(b"")
    rc = main(["track", "--calib", str(sequence_profile_path), "--frames", str(frames)])
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert rc == 0
    assert [r["status"] for r in records] == ["BadFrame", "ok"]
    magic = "P6" if empty.endswith(".ppm") else "P5"
    assert [r.getMessage() for r in caplog.records] == [
        f"frame 0 invalid: {frames / empty}: expected {magic} netpbm data"]


def test_track_frees_each_frame_before_the_next_read(sequence_dir, sequence_profile_path,
                                                    tmp_path, capsys, monkeypatch):
    # once the loop drops a frame's images, their mappings are gone before
    # the next read: refcounting frees them at once, no collector needed,
    # and each mapping's file descriptor closes with it
    frames = tmp_path / "frames"
    frames.mkdir()
    sources = [("rgb_0000.ppm", "depth_0000.pgm"),    # ok
               ("background.ppm", "depth_0001.pgm"),  # NoPointer
               ("rgb_0002.ppm", None),                # BadFrame: truncated depth
               ("rgb_0003.ppm", "missing"),           # IOError: no depth file
               ("rgb_0004.ppm", "depth_0004.pgm")]    # ok
    for i, (rgb, depth) in enumerate(sources):
        (frames / f"rgb_{i:04d}.ppm").write_bytes((sequence_dir / rgb).read_bytes())
        if depth is None:
            (frames / f"depth_{i:04d}.pgm").write_bytes(b"P5\n640 480\n65535\n\0")
        elif depth != "missing":
            (frames / f"depth_{i:04d}.pgm").write_bytes((sequence_dir / depth).read_bytes())
    images = []
    alive_at_read = []
    fds_at_read = []

    def read_ppm(path):
        alive_at_read.append(sum(ref() is not None for ref in images))
        fds_at_read.append(open_fd_count())
        img = pnm.read_ppm(path)
        images.append(weakref.ref(img))
        return img

    def read_depth(path, raw_to_mm=1.0):
        depth = pnm.read_depth(path, raw_to_mm)
        images.append(weakref.ref(depth))
        return depth

    monkeypatch.setattr(cli, "pnm", types.SimpleNamespace(read_ppm=read_ppm,
                                                          read_depth=read_depth))
    fds_before = open_fd_count()
    rc = main(["track", "--calib", str(sequence_profile_path), "--frames", str(frames)])
    fds_after = open_fd_count()
    statuses = [json.loads(line)["status"] for line in capsys.readouterr().out.splitlines()]
    assert rc == 0
    assert statuses == ["ok", "NoPointer", "BadFrame", "IOError", "ok"]
    assert len(images) == 8  # every frame read its colour image, three their depth
    assert alive_at_read == [0] * 5
    # each live image holds its mapping's descriptor; none outlives its frame
    assert fds_at_read == [fds_before] * 5
    assert fds_after == fds_before


# two track calls in one fresh interpreter, as a host program that tracks
# one directory after another makes them: the second call's minor faults
_TRACK_TWICE = """
import contextlib, io, json, resource, sys
from tangible_tracker.cli import main
argv = ["track", "--calib", sys.argv[1], "--frames", sys.argv[2]]
out = io.StringIO()
with contextlib.redirect_stdout(out):
    first = main(argv)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    second = main(argv)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
statuses = [json.loads(line)["status"] for line in out.getvalue().splitlines()]
print(json.dumps({"codes": [first, second], "statuses": statuses, "faults": faults}))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="counts the page faults of glibc's malloc")
def test_repeated_track_calls_reuse_the_heap(tmp_path):
    # with each frame freed before the next read, the second call reuses
    # the first call's heap blocks: about 2,000 faults per call on these
    # frames when two frames were alive at once. The frames are mapped, so
    # each call pays the faults of the pages it reads from them: 50-55 per
    # call here, where copying reads took 7-10
    spec = SceneSpec(width=1280, height=720, depth_frame_offset=(0, 0), seed=3)
    frames = tmp_path / "frames"
    render_sequence(spec, circular_trajectory(4), frames)
    profile = tmp_path / "profile.json"
    save_profile(calibrate_spec(spec).profile, profile)
    proc = subprocess.run([sys.executable, "-c", _TRACK_TWICE, str(profile), str(frames)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["codes"] == [0, 0]
    assert report["statuses"] == ["ok"] * 8
    assert report["faults"] < 200


def test_track_stream_clients_get_contiguous_suffix(sequence_dir,
                                                    sequence_profile_path):
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    proc = subprocess.Popen(
        [sys.executable, "-m", "tangible_tracker", "track",
         "--calib", str(sequence_profile_path),
         "--frames", str(sequence_dir),
         "--listen", f"127.0.0.1:{port}"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    sock = None
    deadline = time.time() + 10
    try:
        while time.time() < deadline:
            try:
                sock = socket.create_connection(("127.0.0.1", port), timeout=1)
                break
            except OSError:
                if proc.poll() is not None:
                    break
                time.sleep(0.02)
        assert sock is not None, "could not connect to the stream endpoint"
        sock.settimeout(10)
        chunks = []
        while True:
            data = sock.recv(65536)
            if not data:
                break
            chunks.append(data)
        streamed = [json.loads(line) for line in
                    b"".join(chunks).decode().strip().splitlines()]
    finally:
        if sock is not None:
            sock.close()
        stdout, stderr = proc.communicate(timeout=60)
    assert proc.returncode == 0, stderr
    stdout_records = [json.loads(line) for line in stdout.strip().splitlines()]
    assert len(streamed) > 0
    seqs = [r["seq"] for r in streamed]
    assert seqs == list(range(seqs[0], seqs[0] + len(seqs)))  # gapless
    assert seqs[-1] == stdout_records[-1]["seq"]
    assert streamed == stdout_records[seqs[0]:]  # identical suffix


# --------------------------------------------------------------------- simulate

def write_json(path, doc):
    """Write ``doc`` as JSON to ``path`` and return the path as a string."""
    path.write_text(json.dumps(doc))
    return str(path)


def test_simulate_writes_files_and_is_deterministic(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    spec = write_json(tmp_path / "spec.json", {"seed": 7})
    for out in (out_a, out_b):
        rc = main(["simulate", "--out", str(out), "--frames", "3", "--spec", spec])
        assert rc == 0
    names = ["background.ppm", "with_marker.ppm", "with_pointer.ppm",
             "truth.json", "rgb_0002.ppm", "depth_0002.pgm"]
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_simulate_rejects_bad_trajectory(tmp_path):
    bad = tmp_path / "traj.json"
    bad.write_text("[[0, 0, 900]]")
    out = tmp_path / "seq"
    rc = main(["simulate", "--out", str(out), "--trajectory", str(bad)])
    assert rc == 5
    assert not out.exists()


# float and boolean values of integer fields, documents that are not
# objects, tuple fields of the wrong length and non-finite numbers; values
# of another JSON kind, null, 8-bit fields out of range, a plane depth
# beyond 16 bits; a file that is not UTF-8 and one nested too deep for the
# parser; marker maps, a rho_z and a depth jitter outside the scene domain
# (the jitter used to fail only after the calibration captures were
# written); and the rig's fixed parts, once scene fields, now unknown ones
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("doc", [{"ball_hue": 20.5}, {"hue_jitter": 2.5},
                                 {"ball_saturation": True}, [1], [["width", 64]], 7,
                                 {"principal_point": [1]}, {"marker_size_mm": [1]},
                                 {"shadow_offset_px": [1]}, {"ball_plane_mm": [1e400, 0]},
                                 {"ball_plane_mm": [True, False]},
                                 {"marker_color": [1.5, 2, 3]},
                                 {"depth_frame_offset": [1.5, 0]},
                                 {"marker_to_image": [[2, 0, 320], [0, 2, 240], [0, 0, 1]]},
                                 {"rho_z": "0.002"}, {"principal_point": None},
                                 {"marker_color": [300, 0, 0]},
                                 {"background_color": [-1, 0, 0]},
                                 {"ball_saturation": 999}, {"ball_value": -5},
                                 {"raw_to_mm": 0.001}, {"seed": -1},
                                 pytest.param(b"\xff\xfe{}", id="not-utf8"),
                                 pytest.param(b"[" * 100_000, id="too-deep"),
                                 {"marker_size_mm": [1e308, 1e308]},
                                 {"marker_size_mm": [1e200, 1e200]},
                                 {"marker_to_image": [1e308, 0, 320, 0, 1e308, 240, 0, 0, 1]},
                                 {"marker_to_image": [0, 0, 1, 0, 1.5e41, 0, 2.2e156, 0, 9.9e173]},
                                 {"rho_z": 1e308}, {"depth_jitter": 2 ** 70}])
def test_simulate_malformed_spec_exits_5(tmp_path, capsys, doc):
    spec = tmp_path / "spec.json"
    spec.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
    out = tmp_path / "seq"
    rc = main(["simulate", "--out", str(out), "--frames", "1", "--spec", str(spec)])
    assert rc == 5
    err = capsys.readouterr().err
    assert err.startswith("Validation:") and err.count("\n") == 1, err
    if isinstance(doc, dict):
        assert all(key in err for key in doc), err
    assert not out.exists()


def test_simulate_refuses_a_scene_naming_the_rigs_fixed_parts(tmp_path, capsys):
    # marker size, colours and shadow offset are the simulator's constants:
    # a scene file that still names them, even at their values, is refused
    doc = {"marker_size_mm": list(simulator.MARKER_SIZE_MM),
           "marker_color": list(simulator.MARKER_COLOR),
           "background_color": list(simulator.BACKGROUND_COLOR),
           "shadow_offset_px": list(simulator.SHADOW_OFFSET_PX)}
    spec = write_json(tmp_path / "spec.json", doc)
    out = tmp_path / "seq"
    rc = main(["simulate", "--out", str(out), "--frames", "1", "--spec", spec])
    assert rc == 5
    assert capsys.readouterr().err == (
        f"Validation: unknown scene fields: {sorted(doc)}\n")
    assert not out.exists()


def test_simulate_refuses_a_scene_above_the_pixel_budget(tmp_path, capsys):
    # 10^10 pixels: SceneSpec refuses it before any raster is allocated
    spec = write_json(tmp_path / "spec.json", {"width": 100000, "height": 100000})
    out = tmp_path / "seq"
    rc = main(["simulate", "--out", str(out), "--frames", "1", "--spec", spec])
    assert rc == 5
    err = capsys.readouterr().err
    assert err.startswith("Validation: scene of 100000x100000 pixels"), err
    assert not out.exists()


def test_simulate_negative_frame_count_exits_5(tmp_path, capsys):
    out = tmp_path / "seq"
    rc = main(["simulate", "--out", str(out), "--frames", "-3"])
    assert rc == 5
    assert capsys.readouterr().err.startswith("Validation: frame count")
    assert not out.exists()
    # no frames is a count: only the calibration captures and the truth
    assert main(["simulate", "--out", str(out), "--frames", "0"]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "background.ppm", "truth.json", "with_marker.ppm", "with_pointer.ppm"]


@pytest.mark.parametrize("points", [[["1", "2", "3"]], [[True, 0, 100]],
                                    pytest.param(b"[" * 100_000, id="too-deep")])
def test_simulate_malformed_trajectory_exits_5(tmp_path, capsys, points):
    trajectory = tmp_path / "trajectory.json"
    trajectory.write_bytes(points if isinstance(points, bytes)
                           else json.dumps(points).encode())
    out = tmp_path / "seq"
    rc = main(["simulate", "--out", str(out), "--trajectory", str(trajectory)])
    assert rc == 5
    assert capsys.readouterr().err.startswith("Validation:")
    assert not out.exists()


# the fields a scene file took before they became the simulator's
# constants, each in its former place among SceneSpec's fields: their
# cases keep the kept fields' case ids as they were, and a scene file
# naming one is refused as naming an unknown field
RETIRED_FIELDS = {
    "marker_size_mm": ("principal_point", simulator.MARKER_SIZE_MM),
    "marker_color": ("marker_to_image", simulator.MARKER_COLOR),
    "background_color": ("marker_color", simulator.BACKGROUND_COLOR),
    "shadow_offset_px": ("depth_frame_offset", simulator.SHADOW_OFFSET_PX),
}


def scene_file_names():
    """SceneSpec's field names with the retired fields in their places."""
    names = [f.name for f in dataclasses.fields(SceneSpec)]
    for name, (after, _) in RETIRED_FIELDS.items():
        names.insert(names.index(after) + 1, name)
    return names


def wrong_kinds(name):
    """JSON values of another kind or length than scene field ``name``
    takes, read off its default."""
    default = np.ravel(RETIRED_FIELDS[name][1] if name in RETIRED_FIELDS
                       else getattr(SceneSpec(), name))
    wrong = ["1", True, None, {}, [default.tolist()]]
    if default.size == 1:
        wrong.append(default.tolist())  # a list for a scalar
    else:
        wrong += [1, [1] * (default.size + 1), ["1"] * default.size,
                  [True] * default.size]
    if default.dtype.kind == "i":
        wrong.append(1.5 if default.size == 1 else [1.5] * default.size)
    return wrong


# every wrong kind in every field, on a 32x32 scene: a kind let through
# renders at most that frame
@pytest.mark.parametrize("name, value", [
    (name, value) for name in scene_file_names() for value in wrong_kinds(name)])
def test_simulate_rejects_every_wrong_kind(tmp_path, capsys, name, value):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"width": 32, "height": 32, name: value}))
    out = tmp_path / "seq"
    rc = main(["simulate", "--out", str(out), "--frames", "1", "--spec", str(spec)])
    err = capsys.readouterr().err
    expected = (f"Validation: unknown scene fields: ['{name}']\n" if name in RETIRED_FIELDS
                else f"Validation: scene field {name} ")
    assert rc == 5 and err.startswith(expected), err
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_simulate_ball_far_off_the_frame_warns_nothing(tmp_path, capsys):
    # a plane point at the domain's edge, whose ball lands about 25,000 px
    # off the frame: the pointer capture shows only the background
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"ball_plane_mm": [1e4, -1e4]}))
    out = tmp_path / "seq"
    rc = main(["simulate", "--out", str(out), "--frames", "1", "--spec", str(spec)])
    assert rc == 0
    assert capsys.readouterr().err == ""
    assert (out / "rgb_0000.ppm").exists()
    assert (out / "with_pointer.ppm").read_bytes() == (out / "background.ppm").read_bytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("flag", ["--spec", "--trajectory"])
def test_simulate_ball_beyond_float_range_exits_5(tmp_path, capsys, flag):
    # a finite plane point far outside the scene domain, in the spec or in
    # a trajectory point
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({"ball_plane_mm": [1e308, 0]} if flag == "--spec"
                              else [[0, 0, 120], [1e308, 0, 120]]))
    out = tmp_path / "seq"
    frames = ["--frames", "1"] if flag == "--spec" else []
    rc = main(["simulate", "--out", str(out), *frames, flag, str(doc)])
    assert rc == 5
    err = capsys.readouterr().err
    prefix = "Validation: " + ("trajectory point 1: " if flag == "--trajectory" else "")
    assert err == (prefix + "scene field ball_plane_mm must lie in -10000..10000, "
                   "got (1e+308, 0.0)\n"), err
    assert not out.exists()


# the spec fields that could put a point's virtual truth beyond float
# range lie outside the scene domain: the spec is refused before any point
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("doc, point, message", [
    ({"rho_z": 1e307}, [0, 0, 120],
     "scene field rho_z must lie in 0.0001..10000, got 1e+307"),
], ids=["virtual-z"])
def test_simulate_point_with_virtual_truth_beyond_float_range_exits_5(tmp_path, capsys,
                                                                      doc, point, message):
    spec = write_json(tmp_path / "spec.json", doc)
    trajectory = write_json(tmp_path / "trajectory.json", [[0, 0, 0], point])
    out = tmp_path / "seq"
    rc = main(["simulate", "--out", str(out), "--spec", spec, "--trajectory", trajectory])
    assert rc == 5
    assert capsys.readouterr().err == f"Validation: {message}\n"
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_simulate_replaced_ball_needs_no_finite_virtual_truth(tmp_path, capsys):
    # rho_z and the camera height at the domain's edge, the trajectory's
    # points at both ends of the heights below it: truth.json is strict JSON
    top = math.nextafter(1e4, 0)
    spec = write_json(tmp_path / "spec.json", {"rho_z": 1e4, "camera_height_mm": 1e4})
    trajectory = write_json(tmp_path / "trajectory.json", [[0, 0, 0], [0, 0, top]])
    out = tmp_path / "seq"
    rc = main(["simulate", "--out", str(out), "--spec", spec, "--trajectory", trajectory])
    assert rc == 0
    assert capsys.readouterr().err == ""
    truth = json.loads((out / "truth.json").read_text(), parse_constant=_reject_constant)
    assert truth["rho_z"] == 1e4
    assert [f["virtual"] for f in truth["frames"]] == [[0.0, 0.0, 0.0], [0.0, 0.0, 1e4 * top]]


def test_simulate_seeds_differ_only_in_noise(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for seed, out in ((1, out_a), (2, out_b)):
        spec = write_json(tmp_path / f"spec_{seed}.json",
                          {"seed": seed, "hue_jitter": 4, "depth_jitter": 4})
        rc = main(["simulate", "--out", str(out), "--frames", "2", "--spec", spec])
        assert rc == 0
    assert (out_a / "rgb_0000.ppm").read_bytes() \
        != (out_b / "rgb_0000.ppm").read_bytes()
    truth_a = json.loads((out_a / "truth.json").read_text())
    truth_b = json.loads((out_b / "truth.json").read_text())
    assert truth_a["frames"] == truth_b["frames"]  # geometry is noise-free


# ------------------------------------------------------------------------ bench

def test_bench_json_rows(capsys):
    rc = main(["bench", "--sizes", "160x120,200x150", "--iterations", "3",
               "--seed", "1"])
    assert rc == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["size"] for r in rows] == ["160x120", "200x150"]
    for row in rows:
        assert set(row) == {"size", "width", "height", "iterations",
                            "cminmax_median_ns", "harris_median_ns", "ratio"}
        assert row["iterations"] == 3
        assert row["cminmax_median_ns"] > 0
        assert row["harris_median_ns"] > 0
        assert row["ratio"] > 0


# bench prints JSON rows only: it has no format option
def test_bench_takes_sizes_iterations_and_seed_only(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--help"])
    assert exc.value.code == 0
    options = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
    assert options == {"--help", "--sizes", "--iterations", "--seed"}
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--iterations", "1", "--json"])
    assert exc.value.code == 2


# 3841x2160 is one column above the simulator's pixel budget: refused
# before its mask is allocated
@pytest.mark.parametrize("argv", [["--sizes", "20x20"], ["--sizes", "0x0"],
                                  ["--iterations", "0"], ["--sizes", "3841x2160"],
                                  ["--seed", "-1"]])
def test_bench_unusable_input_exits_5(capsys, argv):
    rc = main(["bench", "--iterations", "2", *argv])
    captured = capsys.readouterr()
    assert rc == 5
    assert captured.out == ""
    assert captured.err.startswith("Validation:")
    assert "Traceback" not in captured.err


# every command through cli.main in a fresh interpreter, and what the import
# and each command leave loaded of the simulator, bench and scipy; bench, the
# one command that needs scipy, runs last
_RUN_WITHOUT_SCIPY = """
import contextlib, io, json, sys
from tangible_tracker.cli import main
def loaded():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"
                  or m in ("tangible_tracker.simulator", "tangible_tracker.bench"))
loads = [["import", 0, loaded()]]
with contextlib.redirect_stdout(io.StringIO()):
    for argv in json.loads(sys.argv[1]):
        loads.append([argv[0], main(argv), loaded()])
print(json.dumps(loads))
"""


def test_pipeline_commands_import_no_scipy(sequence_dir, sequence_profile_path, tmp_path):
    runs = [command_argv(name, sequence_dir, sequence_profile_path, tmp_path)
            for name in ("calibrate", "track", "simulate", "bench")]
    done = subprocess.run([sys.executable, "-c", _RUN_WITHOUT_SCIPY, json.dumps(runs)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    loads = json.loads(done.stdout)
    assert loads[:4] == [["import", 0, []], ["calibrate", 0, []], ["track", 0, []],
                         ["simulate", 0, ["tangible_tracker.simulator"]]]
    assert loads[4][:2] == ["bench", 0]


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["track"])  # missing required flags
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_simulate_takes_its_scene_only_from_spec(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--help"])
    assert exc.value.code == 0
    options = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
    assert options == {"--help", "--out", "--frames", "--spec", "--trajectory"}
    # scene fields have no flags of their own: argparse refuses each
    for flag, value in [("--seed", "7"), ("--hue-jitter", "3"), ("--depth-jitter", "3"),
                        ("--ball-hue", "30"), ("--size", "320x240")]:
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--out", str(tmp_path / "seq"), flag, value])
        assert exc.value.code == 2, flag
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not (tmp_path / "seq").exists()


def test_simulate_refuses_frames_beside_a_trajectory(tmp_path, capsys):
    # the trajectory sets the frame count, so a --frames beside it would be
    # ignored: it is a usage error instead
    trajectory = write_json(tmp_path / "trajectory.json", [[0, 0, 120]])
    out = tmp_path / "seq"
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--out", str(out), "--frames", "5", "--trajectory", trajectory])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not out.exists()


def test_calibrate_has_no_min_area_flag(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["calibrate", "--help"])
    assert exc.value.code == 0
    options = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
    assert options == {"--help", "--background", "--with-marker", "--with-pointer",
                       "--depth-to-rgb", "--camera-height", "--principal-point", "--rho-z",
                       "--raw-to-mm", "--out"}
    with pytest.raises(SystemExit) as exc:
        main(["calibrate", "--background", "b.ppm", "--with-marker", "m.ppm",
              "--with-pointer", "p.ppm", "--camera-height", "600",
              "--principal-point", "1,1", "--rho-z", "0.002",
              "--out", str(tmp_path / "never.json"), "--min-area", "50"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --min-area 50" in capsys.readouterr().err
    assert not (tmp_path / "never.json").exists()


# every tangible-tracker command of README's sh blocks, its continuation
# lines joined and its [...] optional parts dropped, parses
def test_readme_commands_parse():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", readme, flags=re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("tangible-tracker "):
                commands.append(shlex.split(re.sub(r"\[[^\]]*\]", "", line))[1:])
    assert sorted({argv[0] for argv in commands}) == ["bench", "calibrate", "simulate",
                                                      "track"]
    for argv in commands:
        cli._build_parser().parse_args(argv)


# every tangible_tracker.<module> and tangible_tracker.<module>.<name> that
# README names, the whole Library surface among them, imports and resolves
def test_readme_module_paths_resolve():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    dotted = r"\btangible_tracker(?:\.\w+)+"
    surface = readme.split("\n## Library surface\n")[1].split("\n## ")[0]
    assert len(set(re.findall(dotted, surface))) > 40
    # a short `module.name` names a module of the package (not a file name)
    modules = {m.name for m in pkgutil.iter_modules(tangible_tracker.__path__)}
    short = {f"tangible_tracker.{module}.{name}"
             for module, name in re.findall(r"`(\w+)\.(\w+(?:\.\w+)*)`", readme)
             if module in modules}
    assert len(short) >= 9
    for path in sorted(set(re.findall(dotted, readme)) | short):
        pkgutil.resolve_name(path)  # raises ImportError or AttributeError


# ------------------------------------------------------------- failure table

def command_argv(name, sequence_dir, sequence_profile_path, tmp_path):
    """A run of each command that succeeds when nothing is patched."""
    return {
        "track": ["track", "--calib", str(sequence_profile_path),
                  "--frames", str(sequence_dir)],
        "calibrate": ["calibrate",
                      "--background", str(sequence_dir / "background.ppm"),
                      "--with-marker", str(sequence_dir / "with_marker.ppm"),
                      "--with-pointer", str(sequence_dir / "with_pointer.ppm"),
                      "--depth-to-rgb", "1,0,4,0,1,2", "--camera-height", "600",
                      "--principal-point", "319.5,239.5", "--rho-z", "0.002",
                      "--out", str(tmp_path / "profile.json")],
        "simulate": ["simulate", "--out", str(tmp_path / "seq"), "--frames", "1",
                     "--spec", write_json(tmp_path / "spec.json",
                                          {"width": 32, "height": 32})],
        "bench": ["bench", "--sizes", "80x80", "--iterations", "1"],
    }[name]


class ClosedStdout(io.StringIO):
    """A stdout whose reader has gone."""

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


@pytest.mark.parametrize("command", ["track", "calibrate", "simulate", "bench"])
def test_closed_stdout_exits_4(sequence_dir, sequence_profile_path, tmp_path, capsys,
                               command):
    argv = command_argv(command, sequence_dir, sequence_profile_path, tmp_path)
    with contextlib.redirect_stdout(ClosedStdout()):
        rc = main(argv)
    assert rc == 4
    assert capsys.readouterr().err == "IOError: [Errno 32] Broken pipe\n"


# a disk that fills while the profile is written: the old profile keeps its
# bytes and no temporary file is left beside it
def test_failed_profile_write_keeps_the_old_profile(sequence_dir, sequence_profile_path,
                                                    tmp_path, capsys, monkeypatch):
    argv = command_argv("calibrate", sequence_dir, sequence_profile_path, tmp_path)
    out = tmp_path / "profile.json"
    old = sequence_profile_path.read_bytes()
    out.write_bytes(old)

    def dump_then_fill_the_disk(doc, f, **kwargs):
        f.write('{"depth_to_rgb": [1.0,')
        f.flush()
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(json, "dump", dump_then_fill_the_disk)
    assert main(argv) == 4
    assert capsys.readouterr() == ("", "IOError: [Errno 28] No space left on device\n")
    assert out.read_bytes() == old
    assert list(tmp_path.glob("profile.json*")) == [out]


# an --out that cannot be written is named as given, not as the temporary
# file beside it, and no temporary file is left
@pytest.mark.parametrize("target, code", [("missing/p.json", errno.ENOENT),
                                          ("taken", errno.EISDIR)],
                         ids=["missing-directory", "directory"])
def test_failed_profile_write_names_the_out_path(sequence_dir, sequence_profile_path,
                                                 tmp_path, capsys, target, code):
    (tmp_path / "taken").mkdir()
    out = tmp_path / target
    argv = command_argv("calibrate", sequence_dir, sequence_profile_path, tmp_path)
    before = sorted(tmp_path.rglob("*"))
    assert main([*argv[:-1], str(out)]) == 4
    assert capsys.readouterr().err == \
        f"IOError: [Errno {code}] {os.strerror(code)}: '{out}'\n"
    assert sorted(tmp_path.rglob("*")) == before


# one callee of each command raises each kind of failure; main maps it
@pytest.mark.parametrize("command, callee", [
    ("track", "_scan_frames"), ("calibrate", "calibrate_scene"),
    ("simulate", "render_sequence"), ("bench", "run_benchmark")])
@pytest.mark.parametrize("failure, code, line", [
    (OSError("disk gone"), 4, "IOError: disk gone"),
    (ValueError("out of range"), 5, "Validation: out of range"),
    (RecursionError("too deep"), 5, "Validation: too deep"),
    (DegenerateError("rank 1"), 3, "Degenerate: rank 1"),
], ids=["OSError", "ValueError", "RecursionError", "PipelineError"])
def test_main_maps_every_command_failure(sequence_dir, sequence_profile_path, tmp_path,
                                         capsys, monkeypatch, command, callee,
                                         failure, code, line):
    def fail(*args, **kwargs):
        raise failure

    # simulate and bench import their callee's module when they run
    owner = {"render_sequence": simulator, "run_benchmark": bench}.get(callee, cli)
    monkeypatch.setattr(owner, callee, fail)
    rc = main(command_argv(command, sequence_dir, sequence_profile_path, tmp_path))
    captured = capsys.readouterr()
    assert rc == code
    assert captured.err == line + "\n"
    assert captured.out == ""


# the reader closes before the first line, as `| head -0` would; a buffered
# stdout still holds the line when main returns, and Python would flush it
# again at exit
@pytest.mark.parametrize("command", ["track", "simulate"])
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_closed_pipe_exits_4_with_one_line(sequence_dir, sequence_profile_path, tmp_path,
                                           command, unbuffered):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "tangible_tracker",
             *command_argv(command, sequence_dir, sequence_profile_path, tmp_path)],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 4
    assert proc.stderr == "IOError: [Errno 32] Broken pipe\n"
