import json
import socket
import subprocess
import sys
import time

import numpy as np
import pytest

from tangible_tracker import cli
from tangible_tracker.cli import main
from tangible_tracker.imaging import warp_affine
from tangible_tracker.registration import apply_homography, load_profile


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
    got = apply_homography(profile.t_rv.matrix, corners)
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


@pytest.mark.parametrize("mutate", [
    _set("t_rv", 0, float("nan")),
    _set("depth_to_rgb", 2, float("inf")),
    _set("principal_point", 1, float("nan")),
    lambda doc: doc.update(camera_height_mm=float("inf")),
    lambda doc: doc.update(hue_bounds=5),
    lambda doc: doc.pop("rho_z"),
    None,  # not JSON at all
], ids=["nan-t_rv", "inf-depth_to_rgb", "nan-principal_point",
        "inf-camera_height", "int-hue_bounds", "missing-rho_z", "invalid-json"])
def test_track_malformed_profile_exits_5(sequence_dir, sequence_profile_path,
                                         tmp_path, capsys, mutate):
    doc = json.loads(sequence_profile_path.read_text())
    bad = tmp_path / "bad.json"
    if mutate is None:
        bad.write_text("{not json")
    else:
        mutate(doc)
        bad.write_text(json.dumps(doc))
    rc = main(["track", "--calib", str(bad), "--frames", str(sequence_dir)])
    captured = capsys.readouterr()
    assert rc == 5
    assert captured.out == ""
    assert captured.err.startswith("BadProfile:")
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


# the names perfbench/tracer.py patches onto the cli module; a missing one
# would be created silently there and read as zero work
CLI_SEAMS = ("pnm", "json", "load_profile", "warp_affine", "track_frame",
             "calibrate_scene", "save_profile", "StreamServer")


def test_cli_seams_exist():
    for name in CLI_SEAMS:
        assert hasattr(cli, name), name


@pytest.mark.parametrize("depth_to_rgb,calls", [
    ([1.0, 0.0, 4.0, 0.0, 1.0, 2.0], 3),
    ([1.0, 0.0, 0.0, 0.0, 1.0, 0.0], 0),
])
def test_track_warps_each_frame_only_for_non_identity(
        sequence_dir, sequence_profile_path, tmp_path, capsys, monkeypatch,
        depth_to_rgb, calls):
    frames = tmp_path / "frames"
    frames.mkdir()
    for i in range(3):
        for kind in ("rgb_%04d.ppm", "depth_%04d.pgm"):
            (frames / (kind % i)).write_bytes((sequence_dir / (kind % i)).read_bytes())
    doc = json.loads(sequence_profile_path.read_text())
    doc["depth_to_rgb"] = depth_to_rgb
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps(doc))
    seen = []

    def counting_warp(depth, transform):
        seen.append(transform)
        return warp_affine(depth, transform)

    monkeypatch.setattr(cli, "warp_affine", counting_warp)
    rc = main(["track", "--calib", str(profile), "--frames", str(frames)])
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert rc == 0
    assert [r["status"] for r in records] == ["ok"] * 3
    assert len(seen) == calls


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

def test_simulate_writes_files_and_is_deterministic(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        rc = main(["simulate", "--out", str(out), "--frames", "3", "--seed", "7"])
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


def test_simulate_seeds_differ_only_in_noise(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for seed, out in ((1, out_a), (2, out_b)):
        rc = main(["simulate", "--out", str(out), "--frames", "2",
                   "--seed", str(seed), "--hue-jitter", "4",
                   "--depth-jitter", "4"])
        assert rc == 0
    assert (out_a / "rgb_0000.ppm").read_bytes() \
        != (out_b / "rgb_0000.ppm").read_bytes()
    truth_a = json.loads((out_a / "truth.json").read_text())
    truth_b = json.loads((out_b / "truth.json").read_text())
    assert truth_a["frames"] == truth_b["frames"]  # geometry is noise-free


# ------------------------------------------------------------------------ bench

def test_bench_json_rows(capsys):
    rc = main(["bench", "--sizes", "160x120,200x150", "--iterations", "3",
               "--seed", "1", "--json"])
    assert rc == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["size"] for r in rows] == ["160x120", "200x150"]
    for row in rows:
        assert row["iterations"] == 3
        assert row["cminmax_median_ns"] > 0
        assert row["harris_median_ns"] > 0
        assert row["ratio"] > 0


def test_bench_table_format(capsys):
    rc = main(["bench", "--sizes", "160x120", "--iterations", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "ratio" in out.splitlines()[0]
    assert "160x120" in out


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["track"])  # missing required flags
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
