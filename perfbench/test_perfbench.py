"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""

import copy
import filecmp
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import scenes  # noqa: E402
from tangible_tracker.simulator import SceneSpec, scene_truth  # noqa: E402


def _same_tree(a, b) -> bool:
    cmp = filecmp.dircmp(a, b)
    if cmp.left_only or cmp.right_only or cmp.funny_files:
        return False
    _, mismatch, errors = filecmp.cmpfiles(a, b, cmp.common_files, shallow=False)
    return not mismatch and not errors and all(
        _same_tree(os.path.join(a, d), os.path.join(b, d)) for d in cmp.common_dirs)


@pytest.mark.parametrize("workload", scenes.WORKLOADS)
def test_track_generation_is_byte_identical_per_seed(tmp_path, workload):
    first = scenes.make_track_set(workload, 5, str(tmp_path / "a"))
    second = scenes.make_track_set(workload, 5, str(tmp_path / "b"))
    other = scenes.make_track_set(workload, 6, str(tmp_path / "c"))
    assert _same_tree(first.frames_dir, second.frames_dir)
    assert not _same_tree(first.frames_dir, other.frames_dir)


def test_hd_miss_has_out_of_view_frames(tmp_path):
    ts = scenes.make_track_set("track-hd-miss", 2, str(tmp_path))
    truth = scenes.load_truth(ts.truth_path)
    hidden = [i for i, f in enumerate(truth["frames"])
              if not oracle.in_view(f, ts.spec.width, ts.spec.height)]
    assert hidden == list(range(3, len(truth["frames"]), 4))


def _good_record(frame: dict, seq: int) -> dict:
    return {"seq": seq, "frame": frame["idx"], "px": list(frame["ball_px"]),
            "depth_mm": 600.0 - frame["ball_real"][2],
            "real": [frame["ball_plane_px"][0], frame["ball_plane_px"][1],
                     frame["ball_real"][2]],
            "virtual": list(frame["virtual"]), "status": "ok"}


def test_oracle_rejects_perturbed_records():
    frame = {"idx": 0, "ball_px": [300.0, 200.0], "ball_plane_px": [301.0, 202.0],
             "ball_real": [10.0, 20.0, 120.0], "virtual": [0.1, 0.2, 0.24]}
    good = _good_record(frame, 0)
    assert oracle.check_track_record(good, 0, frame, 640, 480) is None

    for key, index, delta in (("virtual", 0, 0.021), ("virtual", 1, -0.03),
                              ("real", 2, 10.5)):
        bad = copy.deepcopy(good)
        bad[key][index] += delta
        assert oracle.check_track_record(bad, 0, frame, 640, 480)
    bad = dict(good, status="NoPointer")
    assert oracle.check_track_record(bad, 0, frame, 640, 480)
    bad = dict(good, seq=1)
    assert oracle.check_track_record(bad, 0, frame, 640, 480)
    bad = copy.deepcopy(good)
    bad["virtual"][0] = float("nan")
    assert oracle.check_track_record(bad, 0, frame, 640, 480)

    hidden = dict(frame, ball_px=[2500.0, 1900.0])
    assert oracle.check_track_record(good, 0, hidden, 640, 480)
    miss = {"seq": 0, "frame": 0, "px": None, "depth_mm": None, "real": None,
            "virtual": None, "status": "NoPointer"}
    assert oracle.check_track_record(miss, 0, hidden, 640, 480) is None


def test_oracle_rejects_non_strict_json():
    truth = {"frames": [{"idx": 0, "ball_px": [2500.0, 1900.0]}]}
    line = '{"seq": 0, "frame": 0, "px": [NaN, 1], "status": "NoPointer"}'
    _, wrong = oracle.check_track_run([line], truth, 640, 480)
    assert wrong


def test_stream_must_be_gap_free_suffix():
    lines = [json.dumps({"seq": i}) for i in range(6)]
    assert oracle.check_stream(lines, lines) == []
    assert oracle.check_stream(lines, lines[2:]) == []
    assert oracle.check_stream(lines, lines[2:4] + lines[5:])
    assert oracle.check_stream(lines, lines[:-1])
    assert oracle.check_stream(lines, [])
    altered = lines[3:]
    altered[1] = altered[1].replace("4", "7")
    assert oracle.check_stream(lines, altered)


def test_calibration_oracle():
    spec = SceneSpec(ball_hue=2)  # a hue interval that wraps through 0
    corners = scene_truth(spec).marker_corners_px
    stdout = "".join(f"corner[{i}] = ({x:.3f}, {y:.3f})\n"
                     for i, (x, y) in enumerate(corners))
    hue = spec.ball_hue
    profile = {"hue_bounds": {"lo": (hue - 15) % 180, "hi": (hue + 15) % 180}}
    assert oracle.check_calibration(0, stdout, profile, spec) is None
    assert oracle.check_calibration(3, stdout, None, spec)
    shifted = stdout.replace(f"corner[0] = ({corners[0][0]:.3f}",
                             f"corner[0] = ({corners[0][0] + 3.5:.3f}")
    assert oracle.check_calibration(0, shifted, profile, spec)
    missed = {"hue_bounds": {"lo": (hue + 20) % 180, "hi": (hue + 50) % 180}}
    assert oracle.check_calibration(0, stdout, missed, spec)


def test_metric_lists_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as f:
        spec = json.load(f)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(scenes.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metric_names_match_benchmark_json(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as f:
        spec = json.load(f)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "track-vga",
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    expected = spec["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            shutil.copy(os.path.join(HERE, name), bench)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "track-vga", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
