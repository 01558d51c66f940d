"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and the
measured figures (speed ratio, throughput) inline.
"""

import json
import math
import time

import numpy as np

from tangible_tracker.cli import main
from tangible_tracker.color_calibration import HueBounds, hue_bounds_mask
from tangible_tracker.corner_detection import CMinMaxParams, cminmax_corners
from tangible_tracker.imaging import BinaryMask, DepthImage, largest_component, otsu_threshold
from tangible_tracker.registration import (
    CORNER_TARGETS,
    apply_homography,
    estimate_homography,
)
from tangible_tracker.simulator import (
    SceneSpec,
    ball_geometry,
    fill_convex_polygon,
    random_quadrangle_scene,
    scene_truth,
)
from tangible_tracker.tracking import correct_parallax, estimate_pointer_depth
from tests.conftest import calibrate_spec
from tests.test_corner_detection import match_errors, regular_polygon
from tests.test_registration import random_homography
from tests.test_tracking import two_pass_oracle


def report(criterion: str, ok: bool, details: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({details})")
    assert ok, f"{criterion}: {details}"


def test_1_corner_accuracy():
    start = time.perf_counter()

    verts = regular_polygon(6, radius=150.0, phi=math.radians(10))
    mask = fill_convex_polygon(640, 480, verts)
    result = cminmax_corners(mask, CMinMaxParams(n=6))
    hex_err = match_errors(result.corners, verts)
    hex_ok = len(result.corners) == 6 and hex_err <= 1.5

    rng = np.random.default_rng(42)
    good = 0
    for _ in range(100):
        quad_mask, corners = random_quadrangle_scene(640, 480, rng)
        found = cminmax_corners(quad_mask, CMinMaxParams(n=4))
        if len(found.corners) == 4 and match_errors(found.corners, corners) <= 2.0:
            good += 1

    elapsed = time.perf_counter() - start
    report("1 corner-accuracy",
           hex_ok and good >= 98 and elapsed < 5.0,
           f"hexagon max err {hex_err:.2f} px, quadrangles {good}/100 "
           f"within 2 px, {elapsed:.1f}s")


def test_2_speed_ratio(capsys):
    rc = main(["bench", "--sizes", "640x480", "--iterations", "100",
               "--seed", "0"])
    out = capsys.readouterr().out
    with capsys.disabled():
        assert rc == 0
        row = json.loads(out)[0]
        report("2 speed-ratio", row["ratio"] >= 5.0,
               f"measured harris/cminmax ratio {row['ratio']:.2f} "
               f"({row['cminmax_median_ns']} ns vs {row['harris_median_ns']} ns)")


def test_3_depth_precision(tracked_run):
    records, _, truth = tracked_run
    within = 0
    for rec, frame in zip(records, truth["frames"]):
        if rec["status"] == "ok" \
                and abs(rec["real"][2] - frame["ball_real"][2]) < 10.0:
            within += 1

    rng = np.random.default_rng(7)
    exact = True
    for _ in range(50):
        crop = rng.integers(0, 8000, size=(11, 9)).astype(np.uint16)
        crop[rng.random(crop.shape) < 0.25] = 0
        if not (crop > 0).any():
            crop[1, 1] = 500
        depth = DepthImage(crop, raw_to_mm=1.0)
        got = estimate_pointer_depth(depth, (0, 0, 9, 11))
        if got != two_pass_oracle(crop.tolist(), 1.0):
            exact = False
            break

    report("3 depth-precision", within >= 95 and exact,
           f"z within 10 mm on {within}/100 jittered frames; "
           f"two-pass filter exact on noise-free crops: {exact}")


def test_4_registration_fidelity():
    worst_corner = 0.0
    worst_centroid = 0.0
    for scale, width, height in ((12.0, 1300, 1900), (16.0, 1700, 2500),
                                 (14.0, 1500, 2200)):
        spec = SceneSpec(
            width=width, height=height,
            principal_point=(width // 2, height // 2),
            marker_to_image=np.array([[scale, 0.0, width // 2],
                                      [0.0, scale, height // 2],
                                      [0.0, 0.0, 1.0]]))
        summary = calibrate_spec(spec)
        truth = scene_truth(spec)
        mapped = apply_homography(summary.profile.t_rv,
                                  truth.marker_corners_px)
        worst_corner = max(worst_corner, float(
            np.hypot(*(mapped - np.array(CORNER_TARGETS)).T).max()))
        centroid_v = apply_homography(summary.profile.t_rv,
                                      [truth.marker_centroid_px])[0]
        worst_centroid = max(worst_centroid, float(np.hypot(*centroid_v)))

    rng = np.random.default_rng(1)
    worst_rel = 0.0
    for _ in range(100):
        truth_h = random_homography(rng)
        src = rng.uniform(0, 100, size=(5, 2))
        fitted = estimate_homography(src, apply_homography(truth_h, src))
        normalized = truth_h / truth_h[2, 2]
        rel = np.abs(fitted - normalized).max() / np.abs(normalized).max()
        worst_rel = max(worst_rel, float(rel))

    report("4 registration-fidelity",
           worst_corner < 1e-3 and worst_centroid < 1e-3 and worst_rel < 1e-6,
           f"corner map err {worst_corner:.2e}, centroid err "
           f"{worst_centroid:.2e}, homography recovery rel err {worst_rel:.2e}")


def test_5_parallax_correction():
    spec = SceneSpec()
    worst = 0.0
    offsets = [(dx, dy) for dx in (-80.0, -40.0, 0.0, 40.0, 80.0)
               for dy in (-60.0, -30.0, 0.0, 30.0, 60.0)]
    identity_exact = True
    for ratio in np.arange(0.0, 0.91, 0.1):
        for dx, dy in offsets:
            sub = SceneSpec(ball_plane_mm=(dx, dy),
                            ball_height_mm=float(ratio) * spec.camera_height_mm)
            a, b, _ = ball_geometry(sub)
            rec = correct_parallax(b, sub.principal_point, sub.ball_height_mm,
                                   sub.camera_height_mm)
            worst = max(worst, math.hypot(rec[0] - a[0], rec[1] - a[1]))
            if ratio == 0.0 and rec != b:
                identity_exact = False
    report("5 parallax-correction", worst < 1.0 and identity_exact,
           f"worst inversion error {worst:.2e} px over 250 cases; "
           f"h=0 exact identity: {identity_exact}")


def test_6_end_to_end(tracked_run):
    records, _, truth = tracked_run
    within = 0
    worst_xy = 0.0
    for rec, frame in zip(records, truth["frames"]):
        if rec["status"] != "ok":
            continue
        xy = math.hypot(rec["virtual"][0] - frame["virtual"][0],
                        rec["virtual"][1] - frame["virtual"][1])
        z_mm = abs(rec["real"][2] - frame["ball_real"][2])
        worst_xy = max(worst_xy, xy)
        if xy < 0.02 and z_mm < 10.0:
            within += 1
    report("6 end-to-end", within >= 95,
           f"{within}/100 frames within 0.02 virtual units and 10 mm; "
           f"worst xy err {worst_xy:.4f}")


def test_7_throughput(tracked_run):
    _, fps_report, _ = tracked_run
    fps = fps_report["fps"]
    report("7 throughput", fps >= 10.0 and fps_report["frames"] == 100,
           f"measured {fps:.1f} fps over {fps_report['frames']} frames "
           f"(kernel {fps_report['kernel_seconds']:.2f}s, "
           f"wall {fps_report['wall_seconds']:.2f}s)")


def test_8_unit_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(3)

    # Otsu against exhaustive search; between-class variance of a split is
    # (s0*w1 - s1*w0)^2 / (w0*w1) up to the constant total^2, compared as
    # exact integer cross products
    otsu_ok = True
    for _ in range(1000):
        hist = rng.integers(0, 50, size=256)
        hist[rng.random(256) < 0.7] = 0
        if hist.sum() == 0:
            hist[int(rng.integers(0, 256))] = 1
        prefix_w = np.cumsum(hist)
        prefix_s = np.cumsum(hist * np.arange(256))
        total_w = int(prefix_w[-1])
        total_s = int(prefix_s[-1])
        best_t, best_num, best_den = -1, 0, 1
        for t in range(256):
            w0 = int(prefix_w[t])
            w1 = total_w - w0
            if w0 == 0 or w1 == 0:
                continue
            s0 = int(prefix_s[t])
            split = s0 * w1 - (total_s - s0) * w0
            num, den = split * split, w0 * w1
            if best_t < 0 or num * best_den > best_num * den:
                best_t, best_num, best_den = t, num, den
        if best_t < 0:
            best_t = int(np.flatnonzero(hist)[0])
        if otsu_threshold(hist) != best_t:
            otsu_ok = False
            break

    bounds_ok = True
    all_hues = np.array([[(h, 255, 255) for h in range(180)]], dtype=np.uint8)
    for _ in range(100):
        peak = int(rng.integers(0, 180))
        lo = (peak - 15) % 180
        hi = (peak + 15) % 180
        bounds = HueBounds(lo, hi)
        enumerated = set()
        h = lo
        while True:
            enumerated.add(h)
            if h == hi:
                break
            h = (h + 1) % 180
        member = set(np.flatnonzero(hue_bounds_mask(all_hues, bounds).bits).tolist())
        if member != enumerated:
            bounds_ok = False
            break

    idempotent_ok = True
    for _ in range(100):
        bits = rng.random((30, 40)) < 0.55
        if not bits.any():
            bits[2, 2] = True
        once = largest_component(BinaryMask(bits))
        if not (largest_component(once).bits == once.bits).all():
            idempotent_ok = False
            break

    elapsed = time.perf_counter() - start
    report("8 unit-oracles",
           otsu_ok and bounds_ok and idempotent_ok and elapsed < 10.0,
           f"otsu 1000/1000: {otsu_ok}, hue bounds 100/100: {bounds_ok}, "
           f"idempotence 100/100: {idempotent_ok}, {elapsed:.1f}s")
