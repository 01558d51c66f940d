"""Repository benchmark for tangible-tracker.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The workload's inputs are
rendered from the seed with the package's simulator; the shipped CLI then
runs on them in child processes and every output is checked against the
simulator's analytic truth.

Workloads (see BENCHMARK.json for why each exists):
  track-vga      640x480 frames, depth needs aligning, one TCP client
  track-hd-miss  1280x720 frames, identity alignment, a red hue that
                 wraps through 0, ball out of view on every fourth frame

``--trace 0`` measures end to end with tracing off: repeated ``track``
runs over the frame directory in child processes (closed loop: each run
reads its frames as fast as it can). ``--trace 1`` runs the CLI untraced
for part of the time, then runs ``calibrate`` on the workload's rig and
``track`` over the same frames in-process through ``cli.main``, with a span
around each call into the package's modules (see tracer.py), writes the
spans to ``perfbench/.work/`` and reports per-layer numbers.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
machine and library versions.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# The benchmark measures the sources of the checkout it sits in, never an
# installed copy of the package.
if not os.path.isfile(os.path.join(SRC, "tangible_tracker", "cli.py")):
    sys.exit(f"perfbench: no tangible_tracker sources under {SRC}; "
             f"run from the root of a tangible-tracker checkout")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import drive  # noqa: E402
import oracle  # noqa: E402
import scenes  # noqa: E402
import tracer as tr_mod  # noqa: E402
from tangible_tracker.cli import main as cli_main  # noqa: E402

# Both metric lists must match BENCHMARK.json; test_perfbench checks it.
END_TO_END = {
    "results_per_s": "1/s",
    "result_ms_p50": "ms",
    "result_ms_p95": "ms",
    "result_ok_share": "share",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

STATUSES = ("ok", "NoPointer", "NoDepth", "AllFiltered", "InvalidHeight",
            "Degenerate", "IOError", "BadFrame")

PER_LAYER = {
    "pnm.read_ppm_ms_p50": "ms",
    "pnm.read_depth_ms_p50": "ms",
    "pnm.bytes_read": "bytes/result",
    "imaging.warp_affine_ms_p50": "ms",
    "imaging.warp_affine_ms_p95": "ms",
    "imaging.warp_affine_calls": "count",
    "imaging.rgb_to_hsv_ms_p50": "ms",
    "imaging.rgb_to_hsv_ms_p95": "ms",
    "color_calibration.hue_bounds_mask_ms_p50": "ms",
    "color_calibration.key_pixels_mean": "px",
    "tracking.blob_share": "share",
    "tracking.detect_pointer_2d_ms_p50": "ms",
    "tracking.detect_pointer_2d_ms_p95": "ms",
    "tracking.detect_pointer_2d_self_ms_p50": "ms",
    "tracking.estimate_pointer_depth_ms_p50": "ms",
    "tracking.track_frame_ms_p50": "ms",
    "tracking.track_frame_ms_p95": "ms",
    **{f"tracking.status.{name}": "count" for name in STATUSES},
    "cli.emit_ms_p50": "ms",
    "stream.publish_ms_p50": "ms",
    "stream.publish_ms_p95": "ms",
    "stream.bytes_published": "bytes/result",
    "stream.lines_missing": "count",
    "stream.clients_dropped": "count",
    "registration.load_profile_ms": "ms",
    "registration.calibrate_scene_ms_p50": "ms",
    "mask_extraction.extract_mask_ms_p50": "ms",
    "color_calibration.calibrate_hue_bounds_ms_p50": "ms",
    "corner_detection.cminmax_corners_ms_p50": "ms",
    "corner_detection.cminmax_corners_ms_p95": "ms",
    "corner_detection.harris_corners_ms_p50": "ms",
    "corner_detection.harris_cminmax_ratio": "ratio",
    "corner_detection.harris_cminmax_ratio_iqr_share": "share",
    "corner_detection.fallback_share": "share",
    "registration.estimate_homography_ms_p50": "ms",
    "registration.fit_residual_max": "virtual",
    "registration.corner_error_max_px": "px",
    "oracle.frame_error_share": "share",
    "oracle.calibrate_error_share": "share",
    "cli.kernel_fps": "1/s",
    "cli.stdout_fps": "1/s",
    "trace.result_ms_p50": "ms",
    "trace.overhead_share": "share",
    "trace.spans": "count",
}

# p95 needs at least ten frames beyond it
MIN_TIMED_FRAMES = 200
RIG_REPEATS = 5  # traced calibrations of a track workload's own rig
UNTRACED_SHARE = 0.4  # of a traced run's time spent on the untraced CLI


def percentile(values, q: float) -> float:
    if not values:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def per_second(durations_ms) -> float:
    return 1000.0 * len(durations_ms) / sum(durations_ms) if durations_ms else 0.0


def iqr_share(values) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else 0.0


def environment(workload: str, seed: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


class Run:
    """Shared state of one benchmark run."""

    def __init__(self, workload: str, seed: int, seconds: float, work: str):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.env = drive.child_env(SRC)
        self.attempted = 0
        self.failures: list[str] = []
        self._n = 0

    def path(self, name: str) -> str:
        self._n += 1
        return os.path.join(self.work, f"{self._n:04d}-{name}")

    def fail(self, reasons) -> None:
        self.failures.extend(reasons)


# ---- track workloads ---------------------------------------------------

def calibrate_in_process(argv, spec, profile_path):
    """Run ``calibrate`` through ``cli.main``, untraced; returns (profile,
    stdout, reason it is wrong or None)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(list(argv))
    profile = None
    if code == 0:
        with open(profile_path, "r", encoding="utf-8") as f:
            profile = json.load(f)
    return profile, buf.getvalue(), oracle.check_calibration(code, buf.getvalue(), profile, spec)


def track_runs(run: Run, ts, seconds: float, min_gaps: int = 0) -> list:
    """Repeated ``track`` invocations over the frame directory, started
    until ``seconds`` have passed and ``min_gaps`` frames were timed; the
    last one may run past that."""
    runs = []
    deadline = time.perf_counter() + seconds
    while not runs or time.perf_counter() < deadline or \
            sum(len(tr.arrivals) - 1 for tr in runs) < min_gaps:
        runs.append(drive.run_track(run.env, ts.profile_path, ts.frames_dir,
                                    ts.listen, run.path("track.err")))
        if runs[-1].code != 0 or len(runs[-1].arrivals) < 2:
            break  # broken program: the oracle reports it
    return runs


def check_track_runs(run: Run, ts, truth: dict, runs: list) -> int:
    """Oracle over every invocation; returns the number of wrong records."""
    frames = len(truth["frames"])
    wrong_records = 0
    for i, tr in enumerate(runs):
        run.attempted += frames
        wrong = []
        if tr.code != 0:
            wrong.append(f"track exited {tr.code}: {tr.stderr.strip()[-300:]}")
        _, bad = oracle.check_track_run(tr.records, truth, ts.spec.width, ts.spec.height)
        wrong += bad
        if tr.report is None or tr.report.get("frames") != len(tr.records):
            wrong.append("missing or inconsistent --fps-report line")
        if tr.extra_lines:
            wrong.append(f"{len(tr.extra_lines)} stdout line(s) that are neither "
                         f"records nor the report")
        if ts.listen:
            wrong += oracle.check_stream(tr.records, tr.received)
        wrong_records += min(len(wrong), frames)
        run.fail(f"run {i}: {w}" for w in wrong)
    return wrong_records


def track_frame_gaps_ms(runs: list) -> list[float]:
    return [g * 1000.0 for tr in runs for g in tr.gaps_s()]


def prepare_track(run: Run):
    ts = scenes.make_track_set(run.workload, run.seed, run.work)
    truth = scenes.load_truth(ts.truth_path)
    profile, stdout, reason = calibrate_in_process(ts.calibrate_argv, ts.spec,
                                                   ts.profile_path)
    if reason:
        run.fail([f"rig calibration: {reason}"])
    if profile is None:
        raise RuntimeError(f"rig calibration failed: {reason}")
    return ts, truth, profile, stdout, reason


def track_end_to_end(run: Run) -> dict:
    ts, truth, _, _, _ = prepare_track(run)
    runs = track_runs(run, ts, run.seconds, MIN_TIMED_FRAMES)
    wrong = check_track_runs(run, ts, truth, runs)
    return end_to_end_metrics(run, track_frame_gaps_ms(runs), wrong,
                              [tr.setup_s for tr in runs if tr.arrivals],
                              [tr.rss_mb for tr in runs])


def track_traced(run: Run) -> dict:
    ts, truth, cli_profile, cli_stdout, cli_reason = prepare_track(run)
    started = time.perf_counter()
    runs = track_runs(run, ts, UNTRACED_SHARE * run.seconds)
    wrong = check_track_runs(run, ts, truth, runs)
    gaps = track_frame_gaps_ms(runs)

    tracer = tr_mod.Tracer()
    cal = tr_mod.CalibrationCounts()
    # the untraced rig calibration, then the traced ones
    cal_wrong = int(cli_reason is not None)
    for r in range(RIG_REPEATS):
        code, stdout, profile = tr_mod.trace_calibrate(tracer, ts.calibrate_argv, r, cal)
        reason = oracle.check_calibration(code, stdout, profile, ts.spec)
        if reason is None and profile != cli_profile:
            reason = "profile differs from the untraced run's"
        if reason:
            cal_wrong += 1
            run.fail([f"traced rig calibration {r}: {reason}"])
    corner_err = oracle.corner_error_px(oracle.parse_corners(cli_stdout), ts.spec)

    counts = None
    deadline = started + run.seconds
    while counts is None or time.perf_counter() < deadline:
        pass_counts = tr_mod.TrackCounts()
        code, lines = tr_mod.trace_track(tracer, ts.profile_path, ts.frames_dir,
                                         run.path("traced.jsonl"), ts.listen,
                                         pass_counts)
        if counts is None:
            counts = pass_counts
            run.attempted += len(truth["frames"])
            cli_lines = runs[0].records
            mismatched = sum(1 for a, b in zip(lines, cli_lines) if a != b) \
                + abs(len(lines) - len(cli_lines))
            if code != 0 or mismatched:
                run.fail([f"traced track exited {code}, its records differ from the "
                          f"CLI's on {mismatched} record(s)"])
                wrong += max(mismatched, 1)

    traced = [ms for sid, ms in tracer.by_frame_ms("frame").items()
              if tracer.spans[sid][4] != 0]
    metrics = layer_metrics(tracer, cal, traced, percentile(gaps, 50))
    frames = max(counts.frames, 1)
    keyed = sum(counts.key_pixels)
    metrics.update({
        "pnm.bytes_read": counts.bytes_read / frames,
        "imaging.warp_affine_calls": counts.warp_calls,
        "color_calibration.key_pixels_mean": keyed / frames,
        "tracking.blob_share": counts.blob_pixels / keyed if keyed else 0.0,
        **{f"tracking.status.{s}": counts.status.get(s, 0) for s in STATUSES},
        "stream.bytes_published": counts.bytes_published / frames,
        "stream.lines_missing": counts.lines_missing,
        "stream.clients_dropped": counts.clients_dropped,
        "registration.corner_error_max_px": corner_err,
        "oracle.frame_error_share": wrong / run.attempted,
        "oracle.calibrate_error_share": cal_wrong / (1 + RIG_REPEATS),
        "cli.kernel_fps": median([tr.report["fps"] for tr in runs if tr.report]),
        "cli.stdout_fps": per_second(gaps),
    })
    if counts.lines_missing or counts.clients_dropped:
        run.fail([f"traced stream: {counts.lines_missing} line(s) missing, "
                  f"{counts.clients_dropped} client(s) dropped"])
    write_spans(run, tracer)
    return metrics


# ---- metric assembly ---------------------------------------------------

def end_to_end_metrics(run: Run, result_ms: list[float], wrong: int,
                       setups: list[float], rss_mb: list[float]) -> dict:
    """A result is one record line."""
    return {
        "results_per_s": per_second(result_ms),
        "result_ms_p50": percentile(result_ms, 50),
        "result_ms_p95": percentile(result_ms, 95),
        "result_ok_share": 1.0 - wrong / run.attempted if run.attempted else 0.0,
        "setup_s": median(setups),
        "peak_rss_mb": median(rss_mb),
    }


def layer_metrics(tracer, cal, traced_ms: list[float], untraced_p50: float) -> dict:
    """Every per-layer metric from the spans; counts default to 0 and are
    overwritten by the workload that has them."""
    def p(name, q):
        return percentile(tracer.durations_ms(name), q)

    hsv = tracer.by_frame_ms("imaging.rgb_to_hsv")
    key = tracer.by_frame_ms("color_calibration.hue_bounds_mask")
    detect = tracer.by_frame_ms("tracking.detect_pointer_2d")
    self_ms = [ms - hsv[root] - key[root] for root, ms in detect.items()
               if root in hsv and root in key]
    traced_p50 = percentile(traced_ms, 50)
    metrics = {name: 0.0 if unit != "count" else 0 for name, unit in PER_LAYER.items()}
    metrics.update({
        "pnm.read_ppm_ms_p50": p("pnm.read_ppm", 50),
        "pnm.read_depth_ms_p50": p("pnm.read_depth", 50),
        "imaging.warp_affine_ms_p50": p("imaging.warp_affine", 50),
        "imaging.warp_affine_ms_p95": p("imaging.warp_affine", 95),
        "imaging.rgb_to_hsv_ms_p50": p("imaging.rgb_to_hsv", 50),
        "imaging.rgb_to_hsv_ms_p95": p("imaging.rgb_to_hsv", 95),
        "color_calibration.hue_bounds_mask_ms_p50": p("color_calibration.hue_bounds_mask", 50),
        "tracking.detect_pointer_2d_ms_p50": p("tracking.detect_pointer_2d", 50),
        "tracking.detect_pointer_2d_ms_p95": p("tracking.detect_pointer_2d", 95),
        "tracking.detect_pointer_2d_self_ms_p50": percentile(self_ms, 50),
        "tracking.estimate_pointer_depth_ms_p50": p("tracking.estimate_pointer_depth", 50),
        "tracking.track_frame_ms_p50": p("tracking.track_frame", 50),
        "tracking.track_frame_ms_p95": p("tracking.track_frame", 95),
        "cli.emit_ms_p50": p("cli.emit", 50),
        "stream.publish_ms_p50": p("stream.publish", 50),
        "stream.publish_ms_p95": p("stream.publish", 95),
        "registration.load_profile_ms": p("registration.load_profile", 50),
        "registration.calibrate_scene_ms_p50": p("registration.calibrate_scene", 50),
        "mask_extraction.extract_mask_ms_p50": p("mask_extraction.extract_mask", 50),
        "color_calibration.calibrate_hue_bounds_ms_p50":
            p("color_calibration.calibrate_hue_bounds", 50),
        "corner_detection.cminmax_corners_ms_p50": p("corner_detection.cminmax_corners", 50),
        "corner_detection.cminmax_corners_ms_p95": p("corner_detection.cminmax_corners", 95),
        "corner_detection.harris_corners_ms_p50": p("corner_detection.harris_corners", 50),
        "corner_detection.harris_cminmax_ratio": median(cal.harris_cminmax),
        "corner_detection.harris_cminmax_ratio_iqr_share": iqr_share(cal.harris_cminmax),
        "corner_detection.fallback_share": cal.fallbacks / max(cal.cminmax_calls, 1),
        "registration.estimate_homography_ms_p50": p("registration.estimate_homography", 50),
        "registration.fit_residual_max": max(cal.residuals, default=0.0),
        "trace.result_ms_p50": traced_p50,
        "trace.overhead_share": traced_p50 / untraced_p50 - 1.0 if untraced_p50 else 0.0,
        "trace.spans": sum(1 for _ in tracer.closed()),
    })
    return metrics


def write_spans(run: Run, tracer) -> None:
    out_dir = os.path.join(HERE, ".work")
    path = os.path.join(out_dir, f"trace-{run.workload}-seed{run.seed}.json")
    tracer.write(path, environment(run.workload, run.seed))


# ---- entry point ---------------------------------------------------------

def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=scenes.WORKLOADS + ("all",),
                        help="one workload, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(workload: str, seed: int, seconds: float, trace: int) -> tuple[Run, dict]:
    """One workload: render its inputs, measure, remove the inputs."""
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=os.path.join(HERE, ".work"))
    run = Run(workload, seed, seconds, work)
    try:
        metrics = (track_traced if trace else track_end_to_end)(run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = PER_LAYER if trace else END_TO_END
    return run, {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    workloads = scenes.WORKLOADS if args.workload == "all" else (args.workload,)
    failures, attempted, metrics = [], 0, {}
    for workload in workloads:
        run, measured = measure(workload, args.seed, args.seconds, args.trace)
        failures += run.failures
        attempted += run.attempted
        prefix = f"{workload}." if len(workloads) > 1 else ""
        metrics.update({prefix + name: m for name, m in measured.items()})

    for reason in failures[:20]:
        print(f"perfbench: wrong: {reason}", file=sys.stderr)
    print(json.dumps({"env": environment(args.workload, args.seed)}))
    print(json.dumps({
        "correct": not failures,
        "attempted": max(attempted, 1),
        "failed": max(min(len(failures), attempted), 1) if failures else 0,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
