"""Command-line surface: calibrate, track, simulate, and bench.

``track`` can additionally serve every record over a plain TCP listener as
newline-delimited JSON, which is the integration seam for display clients.
Diagnostics go to stderr and are controlled by TT_LOG (error, warn, info,
debug); records and reports go to stdout.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import re
import resource
import sys
import time
from collections import Counter

import numpy as np

from . import pnm
from .color_calibration import MIN_SATURATION, MIN_VALUE, key_tables
from .errors import PipelineError
from .imaging import AffineTransform
from .mask_extraction import DEFAULT_MIN_AREA
from .registration import (
    calibrate_scene,
    check_principal_point,
    checked_value,
    load_profile,
    save_profile,
)
from .stream import StreamServer
from .tracking import FramePair, error_record, frame_record, track_frame

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CALIBRATION = 3
EXIT_IO = 4
EXIT_VALIDATION = 5

_LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}

_FRAME_RE = re.compile(r"rgb_([0-9]+)\.ppm")


class _StderrHandler(logging.StreamHandler):
    """Writes each record to ``sys.stderr`` as it is when the record comes,
    as logging's own last-resort handler does."""

    def __init__(self):
        logging.Handler.__init__(self)

    @property
    def stream(self):
        return sys.stderr


def _fail(code: int, message: str) -> int:
    print(message, file=sys.stderr)
    return code


def _parse_floats(text: str, count: int, label: str) -> np.ndarray:
    parts = [p for p in text.replace(",", " ").split() if p]
    if len(parts) != count:
        raise ValueError(f"{label} expects {count} numbers, got {len(parts)}")
    return np.array([float(p) for p in parts])


def _parse_hostport(text: str) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep or not port.isdigit() or int(port) > 65535:
        raise ValueError("listen address must be host:port with a port of 0-65535")
    return host or "127.0.0.1", int(port)


def _parse_sizes(text: str) -> list[tuple[int, int]]:
    sizes = []
    for token in text.split(","):
        token = token.strip()
        m = re.fullmatch(r"(\d+)x(\d+)", token)
        if not m:
            raise ValueError(f"bad size {token!r}, expected WIDTHxHEIGHT")
        sizes.append((int(m.group(1)), int(m.group(2))))
    return sizes


def cmd_calibrate(args: argparse.Namespace) -> int:
    try:
        background = pnm.read_ppm(args.background)
        with_marker = pnm.read_ppm(args.with_marker)
        with_pointer = pnm.read_ppm(args.with_pointer)
    except ValueError as exc:
        return _fail(EXIT_IO, f"BadImage: {exc}")

    summary = calibrate_scene(
        background, with_marker, with_pointer,
        depth_to_rgb=AffineTransform(
            _parse_floats(args.depth_to_rgb, 6, "--depth-to-rgb").reshape(2, 3)),
        camera_height_mm=args.camera_height,
        principal_point=tuple(_parse_floats(args.principal_point, 2, "--principal-point")),
        rho_z=args.rho_z,
        raw_to_mm=args.raw_to_mm,
        min_area=DEFAULT_MIN_AREA,  # by keyword: perfbench/tracer.py reads kwargs["min_area"]
    )
    save_profile(summary.profile, args.out)

    for i, (cx, cy) in enumerate(summary.ordered_corners):
        print(f"corner[{i}] = ({cx:.3f}, {cy:.3f})")
    print(f"centroid = ({summary.centroid[0]:.3f}, {summary.centroid[1]:.3f})")
    b = summary.profile.hue_bounds
    print(f"hue_bounds = [{b.lo}, {b.hi}] wraps={str(b.wraps).lower()} "
          f"min_saturation={MIN_SATURATION} min_value={MIN_VALUE}")
    print(f"fit_residual = {summary.fit_residual:.6g}")
    print(f"profile written to {args.out}")
    return EXIT_OK


def _scan_frames(frames_dir: str) -> list[tuple[int, str, str]]:
    entries = []
    for name in os.listdir(frames_dir):
        m = _FRAME_RE.fullmatch(name)
        if m:
            entries.append((
                int(m.group(1)),
                os.path.join(frames_dir, name),
                os.path.join(frames_dir, f"depth_{m.group(1)}.pgm"),
            ))
    entries.sort()
    for (idx, rgb_path, _), (other, other_path, _) in zip(entries, entries[1:]):
        if idx == other:
            raise ValueError(f"{rgb_path} and {other_path} are both frame {idx}")
    return entries


def cmd_track(args: argparse.Namespace) -> int:
    try:
        profile = load_profile(args.calib)
    except (ValueError, RecursionError) as exc:
        return _fail(EXIT_VALIDATION, f"BadProfile: {exc}")
    frames = _scan_frames(args.frames)
    if not frames:
        raise ValueError(f"no rgb_*.ppm frames in {args.frames}")

    server = None
    if args.listen:
        server = StreamServer(*_parse_hostport(args.listen))
        log.info("streaming on %s:%d", *server.address)

    # build the key's tables now, so that no frame's kernel time holds them
    key_tables(profile.hue_bounds)
    checked_principal = False
    status_counts: Counter[str] = Counter()
    kernel_seconds = 0.0
    kernel_cpu_ns = 0  # this thread's CPU time over the same calls
    kernel_frames = 0  # frames that reached track_frame
    wall_start = time.perf_counter()
    try:
        for seq, (idx, rgb_path, depth_path) in enumerate(frames):
            try:
                rgb = pnm.read_ppm(rgb_path)
                frame = FramePair(rgb, pnm.read_depth(depth_path))
            except OSError as exc:
                log.warning("frame %d unreadable: %s", idx, exc)
                record = error_record(idx, "IOError")
            except ValueError as exc:
                log.warning("frame %d invalid: %s", idx, exc)
                record = error_record(idx, "BadFrame")
            else:
                if not checked_principal:
                    try:
                        check_principal_point(profile.principal_point, rgb.width, rgb.height)
                    except ValueError as exc:
                        return _fail(EXIT_VALIDATION, f"BadProfile: {exc}")
                    checked_principal = True
                t0, cpu0 = time.perf_counter(), time.thread_time_ns()
                try:
                    record = frame_record(idx, track_frame(frame, profile))
                except PipelineError as exc:
                    record = error_record(idx, exc.name)
                kernel_cpu_ns += time.thread_time_ns() - cpu0
                kernel_seconds += time.perf_counter() - t0
                kernel_frames += 1
            # drop this frame's images before the next read: that unmaps
            # their files and closes the descriptor each mapping holds
            rgb = frame = None
            status_counts[record["status"]] += 1
            line = json.dumps({"seq": seq, **record}, allow_nan=False)
            print(line, flush=True)
            if server is not None:
                server.publish((line + "\n").encode("utf-8"))
    finally:
        if server is not None:
            server.close()

    if args.fps_report:
        wall = time.perf_counter() - wall_start
        print(json.dumps({
            "fps": kernel_frames / kernel_seconds if kernel_seconds > 0 else 0.0,
            "frames": len(frames),
            "kernel_seconds": kernel_seconds,
            "kernel_cpu_seconds": kernel_cpu_ns / 1e9,
            "wall_seconds": wall,
            "status_counts": status_counts,
            # this process's own high-water mark, in kilobytes on Linux
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }), flush=True)
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    # imported here, as bench is in cmd_bench, so track and calibrate start without it
    from .simulator import circular_trajectory, render_sequence, spec_from_dict

    overrides: dict = {}
    if args.spec:
        try:
            with open(args.spec, "r", encoding="utf-8") as f:
                overrides = json.load(f)
        except (ValueError, RecursionError) as exc:
            return _fail(EXIT_VALIDATION, f"Validation: bad scene json: {exc}")
        if not isinstance(overrides, dict):
            raise ValueError("scene json must be an object")

    spec = spec_from_dict(overrides)
    if args.trajectory:
        with open(args.trajectory, "r", encoding="utf-8") as f:
            points = json.load(f)
        if type(points) is not list:
            raise ValueError("trajectory must be a JSON list of points")
        trajectory = [checked_value(f"trajectory point {i}", p, "number", 3)
                      for i, p in enumerate(points)]
    else:
        trajectory = circular_trajectory(args.frames)
    truth_path = render_sequence(spec, trajectory, args.out)

    print(f"wrote {len(trajectory)} frame pair(s), calibration images, "
          f"and {os.path.basename(truth_path)} to {args.out}")
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    from .bench import run_benchmark

    rows = run_benchmark(_parse_sizes(args.sizes), args.iterations, args.seed)
    print(json.dumps(rows, indent=2))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tangible-tracker",
        description="Tangible pointer tracking toolkit: calibrate a scene, "
                    "track frames, synthesize test scenes, and benchmark "
                    "corner detection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cal = sub.add_parser("calibrate", help="build a calibration profile from three captures")
    cal.add_argument("--background", required=True, help="empty-scene PPM")
    cal.add_argument("--with-marker", required=True, help="scene PPM with the marker placed")
    cal.add_argument("--with-pointer", required=True, help="scene PPM with the pointer placed")
    cal.add_argument("--depth-to-rgb", default="1,0,0,0,1,0",
                     help="2x3 row-major affine mapping depth pixels to RGB pixels")
    cal.add_argument("--camera-height", type=float, required=True,
                     help="camera height over the marker plane, mm")
    cal.add_argument("--principal-point", required=True, help="optical center, 'x,y' pixels")
    cal.add_argument("--rho-z", type=float, required=True,
                     help="virtual units per millimeter of pointer height")
    cal.add_argument("--raw-to-mm", type=float, default=1.0,
                     help="depth raw unit size in millimeters")
    cal.add_argument("--out", required=True, help="profile JSON output path")
    cal.set_defaults(func=cmd_calibrate)

    trk = sub.add_parser("track", help="track a directory of frame pairs")
    trk.add_argument("--calib", required=True, help="calibration profile JSON")
    trk.add_argument("--frames", required=True,
                     help="directory of rgb_%%04d.ppm / depth_%%04d.pgm pairs")
    trk.add_argument("--listen", help="serve records on host:port as JSON lines")
    trk.add_argument("--fps-report", action="store_true",
                     help="append a frames/sec summary line")
    trk.set_defaults(func=cmd_track)

    sim = sub.add_parser("simulate", help="render a synthetic scene sequence")
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument("--spec", help="scene spec JSON (fields override defaults)")
    ball_path = sim.add_mutually_exclusive_group()
    ball_path.add_argument("--frames", type=int, default=10,
                           help="length of the default circular trajectory")
    ball_path.add_argument("--trajectory", help="JSON list of [x_mm, y_mm, h_mm] points")
    sim.set_defaults(func=cmd_simulate)

    ben = sub.add_parser("bench", help="compare corner detector timings, as JSON rows")
    ben.add_argument("--sizes", default="640x480",
                     help="comma-separated list like 640x480,320x240")
    ben.add_argument("--iterations", type=int, default=100)
    ben.add_argument("--seed", type=int, default=0)
    ben.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    """Run one command and map its failures to exits 3, 4 and 5."""
    # a no-op where the root logger has handlers already (a host program's,
    # or an earlier call's); the level is this call's either way
    logging.basicConfig(handlers=[_StderrHandler()],
                        format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger("tangible_tracker").setLevel(
        _LOG_LEVELS.get(os.environ.get("TT_LOG", "warn"), logging.WARNING))
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that closed stdout fails here, not at exit
        return code
    except PipelineError as exc:
        return _fail(EXIT_CALIBRATION, f"{exc.name}: {exc}")
    except OSError as exc:
        return _fail(EXIT_IO, f"IOError: {exc}")
    except (ValueError, RecursionError) as exc:
        return _fail(EXIT_VALIDATION, f"Validation: {exc}")


def run() -> None:
    code = main()
    try:
        sys.stdout.flush()
    except OSError:
        # main reported the closed stdout; Python's own flush at exit would
        # report it again and exit 120 (see SIGPIPE in the signal docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    raise SystemExit(code)
