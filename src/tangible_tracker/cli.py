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
import sys
import time
from collections import Counter

import numpy as np

from . import pnm
from .bench import format_table, run_benchmark
from .errors import PipelineError
from .imaging import AffineTransform
from .registration import (
    calibrate_scene,
    check_principal_point,
    checked_value,
    load_profile,
    save_profile,
)
from .simulator import circular_trajectory, render_sequence, spec_from_dict
from .stream import StreamServer
from .tracking import FramePair, error_record, frame_record, track_frame

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CALIBRATION = 3
EXIT_IO = 4
EXIT_VALIDATION = 5

_LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}

_FRAME_RE = re.compile(r"^rgb_(\d+)\.ppm$")


def _configure_logging() -> None:
    level = _LOG_LEVELS.get(os.environ.get("TT_LOG", "warn"), logging.WARNING)
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="%(levelname)s %(name)s: %(message)s")


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
    if not sizes:
        raise ValueError("at least one size is required")
    return sizes


def cmd_calibrate(args: argparse.Namespace) -> int:
    try:
        background = pnm.read_ppm(args.background)
        with_marker = pnm.read_ppm(args.with_marker)
        with_pointer = pnm.read_ppm(args.with_pointer)
    except OSError as exc:
        return _fail(EXIT_IO, f"IOError: {exc}")
    except ValueError as exc:
        return _fail(EXIT_IO, f"BadImage: {exc}")

    try:
        depth_to_rgb = AffineTransform(
            _parse_floats(args.depth_to_rgb, 6, "--depth-to-rgb").reshape(2, 3))
        principal = tuple(_parse_floats(args.principal_point, 2, "--principal-point"))
    except ValueError as exc:
        return _fail(EXIT_VALIDATION, f"Validation: {exc}")

    try:
        summary = calibrate_scene(
            background, with_marker, with_pointer,
            depth_to_rgb=depth_to_rgb,
            camera_height_mm=args.camera_height,
            principal_point=principal,
            rho_z=args.rho_z,
            raw_to_mm=args.raw_to_mm,
            min_area=args.min_area,
        )
    except PipelineError as exc:
        return _fail(EXIT_CALIBRATION, f"{exc.name}: {exc}")
    except ValueError as exc:
        return _fail(EXIT_VALIDATION, f"Validation: {exc}")

    try:
        save_profile(summary.profile, args.out)
    except OSError as exc:
        return _fail(EXIT_IO, f"IOError: {exc}")

    for i, (cx, cy) in enumerate(summary.ordered_corners):
        print(f"corner[{i}] = ({cx:.3f}, {cy:.3f})")
    print(f"centroid = ({summary.centroid[0]:.3f}, {summary.centroid[1]:.3f})")
    b = summary.profile.hue_bounds
    print(f"hue_bounds = [{b.lo}, {b.hi}] wraps={str(b.wraps).lower()} "
          f"min_saturation={b.min_saturation} min_value={b.min_value}")
    print(f"fit_residual = {summary.fit_residual:.6g}")
    print(f"profile written to {args.out}")
    return EXIT_OK


def _scan_frames(frames_dir: str) -> list[tuple[int, str, str]]:
    entries = []
    for name in os.listdir(frames_dir):
        m = _FRAME_RE.match(name)
        if m:
            idx = int(m.group(1))
            entries.append((
                idx,
                os.path.join(frames_dir, name),
                os.path.join(frames_dir, f"depth_{m.group(1)}.pgm"),
            ))
    entries.sort(key=lambda e: e[0])
    return entries


def cmd_track(args: argparse.Namespace) -> int:
    try:
        profile = load_profile(args.calib)
    except OSError as exc:
        return _fail(EXIT_IO, f"IOError: {exc}")
    except (ValueError, RecursionError) as exc:
        return _fail(EXIT_VALIDATION, f"BadProfile: {exc}")

    try:
        frames = _scan_frames(args.frames)
    except OSError as exc:
        return _fail(EXIT_IO, f"IOError: {exc}")
    if not frames:
        return _fail(EXIT_VALIDATION, f"Validation: no rgb_*.ppm frames in {args.frames}")

    server = None
    if args.listen:
        try:
            host, port = _parse_hostport(args.listen)
            server = StreamServer(host, port)
        except ValueError as exc:
            return _fail(EXIT_VALIDATION, f"Validation: {exc}")
        except OSError as exc:
            return _fail(EXIT_IO, f"IOError: {exc}")
        log.info("streaming on %s:%d", *server.address)

    checked_principal = False
    status_counts: Counter[str] = Counter()
    kernel_seconds = 0.0
    wall_start = time.perf_counter()
    seq = 0
    try:
        for idx, rgb_path, depth_path in frames:
            record = None
            try:
                rgb = pnm.read_ppm(rgb_path)
                depth = pnm.read_depth(depth_path, profile.raw_to_mm)
                frame = FramePair(rgb, depth)
            except OSError as exc:
                log.warning("frame %d unreadable: %s", idx, exc)
                record = error_record(idx, "IOError")
            except ValueError as exc:
                log.warning("frame %d invalid: %s", idx, exc)
                record = error_record(idx, "BadFrame")
            if record is None and not checked_principal:
                try:
                    check_principal_point(profile.principal_point, rgb.width, rgb.height)
                except ValueError as exc:
                    return _fail(EXIT_VALIDATION, f"BadProfile: {exc}")
                checked_principal = True
            if record is None:
                t0 = time.perf_counter()
                try:
                    fix = track_frame(frame, profile)
                except PipelineError as exc:
                    record = error_record(idx, exc.name)
                else:
                    record = frame_record(idx, fix)
                kernel_seconds += time.perf_counter() - t0
            status_counts[record["status"]] += 1
            line = json.dumps({"seq": seq, **record}, allow_nan=False)
            print(line, flush=True)
            if server is not None:
                server.publish((line + "\n").encode("utf-8"))
            seq += 1
    finally:
        if server is not None:
            server.close()

    if args.fps_report:
        wall = time.perf_counter() - wall_start
        fps = seq / kernel_seconds if kernel_seconds > 0 else 0.0
        print(json.dumps({
            "fps": fps,
            "frames": seq,
            "kernel_seconds": kernel_seconds,
            "wall_seconds": wall,
            "status_counts": status_counts,
        }), flush=True)
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    overrides: dict = {}
    if args.spec:
        try:
            with open(args.spec, "r", encoding="utf-8") as f:
                overrides = json.load(f)
        except OSError as exc:
            return _fail(EXIT_IO, f"IOError: {exc}")
        except (ValueError, RecursionError) as exc:
            return _fail(EXIT_VALIDATION, f"Validation: bad scene json: {exc}")
        if not isinstance(overrides, dict):
            return _fail(EXIT_VALIDATION, "Validation: scene json must be an object")
    if args.size:
        try:
            (w, h), = _parse_sizes(args.size)
        except ValueError as exc:
            return _fail(EXIT_VALIDATION, f"Validation: {exc}")
        overrides["width"], overrides["height"] = w, h
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.hue_jitter is not None:
        overrides["hue_jitter"] = args.hue_jitter
    if args.depth_jitter is not None:
        overrides["depth_jitter"] = args.depth_jitter
    if args.ball_hue is not None:
        overrides["ball_hue"] = args.ball_hue

    try:
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
    except (ValueError, RecursionError) as exc:
        return _fail(EXIT_VALIDATION, f"Validation: {exc}")
    except OSError as exc:
        return _fail(EXIT_IO, f"IOError: {exc}")

    print(f"wrote {len(trajectory)} frame pair(s), calibration images, "
          f"and {os.path.basename(truth_path)} to {args.out}")
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    try:
        rows = run_benchmark(_parse_sizes(args.sizes), args.iterations, args.seed)
    except ValueError as exc:
        return _fail(EXIT_VALIDATION, f"Validation: {exc}")
    if args.json:
        print(json.dumps(rows, indent=2))
    else:
        print(format_table(rows))
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
    cal.add_argument("--min-area", type=int, default=200,
                     help="minimum believable object mask area, px")
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
    sim.add_argument("--frames", type=int, default=10, help="trajectory length")
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--spec", help="scene spec JSON (fields override defaults)")
    sim.add_argument("--trajectory", help="JSON list of [x_mm, y_mm, h_mm] points")
    sim.add_argument("--size", help="image size WIDTHxHEIGHT")
    sim.add_argument("--hue-jitter", type=int, default=None, help="ball hue noise, bins")
    sim.add_argument("--depth-jitter", type=int, default=None, help="depth noise, raw units")
    sim.add_argument("--ball-hue", type=int, default=None, help="ball hue, 0..179")
    sim.set_defaults(func=cmd_simulate)

    ben = sub.add_parser("bench", help="compare corner detector timings")
    ben.add_argument("--sizes", default="640x480",
                     help="comma-separated list like 640x480,320x240")
    ben.add_argument("--iterations", type=int, default=100)
    ben.add_argument("--seed", type=int, default=0)
    ben.add_argument("--json", action="store_true", help="emit JSON instead of a table")
    ben.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    _configure_logging()
    args = _build_parser().parse_args(argv)
    return args.func(args)


def run() -> None:
    raise SystemExit(main())
