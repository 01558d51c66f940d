"""Traced run: spans around the calls ``track`` and ``calibrate`` make.

The commands run in-process through ``tangible_tracker.cli.main``, with
timing wrappers patched onto the module attributes they call (``pnm``,
``warp_affine``, ``load_profile``, ``track_frame``, ``calibrate_scene``,
``save_profile``, ``StreamServer``, ``json`` and ``print``), so every span
and count comes from a call the command really made. Calls that the
pipeline only reaches inside ``track_frame`` or ``calibrate_scene`` are
timed by calling the same public functions directly on the same input, in
a ``probe`` span outside the frame's own span; self time is derived by
subtraction.

Spans stay in memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import builtins
import contextlib
import io
import json
import os
import time

import numpy as np
from scipy import ndimage

from tangible_tracker import cli, imaging, pnm, registration, tracking
from tangible_tracker.color_calibration import calibrate_hue_bounds, hue_bounds_mask
from tangible_tracker.corner_detection import (
    CMinMaxParams,
    cminmax_corners,
    harris_corners,
    mask_centroid,
)
from tangible_tracker.errors import NoPointerError, PipelineError
from tangible_tracker.imaging import EIGHT_CONNECTED, rgb_to_hsv
from tangible_tracker.mask_extraction import MaskRequest, extract_mask
from tangible_tracker.registration import (
    CORNER_TARGETS,
    VirtualMarker,
    estimate_homography,
    mean_reprojection_error,
    order_corners,
)
from tangible_tracker.stream import StreamServer
from tangible_tracker.tracking import detect_pointer_2d, estimate_pointer_depth

from drive import StreamClient

_UNSET = object()


class Tracer:
    """In-memory spans: (name, start_ns, end_ns, parent id, frame id).

    A span without a frame id inherits its parent's. Spans nest: ``end``
    closes the innermost open span.
    """

    def __init__(self):
        self.spans: list[tuple | None] = []
        self._frames: list[int | None] = []
        self._stack: list[int] = []
        self._starts: list[int] = []

    def begin(self, name: str, frame: int | None = None) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        if frame is None and parent is not None:
            frame = self._frames[parent]
        self.spans.append((name, None, None, parent, frame))
        self._frames.append(frame)
        self._stack.append(sid)
        self._starts.append(time.perf_counter_ns())
        return sid

    def end(self, sid: int) -> None:
        end = time.perf_counter_ns()
        assert self._stack[-1] == sid, "spans must close innermost first"
        self._stack.pop()
        name, _, _, parent, frame = self.spans[sid]
        self.spans[sid] = (name, self._starts.pop(), end, parent, frame)

    @contextlib.contextmanager
    def span(self, name: str, frame: int | None = None):
        sid = self.begin(name, frame)
        try:
            yield sid
        finally:
            self.end(sid)

    def closed(self):
        return ((sid, s) for sid, s in enumerate(self.spans) if s[2] is not None)

    def duration_ns(self, sid: int) -> int:
        return self.spans[sid][2] - self.spans[sid][1]

    def durations_ms(self, name: str) -> list[float]:
        return [(s[2] - s[1]) / 1e6 for _, s in self.closed() if s[0] == name]

    def by_frame_ms(self, name: str) -> dict:
        """Duration per root span id for spans of this name."""
        return {self._root(sid): (s[2] - s[1]) / 1e6
                for sid, s in self.closed() if s[0] == name}

    def _root(self, sid: int) -> int:
        while self.spans[sid][3] is not None:
            sid = self.spans[sid][3]
        return sid

    def write(self, path: str, env: dict) -> None:
        doc = {
            "env": env,
            "fields": ["id", "name", "start_ns", "end_ns", "parent", "frame"],
            "spans": [[sid, *s] for sid, s in self.closed()],
        }
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)
            f.write("\n")


class _Module:
    """Stands in for a module, with some of its functions replaced."""

    def __init__(self, module, **replaced):
        self._module = module
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        return getattr(self._module, name)


@contextlib.contextmanager
def patched(module, **attrs):
    """Set module attributes for the duration, then restore them."""
    old = {name: module.__dict__.get(name, _UNSET) for name in attrs}
    for name, value in attrs.items():
        setattr(module, name, value)
    try:
        yield
    finally:
        for name, value in old.items():
            if value is _UNSET:
                delattr(module, name)
            else:
                setattr(module, name, value)


class TrackCounts:
    """Work counts of one traced ``track`` run."""

    def __init__(self):
        self.status: dict[str, int] = {}
        self.warp_calls = 0
        self.bytes_read = 0
        self.key_pixels: list[int] = []
        self.blob_pixels = 0
        self.bytes_published = 0
        self.lines_missing = 0
        self.clients_dropped = 0
        self.frames = 0


class _TrackHooks:
    """Wrappers for the names ``cmd_track`` calls.

    A frame's span opens when its colour image is read and closes after its
    record is printed and, with a stream, published; the frame is probed
    after that, outside its span.
    """

    def __init__(self, tracer: Tracer, counts: TrackCounts, out):
        self.tracer = tracer
        self.counts = counts
        self.out = out
        self.lines: list[str] = []
        self.profile = None
        self.server = None
        self.client = None
        self.frame_sid = None
        self.emit_sid = None
        self.pair = None

    def load_profile(self, path):
        with self.tracer.span("registration.load_profile"):
            self.profile = registration.load_profile(path)
        return self.profile

    def read_ppm(self, path):
        self.frame_sid = self.tracer.begin("frame", frame=len(self.lines))
        self.pair = None
        with self.tracer.span("pnm.read_ppm"):
            img = pnm.read_ppm(path)
        self.counts.bytes_read += os.path.getsize(path)
        return img

    def read_depth(self, path, raw_to_mm=1.0):
        with self.tracer.span("pnm.read_depth"):
            depth = pnm.read_depth(path, raw_to_mm)
        self.counts.bytes_read += os.path.getsize(path)
        return depth

    def warp_affine(self, depth, transform):
        with self.tracer.span("imaging.warp_affine"):
            out = imaging.warp_affine(depth, transform)
        self.counts.warp_calls += 1
        return out

    def track_frame(self, frame, profile):
        self.pair = frame
        with self.tracer.span("tracking.track_frame"):
            return tracking.track_frame(frame, profile)

    def dumps(self, obj, **kwargs):
        if self.frame_sid is not None:
            self.emit_sid = self.tracer.begin("cli.emit")
        return json.dumps(obj, **kwargs)

    def print(self, *args, **kwargs):
        if "file" in kwargs or self.frame_sid is None:
            builtins.print(*args, **kwargs)
            return
        builtins.print(*args, file=self.out, **kwargs)
        self.tracer.end(self.emit_sid)
        line = args[0]
        self.lines.append(line)
        status = json.loads(line)["status"]
        self.counts.status[status] = self.counts.status.get(status, 0) + 1
        if self.server is None:
            self._end_frame()

    def stream_server(self, host, port):
        server = StreamServer(host, port)
        self.client = StreamClient(server.address[1])
        self.client.start()
        deadline = time.perf_counter() + 10.0
        while server.client_count() < 1 and time.perf_counter() < deadline:
            time.sleep(0.001)
        publish, close = server.publish, server.close

        def traced_publish(payload):
            with self.tracer.span("stream.publish"):
                publish(payload)
            self.counts.bytes_published += len(payload)
            self._end_frame()

        def counted_close():
            self.counts.clients_dropped += 1 - server.client_count()
            close()

        server.publish, server.close = traced_publish, counted_close
        self.server = server
        return server

    def _end_frame(self):
        self.tracer.end(self.frame_sid)
        seq = self.tracer.spans[self.frame_sid][4]
        self.frame_sid = None
        self.counts.frames += 1
        if self.pair is not None:
            _probe_frame(self.tracer, seq, self.pair, self.profile.hue_bounds,
                         self.counts)


def trace_track(tracer: Tracer, profile_path: str, frames_dir: str, out_path: str,
                listen: bool, counts: TrackCounts) -> tuple[int, list[str]]:
    """One in-process ``track`` run over the directory, traced.

    Returns the exit code and the record lines it printed.
    """
    argv = ["track", "--calib", profile_path, "--frames", frames_dir]
    if listen:
        argv += ["--listen", "127.0.0.1:0"]
    with open(out_path, "w", encoding="utf-8") as out:
        hooks = _TrackHooks(tracer, counts, out)
        try:
            with patched(cli,
                         pnm=_Module(pnm, read_ppm=hooks.read_ppm,
                                     read_depth=hooks.read_depth),
                         json=_Module(json, dumps=hooks.dumps),
                         print=hooks.print,
                         load_profile=hooks.load_profile,
                         warp_affine=hooks.warp_affine,
                         track_frame=hooks.track_frame,
                         StreamServer=hooks.stream_server):
                code = cli.main(argv)
        finally:
            if hooks.client is not None:
                hooks.client.stop.set()
                hooks.client.join(30.0)
    if hooks.client is not None:
        received = hooks.client.lines
        counts.lines_missing += sum(1 for i, line in enumerate(hooks.lines)
                                    if i >= len(received) or received[i] != line)
    return code, hooks.lines


def _probe_frame(tracer: Tracer, seq: int, pair, bounds, counts: TrackCounts) -> None:
    with tracer.span("probe", frame=seq):
        with tracer.span("imaging.rgb_to_hsv"):
            hsv = rgb_to_hsv(pair.rgb)
        with tracer.span("color_calibration.hue_bounds_mask"):
            keep = hue_bounds_mask(hsv, bounds)
        bbox = None
        with tracer.span("tracking.detect_pointer_2d"):
            try:
                _, bbox = detect_pointer_2d(pair.rgb, bounds)
            except NoPointerError:
                pass
        if bbox is not None:
            with tracer.span("tracking.estimate_pointer_depth"):
                try:
                    estimate_pointer_depth(pair.depth, bbox)
                except PipelineError:
                    pass
    keyed = int(keep.bits.sum())
    counts.key_pixels.append(keyed)
    if keyed:
        labels, _ = ndimage.label(keep.bits, structure=EIGHT_CONNECTED)
        counts.blob_pixels += int(np.bincount(labels.ravel())[1:].max())


class CalibrationCounts:
    def __init__(self):
        self.harris_cminmax: list[float] = []
        self.cminmax_calls = 0
        self.fallbacks = 0
        self.residuals: list[float] = []
        self.bytes_read = 0


class _CalibrateHooks:
    """Wrappers for the names ``cmd_calibrate`` calls; they keep its inputs
    for the probes."""

    def __init__(self, tracer: Tracer, counts: CalibrationCounts):
        self.tracer = tracer
        self.counts = counts
        self.images = []
        self.kwargs = None
        self.profile_path = None

    def read_ppm(self, path):
        with self.tracer.span("pnm.read_ppm"):
            img = pnm.read_ppm(path)
        self.counts.bytes_read += os.path.getsize(path)
        self.images.append(img)
        return img

    def calibrate_scene(self, *args, **kwargs):
        self.kwargs = kwargs
        with self.tracer.span("registration.calibrate_scene"):
            return registration.calibrate_scene(*args, **kwargs)

    def save_profile(self, profile, path):
        self.profile_path = path
        with self.tracer.span("registration.save_profile"):
            registration.save_profile(profile, path)


def trace_calibrate(tracer: Tracer, argv, scene: int,
                    counts: CalibrationCounts) -> tuple[int, str, dict | None]:
    """One in-process ``calibrate``, traced, then its probes.

    Returns the exit code, stdout and the written profile (None if none).
    """
    hooks = _CalibrateHooks(tracer, counts)
    buf = io.StringIO()
    with tracer.span("calibrate", frame=scene), contextlib.redirect_stdout(buf), \
            patched(cli, pnm=_Module(pnm, read_ppm=hooks.read_ppm),
                    calibrate_scene=hooks.calibrate_scene,
                    save_profile=hooks.save_profile):
        code = cli.main(list(argv))
    profile = None
    if code == 0:
        with open(hooks.profile_path, "r", encoding="utf-8") as f:
            profile = json.load(f)
    if hooks.kwargs is not None:
        _probe_calibration(tracer, scene, *hooks.images, hooks.kwargs["min_area"],
                           counts)
    return code, buf.getvalue(), profile


def _probe_calibration(tracer: Tracer, scene: int, background, with_marker,
                       with_pointer, min_area: int, counts: CalibrationCounts) -> None:
    with tracer.span("probe", frame=scene):
        with tracer.span("mask_extraction.extract_mask"):
            mask = extract_mask(MaskRequest(background, with_marker, min_area))
        with tracer.span("corner_detection.cminmax_corners") as cminmax_span:
            corners = cminmax_corners(mask, CMinMaxParams(n=4))
        gray = mask.bits.astype(np.uint8) * 255  # as the bench subcommand feeds Harris
        with tracer.span("corner_detection.harris_corners") as harris_span:
            harris_corners(gray, 4)
        centroid = mask_centroid(mask)
        src = np.array(order_corners(corners.corners, centroid) + (centroid,))
        dst = np.array(CORNER_TARGETS + (VirtualMarker().centroid,))
        with tracer.span("registration.estimate_homography"):
            matrix = estimate_homography(src, dst)
        with tracer.span("color_calibration.calibrate_hue_bounds"):
            calibrate_hue_bounds(background, with_pointer, min_area=min_area)
        with tracer.span("imaging.rgb_to_hsv"):
            rgb_to_hsv(with_pointer)
    counts.harris_cminmax.append(tracer.duration_ns(harris_span)
                                 / tracer.duration_ns(cminmax_span))
    counts.cminmax_calls += 1
    counts.fallbacks += int(corners.fallback_used)
    counts.residuals.append(mean_reprojection_error(matrix, src, dst))
