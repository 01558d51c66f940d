"""Run the shipped CLI in child processes, as a user would, tracing off.

One child runs at a time and at most one TCP client reads its stream, so
the load comes from a single process on a small machine.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

CHILD_TIMEOUT_S = 150.0  # a hung child is killed well inside the 180 s run limit


def child_env(src_dir: str) -> dict:
    """Environment that imports the package from this checkout's sources."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src_dir + (os.pathsep + old if old else "")
    env.pop("TT_LOG", None)  # default logging: warnings only
    return env


def _reap(proc: subprocess.Popen) -> float:
    """Wait for the child and return its peak RSS in MB."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def _spawn(argv: list[str], env: dict, stderr_path: str):
    with open(stderr_path, "wb") as err:
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.daemon = True
    watchdog.start()
    return proc, watchdog


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        return f.read()


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class StreamClient(threading.Thread):
    """Connects to a listener as soon as it is up and reads to EOF."""

    def __init__(self, port: int):
        super().__init__(daemon=True)
        self.port = port
        self.stop = threading.Event()
        self.lines: list[str] = []

    def run(self) -> None:
        sock = None
        while sock is None and not self.stop.is_set():
            try:
                sock = socket.create_connection(("127.0.0.1", self.port), timeout=30.0)
            except OSError:
                time.sleep(0.005)
        if sock is None:
            return
        chunks = []
        with sock:
            while True:
                try:
                    data = sock.recv(65536)
                except OSError:
                    break
                if not data:
                    break
                chunks.append(data)
        text = b"".join(chunks).decode("utf-8", errors="replace")
        self.lines = text.split("\n")[:-1] if text else []


@dataclass
class TrackRun:
    """One ``track`` invocation as its stdout reader saw it."""

    code: int
    spawned: float
    records: list[str] = field(default_factory=list)
    arrivals: list[float] = field(default_factory=list)
    report: dict | None = None
    extra_lines: list[str] = field(default_factory=list)
    rss_mb: float = 0.0
    received: list[str] | None = None
    stderr: str = ""

    @property
    def setup_s(self) -> float:
        return self.arrivals[0] - self.spawned

    def gaps_s(self) -> list[float]:
        """Per-frame wall times; the first frame has no predecessor."""
        return [b - a for a, b in zip(self.arrivals, self.arrivals[1:])]


def run_track(env: dict, profile_path: str, frames_dir: str, listen: bool,
              stderr_path: str) -> TrackRun:
    argv = [sys.executable, "-m", "tangible_tracker", "track",
            "--calib", profile_path, "--frames", frames_dir, "--fps-report"]
    client = None
    if listen:
        port = free_port()
        argv += ["--listen", f"127.0.0.1:{port}"]
        client = StreamClient(port)
    spawned = time.perf_counter()
    proc, watchdog = _spawn(argv, env, stderr_path)
    if client is not None:
        client.start()
    run = TrackRun(code=-1, spawned=spawned)
    try:
        for raw in proc.stdout:
            now = time.perf_counter()
            line = raw.decode("utf-8", errors="replace").rstrip("\n")
            try:
                doc = json.loads(line)
            except ValueError:
                doc = None
            if isinstance(doc, dict) and "seq" in doc:
                run.records.append(line)
                run.arrivals.append(now)
            elif isinstance(doc, dict) and "fps" in doc and run.report is None:
                run.report = doc
            else:
                run.extra_lines.append(line)
        proc.stdout.close()
        run.rss_mb = _reap(proc)
    finally:
        watchdog.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        if client is not None:
            client.stop.set()
            client.join(30.0)
    run.code = proc.returncode
    run.stderr = _read_text(stderr_path)
    if client is not None:
        run.received = client.lines
    return run
