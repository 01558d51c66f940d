"""Side-by-side timing of the two corner detectors on identical masks."""

from __future__ import annotations

import statistics
import time

import numpy as np

from .corner_detection import CMinMaxParams, cminmax_corners, harris_corners
from .simulator import random_quadrangle_scene


def run_benchmark(sizes, iterations: int, seed: int) -> list[dict]:
    """Time both detectors on freshly sampled quadrangle masks.

    Every iteration renders one random convex quadrangle at the given size
    and runs both detectors on that same scene; mask generation stays
    outside the timed region. Returns one row per size with median
    nanoseconds and the harris/cminmax ratio.
    """
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    # harris_corners imports scipy on its first call; do that before timing
    import scipy.ndimage  # noqa: F401
    rows = []
    for width, height in sizes:
        rng = np.random.default_rng(seed)
        params = CMinMaxParams(n=4)
        cminmax_ns = []
        harris_ns = []
        for _ in range(iterations):
            mask, _ = random_quadrangle_scene(width, height, rng)
            gray = mask.bits.astype(np.uint8) * 255
            t0 = time.perf_counter_ns()
            cminmax_corners(mask, params)
            t1 = time.perf_counter_ns()
            harris_corners(gray, 4)
            t2 = time.perf_counter_ns()
            cminmax_ns.append(t1 - t0)
            harris_ns.append(t2 - t1)
        c_med = statistics.median(cminmax_ns)
        h_med = statistics.median(harris_ns)
        rows.append({
            "size": f"{width}x{height}",
            "width": width,
            "height": height,
            "iterations": iterations,
            "cminmax_median_ns": int(c_med),
            "harris_median_ns": int(h_med),
            "ratio": h_med / c_med,
        })
    return rows


def format_table(rows: list[dict]) -> str:
    header = ("size", "cminmax ns/op", "harris ns/op", "ratio")
    table = [header]
    for row in rows:
        table.append((
            row["size"],
            f"{row['cminmax_median_ns']:,}",
            f"{row['harris_median_ns']:,}",
            f"{row['ratio']:.2f}",
        ))
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    lines = []
    for i, row in enumerate(table):
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
