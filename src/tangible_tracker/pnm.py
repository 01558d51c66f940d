"""Binary netpbm I/O for the two formats the tracker reads.

Color frames are P6 PPM with maxval 255. Depth frames are P5 PGM with
maxval 65535 and big-endian samples. Any other magic or maxval, a
malformed header or a short raster raises ValueError.

Readers return read-only views of the bytes they read: no raster is
copied or converted. Depth keeps the file's big-endian sample order, the
one ``DepthImage.pixels`` always holds.
"""

from __future__ import annotations

import math
import re

import numpy as np

from .imaging import DEPTH_SAMPLE, DepthImage, RgbImage

# magic, maxval, sample type and per-pixel channel shape of each format
_PPM = (b"P6", 255, np.dtype(np.uint8), (3,))
_DEPTH = (b"P5", 65535, DEPTH_SAMPLE, ())

# three decimal fields, each after any whitespace and '#' comment lines,
# then exactly one whitespace byte before the raster; (?!\d) stops the
# backtracking that would split one number into several fields
_HEADER = re.compile(rb"(?:\s|#[^\n]*\n)*(\d+)(?!\d)" * 3 + rb"\s")


def _parse_header(data: bytes, magic: bytes, path) -> tuple[int, int, int, int]:
    if not data.startswith(magic):
        raise ValueError(f"{path}: expected {magic.decode()} netpbm data")
    m = _HEADER.match(data, len(magic))
    if m is None:
        raise ValueError(f"{path}: malformed or truncated netpbm header")
    width, height, maxval = map(int, m.groups())
    return width, height, maxval, m.end()


def _read_raster(path, fmt: tuple) -> np.ndarray:
    """The raster of one file in format fmt, shaped (height, width, *channels)."""
    magic, maxval, sample, channels = fmt
    with open(path, "rb") as f:
        data = f.read()
    width, height, found, start = _parse_header(data, magic, path)
    if found != maxval:
        raise ValueError(f"{path}: {magic.decode()} maxval must be {maxval}, got {found}")
    shape = (height, width) + channels
    count = math.prod(shape)
    if len(data) - start < count * sample.itemsize:
        raise ValueError(f"{path}: truncated raster")
    return np.frombuffer(data, dtype=sample, count=count, offset=start).reshape(shape)


def _write_raster(path, fmt: tuple, pixels: np.ndarray) -> None:
    """Write pixels already in the format's sample type, as the image
    types hold them."""
    magic, maxval, _, _ = fmt
    with open(path, "wb") as f:
        f.write(b"%s\n%d %d\n%d\n" % (magic, pixels.shape[1], pixels.shape[0], maxval))
        f.write(pixels.tobytes())


def read_ppm(path) -> RgbImage:
    return RgbImage(_read_raster(path, _PPM))


def write_ppm(path, img: RgbImage) -> None:
    _write_raster(path, _PPM, img.pixels)


def read_depth(path, raw_to_mm: float = 1.0) -> DepthImage:
    return DepthImage(_read_raster(path, _DEPTH), raw_to_mm)


def write_depth(path, depth: DepthImage) -> None:
    _write_raster(path, _DEPTH, depth.pixels)
