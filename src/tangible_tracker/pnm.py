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

import numpy as np

from .imaging import DEPTH_SAMPLE, DepthImage, RgbImage

# magic, maxval, sample type and per-pixel channel shape of each format
_PPM = (b"P6", 255, np.dtype(np.uint8), (3,))
_DEPTH = (b"P5", 65535, DEPTH_SAMPLE, ())


def _parse_header(data: bytes, magic: bytes, path) -> tuple[int, int, int, int]:
    if not data.startswith(magic):
        raise ValueError(f"{path}: expected {magic.decode()} netpbm data")
    pos = len(magic)
    fields: list[int] = []
    while len(fields) < 3:
        if pos >= len(data):
            raise ValueError(f"{path}: truncated netpbm header")
        c = data[pos:pos + 1]
        if c.isspace():
            pos += 1
        elif c == b"#":
            end = data.find(b"\n", pos)
            pos = len(data) if end < 0 else end + 1
        elif c.isdigit():
            end = pos
            while end < len(data) and data[end:end + 1].isdigit():
                end += 1
            fields.append(int(data[pos:end]))
            pos = end
        else:
            raise ValueError(f"{path}: malformed netpbm header")
    # exactly one whitespace byte separates the header from the raster
    if pos >= len(data) or not data[pos:pos + 1].isspace():
        raise ValueError(f"{path}: malformed netpbm header")
    width, height, maxval = fields
    return width, height, maxval, pos + 1


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
