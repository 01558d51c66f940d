"""Binary netpbm I/O for the two formats the tracker reads.

Color frames are P6 PPM with maxval 255. Depth frames are P5 PGM with
maxval 65535 and big-endian samples. Any other magic or maxval, a
malformed header or a short raster raises ValueError.

Readers map the file read-only and return views of the mapping: no raster
is copied or converted, and a raster's pages are read from the page cache
only when something reads their pixels. Depth keeps the file's big-endian
sample order, the one ``DepthImage.pixels`` always holds.

Each image a reader returns holds its mapping, and with it one open file
descriptor, until the image is freed. A mapped file must not shrink while
an image of it lives: a read past the new end kills the process with
SIGBUS. The writers therefore never rewrite a file in place; they write a
new file beside it and rename it over the path, so images of the old file
keep its bytes.
"""

from __future__ import annotations

import contextlib
import math
import mmap
import os
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


def _parse_header(data, magic: bytes, path) -> tuple[int, int, int, int]:
    """Parse the header of data, any bytes-like object."""
    if data[:len(magic)] != magic:
        raise ValueError(f"{path}: expected {magic.decode()} netpbm data")
    m = _HEADER.match(data, len(magic))
    if m is None:
        raise ValueError(f"{path}: malformed or truncated netpbm header")
    width, height, maxval = map(int, m.groups())
    return width, height, maxval, m.end()


def _read_raster(path, fmt: tuple) -> np.ndarray:
    """The raster of one file in format fmt, shaped (height, width, *channels):
    a read-only view of the mapped file."""
    magic, maxval, sample, channels = fmt
    with open(path, "rb") as f:
        if os.fstat(f.fileno()).st_size == 0:  # mmap refuses an empty file
            raise ValueError(f"{path}: expected {magic.decode()} netpbm data")
        data = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
    try:
        width, height, found, start = _parse_header(data, magic, path)
        if found != maxval:
            raise ValueError(f"{path}: {magic.decode()} maxval must be {maxval}, got {found}")
        shape = (height, width) + channels
        count = math.prod(shape)
        if len(data) - start < count * sample.itemsize:
            raise ValueError(f"{path}: truncated raster")
    except ValueError:
        # unmap now: the exception may outlive this call, in a log record
        data.close()
        raise
    return np.frombuffer(data, dtype=sample, count=count, offset=start).reshape(shape)


@contextlib.contextmanager
def write_by_rename(path, mode: str, encoding: str | None = None):
    """A new file beside path, opened in mode, that replaces path by rename
    once the block completes and is removed if it fails: path always holds
    a whole file, old or new, and a file that a reader has mapped is never
    truncated. An OSError about the temporary file names path instead."""
    path = os.fsdecode(path)
    temp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(temp, mode, encoding=encoding) as f:
            yield f
        os.replace(temp, path)
    except BaseException as exc:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(temp)
        if isinstance(exc, OSError) and exc.filename == temp:
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


def _write_raster(path, fmt: tuple, pixels: np.ndarray) -> None:
    """Write pixels already in the format's sample type, as the image
    types hold them, by ``write_by_rename``."""
    magic, maxval, _, _ = fmt
    with write_by_rename(path, "wb") as f:
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
