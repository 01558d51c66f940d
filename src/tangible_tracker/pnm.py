"""Binary netpbm I/O.

RGB images travel as P6 PPM (maxval 255), grayscale planes and masks as P5
PGM (maxval 255, mask pixels 0 = unset / 255 = set), and raw depth as P5
PGM with maxval 65535 and big-endian sample order.
"""

from __future__ import annotations

import numpy as np

from .imaging import BinaryMask, DepthImage, RgbImage


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


def read_ppm(path) -> RgbImage:
    with open(path, "rb") as f:
        data = f.read()
    width, height, maxval, start = _parse_header(data, b"P6", path)
    if maxval != 255:
        raise ValueError(f"{path}: only maxval 255 PPM is supported")
    n = width * height * 3
    raster = np.frombuffer(data, dtype=np.uint8, count=n, offset=start)
    if raster.size < n:
        raise ValueError(f"{path}: truncated raster")
    return RgbImage(raster.reshape(height, width, 3))


def write_ppm(path, img: RgbImage) -> None:
    with open(path, "wb") as f:
        f.write(b"P6\n%d %d\n255\n" % (img.width, img.height))
        f.write(img.pixels.tobytes())


def read_pgm(path) -> np.ndarray:
    """Read a P5 PGM as uint8 (maxval <= 255) or uint16 (big-endian)."""
    with open(path, "rb") as f:
        data = f.read()
    width, height, maxval, start = _parse_header(data, b"P5", path)
    if maxval <= 0 or maxval > 65535:
        raise ValueError(f"{path}: maxval out of range")
    dtype = np.uint8 if maxval <= 255 else np.dtype(">u2")
    n = width * height
    raster = np.frombuffer(data, dtype=dtype, count=n, offset=start)
    if raster.size < n:
        raise ValueError(f"{path}: truncated raster")
    plane = raster.reshape(height, width)
    return plane.astype(np.uint16) if maxval > 255 else plane.copy()


def write_pgm(path, plane: np.ndarray) -> None:
    """Write a grayscale plane; dtype picks 8-bit or big-endian 16-bit."""
    plane = np.asarray(plane)
    if plane.ndim != 2:
        raise ValueError("expected a 2-D plane")
    if plane.dtype == np.uint8:
        maxval, payload = 255, plane.tobytes()
    elif plane.dtype == np.uint16:
        maxval, payload = 65535, plane.astype(">u2").tobytes()
    else:
        raise ValueError("plane must be uint8 or uint16")
    with open(path, "wb") as f:
        f.write(b"P5\n%d %d\n%d\n" % (plane.shape[1], plane.shape[0], maxval))
        f.write(payload)


def read_mask(path) -> BinaryMask:
    plane = read_pgm(path)
    return BinaryMask(plane > 0)


def write_mask(path, mask: BinaryMask) -> None:
    write_pgm(path, np.where(mask.bits, 255, 0).astype(np.uint8))


def read_depth(path, raw_to_mm: float = 1.0) -> DepthImage:
    return DepthImage(read_pgm(path), raw_to_mm)


def write_depth(path, depth: DepthImage) -> None:
    write_pgm(path, depth.pixels)
