import numpy as np
import pytest

from tangible_tracker import pnm
from tangible_tracker.imaging import DepthImage, RgbImage


def test_ppm_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    img = RgbImage(rng.integers(0, 256, size=(17, 23, 3), dtype=np.uint8))
    path = tmp_path / "img.ppm"
    pnm.write_ppm(path, img)
    back = pnm.read_ppm(path)
    assert (back.pixels == img.pixels).all()


def test_pgm8_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    plane = rng.integers(0, 256, size=(9, 11), dtype=np.uint8)
    path = tmp_path / "plane.pgm"
    pnm.write_pgm(path, plane)
    assert (pnm.read_pgm(path) == plane).all()


def test_depth_round_trip_and_big_endian_layout(tmp_path):
    depth = DepthImage(np.array([[0x0102, 0xF00D]], dtype=np.uint16), 1.0)
    path = tmp_path / "depth.pgm"
    pnm.write_depth(path, depth)
    raw = path.read_bytes()
    header = b"P5\n2 1\n65535\n"
    assert raw.startswith(header)
    assert raw[len(header):] == bytes([0x01, 0x02, 0xF0, 0x0D])
    back = pnm.read_depth(path, 2.5)
    assert (back.pixels == depth.pixels).all()
    assert back.raw_to_mm == 2.5


def test_header_comments_are_skipped(tmp_path):
    path = tmp_path / "commented.ppm"
    path.write_bytes(b"P6\n# a comment\n2 # inline\n1\n255\n" + bytes(6))
    img = pnm.read_ppm(path)
    assert (img.width, img.height) == (2, 1)


def test_truncated_raster_rejected(tmp_path):
    path = tmp_path / "short.ppm"
    path.write_bytes(b"P6\n4 4\n255\n" + bytes(10))
    with pytest.raises(ValueError):
        pnm.read_ppm(path)


def test_wrong_magic_rejected(tmp_path):
    path = tmp_path / "bad.ppm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes(4))
    with pytest.raises(ValueError):
        pnm.read_ppm(path)
