import mmap
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tangible_tracker import pnm
from tangible_tracker.imaging import DEPTH_SAMPLE, DepthImage, RgbImage


def test_ppm_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    img = RgbImage(rng.integers(0, 256, size=(17, 23, 3), dtype=np.uint8))
    path = tmp_path / "img.ppm"
    pnm.write_ppm(path, img)
    back = pnm.read_ppm(path)
    assert (back.pixels == img.pixels).all()


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


@pytest.mark.parametrize("maxval", [1, 255, 256, 65534])
def test_depth_maxval_other_than_65535_rejected(tmp_path, maxval):
    path = tmp_path / "depth.pgm"
    sample = 2 if maxval > 255 else 1
    path.write_bytes(b"P5\n2 2\n%d\n" % maxval + bytes(4 * sample))
    with pytest.raises(ValueError, match="maxval"):
        pnm.read_depth(path)


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


def open_fd_count() -> int:
    """The number of file descriptors this process has open."""
    return len(os.listdir("/proc/self/fd" if os.path.isdir("/proc/self/fd") else "/dev/fd"))


@pytest.mark.parametrize("data", [b"P6\n4 4\n255\n" + bytes(10),  # short raster
                                  b"P6\n4 4\n65535\n" + bytes(96),  # wrong maxval
                                  b"P6\n4 4",  # truncated header
                                  b"P5\n4 4\n255\n" + bytes(16)],  # wrong magic
                         ids=["short", "maxval", "header", "magic"])
def test_rejected_file_is_unmapped_at_once(tmp_path, data):
    # the exception holds the reader's frame, but no mapping or descriptor
    path = tmp_path / "bad.ppm"
    path.write_bytes(data)
    before = open_fd_count()
    with pytest.raises(ValueError) as info:
        pnm.read_ppm(path)
    assert info.value.__traceback__ is not None
    assert open_fd_count() == before


def test_wrong_magic_rejected(tmp_path):
    path = tmp_path / "bad.ppm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes(4))
    with pytest.raises(ValueError):
        pnm.read_ppm(path)


def _write_gradient(reader, path):
    """Write a small gradient image of reader's format to path; return it."""
    values = np.arange(12 * 7 * 3, dtype=np.uint16).reshape(7, 12, 3)
    if reader is pnm.read_ppm:
        img = RgbImage((values % 256).astype(np.uint8))
        pnm.write_ppm(path, img)
    else:
        img = DepthImage(values[..., 0] * 771)
        pnm.write_depth(path, img)
    return img


def _innermost_base(array):
    """The object under array's chain of views and buffers."""
    base = array
    while isinstance(base, (np.ndarray, memoryview)):
        base = base.base if isinstance(base, np.ndarray) else base.obj
    return base


@pytest.mark.parametrize("reader", [pnm.read_ppm, pnm.read_depth],
                         ids=["read_ppm", "read_depth"])
def test_readers_view_the_mapped_file(tmp_path, reader):
    path = tmp_path / "img.pnm"
    img = _write_gradient(reader, path)
    pixels = reader(path).pixels
    assert pixels.dtype == (np.dtype(np.uint8) if reader is pnm.read_ppm else DEPTH_SAMPLE)
    assert DEPTH_SAMPLE == np.dtype(">u2")
    assert not pixels.flags.writeable
    assert (pixels == img.pixels).all()
    # the raster is a view of the mapped file: no frame-sized copy was made
    base = _innermost_base(pixels)
    assert isinstance(base, mmap.mmap) and base[:] == path.read_bytes()


@pytest.mark.parametrize("reader", [pnm.read_ppm, pnm.read_depth],
                         ids=["read_ppm", "read_depth"])
@pytest.mark.parametrize("change", ["unlink", "os.replace", "rewrite"])
def test_image_keeps_its_bytes_when_the_file_goes(tmp_path, reader, change):
    path = tmp_path / "img.pnm"
    img = _write_gradient(reader, path)
    raw = path.read_bytes()
    read = reader(path)
    if change == "unlink":
        path.unlink()
    elif change == "os.replace":
        other = tmp_path / "other.pnm"
        other.write_bytes(raw[:20])
        os.replace(other, path)
    else:
        # the package's own writer replaces the file, never truncates it
        # (a truncated mapping would end this process with SIGBUS)
        inode = path.stat().st_ino
        blank = type(img)(np.zeros((1, 1) + img.pixels.shape[2:], dtype=img.pixels.dtype))
        (pnm.write_ppm if reader is pnm.read_ppm else pnm.write_depth)(path, blank)
        assert path.stat().st_ino != inode
        assert (reader(path).pixels == 0).all()
    assert (read.pixels == img.pixels).all()
    assert _innermost_base(read.pixels)[:] == raw
    assert sorted(p.name for p in tmp_path.iterdir()) == ([] if change == "unlink"
                                                         else ["img.pnm"])


def test_failed_write_leaves_the_old_file_and_no_temporary(tmp_path, monkeypatch):
    path = tmp_path / "img.ppm"
    _write_gradient(pnm.read_ppm, path)
    raw = path.read_bytes()

    def refuse(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(pnm.os, "replace", refuse)
    with pytest.raises(OSError, match="No space"):
        pnm.write_ppm(path, RgbImage(np.zeros((2, 2, 3), dtype=np.uint8)))
    assert path.read_bytes() == raw
    assert [p.name for p in tmp_path.iterdir()] == ["img.ppm"]


def loop_parse_header(data, magic):
    """``pnm._parse_header`` as it stood before its one regex: the byte
    loop, frozen as the reference. Returns (width, height, maxval, raster
    offset) or raises ValueError."""
    if not data.startswith(magic):
        raise ValueError("magic")
    pos = len(magic)
    fields = []
    while len(fields) < 3:
        if pos >= len(data):
            raise ValueError("truncated")
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
            raise ValueError("malformed")
    if pos >= len(data) or not data[pos:pos + 1].isspace():
        raise ValueError("malformed")
    return (*fields, pos + 1)


# pieces of headers: every whitespace byte, comments with and without their
# newline, numbers of any length, stray bytes
HEADER_PIECES = st.one_of(
    st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c", b"#", b"# c\n",
                     b"#\n", b"x", b"-", b"+", b"\x00", b"\xff", b"\x85", b"\xa0"]),
    st.integers(0, 99999).map(lambda v: b"%d" % v),
    st.binary(max_size=3))


@settings(max_examples=1000, deadline=None)
@given(st.sampled_from([b"P6", b"P5"]), st.lists(HEADER_PIECES, max_size=12))
@example(b"P6", [b" 640\n"])  # one number is never split into three fields
@example(b"P6", [b"640 480 255\n"])  # no whitespace after the magic
@example(b"P5", [b"\n2#c\n1\n65535\n\x00"])
@example(b"P6", [b" 2 1 255#c\n"])  # a comment cannot end the header
def test_header_pattern_parses_as_the_byte_loop(magic, pieces):
    data = magic + b"".join(pieces)
    try:
        want = loop_parse_header(data, magic)
    except ValueError:
        with pytest.raises(ValueError):
            pnm._parse_header(data, magic, "f")
    else:
        assert pnm._parse_header(data, magic, "f") == want
