from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import ndimage
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from tangible_tracker.errors import EmptyMaskError
from tangible_tracker.imaging import (
    DEPTH_SAMPLE,
    HUE_BINS,
    AffineTransform,
    BinaryMask,
    DepthImage,
    RgbImage,
    _components,
    abs_diff,
    largest_component,
    otsu_threshold,
    rgb_to_hsv,
    smooth_binary,
    warp_affine,
)


def solid_rgb(h, w, color):
    img = np.empty((h, w, 3), dtype=np.uint8)
    img[:, :] = color
    return RgbImage(img)


def disc_bits(h, w, cx, cy, r):
    xs = np.arange(w)[None, :]
    ys = np.arange(h)[:, None]
    return (xs - cx) ** 2 + (ys - cy) ** 2 <= r * r


# ---------------------------------------------------------------- rgb_to_hsv

def test_rgb_to_hsv_primaries():
    img = RgbImage(np.array([[[255, 0, 0], [255, 255, 0], [128, 128, 128]]]))
    hsv = rgb_to_hsv(img)
    assert hsv.dtype == np.uint8 and hsv.shape == (1, 3, 3)
    assert tuple(hsv[0, 0]) == (0, 255, 255)
    assert tuple(hsv[0, 1]) == (30, 255, 255)
    assert tuple(hsv[0, 2]) == (0, 0, 128)


def test_rgb_to_hsv_gray_convention():
    hsv = rgb_to_hsv(solid_rgb(2, 2, (7, 7, 7)))
    assert (hsv[..., 0] == 0).all()
    assert (hsv[..., 1] == 0).all()
    assert (hsv[..., 2] == 7).all()


def test_rgb_to_hsv_hue_below_180():
    rng = np.random.default_rng(0)
    img = RgbImage(rng.integers(0, 256, size=(64, 64, 3), dtype=np.uint8))
    assert rgb_to_hsv(img)[..., 0].max() < 180


def frozen_rgb_to_hsv(img):
    """rgb_to_hsv before hue wrapped by one add of 180, frozen."""
    r = img.pixels[..., 0].astype(np.int16)
    g = img.pixels[..., 1].astype(np.int16)
    b = img.pixels[..., 2].astype(np.int16)
    v = np.maximum(np.maximum(r, g), b)
    delta = v - np.minimum(np.minimum(r, g), b)
    sat = np.rint(255.0 * delta / np.maximum(v, 1)).astype(np.uint8)
    on_r = v == r
    on_g = (v == g) & ~on_r
    numer = np.where(on_r, g - b, np.where(on_g, b - r, r - g))
    base = np.where(on_r, 0.0, np.where(on_g, 60.0, 120.0))
    hue = np.rint(base + 30.0 * numer / np.maximum(delta, 1))
    hue[delta == 0] = 0.0
    hue = np.mod(hue, HUE_BINS).astype(np.uint8)
    return np.stack([hue, sat, v.astype(np.uint8)], axis=2)


def test_rgb_to_hsv_exhaustive_over_all_rgb_colors():
    # all 2^24 colors, one 256x256 (g, b) plane per red value; each color's
    # hue is also that of the color with its smallest channel lowered to 0
    # (the same r - g and g - b), the premise of the key's hue table
    g, b = np.meshgrid(np.arange(256), np.arange(256), indexing="ij")
    for r in range(256):
        img = RgbImage(np.stack([np.full_like(g, r), g, b], axis=2))
        hsv = rgb_to_hsv(img)
        assert np.array_equal(hsv, frozen_rgb_to_hsv(img)), r
        lowered = img.pixels - img.pixels.min(axis=2, keepdims=True)
        assert np.array_equal(rgb_to_hsv(RgbImage(lowered))[..., 0], hsv[..., 0]), r


def _hue_circular_diff(a, b):
    d = abs(int(a) - int(b))
    return min(d, 180 - d)


def test_hue_invariant_under_intensity_scaling():
    # scaling brightness leaves hue within one bin for saturated colors
    rng = np.random.default_rng(1)
    pixels = rng.integers(0, 256, size=(500, 3))
    pixels = pixels[pixels.max(axis=1) - pixels.min(axis=1) >= 128]
    img = RgbImage(pixels.reshape(1, -1, 3).astype(np.uint8))
    base = rgb_to_hsv(img)[0, :, 0]
    for c in (0.5, 0.7, 0.9, 1.0):
        scaled = RgbImage(np.rint(pixels * c).reshape(1, -1, 3).astype(np.uint8))
        hue = rgb_to_hsv(scaled)[0, :, 0]
        assert max(_hue_circular_diff(a, b) for a, b in zip(base, hue)) <= 1


# ------------------------------------------------------------------ abs_diff

def test_abs_diff_identity_is_zero():
    rng = np.random.default_rng(2)
    a = RgbImage(rng.integers(0, 256, size=(20, 30, 3), dtype=np.uint8))
    assert (abs_diff(a, a) == 0).all()


def test_abs_diff_black_white():
    a = solid_rgb(4, 5, (0, 0, 0))
    b = solid_rgb(4, 5, (255, 255, 255))
    assert (abs_diff(a, b) == 255).all()


def test_abs_diff_nonzero_exactly_on_pasted_disc():
    rng = np.random.default_rng(3)
    base = rng.integers(0, 200, size=(60, 80, 3), dtype=np.uint8)
    disc = disc_bits(60, 80, 40, 30, 12)
    pasted = base.copy()
    pasted[disc] = (base[disc].astype(np.int16) + 55).astype(np.uint8)
    d = abs_diff(RgbImage(base), RgbImage(pasted))
    assert ((d > 0) == disc).all()


def test_abs_diff_dimension_mismatch():
    with pytest.raises(ValueError):
        abs_diff(solid_rgb(4, 4, (0, 0, 0)), solid_rgb(4, 5, (0, 0, 0)))


def test_abs_diff_uses_channel_maximum():
    a = solid_rgb(1, 1, (10, 10, 10))
    b = solid_rgb(1, 1, (10, 90, 10))
    assert abs_diff(a, b)[0, 0] == 80


def frozen_abs_diff(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The int16 body of abs_diff before it stayed in uint8, frozen."""
    d = np.abs(a.astype(np.int16) - b.astype(np.int16))
    return d.max(axis=2).astype(np.uint8)


def test_abs_diff_matches_the_int16_body_on_every_byte_pair():
    first, second = np.meshgrid(np.arange(256, dtype=np.uint8),
                                np.arange(256, dtype=np.uint8), indexing="ij")
    zero = np.zeros_like(first)
    for c in range(3):
        # channel c alone carries all 65536 (a, b) byte pairs, then all
        # three channels carry them, shifted so that each channel wins
        alone_a, alone_b = [zero] * 3, [zero] * 3
        alone_a[c], alone_b[c] = first, second
        rolled_a = [np.roll(first, 85 * ((k - c) % 3), axis=0) for k in range(3)]
        rolled_b = [np.roll(second, 37 * ((k - c) % 3), axis=1) for k in range(3)]
        for a, b in ((alone_a, alone_b), (rolled_a, rolled_b)):
            a, b = np.stack(a, axis=2), np.stack(b, axis=2)
            got = abs_diff(RgbImage(a), RgbImage(b))
            assert got.dtype == np.uint8 and got.shape == (256, 256)
            assert (got == frozen_abs_diff(a, b)).all()


# ------------------------------------------------------------ otsu_threshold

def otsu_brute_force(counts):
    """Independent oracle: exhaustive scan with exact rational arithmetic."""
    total = sum(counts)
    best_t, best = None, Fraction(-1)
    for t in range(256):
        w0 = sum(counts[:t + 1])
        w1 = total - w0
        if w0 == 0 or w1 == 0:
            continue
        mu0 = Fraction(sum(i * c for i, c in enumerate(counts[:t + 1])), w0)
        mu1 = Fraction(sum(i * c for i, c in enumerate(counts) if i > t), w1)
        var = Fraction(w0 * w1) * (mu0 - mu1) ** 2
        if var > best:
            best, best_t = var, t
    if best_t is None:
        best_t = next(i for i, c in enumerate(counts) if c)
    return best_t


def test_otsu_two_spikes():
    hist = np.zeros(256, dtype=np.int64)
    hist[10] = 40
    hist[200] = 60
    t = otsu_threshold(hist)
    assert t == otsu_brute_force(list(hist)) == 10
    assert 10 <= t <= 199


def test_otsu_single_bin():
    hist = np.zeros(256, dtype=np.int64)
    hist[77] = 123
    assert otsu_threshold(hist) == 77


def test_otsu_empty_histogram():
    with pytest.raises(ValueError):
        otsu_threshold(np.zeros(256, dtype=np.int64))


@settings(max_examples=120, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=1000), min_size=256, max_size=256))
def test_otsu_matches_brute_force(counts):
    if sum(counts) == 0:
        counts[17] = 1
    assert otsu_threshold(np.array(counts)) == otsu_brute_force(counts)


# ------------------------------------------------------------- smooth_binary

def vote_oracle(bits):
    h, w = bits.shape
    out = np.zeros_like(bits)
    for y in range(h):
        for x in range(w):
            votes = 0
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    yy, xx = y + dy, x + dx
                    if 0 <= yy < h and 0 <= xx < w and bits[yy, xx]:
                        votes += 1
            out[y, x] = votes >= 5
    return out


def test_smooth_binary_rectangle_erodes_only_corners():
    bits = np.zeros((12, 14), dtype=bool)
    bits[3:9, 4:11] = True
    smoothed = smooth_binary(BinaryMask(bits)).bits
    assert (smoothed == vote_oracle(bits)).all()
    assert smoothed[4:8, 5:10].all()  # interior untouched
    lost = bits & ~smoothed
    assert set(map(tuple, np.argwhere(lost))) == {(3, 4), (3, 10), (8, 4), (8, 10)}


def test_smooth_binary_clears_isolated_pixel():
    bits = np.zeros((7, 7), dtype=bool)
    bits[3, 3] = True
    assert not smooth_binary(BinaryMask(bits)).bits.any()


def test_smooth_binary_fills_lone_hole():
    bits = np.ones((7, 7), dtype=bool)
    bits[3, 3] = False
    assert smooth_binary(BinaryMask(bits)).bits[3, 3]


def test_smooth_binary_matches_oracle_on_random_masks():
    rng = np.random.default_rng(4)
    for _ in range(10):
        bits = rng.random((15, 17)) < 0.5
        assert (smooth_binary(BinaryMask(bits)).bits == vote_oracle(bits)).all()


# --------------------------------------------------------- largest_component

def component_areas_oracle(bits):
    """Flood-fill areas of 8-connected components, row-major discovery."""
    h, w = bits.shape
    seen = np.zeros_like(bits)
    areas = []
    for y in range(h):
        for x in range(w):
            if bits[y, x] and not seen[y, x]:
                stack = [(y, x)]
                seen[y, x] = True
                area = 0
                while stack:
                    cy, cx = stack.pop()
                    area += 1
                    for dy in (-1, 0, 1):
                        for dx in (-1, 0, 1):
                            ny, nx = cy + dy, cx + dx
                            if 0 <= ny < h and 0 <= nx < w \
                                    and bits[ny, nx] and not seen[ny, nx]:
                                seen[ny, nx] = True
                                stack.append((ny, nx))
                areas.append(area)
    return areas


def has_holes_oracle(bits):
    """A hole is a 4-connected unset region not reaching the border."""
    h, w = bits.shape
    reach = np.zeros_like(bits)
    stack = [(y, x) for y in range(h) for x in (0, w - 1) if not bits[y, x]]
    stack += [(y, x) for x in range(w) for y in (0, h - 1) if not bits[y, x]]
    for y, x in stack:
        reach[y, x] = True
    while stack:
        cy, cx = stack.pop()
        for ny, nx in ((cy - 1, cx), (cy + 1, cx), (cy, cx - 1), (cy, cx + 1)):
            if 0 <= ny < h and 0 <= nx < w and not bits[ny, nx] and not reach[ny, nx]:
                reach[ny, nx] = True
                stack.append((ny, nx))
    return bool((~bits & ~reach).any())


def test_largest_component_keeps_big_disc():
    bits = disc_bits(60, 90, 25, 30, 10) | disc_bits(60, 90, 70, 30, 4)
    kept = largest_component(BinaryMask(bits)).bits
    assert (kept == disc_bits(60, 90, 25, 30, 10)).all()
    assert kept.sum() == max(component_areas_oracle(bits))


def test_largest_component_fills_annulus():
    ring = disc_bits(40, 40, 20, 20, 12) & ~disc_bits(40, 40, 20, 20, 6)
    filled = largest_component(BinaryMask(ring)).bits
    assert (filled == disc_bits(40, 40, 20, 20, 12)).all()


def test_largest_component_empty_mask():
    with pytest.raises(EmptyMaskError):
        largest_component(BinaryMask(np.zeros((5, 5), dtype=bool)))


def test_largest_component_tie_breaks_to_earliest_pixel():
    bits = np.zeros((10, 20), dtype=bool)
    bits[6:8, 14:16] = True  # later block first in the array order below
    bits[2:4, 3:5] = True
    kept = largest_component(BinaryMask(bits)).bits
    assert kept[2, 3] and not kept[6, 14]


def test_largest_component_idempotent_and_hole_free():
    rng = np.random.default_rng(5)
    for _ in range(20):
        bits = rng.random((25, 30)) < 0.55
        if not bits.any():
            bits[3, 3] = True
        once = largest_component(BinaryMask(bits))
        twice = largest_component(once)
        assert (once.bits == twice.bits).all()
        assert len(component_areas_oracle(once.bits)) == 1
        assert not has_holes_oracle(once.bits)


def largest_label_oracle(labels: np.ndarray) -> tuple[int, int]:
    """Label with the most pixels; area ties go to the component whose first
    set pixel comes earliest in row-major order. Returns (label, area)."""
    areas = np.bincount(labels.ravel())
    areas[0] = 0
    top = int(areas.max())
    tied = np.flatnonzero(areas == top)
    if tied.size == 1:
        return int(tied[0]), top
    flat = labels.ravel()
    first = np.flatnonzero(np.isin(flat, tied))[0]
    return int(flat[first]), top


def frozen_largest_component(bits):
    """``largest_component`` as it was with scipy's labelling."""
    labels, count = ndimage.label(bits, structure=np.ones((3, 3), dtype=bool))
    if count == 0:
        raise EmptyMaskError("mask has no set pixels")
    winner, _ = largest_label_oracle(labels)
    comp = labels == winner
    four = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
    outside, _ = ndimage.label(~comp, structure=four)
    edge = np.concatenate([outside[0], outside[-1], outside[:, 0], outside[:, -1]])
    touching = np.unique(edge[edge > 0])
    holes = (outside > 0) & ~np.isin(outside, touching)
    return comp | holes


def components_oracle(a, b, count):
    """Each node's smallest fellow member, from scipy's component labels."""
    graph = coo_matrix((np.ones(len(a)), (a, b)), shape=(count, count))
    _, labels = connected_components(graph, directed=False)
    smallest = np.full(labels.max() + 1 if count else 0, count)
    np.minimum.at(smallest, labels, np.arange(count))
    return smallest[labels]


@st.composite
def graphs(draw):
    """A node count and edges between those nodes; self-loops, duplicate
    and reversed edges, and nodes on no edge at all all occur."""
    count = draw(st.integers(0, 40))
    node = st.integers(0, max(count - 1, 0))
    edges = draw(st.lists(st.tuples(node, node), max_size=60 if count else 0))
    edges += draw(st.lists(st.sampled_from(edges), max_size=10)) if edges else []
    edges += [(b, a) for a, b in edges[::3]]
    a = np.array([a for a, _ in edges], dtype=np.int64)
    b = np.array([b for _, b in edges], dtype=np.int64)
    return a, b, count


@settings(max_examples=300, deadline=None)
@given(graphs())
@example((np.zeros(0, np.int64), np.zeros(0, np.int64), 0))
@example((np.zeros(0, np.int64), np.zeros(0, np.int64), 5))
@example((np.array([4, 3, 2, 1]), np.array([3, 2, 1, 0]), 5))  # a chain, hooked from the top
def test_components_are_scipys_with_the_smallest_node_as_root(graph):
    a, b, count = graph
    root = _components(a, b, count)
    assert root.tolist() == components_oracle(a, b, count).tolist()


def spiral_bits(n):
    """A one-pixel-wide square spiral: one long chain of short runs."""
    bits = np.zeros((n, n), dtype=bool)
    for k in range(0, n // 2, 2):
        far = n - 1 - k
        bits[k, k:far + 1] = True
        bits[k:far + 1, far] = True
        bits[far, k:far + 1] = True
        bits[k + 2:far + 1, k] = True  # open at (k + 1, k)
        bits[k + 2, k:k + 3] = True    # bridge to the next ring
    return bits


@st.composite
def component_masks(draw):
    """Noise, plus filled and outlined rectangles that may cross the border
    (holes, and unset regions that reach the border) and equal-size copies
    (area ties); 1xN and Nx1 masks come up often."""
    height = draw(st.one_of(st.just(1), st.integers(1, 24)))
    width = draw(st.one_of(st.just(1), st.integers(1, 24)))
    bits = np.zeros((height, width), dtype=bool)
    if draw(st.booleans()):
        density = draw(st.sampled_from([0.1, 0.3, 0.5, 0.7, 0.9]))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        bits |= rng.random((height, width)) < density
    for _ in range(draw(st.integers(0, 4))):
        h = draw(st.integers(1, 9))
        w = draw(st.integers(1, 9))
        outline = draw(st.booleans())
        for _ in range(draw(st.integers(1, 3))):
            y = draw(st.integers(1 - h, height - 1))
            x = draw(st.integers(1 - w, width - 1))
            rect = np.zeros((height + 2 * 9, width + 2 * 9), dtype=bool)
            rect[9 + y:9 + y + h, 9 + x:9 + x + w] = True
            if outline:
                rect[10 + y:8 + y + h, 10 + x:8 + x + w] = False
            bits ^= rect[9:9 + height, 9:9 + width]
    return bits


@settings(max_examples=400, deadline=None)
@given(component_masks())
@example(spiral_bits(61))
@example(np.zeros((1, 7), dtype=bool))
@example(np.ones((7, 1), dtype=bool))
def test_largest_component_matches_frozen_ndimage(bits):
    try:
        want = frozen_largest_component(bits)
    except EmptyMaskError:
        with pytest.raises(EmptyMaskError):
            largest_component(BinaryMask(bits))
        return
    got = largest_component(BinaryMask(bits)).bits
    assert got.dtype == bool and got.shape == bits.shape
    assert (got == want).all()


def test_largest_component_on_uniform_random_hd_mask():
    bits = np.random.default_rng(9).random((720, 1280)) < 0.5
    assert (largest_component(BinaryMask(bits)).bits
            == frozen_largest_component(bits)).all()


# --------------------------------------------------------------- warp_affine

@pytest.mark.parametrize("dtype", [np.uint16, np.int64, ">u2", "<u2"])
def test_depth_image_keeps_the_values_of_any_integer_dtype(dtype):
    values = np.array([[0, 1, 255], [256, 0x0102, 65535]])
    img = DepthImage(values.astype(dtype))
    assert img.pixels.dtype == DEPTH_SAMPLE
    assert img.pixels.tolist() == values.tolist()
    assert DepthImage(values.astype(dtype) > 255).pixels.tolist() == (values > 255).tolist()
    # values that do not fit 16 bits, and floats, are refused, not wrapped
    # or truncated
    for bad in ([[70000, 0]], [[-1, 0]], [[1.0, 2.0]], [[1.5, 2.0]]):
        with pytest.raises(ValueError):
            DepthImage(np.array(bad))


def test_rgb_image_converts_by_value_or_refuses():
    values = np.array([[[0, 128, 255]]])
    assert RgbImage(values).pixels.tolist() == values.tolist()
    assert RgbImage(values.astype(np.uint16)).pixels.dtype == np.uint8
    for bad in ([[[300, 0, 0]]], [[[-1, 0, 0]]], [[[1.0, 2.0, 3.0]]]):
        with pytest.raises(ValueError):
            RgbImage(np.array(bad))


def test_depth_image_takes_file_order_pixels_without_a_copy():
    pixels = np.frombuffer(bytes(range(24)), dtype=DEPTH_SAMPLE).reshape(3, 4)
    assert DepthImage(pixels).pixels is pixels


def test_warp_identity_is_bit_identical():
    rng = np.random.default_rng(6)
    img = DepthImage(rng.integers(0, 5000, size=(30, 40), dtype=np.uint16))
    out = warp_affine(img, AffineTransform.identity())
    assert (out.pixels == img.pixels).all()


def test_warp_integer_translation():
    rng = np.random.default_rng(7)
    img = DepthImage(rng.integers(1, 5000, size=(20, 25), dtype=np.uint16))
    t = AffineTransform(np.array([[1.0, 0.0, 3.0], [0.0, 1.0, 5.0]]))
    out = warp_affine(img, t).pixels
    assert (out[5:, 3:] == img.pixels[:-5, :-3]).all()
    assert (out[:5, :] == 0).all()
    assert (out[:, :3] == 0).all()


def test_warp_round_trip_on_common_region():
    rng = np.random.default_rng(8)
    img = DepthImage(rng.integers(1, 5000, size=(40, 50), dtype=np.uint16))
    t = AffineTransform(np.array([[1.0, 0.0, 4.0], [0.0, 1.0, -3.0]]))
    inv = AffineTransform(np.array([[1.0, 0.0, -4.0], [0.0, 1.0, 3.0]]))
    back = warp_affine(warp_affine(img, t), inv).pixels
    covered = back > 0
    assert covered.sum() > 0.6 * img.pixels.size
    assert (back[covered] == img.pixels[covered]).all()


def test_warp_rejects_singular_transform():
    with pytest.raises(ValueError):
        AffineTransform(np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0]]))


def full_warp_oracle(img: DepthImage, t: AffineTransform) -> DepthImage:
    """The full-frame nearest-neighbor warp as it was before windows, frozen."""
    inv = np.linalg.inv(t.matrix[:, :2])
    offset = t.matrix[:, 2]

    h, w = img.pixels.shape
    gx, gy = np.meshgrid(np.arange(w, dtype=np.float64),
                         np.arange(h, dtype=np.float64))
    dx = gx - offset[0]
    dy = gy - offset[1]
    sx = np.rint(inv[0, 0] * dx + inv[0, 1] * dy).astype(np.int64)
    sy = np.rint(inv[1, 0] * dx + inv[1, 1] * dy).astype(np.int64)
    ok = (sx >= 0) & (sx < w) & (sy >= 0) & (sy < h)

    out = np.zeros_like(img.pixels)
    out[ok] = img.pixels[sy[ok], sx[ok]]
    return DepthImage(out, img.raw_to_mm)


def affine(angle, scale_x, scale_y, shear, tx, ty) -> AffineTransform:
    c, s = np.cos(angle), np.sin(angle)
    linear = np.array([[c, -s], [s, c]]) @ np.array([[scale_x, shear], [0.0, scale_y]])
    return AffineTransform(np.column_stack([linear, [tx, ty]]))


@st.composite
def warp_cases(draw):
    h = draw(st.integers(1, 40))
    w = draw(st.integers(1, 40))
    x = draw(st.integers(0, w - 1))
    y = draw(st.integers(0, h - 1))
    box = (x, y, draw(st.integers(1, w - x)), draw(st.integers(1, h - y)))
    seed = draw(st.integers(0, 2**32 - 1))
    # fractional translations up to twice the frame push boxes partly or
    # wholly off the source
    reach = 2.0 * max(h, w)
    t = affine(draw(st.floats(-np.pi, np.pi)),
               draw(st.floats(0.5, 2.0)), draw(st.floats(0.5, 2.0)),
               draw(st.floats(-0.5, 0.5)),
               draw(st.floats(-reach, reach)), draw(st.floats(-reach, reach)))
    return h, w, box, seed, t


# source rasters of each memory layout: DepthImage keeps a view of pixels
# already in its sample dtype
DEPTH_LAYOUTS = {
    "c": lambda rng, h, w: rng.integers(1, 65536, size=(h, w)).astype(DEPTH_SAMPLE),
    "transposed": lambda rng, h, w: rng.integers(1, 65536, size=(w, h)).astype(DEPTH_SAMPLE).T,
    "strided": lambda rng, h, w: rng.integers(
        1, 65536, size=(2 * h, 3 * w)).astype(DEPTH_SAMPLE)[::2, ::-3],
}


@given(warp_cases(), st.sampled_from(sorted(DEPTH_LAYOUTS)))
@settings(max_examples=400, deadline=None)
def test_warp_box_is_the_crop_of_the_full_warp(case, layout):
    h, w, (x, y, bw, bh), seed, t = case
    rng = np.random.default_rng(seed)
    # no zero in the source, so a 0 in the output can only mean off-source
    img = DepthImage(DEPTH_LAYOUTS[layout](rng, h, w), 2.5)
    full = full_warp_oracle(img, t)
    out = warp_affine(img, t, (x, y, bw, bh))
    assert out.pixels.shape == (bh, bw)
    assert out.raw_to_mm == 2.5
    assert (out.pixels == full.pixels[y:y + bh, x:x + bw]).all()
    assert (warp_affine(img, t).pixels == full.pixels).all()


@given(warp_cases(), st.sampled_from([-1.0, 1.0]), st.sampled_from([-1.0, 1.0]))
@settings(max_examples=100, deadline=None)
def test_warp_box_wholly_off_the_source_is_no_data(case, sign_x, sign_y):
    h, w, box, seed, t = case
    # a shift of 1000 px dwarfs a 40 px frame under scales of 0.5..2
    shifted = t.matrix.copy()
    shifted[:, 2] += (1000.0 * sign_x, 1000.0 * sign_y)
    img = DepthImage(np.random.default_rng(seed).integers(
        1, 65536, size=(h, w), dtype=np.uint16))
    out = warp_affine(img, AffineTransform(shifted), box)
    assert out.pixels.shape == (box[3], box[2])
    assert (out.pixels == 0).all()


def test_warp_identity_box_is_the_slice():
    rng = np.random.default_rng(9)
    img = DepthImage(rng.integers(0, 5000, size=(30, 40), dtype=np.uint16), 0.5)
    out = warp_affine(img, AffineTransform.identity(), (7, 11, 13, 5))
    assert (out.pixels == img.pixels[11:16, 7:20]).all()
    assert out.raw_to_mm == 0.5
    assert np.shares_memory(out.pixels, img.pixels)  # nothing was sampled


@pytest.mark.parametrize("box", [
    (-1, 0, 5, 5), (0, -1, 5, 5), (36, 0, 5, 5), (0, 26, 5, 5),
    (0, 0, 0, 5), (0, 0, 5, 0),
])
def test_warp_box_outside_the_frame_is_rejected(box):
    img = DepthImage(np.ones((30, 40), dtype=np.uint16))
    t = AffineTransform(np.array([[1.0, 0.0, 4.0], [0.0, 1.0, 2.0]]))
    for transform in (t, AffineTransform.identity()):
        with pytest.raises(ValueError):
            warp_affine(img, transform, box)

