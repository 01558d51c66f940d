import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tangible_tracker.corner_detection import (
    CMinMaxParams,
    CornerSet,
    _clusters,
    _extreme_indices,
    cminmax_corners,
    harris_corners,
    mask_centroid,
)
from tangible_tracker.errors import DegenerateMaskError, EmptyMaskError
from tangible_tracker.imaging import BinaryMask
from tangible_tracker.simulator import fill_convex_polygon, random_quadrangle_scene


def regular_polygon(n, center=(320.0, 240.0), radius=150.0, phi=0.0):
    return np.array([
        [center[0] + radius * math.cos(phi + 2 * math.pi * k / n),
         center[1] + radius * math.sin(phi + 2 * math.pi * k / n)]
        for k in range(n)
    ])


def match_errors(detected, truth):
    """Worst distance in either direction between two corner sets."""
    fwd = [min(np.hypot(dx - tx, dy - ty) for tx, ty in truth)
           for dx, dy in detected]
    back = [min(np.hypot(dx - tx, dy - ty) for dx, dy in detected)
            for tx, ty in truth]
    return max(fwd + back)


# --------------------------------------------------------- extreme_candidates

def extremes_oracle(points):
    """Exhaustive scan over the point list, independent of the array path."""
    pts = [(float(x), float(y)) for x, y in points]
    out = []
    for key, other in ((0, 1), (1, 0)):
        for pick in (min, max):
            val = pick(p[key] for p in pts)
            run = [p for p in pts if p[key] == val]
            out.append(min(run, key=lambda p: p[other]))
            out.append(max(run, key=lambda p: p[other]))
    return out


def extreme_candidates(points):
    """The points ``_extreme_indices`` picks, in its order."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    return [(float(pts[i, 0]), float(pts[i, 1]))
            for i in _extreme_indices(pts[:, 0], pts[:, 1])]


def test_extreme_candidates_generic_quadrangle():
    pts = [(10.0, 5.0), (100.0, 17.0), (80.0, 90.0), (3.0, 60.0),
           (50.0, 40.0), (60.0, 44.0)]
    got = extreme_candidates(pts)
    assert got == extremes_oracle(pts)
    distinct = set(got)
    assert distinct == {(10.0, 5.0), (100.0, 17.0), (80.0, 90.0), (3.0, 60.0)}


def test_extreme_candidates_axis_aligned_square():
    square = [(x, y) for x in range(10, 21) for y in range(30, 41)]
    got = set(extreme_candidates(square))
    assert got == {(10.0, 30.0), (10.0, 40.0), (20.0, 30.0), (20.0, 40.0)}


def test_extreme_candidates_single_point():
    assert extreme_candidates([(7.0, 9.0)]) == [(7.0, 9.0)] * 8


def test_extreme_candidates_empty():
    with pytest.raises(ValueError):
        _extreme_indices(np.empty(0), np.empty(0))


# ------------------------------------------------------------ cminmax_corners

def test_hexagon_all_corners_within_1_5_px():
    verts = regular_polygon(6, phi=math.radians(10))
    mask = fill_convex_polygon(640, 480, verts)
    result = cminmax_corners(mask, CMinMaxParams(n=6))
    assert len(result.corners) == 6
    assert not result.fallback_used
    assert match_errors(result.corners, verts) <= 1.5


def test_rotated_square():
    verts = regular_polygon(4, radius=120.0, phi=math.radians(30))
    mask = fill_convex_polygon(640, 480, verts)
    result = cminmax_corners(mask, CMinMaxParams(n=4))
    assert len(result.corners) == 4
    assert match_errors(result.corners, verts) <= 1.5


def test_translation_equivariance_is_exact():
    rng = np.random.default_rng(0)
    mask, _ = random_quadrangle_scene(320, 240, rng)
    base = cminmax_corners(mask, CMinMaxParams(n=4))
    shifted_bits = np.zeros((300, 400), dtype=bool)
    shifted_bits[17:17 + 240, 23:23 + 320] = mask.bits
    shifted = cminmax_corners(BinaryMask(shifted_bits), CMinMaxParams(n=4))
    assert len(base.corners) == len(shifted.corners)
    for (ax, ay), (bx, by) in zip(base.corners, shifted.corners):
        assert bx == ax + 23 and by == ay + 17


def test_rotation_equivariance():
    verts = regular_polygon(4, radius=130.0, phi=math.radians(5))
    base = cminmax_corners(fill_convex_polygon(640, 480, verts),
                           CMinMaxParams(n=4))
    phi = math.radians(25.0)
    center = verts.mean(axis=0)
    rot = (verts - center) @ np.array([[math.cos(phi), math.sin(phi)],
                                       [-math.sin(phi), math.cos(phi)]]) + center
    rotated = cminmax_corners(fill_convex_polygon(640, 480, rot),
                              CMinMaxParams(n=4))
    expected = (np.array(base.corners) - center) @ np.array(
        [[math.cos(phi), math.sin(phi)], [-math.sin(phi), math.cos(phi)]]) + center
    assert match_errors(rotated.corners, expected) <= 1.5


def test_corners_lie_near_convex_hull():
    from scipy.spatial import ConvexHull
    rng = np.random.default_rng(1)
    for _ in range(5):
        mask, _ = random_quadrangle_scene(640, 480, rng)
        result = cminmax_corners(mask, CMinMaxParams(n=4))
        ys, xs = np.nonzero(mask.bits)
        hull = ConvexHull(np.column_stack([xs, ys]))
        eqs = hull.equations  # outward normals: n.x + d <= 0 inside
        eps = max(3.0, 0.01 * math.hypot(xs.max() - xs.min(), ys.max() - ys.min()))
        for cx, cy in result.corners:
            signed = eqs[:, 0] * cx + eqs[:, 1] * cy + eqs[:, 2]
            assert signed.max() <= eps


def test_random_convex_polygons_recover_vertex_count():
    rng = np.random.default_rng(2)
    for n in range(3, 9):
        found = 0
        for _ in range(8):
            while True:
                radius = rng.uniform(90, 170)
                jitter = rng.uniform(-0.25, 0.25, size=n)
                angles = np.sort(2 * math.pi * (np.arange(n) + jitter) / n)
                verts = np.array([
                    [320 + radius * math.cos(a), 240 + radius * math.sin(a)]
                    for a in angles])
                interior = []
                for i in range(n):
                    prev = verts[(i - 1) % n] - verts[i]
                    nxt = verts[(i + 1) % n] - verts[i]
                    cos_a = prev @ nxt / (np.hypot(*prev) * np.hypot(*nxt))
                    interior.append(math.degrees(math.acos(np.clip(cos_a, -1, 1))))
                edges = [np.hypot(*(verts[(i + 1) % n] - verts[i])) for i in range(n)]
                if min(interior) > 30 and max(interior) < 150 and min(edges) > 25:
                    break
            mask = fill_convex_polygon(640, 480, verts)
            result = cminmax_corners(mask, CMinMaxParams(n=n))
            if len(result.corners) == n:
                found += 1
        assert found == 8, f"n={n}: only {found}/8 runs found n corners"


# cminmax_corners as it stood before its unused epsilon parameter and its
# theta == 0 branch were deleted, frozen with its helpers as the reference
# that any faster cminmax must reproduce exactly

def oracle_extreme_indices(x, y):
    out = []
    for primary, secondary in ((x, y), (y, x)):
        for val in (primary.min(), primary.max()):
            run = np.flatnonzero(primary == val)
            sec = secondary[run]
            out.append(int(run[np.argmin(sec)]))
            out.append(int(run[np.argmax(sec)]))
    return out


def oracle_clusters(candidates, eps):
    m = len(candidates)
    parent = list(range(m))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    d2 = ((candidates[:, None, :] - candidates[None, :, :]) ** 2).sum(axis=2)
    eps2 = eps * eps
    for i in range(m):
        for j in range(i + 1, m):
            if d2[i, j] <= eps2:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
    groups = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(i)
    return [(candidates[groups[r]].mean(axis=0), len(groups[r]))
            for r in sorted(groups, key=lambda r: min(groups[r]))]


@st.composite
def candidate_sets(draw):
    """Up to 16 candidates, with pair distances at, just inside and just
    outside eps as well as clearly apart."""
    eps = draw(st.sampled_from([3.0, 3.7, 5.25]))
    steps = st.sampled_from([0.0, eps, eps * (1 - 1e-9), eps * (1 + 1e-9),
                             eps / 2, 2 * eps, 10 * eps])
    points = [draw(st.tuples(st.floats(0, 300), st.floats(0, 300)))]
    for _ in range(draw(st.integers(0, 15))):
        x, y = points[draw(st.integers(0, len(points) - 1))]
        angle = draw(st.sampled_from([0.0, 0.5 * math.pi, 0.3, 2.1]))
        step = draw(steps)
        points.append((x + step * math.cos(angle), y + step * math.sin(angle)))
    return np.array(points), eps


@settings(max_examples=300, deadline=None)
@given(candidate_sets())
def test_clusters_match_the_frozen_union_find(case):
    candidates, eps = case
    got = _clusters(candidates, eps)
    want = oracle_clusters(candidates, eps)
    assert [(c.tolist(), n) for c, n in got] == [(c.tolist(), n) for c, n in want]


def cminmax_oracle(mask, n):
    ys, xs = np.nonzero(mask.bits)
    if xs.size < n:
        raise DegenerateMaskError("too few set pixels")
    ox = int(xs.min())
    oy = int(ys.min())
    xf = (xs - ox).astype(np.float64)
    yf = (ys - oy).astype(np.float64)
    dx = xf - xf.mean()
    dy = yf - yf.mean()
    cov = np.array([[dx @ dx, dx @ dy], [dx @ dy, dy @ dy]])
    _, evecs = np.linalg.eigh(cov)
    if np.abs(dx * evecs[0, 0] + dy * evecs[1, 0]).max() < 1.0:
        raise DegenerateMaskError("collinear")
    eps = max(3.0, 0.01 * math.hypot(float(xf.max()), float(yf.max())))
    n_passes = n // 2

    def run_attempt(offset):
        picked = []
        for k in range(n_passes):
            theta = k * math.pi / n + offset
            if theta == 0.0:
                picked.extend(oracle_extreme_indices(xf, yf))
            else:
                c, s = math.cos(theta), math.sin(theta)
                picked.extend(oracle_extreme_indices(c * dx - s * dy, s * dx + c * dy))
        return oracle_clusters(np.column_stack([xf[picked], yf[picked]]), eps)

    chosen = run_attempt(0.0)
    fallback = len(chosen) < n
    if fallback:
        retry = run_attempt(-math.pi / (2 * n))
        if len(retry) > len(chosen):
            chosen = retry
    if len(chosen) > n:
        keep = sorted(sorted(range(len(chosen)),
                             key=lambda i: (-chosen[i][1], i))[:n])
        chosen = [chosen[i] for i in keep]
    corners = tuple((float(cx) + ox, float(cy) + oy) for (cx, cy), _ in chosen)
    return CornerSet(corners, fallback)


def assert_matches_oracle(mask, n):
    try:
        expected = cminmax_oracle(mask, n)
    except DegenerateMaskError:
        with pytest.raises(DegenerateMaskError):
            cminmax_corners(mask, CMinMaxParams(n=n))
        return
    assert cminmax_corners(mask, CMinMaxParams(n=n)) == expected


def test_oracle_on_acceptance_corpus_and_hexagon():
    rng = np.random.default_rng(42)  # the acceptance-1 quadrangles
    for _ in range(100):
        mask, _ = random_quadrangle_scene(640, 480, rng)
        assert_matches_oracle(mask, 4)
    hexagon = fill_convex_polygon(640, 480, regular_polygon(6, phi=math.radians(10)))
    assert_matches_oracle(hexagon, 6)


@settings(max_examples=300, deadline=None)
@given(angles=st.lists(st.floats(0.0, 2 * math.pi), min_size=3, max_size=8, unique=True),
       cx=st.floats(40.0, 120.0), cy=st.floats(30.0, 90.0),
       rx=st.floats(4.0, 70.0), ry=st.floats(4.0, 70.0), phi=st.floats(0.0, math.pi),
       requested=st.integers(3, 8))
def test_oracle_on_convex_polygons(angles, cx, cy, rx, ry, phi, requested):
    """Vertices on a rotated ellipse, in angle order, form a convex polygon;
    it may be clipped by the frame. Asked for its own vertex count and for
    a hypothesis-chosen n in 3..8."""
    t = np.sort(np.array(angles))
    ex, ey = rx * np.cos(t), ry * np.sin(t)
    verts = np.column_stack([cx + ex * math.cos(phi) - ey * math.sin(phi),
                             cy + ex * math.sin(phi) + ey * math.cos(phi)])
    mask = fill_convex_polygon(160, 120, verts)
    for n in {len(angles), requested}:
        assert_matches_oracle(mask, n)


def test_degenerate_masks_rejected():
    with pytest.raises(DegenerateMaskError):
        cminmax_corners(BinaryMask(np.zeros((10, 10), dtype=bool)), CMinMaxParams())
    line = np.zeros((30, 30), dtype=bool)
    line[15, 4:26] = True
    with pytest.raises(DegenerateMaskError):
        cminmax_corners(BinaryMask(line), CMinMaxParams(n=4))


def test_cluster_count_capped_at_n():
    verts = regular_polygon(8, radius=140.0, phi=math.radians(7))
    mask = fill_convex_polygon(640, 480, verts)
    result = cminmax_corners(mask, CMinMaxParams(n=4))
    assert len(result.corners) <= 4


# --------------------------------------------------------------- mask_centroid

def test_centroid_rectangle():
    bits = np.zeros((60, 40), dtype=bool)
    bits[30:41, 10:21] = True  # x 10..20, y 30..40 inclusive
    assert mask_centroid(BinaryMask(bits)) == (15.0, 35.0)


def test_centroid_single_pixel():
    bits = np.zeros((20, 20), dtype=bool)
    bits[9, 7] = True
    assert mask_centroid(BinaryMask(bits)) == (7.0, 9.0)


def test_centroid_matches_direct_summation():
    rng = np.random.default_rng(3)
    mask, _ = random_quadrangle_scene(320, 240, rng)
    sx = sy = count = 0
    for y in range(mask.height):
        for x in range(mask.width):
            if mask.bits[y, x]:
                sx += x
                sy += y
                count += 1
    cx, cy = mask_centroid(mask)
    assert cx == sx / count and cy == sy / count


def test_centroid_empty():
    with pytest.raises(EmptyMaskError):
        mask_centroid(BinaryMask(np.zeros((4, 4), dtype=bool)))


# -------------------------------------------------------------- harris_corners

def test_harris_uniform_image_is_empty():
    assert harris_corners(np.full((40, 40), 90, dtype=np.uint8), 4) == []


def test_harris_rejects_tiny_images():
    with pytest.raises(ValueError):
        harris_corners(np.zeros((4, 10), dtype=np.uint8), 4)


def test_harris_axis_aligned_square():
    img = np.zeros((200, 200), dtype=np.uint8)
    img[60:141, 50:131] = 255
    truth = [(50, 60), (130, 60), (50, 140), (130, 140)]
    pts = harris_corners(img, 4)
    assert len(pts) == 4
    assert match_errors(pts, truth) <= 2.0


def test_harris_recovers_marker_corners():
    rng = np.random.default_rng(4)
    for _ in range(5):
        mask, corners = random_quadrangle_scene(640, 480, rng)
        pts = harris_corners(mask.bits.astype(np.uint8) * 255, 4)
        assert len(pts) == 4
        assert match_errors(pts, corners) <= 3.0


def test_harris_strongest_first_and_capped():
    img = np.zeros((200, 200), dtype=np.uint8)
    img[60:141, 50:131] = 255
    pts = harris_corners(img, 2)
    assert len(pts) == 2
    full = harris_corners(img, 100)
    assert pts == full[:2]
