"""Malformed inputs through ``cli.main`` end only in documented outcomes.

Profiles, netpbm headers and frame directories are mutated at random. Each
``track`` run must exit 0, 4 or 5 with its documented stderr prefix, print
only strict JSON records with a documented status, and raise nothing.
Scene specs of the right JSON kinds at any magnitude, and specs drawn
inside the scene domain, make ``simulate`` exit 0 or 5, and raise nothing,
not even a numpy ``RuntimeWarning``.
"""

import contextlib
import copy
import io
import itertools
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tangible_tracker import errors, simulator
from tangible_tracker.cli import main

STATUSES = {"ok", "IOError", "BadFrame"} | {
    cls.name for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, errors.PipelineError)
    and cls is not errors.PipelineError}

PREFIXES = {4: "IOError:", 5: ("BadProfile:", "Validation:")}


def _reject_constant(token):
    raise ValueError(f"non-JSON token {token}")


def run_track(calib, frames):
    """(exit code, records) of one in-process ``track`` run, with the
    checks every outcome must pass."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["track", "--calib", str(calib), "--frames", str(frames)])
    assert rc in (0, 4, 5)
    assert "Traceback" not in err.getvalue()
    if rc:
        assert err.getvalue().startswith(PREFIXES[rc])
    records = [json.loads(line, parse_constant=_reject_constant)
               for line in out.getvalue().splitlines()]
    assert [r["seq"] for r in records] == list(range(len(records)))
    assert {r["status"] for r in records} <= STATUSES
    return rc, records


def link(sequence_dir, name, frames):
    """Symlink a session frame file into ``frames``: removing a fresh copy
    of a frame-sized file can cost tens of ms."""
    os.symlink(sequence_dir / name, frames / name)


def link_pair(sequence_dir, index, frames):
    for name in (f"rgb_{index:04d}.ppm", f"depth_{index:04d}.pgm"):
        link(sequence_dir, name, frames)


# ------------------------------------------------------------------- profiles

VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2 ** 70, 2 ** 70), st.just(10 ** 400),
    st.floats(), st.text(max_size=3),
    st.lists(st.floats(-10, 10), max_size=10),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))

# (operation, inside hue_bounds, which key or list item, new value)
MUTATIONS = st.tuples(st.sampled_from(["drop", "add", "set", "nest", "item"]),
                      st.booleans(), st.integers(0, 9), VALUES)


def mutate(doc, op, nested, pick, value):
    target = doc["hue_bounds"] if nested and type(doc.get("hue_bounds")) is dict else doc
    if not target:
        target["extra"] = value
        return
    key = sorted(target)[pick % len(target)]
    if op == "drop":
        del target[key]
    elif op == "add":
        target[f"extra_{pick}"] = value
    elif op == "set":
        target[key] = value
    elif op == "nest":
        target[key] = [target[key]]
    elif type(target[key]) is list and target[key]:
        target[key][pick % len(target[key])] = value
    else:
        target[key] = value


def test_mutated_profiles_exit_5_or_track(sequence_dir, sequence_profile_path):
    valid = json.loads(sequence_profile_path.read_text())
    with tempfile.TemporaryDirectory() as tmp:
        frames = Path(tmp) / "frames"
        frames.mkdir()
        link_pair(sequence_dir, 0, frames)
        names = itertools.count()

        @settings(max_examples=150, deadline=None)
        @given(st.lists(MUTATIONS, min_size=1, max_size=3))
        # a depth_to_rgb shear that maps box pixels beyond int64
        @example([("item", False, 1, 3.2137184797403404e16)])
        # finite scales whose depth or virtual x, y overflow as they are applied
        @example([("set", False, 4, 1e308)])  # raw_to_mm
        @example([("item", False, 6, 1e308)])  # t_rv's h31
        def check(mutations):
            doc = copy.deepcopy(valid)
            for mutation in mutations:
                mutate(doc, *mutation)
            # a new file each time: truncating a written file can cost
            # tens of ms
            calib = Path(tmp) / f"profile_{next(names)}.json"
            calib.write_text(json.dumps(doc))  # NaN and Infinity tokens included
            rc, records = run_track(calib, frames)
            assert rc in (0, 5)
            if rc == 0:
                assert len(records) == 1

        check()


# -------------------------------------------------------------- netpbm headers

DIGITS_5000 = "9" * 5000


@st.composite
def netpbm_files(draw):
    magic = draw(st.sampled_from(["P6", "P5", "P3", "P7", "", "6P"]))
    width = draw(st.one_of(st.integers(0, 12).map(str),
                           st.sampled_from(["0", "-1", "4a", DIGITS_5000])))
    height = draw(st.integers(0, 12).map(str))
    maxval = draw(st.sampled_from([0, 1, 255, 256, 65535, 65536]))
    comment = draw(st.sampled_from(["", "# note\n"]))
    cut = draw(st.integers(0, 3))
    return magic, width, height, maxval, comment, cut


def small_size(width, height):
    """(width, height) when both are small numbers, else None."""
    return (int(width), int(height)) if width.isdigit() and len(width) < 3 else None


def netpbm_bytes(magic, width, height, maxval, comment, cut):
    """The header as given, then a zero raster ``cut`` bytes short of the
    size the header declares (empty when the size is not small)."""
    header = f"{magic}\n{comment}{width} {height}\n{maxval}\n".encode()
    size = small_size(width, height)
    n = 0
    if size:
        n = size[0] * size[1] * (3 if magic == "P6" else 1) * (2 if maxval > 255 else 1)
    return header + bytes(max(n - cut, 0))


@settings(max_examples=120, deadline=None)
@given(netpbm_files(), st.sampled_from(["rgb", "depth"]))
@example(("P6", "0", "4", 255, "", 0), "rgb")
@example(("P5", "4", "0", 65535, "", 0), "depth")
@example(("P6", DIGITS_5000, "4", 255, "", 0), "rgb")
@example(("P5", DIGITS_5000, "4", 65535, "# note\n", 0), "depth")
@example(("P6", "4", "4", 0, "", 0), "rgb")
@example(("P5", "4", "4", 0, "", 0), "depth")
def test_netpbm_headers_are_bad_frames_or_track(sequence_dir, sequence_profile_path,
                                                spec, target):
    with tempfile.TemporaryDirectory() as tmp:
        frames = Path(tmp)
        link_pair(sequence_dir, 1, frames)
        names = ["rgb_0000.ppm", "depth_0000.pgm"]
        fuzzed, partner = names if target == "rgb" else names[::-1]
        (frames / fuzzed).write_bytes(netpbm_bytes(*spec))
        size = small_size(*spec[1:3])
        if size:  # the other file of the pair is valid at the declared size
            w, h = size
            valid = {"rgb_0000.ppm": b"P6\n%d %d\n255\n" % size + bytes(3 * w * h),
                     "depth_0000.pgm": b"P5\n%d %d\n65535\n" % size + bytes(2 * w * h)}
            (frames / partner).write_bytes(valid[partner])
        else:
            link(sequence_dir, partner, frames)
        rc, records = run_track(sequence_profile_path, frames)
    if rc == 0:
        assert [r["status"] for r in records] == ["BadFrame", "ok"]
    else:
        # frame 0 read as a small image: its size puts the principal point
        # outside the frame
        assert rc == 5 and records == []


# ---------------------------------------------------------- frame directories

# the record each frame-slot state yields
FRAME_STATES = {"pair": "ok", "no_depth": "IOError", "rgb_dir": "IOError",
                "depth_dir": "IOError", "absent": None}


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(sorted(FRAME_STATES)), min_size=1, max_size=3),
       st.sampled_from(["dir", "missing", "file"]))
@example(["absent"], "dir")
@example(["no_depth", "pair"], "dir")
@example(["rgb_dir", "depth_dir"], "dir")
def test_frame_directories_map_to_statuses(sequence_dir, sequence_profile_path,
                                           states, kind):
    with tempfile.TemporaryDirectory() as tmp:
        frames = Path(tmp) / "frames"
        if kind == "file":
            frames.write_bytes(b"")
        elif kind == "dir":
            frames.mkdir()
            for i, state in enumerate(states):
                rgb, depth = frames / f"rgb_{i:04d}.ppm", frames / f"depth_{i:04d}.pgm"
                if state in ("pair", "no_depth", "depth_dir"):
                    link(sequence_dir, rgb.name, frames)
                if state in ("pair", "rgb_dir"):
                    link(sequence_dir, depth.name, frames)
                if state == "rgb_dir":
                    os.mkdir(rgb)
                if state == "depth_dir":
                    os.mkdir(depth)
        rc, records = run_track(sequence_profile_path, frames)
    expected = [FRAME_STATES[s] for s in states if FRAME_STATES[s]]
    if kind != "dir":
        assert (rc, records) == (4, [])
    elif not expected:
        assert (rc, records) == (5, [])
    else:
        assert rc == 0
        assert [r["status"] for r in records] == expected


# ----------------------------------------------------------------- scene specs

def kind_values(kind, length):
    """JSON values of a scene field's kind and length, at any magnitude."""
    numbers = st.integers(-2 ** 70, 2 ** 70)
    if kind == "number":
        numbers |= st.floats(allow_nan=False)
    if length == "scalar":
        return numbers
    return st.lists(numbers, min_size=length, max_size=length)


SCENE_VALUES = {name: kind_values(kind, length)
                for name, (kind, length, _, _) in simulator.SCENE_FIELDS.items()
                if name not in ("width", "height")}


# every spec is 32x32, so that a value let through renders at most that
# frame; without a trajectory the default circle's one point is drawn
@settings(max_examples=200, deadline=None)
@given(st.fixed_dictionaries({}, optional=SCENE_VALUES),
       st.none() | kind_values("number", 3).map(lambda point: [point]))
@example({"raw_to_mm": 1e-38}, None)  # a plane depth beyond any integer numpy holds
@example({"marker_size_mm": [1e308, 1e308]}, None)  # corners beyond float range
@example({"marker_size_mm": [1e200, 1e200]}, None)  # convexity products beyond it
@example({"marker_to_image": [0, 0, 1, 0, 1.5e41, 0, 2.2e156, 0, 9.9e173]}, None)  # w * w
@example({"ball_plane_mm": [-1e200, 0], "ball_radius_mm": 1e200}, None)  # disc squares
@example({"marker_to_image": [0, 0, 1, 1, 0, 0, 0, 1, 76]}, None)  # t_rv with h33 = 0
@example({"marker_to_image": [0, 0, 1, 0, 1.1125369292536007e-308, 21172647, -112,
                               1914666122873048.0, 1]}, None)  # its inverse beyond float range
@example({"marker_to_image": [0, 0, 1, 0, 1, 1355049407, 1, 1386304027877517.0, 0]},
         None)  # centre
@example({"rho_z": 1e308}, None)  # a virtual z beyond float range
@example({"rho_z": 1e307}, [[0, 0, 0]])  # beyond it only for the replaced ball
@example({"marker_size_mm": [1e-5, 1e-5]}, [[1e304, 0, 120]])  # a point's virtual x
# what a check of the marker map itself could warn of: dividing by m33 and
# bounding the entries by it, numpy's det of subnormal entries, and a
# reciprocal of w = 0
@example({"marker_to_image": [0, 0, 0, 0, 0, 0, 0, 1, 5e-324]}, None)
@example({"marker_to_image": [0, 0, 0, 0, 0, 0, 0, 0, 1.797693134862316e302]}, None)
@example({"marker_to_image": [0, 1, 0, 5e-324, 0, 0, 0, 0, 1]}, None)
@example({"marker_to_image": [0, 0, 1, 0, 1, 0, 1, 0, 1]}, None)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_well_kinded_specs_simulate_or_exit_5(doc, trajectory):
    simulate_or_exit_5(doc, trajectory)


def simulate_or_exit_5(doc, trajectory):
    """Run ``simulate`` on a 32x32 ``doc`` and an optional trajectory: it
    writes strict-JSON truth, or exits 5 with ``Validation:`` on stderr and
    writes no directory."""
    with tempfile.TemporaryDirectory() as tmp:
        spec = Path(tmp) / "spec.json"
        spec.write_text(json.dumps({"width": 32, "height": 32, **doc}))
        argv = ["simulate", "--out", str(Path(tmp) / "seq"), "--frames", "1",
                "--spec", str(spec)]
        if trajectory is not None:
            path = Path(tmp) / "trajectory.json"
            path.write_text(json.dumps(trajectory))
            argv += ["--trajectory", str(path)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
        if rc == 0:  # the truth holds strict JSON only
            truth = (Path(tmp) / "seq" / simulator.TRUTH_NAME).read_text()
            json.loads(truth, parse_constant=_reject_constant)
        else:
            assert not (Path(tmp) / "seq").exists()
    assert rc == 0 or (rc == 5 and err.getvalue().startswith("Validation:")), err.getvalue()


def domain_values(kind, length, lo, hi):
    """JSON values of a scene field's kind and length inside its bounds."""
    numbers = st.floats(lo, hi) if kind == "number" else st.integers(lo, min(hi, 2 ** 70))
    if length == "scalar":
        return numbers
    return st.lists(numbers, min_size=length, max_size=length)


IN_DOMAIN_VALUES = {name: domain_values(*row) for name, row in simulator.SCENE_FIELDS.items()
                    if row[2] is not None and name not in ("width", "height")}
IN_DOMAIN_VALUES["principal_point"] = st.lists(st.floats(0, 31), min_size=2, max_size=2)
# the default 32x32 map, 2 px/mm centred, with each affine entry moved by
# up to 0.5 and perspective terms up to 1e-3
IN_DOMAIN_VALUES["marker_to_image"] = st.builds(
    lambda d, p: [2 + d[0], d[1], 15.5 + d[2], d[3], 2 + d[4], 15.5 + d[5], *p, 1],
    st.lists(st.floats(-0.5, 0.5), min_size=6, max_size=6),
    st.lists(st.floats(-1e-3, 1e-3), min_size=2, max_size=2))


# the fields inside their rows, so a refusal comes from a rule across
# fields, and a render from anywhere in the domain
@settings(max_examples=200, deadline=None)
@given(st.fixed_dictionaries({}, optional=IN_DOMAIN_VALUES),
       st.none() | st.tuples(st.floats(-1e4, 1e4), st.floats(-1e4, 1e4),
                             st.floats(0, 1e4)).map(lambda point: [list(point)]))
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_specs_inside_the_domain_simulate_or_exit_5(doc, trajectory):
    simulate_or_exit_5(doc, trajectory)
