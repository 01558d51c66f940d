"""Tangible pointer tracking toolkit.

Library surface for the full desk-scale pipeline: mask extraction, color
calibration, convex-mask corner detection, projective registration,
per-frame RGB-D tracking, and the synthetic scene generator used as the
test oracle.
"""

from .color_calibration import HueBounds, calibrate_hue_bounds
from .corner_detection import (
    CMinMaxParams,
    CornerSet,
    cminmax_corners,
    harris_corners,
    mask_centroid,
)
from .errors import PipelineError
from .imaging import (
    AffineTransform,
    BinaryMask,
    DepthImage,
    RgbImage,
    abs_diff,
    largest_component,
    otsu_threshold,
    rgb_to_hsv,
    smooth_binary,
)
from .mask_extraction import MaskRequest, extract_mask
from .registration import (
    CalibrationProfile,
    VirtualMarker,
    calibrate_scene,
    estimate_homography,
    load_profile,
    order_corners,
    save_profile,
)
from .simulator import GroundTruth, SceneSpec, render_scene, render_sequence
from .tracking import (
    FramePair,
    PointerFix,
    correct_parallax,
    detect_pointer_2d,
    estimate_pointer_depth,
    track_frame,
)

__version__ = "0.1.0"

__all__ = [
    "AffineTransform",
    "BinaryMask",
    "CalibrationProfile",
    "CMinMaxParams",
    "CornerSet",
    "DepthImage",
    "FramePair",
    "GroundTruth",
    "HueBounds",
    "MaskRequest",
    "PipelineError",
    "PointerFix",
    "RgbImage",
    "SceneSpec",
    "VirtualMarker",
    "abs_diff",
    "calibrate_hue_bounds",
    "calibrate_scene",
    "cminmax_corners",
    "correct_parallax",
    "detect_pointer_2d",
    "estimate_homography",
    "estimate_pointer_depth",
    "extract_mask",
    "harris_corners",
    "largest_component",
    "load_profile",
    "mask_centroid",
    "order_corners",
    "otsu_threshold",
    "render_scene",
    "render_sequence",
    "rgb_to_hsv",
    "save_profile",
    "smooth_binary",
    "track_frame",
]
