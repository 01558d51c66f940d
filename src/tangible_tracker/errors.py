"""Failure types shared across the pipeline.

Each carries a stable ``name`` used verbatim as the machine-readable error
identifier in CLI exit messages and per-frame stream records.
"""


class PipelineError(Exception):
    """Base class for recoverable pipeline failures."""

    name = "PipelineError"


class EmptyMaskError(PipelineError):
    """No set pixels where an object mask was required."""

    name = "EmptyMask"


class TooSmallError(PipelineError):
    """Largest changed region is below the minimum believable object area."""

    name = "TooSmall"


class LowSaturationError(PipelineError):
    """Masked object is too gray to color-key reliably."""

    name = "LowSaturation"


class DegenerateMaskError(PipelineError):
    """Mask has too few set pixels, or they are collinear; corners undefined."""

    name = "DegenerateMask"


class DegenerateError(PipelineError):
    """Point correspondences are rank deficient; no unique projective fit."""

    name = "Degenerate"


class ResidualTooHighError(PipelineError):
    """Registration fit residual exceeds the acceptance tolerance."""

    name = "ResidualTooHigh"


class NoPointerError(PipelineError):
    """No in-bounds color blob of sufficient size in the frame."""

    name = "NoPointer"


class NoDepthError(PipelineError):
    """Pointer region contains no nonzero depth returns."""

    name = "NoDepth"


class AllFilteredError(PipelineError):
    """Depth background filter removed every sample."""

    name = "AllFiltered"


class InvalidHeightError(PipelineError):
    """Recovered pointer height is outside the geometrically valid range."""

    name = "InvalidHeight"


class NonFiniteError(PipelineError):
    """The mapped fix has a non-finite depth or coordinate."""

    name = "NonFinite"
