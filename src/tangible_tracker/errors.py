"""Failure types shared across the pipeline.

Each carries a stable ``name`` used verbatim as the machine-readable error
identifier in CLI exit messages and per-frame stream records.
"""


class PipelineError(Exception):
    """Base class for recoverable pipeline failures.

    A subclass's ``name`` is its class name without the ``Error`` suffix.
    """

    name = "PipelineError"

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.name = cls.__name__.removesuffix("Error")


class EmptyMaskError(PipelineError):
    """No set pixels where an object mask was required."""


class TooSmallError(PipelineError):
    """Largest changed region is below the minimum believable object area."""


class LowSaturationError(PipelineError):
    """Masked object is too gray to color-key reliably."""


class DegenerateMaskError(PipelineError):
    """Mask has too few set pixels, or they are collinear, or a marker mask
    shows fewer than 4 corners or corners that its centroid does not lie
    inside; corners undefined."""


class DegenerateError(PipelineError):
    """Point correspondences are rank deficient; no unique projective fit."""


class ResidualTooHighError(PipelineError):
    """Registration fit residual exceeds the acceptance tolerance."""


class NoPointerError(PipelineError):
    """No in-bounds color blob of sufficient size in the frame."""


class NoDepthError(PipelineError):
    """Pointer region contains no nonzero depth returns."""


class InvalidHeightError(PipelineError):
    """Recovered pointer height is outside the geometrically valid range."""


class NonFiniteError(PipelineError):
    """The mapped fix has a non-finite depth or coordinate."""
