"""Exception types shared across the package.

Each pickles to an equal exception (type, message and attributes), so an
error raised in a study's worker process reaches the caller unchanged.
"""

import math


class BinPdfError(Exception):
    """Base class for all errors raised by this package."""


class OutOfDomainError(BinPdfError):
    """A point lies outside the grid's box domain."""

    def __init__(self, axis: int, value: float, index: int | None = None):
        self.axis = axis
        self.value = value
        self.index = index
        where = f"point {index}, " if index is not None else ""
        super().__init__(
            f"{where}coordinate {value!r} on axis {axis} is outside the domain"
        )

    def __reduce__(self):  # pickled as its constructor arguments, not its message
        return type(self), (self.axis, self.value, self.index)


class SampleOutOfDomainError(OutOfDomainError):
    """A sample passed to a fit lies outside the grid's box domain, or is not finite."""

    def __init__(self, index: int, axis: int, value: float):
        super().__init__(axis, value, index=index)
        where = "outside the grid domain" if math.isfinite(value) else "not finite"
        self.args = (f"sample row {index}: coordinate {value!r} on axis {axis} is {where}",)

    def __reduce__(self):
        return type(self), (self.index, self.axis, self.value)


class GridTooLargeError(BinPdfError):
    """A grid's node array would not fit in the machine's physical memory."""


class EmptySampleSetError(BinPdfError):
    """An operation that needs at least one sample received none."""


class NonpositiveBandwidthError(BinPdfError):
    """A kernel bandwidth must be finite and strictly positive."""


class DegenerateSupportError(BinPdfError):
    """Sample extremes coincide on an axis, so no box can be built."""

    def __init__(self, axis: int):
        self.axis = axis
        super().__init__(f"sample minimum and maximum coincide on axis {axis}")

    def __reduce__(self):
        return type(self), (self.axis,)


class NonpositiveValueError(BinPdfError):
    """A log-log rate fit requires positive, finite abscissae and errors."""


class TooFewPointsError(BinPdfError):
    """A rate fit needs at least two points."""


class UnsupportedOrderError(BinPdfError):
    """The bin/sample coupling rule only supports orders 1 and 2."""
