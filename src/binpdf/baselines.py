"""Reference estimators: the bin-count histogram and a naive sample-centered KDE.

The histogram is piecewise constant on the grid's bins. It is degree 0 of
the estimator's stencil and accumulator: each sample deposits weight 1 on its
bin through the same location, scatter and density code. So histogram and
piecewise-linear estimator can only disagree by approximation order, never
by binning convention. The KDE places a product kernel at every sample and
therefore costs O(M) per evaluation; it is kept deliberately naive (no
boundary correction, user-supplied bandwidth) as a comparison baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import estimator
from .errors import EmptySampleSetError, NonpositiveBandwidthError
from .grid import TensorGrid, as_point, as_points, check_finite
from .textio import load_grid_table


class Histogram(estimator._GridDensity):
    """Piecewise-constant density: one value per bin, unit integral."""

    _degree = 0
    _columns = ("bin_index", "corner", "value")
    _nouns = ("bins", "counts")

    @property
    def values(self) -> np.ndarray:
        """The coefficients: the value on each bin, row-major."""
        return self.coefficients

    @property
    def bin_volume(self) -> float:
        return self.grid._bin_volume


class HistogramAccumulator(estimator.Accumulator):
    """The degree-0 :class:`~binpdf.estimator.Accumulator`: bin counts, as
    float64 sums of 1.0, exact below 2**53 rows and so independent of order
    and partition. :meth:`finalize` divides them once by ``M * bin_volume``."""

    _density = Histogram


def fit_histogram(grid: TensorGrid, samples) -> Histogram:
    """Bin counts scaled by ``1 / (M * bin_volume)`` so the integral is one.

    Like :func:`estimator.fit`, raises :class:`GridTooLargeError` before
    allocating a bin array (8 bytes per bin) larger than physical memory.
    """
    return estimator._fit(HistogramAccumulator, grid, samples)


# -- naive KDE ----------------------------------------------------------------

KERNELS = ("triangular", "gaussian")


@dataclass(frozen=True, eq=False)
class KdeSpec:
    """A sample-centered product-kernel density with a single bandwidth."""

    kernel: str
    bandwidth: float
    samples: np.ndarray

    def __post_init__(self):
        if self.kernel not in KERNELS:
            raise ValueError(f"unknown kernel {self.kernel!r}; expected one of {KERNELS}")
        if not (math.isfinite(self.bandwidth) and self.bandwidth > 0):
            raise NonpositiveBandwidthError(
                f"bandwidth must be finite and > 0, got {self.bandwidth}")
        samples = as_points(self.samples)
        if samples.shape[0] == 0:
            raise EmptySampleSetError("KDE needs at least one sample")
        check_finite(samples, as_samples=True)
        object.__setattr__(self, "samples", samples)

    @property
    def dim(self) -> int:
        return int(self.samples.shape[1])


def _kernel_values(kernel: str, u: np.ndarray) -> np.ndarray:
    if kernel == "triangular":
        return np.maximum(0.0, 1.0 - np.abs(u))
    return np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)


def eval_kde(spec: KdeSpec, point) -> float:
    """``(1 / (b**dim * M)) * sum_m prod_n K((y_n - Y_mn) / b)``.

    Each call visits every sample, the O(M) cost that motivates grid-based
    estimators in the first place.
    """
    return float(eval_kde_batch(spec, as_point(point, spec.dim))[0])


def eval_kde_batch(spec: KdeSpec, points) -> np.ndarray:
    """Elementwise :func:`eval_kde`; a NaN or infinite coordinate raises
    :class:`OutOfDomainError` naming the row-major first one."""
    pts = as_points(points, spec.dim)
    check_finite(pts)
    scale = spec.bandwidth**spec.dim * spec.samples.shape[0]
    out = np.empty(pts.shape[0])
    for i in range(pts.shape[0]):
        u = (pts[i] - spec.samples) / spec.bandwidth
        out[i] = np.prod(_kernel_values(spec.kernel, u), axis=1).sum() / scale
    return out


# -- serialization (the estimator's CSV layout, see ``textio``) ----------------


def save_histogram(histogram: Histogram, path) -> Path:
    """Publish ``<path>`` (flat bin index, bin lower corner, value) plus sidecar."""
    return histogram._save(path)


def load_histogram(path) -> Histogram:
    return load_grid_table(path, Histogram)
