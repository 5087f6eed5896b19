"""Reference estimators: the bin-count histogram and a naive sample-centered KDE.

The histogram is piecewise constant on the grid's bins and shares the grid's
point-location tie rule, so histogram and piecewise-linear estimator can only
disagree by approximation order, never by binning convention. The KDE places
a product kernel at every sample and therefore costs O(M) per evaluation;
it is kept deliberately naive (no boundary correction, user-supplied
bandwidth) as a comparison baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import estimator
from .errors import EmptySampleSetError, NonpositiveBandwidthError
from .grid import _CHUNK, TensorGrid, _ravel_rows, as_point, as_points, check_finite
from .textio import load_grid_table, save_grid_table


@dataclass(frozen=True, eq=False)
class Histogram:
    """Piecewise-constant density: one value per bin, unit integral."""

    grid: TensorGrid
    values: np.ndarray
    sample_count: int

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64).ravel()
        if values.shape[0] != self.grid.n_bins:
            raise ValueError(f"need {self.grid.n_bins} values, got {values.shape[0]}")
        object.__setattr__(self, "values", values)

    @property
    def bin_volume(self) -> float:
        return float(np.prod(self.grid.deltas))

    def evaluate(self, point) -> float:
        return float(self.evaluate_batch(as_point(point, self.grid.dim).reshape(1, -1))[0])

    def evaluate_batch(self, points) -> np.ndarray:
        pts = as_points(points, self.grid.dim)
        out = np.empty(pts.shape[0])
        for start, idx, _ in self.grid._located(pts):
            # in range, so mode="clip" changes no index; it only skips take's buffer
            np.take(self.values, _ravel_rows(idx, self.grid.bin_shape), mode="clip",
                    out=out[start : start + idx.shape[1]])
        return out

    def integral(self) -> float:
        return float(self.values.sum() * self.bin_volume)


class HistogramAccumulator:
    """Bin counts, fed the samples a block at a time.

    Integer counts do not depend on the partition, so :meth:`finalize`
    returns exactly the :func:`fit_histogram` of all the samples added.
    :meth:`add` checks each block's domain first; the error names the
    offending sample's row in the whole stream. Memory is one ``n_bins``
    array and a fixed per-chunk working set: :meth:`finalize` turns the
    counts into the values in place, so it may be called once.

    Raises :class:`GridTooLargeError` before allocating a bin array (8 bytes
    per bin) larger than physical memory.
    """

    def __init__(self, grid: TensorGrid):
        estimator._check_memory(grid.n_bins, "bins", "counts")
        self.grid = grid
        self.count = 0  # rows added
        self._counts = np.zeros(grid.n_bins, np.int64)

    def add(self, block) -> None:
        """Count the samples of ``block``, an (m, dim) array, after checking
        them (:class:`SampleOutOfDomainError` names the row in the stream)."""
        if self._counts is None:
            raise ValueError("samples added to a finalized accumulator")
        pts = as_points(block, self.grid.dim)
        for _, idx, _ in self.grid._located(pts, as_samples=True, offset=self.count):
            np.add.at(self._counts, _ravel_rows(idx, self.grid.bin_shape), 1)
        self.count += pts.shape[0]

    def finalize(self) -> Histogram:
        """Counts scaled by ``1 / (M * bin_volume)``; raises
        :class:`EmptySampleSetError` if no sample was added."""
        if self._counts is None:
            raise ValueError("accumulator already finalized")
        if self.count == 0:
            raise EmptySampleSetError("cannot fit a histogram to zero samples")
        counts, self._counts = self._counts, None
        scale = self.count * float(np.prod(self.grid.deltas))
        values = counts.view(np.float64)  # a chunk at a time: numpy copies an overlapping input
        for start in range(0, counts.size, _CHUNK):
            np.divide(counts[start : start + _CHUNK], scale, out=values[start : start + _CHUNK])
        return Histogram(self.grid, values, self.count)


def fit_histogram(grid: TensorGrid, samples) -> Histogram:
    """Bin counts scaled by ``1 / (M * bin_volume)`` so the integral is one.

    Like :func:`estimator.fit`, raises :class:`GridTooLargeError` before
    allocating a bin array (8 bytes per bin) larger than physical memory.
    """
    pts = as_points(samples, grid.dim)
    if pts.shape[0] == 0:
        raise EmptySampleSetError("cannot fit a histogram to zero samples")
    accumulator = HistogramAccumulator(grid)
    accumulator.add(pts)
    return accumulator.finalize()


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
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim == 1:
            samples = samples.reshape(-1, 1)
        if samples.ndim != 2:
            raise ValueError(f"samples must be an (m, dim) array, got shape {samples.shape}")
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
    return float(eval_kde_batch(spec, as_point(point, spec.dim).reshape(1, -1))[0])


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
    return save_grid_table(
        path, histogram.grid, ("bin_index", "corner", "value"), histogram.grid.bin_shape,
        histogram.values, histogram.sample_count,
    )


def load_histogram(path) -> Histogram:
    return load_grid_table(path, Histogram)
