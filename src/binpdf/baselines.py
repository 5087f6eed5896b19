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

from .errors import EmptySampleSetError, NonpositiveBandwidthError
from .grid import _CHUNK, TensorGrid, _ravel_rows, as_point, as_points
from .textio import load_grid_table, save_grid_table


def _flat_bins(grid: TensorGrid, pts: np.ndarray) -> np.ndarray:
    """Row-major flat bin index of each in-domain point."""
    idx, _ = grid._locate_with_frac(pts)
    return _ravel_rows(idx.T, grid.bin_shape)


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
        if pts.shape[0] == 0:
            return np.empty(0)
        self.grid.check_in_domain(pts)
        out = np.empty(pts.shape[0])
        for start in range(0, pts.shape[0], _CHUNK):  # fixed chunks bound the memory
            chunk = slice(start, start + _CHUNK)
            out[chunk] = self.values[_flat_bins(self.grid, pts[chunk])]
        return out

    def integral(self) -> float:
        return float(self.values.sum() * self.bin_volume)


def fit_histogram(grid: TensorGrid, samples) -> Histogram:
    """Bin counts scaled by ``1 / (M * bin_volume)`` so the integral is one."""
    pts = as_points(samples, grid.dim)
    m = pts.shape[0]
    if m == 0:
        raise EmptySampleSetError("cannot fit a histogram to zero samples")
    grid.check_in_domain(pts, as_samples=True)
    counts = np.zeros(grid.n_bins, np.int64)  # integer sums: exact in any chunking
    for start in range(0, m, _CHUNK):  # fixed chunks bound the memory
        # no name holds a chunk's bins, so they are freed before the next is located
        counts += np.bincount(_flat_bins(grid, pts[start : start + _CHUNK]),
                              minlength=grid.n_bins)
    values = counts / (m * float(np.prod(grid.deltas)))
    return Histogram(grid, values, m)


eval_histogram = Histogram.evaluate


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
    pts = as_points(points, spec.dim)
    scale = spec.bandwidth**spec.dim * spec.samples.shape[0]
    out = np.empty(pts.shape[0])
    for i in range(pts.shape[0]):
        u = (pts[i] - spec.samples) / spec.bandwidth
        out[i] = np.prod(_kernel_values(spec.kernel, u), axis=1).sum() / scale
    return out


# -- serialization (the estimator's CSV layout, see ``textio``) ----------------


def save_histogram(histogram: Histogram, path) -> Path:
    """Publish ``<path>`` (flat bin index, bin lower corner, value) plus sidecar."""
    grid = histogram.grid
    return save_grid_table(
        path, grid, ("bin_index", "corner", "value"), grid.bin_lower_corners(),
        histogram.values, histogram.sample_count,
    )


def load_histogram(path) -> Histogram:
    return Histogram(*load_grid_table(path))
