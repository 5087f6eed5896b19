"""Piecewise multilinear density estimator fitted by linear binning.

Each sample deposits unit mass onto the 2**dim corner nodes of its containing
bin, weighted by the multilinear hat values at the sample. The coefficient at
node ``j`` is the accumulated weight divided by ``M * C_j``, where ``C_j`` is
the exact integral of the node's hat function. The resulting density is
non-negative, integrates to one, and is continuous across bin faces; fitting
is a single O(M * 2**dim) pass with an O(n_nodes) finalization.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import EmptySampleSetError
from .grid import TensorGrid, as_point, as_points
from .textio import load_grid_table, save_grid_table

# Fixed chunk size: bounds the per-chunk working set of fit and evaluate, and
# fixes the scatter order (hence every coefficient, bit for bit).
_CHUNK = 1 << 18


def _locate(grid: TensorGrid, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat node index of each point's lowest bin corner and its fractions."""
    idx, frac = grid._locate_with_frac(pts)
    return np.ravel_multi_index(tuple(idx.T), grid.node_shape), frac


def _corners(grid: TensorGrid, base: np.ndarray, frac: np.ndarray):
    """Yield ``(flat node index, hat weight)`` for each of the 2**dim bin corners.

    Both are buffers reused for every corner (fresh per-corner arrays churn the
    allocator), so consume them before asking for the next corner.
    """
    flat, w = np.empty_like(base), np.empty(base.shape[0])
    for offsets in itertools.product((0, 1), repeat=grid.dim):
        np.add(base, np.ravel_multi_index(offsets, grid.node_shape), out=flat)
        w.fill(1.0)
        for n, o in enumerate(offsets):
            w *= frac[:, n] if o else 1.0 - frac[:, n]
        yield flat, w


def _eval_points(grid: TensorGrid, coefficients: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Evaluate ``sum_j F_j * hat_j`` at in-domain points (m, dim)."""
    values = np.zeros(pts.shape[0])
    for start in range(0, pts.shape[0], _CHUNK):
        out = values[start : start + _CHUNK]
        for flat, w in _corners(grid, *_locate(grid, pts[start : start + _CHUNK])):
            w *= coefficients[flat]
            out += w
    return values


@dataclass(frozen=True, eq=False)
class PiecewiseLinearPdf:
    """A fitted piecewise multilinear density: grid plus one coefficient per node.

    Immutable after fit; evaluation is pure and thread-safe.
    """

    grid: TensorGrid
    coefficients: np.ndarray
    sample_count: int

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=np.float64).ravel()
        if coeffs.shape[0] != self.grid.n_nodes:
            raise ValueError(
                f"need {self.grid.n_nodes} coefficients, got {coeffs.shape[0]}"
            )
        object.__setattr__(self, "coefficients", coeffs)

    def evaluate(self, point) -> float:
        """Density value at a single point (exactly F_j at node j)."""
        return float(self.evaluate_batch(as_point(point, self.grid.dim).reshape(1, -1))[0])

    def evaluate_batch(self, points) -> np.ndarray:
        """Elementwise :meth:`evaluate`, order preserving."""
        pts = as_points(points, self.grid.dim)
        if pts.shape[0] == 0:
            return np.empty(0)
        self.grid.check_in_domain(pts)
        return _eval_points(self.grid, self.coefficients, pts)

    def integral(self) -> float:
        """Integral over the domain: sum of F_j * C_j."""
        return float(self.coefficients @ self.grid.basis_integrals())


def fit(grid: TensorGrid, samples, *, threads: int = 1) -> PiecewiseLinearPdf:
    """Fit the estimator to samples lying in the grid domain.

    Samples outside the domain, NaN and infinite coordinates included, are an
    error, not silently dropped (dropping would break the unit integral);
    re-grid explicitly if the support was misjudged. Fixed-size chunks of
    samples scatter their corner weights into one node array in chunk order.
    Memory is one ``n_nodes`` array plus a fixed per-chunk working set.

    ``threads`` must be an integer >= 1 and affects neither the result nor
    the speed: ``np.add.at`` holds the GIL, so a second thread gains nothing.
    It is accepted so that existing callers keep working.

    Raises
    ------
    ValueError
        If ``threads`` is not an integer >= 1.
    EmptySampleSetError
        If no samples are given.
    SampleOutOfDomainError
        Identifying the first offending sample.
    """
    if not isinstance(threads, (int, np.integer)) or threads < 1:
        raise ValueError(f"threads must be an integer >= 1, got {threads!r}")
    pts = as_points(samples, grid.dim)
    m = pts.shape[0]
    if m == 0:
        raise EmptySampleSetError("cannot fit a density to zero samples")
    grid.check_in_domain(pts, as_samples=True)

    sums = np.zeros(grid.n_nodes)
    for start in range(0, m, _CHUNK):
        for flat, w in _corners(grid, *_locate(grid, pts[start : start + _CHUNK])):
            np.add.at(sums, flat, w)

    # divide by M * C_j in place, C_j being the product of per-axis factors
    sums /= m
    nodes = sums.reshape(grid.node_shape)
    for n, c in enumerate(grid._axis_hat_integrals()):
        nodes /= c.reshape((-1,) + (1,) * (grid.dim - n - 1))
    return PiecewiseLinearPdf(grid, sums, m)


# -- serialization -----------------------------------------------------------
#
# CSV with a header row and one row per node (flat index, node coordinates,
# coefficient) plus a JSON sidecar holding the grid metadata; see ``textio``.


def save_pdf(pdf: PiecewiseLinearPdf, path) -> Path:
    """Write ``<path>`` (CSV) and a ``.json`` sidecar; returns the sidecar path."""
    grid = pdf.grid
    return save_grid_table(
        path, grid, ("node_index", "coord", "coefficient"), grid.node_coords_array(),
        pdf.coefficients, pdf.sample_count,
    )


def load_pdf(path) -> PiecewiseLinearPdf:
    """Read a fitted density written by :func:`save_pdf`."""
    return PiecewiseLinearPdf(*load_grid_table(path))
