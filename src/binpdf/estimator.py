"""Piecewise multilinear density estimator fitted by linear binning.

Each sample deposits unit mass onto the 2**dim corner nodes of its containing
bin, weighted by the multilinear hat values at the sample. The coefficient at
node ``j`` is the accumulated weight divided by ``M * C_j``, where ``C_j`` is
the exact integral of the node's hat function. The resulting density is
non-negative, integrates to one, and is continuous across bin faces; fitting
is a single O(M * 2**dim) pass with an O(n_nodes) finalization.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import EmptySampleSetError, GridTooLargeError
from .grid import _CHUNK, TensorGrid, as_point, as_points  # noqa: F401 (re-exports _CHUNK)
from .textio import load_grid_table, save_grid_table


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
        values = np.zeros(pts.shape[0])
        for start, flat, w in self.grid._stencil(pts):
            w *= self.coefficients[flat]
            values[start : start + w.shape[0]] += w
        return values

    def integral(self) -> float:
        """Integral over the domain: sum of F_j * C_j."""
        return float(self.coefficients @ self.grid.basis_integrals())


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where ``os.sysconf`` cannot tell."""
    try:
        pages, page_size = os.sysconf("SC_PHYS_PAGES"), os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # no sysconf, or no such name
        return None
    return pages * page_size if pages > 0 and page_size > 0 else None


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
    GridTooLargeError
        If the node array (8 bytes per node) would exceed physical memory;
        checked before it is allocated, since under overcommit the
        allocation itself may succeed and the process be killed later.
    SampleOutOfDomainError
        Identifying the first offending sample.
    """
    if not isinstance(threads, (int, np.integer)) or threads < 1:
        raise ValueError(f"threads must be an integer >= 1, got {threads!r}")
    pts = as_points(samples, grid.dim)
    m = pts.shape[0]
    if m == 0:
        raise EmptySampleSetError("cannot fit a density to zero samples")
    memory = _physical_memory()
    if memory is not None and 8 * grid.n_nodes > memory:
        raise GridTooLargeError(
            f"a grid of {grid.n_nodes} nodes needs {8 * grid.n_nodes} bytes of "
            f"coefficients, more than the {memory} bytes of physical memory"
        )
    grid.check_in_domain(pts, as_samples=True)

    sums = np.zeros(grid.n_nodes)
    for _, flat, w in grid._stencil(pts):
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
    """Publish ``<path>`` (CSV, not ``.json``) and a ``.json`` sidecar; returns the sidecar."""
    grid = pdf.grid
    return save_grid_table(
        path, grid, ("node_index", "coord", "coefficient"), grid.node_coords_array(),
        pdf.coefficients, pdf.sample_count,
    )


def load_pdf(path) -> PiecewiseLinearPdf:
    """Read a fitted density written by :func:`save_pdf`."""
    return PiecewiseLinearPdf(*load_grid_table(path))
