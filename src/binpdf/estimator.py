"""Piecewise multilinear density estimator fitted by linear binning.

Each sample deposits unit mass onto the 2**dim corner nodes of its containing
bin, weighted by the multilinear hat values at the sample. The coefficient at
node ``j`` is the accumulated weight divided by ``M * C_j``, where ``C_j`` is
the exact integral of the node's hat function. The resulting density is
non-negative, integrates to one, and is continuous across bin faces; fitting
is a single O(M * 2**dim) pass with an O(n_nodes) finalization. The histogram
(:mod:`binpdf.baselines`) is degree 0 of the same stencil, accumulator and
density code: each sample deposits 1 on its bin, and ``C_j`` is the bin volume.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import EmptySampleSetError, GridTooLargeError
from .grid import _CHUNK, TensorGrid, as_point, as_points
from .textio import _scan, load_grid_table, save_grid_table


@dataclass(frozen=True, eq=False)
class _GridDensity:
    """A density on a grid: one coefficient per basis function of the
    subclass's ``_degree``, a node's hat at 1 and a bin's indicator at 0."""

    grid: TensorGrid
    coefficients: np.ndarray
    sample_count: int

    @classmethod
    def _shape(cls, grid: TensorGrid) -> tuple[int, ...]:
        """The grid's node shape at degree 1, its bin shape at degree 0."""
        return grid.node_shape if cls._degree else grid.bin_shape

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=np.float64).ravel()
        count = math.prod(self._shape(self.grid))
        if coeffs.shape[0] != count:
            raise ValueError(f"need {count} {self._columns[-1]}s, got {coeffs.shape[0]}")
        m = self.sample_count  # saved to, and loaded from, the sidecar as a JSON integer
        if isinstance(m, bool) or not isinstance(m, (int, np.integer)) or m < 1:
            raise ValueError(f"sample_count must be a JSON integer >= 1, got {m!r}")
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "sample_count", int(m))

    def evaluate(self, point) -> float:
        """Density value at a single point (exactly F_j at node j at degree 1)."""
        return float(self.evaluate_batch(as_point(point, self.grid.dim).reshape(1, -1))[0])

    def evaluate_batch(self, points) -> np.ndarray:
        """Elementwise :meth:`evaluate`, order preserving.

        With at least ``_THREAD_MIN_NODES`` coefficients, contiguous row
        ranges are evaluated on threads (:func:`_in_parts`); a value takes
        the same steps in the same order either way, so its bits do not
        depend on the CPU count. The first point outside the domain raises,
        as it would serially.
        """
        pts = as_points(points, self.grid.dim)
        values = np.zeros(pts.shape[0])

        def evaluate_rows(a, b):
            gathered = np.empty(min(_CHUNK, b - a))  # one buffer for every corner
            for start, idx, frac in self.grid._located(pts[a:b], offset=a):
                for flat, w in self.grid._corners(idx, frac, self._degree):
                    k = w.shape[0]
                    w *= np.take(self.coefficients, flat, out=gathered[:k], mode="clip")
                    values[a + start : a + start + k] += w

        _in_parts(evaluate_rows, pts.shape[0], self.coefficients.size)
        return values

    def integral(self) -> float:
        """Integral over the domain: sum of F_j * C_j. At degree 0, C_j is the
        bin volume, which multiplies the sum. At degree 1, C_j is the product
        of per-axis hat integrals (``delta``, halved at both end nodes)
        contracted one axis at a time, last first, by reductions of views, so
        no node-sized array is built."""
        if not self._degree:
            return float(self.coefficients.sum() * self.grid._bin_volume)
        total = self.coefficients.reshape(self.grid.node_shape)
        for inner, end in reversed(self.grid._layer_factors):
            total = inner * total[..., 1:-1].sum(-1) + end * (total[..., 0] + total[..., -1])
        return float(total)

    def _save(self, path) -> Path:
        """Publish the table of ``_columns`` and its sidecar; returns the sidecar."""
        return save_grid_table(path, self.grid, self._columns, self._shape(self.grid),
                               self.coefficients, self.sample_count)


class PiecewiseLinearPdf(_GridDensity):
    """A fitted piecewise multilinear density: grid plus one coefficient per node.

    Immutable after fit; evaluation is pure and thread-safe.
    """

    _degree = 1
    _columns = ("node_index", "coord", "coefficient")  # the table's header words
    _nouns = ("nodes", "coefficients")  # the words of its memory error


# The fewest coefficients (nodes or bins) for which finalization and evaluation
# split their work over threads, one part per CPU. One thread -> two on 2 cores,
# hat fits, medians of 9-11 alternating runs on 1M Gaussian samples:
#
#   3-D finalize     65**3 1.29 -> 1.29 ms, 73**3 1.80 -> 1.45, 129**3 8.9 -> 5.3, 257**3 76 -> 42
#   2-D finalize     513**2 0.89 -> 1.02 ms, 725**2 1.66 -> 1.41, 1025**2 3.2 -> 2.2
#   3-D evaluate 1M  65**3 63 -> 62 ms, 73**3 65 -> 61, 129**3 81 -> 73
#
# Every study and CLI grid of the benchmark but lib-fine-3d's lies below it.
_THREAD_MIN_NODES = 2**18

# A process forked after import, a study's worker say, owns a CPU of a pool already.
_IMPORT_PID = os.getpid()


def _available_cpus() -> int:
    """CPUs this process may run on (``os.sched_getaffinity``), or all of them
    where the platform has no CPU affinity."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _in_parts(run, n: int, size: int) -> None:
    """``run(a, b)`` over contiguous parts ``[a, b)`` of ``range(n)``.

    For a density of at least ``_THREAD_MIN_NODES`` coefficients (``size``),
    outside a process forked after import, there is one part per available
    CPU (at most ``n``): the first runs in the calling thread, each other one
    in a thread of its own. Every thread is joined before this returns or
    raises, and the exception of the lowest failing part is raised. ``run``
    must give each part work that no other part touches, and the same bits
    as one call over ``range(n)``.
    """
    parts = 1
    if size >= _THREAD_MIN_NODES and os.getpid() == _IMPORT_PID:
        parts = max(1, min(n, _available_cpus()))
    bounds = [n * i // parts for i in range(parts + 1)]
    errors = [None] * parts

    def part(i):
        try:
            run(bounds[i], bounds[i + 1])
        except BaseException as err:  # raised in the calling thread, below
            errors[i] = err

    threads = [threading.Thread(target=part, args=(i,)) for i in range(1, parts)]
    started = []
    try:
        for thread in threads:
            thread.start()
            started.append(thread)
        part(0)
    finally:
        for thread in started:
            thread.join()
    for err in errors:
        if err is not None:
            raise err


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where ``os.sysconf`` cannot tell."""
    try:
        pages, page_size = os.sysconf("SC_PHYS_PAGES"), os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # no sysconf, or no such name
        return None
    return pages * page_size if pages > 0 and page_size > 0 else None


class Accumulator:
    """Linear-binning node sums, fed the samples a block at a time.

    :meth:`add` takes the samples in any partition into blocks, and
    :meth:`finalize` returns the density :func:`fit` gives for all of them,
    bit for bit: rows are scattered in chunks of ``_CHUNK`` rows that start
    at multiples of ``_CHUNK`` in the stream. :meth:`add` reads the location
    stream, ``TensorGrid._located``, which checks a block's rows once, before
    any is located, and names an offending sample's row in the whole stream.
    It locates the rows into one held chunk of bins and fractions, allocated
    once at full width, which is scattered when it fills or by
    :meth:`finalize`. Memory is one ``n_nodes`` array, the held chunk and a
    fixed per-chunk working set. :meth:`finalize` hands the node array to
    the density, so it may be called once. The sums are of the ``_density``
    class's degree: a subclass naming the histogram sums bin counts
    (``baselines.HistogramAccumulator``).

    Raises :class:`GridTooLargeError` before allocating a node array (8
    bytes per node) larger than physical memory: under overcommit the
    allocation itself may succeed and the process be killed later.
    """

    _density = PiecewiseLinearPdf

    def __init__(self, grid: TensorGrid):
        entries, array = self._density._nouns
        count = math.prod(self._density._shape(grid))
        memory = _physical_memory()
        if memory is not None and 8 * count > memory:
            raise GridTooLargeError(f"a grid of {count} {entries} needs {8 * count} bytes of "
                                    f"{array}, more than the {memory} bytes of physical memory")
        self.grid = grid
        self.count = 0  # rows added
        self._sums = np.zeros(count)
        # the unfinished chunk's (idx, frac), its count % _CHUNK rows as columns
        self._held = np.empty((grid.dim, _CHUNK), np.int64), np.empty((grid.dim, _CHUNK))

    def add(self, block) -> None:
        """Deposit the samples of ``block``, an (m, dim) array, after checking
        them (:class:`SampleOutOfDomainError` names the row in the stream)."""
        if self._sums is None:
            raise ValueError("samples added to a finalized accumulator")
        pts = as_points(block, self.grid.dim)
        for start, idx, _ in self.grid._located(pts, as_samples=True, offset=self.count,
                                                out=self._held):
            if (self.count + start + idx.shape[1]) % _CHUNK == 0:  # the chunk is full
                self._scatter(*self._held)
        self.count += pts.shape[0]

    def _scatter(self, idx: np.ndarray, frac: np.ndarray) -> None:
        """Deposit the corners of the points located at ``(idx, frac)``."""
        for flat, w in self.grid._corners(idx, frac, self._density._degree):
            np.add.at(self._sums, flat, w)

    def finalize(self) -> _GridDensity:
        """The fitted density; raises :class:`EmptySampleSetError` if no
        sample was added."""
        if self._sums is None:
            raise ValueError("accumulator already finalized")
        if self.count == 0:
            raise EmptySampleSetError("cannot fit a density to zero samples")
        if self.count % _CHUNK:
            self._scatter(*(part[:, : self.count % _CHUNK] for part in self._held))
        sums, self._sums, self._held = self._sums, None, None
        shape = self._density._shape(self.grid)
        entries = sums.reshape(shape)

        def normalize(a, b):
            # divide the axis-0 layers [a, b) by M * C_j in place: at degree 0 in
            # one division by M times the bin volume; at degree 1 by M, then by
            # C_j's per-axis factors, applied as views of one axis's layers
            slab = entries[a:b]
            if not self._density._degree:
                slab /= self.count * self.grid._bin_volume
                return
            slab /= self.count
            for n, (inner, end) in enumerate(self.grid._layer_factors):
                lo, hi = (a, b) if n == 0 else (0, shape[n])  # the slab's layers of axis n
                layers = np.moveaxis(slab, n, 0)
                layers[max(lo, 1) - lo : min(hi, shape[n] - 1) - lo] /= inner
                if lo == 0:
                    layers[0] /= end
                if hi == shape[n]:
                    layers[-1] /= end

        _in_parts(normalize, shape[0], sums.size)
        return self._density(self.grid, sums, self.count)


def _fit(accumulator: type[Accumulator], grid: TensorGrid, samples) -> _GridDensity:
    """``accumulator(grid)`` fed ``samples``, an array or a :class:`TableReader`
    read a block at a time, and finalized; no samples raise first."""
    _, reader = _scan(samples, lambda pts: as_points(pts, grid.dim),
                      "cannot fit a density to zero samples")
    fitted = accumulator(grid)
    for block in reader.blocks():
        fitted.add(block)
    return fitted.finalize()


def fit(grid: TensorGrid, samples, *, threads: int = 1) -> PiecewiseLinearPdf:
    """Fit the estimator to samples lying in the grid domain.

    Samples outside the domain, NaN and infinite coordinates included, are an
    error, not silently dropped (dropping would break the unit integral);
    re-grid explicitly if the support was misjudged. One :class:`Accumulator`
    takes all the samples: fixed-size chunks scatter their corner weights
    into one node array in chunk order. Memory is one ``n_nodes`` array plus
    a fixed per-chunk working set.

    The scatter runs in the calling thread, since ``np.add.at`` holds the
    GIL. On a grid of at least ``_THREAD_MIN_NODES`` (2**18) nodes the
    finalization, like :meth:`PiecewiseLinearPdf.evaluate_batch`, splits into
    slabs across the CPUs the process may use (``os.sched_getaffinity``), or
    one in a process forked after import; every coefficient takes the same steps
    in the same order, so the result is bit-identical for any CPU count.
    ``threads`` must be an integer >= 1 and changes nothing; it is accepted so
    that existing callers keep working.

    Raises
    ------
    ValueError
        If ``threads`` is not an integer >= 1.
    EmptySampleSetError
        If no samples are given.
    GridTooLargeError
        If the node array (8 bytes per node) would exceed physical memory;
        checked before it is allocated.
    SampleOutOfDomainError
        Identifying the first offending sample.
    """
    if isinstance(threads, bool) or not isinstance(threads, (int, np.integer)) or threads < 1:
        raise ValueError(f"threads must be an integer >= 1, got {threads!r}")
    return _fit(Accumulator, grid, samples)


# -- serialization -----------------------------------------------------------
#
# CSV with a header row and one row per node (flat index, node coordinates,
# coefficient) plus a JSON sidecar holding the grid metadata; see ``textio``.


def save_pdf(pdf: PiecewiseLinearPdf, path) -> Path:
    """Publish ``<path>`` (CSV, not ``.json``) and a ``.json`` sidecar; returns the sidecar."""
    return pdf._save(path)


def load_pdf(path) -> PiecewiseLinearPdf:
    """Read a fitted density written by :func:`save_pdf`."""
    return load_grid_table(path, PiecewiseLinearPdf)
