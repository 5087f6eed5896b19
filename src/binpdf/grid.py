"""Uniform tensor-product bin grids and their multilinear hat-function basis.

A :class:`TensorGrid` subdivides an axis-aligned box into congruent
hyper-rectangular bins. Nodes are the bin vertices; each node carries a
continuous, piecewise multilinear hat function that is 1 at its node, 0 at
every other node, and supported on the bins touching the node. The module
provides point location, node coordinates, the 2**dim corner stencil of hat
weights that fit, evaluation and :meth:`TensorGrid.basis_eval` all consume,
and the exact (closed-form) integral of each hat over the box.

Point location uses direct index arithmetic, ``i = floor((y - a) / delta)``,
followed by a one-step correction against the bin edge values so that the
returned bin agrees exactly with edge comparisons even for points within one
ulp of a face. Points on interior faces belong to the higher-index bin; the
exact upper domain boundary is clamped into the last bin.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .errors import IndexOutOfRangeError, OutOfDomainError, SampleOutOfDomainError

MultiIndex = tuple[int, ...]

# Fixed chunk size of the stencil: bounds the per-chunk working set of fit and
# evaluate, and fixes the scatter order (hence every coefficient, bit for bit).
_CHUNK = 1 << 18


def as_points(points, dim: int) -> np.ndarray:
    """Coerce input to a float64 array of shape (m, dim)."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        if dim == 1:
            pts = pts.reshape(-1, 1)
        elif pts.shape[0] == dim:
            pts = pts.reshape(1, dim)
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise ValueError(f"expected points of dimension {dim}, got shape {pts.shape}")
    return pts


def as_point(point, dim: int) -> np.ndarray:
    """Coerce input to a single float64 point of shape (dim,)."""
    p = np.asarray(point, dtype=np.float64)
    if p.ndim == 0 and dim == 1:
        p = p.reshape(1)
    if p.shape != (dim,):
        raise ValueError(f"expected a point of dimension {dim}, got shape {p.shape}")
    return p


@dataclass(frozen=True)
class TensorGrid:
    """Axis-aligned box domain subdivided into congruent rectangular bins.

    Parameters
    ----------
    lower, upper : per-axis domain bounds, lower[n] < upper[n].
    n_delta : per-axis subdivision counts (>= 1). Bin widths are
        ``(upper - lower) / n_delta``.

    The grid is immutable after construction; all methods are pure and safe
    to share across threads.
    """

    lower: tuple[float, ...]
    upper: tuple[float, ...]
    n_delta: tuple[int, ...]

    def __post_init__(self):
        lower = tuple(float(a) for a in np.atleast_1d(self.lower))
        upper = tuple(float(b) for b in np.atleast_1d(self.upper))
        n_delta = tuple(int(n) for n in np.atleast_1d(self.n_delta))
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "n_delta", n_delta)
        if not (len(lower) == len(upper) == len(n_delta)):
            raise ValueError("lower, upper and n_delta must have equal length")
        if len(lower) == 0:
            raise ValueError("grid dimension must be at least 1")
        for n, (a, b, nd) in enumerate(zip(lower, upper, n_delta)):
            if not np.isfinite(a) or not np.isfinite(b) or not a < b:
                raise ValueError(f"axis {n}: need lower < upper, got [{a}, {b}]")
            if nd < 1:
                raise ValueError(f"axis {n}: subdivision count must be >= 1, got {nd}")
        if self.n_nodes > np.iinfo(np.intp).max:
            raise ValueError(f"{self.n_nodes} nodes exceed the largest flat index")

    # -- derived shape data ------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.lower)

    @cached_property
    def deltas(self) -> tuple[float, ...]:
        """Per-axis bin widths."""
        return tuple(
            (b - a) / n for a, b, n in zip(self.lower, self.upper, self.n_delta)
        )

    @cached_property
    def node_shape(self) -> tuple[int, ...]:
        return tuple(n + 1 for n in self.n_delta)

    @property
    def bin_shape(self) -> tuple[int, ...]:
        return self.n_delta

    @cached_property
    def n_bins(self) -> int:
        return math.prod(self.n_delta)

    @cached_property
    def n_nodes(self) -> int:
        return math.prod(self.node_shape)

    @cached_property
    def volume(self) -> float:
        return float(np.prod(np.subtract(self.upper, self.lower)))

    # -- index plumbing ------------------------------------------------------

    def _check_multi(self, index, shape: tuple[int, ...], what: str) -> tuple[int, ...]:
        idx = tuple(int(i) for i in np.atleast_1d(index))
        if len(idx) != self.dim:
            raise IndexOutOfRangeError(
                f"{what} index {idx} has wrong length for dimension {self.dim}"
            )
        for n, (i, s) in enumerate(zip(idx, shape)):
            if not 0 <= i < s:
                raise IndexOutOfRangeError(
                    f"{what} index {idx} is out of range on axis {n} (size {s})"
                )
        return idx

    def node_flat_index(self, node) -> int:
        """Row-major flat index of a node multi-index."""
        idx = self._check_multi(node, self.node_shape, "node")
        return int(np.ravel_multi_index(idx, self.node_shape))

    def node_multi_index(self, flat: int) -> MultiIndex:
        if not 0 <= flat < self.n_nodes:
            raise IndexOutOfRangeError(f"flat node index {flat} out of range")
        return tuple(int(i) for i in np.unravel_index(flat, self.node_shape))

    def bin_flat_index(self, bin_index) -> int:
        idx = self._check_multi(bin_index, self.bin_shape, "bin")
        return int(np.ravel_multi_index(idx, self.bin_shape))

    def bin_multi_index(self, flat: int) -> MultiIndex:
        if not 0 <= flat < self.n_bins:
            raise IndexOutOfRangeError(f"flat bin index {flat} out of range")
        return tuple(int(i) for i in np.unravel_index(flat, self.bin_shape))

    # -- domain checks -------------------------------------------------------

    def check_in_domain(self, pts: np.ndarray, *, as_samples: bool = False) -> None:
        """Raise on the first point outside the closed box domain.

        Works axis-major: each column is tested against its scalar bounds, and
        the offender reported is the row-major first ``(row, axis)``. NaN and
        infinite coordinates are outside. Raises
        :class:`SampleOutOfDomainError` when ``as_samples`` is set (fit input),
        :class:`OutOfDomainError` otherwise.
        """
        offenders = []  # (first bad row, axis) of every axis that has one
        for n, (a, b) in enumerate(zip(self.lower, self.upper)):
            ok = pts[:, n] >= a
            ok &= pts[:, n] <= b
            if not ok.all():
                offenders.append((int(ok.argmin()), n))
        if offenders:
            index, axis = min(offenders)
            value = float(pts[index, axis])
            if as_samples:
                raise SampleOutOfDomainError(index, axis, value)
            raise OutOfDomainError(axis, value, index=index)

    # -- point location ------------------------------------------------------

    def _locate_with_frac(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Bin indices and within-bin fractional offsets for in-domain points.

        Returns ``(idx, frac)`` with shapes (m, dim); ``frac`` is clipped to
        [0, 1] and forced to exactly 1 on the upper domain boundary so that
        node coordinates reproduce node values exactly.

        Works axis-major: both are transposed views of (dim, m) buffers filled
        one axis at a time against scalar bounds, so every step runs over one
        contiguous row; the float row becomes that axis's ``frac``. Every step
        rounds exactly as the out-of-place (m, dim) expressions would.
        """
        idx, frac = np.empty(pts.T.shape, np.int64), np.empty(pts.T.shape)
        axes = zip(self.lower, self.deltas, self.n_delta, self.upper)
        for n, (a, d, nd, b) in enumerate(axes):
            p, i, row = pts[:, n], idx[n], frac[n]
            np.subtract(p, a, out=row)
            row /= d
            np.floor(row, out=row)
            i[:] = row
            # one-step fixup: make the index decision agree with the edge
            # values a + i * d and a + (i + 1) * d
            np.multiply(i, d, out=row)
            row += a
            i -= p < row
            i += 1
            np.multiply(i, d, out=row)
            i -= 1
            row += a
            i += p >= row
            np.minimum(i, nd - 1, out=i)  # i >= 0 holds for in-domain points
            np.multiply(i, d, out=row)
            row += a
            np.subtract(p, row, out=row)
            row /= d
            np.clip(row, 0.0, 1.0, out=row)
            row[p == b] = 1.0
        return idx.T, frac.T

    def locate_bin(self, point) -> MultiIndex:
        """Bin containing ``point``; interior faces go to the higher-index bin.

        The exact upper boundary is clamped into the last bin. Raises
        :class:`OutOfDomainError` for points outside the closed box.
        """
        return tuple(int(i) for i in self.locate_bins(as_point(point, self.dim)[None])[0])

    def locate_bins(self, points) -> np.ndarray:
        """Vectorized :meth:`locate_bin`; returns an (m, dim) int array."""
        pts = as_points(points, self.dim)
        self.check_in_domain(pts)
        idx, _ = self._locate_with_frac(pts)
        return idx

    def _stencil(self, pts: np.ndarray):
        """Yield ``(chunk start, flat node index, hat weight)`` per corner.

        Runs over fixed ``_CHUNK`` slices of in-domain points, and within each
        over the 2**dim corners of every point's bin in lexicographic offset
        order. The index and weight arrays are buffers reused for every corner
        of a chunk, so consume them before asking for the next corner.
        """
        for start in range(0, pts.shape[0], _CHUNK):
            yield from self._chunk_stencil(start, pts[start : start + _CHUNK])

    def _chunk_stencil(self, start: int, pts: np.ndarray):
        # a frame of its own, so one chunk's location is freed before the next
        idx, frac = self._locate_with_frac(pts)
        base = np.ravel_multi_index(tuple(idx.T), self.node_shape)
        del idx
        flat, w = np.empty_like(base), np.empty(base.shape[0])
        for offsets in itertools.product((0, 1), repeat=self.dim):
            np.add(base, np.ravel_multi_index(offsets, self.node_shape), out=flat)
            w.fill(1.0)
            for n, o in enumerate(offsets):
                w *= frac[:, n] if o else 1.0 - frac[:, n]
            yield start, flat, w

    # -- nodes and basis -----------------------------------------------------

    def node_coords(self, node) -> np.ndarray:
        """Coordinates of a node: ``lower + index * delta`` per axis."""
        idx = self._check_multi(node, self.node_shape, "node")
        return np.array(self.lower) + np.array(idx, dtype=np.float64) * self.deltas

    def _edge_mesh(self, counts) -> np.ndarray:
        """``lower + index * delta`` for every index below ``counts``, row-major."""
        axes = [a + np.arange(c) * d for a, d, c in zip(self.lower, self.deltas, counts)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.column_stack([m.ravel() for m in mesh])

    def node_coords_array(self) -> np.ndarray:
        """Coordinates of all nodes, shape (n_nodes, dim), row-major order."""
        return self._edge_mesh(self.node_shape)

    def bin_lower_corners(self) -> np.ndarray:
        """Lower corner of every bin, shape (n_bins, dim), row-major order."""
        return self._edge_mesh(self.n_delta)

    def basis_eval(self, node, point) -> float:
        """Hat function of ``node`` at ``point``: its weight in the point's stencil.

        Product over axes of ``max(0, 1 - |y_n - node_n| / delta_n)``,
        computed from the located bin's fractional offsets so that the value
        is exactly 1 at the node itself and exactly 0 at every other node.
        """
        flat = self.node_flat_index(node)
        p = as_point(point, self.dim)[None]
        self.check_in_domain(p)
        for _, corner, w in self._stencil(p):
            if corner[0] == flat:
                return float(w[0])
        return 0.0

    def basis_integral(self, node) -> float:
        """Exact integral of the node's hat function over the domain.

        Per axis the 1D hat integrates to ``delta`` at interior coordinates
        and ``delta / 2`` at boundary coordinates; the tensor product gives
        the closed form.
        """
        idx = self._check_multi(node, self.node_shape, "node")
        return math.prod(float(c[i]) for c, i in zip(self._axis_hat_integrals(), idx))

    def _axis_hat_integrals(self) -> list[np.ndarray]:
        """Per-axis 1-D hat integrals: ``delta``, halved at both end nodes."""
        factors = [np.full(s, d) for s, d in zip(self.node_shape, self.deltas)]
        for c in factors:
            c[[0, -1]] *= 0.5
        return factors

    def basis_integrals(self) -> np.ndarray:
        """Integrals of all hat functions, shape (n_nodes,), row-major order."""
        return reduce(np.multiply.outer, self._axis_hat_integrals()).ravel()

    def bin_vertices(self, bin_index) -> list[MultiIndex]:
        """The 2**dim corner nodes of a bin, in lexicographic offset order."""
        idx = self._check_multi(bin_index, self.bin_shape, "bin")
        return [
            tuple(i + o for i, o in zip(idx, offsets))
            for offsets in itertools.product((0, 1), repeat=self.dim)
        ]
