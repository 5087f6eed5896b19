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
exact upper domain boundary is clamped into the last bin. The correction runs
only where the within-bin fraction lies within ``tau = 16 eps (|a| + |b| + (b
- a)) / delta`` of 0 or 1, over three times the worst rounding of the computed
edges relative to ``delta``: every other point provably keeps its first index
and fraction, so the results are the bits of correcting every point. Each
corner weight is the left-to-right product of per-axis factors, the leading
axes' product shared by the two corners along the last axis.
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

_EPS = float(np.finfo(np.float64).eps)


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


def _settle(p, i, row, a: float, d: float, nd: int, b: float) -> None:
    """Exact location on one axis, in place, from ``i = floor((p - a) / d)``.

    A one-step fix-up makes ``i`` agree with the edge values ``a + i * d`` and
    ``a + (i + 1) * d``, then clamps it into the last bin; ``row`` receives
    ``(p - (a + i * d)) / d``, clipped to [0, 1] and exactly 1 where ``p == b``.
    """
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


def _ravel_rows(idx: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Row-major flat index of (dim, m) int64 indices, built in place in ``idx[0]``.

    The same integers as ``np.ravel_multi_index`` for indices within ``shape``.
    """
    flat = idx[0]
    for row, size in zip(idx[1:], shape[1:]):
        flat *= size
        flat += row
    return flat


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
        for n, d in enumerate(self.deltas):  # point location divides by d
            if not 0.0 < d < math.inf:
                raise ValueError(f"axis {n}: bin width {d} must be finite and > 0")

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
        contiguous row; the float row becomes that axis's ``frac``.

        Each axis first takes ``i = trunc((p - a) / d)``, which is the floor
        as ``p >= a``, and ``frac = fl(fl(p - e) / d)`` at the computed edge
        ``e = fl(fl(i * d) + a)``. Only points with ``frac`` outside ``[tau,
        1 - tau]`` go through :func:`_settle`, the exact fix-up, and the rest
        provably need none. With ``S = |a| + |b| + (b - a)``, an edge
        ``fl(fl(k * d) + a)``, ``0 <= k <= n_delta + 1``, lies within ``2 eps
        S`` of ``a + k * d``, and the edge ``n_delta`` within ``3 eps S`` of
        ``b``. So:

        - ``frac >= tau > 0`` gives ``p > e``: the decrement stays off;
        - ``frac <= 1 - tau`` gives ``p - e <= (1 - tau)(1 + eps) d``, below
          the next edge, which is at least ``d - 4 eps S`` above ``e``, once
          ``tau > eps + 4 eps S / d``: the increment stays off;
        - ``i = n_delta``, and ``p == b`` with ``i = n_delta - 1``, put
          ``frac`` within ``3 eps S / d + eps`` of 0 or 1: flagged. Any other
          ``i`` at ``p == b`` or above ``n_delta``, or one not exact in
          float64, needs ``n_delta * eps`` near 1, where ``tau > 1/2`` flags
          every point.

        An unflagged point thus has ``0 <= i < n_delta`` and ``0 < frac <
        1``, which the clamp, the clip and ``frac = 1`` at ``b`` leave as they
        are: it gets the fix-up's bits. As ``S / d >= n_delta >= 1``, ``tau =
        5 eps S / d`` would do; ``16 eps S / d`` leaves a margin of more than 3.
        """
        idx, frac = np.empty(pts.T.shape, np.int64), np.empty(pts.T.shape)
        axes = zip(self.lower, self.deltas, self.n_delta, self.upper)
        for n, (a, d, nd, b) in enumerate(axes):
            p, i, row = pts[:, n], idx[n], frac[n]
            np.subtract(p, a, out=row)
            row /= d
            i[:] = row  # truncation is floor here, since p - a >= 0
            np.multiply(i, d, out=row)
            row += a
            np.subtract(p, row, out=row)
            row /= d
            tau = 16.0 * _EPS * (abs(a) + abs(b) + (b - a)) / d
            inside = row >= tau
            inside &= row <= 1.0 - tau
            near = np.flatnonzero(np.logical_not(inside, out=inside))
            del inside
            if near.size:
                i_near, frac_near = i[near], np.empty(near.size)
                _settle(p[near], i_near, frac_near, a, d, nd, b)
                i[near], row[near] = i_near, frac_near
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
        of a chunk, so consume them before asking for the next corner; the
        index array is read-only, since the next corner's index is stepped
        from it.
        """
        for start in range(0, pts.shape[0], _CHUNK):
            yield from self._chunk_stencil(start, pts[start : start + _CHUNK])

    def _chunk_stencil(self, start: int, pts: np.ndarray):
        # a frame of its own, so one chunk's location is freed before the next
        idx, frac = (a.T for a in self._locate_with_frac(pts))  # (dim, m) rows
        flat = _ravel_rows(idx, self.node_shape)  # stepped from corner to corner
        corner = flat.view()
        corner.flags.writeable = False  # a consumer's write would move later corners
        # the other index rows are free now: one holds the leading product, one w
        lead = idx[1].view(np.float64) if self.dim > 1 else None
        w = idx[2].view(np.float64) if self.dim > 2 else np.empty(flat.shape[0])
        *leading, last = frac
        strides = [math.prod(self.node_shape[n + 1 :]) for n in range(self.dim - 1)]
        at = 0  # the offset that flat holds from each point's lowest corner node
        for offsets in itertools.product((0, 1), repeat=self.dim - 1):
            # a weight multiplies its axis factors, f or 1 - f, left to right; the
            # product of the leading ones serves both corners along the last axis
            prod = None
            for f, o in zip(leading, offsets):
                if not o:
                    f = np.subtract(1.0, f, out=lead if prod is None else w)
                prod = f if prod is None else np.multiply(prod, f, out=lead)
            to = sum(o * s for o, s in zip(offsets, strides))
            flat += to - at
            np.subtract(1.0, last, out=w)
            if prod is not None:
                w *= prod
            yield start, corner, w
            flat += 1  # the last axis has stride 1
            at = to + 1
            np.multiply(last, 1.0 if prod is None else prod, out=w)
            yield start, corner, w

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
