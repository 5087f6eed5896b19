"""Uniform tensor-product bin grids and their multilinear hat-function basis.

A :class:`TensorGrid` subdivides an axis-aligned box into congruent
hyper-rectangular bins. Nodes are the bin vertices; each node carries a
continuous, piecewise multilinear hat function that is 1 at its node, 0 at
every other node, and supported on the bins touching the node. The module
provides point location, the corner stencil that fit and evaluation consume
(degree 1: the 2**dim corners of a point's bin with their hat weights; degree
0, the histogram's: the bin itself with weight 1), and the exact integral of
each hat over the box. Location is one loop, ``TensorGrid._located``, which the
fit's accumulator, evaluation and ``locate_bins`` read. It checks every point's
domain before locating it: a point outside the closed box, NaN or infinite,
raises :class:`OutOfDomainError` (:class:`SampleOutOfDomainError` for fit
input). :func:`check_finite` raises the same errors on NaN or infinite
coordinates where there is no domain.

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

from .errors import OutOfDomainError, SampleOutOfDomainError

# Rows per chunk of every stream: the draw, sample files, the fit's scatter (whose
# order, hence every coefficient's bits, it fixes), location and evaluation. Small
# enough that a chunk's buffers and temporaries stay in cache.
_CHUNK = 1 << 14

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


def _whole(value, name: str) -> int:
    """``value`` as an int; ``ValueError`` naming ``name`` unless it is a
    whole number, which a boolean is not."""
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):  # NaN, infinities, non-numbers
        whole = None
    if whole is None or whole != value or isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a whole number, got {value}")
    return whole


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


def check_finite(pts: np.ndarray, *, as_samples: bool = False, offset: int = 0) -> None:
    """Raise on the row-major first NaN or infinite coordinate of ``pts``, as
    :meth:`TensorGrid.check_in_domain` raises on one outside its domain (same
    error types, row counted from ``offset``)."""
    _raise_first(pts, (np.isfinite(pts[:, n]) for n in range(pts.shape[1])), as_samples, offset)


def _raise_first(pts: np.ndarray, oks, as_samples: bool, offset: int) -> None:
    """Raise on the row-major first ``(row, axis)`` whose entry of ``oks``, one
    boolean column per axis, is False."""
    offenders = [(int(ok.argmin()), n) for n, ok in enumerate(oks) if not ok.all()]
    if offenders:
        index, axis = min(offenders)
        value = float(pts[index, axis])
        if as_samples:
            raise SampleOutOfDomainError(offset + index, axis, value)
        raise OutOfDomainError(axis, value, index=offset + index)


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
        # as objects: in an array of (True, 3), numpy would make True a 1
        n_delta = np.atleast_1d(np.array(self.n_delta, object))
        n_delta = tuple(_whole(n, "n_delta") for n in n_delta)
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

    # -- domain checks -------------------------------------------------------

    def check_in_domain(
        self, pts: np.ndarray, *, as_samples: bool = False, offset: int = 0
    ) -> None:
        """Raise on the first point outside the closed box domain.

        Works axis-major: each column is tested against its scalar bounds, and
        the offender reported is the row-major first ``(row, axis)``, its row
        counted from ``offset``, the row of ``pts[0]`` in a longer stream. NaN
        and infinite coordinates are outside. Raises
        :class:`SampleOutOfDomainError` when ``as_samples`` is set (fit input),
        :class:`OutOfDomainError` otherwise.
        """

        def inside(column, a, b):
            ok = column >= a
            ok &= column <= b
            return ok

        bounds = zip(self.lower, self.upper)
        _raise_first(pts, (inside(pts[:, n], a, b) for n, (a, b) in enumerate(bounds)),
                     as_samples, offset)

    # -- point location ------------------------------------------------------

    def _locate_with_frac(self, pts: np.ndarray, out=None) -> tuple[np.ndarray, np.ndarray]:
        """Bin indices and within-bin fractional offsets for in-domain points.

        Returns ``(idx, frac)`` with shapes (m, dim); ``frac`` is clipped to
        [0, 1] and forced to exactly 1 on the upper domain boundary so that
        node coordinates reproduce node values exactly.

        Works axis-major: both are transposed views of (dim, m) buffers filled
        one axis at a time against scalar bounds, so every step runs over one
        contiguous row; the float row becomes that axis's ``frac``. ``out``
        may give the two (dim, m) buffers to fill, rows contiguous.

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
        idx, frac = out or (np.empty(pts.T.shape, np.int64), np.empty(pts.T.shape))
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

    def locate_bins(self, points) -> np.ndarray:
        """Bin of each point, an (m, dim) int array; interior faces go to the
        higher-index bin, and the exact upper boundary is clamped into the last
        bin. Raises :class:`OutOfDomainError` for points outside the closed box.
        """
        pts = as_points(points, self.dim)
        bins = np.empty(pts.shape, np.int64)
        for start, idx, _ in self._located(pts):
            bins[start : start + idx.shape[1]] = idx.T
        return bins

    def _located(self, pts: np.ndarray, *, as_samples: bool = False, offset: int = 0,
                 out=None):
        """Yield ``(piece start, idx, frac)``, the (dim, k) location of each
        piece of points, cut where the stream's ``_CHUNK``-row chunks end,
        counting the row of ``pts[0]`` as ``offset``. A piece is located into
        one int64 and one float64 buffer that all pieces share: valid until the
        next step, and the consumer's to overwrite. ``out`` may give that pair
        as (dim, ``_CHUNK``) arrays, each piece at its columns within its chunk.
        :meth:`check_in_domain` (given ``as_samples`` and ``offset``) sees every
        point first, a piece at a time, since the index arithmetic would turn
        one outside into a wrong index."""
        m = pts.shape[0]
        cuts = [0, *range(_CHUNK - offset % _CHUNK, m, _CHUNK), m] if m else []
        pieces = list(zip(cuts, cuts[1:]))
        for a, b in pieces:  # in row order: the first piece to raise holds the first offender
            self.check_in_domain(pts[a:b], as_samples=as_samples, offset=offset + a)
        idx, frac = out or (np.empty((self.dim, min(_CHUNK, m)), np.int64),
                            np.empty((self.dim, min(_CHUNK, m))))
        for a, b in pieces:
            at = (offset + a) % _CHUNK if out else 0
            piece = idx[:, at : at + b - a], frac[:, at : at + b - a]
            self._locate_with_frac(pts[a:b], out=piece)
            yield (a, *piece)

    def _corners(self, idx: np.ndarray, frac: np.ndarray, degree: int):
        """Yield ``(flat index, weight)`` per corner of the points located at
        ``(idx, frac)``, (dim, k) buffers with contiguous rows, which it
        overwrites.

        At ``degree`` 1 the corners are the 2**dim nodes of every point's bin,
        in lexicographic offset order, weighted by their hats; at ``degree`` 0
        the one corner is the point's bin, by its flat index, weighted 1.0.
        The index and weight arrays are buffers reused for every corner, so
        consume them before asking for the next corner, and do not write the
        index array: the next corner's index is stepped from it. It is not
        flagged read-only, since ``np.take`` copies a read-only index.
        """
        if not degree:  # the fractions are free: one row holds the weights
            frac[0].fill(1.0)
            yield _ravel_rows(idx, self.bin_shape), frac[0]
            return
        strides = [math.prod(self.node_shape[n + 1 :]) for n in range(self.dim - 1)]
        flat = _ravel_rows(idx, self.node_shape)  # stepped from corner to corner
        # the other index rows are free now: one holds the leading product, one w
        lead = idx[1].view(np.float64) if self.dim > 1 else None
        w = idx[2].view(np.float64) if self.dim > 2 else np.empty(flat.shape[0])
        *leading, last = frac
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
            yield flat, w
            flat += 1  # the last axis has stride 1
            at = to + 1
            np.multiply(last, 1.0 if prod is None else prod, out=w)
            yield flat, w

    # -- basis integrals -----------------------------------------------------

    @cached_property
    def _layer_factors(self) -> tuple[tuple[float, float], ...]:
        """Per axis, the 1-D hat integral of an interior node and of an end
        node: ``(delta, delta / 2)``.

        A node's hat integral ``C_j`` is the product of its axes' factors.
        The fit's finalization and the density's integral apply them to views
        of one axis's layers, since in 1-D an axis's factor array would be as
        large as the node array; :meth:`basis_integrals` spreads them out.
        """
        return tuple((d, d * 0.5) for d in self.deltas)

    @cached_property
    def _bin_volume(self) -> float:
        """The integral of a bin's indicator, the degree-0 ``C_j``."""
        return float(np.prod(self.deltas))

    def basis_integrals(self) -> np.ndarray:
        """Integrals of all hat functions, shape (n_nodes,), row-major order."""
        axes = (np.concatenate(([end], np.full(s - 2, inner), [end]))
                for s, (inner, end) in zip(self.node_shape, self._layer_factors))
        return reduce(np.multiply.outer, axes).ravel()
