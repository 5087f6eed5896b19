"""Grid construction, point location, and hat-basis properties."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from binpdf import (
    BinPdfError,
    Histogram,
    OutOfDomainError,
    PiecewiseLinearPdf,
    SampleOutOfDomainError,
    TensorGrid,
    fit,
    fit_histogram,
    load_pdf,
    save_pdf,
)
from binpdf.grid import _CHUNK, _ravel_rows, check_finite
from binpdf.grid import _settle as settle


def brute_force_locate(grid, point):
    """Containment scan over all bins with the documented tie rule.

    A bin contains a point when every coordinate satisfies
    ``edge_low <= y < edge_high``, except that the last bin along an axis is
    closed above at the domain boundary. Edge values use the same
    ``lower + i * delta`` expression as the grid, so the comparison is the
    ground truth the O(1) index arithmetic must reproduce.
    """
    for idx in np.ndindex(grid.n_delta):
        inside = True
        for n, i in enumerate(idx):
            lo = grid.lower[n] + i * grid.deltas[n]
            hi = grid.lower[n] + (i + 1) * grid.deltas[n]
            last = i == grid.n_delta[n] - 1
            if not (point[n] >= lo and (point[n] < hi or (last and point[n] <= grid.upper[n]))):
                inside = False
                break
        if inside:
            return idx
    raise AssertionError(f"no bin contains {point}")


def brute_force_locate_all(grid, pts):
    """Same containment scan applied to every point at once."""
    result = np.full((pts.shape[0], grid.dim), -1, dtype=np.int64)
    for idx in np.ndindex(grid.n_delta):
        inside = np.ones(pts.shape[0], dtype=bool)
        for n, i in enumerate(idx):
            lo = grid.lower[n] + i * grid.deltas[n]
            hi = grid.lower[n] + (i + 1) * grid.deltas[n]
            last = i == grid.n_delta[n] - 1
            upper_ok = pts[:, n] <= grid.upper[n] if last else False
            inside &= (pts[:, n] >= lo) & ((pts[:, n] < hi) | upper_ok)
        result[inside] = idx
    assert (result >= 0).all(), "some point matched no bin"
    return result


def rowmajor_locate(grid, pts):
    """Point-major (m, dim) locate arithmetic: one broadcast op per step.

    The grid's axis-major location must reproduce this bit for bit: floor,
    the one-step edge fixup, the clamp, the fraction, the clip and ``frac = 1``
    on the upper bound.
    """
    lower, delta = np.array(grid.lower), np.array(grid.deltas)
    idx = np.floor((pts - lower) / delta).astype(np.int64)
    idx -= pts < lower + idx * delta
    idx += pts >= lower + (idx + 1) * delta
    idx = np.clip(idx, 0, np.array(grid.n_delta) - 1)
    frac = np.clip((pts - (lower + idx * delta)) / delta, 0.0, 1.0)
    frac[pts == np.array(grid.upper)] = 1.0
    return idx, frac


def edge_points(grid, rng, n_random=2000):
    """Every bin edge (two ways of computing it) and its +-1-ulp neighbours on
    every axis, combined across axes, plus random interior points."""
    axes = []
    for a, b, nd, d in zip(grid.lower, grid.upper, grid.n_delta, grid.deltas):
        edges = np.concatenate([a + np.arange(nd + 1) * d, np.linspace(a, b, nd + 1)])
        values = np.concatenate(
            [edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf), [a, b]]
        )
        axes.append(np.unique(np.clip(values, a, b)))
    mesh = np.meshgrid(*axes, indexing="ij")
    grid_pts = np.column_stack([m.ravel() for m in mesh])
    random_pts = rng.uniform(grid.lower, grid.upper, size=(n_random, grid.dim))
    pts = np.concatenate([grid_pts, random_pts])
    return pts[rng.permutation(pts.shape[0])]


# 1-, 2- and 3-D grids with unequal bounds and n_delta per axis, n_delta = 1
# included; on (-2, 0.4, 3) lower + 3 * delta falls below upper, so the fraction
# of points just under upper needs the clip, and on (-7.3, 1.1, 1) it lands above.
# The last four are where the fix-up tolerance decides: offset domains whose edges
# round coarsely relative to delta, 2**16 + 1 bins, and an axis whose delta is
# below ulp(lower), so that every point there takes the fix-up.
LOCATE_GRIDS = [
    ((-1.25,), (3.5,), (7,)),
    ((0.1,), (0.4,), (1,)),
    ((-1.5, -2.0), (1.5, 0.4), (6, 3)),
    ((-2.0, 0.1, -7.3), (2.5, 0.7, 1.1), (3, 11, 1)),
    ((1e6,), (1e6 + 1,), (1000,)),
    ((-3e8,), (7e8,), (97,)),
    ((0.0,), (1.0,), (2**16 + 1,)),
    ((1e6, -1.0), (1e6 + 1e-9, 1.0), (100, 4)),
]


# derandomized: every run draws the same examples, so the suite stays reproducible
PROPERTY = settings(derandomize=True, database=None, max_examples=100, deadline=None)


@st.composite
def random_grids(draw):
    """Grids of 1-3 axes, offset up to 1e9 and as narrow as 1e-9, with few
    enough bins that ``edge_points`` stays small."""
    dim = draw(st.integers(1, 3))
    most = {1: 3000, 2: 16, 3: 4}[dim]
    lower, upper = [], []
    for _ in range(dim):
        a = draw(st.floats(-1e9, 1e9))
        b = a + draw(st.floats(1e-9, 1e9))
        assume(a < b)
        lower.append(a)
        upper.append(b)
    return TensorGrid(lower, upper, draw(st.lists(st.integers(1, most), min_size=dim,
                                                  max_size=dim)))


def rowmajor_first_offender(grid, pts):
    """Row-major first ``(row, axis)`` outside the closed box, or None."""
    bad = np.argwhere(~((pts >= np.array(grid.lower)) & (pts <= np.array(grid.upper))))
    return tuple(int(i) for i in bad[0]) if bad.shape[0] else None


def hat_value(grid, node, point):
    """Direct hat formula, independent of the grid's bin machinery."""
    center = [grid.lower[n] + node[n] * grid.deltas[n] for n in range(grid.dim)]
    out = 1.0
    for n in range(grid.dim):
        out *= max(0.0, 1.0 - abs(point[n] - center[n]) / grid.deltas[n])
    return out


def hat_integral(grid, node):
    """Closed-form hat integral: ``delta`` per axis, halved at the end nodes."""
    return math.prod(d * (0.5 if i in (0, nd) else 1.0)
                     for d, i, nd in zip(grid.deltas, node, grid.n_delta))


def edge_mesh(grid, counts):
    """``lower + index * delta`` for every index below ``counts``, row-major: the
    node coordinates for ``grid.node_shape``, the bins' lower corners for
    ``grid.n_delta``."""
    axes = [a + np.arange(c) * d for a, d, c in zip(grid.lower, grid.deltas, counts)]
    return np.column_stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")])


def unit_hats(grid, points):
    """Column ``j``: node ``j``'s hat at ``points``, evaluated as the density
    whose only nonzero coefficient is a 1 at node ``j``."""
    return np.column_stack([PiecewiseLinearPdf(grid, unit, 1).evaluate_batch(points)
                            for unit in np.eye(grid.n_nodes)])


class TestConstruction:
    def test_scalar_axes_are_normalized(self):
        grid = TensorGrid((0.0,), (1.0,), (4,))
        assert grid.dim == 1
        assert grid.deltas == (0.25,)
        assert grid.n_bins == 4
        assert grid.n_nodes == 5

    def test_mixed_axes(self):
        grid = TensorGrid((0.0, 0.0), (2.0, 3.0), (2, 3))
        assert grid.deltas == (1.0, 1.0)
        assert grid.n_bins == 6
        assert grid.n_nodes == 12

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError, match="lower < upper"):
            TensorGrid((1.0,), (1.0,), (4,))
        with pytest.raises(ValueError, match="lower < upper"):
            TensorGrid((2.0,), (1.0,), (4,))

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError, match=">= 1"):
            TensorGrid((0.0,), (1.0,), (0,))

    @pytest.mark.parametrize("lower, upper, n_delta, width", [
        (-1e308, 1e308, 2, "inf"),  # upper - lower overflows
        (0.0, 5e-324, 2, "0.0"),  # the width underflows
    ])
    def test_rejects_zero_or_infinite_bin_width(self, lower, upper, n_delta, width):
        with pytest.raises(ValueError, match=f"bin width {width} must be finite and > 0"):
            TensorGrid((0.0, lower), (1.0, upper), (4, n_delta))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            TensorGrid((0.0, 0.0), (1.0,), (4,))

    def test_node_count_is_exact_and_bounded_by_flat_index(self):
        limit = np.iinfo(np.intp).max
        with pytest.raises(ValueError, match="flat index"):
            TensorGrid((0.0,) * 3, (1.0,) * 3, (10**7,) * 3)
        with pytest.raises(ValueError, match="flat index"):
            TensorGrid((0.0,), (1.0,), (limit,))
        largest = TensorGrid((0.0,), (1.0,), (limit - 1,))
        assert largest.n_nodes == limit
        assert TensorGrid((0.0,) * 3, (1.0,) * 3, (2**20,) * 3).n_bins == 2**60


class TestIndexing:
    """The row-major flat index of nodes and bins that the stencil, the
    histogram and the saved tables share."""

    @pytest.mark.parametrize("n_delta", [(5,), (3, 4), (2, 3, 4)])
    def test_flat_multi_round_trip(self, n_delta):
        grid = TensorGrid((0.0,) * len(n_delta), (1.0,) * len(n_delta), n_delta)
        for shape in (grid.node_shape, grid.bin_shape):
            idx = np.array(list(np.ndindex(shape)), dtype=np.int64).T
            flat = _ravel_rows(idx.copy(), shape)
            np.testing.assert_array_equal(flat, np.arange(math.prod(shape)))
            np.testing.assert_array_equal(np.unravel_index(flat, shape), idx)

    def test_out_of_range_raises(self, tmp_path):
        # one value per node or bin: a vector that runs short or past the last
        # index is refused, and so is a saved table whose index column does
        grid = TensorGrid((0.0,), (1.0,), (4,))
        for count in (grid.n_nodes - 1, grid.n_nodes + 1):
            with pytest.raises(ValueError, match="need 5 coefficients"):
                PiecewiseLinearPdf(grid, np.ones(count), 1)
        for count in (grid.n_bins - 1, grid.n_bins + 1):
            with pytest.raises(ValueError, match="need 4 values"):
                Histogram(grid, np.ones(count), 1)
        path = tmp_path / "pdf.csv"
        save_pdf(PiecewiseLinearPdf(grid, np.ones(grid.n_nodes), 1), path)
        *rows, last = path.read_text().splitlines()
        path.write_text("\n".join([*rows, "5" + last[last.index(","):]]) + "\n")
        with pytest.raises(BinPdfError, match="permutation"):
            load_pdf(path)


class TestLocateBin:
    def test_interior_point(self):
        grid = TensorGrid((0.0,), (1.0,), (4,))
        assert grid.locate_bins([0.3]).tolist() == [[1]]

    def test_upper_boundary_clamps_to_last_bin(self):
        grid = TensorGrid((0.0,), (1.0,), (4,))
        assert grid.locate_bins([1.0]).tolist() == [[3]]

    def test_corner_clamp_2d(self):
        grid = TensorGrid((-5.5, -5.5), (5.5, 5.5), (8, 8))
        assert grid.locate_bins((-5.5, 5.5)).tolist() == [[0, 7]]

    def test_interior_face_goes_to_higher_bin(self):
        grid = TensorGrid((0.0,), (1.0,), (4,))
        assert grid.locate_bins([0.5]).tolist() == [[2]]

    def test_out_of_domain(self):
        grid = TensorGrid((0.0,), (1.0,), (4,))
        with pytest.raises(OutOfDomainError) as err:
            grid.locate_bins([1.5])
        assert err.value.axis == 0
        assert err.value.value == 1.5
        with pytest.raises(OutOfDomainError):
            grid.locate_bins([-1e-12])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_is_out_of_domain(self, value):
        grid = TensorGrid((0.0, 0.0), (1.0, 1.0), (4, 4))
        with pytest.raises(OutOfDomainError) as err:
            grid.locate_bins([(0.5, 0.5), (0.5, 0.5), (value, 0.5)])
        assert (err.value.index, err.value.axis) == (2, 0)

    @pytest.mark.parametrize(
        "lower,upper,n_delta",
        [
            ((0.0,), (1.0,), (7,)),
            ((-5.5,), (5.5,), (32,)),
            ((-1.5, 0.0), (1.5, 3.0), (6, 5)),
            ((-2.0, -2.0, -2.0), (2.0, 2.0, 2.0), (3, 4, 5)),
        ],
    )
    def test_matches_brute_force_on_random_points(self, lower, upper, n_delta):
        grid = TensorGrid(lower, upper, n_delta)
        rng = np.random.default_rng(42)
        pts = rng.uniform(lower, upper, size=(10_000, grid.dim))
        np.testing.assert_array_equal(grid.locate_bins(pts), brute_force_locate_all(grid, pts))

    def test_matches_brute_force_on_boundary_straddling_points(self):
        grid = TensorGrid((-1.5, 0.0), (1.5, 3.0), (6, 5))
        rng = np.random.default_rng(7)
        pts = []
        while len(pts) < 1000:
            p = []
            for n in range(grid.dim):
                k = rng.integers(0, grid.n_delta[n] + 1)
                face = grid.lower[n] + k * grid.deltas[n]
                face += rng.choice([0.0, 1e-13, -1e-13]) * max(1.0, abs(face))
                nudge = rng.choice([0, 1, -1])
                for _ in range(abs(nudge)):
                    face = np.nextafter(face, np.inf if nudge > 0 else -np.inf)
                p.append(min(max(face, grid.lower[n]), grid.upper[n]))
            pts.append(p)
        for p in pts:
            assert grid.locate_bins(p).tolist() == [list(brute_force_locate(grid, p))]

    def test_locate_bins_matches_scalar(self):
        grid = TensorGrid((0.0, 0.0), (1.0, 1.0), (4, 3))
        rng = np.random.default_rng(3)
        pts = rng.random((100, 2))
        batch = grid.locate_bins(pts)
        for i in range(100):
            np.testing.assert_array_equal(batch[i : i + 1], grid.locate_bins(pts[i]))


class TestAxisMajorLocate:
    @pytest.mark.parametrize("lower,upper,n_delta", LOCATE_GRIDS)
    def test_bit_identical_to_rowmajor_arithmetic(self, lower, upper, n_delta):
        grid = TensorGrid(lower, upper, n_delta)
        pts = edge_points(grid, np.random.default_rng(len(n_delta)))
        idx, frac = grid._locate_with_frac(pts)
        want_idx, want_frac = rowmajor_locate(grid, pts)
        assert idx.shape == frac.shape == pts.shape
        np.testing.assert_array_equal(idx, want_idx)
        np.testing.assert_array_equal(frac, want_frac)
        np.testing.assert_array_equal(np.signbit(frac), np.signbit(want_frac))
        np.testing.assert_array_equal(grid.locate_bins(pts), want_idx)

    def test_every_point_takes_the_fix_up_when_delta_is_below_an_ulp(self, monkeypatch):
        grid = TensorGrid(*LOCATE_GRIDS[-1])
        assert grid.deltas[0] < np.spacing(grid.lower[0])
        pts = edge_points(grid, np.random.default_rng(9))
        settled = []

        def counted(p, *args):
            settled.append(p.size)
            return settle(p, *args)

        monkeypatch.setattr("binpdf.grid._settle", counted)
        grid._locate_with_frac(pts)
        assert settled[0] == pts.shape[0]  # the first axis: every point
        assert 0 < settled[1] < pts.shape[0] / 2  # the second: edge points only

    @PROPERTY
    @given(random_grids(), st.integers(0, 2**32 - 1))
    def test_random_grids_are_bit_identical_to_rowmajor_arithmetic(self, grid, seed):
        pts = edge_points(grid, np.random.default_rng(seed), n_random=200)
        idx, frac = grid._locate_with_frac(pts)
        want_idx, want_frac = rowmajor_locate(grid, pts)
        np.testing.assert_array_equal(idx, want_idx)
        np.testing.assert_array_equal(frac, want_frac)
        np.testing.assert_array_equal(np.signbit(frac), np.signbit(want_frac))

    @pytest.mark.parametrize("lower,upper,n_delta", LOCATE_GRIDS)
    def test_single_point_matches_batch(self, lower, upper, n_delta):
        grid = TensorGrid(lower, upper, n_delta)
        pts = edge_points(grid, np.random.default_rng(5), n_random=0)[:200]
        want_idx, _ = rowmajor_locate(grid, pts)
        for p, want in zip(pts, want_idx):
            np.testing.assert_array_equal(grid.locate_bins(p), [want])


class TestCheckInDomain:
    GRID = TensorGrid((-1.0, 2.0), (1.0, 5.0), (4, 3))

    def points(self, bad_cells):
        pts = np.tile([0.5, 3.0], (10, 1))
        for (row, axis), value in bad_cells.items():
            pts[row, axis] = value
        return pts

    def assert_reports(self, grid, pts, as_samples):
        want = rowmajor_first_offender(grid, pts)
        kind = SampleOutOfDomainError if as_samples else OutOfDomainError
        with pytest.raises(kind) as err:
            grid.check_in_domain(pts, as_samples=as_samples)
        assert as_samples or not isinstance(err.value, SampleOutOfDomainError)
        assert (err.value.index, err.value.axis) == want
        np.testing.assert_equal(err.value.value, pts[want])
        return want

    @pytest.mark.parametrize("as_samples", [False, True])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 7.0, -1.0 - 1e-12])
    def test_reports_rowmajor_first_offender(self, value, as_samples):
        # a later row on a lower axis must not win over an earlier row
        pts = self.points({(5, 1): value, (7, 0): value})
        assert self.assert_reports(self.GRID, pts, as_samples) == (5, 1)
        # both axes of one row: the lower axis wins
        pts = self.points({(4, 1): value, (4, 0): -value, (2, 1): 3.5})
        assert self.assert_reports(self.GRID, pts, as_samples) == (4, 0)

    @pytest.mark.parametrize("as_samples", [False, True])
    def test_random_bad_cells_match_rowmajor_scan(self, as_samples):
        rng = np.random.default_rng(17)
        grid = TensorGrid(*LOCATE_GRIDS[3])
        for _ in range(30):
            pts = rng.uniform(grid.lower, grid.upper, size=(50, 3))
            cells = rng.random(pts.shape) < 0.02
            pts[cells] = rng.choice([np.nan, np.inf, -np.inf, 1e3, -1e3], size=cells.sum())
            if cells.any():
                self.assert_reports(grid, pts, as_samples)
            else:
                grid.check_in_domain(pts, as_samples=as_samples)

    def test_closed_bounds_and_fortran_order_pass(self):
        pts = np.asfortranarray(np.array([[-1.0, 2.0], [1.0, 5.0], [0.0, 3.3]]))
        self.GRID.check_in_domain(pts)
        self.GRID.check_in_domain(pts, as_samples=True)


OUTSIDE_UNIT_BOX = [-0.5, 1.7, np.nan, -np.inf]


class TestCheckFinite:
    @pytest.mark.parametrize("as_samples", [False, True])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_names_the_row_major_first_offender_from_the_offset(self, as_samples, value):
        pts = np.full((50, 3), 1e300)
        pts[20, 2] = pts[21, 0] = pts[40, 1] = value
        with pytest.raises(SampleOutOfDomainError if as_samples else OutOfDomainError) as err:
            check_finite(pts, as_samples=as_samples, offset=1000)
        assert as_samples or not isinstance(err.value, SampleOutOfDomainError)
        assert (err.value.index, err.value.axis) == (1020, 2)
        np.testing.assert_equal(err.value.value, value)

    def test_finite_points_pass(self):
        check_finite(np.array([[1.7976931348623157e308, -5e-324]]))
        check_finite(np.empty((0, 2)))

    def test_domain_check_counts_rows_from_the_offset(self):
        grid = TensorGrid((0.0,), (1.0,), (4,))
        with pytest.raises(SampleOutOfDomainError) as err:
            grid.check_in_domain(np.array([[0.5], [1.5]]), as_samples=True, offset=7)
        assert (err.value.index, err.value.axis, err.value.value) == (8, 0, 1.5)


def stencil(grid, pts, degree=1, **kwargs):
    """Yield ``(piece start, flat index, weight)`` per corner: the
    ``_corners`` of each piece of the location stream ``_located``."""
    for start, idx, frac in grid._located(pts, **kwargs):
        for flat, w in grid._corners(idx, frac, degree):
            yield start, flat, w


# the location stream, and the corners that fit and evaluation read from it
STREAMS = {"_located": lambda grid, pts, **kwargs: grid._located(pts, **kwargs),
           "_stencil": stencil}


def second_chunk_offenders(value):
    """Points in [0, 1]**2 whose first chunk is inside; the second chunk holds
    ``value`` at (row ``_CHUNK + 3``, axis 1) and then at (``_CHUNK + 4``, 0)."""
    pts = np.full((_CHUNK + 5, 2), 0.5)
    pts[_CHUNK + 3, 1] = value
    pts[_CHUNK + 4, 0] = value
    return pts, (_CHUNK + 3, 1)


class TestLocationStreamChecksDomain:
    GRID = TensorGrid((0.0, 0.0), (1.0, 1.0), (4, 4))

    @pytest.mark.parametrize("stream", ["_located", "_stencil"])
    @pytest.mark.parametrize("as_samples", [False, True])
    @pytest.mark.parametrize("value", OUTSIDE_UNIT_BOX)
    def test_raises_before_the_first_chunk(self, stream, as_samples, value):
        # unchecked, the first chunk would be yielded and the offender located
        # to a wrong index (below 0 or past the last node; NaN casts to -2**63)
        pts, (row, axis) = second_chunk_offenders(value)
        chunks = STREAMS[stream](self.GRID, pts, as_samples=as_samples)
        with pytest.raises(SampleOutOfDomainError if as_samples else OutOfDomainError) as err:
            next(chunks)
        assert as_samples or not isinstance(err.value, SampleOutOfDomainError)
        assert (err.value.index, err.value.axis) == (row, axis)
        np.testing.assert_equal(err.value.value, value)

    @pytest.mark.parametrize("stream", ["_located", "_stencil"])
    def test_default_is_not_sample_error(self, stream):
        pts, _ = second_chunk_offenders(-0.5)
        with pytest.raises(OutOfDomainError) as err:
            list(STREAMS[stream](self.GRID, pts))
        assert not isinstance(err.value, SampleOutOfDomainError)

    @pytest.mark.parametrize("value", OUTSIDE_UNIT_BOX)
    def test_public_entry_points_keep_their_errors(self, value):
        grid = self.GRID
        pts, (row, axis) = second_chunk_offenders(value)
        pdf = PiecewiseLinearPdf(grid, np.ones(grid.n_nodes), 1)
        histogram = Histogram(grid, np.ones(grid.n_bins), 1)
        cases = [
            (lambda: fit(grid, pts), SampleOutOfDomainError, row),
            (lambda: fit_histogram(grid, pts), SampleOutOfDomainError, row),
            (lambda: pdf.evaluate_batch(pts), OutOfDomainError, row),
            (lambda: histogram.evaluate_batch(pts), OutOfDomainError, row),
            (lambda: pdf.evaluate(pts[row]), OutOfDomainError, 0),
            (lambda: grid.locate_bins(pts), OutOfDomainError, row),
            (lambda: grid.locate_bins(pts[row]), OutOfDomainError, 0),
        ]
        for call, kind, index in cases:
            with pytest.raises(kind) as err:
                call()
            assert type(err.value) is kind
            assert (err.value.index, err.value.axis) == (index, axis)
            np.testing.assert_equal(err.value.value, value)


class TestLocationStreamPieces:
    """``_located`` cuts its pieces where the stream's chunks end, counting rows
    from ``offset``, and locates them as :meth:`TensorGrid.locate_bins` does."""

    GRID = TensorGrid((-1.0, 0.0), (2.0, 1.0), (7, 5))

    @pytest.mark.parametrize("offset", [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 5])
    @pytest.mark.parametrize("m", [1, _CHUNK - 1, _CHUNK, _CHUNK + 1,
                                   2 * _CHUNK - 1, 2 * _CHUNK, 2 * _CHUNK + 1])
    def test_pieces_end_at_chunk_ends_and_locate_every_row(self, offset, m):
        grid = self.GRID
        pts = np.random.default_rng(m + offset).uniform(grid.lower, grid.upper, (m, 2))
        expected = grid.locate_bins(pts)
        out = np.empty((2, _CHUNK), np.int64), np.empty((2, _CHUNK))
        fracs = []
        for buffers in (None, out):
            rows, located = 0, np.empty((m, 2))
            for start, idx, frac in grid._located(pts, offset=offset, out=buffers):
                end = start + idx.shape[1]
                assert start == rows and start < end
                assert (offset + end) % _CHUNK == 0 or end == m
                assert np.array_equal(idx.T, expected[start:end])
                if buffers is not None:  # at the piece's columns within its chunk
                    at = (offset + start) % _CHUNK
                    assert np.shares_memory(idx[:, 0], out[0][:, at])
                    assert np.shares_memory(frac[:, 0], out[1][:, at])
                located[start:end] = frac.T
                rows = end
            assert rows == m
            fracs.append(located)
        assert np.array_equal(*fracs)


class TestNodeCoords:
    """Node coordinates as a saved density's table states them."""

    @staticmethod
    def table(grid, tmp_path):
        path = tmp_path / "pdf.csv"
        save_pdf(PiecewiseLinearPdf(grid, np.zeros(grid.n_nodes), 1), path)
        return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)

    def test_examples(self, tmp_path):
        def node_coords(grid, node):
            return self.table(grid, tmp_path)[np.ravel_multi_index(node, grid.node_shape), 1:-1]

        assert node_coords(TensorGrid((0.0,), (1.0,), (2,)), (1,)) == pytest.approx([0.5])
        assert node_coords(TensorGrid((-5.5,), (5.5,), (4,)), (0,))[0] == -5.5
        grid = TensorGrid((0.0, 0.0), (2.0, 3.0), (2, 3))
        np.testing.assert_array_equal(node_coords(grid, (2, 3)), [2.0, 3.0])

    def test_node_coords_array_order(self, tmp_path):
        grid = TensorGrid((0.0, 0.0), (1.0, 1.0), (2, 2))
        table = self.table(grid, tmp_path)
        np.testing.assert_array_equal(table[:, 0], np.arange(grid.n_nodes))
        for flat in range(grid.n_nodes):
            node = np.unravel_index(flat, grid.node_shape)
            np.testing.assert_array_equal(
                table[flat, 1:-1], [a + i * d for a, i, d in zip(grid.lower, node, grid.deltas)]
            )


class TestBasisEval:
    """Each node's hat, read through evaluation of a unit-coefficient density."""

    @pytest.mark.parametrize(
        "lower,upper,n_delta",
        [((0.0,), (1.0,), (4,)), ((0.0, -1.0), (2.0, 1.0), (4, 4)), ((0.0,) * 3, (1.0,) * 3, (4, 4, 4))],
    )
    def test_kronecker_property_is_exact(self, lower, upper, n_delta):
        grid = TensorGrid(lower, upper, n_delta)
        hats = unit_hats(grid, edge_mesh(grid, grid.node_shape))
        np.testing.assert_array_equal(hats, np.eye(grid.n_nodes))

    def test_1d_midpoint(self):
        grid = TensorGrid((0.0,), (1.0,), (2,))
        assert unit_hats(grid, [0.25])[0, 1] == pytest.approx(0.5, abs=1e-15)

    def test_2d_tensor_product(self):
        grid = TensorGrid((0.0, 0.0), (1.0, 1.0), (2, 2))
        node = np.ravel_multi_index((1, 1), grid.node_shape)
        assert unit_hats(grid, (0.25, 0.25))[0, node] == pytest.approx(0.25, abs=1e-15)

    def test_matches_direct_hat_formula(self):
        grid = TensorGrid((-1.5, 0.0), (1.5, 3.0), (5, 4))
        rng = np.random.default_rng(11)
        pts = rng.uniform(grid.lower, grid.upper, size=(200, 2))
        hats = unit_hats(grid, pts)
        for flat, node in enumerate(np.ndindex(grid.node_shape)):
            want = [hat_value(grid, node, p) for p in pts]
            np.testing.assert_allclose(hats[:, flat], want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n_delta", [(8,), (4, 4), (3, 3, 3)])
    def test_partition_of_unity(self, n_delta):
        # the hats of the 2**dim vertices of each point's bin sum to one there
        dim = len(n_delta)
        grid = TensorGrid((-2.0,) * dim, (2.0,) * dim, n_delta)
        rng = np.random.default_rng(5)
        pts = rng.uniform(-2.0, 2.0, size=(10_000, dim))[:500]
        hats, bins = unit_hats(grid, pts), grid.locate_bins(pts)
        total = np.zeros(pts.shape[0])
        for offsets in itertools.product((0, 1), repeat=dim):
            vertex = np.ravel_multi_index(tuple((bins + offsets).T), grid.node_shape)
            total += hats[np.arange(pts.shape[0]), vertex]
        np.testing.assert_allclose(total, 1.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n_delta", [(8,), (4, 4), (3, 3, 3)])
    def test_partition_of_unity_vectorized(self, n_delta):
        # an all-ones coefficient vector turns evaluation into the sum of
        # every hat active at the point
        dim = len(n_delta)
        grid = TensorGrid((-2.0,) * dim, (2.0,) * dim, n_delta)
        ones = PiecewiseLinearPdf(grid, np.ones(grid.n_nodes), 1)
        rng = np.random.default_rng(5)
        pts = rng.uniform(-2.0, 2.0, size=(10_000, dim))
        np.testing.assert_allclose(ones.evaluate_batch(pts), 1.0, atol=1e-12, rtol=0)

    def test_locality(self):
        grid = TensorGrid((0.0,), (1.0,), (10,))
        rng = np.random.default_rng(2)
        xs = rng.random(200)
        far = np.abs(xs[:, None] - edge_mesh(grid, grid.node_shape)[:, 0]) >= grid.deltas[0]
        assert (unit_hats(grid, xs)[far] == 0.0).all()


class TestBasisIntegral:
    def quadrature_integral(self, grid, node, points_per_bin=1000):
        """Composite midpoint rule over every bin, axis-product form."""
        total = 1.0
        for n in range(grid.dim):
            d = grid.deltas[n]
            axis_total = 0.0
            for i in range(grid.n_delta[n]):
                lo = grid.lower[n] + i * d
                x = lo + (np.arange(points_per_bin) + 0.5) * (d / points_per_bin)
                c = grid.lower[n] + node[n] * d
                axis_total += np.maximum(0.0, 1.0 - np.abs(x - c) / d).sum() * d / points_per_bin
            total *= axis_total
        return total

    def basis_integral(self, grid, node):
        return grid.basis_integrals()[np.ravel_multi_index(node, grid.node_shape)]

    def test_1d_interior_and_boundary(self):
        grid = TensorGrid((0.0,), (1.0,), (4,))
        assert self.basis_integral(grid, (2,)) == pytest.approx(0.25, abs=1e-15)
        assert self.basis_integral(grid, (0,)) == pytest.approx(0.125, abs=1e-15)
        assert self.basis_integral(grid, (4,)) == pytest.approx(0.125, abs=1e-15)
        for j in range(5):
            assert self.basis_integral(grid, (j,)) == pytest.approx(
                self.quadrature_integral(grid, (j,)), abs=1e-9
            )

    def test_2d_corner(self):
        grid = TensorGrid((0.0, 0.0), (1.0, 1.0), (4, 4))
        assert self.basis_integral(grid, (0, 0)) == pytest.approx(0.015625, abs=1e-15)
        assert self.basis_integral(grid, (0, 4)) == pytest.approx(
            self.quadrature_integral(grid, (0, 4)), abs=1e-9
        )
        assert self.basis_integral(grid, (2, 1)) == pytest.approx(
            self.quadrature_integral(grid, (2, 1)), abs=1e-9
        )

    @pytest.mark.parametrize(
        "lower,upper,n_delta",
        [((0.0,), (1.0,), (7,)), ((-5.5, 0.0), (5.5, 2.0), (6, 3)), ((0.0,) * 3, (2.0,) * 3, (3, 2, 4))],
    )
    def test_integrals_sum_to_volume(self, lower, upper, n_delta):
        grid = TensorGrid(lower, upper, n_delta)
        volume = np.prod(np.subtract(grid.upper, grid.lower))
        assert grid.basis_integrals().sum() == pytest.approx(volume, abs=1e-10)

    def test_basis_integrals_matches_scalar(self):
        grid = TensorGrid((0.0, -1.0), (2.0, 1.0), (3, 4))
        all_c = grid.basis_integrals()
        for flat, node in enumerate(np.ndindex(grid.node_shape)):
            assert all_c[flat] == hat_integral(grid, node)


class TestBinVertices:
    """The corners the stencil visits for a point: the 2**dim vertices of its bin."""

    @staticmethod
    def vertices(grid, point):
        pts = np.asarray(point, dtype=np.float64).reshape(1, grid.dim)
        return [tuple(int(i) for i in np.unravel_index(int(flat[0]), grid.node_shape))
                for _, flat, _ in stencil(grid, pts)]

    def test_1d(self):
        grid = TensorGrid((0.0,), (1.0,), (4,))
        assert self.vertices(grid, [0.625]) == [(2,), (3,)]

    def test_2d(self):
        grid = TensorGrid((0.0, 0.0), (1.0, 1.0), (2, 2))
        assert set(self.vertices(grid, (0.25, 0.25))) == {(0, 0), (1, 0), (0, 1), (1, 1)}

    def test_3d_distinct_and_valid(self):
        grid = TensorGrid((0.0,) * 3, (1.0,) * 3, (2, 3, 2))
        for idx in np.ndindex(grid.n_delta):
            center = [a + (i + 0.5) * d for a, i, d in zip(grid.lower, idx, grid.deltas)]
            vertices = self.vertices(grid, center)
            assert len(set(vertices)) == 8
            for v in vertices:
                offsets = np.subtract(v, idx)
                assert ((offsets == 0) | (offsets == 1)).all()
                assert all(0 <= i < s for i, s in zip(v, grid.node_shape))
