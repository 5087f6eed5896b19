"""Grid construction, indexing, point location, and hat-basis properties."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from binpdf import IndexOutOfRangeError, OutOfDomainError, SampleOutOfDomainError, TensorGrid
from binpdf.grid import _settle as settle


def brute_force_locate(grid, point):
    """Containment scan over all bins with the documented tie rule.

    A bin contains a point when every coordinate satisfies
    ``edge_low <= y < edge_high``, except that the last bin along an axis is
    closed above at the domain boundary. Edge values use the same
    ``lower + i * delta`` expression as the grid, so the comparison is the
    ground truth the O(1) index arithmetic must reproduce.
    """
    for flat in range(grid.n_bins):
        idx = grid.bin_multi_index(flat)
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
    for flat in range(grid.n_bins):
        idx = grid.bin_multi_index(flat)
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
        assert grid.volume == 6.0

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
    @pytest.mark.parametrize("n_delta", [(5,), (3, 4), (2, 3, 4)])
    def test_flat_multi_round_trip(self, n_delta):
        grid = TensorGrid((0.0,) * len(n_delta), (1.0,) * len(n_delta), n_delta)
        for flat in range(grid.n_nodes):
            assert grid.node_flat_index(grid.node_multi_index(flat)) == flat
        for flat in range(grid.n_bins):
            assert grid.bin_flat_index(grid.bin_multi_index(flat)) == flat

    def test_out_of_range_raises(self):
        grid = TensorGrid((0.0,), (1.0,), (4,))
        with pytest.raises(IndexOutOfRangeError):
            grid.node_flat_index((5,))
        with pytest.raises(IndexOutOfRangeError):
            grid.bin_flat_index((4,))
        with pytest.raises(IndexOutOfRangeError):
            grid.node_multi_index(5**2)
        with pytest.raises(IndexOutOfRangeError):
            grid.node_coords((-1,))


class TestLocateBin:
    def test_interior_point(self):
        grid = TensorGrid((0.0,), (1.0,), (4,))
        assert grid.locate_bin([0.3]) == (1,)

    def test_upper_boundary_clamps_to_last_bin(self):
        grid = TensorGrid((0.0,), (1.0,), (4,))
        assert grid.locate_bin([1.0]) == (3,)

    def test_corner_clamp_2d(self):
        grid = TensorGrid((-5.5, -5.5), (5.5, 5.5), (8, 8))
        assert grid.locate_bin((-5.5, 5.5)) == (0, 7)

    def test_interior_face_goes_to_higher_bin(self):
        grid = TensorGrid((0.0,), (1.0,), (4,))
        assert grid.locate_bin([0.5]) == (2,)

    def test_out_of_domain(self):
        grid = TensorGrid((0.0,), (1.0,), (4,))
        with pytest.raises(OutOfDomainError) as err:
            grid.locate_bin([1.5])
        assert err.value.axis == 0
        assert err.value.value == 1.5
        with pytest.raises(OutOfDomainError):
            grid.locate_bin([-1e-12])

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
            assert grid.locate_bin(p) == brute_force_locate(grid, p)

    def test_locate_bins_matches_scalar(self):
        grid = TensorGrid((0.0, 0.0), (1.0, 1.0), (4, 3))
        rng = np.random.default_rng(3)
        pts = rng.random((100, 2))
        batch = grid.locate_bins(pts)
        for i in range(100):
            assert tuple(batch[i]) == grid.locate_bin(pts[i])


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
            assert grid.locate_bin(p) == tuple(want)


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


class TestNodeCoords:
    def test_examples(self):
        assert TensorGrid((0.0,), (1.0,), (2,)).node_coords((1,)) == pytest.approx([0.5])
        assert TensorGrid((-5.5,), (5.5,), (4,)).node_coords((0,))[0] == -5.5
        grid = TensorGrid((0.0, 0.0), (2.0, 3.0), (2, 3))
        np.testing.assert_array_equal(grid.node_coords((2, 3)), [2.0, 3.0])

    def test_node_coords_array_order(self):
        grid = TensorGrid((0.0, 0.0), (1.0, 1.0), (2, 2))
        coords = grid.node_coords_array()
        for flat in range(grid.n_nodes):
            np.testing.assert_array_equal(
                coords[flat], grid.node_coords(grid.node_multi_index(flat))
            )


class TestBasisEval:
    @pytest.mark.parametrize(
        "lower,upper,n_delta",
        [((0.0,), (1.0,), (4,)), ((0.0, -1.0), (2.0, 1.0), (4, 4)), ((0.0,) * 3, (1.0,) * 3, (4, 4, 4))],
    )
    def test_kronecker_property_is_exact(self, lower, upper, n_delta):
        grid = TensorGrid(lower, upper, n_delta)
        for j in range(grid.n_nodes):
            node = grid.node_multi_index(j)
            for jp in range(grid.n_nodes):
                value = grid.basis_eval(node, grid.node_coords(grid.node_multi_index(jp)))
                assert value == (1.0 if j == jp else 0.0)

    def test_1d_midpoint(self):
        grid = TensorGrid((0.0,), (1.0,), (2,))
        assert grid.basis_eval((1,), [0.25]) == pytest.approx(0.5, abs=1e-15)

    def test_2d_tensor_product(self):
        grid = TensorGrid((0.0, 0.0), (1.0, 1.0), (2, 2))
        assert grid.basis_eval((1, 1), (0.25, 0.25)) == pytest.approx(0.25, abs=1e-15)

    def test_matches_direct_hat_formula(self):
        grid = TensorGrid((-1.5, 0.0), (1.5, 3.0), (5, 4))
        rng = np.random.default_rng(11)
        pts = rng.uniform(grid.lower, grid.upper, size=(200, 2))
        for p in pts:
            for flat in range(grid.n_nodes):
                node = grid.node_multi_index(flat)
                assert grid.basis_eval(node, p) == pytest.approx(
                    hat_value(grid, node, p), abs=1e-12
                )

    @pytest.mark.parametrize("n_delta", [(8,), (4, 4), (3, 3, 3)])
    def test_partition_of_unity(self, n_delta):
        dim = len(n_delta)
        grid = TensorGrid((-2.0,) * dim, (2.0,) * dim, n_delta)
        rng = np.random.default_rng(5)
        pts = rng.uniform(-2.0, 2.0, size=(10_000, dim))
        for p in pts[:500]:
            vertices = grid.bin_vertices(grid.locate_bin(p))
            total = sum(grid.basis_eval(v, p) for v in vertices)
            assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n_delta", [(8,), (4, 4), (3, 3, 3)])
    def test_partition_of_unity_vectorized(self, n_delta):
        # an all-ones coefficient vector turns evaluation into the sum of
        # every hat active at the point
        from binpdf import PiecewiseLinearPdf

        dim = len(n_delta)
        grid = TensorGrid((-2.0,) * dim, (2.0,) * dim, n_delta)
        ones = PiecewiseLinearPdf(grid, np.ones(grid.n_nodes), 1)
        rng = np.random.default_rng(5)
        pts = rng.uniform(-2.0, 2.0, size=(10_000, dim))
        np.testing.assert_allclose(ones.evaluate_batch(pts), 1.0, atol=1e-12, rtol=0)

    def test_locality(self):
        grid = TensorGrid((0.0,), (1.0,), (10,))
        rng = np.random.default_rng(2)
        for x in rng.random(200):
            for j in range(grid.n_nodes):
                if abs(x - grid.node_coords((j,))[0]) >= grid.deltas[0]:
                    assert grid.basis_eval((j,), [x]) == 0.0


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

    def test_1d_interior_and_boundary(self):
        grid = TensorGrid((0.0,), (1.0,), (4,))
        assert grid.basis_integral((2,)) == pytest.approx(0.25, abs=1e-15)
        assert grid.basis_integral((0,)) == pytest.approx(0.125, abs=1e-15)
        assert grid.basis_integral((4,)) == pytest.approx(0.125, abs=1e-15)
        for j in range(5):
            assert grid.basis_integral((j,)) == pytest.approx(
                self.quadrature_integral(grid, (j,)), abs=1e-9
            )

    def test_2d_corner(self):
        grid = TensorGrid((0.0, 0.0), (1.0, 1.0), (4, 4))
        assert grid.basis_integral((0, 0)) == pytest.approx(0.015625, abs=1e-15)
        assert grid.basis_integral((0, 4)) == pytest.approx(
            self.quadrature_integral(grid, (0, 4)), abs=1e-9
        )
        assert grid.basis_integral((2, 1)) == pytest.approx(
            self.quadrature_integral(grid, (2, 1)), abs=1e-9
        )

    @pytest.mark.parametrize(
        "lower,upper,n_delta",
        [((0.0,), (1.0,), (7,)), ((-5.5, 0.0), (5.5, 2.0), (6, 3)), ((0.0,) * 3, (2.0,) * 3, (3, 2, 4))],
    )
    def test_integrals_sum_to_volume(self, lower, upper, n_delta):
        grid = TensorGrid(lower, upper, n_delta)
        assert grid.basis_integrals().sum() == pytest.approx(grid.volume, abs=1e-10)

    def test_basis_integrals_matches_scalar(self):
        grid = TensorGrid((0.0, -1.0), (2.0, 1.0), (3, 4))
        all_c = grid.basis_integrals()
        for flat in range(grid.n_nodes):
            assert all_c[flat] == grid.basis_integral(grid.node_multi_index(flat))


class TestBinVertices:
    def test_1d(self):
        grid = TensorGrid((0.0,), (1.0,), (4,))
        assert grid.bin_vertices((2,)) == [(2,), (3,)]

    def test_2d(self):
        grid = TensorGrid((0.0, 0.0), (1.0, 1.0), (2, 2))
        assert set(grid.bin_vertices((0, 0))) == {(0, 0), (1, 0), (0, 1), (1, 1)}

    def test_3d_distinct_and_valid(self):
        grid = TensorGrid((0.0,) * 3, (1.0,) * 3, (2, 3, 2))
        for flat in range(grid.n_bins):
            vertices = grid.bin_vertices(grid.bin_multi_index(flat))
            assert len(set(vertices)) == 8
            for v in vertices:
                grid.node_flat_index(v)
