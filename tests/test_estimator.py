"""Fit, evaluation, integral, and serialization of the piecewise-linear estimator."""

import itertools
import math
import os
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binpdf import (
    EmptySampleSetError,
    GridTooLargeError,
    OutOfDomainError,
    PiecewiseLinearPdf,
    SampleOutOfDomainError,
    TensorGrid,
    fit,
    fit_histogram,
    load_pdf,
    save_pdf,
)

from binpdf import estimator
from binpdf.baselines import HistogramAccumulator
from binpdf.estimator import Accumulator
from binpdf.grid import _CHUNK
from test_grid import (
    LOCATE_GRIDS,
    edge_mesh,
    edge_points,
    hat_integral,
    hat_value,
    rowmajor_locate,
    unit_hats,
)


def all_nodes_fit(grid, samples):
    """Oracle: coefficients from the direct hat formula at every node.

    Visits every (node, sample) pair with no locality shortcut, using the
    explicit ``max(0, 1 - |y - node| / delta)`` product rather than the
    fit path's bin location and corner weights.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim == 1:
        samples = samples.reshape(-1, 1)
    m = samples.shape[0]
    coeffs = np.zeros(grid.n_nodes)
    for flat, node in enumerate(np.ndindex(grid.node_shape)):
        weight = sum(hat_value(grid, node, y) for y in samples)
        coeffs[flat] = weight / (m * hat_integral(grid, node))
    return coeffs


def rowmajor_corners(grid, pts):
    """Yield ``(chunk start, flat node index, hat weight)`` per chunk and corner,
    from the point-major locate arithmetic, in the fit's chunk and corner order."""
    for start in range(0, pts.shape[0], _CHUNK):
        idx, frac = rowmajor_locate(grid, pts[start : start + _CHUNK])
        base = np.ravel_multi_index(tuple(idx.T), grid.node_shape)
        for offsets in itertools.product((0, 1), repeat=grid.dim):
            w = np.ones(base.shape[0])
            for n, o in enumerate(offsets):
                w *= frac[:, n] if o else 1.0 - frac[:, n]
            yield start, base + np.ravel_multi_index(offsets, grid.node_shape), w


def axis_hat_integrals(grid):
    """Per axis, the 1-D hat integral of each node along it: the grid's
    interior factor, and its end factor at both end nodes."""
    factors = []
    for s, (inner, end) in zip(grid.node_shape, grid._layer_factors):
        factors.append(np.full(s, inner))
        factors[-1][[0, -1]] = end
    return factors


def rowmajor_fit(grid, samples):
    """Oracle: the fit's scatter and finalization on point-major location."""
    sums = np.zeros(grid.n_nodes)
    for _, flat, w in rowmajor_corners(grid, samples):
        np.add.at(sums, flat, w)
    sums /= samples.shape[0]
    nodes = sums.reshape(grid.node_shape)
    for n, c in enumerate(axis_hat_integrals(grid)):
        nodes /= c.reshape((-1,) + (1,) * (grid.dim - n - 1))
    return sums


def rowmajor_evaluate(grid, coefficients, pts):
    """Oracle: corner-by-corner evaluation on point-major location."""
    values = np.zeros(pts.shape[0])
    for start, flat, w in rowmajor_corners(grid, pts):
        values[start : start + flat.shape[0]] += w * coefficients[flat]
    return values


def random_grid(rng, dim, max_n=5):
    lower = rng.uniform(-3.0, 0.0, size=dim)
    upper = lower + rng.uniform(0.5, 4.0, size=dim)
    n_delta = tuple(int(n) for n in rng.integers(1, max_n + 1, size=dim))
    return TensorGrid(tuple(lower), tuple(upper), n_delta)


class TestFitHandExamples:
    def test_single_sample_at_interior_node(self):
        grid = TensorGrid((0.0,), (1.0,), (2,))
        pdf = fit(grid, [0.5])
        np.testing.assert_allclose(pdf.coefficients, [0.0, 2.0, 0.0], atol=1e-15)
        assert pdf.integral() == pytest.approx(1.0, abs=1e-15)

    def test_two_symmetric_samples(self):
        grid = TensorGrid((0.0,), (1.0,), (2,))
        pdf = fit(grid, [0.25, 0.75])
        np.testing.assert_allclose(pdf.coefficients, [1.0, 1.0, 1.0], atol=1e-15)
        assert pdf.integral() == pytest.approx(1.0, abs=1e-15)

    def test_2d_single_sample_spreads_over_four_nodes(self):
        grid = TensorGrid((0.0, 0.0), (1.0, 1.0), (2, 2))
        pdf = fit(grid, [(0.25, 0.25)])
        expected = all_nodes_fit(grid, [(0.25, 0.25)])
        np.testing.assert_allclose(pdf.coefficients, expected, atol=1e-13)
        nonzero = set(map(tuple, np.argwhere(pdf.coefficients.reshape(grid.node_shape)).tolist()))
        assert nonzero == {(0, 0), (1, 0), (0, 1), (1, 1)}

    def test_errors(self):
        grid = TensorGrid((0.0,), (1.0,), (2,))
        with pytest.raises(EmptySampleSetError):
            fit(grid, [])
        with pytest.raises(SampleOutOfDomainError) as err:
            fit(grid, [0.5, 2.0])
        assert err.value.index == 1
        assert err.value.axis == 0
        assert err.value.value == 2.0


class TestFitProperties:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_all_nodes_oracle(self, dim):
        rng = np.random.default_rng(100 + dim)
        for _ in range(8):
            grid = random_grid(rng, dim, max_n=4)
            m = int(rng.integers(1, 101))
            samples = rng.uniform(grid.lower, grid.upper, size=(m, dim))
            pdf = fit(grid, samples)
            np.testing.assert_allclose(
                pdf.coefficients, all_nodes_fit(grid, samples), atol=1e-12, rtol=0
            )

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_unit_integral_and_nonnegative(self, dim):
        rng = np.random.default_rng(200 + dim)
        for _ in range(5):
            grid = random_grid(rng, dim, max_n=8)
            samples = rng.uniform(grid.lower, grid.upper, size=(int(rng.integers(1, 2000)), dim))
            pdf = fit(grid, samples)
            assert (pdf.coefficients >= 0).all()
            assert pdf.integral() == pytest.approx(1.0, abs=1e-10)

    def test_node_weight_sum_equals_sample_count(self):
        rng = np.random.default_rng(17)
        grid = TensorGrid((0.0, 0.0), (1.0, 1.0), (5, 4))
        m = 5000
        pdf = fit(grid, rng.random((m, 2)))
        node_weights = pdf.coefficients * grid.basis_integrals() * m
        assert node_weights.sum() == pytest.approx(m, abs=1e-9 * m)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(23)
        grid = TensorGrid((-1.0,), (1.0,), (8,))
        samples = rng.uniform(-1.0, 1.0, size=2000)
        pdf_a = fit(grid, samples)
        pdf_b = fit(grid, rng.permutation(samples))
        np.testing.assert_allclose(pdf_a.coefficients, pdf_b.coefficients, atol=1e-12, rtol=0)

    def test_thread_count_does_not_change_result(self):
        rng = np.random.default_rng(29)
        grid = TensorGrid((0.0,), (1.0,), (16,))
        samples = rng.random(600_000)
        base = fit(grid, samples)
        for threads in (2, 4):
            np.testing.assert_array_equal(
                base.coefficients, fit(grid, samples, threads=threads).coefficients
            )

    @pytest.mark.parametrize("threads", [0, -1, 1.5, True])
    def test_thread_count_must_be_a_positive_integer(self, threads):
        grid = TensorGrid((0.0,), (1.0,), (4,))
        with pytest.raises(ValueError, match="threads"):
            fit(grid, [0.5], threads=threads)

    def test_node_weight_sums_match_exact_per_node_sums(self):
        # one in-order accumulator over several chunks: every node's weight
        # sum agrees with a correctly rounded (fsum) sum of its hat weights
        rng = np.random.default_rng(30)
        grid = TensorGrid((0.0,), (1.0,), (16,))
        samples = rng.random(600_000)
        pdf = fit(grid, samples)
        scaled = samples * 16
        idx = np.minimum(np.floor(scaled).astype(int), 15)
        frac = scaled - idx
        exact = [
            math.fsum(np.concatenate([1.0 - frac[idx == j], frac[idx == j - 1]]))
            for j in range(grid.n_nodes)
        ]
        node_weights = pdf.coefficients * grid.basis_integrals() * samples.size
        np.testing.assert_allclose(node_weights, exact, rtol=1e-12, atol=0)
        assert pdf.integral() == pytest.approx(1.0, abs=1e-12)

    def test_samples_exactly_on_upper_boundary(self):
        grid = TensorGrid((0.0,), (1.0,), (4,))
        pdf = fit(grid, [1.0, 1.0])
        # all mass lands on the last node, whose hat integrates to delta / 2
        assert pdf.coefficients[-1] == pytest.approx(1.0 / grid.basis_integrals()[4], rel=1e-15)
        assert pdf.integral() == pytest.approx(1.0, abs=1e-12)


def bincount_fit(grid, samples):
    """Oracle: one ``np.bincount`` over the concatenated corners of all samples.

    Locates with ``floor`` against the edge values ``lower + i * delta`` and
    builds every corner's flat index with ``np.ravel_multi_index``,
    independently of the estimator's chunked scatter.
    """
    lower, delta = np.array(grid.lower), np.array(grid.deltas)
    idx = np.floor((samples - lower) / delta).astype(np.int64)
    idx = np.clip(idx, 0, np.array(grid.n_delta) - 1)
    frac = (samples - (lower + idx * delta)) / delta
    flats, weights = [], []
    for offsets in np.ndindex(*(2,) * grid.dim):
        corner = idx + np.array(offsets)
        flats.append(np.ravel_multi_index(tuple(corner.T), grid.node_shape))
        weights.append(np.prod(np.where(offsets, frac, 1.0 - frac), axis=1))
    sums = np.bincount(
        np.concatenate(flats), weights=np.concatenate(weights), minlength=grid.n_nodes
    )
    return sums / (samples.shape[0] * grid.basis_integrals())


def traced_peak(func):
    tracemalloc.start()
    try:
        func()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestFineGrids:
    @pytest.mark.parametrize(
        "dim, n_delta, m", [(1, 1 << 20, 1000), (2, 1000, 3000), (3, 96, 5000)]
    )
    def test_matches_bincount_oracle_when_nodes_outnumber_samples(self, dim, n_delta, m):
        rng = np.random.default_rng(60 + dim)
        grid = TensorGrid((-1.0,) * dim, (2.0,) * dim, (n_delta,) * dim)
        assert grid.n_nodes > 100 * m
        samples = rng.uniform(-1.0, 2.0, size=(m, dim))
        np.testing.assert_allclose(
            fit(grid, samples).coefficients, bincount_fit(grid, samples), rtol=1e-12, atol=0
        )

    def test_thread_count_does_not_change_result_over_partial_chunks(self):
        rng = np.random.default_rng(61)
        grid = TensorGrid((0.0,) * 3, (1.0,) * 3, (64,) * 3)
        samples = rng.random((600_001, 3))  # two full chunks and a partial one
        base = fit(grid, samples, threads=1)
        for threads in (2, 3):
            np.testing.assert_array_equal(
                base.coefficients, fit(grid, samples, threads=threads).coefficients
            )

    def test_one_dimensional_fit_peaks_at_one_node_array(self):
        # a per-axis hat-integral array is node-sized in 1-D, so normalising
        # through one would double the peak
        grid = TensorGrid((0.0,), (1.0,), (1 << 21,))
        samples = np.random.default_rng(63).random((1000, 1))
        assert traced_peak(lambda: fit(grid, samples)) < 1.25 * 8 * grid.n_nodes

    @pytest.mark.parametrize("threads", [1, 2])
    def test_memory_grows_by_one_node_array(self, threads):
        # The fixed per-chunk working set is the same on both grids, so the
        # peak difference is what fit allocates per node: one float64 array.
        # Any per-chunk node-sized partial would at least double it.
        samples = np.random.default_rng(62).random((300_000, 3))
        coarse = TensorGrid((0.0,) * 3, (1.0,) * 3, (32,) * 3)
        fine = TensorGrid((0.0,) * 3, (1.0,) * 3, (128,) * 3)
        grown = traced_peak(lambda: fit(fine, samples, threads=threads)) - traced_peak(
            lambda: fit(coarse, samples, threads=threads)
        )
        node_bytes = 8 * (fine.n_nodes - coarse.n_nodes)
        assert grown < 1.5 * node_bytes

    @pytest.mark.parametrize("fitter, entries", [(fit, "n_nodes"), (fit_histogram, "n_bins")])
    def test_working_set_is_one_chunk_beyond_the_node_or_bin_array(self, fitter, entries):
        # every point passes through one chunk's buffers; in chunks of 2**18
        # rows these 2**20 points peaked at 12.6 MB (fit) and 8.9 MB (histogram)
        grid = TensorGrid((0.0, 0.0), (1.0, 1.0), (32, 32))
        samples = np.random.default_rng(68).random((1 << 20, 2))
        assert traced_peak(lambda: fitter(grid, samples)) <= 8 * getattr(grid, entries) + 2e6

    def test_locate_keeps_one_float_array_per_chunk(self):
        # A 3-D chunk's location holds idx, frac and two of one axis's comparison
        # masks at its peak: ~2.08x the points' bytes (3x with float temporaries).
        grid = TensorGrid((0.0,) * 3, (1.0,) * 3, (128,) * 3)
        pts = np.random.default_rng(63).random((1 << 18, 3))
        assert traced_peak(lambda: grid._locate_with_frac(pts)) < 2.25 * pts.nbytes

    def test_locate_bins_holds_one_chunk_beyond_its_result(self):
        # the result plus one chunk's reused buffers: ~1.55x the result's bytes,
        # where locating all points at once peaks at ~2.08x
        grid = TensorGrid((0.0,) * 3, (1.0,) * 3, (128,) * 3)
        pts = np.random.default_rng(67).random((1_000_000, 3))
        assert traced_peak(lambda: grid.locate_bins(pts)) <= 1.75 * pts.nbytes


class TestMemoryBound:
    """The node array is checked against physical memory before it is
    allocated; the memory figure is patched, so nothing large is allocated."""

    GRID = TensorGrid((0.0,), (1.0,), (99,))  # 100 nodes, 800 bytes

    def test_grid_beyond_physical_memory_raises_before_allocating(self, monkeypatch):
        monkeypatch.setattr("binpdf.estimator._physical_memory", lambda: 799)

        def no_allocation(*args, **kwargs):
            raise AssertionError("allocated the node array")

        monkeypatch.setattr(np, "zeros", no_allocation)
        with pytest.raises(GridTooLargeError, match="100 nodes needs 800 bytes"):
            fit(self.GRID, [0.5])

    @pytest.mark.parametrize("memory", [800, None])
    def test_grid_within_memory_or_unknown_memory_fits(self, monkeypatch, memory):
        monkeypatch.setattr("binpdf.estimator._physical_memory", lambda: memory)
        assert fit(self.GRID, [0.5]).integral() == pytest.approx(1.0)

    def test_physical_memory_is_none_or_a_real_size(self):
        from binpdf.estimator import _physical_memory

        assert _physical_memory() is None or _physical_memory() > 2**20


class TestAxisMajorLocation:
    @pytest.mark.parametrize("lower,upper,n_delta", LOCATE_GRIDS)
    def test_fit_and_evaluate_bit_identical_to_rowmajor(self, lower, upper, n_delta):
        grid = TensorGrid(lower, upper, n_delta)
        rng = np.random.default_rng(64)
        samples = edge_points(grid, rng, n_random=_CHUNK + 1000)  # a partial 2nd chunk
        want = rowmajor_fit(grid, samples)
        for threads in (1, 2, 3):
            pdf = fit(grid, samples, threads=threads)
            np.testing.assert_array_equal(pdf.coefficients, want)
        np.testing.assert_array_equal(
            pdf.evaluate_batch(samples), rowmajor_evaluate(grid, want, samples)
        )
        # the histogram and locate_bins read the same location stream
        idx, _ = rowmajor_locate(grid, samples)
        bins = np.ravel_multi_index(tuple(idx.T), grid.bin_shape)
        counts = np.bincount(bins, minlength=grid.n_bins)
        hist = fit_histogram(grid, samples)
        np.testing.assert_array_equal(hist.values, counts / (samples.shape[0] * hist.bin_volume))
        np.testing.assert_array_equal(hist.evaluate_batch(samples), hist.values[bins])
        np.testing.assert_array_equal(grid.locate_bins(samples), idx)


class TestOneStencil:
    @pytest.mark.parametrize("lower, upper, n_delta", [
        ((-1.0,), (2.0,), (5,)),
        ((0.0, -1.5), (1.0, 2.0), (3, 4)),
        ((-0.3, 0.0, 1.0), (0.7, 0.5, 4.0), (2, 3, 2)),
    ])
    def test_basis_eval_is_a_unit_coefficient_density(self, lower, upper, n_delta):
        # the hat weights one sample deposits come from the same stencil that
        # evaluation sums, so they equal the unit-coefficient densities there
        # bit for bit
        grid = TensorGrid(lower, upper, n_delta)
        rng = np.random.default_rng(65)
        pts = np.concatenate(
            [edge_mesh(grid, grid.node_shape), rng.uniform(grid.lower, grid.upper, (40, grid.dim))]
        )
        for p, want in zip(pts, unit_hats(grid, pts)):
            accumulator = Accumulator(grid)
            idx, frac = grid._locate_with_frac(p.reshape(1, -1))
            accumulator._scatter(idx.T, frac.T)
            np.testing.assert_array_equal(accumulator._sums, want)


class TestEvaluate:
    def test_node_values_are_exact(self):
        rng = np.random.default_rng(31)
        grid = TensorGrid((0.0, -1.0), (2.0, 3.0), (4, 5))
        samples = rng.uniform(grid.lower, grid.upper, size=(500, 2))
        pdf = fit(grid, samples)
        for flat, node in enumerate(edge_mesh(grid, grid.node_shape)):
            assert pdf.evaluate(node) == pdf.coefficients[flat]

    def test_interpolates_between_nodes(self):
        pdf = fit(TensorGrid((0.0,), (1.0,), (2,)), [0.25, 0.75])
        assert pdf.evaluate(0.5) == pytest.approx(1.0, abs=1e-14)

    def test_continuity_across_faces(self):
        rng = np.random.default_rng(37)
        grid = TensorGrid((0.0,), (1.0,), (8,))
        pdf = fit(grid, rng.random(400))
        for k in range(1, 8):
            face = k * grid.deltas[0]
            left = pdf.evaluate(face - 1e-13)
            right = pdf.evaluate(face + 1e-13)
            assert left == pytest.approx(right, abs=1e-9)

    def test_batch_empty_singleton_and_loop(self):
        rng = np.random.default_rng(41)
        grid = TensorGrid((0.0,), (1.0,), (4,))
        pdf = fit(grid, rng.random(100))
        assert pdf.evaluate_batch([]).shape == (0,)
        assert pdf.evaluate_batch([0.3])[0] == pdf.evaluate(0.3)
        pts = rng.random(1000)
        batch = pdf.evaluate_batch(pts)
        for i in range(0, 1000, 37):
            assert batch[i] == pdf.evaluate(pts[i])

    def test_batch_out_of_domain_reports_first_offender(self):
        pdf = fit(TensorGrid((0.0,), (1.0,), (2,)), [0.5])
        with pytest.raises(OutOfDomainError) as err:
            pdf.evaluate_batch([0.1, 0.2, 3.0, 4.0])
        assert err.value.index == 2
        assert err.value.value == 3.0

    def test_later_chunks_allocate_no_chunk_sized_array(self, monkeypatch):
        # every corner gathers its coefficients into one buffer held for the
        # evaluation; a fresh gather per corner allocated a chunk-sized array
        grid = TensorGrid((0.0,) * 3, (1.0,) * 3, (8,) * 3)
        pts = np.random.default_rng(71).random((8 * _CHUNK, 3))
        pdf = fit(grid, pts[:1000])
        located = TensorGrid._located

        def traced_after_the_first_chunk(self, *args, **kwargs):
            for start, idx, frac in located(self, *args, **kwargs):
                if start and not tracemalloc.is_tracing():
                    tracemalloc.start()
                yield start, idx, frac

        monkeypatch.setattr(TensorGrid, "_located", traced_after_the_first_chunk)
        try:
            pdf.evaluate_batch(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0 < peak < 8 * _CHUNK, peak


NON_FINITE = [math.nan, math.inf, -math.inf]


class TestNonFiniteInput:
    @pytest.mark.parametrize("value", NON_FINITE)
    def test_fit_rejects(self, value):
        grid = TensorGrid((0.0, 0.0), (1.0, 1.0), (2, 2))
        with pytest.raises(SampleOutOfDomainError) as err:
            fit(grid, [(0.5, 0.5), (0.25, value)])
        assert (err.value.index, err.value.axis) == (1, 1)

    @pytest.mark.parametrize("value, where", [(math.nan, "not finite"),
                                              (1.5, "outside the grid domain")],
                             ids=["nan", "outside"])
    @pytest.mark.parametrize("feed", [fit, lambda grid, pts: Accumulator(grid).add(pts)],
                             ids=["fit", "add"])
    def test_the_error_words_itself_as_the_cli_prints_it(self, feed, value, where):
        # the CLI once reworded the library's "point 1, coordinate ... outside the domain"
        grid = TensorGrid((0.0, 0.0), (1.0, 1.0), (2, 2))
        with pytest.raises(SampleOutOfDomainError) as err:
            feed(grid, [(0.5, 0.5), (0.25, value)])
        assert str(err.value) == f"sample row 1: coordinate {value!r} on axis 1 is {where}"

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_evaluate_rejects(self, value):
        pdf = fit(TensorGrid((0.0,), (1.0,), (2,)), [0.5])
        with pytest.raises(OutOfDomainError):
            pdf.evaluate(value)
        with pytest.raises(OutOfDomainError) as err:
            pdf.evaluate_batch([0.1, value, 0.2])
        assert err.value.index == 1


class TestIntegral:
    def test_zero_coefficients(self):
        grid = TensorGrid((0.0,), (1.0,), (4,))
        assert PiecewiseLinearPdf(grid, np.zeros(5), 1).integral() == 0.0

    def test_linearity(self):
        rng = np.random.default_rng(43)
        grid = TensorGrid((0.0,), (1.0,), (8,))
        pdf = fit(grid, rng.random(300))
        doubled = PiecewiseLinearPdf(grid, 2.0 * pdf.coefficients, pdf.sample_count)
        assert doubled.integral() == pytest.approx(2.0, abs=1e-10)

    def test_fine_grid_integral_builds_no_node_sized_array(self):
        # contracted one axis at a time; the dot product with basis_integrals()
        # held a second node array, 17.4 MB for these 17.2 MB of nodes
        grid = TensorGrid((0.0,) * 3, (1.0, 2.0, 3.0), (128,) * 3)
        pdf = PiecewiseLinearPdf(grid, np.random.default_rng(44).random(grid.n_nodes), 1)
        assert traced_peak(pdf.integral) < 0.05 * 8 * grid.n_nodes
        assert pdf.integral() == pytest.approx(
            float(pdf.coefficients @ grid.basis_integrals()), rel=1e-14, abs=0)

    def test_one_dimensional_integral_builds_no_node_sized_array(self):
        # in 1-D an axis's hat-integral factors are node-sized: contracting
        # with them took 16 MB on these 2**21 bins
        grid = TensorGrid((0.0,), (3.0,), (1 << 21,))
        pdf = PiecewiseLinearPdf(grid, np.random.default_rng(45).random(grid.n_nodes), 1)
        assert traced_peak(pdf.integral) < 0.05 * 8 * grid.n_nodes
        assert pdf.integral() == pytest.approx(
            float(pdf.coefficients @ grid.basis_integrals()), rel=1e-14, abs=0)


class TestSerialization:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_round_trip_is_bit_exact(self, tmp_path, dim):
        rng = np.random.default_rng(47 + dim)
        grid = TensorGrid((-1.5,) * dim, (2.5,) * dim, (5,) * dim)
        pdf = fit(grid, rng.uniform(-1.5, 2.5, size=(777, dim)))
        path = tmp_path / "pdf.csv"
        sidecar = save_pdf(pdf, path)
        assert sidecar == tmp_path / "pdf.json"
        loaded = load_pdf(path)
        assert loaded.grid == pdf.grid
        assert loaded.sample_count == pdf.sample_count
        np.testing.assert_array_equal(loaded.coefficients, pdf.coefficients)

    def test_loaded_pdf_evaluates_identically(self, tmp_path):
        rng = np.random.default_rng(53)
        grid = TensorGrid((0.0,), (11.0,), (16,))
        pdf = fit(grid, rng.uniform(0.0, 11.0, size=5000))
        save_pdf(pdf, tmp_path / "p.csv")
        loaded = load_pdf(tmp_path / "p.csv")
        pts = rng.uniform(0.0, 11.0, size=200)
        np.testing.assert_array_equal(pdf.evaluate_batch(pts), loaded.evaluate_batch(pts))


def fed(accumulator, pts, sizes):
    """``accumulator`` fed ``pts`` in blocks of ``sizes`` rows, then the rest
    as one block, and finalized."""
    start = 0
    for size in sizes:
        accumulator.add(pts[start : start + size])
        start += size
    accumulator.add(pts[start:])
    return accumulator.finalize()


# block sizes around the chunk boundary, where the held remainder matters
BLOCK_SIZES = st.one_of(st.sampled_from([1, 2, _CHUNK - 1, _CHUNK, _CHUNK + 1]),
                        st.integers(1, 3 * _CHUNK))


class TestAccumulator:
    GRID = TensorGrid((0.0, 0.0), (1.0, 1.0), (8, 8))
    # three chunks, the last partial
    PTS = np.random.default_rng(11).random((2 * _CHUNK + 777, 2))
    FIT = fit(GRID, PTS)
    HISTOGRAM = fit_histogram(GRID, PTS)

    @settings(derandomize=True, database=None, max_examples=20, deadline=None)
    @given(st.lists(BLOCK_SIZES, max_size=12))
    def test_any_partition_gives_the_fit_bit_for_bit(self, sizes):
        pdf = fed(Accumulator(self.GRID), self.PTS, sizes)
        assert pdf.sample_count == self.PTS.shape[0]
        assert np.array_equal(pdf.coefficients, self.FIT.coefficients)
        histogram = fed(HistogramAccumulator(self.GRID), self.PTS, sizes)
        assert histogram.sample_count == self.PTS.shape[0]
        assert np.array_equal(histogram.values, self.HISTOGRAM.values)

    @pytest.mark.parametrize("sizes", [
        [_CHUNK - 3] + [1] * 6,  # one-row blocks across a chunk boundary
        [_CHUNK - 1] * 3,
        [_CHUNK + 1] * 2,
        [1000] * 5 + [_CHUNK],
    ], ids=["rows", "chunk-1", "chunk+1", "held-then-whole"])
    def test_partitions_around_chunk_boundaries(self, sizes):
        assert np.array_equal(fed(Accumulator(self.GRID), self.PTS, sizes).coefficients,
                              self.FIT.coefficients)

    @pytest.mark.parametrize("make, fitted", [(Accumulator, FIT), (HistogramAccumulator, HISTOGRAM)])
    def test_each_row_is_checked_once(self, monkeypatch, make, fitted):
        # held rows are located as they come, so scattering them checks none again
        checked = []
        check = TensorGrid.check_in_domain

        def counted(self, pts, **kwargs):
            checked.append(pts.shape[0])
            return check(self, pts, **kwargs)

        monkeypatch.setattr(TensorGrid, "check_in_domain", counted)
        got = fed(make(self.GRID), self.PTS, [1000] * 30)
        assert sum(checked) == self.PTS.shape[0]
        assert np.array_equal(got.coefficients, fitted.coefficients)

    @pytest.mark.parametrize("make", [Accumulator, HistogramAccumulator])
    @pytest.mark.parametrize("value", [np.nan, 1.5, -np.inf])
    @pytest.mark.parametrize("sizes, row", [
        ([_CHUNK], _CHUNK + 5),  # a whole chunk, then a bad row in the next block
        ([1000, 1000], 2500),  # held rows
        ([_CHUNK - 10], _CHUNK + 20),  # a block that fills the held chunk and goes on
    ], ids=["whole", "held", "filling"])
    def test_bad_row_in_a_later_block_names_its_row_in_the_stream(self, make, value, sizes, row):
        pts = self.PTS.copy()
        pts[row, 1] = value
        accumulator = make(self.GRID)
        with pytest.raises(SampleOutOfDomainError) as err:
            fed(accumulator, pts, sizes)
        assert (err.value.index, err.value.axis) == (row, 1)
        np.testing.assert_equal(err.value.value, value)

    def test_no_samples_and_finalized_accumulators_raise(self):
        with pytest.raises(EmptySampleSetError):
            Accumulator(self.GRID).finalize()
        with pytest.raises(EmptySampleSetError):
            HistogramAccumulator(self.GRID).finalize()
        for make in (Accumulator, HistogramAccumulator):  # both finalize in place
            accumulator = make(self.GRID)
            accumulator.add(self.PTS[:10])
            accumulator.finalize()
            with pytest.raises(ValueError, match="finalized"):
                accumulator.add(self.PTS[:10])
            with pytest.raises(ValueError, match="finalized"):
                accumulator.finalize()

    def test_grid_beyond_physical_memory_raises_before_allocating(self, monkeypatch):
        monkeypatch.setattr("binpdf.estimator._physical_memory", lambda: 799)
        with pytest.raises(GridTooLargeError):
            Accumulator(TensorGrid((0.0,), (1.0,), (99,)))
        with pytest.raises(GridTooLargeError):
            HistogramAccumulator(TensorGrid((0.0,), (1.0,), (100,)))


def threads_started(mp) -> list:
    """The threads started from now on, as ``mp`` (a MonkeyPatch) keeps them."""
    started = []
    start = threading.Thread.start

    def spy(thread):
        started.append(thread)
        start(thread)

    mp.setattr(threading.Thread, "start", spy)
    return started


def with_cpus(mp, n: int) -> None:
    mp.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


class TestThreadedParts:
    """From ``_THREAD_MIN_NODES`` nodes (or bins) up, finalization and
    evaluation split over one thread per available CPU. The threshold is
    patched to 0 and the CPU count to 2 or 3, so small grids take the
    threaded path on any machine."""

    @settings(derandomize=True, database=None, max_examples=50, deadline=None)
    @given(
        st.integers(1, 3).flatmap(lambda dim: st.lists(
            st.sampled_from([1, 2, 3, 5, 8]), min_size=dim, max_size=dim)),
        st.one_of(st.sampled_from([1, 2, 3, _CHUNK + 1]), st.integers(1, 2 * _CHUNK + 777)),
        st.sampled_from([2, 3]),
        st.integers(0, 2**32 - 1),
        st.sampled_from([(fit, "node_shape"), (fit_histogram, "bin_shape")]),
    )
    def test_results_do_not_depend_on_the_cpu_count(self, n_delta, m, cpus, seed, estimate):
        fitter, shape = estimate
        rng = np.random.default_rng(seed)
        grid = random_grid(rng, len(n_delta), 1)
        grid = TensorGrid(grid.lower, grid.upper, n_delta)
        samples = edge_points(grid, rng, n_random=m)[:m]
        pts = rng.uniform(grid.lower, grid.upper, size=(m + 2, grid.dim))
        pts[-2:] = grid.lower, grid.upper
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(estimator, "_THREAD_MIN_NODES", 0)
            with_cpus(mp, 1)
            serial = fitter(grid, samples)
            want = serial.evaluate_batch(pts)
            with_cpus(mp, cpus)
            started = threads_started(mp)
            threaded = fitter(grid, samples)
            got = threaded.evaluate_batch(pts)
        assert len(started) == min(cpus, getattr(grid, shape)[0]) - 1 + min(cpus, len(pts)) - 1
        np.testing.assert_array_equal(threaded.coefficients, serial.coefficients)
        np.testing.assert_array_equal(threaded.integral(), serial.integral())
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("value", [math.nan, 1.5, -math.inf])
    @pytest.mark.parametrize("offenders", [
        [(_CHUNK + 400, 1), (2 * _CHUNK, 0)],  # in the second of two parts only
        [(300, 2), (_CHUNK + 400, 0)],  # in both parts
    ], ids=["second-part", "both-parts"])
    def test_threaded_evaluation_raises_the_serial_error(self, monkeypatch, value, offenders):
        grid = TensorGrid((0.0,) * 3, (1.0,) * 3, (4,) * 3)
        rng = np.random.default_rng(72)
        pdf = fit(grid, rng.random((1000, 3)))
        pts = rng.random((2 * _CHUNK + 777, 3))  # parts of rows [0, 16772) and [16772, 33545)
        for row, axis in offenders:
            pts[row, axis] = value
        monkeypatch.setattr(estimator, "_THREAD_MIN_NODES", 0)
        raised = []
        for cpus in (1, 2):
            with_cpus(monkeypatch, cpus)
            before = threading.active_count()
            with pytest.raises(OutOfDomainError) as err:
                pdf.evaluate_batch(pts)
            assert threading.active_count() == before
            raised.append((type(err.value), err.value.index, err.value.axis))
            np.testing.assert_equal(err.value.value, value)
        assert raised == [(OutOfDomainError, *offenders[0])] * 2

    def test_every_thread_is_joined_on_return(self, monkeypatch):
        grid = TensorGrid((0.0,) * 2, (1.0,) * 2, (6, 6))
        pts = np.random.default_rng(73).random((5000, 2))
        monkeypatch.setattr(estimator, "_THREAD_MIN_NODES", 0)
        with_cpus(monkeypatch, 3)
        started = threads_started(monkeypatch)
        before = threading.active_count()
        fit(grid, pts).evaluate_batch(pts)
        assert threading.active_count() == before
        assert len(started) == 4 and not any(t.is_alive() for t in started)

    def test_the_lowest_failing_part_raises(self, monkeypatch):
        with_cpus(monkeypatch, 3)
        ran = []

        def run(a, b):
            ran.append((a, b))
            if a:
                raise ValueError(a)

        with pytest.raises(ValueError, match="^3$"):
            estimator._in_parts(run, 9, estimator._THREAD_MIN_NODES)
        assert sorted(ran) == [(0, 3), (3, 6), (6, 9)]
        ran.clear()
        estimator._in_parts(run, 9, estimator._THREAD_MIN_NODES - 1)  # below it: one part
        assert ran == [(0, 9)]

    def test_a_process_forked_after_import_runs_one_part(self, monkeypatch):
        # such a process, a study's worker say, owns a CPU of a pool already;
        # the process that imported the module still starts a thread per extra CPU
        monkeypatch.setattr(estimator, "_THREAD_MIN_NODES", 0)
        with_cpus(monkeypatch, 3)
        started = threads_started(monkeypatch)
        ran = []

        def run(a, b):
            ran.append((a, b))

        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:  # the child reports its parts and threads, and exits at once
            try:
                estimator._in_parts(run, 9, 0)
                os.write(write, repr((ran, len(started))).encode())
            finally:
                os._exit(0)
        os.close(write)
        with os.fdopen(read) as report:
            child = report.read()
        assert os.waitpid(pid, 0)[1] == 0
        assert child == repr(([(0, 9)], 0))
        estimator._in_parts(run, 9, 0)
        assert sorted(ran) == [(0, 3), (3, 6), (6, 9)] and len(started) == 2
