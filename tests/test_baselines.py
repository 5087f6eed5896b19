"""Histogram and naive-KDE baselines, plus the KDE-at-nodes identity."""

import math
import time
import tracemalloc

import numpy as np
import pytest

from binpdf import (
    EmptySampleSetError,
    Histogram,
    KdeSpec,
    NonpositiveBandwidthError,
    OutOfDomainError,
    SampleOutOfDomainError,
    TensorGrid,
    eval_histogram,
    eval_kde,
    eval_kde_batch,
    fit,
    fit_histogram,
    load_histogram,
    save_histogram,
)
from binpdf.grid import _CHUNK


def brute_force_counts(grid, samples):
    """Counting oracle using explicit edge comparisons per bin."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim == 1:
        samples = samples.reshape(-1, 1)
    counts = np.zeros(grid.n_bins, dtype=int)
    for y in samples:
        for flat in range(grid.n_bins):
            idx = grid.bin_multi_index(flat)
            inside = True
            for n, i in enumerate(idx):
                lo = grid.lower[n] + i * grid.deltas[n]
                hi = grid.lower[n] + (i + 1) * grid.deltas[n]
                last = i == grid.n_delta[n] - 1
                if not (y[n] >= lo and (y[n] < hi or (last and y[n] <= grid.upper[n]))):
                    inside = False
                    break
            if inside:
                counts[flat] += 1
                break
    return counts


class TestHistogram:
    def test_one_sample_per_half(self):
        h = fit_histogram(TensorGrid((0.0,), (1.0,), (2,)), [0.25, 0.75])
        np.testing.assert_allclose(h.values, [1.0, 1.0])
        assert h.integral() == pytest.approx(1.0, abs=1e-15)

    def test_single_sample(self):
        h = fit_histogram(TensorGrid((0.0,), (1.0,), (2,)), [0.25])
        np.testing.assert_allclose(h.values, [2.0, 0.0])
        assert h.integral() == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("dim,m", [(1, 10_000), (2, 2000)])
    def test_unit_integral_and_counting_oracle(self, dim, m):
        rng = np.random.default_rng(60 + dim)
        grid = TensorGrid((-1.0,) * dim, (2.0,) * dim, (4,) * dim)
        samples = rng.uniform(-1.0, 2.0, size=(m, dim))
        h = fit_histogram(grid, samples)
        assert h.integral() == pytest.approx(1.0, abs=1e-10)
        counts = brute_force_counts(grid, samples)
        np.testing.assert_allclose(h.values, counts / (m * h.bin_volume), atol=1e-13)

    def test_eval_examples(self):
        h = fit_histogram(TensorGrid((0.0,), (1.0,), (2,)), [0.25, 0.75])
        assert eval_histogram(h, 0.1) == 1.0
        assert eval_histogram(h, 1.0) == h.values[1]

    def test_eval_at_face_uses_higher_bin(self):
        h = fit_histogram(TensorGrid((0.0,), (1.0,), (2,)), [0.25, 0.25, 0.75])
        assert eval_histogram(h, 0.5) == h.values[1]

    def test_errors(self):
        grid = TensorGrid((0.0,), (1.0,), (2,))
        with pytest.raises(EmptySampleSetError):
            fit_histogram(grid, [])
        h = fit_histogram(grid, [0.5])
        with pytest.raises(OutOfDomainError):
            h.evaluate(1.5)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_sample_is_rejected(self, value):
        with pytest.raises(SampleOutOfDomainError) as err:
            fit_histogram(TensorGrid((0.0,), (1.0,), (2,)), [0.25, value])
        assert err.value.index == 1

    def test_chunked_fit_and_evaluate_equal_one_whole_pass(self):
        rng = np.random.default_rng(65)
        grid = TensorGrid((-1.0, 0.0), (2.0, 1.0), (7, 5))
        samples = rng.uniform((-1, 0), (2, 1), size=(2 * _CHUNK + 5, 2))
        samples[:3] = [(-1.0, 0.0), (2.0, 1.0), (0.5, 0.2)]  # both bounds and a face
        flat = np.ravel_multi_index(tuple(grid.locate_bins(samples).T), grid.bin_shape)
        h = fit_histogram(grid, samples)
        values = np.bincount(flat, minlength=grid.n_bins) / (samples.shape[0] * h.bin_volume)
        np.testing.assert_array_equal(h.values, values)
        np.testing.assert_array_equal(h.evaluate_batch(samples), values[flat])

    def test_fit_memory_does_not_grow_with_the_sample_count(self):
        grid = TensorGrid((0.0, 0.0), (1.0, 1.0), (64, 64))
        samples = np.random.default_rng(66).random((1_000_000, 2))

        def peak(pts):
            tracemalloc.start()
            try:
                fit_histogram(grid, pts)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # one chunk's location dominates both; unchunked, 1M points peak at ~3x
        assert peak(samples) <= 1.1 * peak(samples[:300_000])

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(64)
        grid = TensorGrid((0.0, 0.0), (1.0, 2.0), (3, 4))
        h = fit_histogram(grid, rng.uniform((0, 0), (1, 2), size=(200, 2)))
        save_histogram(h, tmp_path / "h.csv")
        loaded = load_histogram(tmp_path / "h.csv")
        assert loaded.grid == h.grid
        assert loaded.sample_count == h.sample_count
        np.testing.assert_array_equal(loaded.values, h.values)


class TestKde:
    def test_triangular_peak_and_slope(self):
        spec = KdeSpec("triangular", 1.0, [0.0])
        assert eval_kde(spec, 0.0) == 1.0
        assert eval_kde(spec, 0.5) == 0.5
        assert eval_kde(spec, 1.5) == 0.0

    def test_gaussian_peak(self):
        spec = KdeSpec("gaussian", 1.0, [0.0])
        assert eval_kde(spec, 0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi))

    def test_bandwidth_scaling(self):
        spec = KdeSpec("triangular", 0.5, [0.0])
        assert eval_kde(spec, 0.0) == pytest.approx(2.0)

    def test_2d_product_kernel(self):
        spec = KdeSpec("triangular", 1.0, [(0.0, 0.0)])
        assert eval_kde(spec, (0.5, 0.5)) == pytest.approx(0.25)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(70)
        spec = KdeSpec("gaussian", 0.3, rng.normal(size=(50, 2)))
        pts = rng.normal(size=(20, 2))
        batch = eval_kde_batch(spec, pts)
        for i in range(20):
            assert batch[i] == eval_kde(spec, pts[i])

    def test_errors(self):
        with pytest.raises(NonpositiveBandwidthError):
            KdeSpec("triangular", 0.0, [0.0])
        with pytest.raises(EmptySampleSetError):
            KdeSpec("triangular", 1.0, np.empty((0, 1)))
        with pytest.raises(ValueError, match="kernel"):
            KdeSpec("box", 1.0, [0.0])


class TestKdeNodeIdentity:
    """Triangular KDE with bandwidth = delta reproduces the estimator's
    coefficients at interior nodes when the per-axis bin widths are equal."""

    @pytest.mark.parametrize("dim", [1, 2])
    def test_interior_nodes_match(self, dim):
        rng = np.random.default_rng(80 + dim)
        grid = TensorGrid((0.0,) * dim, (1.0,) * dim, (5,) * dim)
        delta = grid.deltas[0]
        # keep every sample at least one bin width away from the boundary
        samples = rng.uniform(delta, 1.0 - delta, size=(400, dim))
        pdf = fit(grid, samples)
        kde = KdeSpec("triangular", delta, samples)
        for flat in range(grid.n_nodes):
            node = grid.node_multi_index(flat)
            if any(i == 0 or i == grid.n_delta[n] for n, i in enumerate(node)):
                continue
            assert eval_kde(kde, grid.node_coords(node)) == pytest.approx(
                pdf.coefficients[flat], abs=1e-12
            )

    def test_samples_on_nodes(self):
        grid = TensorGrid((0.0,), (1.0,), (4,))
        samples = [0.25, 0.5, 0.5, 0.75]
        pdf = fit(grid, samples)
        kde = KdeSpec("triangular", grid.deltas[0], samples)
        for j in (1, 2, 3):
            assert eval_kde(kde, grid.node_coords((j,))) == pytest.approx(
                pdf.coefficients[j], abs=1e-12
            )


@pytest.mark.slow
def test_kde_eval_cost_grows_linearly():
    # sizes chosen so both workloads' temporaries stay under glibc's 32 MiB
    # mmap cap and recycle heap pages after warmup; larger buffers flip
    # between page-fault regimes and distort the per-sample cost
    rng = np.random.default_rng(90)
    point = np.array([0.0])

    small_spec = KdeSpec("gaussian", 0.1, rng.normal(size=350_000))
    big_spec = KdeSpec("gaussian", 0.1, rng.normal(size=3_500_000))
    eval_kde(small_spec, point)  # warm up caches and allocator
    eval_kde(big_spec, point)
    ratios = []
    # pair each measurement in time so machine-load drift cancels
    for _ in range(7):
        t0 = time.perf_counter()
        eval_kde(small_spec, point)
        t1 = time.perf_counter()
        eval_kde(big_spec, point)
        t2 = time.perf_counter()
        ratios.append((t2 - t1) / (t1 - t0))
    ratio = float(np.median(ratios))
    assert 5 <= ratio <= 20, f"paired ratios {[f'{r:.1f}' for r in ratios]}"
