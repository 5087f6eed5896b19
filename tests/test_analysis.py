"""Error metrics, coupling rule, support estimation, rate fits, and studies."""

import math
import multiprocessing
import os
import signal
import threading
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from binpdf import (
    BinPdfError,
    Coupled,
    CouplingRule,
    DegenerateSupportError,
    DistributionSpec,
    EmptySampleSetError,
    FixedDelta,
    FixedM,
    KdeSpec,
    NonpositiveValueError,
    SampleOutOfDomainError,
    TensorGrid,
    TooFewPointsError,
    TruncatedGaussian,
    Uniform,
    UnsupportedOrderError,
    convergence_study,
    averaged_study,
    coupling,
    estimate_support,
    fit,
    fit_histogram,
    fit_rate,
    rmse_vs_exact,
    rmse_vs_histogram,
    sample,
    write_plot_script,
    write_study_csv,
    write_samples_csv,
)
from binpdf import analysis, estimator
from binpdf.grid import _CHUNK
from binpdf.sampling import open_samples
from test_grid import edge_mesh

TGAUSS = DistributionSpec((TruncatedGaussian(0.0, 1.0, -5.5, 5.5),))
UNIFORM = DistributionSpec((Uniform(-1.0, 1.0),))


def reference_rmse(evaluator, spec, pts):
    """Two-pass reimplementation: exact compensated sum of squared differences."""
    exact_vals = spec.pdf(pts)
    approx_vals = np.asarray(evaluator(pts), dtype=float)
    squares = [(float(e) - float(a)) ** 2 for e, a in zip(exact_vals, approx_vals)]
    return math.sqrt(math.fsum(squares) / len(squares))


class TestRmseVsExact:
    def test_exact_evaluator_gives_zero(self):
        pts = sample(TGAUSS, 500, 1)
        assert rmse_vs_exact(TGAUSS.pdf, TGAUSS, pts) == 0.0

    def test_constant_offset(self):
        pts = sample(TGAUSS, 500, 2)
        off = lambda p: TGAUSS.pdf(p) + 0.125
        assert rmse_vs_exact(off, TGAUSS, pts) == pytest.approx(0.125, rel=1e-12)

    def test_matches_two_pass_reference(self):
        m = 16**5
        pts = sample(TGAUSS, m, 42)
        grid = TensorGrid((-5.5,), (5.5,), (32,))
        pdf = fit(grid, pts)
        ours = rmse_vs_exact(pdf.evaluate_batch, TGAUSS, pts)
        assert ours == pytest.approx(reference_rmse(pdf.evaluate_batch, TGAUSS, pts), abs=1e-12)

    @pytest.mark.parametrize("m", [2**18 - 1, 2**18, 2**18 + 1, 2 * 2**18 + 7])
    def test_chunked_metric_keeps_the_whole_array_bits(self, m):
        spec = DistributionSpec((TruncatedGaussian(0.0, 2.0, -5.5, 5.5),
                                 TruncatedGaussian(0.0, 1.0, -5.5, 5.5)))
        pts = sample(spec, m, 16)
        pdf = fit(TensorGrid((-5.5, -5.5), (5.5, 5.5), (16, 16)), pts)
        sizes = []

        def evaluate(p):
            sizes.append(len(p))
            return pdf.evaluate_batch(p)

        diff = spec.pdf(pts) - pdf.evaluate_batch(pts)
        assert rmse_vs_exact(evaluate, spec, pts) == float(np.sqrt(np.mean(diff * diff)))
        assert sum(sizes) == m and max(sizes) <= 2**18

    def test_a_twin_reader_gives_the_array_bits(self, tmp_path):
        # 2 * _CHUNK + 9 rows: the leaves (16384, 8192, 8201 rows) cross the
        # twin's default 2**14-row reads
        spec = DistributionSpec((TruncatedGaussian(0.0, 2.0, -5.5, 5.5),
                                 TruncatedGaussian(0.0, 1.0, -5.5, 5.5)))
        pts = sample(spec, 2 * _CHUNK + 9, 17)
        write_samples_csv(tmp_path / "s.csv", pts)
        pdf = fit(TensorGrid((-5.5, -5.5), (5.5, 5.5), (16, 16)), pts)
        diff = spec.pdf(pts) - pdf.evaluate_batch(pts)
        want = float(np.sqrt(np.mean(diff * diff)))
        assert rmse_vs_exact(pdf.evaluate_batch, spec, pts) == want
        with open_samples(tmp_path / "s.csv") as reader:
            assert rmse_vs_exact(pdf.evaluate_batch, spec, reader) == want
            assert rmse_vs_exact(pdf.evaluate_batch, spec, reader) == want  # a second pass

    def test_permutation_invariant(self):
        rng = np.random.default_rng(9)
        pts = sample(TGAUSS, 2000, 3)
        pdf = fit(TensorGrid((-5.5,), (5.5,), (16,)), pts)
        a = rmse_vs_exact(pdf.evaluate_batch, TGAUSS, pts)
        b = rmse_vs_exact(pdf.evaluate_batch, TGAUSS, rng.permutation(pts, axis=0))
        assert a == pytest.approx(b, rel=1e-12)


class TestPairwiseSum:
    """The streamed sum of the RMSE has the bits of ``np.add.reduce``."""

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(st.integers(1, 5 * _CHUNK + 7), st.integers(0, 2**32 - 1))
    @example(1, 0)
    @example(7, 1)
    @example(8, 2)
    @example(129, 3)
    @example(_CHUNK - 1, 4)
    @example(_CHUNK + 1, 5)
    @example(2 * _CHUNK + 1, 6)
    def test_leaf_sums_in_tree_order_give_the_whole_array_bits(self, n, seed):
        rng = np.random.default_rng(seed)
        # magnitudes over 16 decades and both signs, so the order of additions shows
        values = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)
        leaves = list(analysis._leaves(n))
        assert sum(leaves) == n and max(leaves) <= _CHUNK
        bounds = np.cumsum([0, *leaves])
        sums = (np.add.reduce(values[a:b]) for a, b in zip(bounds, bounds[1:]))
        total = analysis._pairwise(n, sums)
        assert next(sums, None) is None  # every leaf's sum taken
        assert np.float64(total).tobytes() == np.add.reduce(values).tobytes()

    def test_the_metrics_hold_no_per_point_array(self):
        # 2**21 points: an array of their squared differences would take 16 MiB
        m = 2**21
        pts = sample(TGAUSS, m + 1, 21)
        grid = TensorGrid((-5.5,), (5.5,), (32,))
        pdf = fit(grid, pts[:m])
        reference = fit_histogram(TensorGrid((-5.5,), (5.5,), (1024,)), pts)
        for metric in (lambda: rmse_vs_exact(pdf.evaluate_batch, TGAUSS, pts[:m]),
                       lambda: rmse_vs_histogram(pdf.evaluate_batch, reference, pts[:m])):
            tracemalloc.start()
            try:
                metric()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 2 * 2**20


class TestRmseVsHistogram:
    def test_reference_against_itself_at_bin_centers(self):
        rng = np.random.default_rng(12)
        grid = TensorGrid((0.0,), (1.0,), (8,))
        h = fit_histogram(grid, rng.random(4000))
        centers = edge_mesh(grid, grid.n_delta) + 0.5 * grid.deltas[0]
        assert rmse_vs_histogram(h.evaluate_batch, h, centers) == 0.0

    def test_constant_offset(self):
        rng = np.random.default_rng(13)
        grid = TensorGrid((0.0,), (1.0,), (8,))
        h = fit_histogram(grid, rng.random(4000))
        pts = rng.random(100)
        off = lambda p: h.evaluate_batch(p) + 0.25
        assert rmse_vs_histogram(off, h, pts) == pytest.approx(0.25, rel=1e-12)

    def test_warns_when_reference_is_small(self):
        rng = np.random.default_rng(14)
        grid = TensorGrid((0.0,), (1.0,), (4,))
        h = fit_histogram(grid, rng.random(50))
        with pytest.warns(UserWarning, match="reference histogram"):
            rmse_vs_histogram(h.evaluate_batch, h, rng.random(100))


class TestCoupling:
    def test_table_rows_are_exact(self):
        expected = {2: (4, 2.75, 256), 3: (8, 1.375, 4096),
                    4: (16, 0.6875, 65536), 5: (32, 0.34375, 1048576)}
        for k, row in expected.items():
            assert coupling(CouplingRule(2, k, -5.5, 5.5)) == row

    def test_first_order(self):
        n_delta, delta, m = coupling(CouplingRule(1, 3, 0.0, 1.0))
        assert (n_delta, m) == (64, 4096)
        assert delta == 1.0 / 64

    def test_m_delta_identity_in_rational_arithmetic(self):
        for r in (1, 2):
            for k in range(1, 7):
                rule = CouplingRule(r, k, -5.5, 5.5)
                n_delta, delta, m = coupling(rule)
                width = Fraction(rule.b) - Fraction(rule.a)
                assert Fraction(m) * Fraction(delta) ** (2 * r) == width ** (2 * r)

    def test_variance_multiplier_scales_m(self):
        base = coupling(CouplingRule(2, 3, -5.5, 5.5))
        scaled = coupling(CouplingRule(2, 3, -5.5, 5.5, m_multiplier=2.0))
        assert scaled[2] == 2 * base[2]
        assert scaled[:2] == base[:2]

    @pytest.mark.parametrize("multiplier", [math.inf, math.nan, 0.0, -1.0])
    def test_multiplier_must_be_finite_and_positive(self, multiplier):
        with pytest.raises(ValueError, match="^m_multiplier must be finite and > 0"):
            CouplingRule(2, 3, -5.5, 5.5, m_multiplier=multiplier)
        with pytest.raises(ValueError, match="^m_multiplier must be finite and > 0"):
            averaged_study(TGAUSS, Coupled(2, m_multiplier=multiplier), [2], [1])

    @pytest.mark.parametrize("r, k, multiplier", [(2, 3, 1e308), (1, 600, 1.0)])
    def test_sample_count_past_the_float_range(self, r, k, multiplier):
        with pytest.raises(ValueError, match=f"^level k={k} with m_multiplier "):
            coupling(CouplingRule(r, k, -5.5, 5.5, m_multiplier=multiplier))

    def test_unsupported_order(self):
        with pytest.raises(UnsupportedOrderError):
            CouplingRule(3, 2, -5.5, 5.5)
        with pytest.raises(UnsupportedOrderError):
            CouplingRule(0, 2, -5.5, 5.5)

    def test_integral_float_order_gives_whole_counts(self, tmp_path):
        # 2.0 in (1, 2) holds: the order must become the int 2, or n_delta is 4.0
        rule = CouplingRule(2.0, 3.0, -5.5, 5.5)
        assert rule.r == 2 and coupling(rule) == (8, 1.375, 4096)
        assert type(coupling(rule)[0]) is int
        result = averaged_study(TGAUSS, Coupled(2.0), [2], [1])
        assert type(result.rows[0].n_delta) is int
        whole = averaged_study(TGAUSS, Coupled(2), [2], [1])
        assert replace(result.rows[0], seconds=0.0) == replace(whole.rows[0], seconds=0.0)
        write_study_csv(result, tmp_path / "study.csv")
        assert (tmp_path / "study.csv").read_text().splitlines()[1].startswith("2,4,2.75,256,")
        with pytest.raises(ValueError, match="coupling order r must be a whole number"):
            CouplingRule(2.5, 3, -5.5, 5.5)


class TestEstimateSupport:
    def test_1d_extremes(self):
        assert estimate_support([-0.9, 0.2, 0.95]) == [(-0.9, 0.95)]

    def test_2d_per_axis(self):
        pts = np.array([[0.0, 5.0], [1.0, 2.0], [-3.0, 4.0]])
        assert estimate_support(pts) == [(-3.0, 1.0), (2.0, 5.0)]

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_coordinate_names_row_and_axis(self, value):
        pts = np.array([[0.0, 5.0], [1.0, 2.0], [-3.0, value]])
        with pytest.raises(SampleOutOfDomainError) as err:
            estimate_support(pts)
        assert (err.value.index, err.value.axis) == (2, 1)
        assert err.value.value == value or math.isnan(value)

    def test_first_offender_in_row_major_order(self):
        # offenders in several rows and on both axes, the last row included;
        # each is named once those before it are mended
        pts = np.random.default_rng(15).random((1000, 2))
        offenders = [(512, 1, math.inf), (513, 0, -math.inf), (513, 1, math.nan),
                     (999, 0, math.nan), (999, 1, -math.inf)]
        for index, axis, value in offenders:
            pts[index, axis] = value
        for index, axis, value in offenders:
            with pytest.raises(SampleOutOfDomainError) as err:
                estimate_support(pts)
            assert (err.value.index, err.value.axis) == (index, axis)
            assert err.value.value == value or math.isnan(value)
            pts[index, axis] = 0.5
        assert estimate_support(pts) == [(float(pts[:, 0].min()), float(pts[:, 0].max())),
                                         (float(pts[:, 1].min()), float(pts[:, 1].max()))]

    def test_degenerate_axis(self):
        with pytest.raises(DegenerateSupportError) as err:
            estimate_support(np.array([[0.0, 1.0], [0.0, 2.0]]))
        assert err.value.axis == 0

    def test_contained_in_true_support_and_monotone(self):
        big = sample(UNIFORM, 10_000, 77)
        previous = None
        for m in (10, 100, 1000, 10_000):
            (lo, hi), = estimate_support(big[:m])
            assert -1.0 <= lo < hi <= 1.0
            if previous is not None:
                assert lo <= previous[0] and hi >= previous[1]
            previous = (lo, hi)


class TestFitRate:
    def test_quadratic_decay(self):
        assert fit_rate([(1.0, 1.0), (0.5, 0.25)]) == pytest.approx(2.0, abs=1e-12)

    def test_flat(self):
        assert fit_rate([(1.0, 1.0), (0.1, 1.0)]) == pytest.approx(0.0, abs=1e-12)

    def test_synthetic_half_order(self):
        xs = np.array([1.0, 0.5, 0.25, 0.125])
        points = list(zip(xs, 3.7 * xs**0.5))
        assert fit_rate(points) == pytest.approx(0.5, abs=1e-12)

    def test_errors(self):
        with pytest.raises(TooFewPointsError):
            fit_rate([(1.0, 1.0)])
        with pytest.raises(NonpositiveValueError):
            fit_rate([(1.0, 0.0), (0.5, 1.0)])
        with pytest.raises(NonpositiveValueError):
            fit_rate([(-1.0, 1.0), (0.5, 1.0)])
        for point in [(1.0, math.nan), (1.0, math.inf), (math.nan, 1.0), (math.inf, 1.0)]:
            with pytest.raises(NonpositiveValueError, match="positive, finite values"):
                fit_rate([point, (2.0, 1.0)])


class TestConvergenceStudy:
    def test_rows_sorted_by_decreasing_delta(self):
        result = convergence_study(TGAUSS, Coupled(2), [2, 3, 4], 7)
        deltas = [r.delta for r in result.rows]
        assert deltas == sorted(deltas, reverse=True)
        assert [r.k for r in result.rows] == [2, 3, 4]
        assert [r.m for r in result.rows] == [256, 4096, 65536]

    def test_deterministic_given_seed(self):
        a = convergence_study(TGAUSS, Coupled(2), [2, 3], 7)
        b = convergence_study(TGAUSS, Coupled(2), [2, 3], 7)
        assert [r.error for r in a.rows] == [r.error for r in b.rows]

    def test_fixed_m_mode(self):
        result = convergence_study(TGAUSS, FixedM(10_000), [3, 4], 7)
        assert [r.n_delta for r in result.rows] == [8, 16]
        assert all(r.m == 10_000 for r in result.rows)
        assert math.isnan(result.fitted_rate_m)

    def test_fixed_delta_mode(self):
        result = convergence_study(TGAUSS, FixedDelta(128), [3, 4], 7)
        assert all(r.n_delta == 128 for r in result.rows)
        assert [r.m for r in result.rows] == [1000, 10_000]
        assert math.isnan(result.fitted_rate_delta)

    def test_explicit_domain_changes_delta(self):
        wide = convergence_study(UNIFORM, Coupled(2), [2, 3], 7, grid_domain=(-1.5, 1.5))
        assert wide.rows[0].delta == pytest.approx(3.0 / 4)

    def test_auto_domain_uses_sample_extremes(self):
        result = convergence_study(UNIFORM, Coupled(2), [3], 7, grid_domain="auto")
        pts = sample(UNIFORM, result.rows[0].m, 7)
        (lo, hi), = estimate_support(pts)
        assert result.rows[0].delta == pytest.approx((hi - lo) / 8, rel=1e-14)

    def test_holdout_changes_error_only(self):
        base = convergence_study(TGAUSS, Coupled(2), [3], 7)
        held = convergence_study(TGAUSS, Coupled(2), [3], 7, holdout=True)
        assert held.rows[0].m == base.rows[0].m
        assert held.rows[0].error != base.rows[0].error

    @pytest.mark.parametrize("mode, grid_domain, holdout", [
        (Coupled(2), None, False),
        (FixedM(5000), None, True),
        (FixedDelta(16), "auto", False),
    ])
    def test_one_draw_per_seed_gives_the_per_level_draws_result(
        self, monkeypatch, mode, grid_domain, holdout
    ):
        levels, seeds = [2, 3, 4], [3, 4]
        # a one-level study draws exactly that level's samples for each seed
        want = {
            k: averaged_study(TGAUSS, mode, [k], seeds, grid_domain=grid_domain,
                              holdout=holdout).rows[0]
            for k in levels
        }
        calls = []

        def counted(spec, m, seed):
            calls.append(seed)
            return sample(spec, m, seed)

        monkeypatch.setattr("binpdf.analysis.sample", counted)
        got = averaged_study(TGAUSS, mode, levels, seeds, grid_domain=grid_domain,
                             holdout=holdout)
        assert len(calls) == len(seeds) * (2 if holdout else 1)
        assert sorted(row.k for row in got.rows) == levels
        for row in got.rows:
            assert replace(row, seconds=0.0) == replace(want[row.k], seconds=0.0)

    def test_levels_validation(self):
        with pytest.raises(ValueError):
            convergence_study(TGAUSS, Coupled(2), [], 7)
        with pytest.raises(ValueError):
            convergence_study(TGAUSS, Coupled(2), [3, 2], 7)

    def test_averaged_study_means_errors(self):
        seeds = [1, 2, 3]
        singles = [convergence_study(TGAUSS, Coupled(2), [2, 3], s) for s in seeds]
        avg = averaged_study(TGAUSS, Coupled(2), [2, 3], seeds)
        for i, row in enumerate(avg.rows):
            assert row.error == pytest.approx(
                np.mean([s.rows[i].error for s in singles]), rel=1e-14
            )

    def test_averaged_auto_domain_is_the_mean_of_single_seed_studies(self):
        seeds = [1, 2, 3]
        singles = [
            convergence_study(UNIFORM, Coupled(2), [2, 3], s, grid_domain="auto")
            for s in seeds
        ]
        avg = averaged_study(UNIFORM, Coupled(2), [2, 3], seeds, grid_domain="auto")
        for i, row in enumerate(avg.rows):
            assert row.delta == np.mean([s.rows[i].delta for s in singles])
            assert row.error == np.mean([s.rows[i].error for s in singles])
        # per-seed extremes differ, so the averaged delta is not any one seed's
        assert len({s.rows[0].delta for s in singles}) == len(seeds)

    @pytest.mark.parametrize("study, seed", [(convergence_study, 0), (averaged_study, [0, 1])])
    def test_holdout_with_auto_domain_is_rejected_before_sampling(
        self, monkeypatch, study, seed
    ):
        # held-out points can fall outside the fitting samples' extremes
        def no_sampling(*args):
            raise AssertionError("sampled before rejecting the arguments")

        monkeypatch.setattr("binpdf.analysis.sample", no_sampling)
        with pytest.raises(ValueError, match="holdout"):
            study(UNIFORM, Coupled(2), [2, 3], seed, grid_domain="auto", holdout=True)

    @pytest.mark.parametrize("levels, grid_domain, message", [
        ([2, 3], [(1.0, 0.0)], "lower < upper"),
        ([2, 3], [(0.0, math.nan)], "lower < upper"),
        ([2, 3], [(-1.0, math.inf)], "lower < upper"),
        ([0, 1], None, "level k must be >= 1"),
        ([2, 2], None, "strictly ascending, got \\[2, 2\\]"),  # two identical rows, nan rates
    ])
    def test_bad_domain_or_level_is_rejected_before_sampling(
        self, monkeypatch, levels, grid_domain, message
    ):
        def no_sampling(*args):
            raise AssertionError("sampled before rejecting the arguments")

        monkeypatch.setattr("binpdf.analysis.sample", no_sampling)
        with pytest.raises(ValueError, match=message):
            averaged_study(UNIFORM, Coupled(2), levels, [0, 1], grid_domain=grid_domain)

    @pytest.mark.parametrize("mode, levels, seeds, message", [
        (Coupled(2), [2, 3], [1, -1], "seed -1 is outside"),
        (Coupled(2), [2, 3], [2**128], "seed 340282366920938463463374607431768211456 is"),
        (FixedM(100), [-1, 0], [0], "level k must be >= 0, got -1"),
        (FixedDelta(4), [-1, 0], [0], "level k must be >= 0, got -1"),
        (Coupled(2), [2, 3], [1, 2, 1.0], "distinct, got \\[1, 2, 1.0\\]"),  # one seed twice
    ])
    def test_bad_seed_or_negative_level_is_rejected_before_sampling(
        self, monkeypatch, mode, levels, seeds, message
    ):
        # with 'auto' no grid is built before the draws, so only the checks stop them
        def no_sampling(*args):
            raise AssertionError("sampled before rejecting the arguments")

        monkeypatch.setattr("binpdf.analysis.sample", no_sampling)
        with pytest.raises(ValueError, match=message):
            averaged_study(UNIFORM, mode, levels, seeds, grid_domain="auto")


@pytest.mark.slow
def test_coupled_rate_windows_on_smooth_gaussians():
    # levels 3..5 sit in the asymptotic regime; the coarsest coupled level
    # (4 bins across an 11-wide box) under-resolves a unit-sd Gaussian and
    # flattens the fitted slope
    tg2 = DistributionSpec((TruncatedGaussian(0.0, 1.0, -5.5, 5.5),) * 2)
    for spec in (TGAUSS, tg2):
        result = averaged_study(spec, Coupled(2), [3, 4, 5], [1, 2, 3, 4, 5])
        assert 1.6 <= result.fitted_rate_delta <= 2.4
        assert 0.35 <= abs(result.fitted_rate_m) <= 0.65


class TwoArgumentError(Exception):
    """Pickles to ``TwoArgumentError(message)``, which its constructor rejects."""

    def __init__(self, a, b):
        super().__init__(f"{a} {b}")


def fits_counting_threads(seed: int) -> int:
    """Threads started by one fit and one evaluation on a 1-D grid."""
    started = []
    start = threading.Thread.start
    threading.Thread.start = lambda t: (started.append(t), start(t))
    try:
        fit(TensorGrid((-5.5,), (5.5,), (64,)), sample(TGAUSS, 1000, seed)).evaluate_batch([0.0, 1.0])
    finally:
        threading.Thread.start = start
    return len(started)


class TestSeedsInWorkers:
    """Seeds whose draw holds at least 2**17 coordinates run in forked worker
    processes, one per available CPU; the CPU count is patched, so two workers
    run on any machine."""

    @staticmethod
    def cpus(monkeypatch, n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)

    @staticmethod
    def pools(monkeypatch):
        """The seed lists sent to worker processes."""
        calls = []
        original = analysis._map_in_workers

        def spy(run, seeds, workers):
            calls.append(list(seeds))
            return original(run, seeds, workers)

        monkeypatch.setattr(analysis, "_map_in_workers", spy)
        return calls

    @pytest.mark.parametrize("mode, levels, grid_domain, holdout", [
        (Coupled(2), [2, 3, 4, 5], None, False),  # 2**20 rows per seed
        (FixedM(2**18), [2, 4], (-5.5, 5.5), True),
        (FixedM(2**18), [2, 4], "auto", False),
    ], ids=["coupled", "holdout", "auto-support"])
    def test_one_and_two_workers_give_equal_rows(
        self, monkeypatch, mode, levels, grid_domain, holdout
    ):
        pools = self.pools(monkeypatch)

        def study():
            return averaged_study(TGAUSS, mode, levels, [1, 2, 3], grid_domain=grid_domain,
                                  holdout=holdout)

        self.cpus(monkeypatch, 1)
        serial = study()
        assert pools == []
        self.cpus(monkeypatch, 2)
        parallel = study()
        assert pools == [[1, 2, 3]]
        assert [replace(r, seconds=0.0) for r in parallel.rows] == \
            [replace(r, seconds=0.0) for r in serial.rows]
        for rate in ("fitted_rate_delta", "fitted_rate_m"):  # NaN at a fixed m
            np.testing.assert_array_equal(getattr(parallel, rate), getattr(serial, rate))

    def test_one_and_two_workers_raise_the_same_error(self, monkeypatch):
        raised = []
        for cpus in (1, 2):
            self.cpus(monkeypatch, cpus)
            with pytest.raises(SampleOutOfDomainError) as err:
                averaged_study(TGAUSS, Coupled(2), [2, 3, 4, 5], [1, 2, 3],
                               grid_domain=(-1.0, 1.0))
            raised.append(err.value)
        assert [(type(e), str(e), e.index, e.axis, e.value) for e in raised] == \
            [(type(raised[0]), str(raised[0]), 1, 0, 1.0309110652836442)] * 2

    def test_small_draws_run_in_process(self, monkeypatch):
        # starting a pool costs more than seeds below 2**17 coordinates
        pools = self.pools(monkeypatch)
        self.cpus(monkeypatch, 2)
        averaged_study(TGAUSS, Coupled(2), [2, 3], [1, 2, 3])
        averaged_study(TGAUSS, FixedM(analysis._POOL_MIN_COORDS - 1), [2], [1, 2, 3],
                       holdout=True)
        assert pools == []

    def test_a_platform_without_fork_runs_in_process(self, monkeypatch):
        pools = self.pools(monkeypatch)
        self.cpus(monkeypatch, 2)
        monkeypatch.delattr(os, "fork")
        averaged_study(TGAUSS, FixedM(analysis._POOL_MIN_COORDS), [2], [1, 2])
        assert pools == []

    def test_a_caller_with_other_threads_runs_in_process(self, monkeypatch):
        # a fork would copy only this thread, and any lock the other one holds
        pools = self.pools(monkeypatch)
        self.cpus(monkeypatch, 2)
        stop = threading.Event()
        other = threading.Thread(target=stop.wait)
        other.start()
        try:
            averaged_study(TGAUSS, FixedM(analysis._POOL_MIN_COORDS), [2], [1, 2])
        finally:
            stop.set()
            other.join(timeout=10)
        assert not other.is_alive()
        assert pools == []

    def test_a_threaded_fit_leaves_the_pool_on(self, monkeypatch):
        # fit and evaluation join their threads before they return
        pools = self.pools(monkeypatch)
        self.cpus(monkeypatch, 2)
        monkeypatch.setattr(estimator, "_THREAD_MIN_NODES", 0)
        started = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start", lambda t: (started.append(t), start(t)))
        grid = TensorGrid((-5.5,), (5.5,), (64,))
        fit(grid, sample(TGAUSS, 1000, 1)).evaluate_batch([0.0, 1.0])
        assert len(started) == 2
        averaged_study(TGAUSS, FixedM(analysis._POOL_MIN_COORDS), [2], [1, 2])
        assert pools == [[1, 2]]

    def test_a_study_worker_starts_no_thread(self, monkeypatch):
        # each worker owns a CPU already; the same fits in this process start two
        self.cpus(monkeypatch, 2)
        monkeypatch.setattr(estimator, "_THREAD_MIN_NODES", 0)
        assert fits_counting_threads(1) == 2
        assert analysis._map_in_workers(fits_counting_threads, [1, 2], 2) == [0, 0]

    def test_the_node_array_counts_against_memory(self, monkeypatch):
        # a 2**20-bin grid's node array is four times a 2**18-row 1-D draw
        pools = self.pools(monkeypatch)
        self.cpus(monkeypatch, 2)
        mode = FixedM(2**18)
        seed_bytes = analysis._seed_bytes(1, [analysis._level_params(mode, 20)], False)
        assert seed_bytes > 8 * 2**20  # the node array alone
        monkeypatch.setattr("binpdf.estimator._physical_memory", lambda: 2 * seed_bytes - 1)
        averaged_study(TGAUSS, mode, [20], [1, 2])
        assert pools == []
        monkeypatch.setattr("binpdf.estimator._physical_memory", lambda: 2 * seed_bytes)
        averaged_study(TGAUSS, mode, [20], [1, 2])
        assert pools == [[1, 2]]

    def test_a_seed_takes_its_draw_and_nodes_not_a_per_point_array(self, monkeypatch):
        # the RMSE streams its sum, so of the evaluation points a seed holds
        # only the draw, not 8 bytes a point of squared differences: a budget
        # of two seeds' draws, node arrays and chunk buffers runs two workers
        pools = self.pools(monkeypatch)
        self.cpus(monkeypatch, 2)
        m = 2**20
        params = [analysis._level_params(FixedM(m), 4)]
        seed_bytes = analysis._seed_bytes(1, params, False)
        assert 2 * seed_bytes < 2 * 8 * (m + m)  # less than two draws and their differences
        grids = [TensorGrid((-5.5,), (5.5,), (16,))]
        tracemalloc.start()
        try:
            analysis._seed_runs(TGAUSS, params, grids, False, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 8 * m < peak < min(1.25 * 8 * m, seed_bytes)
        monkeypatch.setattr("binpdf.estimator._physical_memory", lambda: 2 * seed_bytes)
        averaged_study(TGAUSS, FixedM(m), [4], [1, 2])
        assert pools == [[1, 2]]

    @pytest.mark.skipif(not os.path.exists("/proc/meminfo"), reason="needs Linux's MemAvailable")
    def test_the_budget_is_the_memory_available_now(self, monkeypatch):
        monkeypatch.setattr("binpdf.estimator._physical_memory", lambda: 2**62)
        assert 0 < analysis._memory_budget() < 2**62
        monkeypatch.setattr("binpdf.estimator._physical_memory", lambda: 2**20)
        assert analysis._memory_budget() == 2**20

    def test_a_seed_holds_one_levels_nodes_at_a_time(self):
        spec = DistributionSpec(TGAUSS.axes * 2)
        mode = FixedDelta(2**10)  # 8 MiB of nodes per level
        params = [analysis._level_params(mode, k) for k in (2, 3)]
        grids = [TensorGrid((-5.5,) * 2, (5.5,) * 2, (n_delta,) * 2) for n_delta, _ in params]
        tracemalloc.start()
        try:
            analysis._seed_runs(spec, params, grids, False, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * (2**10 + 1) ** 2

    def test_memory_caps_the_workers(self, monkeypatch):
        self.cpus(monkeypatch, 4)
        monkeypatch.setattr("binpdf.estimator._physical_memory", lambda: 3 * 2**21)
        assert analysis._worker_count(5, 2**21) == 3
        assert analysis._worker_count(5, 2**23) == 1
        assert analysis._worker_count(2, 2**21) == 2
        monkeypatch.setattr("binpdf.estimator._physical_memory", lambda: None)
        assert analysis._worker_count(5, 2**21) == 4

    def test_a_failing_seed_stops_the_other_workers(self, monkeypatch):
        self.cpus(monkeypatch, 2)

        def slow_second_seed(spec, m, seed):
            if seed == 2:
                time.sleep(60)
            return sample(spec, m, seed)

        monkeypatch.setattr("binpdf.analysis.sample", slow_second_seed)
        start = time.monotonic()
        with pytest.raises(SampleOutOfDomainError):
            averaged_study(TGAUSS, Coupled(2), [2, 3, 4, 5], [1, 2], grid_domain=(-1.0, 1.0))
        assert time.monotonic() - start < 30
        assert multiprocessing.active_children() == []

    def test_a_dead_worker_is_an_error_naming_its_seed(self, monkeypatch):
        self.cpus(monkeypatch, 2)

        def third_seed_dies(spec, m, seed):
            if seed == 1:
                time.sleep(0.5)  # still running when seed 3's worker dies
            if seed == 3:
                os.kill(os.getpid(), signal.SIGKILL)
            return sample(spec, m, seed)

        monkeypatch.setattr("binpdf.analysis.sample", third_seed_dies)
        with pytest.raises(BinPdfError, match=r"running seed 3 died \(exit code -9\)"):
            averaged_study(TGAUSS, FixedM(2**18), [2], [1, 2, 3, 4])
        assert multiprocessing.active_children() == []

    def test_an_error_that_cannot_be_unpickled_names_its_seed(self, monkeypatch):
        self.cpus(monkeypatch, 2)

        def unpicklable(spec, m, seed):
            raise TwoArgumentError(seed, "drawn")

        monkeypatch.setattr("binpdf.analysis.sample", unpicklable)
        with pytest.raises(BinPdfError, match="^seed 1: ") as err:
            averaged_study(TGAUSS, FixedM(2**18), [2], [1, 2, 3])
        assert "TwoArgumentError" in str(err.value.__cause__.__cause__)
        assert multiprocessing.active_children() == []


class TestStudyOutput:
    def test_csv_and_plot_script(self, tmp_path):
        result = convergence_study(TGAUSS, Coupled(2), [2, 3], 7)
        csv_path = tmp_path / "study.csv"
        write_study_csv(result, csv_path)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "k,n_delta,delta,m,error,seconds"
        assert len(lines) == 3
        assert lines[1].startswith("2,4,2.75,256,")
        script = tmp_path / "study.gp"
        write_plot_script(csv_path, script)
        text = script.read_text()
        assert "logscale xy" in text
        assert "study.csv" in text
        assert "study.png" in text


# -- bad library input ---------------------------------------------------------------


@pytest.mark.parametrize("call, error, match", [
    (lambda: TensorGrid((0.0,), (1.0,), (2.5,)), ValueError, "n_delta must be a whole"),
    (lambda: sample(TGAUSS, 2.5, 1), ValueError, "m must be a whole"),
    (lambda: averaged_study(TGAUSS, FixedM(100.7), [2], [1]), ValueError, "m must be a whole"),
    (lambda: averaged_study(TGAUSS, FixedDelta(4.9), [2], [1]), ValueError,
     "n_delta must be a whole"),
    (lambda: averaged_study(TGAUSS, Coupled(2), [2, 2.6], [1]), ValueError,
     "level must be a whole"),
    (lambda: averaged_study(TGAUSS, FixedM(0), [2], [1]), EmptySampleSetError,
     "sample count must be >= 1"),
    (lambda: TensorGrid((0.0,), (1.0,), (math.nan,)), ValueError, "n_delta must be a whole"),
    (lambda: sample(TGAUSS, math.inf, 1), ValueError, "m must be a whole"),
    (lambda: sample(TGAUSS, 10, 2.5), ValueError, "seed must be a whole"),
    (lambda: KdeSpec("gaussian", 1.0, [[0.0, 1.0], [0.5, math.nan]]), SampleOutOfDomainError,
     "point 1, coordinate nan on axis 1"),
    (lambda: KdeSpec("triangular", 1.0, [0.0, -math.inf]), SampleOutOfDomainError,
     "point 1, coordinate -inf on axis 0"),
], ids=["grid", "sample", "fixed-m", "fixed-delta", "level", "fixed-m-0", "grid-nan", "sample-inf",
        "seed", "kde-nan", "kde-inf"])
def test_bad_library_input_raises_instead_of_changing_the_result(call, error, match):
    # truncated, 2.5 bins would build 2, and a NaN sample would make every KDE value NaN
    with pytest.raises(error, match=match):
        call()


def test_integral_float_counts_pass():
    assert TensorGrid((0.0,), (1.0,), (4.0,)).n_delta == (4,)
    assert sample(TGAUSS, 1e3, 1).shape == (1000, 1)
    assert averaged_study(TGAUSS, FixedM(1e3), [2.0, 3], [1]).rows[0].m == 1000
