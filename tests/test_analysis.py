"""Error metrics, coupling rule, support estimation, rate fits, and studies."""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from binpdf import (
    Coupled,
    CouplingRule,
    DegenerateSupportError,
    DistributionSpec,
    FixedDelta,
    FixedM,
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
)

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

    def test_permutation_invariant(self):
        rng = np.random.default_rng(9)
        pts = sample(TGAUSS, 2000, 3)
        pdf = fit(TensorGrid((-5.5,), (5.5,), (16,)), pts)
        a = rmse_vs_exact(pdf.evaluate_batch, TGAUSS, pts)
        b = rmse_vs_exact(pdf.evaluate_batch, TGAUSS, rng.permutation(pts, axis=0))
        assert a == pytest.approx(b, rel=1e-12)


class TestRmseVsHistogram:
    def test_reference_against_itself_at_bin_centers(self):
        rng = np.random.default_rng(12)
        grid = TensorGrid((0.0,), (1.0,), (8,))
        h = fit_histogram(grid, rng.random(4000))
        centers = grid.bin_lower_corners() + 0.5 * grid.deltas[0]
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

    def test_unsupported_order(self):
        with pytest.raises(UnsupportedOrderError):
            CouplingRule(3, 2, -5.5, 5.5)
        with pytest.raises(UnsupportedOrderError):
            CouplingRule(0, 2, -5.5, 5.5)


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
