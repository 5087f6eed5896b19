"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. Criteria involving Monte
Carlo rate windows average errors over five fixed seeds per level before
fitting log-log slopes.
"""

import contextlib
import time

import numpy as np
import pytest

from binpdf import (
    Coupled,
    CouplingRule,
    DistributionSpec,
    FixedDelta,
    FixedM,
    KdeSpec,
    TensorGrid,
    TruncatedGaussian,
    TruncatedLaplace,
    Uniform,
    averaged_study,
    convergence_study,
    coupling,
    estimate_support,
    eval_kde,
    fit,
    fit_histogram,
    read_samples_csv,
    rmse_vs_histogram,
    sample,
)
from binpdf.cli import main as cli_main

from test_estimator import all_nodes_fit
from test_grid import edge_mesh

pytestmark = pytest.mark.acceptance

SEEDS = [101, 102, 103, 104, 105]

TGAUSS_1D = DistributionSpec((TruncatedGaussian(0.0, 1.0, -5.5, 5.5),))
TGAUSS_2D = DistributionSpec((TruncatedGaussian(0.0, 1.0, -5.5, 5.5),) * 2)
LAPLACE_1D = DistributionSpec((TruncatedLaplace(0.0, 1.5, -5.5, 5.5),))
UNIFORM_1D = DistributionSpec((Uniform(-1.0, 1.0),))
MIXED_2D = DistributionSpec(
    (TruncatedGaussian(0.0, 2.0, -5.5, 5.5), TruncatedGaussian(0.0, 1.0, -5.5, 5.5))
)


@contextlib.contextmanager
def criterion(num: int, label: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < budget_seconds, f"runtime {elapsed:.1f}s over budget"
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"[criterion {num:2d}] FAIL: {label} ({elapsed:.1f}s)")
        raise
    print(f"[criterion {num:2d}] PASS: {label} ({elapsed:.1f}s)")


def test_c01_unit_integral_and_nonnegativity():
    rng = np.random.default_rng(9001)
    with criterion(1, "unit integral and nonnegative coefficients, 100 random fits", 60):
        for _ in range(100):
            dim = int(rng.integers(1, 4))
            n_delta = tuple(int(n) for n in rng.integers(1, 33, size=dim))
            lower = rng.uniform(-4.0, 0.0, size=dim)
            upper = lower + rng.uniform(0.5, 8.0, size=dim)
            grid = TensorGrid(tuple(lower), tuple(upper), n_delta)
            m = int(rng.integers(1, 100_001))
            pts = rng.uniform(lower, upper, size=(m, dim))
            if m >= 3:
                pts[0] = lower  # exact corners stress the clamp rule
                pts[1] = upper
            pdf = fit(grid, pts)
            assert (pdf.coefficients >= 0).all()
            assert abs(pdf.integral() - 1.0) <= 1e-10


def test_c02_brute_force_fit_oracle():
    rng = np.random.default_rng(9002)
    max_n = {1: 124, 2: 10, 3: 4}  # keeps node counts at or below 125
    with criterion(2, "fit matches the all-nodes oracle on 50 small instances", 10):
        for _ in range(50):
            dim = int(rng.integers(1, 4))
            n_delta = tuple(int(n) for n in rng.integers(1, max_n[dim] + 1, size=dim))
            lower = rng.uniform(-2.0, 0.0, size=dim)
            upper = lower + rng.uniform(0.5, 3.0, size=dim)
            grid = TensorGrid(tuple(lower), tuple(upper), n_delta)
            assert grid.n_nodes <= 125
            m = int(rng.integers(1, 101))
            pts = rng.uniform(lower, upper, size=(m, dim))
            pdf = fit(grid, pts)
            np.testing.assert_allclose(
                pdf.coefficients, all_nodes_fit(grid, pts), atol=1e-12, rtol=0
            )


def test_c03_kde_identity_at_interior_nodes():
    rng = np.random.default_rng(9003)
    with criterion(3, "interior coefficients equal triangular KDE at nodes", 30):
        for trial in range(20):
            dim = 1 if trial % 2 == 0 else 2
            n = int(rng.integers(3, 9))
            grid = TensorGrid((0.0,) * dim, (1.0,) * dim, (n,) * dim)
            delta = grid.deltas[0]
            m = int(rng.integers(50, 2001))
            pts = rng.uniform(delta, 1.0 - delta, size=(m, dim))
            pdf = fit(grid, pts)
            kde = KdeSpec("triangular", delta, pts)
            coords = edge_mesh(grid, grid.node_shape)
            for flat, node in enumerate(np.ndindex(grid.node_shape)):
                if any(i == 0 or i == n for i in node):
                    continue
                kde_value = eval_kde(kde, coords[flat])
                assert abs(pdf.coefficients[flat] - kde_value) <= 1e-12


def test_c04_delta_rate_smooth_pdf():
    with criterion(4, "1D Gaussian fixed-M delta rate in [1.6, 2.4]", 300):
        result = averaged_study(TGAUSS_1D, FixedM(10**6), [3, 4, 5, 6], SEEDS)
        assert 1.6 <= result.fitted_rate_delta <= 2.4, result.fitted_rate_delta


def test_c05_m_rate_smooth_pdf():
    with criterion(5, "1D Gaussian fixed-delta M rate magnitude in [0.35, 0.65]", 300):
        result = averaged_study(TGAUSS_1D, FixedDelta(128), [3, 4, 5, 6], SEEDS)
        assert 0.35 <= abs(result.fitted_rate_m) <= 0.65, result.fitted_rate_m


def test_c06_coupled_rule_dimension_independence():
    with criterion(6, "coupled rule: rates in window, dims within 3x", 600):
        result_1d = averaged_study(TGAUSS_1D, Coupled(2), [2, 3, 4, 5], SEEDS)
        result_2d = averaged_study(TGAUSS_2D, Coupled(2), [2, 3, 4, 5], SEEDS)
        for row_1d, row_2d in zip(result_1d.rows, result_2d.rows):
            ratio = row_2d.error / row_1d.error
            assert 1.0 / 3.0 < ratio < 3.0, f"k={row_1d.k} dimension ratio {ratio}"
        for result in (result_1d, result_2d):
            assert 1.6 <= result.fitted_rate_delta <= 2.4, (
                f"fitted delta rate {result.fitted_rate_delta:.4f} over levels "
                f"k=2..5; errors {[f'{r.error:.3e}' for r in result.rows]}"
            )


def test_c07_coupling_rule_table():
    with criterion(7, "coupling rule reproduces the k=2..5 schedule exactly", 5):
        expected = {
            2: (4, 2.75, 256),
            3: (8, 1.375, 4096),
            4: (16, 0.6875, 65536),
            5: (32, 0.34375, 1048576),
        }
        for k, row in expected.items():
            assert coupling(CouplingRule(2, k, -5.5, 5.5)) == row


def test_c08_unknown_support_procedure():
    with criterion(8, "unknown support: oversized box degrades, extremes recover", 300):
        wide = averaged_study(
            UNIFORM_1D, Coupled(2), [2, 3, 4, 5], SEEDS, grid_domain=(-1.5, 1.5)
        )
        assert wide.fitted_rate_delta < 1.0, wide.fitted_rate_delta

        for seed in SEEDS:
            per_seed_wide = convergence_study(
                UNIFORM_1D, Coupled(2), [4, 5], seed, grid_domain=(-1.5, 1.5)
            )
            per_seed_auto = convergence_study(
                UNIFORM_1D, Coupled(2), [4, 5], seed, grid_domain="auto"
            )
            for row_wide, row_auto in zip(per_seed_wide.rows, per_seed_auto.rows):
                assert row_auto.error < row_wide.error, f"seed {seed}, k={row_wide.k}"

        _, _, m5 = coupling(CouplingRule(2, 5, -1.0, 1.0))
        for seed in SEEDS:
            (lo, hi), = estimate_support(sample(UNIFORM_1D, m5, seed))
            assert abs(lo + 1.0) < 1e-4 and abs(hi - 1.0) < 1e-4


def test_c09_non_smooth_pdf_rates():
    with criterion(9, "Laplace: reduced delta rate, optimal M rate", 300):
        laplace = averaged_study(LAPLACE_1D, FixedM(10**6), [3, 4, 5, 6], SEEDS)
        gauss = averaged_study(TGAUSS_1D, FixedM(10**6), [3, 4, 5, 6], SEEDS)
        assert laplace.fitted_rate_delta < 1.6, laplace.fitted_rate_delta
        assert laplace.fitted_rate_delta < gauss.fitted_rate_delta
        # bin width 11/2**12 keeps the kink bias below the sampling error
        # for every sample count on the schedule
        fixed_delta = averaged_study(LAPLACE_1D, FixedDelta(4096), [3, 4, 5, 6], SEEDS)
        assert 0.35 <= abs(fixed_delta.fitted_rate_m) <= 0.65, fixed_delta.fitted_rate_m


def test_c10_bivariate_mixed_pdf_rate():
    with criterion(10, "bivariate mixed-width Gaussian coupled rate", 600):
        result = averaged_study(MIXED_2D, Coupled(2), [2, 3, 4, 5], SEEDS)
        assert 1.6 <= result.fitted_rate_delta <= 2.4, (
            f"fitted delta rate {result.fitted_rate_delta:.4f} over levels "
            f"k=2..5; errors {[f'{r.error:.3e}' for r in result.rows]}"
        )


def test_c11_linear_scaling_in_sample_count():
    with criterion(11, "fit time ratio at 4M vs M in [2.5, 6]", 120):
        grid = TensorGrid((-5.5,), (5.5,), (32,))
        base_pts = sample(TGAUSS_1D, 10**6, 42)
        quad_pts = sample(TGAUSS_1D, 4 * 10**6, 42)
        fit(grid, base_pts)  # warm up
        fit(grid, quad_pts)
        base_times, quad_times = [], []
        # interleave so machine-load drift hits both measurements alike
        for _ in range(5):
            start = time.perf_counter()
            fit(grid, base_pts)
            base_times.append(time.perf_counter() - start)
            start = time.perf_counter()
            fit(grid, quad_pts)
            quad_times.append(time.perf_counter() - start)
        ratio = min(quad_times) / min(base_times)
        assert 2.5 <= ratio <= 6.0, ratio


def test_c12_histogram_surrogate_methodology(qoi_csv):
    with criterion(12, "surrogate RMSE decreases across coarse configurations", 300):
        y = read_samples_csv(qoi_csv)
        assert y.shape == (16**6, 1)
        lo, hi = float(y.min()), float(y.max())
        reference = fit_histogram(TensorGrid((lo,), (hi,), (64,)), y)
        errors = []
        for n_delta, m in ((16, 16**4), (32, 16**5)):
            coarse = y[:m]
            pdf = fit(TensorGrid((lo,), (hi,), (n_delta,)), coarse)
            errors.append(rmse_vs_histogram(pdf.evaluate_batch, reference, coarse))
        assert errors[0] > 0.0
        assert errors[1] < errors[0], errors


def test_c13_cli_determinism(tmp_path):
    def run(*argv):
        assert cli_main(list(argv)) == 0

    def study_without_seconds(path):
        return [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]

    with criterion(13, "identical CLI invocations give identical outputs", 60):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            run("sample", "--dist", "mixed2d", "--m", "2000", "--seed", "5",
                "--out", str(out))
        assert a.read_bytes() == b.read_bytes()

        fit_a, fit_b = tmp_path / "fa.csv", tmp_path / "fb.csv"
        for out in (fit_a, fit_b):
            run("fit", "--samples", str(a), "--lower=-5.5,-5.5", "--upper", "5.5,5.5",
                "--n-delta", "8", "--out", str(out))
        assert fit_a.read_bytes() == fit_b.read_bytes()
        assert (tmp_path / "fa.json").read_bytes() == (tmp_path / "fb.json").read_bytes()

        cmp_a, cmp_b = tmp_path / "ca.csv", tmp_path / "cb.csv"
        for out in (cmp_a, cmp_b):
            run("compare", "--samples", str(a), "--ref-n-delta", "16",
                "--n-delta", "4", "--m", "500", "--estimators", "fe,histogram",
                "--out", str(out))
        assert cmp_a.read_bytes() == cmp_b.read_bytes()

        study_paths = [tmp_path / name for name in ("s1.csv", "s2.csv", "s3.csv")]
        for out, threads in zip(study_paths, ("1", "1", "3")):
            run("study", "--dist", "tgauss1d", "--mode", "coupled:2", "--k", "2..4",
                "--seeds", "7,8", "--threads", threads, "--out", str(out))
        first = study_without_seconds(study_paths[0])
        for other in study_paths[1:]:
            assert study_without_seconds(other) == first
