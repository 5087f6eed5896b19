"""Samplers, exact densities, normalization constants, and sample CSV I/O."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtri
from scipy.stats import kstest, truncnorm

from binpdf import (
    DistributionSpec,
    EmptySampleSetError,
    TruncatedGaussian,
    TruncatedLaplace,
    Uniform,
    exact_pdf,
    read_samples_csv,
    sample,
    write_samples_csv,
)
from binpdf.sampling import _ndtri

TGAUSS = DistributionSpec((TruncatedGaussian(0.0, 1.0, -5.5, 5.5),))
LAPLACE = DistributionSpec((TruncatedLaplace(0.0, 1.5, -5.5, 5.5),))
UNIFORM = DistributionSpec((Uniform(-1.0, 1.0),))
MIXED2D = DistributionSpec(
    (TruncatedGaussian(0.0, 2.0, -5.5, 5.5), TruncatedGaussian(0.0, 1.0, -5.5, 5.5))
)


def mp_gauss_mass(mean, sd, lo, hi):
    a = (mpmath.mpf(lo) - mean) / (sd * mpmath.sqrt(2))
    b = (mpmath.mpf(hi) - mean) / (sd * mpmath.sqrt(2))
    return (mpmath.erf(b) - mpmath.erf(a)) / 2


class TestAxisValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TruncatedGaussian(0.0, 0.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            TruncatedGaussian(0.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            Uniform(2.0, 1.0)
        with pytest.raises(ValueError):
            TruncatedLaplace(0.0, -1.0, -1.0, 1.0)


class TestExactPdf:
    def test_uniform_value(self):
        assert exact_pdf(UNIFORM, [0.0]) == 0.5

    def test_truncated_gaussian_against_mpmath(self):
        mpmath.mp.dps = 40
        mass = mp_gauss_mass(0, 1, -5.5, 5.5)
        expected = float(1 / (mpmath.sqrt(2 * mpmath.pi) * mass))
        assert exact_pdf(TGAUSS, [0.0]) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.3989423, abs=5e-8)
        assert abs(float(mass) - 1.0) < 1e-7

    def test_truncated_laplace_value(self):
        c_l = 1.0 - math.exp(-5.5 / 1.5)
        assert exact_pdf(LAPLACE, [0.0]) == pytest.approx(1.0 / (3.0 * c_l), rel=1e-14)

    def test_mixed_bivariate_value(self):
        mpmath.mp.dps = 40
        c_g = mp_gauss_mass(0, 1, -5.5, 5.5)
        c_g_wide = (mpmath.erf(mpmath.mpf("2.75") / mpmath.sqrt(2))
                    - mpmath.erf(-mpmath.mpf("2.75") / mpmath.sqrt(2))) / 2
        expected = float(
            1 / (mpmath.sqrt(8 * mpmath.pi) * c_g_wide)
            * 1 / (mpmath.sqrt(2 * mpmath.pi) * c_g)
        )
        assert exact_pdf(MIXED2D, [0.0, 0.0]) == pytest.approx(expected, rel=1e-12)

    def test_zero_outside_support(self):
        assert exact_pdf(UNIFORM, [1.5]) == 0.0
        assert exact_pdf(MIXED2D, [0.0, 6.0]) == 0.0

    @pytest.mark.parametrize(
        "spec",
        [TGAUSS, LAPLACE, UNIFORM, MIXED2D],
        ids=["tgauss", "laplace", "uniform", "mixed2d"],
    )
    def test_quadrature_integral_is_one(self, spec):
        total = 1.0
        for axis in spec.axes:
            breaks = [getattr(axis, "location", None)]
            points = [b for b in breaks if b is not None and axis.lo < b < axis.hi]
            value, _ = quad(lambda x: float(axis.pdf(x)), axis.lo, axis.hi,
                            points=points or None, limit=200)
            total *= value
        assert total == pytest.approx(1.0, abs=1e-8)


class TestSampling:
    def test_same_seed_is_bit_identical(self):
        a = sample(TGAUSS, 1000, 7)
        b = sample(TGAUSS, 1000, 7)
        np.testing.assert_array_equal(a, b)
        c = sample(TGAUSS, 1000, 8)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize(
        "spec", [TGAUSS, LAPLACE, UNIFORM, MIXED2D],
        ids=["tgauss", "laplace", "uniform", "mixed2d"],
    )
    def test_prefix_nesting(self, spec):
        small = sample(spec, 1000, 5)
        large = sample(spec, 10_000, 5)
        np.testing.assert_array_equal(small, large[:1000])

    @pytest.mark.parametrize(
        "spec", [TGAUSS, LAPLACE, UNIFORM, MIXED2D],
        ids=["tgauss", "laplace", "uniform", "mixed2d"],
    )
    def test_samples_inside_support(self, spec):
        pts = sample(spec, 50_000, 11)
        lo, hi = spec.support
        assert (pts >= np.array(lo)).all()
        assert (pts <= np.array(hi)).all()

    def test_rejects_zero_samples(self):
        with pytest.raises(EmptySampleSetError):
            sample(TGAUSS, 0, 1)

    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_seed_outside_the_philox_key_range_is_named(self, seed):
        with pytest.raises(ValueError, match=rf"^seed {seed} .*\[0, 2\*\*128\)$"):
            sample(TGAUSS, 10, seed)

    @pytest.mark.parametrize("seed", [0, 3, 2024])
    def test_equals_column_stack_of_axis_ppfs(self, seed):
        spec = DistributionSpec(
            (
                TruncatedGaussian(0.5, 2.0, -5.5, 4.0),
                Uniform(-1.0, 3.0),
                TruncatedLaplace(0.0, 1.5, -5.5, 5.5),
            )
        )
        u = np.random.Generator(np.random.Philox(key=seed)).random((5001, 3))
        want = np.column_stack([axis.ppf(u[:, n]) for n, axis in enumerate(spec.axes)])
        got = sample(spec, 5001, seed)
        assert got.dtype == np.float64 and got.flags.c_contiguous
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))

    def test_truncated_gaussian_moments(self):
        mpmath.mp.dps = 30
        axis = TGAUSS.axes[0]
        mass = mp_gauss_mass(axis.mean, axis.sd, axis.lo, axis.hi)
        density = lambda x: mpmath.npdf(x, 0, 1) / mass
        exact_mean = float(mpmath.quad(lambda x: x * density(x), [-5.5, 0, 5.5]))
        exact_var = float(mpmath.quad(lambda x: x * x * density(x), [-5.5, 0, 5.5]))
        assert exact_mean == pytest.approx(0.0, abs=1e-12)
        assert exact_var == pytest.approx(1.0, abs=2e-6)
        pts = sample(TGAUSS, 1_000_000, 123)
        assert -0.005 <= pts.mean() - exact_mean <= 0.005
        assert 0.99 <= pts.var() <= 1.01

    @pytest.mark.parametrize(
        "spec", [TGAUSS, LAPLACE, UNIFORM],
        ids=["tgauss", "laplace", "uniform"],
    )
    def test_kolmogorov_smirnov(self, spec):
        n = 100_000
        pts = np.sort(sample(spec, n, 2024)[:, 0])
        cdf = spec.axes[0].cdf(pts)
        i = np.arange(1, n + 1)
        stat = max(np.max(i / n - cdf), np.max(cdf - (i - 1) / n))
        # 0.001-significance Kolmogorov threshold: sqrt(-ln(alpha/2)/2) / sqrt(n)
        threshold = math.sqrt(-math.log(0.0005) / 2.0) / math.sqrt(n)
        assert stat < threshold


def mp_std_cdf(family, z):
    z = mpmath.mpf(z)
    if family is TruncatedGaussian:
        return mpmath.ncdf(z)
    return mpmath.exp(z) / 2 if z < 0 else 1 - mpmath.exp(-z) / 2


def mp_std_kernel(family, z):
    z = mpmath.mpf(z)
    return mpmath.npdf(z) if family is TruncatedGaussian else mpmath.exp(-abs(z)) / 2


class TestFarTailWindows:
    """A window far above the location is as exact as its mirror image below it."""

    @pytest.mark.parametrize("family, lo, hi", [
        (TruncatedGaussian, 6.0, 7.0), (TruncatedGaussian, 8.0, 9.0),
        (TruncatedGaussian, 10.0, 11.0),
        (TruncatedLaplace, 30.0, 31.0), (TruncatedLaplace, 36.0, 37.0),
    ])
    def test_pdf_and_cdf_against_mpmath(self, family, lo, hi):
        mpmath.mp.dps = 50
        for a, b in [(lo, hi), (-hi, -lo)]:
            axis = family(0.0, 1.0, a, b)
            mass = mp_std_cdf(family, b) - mp_std_cdf(family, a)
            x = a + (b - a) * np.array([0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0])
            pdf = [mp_std_kernel(family, xi) / mass for xi in x]
            cdf = [(mp_std_cdf(family, xi) - mp_std_cdf(family, a)) / mass for xi in x]
            np.testing.assert_allclose(axis.pdf(x), np.array(pdf, dtype=float), rtol=1e-12)
            np.testing.assert_allclose(axis.cdf(x), np.array(cdf, dtype=float), rtol=1e-12)

    def test_kolmogorov_smirnov_far_above_the_mean(self):
        spec = DistributionSpec((TruncatedGaussian(0.0, 1.0, 8.0, 9.0),))
        pts = sample(spec, 100_000, 2024)[:, 0]
        assert kstest(pts, truncnorm(8.0, 9.0).cdf).pvalue > 1e-3

    @pytest.mark.parametrize("axis", [
        (TruncatedGaussian, 0.0, 1.0, 40.0, 41.0), (TruncatedGaussian, 0.0, 1.0, -41.0, -40.0),
        (TruncatedLaplace, 0.0, 1.0, 800.0, 801.0), (Uniform, -1e308, 1e308),
    ], ids=["tgauss-above", "tgauss-below", "laplace", "uniform-overflow"])
    def test_window_without_probability_is_rejected(self, axis):
        family, *params = axis
        with pytest.raises(ValueError, match="holds no probability in double precision"):
            family(*params)


class TestNarrowWindows:
    """A window at the location keeps its relative precision however narrow."""

    @pytest.mark.parametrize("width", [1e-4, 1e-5, 1e-6, 1e-7, 1e-8])
    def test_pdf_against_mpmath(self, width):
        mpmath.mp.dps = 50
        for lo, hi in [(0.0, width), (-width / 2, width / 2)]:
            axis = TruncatedGaussian(0.0, 1.0, lo, hi)
            mass = mpmath.ncdf(hi) - mpmath.ncdf(lo)
            x = lo + (hi - lo) * np.array([0.0, 0.25, 0.5, 0.75, 1.0])
            pdf = [mpmath.npdf(xi) / mass for xi in x]
            np.testing.assert_allclose(axis.pdf(x), np.array(pdf, dtype=float), rtol=1e-14, atol=0)

    @pytest.mark.parametrize("width", [1e-4, 1e-5, 1e-6, 1e-7, 1e-8])
    def test_laplace_mass_and_pdf_against_mpmath(self, width):
        mpmath.mp.dps = 50
        for lo, hi in [(0.0, width), (-width / 2, width / 2)]:
            axis = TruncatedLaplace(0.0, 1.0, lo, hi)
            mass = mp_std_cdf(TruncatedLaplace, hi) - mp_std_cdf(TruncatedLaplace, lo)
            assert axis.mass == pytest.approx(float(mass), rel=1e-14, abs=0)
            x = lo + (hi - lo) * np.array([0.0, 0.25, 0.5, 0.75, 1.0])
            pdf = [mp_std_kernel(TruncatedLaplace, xi) / mass for xi in x]
            np.testing.assert_allclose(axis.pdf(x), np.array(pdf, dtype=float), rtol=1e-14, atol=0)


class TestNormalQuantile:
    """The AS 241 quantile against the exact quantile of each double ``p``."""

    def test_against_mpmath(self):
        mpmath.mp.dps = 50
        p = np.concatenate([
            10.0 ** np.linspace(-300, math.log10(0.5), 3000, endpoint=False),
            1.0 - 10.0 ** np.linspace(-15, math.log10(0.5), 1500, endpoint=False),
        ])
        rel = []
        for pi, start, got in zip(p, ndtri(p), _ndtri(p)):
            # Newton on ncdf(x) = p from scipy's value, which is within a few ulps
            x, target = mpmath.mpf(float(start)), mpmath.mpf(float(pi))
            for _ in range(3):
                x -= (mpmath.ncdf(x) - target) / mpmath.npdf(x)
            rel.append(float(abs((mpmath.mpf(float(got)) - x) / x)))
        assert max(rel) <= 1e-15
        assert np.median(rel) <= 2e-16

    def test_edge_values(self):
        x = _ndtri(np.array([0.0, 1.0, np.nan, 0.5, -0.25, 1.25]))
        assert x[:2].tolist() == [-np.inf, np.inf]
        assert np.isnan(x[2]) and x[3] == 0.0 and np.isnan(x[4:]).all()

    def test_element_by_element(self):
        p = np.concatenate([[0.0, 1.0, np.nan, 0.075, 0.925, 1e-11, 1e-12, 5e-324],
                            np.random.default_rng(4).random(200)])
        whole = _ndtri(p)
        one_by_one = np.array([_ndtri(p[i:i + 1])[0] for i in range(p.size)])
        np.testing.assert_array_equal(whole, one_by_one)
        np.testing.assert_array_equal(_ndtri(p[::-1]), whole[::-1])
        np.testing.assert_array_equal(_ndtri(p[:200].reshape(20, 10)), whole[:200].reshape(20, 10))
        assert _ndtri(p[5]).shape == () and _ndtri(p[5]) == whole[5]  # a scalar in the far tail

    def test_scalar_and_2d_ppf_match_the_1d_ppf(self):
        axis = TruncatedGaussian(0.0, 1.0, -5.5, 5.5)
        u = np.random.default_rng(8).random(60)
        want = axis.ppf(u)
        np.testing.assert_array_equal(axis.ppf(u.reshape(6, 10)), want.reshape(6, 10))
        assert [axis.ppf(ui) for ui in u] == want.tolist()


class TestCsvRoundTrip:
    def test_round_trip_exact(self, tmp_path):
        pts = sample(MIXED2D, 500, 3)
        path = tmp_path / "samples.csv"
        write_samples_csv(path, pts, seed=3)
        first = path.read_text().splitlines()[0]
        assert first.startswith("#") and "dim=2" in first and "seed=3" in first
        np.testing.assert_array_equal(read_samples_csv(path), pts)

    @pytest.mark.parametrize("text", ["", "# dim=2 rows=0\n", "\n\n"])
    def test_empty_file_raises_naming_it_without_a_warning(self, tmp_path, text):
        path = tmp_path / "empty.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EmptySampleSetError, match="empty.csv"):
                read_samples_csv(path)

    def test_1d_column_shape(self, tmp_path):
        pts = sample(UNIFORM, 100, 1)
        path = tmp_path / "u.csv"
        write_samples_csv(path, pts)
        out = read_samples_csv(path)
        assert out.shape == (100, 1)
        np.testing.assert_array_equal(out, pts)
