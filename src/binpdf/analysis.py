"""Error metrics, bin/sample coupling, support estimation, and study harness.

The accuracy of a fitted density depends on both the bin width and the sample
count, so convergence is studied three ways: shrinking the bin width at a
fixed large sample count, growing the sample count at a fixed small bin
width, and coupling the two through ``M = N_delta**(2 r)`` so discretization
and sampling errors shrink together. Each seed draws its samples once; each
study level takes a growing prefix of that draw (nested samples), fits the
estimator, measures the RMSE of the density values at the sample points
against the exact density, and records the fit wall time; rates are
least-squares slopes in log-log space.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import estimator
from .baselines import Histogram
from .errors import (
    DegenerateSupportError,
    EmptySampleSetError,
    NonpositiveValueError,
    SampleOutOfDomainError,
    TooFewPointsError,
    UnsupportedOrderError,
)
from .grid import TensorGrid, as_points
from .sampling import DistributionSpec, check_seed, sample
from .textio import write_text

# XOR mask applied to the base seed when drawing an independent held-out
# evaluation set, keeping it disjoint from the fitting stream.
_HOLDOUT_SEED_XOR = 0x9E3779B97F4A7C15


# -- error metrics -------------------------------------------------------------


def _rmse(reference_eval, approx_eval, samples, dim: int, reference_count=None) -> float:
    """RMS difference of two evaluators at the samples; warns on a small reference."""
    pts = as_points(samples, dim)
    if pts.shape[0] == 0:
        raise EmptySampleSetError("error metric needs at least one sample point")
    if reference_count is not None and reference_count <= pts.shape[0]:
        warnings.warn(
            "reference histogram was built from no more samples than the "
            "approximation is being checked on; the surrogate error is unreliable",
            stacklevel=3,
        )
    diff = reference_eval(pts) - np.asarray(approx_eval(pts), dtype=np.float64)
    return float(np.sqrt(np.mean(diff * diff)))


def rmse_vs_exact(approx_eval, exact: DistributionSpec, samples) -> float:
    """Root mean square difference of densities at the sample points.

    ``approx_eval`` maps an (m, dim) array of points to m density values
    (e.g. ``pdf.evaluate_batch``).
    """
    return _rmse(exact.pdf, approx_eval, samples, exact.dim)


def rmse_vs_histogram(approx_eval, reference: Histogram, samples) -> float:
    """Same metric with a fine histogram standing in for the exact density.

    The reference should be built from far more samples (and far smaller
    bins) than the approximation; only the sample-count side is visible here,
    so a too-small reference triggers a warning rather than an error.
    """
    return _rmse(
        reference.evaluate_batch, approx_eval, samples, reference.grid.dim,
        reference.sample_count,
    )


# -- bin-size / sample-size coupling -------------------------------------------


@dataclass(frozen=True)
class CouplingRule:
    """Refinement schedule tying the sample count to the bin count.

    For expected bin-size order ``r`` and level ``k``, the bin count is
    ``N_delta = 2**((3 - r) * k)`` and the sample count ``M = N_delta**(2 r)``,
    which balances an O(delta**r) discretization error against the
    O(M**-1/2) sampling error. ``m_multiplier`` optionally scales M for
    high-variance densities (default 1).
    """

    r: int
    k: int
    a: float
    b: float
    m_multiplier: float = 1.0

    def __post_init__(self):
        if self.r not in (1, 2):
            raise UnsupportedOrderError(
                f"coupling order r={self.r} is not supported: the exponent "
                "3 - r must stay positive"
            )
        if self.k < 1:
            raise ValueError(f"level k must be >= 1, got {self.k}")
        if not self.a < self.b:
            raise ValueError(f"need a < b, got [{self.a}, {self.b}]")
        if not self.m_multiplier > 0:
            raise ValueError("m_multiplier must be > 0")


def coupling(rule: CouplingRule) -> tuple[int, float, int]:
    """(n_delta, delta, m) for one refinement level of the coupling rule."""
    n_delta = 2 ** ((3 - rule.r) * rule.k)
    delta = (rule.b - rule.a) / n_delta
    m = int(round(rule.m_multiplier * n_delta ** (2 * rule.r)))
    return n_delta, delta, m


# -- support estimation ---------------------------------------------------------


def estimate_support(samples) -> list[tuple[float, float]]:
    """Componentwise sample extremes, one (min, max) pair per axis.

    The samples necessarily lie inside the true support, so the extremes
    provide a conservative, consistent estimate of it; build the grid on
    this box when the support is unknown. A NaN or infinite coordinate
    raises :class:`SampleOutOfDomainError` naming its row and axis.
    """
    pts = np.asarray(samples, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if pts.shape[0] == 0:
        raise EmptySampleSetError("support estimation needs samples")
    bad = ~np.isfinite(pts)
    if bad.any():
        index, axis = np.argwhere(bad)[0]
        raise SampleOutOfDomainError(int(index), int(axis), float(pts[index, axis]))
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    for axis in range(pts.shape[1]):
        if lo[axis] == hi[axis]:
            raise DegenerateSupportError(axis)
    return [(float(a), float(b)) for a, b in zip(lo, hi)]


# -- log-log rate fitting --------------------------------------------------------


def fit_rate(points) -> float:
    """Least-squares slope of log(error) against log(x) for (x, error) pairs."""
    pts = [(float(x), float(e)) for x, e in points]
    if len(pts) < 2:
        raise TooFewPointsError(f"rate fit needs >= 2 points, got {len(pts)}")
    for x, e in pts:
        if x <= 0 or e <= 0:
            raise NonpositiveValueError(f"rate fit needs positive values, got ({x}, {e})")
    logx = np.log([x for x, _ in pts])
    loge = np.log([e for _, e in pts])
    return float(np.polyfit(logx, loge, 1)[0])


def _slope_or_nan(x: np.ndarray, err: np.ndarray) -> float:
    if np.ptp(x) == 0.0:
        return float("nan")
    return fit_rate(list(zip(x, err)))


# -- convergence studies -----------------------------------------------------------


@dataclass(frozen=True)
class FixedM:
    """Fixed sample count; level k halves the bin width: n_delta = 2**k."""

    m: int


@dataclass(frozen=True)
class FixedDelta:
    """Fixed bin count; level k sets the sample count to 10**k."""

    n_delta: int


@dataclass(frozen=True)
class Coupled:
    """Bin and sample counts tied through the coupling rule of order r."""

    r: int
    m_multiplier: float = 1.0


StudyMode = FixedM | FixedDelta | Coupled


@dataclass(frozen=True)
class StudyLevel:
    k: int
    n_delta: int
    delta: float
    m: int
    error: float
    seconds: float


@dataclass(frozen=True)
class StudyResult:
    """Per-level study rows (sorted by decreasing delta) plus fitted rates."""

    rows: tuple[StudyLevel, ...]
    fitted_rate_delta: float
    fitted_rate_m: float

    def __post_init__(self):
        rows = tuple(sorted(self.rows, key=lambda r: -r.delta))
        object.__setattr__(self, "rows", rows)


def _level_params(mode: StudyMode, k: int) -> tuple[int, int]:
    """(n_delta, m) for one level; neither depends on the domain bounds."""
    if isinstance(mode, (FixedM, FixedDelta)) and k < 0:
        raise ValueError(f"level k must be >= 0, got {k}")
    if isinstance(mode, FixedM):
        return 2**k, int(mode.m)
    if isinstance(mode, FixedDelta):
        return int(mode.n_delta), 10**k
    rule = CouplingRule(mode.r, k, 0.0, 1.0, m_multiplier=mode.m_multiplier)
    n_delta, _, m = coupling(rule)
    return n_delta, m


def _resolve_domain(spec: DistributionSpec, grid_domain) -> list[tuple[float, float]] | str:
    if grid_domain is None:
        lo, hi = spec.support
        return list(zip(lo, hi))
    if isinstance(grid_domain, str):
        if grid_domain != "auto":
            raise ValueError(f"unknown grid domain {grid_domain!r}")
        return "auto"
    bounds = list(grid_domain)
    if len(bounds) == 2 and np.isscalar(bounds[0]):
        bounds = [tuple(bounds)] * spec.dim
    if len(bounds) != spec.dim:
        raise ValueError(f"need one (lo, hi) pair per axis, got {len(bounds)}")
    return [(float(a), float(b)) for a, b in bounds]


def convergence_study(
    spec: DistributionSpec,
    mode: StudyMode,
    levels,
    seed: int,
    *,
    grid_domain=None,
    holdout: bool = False,
) -> StudyResult:
    """Run one study: :func:`averaged_study` with the single seed ``seed``."""
    return averaged_study(spec, mode, levels, [seed], grid_domain=grid_domain, holdout=holdout)


def averaged_study(
    spec: DistributionSpec,
    mode: StudyMode,
    levels,
    seeds,
    *,
    grid_domain=None,
    holdout: bool = False,
) -> StudyResult:
    """Per seed and level, sample, fit and measure; then average over the seeds.

    Samples are nested across levels (same seed, growing prefixes). The grid
    is built on the distribution's support box by default, on explicit
    per-axis bounds if ``grid_domain`` is given, or on the per-level sample
    extremes with ``grid_domain='auto'``. Errors are measured at the fitting
    samples; with ``holdout=True`` an independently seeded set of equal size
    is used instead, so the domain must not be 'auto'. ``seconds`` is the fit
    wall time alone. Averaging delta, error and seconds over the seeds damps
    Monte Carlo noise that would otherwise dominate desk-scale rate estimates.
    Bad arguments, and on a fixed domain a bad grid, raise ``ValueError``
    before the first draw.
    """
    levels = [int(k) for k in levels]
    if not levels or levels != sorted(levels):
        raise ValueError(f"levels must be nonempty and ascending, got {levels}")
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    for seed in seeds:
        check_seed(seed)
    params = [_level_params(mode, k) for k in levels]
    domain = _resolve_domain(spec, grid_domain)
    if holdout and domain == "auto":
        raise ValueError("holdout needs a fixed grid domain, not 'auto'")
    # on a fixed domain every level's grid is built, and checked, before any draw
    grids = [
        None if domain == "auto" else TensorGrid(*zip(*domain), (n_delta,) * spec.dim)
        for n_delta, _ in params
    ]

    # seeds outer, levels inner: levels outer page-faults ~3x as often. One draw
    # per seed serves every level: the m-sample draw is its first m rows.
    max_m = max(m for _, m in params)
    runs = [[] for _ in levels]
    for seed in seeds:
        drawn = sample(spec, max_m, seed)
        held_out = sample(spec, max_m, seed ^ _HOLDOUT_SEED_XOR) if holdout else drawn
        for (n_delta, m), grid, level_runs in zip(params, grids, runs):
            samples = drawn[:m]
            if grid is None:
                grid = TensorGrid(*zip(*estimate_support(samples)), (n_delta,) * spec.dim)
            t0 = time.perf_counter()
            pdf = estimator.fit(grid, samples)
            seconds = time.perf_counter() - t0
            error = rmse_vs_exact(pdf.evaluate_batch, spec, held_out[:m])
            level_runs.append((float(grid.deltas[0]), error, seconds))
        del drawn, held_out, samples  # free this seed's draw before the next one's
    rows = []
    for k, (n_delta, m), level_runs in zip(levels, params, runs):
        delta, error, seconds = (float(np.mean(column)) for column in zip(*level_runs))
        rows.append(StudyLevel(k, n_delta, delta, m, error, seconds))

    deltas = np.array([r.delta for r in rows])
    ms = np.array([r.m for r in rows], dtype=np.float64)
    errors = np.array([r.error for r in rows])
    return StudyResult(
        tuple(rows),
        fitted_rate_delta=_slope_or_nan(deltas, errors),
        fitted_rate_m=_slope_or_nan(ms, errors),
    )


# -- study serialization ------------------------------------------------------------


def write_study_csv(result: StudyResult, path) -> None:
    """Columns k, n_delta, delta, m, error, seconds.

    Errors are rounded to 12 significant digits; the seconds column is
    wall-clock and is the only non-reproducible field.
    """
    lines = ["k,n_delta,delta,m,error,seconds"]
    for r in result.rows:
        lines.append(
            f"{r.k},{r.n_delta},{r.delta:.17g},{r.m},{r.error:.12g},{r.seconds:.6g}"
        )
    write_text(path, "\n".join(lines) + "\n")


def write_plot_script(csv_path, script_path, *, title: str = "convergence study") -> None:
    """Emit a gnuplot script drawing log-log error vs delta and error vs m."""
    csv_name = Path(csv_path).name
    stem = Path(csv_path).stem
    text = f"""\
set datafile separator ','
set key autotitle columnhead
set logscale xy
set terminal pngcairo size 1100,480
set output '{stem}.png'
set multiplot layout 1,2 title '{title}'
set xlabel 'bin width'
set ylabel 'rmse'
plot '{csv_name}' using 3:5 with linespoints pt 7 title 'error vs bin width'
set xlabel 'sample count'
plot '{csv_name}' using 4:5 with linespoints pt 5 title 'error vs sample count'
unset multiplot
"""
    write_text(script_path, text)
