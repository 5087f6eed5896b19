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

import functools
import math
import os
import signal
import threading
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import estimator
from .errors import (
    BinPdfError,
    DegenerateSupportError,
    NonpositiveValueError,
    TooFewPointsError,
    UnsupportedOrderError,
)
from .grid import _CHUNK, TensorGrid, _whole, as_points, check_finite
from .sampling import DistributionSpec, check_seed, sample
from .textio import _scan, write_text

if TYPE_CHECKING:  # an annotation only: a study does not load the baselines
    from .baselines import Histogram

# XOR mask applied to the base seed when drawing an independent held-out
# evaluation set, keeping it disjoint from the fitting stream.
_HOLDOUT_SEED_XOR = 0x9E3779B97F4A7C15


# -- error metrics -------------------------------------------------------------


def _halves(n: int) -> tuple[int, int]:
    """Where numpy's float64 pairwise sum splits ``n`` > 128 values."""
    half = n // 2 - n // 2 % 8
    return half, n - half


def _leaves(n: int):
    """Sizes, in order, of the leaves of :func:`_halves`'s tree over ``n``
    values, split down to at most ``_CHUNK`` (> 128) values each."""
    if n <= _CHUNK:
        yield n
    else:
        for part in _halves(n):
            yield from _leaves(part)


def _pairwise(n: int, sums) -> float:
    """``np.add.reduce``'s sum of ``n`` float64 values, from ``sums``, an
    iterator over the sums of :func:`_leaves`'s leaves in order.

    Above 128 values numpy sums pairwise: it splits the values at
    :func:`_halves` and adds the two parts' sums (Higham 1993, "The accuracy
    of floating point summation"). A leaf summed by ``np.add.reduce`` has
    those bits, and the leaf sums are added here in the same tree order.
    """
    if n <= _CHUNK:
        return next(sums)
    left, right = _halves(n)
    return _pairwise(left, sums) + _pairwise(right, sums)


def _rmse(reference_eval, approx_eval, samples, dim: int, reference_count=None) -> float:
    """RMS difference of two evaluators at the samples; warns on a small reference.

    The samples are read a leaf of :func:`_leaves` at a time. Both evaluators
    are pointwise, so a leaf's values are the bits of one whole-array call,
    and :func:`_pairwise` adds the leaves' sums of squared differences, so
    the result has the bits of ``sqrt(mean(diff**2))`` over the whole array
    while one leaf's temporaries are held instead of the whole sample's.
    """
    rows, reader = _scan(samples, functools.partial(as_points, dim=dim),
                         "error metric needs at least one sample point")
    if reference_count is not None and reference_count <= rows:
        warnings.warn(
            "reference histogram was built from no more samples than the "
            "approximation is being checked on; the surrogate error is unreliable",
            stacklevel=3,
        )
    diff = np.empty(min(rows, _CHUNK))

    def squares(pts):
        leaf = np.subtract(reference_eval(pts), approx_eval(pts), out=diff[: pts.shape[0]])
        leaf *= leaf
        return np.add.reduce(leaf)

    leaves = map(squares, reader.blocks(_leaves(rows)))
    return float(np.sqrt(_pairwise(rows, leaves) / rows))


def rmse_vs_exact(approx_eval, exact: DistributionSpec, samples) -> float:
    """Root mean square difference of densities at the sample points.

    ``approx_eval`` maps an (m, dim) array of points to m density values
    (e.g. ``pdf.evaluate_batch``), each depending on its own point alone.
    ``samples`` is an (m, dim) array or a :class:`TableReader`, read a block
    at a time.
    """
    return _rmse(exact.pdf, approx_eval, samples, exact.dim)


def rmse_vs_histogram(approx_eval, reference: Histogram, samples) -> float:
    """Same metric with a fine histogram standing in for the exact density.

    The reference should be built from far more samples (and far smaller
    bins) than the approximation; only the sample-count side is visible here,
    so a too-small reference triggers a warning rather than an error.
    ``samples`` is as in :func:`rmse_vs_exact`.
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
        object.__setattr__(self, "r", _whole(self.r, "coupling order r"))
        object.__setattr__(self, "k", _whole(self.k, "level k"))
        if self.r not in (1, 2):
            raise UnsupportedOrderError(
                f"coupling order r={self.r} is not supported: the exponent "
                "3 - r must stay positive"
            )
        if self.k < 1:
            raise ValueError(f"level k must be >= 1, got {self.k}")
        if not self.a < self.b:
            raise ValueError(f"need a < b, got [{self.a}, {self.b}]")
        if not (math.isfinite(self.m_multiplier) and self.m_multiplier > 0):
            raise ValueError(f"m_multiplier must be finite and > 0, got {self.m_multiplier}")


def coupling(rule: CouplingRule) -> tuple[int, float, int]:
    """(n_delta, delta, m) for one refinement level of the coupling rule;
    ``ValueError`` where delta or m falls outside the float range."""
    n_delta = 2 ** ((3 - rule.r) * rule.k)
    try:
        delta = (rule.b - rule.a) / n_delta
        m = int(round(rule.m_multiplier * n_delta ** (2 * rule.r)))
    except OverflowError as err:  # n_delta past a float, or m_multiplier * n_delta**2r = inf
        raise ValueError(f"level k={rule.k} with m_multiplier {rule.m_multiplier} needs "
                         "more samples than a float can count") from err
    return n_delta, delta, m


# -- support estimation ---------------------------------------------------------


def _as_columns(samples) -> np.ndarray:
    pts = np.asarray(samples, dtype=np.float64)
    return pts.reshape(-1, 1) if pts.ndim == 1 else pts


def estimate_support(samples) -> list[tuple[float, float]]:
    """Componentwise sample extremes, one (min, max) pair per axis.

    The samples necessarily lie inside the true support, so the extremes
    provide a conservative, consistent estimate of it; build the grid on
    this box when the support is unknown. ``samples`` is an (m, dim) array
    (a 1-D array holds m one-dimensional samples) or a :class:`TableReader`,
    scanned a block at a time. A NaN or infinite coordinate raises
    :class:`SampleOutOfDomainError` naming its row and axis.
    """
    _, reader = _scan(samples, _as_columns, "support estimation needs samples")
    bounds, start = None, 0
    for pts in reader.blocks():
        # a column at a time: reducing a strided column is several times faster
        # than min(axis=0) over C-ordered rows. NaN propagates through both
        # extremes, and an infinity is one of them.
        extremes = [(float(pts[:, n].min()), float(pts[:, n].max()))
                    for n in range(pts.shape[1])]
        if not all(math.isfinite(a) and math.isfinite(b) for a, b in extremes):
            check_finite(pts, as_samples=True, offset=start)
        bounds = extremes if bounds is None else [
            (min(a, lo), max(b, hi)) for (a, b), (lo, hi) in zip(bounds, extremes)]
        start += pts.shape[0]
    for axis, (lo, hi) in enumerate(bounds):
        if lo == hi:
            raise DegenerateSupportError(axis)
    return bounds


# -- log-log rate fitting --------------------------------------------------------


def fit_rate(points) -> float:
    """Least-squares slope of log(error) against log(x) for (x, error) pairs."""
    pts = [(float(x), float(e)) for x, e in points]
    if len(pts) < 2:
        raise TooFewPointsError(f"rate fit needs >= 2 points, got {len(pts)}")
    for x, e in pts:
        if not (0 < x < math.inf and 0 < e < math.inf):  # NaN fails too
            raise NonpositiveValueError(
                f"rate fit needs positive, finite values, got ({x}, {e})")
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
        return 2**k, _whole(mode.m, "m")
    if isinstance(mode, FixedDelta):
        return _whole(mode.n_delta, "n_delta"), 10**k
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


def _seed_runs(spec, params, grids, holdout: bool, seed: int) -> list[tuple[float, float, float]]:
    """One seed of a study: ``(delta, error, fit seconds)`` for each level.

    One draw serves every level: the m-sample draw is its first m rows (and
    levels inside seeds page-fault a third as often as seeds inside levels).
    A grid of ``None`` is built on the level's sample extremes.
    """
    max_m = max(m for _, m in params)
    drawn = sample(spec, max_m, seed)
    held_out = sample(spec, max_m, seed ^ _HOLDOUT_SEED_XOR) if holdout else drawn
    runs = []
    for (n_delta, m), grid in zip(params, grids):
        samples = drawn[:m]
        if grid is None:
            grid = TensorGrid(*zip(*estimate_support(samples)), (n_delta,) * spec.dim)
        t0 = time.perf_counter()
        pdf = estimator.fit(grid, samples)
        seconds = time.perf_counter() - t0
        error = rmse_vs_exact(pdf.evaluate_batch, spec, held_out[:m])
        del pdf  # else its nodes would live on through the next level's fit
        runs.append((float(grid.deltas[0]), error, seconds))
    return runs


def _seed_bytes(dim: int, params, holdout: bool) -> int:
    """Peak memory of one :func:`_seed_runs`, from above: the draw (two with
    a held-out set), the largest level's node array, ``2 + 2 * dim``
    chunk-sized arrays of location buffers and evaluation temporaries, and
    7 MiB that a seed takes at any size."""
    max_m = max(m for _, m in params)
    nodes = max((n_delta + 1) ** dim for n_delta, _ in params)
    chunk = min(_CHUNK, max_m)
    draws = max_m * dim * (2 if holdout else 1)
    return 8 * (draws + nodes + (2 + 2 * dim) * chunk) + 7 * 2**20


def _memory_budget() -> int | None:
    """Bytes a study's workers may take: the memory available now (Linux's
    ``MemAvailable``) where it can be read, never more than physical memory."""
    memory = estimator._physical_memory()
    try:
        with open("/proc/meminfo") as meminfo:
            available = next(int(line.split()[1]) * 1024 for line in meminfo
                             if line.startswith("MemAvailable:"))
    except (OSError, StopIteration, ValueError, IndexError):  # not Linux, or no such line
        return memory
    return available if memory is None else min(memory, available)


def _worker_count(seeds: int, seed_bytes: int) -> int:
    """One worker per seed and available CPU, no more than whose working sets
    (``seed_bytes`` each) fit in the memory budget together."""
    budget = _memory_budget()
    fitting = seeds if budget is None else budget // seed_bytes
    return max(1, min(seeds, estimator._available_cpus(), fitting))


# The fewest coordinates (rows times dim) in one seed's draw for which a study
# runs its seeds in worker processes. Two workers against one CPU, 3 seeds of
# a one-level FixedM study (the least work per draw; 5 seeds or 4 levels gain
# more), median of 8 runs: 1-D 2**16 rows 32 -> 63 ms, 2**17 68 -> 66 ms,
# 2**19 229 -> 172 ms; 2-D 2**15 rows 29 -> 36 ms, 2**16 64 -> 64 ms, 2**17
# 114 -> 92 ms; 3-D 2**15 rows 42 -> 78 ms, 2**16 84 -> 83 ms.
_POOL_MIN_COORDS = 2**17

# In a study worker: the pid of the worker that took each seed, by position.
_owners = None

# Signals that stop a study, blocked while its workers are forked.
_STOP_SIGNALS = (signal.SIGINT, signal.SIGTERM)


def _start_worker(parent: int, owners) -> None:
    """Pool initializer: a worker records its seeds in ``owners``, dies by
    SIGTERM (not the CLI's handler, which would raise in the worker), and is
    sent SIGKILL when its parent dies (Linux), since a forked worker never
    sees its call queue close. Forked after import, it starts no thread."""
    global _owners
    _owners = owners
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, _STOP_SIGNALS)  # blocked while forking
    try:
        import ctypes

        prctl = ctypes.CDLL(None, use_errno=True).prctl
        prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
        prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
    except (OSError, AttributeError):  # no prctl on this platform
        pass
    if os.getppid() != parent:  # the parent died before prctl took effect
        os._exit(1)


def _owned_run(run, index: int, seed: int):
    """``run(seed)`` in a worker, which first records itself as the seed's owner."""
    _owners[index] = os.getpid()
    return run(seed)


def _map_in_workers(run, seeds: list[int], workers: int) -> list:
    """``list(map(run, seeds))``, the seeds spread over forked worker processes.

    Forked workers start with the parent's modules loaded, where spawned
    ones would import numpy and binpdf again. Results are read in seed
    order, so the first failing seed's exception is raised, as in the serial
    loop. A worker that dies becomes a :class:`BinPdfError` naming its seed.
    Whatever ends the call early, an exception, Ctrl-C or ``SystemExit``,
    kills the workers first.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    context = multiprocessing.get_context("fork")
    owners = context.RawArray("q", len(seeds))
    pool = ProcessPoolExecutor(workers, context, initializer=_start_worker,
                               initargs=(os.getpid(), owners))
    processes = pool._processes  # pid -> Process; no public handle before Python 3.14
    futures = []
    try:
        # the first submit forks the workers; a signal handled meanwhile would
        # run in an at-fork callback, which drops the handler's exception
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, _STOP_SIGNALS)
        try:
            for i, seed in enumerate(seeds):
                futures.append(pool.submit(_owned_run, run, i, seed))
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        return [future.result() for future in futures]
    except BrokenProcessPool as err:
        pool.shutdown()  # the broken pool stops the other workers: wait for their exits
        lost = [i for i, f in enumerate(futures) if isinstance(f.exception(), BrokenProcessPool)]
        # the workers the pool stopped end by its SIGTERM, one that died otherwise
        for i in lost:
            code = processes[owners[i]].exitcode if owners[i] in processes else None
            if code not in (None, -signal.SIGTERM):
                raise BinPdfError(f"the worker process running seed {seeds[i]} died "
                                  f"(exit code {code})") from err
        # no worker died: a result could not be unpickled, or submit() found the pool broken
        raise BinPdfError(f"seed {seeds[lost[0] if lost else len(futures)]}: {err}") from err
    except BaseException:
        for process in processes.values():
            process.kill()
        raise
    finally:
        pool.shutdown(cancel_futures=True)


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

    Seeds whose draw holds at least 2**17 coordinates (rows times ``dim``)
    run in up to one forked worker process per available CPU
    (``os.sched_getaffinity``), no more than whose working sets (the draw,
    the largest node array and the evaluation buffers; see
    :func:`_seed_bytes`) fit together in the memory available now. Each
    worker runs a seed as the serial loop does and the seeds are averaged
    in order, so the result equals a one-CPU run (``taskset -c 0``) bit for
    bit, the ``seconds`` aside. Peak memory is up to the worker count times
    one seed's working set. A platform without ``fork``, or a caller running
    other threads, gets the serial loop, since a fork would copy only the
    calling thread and so could copy a lock another thread holds. A
    worker's exception is raised here unchanged; a worker that dies raises
    :class:`BinPdfError` naming its seed.
    """
    levels = [_whole(k, "level") for k in levels]
    if not levels or any(a >= b for a, b in zip(levels, levels[1:])):
        raise ValueError(f"levels must be nonempty and strictly ascending, got {levels}")
    seeds = list(seeds)
    for seed in seeds:
        check_seed(seed)
    if not seeds or len(set(seeds)) < len(seeds):  # a repeat would be averaged as distinct
        raise ValueError(f"seeds must be nonempty and distinct, got {seeds}")
    params = [_level_params(mode, k) for k in levels]
    domain = _resolve_domain(spec, grid_domain)
    if holdout and domain == "auto":
        raise ValueError("holdout needs a fixed grid domain, not 'auto'")
    # on a fixed domain every level's grid is built, and checked, before any draw
    grids = [
        None if domain == "auto" else TensorGrid(*zip(*domain), (n_delta,) * spec.dim)
        for n_delta, _ in params
    ]

    run = functools.partial(_seed_runs, spec, params, grids, holdout)
    draw = max(m for _, m in params) * spec.dim
    workers = _worker_count(len(seeds), _seed_bytes(spec.dim, params, holdout))
    # a fork copies only the calling thread: a lock another thread holds stays held
    if (draw >= _POOL_MIN_COORDS and workers > 1 and threading.active_count() == 1
            and hasattr(os, "fork")):
        per_seed = _map_in_workers(run, seeds, workers)
    else:
        per_seed = list(map(run, seeds))
    rows = []
    for k, (n_delta, m), level_runs in zip(levels, params, zip(*per_seed)):
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
