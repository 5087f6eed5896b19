"""Reference computations made apart from binpdf, for the benchmark's output checks.

Nothing here imports binpdf. The fit oracle is linear binning written out
directly: one ``np.bincount`` over the concatenated 2**dim corner deposits,
divided by ``M * C_j`` with the hat integrals ``C_j`` computed here.
Evaluation goes through ``scipy.interpolate.RegularGridInterpolator``,
histograms through ``np.histogramdd``, truncated-Gaussian moments and
densities through ``math.erf``.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.interpolate import RegularGridInterpolator
from scipy.special import ndtr, ndtri


def _box(lower, upper, n, dim):
    lower = np.broadcast_to(np.asarray(lower, dtype=np.float64), (dim,)).copy()
    upper = np.broadcast_to(np.asarray(upper, dtype=np.float64), (dim,)).copy()
    n = np.broadcast_to(np.asarray(n, dtype=np.int64), (dim,)).copy()
    return lower, upper, n, (upper - lower) / n


def node_axes(lower, upper, n, dim):
    lower, _, n, delta = _box(lower, upper, n, dim)
    return [lower[d] + np.arange(n[d] + 1) * delta[d] for d in range(dim)]


def hat_integrals(lower, upper, n, dim) -> np.ndarray:
    """Integral of every node's hat function, row-major over the node grid."""
    _, _, n, delta = _box(lower, upper, n, dim)
    out = np.ones(1)
    for d in range(dim):
        c = np.full(n[d] + 1, delta[d])
        c[[0, -1]] *= 0.5
        out = np.multiply.outer(out, c).ravel()
    return out


def linear_binning(points, lower, upper, n) -> np.ndarray:
    """Node coefficients of the linear-binning density of ``points``."""
    m, dim = points.shape
    lower, upper, n, delta = _box(lower, upper, n, dim)
    idx = np.clip(np.floor((points - lower) / delta).astype(np.int64), 0, n - 1)
    frac = np.clip((points - (lower + idx * delta)) / delta, 0.0, 1.0)
    shape = n + 1
    strides = np.array([int(np.prod(shape[d + 1:])) for d in range(dim)], dtype=np.int64)
    base = idx @ strides
    flats, weights = [], []
    for offsets in itertools.product((0, 1), repeat=dim):
        w = np.ones(m)
        for d, o in enumerate(offsets):
            w *= frac[:, d] if o else 1.0 - frac[:, d]
        flats.append(base + int(np.dot(offsets, strides)))
        weights.append(w)
    n_nodes = int(np.prod(shape))
    sums = np.bincount(np.concatenate(flats), weights=np.concatenate(weights),
                       minlength=n_nodes)
    return sums / (m * hat_integrals(lower, upper, n, dim))


def evaluate_linear(coefficients, lower, upper, n, points) -> np.ndarray:
    """Piecewise multilinear interpolant of node values at ``points``."""
    dim = points.shape[1]
    axes = node_axes(lower, upper, n, dim)
    values = np.asarray(coefficients).reshape([a.shape[0] for a in axes])
    # points on the upper face may sit one ulp past the last node coordinate
    interp = RegularGridInterpolator(axes, values, method="linear",
                                     bounds_error=False, fill_value=None)
    return interp(points)


def histogram(points, lower, upper, n) -> np.ndarray:
    """Bin densities (count / (M * bin volume)), shape n per axis."""
    m, dim = points.shape
    lower, upper, n, delta = _box(lower, upper, n, dim)
    counts, _ = np.histogramdd(points, bins=list(n), range=list(zip(lower, upper)))
    return counts / (m * float(np.prod(delta)))


def evaluate_histogram(values, lower, upper, n, points) -> np.ndarray:
    """Value of the bin holding each point, by nearest bin centre."""
    dim = points.shape[1]
    lower, _, n, delta = _box(lower, upper, n, dim)
    centres = [lower[d] + (np.arange(n[d]) + 0.5) * delta[d] for d in range(dim)]
    interp = RegularGridInterpolator(centres, values, method="nearest",
                                     bounds_error=False, fill_value=None)
    return interp(points)


def rmse(a, b) -> float:
    diff = np.asarray(a) - np.asarray(b)
    return float(np.sqrt(np.mean(diff * diff)))


# -- truncated Gaussians ---------------------------------------------------------


def _phi(z: float) -> float:
    return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def _Phi(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def tgauss_moments(mean, sd, lo, hi) -> tuple[float, float]:
    """Mean and variance of N(mean, sd**2) truncated to [lo, hi]."""
    a, b = (lo - mean) / sd, (hi - mean) / sd
    z = _Phi(b) - _Phi(a)
    shift = (_phi(a) - _phi(b)) / z
    var = sd * sd * (1.0 + (a * _phi(a) - b * _phi(b)) / z - shift * shift)
    return mean + sd * shift, var


def tgauss_pdf(points, mean, sd, lo, hi) -> np.ndarray:
    """Product density of independent truncated Gaussians, one per column."""
    out = np.ones(points.shape[0])
    norm = sd * math.sqrt(2.0 * math.pi) * (_Phi((hi - mean) / sd) - _Phi((lo - mean) / sd))
    for d in range(points.shape[1]):
        z = (points[:, d] - mean) / sd
        out *= np.exp(-0.5 * z * z) / norm
    return out


def tgauss_draw(m, dim, seed, mean=0.0, sd=1.0, lo=-5.5, hi=5.5) -> np.ndarray:
    """Inverse-CDF draws from a Philox stream keyed by ``seed``.

    This is the sampling scheme binpdf documents (counter-based Philox keyed
    directly by the seed, one uniform per axis), written out here so the
    study oracle sees the same points as the program.
    """
    u = np.random.Generator(np.random.Philox(key=seed)).random((m, dim))
    lo_cdf = ndtr((lo - mean) / sd)
    mass = ndtr((hi - mean) / sd) - lo_cdf
    return np.clip(mean + sd * ndtri(lo_cdf + u * mass), lo, hi)


def moments_within(column, mean, sd, lo, hi, n_se=5.0) -> list[str]:
    """One axis' sample mean and variance against the closed form, in SEs."""
    problems = []
    m = column.shape[0]
    true_mean, true_var = tgauss_moments(mean, sd, lo, hi)
    xbar = float(column.mean())
    centred = column - xbar
    var = float(np.mean(centred**2))
    m4 = float(np.mean(centred**4))
    se_mean = math.sqrt(true_var / m)
    se_var = math.sqrt(max(m4 - var * var, 0.0) / m)
    if abs(xbar - true_mean) > n_se * se_mean:
        problems.append(f"mean {xbar:.6g} vs {true_mean:.6g} (se {se_mean:.3g})")
    if abs(var - true_var) > n_se * se_var:
        problems.append(f"variance {var:.6g} vs {true_var:.6g} (se {se_var:.3g})")
    return problems
