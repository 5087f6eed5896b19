"""Seeded sampling from known product-form test densities, and their exact PDFs.

Axis distributions (truncated Gaussian, uniform, truncated Laplace) compose
into a product-form joint. Sampling applies each axis' inverse CDF to a
deterministic uniform stream from a counter-based Philox generator keyed
directly by a 64-bit seed, so identical (seed, m, spec) calls are
bit-identical across platforms and, for the same seed, an m1-sample set is
always a prefix of any larger m2-sample set. Normalization constants are
computed from the truncation bounds, never hardcoded.

``scipy.special`` is imported when the first truncated Gaussian is built (its
mass is checked then), so importing this module (and the CLI) does not load
scipy.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import EmptySampleSetError
from .textio import read_twin, write_csv_with_twin


def _special():
    import scipy.special

    return scipy.special


class _TruncatedAxis:
    """A location-scale density restricted to [lo, hi] and renormalized.

    A family supplies ``_loc_scale``, its standard kernel ``_kernel`` with
    normalizer ``_norm`` (the untruncated density is ``_kernel(z) / (_norm *
    scale)`` at ``z = (x - loc) / scale``) and the standard cdf ``_std_cdf``
    with its inverse ``_std_ppf``. A window above the location runs on its
    mirror image, by a negated scale: ``F(z_hi) - F(z_lo)`` cancels when both
    are near 1, while the mirrored lower tail keeps its relative precision.
    That needs a symmetric kernel; a uniform window never lies above ``lo``.
    """

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"need lo < hi, got [{self.lo}, {self.hi}]")
        if not self.mass > 0:
            raise ValueError(f"[{self.lo}, {self.hi}] holds no probability in double precision")

    def _frame(self):
        """``(loc, s, F(w_lo), F(w_hi) - F(w_lo))`` at ``w = (x - loc) / s``; mirrored: s < 0."""
        loc, scale = self._loc_scale
        if self.lo > loc:
            scale = -scale
        f_lo = self._std_cdf((self.lo - loc) / scale)
        return loc, scale, f_lo, self._std_cdf((self.hi - loc) / scale) - f_lo

    @property
    def mass(self) -> float:
        """Probability the untruncated density assigns to [lo, hi]."""
        return float(abs(self._frame()[3]))

    def pdf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        loc, scale = self._loc_scale
        out = self._kernel((x - loc) / scale) / (self._norm * scale * self.mass)
        return np.where((x >= self.lo) & (x <= self.hi), out, 0.0)

    def cdf(self, x: np.ndarray) -> np.ndarray:
        loc, scale, f_lo, mass = self._frame()
        out = (self._std_cdf((np.asarray(x, dtype=np.float64) - loc) / scale) - f_lo) / mass
        return np.clip(out, 0.0, 1.0)

    def ppf(self, u: np.ndarray) -> np.ndarray:
        loc, scale, f_lo, mass = self._frame()
        x = loc + scale * self._std_ppf(f_lo + np.asarray(u, dtype=np.float64) * mass)
        # clip absorbs inverse-CDF roundoff at the truncation bounds
        return np.clip(x, self.lo, self.hi)


@dataclass(frozen=True)
class TruncatedGaussian(_TruncatedAxis):
    """Gaussian(mean, sd) restricted to [lo, hi] and renormalized."""

    mean: float
    sd: float
    lo: float
    hi: float

    _loc_scale = property(lambda self: (self.mean, self.sd))
    _norm = math.sqrt(2.0 * math.pi)
    _kernel = staticmethod(lambda z: np.exp(-0.5 * z * z))
    _std_cdf = staticmethod(lambda z: _special().ndtr(z))
    _std_ppf = staticmethod(lambda p: _special().ndtri(p))

    def __post_init__(self):
        if not self.sd > 0:
            raise ValueError(f"sd must be > 0, got {self.sd}")
        super().__post_init__()


@dataclass(frozen=True)
class Uniform(_TruncatedAxis):
    """Constant density 1 / (hi - lo) on [lo, hi]: location lo, scale hi - lo."""

    lo: float
    hi: float

    _loc_scale = property(lambda self: (self.lo, self.hi - self.lo))
    _norm = 1.0
    _kernel = staticmethod(lambda z: 1.0)
    _std_cdf = _std_ppf = staticmethod(lambda p: p)  # on [0, 1]; cdf clips the rest


@dataclass(frozen=True)
class TruncatedLaplace(_TruncatedAxis):
    """Laplace(location, scale) restricted to [lo, hi] and renormalized.

    For the centered symmetric case on [-T, T] the normalizing mass reduces
    to ``1 - exp(-T / scale)``.
    """

    location: float
    scale: float
    lo: float
    hi: float

    _loc_scale = property(lambda self: (self.location, self.scale))
    _norm = 2.0
    _kernel = staticmethod(lambda z: np.exp(-np.abs(z)))
    _std_ppf = staticmethod(lambda p: np.where(p < 0.5, np.log(2.0 * p), -np.log(2.0 * (1.0 - p))))

    @staticmethod
    def _std_cdf(z):
        tail = 0.5 * np.exp(-np.abs(z))  # exp(-|z|): neither branch can overflow
        return np.where(z < 0, tail, 1.0 - tail)

    def __post_init__(self):
        if not self.scale > 0:
            raise ValueError(f"scale must be > 0, got {self.scale}")
        super().__post_init__()


AxisDistribution = TruncatedGaussian | Uniform | TruncatedLaplace


@dataclass(frozen=True)
class DistributionSpec:
    """Product-form joint distribution: one independent marginal per axis."""

    axes: tuple[AxisDistribution, ...]

    def __post_init__(self):
        axes = tuple(self.axes) if not isinstance(self.axes, tuple) else self.axes
        if len(axes) == 0:
            raise ValueError("spec needs at least one axis")
        object.__setattr__(self, "axes", axes)

    @property
    def dim(self) -> int:
        return len(self.axes)

    @property
    def support(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """(lower, upper) corners of the joint support box."""
        return tuple(a.lo for a in self.axes), tuple(a.hi for a in self.axes)

    def pdf(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts.reshape(-1, self.dim)
        out = np.ones(pts.shape[0])
        for n, axis in enumerate(self.axes):
            out *= axis.pdf(pts[:, n])
        return out


def check_seed(seed: int) -> None:
    """Raise ``ValueError`` unless ``seed`` is a valid Philox key."""
    if not 0 <= seed < 2**128:
        raise ValueError(f"seed {seed} is outside the valid range [0, 2**128)")


def sample(spec: DistributionSpec, m: int, seed: int) -> np.ndarray:
    """Draw ``m`` i.i.d. samples, shape (m, dim), deterministically from ``seed``.

    For a fixed seed the first ``m1`` rows of a larger draw equal the
    ``m1``-row draw exactly, so growing sample sets are nested. A seed
    outside ``[0, 2**128)`` raises ``ValueError``.
    """
    m = int(m)
    if m < 1:
        raise EmptySampleSetError(f"sample count must be >= 1, got {m}")
    check_seed(seed)
    rng = np.random.Generator(np.random.Philox(key=seed))
    u = rng.random((m, spec.dim))
    for n, axis in enumerate(spec.axes):
        u[:, n] = axis.ppf(u[:, n])  # in place: no second (m, dim) array
    return u


def exact_pdf(spec: DistributionSpec, point) -> float:
    """Joint density at one point; zero outside the support box."""
    p = np.asarray(point, dtype=np.float64).reshape(-1)
    if p.shape[0] != spec.dim:
        raise ValueError(f"expected a point of dimension {spec.dim}")
    return float(spec.pdf(p.reshape(1, -1))[0])


# -- sample CSV I/O ------------------------------------------------------------


def write_samples_csv(path, samples: np.ndarray, *, seed: int | None = None) -> None:
    """One row per sample, 17-significant-digit decimals, '#' metadata header.

    The header reads ``# dim=D rows=M`` plus `` seed=S`` when a seed is given.
    The bytes equal those of ``np.savetxt(path, samples, fmt="%.17g",
    delimiter=",", header=...)``; rows are formatted in fixed blocks, so the
    writer holds one block's text at a time, never the whole file's. The file
    is published atomically, together with its binary twin ``.NAME.npy``,
    which :func:`read_samples_csv` reads instead of parsing (see ``textio``).
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim == 1:
        samples = samples.reshape(-1, 1)
    header = f"# dim={samples.shape[1]} rows={samples.shape[0]}"
    if seed is not None:
        header += f" seed={seed}"
    write_csv_with_twin(path, header, samples)


def read_samples_csv(path) -> np.ndarray:
    """Read a sample CSV back into an (m, dim) array.

    When the file's twin holds the digest of its bytes, the array comes from
    the twin, bit for bit what parsing gives; otherwise the file is parsed.
    Raises :class:`EmptySampleSetError` naming the file when it holds no
    sample rows (empty or header only).
    """
    data = read_twin(path)
    if data is None:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            data = np.loadtxt(Path(path), delimiter=",", comments="#", ndmin=2)
    if data.shape[0] == 0:
        raise EmptySampleSetError(f"sample file {path} holds no samples")
    return data
