"""Seeded sampling from known product-form test densities, and their exact PDFs.

Axis distributions (truncated Gaussian, uniform, truncated Laplace) compose
into a product-form joint. Sampling applies each axis' inverse CDF to a
deterministic uniform stream from a counter-based Philox generator keyed
directly by a 64-bit seed, so identical (seed, m, spec) calls are
bit-identical across platforms and, for the same seed, an m1-sample set is
always a prefix of any larger m2-sample set. Normalization constants are
computed from the truncation bounds, never hardcoded.

The Gaussian quantile is Wichura's Algorithm AS 241 (PPND16; Wichura 1988,
*Appl. Stat.* 37(3)) and its cdf comes from ``math.erfc``, so the runtime
needs numpy alone and a Gaussian sample's bits depend on no scipy version.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import EmptySampleSetError
from .textio import read_twin, write_csv_with_twin


_SQRT2 = math.sqrt(2.0)
_PPF_ROWS = 2**16  # rows per block in sample()

# AS 241 (numerator, denominator) coefficients, constant term first: the
# central branch in r = 0.180625 - q**2, and the tails in s - 1.6 for s <= 5
# and in s - 5 beyond, where s = sqrt(-log(min(p, 1 - p))).
_AS241_CENTRAL = (
    (3.3871328727963666080e0, 1.3314166789178437745e+2, 1.9715909503065514427e+3,
     1.3731693765509461125e+4, 4.5921953931549871457e+4, 6.7265770927008700853e+4,
     3.3430575583588128105e+4, 2.5090809287301226727e+3),
    (1.0, 4.2313330701600911252e+1, 6.8718700749205790830e+2, 5.3941960214247511077e+3,
     2.1213794301586595867e+4, 3.9307895800092710610e+4, 2.8729085735721942674e+4,
     5.2264952788528545610e+3),
)
_AS241_NEAR = (
    (1.42343711074968357734e0, 4.63033784615654529590e0, 5.76949722146069140550e0,
     3.64784832476320460504e0, 1.27045825245236838258e0, 2.41780725177450611770e-1,
     2.27238449892691845833e-2, 7.74545014278341407640e-4),
    (1.0, 2.05319162663775882187e0, 1.67638483018380384940e0, 6.89767334985100004550e-1,
     1.48103976427480074590e-1, 1.51986665636164571966e-2, 5.47593808499534494600e-4,
     1.05075007164441684324e-9),
)
_AS241_FAR = (
    (6.65790464350110377720e0, 5.46378491116411436990e0, 1.78482653991729133580e0,
     2.96560571828504891230e-1, 2.65321895265761230930e-2, 1.24266094738807843860e-3,
     2.71155556874348757815e-5, 2.01033439929228813265e-7),
    (1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1, 1.48753612908506148525e-2,
     7.86869131145613259100e-4, 1.84631831751005468180e-5, 1.42151175831644588870e-7,
     2.04426310338993978564e-15),
)


def _ratio(branch, r: np.ndarray) -> np.ndarray:
    """``numerator(r) / denominator(r)`` of one AS 241 branch, by in-place Horner."""
    num, den = (np.full_like(r, coeffs[-1]) for coeffs in branch)
    for acc, coeffs in zip((num, den), branch):
        for c in coeffs[-2::-1]:
            acc *= r
            acc += c
    num /= den
    return num


def _ndtri(p) -> np.ndarray:
    """Standard normal quantile by Wichura's AS 241 (PPND16), element by element.

    Within 1e-15 relative of the exact quantile of the double ``p``; ``p = 0``
    gives ``-inf``, ``p = 1`` gives ``inf``, and NaN or ``p`` outside [0, 1]
    gives NaN, as ``scipy.special.ndtri`` does.
    """
    shape = np.shape(p)
    p = np.asarray(p, dtype=np.float64).reshape(-1)  # flat, for the tail's indices
    q = p - 0.5
    x = _ratio(_AS241_CENTRAL, 0.180625 - q * q)
    x *= q
    tail = np.flatnonzero(~(np.abs(q) <= 0.425))  # NaN lands here too
    if tail.size:
        pt = p[tail]
        with np.errstate(divide="ignore", invalid="ignore"):
            s = np.sqrt(-np.log(np.minimum(pt, 1.0 - pt)))
            xt = _ratio(_AS241_NEAR, s - 1.6)
            far = np.flatnonzero(~(s <= 5.0))
            if far.size:
                t = s[far] - 5.0  # inf at p = 0 or 1, where the ratio is not
                xt[far] = np.where(t == np.inf, t, _ratio(_AS241_FAR, t))
        x[tail] = np.copysign(xt, q[tail])
    return x.reshape(shape)


class _TruncatedAxis:
    """A location-scale density restricted to [lo, hi] and renormalized.

    A family supplies ``_loc_scale``, its standard kernel ``_kernel`` with
    normalizer ``_norm`` (the untruncated density is ``_kernel(z) / (_norm *
    scale)`` at ``z = (x - loc) / scale``) and the standard cdf ``_std_cdf``
    with its inverse ``_std_ppf``. A window above the location runs on its
    mirror image, by a negated scale: ``F(z_hi) - F(z_lo)`` cancels when both
    are near 1, while the mirrored lower tail keeps its relative precision.
    That needs a symmetric kernel; a uniform window never lies above ``lo``.
    A family may also override ``_std_mass``, the ``F(w) - F(w_lo)`` behind
    the mass and the cdf, with a form that cancels less.
    """

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"need lo < hi, got [{self.lo}, {self.hi}]")
        if not self.mass > 0:
            raise ValueError(f"[{self.lo}, {self.hi}] holds no probability in double precision")

    def _frame(self):
        """``(loc, s, w_lo, F(w_hi) - F(w_lo))`` at ``w = (x - loc) / s``; mirrored: s < 0."""
        loc, scale = self._loc_scale
        if self.lo > loc:
            scale = -scale
        w_lo = (self.lo - loc) / scale
        return loc, scale, w_lo, self._std_mass(w_lo, (self.hi - loc) / scale)

    def _std_mass(self, w_lo, w):
        return self._std_cdf(w) - self._std_cdf(w_lo)

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
        loc, scale, w_lo, mass = self._frame()
        out = self._std_mass(w_lo, (np.asarray(x, dtype=np.float64) - loc) / scale) / mass
        return np.clip(out, 0.0, 1.0)

    def ppf(self, u: np.ndarray) -> np.ndarray:
        loc, scale, w_lo, mass = self._frame()
        p = self._std_cdf(w_lo) + np.asarray(u, dtype=np.float64) * mass
        x = loc + scale * self._std_ppf(p)
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
    _std_cdf = staticmethod(lambda z: 0.5 * math.erfc(-z / _SQRT2))
    _std_ppf = staticmethod(_ndtri)

    @staticmethod
    @functools.partial(np.vectorize, otypes=[float])
    def _std_mass(w_lo, w):
        if w_lo <= 0.0 <= w:  # the two erf terms add: nothing cancels in a narrow window
            return 0.5 * (math.erf(w / _SQRT2) - math.erf(w_lo / _SQRT2))
        return TruncatedGaussian._std_cdf(w) - TruncatedGaussian._std_cdf(w_lo)

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

    @staticmethod
    def _std_mass(w_lo, w):
        # where w_lo <= 0 <= w the two halves add: nothing cancels in a narrow window
        # (_frame mirrors windows above the location, so w_lo <= 0 always)
        at_loc = -0.5 * (np.expm1(-np.maximum(w, 0.0)) + np.expm1(w_lo))
        cdf = TruncatedLaplace._std_cdf
        return np.where((w_lo <= 0.0) & (w >= 0.0), at_loc, cdf(w) - cdf(w_lo))

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
    # in place, a row block at a time: no second (m, dim) array, and the ppf
    # temporaries stay in cache; every ppf is elementwise, so no bit changes
    for start in range(0, m, _PPF_ROWS):
        rows = u[start:start + _PPF_ROWS]
        for n, axis in enumerate(spec.axes):
            rows[:, n] = axis.ppf(rows[:, n])
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
    delimiter=",", header=...)``; rows are formatted in numpy, in fixed
    blocks, so the writer holds one block's text at a time, never the whole
    file's. The file is published atomically, together with its binary twin
    ``.NAME.npy``, which :func:`read_samples_csv` reads instead of parsing;
    either both files are new or neither is (see ``textio``).
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
