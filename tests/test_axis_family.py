"""Properties of the truncated location-scale axis family, on random windows."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from binpdf import TruncatedGaussian, TruncatedLaplace, Uniform

# derandomized: every run draws the same examples, so the suite stays reproducible
PROPERTY = settings(derandomize=True, database=None, max_examples=150, deadline=None)

# Window bounds in scale units reach past the last window with probability in
# double precision (about 38 for the Gaussian, 745 for the Laplace), so some
# draws must be rejected.
REACH = {TruncatedGaussian: 45.0, TruncatedLaplace: 800.0}


@st.composite
def axes(draw):
    """``(family, params)`` for a random family, location, scale and window."""
    family = draw(st.sampled_from([TruncatedGaussian, TruncatedLaplace, Uniform]))
    if family is Uniform:
        bound = st.floats(-1e308, 1e308)  # hi - lo may overflow
        return family, (draw(bound), draw(bound))
    loc = draw(st.floats(-10.0, 10.0))
    scale = draw(st.floats(1e-3, 1e3))
    a, b = sorted(draw(st.lists(st.floats(-REACH[family], REACH[family]), min_size=2,
                                max_size=2, unique=True)))
    return family, (loc, scale, loc + a * scale, loc + b * scale)


def build(family, params):
    """The axis, or None where construction rejects the window."""
    try:
        axis = family(*params)
    except ValueError:
        return None
    assert 0.0 < axis.mass <= 1.0
    return axis


@PROPERTY
@given(axes(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=50))
def test_ppf_stays_in_the_window_and_never_decreases(axis, u):
    axis = build(*axis)
    if axis is None:
        return
    u = np.sort(np.array(u + [0.0, 1.0]))
    with np.errstate(divide="ignore"):  # the Laplace ppf takes log(0) at u = 0 or 1
        x = axis.ppf(u)
    assert np.all((x >= axis.lo) & (x <= axis.hi))
    assert np.all(np.diff(x) >= 0.0)
    # x is a double, so the quantile of u may lie anywhere between x and its
    # neighbours. Both functions subtract standard-cdf values of at most 1,
    # each rounded by about eps, and divide by the mass: a narrow window at the
    # location has an error near eps / mass. The 1e-12 bounds the rounding of
    # z = (x - loc) / scale, which moves the cdf by about eps * z**2.
    tol = 1e-12 + 8 * np.finfo(float).eps / axis.mass
    below = axis.cdf(np.nextafter(x, -np.inf))
    above = axis.cdf(np.nextafter(x, np.inf))
    assert np.all((below - tol <= u) & (u <= above + tol))


@PROPERTY
@given(axes())
def test_cdf_is_zero_at_lo_and_one_at_hi(axis):
    axis = build(*axis)
    if axis is None:
        return
    assert axis.cdf(np.array([axis.lo, axis.hi])).tolist() == [0.0, 1.0]


@PROPERTY
@given(axes(), st.lists(st.floats(-0.5, 1.5), min_size=1, max_size=50))
def test_pdf_is_nonnegative_and_zero_outside_the_window(axis, t):
    axis = build(*axis)
    if axis is None:
        return
    lo, hi = axis.lo, axis.hi
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.concatenate([lo + (hi - lo) * np.array(t), [lo, hi],
                            np.nextafter([lo, hi], [-np.inf, np.inf])])
        pdf = axis.pdf(x[np.isfinite(x)])
    x = x[np.isfinite(x)]
    assert np.all(pdf >= 0.0)
    assert np.all(pdf[(x < lo) | (x > hi)] == 0.0)


@st.composite
def mirrored_windows(draw):
    """``(family, loc, scale, a, b)``: the window ``[loc + a, loc + b]``.

    Location, scale and offsets are dyadic, so the mirror image ``[loc - b,
    loc - a]`` and every mirrored point are exact in binary.
    """
    family = draw(st.sampled_from([TruncatedGaussian, TruncatedLaplace]))
    loc, scale = draw(st.integers(-160, 160)) / 16, 2.0 ** draw(st.integers(-4, 4))
    reach = int(REACH[family] * 128)
    ks = draw(st.lists(st.integers(-reach, reach), min_size=2, max_size=2, unique=True))
    a, b = (k / 128 * scale for k in sorted(ks))
    return family, loc, scale, a, b


@PROPERTY
@given(mirrored_windows(), st.lists(st.integers(0, 128), min_size=1, max_size=20))
def test_pdf_of_a_window_equals_pdf_of_its_mirror(window, steps):
    family, loc, scale, a, b = window
    axis = build(family, (loc, scale, loc + a, loc + b))
    mirror = build(family, (loc, scale, loc - b, loc - a))
    assert (axis is None) == (mirror is None)
    if axis is None:
        return
    d = a + (b - a) * np.array(steps) / 128
    np.testing.assert_allclose(axis.pdf(loc + d), mirror.pdf(loc - d), rtol=1e-12, atol=0.0)
