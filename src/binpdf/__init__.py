"""Piecewise-linear density estimation on uniform bin grids.

Samples deposit multilinear hat-function weights onto the nodes of a
tensor-product bin grid; the normalized node weights define a continuous,
non-negative density with unit integral, fitted in a single O(M) pass with
no linear solve and no bandwidth selection (the bin width is the only
smoothing parameter). Histogram and naive-KDE baselines, seeded samplers for
known test densities, and a convergence-study harness round out the package.
"""

from .analysis import (
    Coupled,
    CouplingRule,
    FixedDelta,
    FixedM,
    StudyLevel,
    StudyResult,
    averaged_study,
    convergence_study,
    coupling,
    estimate_support,
    fit_rate,
    rmse_vs_exact,
    rmse_vs_histogram,
    write_plot_script,
    write_study_csv,
)
from .baselines import (
    Histogram,
    KdeSpec,
    eval_histogram,
    eval_kde,
    eval_kde_batch,
    fit_histogram,
    load_histogram,
    save_histogram,
)
from .errors import (
    BinPdfError,
    DegenerateSupportError,
    EmptySampleSetError,
    GridTooLargeError,
    IndexOutOfRangeError,
    NonpositiveBandwidthError,
    NonpositiveValueError,
    OutOfDomainError,
    SampleOutOfDomainError,
    TooFewPointsError,
    UnsupportedOrderError,
)
from .estimator import PiecewiseLinearPdf, fit, load_pdf, save_pdf
from .grid import TensorGrid
from .sampling import (
    DistributionSpec,
    TruncatedGaussian,
    TruncatedLaplace,
    Uniform,
    exact_pdf,
    read_samples_csv,
    sample,
    write_samples_csv,
)

__version__ = "0.1.0"

__all__ = [
    "BinPdfError",
    "Coupled",
    "CouplingRule",
    "DegenerateSupportError",
    "DistributionSpec",
    "EmptySampleSetError",
    "FixedDelta",
    "FixedM",
    "GridTooLargeError",
    "Histogram",
    "IndexOutOfRangeError",
    "KdeSpec",
    "NonpositiveBandwidthError",
    "NonpositiveValueError",
    "OutOfDomainError",
    "PiecewiseLinearPdf",
    "SampleOutOfDomainError",
    "StudyLevel",
    "StudyResult",
    "TensorGrid",
    "TooFewPointsError",
    "TruncatedGaussian",
    "TruncatedLaplace",
    "Uniform",
    "UnsupportedOrderError",
    "averaged_study",
    "convergence_study",
    "coupling",
    "estimate_support",
    "eval_histogram",
    "eval_kde",
    "eval_kde_batch",
    "exact_pdf",
    "fit",
    "fit_histogram",
    "fit_rate",
    "load_histogram",
    "load_pdf",
    "read_samples_csv",
    "rmse_vs_exact",
    "rmse_vs_histogram",
    "sample",
    "save_histogram",
    "save_pdf",
    "write_plot_script",
    "write_samples_csv",
    "write_study_csv",
]
