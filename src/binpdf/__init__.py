"""Piecewise-linear density estimation on uniform bin grids.

Samples deposit multilinear hat-function weights onto the nodes of a
tensor-product bin grid; the normalized node weights define a continuous,
non-negative density with unit integral, fitted in a single O(M) pass with
no linear solve and no bandwidth selection (the bin width is the only
smoothing parameter). Histogram and naive-KDE baselines, seeded samplers for
known test densities, and a convergence-study harness round out the package.
"""

import importlib

# Each public name and the submodule that defines it. Names resolve on first
# access (PEP 562), so ``import binpdf`` loads no submodule and no numpy.
_SOURCES = {
    "analysis": (
        "Coupled",
        "CouplingRule",
        "FixedDelta",
        "FixedM",
        "StudyLevel",
        "StudyResult",
        "averaged_study",
        "convergence_study",
        "coupling",
        "estimate_support",
        "fit_rate",
        "rmse_vs_exact",
        "rmse_vs_histogram",
        "write_plot_script",
        "write_study_csv",
    ),
    "baselines": (
        "Histogram",
        "KdeSpec",
        "eval_kde",
        "eval_kde_batch",
        "fit_histogram",
        "load_histogram",
        "save_histogram",
    ),
    "errors": (
        "BinPdfError",
        "DegenerateSupportError",
        "EmptySampleSetError",
        "GridTooLargeError",
        "NonpositiveBandwidthError",
        "NonpositiveValueError",
        "OutOfDomainError",
        "SampleOutOfDomainError",
        "TooFewPointsError",
        "UnsupportedOrderError",
    ),
    "estimator": ("PiecewiseLinearPdf", "fit", "load_pdf", "save_pdf"),
    "grid": ("TensorGrid",),
    "sampling": (
        "DistributionSpec",
        "TruncatedGaussian",
        "TruncatedLaplace",
        "Uniform",
        "exact_pdf",
        "read_samples_csv",
        "sample",
        "write_samples_csv",
    ),
}
_SUBMODULES = ("analysis", "baselines", "cli", "errors", "estimator", "grid", "sampling", "textio")
_WHERE = {name: module for module, names in _SOURCES.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_WHERE)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _WHERE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_WHERE[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
