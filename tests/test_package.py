"""The package namespace: lazy submodule loading and the public names."""

import importlib

import binpdf

PUBLIC = {
    "analysis": [
        "Coupled", "CouplingRule", "FixedDelta", "FixedM", "StudyLevel", "StudyResult",
        "averaged_study", "convergence_study", "coupling", "estimate_support", "fit_rate",
        "rmse_vs_exact", "rmse_vs_histogram", "write_plot_script", "write_study_csv",
    ],
    "baselines": [
        "Histogram", "KdeSpec", "eval_kde", "eval_kde_batch", "fit_histogram",
        "load_histogram", "save_histogram",
    ],
    "errors": [
        "BinPdfError", "DegenerateSupportError", "EmptySampleSetError", "GridTooLargeError",
        "NonpositiveBandwidthError", "NonpositiveValueError", "OutOfDomainError",
        "SampleOutOfDomainError", "TooFewPointsError", "UnsupportedOrderError",
    ],
    "estimator": ["PiecewiseLinearPdf", "fit", "load_pdf", "save_pdf"],
    "grid": ["TensorGrid"],
    "sampling": [
        "DistributionSpec", "TruncatedGaussian", "TruncatedLaplace", "Uniform", "exact_pdf",
        "read_samples_csv", "sample", "write_samples_csv",
    ],
}


def test_every_public_name_is_its_submodules_object():
    assert binpdf.__all__ == sorted(name for names in PUBLIC.values() for name in names)
    for module, names in PUBLIC.items():
        for name in names:
            assert getattr(binpdf, name) is getattr(importlib.import_module(f"binpdf.{module}"), name)


def test_dir_lists_every_public_name_and_submodule():
    listed = set(dir(binpdf))
    assert set(binpdf.__all__) <= listed
    assert {*PUBLIC, "cli", "textio", "__version__"} <= listed


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from binpdf import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(binpdf.__all__)


def test_unknown_name_is_an_attribute_error():
    assert not hasattr(binpdf, "no_such_name")


def test_import_binpdf_loads_no_numpy_until_a_name_is_used(run_fresh):
    proc = run_fresh(
        "import sys\n"
        "import binpdf\n"
        "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('binpdf')))\n"
        "assert binpdf.fit is binpdf.estimator.fit\n"
        "assert binpdf.grid.TensorGrid is binpdf.TensorGrid\n"
        "print('numpy' in sys.modules)\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["['binpdf']", "True", ""]


def _error_classes(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _error_classes(sub)


# one instance of each error with constructor arguments of its own; the rest
# take a message
ERRORS_WITH_FIELDS = [
    binpdf.OutOfDomainError(1, 2.5, index=4),
    binpdf.OutOfDomainError(0, -1.0),
    binpdf.SampleOutOfDomainError(3, 1, 7.0),
    binpdf.DegenerateSupportError(1),
]


def test_every_error_survives_pickling():
    # a study's worker process sends its exception to the caller pickled
    import pickle

    classes = {binpdf.BinPdfError, *_error_classes(binpdf.BinPdfError)}
    with_fields = {type(e) for e in ERRORS_WITH_FIELDS}
    errors = ERRORS_WITH_FIELDS + [cls("a message") for cls in classes - with_fields]
    assert {type(e) for e in errors} == classes
    for error in errors:
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is type(error)
        assert str(copy) == str(error)
        assert copy.args == error.args
        assert vars(copy) == vars(error)
