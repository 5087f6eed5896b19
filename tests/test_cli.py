"""Command-line interface: flags, exit codes, files, and determinism."""

import errno
import io
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from binpdf import (
    DistributionSpec,
    TruncatedGaussian,
    load_pdf,
    read_samples_csv,
    sample,
    write_samples_csv,
)
import binpdf
from binpdf import textio
from binpdf.cli import main
from binpdf.grid import _CHUNK

NAN_ROW = "# dim=2 rows=3\n0.5,0.25\nnan,0.1\n-1.0,2.0\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSample:
    def test_writes_rows_and_prints_count(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code, stdout, _ = run(
            capsys, "sample", "--dist", "tgauss:0,1,-5.5,5.5",
            "--m", "1000", "--seed", "7", "--out", str(out),
        )
        assert code == 0
        assert "rows: 1000" in stdout
        assert read_samples_csv(out).shape == (1000, 1)

    def test_identical_invocations_are_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            code, _, _ = run(
                capsys, "sample", "--dist", "mixed2d", "--m", "200",
                "--seed", "3", "--out", str(out),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_zero_m_is_usage_error(self, tmp_path, capsys):
        code, _, stderr = run(
            capsys, "sample", "--dist", "tgauss1d", "--m", "0",
            "--seed", "1", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert stderr.startswith("error:")

    @pytest.mark.parametrize("m", ["inf", "-inf", "nan", "1e30", "9.3e18"])
    def test_non_finite_or_huge_m_is_usage_error(self, tmp_path, capsys, m):
        out = tmp_path / "x.csv"
        code, _, stderr = run(
            capsys, "sample", "--dist", "tgauss1d", f"--m={m}",
            "--seed", "1", "--out", str(out),
        )
        assert code == 2
        assert stderr.startswith("error: --m must be") and stderr.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv, prefix", [
        (["sample", "--dist", "tgauss1d", "--m", "9e18"], "error: bad --m: m = 9000000000000000000 "),
        (["study", "--dist", "tgauss1d", "--mode", "fixed_delta", "--n-delta", "4", "--k", "25"],
         f"error: m = {10**25} "),
    ])
    def test_draw_no_array_can_hold_blames_m(self, tmp_path, capsys, argv, prefix):
        out = tmp_path / "x.csv"
        code, _, stderr = run(capsys, *argv, "--out", str(out))
        assert code == 2
        assert stderr.startswith(prefix) and stderr.count("\n") == 1
        assert "more than any array can hold" in stderr
        assert list(tmp_path.iterdir()) == []

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code, _, stderr = run(
            capsys, "sample", "--dist", "uniform1d", "--m", "10", "--seed=-1",
            "--out", str(out),
        )
        assert code == 2
        assert stderr == "error: bad --seed: seed -1 is outside the valid range [0, 2**128)\n"
        assert not out.exists()

    def test_unknown_dist_is_usage_error(self, tmp_path, capsys):
        code, _, stderr = run(
            capsys, "sample", "--dist", "cauchy:0,1", "--m", "10",
            "--seed", "1", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert stderr.startswith("error:")


class TestFit:
    def test_hand_example_coefficients(self, tmp_path, capsys):
        samples = tmp_path / "two.csv"
        samples.write_text("0.25\n0.75\n")
        out = tmp_path / "pdf.csv"
        code, stdout, _ = run(
            capsys, "fit", "--samples", str(samples), "--lower", "0",
            "--upper", "1", "--n-delta", "2", "--out", str(out),
        )
        assert code == 0
        assert "samples: 2" in stdout
        assert "bins: 2" in stdout
        assert "integral: 1" in stdout
        pdf = load_pdf(out)
        np.testing.assert_array_equal(pdf.coefficients, [1.0, 1.0, 1.0])

    def test_n_delta_in_exponent_notation_is_a_count(self, tmp_path, capsys):
        # fit parses --n-delta like every other count flag: 1e1 is 10 bins
        samples = tmp_path / "two.csv"
        samples.write_text("0.25\n0.75\n")
        code, stdout, _ = run(
            capsys, "fit", "--samples", str(samples), "--lower", "0",
            "--upper", "1", "--n-delta", "1e1", "--out", str(tmp_path / "pdf.csv"),
        )
        assert code == 0
        assert "bins: 10" in stdout
        assert load_pdf(tmp_path / "pdf.csv").coefficients.shape == (11,)

    def test_support_auto_uses_sample_extremes(self, tmp_path, capsys):
        samples = tmp_path / "u.csv"
        code, _, _ = run(
            capsys, "sample", "--dist", "uniform1d", "--m", "500",
            "--seed", "9", "--out", str(samples),
        )
        pts = read_samples_csv(samples)
        out = tmp_path / "pdf.csv"
        code, _, _ = run(
            capsys, "fit", "--samples", str(samples), "--support", "auto",
            "--n-delta", "4", "--out", str(out),
        )
        assert code == 0
        pdf = load_pdf(out)
        assert pdf.grid.lower == (pts.min(),)
        assert pdf.grid.upper == (pts.max(),)

    def test_out_of_domain_sample_names_row(self, tmp_path, capsys):
        samples = tmp_path / "bad.csv"
        samples.write_text("0.5\n2.0\n")
        code, _, stderr = run(
            capsys, "fit", "--samples", str(samples), "--lower", "0",
            "--upper", "1", "--n-delta", "2", "--out", str(tmp_path / "p.csv"),
        )
        assert code == 1
        assert stderr.startswith("error:")
        assert "row 1" in stderr

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_sample_is_data_error(self, tmp_path, capsys, value):
        samples = tmp_path / "bad.csv"
        samples.write_text(f"0.5,0.25\n{value},0.1\n0.75,0.5\n")
        out = tmp_path / "p.csv"
        code, stdout, stderr = run(
            capsys, "fit", "--samples", str(samples), "--lower", "0,0",
            "--upper", "1,1", "--n-delta", "4", "--out", str(out),
        )
        assert code == 1
        assert stderr.startswith("error:")
        assert "row 1" in stderr and "axis 0" in stderr
        assert stdout == ""
        assert not out.exists()

    def test_non_finite_sample_with_auto_support_is_data_error(self, tmp_path, capsys):
        samples = tmp_path / "bad.csv"
        samples.write_text(NAN_ROW)
        out = tmp_path / "p.csv"
        code, stdout, stderr = run(
            capsys, "fit", "--samples", str(samples), "--support", "auto",
            "--n-delta", "4", "--out", str(out),
        )
        assert code == 1
        assert stderr.splitlines() == ["error: sample row 1: coordinate nan on axis 0 is not finite"]
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("text", ["", "# dim=1 rows=0\n"])
    def test_empty_sample_file_is_data_error(self, tmp_path, capsys, text):
        samples = tmp_path / "empty.csv"
        samples.write_text(text)
        code, _, stderr = run(
            capsys, "fit", "--samples", str(samples), "--lower", "0",
            "--upper", "1", "--n-delta", "2", "--out", str(tmp_path / "p.csv"),
        )
        assert code == 1
        assert len(stderr.splitlines()) == 1
        assert stderr.startswith("error:") and "empty.csv" in stderr

    def test_missing_bounds_is_usage_error(self, tmp_path, capsys):
        samples = tmp_path / "s.csv"
        samples.write_text("0.5\n")
        code, _, stderr = run(
            capsys, "fit", "--samples", str(samples), "--n-delta", "2",
            "--out", str(tmp_path / "p.csv"),
        )
        assert code == 2
        assert stderr.startswith("error:")

    def test_round_trip_evaluates_identically(self, tmp_path, capsys):
        samples = tmp_path / "s.csv"
        run(capsys, "sample", "--dist", "tgauss1d", "--m", "5000", "--seed", "4",
            "--out", str(samples))
        out = tmp_path / "p.csv"
        code, _, _ = run(
            capsys, "fit", "--samples", str(samples), "--lower", "-5.5",
            "--upper", "5.5", "--n-delta", "32", "--out", str(out),
        )
        assert code == 0
        from binpdf import TensorGrid, fit as fit_op

        in_memory = fit_op(TensorGrid((-5.5,), (5.5,), (32,)), read_samples_csv(samples))
        loaded = load_pdf(out)
        pts = np.linspace(-5.5, 5.5, 777)
        np.testing.assert_allclose(
            loaded.evaluate_batch(pts), in_memory.evaluate_batch(pts), atol=1e-15
        )


class TestStudy:
    def test_writes_csv_and_plot_script(self, tmp_path, capsys):
        out = tmp_path / "study.csv"
        code, stdout, _ = run(
            capsys, "study", "--dist", "tgauss1d", "--mode", "coupled:2",
            "--k", "2..4", "--seed", "1", "--out", str(out),
        )
        assert code == 0
        assert "delta-rate:" in stdout
        assert "m-rate:" in stdout
        lines = out.read_text().splitlines()
        assert lines[0] == "k,n_delta,delta,m,error,seconds"
        assert len(lines) == 4
        assert (tmp_path / "study.gp").exists()

    def test_coupled_3_is_usage_error(self, tmp_path, capsys):
        code, _, stderr = run(
            capsys, "study", "--dist", "tgauss1d", "--mode", "coupled:3",
            "--k", "2..4", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert stderr.startswith("error:")

    def test_fixed_m_requires_m(self, tmp_path, capsys):
        code, _, stderr = run(
            capsys, "study", "--dist", "tgauss1d", "--mode", "fixed_m",
            "--k", "3..4", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert stderr.startswith("error:")

    def test_thread_count_changes_nothing_but_seconds(self, tmp_path, capsys):
        outs = []
        for threads, name in ((1, "t1.csv"), (3, "t3.csv")):
            out = tmp_path / name
            code, _, _ = run(
                capsys, "study", "--dist", "tgauss1d", "--mode", "coupled:2",
                "--k", "2..4", "--seeds", "5,6", "--threads", str(threads),
                "--out", str(out),
            )
            assert code == 0
            outs.append(out.read_text().splitlines())
        for line_a, line_b in zip(*outs):
            assert line_a.rsplit(",", 1)[0] == line_b.rsplit(",", 1)[0]

    def test_holdout_with_auto_support_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code, _, stderr = run(
            capsys, "study", "--dist", "uniform1d", "--mode", "coupled:2",
            "--k", "2..4", "--support", "auto", "--holdout", "--out", str(out),
        )
        assert code == 2
        assert stderr.splitlines() == ["error: --holdout conflicts with --support auto"]
        assert not out.exists()

    @pytest.mark.parametrize("m", ["inf", "-inf", "nan", "1e30"])
    def test_non_finite_or_huge_m_is_usage_error(self, tmp_path, capsys, m):
        out = tmp_path / "s.csv"
        code, _, stderr = run(
            capsys, "study", "--dist", "laplace1d", "--mode", "fixed_m",
            f"--m={m}", "--k", "3..4", "--seed", "2", "--out", str(out),
        )
        assert code == 2
        assert stderr.startswith("error: --m must be") and stderr.count("\n") == 1
        assert not out.exists()

    def test_scientific_notation_m(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code, _, _ = run(
            capsys, "study", "--dist", "laplace1d", "--mode", "fixed_m",
            "--m", "1e4", "--k", "3..4", "--seed", "2", "--out", str(out),
        )
        assert code == 0
        assert ",10000," in out.read_text().splitlines()[1]


SMALL_REFERENCE = ("warning: reference histogram was built from no more samples than the "
                   "approximation is being checked on; the surrogate error is unreliable\n")


class TestCompare:
    def test_reference_against_itself_is_zero(self, tmp_path, capsys):
        samples = tmp_path / "s.csv"
        run(capsys, "sample", "--dist", "tgauss1d", "--m", "2000", "--seed", "11",
            "--out", str(samples))
        out = tmp_path / "cmp.csv"
        code, stdout, stderr = run(
            capsys, "compare", "--samples", str(samples), "--ref-n-delta", "8",
            "--n-delta", "8", "--estimators", "fe,histogram", "--out", str(out),
        )
        # without --m, --ref-m and --ref-samples the reference is built from
        # the rows it is checked on: the warning is one stderr line
        assert code == 0
        assert stderr == SMALL_REFERENCE
        fe, line = out.read_text().splitlines()[1:]
        assert fe.startswith("fe,8,2000,8,2000,")
        assert line.startswith("histogram,8,2000,8,2000,")
        assert float(line.rsplit(",", 1)[1]) == 0.0

    def test_fe_and_kde_rows(self, tmp_path, capsys):
        samples = tmp_path / "s.csv"
        run(capsys, "sample", "--dist", "tgauss1d", "--m", "4000", "--seed", "12",
            "--out", str(samples))
        out = tmp_path / "cmp.csv"
        code, stdout, _ = run(
            capsys, "compare", "--samples", str(samples), "--ref-n-delta", "32",
            "--n-delta", "8", "--m", "1000", "--estimators", "fe,histogram,kde:0.5",
            "--domain=-5.5,5.5", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4
        assert {line.split(",")[0] for line in lines[1:]} == {
            "fe", "histogram", "kde:triangular:0.5"
        }

    def test_zero_bandwidth_is_usage_error(self, tmp_path, capsys):
        samples = tmp_path / "s.csv"
        samples.write_text("0.5\n0.6\n")
        code, _, stderr = run(
            capsys, "compare", "--samples", str(samples), "--ref-n-delta", "4",
            "--n-delta", "2", "--estimators", "kde:0", "--out", str(tmp_path / "c.csv"),
        )
        assert code == 2
        assert stderr.startswith("error:")

    @pytest.mark.parametrize("kde", ["kde:inf", "kde:nan", "kde:gaussian:-inf", "kde:1e400"])
    def test_non_finite_bandwidth_is_usage_error(self, tmp_path, capsys, kde):
        samples = tmp_path / "s.csv"
        samples.write_text("0.5\n0.6\n")
        out = tmp_path / "c.csv"
        code, stdout, stderr = run(
            capsys, "compare", "--samples", str(samples), "--ref-n-delta", "4",
            "--n-delta", "2", "--estimators", kde, "--out", str(out),
        )
        assert code == 2
        assert stderr.startswith("error: kde bandwidth must be finite and > 0, got ")
        assert stderr.count("\n") == 1 and stdout == ""
        assert not out.exists()

    def test_non_finite_sample_is_data_error(self, tmp_path, capsys):
        samples = tmp_path / "bad.csv"
        samples.write_text(NAN_ROW)
        code, _, stderr = run(
            capsys, "compare", "--samples", str(samples), "--ref-n-delta", "8",
            "--n-delta", "4", "--out", str(tmp_path / "c.csv"),
        )
        assert code == 1
        assert stderr.splitlines() == ["error: sample row 1: coordinate nan on axis 0 is not finite"]

    @pytest.mark.parametrize("domain, n_delta, message", [
        ("1,1", "2", "lower < upper"),  # both grids are empty
        ("0,1", "10000000000", "nodes"),  # the coarse grid has too many nodes
    ])
    def test_bad_grid_is_usage_error(self, tmp_path, capsys, domain, n_delta, message):
        samples = tmp_path / "s.csv"
        samples.write_text("0.5,0.5\n0.6,0.6\n")
        code, _, stderr = run(
            capsys, "compare", "--samples", str(samples), f"--domain={domain}",
            "--ref-n-delta", "4", "--n-delta", n_delta, "--out", str(tmp_path / "c.csv"),
        )
        assert code == 2
        assert stderr.startswith("error:") and message in stderr


STUDY = ["study", "--dist", "uniform1d", "--mode", "coupled:2", "--k", "2..3"]


@pytest.mark.parametrize("argv, message", [
    (["fit", "--lower=-1", "--upper=1", "--n-delta", "0"], "--n-delta must be >= 1"),
    (["fit", "--lower=-1", "--upper=1", "--n-delta", "4,4,4"], "--n-delta has 3 entries"),
    (["fit", "--lower", "abc", "--upper=1", "--n-delta", "4"], "bad --lower"),
    (["fit", "--lower", "0,0,0", "--upper=1", "--n-delta", "4"], "--lower has 3 entries"),
    (["fit", "--lower=-1e308,0", "--upper=1e308,1", "--n-delta", "4"],
     "axis 0: bin width inf must be finite and > 0"),
    (["study", "--dist", "tgauss2d", "--mode", "coupled:2", "--k", "2", "--domain=1,2,3"],
     "bad --domain"),
    (["compare", "--ref-n-delta", "4", "--n-delta", "2", "--domain=0,1;0,1;0,1"],
     "--domain has 3 entries"),
    (["compare", "--ref-n-delta", "4", "--n-delta", "2", "--estimators", "kde:gaussian:x:0.5"],
     "bad kde estimator 'kde:gaussian:x:0.5'"),
    (["compare", "--ref-n-delta", "4", "--n-delta", "2", "--estimators", "kde:cosine:0.5"],
     "bad kde estimator 'kde:cosine:0.5'"),
    (STUDY + ["--domain=1,0"], "need lower < upper"),
    (STUDY + ["--domain=0,nan"], "need lower < upper"),
    (STUDY + ["--seeds", "a"], "bad --seeds 'a'"),
    (STUDY + ["--seeds", "1,,2"], "bad --seeds '1,,2'"),
    (STUDY + ["--seeds", ""], "bad --seeds ''"),  # not --seed's draw
    (STUDY[:-1] + ["2,2"], "levels must be nonempty and strictly ascending, got [2, 2]"),
    (["study", "--dist", "uniform1d", "--mode", "coupled:1", "--k", "0..2"],
     "level k must be >= 1"),
    (STUDY + ["--seeds", "1,1"], "seeds must be nonempty and distinct, got [1, 1]"),
    (["compare", "--ref-n-delta", "4", "--n-delta", "2", "--estimators", "fe,histogram,fe"],
     "--estimators names fe twice"),
    (["compare", "--ref-n-delta", "4", "--n-delta", "2", "--estimators",
      "kde:0.5,kde:triangular:0.50"], "--estimators names kde:triangular:0.5 twice"),
    (STUDY + ["--m", "1000", "--n-delta", "7"], "--m is only for --mode fixed_m"),
    (STUDY + ["--n-delta", "7"], "--n-delta is only for --mode fixed_delta"),
    (["study", "--dist", "uniform1d", "--mode", "fixed_delta", "--n-delta", "4", "--m", "100",
      "--k", "2..3"], "--m is only for --mode fixed_m"),
])
def test_malformed_per_axis_value_is_one_usage_error(tmp_path, capsys, argv, message):
    samples = tmp_path / "s.csv"
    samples.write_text("0.5,0.5\n0.6,0.6\n")
    out = tmp_path / "out.csv"
    if argv[0] != "study":
        argv = argv + ["--samples", str(samples)]
    code, _, stderr = run(capsys, *argv, "--out", str(out))
    assert code == 2
    assert stderr.startswith("error:") and stderr.count("\n") == 1
    assert message in stderr
    assert not out.exists()


COMPARE = ["compare", "--samples", "in.csv", "--ref-n-delta", "8", "--n-delta", "4"]


@pytest.mark.parametrize("argv, flag", [
    (["sample", "--dist", "tgauss1d", "--m", "2.7"], "--m"),
    (["study", "--dist", "uniform1d", "--mode", "fixed_m", "--m", "100.5", "--k", "2..3"],
     "--m"),
    (["study", "--dist", "uniform1d", "--mode", "fixed_delta", "--n-delta", "2.5",
      "--k", "2..3"], "--n-delta"),
    ([*COMPARE, "--m", "10.5"], "--m"),
    (["fit", "--samples", "in.csv", "--lower=-9", "--upper=9", "--n-delta", "2.5"], "--n-delta"),
    ([*COMPARE, "--ref-m", "1e-1"], "--ref-m"),
    (["compare", "--samples", "in.csv", "--ref-n-delta", "8", "--n-delta", "2.5"], "--n-delta"),
    (["compare", "--samples", "in.csv", "--ref-n-delta", "8.25", "--n-delta", "4"],
     "--ref-n-delta"),
])
def test_count_that_is_not_whole_is_one_usage_error(tmp_path, capsys, monkeypatch, argv, flag):
    monkeypatch.chdir(tmp_path)
    write_samples_csv("in.csv", np.random.default_rng(5).normal(size=(200, 1)))
    code, _, stderr = run(capsys, *argv, "--out", "out.csv")
    assert code == 2
    assert stderr.startswith(f"error: {flag} must be a whole number, got ")
    assert stderr.count("\n") == 1
    assert not Path("out.csv").exists()


def test_compare_files_of_different_dimensions_is_usage_error(tmp_path, capsys, monkeypatch):
    def no_fit(*args):
        raise AssertionError("fitted before rejecting the sample files")

    monkeypatch.setattr("binpdf.baselines.fit_histogram", no_fit)
    monkeypatch.setattr("binpdf.baselines.HistogramAccumulator", no_fit)
    monkeypatch.setattr("binpdf.estimator.fit", no_fit)
    monkeypatch.setattr("binpdf.estimator.Accumulator", no_fit)
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(6)
    write_samples_csv("two.csv", rng.normal(size=(100, 2)))
    write_samples_csv("one.csv", rng.normal(size=(100, 1)))
    code, _, stderr = run(capsys, *COMPARE[:2], "two.csv", "--ref-samples", "one.csv",
                          *COMPARE[3:], "--out", "cmp.csv")
    assert code == 2
    assert stderr == ("error: --samples two.csv has dimension 2 but --ref-samples one.csv "
                      "has dimension 1\n")
    assert not Path("cmp.csv").exists()


@pytest.mark.parametrize("flags", [
    ["--domain=1,0"], ["--seeds", "1,,2"], ["--mode", "coupled:1", "--k", "0..2"],
    ["--seeds", "1,-1"],
    ["--mode", "fixed_delta", "--n-delta", "4", "--k=-1..1"],
    ["--mode", "fixed_m", "--m", "100", "--k=-1..1", "--support", "auto"],
    ["--m", "1000"], ["--mode", "fixed_m", "--m", "100", "--n-delta", "7"],
])
def test_study_argument_errors_precede_the_first_draw(tmp_path, capsys, monkeypatch, flags):
    def no_sampling(*args):
        raise AssertionError("sampled before rejecting the arguments")

    monkeypatch.setattr("binpdf.analysis.sample", no_sampling)
    code, _, stderr = run(capsys, *STUDY, *flags, "--out", str(tmp_path / "s.csv"))
    assert code == 2 and stderr.startswith("error:")


@pytest.mark.parametrize("flags, message", [
    (["--seed", "5", "--seeds", "1,2"], "argument --seeds: not allowed with argument --seed"),
    (["--seed", "0", "--seeds", "1,2"], "argument --seeds: not allowed with argument --seed"),
    (["--seeds", "1,2", "--seed", "5"], "argument --seed: not allowed with argument --seeds"),
])
def test_seed_and_seeds_together_are_a_usage_error(tmp_path, capsys, monkeypatch, flags, message):
    # either would drop the other's values; --seed 0 is no default when given
    def no_sampling(*args):
        raise AssertionError("sampled before rejecting the arguments")

    monkeypatch.setattr("binpdf.analysis.sample", no_sampling)
    code, _, stderr = run(capsys, *STUDY, *flags, "--out", str(tmp_path / "s.csv"))
    assert code == 2
    assert stderr.splitlines()[-1] == f"error: {message}"
    assert list(tmp_path.iterdir()) == []


def test_the_parser_knows_the_kde_kernels():
    from binpdf import baselines, cli

    assert cli._KDE_KERNELS == baselines.KERNELS


@pytest.mark.parametrize("argv", [
    ["fit", "--samples", "s.csv", "--support", "auto", "--n-delta", "4", "--out", "pdf.json"],
    [*STUDY, "--out", "study.gp"],
])
def test_output_its_companion_file_would_overwrite_is_usage_error(
    tmp_path, capsys, monkeypatch, argv
):
    def no_samples(*args):
        raise AssertionError("read or drew samples before rejecting --out")

    monkeypatch.setattr("binpdf.sampling.read_samples_csv", no_samples)
    monkeypatch.setattr("binpdf.sampling.open_samples", no_samples)
    monkeypatch.setattr("binpdf.analysis.sample", no_samples)
    monkeypatch.chdir(tmp_path)
    code, _, stderr = run(capsys, *argv)
    assert code == 2
    assert stderr.startswith(f"error: --out {argv[-1]} would be overwritten")
    assert stderr.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("out", ["/", "."])
@pytest.mark.parametrize("argv", [
    ["sample", "--dist", "tgauss1d", "--m", "10"],
    ["fit", "--samples", "s.csv", "--support", "auto", "--n-delta", "4"],
    ["compare", "--samples", "s.csv", "--ref-n-delta", "4", "--n-delta", "2"],
    STUDY,
], ids=["sample", "fit", "compare", "study"])
def test_out_without_a_file_name_is_usage_error(tmp_path, capsys, monkeypatch, argv, out):
    def no_samples(*args):
        raise AssertionError("read or drew samples before rejecting --out")

    for name in ("sampling.read_samples_csv", "sampling.open_samples", "sampling.sample",
                 "sampling.draw_samples_csv", "analysis.sample"):
        monkeypatch.setattr(f"binpdf.{name}", no_samples)
    monkeypatch.chdir(tmp_path)
    code, _, stderr = run(capsys, *argv, "--out", out)
    assert code == 2
    assert stderr == f"error: --out {out!r} does not name a file\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["sample", "--dist", "tgauss:0,1,40,41", "--m", "10"],
    ["study", "--dist", "laplace:0,1,800,801", "--mode", "coupled:2", "--k", "2..3"],
], ids=["sample", "study"])
def test_window_without_probability_is_usage_error(tmp_path, capsys, monkeypatch, argv):
    def no_sampling(*args):
        raise AssertionError("drew samples from a window without probability")

    monkeypatch.setattr("binpdf.sampling.sample", no_sampling)
    monkeypatch.setattr("binpdf.sampling._draw", no_sampling)
    monkeypatch.setattr("binpdf.analysis.sample", no_sampling)
    code, _, stderr = run(capsys, *argv, "--out", str(tmp_path / "out.csv"))
    assert code == 2
    assert stderr.startswith(f"error: invalid distribution '{argv[2]}': ")
    assert stderr.endswith("holds no probability in double precision\n")
    assert stderr.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, first, second, outputs, failing", [
    (["sample", "--dist", "mixed2d", "--m", "300", "--out", "s.csv"],
     ["--seed", "1"], ["--seed", "2"], ["s.csv", ".s.csv.npy"], "s.csv"),
    (["fit", "--samples", "in.csv", "--support", "auto", "--out", "pdf.csv"],
     ["--n-delta", "4"], ["--n-delta", "8"], ["pdf.csv", "pdf.json"], "pdf.json"),
    ([*STUDY, "--out", "st.csv"],
     ["--seed", "1"], ["--seed", "2"], ["st.csv", "st.gp"], "st.csv"),
    (["compare", "--samples", "in.csv", "--ref-n-delta", "8", "--m", "100", "--out", "cmp.csv"],
     ["--n-delta", "4"], ["--n-delta", "2"], ["cmp.csv"], "cmp.csv"),
])
def test_failed_write_keeps_old_outputs_and_leaves_no_temp(
    tmp_path, capsys, monkeypatch, argv, first, second, outputs, failing
):
    monkeypatch.chdir(tmp_path)
    write_samples_csv("in.csv", np.random.default_rng(5).normal(size=(200, 1)))
    assert run(capsys, *argv, *first)[0] == 0
    before = {name: Path(name).read_bytes() for name in outputs}

    def open_failing_partway(path, mode="r"):
        # the file of ``failing`` gets half of its first write, then the disk is "full"
        fh = open(path, mode)
        if Path(path).name == f".{failing}.tmp":
            write = fh.write

            def write_half(text):
                write(text[: len(text) // 2])
                raise OSError(errno.ENOSPC, "No space left on device")

            fh.write = write_half
        return fh

    monkeypatch.setattr(textio, "open", open_failing_partway, raising=False)
    code, _, stderr = run(capsys, *argv, *second)
    assert code == 1
    assert stderr == "error: [Errno 28] No space left on device\n"
    assert {name: Path(name).read_bytes() for name in outputs} == before
    assert list(tmp_path.glob(".*.tmp")) == []


def test_fit_whose_sidecar_cannot_be_replaced_keeps_the_old_table(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_samples_csv("s.csv", np.random.default_rng(7).normal(size=(200, 2)))
    Path("pdf.csv").write_text("old table\n")
    Path("pdf.json").mkdir()  # the table's rename succeeds, the sidecar's fails
    code, _, stderr = run(capsys, "fit", "--samples", "s.csv", "--support", "auto",
                          "--n-delta", "8", "--out", "pdf.csv")
    assert code == 1 and stderr.startswith("error:") and stderr.count("\n") == 1
    assert Path("pdf.csv").read_text() == "old table\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [".s.csv.npy", "pdf.csv", "pdf.json",
                                                          "s.csv"]


def test_out_of_memory_is_one_error_line(tmp_path, capsys, monkeypatch):
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr("binpdf.estimator.Accumulator", no_memory)
    samples = tmp_path / "s.csv"
    samples.write_text("0.5,0.5\n0.6,0.6\n")
    out = tmp_path / "pdf.csv"
    code, _, stderr = run(
        capsys, "fit", "--samples", str(samples), "--lower=0", "--upper=1",
        "--n-delta", "1000000", "--out", str(out),
    )
    assert code == 1
    assert stderr == "error: out of memory: Unable to allocate 7.28 TiB for an array\n"
    assert not out.exists()


def test_grid_beyond_physical_memory_is_one_error_line(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("binpdf.estimator._physical_memory", lambda: 1000)
    samples = tmp_path / "s.csv"
    samples.write_text("0.5,0.5\n0.6,0.6\n")
    out = tmp_path / "pdf.csv"
    code, _, stderr = run(
        capsys, "fit", "--samples", str(samples), "--lower=0", "--upper=1",
        "--n-delta", "64", "--out", str(out),
    )
    assert code == 1
    assert stderr == ("error: a grid of 4225 nodes needs 33800 bytes of coefficients, "
                      "more than the 1000 bytes of physical memory\n")
    assert not out.exists()


class TestParserBasics:
    def test_missing_subcommand_is_usage_error(self, capsys):
        code = main([])
        assert code == 2
        assert capsys.readouterr().err.splitlines()[-1].startswith("error:")

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "sample" in capsys.readouterr().out


def test_no_command_imports_scipy(tmp_path, run_fresh):
    # the runtime needs numpy alone: a fresh interpreter runs every command,
    # the truncated Gaussian ones included, and loads no scipy module
    script = textwrap.dedent(f"""
        import sys
        from binpdf.cli import main

        samples = {str(tmp_path / "s.csv")!r}
        with open(samples, "w") as fh:
            fh.write("0.1,0.2\\n0.5,0.4\\n0.9,0.7\\n")
        assert main(["sample", "--dist", "tgauss1d", "--m", "1000", "--seed", "3",
                     "--out", {str(tmp_path / "g.csv")!r}]) == 0
        assert main(["fit", "--samples", samples, "--support", "auto", "--n-delta", "4",
                     "--out", {str(tmp_path / "p.csv")!r}]) == 0
        assert main(["compare", "--samples", samples, "--ref-n-delta", "4",
                     "--n-delta", "2", "--out", {str(tmp_path / "c.csv")!r}]) == 0
        assert main(["study", "--dist", "tgauss1d", "--mode", "coupled:2", "--k", "2..3",
                     "--seeds", "1,2", "--out", {str(tmp_path / "study.csv")!r}]) == 0
        assert main(["--help"]) == 0
        loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
        assert loaded == [], loaded
    """)
    proc = run_fresh(script)
    assert proc.returncode == 0, proc.stderr
    spec = DistributionSpec((TruncatedGaussian(0.0, 1.0, -5.5, 5.5),))
    np.testing.assert_array_equal(read_samples_csv(tmp_path / "g.csv"), sample(spec, 1000, 3))


ONLY_THE_PARSER = ["binpdf", "binpdf.cli", "binpdf.errors"]
COMPARE_S = ["compare", "--samples", "s.csv", "--out", "c.csv"]


@pytest.mark.parametrize("argv, code, loaded, not_loaded", [
    (["--help"], 0, ONLY_THE_PARSER, []),
    (["fit", "--help"], 0, ONLY_THE_PARSER, []),
    (["sample", "--dist", "tgauss1d", "--out", "s.csv"], 2, ONLY_THE_PARSER, []),
    (["fit", "--samples", "s.csv", "--n-delta", "4", "--out", "p.csv", "--threads", "0"], 2,
     ONLY_THE_PARSER, []),
    (["fit", "--samples", "s.csv", "--n-delta", "4", "--out", "/"], 2, ONLY_THE_PARSER, []),
    (["sample", "--dist", "tgauss1d", "--m", "10", "--out", "s.csv"], 0,
     ["numpy", "binpdf.sampling"], ["binpdf.estimator", "binpdf.analysis", "binpdf.baselines"]),
    (["fit", "--samples", "s.csv", "--lower=0", "--upper=1", "--n-delta", "4", "--out", "p.csv"],
     0, ["numpy", "binpdf.estimator"], ["binpdf.analysis", "binpdf.baselines"]),
    (["fit", "--samples", "s.csv", "--support", "auto", "--n-delta", "4", "--out", "p.csv"], 0,
     ["numpy", "binpdf.estimator", "binpdf.analysis"], ["binpdf.baselines"]),
    (["study", "--dist", "uniform1d", "--mode", "coupled:2", "--k", "2..3", "--out", "st.csv"], 0,
     ["numpy", "binpdf.estimator", "binpdf.analysis"], ["binpdf.baselines"]),
    ([*COMPARE_S, "--ref-n-delta", "8", "--n-delta", "2.7"], 2, ONLY_THE_PARSER, []),
    ([*COMPARE_S, "--ref-n-delta", "8", "--n-delta", "4", "--m", "0"], 2, ONLY_THE_PARSER, []),
    ([*COMPARE_S, "--ref-n-delta", "8", "--n-delta", "4", "--ref-m", "x"], 2,
     ONLY_THE_PARSER, []),
    ([*COMPARE_S, "--ref-n-delta", "0", "--n-delta", "4"], 2, ONLY_THE_PARSER, []),
    ([*COMPARE_S, "--ref-n-delta", "8", "--n-delta", "4", "--estimators", "fe,fe"], 2,
     ONLY_THE_PARSER, []),
    ([*COMPARE_S, "--ref-n-delta", "8", "--n-delta", "4", "--estimators", "kde:cosine:1"], 2,
     ONLY_THE_PARSER, []),
    ([*COMPARE_S, "--ref-n-delta", "8", "--n-delta", "4", "--domain=0"], 2,
     ONLY_THE_PARSER, []),
    (["fit", "--samples", "s.csv", "--support", "auto", "--lower=0", "--n-delta", "4",
      "--out", "p.csv"], 2, ONLY_THE_PARSER, []),
    (["fit", "--samples", "s.csv", "--upper=1", "--n-delta", "4", "--out", "p.csv"], 2,
     ONLY_THE_PARSER, []),
    (["fit", "--samples", "s.csv", "--lower=x", "--upper=1", "--n-delta", "4", "--out", "p.csv"],
     2, ONLY_THE_PARSER, []),
    (["fit", "--samples", "s.csv", "--lower=0", "--upper=1", "--n-delta", "2.5",
      "--out", "p.csv"], 2, ONLY_THE_PARSER, []),
], ids=["help", "fit-help", "sample-without-m", "threads-0", "out-names-no-file", "sample", "fit",
        "fit-support-auto", "study", "compare-n-delta", "compare-m", "compare-ref-m",
        "compare-ref-n-delta", "compare-repeated-estimator", "compare-kernel", "compare-domain",
        "fit-support-conflict", "fit-without-lower", "fit-lower", "fit-n-delta"])
def test_each_command_loads_only_what_it_runs(tmp_path, run_fresh, argv, code, loaded, not_loaded):
    # a fresh interpreter per case: --help and usage errors that the parser or
    # main catches, and those of flags checked before a file is read, load no
    # numpy; each command leaves out the modules it does not run
    (tmp_path / "s.csv").write_text("0.1\n0.5\n0.9\n")
    script = textwrap.dedent(f"""
        import os, sys
        from binpdf.cli import main

        os.chdir({str(tmp_path)!r})
        code = main({argv!r})
        print(code, *sorted(m for m in sys.modules if m == "numpy" or m.startswith("binpdf")))
    """)
    proc = run_fresh(script)
    assert proc.returncode == 0, proc.stderr
    got_code, *modules = proc.stdout.splitlines()[-1].split()
    assert int(got_code) == code, proc.stdout
    if loaded == ONLY_THE_PARSER:
        assert modules == ONLY_THE_PARSER
    assert set(loaded) <= set(modules)
    assert not set(not_loaded) & set(modules), modules


def test_reference_histogram_beyond_physical_memory_is_one_error_line(tmp_path, capsys,
                                                                      monkeypatch):
    # 10**11 bins once reached numpy's "Unable to allocate 745. GiB"
    monkeypatch.setattr("binpdf.estimator._physical_memory", lambda: 2**33)
    samples = tmp_path / "s.csv"
    samples.write_text("0.1\n0.5\n0.9\n")
    out = tmp_path / "table.csv"
    code, _, stderr = run(capsys, "compare", "--samples", str(samples),
                          "--ref-n-delta", "99999999999", "--n-delta", "4", "--out", str(out))
    assert code == 1
    assert stderr == ("error: a grid of 99999999999 bins needs 799999999992 bytes of counts, "
                      "more than the 8589934592 bytes of physical memory\n")
    assert not out.exists()


STUDY_IN_WORKERS = ["study", "--dist", "tgauss1d", "--mode", "coupled:2", "--k", "2..5",
                    "--seeds", "1,2,3"]  # 2**20 rows per seed: the seeds run in workers


def test_study_error_in_a_worker_is_the_serial_error_line(tmp_path, capsys):
    out = tmp_path / "study.csv"
    code, _, stderr = run(capsys, *STUDY_IN_WORKERS, "--domain=-1,1", "--out", str(out))
    assert code == 1
    assert stderr == ("error: sample row 1: coordinate 1.0309110652836442 on axis 0 "
                      "is outside the grid domain\n")
    assert list(tmp_path.iterdir()) == []


def test_small_study_loads_no_process_pool(tmp_path, run_fresh):
    script = textwrap.dedent(f"""
        import sys
        from binpdf.cli import main

        assert main(["study", "--dist", "tgauss1d", "--mode", "coupled:2", "--k", "2..3",
                     "--seeds", "1,2,3", "--out", {str(tmp_path / "study.csv")!r}]) == 0
        print(sorted(m for m in sys.modules if m.startswith(("multiprocessing", "concurrent"))))
    """)
    proc = run_fresh(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def _live_session_members(sid: int) -> list[int]:
    """Pids of the processes in session ``sid`` that have not exited (zombies excluded)."""
    members = []
    for entry in Path("/proc").iterdir():
        try:
            stat = (entry / "stat").read_text() if entry.name.isdigit() else ""
        except OSError:  # the process exited
            continue
        fields = stat[stat.rfind(")") + 2:].split()  # state, ppid, pgrp, session, ...
        if fields and fields[0] != "Z" and int(fields[3]) == sid:
            members.append(int(entry.name))
    return members


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads sessions from /proc")
@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGKILL], ids=["term", "kill"])
def test_no_worker_outlives_a_signalled_study(tmp_path, signum):
    # two workers whose seeds would take a minute each; the study gets the
    # signal while they run, and the whole session is gone 2 s later
    script = textwrap.dedent(f"""
        import os, time
        import binpdf.analysis
        from binpdf.cli import main

        os.sched_getaffinity = lambda pid: {{0, 1}}
        binpdf.analysis.rmse_vs_exact = lambda *args: time.sleep(60)
        raise SystemExit(main({[*STUDY_IN_WORKERS, "--out", str(tmp_path / "study.csv")]!r}))
    """)
    src = str(Path(binpdf.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen([sys.executable, "-c", script], env=env, start_new_session=True,
                            stderr=subprocess.PIPE)
    try:
        deadline = time.monotonic() + 60
        while len(_live_session_members(proc.pid)) < 3:  # the study and its two workers
            assert proc.poll() is None and time.monotonic() < deadline, proc.stderr.read()
            time.sleep(0.01)
        os.kill(proc.pid, signum)
        time.sleep(2)
        assert _live_session_members(proc.pid) == []
        assert proc.wait(timeout=1) == (143 if signum == signal.SIGTERM else -signal.SIGKILL)
        assert list(tmp_path.iterdir()) == []
    finally:
        for pid in _live_session_members(proc.pid):
            os.kill(pid, signal.SIGKILL)
        proc.kill()
        proc.wait()
        proc.stderr.close()


def peak_rss_mb(cwd, *argv) -> float:
    """Peak RSS in MB of ``python *argv`` run in ``cwd`` with binpdf on the path,
    from wait4 in a small launcher process: a child's peak starts at its
    parent's RSS when it is forked. The child must exit 0."""
    src = str(Path(binpdf.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    launcher = ("import os, subprocess, sys\n"
                "child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
                "_, status, usage = os.wait4(child.pid, 0)\n"
                "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024)\n")
    out = subprocess.run([sys.executable, "-c", launcher, sys.executable, *argv], cwd=cwd,
                         env=env, check=True, capture_output=True, text=True).stdout.split()
    assert out[0] == "0"
    return float(out[1])


class TestStreamedSampleFiles:
    """fit and compare read a sample file a block of 2**14 rows at a time."""

    FIT = ["fit", "--lower=-5.5", "--upper=5.5", "--n-delta", "8", "--out", "pdf.csv"]
    FIT_AUTO = ["fit", "--support", "auto", "--n-delta", "8", "--out", "pdf.csv"]
    COMPARE = ["compare", "--domain=-5.5,5.5", "--ref-n-delta", "8", "--n-delta", "4",
               "--out", "t.csv"]
    COMPARE_AUTO = ["compare", "--ref-n-delta", "8", "--n-delta", "4", "--out", "t.csv"]

    @pytest.mark.parametrize("argv, value", [
        (FIT, "nan"), (FIT, "7.5"), (FIT_AUTO, "nan"), (FIT_AUTO, "-inf"),
        (COMPARE, "nan"), (COMPARE, "7.5"), (COMPARE_AUTO, "nan"),
    ], ids=["fit-nan", "fit-outside", "fit-auto-nan", "fit-auto-inf", "compare-nan",
            "compare-outside", "compare-auto-nan"])
    def test_bad_row_in_a_later_block_names_its_row(self, tmp_path, capsys, monkeypatch,
                                                    argv, value):
        monkeypatch.chdir(tmp_path)
        pts = np.random.default_rng(8).uniform(-5, 5, size=(_CHUNK + 100, 2))
        row = _CHUNK + 37
        pts[row, 1] = float(value)
        write_samples_csv("s.csv", pts)
        code, _, stderr = run(capsys, argv[0], "--samples", "s.csv", *argv[1:])
        where = "outside the grid domain" if value == "7.5" else "not finite"
        assert code == 1
        assert stderr == f"error: sample row {row}: coordinate {float(value)!r} on axis 1 is {where}\n"
        assert not Path(argv[-1]).exists()

    def test_twin_whose_header_claims_more_rows_is_ignored(self, tmp_path, capsys, monkeypatch):
        # the digest matches, the payload holds 100 rows, the header claims 10**12:
        # the twin is ignored before a row is read, and the CSV is parsed
        monkeypatch.chdir(tmp_path)
        write_samples_csv("s.csv", np.random.default_rng(9).normal(size=(100, 2)))
        twin = Path(".s.csv.npy")
        data = twin.read_bytes()
        header = io.BytesIO()  # as long as the true header: both pad to 128 bytes
        np.lib.format.write_array_header_1_0(
            header, {"descr": "<f8", "fortran_order": False, "shape": (10**12, 2)})
        twin.write_bytes(data[:32] + header.getvalue() + data[32 + len(header.getvalue()):])
        assert run(capsys, "fit", "--samples", "s.csv", "--support", "auto", "--n-delta", "4",
                   "--out", "pdf.csv")[0] == 0
        twin.unlink()
        assert run(capsys, "fit", "--samples", "s.csv", "--support", "auto", "--n-delta", "4",
                   "--out", "bare.csv")[0] == 0
        assert Path("pdf.csv").read_bytes() == Path("bare.csv").read_bytes()

    @pytest.mark.slow
    def test_peak_memory_does_not_grow_with_rows(self, tmp_path):
        def peak_mb(*argv):
            return peak_rss_mb(tmp_path, "-m", "binpdf.cli", *argv)

        peaks = {}
        for rows in (2**18, 2**21):
            out = f"s{rows}.csv"
            peaks[rows] = [
                peak_mb("sample", "--dist", "mixed2d", "--m", str(rows), "--out", out),
                peak_mb("fit", "--samples", out, "--lower=-5.5", "--upper=5.5",
                        "--n-delta", "64", "--out", "pdf.csv"),
                peak_mb("compare", "--samples", out, "--ref-n-delta", "256", "--n-delta", "32",
                        "--m", str(2**18), "--estimators", "fe,histogram", "--out", "t.csv"),
            ]
        # the larger file's twin alone is 32 MB
        for small, large in zip(peaks[2**18], peaks[2**21]):
            assert large < small + 3, peaks

    @pytest.mark.slow
    def test_compare_over_every_row_does_not_grow_with_rows(self, tmp_path):
        # without --m every row is an evaluation point: the RMSE streams its
        # sum, where 8 bytes a row of squared differences took 16 MB on 2**21
        peaks = {}
        for rows in (2**18, 2**21):
            out = f"s{rows}.csv"
            peak_rss_mb(tmp_path, "-m", "binpdf.cli", "sample", "--dist", "mixed2d", "--m",
                        str(rows), "--out", out)
            peaks[rows] = peak_rss_mb(tmp_path, "-m", "binpdf.cli", "compare", "--samples", out,
                                      "--ref-n-delta", "256", "--n-delta", "32",
                                      "--estimators", "fe,histogram", "--out", "t.csv")
        assert peaks[2**21] < peaks[2**18] + 3, peaks

    @pytest.mark.slow
    def test_each_command_peaks_near_its_imports(self, tmp_path):
        # above a child that only imports what the command imports, a command
        # holds one block's buffers and text: in blocks of 2**18 rows each of
        # these took 15-18 MB on 2**20 rows
        rows = str(2**20)
        commands = [
            ("binpdf.sampling",
             ["sample", "--dist", "mixed2d", "--m", rows, "--out", "s.csv"]),
            ("binpdf.estimator, binpdf.sampling",
             ["fit", "--samples", "s.csv", "--lower=-5.5", "--upper=5.5", "--n-delta", "64",
              "--out", "pdf.csv"]),
            ("binpdf.analysis, binpdf.baselines, binpdf.estimator, binpdf.sampling",
             ["compare", "--samples", "s.csv", "--ref-n-delta", "256", "--n-delta", "32",
              "--m", str(2**18), "--estimators", "fe,histogram", "--out", "t.csv"]),
        ]
        for modules, argv in commands:
            imports = peak_rss_mb(tmp_path, "-c", f"import hashlib, binpdf.cli, {modules}")
            command = peak_rss_mb(tmp_path, "-m", "binpdf.cli", *argv)
            assert command <= imports + 12, (argv[0], command, imports)
