"""The block CSV writer: byte-identical to ``np.savetxt`` for every file kind;
and the sample CSV's binary twin, which reads back exactly what parsing gives."""

import io
import shutil
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binpdf import (
    EmptySampleSetError,
    PiecewiseLinearPdf,
    TensorGrid,
    fit_histogram,
    read_samples_csv,
    save_histogram,
    save_pdf,
    write_samples_csv,
)
from binpdf.textio import _BLOCK_ROWS, read_twin, save_grid_table

# bins per axis that put each table over one block but not on a block multiple
N_DELTA = {1: (1 << 17) + 5, 2: 300, 3: 40}
EXTREMES = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1e-300]


def savetxt_bytes(path, table, **kwargs):
    np.savetxt(path, table, delimiter=",", **kwargs)
    return path.read_bytes()


def samples_with_extremes(m, dim, seed):
    pts = np.random.default_rng(seed).normal(size=(m, dim)) * 10.0 ** np.arange(-3, dim - 3)
    pts[: len(EXTREMES), 0] = EXTREMES
    pts[-1, -1] = EXTREMES[0]
    return pts


class TestSampleFiles:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("seed", [None, 17])
    def test_bytes_equal_savetxt_over_a_partial_block(self, tmp_path, dim, seed):
        m = 2 * _BLOCK_ROWS + 3
        pts = samples_with_extremes(m, dim, dim)
        header = f"dim={dim} rows={m}" + ("" if seed is None else f" seed={seed}")
        expected = savetxt_bytes(tmp_path / "ref.csv", pts, fmt="%.17g", header=header)
        write_samples_csv(tmp_path / "new.csv", pts[:, 0] if dim == 1 else pts, seed=seed)
        got = (tmp_path / "new.csv").read_bytes()
        assert got == expected
        assert got.splitlines()[0] == b"# " + header.encode()
        assert b"\n-0," in got or b"\n-0\n" in got
        assert b"4.9406564584124654e-324" in got
        assert b"1.7976931348623157e+308" in got

    @pytest.mark.parametrize("m", [1, _BLOCK_ROWS - 1, _BLOCK_ROWS])
    def test_block_boundaries(self, tmp_path, m):
        pts = samples_with_extremes(max(m, len(EXTREMES)), 2, m)[:m]
        expected = savetxt_bytes(
            tmp_path / "ref.csv", pts, fmt="%.17g", header=f"dim=2 rows={m}"
        )
        write_samples_csv(tmp_path / "new.csv", pts)
        assert (tmp_path / "new.csv").read_bytes() == expected


class TestGridTables:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_save_pdf_bytes_equal_savetxt(self, tmp_path, dim):
        grid = TensorGrid((-1.5,) * dim, (2.5,) * dim, (N_DELTA[dim],) * dim)
        coefficients = np.abs(np.random.default_rng(dim).normal(size=grid.n_nodes))
        coefficients[: len(EXTREMES)] = np.abs(EXTREMES)
        coefficients[1] = -0.0
        pdf = PiecewiseLinearPdf(grid, coefficients, 123)
        save_pdf(pdf, tmp_path / "pdf.csv")
        table = np.column_stack(
            [np.arange(grid.n_nodes), grid.node_coords_array(), coefficients]
        )
        header = "node_index," + ",".join(f"coord{n}" for n in range(dim)) + ",coefficient"
        expected = savetxt_bytes(
            tmp_path / "ref.csv", table, fmt=["%d"] + ["%.17g"] * (dim + 1),
            header=header, comments="",
        )
        assert (tmp_path / "pdf.csv").read_bytes() == expected

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_save_histogram_bytes_equal_savetxt(self, tmp_path, dim):
        grid = TensorGrid((0.0,) * dim, (1.0,) * dim, (N_DELTA[dim],) * dim)
        samples = np.random.default_rng(dim).random((5000, dim))
        histogram = fit_histogram(grid, samples)
        save_histogram(histogram, tmp_path / "h.csv")
        table = np.column_stack(
            [np.arange(grid.n_bins), grid.bin_lower_corners(), histogram.values]
        )
        header = "bin_index," + ",".join(f"corner{n}" for n in range(dim)) + ",value"
        expected = savetxt_bytes(
            tmp_path / "ref.csv", table, fmt=["%d"] + ["%.17g"] * (dim + 1),
            header=header, comments="",
        )
        assert (tmp_path / "h.csv").read_bytes() == expected

    def test_table_that_its_sidecar_would_overwrite_is_rejected(self, tmp_path):
        grid = TensorGrid((0.0,), (1.0,), (2,))
        histogram = fit_histogram(grid, np.array([0.25, 0.75]))
        pdf = PiecewiseLinearPdf(grid, np.ones(3), 2)
        for save in (
            lambda path: save_pdf(pdf, path),
            lambda path: save_histogram(histogram, path),
            lambda path: save_grid_table(path, grid, ("i", "x", "v"), np.zeros((3, 1)),
                                         np.ones(3), 2),
        ):
            with pytest.raises(ValueError, match="overwritten by its .json sidecar"):
                save(tmp_path / "table.json")
        assert list(tmp_path.iterdir()) == []


# -- the binary twin of a sample CSV ---------------------------------------------

# bit patterns: -0.0, the smallest subnormal and the largest finite value (both
# signs), +-inf, and NaNs with either sign, quiet or signalling, with payloads
SPECIAL_BITS = [
    0x8000000000000000, 0x0000000000000001, 0x8000000000000001,
    0x7FEFFFFFFFFFFFFF, 0xFFEFFFFFFFFFFFFF, 0x7FF0000000000000, 0xFFF0000000000000,
    0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001, 0xFFF4000000000000,
    0x7FFFFFFFFFFFFFFF, 0xFFF8DEADBEEF0001,
]
ROWS = [1, 2, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 3]


def parse(path):
    return np.loadtxt(path, delimiter=",", comments="#", ndmin=2)


def assert_same_bits(got, expected):
    assert got.shape == expected.shape and got.dtype == np.float64
    np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))


@st.composite
def tables(draw):
    """Random float64 bit patterns (every exponent, NaN payloads included),
    with some special values dropped in, in C or Fortran order."""
    rows, cols = draw(st.sampled_from(ROWS)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bits = np.frombuffer(rng.bytes(8 * rows * cols), np.uint64).reshape(rows, cols).copy()
    for special in draw(st.lists(st.sampled_from(SPECIAL_BITS), max_size=2 * len(SPECIAL_BITS))):
        bits.flat[rng.integers(bits.size)] = special
    table = bits.view(np.float64)
    return np.asfortranarray(table) if draw(st.booleans()) else table


class TestTwin:
    @settings(derandomize=True, database=None, max_examples=15, deadline=None)
    @given(tables())
    def test_twin_read_equals_the_parse_bit_for_bit(self, table):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "s.csv"
            write_samples_csv(path, table)
            twin = read_twin(path)
            assert twin is not None
            parsed = parse(path)
            assert_same_bits(twin, parsed)
            assert_same_bits(read_samples_csv(path), parsed)
            # the parse itself is exact, NaN sign and payload aside
            finite = ~np.isnan(table)
            assert_same_bits(parsed[finite], table[finite])

    def test_written_file_is_read_without_parsing(self, tmp_path, monkeypatch):
        pts = np.random.default_rng(1).normal(size=(1000, 2))
        write_samples_csv(tmp_path / "s.csv", pts)
        assert (tmp_path / ".s.csv.npy").stat().st_size > 8 * pts.size

        def no_parse(*args, **kwargs):
            raise AssertionError("parsed a CSV whose twin matches")

        monkeypatch.setattr(np, "loadtxt", no_parse)
        assert_same_bits(read_samples_csv(tmp_path / "s.csv"), pts)

    @pytest.mark.parametrize("damage", ["edited digit", "truncated twin", "foreign twin",
                                        "empty twin", "no twin", "1-D payload", "int payload"])
    def test_damaged_or_stale_twin_falls_back_to_the_parse(self, tmp_path, damage):
        path, twin = tmp_path / "a.csv", tmp_path / ".a.csv.npy"
        rng = np.random.default_rng(2)
        write_samples_csv(path, rng.normal(size=(3000, 2)))
        if damage == "edited digit":  # same length, so only the digest can tell
            text = path.read_bytes()
            at = text.index(b"\n") + 1
            while not text[at:at + 1].isdigit():
                at += 1
            digit = int(text[at:at + 1])
            path.write_bytes(text[:at] + str((digit + 1) % 10).encode() + text[at + 1:])
        elif damage == "truncated twin":
            twin.write_bytes(twin.read_bytes()[:-100])
        elif damage == "foreign twin":
            write_samples_csv(tmp_path / "b.csv", rng.normal(size=(3000, 2)))
            shutil.copyfile(tmp_path / ".b.csv.npy", twin)
        elif damage == "empty twin":
            twin.write_bytes(b"")
        elif damage.endswith("payload"):  # the right digest before a payload of another kind
            payload = io.BytesIO()
            np.lib.format.write_array(payload, parse(path).ravel() if damage == "1-D payload"
                                      else np.arange(6000).reshape(3000, 2))
            twin.write_bytes(twin.read_bytes()[:32] + payload.getvalue())
        else:
            twin.unlink()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert read_twin(path) is None
            assert_same_bits(read_samples_csv(path), parse(path))

    def test_failed_publication_leaves_the_csv_as_it_was(self, tmp_path):
        path = tmp_path / "s.csv"
        write_samples_csv(path, np.zeros((4, 2)))
        before = path.read_bytes()
        (tmp_path / ".s.csv.npy").unlink()
        (tmp_path / ".s.csv.npy").mkdir()  # the twin cannot be renamed into place
        with pytest.raises(IsADirectoryError):
            write_samples_csv(path, np.ones((4, 2)))
        assert path.read_bytes() == before
        assert list(tmp_path.glob(".*.tmp")) == []

    def test_zero_rows_still_raise(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_samples_csv(path, np.empty((0, 2)))
        assert read_twin(path).shape == (0, 2)
        with pytest.raises(EmptySampleSetError, match="empty.csv"):
            read_samples_csv(path)
