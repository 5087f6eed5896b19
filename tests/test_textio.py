"""The block CSV writer: byte-identical to ``np.savetxt`` for every file kind;
publication of several files, all or none; and the sample CSV's binary twin,
which reads back exactly what parsing gives."""

import errno
import hashlib
import io
import json
import os
import shutil
import tempfile
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binpdf import (
    BinPdfError,
    EmptySampleSetError,
    Histogram,
    PiecewiseLinearPdf,
    TensorGrid,
    fit_histogram,
    load_histogram,
    load_pdf,
    read_samples_csv,
    save_histogram,
    save_pdf,
    write_samples_csv,
)
from binpdf import textio
from binpdf.analysis import _leaves
from binpdf.cli import main
from binpdf.grid import _CHUNK
from binpdf.sampling import open_samples
from binpdf.textio import _BLOCK_VALUES, _block_rows, open_twin, save_grid_table
from test_grid import edge_mesh

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
        m = _CHUNK + 3
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

    # a block holds at most _BLOCK_VALUES values, so where its rows end
    # depends on the width: row counts around the first two ends at 1, 2, 5
    # and 8 columns, and, at 2 columns, around the end of the 2**13-row
    # blocks of earlier versions
    @pytest.mark.parametrize("m, cols", [
        *[pytest.param(m, 2, id=str(m)) for m in (1, 8191, 8192)],
        *[pytest.param(m, cols, id=f"{m}x{cols}") for cols in (1, 2, 5, 8)
          for rows in [_block_rows(cols)] for m in (rows - 1, rows, rows + 1, 2 * rows + 1)],
    ])
    def test_block_boundaries(self, tmp_path, m, cols):
        assert _block_rows(cols) * cols <= _BLOCK_VALUES < (_block_rows(cols) + 1) * cols
        pts = samples_with_extremes(max(m, len(EXTREMES)), cols, m)[:m]
        expected = savetxt_bytes(
            tmp_path / "ref.csv", pts, fmt="%.17g", header=f"dim={cols} rows={m}"
        )
        write_samples_csv(tmp_path / "new.csv", pts)
        assert (tmp_path / "new.csv").read_bytes() == expected

    @pytest.mark.parametrize("cols", [1, 2, 5, 8])
    def test_writer_memory_grows_with_neither_columns_nor_rows(self, tmp_path, cols):
        # a block of _BLOCK_VALUES values, its text and temporaries take
        # ~1.4 MB at every width; 2**13-row blocks took ~300 B per value
        # (12.6 MB at 5 columns)
        peaks = []
        for rows in (2**13, 2**17):
            table = np.random.default_rng(rows).normal(size=(rows, cols))
            tracemalloc.start()
            try:
                write_samples_csv(tmp_path / "s.csv", table)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) <= 2e6 and peaks[1] <= 1.05 * peaks[0], peaks


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
            [np.arange(grid.n_nodes), edge_mesh(grid, grid.node_shape), coefficients]
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
            [np.arange(grid.n_bins), edge_mesh(grid, grid.n_delta), histogram.values]
        )
        header = "bin_index," + ",".join(f"corner{n}" for n in range(dim)) + ",value"
        expected = savetxt_bytes(
            tmp_path / "ref.csv", table, fmt=["%d"] + ["%.17g"] * (dim + 1),
            header=header, comments="",
        )
        assert (tmp_path / "h.csv").read_bytes() == expected

    def test_save_memory_does_not_grow_with_the_grid(self, tmp_path):
        # rows are built and formatted a block at a time; a whole (n, dim + 2)
        # table would take ~40 B per node, 2.9x the 40^3 peak at 96^3, and
        # blocks of 2**13 rows took 12.7 MB
        def peak(n):
            grid = TensorGrid((-1.0,) * 3, (2.0,) * 3, (n,) * 3)
            pdf = PiecewiseLinearPdf(grid, np.ones(grid.n_nodes), 5)
            tracemalloc.start()
            try:
                save_pdf(pdf, tmp_path / "pdf.csv")
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        large = peak(96)
        assert large <= 1.25 * peak(40) and large <= 2e6

    def test_table_that_its_sidecar_would_overwrite_is_rejected(self, tmp_path):
        grid = TensorGrid((0.0,), (1.0,), (2,))
        histogram = fit_histogram(grid, np.array([0.25, 0.75]))
        pdf = PiecewiseLinearPdf(grid, np.ones(3), 2)
        for save in (
            lambda path: save_pdf(pdf, path),
            lambda path: save_histogram(histogram, path),
            lambda path: save_grid_table(path, grid, ("i", "x", "v"), grid.node_shape,
                                         np.ones(3), 2),
        ):
            with pytest.raises(ValueError, match="overwritten by its .json sidecar"):
                save(tmp_path / "table.json")
        assert list(tmp_path.iterdir()) == []


class TestLoadGridTable:
    """A malformed table raises, naming its file, instead of loading a wrong density."""

    GRID = TensorGrid((0.0,), (1.0,), (3,))  # 4 nodes, 3 bins

    def saved(self, tmp_path, kind):
        """A saved table, its loader and the values it holds."""
        path = tmp_path / f"{kind}.csv"
        if kind == "pdf":
            values = np.array([0.5, 1.25, 1.0, 0.75])
            save_pdf(PiecewiseLinearPdf(self.GRID, values, 9), path)
            return path, lambda p: load_pdf(p).coefficients, values
        values = np.array([0.75, 1.5, 0.75])
        save_histogram(Histogram(self.GRID, values, 9), path)
        return path, lambda p: load_histogram(p).values, values

    @staticmethod
    def rewrite(path, edit):
        header, *rows = path.read_text().splitlines()
        path.write_text("\n".join([header, *edit(rows)]) + "\n")

    @pytest.mark.parametrize("kind", ["pdf", "histogram"])
    @pytest.mark.parametrize("edit, match", [
        (lambda rows: rows[:2] + rows[1:2] + rows[3:], "permutation"),  # index 1 twice
        (lambda rows: rows[:-1] + ["7" + rows[-1][rows[-1].index(","):]], "permutation"),
        (lambda rows: rows[:-1] + [rows[-1].rsplit(",", 1)[0] + ",-5"], "negative"),
        (lambda rows: rows[:-1] + [rows[-1].rsplit(",", 1)[0] + ",nan"], "not finite"),
        (lambda rows: rows[:-1] + [rows[-1].rsplit(",", 1)[0] + ",inf"], "not finite"),
    ], ids=["duplicate-index", "index-out-of-range", "negative", "nan", "inf"])
    def test_malformed_table_is_rejected(self, tmp_path, kind, edit, match):
        path, load, _ = self.saved(tmp_path, kind)
        self.rewrite(path, edit)
        with pytest.raises(BinPdfError, match=match) as err:
            load(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("kind", ["pdf", "histogram"])
    @pytest.mark.parametrize("table_edit, meta_edit, match", [
        (lambda rows: rows[:-1], None, "need [34] (coefficients|values), got [23]"),
        (None, lambda meta: {k: v for k, v in meta.items() if k != "lower"}, "'lower'"),
        (None, lambda meta: "{not json", "Expecting property name"),
        (None, lambda meta: {**meta, "lower": [2.0]}, "need lower < upper"),
        (None, lambda meta: {**meta, "n_delta": [4]}, "need [45] (coefficients|values), got [34]"),
    ], ids=["truncated-table", "no-lower", "not-json", "lower-above-upper", "n-delta-disagrees"])
    def test_table_and_sidecar_that_disagree_are_rejected(
        self, tmp_path, kind, table_edit, meta_edit, match
    ):
        path, load, _ = self.saved(tmp_path, kind)
        sidecar = path.with_suffix(".json")
        if table_edit is not None:
            self.rewrite(path, table_edit)
        if meta_edit is not None:
            meta = meta_edit(json.loads(sidecar.read_text()))
            sidecar.write_text(meta if isinstance(meta, str) else json.dumps(meta))
        with pytest.raises(BinPdfError, match=match) as err:
            load(path)
        assert str(path) in str(err.value) and str(sidecar) in str(err.value)

    @pytest.mark.parametrize("kind", ["pdf", "histogram"])
    @pytest.mark.parametrize("count", [1.5, -3, 0, True, "7", None])
    def test_a_sample_count_that_is_not_an_integer_of_at_least_1_is_rejected(
        self, tmp_path, kind, count
    ):
        path, load, _ = self.saved(tmp_path, kind)
        sidecar = path.with_suffix(".json")
        sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), "sample_count": count}))
        with pytest.raises(BinPdfError, match="sample_count must be a JSON integer >= 1") as err:
            load(path)
        assert str(path) in str(err.value) and str(sidecar) in str(err.value)

    @pytest.mark.parametrize("make, size", [(PiecewiseLinearPdf, 4), (Histogram, 3)],
                             ids=["pdf", "histogram"])
    @pytest.mark.parametrize("count", [0, 2.5, True, np.True_, -3, "7", None])
    def test_a_sample_count_the_loader_would_reject_is_rejected_at_construction(
        self, make, size, count
    ):
        with pytest.raises(ValueError, match="sample_count must be a JSON integer >= 1"):
            make(self.GRID, np.ones(size), count)

    @pytest.mark.parametrize("make, size, save, load", [
        (PiecewiseLinearPdf, 4, save_pdf, load_pdf),
        (Histogram, 3, save_histogram, load_histogram),
    ], ids=["pdf", "histogram"])
    def test_a_numpy_integer_sample_count_saves_and_loads_as_an_int(
        self, tmp_path, make, size, save, load
    ):
        density = make(self.GRID, np.ones(size), np.int64(4))
        save(density, tmp_path / "t.csv")
        for got in (density, load(tmp_path / "t.csv")):
            assert type(got.sample_count) is int and got.sample_count == 4

    @pytest.mark.parametrize("kind", ["pdf", "histogram"])
    def test_shuffled_rows_and_negative_zero_load(self, tmp_path, kind):
        path, load, values = self.saved(tmp_path, kind)
        self.rewrite(path, lambda rows: [rows[0].rsplit(",", 1)[0] + ",-0", *rows[:0:-1]])
        values[0] = -0.0
        got = load(path)
        np.testing.assert_array_equal(got, values)
        assert np.signbit(got[0])


# -- the binary twin of a sample CSV ---------------------------------------------

# bit patterns: +-0.0, the smallest subnormal and the largest finite value (both
# signs), +-inf, and NaNs with either sign, quiet or signalling, with payloads
SPECIAL_BITS = [
    0x0000000000000000, 0x8000000000000000, 0x0000000000000001, 0x8000000000000001,
    0x7FEFFFFFFFFFFFFF, 0xFFEFFFFFFFFFFFFF, 0x7FF0000000000000, 0xFFF0000000000000,
    0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001, 0xFFF4000000000000,
    0x7FFFFFFFFFFFFFFF, 0xFFF8DEADBEEF0001,
]
# row counts around the value-based block ends, around the 2**13-row block
# ends of earlier versions, and past one _CHUNK of write_csv_with_twin
ROWS = [1, 2, _BLOCK_VALUES - 1, _BLOCK_VALUES, _BLOCK_VALUES + 1, 2 * _BLOCK_VALUES + 3,
        8191, 8192, 8193, _CHUNK + 3]


def parse(path):
    return np.loadtxt(path, delimiter=",", comments="#", ndmin=2)


def assert_same_bits(got, expected):
    assert got.shape == expected.shape and got.dtype == np.float64
    np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))


@st.composite
def tables(draw):
    """Random float64 bit patterns (every exponent, NaN payloads included),
    a share of them replaced by magnitudes spread evenly over 1e-8..1e18,
    with some special values dropped in, in C or Fortran order."""
    rows, cols = draw(st.sampled_from(ROWS)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bits = np.frombuffer(rng.bytes(8 * rows * cols), np.uint64).reshape(rows, cols).copy()
    decimal = rng.random(bits.shape) < draw(st.floats(0, 1))
    spread = 10.0 ** rng.uniform(-8, 18, bits.shape) * rng.choice([-1.0, 1.0], bits.shape)
    bits[decimal] = spread.view(np.uint64)[decimal]
    for special in draw(st.lists(st.sampled_from(SPECIAL_BITS), max_size=2 * len(SPECIAL_BITS))):
        bits.flat[rng.integers(bits.size)] = special
    table = bits.view(np.float64)
    return np.asfortranarray(table) if draw(st.booleans()) else table


def grid_table_bytes_equal_savetxt(tmp_path, values):
    """save_pdf and save_histogram of ``values`` on 1-D grids give the bytes of
    np.savetxt with a %d index column."""
    grid = TensorGrid((-3.25,), (1e7 / 3,), (values.size,))
    for save, kind, header, table in [
        (save_histogram, Histogram, "bin_index,corner0,value",
         np.column_stack([np.arange(grid.n_bins), edge_mesh(grid, grid.n_delta), values])),
        (save_pdf, PiecewiseLinearPdf, "node_index,coord0,coefficient",
         np.column_stack([np.arange(grid.n_nodes), edge_mesh(grid, grid.node_shape),
                          np.append(values, values[:1])])),
    ]:
        save(kind(grid, table[:, -1], 7), tmp_path / "table.csv")
        expected = savetxt_bytes(tmp_path / "ref.csv", table, fmt=["%d", "%.17g", "%.17g"],
                                 header=header, comments="")
        assert (tmp_path / "table.csv").read_bytes() == expected


class TestKernel:
    """Every CSV writer against np.savetxt, value by value."""

    @settings(derandomize=True, database=None, max_examples=15, deadline=None)
    @given(tables())
    def test_bytes_equal_savetxt_for_any_table(self, table):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            write_samples_csv(tmp / "s.csv", table)
            header = f"dim={table.shape[1]} rows={table.shape[0]}"
            expected = savetxt_bytes(tmp / "ref.csv", table, fmt="%.17g", header=header)
            assert (tmp / "s.csv").read_bytes() == expected
            grid_table_bytes_equal_savetxt(tmp, table.ravel())

    def test_decades_rounding_and_ties(self, tmp_path):
        powers = np.array([float(f"1e{k}") for k in range(-8, 19)])
        # 17 nines parse to the next power of ten, or the double nearest it
        nines = np.array([float(f"9.9999999999999999e{k}") for k in range(-8, 18)])
        ties = [1 + 2**-17, 3 + 5 * 2**-17, 1e15 + 0.5, 2.0**53 + 2, 2.0**56 + 16, 0.5]
        values = np.concatenate([
            edges for middle in (powers, nines)
            for edges in (middle, np.nextafter(middle, 0), np.nextafter(middle, np.inf))
        ] + [ties])
        values = np.concatenate([values, -values])
        for table in (values.reshape(-1, 1), values.reshape(-1, 2)):
            write_samples_csv(tmp_path / "s.csv", table)
            expected = savetxt_bytes(tmp_path / "ref.csv", table, fmt="%.17g",
                                     header=f"dim={table.shape[1]} rows={table.shape[0]}")
            assert (tmp_path / "s.csv").read_bytes() == expected
        grid_table_bytes_equal_savetxt(tmp_path, values)
        fields = set((tmp_path / "s.csv").read_text().replace(",", "\n").splitlines())
        assert {"1.0000076293945312", "-3.0000381469726562", "1000000000000000.5"} <= fields

    def test_no_mantissa_in_the_exact_range_rounds_up_a_decade(self):
        # the largest double below 10**(e + 1) still has a 17-digit mantissa below 10**17
        for e in range(-7, 17):
            power = Fraction(10) ** (e + 1)
            below = float(power)
            if Fraction(below) >= power:
                below = np.nextafter(below, 0)
            assert power - Fraction(below) > Fraction(10) ** (e - 16) / 2


# -- publication of several files ------------------------------------------------


def write_pdf(path, value):
    grid = TensorGrid((0.0,), (1.0,), (3,))
    save_pdf(PiecewiseLinearPdf(grid, np.full(4, value), int(value)), path)


WRITERS = {
    "samples": (lambda path, value: write_samples_csv(path, np.full((3, 2), value)),
                lambda path: path.with_name(f".{path.name}.npy")),
    "pdf": (write_pdf, lambda path: path.with_suffix(".json")),
}


class TestPublication:
    @pytest.mark.parametrize("old", [True, False], ids=["over old files", "new files"])
    @pytest.mark.parametrize("failing", [0, 1], ids=["first rename", "second rename"])
    @pytest.mark.parametrize("writer", list(WRITERS))
    def test_failed_rename_leaves_every_file_as_it_was(
        self, tmp_path, monkeypatch, writer, failing, old
    ):
        write, companion = WRITERS[writer]
        path = tmp_path / "out.csv"
        if old:
            write(path, 1.0)
        before = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
        assert len(before) == (2 if old else 0)
        replace, renames = os.replace, []

        def replace_failing_once(src, dst):
            renames.append(Path(dst).name)
            if len(renames) == failing + 1:
                raise OSError(errno.EIO, "rename failed")
            replace(src, dst)

        monkeypatch.setattr(textio.os, "replace", replace_failing_once)
        with pytest.raises(OSError, match="rename failed"):
            write(path, 2.0)
        assert {f.name: f.read_bytes() for f in tmp_path.iterdir()} == before
        names = {path.name, companion(path).name}
        assert len(renames) > failing and set(renames) <= names

        monkeypatch.setattr(textio.os, "replace", replace)
        write(path, 3.0)
        assert {f.name for f in tmp_path.iterdir()} == names


class TestTwin:
    @settings(derandomize=True, database=None, max_examples=15, deadline=None)
    @given(tables())
    def test_twin_read_equals_the_parse_bit_for_bit(self, table):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "s.csv"
            write_samples_csv(path, table)
            reader = open_twin(path)
            assert reader is not None
            with reader:
                twin = reader.read()
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
                                        "empty twin", "no twin", "1-D payload", "int payload",
                                        "lying header"])
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
        elif damage == "lying header":  # the right digest and payload, the header claiming 10**12 rows
            header = io.BytesIO()
            np.lib.format.write_array_header_1_0(
                header, {"descr": "<f8", "fortran_order": False, "shape": (10**12, 2)})
            data = twin.read_bytes()
            twin.write_bytes(data[:32] + header.getvalue() + data[32 + len(header.getvalue()):])
        elif damage.endswith("payload"):  # the right digest before a payload of another kind
            payload = io.BytesIO()
            np.lib.format.write_array(payload, parse(path).ravel() if damage == "1-D payload"
                                      else np.arange(6000).reshape(3000, 2))
            twin.write_bytes(twin.read_bytes()[:32] + payload.getvalue())
        else:
            twin.unlink()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert open_twin(path) is None
            assert_same_bits(read_samples_csv(path), parse(path))

    def test_twin_holds_the_digest_then_the_npy_of_the_table(self, tmp_path):
        pts = np.random.default_rng(3).normal(size=(_CHUNK + 5, 2))
        pts[7, 1] = -np.nan  # written as nan, so the twin holds np.nan
        write_samples_csv(tmp_path / "s.csv", np.asfortranarray(pts))
        expected = io.BytesIO()
        np.lib.format.write_array(expected, np.where(np.isnan(pts), np.nan, pts))
        data = (tmp_path / ".s.csv.npy").read_bytes()
        assert data[:32] == hashlib.sha256((tmp_path / "s.csv").read_bytes()).digest()
        assert data[32:] == expected.getvalue()

    def test_the_csv_is_hashed_through_one_buffer(self, tmp_path):
        # a fresh bytes per read held two reads, 2 MiB, at once
        data = np.random.default_rng(5).bytes(3 * textio._HASH_BLOCK + 5)
        (tmp_path / "s.csv").write_bytes(data)
        tracemalloc.start()
        try:
            digest = textio._sha256(tmp_path / "s.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert digest == hashlib.sha256(data).digest()
        assert peak < 1.25 * textio._HASH_BLOCK

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
        with open_twin(path) as reader:
            assert reader.read().shape == (0, 2)
        with pytest.raises(EmptySampleSetError, match="empty.csv"):
            read_samples_csv(path)


class TestTableReader:
    PTS = np.random.default_rng(4).normal(size=(2 * _CHUNK + 9, 2))

    @pytest.fixture
    def path(self, tmp_path):
        write_samples_csv(tmp_path / "s.csv", self.PTS)
        return tmp_path / "s.csv"

    def test_twin_blocks_reuse_one_buffer_and_a_second_pass_rereads(self, path):
        with open_samples(path) as reader:
            assert reader.shape == self.PTS.shape
            for _ in range(2):
                blocks = [block.copy() for block in reader.blocks()]
                assert [b.shape[0] for b in blocks] == [_CHUNK, _CHUNK, 9]
                assert_same_bits(np.concatenate(blocks), self.PTS)
            first, second, _ = reader.blocks()
            assert np.shares_memory(first, second)
            for whole, head in zip(reader.blocks(), reader.head(_CHUNK + 1).blocks()):
                assert_same_bits(whole[: head.shape[0]], head)
            assert_same_bits(reader.head(_CHUNK + 1).read(), self.PTS[: _CHUNK + 1])
            assert_same_bits(reader.read(), self.PTS)

    @pytest.mark.parametrize("sizes", [
        [5, _CHUNK, _CHUNK - 3, 7],  # each block past the first crosses a multiple of _CHUNK
        list(_leaves(2 * _CHUNK + 9)),  # the RMSE's leaves: 16384, 8192, 8201 rows
    ], ids=["straddling", "leaves"])
    def test_twin_blocks_of_given_sizes(self, path, sizes):
        bounds = np.cumsum([0, *sizes])
        with open_samples(path) as reader:
            for _ in range(2):  # a second pass reads the same rows again
                blocks = [block.copy() for block in reader.blocks(sizes)]
                assert [b.shape[0] for b in blocks] == sizes
                for block, a, b in zip(blocks, bounds, bounds[1:]):
                    assert_same_bits(block, self.PTS[a:b])
            head = reader.head(_CHUNK + 1)
            assert_same_bits(np.concatenate([b.copy() for b in head.blocks([3, _CHUNK - 3, 1])]),
                             self.PTS[: _CHUNK + 1])
            assert [b.shape[0] for b in head.blocks()] == [_CHUNK, 1]

    def test_a_csv_without_a_twin_is_parsed_once(self, path, monkeypatch):
        (path.parent / ".s.csv.npy").unlink()
        calls = []
        loadtxt = np.loadtxt

        def counted(*args, **kwargs):
            calls.append(args)
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", counted)
        with open_samples(path) as reader:
            for _ in range(2):
                assert_same_bits(np.concatenate(list(reader.blocks())), self.PTS)
            assert_same_bits(reader.head(10).read(), self.PTS[:10])
        assert len(calls) == 1

    def test_the_csv_is_hashed_once_per_command(self, path, tmp_path, monkeypatch):
        calls = []
        sha256 = textio._sha256
        monkeypatch.setattr(textio, "_sha256", lambda p: calls.append(p) or sha256(p))
        assert main(["compare", "--samples", str(path), "--ref-n-delta", "16", "--n-delta",
                     "4", "--m", "1000", "--estimators", "fe,histogram",
                     "--out", str(tmp_path / "t.csv")]) == 0
        assert calls == [str(path)]

    def test_a_twin_truncated_while_it_is_read_raises(self, path):
        with open_samples(path) as reader:
            os.truncate(path.parent / ".s.csv.npy", 1000)
            with pytest.raises(BinPdfError, match="truncated"):
                reader.read()
