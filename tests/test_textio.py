"""The block CSV writer: byte-identical to ``np.savetxt`` for every file kind."""

import numpy as np
import pytest

from binpdf import (
    PiecewiseLinearPdf,
    TensorGrid,
    fit_histogram,
    save_histogram,
    save_pdf,
    write_samples_csv,
)
from binpdf.textio import _BLOCK_ROWS, save_grid_table

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
