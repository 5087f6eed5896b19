"""CSV files shared by samples, fitted densities and histograms.

Floats are written with 17 significant digits, which round-trips float64
exactly. Rows are formatted in fixed blocks with one ``%`` operation per
block: the bytes are those of ``np.savetxt``, which formats one row per
Python call, at a fraction of the interpreter overhead, and only one block's
text and Python floats are held at a time.

A density or histogram is stored as a table (flat index, per-axis
coordinates, value) plus a ``.json`` sidecar holding the grid metadata.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .grid import TensorGrid

_FLOAT_FMT = "%.17g"

# Rows per formatting block; a 2-D block's string and floats take a few MB.
_BLOCK_ROWS = 1 << 16


def write_csv(path, header: str, table: np.ndarray, *, index_column: bool = False) -> None:
    """Write ``header`` as the first line, then one comma-separated line per row.

    Every column is a 17-digit float, except that with ``index_column`` the
    first one is written as an integer.
    """
    fmts = [_FLOAT_FMT] * table.shape[1]
    if index_column:
        fmts[0] = "%d"
    row_fmt = ",".join(fmts) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for start in range(0, table.shape[0], _BLOCK_ROWS):
            block = table[start:start + _BLOCK_ROWS]
            fh.write((row_fmt * block.shape[0]) % tuple(block.ravel().tolist()))


def sidecar_path(path: Path) -> Path:
    return path.with_suffix(".json") if path.suffix else path.with_name(path.name + ".json")


def save_grid_table(
    path, grid: TensorGrid, columns: tuple[str, str, str], coords: np.ndarray,
    values: np.ndarray, sample_count: int,
) -> Path:
    """Write one row per grid entry plus the sidecar; returns the sidecar path.

    ``columns`` names the index column, the coordinate columns (suffixed by
    the axis number) and the value column of the header.
    """
    path = Path(path)
    index, coord, value = columns
    header = f"{index}," + ",".join(f"{coord}{n}" for n in range(grid.dim)) + f",{value}"
    table = np.column_stack([np.arange(values.shape[0]), coords, values])
    write_csv(path, header, table, index_column=True)
    sidecar = sidecar_path(path)
    meta = {
        "lower": list(grid.lower),
        "upper": list(grid.upper),
        "n_delta": list(grid.n_delta),
        "sample_count": sample_count,
    }
    sidecar.write_text(json.dumps(meta, indent=2) + "\n")
    return sidecar


def load_grid_table(path) -> tuple[TensorGrid, np.ndarray, int]:
    """Read a :func:`save_grid_table` file: grid, values in index order, M."""
    path = Path(path)
    meta = json.loads(sidecar_path(path).read_text())
    grid = TensorGrid(tuple(meta["lower"]), tuple(meta["upper"]), tuple(meta["n_delta"]))
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    order = np.argsort(table[:, 0].astype(np.int64))
    return grid, table[order, -1], int(meta["sample_count"])
