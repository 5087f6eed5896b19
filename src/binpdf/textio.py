"""CSV files shared by samples, fitted densities and histograms.

Floats are written with 17 significant digits, which round-trips float64
exactly. Rows are formatted in fixed blocks with one ``%`` operation per
block: the bytes are those of ``np.savetxt``, which formats one row per
Python call, at a fraction of the interpreter overhead, and only one block's
text and Python floats are held at a time.

A density or histogram is stored as a table (flat index, per-axis
coordinates, value) plus a ``.json`` sidecar holding the grid metadata.

Every writer publishes atomically: a hidden ``.NAME.tmp`` beside the target
is renamed over it once complete, and a write that raises leaves the target
as it was and removes the temp.
"""

from __future__ import annotations

import contextlib
import json
import os
from pathlib import Path

import numpy as np

from .grid import TensorGrid

_FLOAT_FMT = "%.17g"

# Rows per formatting block; a 2-D block's string and floats take a few MB.
_BLOCK_ROWS = 1 << 16


@contextlib.contextmanager
def _published(*paths):
    """Yield one text file per path, open on its temp name; when the block
    returns, close them all, then rename each temp over its path."""
    paths = [Path(p) for p in paths]
    tmps = [p.with_name(f".{p.name}.tmp") for p in paths]
    try:
        with contextlib.ExitStack() as stack:
            yield [stack.enter_context(open(tmp, "w")) for tmp in tmps]
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
    finally:
        for tmp in tmps:
            tmp.unlink(missing_ok=True)


def write_text(path, text: str) -> None:
    """Publish ``text`` as the whole content of ``path``."""
    with _published(path) as (fh,):
        fh.write(text)


def _write_rows(fh, header: str, table: np.ndarray, index_column: bool) -> None:
    fmts = [_FLOAT_FMT] * table.shape[1]
    if index_column:
        fmts[0] = "%d"
    row_fmt = ",".join(fmts) + "\n"
    fh.write(header + "\n")
    for start in range(0, table.shape[0], _BLOCK_ROWS):
        block = table[start:start + _BLOCK_ROWS]
        fh.write((row_fmt * block.shape[0]) % tuple(block.ravel().tolist()))


def write_csv(path, header: str, table: np.ndarray, *, index_column: bool = False) -> None:
    """Publish ``header`` as the first line, then one comma-separated line per row.

    Every column is a 17-digit float, except that with ``index_column`` the
    first one is written as an integer.
    """
    with _published(path) as (fh,):
        _write_rows(fh, header, table, index_column)


def sidecar_path(path: Path) -> Path:
    return path.with_suffix(".json") if path.suffix else path.with_name(path.name + ".json")


def save_grid_table(
    path, grid: TensorGrid, columns: tuple[str, str, str], coords: np.ndarray,
    values: np.ndarray, sample_count: int,
) -> Path:
    """Publish one row per grid entry plus the sidecar; returns the sidecar path.

    ``columns`` names the index column, the coordinate columns (suffixed by
    the axis number) and the value column of the header. Both files are
    written in full before either is renamed into place. A ``.json`` path is
    rejected with ``ValueError``: its sidecar would overwrite it.
    """
    path = Path(path)
    sidecar = sidecar_path(path)
    if sidecar == path:
        raise ValueError(f"grid table {path} would be overwritten by its .json sidecar")
    index, coord, value = columns
    header = f"{index}," + ",".join(f"{coord}{n}" for n in range(grid.dim)) + f",{value}"
    table = np.column_stack([np.arange(values.shape[0]), coords, values])
    meta = {
        "lower": list(grid.lower),
        "upper": list(grid.upper),
        "n_delta": list(grid.n_delta),
        "sample_count": sample_count,
    }
    with _published(path, sidecar) as (fh, meta_fh):
        _write_rows(fh, header, table, index_column=True)
        meta_fh.write(json.dumps(meta, indent=2) + "\n")
    return sidecar


def load_grid_table(path) -> tuple[TensorGrid, np.ndarray, int]:
    """Read a :func:`save_grid_table` file: grid, values in index order, M."""
    path = Path(path)
    meta = json.loads(sidecar_path(path).read_text())
    grid = TensorGrid(tuple(meta["lower"]), tuple(meta["upper"]), tuple(meta["n_delta"]))
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    order = np.argsort(table[:, 0].astype(np.int64))
    return grid, table[order, -1], int(meta["sample_count"])
