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

A sample CSV gets a binary twin, the hidden ``.NAME.npy`` beside it: the
SHA-256 digest of the CSV's bytes, then the array as an ``.npy`` payload.
Hashing the CSV and reading the payload take a fraction of the time a parse
takes, and the twin is used only while its digest matches the CSV's bytes,
so it returns what the parse would. The CSV stays the authoritative format:
a twin that is missing, stale or damaged is ignored, and deleting it is
always safe.
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

# Bytes per read while hashing a CSV.
_HASH_BLOCK = 1 << 20


@contextlib.contextmanager
def _published(*paths):
    """Yield one binary file per path, open on its temp name; when the block
    returns, close them all, then rename each temp over its path."""
    paths = [Path(p) for p in paths]
    tmps = [p.with_name(f".{p.name}.tmp") for p in paths]
    try:
        with contextlib.ExitStack() as stack:
            yield [stack.enter_context(open(tmp, "wb")) for tmp in tmps]
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
    finally:
        for tmp in tmps:
            tmp.unlink(missing_ok=True)


def write_text(path, text: str) -> None:
    """Publish ``text``, UTF-8 encoded, as the whole content of ``path``."""
    with _published(path) as (fh,):
        fh.write(text.encode())


def _csv_pieces(header: str, table: np.ndarray, index_column: bool):
    """The CSV's bytes: the header line, then one piece per block of rows."""
    fmts = [_FLOAT_FMT] * table.shape[1]
    if index_column:
        fmts[0] = "%d"
    row_fmt = ",".join(fmts) + "\n"
    yield f"{header}\n".encode()
    for start in range(0, table.shape[0], _BLOCK_ROWS):
        block = table[start:start + _BLOCK_ROWS]
        yield ((row_fmt * block.shape[0]) % tuple(block.ravel().tolist())).encode()


def _twin_path(path) -> Path:
    path = Path(path)
    return path.with_name(f".{path.name}.npy")


def write_csv_with_twin(path, header: str, table: np.ndarray) -> None:
    """Publish ``header`` as the first line, then one line of 17-digit floats
    per row, together with the file's binary twin (see the module docstring).

    The CSV writes every NaN as ``nan``, which parses to the one NaN
    ``np.nan``, so the twin holds ``np.nan`` for every NaN too; it copies the
    table only when there is one.
    """
    import hashlib  # here, not at module level: it maps OpenSSL, ~3.5 MB of RSS

    digest = hashlib.sha256()
    # the twin is renamed first: if the CSV's rename then fails, the CSV is
    # as it was, and the new twin does not match it
    with _published(_twin_path(path), path) as (twin, fh):
        for piece in _csv_pieces(header, table, index_column=False):
            fh.write(piece)
            digest.update(piece)
        twin.write(digest.digest())
        if np.isnan(table.min(initial=0.0)):  # min propagates NaN, with no temporary
            table = np.where(np.isnan(table), np.nan, table)
        np.lib.format.write_array(twin, table)  # straight from the array, no copy


def _sha256(path) -> bytes:
    import hashlib

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(_HASH_BLOCK):
            digest.update(block)
    return digest.digest()


def read_twin(path) -> np.ndarray | None:
    """The 2-D float64 array in the twin of the CSV at ``path``, or None.

    None when there is no twin, when its digest does not match the CSV's
    bytes (the CSV was edited or replaced, or the twin belongs to another
    file), or when the twin is truncated or not a twin at all. Never raises:
    the caller then parses the CSV.
    """
    try:
        with open(_twin_path(path), "rb") as twin:
            if twin.read(32) != _sha256(path):  # a SHA-256 digest is 32 bytes
                return None
            table = np.lib.format.read_array(twin)  # np.fromfile, no copy
    except (OSError, ValueError):
        return None
    return table if table.dtype == np.float64 and table.ndim == 2 else None


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
        for piece in _csv_pieces(header, table, index_column=True):
            fh.write(piece)
        meta_fh.write((json.dumps(meta, indent=2) + "\n").encode())
    return sidecar


def load_grid_table(path) -> tuple[TensorGrid, np.ndarray, int]:
    """Read a :func:`save_grid_table` file: grid, values in index order, M."""
    path = Path(path)
    meta = json.loads(sidecar_path(path).read_text())
    grid = TensorGrid(tuple(meta["lower"]), tuple(meta["upper"]), tuple(meta["n_delta"]))
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    order = np.argsort(table[:, 0].astype(np.int64))
    return grid, table[order, -1], int(meta["sample_count"])
