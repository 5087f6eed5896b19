"""CSV files shared by samples, fitted densities and histograms.

Floats are written with 17 significant digits, which round-trips float64
exactly. Every CSV's bytes are those ``np.savetxt(fmt="%.17g",
delimiter=",")`` writes, made in numpy rather than one Python ``%`` call per
row: rows are formatted in blocks of a fixed number of values, whatever the
column count, and only one block's text is held at a time. Per value,
Dekker's error-free product gives the 17-digit decimal mantissa exactly, a
4-digit table turns it into text with its trailing zeros dropped, and the
sign, point and exponent of ``%g`` are laid out around it (see
``_format_block``). Values outside the range the product is exact for
(magnitudes below 1e-6 or from 1e17 up, subnormals, infinities and NaN) are
formatted with ``%`` one by one. An integral float below 1e17 reads the same
as ``%d``, so index columns take the same path.

A density or histogram is stored as a table (flat index, per-axis
coordinates, value) plus a ``.json`` sidecar holding the grid metadata.

Every writer publishes atomically: a hidden ``.NAME.tmp`` beside each target
is renamed over it once all are complete. A writer of several files renames
them one by one, and keeps each replaced file as a hidden hard link
``.NAME.bak`` until the last rename is done; if a rename fails, the files
already renamed are put back, so either every file is new or none is. A
write that raises leaves the targets as they were and removes the temps and
backups.

A sample CSV gets a binary twin, the hidden ``.NAME.npy`` beside it: the
SHA-256 digest of the CSV's bytes, then the array as an ``.npy`` payload.
Hashing the CSV and reading the payload take a fraction of the time a parse
takes, and the twin is used only while its digest matches the CSV's bytes,
so it returns what the parse would. Both sides stream: the writer takes the
rows a block at a time, and :class:`TableReader` reads the payload into one
buffer a block at a time, of the row counts its caller asks for (at most
``_CHUNK`` each), once the payload's byte count is found equal to what the
header's shape needs. The CSV stays the authoritative
format: a twin that is missing, stale or damaged is ignored, and deleting
it is always safe.
"""

from __future__ import annotations

import contextlib
import copy
import json
import os
from pathlib import Path

import numpy as np

from .errors import BinPdfError, EmptySampleSetError
from .grid import _CHUNK, TensorGrid, as_points

# Values per formatting block, whatever the column count: a block's text and
# temporaries take ~1.4 MB.
_BLOCK_VALUES = 1 << 12

# Bytes per read while hashing a CSV, into one buffer held for the call.
_HASH_BLOCK = 1 << 20


@contextlib.contextmanager
def _published(*paths):
    """Yield one binary file per path, open on its temp name; when the block
    returns, close them all, then rename each temp over its path, putting the
    replaced files back if a rename fails."""
    paths = [Path(p) for p in paths]
    tmps = [p.with_name(f".{p.name}.tmp") for p in paths]
    backups = [p.with_name(f".{p.name}.bak") for p in paths]
    renamed = []  # (path, its backup, or None when there was no file to keep)
    try:
        with contextlib.ExitStack() as stack:
            yield [stack.enter_context(open(tmp, "wb")) for tmp in tmps]
        for tmp, path, backup in zip(tmps, paths, backups):
            backup.unlink(missing_ok=True)
            try:
                os.link(path, backup, follow_symlinks=False)
            except FileNotFoundError:
                backup = None  # nothing to put back: undoing removes the new file
            except OSError:  # a directory, which the rename rejects, or no hard links
                pass
            os.replace(tmp, path)
            renamed.append((path, backup))
    except BaseException:
        for path, backup in reversed(renamed):
            if backup is None:
                path.unlink()
            elif backup.exists():  # else the old file could not be kept
                os.replace(backup, path)
        raise
    finally:
        for tmp, backup in zip(tmps, backups):
            tmp.unlink(missing_ok=True)
            backup.unlink(missing_ok=True)


def write_text(path, text: str) -> None:
    """Publish ``text``, UTF-8 encoded, as the whole content of ``path``."""
    with _published(path) as (fh,):
        fh.write(text.encode())


# -- %.17g text in numpy -----------------------------------------------------------
#
# A value's text is laid out in a field of six little-endian uint64 words, 48
# bytes, of which the NUL bytes are dropped at the end:
#
#   word 0    sign, "0.000" lead of fixed notation below 1, first digit, point slot
#   words 1-4 digits 2..17, four per word, each followed by its point slot
#   word 5    exponent ("e-06"), separator ("," or "\n")
#
# Digit i (0-based) is byte 6 + 2i of the field, and the slot for a point
# after it is byte 7 + 2i.

_WORD = np.dtype("<u8")
_FIELD_BYTES = 48
_SEPARATOR = np.uint64(0xFF << 32)  # the separator's byte in word 5

# Values the kernel leaves to % are padded to five words, space for NUL: the
# text of a %.17g value never exceeds 24 bytes ("-1.7976931348623157e+308").
_PADDED_FMT = "%-40.17g"
_NUL_FOR_SPACE = bytes.maketrans(b" ", b"\0")


def _words(texts) -> np.ndarray:
    """Each ASCII text, NUL-padded to 8 bytes, as one word."""
    return np.array(texts, dtype="S8").view(_WORD)


def _digit_words() -> np.ndarray:
    """Word ``c`` holds the four digits of ``c`` (0..9999) at even bytes; word
    ``10000 + c`` the same without their trailing zeros.

    Built per file rather than at import, and from the 100 words of two
    digits, so that its temporaries take a few kB."""
    tens, ones = np.divmod(np.arange(100, dtype=_WORD), 10)
    pair = tens + ord("0") | (ones + ord("0")) << 16
    trimmed = np.where(ones > 0, pair, np.where(tens > 0, tens + ord("0"), 0))
    words = np.empty((2, 100, 100), _WORD)  # c = 100 * high + low
    np.bitwise_or(pair[:, None], pair << 32, out=words[0])
    np.bitwise_or(pair[:, None], trimmed << 32, out=words[1])
    words[1, :, 0] = trimmed  # low == 0: the high pair is trimmed instead
    return words.ravel()


def _veltkamp(a):
    """Split ``a`` into halves of at most 26 significant bits, ``hi + lo == a``."""
    c = a * 134217729.0  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


# 10**p for p = 0..22, the powers of ten float64 holds exactly, and their
# halves; the tables below are indexed by p, the decimal exponent being 16 - p
_POW10 = np.array([float(10**p) for p in range(23)])
_POW10_HI, _POW10_LO = _veltkamp(_POW10)
_LEADS = _words(["\0" + ("0." + "0" * (p - 17) if 17 <= p <= 20 else "") for p in range(23)])
_EXPONENTS = _words([f"e-{p - 16:02d}" if p > 20 else "" for p in range(23)])


def _scaled(a, p):
    """``a * 10**p`` as ``hi + lo`` exactly (Dekker's two-product; numpy has
    no fused multiply-add)."""
    b_hi, b_lo = _POW10_HI[p], _POW10_LO[p]
    hi = a * _POW10[p]
    a_hi, a_lo = _veltkamp(a)
    return hi, ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _outside(hi, lo):
    """Whether ``hi + lo`` lies outside [1e16, 1e17)."""
    return (hi < 1e16) | ((hi == 1e16) & (lo < 0)) | (hi > 1e17) | ((hi == 1e17) & (lo >= 0))


def _block_rows(cols: int) -> int:
    """Rows per formatting block of a ``cols``-column table."""
    return max(1, _BLOCK_VALUES // cols)


def _format_block(values: np.ndarray, words: np.ndarray, digit_words: np.ndarray) -> bytes:
    """The bytes ``"%.17g"`` gives ``values``, each followed by the separator
    in its field of ``words`` (see above), which holds at least one field per
    value; ``digit_words`` is the table :func:`_digit_words` builds."""
    n = values.size
    a = np.abs(values)
    zero = a == 0
    exact = (a >= 1e-6) & (a < 1e17)  # here 10**(16 - exponent) is exact
    a = np.where(exact, a, 1.0)  # zeros and the values left to % are written as 1 first

    # the 17-digit mantissa: round-half-even(a * 10**p) in [1e16, 1e17)
    p = 16 - np.floor(np.log10(a)).astype(np.intp)
    np.clip(p, 0, 22, out=p)
    hi, lo = _scaled(a, p)
    redo = np.flatnonzero(_outside(hi, lo))  # log10 can miss the decade near a power of ten
    if redo.size:
        p[redo] = np.clip(p[redo] + np.where(hi[redo] <= 1e16, 1, -1), 0, 22)
        hi[redo], lo[redo] = _scaled(a[redo], p[redo])
        exact[redo[_outside(hi[redo], lo[redo])]] = False
    # hi >= 2**53 is an even integer, so hi + rint(lo) is hi + lo rounded half
    # to even. It never carries into 10**17: in this range the double below a
    # power of ten lies more than half a unit of the 17th digit under it.
    mantissa = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    exponent = 16 - p

    first, rest = np.divmod(mantissa, 10**16)
    first[zero] = 0
    chunks = np.empty((4, n), np.intp)
    upper, lower = np.divmod(rest, 10**8)
    chunks[0], chunks[1] = np.divmod(upper, 10**4)
    chunks[2], chunks[3] = np.divmod(lower, 10**4)
    trailing = np.ones(n, bool)  # only zeros follow: drop this chunk's trailing zeros
    for chunk in chunks[::-1]:
        empty = chunk == 0
        chunk += trailing * 10_000
        trailing &= empty

    field = words[:n]
    field[:, 0] = (_LEADS[p] | np.signbit(values) * np.uint64(ord("-"))
                   | (first + ord("0")).astype(_WORD) << np.uint64(48))
    field[:, 1:5] = digit_words[chunks.T]
    field[:, 5] = field[:, 5] & _SEPARATOR | _EXPONENTS[p]

    text = field.view(np.uint8)
    flat = text.reshape(-1)
    starts = np.arange(n) * _FIELD_BYTES
    # a point after digit `exponent` in fixed notation, after the first in
    # exponent notation, if a digit follows it
    after = np.where(exponent < -4, 0, exponent)
    slot = starts + 7 + 2 * np.maximum(after, 0)
    flat[slot[(after >= 0) & (flat[slot + 1] != 0)]] = ord(".")
    # fixed notation keeps the integer part's zeros that the table dropped
    whole = np.flatnonzero((exponent > 0) & (flat[starts + 6 + 2 * np.maximum(exponent, 0)] == 0))
    if whole.size:
        digits = text[whole, 6:40:2]
        digits[(digits == 0) & (np.arange(17) <= exponent[whole, None])] = ord("0")
        text[whole, 6:40:2] = digits

    odd = np.flatnonzero(~(exact | zero))
    if odd.size:
        texts = (_PADDED_FMT * odd.size % tuple(values[odd].tolist())).encode()
        field[odd, :5] = np.frombuffer(texts.translate(_NUL_FOR_SPACE), _WORD).reshape(-1, 5)
        field[odd, 5] &= _SEPARATOR
    return field.tobytes().translate(None, b"\0")


def _csv_pieces(header: str, shape: tuple[int, int], blocks):
    """The CSV's bytes: the header line, then one piece per block of
    :func:`_block_rows` rows of the ``shape`` table whose rows ``blocks``
    yields in order."""
    cols = shape[1]
    step = _block_rows(cols)
    rows = min(step, shape[0])
    words = np.zeros((rows, cols, _FIELD_BYTES // 8), _WORD)
    words[..., 5] = ord(",") << 32
    words[:, -1, 5] = ord("\n") << 32
    words = words.reshape(rows * cols, _FIELD_BYTES // 8)
    digit_words = _digit_words()
    yield f"{header}\n".encode()
    for block in blocks:
        block = np.asarray(block, dtype=np.float64)
        for start in range(0, block.shape[0], step):
            yield _format_block(block[start : start + step].ravel(), words, digit_words)


def _twin_path(path) -> Path:
    path = Path(path)
    return path.with_name(f".{path.name}.npy")


def write_csv_with_twin(path, header: str, shape: tuple[int, int], blocks) -> None:
    """Publish ``header`` as the first line, then one line of 17-digit floats
    per row of the ``shape`` table whose rows ``blocks`` yields in order,
    together with the file's binary twin (see the module docstring).

    One block is held at a time. The twin gets 32 placeholder bytes, the
    ``.npy`` header, then each block's payload before its text is
    formatted, and last the digest of the CSV's bytes over the placeholder.
    The CSV writes every NaN as ``nan``, which parses to the one NaN
    ``np.nan``, so the twin holds ``np.nan`` for every NaN too; a block is
    copied only when it is not C-ordered float64 or holds a NaN.
    """
    import hashlib  # here, not at module level: it maps OpenSSL, ~3.5 MB of RSS

    digest = hashlib.sha256()
    rows = 0

    def to_twin(twin):
        nonlocal rows
        for block in blocks:
            block = np.ascontiguousarray(block, dtype=np.float64)
            if np.isnan(block.min(initial=0.0)):  # min propagates NaN, with no temporary
                block = np.where(np.isnan(block), np.nan, block)
            twin.write(block)
            rows += block.shape[0]
            yield block

    # the twin is renamed first: if the CSV's rename then fails, the CSV is
    # as it was, and the new twin does not match it
    with _published(_twin_path(path), path) as (twin, fh):
        twin.write(bytes(32))
        np.lib.format.write_array_header_1_0(
            twin, {"descr": np.lib.format.dtype_to_descr(np.dtype(np.float64)),
                   "fortran_order": False, "shape": tuple(shape)})
        for piece in _csv_pieces(header, shape, to_twin(twin)):
            fh.write(piece)
            digest.update(piece)
        if rows != shape[0]:
            raise ValueError(f"blocks held {rows} rows, not the {shape[0]} of shape {shape}")
        twin.seek(0)
        twin.write(digest.digest())


def _sha256(path) -> bytes:
    import hashlib

    digest = hashlib.sha256()
    buffer = memoryview(bytearray(_HASH_BLOCK))
    with open(path, "rb") as fh:
        while size := fh.readinto(buffer):
            digest.update(buffer[:size])
    return digest.digest()


class TableReader:
    """The rows of a 2-D float64 table, served in consecutive blocks.

    Made by :func:`open_twin` over a twin, each pass of :meth:`blocks` reads
    the payload into one reused buffer from the twin's handle, which stays
    open until :meth:`close`; made from an array, it serves slices of it.
    ``shape`` is the table's; :meth:`head` serves its first rows alone.
    """

    def __init__(self, table: np.ndarray | None = None, *, twin=None, shape=None):
        self._table, self._twin = table, twin
        self._payload = twin.tell() if twin is not None else 0
        self.shape = tuple(shape if table is None else table.shape)

    def head(self, rows: int) -> TableReader:
        """A reader of the first ``rows`` rows, sharing this one's source (and
        its handle: close this one, not the head)."""
        head = copy.copy(self)
        head.shape = (rows, self.shape[1])
        return head

    def blocks(self, sizes=None):
        """Yield the rows in consecutive blocks of the row counts ``sizes``,
        each at most ``_CHUNK``; by default blocks of ``_CHUNK`` rows from a
        twin (the last may be shorter) and the whole table from an array.
        A twin's blocks are slices of one buffer that every block of the pass
        reuses (valid until the next step); each pass has its own buffer and
        reads each block at its own offset, so passes may run side by side."""
        rows, cols = self.shape
        if sizes is None:
            sizes = [rows] if self._table is not None else (
                min(_CHUNK, rows - start) for start in range(0, rows, _CHUNK))
        buf = None if self._table is not None else np.empty((min(_CHUNK, rows), cols))
        start = 0
        for k in sizes:
            yield self._table[start : start + k] if buf is None else self._read(buf[:k], start)
            start += k

    def _read(self, block: np.ndarray, start: int) -> np.ndarray:
        """``block`` filled with the twin's rows from row ``start`` on."""
        self._twin.seek(self._payload + 8 * self.shape[1] * start)  # passes may interleave
        if self._twin.readinto(block) != block.nbytes:
            raise BinPdfError(f"{self._twin.name} was truncated while it was read")
        return block

    def read(self) -> np.ndarray:
        """The whole table, in one array."""
        if self._table is not None:
            return self._table[: self.shape[0]]
        return self._read(np.empty(self.shape), 0)

    def close(self) -> None:
        if self._twin is not None:
            self._twin.close()

    def __enter__(self) -> TableReader:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _scan(samples, dim: int | None, empty: str) -> tuple[int, TableReader]:
    """``(rows, reader)`` of ``samples``: a :class:`TableReader` itself, or
    one over ``as_points(samples, dim)``. A reader's width other than ``dim``
    (when given) raises ``ValueError``, as :func:`as_points` does, and no rows
    raise :class:`EmptySampleSetError` with the message ``empty``."""
    reader = samples if isinstance(samples, TableReader) else TableReader(as_points(samples, dim))
    if reader.shape[1] != (dim or reader.shape[1]):
        raise ValueError(f"expected points of dimension {dim}, got shape {reader.shape}")
    if reader.shape[0] == 0:
        raise EmptySampleSetError(empty)
    return reader.shape[0], reader


def open_twin(path) -> TableReader | None:
    """A reader of the twin of the CSV at ``path``, or None.

    None when there is no twin (a path without a name, such as ``""``, has
    none), when its digest does not match the CSV's bytes (the CSV was
    edited or replaced, or the twin belongs to another file), or when its
    payload is not exactly the C-ordered 2-D float64 table its ``.npy``
    header describes (a truncated twin, or not a twin at all); the sizes are
    compared before a row is read. Never raises: the caller then parses the
    CSV. The CSV is hashed once, here.
    """
    try:
        twin = open(_twin_path(path), "rb")
    except (OSError, ValueError):  # ValueError: the path has no name
        return None
    try:
        if twin.read(32) == _sha256(path) and np.lib.format.read_magic(twin) == (1, 0):
            shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(twin)
            payload = os.fstat(twin.fileno()).st_size - twin.tell()
            if (dtype == np.float64 and not fortran_order and len(shape) == 2
                    and payload == 8 * shape[0] * shape[1]):
                return TableReader(twin=twin, shape=shape)
    except (OSError, ValueError):
        pass
    twin.close()
    return None


def sidecar_path(path: Path) -> Path:
    return path.with_suffix(".json") if path.suffix else path.with_name(path.name + ".json")


def save_grid_table(
    path, grid: TensorGrid, columns: tuple[str, str, str], shape: tuple[int, ...],
    values: np.ndarray, sample_count: int,
) -> Path:
    """Publish one row per grid entry plus the sidecar; returns the sidecar path.

    The entries are the row-major multi-indices of ``shape``, the grid's node
    or bin shape, and a row holds the flat index, the coordinates ``lower +
    index * delta`` and the value. ``columns`` names the index column, the
    coordinate columns (suffixed by the axis number) and the value column of
    the header. Rows are built a block at a time. Both files are written in
    full before either is renamed into place. A ``.json`` path is rejected
    with ``ValueError``: its sidecar would overwrite it.
    """
    path = Path(path)
    sidecar = sidecar_path(path)
    if sidecar == path:
        raise ValueError(f"grid table {path} would be overwritten by its .json sidecar")
    index, coord, value = columns
    header = f"{index}," + ",".join(f"{coord}{n}" for n in range(grid.dim)) + f",{value}"
    rows = values.shape[0]

    def blocks():
        step = _block_rows(grid.dim + 2)
        for start in range(0, rows, step):
            flat = np.arange(start, min(start + step, rows))
            block = np.empty((flat.shape[0], grid.dim + 2))
            block[:, 0] = flat
            for n, i in enumerate(np.unravel_index(flat, shape)):
                block[:, n + 1] = grid.lower[n] + i * grid.deltas[n]
            block[:, -1] = values[start : start + flat.shape[0]]
            yield block

    meta = {
        "lower": list(grid.lower),
        "upper": list(grid.upper),
        "n_delta": list(grid.n_delta),
        "sample_count": sample_count,
    }
    with _published(path, sidecar) as (fh, meta_fh):
        for piece in _csv_pieces(header, (rows, grid.dim + 2), blocks()):
            fh.write(piece)
        meta_fh.write((json.dumps(meta, indent=2) + "\n").encode())
    return sidecar


def load_grid_table(path, make):
    """Read a :func:`save_grid_table` file as ``make(grid, values, sample_count)``.

    ``make`` is the density's class, which checks that the table has one row
    per node or bin of the grid and a ``sample_count`` of at least 1. Raises
    :class:`BinPdfError` naming the table and its sidecar unless the sidecar
    is JSON describing a valid grid, the index column holds each of
    ``0..rows-1`` once, every value is finite and >= 0, and ``make`` accepts
    the rows and the count.
    """
    path = Path(path)
    sidecar = sidecar_path(path)
    try:
        meta = json.loads(sidecar.read_text())
        grid = TensorGrid(tuple(meta["lower"]), tuple(meta["upper"]), tuple(meta["n_delta"]))
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        order = np.argsort(table[:, 0])
        if not np.array_equal(table[order, 0], np.arange(table.shape[0])):
            raise ValueError("the index column is not a permutation of 0..rows-1")
        values = table[order, -1]
        if not (np.isfinite(values).all() and (values >= 0).all()):
            raise ValueError("a value is negative or not finite")
        return make(grid, values, meta["sample_count"])
    except (ValueError, KeyError, TypeError) as err:  # JSONDecodeError is a ValueError
        raise BinPdfError(f"{path} (sidecar {sidecar}): {err}") from err
