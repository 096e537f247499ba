"""Read/write observation grids.

Two interchangeable on-disk forms:

* binary (``.fdg``): magic ``FDG1``, little-endian u64 M, u64 N, f64 sigma,
  then M*N f64 samples in row-major order;
* CSV (``.csv``): first line ``M,N,sigma``, then M rows of N samples.

``open_grid``/``save_grid`` dispatch on file extension; on read, any
extension other than ``.csv`` and ``.fdg`` is sniffed for the magic.
:func:`open_grid` reads and checks only the header and returns a
:class:`funcdeconv.spectra.RowSource` with the file's ``sigma``, whose
samples come a row block at a time: a binary file's read from the disk, a
``.csv`` file's (the small-data form) from the array parsed on open.
:func:`load_grid` reads them all into an :class:`ObservationGrid`.
:func:`save_grid` writes any row source with a ``sigma`` a row block at a
time, and removes the file when a block fails.

Every output file of the package is written through :func:`rewrite`, which
replaces an existing file's contents in place instead of truncating it on
open.
"""

from __future__ import annotations

import contextlib
import os
import stat
import struct
import warnings
from functools import partial

import numpy as np

from .exceptions import ConfigError
from .spectra import (ObservationGrid, RowSource, _is_pow2, array_blocks, block_rows,
                      check_finite)

MAGIC = b"FDG1"
_HEADER = struct.Struct("<QQd")
_DATA_OFFSET = len(MAGIC) + _HEADER.size


@contextlib.contextmanager
def rewrite(path, mode: str = "w", **kwargs):
    """``open(path, mode)`` for writing, but without truncating the file on open.

    The new contents overwrite the old ones in place and the file is cut to
    their length on close (also when writing fails part-way). Opening with
    truncation would free the file's blocks and, on file systems that flush
    a file truncated to zero when it is closed (ext4's default), send every
    rewrite straight to the disk, with the next rewrite of the same file
    waiting on that write: a repeated command's run time would then follow
    the disk's. Pipes and devices are written as they are.
    """
    if "w" not in mode:
        raise ValueError(f"rewrite needs a write mode, got {mode!r}")
    with open(path, mode, opener=_open_untruncated, **kwargs) as fh:
        try:
            yield fh
        finally:
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()


def _open_untruncated(path, flags: int) -> int:
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


@contextlib.contextmanager
def _written(path, mode: str = "w"):
    """:func:`rewrite` of a grid file that a failed write removes: if producing or
    writing a row block raises, the file at ``path`` is removed, an older one it
    was overwriting included, and the error re-raised. Pipes and devices stay."""
    with rewrite(path, mode) as fh:
        try:
            yield fh
        except BaseException:
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                os.remove(path)
            raise


def save_grid_binary(path, grid) -> None:
    """Write a row source with a ``sigma`` as a binary grid, a row block at a time."""
    with _written(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(_HEADER.pack(grid.m, grid.n, float(grid.sigma)))
        for _, rows in grid.row_blocks():
            fh.write(memoryview(np.ascontiguousarray(rows, dtype="<f8")).cast("B"))


def _binary_blocks(path, m: int, n: int):
    """``(start, rows)``: the rows of the binary grid file at ``path`` from profile
    ``start`` on, ``block_rows(N)`` at a time, each checked to be finite, a
    non-finite sample raising :class:`ConfigError` with the path. The blocks are
    read into one reused buffer, so a block is valid until the next is read."""
    step = block_rows(n)
    buf = np.empty((min(step, m), n), dtype="<f8")
    with open(path, "rb") as fh:
        fh.seek(_DATA_OFFSET)
        for start in range(0, m, step):
            rows = buf[:m - start]
            if fh.readinto(memoryview(rows).cast("B")) != rows.nbytes:
                raise ConfigError(f"{path}: file shrank while being read")
            check_finite(rows, start, path)
            yield start, rows


def _grid_source(path, m: int, n: int, sigma: float, row_blocks) -> RowSource:
    """The row source of a grid file whose header promised M x N samples and
    ``sigma``, once the header is checked: a non-empty grid, N a power of two
    >= 2 and sigma finite and >= 0, each failure a :class:`ConfigError` naming
    the path."""
    if m == 0 or n == 0:
        raise ConfigError(f"{path}: header promises an empty {m}x{n} grid")
    if n < 2 or not _is_pow2(n):
        raise ConfigError(f"{path}: time length N={n} must be a power of two >= 2")
    if not (np.isfinite(sigma) and sigma >= 0):
        raise ConfigError(f"{path}: sigma must be finite and >= 0, got {sigma}")
    return RowSource(m, n, row_blocks, sigma)


def _open_binary(fh, path) -> RowSource:
    """Row source of an open binary file positioned just after the magic."""
    header = fh.read(_HEADER.size)
    if len(header) != _HEADER.size:
        raise ConfigError(f"{path}: truncated header ({len(header)} of "
                          f"{_HEADER.size} bytes after the magic)")
    m, n, sigma = _HEADER.unpack(header)
    payload = os.fstat(fh.fileno()).st_size - fh.tell()
    if payload != 8 * m * n:
        raise ConfigError(f"{path}: header promises {m}x{n} samples "
                          f"({8 * m * n} bytes), file holds {payload} bytes")
    return _grid_source(path, m, n, sigma, partial(_binary_blocks, path, m, n))


def save_grid_csv(path, grid) -> None:
    """Write a row source with a ``sigma`` as a CSV grid, a row block at a time."""
    with _written(path) as fh:
        fh.write(f"{grid.m},{grid.n},{grid.sigma!r}\n")
        for _, rows in grid.row_blocks():
            for row in rows:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")


def _open_csv(path) -> RowSource:
    try:
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            if len(header) != 3:
                raise ConfigError(f"{path}: expected header 'M,N,sigma', got {header}")
            m, n, sigma = int(header[0]), int(header[1]), float(header[2])
            with warnings.catch_warnings():
                # a header-only file reads as shape (0, 1), rejected below
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
    except ValueError as exc:   # also non-UTF-8 bytes (UnicodeDecodeError)
        raise ConfigError(f"{path}: not a CSV grid: {exc}") from None
    if data.shape != (m, n):
        raise ConfigError(f"{path}: header promises {(m, n)}, file holds {data.shape}")
    return _grid_source(path, m, n, sigma, partial(array_blocks, data, path))


def save_grid(path, grid) -> None:
    """Write a grid: CSV for a ``.csv`` path, binary for any other.

    ``grid`` is any row source with a ``sigma`` (an :class:`ObservationGrid`,
    :func:`open_grid`, :func:`funcdeconv.estimator.sample_rows`), written as its
    row blocks come. A block that fails to be made or written removes the file,
    so a failed write leaves no file at ``path``, not even an older one.
    """
    if _suffix(path) == ".csv":
        save_grid_csv(path, grid)
    else:
        save_grid_binary(path, grid)


def open_grid(path) -> RowSource:
    """Open a grid file and check its header: a ``.csv`` path as CSV, a ``.fdg``
    path as binary (a wrong magic raises :class:`ConfigError`), any other by its
    magic. Binary samples are read only by the source's ``row_blocks()``."""
    path = os.fspath(path)
    suffix = _suffix(path)
    if suffix != ".csv":
        with open(path, "rb") as fh:
            magic = fh.read(len(MAGIC))
            if magic == MAGIC:
                return _open_binary(fh, path)
        if suffix == ".fdg":
            raise ConfigError(f"{path}: magic {magic!r} is not the .fdg magic {MAGIC!r}")
    return _open_csv(path)


def load_grid(path) -> ObservationGrid:
    """Read a whole grid file: :func:`open_grid`, then every row block."""
    grid = open_grid(path)
    samples = np.empty((grid.m, grid.n))
    for start, rows in grid.row_blocks():
        samples[start:start + len(rows)] = rows
    return ObservationGrid(samples, sigma=grid.sigma)


def _suffix(path) -> str:
    return os.path.splitext(os.fspath(path))[1].lower()
