"""Read/write observation grids.

Two interchangeable on-disk forms:

* binary (``.fdg``): magic ``FDG1``, little-endian u64 M, u64 N, f64 sigma,
  then M*N f64 samples in row-major order;
* CSV (``.csv``): first line ``M,N,sigma``, then M rows of N samples.

``load_grid``/``save_grid`` dispatch on file extension; on read, any
extension other than ``.csv`` and ``.fdg`` is sniffed for the magic.

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

import numpy as np

from .exceptions import ConfigError
from .spectra import ObservationGrid

MAGIC = b"FDG1"
_HEADER = struct.Struct("<QQd")


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


def save_grid_binary(path, grid: ObservationGrid) -> None:
    samples = np.ascontiguousarray(grid.samples, dtype="<f8")
    with rewrite(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(_HEADER.pack(grid.m, grid.n, float(grid.sigma)))
        fh.write(memoryview(samples).cast("B"))


def _read_binary(fh, path) -> ObservationGrid:
    """Grid from an open binary file positioned just after the magic."""
    header = fh.read(_HEADER.size)
    if len(header) != _HEADER.size:
        raise ConfigError(f"{path}: truncated header ({len(header)} of "
                          f"{_HEADER.size} bytes after the magic)")
    m, n, sigma = _HEADER.unpack(header)
    if m == 0 or n == 0:
        raise ConfigError(f"{path}: header promises an empty {m}x{n} grid")
    payload = os.fstat(fh.fileno()).st_size - fh.tell()
    if payload != 8 * m * n:
        raise ConfigError(f"{path}: header promises {m}x{n} samples "
                          f"({8 * m * n} bytes), file holds {payload} bytes")
    samples = np.empty((m, n), dtype="<f8")
    if fh.readinto(memoryview(samples).cast("B")) != payload:
        raise ConfigError(f"{path}: file shrank while being read")
    return ObservationGrid(samples, sigma=sigma)


def save_grid_csv(path, grid: ObservationGrid) -> None:
    with rewrite(path) as fh:
        fh.write(f"{grid.m},{grid.n},{grid.sigma!r}\n")
        for row in grid.samples:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def load_grid_csv(path) -> ObservationGrid:
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
    return ObservationGrid(data, sigma=sigma)


def save_grid(path, grid: ObservationGrid) -> None:
    """Write a grid: CSV for a ``.csv`` path, binary for any other."""
    if _suffix(path) == ".csv":
        save_grid_csv(path, grid)
    else:
        save_grid_binary(path, grid)


def load_grid(path) -> ObservationGrid:
    """Read a grid: a ``.csv`` path as CSV, a ``.fdg`` path as binary (a
    wrong magic raises :class:`ConfigError`), any other by its magic."""
    suffix = _suffix(path)
    if suffix == ".csv":
        return load_grid_csv(path)
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic == MAGIC:
            return _read_binary(fh, path)
    if suffix == ".fdg":
        raise ConfigError(f"{path}: magic {magic!r} is not the .fdg magic {MAGIC!r}")
    return load_grid_csv(path)


def _suffix(path) -> str:
    return os.path.splitext(os.fspath(path))[1].lower()
