"""Fourier layer: per-profile spectra of data and kernel, ill-posedness estimation.

Conventions
-----------
Grids are 0-based: ``u_l = l/M`` (rows), ``t_i = i/N`` (columns). Fourier
coefficients follow the Riemann-sum convention

    coeffs(m) = (1/N) * sum_i row(t_i) * exp(-i 2 pi m t_i),

computed by a real FFT of each row. Rows are real, so ``coeffs(-m)`` is the
conjugate of ``coeffs(m)`` and only the non-negative half is stored: the
spectrum of an N-sample row has N/2 + 1 columns, column ``m`` holding
frequency ``m`` for ``0 <= m <= N/2`` (the ``rfft`` layout). The row length
is recovered from the width as ``N = 2 * (columns - 1)``. A band, the first k
columns, is a prefix of that layout; a narrow one is taken back to the
grid by a real matmul instead of an FFT, and computed by one while a row
block holds at least 4 rows (N <= 4096). Both directions go a
block of rows at a time, so neither needs more than one block of samples.

The kernel's decay exponent nu and its bounds c1, c2 are fitted over a window
of frequencies, by default ``[N/16, N/4]``. The window's amplitudes are read
into one real column-major buffer, never into a complex copy, and the bounds
are formed in that buffer in place; a config that needs both nu and c1 reads
the window once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from typing import Callable, Iterator

import numpy as np

from .exceptions import ConfigError, IllPosedKernel, InsufficientRange


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


# Bytes of one row block: grid samples are read, transformed and checked
# this many at a time (32 rows at N = 512), and the kernel's zero floor and
# the nu fit's window take their amplitudes by blocks of this size.
ROW_BLOCK_BYTES = 1 << 17


def block_rows(width: int) -> int:
    """Rows of ``width`` floats in one :data:`ROW_BLOCK_BYTES` block, at least one."""
    return max(1, ROW_BLOCK_BYTES // (8 * width))


def array_blocks(samples: np.ndarray, where: str | None = None):
    """``(start, rows)`` views of an (M, N) array, :func:`block_rows` (N) rows each;
    with ``where``, each is first checked by :func:`check_finite` under that name."""
    step = block_rows(samples.shape[1])
    for start in range(0, samples.shape[0], step):
        rows = samples[start:start + step]
        if where is not None:
            check_finite(rows, start, where)
        yield start, rows


def check_finite(rows: np.ndarray, start: int, where: str) -> None:
    """Raise :class:`ConfigError` ``WHERE: non-finite sample at (row, col)`` for the
    first non-finite entry of ``rows``, a block whose first row is row ``start``."""
    finite = np.isfinite(rows)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise ConfigError(f"{where}: non-finite sample at ({start + row}, {col})")


@dataclass(frozen=True)
class RowSource:
    """M x N real rows that ``row_blocks()`` yields as ``(start, rows)`` blocks in
    order, what :func:`fourier_coeffs` reads. Any object with ``m``, ``n`` and such
    a ``row_blocks()`` is a row source: an ObservationGrid holds its samples, this
    class streams them (grid files, noise, the estimate). One with a ``sigma`` is
    what :func:`funcdeconv.gridio.save_grid` writes."""

    m: int
    n: int
    row_blocks: Callable[[], Iterator[tuple[int, np.ndarray]]]
    sigma: float = 0.0


@dataclass
class ObservationGrid:
    """M x N real sample array y(u_l, t_i) with known noise level sigma."""

    samples: np.ndarray
    sigma: float = 0.0

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 2:
            raise ConfigError("samples must be a 2-D (profiles x time) array")
        m, n = self.samples.shape
        if m < 1:
            raise ConfigError("need at least one profile")
        if n < 2 or not _is_pow2(n):
            raise ConfigError(f"time length N={n} must be a power of two >= 2")
        for _ in array_blocks(self.samples, "samples"):   # checks each block
            pass
        if not (np.isfinite(self.sigma) and self.sigma >= 0):
            raise ConfigError(f"sigma must be finite and >= 0, got {self.sigma}")

    @property
    def m(self) -> int:
        return self.samples.shape[0]

    @property
    def n(self) -> int:
        return self.samples.shape[1]

    def row_blocks(self):
        """:func:`array_blocks` of the samples, unchecked: they were checked on construction."""
        return array_blocks(self.samples)


def _half_width_to_n(cols: int) -> int:
    return 2 * (cols - 1)


@dataclass
class KernelSpectrum:
    """Kernel Fourier coefficients g_m(u_l).

    The decay fit is not stored: :func:`estimate_nu` and
    :func:`kernel_bounds` are functions of the coefficients, each reading the
    fit window into a fresh real buffer. ``g_coeffs`` is read-only once
    :attr:`zero_floor` has been used: the floor is computed once and cached.
    """

    g_coeffs: np.ndarray  # (M, N/2 + 1) complex

    @property
    def m(self) -> int:
        return self.g_coeffs.shape[0]

    @property
    def n(self) -> int:
        """Samples per row, ``N = 2 * (columns - 1)``."""
        return _half_width_to_n(self.g_coeffs.shape[1])

    @cached_property
    def zero_floor(self) -> np.ndarray:
        """Per-profile amplitude (M, 1) at or below which a coefficient counts as zero.

        The peak amplitudes are taken a block of rows at a time, through one
        reused buffer of at most :data:`ROW_BLOCK_BYTES` of amplitudes (one row
        when a row is wider), not through ``abs`` of the whole spectrum.
        """
        g = self.g_coeffs
        g.flags.writeable = False
        m, cols = g.shape
        step = block_rows(cols)
        buf = np.empty((min(step, m), cols))
        floor = np.empty((m, 1))
        for top in range(0, m, step):
            rows = g[top:top + step]
            np.max(np.abs(rows, out=buf[:len(rows)]), axis=1, keepdims=True,
                   out=floor[top:top + step])
        floor *= _ZERO_REL
        return floor


def _matmul_band(k: int, n: int) -> bool:
    """Whether the first k columns of N-sample rows go back to the grid by
    :func:`band_idft` matmul, and the rule's band limit in both directions.

    A real matmul costs about k N per row and an FFT about N log2 N, so the
    matmul wins for a band of a few log2 N columns; the rule keeps it within
    2 log2 N, where it took 0.3 to 0.55 of the FFT's time for N = 128 .. 2048
    and the inverse 0.3 of it at N = 8192 (``scripts/band_crossover.py``). A
    band reaching N/2 keeps the FFT, which alone gives the Nyquist column its
    one-sided meaning. The forward direction adds a row rule of its own,
    :func:`_forward_matmul`.
    """
    return k < n // 2 and k <= 2 * math.log2(n)


# Fewest rows of a 128 KB block for which fourier_coeffs takes a band by matmul:
# each block's product streams the whole (N, 2K) band matrix, so with 2 rows a
# block (N = 8192) the matmul took 2.1 to 2.4 times the FFT's time at the rule's
# edge, with 4 rows (N = 4096) 0.65 to 0.96 of it, with 8 or more (N <= 2048) 0.55.
_FORWARD_MIN_ROWS = 4


def _forward_matmul(k: int, n: int) -> bool:
    """Whether :func:`fourier_coeffs` takes the first k columns by :func:`band_dft`
    matmul: the band rule :func:`_matmul_band`, and :data:`_FORWARD_MIN_ROWS` rows
    or more in a row block (N <= 4096)."""
    return _matmul_band(k, n) and block_rows(n) >= _FORWARD_MIN_ROWS


def fourier_coeffs(grid, k: int | None = None) -> np.ndarray:
    """Fourier coefficients (M, N/2 + 1) of every (real) profile row, ``m = 0 .. N/2``.

    ``grid`` is a row source (see :class:`RowSource`), read once, a block at a
    time. An (M, N) array is read as the row source of its :func:`array_blocks`,
    each checked to be finite: a non-finite sample raises :class:`ConfigError`
    naming its (row, col).

    An ``rfft`` with forward normalisation: column ``m`` equals
    ``fft(rows)[:, m] / N`` to rounding. With ``k`` only the first k columns,
    ``m = 0 .. k-1``, are returned (1 <= k <= N/2 + 1). A band with k < N/2
    and k <= 2 log2 N, at N <= 4096 (see :func:`_forward_matmul`), is the real
    matmul ``rows @ band_dft(N, k)``; a wider one, or any band at N >= 8192,
    the ``rfft``'s first k columns. The two agree to rounding. Every route
    goes a row block at a time, so every row source of the same samples gives
    the same bits.
    """
    if not hasattr(grid, "row_blocks"):
        samples = np.asarray(grid)
        if samples.ndim != 2:
            raise ConfigError("expected a 2-D (profiles x time) array")
        if np.iscomplexobj(samples):
            raise ConfigError("profile rows must be real")
        grid = RowSource(*samples.shape, partial(array_blocks, samples, "samples"))
    m, n = grid.m, grid.n
    if not _is_pow2(n) or n < 2:
        raise ConfigError(f"time length N={n} must be a power of two >= 2")
    full = n // 2 + 1
    if k is None:
        k = full
    elif not 1 <= k <= full:
        raise ConfigError(f"a band of k={k} columns does not fit N={n} samples "
                          f"(1 <= k <= {full})")
    out = np.empty((m, k), dtype=complex)
    if _forward_matmul(k, n):
        dft, flat = band_dft(n, k), out.view(float)
        for start, rows in grid.row_blocks():
            np.matmul(rows, dft, out=flat[start:start + len(rows)])
    elif k == full:
        for start, rows in grid.row_blocks():
            np.fft.rfft(rows, axis=1, norm="forward", out=out[start:start + len(rows)])
    else:
        for start, rows in grid.row_blocks():
            out[start:start + len(rows)] = np.fft.rfft(rows, axis=1, norm="forward")[:, :k]
    return out


def _peak(x: np.ndarray) -> float:
    """Largest magnitude in ``x`` (0 when empty), without an ``abs`` copy."""
    return max(x.max(initial=0.0), -x.min(initial=0.0))


@lru_cache(maxsize=8)
def band_dft(n: int, k: int) -> np.ndarray:
    """(N, 2K) real matrix F with ``(rows @ F).view(complex)`` the first K
    columns of :func:`fourier_coeffs` of real N-sample rows, to rounding.

    Column pair (2m, 2m + 1) holds ``cos`` and ``-sin`` of ``2 pi m i / N``,
    over N. The phase ``m i`` is reduced mod N in integers, so it is exact.
    Memoised: every call with the same (N, K) returns one read-only array.
    """
    phase = (2.0 * np.pi / n) * (np.outer(np.arange(n), np.arange(k)) % n)
    dft = np.stack([np.cos(phase), -np.sin(phase)], axis=-1).reshape(n, 2 * k) / n
    dft.flags.writeable = False
    return dft


@lru_cache(maxsize=8)
def band_idft(n: int, k: int) -> np.ndarray:
    """(2K, N) real matrix G with ``band.view(float) @ G`` the N samples per row
    of a K-column band of real rows, the inverse of :func:`band_dft`.

    Row pair (2m, 2m + 1) is column pair (2m, 2m + 1) of ``band_dft(N, K)``
    times N at m = 0 and times 2N above, each m > 0 counted twice for its
    conjugate at -m. The weights are powers of two, so the fold is exact:
    every product is bitwise that of weighting the band first. C-contiguous
    and memoised: every call with the same (N, K) returns one read-only array.
    """
    weight = np.repeat(np.where(np.arange(k) == 0, float(n), 2.0 * n), 2)
    idft = np.ascontiguousarray((band_dft(n, k) * weight).T)
    idft.flags.writeable = False
    return idft


# Fewest rows of a block of spectrum_to_samples where each block pays a fixed
# cost: an irfft call, or the matmul's packing of a (2K, N) band matrix larger
# than a row block. Against the whole array's time, 128 KB blocks took 1.1-1.3
# times on the irfft route (N = 2048, 8192) and 32-row matmul blocks 1.3-1.4
# times (N = 4096, 8192); 128-row blocks took 0.9-1.07 times on both routes.
_INVERSE_MIN_ROWS = 128


def inverse_block_rows(n: int, k: int) -> int:
    """Rows per block of :func:`spectrum_to_samples` from k columns to N samples:
    :func:`block_rows` (N) on the matmul route while its (2K, N) band matrix fits
    in a row block, else at least :data:`_INVERSE_MIN_ROWS`."""
    if _matmul_band(k, n) and 16 * k * n <= ROW_BLOCK_BYTES:
        return block_rows(n)
    return max(block_rows(n), _INVERSE_MIN_ROWS)


def spectrum_to_samples(coeffs: np.ndarray, n: int | None = None,
                        out: np.ndarray | None = None) -> np.ndarray:
    """Real inverse of :func:`fourier_coeffs`: ``irfft`` to N samples per row.

    ``coeffs`` is an (M, cols) array of frequencies ``0 .. cols-1``; those from
    ``cols`` up to N/2 count as zero, so a band-limited spectrum needs only its
    band. N defaults to ``2 * (cols - 1)``, the full half spectrum. The half
    stands for the conjugate-symmetric two-sided spectrum, so the result is
    real; the imaginary part at ``m = 0``, and at ``m = N/2`` when given, is
    not read. A band within :func:`_matmul_band`'s rule returns to the grid by
    the matmul with :func:`band_idft`, a wider one by ``irfft``; at N >= 8192
    that includes bands :func:`fourier_coeffs` takes by ``rfft``, as the
    inverse matmul has no streaming cost per row (0.3 of ``irfft``'s time).
    On the matmul route, a band whose weighted coefficients, N c_0 or 2N c_m
    (the unnormalised two-sided spectrum), exceed the float range raises
    :class:`ConfigError`.

    The rows go :func:`inverse_block_rows` at a time into ``out``, an (M, N)
    float array, or a new one; the result is ``out``. A call on one such block
    of rows gives the bits of those rows of a call on the whole array.
    """
    coeffs = np.asarray(coeffs)
    if coeffs.ndim != 2:
        raise ConfigError("expected a 2-D (profiles x frequencies) array")
    m, cols = coeffs.shape
    full = _half_width_to_n(cols)
    if n is None:
        n = full
    elif n < full:
        raise ConfigError(f"{cols} spectrum columns do not fit N={n} samples")
    if out is None:
        out = np.empty((m, n))
    step = inverse_block_rows(n, cols)
    if _matmul_band(cols, n):
        flat = np.ascontiguousarray(coeffs, dtype=complex).view(float)
        big = np.finfo(float).max / n
        if _peak(flat[:, :2]) > big or _peak(flat[:, 2:]) > big / 2:
            raise ConfigError("floating-point overflow: the band's unnormalised spectrum "
                              f"N c_m exceeds the float range at N={n} (input values or "
                              "parameters out of range)")
        idft = band_idft(n, cols)
        for start in range(0, m, step):
            np.matmul(flat[start:start + step], idft, out=out[start:start + step])
        return out
    for start in range(0, m, step):
        np.fft.irfft(coeffs[start:start + step], n=n, axis=-1, norm="forward",
                     out=out[start:start + step])
    return out


def kernel_spectrum(kernel) -> KernelSpectrum:
    """Per-profile Fourier coefficients of a sampled kernel g(u_l, t_i).

    ``kernel`` is what :func:`fourier_coeffs` reads: a row source, such as
    :func:`funcdeconv.gridio.open_grid` of a file, whose blocks are transformed
    into the rows of the half spectrum as they come, or an (M, N) array, whose
    samples are checked to be finite in the same pass. Zero coefficients are
    allowed here; invertibility over the wavelet bands actually used is
    validated when an estimator is built (see :func:`validate_invertible`).
    """
    return KernelSpectrum(fourier_coeffs(kernel))


# Coefficients at or below this fraction of a profile's peak amplitude count
# as zeros: FFTs of analytically band-limited kernels leave ~1e-16 residues
# where the true coefficient vanishes.
_ZERO_REL = 1e-12

def validate_invertible(ks: KernelSpectrum, freqs) -> None:
    """Raise :class:`IllPosedKernel` naming (l, m) where |g_m(u_l)| vanishes on ``freqs``.

    ``freqs`` may have either sign: a real kernel has ``|g_{-m}| = |g_m|``,
    so column ``|m|`` is read. :class:`ConfigError` is raised for
    ``|m| > N/2``, a frequency the grid does not resolve.
    """
    freqs = np.asarray(freqs, dtype=int)
    mags = np.abs(freqs)
    if mags.max(initial=0) > ks.n // 2:
        raise ConfigError(f"frequencies up to |m|={mags.max()} exceed N/2 at N={ks.n}")
    block = np.abs(ks.g_coeffs[:, mags])
    zeros = np.argwhere(block <= ks.zero_floor)
    if zeros.size:
        l, mi = zeros[0]
        raise IllPosedKernel(profile=int(l), frequency=int(freqs[mi]))


def _fit_window(ks: KernelSpectrum, m_range: tuple[int | None, int | None] | None):
    """Frequencies ``lo..hi`` and their amplitudes, a fresh column-major float
    buffer of shape (M, F), F = hi - lo + 1.

    A missing ``m_range``, or a ``None`` end of it, defaults to ``N/16``
    (``lo``) and ``N/4`` (``hi``). The amplitudes are filled straight from
    the complex coefficients, :func:`block_rows` (M) columns per ``np.abs``
    call, into the rows of an (F, M) C-order array whose transpose is
    returned; no complex copy of the window is made. The layout is column-major because it fixes the
    summation order of the mean over profiles in :func:`estimate_nu`.
    """
    n = ks.n
    lo, hi = m_range if m_range is not None else (None, None)
    window = "the default window [N/16, N/4] = " if lo is None and hi is None else "the window "
    lo = n // 16 if lo is None else int(lo)
    hi = n // 4 if hi is None else int(hi)
    window += f"[{lo}, {hi}]"
    if lo < 1 or hi >= n // 2 + 1 or hi < lo:
        raise InsufficientRange(f"{window} of frequencies is not representable at N={n}")
    freqs = np.arange(lo, hi + 1)
    if freqs.size < 8:
        raise InsufficientRange(f"need at least 8 frequencies, {window} at N={n} "
                                f"has {freqs.size}")
    cols = ks.g_coeffs[:, lo:hi + 1].T
    buf = np.empty(cols.shape)                          # (F, M)
    floor = ks.zero_floor.T                             # (1, M)
    step = block_rows(ks.m)
    for c in range(0, len(buf), step):
        block = np.abs(cols[c:c + step], out=buf[c:c + step])
        if np.any(block <= floor):
            raise InsufficientRange("vanishing kernel coefficients inside the fit window")
    return freqs, buf.T


def _nu_hat(freqs: np.ndarray, amps: np.ndarray) -> float:
    """Minus the least-squares slope of ``log mean_l amps`` against ``log m``."""
    slope, _ = np.polyfit(np.log(freqs.astype(float)), np.log(amps.mean(axis=0)), 1)
    return -float(slope)


def _bounds(freqs: np.ndarray, amps: np.ndarray, nu: float) -> tuple[float, float]:
    """min and max of ``amps^2 m^(2 nu)``, formed in place in ``amps``.

    A product beyond the float range raises :class:`ConfigError` naming nu.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(amps, amps, out=amps)
        amps *= freqs.astype(float) ** (2.0 * nu)
    c1, c2 = float(amps.min()), float(amps.max())
    if not math.isfinite(c2):
        raise ConfigError(f"nu={nu} is too large: |g_m|^2 m^(2 nu) exceeds the float "
                          f"range over the fit window [{freqs[0]}, {freqs[-1]}], so neither "
                          "c1 nor the default C_beta can be formed; give C_beta (--cbeta)")
    return c1, c2


def _kernel_fit(ks: KernelSpectrum, nu: float | None, bounds: bool) -> tuple[float, float | None]:
    """nu (fitted when None, and then at least 0) and, with ``bounds``, c1 over
    the default window, from a single read of it; c1 is None without ``bounds``."""
    freqs, amps = _fit_window(ks, None)
    if nu is None:      # a flat kernel, as the identity, fits -1e-16 by rounding
        nu = max(_nu_hat(freqs, amps), 0.0)
    return nu, (_bounds(freqs, amps, nu)[0] if bounds else None)


def kernel_bounds(ks: KernelSpectrum, nu: float,
                  m_range: tuple[int | None, int | None] | None = None) -> tuple[float, float]:
    """Empirical (c1, c2) bounding |g_m(u_l)|^2 |m|^(2 nu) from below and above
    over the fit window of :func:`estimate_nu`."""
    return _bounds(*_fit_window(ks, m_range), nu)


def estimate_nu(ks: KernelSpectrum,
                m_range: tuple[int | None, int | None] | None = None) -> float:
    """Least-squares estimate of the kernel's polynomial decay exponent.

    Fits ``log mean_l |g_m(u_l)|`` against ``log m`` over the inclusive window
    ``m_range`` (default ``[N/16, N/4]``, also for a ``None`` end) and returns
    ``nu_hat = -slope``. ``ks`` is not changed.
    """
    return _nu_hat(*_fit_window(ks, m_range))
