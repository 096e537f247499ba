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
is recovered from the width as ``N = 2 * (columns - 1)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import ConfigError, IllPosedKernel, InsufficientRange


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


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
        if not np.all(np.isfinite(self.samples)):
            raise ConfigError("samples contain non-finite values")
        if not (np.isfinite(self.sigma) and self.sigma >= 0):
            raise ConfigError(f"sigma must be finite and >= 0, got {self.sigma}")

    @property
    def m(self) -> int:
        return self.samples.shape[0]

    @property
    def n(self) -> int:
        return self.samples.shape[1]


def _half_width_to_n(cols: int) -> int:
    return 2 * (cols - 1)


@dataclass
class ProfileSpectrum:
    """Per-profile Fourier coefficients, non-negative half (``rfft`` layout)."""

    coeffs: np.ndarray  # (M, N/2 + 1) complex

    @property
    def m(self) -> int:
        return self.coeffs.shape[0]

    @property
    def n(self) -> int:
        """Samples per row, ``N = 2 * (columns - 1)``."""
        return _half_width_to_n(self.coeffs.shape[1])


@dataclass
class KernelSpectrum:
    """Kernel Fourier coefficients g_m(u_l) plus ill-posedness diagnostics.

    ``nu`` stays 0 until :func:`estimate_nu` runs or a value is supplied;
    ``c1``/``c2`` bound |g_m(u_l)|^2 * |m|^(2 nu) from below/above over the
    frequency window used for the fit. ``g_coeffs`` is read-only once
    :attr:`zero_floor` has been used: the floor is computed once and cached.
    """

    g_coeffs: np.ndarray  # (M, N/2 + 1) complex
    nu: float = 0.0
    c1: float | None = None
    c2: float | None = None

    @property
    def m(self) -> int:
        return self.g_coeffs.shape[0]

    @property
    def n(self) -> int:
        """Samples per row, ``N = 2 * (columns - 1)``."""
        return _half_width_to_n(self.g_coeffs.shape[1])

    def at_freq(self, freqs) -> np.ndarray:
        """Columns for integer frequencies ``freqs``, any sign (aliased mod N).

        A frequency in the negative half is read as the conjugate of its
        mirror: ``g(-m) = conj(g(m))`` for a real kernel.
        """
        n = self.n
        freqs = np.asarray(freqs) % n
        neg = freqs > n // 2
        cols = self.g_coeffs[:, np.where(neg, n - freqs, freqs)]
        return np.where(neg, cols.conj(), cols)

    @cached_property
    def zero_floor(self) -> np.ndarray:
        """Per-profile amplitude (M, 1) at or below which a coefficient counts as zero."""
        return _ZERO_REL * np.abs(self.g_coeffs).max(axis=1, keepdims=True)


def fourier_coeffs(grid: ObservationGrid | np.ndarray) -> ProfileSpectrum:
    """Fourier coefficients of every (real) profile row, ``m = 0 .. N/2``.

    One ``rfft`` with forward normalisation: column ``m`` equals
    ``fft(rows)[:, m] / N`` to rounding.
    """
    samples = grid.samples if isinstance(grid, ObservationGrid) else np.asarray(grid)
    if samples.ndim != 2:
        raise ConfigError("expected a 2-D (profiles x time) array")
    if np.iscomplexobj(samples):
        raise ConfigError("profile rows must be real")
    m, n = samples.shape
    if not _is_pow2(n) or n < 2:
        raise ConfigError(f"time length N={n} must be a power of two >= 2")
    return ProfileSpectrum(np.fft.rfft(samples, axis=1, norm="forward"))


def spectrum_to_samples(spec: ProfileSpectrum | np.ndarray, n: int | None = None) -> np.ndarray:
    """Real inverse of :func:`fourier_coeffs`: ``irfft`` to N samples per row.

    ``spec`` holds frequencies ``0 .. cols-1``; those from ``cols`` up to N/2
    count as zero, so a band-limited spectrum needs only its band. N
    defaults to ``2 * (cols - 1)``, the full half spectrum. The half stands
    for the conjugate-symmetric two-sided spectrum, so the result is real;
    the imaginary part at ``m = 0``, and at ``m = N/2`` when given, is not
    read.
    """
    coeffs = spec.coeffs if isinstance(spec, ProfileSpectrum) else np.asarray(spec)
    full = _half_width_to_n(coeffs.shape[-1])
    if n is None:
        n = full
    elif n < full:
        raise ConfigError(f"{coeffs.shape[-1]} spectrum columns do not fit N={n} samples")
    return np.fft.irfft(coeffs, n=n, axis=-1, norm="forward")


def kernel_spectrum(kernel_samples: np.ndarray) -> KernelSpectrum:
    """Per-profile Fourier coefficients of a sampled kernel g(u_l, t_i).

    Zero coefficients are allowed here; invertibility over the wavelet bands
    actually used is validated when an estimator is built (see
    :func:`validate_invertible`).
    """
    samples = np.asarray(kernel_samples, dtype=float)
    if not np.all(np.isfinite(samples)):
        raise ConfigError("kernel samples contain non-finite values")
    return KernelSpectrum(fourier_coeffs(samples).coeffs)


# Coefficients at or below this fraction of a profile's peak amplitude count
# as zeros: FFTs of analytically band-limited kernels leave ~1e-16 residues
# where the true coefficient vanishes.
_ZERO_REL = 1e-12


def validate_invertible(ks: KernelSpectrum, freqs) -> None:
    """Raise :class:`IllPosedKernel` naming (l, m) where |g_m(u_l)| vanishes on ``freqs``."""
    freqs = np.asarray(freqs, dtype=int)
    block = np.abs(ks.at_freq(freqs))
    zeros = np.argwhere(block <= ks.zero_floor)
    if zeros.size:
        l, mi = zeros[0]
        raise IllPosedKernel(profile=int(l), frequency=int(freqs[mi]))


def _fit_window(ks: KernelSpectrum, m_range: tuple[int, int] | None):
    n = ks.n
    if m_range is None:
        m_range = (n // 16, n // 4)
    lo, hi = int(m_range[0]), int(m_range[1])
    if lo < 1 or hi >= n // 2 + 1 or hi < lo:
        raise InsufficientRange(f"frequency window [{lo}, {hi}] not representable at N={n}")
    freqs = np.arange(lo, hi + 1)
    if freqs.size < 8:
        raise InsufficientRange(f"need at least 8 frequencies, window [{lo}, {hi}] has {freqs.size}")
    amps = np.abs(ks.at_freq(freqs))
    if np.any(amps <= ks.zero_floor):
        raise InsufficientRange("vanishing kernel coefficients inside the fit window")
    return freqs, amps


def kernel_bounds(ks: KernelSpectrum, nu: float,
                  m_range: tuple[int, int] | None = None) -> tuple[float, float]:
    """Empirical (c1, c2) bounding |g_m(u_l)|^2 |m|^(2 nu) over the fit window."""
    freqs, amps = _fit_window(ks, m_range)
    scaled = amps**2 * freqs.astype(float) ** (2.0 * nu)
    return float(scaled.min()), float(scaled.max())


def estimate_nu(ks: KernelSpectrum, m_range: tuple[int, int] | None = None) -> float:
    """Least-squares estimate of the kernel's polynomial decay exponent.

    Fits ``log mean_l |g_m(u_l)|`` against ``log m`` over the inclusive window
    ``m_range`` (default ``[N/16, N/4]``) and returns ``nu_hat = -slope``.
    Updates ``ks.nu`` and the empirical ``c1``/``c2`` diagnostics in place.
    """
    freqs, amps = _fit_window(ks, m_range)
    mean_amp = amps.mean(axis=0)
    slope, _ = np.polyfit(np.log(freqs.astype(float)), np.log(mean_amp), 1)
    nu_hat = -float(slope)
    ks.nu = nu_hat
    ks.c1, ks.c2 = kernel_bounds(ks, nu_hat, m_range)
    return nu_hat
