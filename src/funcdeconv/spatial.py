"""Periodized Daubechies discrete wavelet transform along the profile axes.

Uses the 12-tap extremal-phase Daubechies filter (6 vanishing moments) with
circular (periodic) boundary handling. Coefficients are packed WaveLab-style
into a vector of the input length 2^L:

    [ scaling V_{m0'}: 2^{m0'} | details j'=m0': 2^{m0'} | ... | details L-1: 2^{L-1} ]

with the scaling block labeled level ``m0' - 1``, the layout of
:func:`funcdeconv.meyer.level_slices`. The analysis step is

    approx[k] = sum_t lo[t] * a[(2k+t) mod n],
    detail[k] = sum_t hi[t] * a[(2k+t) mod n],   hi[t] = (-1)^t lo[L-1-t],

and the synthesis step is its exact adjoint, giving an orthonormal transform.
Both steps are vectorised over all rows: the analysis step multiplies
stride-2 windows of the circularly padded rows by the 12x2 filter matrix
``[lo hi]``; the synthesis step scatter-adds the per-tap products into a
padded row and folds the wrap-around back.
"""

from __future__ import annotations

import numpy as np

from .exceptions import ConfigError

# 12-tap extremal-phase Daubechies filter, 6 vanishing moments, normalized so
# sum = sqrt(2) and sum of squares = 1: a 50-digit spectral factorisation
# rounded to float64 (scripts/db6_taps.py), orthonormal to rounding.
DB6_LO = np.array([
    0.11154074335010947,
    0.49462389039845306,
    0.7511339080210954,
    0.31525035170919763,
    -0.22626469396543983,
    -0.12976686756726194,
    0.09750160558732304,
    0.027522865530305727,
    -0.03158203931748603,
    0.0005538422011614961,
    0.004777257510945511,
    -0.0010773010853084796,
])
DB6_HI = np.array([(-1.0) ** t * DB6_LO[len(DB6_LO) - 1 - t]
                   for t in range(len(DB6_LO))])
_BANK = np.stack([DB6_LO, DB6_HI], axis=1)          # (taps, 2)
_TAPS = len(DB6_LO)


def _analysis_step(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One periodized analysis step along the last axis (length n, even).

    The stride-2 windows of the padded rows are a view made on their buffer,
    not by ``sliding_window_view``: its ``as_strided`` reads
    ``__array_interface__``, which interns a fresh string on every call
    (numpy 2.4.6). Each such string uses up a slot of CPython's interned-string
    table, and every ~30,000 of them the table is rebuilt, 0.96 MB at once.
    """
    n = a.shape[-1]
    padded = np.take(a, np.arange(n + _TAPS - 2), axis=-1, mode="wrap")
    step = padded.strides[-1]
    windows = np.ndarray(padded.shape[:-1] + (n // 2, _TAPS), padded.dtype, padded,
                         strides=padded.strides[:-1] + (2 * step, step))
    c = windows @ _BANK
    return c[..., 0], c[..., 1]


def _synthesis_step(ca: np.ndarray, cd: np.ndarray) -> np.ndarray:
    """Adjoint of :func:`_analysis_step` for (R, n/2) approx/detail rows."""
    r, half = ca.shape
    n = 2 * half
    prods = np.stack([ca, cd], axis=-1) @ _BANK.T      # (R, n/2, taps)
    padded = np.zeros((r, n + _TAPS - 2), dtype=prods.dtype)
    for t in range(_TAPS):
        padded[:, t:t + n:2] += prods[..., t]
    out = padded[:, :n]
    # fold the wrap-around back; it spans several periods when n < taps - 2
    for start in range(n, padded.shape[1], n):
        tail = padded[:, start:start + n]
        out[:, :tail.shape[1]] += tail
    return out


class SpatialBasis:
    """Periodized db6 DWT (``DB6_LO``/``DB6_HI``) down to coarsest level m0'."""

    def __init__(self, m0p: int = 3):
        if m0p < 0:
            raise ConfigError("coarsest spatial level m0' must be >= 0")
        self.m0p = int(m0p)

    def _levels(self, v: np.ndarray) -> int:
        """L for real rows of length n = 2^L >= 2^m0' along the last axis of ``v``."""
        if np.iscomplexobj(v):
            raise ConfigError("the spatial DWT takes real rows, got complex input")
        n = v.shape[-1]
        if n < 1 or (n & (n - 1)) != 0:
            raise ConfigError(f"length {n} is not a power of two")
        big_l = n.bit_length() - 1
        if big_l < self.m0p:
            raise ConfigError(
                f"length {n} shorter than the coarsest block 2^{self.m0p}"
            )
        return big_l

    def dwt_forward(self, v: np.ndarray) -> np.ndarray:
        """Packed orthonormal DWT of real rows along the last axis (length 2^L)."""
        v = np.asarray(v)
        big_l = self._levels(v)
        n = v.shape[-1]
        lead = v.shape[:-1]
        a = v.reshape(-1, n).astype(float)
        out = np.empty_like(a)
        for j in range(big_l - 1, self.m0p - 1, -1):
            a, d = _analysis_step(a)
            out[:, 2**j:2**(j + 1)] = d
        out[:, :2**self.m0p] = a
        return out.reshape(lead + (n,))

    def dwt_inverse(self, packed: np.ndarray) -> np.ndarray:
        """Exact inverse of :func:`dwt_forward`; always a new array."""
        packed = np.asarray(packed)
        big_l = self._levels(packed)
        n = packed.shape[-1]
        lead = packed.shape[:-1]
        c = packed.reshape(-1, n)
        a = c[:, :2**self.m0p].copy()   # no step runs when n == 2^m0'
        for j in range(self.m0p, big_l):
            a = _synthesis_step(a, c[:, 2**j:2**(j + 1)])
        return a.reshape(lead + (n,))
