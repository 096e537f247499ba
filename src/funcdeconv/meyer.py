"""Periodized band-limited Meyer wavelets, executed entirely in frequency space.

The periodized Meyer wavelet on [0, 1] has Fourier coefficients

    psi_{j,k,m} = 2^{-j/2} * psi_hat(2 pi m / 2^j) * exp(-i 2 pi m k / 2^j),

nonzero only on the band ceil(2^j/3) <= |m| <= floor(2^{j+2}/3). The degree-3
auxiliary polynomial theta(x) = x^4 (35 - 84 x + 70 x^2 - 20 x^3) shapes the
window; the half-sample phase exp(i omega / 2) makes levels orthogonal.

Analysis/synthesis along the time axis work in band space: a band row holds
the half spectrum of a real signal at the frequencies 0..K-1 that the levels
below J use (``MeyerBasis.band_size``), and the coefficients are real, in a
packed layout of length 2^J:

    [ scaling V_{m0}: 2^{m0} | details j=m0: 2^{m0} | ... | details J-1: 2^{J-1} ]

The scaling block is labeled level ``m0 - 1`` by convention. The spatial DWT
packs its coefficients the same way, so :func:`level_slices` serves both axes.
Levels below J fit an N-sample grid iff J <= :func:`j_capacity` (N).
"""

from __future__ import annotations

import numpy as np

from .exceptions import ConfigError, LevelTooCoarse, LevelTooFine
from .spectra import ROW_BLOCK_BYTES, _is_pow2

_AUX = np.array([-20.0, 70.0, -84.0, 35.0, 0.0, 0.0, 0.0, 0.0])

_SUPPORT_TOL = 1e-14

# The tables of a level cutoff J, keyed by (m0, J), that every basis at m0
# shares: those whose band matrix takes at most ROW_BLOCK_BYTES.
_SHARED: dict = {}


def meyer_aux(x):
    """Degree-3 auxiliary polynomial, clamped to [0, 1] outside its ramp."""
    return np.polyval(_AUX, np.clip(x, 0.0, 1.0))


def psi_hat(omega):
    """Fourier transform of the Meyer wavelet (complex, half-sample phase)."""
    omega = np.asarray(omega, dtype=float)
    a = np.abs(omega)
    window = np.zeros_like(a)
    lo = (a >= 2 * np.pi / 3) & (a <= 4 * np.pi / 3)
    hi = (a > 4 * np.pi / 3) & (a <= 8 * np.pi / 3)
    window[lo] = np.sin(np.pi / 2 * meyer_aux(3 * a[lo] / (2 * np.pi) - 1))
    window[hi] = np.cos(np.pi / 2 * meyer_aux(3 * a[hi] / (4 * np.pi) - 1))
    return np.exp(1j * omega / 2) * window


def phi_hat(omega):
    """Fourier transform of the Meyer scaling function (real, no phase)."""
    omega = np.asarray(omega, dtype=float)
    a = np.abs(omega)
    out = np.zeros_like(a)
    out[a <= 2 * np.pi / 3] = 1.0
    mid = (a > 2 * np.pi / 3) & (a <= 4 * np.pi / 3)
    out[mid] = np.cos(np.pi / 2 * meyer_aux(3 * a[mid] / (2 * np.pi) - 1))
    return out


def level_slices(m0: int, big_j: int) -> dict[int, slice]:
    """Packed-layout slices keyed by level label (m0-1 = scaling block)."""
    slices = {m0 - 1: slice(0, 2**m0)}
    for j in range(m0, big_j):
        slices[j] = slice(2**j, 2**(j + 1))
    return slices


def j_capacity(n: int) -> int:
    """Largest time cutoff J the grid supports: 2 * 2^(J+2) / 3 <= N."""
    return (3 * n // 2).bit_length() - 3


class MeyerBasis:
    """Immutable periodized Meyer basis with memoised, read-only tables per cutoff J.

    The tables of a cutoff J, :meth:`union_band` and the band matrix, depend
    only on (m0, J). Where the band matrix takes at most 128 KB
    (``spectra.ROW_BLOCK_BYTES``: J <= 6 at every m0, 44 KB at J = 6) they
    are shared by every basis at m0 for the life of the process, under 64 KB
    per m0 in all; larger ones (176 KB at J = 7, 45 MB at J = 11) are kept
    by this basis alone and go with it.
    """

    def __init__(self, m0: int = 3):
        if m0 < 3:
            raise LevelTooCoarse(f"coarsest Meyer level m0={m0} must be >= 3")
        self.m0 = int(m0)
        self._cache: dict = {}

    def _tables(self, big_j: int) -> dict:
        """The memo of cutoff ``big_j``: ``"band"``, then ``"matrix"`` once built.

        It is made with the band and stored where the band matrix's size puts
        it: in the process-wide table of (m0, J), else in this basis.
        """
        key = (self.m0, big_j)
        tables = _SHARED.get(key) or self._cache.get(key)
        if tables is None:
            finest = self.support_set(big_j - 1) if big_j > self.m0 else self.scaling_support()
            top = int(finest.max())
            band = np.arange(-top, top + 1)
            band.flags.writeable = False
            matrix_bytes = 2**big_j * 2 * (top + 1) * 8
            store = _SHARED if matrix_bytes <= ROW_BLOCK_BYTES else self._cache
            tables = store.setdefault(key, {"band": band})
        return tables

    # -- supports ---------------------------------------------------------

    def support_set(self, j: int) -> np.ndarray:
        """Ordered integer frequencies W_j = { m : psi_{j,0,m} != 0 }."""
        if j < self.m0:
            raise LevelTooCoarse(f"level j={j} below coarsest level m0={self.m0}")
        lo = int(np.ceil(2**j / 3))
        hi = int(np.floor(2**(j + 2) / 3))
        pos = np.arange(lo, hi + 1)
        keep = np.abs(psi_hat(2 * np.pi * pos / 2**j)) > _SUPPORT_TOL
        pos = pos[keep]
        return np.concatenate([-pos[::-1], pos])

    def scaling_support(self) -> np.ndarray:
        """Frequencies where the level-m0 scaling coefficients are nonzero."""
        hi = int(np.floor(2**(self.m0 + 1) / 3))
        ms = np.arange(-hi, hi + 1)
        keep = np.abs(phi_hat(2 * np.pi * ms / 2**self.m0)) > _SUPPORT_TOL
        return ms[keep]

    def union_band(self, big_j: int) -> np.ndarray:
        """All frequencies used by levels [m0-1, big_j), ascending (memoised, read-only).

        The supports of consecutive levels overlap, so the set is the run
        ``-top..top`` of the finest level's top frequency; no ``np.unique``,
        whose first call imports ``numpy.ma`` (about 11 ms of a cold process).
        """
        return self._tables(big_j)["band"]

    # -- band matrix --------------------------------------------------------

    def band_matrix(self, big_j: int) -> tuple[np.ndarray, np.ndarray]:
        """The atoms of levels [m0-1, big_j) on the band: ``(synthesis, weight)``.

        A band row holds the K = max(union_band) + 1 non-negative frequencies
        0..K-1 (the union band has no gaps), read as 2K reals with re/im
        interleaved. ``synthesis`` (2^J x 2K) maps real packed coefficients
        to the band, ``band[m] = sum_tau c_tau psi_tau(m)``: row tau is the
        atom of packed position tau on the band. Analysis of a real signal
        is ``(band * weight) @ synthesis.T``: each +-m pair of
        ``sum_m X(m) conj(psi_tau(m))`` folds into ``2 Re`` for m > 0;
        ``weight`` (2K) is 1 at m = 0 and 2 above. Both arrays are read-only
        and memoised with :meth:`union_band`, shared as the class describes.
        """
        if big_j < self.m0:
            raise LevelTooCoarse(f"J={big_j} below coarsest level m0={self.m0}")
        tables = self._tables(big_j)
        if "matrix" not in tables:
            psi = np.zeros((2**big_j, int(self.union_band(big_j).max()) + 1), dtype=complex)
            for j, sl in level_slices(self.m0, big_j).items():
                if j < self.m0:     # the scaling block: phi at level m0
                    lev, ms, window = self.m0, self.scaling_support(), phi_hat
                else:
                    lev, ms, window = j, self.support_set(j), psi_hat
                ms = ms[ms >= 0]
                ks = np.arange(2**lev)
                psi[sl, ms] = (2.0**(-lev / 2) * window(2 * np.pi * ms / 2**lev)
                               * np.exp(-2j * np.pi * np.outer(ks, ms) / 2**lev))
            psi.flags.writeable = False
            weight = np.repeat(np.where(np.arange(psi.shape[1]) == 0, 1.0, 2.0), 2)
            weight.flags.writeable = False
            tables.setdefault("matrix", (psi.view(float), weight))
        return tables["matrix"]

    # -- transforms ---------------------------------------------------------

    def band_size(self, big_j: int, n: int) -> int:
        """Number K of band columns, frequencies 0..K-1, used by levels [m0-1, big_j).

        These are the non-negative frequencies of :meth:`union_band`, a
        prefix of an ``rfft`` half spectrum. Raises :class:`LevelTooFine`
        when ``big_j > j_capacity(n)``.
        """
        if big_j < self.m0:
            raise LevelTooCoarse(f"J={big_j} below coarsest level m0={self.m0}")
        if big_j > j_capacity(n):
            raise LevelTooFine(
                f"levels up to J={big_j} need N >= {-(-2**(big_j + 3) // 3)}, "
                f"grid has N={n} (offending level j={big_j - 1})"
            )
        return int(self.union_band(big_j).max()) + 1

    def analyze_t(self, spectrum_rows: np.ndarray, big_j: int) -> np.ndarray:
        """Real wavelet coefficients of real signals over levels [m0-1, big_j).

        spectrum_rows : (..., C) complex half-spectrum rows from m = 0 (a
        full ``rfft`` half or just the band); only the K band columns are
        read, so C >= K. Returns the packed (..., 2^big_j) real array
        b_{j,k} = sum_m row(m) * conj(psi_{j,k,m}) over both signs of m, the
        negative half being the conjugate of the given one; the scaling
        block is analogous via phi.
        """
        synthesis, weight = self.band_matrix(big_j)
        k = synthesis.shape[1] // 2
        spectrum_rows = np.asarray(spectrum_rows)
        if spectrum_rows.shape[-1] < k:
            raise ConfigError(f"spectrum rows have {spectrum_rows.shape[-1]} columns, "
                              f"levels below J={big_j} read {k}")
        band = np.ascontiguousarray(spectrum_rows[..., :k], dtype=complex)
        return (band.view(float) * weight) @ synthesis.T

    def synthesize_t(self, packed: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`analyze_t`: real packed coeffs -> (..., K) band rows.

        The band rows are the half spectrum at frequencies 0..K-1, zero above
        (see :func:`funcdeconv.spectra.spectrum_to_samples`).
        """
        packed = np.asarray(packed)
        if np.iscomplexobj(packed):
            raise ConfigError("packed time coefficients must be real")
        size = packed.shape[-1]
        if not _is_pow2(size):
            raise ConfigError(f"packed length {size} is not a power of two")
        big_j = size.bit_length() - 1
        if big_j < self.m0:
            raise LevelTooCoarse(f"packed length {size} shorter than scaling block 2^{self.m0}")
        synthesis, _ = self.band_matrix(big_j)
        return (packed @ synthesis).view(complex)
