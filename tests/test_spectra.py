"""Fourier front end: coefficient conventions, kernel diagnostics, decay fits."""

import gc
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import funcdeconv as fd
from funcdeconv import simlab, spectra
from funcdeconv.exceptions import ConfigError, IllPosedKernel, InsufficientRange
from funcdeconv.spectra import _ZERO_REL


def tone(n, m, amp=1.0, phase=0.0):
    t = np.arange(n) / n
    return amp * np.cos(2 * np.pi * m * t + phase)


def row_scale(band):
    """Largest sample a half-spectrum row can give back, |c_0| + 2 sum |c_m|."""
    return float((np.abs(band[:, 0]) + 2 * np.abs(band[:, 1:]).sum(axis=1)).max())


def band_edge(n):
    """Widest band the rule sends by matmul: k < N/2 and k <= 2 log2 N."""
    return min(n // 2 - 1, 2 * int(np.log2(n)))


class TestFourierCoeffs:
    def test_constant_row_concentrates_at_dc(self):
        spec = fd.fourier_coeffs(np.full((1, 8), 3.5))
        assert spec[0, 0] == pytest.approx(3.5, abs=1e-14)
        np.testing.assert_allclose(spec[0, 1:], 0.0, atol=1e-14)

    def test_cosine_tone_splits_evenly(self):
        """cos(2 pi m t) puts coefficient 1/2 at +-m under the 1/N convention."""
        row = tone(8, 1).reshape(1, -1)
        c = fd.fourier_coeffs(row)[0]
        assert c.shape == (5,)
        assert c[1] == pytest.approx(0.5, abs=1e-14)
        np.testing.assert_allclose(np.delete(c, 1), 0.0, atol=1e-14)
        # column 1 also stands for m = -1, whose coefficient is its conjugate
        assert np.conj(c[1]) == pytest.approx(0.5, abs=1e-14)

    def test_hermitian_symmetry(self):
        """The half spectrum stands for a conjugate-symmetric one: DC and
        Nyquist are real, and the negative frequencies of the two-sided
        spectrum are the conjugates of its columns."""
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 64))
        c = fd.fourier_coeffs(x)
        assert not c[:, [0, 32]].imag.any()
        full = np.fft.fft(x, axis=1) / 64
        m = np.arange(1, 32)
        np.testing.assert_allclose(np.conj(c[:, m]), full[:, -m], rtol=0, atol=1e-15)

    def test_parseval_per_row(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((5, 128))
        p = np.abs(fd.fourier_coeffs(x)) ** 2
        energy = p[:, 0] + 2 * p[:, 1:64].sum(axis=1) + p[:, 64]
        np.testing.assert_allclose(energy, (x ** 2).mean(axis=1), rtol=1e-12)

    @pytest.mark.parametrize("n,k", [(32, 17), (512, 21)])
    def test_band_dft_matrix_is_the_band_of_the_rfft(self, n, k):
        """Up to the Nyquist column (k = N/2 + 1 at N = 32)."""
        x = np.random.default_rng(5).standard_normal((6, n))
        band = (x @ spectra.band_dft(n, k)).view(complex)
        np.testing.assert_allclose(band, fd.fourier_coeffs(x)[:, :k], rtol=0, atol=1e-15)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip(self, seed):
        x = np.random.default_rng(seed).standard_normal((3, 32))
        back = fd.spectrum_to_samples(fd.fourier_coeffs(x))
        np.testing.assert_allclose(back.real, x, atol=1e-12)
        np.testing.assert_allclose(back.imag, 0.0, atol=1e-12)

    @given(st.integers(0, 2**32 - 1), st.floats(-5, 5), st.floats(-5, 5))
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, seed, a, b):
        rng = np.random.default_rng(seed)
        x, y = rng.standard_normal((2, 2, 16))
        lhs = fd.fourier_coeffs(a * x + b * y)
        rhs = a * fd.fourier_coeffs(x) + b * fd.fourier_coeffs(y)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_real_fft_matches_full_fft_and_is_exactly_hermitian(self):
        """M x (N/2 + 1), equal to fft/N on m >= 0; the two-sided spectrum it
        stands for is conjugate-symmetric by construction."""
        x = np.random.default_rng(5).standard_normal((3, 64))
        c = fd.fourier_coeffs(x)
        assert isinstance(c, np.ndarray) and c.shape == (3, 33)
        np.testing.assert_allclose(c, np.fft.fft(x, axis=1)[:, :33] / 64,
                                   rtol=0, atol=1e-15)
        assert not c[:, [0, 32]].imag.any()

    def test_complex_rows_rejected(self):
        """The whole half, and a band on either route (k = 3 by matmul,
        k = 8 = N/2 by ``rfft``)."""
        for k in (None, 3, 8):
            with pytest.raises(ConfigError, match="must be real"):
                fd.fourier_coeffs(np.zeros((2, 16), dtype=complex), k)

    @pytest.mark.parametrize("transform,array", [
        (fd.fourier_coeffs, np.zeros(16)),
        (fd.spectrum_to_samples, np.zeros(9, dtype=complex)),
    ], ids=["fourier_coeffs", "spectrum_to_samples"])
    def test_a_one_dimensional_array_is_rejected(self, transform, array):
        with pytest.raises(ConfigError, match=r"^expected a 2-D \(profiles x "):
            transform(array)

    def test_inverse_of_a_hermitian_spectrum_matches_ifft(self):
        rng = np.random.default_rng(6)
        half = rng.standard_normal((3, 33)) + 1j * rng.standard_normal((3, 33))
        half[:, [0, 32]] = half[:, [0, 32]].real
        spec = np.concatenate([half, np.conj(half[:, 31:0:-1])], axis=1)
        back = fd.spectrum_to_samples(half)
        assert not np.iscomplexobj(back) and back.shape == (3, 64)
        np.testing.assert_allclose(back, np.fft.ifft(spec, axis=1).real * 64,
                                   rtol=0, atol=1e-12)

    def test_a_band_prefix_inverts_as_its_zero_padded_half(self):
        """The band goes back to the grid by matmul, the padded half by
        ``irfft``: equal to rounding of the row scale."""
        rng = np.random.default_rng(7)
        band = rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5))
        half = np.zeros((2, 33), dtype=complex)
        half[:, :5] = band
        np.testing.assert_allclose(fd.spectrum_to_samples(band, 64),
                                   fd.spectrum_to_samples(half),
                                   rtol=0, atol=1e-15 * row_scale(band))
        with pytest.raises(ConfigError):
            fd.spectrum_to_samples(half, 32)

    def test_rejects_bad_grids(self):
        with pytest.raises(ConfigError, match="^need at least one profile$"):
            fd.ObservationGrid(np.zeros((0, 8)))
        with pytest.raises(ConfigError):
            fd.ObservationGrid(np.zeros((2, 48)))        # not a power of two
        with pytest.raises(ConfigError):
            fd.ObservationGrid(np.zeros(16))             # not 2-D
        with pytest.raises(ConfigError):
            fd.ObservationGrid(np.zeros((2, 16)), sigma=-1.0)
        for sigma in (np.nan, np.inf):
            with pytest.raises(ConfigError):
                fd.ObservationGrid(np.zeros((2, 16)), sigma=sigma)
        bad = np.zeros((2, 16))
        bad[0, 0] = np.nan
        with pytest.raises(ConfigError):
            fd.ObservationGrid(bad)

    def test_a_non_finite_sample_is_named_by_its_place(self):
        """The check goes a row block at a time (64 rows at N = 256) and names
        the first bad sample of the grid, here in the second block. A kernel
        array is checked by the ``fourier_coeffs`` pass that transforms it."""
        bad = np.zeros((70, 256))
        bad[66, 9], bad[67, 1] = np.inf, np.nan
        with pytest.raises(ConfigError, match=r"^samples: non-finite sample at \(66, 9\)$"):
            fd.ObservationGrid(bad)
        with pytest.raises(ConfigError, match=r"^samples: non-finite sample at \(66, 9\)$"):
            fd.kernel_spectrum(bad)

    @pytest.mark.parametrize("k", [9, 20, None])
    def test_fourier_coeffs_of_an_array_names_a_non_finite_sample(self, k):
        """Every route (matmul band, rfft band, full width) checks an array's
        blocks as it reads them, instead of returning NaN coefficients."""
        bad = np.zeros((70, 256))
        bad[66, 9] = np.nan
        with pytest.raises(ConfigError, match=r"^samples: non-finite sample at \(66, 9\)$"):
            fd.fourier_coeffs(bad, k)


class TestBandRoutes:
    """A band of k columns goes by a real matmul with ``band_dft`` when
    k < N/2 and k <= 2 log2 N (forward, also 4 or more rows in a row block),
    by ``rfft``/``irfft`` otherwise."""

    @pytest.mark.parametrize("n", [16, 64, 512, 2048])
    def test_forward_routes_agree(self, monkeypatch, n):
        x = np.random.default_rng(n).standard_normal((6, n))
        edge = band_edge(n)
        for k in (1, edge, edge + 1):
            with monkeypatch.context() as mp:
                mp.setattr(spectra, "_matmul_band", lambda k, n: True)
                matmul = fd.fourier_coeffs(x, k)
            fft = np.fft.rfft(x, axis=1, norm="forward")[:, :k]
            np.testing.assert_allclose(matmul, fft, rtol=0,
                                       atol=1e-15 * np.abs(x).max())
            assert np.array_equal(fd.fourier_coeffs(x, k), matmul if k <= edge else fft)

    def test_the_forward_matmul_needs_four_rows_a_block(self, monkeypatch):
        """At the rule's edge N = 4096 (4-row blocks) takes the band by matmul,
        N = 8192 (2-row blocks) by rfft; the inverse keeps the matmul at both."""
        for n, matmul in ((4096, True), (8192, False)):
            x = np.random.default_rng(n).standard_normal((6, n))
            k = band_edge(n)
            assert spectra._matmul_band(k, n) and spectra._forward_matmul(k, n) is matmul
            with monkeypatch.context() as mp:
                mp.setattr(spectra, "_forward_matmul", lambda k, n: True)
                forced = fd.fourier_coeffs(x, k)
            fft = np.fft.rfft(x, axis=1, norm="forward")[:, :k]
            assert np.array_equal(fd.fourier_coeffs(x, k), forced if matmul else fft)

    @pytest.mark.parametrize("n", [16, 64, 512, 2048])
    def test_inverse_routes_agree(self, monkeypatch, n):
        rng = np.random.default_rng(n)
        edge = band_edge(n)
        for k in (1, edge, edge + 1):
            band = rng.standard_normal((6, k)) + 1j * rng.standard_normal((6, k))
            with monkeypatch.context() as mp:
                mp.setattr(spectra, "_matmul_band", lambda k, n: True)
                matmul = fd.spectrum_to_samples(band, n)
            fft = np.fft.irfft(band, n, axis=-1, norm="forward")
            np.testing.assert_allclose(matmul, fft, rtol=0, atol=1e-15 * row_scale(band))
            assert np.array_equal(fd.spectrum_to_samples(band, n),
                                  matmul if k <= edge else fft)

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_a_band_reaching_n_over_2_keeps_the_fft(self, n):
        """k = N/2 and N/2 + 1 are within 2 log2 N here, but the Nyquist
        column (k = N/2 + 1) is one-sided: irfft ignores its imaginary part."""
        rng = np.random.default_rng(n)
        x = rng.standard_normal((3, n))
        for k in (n // 2, n // 2 + 1):
            assert np.array_equal(fd.fourier_coeffs(x, k),
                                  np.fft.rfft(x, axis=1, norm="forward")[:, :k])
            band = rng.standard_normal((3, k)) + 1j * rng.standard_normal((3, k))
            assert np.array_equal(fd.spectrum_to_samples(band, n),
                                  np.fft.irfft(band, n, axis=-1, norm="forward"))

    @pytest.mark.parametrize("n,k", [(64, 5), (64, 33)], ids=["matmul", "irfft"])
    def test_imaginary_part_at_zero_is_not_read(self, n, k):
        band = np.random.default_rng(8).standard_normal((3, k)) + 0j
        band[:, 1:] += 1j
        tilted = band.copy()
        tilted[:, 0] += 5j
        assert np.array_equal(fd.spectrum_to_samples(tilted, n),
                              fd.spectrum_to_samples(band, n))

    @pytest.mark.parametrize("k", [0, -1, 34])
    def test_band_outside_the_half_spectrum_rejected(self, k):
        with pytest.raises(ConfigError, match="1 <= k <= 33"):
            fd.fourier_coeffs(np.zeros((2, 64)), k)

    def test_band_dft_is_memoised_and_read_only(self):
        dft = spectra.band_dft(512, 11)
        assert spectra.band_dft(512, 11) is dft
        assert not dft.flags.writeable

    @pytest.mark.parametrize("n", [16, 64, 256, 1024, 4096, 8192])
    def test_band_idft_folds_the_weights_bitwise(self, n):
        """The inverse matrix is ``band_dft`` transposed with the weights N (m = 0)
        and 2N (m > 0) folded in: powers of two, so the blocked product is bitwise
        the weighted band times ``band_dft.T`` over the whole array."""
        k = band_edge(n)
        dft, idft = spectra.band_dft(n, k), spectra.band_idft(n, k)
        weight = np.repeat(np.where(np.arange(k) == 0, float(n), 2.0 * n), 2)
        assert idft.flags.c_contiguous and not idft.flags.writeable
        assert spectra.band_idft(n, k) is idft
        assert np.array_equal(idft, dft.T * weight[:, None])
        rng = np.random.default_rng(n)
        m = 2 * spectra.inverse_block_rows(n, k) + 3          # two blocks and a partial one
        band = rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))
        old = (band.view(float) * weight) @ dft.T
        assert fd.spectrum_to_samples(band, n).tobytes() == old.tobytes()

    @pytest.mark.parametrize("n,k,rows", [
        (512, 11, 32), (1024, 7, 16), (512, 18, 128), (2048, 11, 128), (8192, 26, 128),
        (8192, 100, 128), (512, 40, 128), (64, 12, 256)])
    def test_inverse_blocks_have_a_row_floor(self, n, k, rows):
        """128 KB row blocks while the matmul's (2K, N) band matrix fits in one,
        else at least 128 rows: a larger band matrix, or the irfft route."""
        assert spectra.inverse_block_rows(n, k) == rows

    @pytest.mark.parametrize("n,k", [(512, 11), (512, 40)], ids=["matmul", "irfft"])
    def test_spectrum_to_samples_writes_into_out(self, n, k):
        band = np.random.default_rng(4).standard_normal((70, k)) + 0j
        out = np.full((70, n), np.nan)
        assert fd.spectrum_to_samples(band, n, out=out) is out
        assert out.tobytes() == fd.spectrum_to_samples(band, n).tobytes()

    @pytest.mark.parametrize("col,scale", [(0, 1.0), (3, 0.5)], ids=["m0", "m1"])
    def test_a_band_whose_unnormalised_spectrum_overflows_is_rejected(self, col, scale):
        """The matmul route weights c_0 by N and c_m by 2N; a weighted coefficient
        beyond the float range raises, one at the range's edge does not."""
        n, top = 64, np.finfo(float).max
        band = np.zeros((3, 10))                    # 5 columns, re/im interleaved
        band[1, col] = top / n * scale
        fd.spectrum_to_samples(band.view(complex), n)
        band[1, col] = np.nextafter(band[1, col], np.inf)
        with pytest.raises(ConfigError, match="overflow"):
            fd.spectrum_to_samples(band.view(complex), n)


class TestKernelSpectrum:
    def test_reference_kernel_matches_closed_form(self, kernel_for):
        """|g_m| for g(u,t) = exp(-a min(t,1-t))/2 tracks the continuous
        transform a (1 - (-1)^m e^{-a/2}) / (a^2 + 4 pi^2 m^2) at low m,
        where aliasing is negligible."""
        _, ks = kernel_for(64, 512)
        u = (np.arange(64) / 64)[:, None]
        a = 1.0 + (u - 0.5) ** 2
        m = np.arange(0, 17)[None, :]
        exact = a * (1.0 - (-1.0) ** m * np.exp(-a / 2)) / (a**2 + 4 * np.pi**2 * m**2)
        got = np.abs(ks.g_coeffs[:, :17])
        np.testing.assert_allclose(got, exact, rtol=0.01)

    def test_reference_kernel_amplitudes_fall_by_parity(self, kernel_for):
        """Within each parity class |g_m| decreases strictly in m (the global
        sequence alternates because of the (-1)^m factor)."""
        _, ks = kernel_for(64, 512)
        amps = np.abs(ks.g_coeffs[0, 1:65])
        assert np.all(np.diff(amps[0::2]) < 0)
        assert np.all(np.diff(amps[1::2]) < 0)

    def test_reference_kernel_log_slope_near_minus_two(self, kernel_for):
        _, ks = kernel_for(64, 512)
        m = np.arange(1, 65)
        amps = np.abs(ks.g_coeffs[:, 1:65]).mean(axis=0)
        slope = np.polyfit(np.log(m), np.log(amps), 1)[0]
        assert -2.2 < slope < -1.75

    def test_identity_kernel_is_flagged_ill_posed(self):
        ks = fd.kernel_spectrum(np.ones((4, 64)))
        with pytest.raises(IllPosedKernel) as err:
            fd.validate_invertible(ks, np.arange(1, 11))
        msg = str(err.value)
        assert "l=" in msg and "m=" in msg

    def test_cosine_kernel_is_flagged_ill_posed(self):
        t = np.arange(64) / 64
        ks = fd.kernel_spectrum(np.tile(np.cos(2 * np.pi * t), (4, 1)))
        with pytest.raises(IllPosedKernel):
            fd.validate_invertible(ks, np.arange(1, 11))
        # with the floor cached, the live frequencies pass and the rest fail
        floor = ks.zero_floor
        fd.validate_invertible(ks, [1, -1])
        with pytest.raises(IllPosedKernel):
            fd.validate_invertible(ks, np.arange(1, 11))
        assert ks.zero_floor is floor

    def test_coefficients_are_read_only_once_the_floor_is_cached(self):
        """A write after zero_floor would leave the cached floor stale: an
        8 x 64 reference kernel scaled in place by 1e-20 would fail at l=0, m=0."""
        ks = fd.kernel_spectrum(simlab.kernel_grid(8, 64))
        ks.g_coeffs *= 1.0          # writable before the floor is used
        ks.zero_floor
        with pytest.raises(ValueError, match="read-only"):
            ks.g_coeffs *= 1e-20
        fd.validate_invertible(ks, range(11))

    def test_zero_floor_is_taken_by_row_blocks(self):
        """The floor equals the whole-spectrum formula bit for bit on 310 rows
        of 1025, in blocks of 15 rows and a partial 10, and on a 512 x 2049
        spectrum peaks near its 128 KB block buffer (``ROW_BLOCK_BYTES``), not
        at abs of the whole (8.4 MB)."""
        rng = np.random.default_rng(5)
        g = rng.standard_normal((310, 1025)) + 1j * rng.standard_normal((310, 1025))
        floor = spectra.KernelSpectrum(g.copy()).zero_floor
        assert np.array_equal(floor, _ZERO_REL * np.abs(g).max(axis=1, keepdims=True))
        ks = spectra.KernelSpectrum(np.ones((512, 2049), dtype=complex))
        gc.collect()
        tracemalloc.start()
        try:
            ks.zero_floor
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.2e6

    def test_zero_floor_is_relative(self):
        """FFT residues of analytic zeros (~1e-17 absolute) count as zeros."""
        t = np.arange(64) / 64
        ks = fd.kernel_spectrum(np.tile(np.cos(2 * np.pi * t), (2, 1)))
        dead = np.abs(ks.g_coeffs[0, 5])
        assert 0 < dead < _ZERO_REL * np.abs(ks.g_coeffs[0]).max()

    def test_reference_kernel_invertible_over_working_band(self, kernel_for):
        _, ks = kernel_for(64, 512)
        band = np.concatenate([np.arange(-170, 0), np.arange(0, 171)])
        fd.validate_invertible(ks, band)    # should not raise
        assert np.abs(ks.g_coeffs[:, :171]).min() > 0

    def test_validate_invertible_reads_plus_and_minus_m_alike(self, kernel_for):
        """A real kernel has |g(-m)| = |g(m)|: -m passes or fails with m,
        naming the frequency as given; |m| > N/2 is not on the grid."""
        t = np.arange(64) / 64
        ks = fd.kernel_spectrum(np.tile(np.cos(2 * np.pi * t), (4, 1)))
        fd.validate_invertible(ks, [-1, 1])
        for m in (2, -2, 32, -32):
            with pytest.raises(IllPosedKernel) as err:
                fd.validate_invertible(ks, [1, -1, m])
            assert err.value.frequency == m
        _, ref = kernel_for(64, 512)
        fd.validate_invertible(ref, [-256, 256])
        for m in (257, -257, 700):
            with pytest.raises(ConfigError, match="N/2"):
                fd.validate_invertible(ref, [0, m])


class TestEstimateNu:
    def synthetic(self, nu, n=256, m=4):
        afreq = np.arange(n // 2 + 1, dtype=float)
        afreq[0] = 1.0
        amps = afreq ** -nu
        return fd.KernelSpectrum(np.tile(amps.astype(complex), (m, 1)))

    @pytest.mark.parametrize("nu", [1.0, 2.0])
    def test_exact_on_pure_power_law(self, nu):
        assert fd.estimate_nu(self.synthetic(nu)) == pytest.approx(nu, abs=1e-12)

    @given(st.floats(0.0, 5.0))
    @settings(max_examples=30, deadline=None)
    def test_exact_on_power_laws_across_orders(self, nu):
        assert fd.estimate_nu(self.synthetic(nu)) == pytest.approx(nu, abs=1e-9)

    def test_reference_kernel_default_window(self, kernel_for):
        _, ks = kernel_for(64, 512)
        assert 1.85 <= fd.estimate_nu(ks) <= 2.15

    def test_reference_kernel_wide_window(self, kernel_for):
        grid, _ = kernel_for(64, 512)
        ks = fd.kernel_spectrum(grid)
        assert 1.85 <= fd.estimate_nu(ks, m_range=(8, 128)) <= 2.15

    def test_leaves_the_spectrum_unchanged(self, kernel_for):
        """The fit is a value: the spectrum keeps its coefficients and fields,
        and the bounds at the fitted exponent satisfy 0 < c1 <= c2."""
        grid, _ = kernel_for(64, 512)
        ks = fd.kernel_spectrum(grid)
        before = ks.g_coeffs.copy()
        nu = fd.estimate_nu(ks, (8, 100))
        assert np.array_equal(ks.g_coeffs, before)
        assert vars(ks).keys() <= {"g_coeffs", "zero_floor"}
        assert fd.estimate_nu(ks, (8, 100)) == nu
        c1, c2 = fd.kernel_bounds(ks, fd.estimate_nu(ks))
        assert 0 < c1 <= c2

    def test_window_too_small(self):
        with pytest.raises(InsufficientRange):
            fd.estimate_nu(self.synthetic(1.0), m_range=(4, 9))

    def test_window_beyond_grid(self):
        with pytest.raises(InsufficientRange):
            fd.estimate_nu(self.synthetic(1.0, n=64), m_range=(8, 64))

    def test_vanishing_amplitudes_in_window(self):
        t = np.arange(256) / 256
        ks = fd.kernel_spectrum(np.tile(np.cos(2 * np.pi * t), (2, 1)))
        with pytest.raises(InsufficientRange):
            fd.estimate_nu(ks)


class TestFitWindow:
    """One real read of the fit window gives nu-hat, c1, c2 and the default
    C_beta, bitwise as the formulas over the complex window give them."""

    @staticmethod
    def textbook(ks):
        """nu-hat, (c1, c2) and C_beta from ``np.abs`` of the indexed window [N/16, N/4]."""
        freqs = np.arange(ks.n // 16, ks.n // 4 + 1)
        amps = np.abs(ks.g_coeffs[:, freqs])
        slope, _ = np.polyfit(np.log(freqs.astype(float)), np.log(amps.mean(axis=0)), 1)
        nu = -float(slope)
        scaled = amps**2 * freqs.astype(float) ** (2.0 * nu)
        c1, c2 = float(scaled.min()), float(scaled.max())
        return nu, (c1, c2), 4.0 * (2.0 * np.pi / 3.0) ** nu / math.sqrt(c1)

    @pytest.mark.parametrize("shape", [(64, 256), (256, 512), (3, 64)])
    def test_values_equal_the_textbook_formulas(self, kernel_for, shape):
        _, ks = kernel_for(*shape)
        nu, bounds, c_beta = self.textbook(ks)
        assert fd.estimate_nu(ks) == nu
        assert fd.kernel_bounds(ks, nu) == bounds
        cfg = fd.config_for(fd.ObservationGrid(np.zeros(shape), sigma=0.5), ks)
        assert (cfg.nu, cfg.c_beta) == (nu, c_beta)

    @pytest.mark.parametrize("given, reads", [
        ({}, 1), ({"nu": 1.5}, 1), ({"c_beta": 2.0}, 1), ({"nu": 1.5, "c_beta": 2.0}, 0),
    ], ids=["both_fitted", "c_beta_fitted", "nu_fitted", "nothing_fitted"])
    def test_config_for_reads_the_window_at_most_once(self, kernel_for, monkeypatch,
                                                      given, reads):
        _, ks = kernel_for(64, 256)
        calls = []
        reader = spectra._fit_window

        def counting(*args):
            calls.append(args)
            return reader(*args)

        monkeypatch.setattr(spectra, "_fit_window", counting)
        fd.config_for(fd.ObservationGrid(np.zeros((64, 256)), sigma=0.5), ks, **given)
        assert len(calls) == reads

    def test_config_for_peaks_near_one_window_buffer(self, kernel_for):
        """At 256 x 512 the float window (256 x 97) is 0.199 MB, and config_for
        holds little else: no complex copy of it, no second buffer. The kernel's
        cached zero floor is warmed first; a first call imports no module."""
        _, ks = kernel_for(256, 512)
        sim = simlab.SimConfig(m=256, n=512)
        fd.config_for(sim, ks)
        gc.collect()
        tracemalloc.start()
        try:
            fd.config_for(sim, ks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.35e6

    @pytest.mark.parametrize("nu", [600.0, 1e300])
    def test_overflowing_bounds_name_nu(self, kernel_for, nu):
        _, ks = kernel_for(64, 256)
        obs = fd.ObservationGrid(np.zeros((64, 256)), sigma=0.5)
        named = re.escape(f"nu={nu!r} is too large")
        with pytest.raises(ConfigError, match=named + ".*give C_beta \\(--cbeta\\)"):
            fd.config_for(obs, ks, nu=nu)
        with pytest.raises(ConfigError, match=named):
            fd.kernel_bounds(ks, nu)
