"""Periodized band-limited wavelet basis on the time axis."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import funcdeconv as fd
from funcdeconv import meyer as meyer_module
from funcdeconv.exceptions import ConfigError, LevelTooCoarse, LevelTooFine
from funcdeconv.meyer import meyer_aux, phi_hat, psi_hat
from funcdeconv.spectra import ROW_BLOCK_BYTES


def hermitian_noise(rng, n, mmax):
    """Random real-signal half spectrum (N/2 + 1 columns) supported on m <= mmax."""
    spec = np.zeros(n // 2 + 1, dtype=complex)
    spec[:mmax + 1] = rng.standard_normal(mmax + 1) + 1j * rng.standard_normal(mmax + 1)
    spec[0] = spec[0].real
    return spec


class TestAuxPolynomial:
    def test_endpoint_values(self):
        assert meyer_aux(0.0) == 0.0
        assert meyer_aux(1.0) == 1.0
        assert meyer_aux(np.array(0.5)) == pytest.approx(0.5, abs=1e-15)

    def test_clamps_outside_unit_interval(self):
        assert meyer_aux(-3.0) == 0.0
        assert meyer_aux(4.0) == 1.0

    def test_monotone_on_unit_interval(self):
        x = np.linspace(0, 1, 201)
        assert np.all(np.diff(meyer_aux(x)) >= 0)

    def test_symmetric_partition(self):
        """theta(x) + theta(1-x) = 1 — the smoothness behind the tight frame."""
        x = np.linspace(0, 1, 401)
        np.testing.assert_allclose(meyer_aux(x) + meyer_aux(1 - x), 1.0, atol=1e-12)


class TestWindowFunctions:
    def test_psi_support(self):
        w = np.array([0.0, 2 * np.pi / 3 - 1e-9, 8 * np.pi / 3 + 1e-9, 10.0])
        np.testing.assert_allclose(psi_hat(w), 0.0, atol=1e-15)
        assert psi_hat(np.pi) != 0

    def test_phi_plateau_and_support(self):
        assert phi_hat(0.0) == 1.0
        assert phi_hat(2 * np.pi / 3) == pytest.approx(1.0, abs=1e-15)
        assert phi_hat(4 * np.pi / 3 + 1e-9) == pytest.approx(0.0, abs=1e-15)

    def test_hermitian_symmetry(self):
        """psi carries the half-sample phase, so psi(-w) = conj(psi(w))."""
        w = np.linspace(-9, 9, 301)
        np.testing.assert_allclose(psi_hat(-w), np.conj(psi_hat(w)), atol=1e-15)
        np.testing.assert_allclose(phi_hat(w), phi_hat(-w), atol=1e-15)

    def test_two_scale_energy_split(self):
        """|phi(w/2)|^2 = |phi(w)|^2 + |psi(w)|^2 on the whole line."""
        w = np.linspace(-12, 12, 1001)
        np.testing.assert_allclose(phi_hat(w / 2) ** 2,
                                   phi_hat(w) ** 2 + np.abs(psi_hat(w)) ** 2,
                                   atol=1e-12)

    def test_dyadic_squares_tile_the_annulus(self):
        """sum_j |psi(2^-j w)|^2 = 1 away from the origin."""
        w = np.linspace(2 * np.pi / 3 + 0.01, 2 * np.pi * 50, 2000)
        total = sum(np.abs(psi_hat(w / 2.0**j)) ** 2 for j in range(-3, 12))
        np.testing.assert_allclose(total, 1.0, atol=1e-12)


class TestSupports:
    def test_level3_support_set(self, meyer):
        w3 = set(meyer.support_set(3).tolist())
        assert w3 <= set(range(-10, -2)) | set(range(3, 11))
        assert 3 in w3 and -3 in w3 and 10 in w3

    def test_support_drops_analytic_zeros(self, meyer):
        for j in range(3, 8):
            ms = meyer.support_set(j)
            vals = psi_hat(2 * np.pi * ms / 2.0**j)
            assert np.all(vals != 0)

    def test_quarter_frequency_is_a_spectral_hole(self, meyer):
        for j in range(4, 9):
            assert psi_hat(2 * np.pi * (2**j // 4) / 2.0**j) == 0
            assert 2**j // 4 not in set(meyer.support_set(j).tolist())

    def test_union_band_is_symmetric_and_contiguous_enough(self, meyer):
        band = meyer.union_band(6)
        assert set(band.tolist()) == set((-band).tolist())
        assert band.max() == (4 * 2**5) // 3
        assert meyer.union_band(6) is band and not band.flags.writeable

    @pytest.mark.parametrize("m0", [3, 4, 5, 6])
    def test_union_band_is_the_sorted_set_of_the_supports(self, m0):
        """The membership-mask union equals ``np.unique`` of the same supports,
        in values and dtype, at every level up to the capacity of N = 2^14."""
        basis = fd.MeyerBasis(m0)
        for big_j in range(m0, fd.j_capacity(2**14) + 1):
            supports = [basis.scaling_support()]
            supports += [basis.support_set(j) for j in range(m0, big_j)]
            want = np.unique(np.concatenate(supports))
            band = basis.union_band(big_j)
            assert band.dtype == want.dtype and np.array_equal(band, want), big_j
            assert basis.union_band(big_j) is band and not band.flags.writeable

    def test_capacity_bound(self, meyer):
        with pytest.raises(LevelTooFine):
            meyer.band_size(6, 64)
        with pytest.raises(LevelTooCoarse):
            fd.MeyerBasis(m0=2)

    def test_band_size_raises_iff_beyond_j_capacity(self, meyer):
        """One capacity rule: the finest band fits N iff 2 * 2^(J+2) / 3 <= N."""
        for n in (2**e for e in range(1, 21)):
            for big_j in range(3, 25):
                beyond = big_j > fd.j_capacity(n)
                assert beyond == (2**(big_j + 3) > 3 * n), (big_j, n)
                if beyond:
                    with pytest.raises(LevelTooFine, match=rf"N={n} .*j={big_j - 1}\)"):
                        meyer.band_size(big_j, n)
                else:
                    assert meyer.band_size(big_j, n) > 0

    @pytest.mark.parametrize("big_j", [3, 4, 6, 9, 12])
    def test_band_is_a_gapless_prefix_of_the_half_spectrum(self, meyer, big_j):
        """Band rows hold frequencies 0..K-1: the union band has no gaps."""
        band = meyer.union_band(big_j)
        k = meyer.band_size(big_j, 2**(big_j + 2))
        np.testing.assert_array_equal(band[band >= 0], np.arange(k))


class TestCoefficientTables:
    """The rows of ``band_matrix`` are the atoms: each row tau is atom tau on
    the frequencies 0..K-1, re/im interleaved."""

    def test_rows_are_unit_norm(self):
        """Over both signs of m: (S^2 * w).sum(1) = 1 on every wavelet row."""
        for big_j in (5, 8):
            synthesis, weight = fd.MeyerBasis().band_matrix(big_j)
            norms = (synthesis**2 * weight).sum(1)[8:]
            np.testing.assert_allclose(norms, 1.0, rtol=0, atol=1e-13, err_msg=str(big_j))

    def test_scaling_rows_are_unit_norm(self):
        for m0 in range(3, 7):
            synthesis, weight = fd.MeyerBasis(m0).band_matrix(m0)
            norms = (synthesis**2 * weight).sum(1)
            np.testing.assert_allclose(norms, 1.0, rtol=0, atol=1e-13, err_msg=str(m0))

    def test_amplitude_bound(self):
        rows = fd.MeyerBasis().band_matrix(9)[0].view(complex)
        for j, sl in fd.level_slices(3, 9).items():
            assert np.abs(rows[sl]).max() <= 2.0 ** (-max(j, 3) / 2) + 1e-12, j

    def test_translates_are_modulations(self, meyer):
        rows = meyer.band_matrix(6)[0].view(complex)
        ms = np.arange(rows.shape[1])
        for j, sl in fd.level_slices(3, 6).items():
            lev = max(j, 3)
            for k in (1, 3, 2**lev - 1):
                expected = rows[sl.start] * np.exp(-2j * np.pi * ms * k / 2.0**lev)
                np.testing.assert_allclose(rows[sl.start + k], expected, rtol=0, atol=1e-14)

    def test_orthonormal_within_and_across_levels(self):
        """The two-sided Gram matrix (S * w) @ S^T of all 2^J atoms is the identity."""
        for big_j in (3, 5, 8):
            synthesis, weight = fd.MeyerBasis().band_matrix(big_j)
            gram = (synthesis * weight) @ synthesis.T
            np.testing.assert_allclose(gram, np.eye(2**big_j), rtol=0, atol=1e-13,
                                       err_msg=str(big_j))


class TestSharedTables:
    """The tables of a cutoff J depend only on (m0, J); those whose band matrix
    takes at most 128 KB are shared by every basis at m0, the rest go with
    their basis."""

    @pytest.mark.parametrize("m0", [3, 4, 5, 6])
    def test_bases_at_one_m0_share_the_read_only_tables_up_to_j6(self, m0):
        first, second = fd.MeyerBasis(m0), fd.MeyerBasis(m0)
        for big_j in range(m0, 7):
            band = first.union_band(big_j)
            synthesis, weight = first.band_matrix(big_j)
            assert second.union_band(big_j) is band, big_j
            again = second.band_matrix(big_j)
            assert again[0] is synthesis and again[1] is weight, big_j
            assert synthesis.nbytes <= ROW_BLOCK_BYTES, big_j
            for table in (band, synthesis, weight):
                assert not table.flags.writeable, big_j
        retained = sum(table.nbytes for (m, _), tables in meyer_module._SHARED.items()
                       if m == m0 for table in (tables["band"], *tables["matrix"]))
        assert retained < 64 * 1024
        big = first.band_matrix(7)[0]
        assert big.nbytes > ROW_BLOCK_BYTES
        assert second.band_matrix(7)[0] is not big
        assert (m0, 7) not in meyer_module._SHARED

    def test_a_table_above_128kb_goes_with_its_basis(self):
        """At J = 8 the band matrix takes 700 KB: no reference outlives the basis."""
        basis = fd.MeyerBasis(3)
        synthesis, weight = basis.band_matrix(8)
        assert synthesis.nbytes > 5 * ROW_BLOCK_BYTES
        refs = [weakref.ref(table) for table in
                (synthesis, synthesis.base, weight, basis.union_band(8))]
        del basis, synthesis, weight
        gc.collect()
        assert [ref() for ref in refs] == [None] * 4
        assert (3, 8) not in meyer_module._SHARED

    def test_shared_tables_equal_tables_built_anew(self, monkeypatch):
        shared = fd.MeyerBasis(3)
        tables = {big_j: (shared.union_band(big_j), shared.band_matrix(big_j))
                  for big_j in range(3, 7)}
        monkeypatch.setattr(meyer_module, "_SHARED", {})
        fresh = fd.MeyerBasis(3)
        for big_j, (band, (synthesis, weight)) in tables.items():
            assert fresh.union_band(big_j) is not band
            assert np.array_equal(fresh.union_band(big_j), band)
            assert fresh.band_matrix(big_j)[0].tobytes() == synthesis.tobytes()
            assert fresh.band_matrix(big_j)[1].tobytes() == weight.tobytes()


class TestAnalyzeSynthesize:
    @pytest.mark.parametrize("m0,big_j", [(3, 3), (3, 7), (0, 4), (5, 9)])
    def test_level_slices_tile_the_packed_vector(self, m0, big_j):
        slices = fd.level_slices(m0, big_j)
        assert list(slices) == list(range(m0 - 1, big_j))
        assert slices[m0 - 1] == slice(0, 2**m0)
        ends = [0] + [sl.stop for sl in slices.values()]
        assert [sl.start for sl in slices.values()] == ends[:-1]
        assert ends[-1] == 2**big_j

    def test_packed_layout_slices(self):
        slices = fd.level_slices(3, 6)
        assert slices[2] == slice(0, 8)
        assert slices[3] == slice(8, 16)
        assert slices[5] == slice(32, 64)
        assert sorted(slices) == [2, 3, 4, 5]

    def test_coefficient_roundtrip_is_exact(self, meyer):
        rng = np.random.default_rng(0)
        packed = rng.standard_normal((3, 64))
        band = meyer.synthesize_t(packed)
        assert band.shape == (3, meyer.band_size(6, 256))
        back = meyer.analyze_t(band, 6)
        assert back.dtype == np.float64
        np.testing.assert_allclose(back, packed, atol=1e-10)

    def test_band_limited_signal_roundtrip(self, meyer):
        """Signals inside the strict interior of V_J are reproduced exactly."""
        rng = np.random.default_rng(1)
        spec = hermitian_noise(rng, 256, 21).reshape(1, -1)   # m < 64/3
        band = meyer.synthesize_t(meyer.analyze_t(spec, 6))
        back = np.zeros_like(spec)
        back[:, :band.shape[1]] = band
        np.testing.assert_allclose(back, spec, atol=1e-9)

    def test_band_limited_parseval(self, meyer):
        blip = fd.test_function("Blip", 512)
        spec = fd.fourier_coeffs(blip.reshape(1, -1))
        spec[0, 43:] = 0.0                       # strict interior at J=7
        packed = meyer.analyze_t(spec, 7)
        energy = abs(spec[0, 0]) ** 2 + 2 * (np.abs(spec[0, 1:]) ** 2).sum()
        np.testing.assert_allclose((packed ** 2).sum(), energy, atol=1e-8)

    def test_analysis_is_a_projection(self, meyer):
        """synthesize(analyze(.)) is idempotent on arbitrary spectra."""
        rng = np.random.default_rng(2)
        spec = hermitian_noise(rng, 256, 127).reshape(1, -1)
        once = meyer.synthesize_t(meyer.analyze_t(spec, 6))
        twice = meyer.synthesize_t(meyer.analyze_t(once, 6))
        np.testing.assert_allclose(twice, once, atol=1e-10)

    def test_single_coefficient_synthesizes_its_atom(self, meyer, atoms):
        """A unit coefficient at (j = 4, k = 5) synthesizes that atom, zero off its support."""
        packed = np.zeros((1, 32))
        slices = fd.level_slices(3, 5)
        packed[0, slices[4].start + 5] = 1.0
        band = meyer.synthesize_t(packed)[0]
        ms = np.arange(len(band))
        want = atoms(meyer, 5, ms)[slices[4].start + 5]
        np.testing.assert_allclose(band, want, rtol=0, atol=1e-14)
        assert np.count_nonzero(band) == np.count_nonzero(meyer.support_set(4) > 0)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_roundtrip_property(self, meyer, seed):
        packed = np.random.default_rng(seed).standard_normal(32)
        back = meyer.analyze_t(meyer.synthesize_t(packed.reshape(1, -1)), 5)
        np.testing.assert_allclose(back[0], packed, atol=1e-10)

    def test_matches_the_atoms_over_both_signs(self, meyer, atoms):
        """Analysis equals sum_m X(m) conj(psi(m)) over the full two-sided band
        of a real signal; synthesis equals sum_tau c_tau psi_tau(m)."""
        rng = np.random.default_rng(3)
        n, big_j = 128, 5
        x = rng.standard_normal((2, n))
        full = np.fft.fft(x, axis=1) / n
        band = meyer.union_band(big_j)
        table = atoms(meyer, big_j, band)                  # (2^J, |band|)
        want = full[:, band % n] @ table.conj().T
        assert np.abs(want.imag).max() < 1e-15
        got = meyer.analyze_t(full[:, :n // 2 + 1], big_j)
        np.testing.assert_allclose(got, want.real, rtol=0, atol=1e-14)
        c = rng.standard_normal((2, 2**big_j))
        synth = c @ table
        np.testing.assert_allclose(meyer.synthesize_t(c), synth[:, band >= 0],
                                   rtol=0, atol=1e-14)

    def test_rejects_overfull_grid(self, meyer):
        with pytest.raises(LevelTooFine):
            meyer.band_size(7, 128)

    def test_levels_below_m0_rejected(self, meyer):
        """Every entry that takes a level names one below m0 = 3."""
        for call in (lambda: meyer.support_set(2), lambda: meyer.band_matrix(2),
                     lambda: meyer.band_size(2, 64), lambda: meyer.analyze_t(
                         np.zeros((1, 33), dtype=complex), 2)):
            with pytest.raises(LevelTooCoarse, match="m0=3"):
                call()
        with pytest.raises(LevelTooCoarse, match=r"packed length 4 shorter than .*2\^3"):
            meyer.synthesize_t(np.zeros((1, 4)))

    def test_packed_length_not_a_power_of_two_rejected(self, meyer):
        with pytest.raises(IndexError, match="packed length 24 is not a power of two"):
            meyer.synthesize_t(np.zeros((1, 24)))

    def test_rejects_malformed_inputs(self, meyer):
        with pytest.raises(ConfigError):
            meyer.analyze_t(np.zeros((1, 7), dtype=complex), 5)   # J=5 reads 22
        with pytest.raises(ConfigError):
            meyer.synthesize_t(np.zeros((1, 32), dtype=complex))
