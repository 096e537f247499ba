"""Periodized orthonormal DWT across profiles."""

import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import funcdeconv as fd
from funcdeconv.exceptions import ConfigError
from funcdeconv.spatial import DB6_HI, DB6_LO, _analysis_step


def level_energies(basis, x, m0p=3):
    big_l = int(np.log2(len(x)))
    c = basis.dwt_forward(x)
    slices = fd.level_slices(m0p, big_l)
    return {j: float((c[s] ** 2).sum()) for j, s in slices.items()}


class TestFilters:
    def test_lowpass_sums(self):
        lo = DB6_LO
        assert len(lo) == 12
        assert abs(lo.sum() - np.sqrt(2)) < 1e-15
        assert abs((lo**2).sum() - 1.0) < 1e-15

    def test_highpass_is_alternating_flip(self):
        signs = (-1.0) ** np.arange(12)
        np.testing.assert_allclose(DB6_HI, signs * DB6_LO[::-1], atol=1e-15)

    def test_shifted_orthogonality(self):
        """sum_k h_k h_{k+2m} = delta_{m0} — the perfect-reconstruction identity."""
        lo = DB6_LO
        for shift in range(2, 12, 2):
            assert abs(np.dot(lo[:-shift], lo[shift:])) < 1e-16

    def test_six_vanishing_moments(self):
        """sum_t t^p hi[t] = 0 for p < 6, relative to sum_t t^p |hi[t]|."""
        t = np.arange(12.0)
        for p in range(6):
            moment = np.dot(t**p, DB6_HI)
            assert abs(moment) < 1e-14 * np.dot(t**p, np.abs(DB6_HI)), p


class TestTransform:
    def test_roundtrip(self, spatial):
        rng = np.random.default_rng(0)
        for n in (8, 16, 64, 256):
            x = rng.standard_normal(n)
            np.testing.assert_allclose(spatial.dwt_inverse(spatial.dwt_forward(x)),
                                       x, atol=1e-13)

    @given(st.integers(0, 2**32 - 1), st.sampled_from([8, 32, 128]))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_property(self, spatial, seed, n):
        x = np.random.default_rng(seed).standard_normal(n)
        np.testing.assert_allclose(spatial.dwt_inverse(spatial.dwt_forward(x)),
                                   x, atol=1e-13)

    def test_parseval(self, spatial):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(128)
        c = spatial.dwt_forward(x)
        assert (c**2).sum() == pytest.approx((x**2).sum(), rel=1e-13)

    def test_transposed_rows_and_strided_views(self, spatial):
        """The estimator's input: real (2^J, M) rows, transposed in memory,
        inverted from a strided view."""
        x = np.random.default_rng(8).standard_normal((64, 4)).T
        c = spatial.dwt_forward(x)
        assert np.array_equal(c, spatial.dwt_forward(np.ascontiguousarray(x)))
        assert (c**2).sum() == pytest.approx((x**2).sum(), rel=1e-13)
        strided = np.zeros((4, 128))
        strided[:, ::2] = c
        np.testing.assert_allclose(spatial.dwt_inverse(strided[:, ::2]), x,
                                   atol=1e-13)

    def test_complex_input_rejected(self, spatial):
        """The estimator's rows are real: a complex array, even with a zero
        imaginary part, raises both ways."""
        z = np.zeros((4, 64), dtype=complex)
        for transform in (spatial.dwt_forward, spatial.dwt_inverse):
            with pytest.raises(ConfigError, match="real"):
                transform(z)

    def test_stacked_input_matches_row_by_row(self, spatial):
        x = np.random.default_rng(9).standard_normal((2, 3, 32))
        c = spatial.dwt_forward(x)
        assert c.shape == x.shape
        for idx in np.ndindex(2, 3):
            np.testing.assert_allclose(c[idx], spatial.dwt_forward(x[idx]),
                                       atol=1e-13)
        np.testing.assert_allclose(spatial.dwt_inverse(c), x, atol=1e-13)

    @pytest.mark.parametrize("n", [8, 64])
    def test_outputs_never_alias_the_input(self, spatial, n):
        """n = 8 = 2^m0' runs no step at all, and must still return a copy."""
        x = np.random.default_rng(10).standard_normal((2, n))
        assert not np.shares_memory(spatial.dwt_forward(x), x)
        assert not np.shares_memory(spatial.dwt_inverse(x), x)

    def test_zero_maps_to_zero(self, spatial):
        assert not spatial.dwt_forward(np.zeros(32)).any()

    def test_constant_has_no_details(self, spatial):
        x = np.full(64, 2.5)
        c = spatial.dwt_forward(x)
        slices = fd.level_slices(3, 6)
        np.testing.assert_allclose(c[8:], 0.0, atol=1e-13)
        np.testing.assert_allclose(c[slices[2]], 2.5 * 2.0 ** ((6 - 3) / 2),
                                   atol=1e-13)

    def test_non_dyadic_rejected(self, spatial):
        with pytest.raises(ConfigError):
            spatial.dwt_forward(np.zeros(48))
        with pytest.raises(ConfigError):
            spatial.dwt_forward(np.zeros(4))    # below the coarsest block

    def test_a_negative_coarsest_level_is_rejected(self):
        with pytest.raises(ConfigError, match="^coarsest spatial level m0' must be >= 0$"):
            fd.SpatialBasis(m0p=-1)

    def test_single_coefficient_images_are_orthonormal(self, spatial):
        e1, e2 = np.zeros(64), np.zeros(64)
        e1[10], e2[37] = 1.0, 1.0
        v1, v2 = spatial.dwt_inverse(e1), spatial.dwt_inverse(e2)
        assert np.dot(v1, v1) == pytest.approx(1.0, abs=1e-13)
        assert abs(np.dot(v1, v2)) < 1e-13
        np.testing.assert_allclose(spatial.dwt_forward(v1), e1, atol=1e-13)

    def test_shift_covariance(self, spatial):
        """Shifting by the level stride rolls that level's details one slot."""
        rng = np.random.default_rng(5)
        x = rng.standard_normal(128)
        c = spatial.dwt_forward(x)
        slices = fd.level_slices(3, 7)
        for j in (3, 4, 5, 6):
            shifted = spatial.dwt_forward(np.roll(x, 2 ** (7 - j)))
            np.testing.assert_allclose(shifted[slices[j]],
                                       np.roll(c[slices[j]], 1), atol=1e-13)


def interns_to_rebuild(limit=1_000_000) -> int:
    """Fresh strings interned, and dropped, until CPython's interned-string
    table is rebuilt: an intern that allocates over 100 KB at once."""
    tracemalloc.start()
    try:
        for count in range(1, limit):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            sys.intern("".join(["interned_probe_", str(count)]))
            if tracemalloc.get_traced_memory()[1] - before > 100_000:
                return count
    finally:
        tracemalloc.stop()
    raise AssertionError(f"no rebuild of the interned-string table in {limit} interns")


class TestInternedStrings:
    def test_the_analysis_step_interns_no_string(self, spatial):
        """An interned string takes a slot of the table until it is rebuilt, so
        each one a DWT interned would bring the next rebuild, which allocates
        0.96 MB at once (the rare +0.96 MB peaks of the benchmark's memory
        pass), nearer. 300 transforms of 3 levels leave it where it was."""
        rows = np.random.default_rng(0).standard_normal((4, 64))
        spatial.dwt_forward(rows)
        interns_to_rebuild()
        idle = interns_to_rebuild()
        for _ in range(300):
            spatial.dwt_forward(rows)
        assert interns_to_rebuild() == idle

    def test_the_windows_are_the_sliding_windows(self):
        """The windowed view gives bitwise the coefficients of numpy's
        ``sliding_window_view`` of the same padded rows, also for rows in
        Fortran order (``dwt_forward`` of a transposed array)."""
        from numpy.lib.stride_tricks import sliding_window_view
        rng = np.random.default_rng(1)
        for shape, order in [((3, 8), "C"), ((5, 64), "C"), ((16, 64), "F"), ((2, 3, 32), "C")]:
            a = np.asarray(rng.standard_normal(shape), order=order)
            n = shape[-1]
            padded = np.take(a, np.arange(n + len(DB6_LO) - 2), axis=-1, mode="wrap")
            want = sliding_window_view(padded, len(DB6_LO), axis=-1)[..., ::2, :] \
                @ np.stack([DB6_LO, DB6_HI], axis=1)
            got = _analysis_step(a)
            assert got[0].tobytes() == np.ascontiguousarray(want[..., 0]).tobytes()
            assert got[1].tobytes() == np.ascontiguousarray(want[..., 1]).tobytes()


class TestSmoothness:
    def test_quadratic_detail_energy_concentrates_at_the_wrap(self, spatial):
        """(t-1/2)^2 is smooth inside but has a derivative corner at the wrap,
        so coarse details carry a few 1e-3 of the energy while fine levels
        decay geometrically (factor >= 4 per level)."""
        n = 256
        t = np.arange(n) / n
        x = (t - 0.5) ** 2
        total = (x**2).sum()
        energies = level_energies(spatial, x)
        details = [energies[j] for j in range(3, 8)]
        assert sum(details) / total < 5e-3
        assert sum(energies[j] for j in range(4, 8)) / total < 1e-3
        for coarse, fine in zip(details, details[1:]):
            assert coarse / fine >= 4.0

    def test_trig_polynomials_have_negligible_details(self, spatial):
        n = 256
        t = np.arange(n) / n
        x = 1.0 + 0.7 * np.cos(2 * np.pi * t) + 0.2 * np.sin(4 * np.pi * t)
        total = (x**2).sum()
        energies = level_energies(spatial, x)
        assert sum(energies[j] for j in range(3, 8)) / total < 1e-4
        for j in range(4, 8):
            assert energies[j] / total < 1e-7
        for j in range(3, 7):
            assert energies[j] > 100 * energies[j + 1]


def dense_level_matrix(n):
    """One analysis step as an n x n matrix, straight from the filter formula:
    row k is approx[k] = sum_t lo[t] a[(2k+t) mod n], row n/2+k the detail."""
    w = np.zeros((n, n))
    for k in range(n // 2):
        for t in range(len(DB6_LO)):
            w[k, (2 * k + t) % n] += DB6_LO[t]
            w[n // 2 + k, (2 * k + t) % n] += DB6_HI[t]
    return w


class TestDenseReference:
    @pytest.mark.parametrize("n", [2, 4, 8, 32, 64])
    def test_level_matrices_are_orthonormal(self, n):
        w = dense_level_matrix(n)
        assert np.abs(w @ w.T - np.eye(n)).max() <= 1e-15

    @pytest.mark.parametrize("n,m0p", [(32, 3), (64, 3), (64, 1)])
    def test_packed_transform_is_the_product_of_level_matrices(self, n, m0p):
        """Level j maps the leading 2^(j+1) approximation entries to
        [approx 2^j | detail 2^j] and leaves the packed details behind them."""
        dense = np.eye(n)
        for j in range(int(np.log2(n)) - 1, m0p - 1, -1):
            step = np.eye(n)
            step[:2 ** (j + 1), :2 ** (j + 1)] = dense_level_matrix(2 ** (j + 1))
            dense = step @ dense
        basis = fd.SpatialBasis(m0p=m0p)
        x = np.random.default_rng(n + m0p).standard_normal((5, n))
        np.testing.assert_allclose(basis.dwt_forward(x), x @ dense.T, atol=1e-13)
        np.testing.assert_allclose(basis.dwt_inverse(x), x @ dense, atol=1e-13)
