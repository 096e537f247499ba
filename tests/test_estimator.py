"""Hard-thresholding hyperbolic-wavelet deconvolution estimator."""

import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import funcdeconv as fd
from funcdeconv import estimator, simlab
from funcdeconv import meyer as meyer_module
from funcdeconv.estimator import HyperCoeffs
from funcdeconv.exceptions import ConfigError, LevelTooFine


def observe(truth, sigma=0.0, seed=0, rep=0):
    return simlab.synthesize_data(truth, sigma, seed=seed, rep=rep)


def pipeline(obs, ks, **cfg_kwargs):
    cfg = fd.config_for(obs, ks, **cfg_kwargs)
    return fd.estimate_coeffs(fd.fourier_coeffs(obs.samples), fd.plan(cfg, ks)), cfg


class TestResolutionLimits:
    def test_capacities(self):
        assert fd.j_capacity(512) == 7
        assert fd.j_capacity(256) == 6
        assert fd.jprime_capacity(256) == 8
        assert fd.jprime_capacity(64) == 6

    def test_worked_example_moderate_noise(self):
        lim = fd.resolution_limits(2.0 ** -4.5, nu=1.0, n=1024, m=1024)
        assert (lim.j, lim.j_prime) == (3, 9)
        assert lim.raw_j == pytest.approx(3.0)
        assert lim.raw_j_prime == pytest.approx(9.0)

    def test_worked_example_table_setting(self):
        eps = 1.0 / math.sqrt(256 * 512)
        lim = fd.resolution_limits(eps, nu=2.0, n=512, m=256)
        assert (lim.j, lim.j_prime) == (3, 8)

    def test_degenerate_at_unit_noise(self):
        lim = fd.resolution_limits(1.0, nu=1.0, n=512, m=64)
        assert (lim.j, lim.j_prime) == (3, 3)
        assert lim.degenerate

    def test_noiseless_returns_capacity(self):
        lim = fd.resolution_limits(0.0, nu=1.0, n=512, m=64)
        assert (lim.j, lim.j_prime) == (7, 6)

    def test_clamped_to_capacity(self):
        lim = fd.resolution_limits(1e-9, nu=0.5, n=256, m=32)
        assert (lim.j, lim.j_prime) == (6, 5)


class TestThreshold:
    def cfg(self, c_beta, nu, eps, mode="functional"):
        return fd.EstimatorConfig(c_beta=c_beta, nu=nu, epsilon=eps, mode=mode)

    def test_unit_constant_zero_order(self):
        lam = fd.threshold_value(3, self.cfg(1.0, 0.0, 1.0 / math.e))
        assert lam == pytest.approx(1.0 / math.e, rel=1e-12)

    def test_worked_example(self):
        lam = fd.threshold_value(3, self.cfg(2.0, 1.0, 0.01))
        assert lam == pytest.approx(0.3433546, abs=1e-5)

    def test_level_doubling_at_order_one(self):
        cfg = self.cfg(1.5, 1.0, 0.01)
        assert fd.threshold_value(4, cfg) == pytest.approx(
            2 * fd.threshold_value(3, cfg), rel=1e-12)

    def test_zero_constant_kills_threshold(self):
        assert fd.threshold_value(5, self.cfg(0.0, 2.0, 0.01)) == 0.0

    def test_noiseless_threshold_is_zero(self):
        assert fd.threshold_value(5, self.cfg(3.0, 2.0, 0.0)) == 0.0

    def test_epsilon_at_or_above_one_rejected(self):
        with pytest.raises(ConfigError):
            fd.threshold_value(3, self.cfg(1.0, 1.0, 1.0))

    @given(st.floats(0.1, 10.0), st.floats(0.1, 10.0))
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_constant(self, c_lo, c_hi):
        c_lo, c_hi = sorted((c_lo, c_hi))
        lam_lo = fd.threshold_value(4, self.cfg(c_lo, 1.0, 0.05))
        lam_hi = fd.threshold_value(4, self.cfg(c_hi, 1.0, 0.05))
        assert lam_lo <= lam_hi


class TestConfigFor:
    def test_effective_noise_levels(self, kernel_for):
        _, ks = kernel_for(64, 512)
        obs = observe(np.zeros((64, 512)), sigma=0.5)
        cfg_f = fd.config_for(obs, ks, mode="functional")
        cfg_s = fd.config_for(obs, ks, mode="separate")
        assert cfg_f.epsilon == pytest.approx(0.5 / math.sqrt(64 * 512))
        assert cfg_s.epsilon == pytest.approx(0.5 / math.sqrt(512))

    @pytest.mark.parametrize("mode, bound", [("functional", 128.0), ("separate", 16.0)])
    def test_a_sigma_at_its_bound_is_named(self, kernel_for, mode, bound):
        """eps = sigma / sqrt(MN) (functional) or sigma / sqrt(N) (separate)
        must stay below 1; at 64 x 256 sigma = 128 or 16 reaches it."""
        _, ks = kernel_for(64, 256)
        just_below = fd.config_for(observe(np.zeros((64, 256)), sigma=0.99 * bound), ks,
                                   mode=mode)
        assert just_below.epsilon == pytest.approx(0.99)
        name = "sqrt(MN)" if mode == "functional" else "sqrt(N)"
        with pytest.raises(ConfigError, match=re.escape(
                f"sigma={bound!r} is too large for {mode} mode on a 64 x 256 grid: "
                f"it needs sigma < {name} = {bound!r} (epsilon=1.0 outside (0, 1))")):
            fd.config_for(observe(np.zeros((64, 256)), sigma=bound), ks, mode=mode)

    def test_default_constant_follows_kernel_fit(self, kernel_for):
        _, ks = kernel_for(64, 512)
        nu = fd.estimate_nu(ks)
        expected = 4.0 * (2 * np.pi / 3) ** nu / math.sqrt(fd.kernel_bounds(ks, nu)[0])
        cfg = fd.config_for(fd.ObservationGrid(np.zeros((64, 512)), sigma=0.5), ks)
        assert cfg.c_beta == pytest.approx(expected, rel=1e-12)

    def test_a_default_constant_with_c1_zero_is_refused(self):
        """Scaled by 1e-160 the reference kernel fits the same nu, but its
        fit-window amplitudes (about 1e-163) underflow to 0 when squared, so
        c1 = 0 and the default C_beta = 4 (2 pi / 3)^nu / sqrt(c1) cannot be
        formed; a given C_beta needs no c1."""
        grid = simlab.kernel_grid(64, 256)
        ks = fd.kernel_spectrum(grid * 1e-160)
        nu = fd.estimate_nu(ks)
        assert nu == pytest.approx(fd.estimate_nu(fd.kernel_spectrum(grid)), rel=1e-9)
        assert fd.kernel_bounds(ks, nu)[0] == 0.0
        obs = observe(np.zeros((64, 256)), sigma=0.5)
        with pytest.raises(ConfigError, match=re.escape(
                f"default C_beta needs c1 > 0, got c1=0.0 at nu={nu}; give C_beta (--cbeta)")):
            fd.config_for(obs, ks)
        assert fd.config_for(obs, ks, c_beta=1.0).nu == nu

    def test_an_identity_kernel_fits_nu_zero(self):
        """A kernel with 1 at t = 0 in every row is flat in m; its raw fit is
        -1.1e-16 by rounding, which the config takes as 0, in both modes. The
        raw fit is still reported, and a given negative nu is still rejected."""
        kernel = np.zeros((16, 64))
        kernel[:, 0] = 1.0
        ks = fd.kernel_spectrum(kernel)
        assert fd.estimate_nu(ks) < 0
        obs = observe(simlab.product_truth("Quadratic", "Blip", 16, 64), sigma=0.5)
        for mode in ("functional", "separate"):
            rec = fd.deconvolve(obs, kernel, mode=mode)
            assert rec.config.nu == 0.0, mode
        with pytest.raises(ConfigError, match="nu must be finite and >= 0"):
            fd.config_for(obs, ks, nu=-1e-16)

    def test_nu_zero_takes_the_constant_at_nu_zero(self, kernel_for):
        """A given nu = 0 is used for C_beta too, not replaced by the fitted nu."""
        grid, _ = kernel_for(64, 256)
        obs = observe(np.zeros((64, 256)), sigma=0.5)
        ks = fd.kernel_spectrum(grid)
        cfg = fd.config_for(obs, ks, nu=0.0)
        assert cfg.nu == 0.0
        assert cfg.c_beta == 4.0 / math.sqrt(fd.kernel_bounds(ks, 0.0)[0])

    def test_an_earlier_fit_changes_no_later_config(self, kernel_for):
        """The defaults come from the kernel alone: a fit over another window
        run before on the same spectrum does not leak into them."""
        grid, _ = kernel_for(64, 256)
        obs = observe(np.zeros((64, 256)), sigma=0.5)
        expected = [fd.config_for(obs, fd.kernel_spectrum(grid), nu=nu)
                    for nu in (None, 0.0)]
        ks = fd.kernel_spectrum(grid)
        fd.estimate_nu(ks, (8, 100))
        assert [fd.config_for(obs, ks, nu=nu) for nu in (None, 0.0)] == expected
        assert expected[0].nu == fd.estimate_nu(ks)

    def test_resolved_levels_functional(self, kernel_for):
        _, ks = kernel_for(256, 512)
        obs = observe(np.zeros((256, 512)), sigma=0.5)
        cfg = fd.config_for(obs, ks).resolved(256, 512)
        assert cfg.j == 4 and cfg.j_prime == 8

    def test_resolved_levels_separate(self, kernel_for):
        _, ks = kernel_for(256, 512)
        obs = observe(np.zeros((256, 512)), sigma=0.5)
        cfg = fd.config_for(obs, ks, mode="separate").resolved(256, 512)
        assert cfg.j == 3

    def test_manual_level_beyond_capacity(self, kernel_for):
        _, ks = kernel_for(64, 512)
        obs = observe(np.zeros((64, 512)), sigma=0.5)
        with pytest.raises(LevelTooFine):
            fd.config_for(obs, ks, j=8).resolved(64, 512)

    def test_invalid_parameters(self):
        with pytest.raises(ConfigError):
            fd.EstimatorConfig(c_beta=-1.0, nu=1.0, epsilon=0.1)
        with pytest.raises(ConfigError):
            fd.EstimatorConfig(c_beta=1.0, nu=-0.5, epsilon=0.1)
        with pytest.raises(ConfigError):
            fd.EstimatorConfig(c_beta=1.0, nu=1.0, epsilon=0.1, mode="both")
        with pytest.raises(ConfigError):
            fd.EstimatorConfig(c_beta=1.0, nu=1.0, epsilon=0.1, j=2)

    @pytest.mark.parametrize("nu", [math.nan, math.inf, -0.5])
    def test_a_given_nu_out_of_range_is_named_before_the_fit(self, kernel_for, nu):
        """Such a nu is rejected as itself, with or without C_beta, and not as
        a default C_beta that failed (whose advice, give C_beta, cannot help)."""
        _, ks = kernel_for(64, 256)
        obs = observe(np.zeros((64, 256)), sigma=0.5)
        for c_beta in (None, 1.0):
            with pytest.raises(ConfigError, match=f"nu must be finite and >= 0, got {nu}"):
                fd.config_for(obs, ks, nu=nu, c_beta=c_beta)


class TestPlan:
    def test_a_deconvolve_and_a_monte_carlo_cell_resolve_their_config_once(
            self, kernel_for, monkeypatch):
        """One plan per call and per cell: estimate_coeffs, hard_threshold,
        reconstruct and a cell's replicates read it instead of resolving the
        config, or checking the kernel, again."""
        calls = []
        resolved, check = fd.EstimatorConfig.resolved, estimator.validate_invertible

        def counting(cfg, m, n):
            calls.append((m, n))
            return resolved(cfg, m, n)

        monkeypatch.setattr(fd.EstimatorConfig, "resolved", counting)
        monkeypatch.setattr(estimator, "validate_invertible",
                            lambda ks, band: calls.append("check") or check(ks, band))
        grid, _ = kernel_for(64, 256)
        obs = observe(simlab.product_truth("Quadratic", "Blip", 64, 256), 0.5)
        for mode in ("functional", "separate"):
            calls.clear()
            fd.deconvolve(obs, grid, mode=mode)
            assert calls == [(64, 256), "check"], mode
            calls.clear()
            simlab.run_mise(simlab.SimConfig(m=64, n=256, mode=mode, runs=3))
            assert calls == [(64, 256), "check"], mode

    @pytest.mark.parametrize("mode", ["functional", "separate"])
    def test_fresh_bases_give_bitwise_the_coefficients_of_given_bases(
            self, kernel_for, monkeypatch, mode):
        """A plan without bases reads the Meyer tables shared per (m0, J) (J <= 6)
        or builds its own (J = 7); either way its coefficients are bitwise those
        of a plan given bases whose tables were all built anew."""
        _, ks = kernel_for(32, 512)
        obs = observe(simlab.product_truth("Quadratic", "Blip", 32, 512), 0.5)
        for big_j in (4, 6, 7):
            cfg = fd.config_for(obs, ks, mode=mode, j=big_j)
            with monkeypatch.context() as patch:
                patch.setattr(meyer_module, "_SHARED", {})
                given_bases = fd.estimate(obs, ks, cfg, fd.MeyerBasis(cfg.m0),
                                          fd.SpatialBasis(cfg.m0p))
            for _ in range(2):
                fresh = fd.estimate(obs, ks, cfg)
                assert fresh.entries.tobytes() == given_bases.entries.tobytes(), big_j
                assert np.array_equal(fresh.kept, given_bases.kept), big_j

    def test_the_plan_checks_its_kernel_before_any_data(self, kernel_for):
        """A kernel that vanishes on the Meyer band (K = 11 at J = 4, N = 256)
        is rejected by the plan itself, which holds that kernel by reference,
        naming the rfft column that vanishes."""
        _, ks = kernel_for(64, 256)
        cfg = fd.EstimatorConfig(c_beta=1.0, nu=1.0, epsilon=0.03, j=4)
        assert fd.plan(cfg, ks).kernel is ks
        g = ks.g_coeffs.copy()
        g[:, 5] = 0.0
        with pytest.raises(fd.IllPosedKernel) as err:
            fd.plan(cfg, fd.KernelSpectrum(g))
        assert (err.value.profile, err.value.frequency) == (0, 5)

    def test_hard_threshold_reads_the_plans_read_only_lambda_row(self, monkeypatch):
        """lambda_j is formed once per plan, at each packed time position."""
        coeffs = make_coeffs(np.zeros((16, 32)), c_beta=2.0, nu=0.7, eps=0.03)
        lam = coeffs.plan.lam
        assert not lam.flags.writeable
        for j, ts in coeffs.plan.time_slices.items():
            assert (lam[ts] == fd.threshold_value(j, coeffs.config)).all()
        monkeypatch.setattr(estimator, "threshold_value", None)
        assert fd.hard_threshold(coeffs).kept[:8, :8].all()

    def test_the_plan_holds_the_layout_and_the_weight(self, kernel_for):
        """Functional slices are level_slices on both axes with weight 1;
        separate mode has one block, j' = -1, of M rows, weight 1/M."""
        cfg = fd.EstimatorConfig(c_beta=1.0, nu=1.0, epsilon=0.01, j=5, j_prime=4)
        pl = fd.plan(cfg, kernel_for(16, 128)[1])
        assert pl.time_slices == fd.level_slices(3, 5)
        assert pl.spatial_slices == fd.level_slices(3, 4)
        assert pl.weight == 1.0
        sep = fd.plan(replace(cfg, mode="separate"), kernel_for(5, 128)[1])
        assert sep.time_slices == fd.level_slices(3, 5)
        assert sep.spatial_slices == {-1: slice(0, 5)}
        assert sep.weight == 1.0 / 5
        for mapping in (pl.time_slices, pl.spatial_slices, sep.spatial_slices):
            with pytest.raises(TypeError):
                mapping[0] = slice(0, 1)

    @pytest.mark.parametrize("mode", ["functional", "separate"])
    def test_hard_threshold_builds_no_slices(self, monkeypatch, mode):
        """The exempt block is the first block of each of the plan's axes."""
        coeffs = make_coeffs(np.full((16, 32), 1e-6), c_beta=100.0, mode=mode)
        calls = []
        monkeypatch.setattr(estimator, "level_slices",
                            lambda *a: calls.append(a) or fd.level_slices(*a))
        kept = fd.hard_threshold(coeffs).kept
        assert calls == []
        rows = 16 if mode == "separate" else 8
        assert kept[:rows, :8].all() and kept.sum() == rows * 8


class TestEstimateCoeffs:
    def test_zero_data_gives_zero_coefficients(self, kernel_for):
        _, ks = kernel_for(64, 256)
        obs = observe(np.zeros((64, 256)))
        coeffs, _ = pipeline(obs, ks, j=5, j_prime=6)
        assert not coeffs.entries.any()
        assert coeffs.entries.shape == (64, 32)

    def test_single_atom_is_recovered_exactly(self, meyer, spatial, kernel_for):
        """A single tensor basis function comes back as a unit coefficient
        with everything else at round-off."""
        m = n = 256
        _, ks = kernel_for(m, n)
        tslices = fd.level_slices(3, 5)
        packed = np.zeros((1, 32))
        packed[0, tslices[4].start + 2] = 1.0
        t_part = fd.spectrum_to_samples(meyer.synthesize_t(packed), n)[0]
        sslices = fd.level_slices(3, 8)
        unit = np.zeros(m)
        unit[sslices[4].start + 3] = 1.0
        u_part = spatial.dwt_inverse(unit) * math.sqrt(m)
        obs = observe(np.outer(u_part, t_part))
        coeffs, _ = pipeline(obs, ks, j=5, j_prime=6)
        atom = (sslices[4].start + 3, tslices[4].start + 2)
        assert coeffs.entries[atom] == pytest.approx(1.0, abs=0.02)
        rest = coeffs.entries.copy()
        rest[atom] = 0.0
        assert np.abs(rest).max() < 0.02

    def test_estimates_converge_with_time_resolution(self, kernel_for):
        """sigma = 0 coefficient estimates approach a fine-grid reference:
        every deviation < 2% and the finest grid is the most accurate
        (plain monotonicity fails by aliasing parity; see the N=256 value)."""
        def beta(n):
            truth = simlab.product_truth("Quadratic", "Blip", 64, n)
            _, ks = kernel_for(64, n)
            coeffs, _ = pipeline(observe(truth), ks, j=5, j_prime=6)
            return coeffs.entries

        ref = beta(4096)
        devs = [np.linalg.norm(beta(n) - ref) / np.linalg.norm(ref)
                for n in (128, 256, 512)]
        assert all(d < 0.02 for d in devs)
        assert devs[2] < devs[0]
        assert devs[2] < 1e-3

    @pytest.mark.parametrize("mode", ["functional", "separate"])
    def test_real_and_equal_to_a_full_width_reference(self, meyer, spatial, kernel_for,
                                                      atoms, mode):
        """beta-tilde from the band equals the two-sided sum over fft/N
        spectra of the data divided by the kernel, analysed with the atoms."""
        m, n, big_j, big_jp = 32, 256, 5, 4
        grid, ks = kernel_for(m, n)
        truth = simlab.product_truth("Blip", "Bumps", m, n)
        obs = observe(truth, sigma=0.3, seed=2)
        coeffs, _ = pipeline(obs, ks, mode=mode, j=big_j, j_prime=big_jp)
        assert coeffs.entries.dtype == np.float64

        band = meyer.union_band(big_j)
        ratio = (np.fft.fft(obs.samples, axis=1)[:, band % n]
                 / np.fft.fft(grid, axis=1)[:, band % n])
        timec = ratio @ atoms(meyer, big_j, band).conj().T     # (M, 2^J)
        assert np.abs(timec.imag).max() < 1e-12 * np.abs(timec).max()
        timec = timec.real                       # the spatial DWT takes real rows
        if mode == "functional":
            want = (spatial.dwt_forward(timec.T) / math.sqrt(m))[:, :2**big_jp].T
        else:
            want = timec
        scale = np.abs(want).max()               # noise amplified to ~400
        np.testing.assert_allclose(coeffs.entries, want, rtol=0, atol=1e-12 * scale)

    def test_mismatched_kernel_shape_rejected(self, kernel_for):
        """The half spectrum of a longer grid, and of a shorter one: the 65
        columns of N = 128 data are not a K-column band of N = 256 data."""
        _, ks = kernel_for(64, 256)
        cfg = fd.EstimatorConfig(c_beta=1.0, nu=2.0, epsilon=0.0, j=4)
        assert fd.MeyerBasis().band_size(4, 256) == 11
        for n in (512, 128):
            obs = observe(np.zeros((64, n)))
            with pytest.raises(ConfigError, match="K=11 band columns"):
                fd.estimate_coeffs(fd.fourier_coeffs(obs.samples), fd.plan(cfg, ks))

    @pytest.mark.parametrize("mode", ["functional", "separate"])
    def test_a_band_prefix_and_the_full_half_give_the_same_coefficients(
            self, kernel_for, mode):
        """The K band columns and the whole N/2 + 1 read the same band; any
        other width, or another M, is rejected."""
        _, ks = kernel_for(64, 256)
        obs = observe(simlab.product_truth("Quadratic", "Blip", 64, 256), 0.5)
        cfg = fd.config_for(obs, ks, mode=mode).resolved(64, 256)
        k = fd.MeyerBasis().band_size(cfg.j, 256)
        full = fd.fourier_coeffs(obs.samples)
        want = fd.estimate_coeffs(full, fd.plan(cfg, ks)).entries
        got = fd.estimate_coeffs(full[:, :k].copy(), fd.plan(cfg, ks)).entries
        assert got.tobytes() == want.tobytes()
        padded = np.concatenate([full, full[:, :1]], axis=1)
        for spec in (full[:, :k - 1], full[:, :k + 1], padded, full[:32]):
            with pytest.raises(ConfigError, match=f"K={k}"):
                fd.estimate_coeffs(spec, fd.plan(cfg, ks))

    def test_separate_mode_keeps_profiles(self, kernel_for):
        _, ks = kernel_for(64, 256)
        obs = observe(simlab.product_truth("Quadratic", "Blip", 64, 256))
        cfg = fd.config_for(obs, ks, mode="separate", j=5)
        coeffs = fd.estimate_coeffs(fd.fourier_coeffs(obs.samples), fd.plan(cfg, ks))
        assert coeffs.entries.shape == (64, 32)
        assert coeffs.config.mode == "separate"
        assert coeffs.plan.spatial_slices == {-1: slice(0, 64)}


def make_coeffs(entries, c_beta=1.0, nu=0.0, eps=0.01, mode="functional", n=None):
    """Coefficients at m0 = m0' = 3 whose config's J and J' (functional
    mode; 3 in separate mode) are read off the shape of ``entries``, planned
    on the reference kernel of a grid with one profile per row and N samples
    (default 2^(J+2))."""
    entries = np.asarray(entries)
    if not np.iscomplexobj(entries):
        entries = entries.astype(float)
    rows, cols = entries.shape
    jp = int(np.log2(rows)) if mode == "functional" else 3
    cfg = fd.EstimatorConfig(c_beta=c_beta, nu=nu, epsilon=eps, mode=mode,
                             j=int(np.log2(cols)), j_prime=jp)
    n = n or 2 ** (cfg.j + 2)
    return HyperCoeffs(entries, fd.plan(cfg, fd.kernel_spectrum(simlab.kernel_grid(rows, n))))


class TestHardThreshold:
    def test_zero_constant_keeps_everything(self):
        rng = np.random.default_rng(0)
        coeffs = make_coeffs(rng.standard_normal((16, 16)), c_beta=0.0)
        out = fd.hard_threshold(coeffs)
        assert out.kept.all()
        np.testing.assert_array_equal(out.thresholded(), coeffs.entries)

    def test_everything_below_kills_details_keeps_corner(self):
        out = fd.hard_threshold(make_coeffs(np.full((16, 16), 1e-6), c_beta=100.0))
        kept = out.kept
        assert kept[:8, :8].all()              # scaling x scaling corner
        assert not kept[8:, :].any()
        assert not kept[:, 8:].any()
        arr = out.thresholded()
        assert not arr[8:, :].any() and not arr[:, 8:].any()
        assert arr[:8, :8].all()

    def test_exact_tie_is_killed(self):
        lam3 = fd.threshold_value(3, fd.EstimatorConfig(c_beta=2.0, nu=1.0, epsilon=0.01))
        entries = np.zeros((16, 16))
        entries[9, 9] = lam3               # level (3,3), exactly at threshold
        entries[9, 10] = lam3 * (1 + 1e-9)
        out = fd.hard_threshold(make_coeffs(entries, c_beta=2.0, nu=1.0, eps=0.01))
        assert not out.kept[9, 9]
        assert out.kept[9, 10]

    def test_mixed_blocks_are_not_exempt(self):
        """Time-scaling x spatial-detail blocks (and the transpose) face the
        threshold; only the scaling x scaling corner is exempt."""
        coeffs = make_coeffs(np.full((16, 16), 1e-6), c_beta=100.0)
        kept = fd.hard_threshold(coeffs).kept
        assert not kept[8:, :8].any()          # spatial detail, time scaling
        assert not kept[:8, 8:].any()          # spatial scaling, time detail

    def test_separate_mode_exempts_time_scaling(self):
        coeffs = make_coeffs(np.full((5, 16), 1e-6), c_beta=100.0, mode="separate")
        kept = fd.hard_threshold(coeffs).kept
        assert kept[:, :8].all()
        assert not kept[:, 8:].any()

    @given(st.floats(0.0, 50.0), st.floats(0.0, 50.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_kept_set_shrinks_as_constant_grows(self, c_a, c_b, seed):
        c_a, c_b = sorted((c_a, c_b))
        entries = np.random.default_rng(seed).standard_normal((16, 16))
        kept_a = fd.hard_threshold(make_coeffs(entries, c_beta=c_a)).kept
        kept_b = fd.hard_threshold(make_coeffs(entries, c_beta=c_b)).kept
        assert np.all(kept_b <= kept_a)

    @pytest.mark.parametrize("mode,rows", [("functional", 16), ("separate", 5)])
    def test_kept_mask_matches_a_per_position_reference(self, mode, rows):
        """Each entry faces the threshold of its own time level; only the
        time scaling block of the first spatial block (functional: the
        scaling x scaling corner, separate: every profile) is exempt."""
        def label(pos, m0):
            return m0 - 1 if pos < 2**m0 else pos.bit_length() - 1

        entries = 0.3 * np.random.default_rng(2).standard_normal((rows, 32))
        coeffs = make_coeffs(entries, c_beta=1.0, nu=0.7, eps=0.03, mode=mode)
        cfg = coeffs.config
        kept = fd.hard_threshold(coeffs).kept
        want = np.zeros(entries.shape, dtype=bool)
        for s in range(rows):
            for tau in range(32):
                j = label(tau, 3)
                first_block = mode == "separate" or label(s, 3) == 2
                want[s, tau] = (j == 2 and first_block) \
                    or abs(entries[s, tau]) > fd.threshold_value(j, cfg)
        np.testing.assert_array_equal(kept, want)

    def test_per_level_rule(self):
        """Within every (j', j) block survivors are exactly the entries with
        |value| strictly above the level-j threshold."""
        rng = np.random.default_rng(1)
        coeffs = make_coeffs(0.2 * rng.standard_normal((16, 16)), nu=0.7, eps=0.03)
        out = fd.hard_threshold(coeffs)
        for j, ts in out.plan.time_slices.items():
            lam = fd.threshold_value(j, coeffs.config)   # scaling block prices at j = m0-1
            for jp, ss in out.plan.spatial_slices.items():
                block = coeffs.entries[ss, ts]
                kept = out.kept[ss, ts]
                if j == 2 and jp == 2:
                    assert kept.all()
                else:
                    np.testing.assert_array_equal(kept, np.abs(block) > lam)


class TestReconstruct:
    def test_zero_coefficients_give_zero_field(self):
        rec = fd.reconstruct(make_coeffs(np.zeros((16, 16)), n=128))
        assert rec.values.shape == (16, 128)
        np.testing.assert_allclose(rec.values, 0.0, atol=1e-14)

    def test_single_coefficient_reconstructs_its_atom(self, meyer, spatial):
        entries = np.zeros((16, 16))
        sslices = fd.level_slices(3, 4)
        tslices = fd.level_slices(3, 4)
        entries[sslices[3].start + 1, tslices[3].start + 2] = 1.0
        rec = fd.reconstruct(make_coeffs(entries, n=128))
        packed = np.zeros((1, 16))
        packed[0, tslices[3].start + 2] = 1.0
        t_part = fd.spectrum_to_samples(meyer.synthesize_t(packed), 128)[0]
        unit = np.zeros(16)
        unit[sslices[3].start + 1] = 1.0
        u_part = spatial.dwt_inverse(unit) * math.sqrt(16)
        np.testing.assert_allclose(rec.values, np.outer(u_part, t_part), atol=1e-10)

    @pytest.mark.parametrize("entries,mode", [
        (np.zeros((16, 16)), "functional"),   # 2^J' = 16 > M = 8
        (np.zeros((5, 16)), "separate"),      # 5 profiles, M = 8
    ], ids=["functional-rows-above-m", "separate-rows-not-m"])
    def test_coefficients_that_do_not_fit_the_grid_are_rejected(self, entries, mode):
        """Coefficients paired with the plan of an 8 x 64 grid."""
        pl = make_coeffs(np.zeros((8, 16)), mode=mode).plan
        shape_and_grid = re.escape(str(entries.shape)) + ".*" + re.escape("(8, 64)")
        with pytest.raises(ConfigError, match=shape_and_grid):
            fd.reconstruct(HyperCoeffs(entries, pl))

    @pytest.mark.parametrize("mode", ["functional", "separate"])
    def test_the_reconstruction_has_the_plans_shape(self, mode):
        coeffs = make_coeffs(np.ones((16, 32)), mode=mode)
        assert fd.reconstruct(coeffs).values.shape == coeffs.plan.shape == (16, 128)

    def test_in_span_truth_roundtrips(self, spatial, kernel_for):
        """sigma = 0, thresholds off: a truth inside the model span is
        recovered to round-off by both modes, and the modes agree."""
        rng = np.random.default_rng(11)
        m, n = 64, 256
        coarse = np.zeros(m)
        coarse[:16] = rng.standard_normal(16)
        f1 = spatial.dwt_inverse(coarse) * math.sqrt(m)
        spec = np.zeros(n // 2 + 1, dtype=complex)
        re, im = rng.standard_normal(22), rng.standard_normal(22)
        spec[0] = re[0]
        spec[1:22] = re[1:] + 1j * im[1:]        # strict interior at J = 6
        f2 = fd.spectrum_to_samples(spec.reshape(1, -1))[0]
        truth = np.outer(f1, f2)
        obs = observe(truth)
        grid, ks = kernel_for(m, n)
        outs = {}
        for mode in ("functional", "separate"):
            rec = fd.deconvolve(obs, grid, mode=mode, nu=fd.estimate_nu(ks), c_beta=0.0,
                                j=6, j_prime=6)
            err = np.linalg.norm(rec.values - truth) / np.linalg.norm(truth)
            assert err < 1e-6, mode
            outs[mode] = rec.values
        assert np.abs(outs["functional"] - outs["separate"]).max() < 1e-8

    def test_broken_symmetry_is_caught(self):
        """Coefficients of a real field are real: complex entries raise in
        both modes, down to a 1e-15 imaginary part and a zero one; real
        entries reconstruct unchanged."""
        rng = np.random.default_rng(3)
        entries = rng.standard_normal((16, 16))
        for mode in ("functional", "separate"):
            base = fd.reconstruct(make_coeffs(entries, mode=mode, n=128)).values
            assert base.dtype == np.float64 and base.shape == (16, 128)
            for delta in (1.0, 1e-3, 1e-15, 0.0):
                perturbed = entries.astype(complex)
                perturbed[9, 3] += 1j * delta
                with pytest.raises(ConfigError, match="complex"):
                    fd.reconstruct(make_coeffs(perturbed, mode=mode, n=128))
            again = fd.reconstruct(make_coeffs(entries.copy(), mode=mode, n=128))
            assert np.array_equal(again.values, base), mode


class TestSampleRows:
    """``sample_rows`` streams the estimate a block of rows at a time; the blocks
    are bitwise the rows of ``reconstruct``, which fills its grid from them."""

    @pytest.mark.parametrize("m,n,mode,sigma,blocks", [
        (256, 512, "functional", 0.5, [32] * 8),
        (256, 512, "separate", 0.5, [32] * 8),
        (100, 512, "separate", 0.5, [32, 32, 32, 4]),          # a partial last block
        (256, 256, "functional", 0.0, [128, 128]),              # capacity K: the irfft route
        (160, 8192, "separate", 0.5, [128, 32]),                # the matmul's row floor
    ], ids=["functional", "separate", "partial", "irfft", "row-floor"])
    def test_blocks_concatenate_to_the_reconstruction_bitwise(self, kernel_for, m, n, mode,
                                                               sigma, blocks):
        _, ks = kernel_for(m, n)
        obs = observe(simlab.product_truth("Blip", "Bumps", m, n), sigma, seed=2)
        coeffs = fd.estimate(obs, ks, mode=mode)
        k = coeffs.plan.k
        assert fd.spectra._matmul_band(k, n) == (sigma > 0)
        source = fd.sample_rows(coeffs)
        assert (source.m, source.n, source.sigma) == (m, n, 0.0)
        seen = [(start, rows.copy(), rows.ctypes.data) for start, rows in source.row_blocks()]
        assert [len(rows) for _, rows, _ in seen] == blocks
        assert [start for start, _, _ in seen] == list(np.cumsum([0] + blocks[:-1]))
        assert len({address for _, _, address in seen}) == 1     # one reused buffer
        values = np.concatenate([rows for _, rows, _ in seen])
        assert values.tobytes() == fd.reconstruct(coeffs).values.tobytes()
        assert values.tobytes() == fd.deconvolve(obs, ks, mode=mode).values.tobytes()

    def test_coefficients_are_checked_before_any_block(self):
        """A row source of coefficients that cannot be inverted is never made."""
        pl = make_coeffs(np.zeros((8, 16)), mode="separate").plan
        with pytest.raises(ConfigError, match="do not fit"):
            fd.sample_rows(HyperCoeffs(np.zeros((5, 16)), pl))
        with pytest.raises(ConfigError, match="complex"):
            fd.sample_rows(HyperCoeffs(np.zeros((8, 16), dtype=complex), pl))

    def test_estimate_is_the_thresholded_coefficients_of_deconvolve(self, kernel_for):
        _, ks = kernel_for(64, 256)
        obs = observe(simlab.product_truth("Quadratic", "Blip", 64, 256), 0.5)
        coeffs, rec = fd.estimate(obs, ks), fd.deconvolve(obs, ks)
        assert coeffs.entries.tobytes() == rec.coeffs.entries.tobytes()
        assert np.array_equal(coeffs.kept, rec.coeffs.kept)
        assert not coeffs.kept.all()


class TestDeconvolve:
    def test_noise_halving_scales_error(self, kernel_for):
        """Against a sigma = 0 baseline, squared error from noise scales by
        ~4 when sigma halves (kept-set changes add slack)."""
        grid, ks = kernel_for(64, 512)
        truth = simlab.product_truth("Quadratic", "Blip", 64, 512)
        nu = fd.estimate_nu(ks)
        base = fd.deconvolve(observe(truth), grid, nu=nu, j=4, j_prime=6).values
        errs = {}
        for sigma in (0.25, 0.5):
            acc = 0.0
            for rep in range(8):
                obs = observe(truth, sigma=sigma, rep=rep)
                rec = fd.deconvolve(obs, grid, nu=nu, j=4, j_prime=6)
                acc += ((rec.values - base) ** 2).mean()
            errs[sigma] = acc / 8
        assert errs[0.5] / errs[0.25] == pytest.approx(4.0, rel=0.2)

    def test_reproducible_bitwise(self, kernel_for):
        grid, _ = kernel_for(64, 256)
        truth = simlab.product_truth("Blip", "Bumps", 64, 256)
        a = fd.deconvolve(observe(truth, 0.5, rep=3), grid).values
        b = fd.deconvolve(observe(truth, 0.5, rep=3), grid).values
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("sigma", [0.0, 0.5], ids=["capacity", "noisy"])
    def test_the_data_band_agrees_with_the_full_fft_path(self, kernel_for,
                                                        monkeypatch, sigma):
        """``deconvolve`` transforms only the K band columns. At sigma = 0 the
        levels sit at capacity, K = 22 > 2 log2 N = 14, so both transforms
        stay FFTs and the output is byte for byte the full-width rfft/irfft
        pipeline's; at sigma = 0.5 (K = 6) the matmuls agree with it to
        rounding."""
        _, ks = kernel_for(64, 128)
        obs = observe(simlab.product_truth("Quadratic", "Blip", 64, 128), sigma)
        rec = fd.deconvolve(obs, ks)
        cfg = rec.config
        full = np.fft.rfft(obs.samples, axis=1, norm="forward")
        monkeypatch.setattr(estimator, "spectrum_to_samples",
                            lambda c, n, out=None: np.fft.irfft(c, n, axis=-1, norm="forward",
                                                           out=out))
        ref = fd.reconstruct(fd.hard_threshold(fd.estimate_coeffs(full, fd.plan(cfg, ks))))
        k = fd.MeyerBasis().band_size(cfg.j, 128)
        if sigma == 0:
            assert k > 2 * 7
            assert rec.values.tobytes() == ref.values.tobytes()
        else:
            assert k <= 2 * 7
            np.testing.assert_allclose(rec.values, ref.values, rtol=0,
                                       atol=1e-12 * np.abs(ref.values).max())

    @pytest.mark.parametrize("m", [1, 4, 6])
    def test_separate_mode_takes_fewer_profiles_than_the_coarsest_spatial_block(
            self, kernel_for, m):
        """Separate mode never transforms across profiles, so it runs on
        M < 2^m0' = 8: each profile's estimate is that of the same row of an
        8-profile grid, and the unused J' resolves to m0'. Functional mode
        still needs a power-of-two M of at least 2^m0'."""
        grid, _ = kernel_for(8, 256)
        obs = observe(simlab.product_truth("Blip", "Bumps", 8, 256), 0.5, rep=1)
        fixed = dict(nu=1.85, c_beta=3.0)
        whole = fd.deconvolve(obs, grid, mode="separate", **fixed)
        part_obs = fd.ObservationGrid(obs.samples[:m], sigma=0.5)
        part = fd.deconvolve(part_obs, grid[:m], mode="separate", **fixed)
        assert (part.config.j, part.config.j_prime) == (whole.config.j, 3)
        np.testing.assert_allclose(part.coeffs.entries, whole.coeffs.entries[:m], rtol=0,
                                   atol=1e-12 * np.abs(whole.coeffs.entries).max())
        np.testing.assert_allclose(part.values, whole.values[:m], rtol=0,
                                   atol=1e-12 * np.abs(whole.values).max())
        with pytest.raises(ConfigError, match="M=" + str(m)):
            fd.deconvolve(part_obs, grid[:m], mode="functional", **fixed)

    @pytest.mark.parametrize("m0p", [2**31, 10**400])
    def test_separate_mode_resolves_a_huge_m0p_without_forming_two_to_it(self, m0p):
        """Separate mode resolves J' = m0' for any m0' beyond log2 M at once;
        forming 2^m0' took 18 s at m0' = 2^31 and all memory at 10^400.
        Functional mode rejects it."""
        def config(mode):
            return fd.EstimatorConfig(c_beta=1.0, nu=1.0, epsilon=0.1, m0p=m0p, mode=mode)
        assert config("separate").resolved(16, 64).j_prime == m0p
        with pytest.raises(ConfigError, match="m0'"):
            config("functional").resolved(16, 64)

    def test_config_and_kwargs_conflict(self, kernel_for):
        grid, ks = kernel_for(64, 256)
        obs = observe(np.zeros((64, 256)), 0.1)
        cfg = fd.config_for(obs, ks)
        with pytest.raises(ConfigError):
            fd.deconvolve(obs, grid, cfg=cfg, c_beta=3.0)

    def test_config_and_mode_conflict(self, kernel_for):
        """``mode`` is a config keyword like the others: next to a ``cfg`` it
        raises instead of being ignored."""
        grid, ks = kernel_for(64, 256)
        obs = observe(np.zeros((64, 256)), 0.1)
        cfg = fd.config_for(obs, ks)
        with pytest.raises(ConfigError, match="not both"):
            fd.deconvolve(obs, grid, cfg=cfg, mode="separate")

    def test_returns_config_and_flags(self, kernel_for):
        grid, _ = kernel_for(64, 256)
        obs = observe(simlab.product_truth("Quadratic", "Blip", 64, 256), 0.5)
        rec = fd.deconvolve(obs, grid)
        assert rec.config.j is not None and rec.config.j_prime is not None
        assert rec.coeffs.kept.any()
        assert not rec.coeffs.kept.all()

    @pytest.mark.parametrize("basis,levels", [
        ({"meyer_basis": fd.MeyerBasis(4)}, "m0=4.*m0=3"),
        ({"spatial_basis": fd.SpatialBasis(m0p=1)}, "m0'=1.*m0'=3"),
    ], ids=["meyer_m0_4", "spatial_m0p_1"])
    def test_a_basis_at_other_levels_than_the_config_is_rejected(self, kernel_for,
                                                                 basis, levels):
        """Coefficients are laid out at the config's coarsest levels, so a basis
        at other levels would mislabel every block; the plan, and a
        deconvolve that is given the basis, name both levels."""
        _, ks = kernel_for(64, 256)
        obs = observe(simlab.product_truth("Quadratic", "Blip", 64, 256), 0.1)
        cfg = fd.config_for(obs, ks).resolved(64, 256)
        with pytest.raises(ConfigError, match=levels):
            fd.plan(cfg, ks, **basis)
        with pytest.raises(ConfigError, match=levels):
            fd.deconvolve(obs, ks, cfg=cfg, **basis)

    def test_a_data_grid_and_a_kernel_of_other_shapes_are_rejected(self):
        """Only a library call reaches this check: the CLI compares the file
        headers first."""
        obs = fd.ObservationGrid(np.zeros((8, 64)), sigma=0.5)
        with pytest.raises(ConfigError, match=r"^data grid 8 x 64 and kernel grid "
                                              r"16 x 64 differ in shape$"):
            fd.estimate(obs, simlab.kernel_grid(16, 64))

    def test_finite_arithmetic_turns_a_floating_point_error_into_a_config_error(self):
        with pytest.raises(ConfigError, match=r"^floating-point overflow encountered in "
                                              r"multiply \(input values or parameters "
                                              r"out of range\)$"):
            with estimator.finite_arithmetic():
                np.array([1e308]) * 10.0

    def test_values_near_the_float_limit_raise_instead_of_returning_nan(self):
        """Finite samples whose spectrum overflows stop with a ConfigError and
        no RuntimeWarning, instead of a grid of NaNs."""
        obs = fd.ObservationGrid(np.full((16, 64), 1e307), sigma=0.5)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ConfigError, match="overflow"):
                fd.deconvolve(obs, simlab.kernel_grid(16, 64))
        assert not caught
