"""Convergence-rate exponents, anisotropic smoothness norms, strategy choice."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import funcdeconv as fd
from funcdeconv.estimator import HyperCoeffs
from funcdeconv.exceptions import ConfigError
from funcdeconv.rates import RegimeWarning


def ball(s1, s2, p=2, q=2):
    s2 = s2 if isinstance(s2, tuple) else (s2,)
    return fd.BesovBall(s1=s1, s2_vec=s2, p=p, q=q)


class TestWorkedExamples:
    def test_dense_spatial(self):
        rep = fd.exponent_2d(ball(4, 1), nu=1)
        assert rep.d == Fraction(2, 3)
        assert rep.d1 == 0
        assert rep.regime == "DenseSpatial"

    def test_dense_time(self):
        rep = fd.exponent_2d(ball(2, 1), nu=1)
        assert rep.d == Fraction(4, 7)
        assert rep.d1 == 0
        assert rep.regime == "DenseTime"

    def test_sparse(self):
        rep = fd.exponent_2d(ball(Fraction(6, 5), 1, p=1), nu=2)
        assert rep.d == Fraction(7, 27)
        assert rep.regime == "Sparse"

    def test_sparse_effective_smoothness(self):
        b = ball(Fraction(6, 5), 1, p=1)
        assert b.s1_prime == Fraction(7, 10)

    def test_multivariate(self):
        rep = fd.exponent_multi(fd.BesovBall(s1=4, s2_vec=(1, 1, 2)), nu=1)
        assert rep.d == Fraction(2, 3)
        assert rep.d1 == 1

    def test_extra_smooth_axes_do_not_change_the_exponent(self):
        base = fd.exponent_multi(fd.BesovBall(s1=2, s2_vec=(1,)), nu=1)
        extended = fd.exponent_multi(fd.BesovBall(s1=2, s2_vec=(1, 5, 9)), nu=1)
        assert extended.d == base.d


class TestCaseSelection:
    def admissible(self):
        rat = st.fractions(min_value=Fraction(1, 10), max_value=Fraction(6, 1),
                           max_denominator=12)
        nu_rat = st.fractions(min_value=Fraction(0, 1), max_value=Fraction(4, 1),
                              max_denominator=6)
        p_st = st.sampled_from([1, Fraction(3, 2), 2, 3])
        return rat, nu_rat, p_st

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_case_form_equals_min_form(self, data):
        """The three-branch selection agrees with min over the candidate
        exponents on every admissible (in-regime) parameter draw."""
        from hypothesis import assume
        rat, nu_rat, p_st = self.admissible()
        s1, s20 = data.draw(rat), data.draw(rat)
        nu, p = data.draw(nu_rat), data.draw(p_st)
        b = fd.BesovBall(s1=s1, s2_vec=(s20,), p=p)
        assume(b.in_regime())
        rep = fd.exponent_2d(b, nu)
        assert rep.d == fd.exponent_min_form(b, nu)
        assert not rep.regime_warning

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_exponent_in_unit_interval(self, data):
        from hypothesis import assume
        rat, nu_rat, p_st = self.admissible()
        b = fd.BesovBall(s1=data.draw(rat), s2_vec=(data.draw(rat),),
                         p=data.draw(p_st))
        assume(b.in_regime())
        rep = fd.exponent_2d(b, data.draw(nu_rat))
        assert 0 < rep.d < 1
        assert rep.d1 in (0, 1, 2)

    def test_dense_boundary_collects_log_factor(self):
        rep = fd.exponent_2d(ball(3, 1), nu=1)       # s1 = s2 (2 nu + 1)
        assert rep.d1 == 1
        assert rep.on_dense_boundary

    def test_sparse_boundary_collects_log_factor(self):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeWarning)
            rep = fd.exponent_2d(ball(Fraction(3, 2), Fraction(1, 2), p=1), nu=1)
        assert rep.on_dense_boundary or rep.on_sparse_boundary

    def test_regime_warning_emitted_and_flagged(self):
        with pytest.warns(RegimeWarning):
            rep = fd.exponent_2d(ball(Fraction(1, 4), 2, p=2), nu=1)
        assert rep.regime_warning
        assert 0 < rep.d < 1

    def test_2d_helper_requires_one_spatial_axis(self):
        with pytest.raises(ConfigError):
            fd.exponent_2d(fd.BesovBall(s1=2, s2_vec=(1, 1)), nu=1)

    def test_negative_nu_rejected(self):
        with pytest.raises(ConfigError):
            fd.exponent_2d(ball(2, 1), nu=-1)

    @pytest.mark.parametrize("s1,s2", [(math.inf, (1,)), (1, (math.inf,)),
                                       (1, (1, math.inf))],
                             ids=["s1", "s2", "second_s2"])
    def test_infinite_smoothness_rejected(self, s1, s2):
        with pytest.raises(ConfigError, match="finite"):
            fd.BesovBall(s1=s1, s2_vec=s2)

    def test_infinite_nu_rejected(self):
        with pytest.raises(ConfigError, match="finite"):
            fd.exponent_multi(ball(2, 1), math.inf)

    def test_p_above_two_keeps_the_arithmetic_exact(self):
        """p' = min(p, 2) stays a Fraction for p = inf, so a nu beyond the
        float range is no float overflow."""
        b = ball(Fraction(1, 2), 1, p=math.inf)
        assert isinstance(b.s1_prime, Fraction)
        rep = fd.exponent_multi(b, Fraction(10**400))
        assert rep.regime == "DenseTime" and rep.d == Fraction(1, 2 + 2 * 10**400)

    def test_exponent_beyond_the_float_range_rejected(self):
        """Far outside the regime (s1' < 0), d = s1' / (s1' + nu) can be huge."""
        with pytest.raises(ConfigError, match="float range"):
            fd.exponent_multi(ball(Fraction(1, 4), 1, p=1),
                              Fraction(1, 4) + Fraction(1, 10**400))

    def test_ball_validation(self):
        with pytest.raises(ConfigError):
            fd.BesovBall(s1=1, s2_vec=())
        with pytest.raises(ConfigError):
            fd.BesovBall(s1=1, s2_vec=(1,), p=0.5)
        with pytest.raises(ConfigError):
            fd.BesovBall(s1=1, s2_vec=(1,), a_radius=0.0)

    def test_report_serializes(self):
        d = fd.exponent_2d(ball(2, 1), nu=1).as_dict()
        assert d["d"] == pytest.approx(4 / 7)
        assert d["regime"] == "DenseTime"
        assert d["d1"] == 0


def coeffs_with(entries, mode="functional"):
    entries = np.asarray(entries, dtype=complex)
    cfg = fd.EstimatorConfig(c_beta=1.0, nu=1.0, epsilon=0.0, mode=mode,
                             j=int(np.log2(entries.shape[1])),
                             j_prime=int(np.log2(entries.shape[0])))
    return HyperCoeffs(entries, cfg)


class TestBesovNorm:
    def test_zero(self):
        assert fd.besov_norm(coeffs_with(np.zeros((16, 16))), 2.0, 1.0) == 0.0

    def test_single_coefficient_scaling(self):
        entries = np.zeros((16, 16))
        entries[9, 10] = 3.0            # levels (j', j) = (3, 3)
        got = fd.besov_norm(coeffs_with(entries), 2.0, 1.0)
        s1s = 2.0 + 0.5 - 0.5           # s1 + 1/2 - 1/p
        s2s = 1.0 + 0.5 - 0.5
        assert got == pytest.approx(3.0 * 2 ** (3 * s1s) * 2 ** (3 * s2s), rel=1e-12)

    def test_p_q_two_is_weighted_l2(self):
        rng = np.random.default_rng(0)
        entries = rng.standard_normal((16, 16))
        c = coeffs_with(entries)
        got = fd.besov_norm(c, 1.0, 1.0)
        acc = 0.0
        for j, ts in c.time_slices().items():
            for jp, ss in c.spatial_slices().items():
                block = entries[ss, ts]
                acc += 4.0 ** (j * 1.0 + jp * 1.0) * (np.abs(block) ** 2).sum()
        assert got == pytest.approx(math.sqrt(acc), rel=1e-10)

    @given(st.floats(0.1, 10.0))
    @settings(max_examples=25, deadline=None)
    def test_homogeneous(self, scale):
        rng = np.random.default_rng(7)
        entries = rng.standard_normal((16, 16))
        base = fd.besov_norm(coeffs_with(entries), 1.5, 0.5)
        assert fd.besov_norm(coeffs_with(scale * entries), 1.5, 0.5) == \
            pytest.approx(scale * base, rel=1e-10)

    def test_monotone_in_coefficients(self):
        rng = np.random.default_rng(8)
        entries = np.abs(rng.standard_normal((16, 16)))
        bumped = entries.copy()
        bumped[12, 12] += 1.0
        assert fd.besov_norm(coeffs_with(bumped), 1.0, 1.0) > \
            fd.besov_norm(coeffs_with(entries), 1.0, 1.0)

    def test_sup_norm_variant(self):
        """p = q = inf: a single corner coefficient picks up 2^{j(s+1/2)} weights."""
        entries = np.zeros((16, 16))
        entries[0, 0] = 2.0
        got = fd.besov_norm(coeffs_with(entries), 1.0, 1.0, p=math.inf, q=math.inf)
        assert got == pytest.approx(2.0 * 2 ** (2 * 1.5) * 2 ** (2 * 1.5), rel=1e-10)

    def test_separate_mode_rejected(self):
        with pytest.raises(ConfigError):
            fd.besov_norm(coeffs_with(np.zeros((8, 16)), mode="separate"), 1.0, 1.0)


class TestCompareStrategies:
    def test_worked_example_prefers_separate(self):
        rep = fd.compare_strategies(10, 0.6, 0, m=4, n=65536)
        assert rep.verdict == "SeparateBetter"
        exponent = (10 - 0.6) / (0.6 * (20 + 1))
        assert rep.exponent == pytest.approx(exponent, rel=1e-12)
        assert rep.surrogate == pytest.approx(4 * 65536.0 ** -exponent, rel=1e-12)

    def test_smooth_spatial_prefers_functional(self):
        rep = fd.compare_strategies(1, 1, 1, m=256, n=65536)
        assert rep.verdict == "FunctionalBetter"

    def test_boundary_detected(self):
        rep = fd.compare_strategies(1.5, 0.5, 0, m=256, n=65536)
        assert rep.surrogate == pytest.approx(1.0, abs=1e-12)
        assert rep.verdict == "Boundary"

    def test_growing_m_flips_to_functional(self):
        low = fd.compare_strategies(10, 0.6, 0, m=4, n=65536)
        high = fd.compare_strategies(10, 0.6, 0, m=2**18, n=65536)
        assert low.verdict == "SeparateBetter"
        assert high.verdict == "FunctionalBetter"

    @pytest.mark.parametrize("s1,s2,nu", [(math.inf, 1, 1), (1, math.inf, 1),
                                          (1, 1, math.inf), (Fraction(10**400), 1, 1)],
                             ids=["s1", "s2", "nu", "s1_beyond_float"])
    def test_infinite_parameters_rejected(self, s1, s2, nu):
        with pytest.raises(ConfigError, match="finite"):
            fd.compare_strategies(s1, s2, nu, m=4, n=64)

    def test_non_finite_exponent_rejected(self):
        """s2 (2 nu + 1) overflows to inf and the exponent to NaN."""
        with pytest.raises(ConfigError, match="finite exponent"):
            fd.compare_strategies(1e300, 1e300, 1e300, m=4, n=64)

    def test_report_serializes(self):
        rep = fd.compare_strategies(10, 0.6, 0, m=4, n=65536)
        assert set(rep.as_dict()) == {"verdict", "surrogate", "exponent"}
        assert "asymptotic" in rep.note
