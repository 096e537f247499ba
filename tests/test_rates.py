"""Convergence-rate exponents and strategy choice."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import funcdeconv as fd
from funcdeconv.exceptions import ConfigError
from funcdeconv.rates import RegimeWarning


def ball(s1, s2, p=2, q=2):
    s2 = s2 if isinstance(s2, tuple) else (s2,)
    return fd.BesovBall(s1=s1, s2_vec=s2, p=p, q=q)


class TestWorkedExamples:
    def test_dense_spatial(self):
        rep = fd.exponent_multi(ball(4, 1), nu=1)
        assert rep.d == Fraction(2, 3)
        assert rep.d1 == 0
        assert rep.regime == "DenseSpatial"

    def test_dense_time(self):
        rep = fd.exponent_multi(ball(2, 1), nu=1)
        assert rep.d == Fraction(4, 7)
        assert rep.d1 == 0
        assert rep.regime == "DenseTime"

    def test_sparse(self):
        rep = fd.exponent_multi(ball(Fraction(6, 5), 1, p=1), nu=2)
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
    def test_case_form_equals_min_form(self, min_form, data):
        """The three-branch selection agrees with min over the candidate
        exponents on every admissible (in-regime) parameter draw."""
        from hypothesis import assume
        rat, nu_rat, p_st = self.admissible()
        s1, s20 = data.draw(rat), data.draw(rat)
        nu, p = data.draw(nu_rat), data.draw(p_st)
        b = fd.BesovBall(s1=s1, s2_vec=(s20,), p=p)
        assume(b.in_regime())
        rep = fd.exponent_multi(b, nu)
        assert rep.d == min_form(b, nu)
        assert not rep.regime_warning

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_exponent_in_unit_interval(self, data):
        from hypothesis import assume
        rat, nu_rat, p_st = self.admissible()
        b = fd.BesovBall(s1=data.draw(rat), s2_vec=(data.draw(rat),),
                         p=data.draw(p_st))
        assume(b.in_regime())
        rep = fd.exponent_multi(b, data.draw(nu_rat))
        assert 0 < rep.d < 1
        assert rep.d1 in (0, 1, 2)

    def test_dense_boundary_collects_log_factor(self):
        rep = fd.exponent_multi(ball(3, 1), nu=1)       # s1 = s2 (2 nu + 1)
        assert rep.d1 == 1

    def test_sparse_boundary_collects_log_factor(self):
        rep = fd.exponent_multi(ball(Fraction(3, 2), 1, p=1), nu=1)
        # s1 = (1/p - 1/2)(2 nu + 1), but s1 < s2 (2 nu + 1)
        assert rep.d1 == 1
        assert not rep.regime_warning

    def test_both_boundaries_collect_two_log_factors(self):
        with pytest.warns(RegimeWarning):
            rep = fd.exponent_multi(ball(Fraction(3, 2), Fraction(1, 2), p=1), nu=1)
        assert rep.d1 == 2

    def test_dense_boundary_and_s2_tie_add_up(self):
        rep = fd.exponent_multi(fd.BesovBall(s1=3, s2_vec=(1, 1)), nu=1)
        assert rep.d1 == 2

    def test_float_inputs_decide_boundaries_within_tolerance(self):
        """In floats 1.1 * 3 = 3.3000000000000003, not 3.3: the dense boundary
        s1 = s2 (2 nu + 1) holds only within the tolerance, and gives the
        exponent and log power of the exact 33/10, 11/10, 1."""
        exact = fd.exponent_multi(ball(Fraction(33, 10), Fraction(11, 10)), nu=1)
        rep = fd.exponent_multi(ball(3.3, 1.1), nu=1.0)
        assert (exact.d, exact.d1, exact.regime) == (Fraction(11, 16), 1, "DenseTime")
        assert (rep.d, rep.d1, rep.regime) == (0.6875, 1, "DenseTime")

    def test_regime_warning_emitted_and_flagged(self):
        with pytest.warns(RegimeWarning):
            rep = fd.exponent_multi(ball(Fraction(1, 4), 2, p=2), nu=1)
        assert rep.regime_warning
        assert 0 < rep.d < 1

    def test_negative_nu_rejected(self):
        with pytest.raises(ConfigError):
            fd.exponent_multi(ball(2, 1), nu=-1)

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

    def test_a_scalar_s2_is_one_spatial_component(self):
        assert fd.BesovBall(s1=2, s2_vec=1) == fd.BesovBall(s1=2, s2_vec=(1,))
        assert fd.BesovBall(s1=2, s2_vec=Fraction(1, 2)).s2_vec == (Fraction(1, 2),)

    def test_report_serializes(self):
        d = fd.exponent_multi(ball(2, 1), nu=1).as_dict()
        assert d["d"] == pytest.approx(4 / 7)
        assert d["regime"] == "DenseTime"
        assert d["d1"] == 0


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
