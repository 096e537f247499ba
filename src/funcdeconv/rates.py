"""Closed-form minimax-rate calculators.

The convergence exponent for the 2-D problem is

    d = min( 2 s2 / (2 s2 + 1),
             2 s1 / (2 s1 + 2 nu + 1),
             2 s1' / (2 s1' + 2 nu) ),      s1' = s1 + 1/2 - 1/min(p, 2),

equivalently the three-case form selected by comparing s1 with
s2 (2 nu + 1) and (1/p - 1/2)(2 nu + 1). The log-power d1 counts boundary
equalities. The multivariate exponent replaces s2 by s_{2,0} = min_l s_{2,l}
and adds the tie count to D1. Boundary equalities are decided in exact
rational arithmetic when all inputs are ints/Fractions, with a 1e-12
relative tolerance otherwise.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass
from fractions import Fraction
from numbers import Rational

from .exceptions import ConfigError, RegimeWarning

DENSE_SPATIAL = "DenseSpatial"
DENSE_TIME = "DenseTime"
SPARSE = "Sparse"

FUNCTIONAL_BETTER = "FunctionalBetter"
SEPARATE_BETTER = "SeparateBetter"
BOUNDARY = "Boundary"

_TOL = 1e-12


def _exactify(x):
    """ints/Fractions stay exact; floats (and inf) pass through."""
    if isinstance(x, Rational):
        return Fraction(x)
    return x


def _as_float(x) -> float:
    """``float(x)``, with a signed inf for a rational beyond the float range."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _inv(p):
    """1/p with p = inf allowed (gives exact 0)."""
    if p == math.inf:
        return Fraction(0)
    return Fraction(1) / p if isinstance(p, Fraction) else 1.0 / p


def _eq(a, b) -> bool:
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a == b
    return abs(a - b) <= _TOL * max(1.0, abs(a), abs(b))


def _gt(a, b) -> bool:
    """Strictly greater, tolerance-aware for floats."""
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a > b
    return a > b and not _eq(a, b)


@dataclass
class BesovBall:
    """Mixed-smoothness Besov ball parameters plus derived exponents."""

    s1: object
    s2_vec: tuple
    p: object = 2
    q: object = 2

    def __post_init__(self):
        self.s1 = _exactify(self.s1)
        if not isinstance(self.s2_vec, (tuple, list)):
            self.s2_vec = (self.s2_vec,)
        self.s2_vec = tuple(_exactify(s) for s in self.s2_vec)
        self.p = _exactify(self.p)
        self.q = _exactify(self.q)
        if len(self.s2_vec) < 1:
            raise ConfigError("need at least one spatial smoothness component")
        if not 0 < min(self.s1, *self.s2_vec) <= max(self.s1, *self.s2_vec) < math.inf:
            raise ConfigError("smoothness s1 and s2 must be positive and finite")
        if not (self.p == math.inf or self.p >= 1) or not (self.q == math.inf or self.q >= 1):
            raise ConfigError("p and q must lie in [1, inf]")

    @property
    def s1_prime(self):
        """s1 + 1/2 - 1/p' with p' = min(p, 2); exact for rational s1."""
        return self.s1 + Fraction(1, 2) - max(_inv(self.p), Fraction(1, 2))

    @property
    def s2_min(self):
        return min(self.s2_vec)

    def in_regime(self) -> bool:
        """min(s1, s_{2,0}) >= max(1/p, 1/2), the theorem regime."""
        bound = max(_inv(self.p), Fraction(1, 2))
        m = min(self.s1, self.s2_min)
        return _gt(m, bound) or _eq(m, bound)


@dataclass
class RateReport:
    """Exponent d (or D), log power d1 (or D1) and regime."""

    d: object
    d1: int
    regime: str
    regime_warning: bool = False

    def as_dict(self) -> dict:
        out = {"d": float(self.d), "d1": self.d1, "regime": self.regime}
        if self.regime_warning:
            out["regime_warning"] = True
        return out


def _candidates(ball: BesovBall, nu):
    s20 = ball.s2_min
    s1 = ball.s1
    s1p = ball.s1_prime
    c_spatial = 2 * s20 / (2 * s20 + 1)
    c_time = 2 * s1 / (2 * s1 + 2 * nu + 1)
    denom = 2 * s1p + 2 * nu
    c_sparse = (2 * s1p / denom) if denom != 0 else _exactify(0)
    return c_spatial, c_time, c_sparse


def exponent_multi(ball: BesovBall, nu) -> RateReport:
    """Multivariate rate exponent D and log power D1 via s_{2,0} = min_l s_{2,l}."""
    nu = _exactify(nu)
    if not 0 <= nu < math.inf:
        raise ConfigError(f"nu must be finite and >= 0, got {nu}")
    c_spatial, c_time, c_sparse = _candidates(ball, nu)
    b_dense = ball.s2_min * (2 * nu + 1)
    b_sparse = (_inv(ball.p) - Fraction(1, 2)) * (2 * nu + 1)
    if _gt(ball.s1, b_dense):
        d, regime = c_spatial, DENSE_SPATIAL
    elif _gt(b_sparse, ball.s1):
        d, regime = c_sparse, SPARSE
    else:
        d, regime = c_time, DENSE_TIME
    if not math.isfinite(_as_float(d)):
        raise ConfigError("the rate exponent is beyond the float range "
                          "(parameters far outside the theorem regime)")
    ties = sum(_eq(s, ball.s2_min) for s in ball.s2_vec) - 1
    d1 = int(_eq(ball.s1, b_dense)) + int(_eq(ball.s1, b_sparse)) + ties
    warn = not ball.in_regime()
    if warn:
        warnings.warn(
            "smoothness parameters outside the theorem regime "
            "min(s1, s2) >= max(1/p, 1/2); exponent still computed",
            RegimeWarning, stacklevel=2,
        )
    return RateReport(d=d, d1=d1, regime=regime, regime_warning=warn)


@dataclass
class ComparisonReport:
    """Finite-sample functional-vs-separate verdict (asymptotic surrogate)."""

    verdict: str
    surrogate: float
    exponent: float

    def as_dict(self) -> dict:
        return asdict(self)


def compare_strategies(s1, s2, nu, m: int, n: int) -> ComparisonReport:
    """Evaluate M * N^(-(s1 - s2(2 nu + 1)) / (s2 (2 s1 + 2 nu + 1))) against 1.

    SeparateBetter iff the surrogate is < 1 (possible only when
    s1 > s2 (2 nu + 1)); Boundary within 1e-9 of 1. The arguments, the
    exponent and the surrogate must be finite floats.
    """
    s1f, s2f, nuf, mf, nf = map(_as_float, (s1, s2, nu, m, n))
    exponent = surrogate = math.nan
    if s1f > 0 and s2f > 0 and nuf >= 0 and mf >= 1 and math.inf > nf >= 1:
        exponent = (s1f - s2f * (2 * nuf + 1)) / (s2f * (2 * s1f + 2 * nuf + 1))
        surrogate = mf * nf ** (-exponent)
    if not (math.isfinite(exponent) and math.isfinite(surrogate)):
        raise ConfigError(f"need finite s1, s2 > 0, nu >= 0, M, N >= 1 and a finite exponent "
                          f"and surrogate; got s1={s1f}, s2={s2f}, nu={nuf}, M={mf:g}, N={nf:g}")
    if abs(surrogate - 1.0) <= 1e-9:
        verdict = BOUNDARY
    elif s1f > s2f * (2 * nuf + 1) and surrogate < 1.0:
        verdict = SEPARATE_BETTER
    else:
        verdict = FUNCTIONAL_BETTER
    return ComparisonReport(verdict=verdict, surrogate=surrogate, exponent=exponent)
