"""Hyperbolic wavelet coefficient estimation, hard thresholding, reconstruction.

Pipeline (functional mode): divide the data spectrum by the kernel spectrum
on the wavelet bands, run the Meyer analysis along time per profile, run the
orthonormal spatial DWT across profiles scaled by 1/sqrt(M), hard-threshold
with level-dependent lambda_j = C_beta * sqrt(ln(1/eps)) * 2^(j nu) * eps,
and invert. Separate mode runs the per-profile 1-D estimator (no spatial
transform) with per-profile eps = sigma/sqrt(N).

Coefficient arrays are packed: time axis of length 2^J laid out as
[V_{m0} | W_{m0} | ... | W_{J-1}] (scaling block labeled j = m0-1), spatial
axis of length 2^J' laid out the same way with labels j' (m0'-1 = scaling),
both by :func:`funcdeconv.meyer.level_slices`. Separate-mode coefficients
are the same array with one spatial block, labeled -1, of M profile rows.
:func:`plan` resolves this layout once per kernel, with the thresholds and weight.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, replace
from functools import partial
from types import MappingProxyType
from typing import Mapping, NamedTuple

import numpy as np

from .exceptions import ConfigError, InsufficientRange, LevelTooFine
from .meyer import MeyerBasis, j_capacity, level_slices
from .spatial import SpatialBasis
from .spectra import (KernelSpectrum, ObservationGrid, RowSource, _kernel_fit, fourier_coeffs,
                      inverse_block_rows, kernel_spectrum, spectrum_to_samples,
                      validate_invertible)
from .spectra import estimate_nu  # noqa: F401  (perfbench/tracer.py patches estimator.estimate_nu)

FUNCTIONAL = "functional"
SEPARATE = "separate"


def jprime_capacity(m: int) -> int:
    """Largest spatial cutoff J' the grid supports: 2^J' <= M."""
    return m.bit_length() - 1


class ResolutionLimits(NamedTuple):
    j: int
    j_prime: int
    raw_j: float
    raw_j_prime: float
    degenerate: bool


def resolution_limits(epsilon: float, nu: float, *, n: int, m: int,
                      m0: int = 3, m0p: int = 3) -> ResolutionLimits:
    """Finest usable levels from the effective noise level.

    J = floor(log2(eps^(-2/(2 nu + 1)))), J' = floor(log2(eps^(-2))), each
    clamped to [m0, capacity(N)] and [m0', log2 M]. eps >= 1 degenerates to
    the coarsest levels (flagged); eps <= 0 (noiseless) returns capacity.
    """
    cap_j, cap_jp = j_capacity(n), jprime_capacity(m)
    if cap_j < m0:
        raise LevelTooFine(f"grid N={n} cannot host the coarsest time level m0={m0}")
    if cap_jp < m0p:
        raise ConfigError(f"grid M={m} cannot host the coarsest spatial level m0'={m0p}")
    if epsilon >= 1.0:
        return ResolutionLimits(m0, m0p, 0.0, 0.0, True)
    if epsilon <= 0.0:
        return ResolutionLimits(cap_j, cap_jp, math.inf, math.inf, False)
    log2e = math.log2(epsilon)
    raw_j = -2.0 * log2e / (2.0 * nu + 1.0)
    raw_jp = -2.0 * log2e
    j = min(max(int(math.floor(raw_j + 1e-9)), m0), cap_j)
    jp = min(max(int(math.floor(raw_jp + 1e-9)), m0p), cap_jp)
    return ResolutionLimits(j, jp, raw_j, raw_jp, False)


@dataclass
class EstimatorConfig:
    """Threshold constant, ill-posedness, levels, mode, effective noise."""

    c_beta: float
    nu: float
    epsilon: float
    m0: int = 3
    m0p: int = 3
    j: int | None = None        # finest time cutoff (exclusive); None = auto
    j_prime: int | None = None  # finest spatial cutoff (exclusive); None = auto
    mode: str = FUNCTIONAL

    def __post_init__(self):
        for name in ("nu", "c_beta", "epsilon"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"{name} must be finite and >= 0, got {value}")
        if self.mode not in (FUNCTIONAL, SEPARATE):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.j is not None and self.j < self.m0:
            raise ConfigError(f"J={self.j} below coarsest level m0={self.m0}")
        if self.j_prime is not None and self.j_prime < self.m0p:
            raise ConfigError(f"J'={self.j_prime} below coarsest level m0'={self.m0p}")

    def resolved(self, m: int, n: int) -> "EstimatorConfig":
        """Copy with auto levels filled in and capacities enforced."""
        if self.mode == FUNCTIONAL and m & (m - 1):
            raise ConfigError(f"functional mode transforms across profiles and needs "
                              f"a power-of-two M, got M={m}")
        # separate mode never transforms across profiles, so it takes fewer
        # than 2^m0' of them; its unused J' then resolves to m0'. 2^m0' itself
        # is never formed: m0' is a user's integer of any size.
        m0p = self.m0p if self.mode == FUNCTIONAL else min(self.m0p, jprime_capacity(m))
        limits = resolution_limits(self.epsilon, self.nu, n=n, m=m, m0=self.m0, m0p=m0p)
        j = self.j if self.j is not None else limits.j
        jp = self.j_prime if self.j_prime is not None else max(limits.j_prime, self.m0p)
        if j > j_capacity(n):
            raise LevelTooFine(f"J={j} exceeds grid capacity {j_capacity(n)} at N={n}")
        if self.mode == FUNCTIONAL and jp > jprime_capacity(m):
            raise LevelTooFine(f"J'={jp} exceeds grid capacity {jprime_capacity(m)} at M={m}")
        return replace(self, j=j, j_prime=jp)


def config_for(grid: ObservationGrid, ks: KernelSpectrum, mode: str = FUNCTIONAL,
               c_beta: float | None = None, nu: float | None = None,
               m0: int = 3, m0p: int = 3,
               j: int | None = None, j_prime: int | None = None) -> EstimatorConfig:
    """Resolve defaults: nu estimated from the kernel, C_beta from c1, eps from sigma.

    The default C_beta is the practical 4 (2 pi / 3)^nu / sqrt(c1), with c1
    the empirical lower bound of :func:`funcdeconv.spectra.kernel_bounds`.

    Only ``m``, ``n`` and ``sigma`` of ``grid`` are read, so a Monte-Carlo
    cell (:class:`funcdeconv.simlab.SimConfig`) serves as well. A sigma that
    makes eps >= 1 (sigma >= sqrt(MN) in functional mode, sqrt(N) in
    separate mode) leaves no threshold and raises :class:`ConfigError`.

    The kernel's fit window is read once, and only when nu or C_beta is
    missing. A fitted nu below 0, the rounding of a kernel flat over the
    window such as the identity, is taken as 0. A kernel spectrum too short
    or too sparse for the fit raises :class:`InsufficientRange`, which names
    the way round it: giving both ``nu`` and ``c_beta`` skips the fit.
    """
    if nu is not None and not (math.isfinite(nu) and nu >= 0):
        raise ConfigError(f"nu must be finite and >= 0, got {nu}")
    points = grid.n if mode == SEPARATE else grid.m * grid.n
    epsilon = grid.sigma / math.sqrt(points)
    if epsilon >= 1.0:
        bound = "sqrt(N)" if mode == SEPARATE else "sqrt(MN)"
        raise ConfigError(f"sigma={grid.sigma} is too large for {mode} mode on a {grid.m} x "
                          f"{grid.n} grid: it needs sigma < {bound} = {math.sqrt(points)!r} "
                          f"(epsilon={epsilon} outside (0, 1))")
    if nu is None or c_beta is None:
        try:
            nu, c1 = _kernel_fit(ks, nu, c_beta is None)
        except InsufficientRange as exc:
            raise InsufficientRange(f"{exc}; give both nu and C_beta (--nu and --cbeta) "
                                    "to skip the fit") from None
        if c_beta is None:
            if not c1 > 0:      # |g_m|^2 underflows for amplitudes below about 1e-154
                raise ConfigError(f"default C_beta needs c1 > 0, got c1={c1} at nu={nu}; "
                                  "give C_beta (--cbeta)")
            c_beta = 4.0 * (2.0 * np.pi / 3.0) ** nu / math.sqrt(c1)
    return EstimatorConfig(c_beta=c_beta, nu=nu, epsilon=epsilon, m0=m0,
                           m0p=m0p, j=j, j_prime=j_prime, mode=mode)


@contextlib.contextmanager
def finite_arithmetic():
    """Turn an overflow or NaN in numpy arithmetic into a :class:`ConfigError`.

    Values or parameters near the float limit then stop a computation
    instead of warning and carrying non-finite values into its results.
    """
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
    except FloatingPointError as exc:
        raise ConfigError(f"floating-point {exc} (input values or parameters "
                          "out of range)") from None


def threshold_value(j: int, cfg: EstimatorConfig) -> float:
    """Level-j hard threshold lambda_j = C_beta sqrt(ln(1/eps)) 2^(j nu) eps."""
    eps = cfg.epsilon
    if eps == 0.0:
        return 0.0
    if eps >= 1.0:
        raise ConfigError(f"epsilon={eps} outside (0, 1)")
    try:
        lam = cfg.c_beta * math.sqrt(math.log(1.0 / eps)) * 2.0 ** (j * cfg.nu) * eps
    except OverflowError:
        lam = math.inf
    if lam == math.inf:
        raise ConfigError(f"threshold lambda_{j} overflows at C_beta={cfg.c_beta}, nu={cfg.nu}")
    return lam


@dataclass(frozen=True, eq=False)
class Plan:
    """The estimator a kernel and a config fix (:func:`plan`): the kernel, by reference,
    the config resolved on its M x N grid, its bases, the K band columns the Meyer
    analysis reads and, read-only, lambda_j at each of the 2^J packed time positions
    and the coefficient layout, column blocks by level j and row blocks by level j'
    (in separate mode one block, j' = -1, of M profiles). ``weight`` is the grid mean
    square of a unit coefficient: 1 in functional mode, 1/M in separate mode."""

    config: EstimatorConfig
    kernel: KernelSpectrum
    meyer: MeyerBasis
    spatial: SpatialBasis
    k: int
    lam: np.ndarray
    time_slices: Mapping[int, slice]
    spatial_slices: Mapping[int, slice]
    weight: float

    @property
    def shape(self) -> tuple[int, int]:     # (M, N)
        return self.kernel.m, self.kernel.n


def plan(cfg: EstimatorConfig, ks: KernelSpectrum, meyer_basis: MeyerBasis | None = None,
         spatial_basis: SpatialBasis | None = None) -> Plan:
    """Resolve ``cfg`` once on the kernel's M x N grid: levels, bases, K, thresholds,
    layout and weight. A given basis at other coarsest levels than the config's is a
    ConfigError, a kernel that vanishes on the Meyer band an IllPosedKernel."""
    cfg = cfg.resolved(ks.m, ks.n)
    basis = meyer_basis if meyer_basis is not None else MeyerBasis(cfg.m0)
    sbasis = spatial_basis if spatial_basis is not None else SpatialBasis(m0p=cfg.m0p)
    if (basis.m0, sbasis.m0p) != (cfg.m0, cfg.m0p):
        raise ConfigError(f"bases at m0={basis.m0}, m0'={sbasis.m0p} do not match "
                          f"the config's m0={cfg.m0}, m0'={cfg.m0p}")
    k = basis.band_size(cfg.j, ks.n)
    validate_invertible(ks, np.arange(k))
    tslices = level_slices(cfg.m0, cfg.j)
    lam = np.empty(2**cfg.j)
    for j, ts in tslices.items():
        lam[ts] = threshold_value(j, cfg)
    lam.flags.writeable = False
    if cfg.mode == FUNCTIONAL:
        sslices, weight = level_slices(cfg.m0p, cfg.j_prime), 1.0
    else:
        sslices, weight = {-1: slice(0, ks.m)}, 1.0 / ks.m
    return Plan(cfg, ks, basis, sbasis, k, lam,
                MappingProxyType(tslices), MappingProxyType(sslices), weight)


@dataclass
class HyperCoeffs:
    """Dense real hyperbolic coefficients, the plan that made them, kept/killed flags.

    ``entries[s, tau]`` is indexed by packed time position tau (levels j in
    [m0-1, J)) and, in functional mode, packed spatial position s (levels j'
    in [m0'-1, J')); in separate mode s is the profile, in one block j' = -1.
    The levels, mode, thresholds, layout and bases come from ``plan``.
    """

    entries: np.ndarray
    plan: Plan
    kept: np.ndarray | None = None

    def __post_init__(self):
        if self.kept is None:
            self.kept = np.ones(self.entries.shape, dtype=bool)

    @property
    def config(self) -> EstimatorConfig:
        return self.plan.config

    def thresholded(self) -> np.ndarray:
        """Entries with killed coefficients zeroed."""
        return np.where(self.kept, self.entries, 0.0)


def estimate_coeffs(spec: np.ndarray, plan: Plan) -> HyperCoeffs:
    """Pre-threshold coefficient estimates beta-tilde (real) from the data spectrum.

    ``spec`` is the (M, N/2 + 1) half spectrum of :func:`fourier_coeffs` on the
    plan's grid or just its ``plan.k`` band columns (``fourier_coeffs(grid, plan.k)``).
    Other widths raise :class:`ConfigError`: a width between the two could be the
    whole half spectrum of a shorter grid. Only the K band columns are divided by
    the plan's kernel; the Meyer analysis reads nothing else.
    """
    (m, n), k = plan.shape, plan.k
    if spec.shape not in ((m, k), (m, n // 2 + 1)):
        raise ConfigError(f"data spectrum of shape {spec.shape} does not fit the plan's "
                          f"{m} x {n} grid: the data need the K={k} band columns or all "
                          f"N/2 + 1 = {n // 2 + 1}")
    ratio = spec[:, :k] / plan.kernel.g_coeffs[:, :k]     # (M, K)
    timec = plan.meyer.analyze_t(ratio, plan.config.j)    # (M, 2^J) real
    if plan.config.mode == SEPARATE:
        return HyperCoeffs(timec, plan)
    packed = plan.spatial.dwt_forward(timec.T) / math.sqrt(m)  # (2^J, M)
    return HyperCoeffs(packed[:, :2**plan.config.j_prime].T.copy(), plan)  # (2^J', 2^J)


def hard_threshold(coeffs: HyperCoeffs) -> HyperCoeffs:
    """Keep entries with |beta-tilde| strictly above the level-j threshold.

    Only the first spatial block times the time scaling block is exempt: the
    scaling (x) scaling block (j' = m0'-1, j = m0-1) in functional mode, the
    per-profile scaling block in separate mode. Mixed detail/scaling blocks
    carry the literal level-j threshold, the plan's ``lam``. The exempt block
    is the first block of each of the plan's axes.
    """
    pl = coeffs.plan
    kept = np.abs(coeffs.entries) > pl.lam
    kept[next(iter(pl.spatial_slices.values())), next(iter(pl.time_slices.values()))] = True
    return replace(coeffs, kept=kept)


@dataclass
class Reconstruction:
    """Grid estimate plus the coefficients, and their config, that made it."""

    values: np.ndarray          # (M, N) real
    coeffs: HyperCoeffs

    @property
    def config(self) -> EstimatorConfig:
        return self.coeffs.config


def _synthesis_band(coeffs: HyperCoeffs) -> np.ndarray:
    """The (M, K) band of the estimate's spectrum: the thresholded coefficients,
    checked as :func:`reconstruct` states, through the inverse spatial DWT
    (functional mode) and the Meyer synthesis."""
    pl, cfg, (m, n) = coeffs.plan, coeffs.config, coeffs.plan.shape
    if np.iscomplexobj(coeffs.entries):
        raise ConfigError("coefficients must be real, got complex entries")
    rows = coeffs.entries.shape[0]
    if rows > m or (cfg.mode == SEPARATE and rows < m):
        raise ConfigError(f"{cfg.mode} coefficients of shape {coeffs.entries.shape} "
                          f"do not fit the plan's (M, N) = ({m}, {n}) grid")
    with finite_arithmetic():
        timec = coeffs.thresholded()
        if cfg.mode == FUNCTIONAL:
            full = np.zeros((timec.shape[1], m))                # (2^J, M)
            full[:, :rows] = timec.T                            # rows beyond 2^J' stay zero
            timec = pl.spatial.dwt_inverse(full).T * math.sqrt(m)  # (M, 2^J)
        return pl.meyer.synthesize_t(timec)


def _sample_blocks(band: np.ndarray, n: int):
    """``(start, rows)``: :func:`spectrum_to_samples` of each block of
    :func:`inverse_block_rows` rows of ``band``, the blocks it walks itself,
    written into one reused buffer, each under :func:`finite_arithmetic`."""
    m = band.shape[0]
    step = inverse_block_rows(n, band.shape[1])
    buf = np.empty((min(step, m), n))
    for start in range(0, m, step):
        rows = buf[:m - start]
        with finite_arithmetic():
            spectrum_to_samples(band[start:start + step], n, out=rows)
        yield start, rows


def sample_rows(coeffs: HyperCoeffs) -> RowSource:
    """The estimate on the plan's M x N grid as a row source of sigma 0, one
    block of rows at a time, never the whole grid.

    The coefficients are checked, and taken to the (M, K) band of the
    estimate's spectrum, at once; each ``row_blocks()`` then takes that band
    back to the grid a block of :func:`inverse_block_rows` rows at a time,
    through one reused buffer: a block is valid until the next is made. A
    block is :func:`spectrum_to_samples` of the rows it covers, so the blocks
    are bitwise the rows of :func:`reconstruct`'s values.
    """
    band = _synthesis_band(coeffs)
    m, n = coeffs.plan.shape
    return RowSource(m, n, partial(_sample_blocks, band, n))


def reconstruct(coeffs: HyperCoeffs) -> Reconstruction:
    """Invert thresholded coefficients back to samples on the plan's grid, by its bases.

    The grid is :func:`spectrum_to_samples` of the band that :func:`sample_rows`
    streams, by the same row blocks, under :func:`finite_arithmetic`.
    :class:`ConfigError` is raised for complex entries (a real field has
    real coefficients) and for rows that do not fit the plan's M: more than
    M spatial rows (functional), other than M profile rows (separate).
    """
    band = _synthesis_band(coeffs)
    with finite_arithmetic():
        return Reconstruction(spectrum_to_samples(band, coeffs.plan.shape[1]), coeffs)


def estimate(grid, kernel, cfg: EstimatorConfig | None = None,
             meyer_basis: MeyerBasis | None = None, spatial_basis: SpatialBasis | None = None,
             **config_kwargs) -> HyperCoeffs:
    """The pipeline up to the estimate's coefficients: spectra -> coefficient
    estimates -> threshold.

    ``grid`` is a row source with a ``sigma``, an :class:`ObservationGrid` or
    :func:`funcdeconv.gridio.open_grid` of a file, read once, a row block at a
    time, into its K band columns (:func:`fourier_coeffs`). ``kernel`` is a
    :class:`KernelSpectrum` or anything :func:`kernel_spectrum` reads: a row
    source or an M x N array of samples.
    With ``cfg=None`` the configuration is :func:`config_for` of the grid, the
    kernel and ``config_kwargs`` (``mode``, ``nu``, ...); a ``cfg`` with any of
    them is a :class:`ConfigError`. One :func:`plan` of the kernel, given the
    bases if any, serves every stage. It runs under :func:`finite_arithmetic`.
    """
    if cfg is not None and config_kwargs:
        raise ConfigError("pass either cfg or config keyword overrides, not both")
    with finite_arithmetic():
        ks = kernel if isinstance(kernel, KernelSpectrum) else kernel_spectrum(kernel)
        if (grid.m, grid.n) != (ks.m, ks.n):
            raise ConfigError(f"data grid {grid.m} x {grid.n} and kernel grid "
                              f"{ks.m} x {ks.n} differ in shape")
        if cfg is None:
            cfg = config_for(grid, ks, **config_kwargs)
        pl = plan(cfg, ks, meyer_basis, spatial_basis)
        return hard_threshold(estimate_coeffs(fourier_coeffs(grid, pl.k), pl))


def deconvolve(grid, kernel, cfg: EstimatorConfig | None = None,
               meyer_basis: MeyerBasis | None = None, spatial_basis: SpatialBasis | None = None,
               **config_kwargs) -> Reconstruction:
    """Full pipeline, ``reconstruct(estimate(...))``: spectra -> coefficient
    estimates -> threshold -> inverse, with the arguments of :func:`estimate`.

    Every stage runs under :func:`finite_arithmetic`, so it never returns
    non-finite values.
    """
    return reconstruct(estimate(grid, kernel, cfg, meyer_basis, spatial_basis,
                                **config_kwargs))
