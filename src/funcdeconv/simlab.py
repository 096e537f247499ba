"""Simulation laboratory: reference kernel, test signals, MISE benchmarks.

The reference kernel is ``g(u, t) = 0.5 exp(-(1 + (u - 0.5)^2) d(t))`` with
``d(t) = min(t mod 1, 1 - t mod 1)`` the periodic distance to 0. Test signals
are the classic Quadratic/Blip/Bumps profiles, each rescaled to unit discrete
L2 norm. Data generation follows the observation model

    y(u_l, t_i) = (1/N) sum_x g(u_l, t_i - x) f(u_l, x) + sigma * z_{l,i}

so that row-wise Fourier coefficients multiply exactly: h_m = g_m f_m.
Replicate ``rep`` of a run seeded with ``seed`` draws its noise from
``numpy.random.default_rng([seed, rep])``, which makes every cell of the
benchmark table bitwise reproducible. The Monte-Carlo harness
(:func:`run_mise`) draws that same stream, in the same row blocks of about
128 KB as :func:`synthesize_data`, but forms no M x N grid: the truth is
separable, so the clean data are known on the K band columns the estimator
reads, each noise block is reduced to its band as it is drawn, and every
replicate is scored in coefficient space. The basis is orthonormal on the grid, so the
score equals the grid MISE to rounding. The noise's and the reference kernel's
row blocks reach ``fourier_coeffs`` as a :class:`funcdeconv.spectra.RowSource`.
The stream does not depend on a cell's signals, sigma or mode, so cells on one
grid share their noise (common random numbers): a replicate's noise band is
drawn once per process per (M, N, K, seed, rep) when it takes at most 128 KB,
and every later cell reads the same bits; at most 256 bands are kept, the least
recently used dropped first (:func:`_noise_band`).
"""

from __future__ import annotations

import csv
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .estimator import (FUNCTIONAL, SEPARATE, config_for, estimate_coeffs, finite_arithmetic,
                        hard_threshold, plan)
from .estimator import deconvolve  # noqa: F401  (perfbench/tracer.py patches simlab.deconvolve)
from .exceptions import ConfigError
from .gridio import rewrite
from .spectra import (ROW_BLOCK_BYTES, KernelSpectrum, ObservationGrid, RowSource, block_rows,
                      fourier_coeffs, kernel_spectrum)

PAIR_ORDER = (
    ("Quadratic", "Blip"),
    ("Quadratic", "Bumps"),
    ("Blip", "Blip"),
    ("Blip", "Bumps"),
    ("Bumps", "Blip"),
    ("Bumps", "Bumps"),
)
TABLE1_M_VALUES = (128, 256)
TABLE1_SIGMAS = (0.5, 1.0)

TABLE1_COLUMNS = ("f1", "f2", "M", "sigma", "mode", "mean_mise", "sd_mise",
                  "runs", "seed")

# smallest N whose default nu-fit window [N/16, N/4] holds 8 frequencies
TABLE1_MIN_N = 64


def paper_kernel(u, t):
    """Pointwise reference kernel, periodic in t with period 1."""
    return _kernel_at(u, _distance_to_zero(t))


def _distance_to_zero(t):
    """``d(t) = min(t mod 1, 1 - t mod 1)``, the periodic distance of t to 0."""
    frac = np.mod(np.asarray(t, dtype=float), 1.0)
    return np.minimum(frac, 1.0 - frac)


def _kernel_at(u, dist):
    """:func:`paper_kernel` at u and ``dist = d(t)``."""
    a = 1.0 + (np.asarray(u, dtype=float) - 0.5) ** 2
    out = np.asarray(-a * dist)     # the one broadcast array; exp and halving run in it
    np.exp(out, out=out)
    out *= 0.5
    return out[()]


def kernel_grid(m: int, n: int) -> np.ndarray:
    """Reference kernel sampled on the (l/M, i/N) grid, shape (M, N)."""
    u = np.arange(m, dtype=float)[:, None] / m
    t = np.arange(n, dtype=float)[None, :] / n
    return paper_kernel(u, t)


def _kernel_blocks(m: int, n: int):
    """The rows of ``kernel_grid(m, n)``, bit for bit, ``block_rows(N)`` at a time.
    d(t) is formed once: ``np.mod`` costs several times the block's ``exp``."""
    dist = _distance_to_zero(np.arange(n, dtype=float)[None, :] / n)
    step = block_rows(n)
    for start in range(0, m, step):
        u = np.arange(start, min(start + step, m), dtype=float)[:, None] / m
        yield start, _kernel_at(u, dist)


def reference_spectrum(m: int, n: int) -> KernelSpectrum:
    """``kernel_spectrum(kernel_grid(m, n))``, bit for bit, without the M x N samples:
    the reference kernel is sampled a row block at a time into the rows of its
    half spectrum."""
    return kernel_spectrum(RowSource(m, n, partial(_kernel_blocks, m, n)))


# --- test signals ---------------------------------------------------------

_BUMPS_POS = np.array([0.1, 0.13, 0.15, 0.23, 0.25, 0.40, 0.44, 0.65, 0.76,
                       0.78, 0.81])
_BUMPS_HGT = np.array([4.0, 5.0, 3.0, 4.0, 5.0, 4.2, 2.1, 4.3, 3.1, 5.1, 4.2])
_BUMPS_WTH = np.array([0.005, 0.005, 0.006, 0.01, 0.01, 0.03, 0.01, 0.01,
                       0.005, 0.008, 0.005])


def _quadratic_raw(t):
    return (t - 0.5) ** 2


def _blip_raw(t):
    left = 0.32 + 0.6 * t + 0.3 * np.exp(-100.0 * (t - 0.3) ** 2)
    right = -0.28 + 0.6 * t + 0.3 * np.exp(-100.0 * (t - 1.3) ** 2)
    return np.where(t <= 0.8, left, right)


def _bumps_raw(t):
    t = np.asarray(t, dtype=float)
    u = (t[..., None] - _BUMPS_POS) / _BUMPS_WTH
    return (_BUMPS_HGT / (1.0 + np.abs(u)) ** 4).sum(axis=-1)


_RAW_SIGNALS = {
    "quadratic": _quadratic_raw,
    "blip": _blip_raw,
    "bumps": _bumps_raw,
}


def signal_names() -> tuple:
    return ("Quadratic", "Blip", "Bumps")


def test_function(name: str, n: int) -> np.ndarray:
    """Samples of a named test signal at i/n, rescaled to unit discrete L2.

    The discrete norm (1/n) sum f^2 = 1 exactly; it matches the continuous
    L2 normalisation to Riemann accuracy (about 1e-5 at n = 512).
    """
    try:
        raw = _RAW_SIGNALS[name.lower()]
    except KeyError:
        raise ConfigError(
            f"unknown test signal {name!r}; choose from {signal_names()}"
        ) from None
    t = np.arange(n, dtype=float) / n
    vals = raw(t)
    rms = np.sqrt(np.mean(vals**2))
    return vals / rms


def product_truth(f1: str, f2: str, m: int, n: int) -> np.ndarray:
    """Separable target f(u_l, t_i) = f1(u_l) f2(t_i), shape (M, N)."""
    return np.outer(test_function(f1, m), test_function(f2, n))


# --- data synthesis -------------------------------------------------------

def convolve_rows(kernel_rows: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Row-wise (1/N)-normalised circular convolution of kernel and target."""
    n = truth.shape[-1]
    return np.fft.irfft(np.fft.rfft(kernel_rows, axis=-1) * np.fft.rfft(truth, axis=-1),
                        n, axis=-1) / n


def synthesize_data(truth: np.ndarray, sigma: float, *, seed: int = 0,
                    rep: int = 0) -> ObservationGrid:
    """Noisy convolved observations of ``truth`` under the reference kernel.

    The noise is ``sigma`` times replicate ``rep``'s stream, added row block
    by row block from :func:`_noise_blocks`.
    """
    truth = np.asarray(truth, dtype=float)
    m, n = truth.shape
    samples = convolve_rows(kernel_grid(m, n), truth)
    if sigma > 0:
        for start, rows in _noise_blocks(m, n, seed, rep):
            samples[start:start + len(rows)] += sigma * rows
    return ObservationGrid(samples, sigma=sigma)


def _noise_blocks(m: int, n: int, seed: int, rep: int):
    """Replicate ``rep``'s standard normal (M, N) noise, in row blocks of about 128 KB
    (:data:`funcdeconv.spectra.ROW_BLOCK_BYTES`, 32 rows at N = 512).

    The seed contract in one place: replicate ``rep`` of a run seeded
    ``seed`` draws ``default_rng([seed, rep]).standard_normal((m, n))``.
    Yields ``(start, rows)``, the rows from profile ``start`` on. The
    generator fills a C-ordered array in stream order, so the blocks,
    concatenated, are that grid bit for bit. One buffer serves every block:
    a block is valid until the next is drawn.
    """
    rng = np.random.default_rng([seed, rep])
    block = np.empty((min(block_rows(n), m), n))
    for start in range(0, m, len(block)):
        rows = block[:m - start]
        rng.standard_normal(out=rows)
        yield start, rows


def _draw_noise_band(m: int, n: int, k: int, seed: int, rep: int) -> np.ndarray:
    """The first k Fourier columns (M, k) of replicate ``rep``'s noise, read-only:
    ``fourier_coeffs`` of its :func:`_noise_blocks`, the same blocks and bits as of
    its M x N grid."""
    band = fourier_coeffs(RowSource(m, n, partial(_noise_blocks, m, n, seed, rep)), k)
    band.flags.writeable = False
    return band


# Every cell of a run seeded ``seed`` draws replicate ``rep``'s noise from the same stream,
# whatever its signals, sigma or mode, so cells of one grid share their noise bands.
_kept_noise_band = lru_cache(maxsize=256)(_draw_noise_band)


def _noise_band(m: int, n: int, k: int, seed: int, rep: int) -> np.ndarray:
    """:func:`_draw_noise_band`, drawn once per process per (M, N, K, seed, rep) when
    the band takes at most 128 KB (:data:`funcdeconv.spectra.ROW_BLOCK_BYTES`, 16 M K
    bytes): the process keeps at most 256 such bands, at most 32 MB, the least
    recently used dropped first. A larger band (1024 x 2048 at K = 11 is 180 KB) is
    drawn on every call. A kept band is the bits a fresh draw gives.
    """
    draw = _kept_noise_band if 16 * m * k <= ROW_BLOCK_BYTES else _draw_noise_band
    return draw(m, n, k, seed, rep)


# --- MISE benchmark -------------------------------------------------------

@dataclass
class SimConfig:
    """One benchmark cell: target pair, grid size, noise level, mode."""

    f1: str = "Quadratic"
    f2: str = "Blip"
    m: int = 128
    n: int = 512
    sigma: float = 0.5
    mode: str = FUNCTIONAL
    runs: int = 25
    seed: int = 0
    c_beta: float | None = None
    nu: float | None = None
    threads: int = 1

    def __post_init__(self):
        for name, least in (("m", 1), ("n", 2), ("runs", 1), ("seed", 0), ("threads", 1)):
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be >= {least}, got {getattr(self, name)}")
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ConfigError(f"sigma must be finite and >= 0, got {self.sigma}")


@dataclass
class MiseResult:
    """Replicate MISEs of a cell plus their summary statistics."""

    per_run: np.ndarray
    config: SimConfig

    @property
    def mean_mise(self) -> float:
        return float(np.mean(self.per_run))

    @property
    def sd_mise(self) -> float:
        if len(self.per_run) < 2:
            return 0.0
        return float(np.std(self.per_run, ddof=1))


def mise(estimate: np.ndarray, truth: np.ndarray) -> float:
    """(1/(MN)) sum (fhat - f)^2 over the grid."""
    return float(np.mean((estimate - truth) ** 2))


def run_mise(sim: SimConfig, kernel_spec: KernelSpectrum | None = None
             ) -> MiseResult:
    """Monte-Carlo MISE of the thresholding estimator for one cell.

    Replicate ``rep`` observes the grid of ``synthesize_data(truth, sigma,
    seed=sim.seed, rep=rep)``, the same noise stream, except that the data
    are made from the cell's kernel ``kernel_spec`` (default: the reference
    kernel's spectrum), the one the estimator divides by. Its MISE is scored
    in coefficient space and no M x N array is formed, apart from the
    default ``kernel_spec``.

    Once per cell, :func:`plan` fixes the estimator and checks the kernel. The
    truth f1 (x) f2 is separable and h_m = g_m f_m, so the clean data's K band
    columns are ``g[:, :K] * outer(f1, F2[:K])``, g the plan's kernel and F2
    the forward-normalised ``rfft`` of f2; ``estimate_coeffs`` of them gives
    beta. With every coefficient kept the estimate is the orthogonal projection
    of the truth onto the Meyer (x) db6 atoms, which are orthonormal on the
    grid, so Pythagoras gives the bias

        bias = mean(f1^2) mean(f2^2) - w sum beta^2,

    with w the plan's ``weight``: 1 (functional) or 1/M (separate,
    per-profile coefficients).

    Each replicate draws its noise in row blocks of about 128 KB and keeps
    only their K band columns, ``clean + sigma * noise band``; a band of at
    most 128 KB is drawn once per process per (M, N, K, seed, rep) and shared
    by every cell that reads it; of the 256 bands kept, the least recently used
    is dropped first (:func:`_noise_band`). The replicate estimates its
    coefficients from that band (:func:`estimate_coeffs`), thresholds them and
    scores ``bias + w sum (beta_hat - beta)^2``, which equals the
    grid MISE to rounding. ``sim.threads > 1`` runs the replicates on a pool of at most
    ``runs`` threads and no more than the process's CPUs; the results do not
    depend on it. At sigma = 0 the replicates draw no noise, so one is scored
    and its MISE repeated ``runs`` times, without a pool.
    """
    if kernel_spec is None:
        kernel_spec = reference_spectrum(sim.m, sim.n)
    if (kernel_spec.m, kernel_spec.n) != (sim.m, sim.n):
        raise ConfigError(f"kernel grid {kernel_spec.m} x {kernel_spec.n} does not fit "
                          f"the cell's {sim.m} x {sim.n} grid")
    # config_for reads only m, n and sigma of its grid, and the cell has them
    cfg = config_for(sim, kernel_spec, mode=sim.mode, c_beta=sim.c_beta, nu=sim.nu)
    with finite_arithmetic():
        pl = plan(cfg, kernel_spec)
        f1 = test_function(sim.f1, sim.m)
        f2 = test_function(sim.f2, sim.n)
        f2_band = np.fft.rfft(f2, norm="forward")[:pl.k]
        clean_band = pl.kernel.g_coeffs[:, :pl.k] * np.outer(f1, f2_band)
        beta = estimate_coeffs(clean_band, pl).entries
        bias = float(np.mean(f1**2) * np.mean(f2**2) - pl.weight * np.sum(beta**2))

    def one(rep: int) -> float:
        # worker threads do not inherit the caller's numpy error state
        with finite_arithmetic():
            band = clean_band
            if sim.sigma > 0:
                band = band + sim.sigma * _noise_band(sim.m, sim.n, pl.k, sim.seed, rep)
            est = hard_threshold(estimate_coeffs(band, pl))
            return bias + pl.weight * float(np.sum((est.thresholded() - beta) ** 2))

    per_run = np.empty(sim.runs)
    if sim.sigma == 0:      # every replicate is the same noiseless computation
        per_run[:] = one(0)
    elif sim.threads > 1:
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        workers = min(sim.threads, sim.runs, cpus or 1)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for rep, val in enumerate(pool.map(one, range(sim.runs))):
                per_run[rep] = val
    else:
        for rep in range(sim.runs):
            per_run[rep] = one(rep)
    return MiseResult(per_run, sim)


def table1(runs: int = 25, seed: int = 0, n: int = 512, threads: int = 1) -> list:
    """Full benchmark table: :data:`PAIR_ORDER` x :data:`TABLE1_M_VALUES` x
    :data:`TABLE1_SIGMAS` x modes, one dict per cell, ordered pair-major then
    M, sigma, mode: 48 rows. Every cell fits nu and C_beta from the
    kernel, so N must be at least :data:`TABLE1_MIN_N`.
    """
    if n < TABLE1_MIN_N:
        raise ConfigError(f"table1 needs N >= {TABLE1_MIN_N}, got N={n}: every cell fits "
                          f"the kernel's nu over the default window [N/16, N/4], which "
                          f"holds the 8 frequencies the fit needs only from N = {TABLE1_MIN_N}")
    rows = []
    spectra_cache = {m: reference_spectrum(m, n) for m in TABLE1_M_VALUES}
    for f1, f2 in PAIR_ORDER:
        for m in TABLE1_M_VALUES:
            for sigma in TABLE1_SIGMAS:
                for mode in (FUNCTIONAL, SEPARATE):
                    sim = SimConfig(f1=f1, f2=f2, m=m, n=n, sigma=sigma,
                                    mode=mode, runs=runs, seed=seed, threads=threads)
                    res = run_mise(sim, kernel_spec=spectra_cache[m])
                    rows.append({
                        "f1": f1, "f2": f2, "M": m, "sigma": sigma,
                        "mode": mode, "mean_mise": res.mean_mise,
                        "sd_mise": res.sd_mise, "runs": runs, "seed": seed,
                    })
    return rows


def write_table_csv(rows: list, path) -> None:
    with rewrite(path, newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=TABLE1_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)


def write_xy(path, xs, ys) -> None:
    """Two-column whitespace file (gnuplot-ready), one "x y" pair per line."""
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ConfigError("xs and ys must be 1-D arrays of equal length")
    with rewrite(path) as fh:
        for x, y in zip(xs, ys):
            fh.write(f"{float(x)!r} {float(y)!r}\n")


def slope_files(rows: list, prefix, n: int = 512) -> list:
    """Write one MISE-vs-MN file per (f1, f2, sigma, mode) group of table rows.

    Points are sorted by MN so the files plot as monotone curves; returns the
    written paths.
    """
    groups: dict = {}
    for row in rows:
        key = (row["f1"], row["f2"], row["sigma"], row["mode"])
        groups.setdefault(key, []).append((row["M"] * n, row["mean_mise"]))
    paths = []
    for (f1, f2, sigma, mode), pts in groups.items():
        pts.sort()
        path = f"{prefix}_{f1.lower()}x{f2.lower()}_s{sigma:g}_{mode}.dat"
        write_xy(path, [p[0] for p in pts], [p[1] for p in pts])
        paths.append(path)
    return paths
