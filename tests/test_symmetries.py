"""Exact symmetries of the estimator: shifts of the data that it commutes with.

Shifting the data by N/8 samples in t is a shift by one translate of the
coarsest Meyer level (m0 = 3) and by whole translates of every finer one, so
each level's coefficients turn cyclically, meet the same threshold, and the
estimate shifts with the data. Across profiles the periodized DWT down to
m0' = 3 commutes with shifts by M/8 the same way; separate mode treats every
profile alone and commutes with any shift of the profiles. A shift by one
sample in t is not a translate of the Meyer levels: the negative control.
Tolerances are relative to the estimate's peak.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import funcdeconv as fd
from funcdeconv import simlab
from funcdeconv.cli import main
from funcdeconv.gridio import load_grid, save_grid

TOL = 1e-12


@st.composite
def problems(draw):
    """A data grid and its kernel: M >= 8 and N >= 64 powers of two, a signal
    pair, sigma, seed and mode."""
    m = 2 ** draw(st.integers(3, 6))
    n = 2 ** draw(st.integers(6, 9))
    f1, f2 = (draw(st.sampled_from(simlab.signal_names())) for _ in range(2))
    sigma = draw(st.floats(0.05, 2.0))
    seed = draw(st.integers(0, 2**32 - 1))
    mode = draw(st.sampled_from(["functional", "separate"]))
    obs = simlab.synthesize_data(simlab.product_truth(f1, f2, m, n), sigma, seed=seed)
    return obs, simlab.kernel_grid(m, n), mode


def shifted(obs, shift, axis):
    return fd.ObservationGrid(np.roll(obs.samples, shift, axis=axis), sigma=obs.sigma)


def miss(got, want):
    """Largest deviation relative to the peak of ``want``."""
    return np.abs(got - want).max() / np.abs(want).max()


@given(problems())
@settings(max_examples=25, deadline=None)
def test_a_shift_by_n_over_8_in_t_shifts_the_estimate(problem):
    obs, kernel, mode = problem
    ks = fd.kernel_spectrum(kernel)
    shift = obs.n // 8
    est = fd.deconvolve(obs, ks, mode=mode).values
    moved = fd.deconvolve(shifted(obs, shift, 1), ks, mode=mode).values
    assert miss(moved, np.roll(est, shift, axis=1)) <= TOL


@given(problems(), st.integers(1, 63))
@settings(max_examples=25, deadline=None)
def test_a_shift_of_the_profiles_shifts_the_estimate(problem, rows):
    """By M/8 profiles in functional mode, by any number in separate mode;
    nu and C_beta are given, so reordered profiles cannot round the fit."""
    obs, kernel, mode = problem
    shift = obs.m // 8 if mode == "functional" else 1 + rows % (obs.m - 1)
    est = fd.deconvolve(obs, kernel, mode=mode, nu=2.0, c_beta=3.0).values
    moved = fd.deconvolve(shifted(obs, shift, 0), np.roll(kernel, shift, axis=0),
                          mode=mode, nu=2.0, c_beta=3.0).values
    assert miss(moved, np.roll(est, shift, axis=0)) <= TOL


@given(problems())
@settings(max_examples=10, deadline=None)
def test_a_shift_by_one_sample_in_t_is_not_a_symmetry(problem):
    obs, kernel, mode = problem
    ks = fd.kernel_spectrum(kernel)
    est = fd.deconvolve(obs, ks, mode=mode).values
    moved = fd.deconvolve(shifted(obs, 1, 1), ks, mode=mode).values
    assert miss(moved, np.roll(est, 1, axis=1)) > 1e-3


def test_the_cli_estimate_of_shifted_fdg_data_is_shifted(tmp_path):
    """The streamed path, estimate -> sample_rows -> save_grid, keeps the symmetry."""
    m, n = 16, 256
    obs = simlab.synthesize_data(simlab.product_truth("Bumps", "Blip", m, n), 0.5, seed=4)
    save_grid(tmp_path / "kernel.fdg", fd.ObservationGrid(simlab.kernel_grid(m, n), 0.0))
    estimates = []
    for name, grid in (("y", obs), ("y_shifted", shifted(obs, n // 8, 1))):
        save_grid(tmp_path / f"{name}.fdg", grid)
        out = tmp_path / f"{name}_est.fdg"
        assert main(["deconvolve", "--input", str(tmp_path / f"{name}.fdg"),
                     "--kernel", str(tmp_path / "kernel.fdg"), "--out", str(out)]) == 0
        estimates.append(load_grid(out).samples)
    assert miss(estimates[1], np.roll(estimates[0], n // 8, axis=1)) <= TOL
