"""Shared fixtures: cached bases, kernel spectra, the 48-cell table, and the
pointwise references of the Meyer atoms and of the rate exponent."""

import csv
from fractions import Fraction

import numpy as np
import pytest

import funcdeconv as fd
from funcdeconv import simlab


@pytest.fixture(scope="session")
def meyer():
    return fd.MeyerBasis()


def atom(level, window, k, m):
    """Fourier coefficients at integer frequencies ``m`` of either sign of the
    periodized atom of shift ``k`` at ``level``, 2^(-level/2) window(2 pi m / 2^level)
    exp(-2 pi i m k / 2^level), with window ``fd.psi_hat`` (wavelet) or ``fd.phi_hat``
    (scaling function): the pointwise reference for ``MeyerBasis.band_matrix``."""
    m = np.asarray(m, dtype=float)
    return (2.0**(-level / 2) * window(2 * np.pi * m / 2**level)
            * np.exp(-2j * np.pi * m * k / 2**level))


def packed_atoms(basis, big_j, m):
    """The (2^J, len(m)) atoms of levels [m0-1, J) at frequencies ``m``, rows in the
    packed order: the scaling block (phi at level m0), then the levels m0..J-1."""
    rows = [atom(basis.m0, fd.phi_hat, k, m) for k in range(2**basis.m0)]
    for j in range(basis.m0, big_j):
        rows += [atom(j, fd.psi_hat, k, m) for k in range(2**j)]
    return np.array(rows)


@pytest.fixture(scope="session")
def atoms():
    return packed_atoms


def rate_min_form(ball, nu):
    """The rate exponent as the three-way min of the ``rates`` module docstring,
    s1' = s1 + 1/2 - 1/min(p, 2), exact for rational inputs: the reference the
    case form of ``fd.exponent_multi`` is checked against in the theorem regime."""
    s1, s2 = ball.s1, ball.s2_min
    s1p = s1 + Fraction(1, 2) - Fraction(1) / min(ball.p, 2)
    return min(2 * s2 / (2 * s2 + 1),
               2 * s1 / (2 * s1 + 2 * nu + 1),
               2 * s1p / (2 * s1p + 2 * nu))


@pytest.fixture(scope="session")
def min_form():
    return rate_min_form


@pytest.fixture(scope="session")
def spatial():
    return fd.SpatialBasis()


@pytest.fixture(scope="session")
def kernel_for():
    """Factory: (M, N) -> (reference kernel grid, its KernelSpectrum), cached."""
    cache = {}

    def build(m, n):
        if (m, n) not in cache:
            grid = simlab.kernel_grid(m, n)
            cache[(m, n)] = (grid, fd.kernel_spectrum(grid))
        return cache[(m, n)]

    return build


@pytest.fixture(scope="session")
def table25():
    """Full benchmark table at 25 replicates (shared by the slow statistics tests)."""
    return simlab.table1(runs=25, seed=0)


def cell(rows, f1, f2, m, sigma, mode):
    """Pull one table cell's mean MISE."""
    for row in rows:
        if (row["f1"], row["f2"], row["M"], row["sigma"], row["mode"]) == \
                (f1, f2, m, sigma, mode):
            return row["mean_mise"]
    raise KeyError((f1, f2, m, sigma, mode))


@pytest.fixture(scope="session")
def table_cell():
    return cell


def read_table_csv(path):
    """Rows of a ``write_table_csv`` file with the numeric columns parsed."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        for key in ("M", "runs", "seed"):
            row[key] = int(row[key])
        for key in ("sigma", "mean_mise", "sd_mise"):
            row[key] = float(row[key])
    return rows


@pytest.fixture(scope="session")
def read_table():
    return read_table_csv
