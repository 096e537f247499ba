"""Shared fixtures: cached bases, kernel spectra, and the 48-cell table."""

import csv

import numpy as np
import pytest

import funcdeconv as fd
from funcdeconv import simlab


@pytest.fixture(scope="session")
def meyer():
    return fd.MeyerBasis()


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
