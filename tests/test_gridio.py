"""Grid persistence: binary format, CSV fallback, format sniffing."""

import numpy as np
import pytest

import funcdeconv as fd
from funcdeconv import gridio
from funcdeconv.exceptions import ConfigError


@pytest.fixture
def grid():
    rng = np.random.default_rng(7)
    return fd.ObservationGrid(rng.standard_normal((5, 16)), sigma=0.25)


def test_binary_roundtrip_is_bitwise(tmp_path, grid):
    path = tmp_path / "grid.fdg"
    gridio.save_grid_binary(path, grid)
    back = gridio.load_grid_binary(path)
    assert back.sigma == grid.sigma
    assert np.array_equal(back.samples, grid.samples)


def test_csv_roundtrip_is_bitwise(tmp_path, grid):
    """repr round-trips doubles exactly, so even CSV is lossless."""
    path = tmp_path / "grid.csv"
    gridio.save_grid_csv(path, grid)
    back = gridio.load_grid_csv(path)
    assert back.sigma == grid.sigma
    assert np.array_equal(back.samples, grid.samples)


def test_dispatch_on_extension(tmp_path, grid):
    csv_path = tmp_path / "grid.csv"
    fd.save_grid(csv_path, grid)
    assert csv_path.read_text().splitlines()[0] == "5,16,0.25"
    bin_path = tmp_path / "grid.fdg"
    fd.save_grid(bin_path, grid)
    assert bin_path.read_bytes()[:4] == gridio.MAGIC


def test_load_sniffs_magic_regardless_of_name(tmp_path, grid):
    path = tmp_path / "grid.dat"
    gridio.save_grid_binary(path, grid)
    back = fd.load_grid(path)
    assert np.array_equal(back.samples, grid.samples)


def test_load_falls_back_to_csv_without_magic(tmp_path, grid):
    path = tmp_path / "grid.dat"
    gridio.save_grid_csv(path, grid)
    back = fd.load_grid(path)
    assert np.array_equal(back.samples, grid.samples)


def test_truncated_binary_rejected(tmp_path, grid):
    path = tmp_path / "grid.fdg"
    gridio.save_grid_binary(path, grid)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(ConfigError):
        fd.load_grid(path)


def test_truncated_header_rejected(tmp_path):
    path = tmp_path / "grid.fdg"
    path.write_bytes(gridio.MAGIC + bytes(8))
    with pytest.raises(ConfigError, match="truncated header"):
        fd.load_grid(path)


def test_oversized_header_rejected_before_reading(tmp_path):
    """A header promising 2^62 x 2^62 samples must not reach fh.read."""
    path = tmp_path / "grid.fdg"
    path.write_bytes(gridio.MAGIC + gridio._HEADER.pack(2**62, 2**62, 0.25)
                     + bytes(8 * 16))
    with pytest.raises(ConfigError, match="header promises"):
        fd.load_grid(path)


def test_wrong_magic_rejected(tmp_path, grid):
    path = tmp_path / "grid.fdg"
    gridio.save_grid_binary(path, grid)
    raw = path.read_bytes()
    path.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(ConfigError):
        gridio.load_grid_binary(path)


def test_csv_header_mismatch_rejected(tmp_path, grid):
    path = tmp_path / "grid.csv"
    gridio.save_grid_csv(path, grid)
    lines = path.read_text().splitlines()
    lines[0] = "4,16,0.25"          # claims 4 profiles, file has 5
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError):
        gridio.load_grid_csv(path)
