"""Grid persistence: binary format, CSV fallback, format sniffing."""

import numpy as np
import pytest

import funcdeconv as fd
from funcdeconv import gridio, spectra
from funcdeconv.exceptions import ConfigError


@pytest.fixture
def grid():
    rng = np.random.default_rng(7)
    return fd.ObservationGrid(rng.standard_normal((5, 16)), sigma=0.25)


def test_binary_roundtrip_is_bitwise(tmp_path, grid):
    path = tmp_path / "grid.fdg"
    gridio.save_grid_binary(path, grid)
    back = gridio.load_grid(path)
    assert back.sigma == grid.sigma
    assert np.array_equal(back.samples, grid.samples)


def test_csv_roundtrip_is_bitwise(tmp_path, grid):
    """repr round-trips doubles exactly, so even CSV is lossless."""
    path = tmp_path / "grid.csv"
    gridio.save_grid_csv(path, grid)
    back = gridio.load_grid(path)
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
    """A .fdg path is read as binary: a corrupt magic is named, not read as CSV."""
    path = tmp_path / "grid.fdg"
    gridio.save_grid_binary(path, grid)
    raw = path.read_bytes()
    path.write_bytes(b"XX\xe0X" + raw[4:])
    with pytest.raises(ConfigError, match=r"magic b'XX\\xe0X'"):
        gridio.load_grid(path)


def test_csv_header_mismatch_rejected(tmp_path, grid):
    path = tmp_path / "grid.csv"
    gridio.save_grid_csv(path, grid)
    lines = path.read_text().splitlines()
    lines[0] = "4,16,0.25"          # claims 4 profiles, file has 5
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError):
        gridio.load_grid(path)


def test_rewrite_replaces_longer_contents(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("a much longer first version\n")
    with gridio.rewrite(path) as fh:
        fh.write("short\n")
    assert path.read_text() == "short\n"


def test_rewrite_creates_missing_files_and_never_opens_with_truncation(
        tmp_path, grid, monkeypatch):
    """A truncating open would send each rewrite of an output to the disk."""
    flags = []
    real_open = gridio.os.open

    def spy(path, flag, *args):
        flags.append(flag)
        return real_open(path, flag, *args)

    monkeypatch.setattr(gridio.os, "open", spy)
    path = tmp_path / "grid.fdg"
    gridio.save_grid_binary(path, grid)
    gridio.save_grid_binary(path, grid)
    assert np.array_equal(gridio.load_grid(path).samples, grid.samples)
    assert len(flags) == 2
    assert all(f & gridio.os.O_CREAT and not f & gridio.os.O_TRUNC for f in flags)


def test_rewrite_cuts_a_failed_write_to_what_was_written(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old contents that must not survive\n")
    with pytest.raises(RuntimeError):
        with gridio.rewrite(path) as fh:
            fh.write("new")
            raise RuntimeError("writer failed")
    assert path.read_text() == "new"


def test_rewrite_rejects_read_modes(tmp_path):
    with pytest.raises(ValueError):
        with gridio.rewrite(tmp_path / "x", "rb"):
            pass


def test_binary_rewrite_of_a_larger_grid_file(tmp_path, grid):
    path = tmp_path / "grid.fdg"
    gridio.save_grid_binary(path, fd.ObservationGrid(np.zeros((9, 32)), sigma=1.0))
    gridio.save_grid_binary(path, grid)
    back = fd.load_grid(path)
    assert back.sigma == grid.sigma
    assert np.array_equal(back.samples, grid.samples)


@pytest.mark.parametrize("suffix", [".fdg", ".csv"])
def test_fourier_coeffs_of_a_file_is_that_of_its_array_bitwise(tmp_path, suffix):
    """80 x 512 is three row blocks (32, 32, 16): the blocks of the file and of
    an ObservationGrid go through the same matmul (narrow band) and rfft (full
    width) as the array's."""
    samples = np.random.default_rng(11).standard_normal((80, 512))
    path = tmp_path / f"grid{suffix}"
    obs = fd.ObservationGrid(samples, sigma=0.5)
    fd.save_grid(path, obs)
    for source in (fd.open_grid(path), obs):
        for k in (9, None):
            assert fd.fourier_coeffs(source, k).tobytes() == \
                fd.fourier_coeffs(samples, k).tobytes()
        assert fd.kernel_spectrum(source).g_coeffs.tobytes() == \
            fd.kernel_spectrum(samples).g_coeffs.tobytes()


def test_open_grid_reads_the_header_only(tmp_path):
    """The samples of an .fdg file are read by ``row_blocks``, 64 rows at N = 256,
    into one reused buffer, and checked block by block; the row source that
    ``open_grid`` returns has no ``samples``."""
    path = tmp_path / "grid.fdg"
    samples = np.arange(70 * 256, dtype=float).reshape(70, 256)
    samples[69, 3] = np.nan
    path.write_bytes(gridio.MAGIC + gridio._HEADER.pack(70, 256, 0.5) + samples.tobytes())
    gf = gridio.open_grid(path)
    assert (gf.m, gf.n, gf.sigma) == (70, 256, 0.5)
    assert not hasattr(gf, "samples")
    seen = []
    with pytest.raises(ConfigError, match=rf"{path}: non-finite sample at \(69, 3\)"):
        for start, rows in gf.row_blocks():
            seen.append((start, rows.shape, rows.ctypes.data))
            assert np.array_equal(rows, samples[start:start + len(rows)])
    assert [s[:2] for s in seen] == [(0, (64, 256))]
    samples[69, 3] = 0.0
    path.write_bytes(gridio.MAGIC + gridio._HEADER.pack(70, 256, 0.5) + samples.tobytes())
    seen = [(start, rows.shape, rows.ctypes.data) for start, rows in gf.row_blocks()]
    assert [s[:2] for s in seen] == [(0, (64, 256)), (64, (6, 256))]
    assert seen[0][2] == seen[1][2]


def test_a_file_that_shrinks_after_open_is_named(tmp_path, grid):
    path = tmp_path / "grid.fdg"
    gridio.save_grid_binary(path, grid)
    gf = gridio.open_grid(path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ConfigError, match="file shrank"):
        list(gf.row_blocks())


def test_a_non_power_of_two_n_is_named_with_its_file(tmp_path):
    path = tmp_path / "grid.fdg"
    path.write_bytes(gridio.MAGIC + gridio._HEADER.pack(2, 48, 0.5) + bytes(8 * 2 * 48))
    with pytest.raises(ConfigError, match=f"{path}: time length N=48"):
        gridio.open_grid(path)


@pytest.mark.parametrize("suffix", [".fdg", ".csv"])
def test_a_row_source_is_written_block_by_block_as_its_array_is(tmp_path, suffix):
    """Any row source with a sigma is written: 70 x 256 in blocks of 64 and 6 rows
    gives the bytes of the whole array's ObservationGrid."""
    samples = np.random.default_rng(3).standard_normal((70, 256))
    source = spectra.RowSource(70, 256, lambda: spectra.array_blocks(samples), sigma=0.5)
    whole, blocked = tmp_path / f"whole{suffix}", tmp_path / f"blocked{suffix}"
    fd.save_grid(whole, fd.ObservationGrid(samples, sigma=0.5))
    fd.save_grid(blocked, source)
    assert blocked.read_bytes() == whole.read_bytes()


@pytest.mark.parametrize("suffix", [".fdg", ".csv"])
def test_a_block_that_fails_removes_the_file_an_older_one_included(tmp_path, suffix):
    """A grid file is written as its blocks are made; a block that raises leaves
    no file at the path, neither a part of the new grid nor the older file."""
    def blocks():
        yield 0, np.zeros((2, 16))
        raise ConfigError("block failed")

    path = tmp_path / f"grid{suffix}"
    for older in (False, True):
        if older:
            path.write_bytes(b"an older grid")
        with pytest.raises(ConfigError, match="block failed"):
            fd.save_grid(path, spectra.RowSource(4, 16, blocks))
        assert not path.exists()
