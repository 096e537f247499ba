"""Command-line surface: JSON outputs, artifacts, manifests, exit codes."""

import contextlib
import gc
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import funcdeconv as fd
from funcdeconv import gridio, simlab
from funcdeconv.cli import _rational, _write_coeffs_csv, build_parser, main
from funcdeconv.estimator import HyperCoeffs


def main_recording_warnings(argv):
    """``main(argv)`` and the Python warnings it raised, which a shell run
    would print on stderr."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    return code, caught


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Observation + kernel files shared by the deconvolve tests."""
    root = tmp_path_factory.mktemp("cliws")
    m, n = 64, 256
    truth = simlab.product_truth("Quadratic", "Blip", m, n)
    obs = simlab.synthesize_data(truth, 0.5, seed=4)
    obs_path, kern_path = root / "obs.fdg", root / "kernel.fdg"
    gridio.save_grid(obs_path, obs)
    gridio.save_grid(kern_path, fd.ObservationGrid(simlab.kernel_grid(m, n)))
    return root, obs_path, kern_path


@pytest.fixture(scope="module")
def deconv_run(workspace):
    """One default `deconvolve` invocation; tests inspect its artifacts."""
    root, obs_path, kern_path = workspace
    out_path = root / "fhat.fdg"
    code = main(["deconvolve", "--input", str(obs_path),
                 "--kernel", str(kern_path), "--out", str(out_path)])
    return {"code": code, "out": out_path,
            "coeffs": root / "fhat.fdg.coeffs.csv",
            "manifest": root / "fhat.fdg.manifest"}


class TestRatesCommand:
    def test_worked_example_json(self, capsys):
        assert main(["rates", "--s1", "2", "--s2", "1", "--nu", "1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["d"] == pytest.approx(4 / 7)
        assert out["d1"] == 0
        assert out["regime"] == "DenseTime"

    def test_multivariate_json(self, capsys):
        assert main(["rates", "--s1", "4", "--s2", "1", "1", "2",
                     "--nu", "1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["d"] == pytest.approx(2 / 3)
        assert out["d1"] == 1

    def test_fractions_stay_exact(self, capsys):
        assert main(["rates", "--s1", "6/5", "--s2", "1", "--nu", "2",
                     "--p", "1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["d"] == pytest.approx(7 / 27)

    def test_out_of_regime_ball_warns_on_one_line(self, capsys):
        code, caught = main_recording_warnings(["rates", "--s1", "1/4", "--s2", "1",
                                                "--nu", "1"])
        out, err = capsys.readouterr()
        assert code == 0 and not caught
        assert err.startswith("warning: ") and "regime" in err
        assert len(err.splitlines()) == 1
        assert json.loads(out)["regime_warning"] is True

    def test_manifest_written_on_request(self, tmp_path, capsys):
        man = tmp_path / "rates.manifest"
        assert main(["rates", "--s1", "2", "--s2", "1", "--nu", "1",
                     "--manifest", str(man)]) == 0
        text = man.read_text()
        assert "command=rates" in text
        assert "s1=2" in text


class TestCompareCommand:
    def test_asymptotic_verdict_json(self, capsys):
        assert main(["compare", "--s1", "10", "--s2", "0.6", "--nu", "0",
                     "--M", "4", "--N", "65536"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] == "SeparateBetter"
        assert out["exponent"] == pytest.approx(9.4 / 12.6, rel=1e-12)
        assert out["surrogate"] < 1.0


class TestNuEstimateCommand:
    def test_reports_decay_fit(self, workspace, capsys):
        _, _, kern_path = workspace
        assert main(["nu-estimate", "--kernel", str(kern_path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert 1.7 < out["nu"] < 2.3
        assert 0 < out["c1"] <= out["c2"]

    def test_explicit_window(self, workspace, capsys):
        _, _, kern_path = workspace
        assert main(["nu-estimate", "--kernel", str(kern_path),
                     "--mlo", "8", "--mhi", "32"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert 1.5 < out["nu"] < 2.5

    def test_one_given_end_takes_the_default_other_end(self, workspace, capsys):
        """--mlo alone fits over [mlo, N/4], the default upper end."""
        _, _, kern_path = workspace
        assert main(["nu-estimate", "--kernel", str(kern_path), "--mlo", "10"]) == 0
        out = json.loads(capsys.readouterr().out)
        ks = fd.kernel_spectrum(gridio.load_grid(kern_path).samples)
        nu = fd.estimate_nu(ks, (10, 256 // 4))
        assert out["nu"] == nu
        assert (out["c1"], out["c2"]) == fd.kernel_bounds(ks, nu, (10, 256 // 4))


class TestDeconvolveCommand:
    def test_writes_all_artifacts(self, deconv_run):
        assert deconv_run["code"] == 0
        assert deconv_run["out"].exists()
        assert deconv_run["coeffs"].exists()
        assert deconv_run["manifest"].exists()

    def test_coeff_csv_layout(self, deconv_run):
        lines = deconv_run["coeffs"].read_text().splitlines()
        assert lines[0] == "j,k,jprime,kprime,re,kept"
        first = lines[1].split(",")
        assert len(first) == 6
        assert first[5] in {"0", "1"}

    @pytest.mark.parametrize("mode", ["functional", "separate"])
    def test_coeff_csv_matches_a_row_by_row_reference(self, workspace, tmp_path,
                                                      mode):
        _, obs_path, kern_path = workspace
        rec = fd.deconvolve(gridio.load_grid(obs_path),
                            gridio.load_grid(kern_path).samples, mode=mode)
        coeffs = rec.coeffs
        if mode == "functional":
            sslices = coeffs.plan.spatial_slices
        else:
            sslices = {-1: slice(0, coeffs.entries.shape[0])}
        want = ["j,k,jprime,kprime,re,kept"]
        for jp, ss in sslices.items():
            for j, ts in coeffs.plan.time_slices.items():
                block, kept = coeffs.entries[ss, ts], coeffs.kept[ss, ts]
                for kp in range(block.shape[0]):
                    for k in range(block.shape[1]):
                        want.append(f"{j},{k},{jp},{kp},{float(block[kp, k])!r},"
                                    f"{int(kept[kp, k])}")
        path = tmp_path / "coeffs.csv"
        _write_coeffs_csv(path, coeffs)
        assert path.read_text() == "\n".join(want) + "\n"

    def test_output_matches_library_call(self, workspace, deconv_run):
        _, obs_path, kern_path = workspace
        obs = gridio.load_grid(obs_path)
        kern = gridio.load_grid(kern_path)
        rec = fd.deconvolve(obs, kern.samples)
        saved = gridio.load_grid(deconv_run["out"])
        assert np.array_equal(saved.samples, rec.values)

    def test_manifest_replay_reproduces_output_bitwise(self, deconv_run):
        original = deconv_run["out"].read_bytes()
        deconv_run["out"].unlink()
        assert main(["--from-manifest", str(deconv_run["manifest"])]) == 0
        assert deconv_run["out"].read_bytes() == original

    def test_explicit_levels_recorded_in_manifest(self, workspace):
        root, obs_path, kern_path = workspace
        out_path = root / "fhat2.fdg"
        assert main(["deconvolve", "--input", str(obs_path),
                     "--kernel", str(kern_path), "--out", str(out_path),
                     "--j", "4", "--jprime", "5", "--cbeta", "3.0"]) == 0
        manifest = dict(line.split("=", 1) for line in
                        (root / "fhat2.fdg.manifest").read_text().splitlines())
        assert manifest["j"] == "4"
        assert manifest["jprime"] == "5"
        assert manifest["cbeta"] == "3.0"

    def test_nu_zero_records_the_constant_at_nu_zero(self, workspace):
        """`--nu 0` thresholds with C_beta = 4 / sqrt(c1) at nu = 0, not with
        the constant of the fitted nu."""
        root, obs_path, kern_path = workspace
        out_path = root / "nu0.fdg"
        assert main(["deconvolve", "--input", str(obs_path), "--kernel", str(kern_path),
                     "--out", str(out_path), "--nu", "0"]) == 0
        manifest = dict(line.split("=", 1) for line in
                        (root / "nu0.fdg.manifest").read_text().splitlines())
        ks = fd.kernel_spectrum(gridio.load_grid(kern_path).samples)
        assert manifest["nu"] == "0.0"
        assert float(manifest["cbeta"]) == 4.0 / math.sqrt(fd.kernel_bounds(ks, 0.0)[0])

    def test_flat_spectrum_kernel_is_a_numerical_failure(self, workspace,
                                                         capsys):
        root, obs_path, _ = workspace
        t = np.arange(256) / 256
        cos_kernel = np.tile(np.cos(2 * np.pi * t), (64, 1))
        cos_path = root / "coskernel.fdg"
        gridio.save_grid(cos_path, fd.ObservationGrid(cos_kernel))
        code = main(["deconvolve", "--input", str(obs_path),
                     "--kernel", str(cos_path), "--out", str(root / "x.fdg"),
                     "--nu", "2.0", "--cbeta", "4.0"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_zero_sigma_input_warns_once_and_succeeds(self, workspace, capsys):
        root, _, kern_path = workspace
        truth = simlab.product_truth("Quadratic", "Blip", 64, 256)
        clean_path = root / "clean.fdg"
        gridio.save_grid(clean_path, simlab.synthesize_data(truth, 0.0))
        capsys.readouterr()
        code = main(["deconvolve", "--input", str(clean_path),
                     "--kernel", str(kern_path), "--out", str(root / "c.fdg")])
        err = capsys.readouterr().err
        assert code == 0
        assert err.startswith("warning: ") and "no threshold" in err
        assert len(err.splitlines()) == 1

    @staticmethod
    def warm_call_peak(tmp_path, mode):
        """Peak traced bytes of a 128 x 512 CLI deconvolve, after a warm-up call
        has imported numpy.fft and argparse's locale and filled the memoised
        band DFT matrices."""
        m, n = 128, 512
        obs_path, kern_path = tmp_path / "obs.fdg", tmp_path / "kernel.fdg"
        truth = simlab.product_truth("Quadratic", "Blip", m, n)
        gridio.save_grid(obs_path, simlab.synthesize_data(truth, 0.5, seed=1))
        gridio.save_grid(kern_path, fd.ObservationGrid(simlab.kernel_grid(m, n)))
        argv = ["deconvolve", "--input", str(obs_path), "--kernel", str(kern_path),
                "--mode", mode, "--out", str(tmp_path / "fhat.fdg")]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
            gc.collect()
            tracemalloc.start()
            try:
                code = main(argv)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert code == 0
        return peak

    @pytest.mark.parametrize("mode", ["functional", "separate"])
    def test_a_cold_call_holds_no_samples_of_either_file(self, tmp_path, mode):
        """Both files are read a row block at a time, the kernel's into its
        spectrum and the data's into their band: after a warm-up call, one
        128 x 512 call peaks below 2.5 float grids under tracemalloc (the
        kernel spectrum, plus row blocks and a CSV chunk). Holding either
        file's samples would add a grid."""
        assert self.warm_call_peak(tmp_path, mode) < 2.5 * 8 * 128 * 512

    @pytest.mark.parametrize("mode", ["functional", "separate"])
    def test_a_cold_call_never_holds_the_estimate_whole(self, tmp_path, mode):
        """The estimate is written a row block (32 rows) at a time: one 128 x 512
        call peaks below 1.6 float grids, the kernel spectrum and a block (1.46
        measured in both modes). Holding the estimate whole took 2.33-2.35."""
        assert self.warm_call_peak(tmp_path, mode) < 1.6 * 8 * 128 * 512

    @pytest.mark.parametrize("suffix", [".fdg", ".csv"])
    @pytest.mark.parametrize("mode", ["functional", "separate"])
    def test_output_matches_the_library_across_row_blocks(self, tmp_path, mode, suffix):
        """At 256 x 512 the files are read in 8 row blocks of 32; the written
        estimate is the library's on the whole grids, bit for bit."""
        m, n = 256, 512
        obs_path, kern_path = tmp_path / f"obs{suffix}", tmp_path / f"kernel{suffix}"
        truth = simlab.product_truth("Blip", "Bumps", m, n)
        gridio.save_grid(obs_path, simlab.synthesize_data(truth, 0.5, seed=2))
        gridio.save_grid(kern_path, fd.ObservationGrid(simlab.kernel_grid(m, n)))
        out = tmp_path / "fhat.fdg"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["deconvolve", "--input", str(obs_path), "--kernel", str(kern_path),
                         "--mode", mode, "--out", str(out)]) == 0
        rec = fd.deconvolve(gridio.load_grid(obs_path), gridio.load_grid(kern_path).samples,
                            mode=mode)
        assert gridio.load_grid(out).samples.tobytes() == rec.values.tobytes()

    def test_missing_input_is_a_usage_failure(self, workspace, capsys):
        root, _, kern_path = workspace
        code = main(["deconvolve", "--input", str(root / "nope.fdg"),
                     "--kernel", str(kern_path), "--out", str(root / "y.fdg")])
        assert code == 1
        assert "error" in capsys.readouterr().err


def _csv_reference(coeffs) -> str:
    """The coefficient CSV formatted one coefficient at a time."""
    lines = ["j,k,jprime,kprime,re,kept\n"]
    for jp, ss in coeffs.plan.spatial_slices.items():
        for j, ts in coeffs.plan.time_slices.items():
            block, kept = coeffs.entries[ss, ts], coeffs.kept[ss, ts]
            for kp in range(block.shape[0]):
                for k in range(block.shape[1]):
                    v = float(block[kp, k])
                    lines.append(f"{j},{k},{jp},{kp},{v!r},{int(kept[kp, k])}\n")
    return "".join(lines)


_TINY = 2.2250738585072014e-308     # the smallest normal double


def _coefficient_values():
    """Finite doubles, -0.0, subnormals and the exponent forms of ``repr``."""
    return st.one_of(
        st.just(-0.0), st.just(0.0),
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(min_value=-_TINY, max_value=_TINY, exclude_min=True, exclude_max=True),
        st.floats(min_value=1e16, allow_infinity=False),
        st.floats(max_value=-1e16, allow_infinity=False),
        st.floats(min_value=_TINY, max_value=1e-5),
        st.floats(min_value=-1e-5, max_value=-_TINY),
    )


class TestCoeffCsvWriter:
    """``_write_coeffs_csv`` writes byte for byte what a one-line-per-coefficient
    formatter writes, across every chunk edge: a block 512 wide (J = 10, one row
    per chunk) and block row counts that are not a multiple of the chunk step."""

    # (mode, M): functional 16 x 1024 in 2 x 8 blocks, separate 70 x 1024 in one
    # block row, whose 8-wide blocks are written as 64 rows, then 6
    LAYOUTS = {"functional": 16, "separate": 70}

    @pytest.mark.parametrize("mode", list(LAYOUTS))
    @given(values=st.lists(_coefficient_values(), min_size=1, max_size=40),
           flags=st.lists(st.booleans(), min_size=1, max_size=9))
    @example(values=[-0.0, 5e-324, -2.5e-310, 1e16, -1.2345678901234567e300, 1e-5,
                     9.999999999999999e-06, 0.1, -1.0], flags=[True, False])
    @settings(deadline=None, max_examples=15,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_matches_a_one_line_reference_formatter(self, kernel_for, tmp_path, mode,
                                                    values, flags):
        m = self.LAYOUTS[mode]
        cfg = fd.EstimatorConfig(c_beta=1.0, nu=0.0, epsilon=0.01, mode=mode,
                                 j=10, j_prime=4)
        pl = fd.plan(cfg, kernel_for(m, 4096)[1])
        shape = (m if mode == "separate" else 2**cfg.j_prime, 2**cfg.j)
        coeffs = HyperCoeffs(np.resize(np.array(values, dtype=float), shape), pl,
                             np.resize(np.array(flags), shape))
        assert max(ts.stop - ts.start for ts in pl.time_slices.values()) == 512
        path = tmp_path / "coeffs.csv"
        _write_coeffs_csv(path, coeffs)
        assert path.read_bytes() == _csv_reference(coeffs).encode()


class TestSimulateCommand:
    def test_prints_summary_and_per_run_csv(self, tmp_path, capsys):
        out = tmp_path / "runs.csv"
        code = main(["simulate", "--f1", "Quadratic", "--f2", "Blip",
                     "--m", "64", "--n", "256", "--sigma", "0.5",
                     "--runs", "3", "--out", str(out)])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        summary = dict(line.split("=", 1) for line in lines if "=" in line)
        assert float(summary["mean_mise"]) > 0
        assert float(summary["sd_mise"]) >= 0
        assert summary["runs"] == "3"
        csv_lines = out.read_text().splitlines()
        assert csv_lines[0] == "rep,mise"
        assert len(csv_lines) == 4

    def test_unknown_signal_is_a_usage_failure(self, tmp_path, capsys):
        code = main(["simulate", "--f1", "Doppler", "--f2", "Blip",
                     "--m", "64", "--n", "256", "--runs", "1",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1


class TestMalformedInput:
    """Each malformed input exits 1 with a single `error:` line."""

    def assert_one_line_usage_failure(self, code, capsys):
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ")
        assert len(err.splitlines()) == 1
        return err

    @pytest.mark.parametrize("raw", [
        gridio.MAGIC + bytes(8),
        gridio.MAGIC + gridio._HEADER.pack(64, 256, math.nan)
        + bytes(8 * 64 * 256),
        gridio.MAGIC + gridio._HEADER.pack(0, 0, 0.5),
        gridio.MAGIC + gridio._HEADER.pack(0, 2**63, 0.5),
    ], ids=["truncated_header", "nan_sigma", "empty_grid", "empty_grid_huge_n"])
    def test_bad_grid_file(self, workspace, tmp_path, capsys, raw):
        _, _, kern_path = workspace
        path = tmp_path / "bad.fdg"
        path.write_bytes(raw)
        code = main(["deconvolve", "--input", str(path), "--kernel",
                     str(kern_path), "--out", str(tmp_path / "z.fdg")])
        self.assert_one_line_usage_failure(code, capsys)

    def deconvolve_fails_naming(self, tmp_path, capsys, data, kernel, *named):
        """``deconvolve`` of the two files exits 1 with one error line holding
        each of ``named`` and leaves an existing ``--out`` as it was."""
        out = tmp_path / "out.fdg"
        out.write_bytes(b"an earlier estimate")
        code = main(["deconvolve", "--input", str(data), "--kernel", str(kernel),
                     "--out", str(out)])
        err = self.assert_one_line_usage_failure(code, capsys)
        assert all(word in err for word in named), err
        assert out.read_bytes() == b"an earlier estimate"
        return err

    @pytest.mark.parametrize("suffix", [".fdg", ".csv"])
    @pytest.mark.parametrize("role", ["input", "kernel"])
    def test_a_non_finite_sample_is_named_with_its_file_and_place(self, tmp_path, capsys,
                                                                  role, suffix):
        """The NaN sits in the second row block of a 128 x 256 grid (64 rows a block)."""
        m, n = 128, 256
        samples = simlab.kernel_grid(m, n)
        files = {}
        for name in ("input", "kernel"):
            files[name] = tmp_path / f"{name}{suffix}"
            grid = fd.ObservationGrid(samples.copy(), sigma=0.5)
            if name == role:
                grid.samples[100, 7] = np.nan
            gridio.save_grid(files[name], grid)
        path = files[role]
        self.deconvolve_fails_naming(tmp_path, capsys, files["input"], files["kernel"],
                                     f"{path}: non-finite sample at (100, 7)")

    @pytest.mark.parametrize("suffix", [".fdg", ".csv"])
    @pytest.mark.parametrize("sigma", [math.nan, -0.5])
    def test_a_bad_header_sigma_is_named_with_its_file(self, workspace, tmp_path, capsys,
                                                       sigma, suffix):
        _, _, kern_path = workspace
        path = tmp_path / f"obs{suffix}"
        head = gridio.MAGIC + gridio._HEADER.pack(64, 256, sigma) if suffix == ".fdg" \
            else f"64,256,{sigma!r}\n".encode()
        body = bytes(8 * 64 * 256) if suffix == ".fdg" \
            else ("0.0," * 255 + "0.0\n").encode() * 64
        path.write_bytes(head + body)
        self.deconvolve_fails_naming(tmp_path, capsys, path, kern_path,
                                     f"{path}: sigma must be finite and >= 0, got {sigma}")

    def test_a_shape_mismatch_is_named_from_the_headers(self, tmp_path, capsys):
        """Both files' samples are all NaN: the line names both shapes, not a
        sample, so no sample was read before the headers were compared."""
        path, kern_path = tmp_path / "obs.fdg", tmp_path / "kernel.fdg"
        for p, m in ((path, 32), (kern_path, 64)):
            p.write_bytes(gridio.MAGIC + gridio._HEADER.pack(m, 256, 0.5)
                          + np.full(m * 256, np.nan).tobytes())
        err = self.deconvolve_fails_naming(tmp_path, capsys, path, kern_path,
                                           "32 x 256", "64 x 256", str(path), str(kern_path))
        assert "non-finite" not in err

    def test_out_of_memory_is_one_error_line(self, monkeypatch, capsys):
        """simulate --m 10000000000 fails in reference_spectrum; here the failure
        is raised without allocating."""
        def no_memory(m, n):
            raise MemoryError(f"Unable to allocate an ({m}, {n // 2 + 1}) array")

        monkeypatch.setattr(simlab, "reference_spectrum", no_memory)
        code = main(["simulate", "--runs", "1", "--m", "10000000000"])
        err = self.assert_one_line_usage_failure(code, capsys)
        assert "Unable to allocate" in err

    def test_short_rows_name_the_default_fit_window(self, capsys):
        """At N = 32 the default nu-fit window [N/16, N/4] holds 7 frequencies;
        the error names that window and the way round it, which works."""
        argv = ["simulate", "--m", "16", "--n", "32", "--runs", "1", "--nu", "2"]
        err = self.assert_one_line_usage_failure(main(argv), capsys)
        assert "the default window [N/16, N/4] = [2, 8] at N=32 has 7" in err
        assert "give both nu and C_beta (--nu and --cbeta)" in err
        assert main(argv + ["--cbeta", "1"]) == 0

    @pytest.mark.parametrize("nu", ["600", "1e300"])
    def test_a_nu_whose_bounds_overflow_is_named(self, workspace, tmp_path, capsys, nu):
        """Without --cbeta the default C_beta needs c1, whose m^(2 nu) overflows:
        the line names nu and --cbeta, not a floating-point overflow."""
        _, obs_path, kern_path = workspace
        out = tmp_path / "z.fdg"
        code = main(["deconvolve", "--input", str(obs_path), "--kernel", str(kern_path),
                     "--out", str(out), "--nu", nu])
        err = self.assert_one_line_usage_failure(code, capsys)
        assert f"nu={float(nu)!r} is too large" in err and "give C_beta (--cbeta)" in err
        assert "floating-point" not in err and not out.exists()

    @pytest.mark.parametrize("mode, bound", [("functional", "sqrt(MN) = 128.0"),
                                             ("separate", "sqrt(N) = 16.0")])
    def test_too_large_a_sigma_names_sigma_and_its_bound(self, capsys, mode, bound):
        argv = ["simulate", "--m", "64", "--n", "256", "--runs", "1", "--sigma", "1e6",
                "--mode", mode]
        err = self.assert_one_line_usage_failure(main(argv), capsys)
        assert f"sigma=1000000.0 is too large for {mode} mode" in err
        assert f"it needs sigma < {bound}" in err

    @pytest.mark.parametrize("command", ["deconvolve", "simulate"])
    @pytest.mark.parametrize("cbeta", [[], ["--cbeta", "1"]], ids=["auto_cbeta", "cbeta"])
    def test_a_nan_nu_is_named(self, workspace, tmp_path, capsys, command, cbeta):
        """The line names nu, not the default C_beta that a NaN nu cannot give."""
        _, obs_path, kern_path = workspace
        args = {"deconvolve": ["--input", str(obs_path), "--kernel", str(kern_path)],
                "simulate": ["--m", "64", "--n", "256", "--runs", "1"]}[command]
        out = tmp_path / "z.out"
        code = main([command, *args, "--nu", "nan", *cbeta, "--out", str(out)])
        err = self.assert_one_line_usage_failure(code, capsys)
        assert "nu must be finite and >= 0, got nan" in err and "C_beta" not in err
        assert not out.exists()

    def test_values_near_the_float_limit(self, workspace, tmp_path, capsys):
        """Finite samples whose spectrum overflows stop with one line, no
        RuntimeWarning and no output, instead of writing NaNs."""
        _, _, kern_path = workspace
        path = tmp_path / "huge.fdg"
        gridio.save_grid(path, fd.ObservationGrid(np.full((64, 256), 1e306), sigma=0.5))
        out = tmp_path / "z.fdg"
        code, caught = main_recording_warnings(["deconvolve", "--input", str(path),
                                                "--kernel", str(kern_path), "--out", str(out)])
        err = self.assert_one_line_usage_failure(code, capsys)
        assert "overflow" in err
        assert not caught and not out.exists()

    def test_a_failed_write_removes_an_older_output(self, workspace, tmp_path, capsys):
        """The estimate overflows in the inverse, while --out is being written:
        the older file at --out is removed, not kept, and nothing else is written."""
        _, _, kern_path = workspace
        path = tmp_path / "huge.fdg"
        gridio.save_grid(path, fd.ObservationGrid(np.full((64, 256), 1e306), sigma=0.5))
        out = tmp_path / "z.fdg"
        gridio.save_grid(out, fd.ObservationGrid(np.zeros((64, 256))))
        code = main(["deconvolve", "--input", str(path), "--kernel", str(kern_path),
                     "--out", str(out)])
        assert "overflow" in self.assert_one_line_usage_failure(code, capsys)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["huge.fdg"]

    def test_functional_mode_names_a_non_power_of_two_m(self, tmp_path, capsys):
        truth = simlab.product_truth("Quadratic", "Blip", 100, 512)
        obs_path, kern100 = tmp_path / "obs100.fdg", tmp_path / "kern100.fdg"
        gridio.save_grid(obs_path, simlab.synthesize_data(truth, 0.5, seed=1))
        gridio.save_grid(kern100, fd.ObservationGrid(simlab.kernel_grid(100, 512)))
        argv = ["deconvolve", "--input", str(obs_path), "--kernel", str(kern100)]
        code = main(argv + ["--out", str(tmp_path / "f.fdg")])
        err = self.assert_one_line_usage_failure(code, capsys)
        assert "M=100" in err and "functional" in err
        assert main(argv + ["--mode", "separate", "--out", str(tmp_path / "s.fdg")]) == 0

    def test_zero_runs(self, tmp_path, capsys):
        code = main(["simulate", "--m", "64", "--n", "256", "--runs", "0",
                     "--out", str(tmp_path / "x.csv")])
        self.assert_one_line_usage_failure(code, capsys)

    @pytest.mark.parametrize("argv", [
        ["simulate", "--seed", "-1"],
        ["table1", "--seed", "-1"],
        ["simulate", "--m", "0"],
        ["simulate", "--n", "0"],
        ["simulate", "--threads", "0"],
        ["simulate", "--threads", "-1"],
        ["simulate", "--sigma", "nan"],
        ["simulate", "--sigma", "-1"],
        ["simulate", "--sigma", "inf"],
    ], ids=["simulate_negative_seed", "table1_negative_seed", "simulate_m_zero",
            "simulate_n_zero", "simulate_threads_zero", "simulate_negative_threads",
            "simulate_nan_sigma", "simulate_negative_sigma", "simulate_infinite_sigma"])
    def test_bad_simulation_parameter(self, tmp_path, capsys, argv):
        code, caught = main_recording_warnings(
            argv[:1] + ["--runs", "1", "--n", "64", "--out", str(tmp_path / "x.csv")]
            + argv[1:])
        err = self.assert_one_line_usage_failure(code, capsys)
        assert argv[1][2:] in err and not caught
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("name,raw", [
        ("grid.csv", b"a,b,c\n1,2\n"),
        ("grid.csv", b"2,2,0.1\n1,x\n3,4\n"),
        ("grid.csv", b"2,2,0.1\n1,2\n3\n"),
        ("grid.csv", b"2,2,0.1\n"),
        ("grid.fdg", b"\xff\xfe\x00\x01abc"),
    ], ids=["non_numeric_header", "non_numeric_cell", "ragged_row",
            "header_only", "non_utf8_without_magic"])
    def test_bad_csv_grid(self, workspace, tmp_path, capsys, name, raw):
        _, _, kern_path = workspace
        path = tmp_path / name
        path.write_bytes(raw)
        code, caught = main_recording_warnings(["deconvolve", "--input", str(path),
                                                "--kernel", str(kern_path),
                                                "--out", str(tmp_path / "z.fdg")])
        err = self.assert_one_line_usage_failure(code, capsys)
        assert str(path) in err and not caught

    def test_fdg_kernel_with_a_corrupt_magic(self, workspace, tmp_path, capsys):
        """The error names the magic, not a CSV decoding failure."""
        _, _, kern_path = workspace
        path = tmp_path / "bad.fdg"
        path.write_bytes(b"XXXX" + kern_path.read_bytes()[4:])
        err = self.assert_one_line_usage_failure(
            main(["nu-estimate", "--kernel", str(path)]), capsys)
        assert str(path) in err and "magic b'XXXX'" in err and "CSV" not in err

    @pytest.mark.parametrize("flags", [
        ["--nu", "nan"], ["--nu", "1e300"], ["--nu", "inf"],
        ["--cbeta", "nan"], ["--cbeta", "inf"], ["--nu", "600", "--cbeta", "1"],
    ], ids=["nu_nan", "nu_1e300", "nu_inf", "cbeta_nan", "cbeta_inf",
            "lambda_overflow"])
    def test_bad_estimator_parameter(self, workspace, tmp_path, capsys, flags):
        _, obs_path, kern_path = workspace
        out = tmp_path / "z.fdg"
        code = main(["deconvolve", "--input", str(obs_path), "--kernel",
                     str(kern_path), "--out", str(out), *flags])
        self.assert_one_line_usage_failure(code, capsys)
        assert not out.exists()

    @pytest.mark.parametrize("manifest,message", [
        (None, "--from-manifest needs a path"),
        ("# comment\nsigma=0.5\n", "{path}: manifest has no 'command' line"),
    ], ids=["no_path", "no_command"])
    def test_a_bad_manifest_replay(self, tmp_path, capsys, manifest, message):
        argv = ["--from-manifest"]
        path = tmp_path / "run.manifest"
        if manifest is not None:
            path.write_text(manifest)
            argv.append(str(path))
        err = self.assert_one_line_usage_failure(main(argv), capsys)
        assert err == f"error: {message.format(path=path)}\n"

    @pytest.mark.parametrize("argv", [
        ["rates", "--s1", "1/0", "--s2", "1", "--nu", "1"],
        ["compare", "--s1", "1", "--s2", "1/0", "--nu", "1", "--M", "4", "--N", "8"],
        ["compare", "--s1", "1", "--s2", "1", "--nu", "1", "--M", "0", "--N", "0"],
        ["compare", "--s1", "10", "--s2", "0.6", "--nu", "0", "--M", "-4", "--N", "64"],
        ["compare", "--s1", "10", "--s2", "0.6", "--nu", "0", "--M", "4", "--N", "0"],
        ["rates", "--s1", "2", "--s2=-1/2", "--nu", "1"],
        ["compare", "--s1=-1/2", "--s2", "1", "--nu", "0", "--M", "4", "--N", "64"],
        ["rates", "--s1", "1", "--s2", "inf", "--nu", "1"],
        ["rates", "--s1", "1", "--s2", "1", "inf", "--nu", "1"],
        ["rates", "--s1", "inf", "--s2", "1", "--nu", "1"],
        ["rates", "--s1", "1", "--s2", "1", "--nu", "inf"],
        ["compare", "--s1", "inf", "--s2", "1", "--nu", "1", "--M", "4", "--N", "64"],
        ["compare", "--s1", "1", "--s2", "inf", "--nu", "1", "--M", "4", "--N", "64"],
        ["compare", "--s1", "1", "--s2", "1", "--nu", "inf", "--M", "4", "--N", "64"],
        ["compare", "--s1", "1e400", "--s2", "1", "--nu", "1", "--M", "4", "--N", "64"],
    ], ids=["rates_zero_denominator", "compare_zero_denominator", "compare_m_n_zero",
            "compare_negative_m", "compare_n_zero", "rates_negative_s2",
            "compare_negative_s1", "rates_infinite_s2", "rates_infinite_second_s2",
            "rates_infinite_s1", "rates_infinite_nu", "compare_infinite_s1",
            "compare_infinite_s2", "compare_infinite_nu", "compare_s1_beyond_float"])
    def test_bad_rate_arguments(self, capsys, argv):
        self.assert_one_line_usage_failure(main(argv), capsys)


def _grid_file_bytes():
    """Random files, and random ``FDG1``/CSV headers whose payload is random
    bytes or M*N - 1, M*N or M*N + 1 random doubles (NaN and inf included).
    The shapes lean towards the 16 x 64 of the kernel the test uses."""
    blob = st.binary(max_size=300)
    rows = st.sampled_from([16] * 4 + [0, 1, 3, 2**63, 2**64 - 1])
    cols = st.sampled_from([64] * 4 + [0, 2, 48, 2**32, 2**64 - 1])

    def payload(m, n):
        if m * n > 16 * 64:
            return blob
        return st.one_of(blob, st.sampled_from([0, 0, -1, 1]).flatmap(
            lambda d: hnp.arrays("<f8", max(m * n + d, 0), elements=st.floats())))

    def fdg(m, n, sigma, body):
        if isinstance(body, np.ndarray):
            body = body.tobytes()
        return gridio.MAGIC + gridio._HEADER.pack(m, n, sigma) + body

    def csv(m, n, sigma, body):
        head = f"{m},{n},{sigma!r}\n".encode()
        if isinstance(body, bytes):
            return head + body
        cells = [repr(float(v)) for v in body]
        return head + "".join(",".join(cells[i:i + n]) + "\n"
                              for i in range(0, len(cells), max(n, 1))).encode()

    def framed(mn):
        m, n = mn
        return st.builds(lambda frame, sigma, body: frame(m, n, sigma, body),
                         st.sampled_from([fdg, csv]), st.floats(), payload(m, n))

    return st.one_of(blob, st.tuples(rows, cols).flatmap(framed))


def _numbers():
    """Flag values: small and boundary integers, any float (NaN and inf
    included), and the words the flags accept besides numbers."""
    return st.one_of(st.integers(-3, 9), st.sampled_from([2**31, 10**400]),
                     st.floats(), st.just("auto")).map(str)


def _words():
    """Flag values that have broken the parsers or the arithmetic before: the
    non-finite words, a zero denominator, signs and zero, the float limit and
    beyond, exact fractions; mixed with :func:`_numbers`."""
    return st.one_of(st.sampled_from(["inf", "nan", "1/0", "-1", "0", "1", "2",
                                      "1e308", "1e400", "1e-400", "2/3", "-2/3"]),
                     _numbers())


def _flags(flags):
    """argv words of a {flag: value} dictionary."""
    return [x for kv in flags.items() for x in kv]


def assert_ends_cleanly(argv, capsys, json_out=False):
    """``main(argv)`` ends with code 0, 1 or 2 and at most one line of stderr
    and warnings; with ``json_out``, a success prints valid JSON (no NaN or
    Infinity)."""
    code, caught = main_recording_warnings(argv)
    out, err = capsys.readouterr()
    assert code in (0, 1, 2)
    assert len(err.splitlines()) + len(caught) <= 1, (err, [str(w.message) for w in caught])
    if json_out and code == 0:
        json.loads(out, parse_constant=lambda word: pytest.fail(f"{word} in {out}"))


@pytest.fixture(scope="module")
def small_grids(tmp_path_factory):
    """A 16 x 64 kernel and an observation of a truth under it."""
    root = tmp_path_factory.mktemp("fuzzgrids")
    kernel, obs = root / "k.fdg", root / "y.fdg"
    gridio.save_grid(kernel, fd.ObservationGrid(simlab.kernel_grid(16, 64)))
    truth = simlab.product_truth("Quadratic", "Blip", 16, 64)
    gridio.save_grid(obs, simlab.synthesize_data(truth, 0.5, seed=1))
    return {"input": obs, "kernel": kernel}


_FUZZ = settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture,
                                                       HealthCheck.too_slow])


class TestFuzzGridInput:
    """Whatever bytes the input grid or the kernel holds and whatever values
    the numeric flags of `deconvolve` and `simulate` get, the command ends
    with an exit code and at most one stderr line (warnings included), never
    an exception."""

    def deconvolve_with(self, files, role, raw, suffix, tmp_path, capsys):
        path = tmp_path / f"in{suffix}"
        path.write_bytes(raw)
        files = {**files, role: path}
        assert_ends_cleanly(["deconvolve", "--input", str(files["input"]),
                             "--kernel", str(files["kernel"]),
                             "--out", str(tmp_path / "out.fdg")], capsys)

    @given(raw=_grid_file_bytes(), suffix=st.sampled_from([".fdg", ".csv", ".dat"]))
    @example(raw=gridio.MAGIC + gridio._HEADER.pack(16, 64, 0.0)
             + np.full(16 * 64, 2.8e306).tobytes(), suffix=".fdg")
    @settings(_FUZZ, max_examples=400)
    def test_deconvolve_never_raises(self, small_grids, tmp_path, capsys, raw, suffix):
        self.deconvolve_with(small_grids, "input", raw, suffix, tmp_path, capsys)

    @given(raw=_grid_file_bytes(), suffix=st.sampled_from([".fdg", ".csv", ".dat"]))
    @settings(_FUZZ, max_examples=100)
    def test_deconvolve_never_raises_on_a_bad_kernel(self, small_grids, tmp_path, capsys,
                                                     raw, suffix):
        self.deconvolve_with(small_grids, "kernel", raw, suffix, tmp_path, capsys)

    @given(flags=st.dictionaries(st.sampled_from(["--nu", "--cbeta", "--m0", "--m0p",
                                                  "--j", "--jprime"]), _numbers()),
           mode=st.sampled_from(["functional", "separate"]))
    @example(flags={"--nu": "-131.0"}, mode="functional")
    @example(flags={"--m0p": str(10**400)}, mode="separate")
    @settings(_FUZZ, max_examples=100)
    def test_deconvolve_flags_never_raise(self, small_grids, tmp_path, capsys, flags,
                                          mode):
        assert_ends_cleanly(["deconvolve", "--input", str(small_grids["input"]),
                             "--kernel", str(small_grids["kernel"]), "--mode", mode,
                             "--out", str(tmp_path / "out.fdg"),
                             *_flags(flags)], capsys)

    @given(flags=st.dictionaries(st.sampled_from(["--sigma", "--seed", "--cbeta", "--nu"]),
                                 _numbers()),
           m=st.integers(-1, 64), n=st.integers(-1, 64), runs=st.integers(-1, 2),
           threads=st.integers(-1, 2), mode=st.sampled_from(["functional", "separate"]))
    @example(flags={"--sigma": "1e308"}, m=16, n=64, runs=2, threads=2, mode="separate")
    @settings(_FUZZ, max_examples=100)
    def test_simulate_flags_never_raise(self, tmp_path, capsys, flags, m, n, runs,
                                        threads, mode):
        assert_ends_cleanly(["simulate", "--m", str(m), "--n", str(n),
                             "--runs", str(runs), "--threads", str(threads),
                             "--mode", mode, "--out", str(tmp_path / "sim.csv"),
                             *_flags(flags)], capsys)


class TestFuzzFlags:
    """Whatever values the flags of `rates`, `compare`, `nu-estimate` and
    `table1` get, the command ends as in :class:`TestFuzzGridInput`, and a
    success of the JSON commands prints valid JSON."""

    @given(flags=st.dictionaries(st.sampled_from(["--s1", "--nu", "--p", "--q"]), _words()),
           s2=st.lists(_words(), min_size=1, max_size=3))
    @example(flags={"--s1": "1", "--nu": "1"}, s2=["inf"])
    @example(flags={"--s1": "inf", "--nu": "1"}, s2=["1"])
    @example(flags={"--s1": "1", "--nu": "inf"}, s2=["1", "inf"])
    @example(flags={"--s1": "1/2", "--nu": "1e400", "--p": "inf"}, s2=["1"])
    @settings(_FUZZ, max_examples=150)
    def test_rates_flags_never_raise(self, capsys, flags, s2):
        assert_ends_cleanly(["rates", *_flags(flags), "--s2", *s2], capsys, json_out=True)

    @given(flags=st.dictionaries(st.sampled_from(["--s1", "--s2", "--nu", "--M", "--N"]),
                                 _words()))
    @example(flags={"--s1": "inf", "--s2": "1", "--nu": "1", "--M": "4", "--N": "64"})
    @example(flags={"--s1": "1", "--s2": "inf", "--nu": "1", "--M": "4", "--N": "64"})
    @example(flags={"--s1": "1", "--s2": "1", "--nu": "inf", "--M": "4", "--N": "64"})
    @example(flags={"--s1": "1e400", "--s2": "1", "--nu": "1", "--M": "4", "--N": "64"})
    @settings(_FUZZ, max_examples=150)
    def test_compare_flags_never_raise(self, capsys, flags):
        assert_ends_cleanly(["compare", *_flags(flags)], capsys, json_out=True)

    @given(flags=st.dictionaries(st.sampled_from(["--mlo", "--mhi"]), _words()))
    @settings(_FUZZ, max_examples=60)
    def test_nu_estimate_flags_never_raise(self, small_grids, capsys, flags):
        assert_ends_cleanly(["nu-estimate", "--kernel", str(small_grids["kernel"]),
                             *_flags(flags)], capsys, json_out=True)

    @given(seed=_words(), n=st.sampled_from(["64"] * 4 + ["-1", "0", "2", "16", "2/3", "inf"]),
           threads=st.sampled_from(["1", "2", "0", "-1", "inf"]))
    @example(seed="-1", n="64", threads="1")
    @example(seed="0", n="64", threads="2")
    @settings(_FUZZ, max_examples=12)
    def test_table1_flags_never_raise(self, tmp_path, capsys, seed, n, threads):
        """One replicate per cell and N <= 64 keep a call near 0.2 s; N = 64
        is the smallest N whose default nu-fit window has 8 frequencies."""
        assert_ends_cleanly(["table1", "--runs", "1", "--n", n, "--seed", seed,
                             "--threads", threads, "--out", str(tmp_path / "t.csv")],
                            capsys)


class TestTableCommand:
    def test_writes_48_cells_and_xy_files(self, tmp_path, capsys, read_table):
        out = tmp_path / "table.csv"
        code = main(["table1", "--runs", "1", "--n", "256",
                     "--out", str(out), "--xy", str(tmp_path / "slope")])
        assert code == 0
        rows = read_table(out)
        assert len(rows) == 48
        dats = sorted(tmp_path.glob("slope_*.dat"))
        assert len(dats) == 24    # 6 pairs x 2 sigmas x 2 modes
        xs = np.loadtxt(dats[0])[:, 0]
        assert list(xs) == [128 * 256, 256 * 256]

    def test_grid_too_short_for_the_nu_fit_stops_before_any_cell(self, tmp_path, capsys):
        """At N < 64 the default fit window is too small; the error names it,
        and no flag ``table1`` lacks."""
        out = tmp_path / "t.csv"
        assert main(["table1", "--runs", "1", "--n", "32", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "N >= 64" in err and "[N/16, N/4]" in err and "--nu" not in err
        assert not out.exists()


class TestManifestReplay:
    """Every file-producing command records each option it was given, and
    ``--from-manifest`` rewrites every output, the manifest included, byte
    for byte."""

    @pytest.mark.parametrize("argv", [
        ["deconvolve", "--input", "{obs}", "--kernel", "{kernel}", "--mode", "functional",
         "--nu", "2.0", "--cbeta", "3.0", "--m0", "3", "--m0p", "2", "--j", "4",
         "--jprime", "5", "--out", "f.fdg"],
        ["deconvolve", "--input", "{obs}", "--kernel", "{kernel}", "--mode", "separate",
         "--j", "5", "--cbeta", "0.3", "--m0p", "2", "--out", "s.fdg",
         "--coeffs", "s.csv", "--manifest", "s.manifest"],
        ["simulate", "--m", "32", "--n", "128", "--runs", "2", "--cbeta", "0.5",
         "--nu", "1", "--threads", "2", "--seed", "3", "--out", "sim.csv"],
        ["table1", "--runs", "1", "--n", "64", "--out", "t.csv", "--xy", "xy"],
        ["rates", "--s1", "2", "--s2", "1", "1/2", "--nu", "1", "--p", "inf",
         "--manifest", "r.manifest"],
        ["compare", "--s1", "10", "--s2", "0.6", "--nu", "0", "--M", "4",
         "--N", "65536", "--manifest", "c.manifest"],
    ], ids=["deconvolve_functional", "deconvolve_separate", "simulate", "table1",
            "rates", "compare"])
    def test_replay_rewrites_every_output(self, workspace, tmp_path, monkeypatch,
                                          capsys, argv):
        _, obs_path, kern_path = workspace
        argv = [a.format(obs=obs_path, kernel=kern_path) for a in argv]
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        manifest = argv[argv.index("--manifest") + 1] if "--manifest" in argv \
            else argv[argv.index("--out") + 1] + ".manifest"
        recorded = dict(line.split("=", 1)
                        for line in Path(manifest).read_text().splitlines())
        assert recorded["command"] == argv[0]
        given = {a[2:] for a in argv if a.startswith("--")} - {"manifest"}
        assert given <= set(recorded), given - set(recorded)

        outputs = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        saved = tmp_path.parent / f"{tmp_path.name}.manifest"
        Path(manifest).rename(saved)
        for name in outputs:
            Path(name).unlink(missing_ok=True)
        assert main(["--from-manifest", str(saved), "--manifest", manifest]) == 0
        assert capsys.readouterr().out == stdout
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == outputs


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--version"])
        assert fd.__version__ in capsys.readouterr().out

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "deconvolve" in capsys.readouterr().out

    @pytest.mark.parametrize("sub,flags", [
        ("deconvolve", ["--input", "--kernel", "--mode", "--nu", "--cbeta",
                        "--m0", "--m0p", "--j", "--jprime", "--out",
                        "--coeffs", "--manifest"]),
        ("simulate", ["--f1", "--f2", "--m", "--n", "--sigma", "--mode",
                      "--runs", "--seed", "--cbeta", "--nu", "--threads",
                      "--out", "--manifest"]),
        ("table1", ["--runs", "--seed", "--n", "--threads", "--out", "--xy",
                    "--manifest"]),
        ("rates", ["--s1", "--s2", "--nu", "--p", "--q", "--manifest"]),
        ("compare", ["--s1", "--s2", "--nu", "--M", "--N", "--manifest"]),
        ("nu-estimate", ["--kernel", "--mlo", "--mhi"]),
    ])
    def test_every_flag_listed_with_default(self, capsys, sub, flags):
        assert main([sub, "--help"]) == 0
        text = capsys.readouterr().out
        for flag in flags:
            assert flag in text, (sub, flag)
        assert "default" in text

    def test_no_subcommand_is_a_usage_error(self, capsys):
        assert main([]) == 1

    def test_unknown_flag_is_a_usage_error(self, capsys):
        assert main(["rates", "--s1", "2", "--s2", "1", "--nu", "1",
                     "--bogus"]) == 1

    def test_one_parser_serves_every_call_of_a_process(self, workspace, tmp_path,
                                                       monkeypatch, capsys):
        """main reuses one parser, and each call still exits and writes as it
        does first in a fresh process: no values leak between calls."""
        _, obs_path, kern_path = workspace
        deconv = ["deconvolve", "--input", str(obs_path), "--kernel", str(kern_path)]
        calls = [["simulate", "--m", "16", "--n", "64", "--runs", "1",
                  "--mode", "separate", "--cbeta", "2", "--out", "sim.csv"],
                 deconv,                         # no --out: bad usage
                 deconv + ["--out", "fhat.fdg"],
                 ["--version"]]
        monkeypatch.setenv("COLUMNS", "80")     # argparse wraps to the terminal
        env = dict(os.environ, PYTHONPATH=str(Path(fd.__file__).resolve().parents[1]))
        before = build_parser.cache_info()
        for i, argv in enumerate(calls):
            here, fresh = tmp_path / f"in{i}", tmp_path / f"fresh{i}"
            here.mkdir()
            fresh.mkdir()
            monkeypatch.chdir(here)
            code = main(argv)
            out, err = capsys.readouterr()
            ref = subprocess.run([sys.executable, "-m", "funcdeconv.cli", *argv],
                                 cwd=fresh, env=env, capture_output=True, text=True)
            assert (code, out, err) == (ref.returncode, ref.stdout, ref.stderr), argv
            assert code == (1 if i == 1 else 0)
            written = sorted(p.name for p in here.iterdir())
            assert written == sorted(p.name for p in fresh.iterdir()), argv
            for name in written:
                assert (here / name).read_bytes() == (fresh / name).read_bytes(), name
        after = build_parser.cache_info()
        assert after.misses - before.misses <= 1
        assert after.hits - before.hits >= len(calls) - 1

    def test_rational_parser_handles_fractions_and_inf(self):
        assert _rational("2/3") == Fraction(2, 3)
        assert _rational("0.6") == Fraction(3, 5)
        assert _rational("inf") == math.inf
        assert _rational("Infinity") == math.inf


# Run in a fresh interpreter by TestColdStart. It prints, as JSON, which of
# numpy's lazily imported submodules `import funcdeconv` alone imported, and
# the numpy modules that the first CLI deconvolve in each mode and a first
# Monte-Carlo cell imported after numpy.fft and numpy.random, which those
# calls use by design, were imported as a benchmark's input generation does.
COLD_PROBE = """
import json, sys
import funcdeconv
from funcdeconv import cli, simlab
on_import = [name for name in ("numpy.fft", "numpy.ma", "numpy.random") if name in sys.modules]
import numpy.fft, numpy.random
before = set(sys.modules)
obs, kernel = sys.argv[1:3]
for mode in ("functional", "separate"):
    assert cli.main(["deconvolve", "--input", obs, "--kernel", kernel,
                     "--mode", mode, "--out", f"fhat_{mode}.fdg"]) == 0
simlab.run_mise(simlab.SimConfig(m=16, n=64, sigma=0.5, runs=2))
new = sorted(name for name in set(sys.modules) - before
             if name == "numpy" or name.startswith("numpy."))
print(json.dumps({"on_import": on_import, "new": new}))
"""


class TestColdStart:
    def test_first_calls_import_no_numpy_module(self, tmp_path):
        """In a fresh process the first deconvolve (both modes) and the first
        Monte-Carlo cell import no numpy module beyond the FFT and the
        generator they use: ``np.unique`` imported numpy.ma, about 11 ms of a
        cold CLI run. ``import funcdeconv`` leaves all three unimported, so no
        such cost moved into import time."""
        m, n = 16, 64
        obs, kernel = tmp_path / "obs.fdg", tmp_path / "kernel.fdg"
        truth = simlab.product_truth("Quadratic", "Blip", m, n)
        gridio.save_grid(obs, simlab.synthesize_data(truth, 0.5, seed=4))
        gridio.save_grid(kernel, fd.ObservationGrid(simlab.kernel_grid(m, n)))
        env = dict(os.environ, PYTHONPATH=str(Path(fd.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-c", COLD_PROBE, str(obs), str(kernel)],
                              cwd=tmp_path, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == {"on_import": [], "new": []}
