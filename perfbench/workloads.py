"""The three benchmark workloads: inputs, set-up, one operation, output checks.

Each workload splits its work into

* ``make_inputs(seed)`` — the benchmark's own input generation (not timed);
* ``setup(inputs)`` — the program calls made before the first operation;
* ``ops`` / ``run(state, op)`` — one pass of operations, repeated while timing;
  ``items`` counts the items one operation completes, and ``mem_ops`` names
  the operations of the memory pass;
* ``check(state, op, out)`` — the output check, returning the operation's
  reference values (MISEs) and any counts it read from the outputs;
* ``once(state)`` — the checks made once per run, outside timing;
* ``setup_repeats`` — how many fresh processes time a cold set-up, chosen so
  that each workload spends about 12 s on them.

A workload calls the program only through module attributes
(``simlab.run_mise``, ``estimator.deconvolve``, ``cli.main``) so that the
tracer's patches see every call.
"""

from __future__ import annotations

import contextlib
import io
import os
import struct
from pathlib import Path

import numpy as np

from funcdeconv import cli, estimator, gridio, meyer, simlab, spatial, spectra

FUNCTIONAL, SEPARATE = estimator.FUNCTIONAL, estimator.SEPARATE


class CheckError(Exception):
    """An operation's output failed its check."""


def _grid_mise(values: np.ndarray, truth: np.ndarray) -> float:
    """MISE of a reconstruction against the truth, after shape and finiteness checks."""
    if values.shape != truth.shape:
        raise CheckError(f"output shape {values.shape}, expected {truth.shape}")
    if not np.all(np.isfinite(values)):
        raise CheckError("output grid has non-finite values")
    return float(np.mean((values - truth) ** 2))


class McTable:
    """``simlab.run_mise`` over the 48 table1 cells, 25 replicates each.

    ``runs`` is table1's default, so the per-cell work of ``run_mise`` (truth,
    kernel grid, config, fresh bases) is spread over as many replicates as
    in table1. One operation is two cells of one (signal pair, sigma): M =
    128 in one mode and M = 256 in the other, so every operation holds one
    cell of each size and each mode and all cost about the same. Single
    cells would give a latency distribution split in two equal clusters
    (M = 128 and 256), whose median falls in the gap between them.
    """

    name = "mc_table"
    n = 512
    m_values = (128, 256)
    sigmas = (0.5, 1.0)
    runs = 25
    setup_repeats = 9

    def make_inputs(self, seed: int):
        return [[simlab.SimConfig(f1=f1, f2=f2, m=m, n=self.n, sigma=sigma,
                                  mode=mode, runs=self.runs, seed=seed, threads=1)
                 for m, mode in zip(self.m_values, modes)]
                for f1, f2 in simlab.PAIR_ORDER for sigma in self.sigmas
                for modes in ((FUNCTIONAL, SEPARATE), (SEPARATE, FUNCTIONAL))]

    def setup(self, cells):
        spectra_by_m = {}
        for m in self.m_values:
            ks = spectra.kernel_spectrum(simlab.kernel_grid(m, self.n))
            spectra.estimate_nu(ks)
            spectra_by_m[m] = ks
        return {"cells": cells, "ks": spectra_by_m}

    def ops(self, state):
        return list(range(len(state["cells"])))

    def mem_ops(self, state):
        """The first two operations: both modes at M = 256."""
        return self.ops(state)[:2]

    def items(self, state, op) -> int:
        return self.runs * len(state["cells"][op])

    def run(self, state, op):
        return [simlab.run_mise(sim, kernel_spec=state["ks"][sim.m])
                for sim in state["cells"][op]]

    def check(self, state, op, out):
        if len(out) != len(state["cells"][op]):
            raise CheckError(f"{len(out)} cell results, expected {len(state['cells'][op])}")
        means = []
        for res in out:
            per_run = np.asarray(res.per_run)
            if per_run.shape != (self.runs,):
                raise CheckError(f"{per_run.shape} replicate MISEs, expected {self.runs}")
            if not np.all(np.isfinite(per_run)):
                raise CheckError("non-finite replicate MISE")
            means.append(float(np.mean(per_run)))
        return means, {}

    def once(self, state):
        """``threads=2`` must reproduce ``threads=1`` bit for bit on one cell."""
        sim = state["cells"][0][0]
        ks = state["ks"][sim.m]
        one = simlab.run_mise(sim, kernel_spec=ks).per_run
        two = simlab.run_mise(simlab.SimConfig(**{**vars(sim), "threads": 2}),
                              kernel_spec=ks).per_run
        if one.tobytes() != two.tobytes():
            raise CheckError("run_mise threads=2 differs from threads=1")
        return ["run_mise threads=2 bitwise equal to threads=1"]


class Deconv:
    """Functional ``estimator.deconvolve`` on 1024 x 2048 grids made at set-up."""

    name = "deconv_1024x2048"
    m, n = 1024, 2048
    sigma = 0.5
    pairs = (simlab.PAIR_ORDER[0], simlab.PAIR_ORDER[5])
    setup_repeats = 9

    def make_inputs(self, seed: int):
        truths = [simlab.product_truth(f1, f2, self.m, self.n)
                  for f1, f2 in self.pairs]
        grids = [simlab.synthesize_data(t, self.sigma, seed=seed, rep=rep)
                 for rep, t in enumerate(truths)]
        return truths, grids

    def setup(self, inputs):
        truths, grids = inputs
        ks = spectra.kernel_spectrum(simlab.kernel_grid(self.m, self.n))
        spectra.estimate_nu(ks)
        cfg = estimator.config_for(grids[0], ks, mode=FUNCTIONAL)
        cfg = cfg.resolved(self.m, self.n)
        return {"truths": truths, "grids": grids, "ks": ks, "cfg": cfg,
                "meyer": meyer.MeyerBasis(m0=cfg.m0),
                "spatial": spatial.SpatialBasis(m0p=cfg.m0p)}

    def ops(self, state):
        return list(range(len(state["grids"])))

    def mem_ops(self, state):
        return self.ops(state)[:1]

    def items(self, state, op) -> int:
        return 1

    def run(self, state, op):
        return estimator.deconvolve(state["grids"][op], state["ks"],
                                    cfg=state["cfg"], meyer_basis=state["meyer"],
                                    spatial_basis=state["spatial"])

    def check(self, state, op, out):
        return [_grid_mise(out.values, state["truths"][op])], {}

    def once(self, state):
        return []


_FDG_HEADER = struct.Struct("<4sQQd")


def read_fdg(path) -> np.ndarray:
    """Independent reader for the binary grid format: magic, M, N, sigma, data."""
    raw = Path(path).read_bytes()
    magic, m, n, _ = _FDG_HEADER.unpack_from(raw)
    if magic != b"FDG1":
        raise CheckError(f"{path}: bad magic {magic!r}")
    data = np.frombuffer(raw, dtype="<f8", offset=_FDG_HEADER.size)
    if data.size != m * n:
        raise CheckError(f"{path}: {data.size} samples, header says {m}x{n}")
    return data.reshape(m, n)


def read_manifest(path) -> dict:
    with open(path) as fh:
        return dict(line.rstrip("\n").split("=", 1) for line in fh if "=" in line)


class CliDeconvolve:
    """In-process ``cli.main deconvolve`` on 256 x 512 ``.fdg`` files.

    One operation deconvolves one input file in functional and then in
    separate mode, so calls alternate between the modes. Every call is cold:
    it loads the files, fits nu, builds fresh bases and writes the grid, the
    coefficient CSV and the manifest.
    """

    name = "cli_deconvolve"
    m, n = 256, 512
    sigma = 0.5
    pairs = (simlab.PAIR_ORDER[0], simlab.PAIR_ORDER[3])
    modes = (FUNCTIONAL, SEPARATE)
    setup_repeats = 21

    def __init__(self, workdir):
        self.workdir = os.fspath(workdir)

    def _path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def make_inputs(self, seed: int):
        kernel = self._path("kernel.fdg")
        gridio.save_grid(kernel, spectra.ObservationGrid(
            simlab.kernel_grid(self.m, self.n), sigma=0.0))
        truths, inputs = [], []
        for rep, (f1, f2) in enumerate(self.pairs):
            truth = simlab.product_truth(f1, f2, self.m, self.n)
            path = self._path(f"obs{rep}.fdg")
            gridio.save_grid(path, simlab.synthesize_data(
                truth, self.sigma, seed=seed, rep=rep))
            truths.append(truth)
            inputs.append(path)
        return {"kernel": kernel, "inputs": inputs, "truths": truths}

    def setup(self, inputs):
        return inputs

    def ops(self, state):
        return list(range(len(state["inputs"])))

    def mem_ops(self, state):
        return self.ops(state)

    def items(self, state, op) -> int:
        return len(self.modes)

    def _argv(self, state, op, mode):
        return ["deconvolve", "--input", state["inputs"][op],
                "--kernel", state["kernel"], "--mode", mode,
                "--out", self._path(f"out{op}_{mode}.fdg")]

    def run(self, state, op):
        with contextlib.redirect_stdout(io.StringIO()):
            return [cli.main(self._argv(state, op, mode)) for mode in self.modes]

    def check(self, state, op, out):
        mises, rows_total = [], 0
        for mode, code in zip(self.modes, out):
            if code != 0:
                raise CheckError(f"cli.main --mode {mode} exited with {code}")
            out_path = self._argv(state, op, mode)[-1]
            manifest = read_manifest(out_path + ".manifest")
            width = 2**int(manifest["jprime"]) if mode == FUNCTIONAL else self.m
            rows_expected = width * 2**int(manifest["j"])
            with open(manifest["coeffs"]) as fh:
                rows = sum(1 for _ in fh) - 1
            if rows != rows_expected:
                raise CheckError(f"{rows} coefficient rows, expected {rows_expected}")
            mises.append(_grid_mise(read_fdg(out_path), state["truths"][op]))
            rows_total += rows
        return mises, {"cli.coeff_rows": rows_total}

    def once(self, state):
        """``--from-manifest`` must rewrite every output byte for byte."""
        self.run(state, 0)
        done = []
        for mode in self.modes:
            out = self._argv(state, 0, mode)[-1]
            manifest = out + ".manifest"
            paths = (out, read_manifest(manifest)["coeffs"], manifest)
            before = [Path(p).read_bytes() for p in paths]
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["--from-manifest", manifest])
            after = [Path(p).read_bytes() for p in paths]
            if code != 0 or before != after:
                raise CheckError(f"--from-manifest replay of {manifest} differs")
            done.append(f"--from-manifest replay byte-identical ({mode})")
        return done


NAMES = ("mc_table", "deconv_1024x2048", "cli_deconvolve")


def make(name: str, workdir):
    if name == "mc_table":
        return McTable()
    if name == "deconv_1024x2048":
        return Deconv()
    if name == "cli_deconvolve":
        return CliDeconvolve(workdir)
    raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
