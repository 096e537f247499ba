"""The pipeline benchmark still finds, and calls, what it times.

``perfbench/tracer.py`` patches functions and methods by name and raises on
install when one is missing, and ``perfbench/workloads.py`` calls the package
in fixed forms (keyword arguments, warm bases, the CLI's manifest replay), so
a rename or a signature change fails here and not only in a benchmark run.
"""

import importlib
import math
from pathlib import Path

import funcdeconv as fd
from funcdeconv import simlab

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    bound = [(mod, attr, getattr(mod, attr)) for mod, attr in tracer.REQUIRED_BINDINGS]
    t = tracer.Tracer()
    try:
        t.install()
        for mod, attr, _ in bound:
            assert hasattr(getattr(mod, attr), "__wrapped__"), f"{mod.__name__}.{attr}"
    finally:
        t.uninstall()
    for mod, attr, original in bound:
        assert getattr(mod, attr) is original, f"{mod.__name__}.{attr}"


def test_count_hooks_see_a_deconvolve_in_each_mode(monkeypatch):
    """The count hooks read the program's outputs (``kept``, the spatial
    basis's ``m0p``, the spectra's sizes); a traced 64 x 256 deconvolve must
    feed every one, and ``spectra.fft_bytes`` must equal the bytes in and out
    of the kernel's ``rfft``, the data's band transform and the band's way
    back to the grid."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    truth = simlab.product_truth("Quadratic", "Blip", 64, 256)
    obs = simlab.synthesize_data(truth, 0.5, seed=1)
    kernel = simlab.kernel_grid(64, 256)
    t = tracer.Tracer()
    counts, bands = {}, {}
    try:
        t.install()
        t.enabled = True
        for mode in (fd.FUNCTIONAL, fd.SEPARATE):
            t.counts.clear()
            rec = fd.deconvolve(obs, kernel, mode=mode)
            counts[mode] = dict(t.counts)
            bands[mode] = fd.MeyerBasis().band_size(rec.config.j, 256)
    finally:
        t.uninstall()
    for mode, c in counts.items():
        for key in ("kept.total", "band.calls", "spectra.fft_bytes"):
            assert c.get(key, 0) > 0, (mode, key)
    real, half = 64 * 256 * 8, 64 * 129 * 16       # float64 grid, complex128 rfft
    for mode, k in bands.items():
        band = 64 * k * 16
        assert counts[mode]["spectra.fft_bytes"] == (real + half) + (real + band) + (band + real), mode
    assert counts[fd.FUNCTIONAL]["spatial.dwt_madds"] > 0
    assert counts[fd.SEPARATE].get("spatial.dwt_madds", 0) == 0


def _workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("workloads")


def test_the_deconv_workload_runs_and_checks_at_64x256(monkeypatch):
    """Its call form: ``cfg.resolved`` and bases at set-up, then
    ``deconvolve(cfg=, meyer_basis=, spatial_basis=)`` per operation."""
    workloads = _workloads(monkeypatch)

    class Small(workloads.Deconv):
        m, n = 64, 256

    w = Small()
    state = w.setup(w.make_inputs(0))
    for op in w.ops(state):
        (mise,), counts = w.check(state, op, w.run(state, op))
        assert math.isfinite(mise) and counts == {}
    assert w.once(state) == []


def test_the_cli_workload_runs_checks_and_replays_at_64x256(monkeypatch, tmp_path):
    """One cold ``cli.main deconvolve`` per mode, then ``--from-manifest``
    replay, which must rewrite every output byte for byte."""
    workloads = _workloads(monkeypatch)

    class Small(workloads.CliDeconvolve):
        m, n = 64, 256

    w = Small(tmp_path)
    state = w.setup(w.make_inputs(0))
    mises, counts = w.check(state, 0, w.run(state, 0))
    assert len(mises) == 2 and all(map(math.isfinite, mises))
    assert counts["cli.coeff_rows"] > 0
    assert len(w.once(state)) == len(w.modes)
