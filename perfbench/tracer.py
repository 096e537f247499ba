"""In-memory span tracer that times funcdeconv's layers from outside.

The tracer wraps the public functions of each module in place and restores
them on ``uninstall``. A ``from module import name`` in a caller copies the
binding, so every module namespace is scanned and each binding of an
original function is replaced, not only the one in the defining module.
Methods of ``MeyerBasis`` and ``SpatialBasis`` are wrapped on the class.

Each span records ``[id, parent, name, start, end, op, mode]``; self time is
the span's duration minus the durations of its direct children. ``mode`` is
the estimation mode of the call for the entry points that take one, else
None. Count hooks run after a span closes and add computed sizes to
``Tracer.counts``.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict

import numpy as np

import funcdeconv
from funcdeconv import cli, estimator, gridio, meyer, simlab, spatial, spectra

MODULES = (funcdeconv, spectra, meyer, spatial, estimator, simlab, gridio, cli)

# span name -> (defining module, attribute)
FUNCTION_SPANS = {
    "simlab.run_mise": (simlab, "run_mise"),
    "simlab.synthesize_data": (simlab, "synthesize_data"),
    "simlab.convolve_rows": (simlab, "convolve_rows"),
    "simlab.mise": (simlab, "mise"),
    "spectra.fourier_coeffs": (spectra, "fourier_coeffs"),
    "spectra.spectrum_to_samples": (spectra, "spectrum_to_samples"),
    "spectra.validate_invertible": (spectra, "validate_invertible"),
    "spectra.kernel_spectrum": (spectra, "kernel_spectrum"),
    "spectra.estimate_nu": (spectra, "estimate_nu"),
    "estimator.config_for": (estimator, "config_for"),
    "estimator.deconvolve": (estimator, "deconvolve"),
    "estimator.estimate_coeffs": (estimator, "estimate_coeffs"),
    "estimator.hard_threshold": (estimator, "hard_threshold"),
    "estimator.reconstruct": (estimator, "reconstruct"),
    "gridio.load_grid": (gridio, "load_grid"),
    "gridio.save_grid": (gridio, "save_grid"),
    "cli.main": (cli, "main"),
}

# span name -> (class, method)
METHOD_SPANS = {
    "meyer.analyze_t": (meyer.MeyerBasis, "analyze_t"),
    "meyer.synthesize_t": (meyer.MeyerBasis, "synthesize_t"),
    "meyer.union_band": (meyer.MeyerBasis, "union_band"),
    "spatial.dwt_forward": (spatial.SpatialBasis, "dwt_forward"),
    "spatial.dwt_inverse": (spatial.SpatialBasis, "dwt_inverse"),
}

SPAN_NAMES = tuple(FUNCTION_SPANS) + tuple(METHOD_SPANS)

# The benchmark's own per-operation wrapper (a workload's ``run``), traced so
# that operation time outside the program's spans is measured, not assumed.
WRAPPER = "bench.run"

# Bindings a caller copies with ``from ... import``; each must be patched.
REQUIRED_BINDINGS = (
    (estimator, "fourier_coeffs"), (estimator, "validate_invertible"),
    (estimator, "spectrum_to_samples"), (estimator, "estimate_nu"),
    (estimator, "kernel_spectrum"), (simlab, "synthesize_data"),
    (simlab, "convolve_rows"), (simlab, "deconvolve"), (simlab, "mise"),
    (cli, "deconvolve"), (cli, "load_grid"), (cli, "save_grid"),
    (cli, "kernel_spectrum"),
)

DWT_TAPS = len(spatial.DB6_LO)


def _nbytes(x) -> int:
    """Bytes of an array, or of the array inside a grid or spectrum."""
    for attr in ("samples", "coeffs"):
        x = getattr(x, attr, x)
    return int(getattr(x, "nbytes", 0))


def _dwt_madds(basis, v) -> int:
    """Real multiply-adds of one packed DWT (either direction), 12 taps.

    Level j' of the cascade yields 2^j' approximation and 2^j' detail values
    per row, each a 12-tap dot product, for j' from m0' to L-1: in all
    2 * 12 * (2^L - 2^m0') per row. A complex value costs two.
    """
    v = np.asarray(v)
    n = v.shape[-1]
    per_row = 2 * DWT_TAPS * (n - 2**basis.m0p)
    return (v.size // n) * per_row * (2 if np.iscomplexobj(v) else 1)


def _count_fft(counts, args, kwargs, out):
    counts["spectra.fft_bytes"] += _nbytes(args[0]) + _nbytes(out)


def _count_band(counts, args, kwargs, out):
    ks, freqs = args[0], args[1]
    counts["band.sum"] += len(freqs) / ks.n
    counts["band.calls"] += 1


def _count_analyze(counts, args, kwargs, out):
    counts["meyer.analyze_t.bytes"] += _nbytes(args[1]) + _nbytes(out)


def _count_dwt_forward(counts, args, kwargs, out):
    counts["spatial.dwt_forward.bytes"] += _nbytes(args[1]) + _nbytes(out)
    counts["spatial.dwt_madds"] += _dwt_madds(args[0], args[1])


def _count_dwt_inverse(counts, args, kwargs, out):
    counts["spatial.dwt_madds"] += _dwt_madds(args[0], args[1])


def _count_threshold(counts, args, kwargs, out):
    counts["kept.sum"] += int(np.count_nonzero(out.kept))
    counts["kept.total"] += out.kept.size


def _count_load(counts, args, kwargs, out):
    counts["gridio.bytes_read"] += os.path.getsize(args[0])


def _count_save(counts, args, kwargs, out):
    counts["gridio.bytes_written"] += os.path.getsize(args[0])


def _cli_mode(argv):
    argv = list(argv)
    if "--mode" in argv:
        return argv[argv.index("--mode") + 1]
    return estimator.FUNCTIONAL


def _deconvolve_mode(args, kwargs):
    cfg = kwargs.get("cfg", args[2] if len(args) > 2 else None)
    if cfg is not None:
        return cfg.mode
    return kwargs.get("mode", estimator.FUNCTIONAL)


# span name -> estimation mode of the call, from its arguments
MODE_OF = {
    "simlab.run_mise": lambda args, kwargs: args[0].mode,
    "estimator.deconvolve": _deconvolve_mode,
    "cli.main": lambda args, kwargs: _cli_mode(args[0] if args else ()),
}

COUNT_HOOKS = {
    "spectra.fourier_coeffs": _count_fft,
    "spectra.spectrum_to_samples": _count_fft,
    "spectra.validate_invertible": _count_band,
    "meyer.analyze_t": _count_analyze,
    "spatial.dwt_forward": _count_dwt_forward,
    "spatial.dwt_inverse": _count_dwt_inverse,
    "estimator.hard_threshold": _count_threshold,
    "gridio.load_grid": _count_load,
    "gridio.save_grid": _count_save,
}


class Tracer:
    """Records nested spans while ``enabled``; a no-op pass-through otherwise."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(float)
        self.enabled = False
        self.op = -1
        self._stack: list = []
        self._restore: list = []

    def wrap(self, name: str, fn):
        hook = COUNT_HOOKS.get(name)
        mode_of = MODE_OF.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            mode = mode_of(args, kwargs) if mode_of is not None else None
            rec = [len(self.spans), self._stack[-1] if self._stack else -1,
                   name, clock(), 0.0, self.op, mode]
            self.spans.append(rec)
            self._stack.append(rec[0])
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                self._stack.pop()
            if hook is not None:
                hook(self.counts, args, kwargs, out)
            return out

        return traced

    def wrap_op(self, run):
        """Trace the benchmark's per-operation call ``run`` as the ``WRAPPER`` span."""
        return self.wrap(WRAPPER, run)

    def install(self) -> None:
        """Patch every span; raise if any span or required binding is missing.

        A renamed, merged or moved function must fail the traced run rather
        than read as a span with 0 calls and 0 ms.
        """
        missing = [f"{home.__name__}.{attr}" for home, attr in FUNCTION_SPANS.values()
                   if not callable(getattr(home, attr, None))]
        missing += [f"{cls.__qualname__}.{attr}" for cls, attr in METHOD_SPANS.values()
                    if not callable(cls.__dict__.get(attr))]
        missing += [f"{mod.__name__}.{attr}" for mod, attr in REQUIRED_BINDINGS
                    if not callable(getattr(mod, attr, None))]
        if missing:
            missing = list(dict.fromkeys(missing))
            raise RuntimeError(f"tracer: the program has no {missing}; "
                               "update the spans in perfbench/tracer.py")
        for name, (home, attr) in FUNCTION_SPANS.items():
            original = getattr(home, attr)
            wrapped = self.wrap(name, original)
            for mod in MODULES:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, value))
                        setattr(mod, key, wrapped)
        for name, (cls, attr) in METHOD_SPANS.items():
            self._restore.append((cls, attr, cls.__dict__[attr]))
            setattr(cls, attr, self.wrap(name, cls.__dict__[attr]))
        unpatched = [f"{mod.__name__}.{attr}" for mod, attr in REQUIRED_BINDINGS
                     if not hasattr(getattr(mod, attr), "__wrapped__")]
        if unpatched:
            self.uninstall()
            raise RuntimeError(f"tracer could not patch {unpatched}")

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def self_times(self) -> list:
        """Self time in seconds of each span, indexed by span id."""
        own = [s[4] - s[3] for s in self.spans]
        for s in self.spans:
            if s[1] >= 0:
                own[s[1]] -= s[4] - s[3]
        return own

    def per_layer(self, n_ops: int, op_seconds: float) -> dict:
        """Per-op span and count metrics as ``name -> (value, unit)``.

        ``op_seconds`` is the summed duration of the traced operations. The
        top-level program spans are those directly under the ``WRAPPER``
        span; the rest of the operation time is split into the wrapper's own
        time and the timing loop's time outside the wrapper.
        """
        own = self.self_times()
        self_s = defaultdict(float)
        calls = defaultdict(int)
        top_s = wrapper_s = 0.0
        # innermost enclosing mode of each span; parents precede children
        modes = []
        sep_calls = sep_dwt = 0
        for s, t in zip(self.spans, own):
            self_s[s[2]] += t
            calls[s[2]] += 1
            if s[2] == WRAPPER:
                wrapper_s += s[4] - s[3]
            elif s[1] < 0 or self.spans[s[1]][2] == WRAPPER:
                top_s += s[4] - s[3]
            mode = s[6] if s[6] is not None else (modes[s[1]] if s[1] >= 0 else None)
            modes.append(mode)
            if mode == estimator.SEPARATE:
                if s[6] is not None and (s[1] < 0 or modes[s[1]] is None):
                    sep_calls += 1
                sep_dwt += s[2].startswith("spatial.dwt_")
        metrics = {}
        for name in SPAN_NAMES:
            metrics[f"{name}.self_ms"] = (1e3 * self_s[name] / n_ops, "ms")
            metrics[f"{name}.calls"] = (calls[name] / n_ops, "count")
        c = self.counts
        metrics["spectra.band_frac"] = (
            c["band.sum"] / c["band.calls"] if c["band.calls"] else 0.0, "ratio")
        for key in ("spectra.fft_bytes", "meyer.analyze_t.bytes",
                    "spatial.dwt_forward.bytes", "gridio.bytes_read",
                    "gridio.bytes_written"):
            metrics[key] = (c[key] / n_ops, "bytes")
        metrics["spatial.dwt_madds"] = (c["spatial.dwt_madds"] / n_ops, "count")
        metrics["spatial.dwt_calls_separate"] = (
            sep_dwt / sep_calls if sep_calls else 0.0, "count")
        metrics["estimator.kept_frac"] = (
            c["kept.sum"] / c["kept.total"] if c["kept.total"] else 0.0, "ratio")
        metrics["trace.coverage"] = (top_s / op_seconds, "ratio")
        metrics["trace.uncovered_ms"] = (1e3 * (op_seconds - top_s) / n_ops, "ms")
        metrics[f"{WRAPPER}.self_ms"] = (1e3 * self_s[WRAPPER] / n_ops, "ms")
        metrics["trace.loop_ms"] = (1e3 * (op_seconds - wrapper_s) / n_ops, "ms")
        return metrics

    def dump(self, path, extra: dict) -> None:
        own = self.self_times()
        rows = [s + [t] for s, t in zip(self.spans, own)]
        with open(path, "w") as fh:
            json.dump({**extra, "span_fields": ["id", "parent", "name", "start",
                                                "end", "op", "mode", "self"],
                       "spans": rows}, fh)
