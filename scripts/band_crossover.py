"""Time the two routes of a band transform on both sides of the routing rule.

``spectra.fourier_coeffs(x, k)`` and ``spectra.spectrum_to_samples(band, n)``
take the first k columns of an N-sample row's half spectrum by a real matmul
with ``spectra.band_dft(N, k)`` when ``k < N // 2`` and ``k <= 2 log2 N``,
and by ``rfft``/``irfft`` otherwise; the forward direction also needs at
least 4 rows in a 128 KB row block (N <= 4096). This script times both
routes, forward and inverse, at the rule's edge and at wider bands, up to
four times the edge, by calling those two functions with the rules
(``spectra._matmul_band`` and ``spectra._forward_matmul``) forced each way.
The forward transform reads an ``ObservationGrid``, by row blocks of about
128 KB, as ``deconvolve`` does; the inverse writes blocks of
``spectra.inverse_block_rows(N, k)`` rows into one output array. No benchmark
workload reaches the wide-band (FFT) side or N >= 4096: their bands are 6
to 11 columns and N is at most 2048.

A second table times the blocked inverse at the rule's edge against one
matmul of the whole band with the weights applied to the band first,
``(band * weight) @ band_dft(N, k).T``, the inverse before it went by row
blocks, at every N above and at 2048 x 8192 (a 134 MB output).

Run: python3 scripts/band_crossover.py [--repeats 15]

Prints one row per (M x N, k): the routes the rules pick, forward / inverse,
and the median milliseconds of the FFT route and of the matmul route in each
direction, with their ratio; then one row per M x N: the rows per inverse
block and the median milliseconds of the blocked and of the whole-array
inverse.
"""

import os

# One BLAS thread, as in perfbench/run.py: the single-threaded baseline.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from funcdeconv import spectra  # noqa: E402

# (M, N) of 0.1-2 M samples: each grid and band matrix stays under 17 MB
SHAPES = ((1024, 128), (256, 512), (1024, 2048), (512, 4096), (256, 8192))
INVERSE_SHAPES = SHAPES + ((2048, 8192),)


def median_ms(fn, repeats: int) -> float:
    fn()                                  # warm caches and the band_dft memo
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


@contextlib.contextmanager
def forced(matmul: bool):
    """Send every band by the matmul (True) or the FFT (False) route, whatever its width."""
    rules = spectra._matmul_band, spectra._forward_matmul
    spectra._matmul_band = spectra._forward_matmul = lambda k, n: matmul
    try:
        yield
    finally:
        spectra._matmul_band, spectra._forward_matmul = rules


def whole_inverse(band: np.ndarray, n: int) -> np.ndarray:
    """One matmul of the whole band, weighted by N (m = 0) and 2N (m > 0) first."""
    k = band.shape[1]
    weight = np.repeat(np.where(np.arange(k) == 0, float(n), 2.0 * n), 2)
    return (band.view(float) * weight) @ spectra.band_dft(n, k).T


def edge(n: int) -> int:
    """Widest band the rule sends by matmul."""
    return min(n // 2 - 1, int(2 * np.log2(n)))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=15)
    args = parser.parse_args()
    rng = np.random.default_rng(0)
    print("| M x N | k | rule, forward / inverse | forward FFT / matmul (ms) "
          "| inverse FFT / matmul (ms) |")
    print("| --- | --- | --- | --- | --- |")
    for m, n in SHAPES:
        grid = spectra.ObservationGrid(rng.standard_normal((m, n)))
        e = edge(n)
        for k in (e, e + 1, 2 * e, 4 * e):
            rule = " / ".join("matmul" if picks(k, n) else "fft"
                              for picks in (spectra._forward_matmul, spectra._matmul_band))
            band = spectra.fourier_coeffs(grid, k)
            fwd, inv = {}, {}
            for matmul in (False, True):
                with forced(matmul):
                    fwd[matmul] = median_ms(lambda: spectra.fourier_coeffs(grid, k), args.repeats)
                    inv[matmul] = median_ms(lambda: spectra.spectrum_to_samples(band, n),
                                            args.repeats)
            (fwd_fft, fwd_mm), (inv_fft, inv_mm) = fwd.values(), inv.values()
            print(f"| {m}x{n} | {k} | {rule} | {fwd_fft:.2f} / {fwd_mm:.2f} "
                  f"({fwd_mm / fwd_fft:.2f}x) | {inv_fft:.2f} / {inv_mm:.2f} "
                  f"({inv_mm / inv_fft:.2f}x) |")
        spectra.band_dft.cache_clear()
        spectra.band_idft.cache_clear()
    print()
    print("| M x N | k | rows per block | inverse blocked / whole-array matmul (ms) |")
    print("| --- | --- | --- | --- |")
    for m, n in INVERSE_SHAPES:
        k = edge(n)
        band = rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))
        out = np.empty((m, n))
        blocked = median_ms(lambda: spectra.spectrum_to_samples(band, n, out=out), args.repeats)
        whole = median_ms(lambda: whole_inverse(band, n), args.repeats)
        print(f"| {m}x{n} | {k} | {spectra.inverse_block_rows(n, k)} | {blocked:.2f} / "
              f"{whole:.2f} ({blocked / whole:.2f}x) |")
        del band, out


if __name__ == "__main__":
    main()
