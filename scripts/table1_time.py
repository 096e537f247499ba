"""Time ``simlab.table1`` in fresh processes, the import excluded.

A benchmark table runs once per process (``funcdeconv table1``), so what its
first cells pay, the imports of ``numpy.fft`` and ``numpy.random``, the
memoised band matrices and the noise bands drawn for the first time, is paid
on every run. The script starts ``--repeats`` fresh interpreters; each
imports ``funcdeconv.simlab`` (timed apart), runs ``table1(runs=R)`` once at
its defaults (seed 0, N = 512, one thread) and reports the wall time, the
noise band cache's hits, misses and bands held (``cache_info()`` of
``simlab._kept_noise_band``; the bands' bytes are not reported, as they differ
with each band's M and K), and the SHA-256 of the 48 rows' mean and sd MISEs
(as ``float.hex``), so two trees compare bit for bit.

Run: python3 scripts/table1_time.py [--repeats 5] [--runs 25] [--src DIR]

Prints the median seconds of the import and of ``table1``, each process's
``table1`` seconds, the cache's counts and the hash (the same in every
process; a tree without ``simlab._kept_noise_band`` prints ``-`` for its
counts). ``--src`` is the directory holding the ``funcdeconv`` package to
run, by default the ``src/`` next to this script, so two trees compare run
by run. The children
run with one BLAS thread. Nothing is written.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

CHILD = """
import hashlib, json, sys, time
t0 = time.perf_counter()
from funcdeconv import simlab
import_s = time.perf_counter() - t0
t0 = time.perf_counter()
rows = simlab.table1(runs=int(sys.argv[1]))
table1_s = time.perf_counter() - t0
bits = "".join(float(r[key]).hex() for r in rows for key in ("mean_mise", "sd_mise"))
cache = getattr(simlab, "_kept_noise_band", None)
info = cache.cache_info() if cache is not None else None
print(json.dumps({"import_s": import_s, "table1_s": table1_s,
                  "sha256": hashlib.sha256(bits.encode()).hexdigest(),
                  "cache": info and {"hits": info.hits, "misses": info.misses,
                                     "bands": info.currsize}}))
"""


def run_child(runs: int, env: dict) -> dict:
    proc = subprocess.run([sys.executable, "-c", CHILD, str(runs)], env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: table1(runs={runs}) failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--runs", type=int, default=25)
    parser.add_argument("--src", type=Path, default=SRC)
    args = parser.parse_args(argv)
    if args.repeats < 1 or args.runs < 1:
        parser.error("--repeats and --runs must be >= 1")
    src = args.src.resolve()
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    reports = [run_child(args.runs, env) for _ in range(args.repeats)]
    if len({r["sha256"] for r in reports}) > 1:
        raise SystemExit("error: the processes' tables differ")
    cache = reports[-1]["cache"] or dict.fromkeys(("hits", "misses", "bands"), "-")
    print(f"table1(runs={args.runs}) in {args.repeats} fresh processes, "
          f"funcdeconv from {src}")
    print("| import (s) | table1 (s) | noise band hits | misses | bands held | sha256 |")
    print("| --- | --- | --- | --- | --- | --- |")
    print(f"| {statistics.median(r['import_s'] for r in reports):.3f} "
          f"| {statistics.median(r['table1_s'] for r in reports):.3f} "
          f"| {cache['hits']} | {cache['misses']} | {cache['bands']} | {reports[0]['sha256']} |")
    print("table1 seconds per process: "
          + " ".join(f"{r['table1_s']:.3f}" for r in reports))


if __name__ == "__main__":
    main()
