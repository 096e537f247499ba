"""Time the first call of CLI commands in fresh processes, the import excluded.

Every ``funcdeconv`` command runs in a process of its own, so what a first
call does beyond its arithmetic (numpy's lazily imported submodules, the
memoised band matrices, argparse's set-up) is paid on every run. In a fresh
temporary directory the script writes a 256 x 512 reference kernel and
Quadratic (x) Blip data drawn at seed 0 with sigma 0.5, as ``.fdg`` files.
For each command below it then starts ``--repeats`` fresh interpreters; each
imports ``funcdeconv.cli`` (timed apart), runs ``cli.main`` twice with the
same arguments and reports both times and the modules the first call
imported:

* ``deconvolve`` in functional and in separate mode;
* ``simulate --runs 2`` (128 x 512, the command's defaults);
* ``nu-estimate`` on the kernel.

Run: python3 scripts/cold_start.py [--repeats 7] [--src DIR]

Prints one row per command: the median milliseconds of the import, of the
first and of the second (warm) call, and the modules the first call imported
(a package's submodules are folded into it, with the total count). ``--src``
is the directory holding the ``funcdeconv`` package to run, by default the
``src/`` next to this script, so two trees compare run by run. The children
run with one BLAS thread. Nothing is written outside the temporary directory.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SHAPE = (256, 512)
DECONVOLVE = ["deconvolve", "--input", "obs.fdg", "--kernel", "kernel.fdg", "--out", "fhat.fdg"]
COMMANDS = {
    "deconvolve functional": DECONVOLVE + ["--mode", "functional"],
    "deconvolve separate": DECONVOLVE + ["--mode", "separate"],
    "simulate --runs 2": ["simulate", "--runs", "2"],
    "nu-estimate": ["nu-estimate", "--kernel", "kernel.fdg"],
}

CHILD = """
import contextlib, io, json, sys, time
t0 = time.perf_counter()
from funcdeconv import cli
import_ms = 1e3 * (time.perf_counter() - t0)
argv = json.loads(sys.argv[1])
calls = []
for _ in range(2):
    before = set(sys.modules)
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    calls.append((1e3 * (time.perf_counter() - t0), sorted(set(sys.modules) - before)))
    if code:
        sys.exit(f"exit code {code}")
(first_ms, modules), (warm_ms, _) = calls
print(json.dumps({"import_ms": import_ms, "first_ms": first_ms, "warm_ms": warm_ms,
                  "modules": modules}))
"""


def write_inputs(src: Path, root: Path) -> None:
    """The kernel and data files every command reads, from the program under ``src``."""
    sys.path.insert(0, str(src))
    import funcdeconv as fd
    from funcdeconv import gridio, simlab

    m, n = SHAPE
    truth = simlab.product_truth("Quadratic", "Blip", m, n)
    gridio.save_grid(root / "obs.fdg", simlab.synthesize_data(truth, 0.5, seed=0))
    gridio.save_grid(root / "kernel.fdg", fd.ObservationGrid(simlab.kernel_grid(m, n)))


def run_child(argv: list, root: Path, env: dict) -> dict:
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(argv)], cwd=root,
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(argv)} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def folded(modules: list) -> str:
    """Top-level names of ``modules`` (submodules folded into their package) and the count."""
    names = set(modules)
    tops = [m for m in modules if not any(m.startswith(p + ".") for p in names)]
    return f"{', '.join(tops) or '-'} ({len(modules)})"


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--src", type=Path, default=SRC)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    src = args.src.resolve()
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_inputs(src, root)
        runs = {name: [] for name in COMMANDS}
        for _ in range(args.repeats):
            for name, argv in COMMANDS.items():
                runs[name].append(run_child(argv, root, env))
    print(f"Medians of {args.repeats} fresh processes per command, funcdeconv from {src}")
    print("| command | import (ms) | first call (ms) | warm call (ms) | "
          "modules the first call imports |")
    print("| --- | --- | --- | --- | --- |")
    for name, reports in runs.items():
        med = {key: statistics.median(r[key] for r in reports)
               for key in ("import_ms", "first_ms", "warm_ms")}
        print(f"| {name} | {med['import_ms']:.1f} | {med['first_ms']:.1f} | "
              f"{med['warm_ms']:.1f} | {folded(reports[0]['modules'])} |")


if __name__ == "__main__":
    main()
