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

After its two calls, a ``deconvolve`` process runs a third, warm call stage
by stage, as ``cmd_deconvolve`` and ``main`` run it, with a clock between
stages: the kernel spectrum (both headers and the kernel's samples), the
nu fit (``config_for``), the estimate (``estimate``: the data's band,
Meyer analysis, spatial DWT, threshold), ``save_grid`` of the estimate's
row blocks, the coefficient CSV and the manifest. ``--repeats`` more fresh
processes each time their first ``build_parser`` call, which builds the
parser that later calls reuse.

Run: python3 scripts/cold_start.py [--repeats 7] [--src DIR]

Prints one row per command: the median milliseconds of the import, of the
first and of the second (warm) call, and the modules the first call imported
(a package's submodules are folded into it, with the total count). Then one
row per ``deconvolve`` mode with the median milliseconds of each stage of
the warm call and their sum, and a line with the median time of the first
``build_parser`` call. ``--src``
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
report = {"import_ms": import_ms, "first_ms": first_ms, "warm_ms": warm_ms,
          "modules": modules}
if argv[0] == "deconvolve":
    from funcdeconv import estimator, gridio, spectra
    stages, clock = {}, time.perf_counter

    def lap(name, t0):
        stages[name] = 1e3 * (clock() - t0)
        return clock()

    args = cli.build_parser().parse_args(argv)
    t = clock()
    with estimator.finite_arithmetic():
        grid, kernel = gridio.open_grid(args.input), gridio.open_grid(args.kernel)
        ks = spectra.kernel_spectrum(kernel)
        t = lap("kernel spectrum", t)
        cfg = estimator.config_for(grid, ks, mode=args.mode, c_beta=args.cbeta, nu=args.nu,
                                   m0=args.m0, m0p=args.m0p, j=args.j, j_prime=args.jprime)
        t = lap("nu fit", t)
        coeffs = estimator.estimate(grid, ks, cfg)
        t = lap("estimate", t)
        gridio.save_grid(args.out, estimator.sample_rows(coeffs))
        t = lap("save_grid", t)
        args.coeffs = args.coeffs or f"{args.out}.coeffs.csv"
        cli._write_coeffs_csv(args.coeffs, coeffs)
        t = lap("CSV", t)
    args.nu, args.cbeta, args.j, args.jprime = cfg.nu, cfg.c_beta, cfg.j, cfg.j_prime
    cli._write_manifest(args)
    lap("manifest", t)
    report["stages"] = stages
print(json.dumps(report))
"""

PARSER_CHILD = """
import json, time
from funcdeconv import cli
t0 = time.perf_counter()
cli.build_parser()
print(json.dumps(1e3 * (time.perf_counter() - t0)))
"""

STAGES = ("kernel spectrum", "nu fit", "estimate", "save_grid", "CSV", "manifest")


def write_inputs(src: Path, root: Path) -> None:
    """The kernel and data files every command reads, from the program under ``src``."""
    sys.path.insert(0, str(src))
    import funcdeconv as fd
    from funcdeconv import gridio, simlab

    m, n = SHAPE
    truth = simlab.product_truth("Quadratic", "Blip", m, n)
    gridio.save_grid(root / "obs.fdg", simlab.synthesize_data(truth, 0.5, seed=0))
    gridio.save_grid(root / "kernel.fdg", fd.ObservationGrid(simlab.kernel_grid(m, n)))


def run_child(code: str, argv: list, root: Path, env: dict):
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(argv)], cwd=root,
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(argv) or 'build_parser'} failed:\n{proc.stderr}")
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
        parser_ms = []
        for _ in range(args.repeats):
            for name, argv in COMMANDS.items():
                runs[name].append(run_child(CHILD, argv, root, env))
            parser_ms.append(run_child(PARSER_CHILD, [], root, env))
    print(f"Medians of {args.repeats} fresh processes per command, funcdeconv from {src}")
    print("| command | import (ms) | first call (ms) | warm call (ms) | "
          "modules the first call imports |")
    print("| --- | --- | --- | --- | --- |")
    for name, reports in runs.items():
        med = {key: statistics.median(r[key] for r in reports)
               for key in ("import_ms", "first_ms", "warm_ms")}
        print(f"| {name} | {med['import_ms']:.1f} | {med['first_ms']:.1f} | "
              f"{med['warm_ms']:.1f} | {folded(reports[0]['modules'])} |")
    print(f"\nA warm deconvolve at {SHAPE[0]} x {SHAPE[1]} by stage (median ms)")
    print(f"| command | {' | '.join(STAGES)} | sum |")
    print("|" + " --- |" * (len(STAGES) + 2))
    for name, reports in runs.items():
        if "stages" in reports[0]:
            med = [statistics.median(r["stages"][stage] for r in reports) for stage in STAGES]
            print(f"| {name} | {' | '.join(f'{v:.2f}' for v in med)} | {sum(med):.2f} |")
    print(f"\nFirst build_parser call (median ms): {statistics.median(parser_ms):.2f}")


if __name__ == "__main__":
    main()
