"""Hash every output of a fixed set of CLI runs, to check that a change keeps them byte for byte.

In a fresh temporary directory, with relative paths (manifests record
them), the script writes 64 x 256 inputs: the reference kernel and
Quadratic (x) Blip data drawn at seed 0 with sigma 0.5 and with sigma 0,
and ``.csv`` copies of the kernel and of the sigma 0.5 data.
On each ``.fdg`` data grid it runs ``deconvolve`` in both modes, at the default
levels and at ``--j 5 --jprime 5 --m0p 2``, and replays each of those runs
from its manifest into the same paths after deleting what it wrote; on the
``.csv`` data and kernel it runs ``deconvolve`` once per mode. It then
runs ``simulate --runs 3 --out`` with ``--threads 1`` and ``--threads 2``,
replays both, and runs ``table1 --runs 2 --n 64``. Then it runs
``nu-estimate`` on the kernel, with the default fit window and with
``--mlo 8 --mhi 32``, and on the ``.csv`` kernel with the default window;
their stdout passes through the kernel's zero floor, which the fit window
is checked against. It runs ``rates`` with one ``--s2`` value and with
two, and ``compare``, each with ``--manifest``, and replays each; these
write no file but the manifest, so their stdout is what is compared. Last,
on sigma 0 data at 8 x 4096 (``WIDE``), it runs ``deconvolve`` in functional
mode at the default levels, grid capacity J = 10, so block j = 9 of the
coefficient CSV is 512 wide: one block row per written chunk. It prints one
``sha256  name`` line per output file and per run's captured stdout, so two
trees compare by ``diff``:

    python3 scripts/output_hashes.py --src ../parent/src > parent.txt
    python3 scripts/output_hashes.py > change.txt
    diff parent.txt change.txt

``--src`` is the directory holding the ``funcdeconv`` package to run, by
default the ``src/`` next to this script. A run that exits non-zero stops
the script with exit code 1 and its stderr.
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SHAPE = (64, 256)
WIDE = (8, 4096)
LEVELS = {"default": [], "j5": ["--j", "5", "--jprime", "5", "--m0p", "2"]}
NU_WINDOWS = {"default": [], "m8_32": ["--mlo", "8", "--mhi", "32"]}
CALCULATORS = {
    "rates_one_s2": ["rates", "--s1", "4", "--s2", "1", "--nu", "1"],
    "rates_two_s2": ["rates", "--s1", "1/2", "--s2", "3/2", "2", "--nu", "2"],
    "compare": ["compare", "--s1", "8", "--s2", "1", "--nu", "1/2", "--M", "4", "--N", "4096"],
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def import_program(src: Path) -> None:
    """Import ``funcdeconv`` from ``src``; a copy already imported from elsewhere is an error."""
    sys.path.insert(0, str(src))
    import funcdeconv
    found = Path(funcdeconv.__file__).resolve().parent
    if found != src / "funcdeconv":
        raise SystemExit(f"error: funcdeconv imported from {found}, expected {src}")


class Runner:
    """Runs ``cli.main`` and collects the hash lines of its stdout and files."""

    def __init__(self):
        from funcdeconv.cli import main
        self.main = main
        self.lines = []

    def hash_files(self, names, prefix=""):
        for name in names:
            self.lines.append(f"{sha256(Path(name).read_bytes())}  {prefix}{name}")

    def run(self, label, argv, outputs, prefix=""):
        """Run ``argv``, then hash its stdout as ``label.stdout`` and each of
        ``outputs`` under ``prefix``."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.main(argv)
        if code != 0:
            raise SystemExit(f"error: funcdeconv {' '.join(argv)} exited {code}: "
                             f"{err.getvalue().strip()}")
        self.lines.append(f"{sha256(out.getvalue().encode())}  {label}.stdout")
        self.hash_files(outputs, prefix)

    def replay(self, manifest, outputs):
        """Delete ``outputs`` but the manifest, replay it, and hash what it rewrote."""
        for name in outputs:
            if name != manifest:
                os.remove(name)
        self.run(f"replay/{manifest}", ["--from-manifest", manifest], outputs, "replay/")


def hash_outputs() -> list:
    """The hash lines of every run, made in the current directory."""
    from funcdeconv import ObservationGrid, gridio, simlab
    m, n = SHAPE
    runner = Runner()
    kernel = ObservationGrid(simlab.kernel_grid(m, n), sigma=0.0)
    truth = simlab.product_truth("Quadratic", "Blip", m, n)
    inputs = {f"y_s{sigma:g}.fdg": simlab.synthesize_data(truth, sigma, seed=0)
              for sigma in (0.5, 0.0)}
    files = {"kernel.fdg": kernel, **inputs, "kernel.csv": kernel,
             "y_s0.5.csv": inputs["y_s0.5.fdg"]}
    for name, grid in files.items():
        gridio.save_grid(name, grid)
    runner.hash_files(files)

    deconvolved = []
    for name in inputs:
        for mode in ("functional", "separate"):
            for level, flags in LEVELS.items():
                out = f"{Path(name).stem}_{mode}_{level}.fdg"
                files = [out, f"{out}.coeffs.csv", f"{out}.manifest"]
                runner.run(out, ["deconvolve", "--input", name, "--kernel", "kernel.fdg",
                                 "--mode", mode, *flags, "--out", out], files)
                deconvolved.append(files)
    for mode in ("functional", "separate"):
        out = f"y_s0.5_csv_{mode}.fdg"
        runner.run(out, ["deconvolve", "--input", "y_s0.5.csv", "--kernel", "kernel.csv",
                         "--mode", mode, "--out", out],
                   [out, f"{out}.coeffs.csv", f"{out}.manifest"])
    simulated = []
    for threads in ("1", "2"):
        out = f"simulate_threads{threads}.csv"
        files = [out, f"{out}.manifest"]
        runner.run(out, ["simulate", "--runs", "3", "--threads", threads, "--out", out], files)
        simulated.append(files)
    for files in deconvolved + simulated:
        runner.replay(files[-1], files)
    runner.run("table1.csv", ["table1", "--runs", "2", "--n", "64", "--out", "table1.csv"],
               ["table1.csv", "table1.csv.manifest"])
    for window, flags in NU_WINDOWS.items():
        runner.run(f"nu_estimate_{window}", ["nu-estimate", "--kernel", "kernel.fdg", *flags], [])
    runner.run("nu_estimate_csv", ["nu-estimate", "--kernel", "kernel.csv"], [])
    for label, argv in CALCULATORS.items():
        manifest = f"{label}.manifest"
        runner.run(label, [*argv, "--manifest", manifest], [manifest])
        runner.replay(manifest, [])

    m, n = WIDE
    wide = {"kernel_wide.fdg": ObservationGrid(simlab.kernel_grid(m, n), sigma=0.0),
            "y_wide_s0.fdg": simlab.synthesize_data(
                simlab.product_truth("Quadratic", "Blip", m, n), 0.0, seed=0)}
    for name, grid in wide.items():
        gridio.save_grid(name, grid)
    runner.hash_files(wide)
    out = "y_wide_s0_functional_default.fdg"
    runner.run(out, ["deconvolve", "--input", "y_wide_s0.fdg", "--kernel", "kernel_wide.fdg",
                     "--mode", "functional", "--out", out],
               [out, f"{out}.coeffs.csv", f"{out}.manifest"])
    return runner.lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=SRC,
                        help="directory holding the funcdeconv package to run")
    args = parser.parse_args(argv)
    import_program(args.src.resolve())
    home = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="output_hashes_") as tmp:
        os.chdir(tmp)
        try:
            lines = hash_outputs()
        finally:
            os.chdir(home)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
