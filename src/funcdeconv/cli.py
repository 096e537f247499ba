"""Command-line interface.

Subcommands: ``deconvolve``, ``simulate``, ``table1``, ``rates``,
``compare``, ``nu-estimate``. Exit codes: 0 success, 1 bad usage,
configuration or input, 2 ill-posed kernel; a failure prints one ``error:``
line on stderr. Each file-producing command writes a flat ``key=value``
manifest with the command and every option it ran with, defaults and
parameters resolved from the data included; ``funcdeconv --from-manifest
PATH`` replays a manifest and reproduces its outputs byte for byte.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import warnings
from fractions import Fraction

from . import __version__
from .estimator import FUNCTIONAL, SEPARATE, estimate, finite_arithmetic, sample_rows
from .estimator import deconvolve  # noqa: F401  (perfbench/tracer.py binds (cli, "deconvolve"))
from .exceptions import ConfigError, FuncDeconvError, IllPosedKernel
from .gridio import load_grid  # noqa: F401  (perfbench/tracer.py binds (cli, "load_grid"))
from .gridio import open_grid, rewrite, save_grid
from .rates import BesovBall, compare_strategies, exponent_multi
from .simlab import (
    SimConfig,
    run_mise,
    signal_names,
    slope_files,
    table1,
    write_table_csv,
)
from .spectra import estimate_nu, kernel_bounds, kernel_spectrum


def _rational(text: str):
    if text.lower() in {"inf", "infinity"}:
        return math.inf
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"{text!r} has a zero denominator") from None


def _auto_float(text: str):
    return None if text.lower() == "auto" else float(text)


def _auto_int(text: str):
    return None if text.lower() == "auto" else int(text)


def _write_manifest(args) -> None:
    """``command=`` then every option of ``args`` that has a value, in parser order.

    Written to ``--manifest``, else to ``OUT.manifest`` when the command has
    an ``--out``; a command with neither writes none.
    """
    path = getattr(args, "manifest", None) \
        or (getattr(args, "out", None) and f"{args.out}.manifest")
    if not path:
        return
    with rewrite(path) as fh:
        fh.write(f"command={args.command}\n")
        for key, value in vars(args).items():
            if key in {"command", "func", "manifest"} or value is None:
                continue
            if isinstance(value, list):
                value = ",".join(map(str, value))
            fh.write(f"{key}={value}\n")


def _argv_from_manifest(path) -> list:
    command = None
    argv = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            if key == "command":
                command = value
            elif key == "s2":
                argv.append("--s2")
                argv.extend(value.split(","))
            else:
                argv.extend([f"--{key}", value])
    if command is None:
        raise FuncDeconvError(f"{path}: manifest has no 'command' line")
    return [command] + argv


# --- subcommand implementations -------------------------------------------

# About this many coefficients, in whole rows of a block, per write of the
# coefficient CSV: the file is written as it is formatted.
_CSV_CHUNK = 512


def _write_coeffs_csv(path, coeffs) -> None:
    """Coefficient CSV: one ``j,k,jprime,kprime,re,kept`` row per coefficient.

    Rows run over the (j', j) blocks in ascending level order and through
    each block row-major; separate mode has one block row, jprime = -1, with
    kprime the profile index. Each block row kprime has its own ``%``
    template, a line ``j,k,jprime,kprime,%r,%d`` per coefficient with the
    four integers already in place, so ``%`` formats only the floats, whose
    ``%r`` gives the shortest round-trip digits of ``repr``, and the kept
    flags, as the ints 0 and 1. The file is written as it is formatted, a
    chunk of whole rows of about ``_CSV_CHUNK`` coefficients at a time.
    """
    with rewrite(path) as fh:
        fh.write("j,k,jprime,kprime,re,kept\n")
        for jp, ss in coeffs.plan.spatial_slices.items():
            for j, ts in coeffs.plan.time_slices.items():
                block, kept = coeffs.entries[ss, ts], coeffs.kept[ss, ts].view("u1")
                rows, width = block.shape
                heads = [f"{j},{k},{jp}," for k in range(width)] + [""]
                step = max(1, _CSV_CHUNK // width)
                for top in range(0, rows, step):
                    bottom = min(top + step, rows)
                    line = "".join([f"{kp},%r,%d\n".join(heads) for kp in range(top, bottom)])
                    values = [None] * (2 * width * (bottom - top))
                    values[0::2] = block[top:bottom].ravel().tolist()
                    values[1::2] = kept[top:bottom].ravel().tolist()
                    fh.write(line % tuple(values))


def cmd_deconvolve(args) -> int:
    # Both headers are checked before any sample is read; the samples are then
    # read a row block at a time, the kernel's into its spectrum, the data's into their band.
    grid, kernel = open_grid(args.input), open_grid(args.kernel)
    if (grid.m, grid.n) != (kernel.m, kernel.n):
        raise ConfigError(f"{args.input} holds a {grid.m} x {grid.n} grid but {args.kernel} "
                          f"a {kernel.m} x {kernel.n} kernel; they must have the same shape")
    coeffs = estimate(grid, kernel_spectrum(kernel), mode=args.mode, c_beta=args.cbeta,
                      nu=args.nu, m0=args.m0, m0p=args.m0p, j=args.j, j_prime=args.jprime)
    cfg = coeffs.config
    # the estimate is written as its row blocks are made, never held whole
    save_grid(args.out, sample_rows(coeffs))
    args.coeffs = args.coeffs or f"{args.out}.coeffs.csv"
    _write_coeffs_csv(args.coeffs, coeffs)
    args.nu, args.cbeta, args.j, args.jprime = cfg.nu, cfg.c_beta, cfg.j, cfg.j_prime
    if grid.sigma == 0:
        print(f"warning: {args.input} records sigma = 0, so no threshold is "
              "applied and levels default to grid capacity", file=sys.stderr)
    print(f"wrote {args.out} (mode={cfg.mode}, J={cfg.j}"
          + (f", J'={cfg.j_prime}" if cfg.mode == FUNCTIONAL else "") + ")")
    return 0


def cmd_simulate(args) -> int:
    sim = SimConfig(f1=args.f1, f2=args.f2, m=args.m, n=args.n,
                    sigma=args.sigma, mode=args.mode, runs=args.runs,
                    seed=args.seed, c_beta=args.cbeta, nu=args.nu,
                    threads=args.threads)
    res = run_mise(sim)
    if args.out:
        with rewrite(args.out) as fh:
            fh.write("rep,mise\n")
            for rep, val in enumerate(res.per_run):
                fh.write(f"{rep},{float(val)!r}\n")
    print(f"mean_mise={float(res.mean_mise)!r}")
    print(f"sd_mise={float(res.sd_mise)!r}")
    print(f"runs={args.runs}")
    return 0


def cmd_table1(args) -> int:
    rows = table1(runs=args.runs, seed=args.seed, n=args.n, threads=args.threads)
    write_table_csv(rows, args.out)
    if args.xy:
        for path in slope_files(rows, args.xy, n=args.n):
            print(f"wrote {path}")
    print(f"wrote {len(rows)} cells to {args.out}")
    return 0


def cmd_rates(args) -> int:
    ball = BesovBall(s1=args.s1, s2_vec=tuple(args.s2), p=args.p, q=args.q)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = exponent_multi(ball, args.nu)
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    print(json.dumps(report.as_dict()))
    return 0


def cmd_compare(args) -> int:
    report = compare_strategies(args.s1, args.s2[0], args.nu, args.M, args.N)
    print(json.dumps(report.as_dict()))
    return 0


def cmd_nu_estimate(args) -> int:
    ks = kernel_spectrum(open_grid(args.kernel))
    nu = estimate_nu(ks, (args.mlo, args.mhi))
    c1, c2 = kernel_bounds(ks, nu, (args.mlo, args.mhi))
    print(json.dumps({"nu": nu, "c1": c1, "c2": c2}))
    return 0


# --- parser ----------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Raises usage errors as :class:`ConfigError` instead of printing usage and exiting."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process-wide argument parser, built on first use."""
    parser = _Parser(
        prog="funcdeconv",
        description="Hyperbolic-wavelet thresholding for functional "
                    "deconvolution of periodic profiles.",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    p = sub.add_parser("deconvolve", formatter_class=fmt,
                       help="estimate f from an observation grid and a kernel")
    p.add_argument("--input", required=True,
                   help="observation grid (.fdg binary or .csv)")
    p.add_argument("--kernel", required=True,
                   help="kernel samples on the same grid (.fdg or .csv)")
    p.add_argument("--mode", choices=(FUNCTIONAL, SEPARATE),
                   default=FUNCTIONAL, help="estimation strategy")
    p.add_argument("--nu", type=_auto_float, default="auto",
                   help="kernel decay exponent (auto: log-log fit)")
    p.add_argument("--cbeta", type=_auto_float, default="auto",
                   help="threshold constant (auto: 4 (2pi/3)^nu / sqrt(c1))")
    p.add_argument("--m0", type=int, default=3, help="coarsest time level")
    p.add_argument("--m0p", type=int, default=3, help="coarsest spatial level")
    p.add_argument("--j", type=_auto_int, default="auto",
                   help="finest time level (exclusive)")
    p.add_argument("--jprime", type=_auto_int, default="auto",
                   help="finest spatial level (exclusive, functional mode)")
    p.add_argument("--out", required=True, help="reconstruction output path")
    p.add_argument("--coeffs", default=None,
                   help="coefficient CSV path, j,k,jprime,kprime,re,kept "
                        "(default: OUT.coeffs.csv)")
    p.add_argument("--manifest", default=None,
                   help="manifest path (default: OUT.manifest)")
    p.set_defaults(func=cmd_deconvolve)

    p = sub.add_parser("simulate", formatter_class=fmt,
                       help="Monte-Carlo MISE for one benchmark cell")
    p.add_argument("--f1", choices=signal_names(), default="Quadratic",
                   help="spatial factor")
    p.add_argument("--f2", choices=signal_names(), default="Blip",
                   help="time factor")
    p.add_argument("--m", type=int, default=128, help="number of profiles M")
    p.add_argument("--n", type=int, default=512, help="samples per profile N")
    p.add_argument("--sigma", type=float, default=0.5, help="noise level")
    p.add_argument("--mode", choices=(FUNCTIONAL, SEPARATE),
                   default=FUNCTIONAL, help="estimation strategy")
    p.add_argument("--runs", type=int, default=25, help="replicates")
    p.add_argument("--seed", type=int, default=0, help="base seed")
    p.add_argument("--cbeta", type=_auto_float, default="auto",
                   help="threshold constant")
    p.add_argument("--nu", type=_auto_float, default="auto",
                   help="kernel decay exponent")
    p.add_argument("--threads", type=int, default=1, help="worker threads")
    p.add_argument("--out", default=None, help="optional per-run MISE CSV")
    p.add_argument("--manifest", default=None,
                   help="manifest path (default: OUT.manifest when --out set)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("table1", formatter_class=fmt,
                       help="full 48-cell benchmark table")
    p.add_argument("--runs", type=int, default=25, help="replicates per cell")
    p.add_argument("--seed", type=int, default=0, help="base seed")
    p.add_argument("--n", type=int, default=512, help="samples per profile N")
    p.add_argument("--threads", type=int, default=1, help="worker threads")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--xy", default=None,
                   help="prefix for gnuplot-ready MISE-vs-MN files")
    p.add_argument("--manifest", default=None,
                   help="manifest path (default: OUT.manifest)")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("rates", formatter_class=fmt,
                       help="minimax rate exponent for a Besov ball")
    p.add_argument("--s1", type=_rational, required=True,
                   help="time smoothness (rationals like 2/3 stay exact)")
    p.add_argument("--s2", type=_rational, nargs="+", required=True,
                   help="spatial smoothness (several values: multivariate)")
    p.add_argument("--nu", type=_rational, required=True,
                   help="kernel decay exponent")
    p.add_argument("--p", type=_rational, default=Fraction(2),
                   help="Besov p (inf allowed)")
    p.add_argument("--q", type=_rational, default=Fraction(2),
                   help="Besov q (inf allowed); recorded only, the exponent "
                        "does not depend on q")
    p.add_argument("--manifest", default=None, help="optional manifest path")
    p.set_defaults(func=cmd_rates)

    p = sub.add_parser("compare", formatter_class=fmt,
                       help="functional-vs-separate finite-sample verdict")
    p.add_argument("--s1", type=_rational, required=True,
                   help="time smoothness")
    p.add_argument("--s2", type=_rational, nargs=1, required=True,
                   help="spatial smoothness")
    p.add_argument("--nu", type=_rational, required=True,
                   help="kernel decay exponent")
    p.add_argument("--M", type=int, required=True, help="number of profiles")
    p.add_argument("--N", type=int, required=True, help="samples per profile")
    p.add_argument("--manifest", default=None, help="optional manifest path")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("nu-estimate", formatter_class=fmt,
                       help="fit the kernel decay exponent from samples")
    p.add_argument("--kernel", required=True,
                   help="kernel samples (.fdg or .csv)")
    p.add_argument("--mlo", type=int, default=None,
                   help="fit window lower frequency (default N/16)")
    p.add_argument("--mhi", type=int, default=None,
                   help="fit window upper frequency (default N/4)")
    p.set_defaults(func=cmd_nu_estimate)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        if "--from-manifest" in argv:
            idx = argv.index("--from-manifest")
            if idx + 1 >= len(argv):
                raise ConfigError("--from-manifest needs a path")
            argv = _argv_from_manifest(argv[idx + 1]) \
                + argv[:idx] + argv[idx + 2:]
        args = build_parser().parse_args(argv)
        with finite_arithmetic():
            code = args.func(args)
        _write_manifest(args)
        return code
    except SystemExit as exc:           # --help, --version
        return 0 if not exc.code else 1
    except IllPosedKernel as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FuncDeconvError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
