"""Pipeline benchmark for funcdeconv: one workload per run, or all three.

    python3 perfbench/run.py --workload mc_table --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --make-reference 64

The program is imported from ``src/`` next to this directory, never from an
installed copy. ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run (see GLOSSARY.md). The last line of
standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

import os

# One BLAS thread: every run is the single-threaded baseline on any machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
TRACE_DIR = ROOT / ".perfbench_out"
WORK_ROOT = ROOT / ".perfbench_tmp"
REL_TOL = 1e-10
CHILD_TIMEOUT_S = 170
MIN_COVERAGE = 0.9
SLICES = 5


def import_program():
    """Import the benchmark's workloads (and so funcdeconv); return (module, seconds)."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    try:
        import funcdeconv
        import workloads
    except ImportError as exc:
        raise SystemExit(f"error: cannot import the program from {SRC}: {exc}")
    seconds = time.perf_counter() - t0
    found = Path(funcdeconv.__file__).resolve().parent
    if found != SRC / "funcdeconv":
        raise SystemExit(f"error: funcdeconv imported from {found}, expected {SRC}")
    return workloads, seconds


@contextlib.contextmanager
def work_dir(name: str):
    WORK_ROOT.mkdir(exist_ok=True)
    path = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()  # fails while another run still uses it


def openblas_threads():
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(str(path))
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    try:
        from funcdeconv import _kernels
        backend = _kernels.backend()
    except ImportError:
        backend = "numpy (no _kernels module)"
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "backend": backend,
            "openblas_threads": openblas_threads()}


class Checker:
    """Output checks: per-op check, in-run bitwise repeat, stored reference."""

    def __init__(self, wl, seed: int):
        refs = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        self.wl = wl
        self.ref = refs.get(wl.name, {}).get(str(seed))
        self.first: dict = {}
        self.failures: list = []
        self.ref_checked = 0
        self.counts: dict = defaultdict(int)

    def __call__(self, state, op, out, err=None) -> bool:
        try:
            if err is not None:
                raise err
            value, counts = self.wl.check(state, op, out)
            if self.first.setdefault(op, value) != value:
                raise ValueError(f"value {value!r} differs from {self.first[op]!r} "
                                 "earlier in the run")
            if self.ref is not None:
                for got, ref in zip(value, self.ref[op], strict=True):
                    if abs(got - ref) > REL_TOL * abs(ref):
                        raise ValueError(f"value {got!r} vs reference {ref!r}")
                self.ref_checked += len(value)
        except Exception as exc:  # any failure of the operation or its check
            self.failures.append(f"op {op}: {type(exc).__name__}: {exc}")
            return False
        for key, n in counts.items():
            self.counts[key] += n
        return True


class Loop:
    """Result of a timed loop."""

    def __init__(self):
        self.latencies: list = []
        self.items = 0
        self.failed = 0
        self.op_seconds = 0.0

    @property
    def items_per_s(self) -> float:
        return self.items / self.op_seconds


def timed_loop(wl, state, check, seconds: float, tracer=None, loop=None) -> Loop:
    """Closed loop, one client: cycle through ``wl.ops`` until ``loop`` holds
    ``seconds`` of operation time.

    Passing the ``loop`` of an earlier call continues it where it stopped.
    With a tracer, each operation's ``wl.run`` is itself a span, so the
    benchmark's own time inside an operation is measured, and the loop ends
    on a whole pass, so that per-op counts do not depend on where it stopped.
    """
    ops = wl.ops(state)
    run = wl.run if tracer is None else tracer.wrap_op(wl.run)
    loop = Loop() if loop is None else loop
    clock = time.perf_counter
    while (loop.op_seconds < seconds
           or (tracer is not None and len(loop.latencies) % len(ops))):
        op = ops[len(loop.latencies) % len(ops)]
        if tracer is not None:
            tracer.op, tracer.enabled = len(loop.latencies), True
        out = err = None
        t0 = clock()
        try:
            out = run(state, op)
        except Exception as exc:  # a failed operation is counted, not fatal
            err = exc
        loop.latencies.append(clock() - t0)
        loop.op_seconds += loop.latencies[-1]
        if tracer is not None:
            tracer.enabled = False
        if check(state, op, out, err):
            loop.items += wl.items(state, op)
        else:
            loop.failed += 1
    return loop


def peak_memory(wl, state, check) -> tuple:
    """Peak traced allocation of each memory-pass op; returns (peaks, failed)."""
    peaks, failed = [], 0
    for op in wl.mem_ops(state):
        gc.collect()
        tracemalloc.start()
        out = err = None
        try:
            out = wl.run(state, op)
        except Exception as exc:  # counted as a failed operation
            err = exc
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        failed += not check(state, op, out, err)
    return peaks, failed


def setup_probe(name: str, seed: int) -> None:
    """Child process: time one cold set-up (set-up calls and warm-up op).

    The import and the benchmark's input generation come before the clock
    starts; the import time is returned apart.
    """
    wlmod, import_s = import_program()
    with work_dir(name) as wd:
        wl = wlmod.make(name, wd)
        inputs = wl.make_inputs(seed)
        t0 = time.perf_counter()
        state = wl.setup(inputs)
        op = wl.ops(state)[0]
        wl.run(state, op)  # its output is checked by the parent's warm-up op
        setup_s = time.perf_counter() - t0
    print(json.dumps({"setup_s": setup_s, "import_s": import_s}))


def run_child(argv: list, timeout: float = CHILD_TIMEOUT_S) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "run.py")] + argv,
                          capture_output=True, text=True, cwd=ROOT, timeout=timeout)


def setup_probe_child(name: str, seed: int) -> dict:
    """``setup_s`` and ``import_s`` of one cold set-up in a fresh process."""
    proc = run_child(["--setup-probe", "--workload", name, "--seed", str(seed)])
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def fmt_metric(name, value, unit, note="") -> str:
    return f"{name:<34} {value:>14.6g} {unit:<6} {note}"


def end_to_end(wl, state, check, seconds: float, seed: int) -> tuple:
    """Untraced timed loop, set-up probes and the memory pass.

    The timed loop runs in ``SLICES`` slices with the set-up probes spread
    over the gaps between them, so that each run samples the machine's
    speed over its whole length rather than over one stretch of it.
    Returns (metrics, attempted, failed, notes).
    """
    loop = Loop()
    setup = defaultdict(list)
    repeats = wl.setup_repeats
    for i in range(SLICES):
        timed_loop(wl, state, check, seconds * (i + 1) / SLICES, loop=loop)
        for _ in range(repeats * (i + 1) // SLICES - repeats * i // SLICES):
            for key, value in setup_probe_child(wl.name, seed).items():
                setup[key].append(value)
    peaks, mem_failed = peak_memory(wl, state, check)
    lat_ms = [1e3 * t for t in loop.latencies]
    n_ops = len(lat_ms)
    setup_s = setup["setup_s"]
    metrics = {
        "items_per_s": (loop.items_per_s, "1/s",
                        f"{loop.items} items in {n_ops} ops, {loop.op_seconds:.3f} s"),
        "op_ms.p50": (statistics.median(lat_ms), "ms", f"n={n_ops}"),
        "op_ms.p90": (statistics.quantiles(lat_ms, n=10)[8], "ms",
                      f"n={n_ops}, {n_ops // 10} beyond"),
        "setup_s": (statistics.median(setup_s), "s",
                    f"median of {len(setup_s)} cold set-ups: "
                    + " ".join(f"{s:.4f}" for s in setup_s)),
        "peak_mem_mb": (max(peaks) / 1e6, "MB",
                        f"max over {len(peaks)} ops under tracemalloc"),
    }
    notes = [f"import of the program and the benchmark, not in setup_s: median "
             f"{statistics.median(setup['import_s']):.4f} s over the same processes"]
    return metrics, n_ops + len(peaks), loop.failed + mem_failed, notes


def per_layer(wl, state, check, seconds: float, dump_path, env: dict) -> tuple:
    """Untraced half, then traced half; returns (metrics, attempted, failed, notes)."""
    from tracer import Tracer

    untraced = timed_loop(wl, state, check, seconds / 2)
    tracer = Tracer()
    check.counts.clear()
    tracer.install()
    try:
        traced = timed_loop(wl, state, check, seconds / 2, tracer)
    finally:
        tracer.uninstall()
    n_ops = len(traced.latencies)
    metrics = {key: (value, unit, "") for key, (value, unit)
               in tracer.per_layer(n_ops, traced.op_seconds).items()}
    metrics["cli.coeff_rows"] = (check.counts["cli.coeff_rows"] / n_ops, "count", "")
    metrics["trace.items_per_s"] = (traced.items_per_s, "1/s", f"n={n_ops}")
    metrics["trace.untraced_items_per_s"] = (untraced.items_per_s, "1/s",
                                             f"n={len(untraced.latencies)}")
    overhead = untraced.items_per_s / traced.items_per_s - 1.0 if traced.items else 0.0
    metrics["trace.overhead"] = (overhead, "ratio", "untraced / traced items_per_s - 1; "
                                 "0 when no traced operation passed its check")
    attempted = len(untraced.latencies) + n_ops
    failed = untraced.failed + traced.failed
    coverage = metrics["trace.coverage"][0]
    notes = [f"top-level program spans cover {coverage:.4f} of op time; uncovered "
             f"{metrics['trace.uncovered_ms'][0]:.4f} ms/op = "
             f"{metrics['bench.run.self_ms'][0]:.4f} ms/op self time of the "
             f"benchmark's {type(wl).__name__}.run (bench.run span) + "
             f"{metrics['trace.loop_ms'][0]:.4f} ms/op of the timing loop "
             "outside it (trace.loop_ms)"]
    if coverage < MIN_COVERAGE:
        failed += 1
        check.failures.append(f"trace coverage {coverage:.3f} < {MIN_COVERAGE}")
    dump_path.parent.mkdir(exist_ok=True)
    tracer.dump(dump_path, {"env": env})
    notes.append(f"spans written to {dump_path.relative_to(ROOT)}")
    return metrics, attempted, failed, notes


def run_workload(wlmod, name: str, seed: int, seconds: float, trace: bool) -> dict:
    env = environment()
    print(f"workload={name} seed={seed} seconds={seconds:g} trace={int(trace)}")
    print("env " + json.dumps(env))
    with work_dir(name) as wd:
        wl = wlmod.make(name, wd)
        check = Checker(wl, seed)
        state = wl.setup(wl.make_inputs(seed))
        warm = wl.ops(state)[0]
        out = err = None
        try:
            out = wl.run(state, warm)
        except Exception as exc:  # counted below like any failed operation
            err = exc
        attempted, failed = 1, int(not check(state, warm, out, err))
        try:
            notes = wl.once(state)
        except Exception as exc:  # a failed once-per-run check
            notes, failed = [], failed + 1
            check.failures.append(f"once: {type(exc).__name__}: {exc}")
        if trace:
            dump = TRACE_DIR / f"trace-{name}-seed{seed}.json"
            metrics, n, bad, more = per_layer(wl, state, check, seconds, dump, env)
            notes += more
        else:
            metrics, n, bad, more = end_to_end(wl, state, check, seconds, seed)
            notes += more
        attempted += n
        failed += bad

    for key, (value, unit, note) in metrics.items():
        print(fmt_metric(key, value, unit, note))
    print(fmt_metric("error_rate", failed / attempted, "ratio",
                     f"{failed} of {attempted} operations failed"))
    if check.ref is not None:
        notes.append(f"{check.ref_checked} outputs within {REL_TOL:g} relative "
                     f"of the stored reference for seed {seed}")
    else:
        notes.append(f"no stored reference for seed {seed}: checked shape, "
                     "finiteness, exit codes and in-run repeatability only")
    for line in notes + check.failures[:10]:
        print("check " + line)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()}}


def run_all(names, args) -> dict:
    """Run each workload in its own process and combine their results."""
    results = {}
    for name in names:
        proc = run_child(["--workload", name, "--seed", str(args.seed),
                          "--seconds", str(args.seconds), "--trace", str(args.trace)],
                         timeout=args.seconds + CHILD_TIMEOUT_S)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"error: workload {name} exited with {proc.returncode}")
        results[name] = json.loads(lines[-1])
    return {"correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "workloads": results}


def make_reference(wlmod, count: int) -> None:
    """Store each op's reference value for seeds 0..count-1."""
    data = {"rel_tol": REL_TOL}
    for name in wlmod.NAMES:
        with work_dir(name) as wd:
            wl = wlmod.make(name, wd)
            per_seed = {}
            for seed in range(count):
                state = wl.setup(wl.make_inputs(seed))
                per_seed[str(seed)] = [wl.check(state, op, wl.run(state, op))[0]
                                       for op in wl.ops(state)]
            data[name] = per_seed
    REFERENCE.write_text(json.dumps(data, separators=(",", ":")) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: time one cold set-up and exit")
    parser.add_argument("--make-reference", type=int, metavar="SEEDS",
                        help="regenerate reference.json for seeds 0..SEEDS-1")
    args = parser.parse_args()
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    wlmod, _ = import_program()
    if args.make_reference:
        make_reference(wlmod, args.make_reference)
        return 0
    if args.workload == "all":
        result = run_all(wlmod.NAMES, args)
    else:
        result = run_workload(wlmod, args.workload, args.seed, args.seconds,
                              bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
