"""List the executable lines of ``src/funcdeconv`` that no tier-1 test runs.

No coverage package is needed: the script installs a ``sys.settrace`` tracer
(and ``threading.settrace``, for the Monte-Carlo thread pools) that records
the lines run in files under ``src/funcdeconv``, then runs the test suite in
this process through ``pytest.main``. A line is executable when the compiled
module maps an instruction to it (``co_lines`` of every code object in the
file); a docstring, a comment or a blank line is not. Lines run only in a
subprocess that a test starts are not seen, so they count as not run.

The run writes nothing into the checkout: pytest runs with
``-p no:cacheprovider``, no bytecode is written, and Hypothesis keeps its
database and constants cache in a temporary directory.

Run: python3 scripts/line_coverage.py [PYTEST_ARGS ...]

With no arguments it runs tier-1 (``-q --continue-on-collection-errors``
over ``tests/``). After pytest's own report it prints one
``path:line  source`` line per executable line that no test ran, then, per
file, the count of such lines out of its executable lines, and the total.
Failing tests do not stop the report; the exit code is 0 unless pytest could
not run the tests at all.
"""

import os
import sys
import tempfile
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "funcdeconv"
TIER1 = ["-q", "--continue-on-collection-errors", "tests"]


def executable_lines(path: Path) -> set:
    """Line numbers that an instruction of the compiled ``path`` maps to."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def traced(root: str, hits: set):
    """A global trace function that follows only frames of files under ``root``
    and adds each ``(real path, line)`` they run to ``hits``."""
    real = {}      # co_filename -> its real path under root, or ""

    def local(frame, event, arg):
        if event == "line":
            hits.add((real[frame.f_code.co_filename], frame.f_lineno))
        return local

    def global_(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in real:
            path = os.path.realpath(name)
            real[name] = path if path.startswith(root) else ""
        return local if real[name] else None

    return global_


def main(argv) -> int:
    os.chdir(ROOT)
    sys.dont_write_bytecode = True
    hits = set()
    tracer = traced(os.path.realpath(PACKAGE) + os.sep, hits)
    with tempfile.TemporaryDirectory() as hypothesis_home:
        os.environ["HYPOTHESIS_STORAGE_DIRECTORY"] = hypothesis_home
        import pytest

        threading.settrace(tracer)
        sys.settrace(tracer)
        try:
            code = pytest.main(["-p", "no:cacheprovider"] + (argv or TIER1))
        finally:
            replaced = sys.gettrace() is not tracer
            sys.settrace(None)
            threading.settrace(None)
    if replaced:
        print("warning: a test replaced the trace function; lines after it are "
              "missing from the count", file=sys.stderr)

    totals = []
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text().splitlines()
        lines = executable_lines(path)
        missed = sorted(line for line in lines
                        if (os.path.realpath(path), line) not in hits)
        rel = path.relative_to(ROOT)
        for line in missed:
            print(f"{rel}:{line}  {source[line - 1].strip()}")
        totals.append((rel, len(missed), len(lines)))
    print()
    for rel, missed, lines in totals:
        print(f"{rel}: {missed} of {lines} executable lines not run")
    print(f"total: {sum(t[1] for t in totals)} of {sum(t[2] for t in totals)} "
          "executable lines not run")
    return 0 if code in (pytest.ExitCode.OK, pytest.ExitCode.TESTS_FAILED) else int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
