"""The pipeline benchmark's span tracer still finds every function it times.

``perfbench/tracer.py`` patches functions and methods by name and raises on
install when one is missing, so a rename in the package fails here and not
only in a traced benchmark run.
"""

import importlib
from pathlib import Path

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
