"""``scripts/cold_start.py``: first-call times and imports in fresh processes."""

import importlib
import re
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

ROW = re.compile(r"\| (.+?) \| ([\d.]+) \| ([\d.]+) \| ([\d.]+) \| (.+) \((\d+)\) \|")


def test_one_row_per_command_with_the_first_call_imports(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    importlib.import_module("cold_start").main(["--repeats", "1"])
    rows = {}
    for line in capsys.readouterr().out.splitlines()[3:]:
        match = ROW.fullmatch(line)
        assert match, line
        rows[match[1]] = match[5].split(", ")
        assert float(match[3]) > 0 and float(match[4]) > 0, line
    assert list(rows) == ["deconvolve functional", "deconvolve separate",
                          "simulate --runs 2", "nu-estimate"]
    for name, modules in rows.items():
        assert "numpy.fft" in modules and "numpy.ma" not in modules, name
    assert "numpy.random" in rows["simulate --runs 2"]
