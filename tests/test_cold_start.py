"""``scripts/cold_start.py``: first-call times and imports in fresh processes."""

import importlib
import re
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

ROW = re.compile(r"\| (.+?) \| ([\d.]+) \| ([\d.]+) \| ([\d.]+) \| (.+) \((\d+)\) \|")
STAGE_ROW = re.compile(r"\| (deconvolve \w+) \|" + r" ([\d.]+) \|" * 7)
PARSER = re.compile(r"First build_parser call \(median ms\): ([\d.]+)")


def test_one_row_per_command_with_the_first_call_imports(monkeypatch, capsys):
    """Then a row of stage times per deconvolve mode and the first build_parser time."""
    monkeypatch.syspath_prepend(str(SCRIPTS))
    cold_start = importlib.import_module("cold_start")
    cold_start.main(["--repeats", "1"])
    commands, stages, parser = capsys.readouterr().out.split("\n\n")
    rows = {}
    for line in commands.splitlines()[3:]:
        match = ROW.fullmatch(line)
        assert match, line
        rows[match[1]] = match[5].split(", ")
        assert float(match[3]) > 0 and float(match[4]) > 0, line
    assert list(rows) == ["deconvolve functional", "deconvolve separate",
                          "simulate --runs 2", "nu-estimate"]
    for name, modules in rows.items():
        assert "numpy.fft" in modules and "numpy.ma" not in modules, name
    assert "numpy.random" in rows["simulate --runs 2"]
    assert stages.splitlines()[1] == \
        f"| command | {' | '.join(cold_start.STAGES)} | sum |"
    split = {}
    for line in stages.splitlines()[3:]:
        match = STAGE_ROW.fullmatch(line)
        assert match, line
        split[match[1]] = [float(v) for v in match.groups()[1:]]
        assert all(v > 0 for v in split[match[1]]), line
    assert list(split) == ["deconvolve functional", "deconvolve separate"]
    match = PARSER.fullmatch(parser.strip())
    assert match and float(match[1]) > 0, parser
