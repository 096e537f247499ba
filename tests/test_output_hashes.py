"""``scripts/output_hashes.py``: the byte-identity check for refactors."""

import importlib
import re
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

LINE = re.compile(r"([0-9a-f]{64})  (\S+)")


@pytest.fixture
def output_hashes(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    return importlib.import_module("output_hashes").main


def test_two_runs_print_the_same_well_formed_lines(output_hashes, capsys):
    assert output_hashes([]) == 0
    first = capsys.readouterr().out
    assert output_hashes([]) == 0
    assert capsys.readouterr().out == first
    hashes = {}
    for line in first.splitlines():
        match = LINE.fullmatch(line)
        assert match, line
        assert match[2] not in hashes, match[2]
        hashes[match[2]] = match[1]
    # 3 .fdg and 2 .csv inputs; 8 deconvolve runs of 4 lines; 2 simulate runs
    # of 3; their replays alike; 2 deconvolve runs of 4 lines on the .csv
    # inputs; table1's stdout, CSV and manifest; 3 nu-estimate stdouts; 2
    # rates runs and 1 compare run of 2 lines and a replayed stdout each; the
    # 8 x 4096 kernel and data and their deconvolve run of 4 lines
    assert len(hashes) == 5 + 2 * (8 * 4 + 2 * 3) + 2 * 4 + 3 + 3 + 3 * 3 + 2 + 4
    assert "y_wide_s0_functional_default.fdg.coeffs.csv" in hashes
    assert hashes["nu_estimate_default.stdout"] != hashes["nu_estimate_m8_32.stdout"]
    # a .csv grid holds the same doubles as its .fdg copy, so it gives the same results
    assert hashes["nu_estimate_csv.stdout"] == hashes["nu_estimate_default.stdout"]
    for mode in ("functional", "separate"):
        for suffix in ("", ".coeffs.csv"):
            assert hashes[f"y_s0.5_csv_{mode}.fdg{suffix}"] == \
                hashes[f"y_s0.5_{mode}_default.fdg{suffix}"], (mode, suffix)
    replayed = [name for name in hashes
                if name.startswith("replay/") and not name.endswith(".stdout")]
    assert len(replayed) == 8 * 3 + 2 * 2
    for name in replayed:
        assert hashes[name] == hashes[name.removeprefix("replay/")], name
    assert hashes["simulate_threads1.csv"] == hashes["simulate_threads2.csv"]
    for label in ("rates_one_s2", "rates_two_s2", "compare"):
        assert hashes[f"replay/{label}.manifest.stdout"] == hashes[f"{label}.stdout"], label
    assert hashes["rates_one_s2.stdout"] != hashes["rates_two_s2.stdout"]
