"""``scripts/table1_time.py``: ``table1`` wall time and noise band cache in fresh processes."""

import hashlib
import importlib
import re
from pathlib import Path

from funcdeconv import simlab

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

ROW = re.compile(r"\| ([\d.]+) \| ([\d.]+) \| (\d+) \| (\d+) \| (\d+) \| ([0-9a-f]{64}) \|")


def test_one_row_of_medians_memo_counts_and_the_table_hash(monkeypatch, capsys):
    """At two replicates the 48 cells draw 3 (M, K) bands per replicate once,
    (128, 6), (256, 6) and (256, 11), keep all 6, and hit them 90 times."""
    monkeypatch.syspath_prepend(str(SCRIPTS))
    table1_time = importlib.import_module("table1_time")
    table1_time.main(["--runs", "2", "--repeats", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("table1(runs=2) in 1 fresh processes")
    match = ROW.fullmatch(lines[3])
    assert match, lines[3]
    assert float(match[1]) > 0 and float(match[2]) > 0
    assert [int(v) for v in match.groups()[2:5]] == [90, 6, 6]
    rows = simlab.table1(runs=2)
    bits = "".join(float(r[key]).hex() for r in rows for key in ("mean_mise", "sd_mise"))
    assert match[6] == hashlib.sha256(bits.encode()).hexdigest()
