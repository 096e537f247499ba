"""``scripts/compare_tables.py``: the table1 agreement gate for refactors."""

import importlib
from pathlib import Path

import pytest

from funcdeconv import simlab

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.fixture
def compare(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    return importlib.import_module("compare_tables").main


@pytest.fixture(scope="module")
def rows():
    return simlab.table1(runs=2, seed=1, n=256)[:4]


def write(path, rows):
    simlab.write_table_csv(rows, path)
    return str(path)


def test_equal_tables_agree(compare, rows, tmp_path, capsys):
    a = write(tmp_path / "a.csv", rows)
    assert compare([a, a, "--rtol", "0"]) == 0
    assert capsys.readouterr().out.startswith("4 cells agree within rtol 0;")


def test_a_moved_mean_is_the_worst_cell(compare, rows, tmp_path, capsys):
    moved = [dict(r) for r in rows]
    moved[2]["mean_mise"] *= 1 + 1e-8
    a, b = write(tmp_path / "a.csv", rows), write(tmp_path / "b.csv", moved)
    assert compare([a, b, "--rtol", "1e-7"]) == 0
    capsys.readouterr()
    assert compare([a, b, "--rtol", "1e-10"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("not all 4 cells agree") and "worst mean_mise 1e-08" in out
    assert f"'mode': '{rows[2]['mode']}'" in out


def test_other_cells_or_seeds_differ(compare, rows, tmp_path):
    a = write(tmp_path / "a.csv", rows)
    assert compare([a, write(tmp_path / "b.csv", rows[:3])]) == 1
    reseeded = [{**r, "seed": 2} for r in rows]
    assert compare([a, write(tmp_path / "c.csv", reseeded)]) == 1
