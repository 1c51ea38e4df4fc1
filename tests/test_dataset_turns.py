"""`screen` holds one dataset's records at a time, and `estimate-cost` holds none.

Bad input still exits 2 before any file is removed and before any call: the
first dataset is loaded and kept, and every later one is read and checked
(its journal too, under ``--resume``) without keeping its records, then read
again at its turn. These tests pin both halves: the errors of a bad later
dataset, and the records alive at each dataset's turn, counted among the
objects the garbage collector tracks rather than by measuring memory.
"""

from __future__ import annotations

import gc
from collections import Counter
from pathlib import Path

import pytest

from absieve import runner
from absieve.corpus import ScreeningRecord
from conftest import output_files
from test_cli import DEFAULT_ROWS, invoke, make_workspace

THREE = {"A": DEFAULT_ROWS[:2], "B": DEFAULT_ROWS, "C": DEFAULT_ROWS[:3]}


def rows_of(name: str, n: int) -> list[dict]:
    return [{"title": f"{name} {i}", "abstract": f"abstract {i}"} for i in range(n)]


def live_records() -> int:
    return sum(type(o) is ScreeningRecord for o in gc.get_objects())


@pytest.mark.parametrize(
    "bad, message",
    [
        (b"name,abstract\r\nt0,a0\r\n", "required column 'title' not found in {path}"),
        (b"title,abstract\r\nt0,a0\r\ncaf\xe9,x\r\n", "{path} line 3: not UTF-8 text"),
    ],
    ids=["no-title-column", "not-utf8"],
)
def test_a_bad_last_dataset_exits_two_before_any_removal_or_call(tmp_path, backend_calls, bad, message):
    config = make_workspace(tmp_path, THREE)
    out = tmp_path / "out"
    assert invoke(config, "screen").exit_code == 0
    kept = output_files(out)
    assert {"run_report.json", "A_results.csv", "C_results.csv"} <= set(kept)
    path = tmp_path / "data" / "C.csv"
    path.write_bytes(bad)
    backend_calls.clear()

    result = invoke(config, "screen")
    assert result.exit_code == 2, result.output
    assert message.format(path=path) in result.output
    assert "Traceback" not in result.output
    assert backend_calls == []
    assert output_files(out) == kept


def test_a_resumed_later_journal_naming_a_missing_row_exits_two_before_any_call(tmp_path, backend_calls):
    config = make_workspace(tmp_path, THREE)
    out = tmp_path / "out"
    assert invoke(config, "screen").exit_code == 0
    # Without its results CSV, A is screened afresh on a resume: the first thing the run would call.
    (out / "A_results.csv").unlink()
    journal = out / "B_results.journal.jsonl"
    journal.write_text('{"row": 99, "decision": "included"}\n', encoding="ascii")
    kept = output_files(out)
    backend_calls.clear()

    result = invoke(config, "screen", "--resume")
    assert result.exit_code == 2, result.output
    assert f"{journal} line 1: row 99 is not in the dataset" in result.output
    assert backend_calls == []
    assert output_files(out) == kept


def test_estimate_cost_reports_the_first_bad_dataset_and_writes_nothing(tmp_path):
    config = make_workspace(tmp_path, THREE)
    path = tmp_path / "data" / "B.csv"
    path.write_bytes(b"name,abstract\r\nt0,a0\r\n")
    (tmp_path / "data" / "C.csv").unlink()
    result = invoke(config, "estimate-cost")
    assert result.exit_code == 2, result.output
    assert f"required column 'title' not found in {path}" in result.output
    assert not (tmp_path / "out" / "estimate.json").exists()


def test_each_later_dataset_is_read_twice_and_the_first_once(tmp_path, corpus_files):
    config = make_workspace(tmp_path, THREE)
    assert invoke(config, "screen").exit_code == 0
    assert Counter(Path(fh.name).name for fh in corpus_files) == {"manifest.csv": 1, "A.csv": 1, "B.csv": 2, "C.csv": 2}
    corpus_files.clear()
    assert invoke(config, "screen", "--dataset", "B").exit_code == 0
    assert Counter(Path(fh.name).name for fh in corpus_files) == {"manifest.csv": 1, "B.csv": 1}


def test_screen_holds_only_the_dataset_whose_turn_it_is(tmp_path, monkeypatch):
    sizes = {"A": 3, "B": 12, "C": 5}
    config = make_workspace(tmp_path, {name: rows_of(name, n) for name, n in sizes.items()})
    dispatch = runner._dispatch
    turns = []

    def counting_dispatch(run_config, records, fn):
        turns.append((len(records), live_records() - base))
        return dispatch(run_config, records, fn)

    monkeypatch.setattr(runner, "_dispatch", counting_dispatch)
    gc.collect()
    base = live_records()
    assert invoke(config, "screen").exit_code == 0
    assert [rows for rows, _ in turns] == list(sizes.values())
    assert all(alive <= rows for rows, alive in turns), turns


def test_estimate_cost_holds_at_most_two_records(tmp_path, monkeypatch):
    sizes = {"A": 2, "B": 6, "C": 3}
    config = make_workspace(tmp_path, {name: rows_of(name, n) for name, n in sizes.items()})
    build = runner.build_decision_prompt
    alive = []

    def counting_build(record, criteria):
        alive.append(live_records() - base)
        return build(record, criteria)

    monkeypatch.setattr(runner, "build_decision_prompt", counting_build)
    gc.collect()
    base = live_records()
    assert invoke(config, "estimate-cost").exit_code == 0
    assert len(alive) == sum(sizes.values())
    assert max(alive) <= 2, alive
