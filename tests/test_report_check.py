"""`screen` finds out that `run_report.json`, a results CSV or a journal cannot be written before it calls the model.

The report is written after the last call, so a failure found only then
would come after every row was billed. A directory in a results CSV's or a
journal's place is found before any file is removed, too.
"""

from __future__ import annotations

import pytest

from absieve.llm import MockBackend
from test_cli import DEFAULT_ROWS, invoke, make_workspace


def test_directory_at_the_report_path_exits_before_any_call(tmp_path, monkeypatch):
    config = make_workspace(tmp_path)
    out = tmp_path / "out"
    assert invoke(config, "screen").exit_code == 0
    logged = (out / "run_log.jsonl").read_bytes()
    screened = (out / "IVM_results.csv").read_bytes()
    (out / "run_report.json").unlink()
    (out / "run_report.json").mkdir()

    calls = []
    complete = MockBackend.complete

    def counting_complete(self, request):
        calls.append(request)
        return complete(self, request)

    monkeypatch.setattr(MockBackend, "complete", counting_complete)
    result = invoke(config, "screen")
    assert result.exit_code == 2, result.output
    assert f"cannot write {out / 'run_report.json'}: " in result.output
    assert calls == []
    assert (out / "run_log.jsonl").read_bytes() == logged
    assert (out / "IVM_results.csv").read_bytes() == screened


@pytest.mark.parametrize("taken", ["IVM_results.csv", "IVM_results.journal.jsonl"])
def test_directory_at_a_results_path_exits_before_any_call_or_removal(tmp_path, monkeypatch, taken):
    config = make_workspace(tmp_path, datasets={"IVM": DEFAULT_ROWS, "OTHER": DEFAULT_ROWS[:2]})
    out = tmp_path / "out"
    assert invoke(config, "screen").exit_code == 0
    (out / taken).unlink(missing_ok=True)
    (out / taken).mkdir()
    kept = {path.name: path.read_bytes() for path in out.iterdir() if path.is_file()}
    assert {"run_report.json", "run_log.jsonl", "OTHER_results.csv"} <= set(kept)

    calls = []
    complete = MockBackend.complete

    def counting_complete(self, request):
        calls.append(request)
        return complete(self, request)

    monkeypatch.setattr(MockBackend, "complete", counting_complete)
    result = invoke(config, "screen")
    assert result.exit_code == 2, result.output
    assert f"cannot write {out / taken}: it is a directory" in result.output
    assert "Traceback" not in result.output
    assert calls == []
    assert {path.name: path.read_bytes() for path in out.iterdir() if path.is_file()} == kept
