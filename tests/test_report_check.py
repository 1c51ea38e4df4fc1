"""`screen` finds out that `run_report.json` cannot be written before it calls the model.

The report is written after the last call, so a failure found only then
would come after every row was billed.
"""

from __future__ import annotations

from absieve.llm import MockBackend
from test_cli import invoke, make_workspace


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
