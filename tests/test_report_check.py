"""`screen`, `explain` and `reflect` find out that an output file cannot be written before they call the model.

The report is written after the last call, so a failure found only then
would come after every row was billed. A directory in the place of a
results CSV, a journal or the run log is found before any file is removed,
too, and so is a results CSV that would replace a manifest dataset's data
file (possible when ``paths.output_dir`` is ``paths.data_dir``). `evaluate`
finds a confusion CSV or metrics table that would replace a data file
before it reads any results file.
"""

from __future__ import annotations

import pytest

from conftest import output_files
from test_cli import DEFAULT_ROWS, invoke, make_workspace


def test_directory_at_the_report_path_exits_before_any_call(tmp_path, backend_calls):
    config = make_workspace(tmp_path)
    out = tmp_path / "out"
    assert invoke(config, "screen").exit_code == 0
    logged = (out / "run_log.jsonl").read_bytes()
    screened = (out / "IVM_results.csv").read_bytes()
    (out / "run_report.json").unlink()
    (out / "run_report.json").mkdir()
    backend_calls.clear()

    result = invoke(config, "screen")
    assert result.exit_code == 2, result.output
    assert f"cannot write {out / 'run_report.json'}: " in result.output
    assert backend_calls == []
    assert (out / "run_log.jsonl").read_bytes() == logged
    assert (out / "IVM_results.csv").read_bytes() == screened


@pytest.mark.parametrize("taken", ["IVM_results.csv", "IVM_results.journal.jsonl"])
def test_directory_at_a_results_path_exits_before_any_call_or_removal(tmp_path, backend_calls, taken):
    config = make_workspace(tmp_path, datasets={"IVM": DEFAULT_ROWS, "OTHER": DEFAULT_ROWS[:2]})
    out = tmp_path / "out"
    assert invoke(config, "screen").exit_code == 0
    (out / taken).unlink(missing_ok=True)
    (out / taken).mkdir()
    kept = output_files(out)
    assert {"run_report.json", "run_log.jsonl", "OTHER_results.csv"} <= set(kept)
    backend_calls.clear()

    result = invoke(config, "screen")
    assert result.exit_code == 2, result.output
    assert f"cannot write {out / taken}: it is a directory" in result.output
    assert "Traceback" not in result.output
    assert backend_calls == []
    assert output_files(out) == kept


@pytest.mark.parametrize("command", ["screen", "explain", "reflect"])
def test_directory_at_the_run_log_exits_before_any_call_or_removal(tmp_path, backend_calls, command):
    config = make_workspace(tmp_path)
    out = tmp_path / "out"
    assert invoke(config, "screen").exit_code == 0
    (out / "run_log.jsonl").unlink()
    (out / "run_log.jsonl").mkdir()
    kept = output_files(out)
    assert {"run_report.json", "IVM_results.csv"} <= set(kept)
    backend_calls.clear()

    result = invoke(config, command, "--dataset", "IVM")
    assert result.exit_code == 2, result.output
    assert f"cannot write {out / 'run_log.jsonl'}: it is a directory" in result.output
    assert "Traceback" not in result.output
    assert backend_calls == []
    assert output_files(out) == kept


@pytest.mark.parametrize("spelling", ["{data}", "{data}/../data"])
@pytest.mark.parametrize("command", ["screen", "explain", "reflect"])
def test_results_that_would_replace_a_data_file_exit_before_any_read_or_call(
    tmp_path, backend_calls, command, spelling
):
    # With the output directory as the data directory, A's results CSV is A_results' data file. Its
    # rows carry decisions that disagree with the human ones, so each command has rows to ask about.
    judged = [dict(row, decision="excluded" if row["human_decision"] == "included" else "included") for row in DEFAULT_ROWS]
    config = make_workspace(tmp_path, datasets={"A": DEFAULT_ROWS[:2], "A_results": judged[:3]})
    data = tmp_path / "data"
    kept = output_files(data)

    result = invoke(config, command, "--dataset", "A", "--output-dir", spelling.format(data=data))
    assert result.exit_code == 2, result.output
    assert (
        f"cannot write {spelling.format(data=data)}/A_results.csv: the results of dataset 'A' would replace "
        "the data file of dataset 'A_results'"
    ) in result.output
    assert "Traceback" not in result.output
    assert backend_calls == []
    assert output_files(data) == kept
    assert not (data / "run_log.jsonl").exists()


@pytest.mark.parametrize(
    "args,taken,holds",
    [
        (["--all"], "A_confusion.csv", "the confusion matrix of dataset 'A'"),
        (["--dataset", "metrics_table"], "metrics_table.csv", "the metrics table"),
    ],
    ids=["all", "dataset"],
)
def test_evaluate_files_that_would_replace_a_data_file_exit_before_any_read(
    tmp_path, corpus_files, args, taken, holds
):
    # With the output directory as the data directory, A's confusion CSV is A_confusion's data
    # file and the metrics table is metrics_table's. Every dataset has been screened there.
    datasets = {"A": DEFAULT_ROWS, "A_confusion": DEFAULT_ROWS[:2], "metrics_table": DEFAULT_ROWS[:3]}
    config = make_workspace(tmp_path, datasets=datasets)
    data = tmp_path / "data"
    assert invoke(config, "screen", "--output-dir", str(data)).exit_code == 0
    kept = output_files(data)
    assert {"A.csv", "A_confusion.csv", "metrics_table.csv", "A_results.csv"} <= set(kept)
    corpus_files.clear()

    result = invoke(config, "evaluate", *args, "--output-dir", str(data))
    assert result.exit_code == 2, result.output
    other = taken.removesuffix(".csv")
    assert f"cannot write {data / taken}: {holds} would replace the data file of dataset {other!r}" in result.output
    assert "Traceback" not in result.output
    assert not [fh.name for fh in corpus_files if fh.name.endswith("_results.csv")]
    assert output_files(data) == kept
    assert not (data / "metrics.json").exists()
