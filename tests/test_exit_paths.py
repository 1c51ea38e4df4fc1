"""Exit paths of the CLI, and a reply of the HTTP backend, that no other test reaches.

Exit codes: 1 for a run that completed with per-row errors, 2 for a usage
or configuration failure, with a message that says what is wrong.
"""

from __future__ import annotations

import json

import pytest

from absieve.corpus import CriteriaSet, Decision, ManifestEntry, ScreeningManifest, ScreeningRecord
from absieve.llm import FatalBackendError, HttpBackend
from absieve.runner import RunConfig, run_screening
from conftest import read_csv_rows, write_mock_script
from test_cli import invoke, make_workspace
from test_llm import http_server, request_for  # noqa: F401  (http_server is a fixture)


def screened_workspace(tmp_path):
    """A screened workspace: humans say I,I,E,E and the model I,E,I,E, so rows 1 and 2 disagree."""
    config = make_workspace(tmp_path)
    assert invoke(config, "screen").exit_code == 0
    return config


class TestAnnotationRowErrors:
    @pytest.mark.parametrize(
        "command, column, annotated",
        [("explain", "explanation", [0, 2, 3]), ("reflect", "reflection", [2])],
    )
    def test_row_whose_calls_keep_failing_exits_one(self, tmp_path, command, column, annotated):
        config = screened_workspace(tmp_path)
        # Row 1 is eligible in both modes; every attempt at it fails.
        failing = write_mock_script(
            tmp_path / "failing.json", {}, f"{command} text", {"IVM/1": {"status": 503, "count": 100}}
        )
        result = invoke(config, command, "--dataset", "IVM", "--mock-script", str(failing))
        assert result.exit_code == 1, result.output
        assert f"IVM: {len(annotated)} annotated, 0 skipped, 1 errors ({command})" in result.output
        rows = read_csv_rows(tmp_path / "out" / "IVM_results.csv")
        assert [i for i, row in enumerate(rows) if row[column]] == annotated
        assert {row[column] for row in rows} == {"", f"{command} text"}


class TestRowsFlag:
    def test_row_that_is_not_an_integer_exits_two(self, tmp_path):
        config = screened_workspace(tmp_path)
        results = tmp_path / "out" / "IVM_results.csv"
        screened = results.read_bytes()
        result = invoke(config, "explain", "--dataset", "IVM", "--rows", "1,x")
        assert result.exit_code == 2
        assert "--rows must be a comma-separated list of integers: '1,x'" in result.output
        assert results.read_bytes() == screened

    def test_rows_that_are_all_ineligible_exit_two(self, tmp_path):
        config = screened_workspace(tmp_path)
        # Rows 0 and 3 agree with their human decisions, so reflect has nothing to ask.
        result = invoke(config, "reflect", "--dataset", "IVM", "--rows", "0,3")
        assert result.exit_code == 2
        assert "no eligible rows for mode 'reflect' in --rows selection" in result.output


    @pytest.mark.parametrize(
        "command, column, rows, annotated, skipped",
        [("explain", "explanation", "0,2,3", [0, 2], 1), ("reflect", "reflection", "0,1,2,3", [1, 2], 2)],
    )
    def test_ineligible_rows_in_the_selection_are_skipped(self, tmp_path, command, column, rows, annotated, skipped):
        config = screened_workspace(tmp_path)
        results = tmp_path / "out" / "IVM_results.csv"
        # Row 3 as a screen leaves a reply it could not parse: neither command may ask about it.
        screened = results.read_bytes()
        results.write_bytes(screened.replace(b"t3,a3,excluded,excluded,", b"t3,a3,excluded,unparseable,"))
        before = read_csv_rows(results)
        script = write_mock_script(tmp_path / "annotate.json", {}, f"{command} text")
        result = invoke(config, command, "--dataset", "IVM", "--rows", rows, "--mock-script", str(script))
        assert result.exit_code == 0, result.output
        assert f"IVM: {len(annotated)} annotated, {skipped} skipped, 0 errors ({command})" in result.output
        after = read_csv_rows(results)
        assert [i for i, row in enumerate(after) if row[column]] == annotated
        assert after == [{**row, column: f"{command} text"} if i in annotated else row for i, row in enumerate(before)]


class TestConfigAndInputs:
    def test_config_without_output_dir_exits_two(self, tmp_path):
        config = make_workspace(tmp_path)
        config.write_text("".join(
            line for line in config.read_text().splitlines(keepends=True) if not line.startswith("output_dir")
        ))
        result = invoke(config, "screen")
        assert result.exit_code == 2
        assert "config field paths.output_dir is required" in result.output

    def test_key_before_any_section_header_exits_two(self, tmp_path):
        config = make_workspace(tmp_path)
        config.write_text("model = early\n" + config.read_text())
        result = invoke(config, "screen")
        assert result.exit_code == 2
        assert f"config file {config}: File contains no section headers" in result.output
        assert not (tmp_path / "out").exists()

    def test_manifest_dataset_without_a_data_file_exits_two(self, tmp_path):
        config = make_workspace(tmp_path)
        data_file = tmp_path / "data" / "IVM.csv"
        data_file.unlink()
        result = invoke(config, "screen")
        assert result.exit_code == 2
        assert f"dataset file not found: {data_file}" in result.output
        assert not (tmp_path / "out" / "run_log.jsonl").exists()


NULL_CONTENT = {"choices": [{"message": {"role": "assistant", "content": None}}]}


def test_null_content_raises_fatal(http_server, monkeypatch):  # noqa: F811
    url, handler = http_server
    monkeypatch.setenv("ABSIEVE_API_KEY", "k")
    handler.responses.append((200, NULL_CONTENT))
    with pytest.raises(FatalBackendError, match="response content is not a string"):
        HttpBackend(url).complete(request_for())


def test_null_content_fails_its_row_without_a_retry(http_server, monkeypatch, tmp_path):  # noqa: F811
    url, handler = http_server
    monkeypatch.setenv("ABSIEVE_API_KEY", "k")
    handler.responses.append((200, NULL_CONTENT))
    manifest = ScreeningManifest((ManifestEntry("D", CriteriaSet("inc", "exc")),))
    records = [ScreeningRecord(row_index=0, title="t0", abstract="a0")]
    config = RunConfig(requests_per_minute=10**6, max_retries=2, backoff_base_s=0.0)
    run_log = tmp_path / "run_log.jsonl"
    report = run_screening(manifest, [("D", records)], HttpBackend(url), config, tmp_path, run_log_path=run_log)
    assert report.error_count == 1
    assert records[0].model_decision is Decision.ERROR
    assert len(handler.seen) == 1
    assert [json.loads(line)["outcome"] for line in run_log.read_text().splitlines()] == ["fatal_error"]
    assert [row["decision"] for row in read_csv_rows(tmp_path / "D_results.csv")] == ["error"]
