"""Failures on input from outside the program, and public API misuse, that no other test reaches.

Each names what is wrong: a manifest column or cell, a journal path or a
dataset file that cannot be read, a metric with nothing to measure, a mode or a base URL that
cannot be used. An ``evaluate`` that fails on any dataset writes no file.
"""

from __future__ import annotations

import errno
import re
from pathlib import Path

import pytest

import absieve.corpus
from absieve.corpus import (
    MANIFEST_INCLUSION_COLUMN,
    MANIFEST_NAME_COLUMN,
    CriteriaSet,
    Decision,
    EmptyField,
    EmptyManifest,
    IoFailure,
    ManifestEntry,
    MissingColumn,
    ScreeningManifest,
    ScreeningRecord,
    load_dataset,
    load_manifest,
)
from absieve.llm import is_http_url
from absieve.metrics import ConfusionMatrix, EmptyMatrix, ZeroSupport, classification_report, sensitivity
from absieve.prompts import PromptKind
from absieve.runner import eligible_for
from test_cli import DEFAULT_ROWS, invoke, make_workspace


class TestManifest:
    @pytest.mark.parametrize(
        "header, missing",
        [
            ("Name,Inclusion Criteria,Exclusion Criteria", MANIFEST_NAME_COLUMN),
            ("Dataset Name,Inclusion,Exclusion Criteria", MANIFEST_INCLUSION_COLUMN),
        ],
    )
    def test_missing_column_is_named(self, tmp_path, header, missing):
        path = tmp_path / "manifest.csv"
        path.write_text(f"{header}\nIVM,trials,reviews\n", encoding="utf-8")
        with pytest.raises(MissingColumn, match=repr(missing)) as raised:
            load_manifest(path)
        assert raised.value.column == missing

    @pytest.mark.parametrize(
        "row, message",
        [(",trials,reviews", "row 1: empty dataset name"), ("IVM,trials, ", "row 1 (IVM): empty exclusion criteria")],
    )
    def test_empty_cell_is_an_empty_field(self, tmp_path, row, message):
        path = tmp_path / "manifest.csv"
        path.write_text(f"Dataset Name,Inclusion Criteria,Exclusion Criteria\n{row}\n", encoding="utf-8")
        with pytest.raises(EmptyField, match=re.escape(message)):
            load_manifest(path)

    def test_header_of_empty_cells_is_no_header_row(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text(",,\nIVM,trials,reviews\n", encoding="utf-8")
        with pytest.raises(EmptyManifest, match="no header row"):
            load_manifest(path)


def test_resume_with_an_unreadable_journal_exits_two_and_removes_nothing(tmp_path):
    config = make_workspace(tmp_path)
    out = tmp_path / "out"
    assert invoke(config, "screen").exit_code == 0
    screened = (out / "IVM_results.csv").read_bytes()
    journal = out / "IVM_results.journal.jsonl"
    journal.mkdir()
    result = invoke(config, "screen", "--resume")
    assert result.exit_code == 2, result.output
    assert f"cannot read {journal}: " in result.output
    assert "Traceback" not in result.output
    assert (out / "IVM_results.csv").read_bytes() == screened
    assert journal.is_dir()


class _FailsOnSecondLine:
    """An open text file whose second line cannot be read, as from a disk that fails part way."""

    def __init__(self, fh):
        self._fh, self._lines = fh, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._fh.close()

    def __iter__(self):
        return self

    def __next__(self):
        self._lines += 1
        if self._lines == 2:
            raise OSError(errno.EIO, "Input/output error")
        return next(self._fh)


def test_a_dataset_read_that_fails_part_way_exits_two(tmp_path, monkeypatch):
    config = make_workspace(tmp_path)
    dataset = tmp_path / "data" / "IVM.csv"

    def opening(path, *args, **kwargs):
        fh = open(path, *args, **kwargs)
        return _FailsOnSecondLine(fh) if Path(path) == dataset else fh

    monkeypatch.setattr(absieve.corpus, "open", opening, raising=False)
    manifest = ScreeningManifest((ManifestEntry("IVM", CriteriaSet("i", "e")),))
    with pytest.raises(IoFailure, match=re.escape(f"cannot read {dataset}: ")):
        load_dataset(dataset, "IVM", manifest)
    result = invoke(config, "screen")
    assert result.exit_code == 2, result.output
    assert f"cannot read {dataset}: " in result.output
    assert "Traceback" not in result.output


def test_evaluate_that_fails_on_a_later_dataset_writes_no_file(tmp_path):
    # B has no human decisions, so none of its rows can be compared.
    unjudged = [{"title": row["title"], "abstract": row["abstract"]} for row in DEFAULT_ROWS]
    script = {"A/0": "included", "A/1": "excluded", "A/2": "included", "A/3": "excluded", "default": "included"}
    config = make_workspace(tmp_path, {"A": DEFAULT_ROWS, "B": unjudged}, script)
    out = tmp_path / "out"
    assert invoke(config, "screen").exit_code == 0
    before = sorted(p.name for p in out.iterdir())
    result = invoke(config, "evaluate", "--all")
    assert result.exit_code == 2, result.output
    assert "B: no comparable rows between columns 'human_decision' and 'decision'" in result.output
    assert sorted(p.name for p in out.iterdir()) == before


class TestMetrics:
    def test_sensitivity_without_truth_excluded_rows_is_zero_support(self):
        with pytest.raises(ZeroSupport, match="no rows with truth excluded"):
            sensitivity(ConfusionMatrix(tp=3, fn=1, fp=0, tn=0), Decision.EXCLUDED)

    def test_classification_report_of_an_all_dropped_matrix_is_empty(self):
        with pytest.raises(EmptyMatrix):
            classification_report(ConfusionMatrix(tp=0, fn=0, fp=0, tn=0, dropped=5))


def test_decision_mode_is_not_an_annotation_mode():
    record = ScreeningRecord(0, "t", "a", Decision.INCLUDED, Decision.EXCLUDED)
    with pytest.raises(ValueError, match="mode must be EXPLAIN or REFLECT"):
        eligible_for(PromptKind.DECISION, record)


@pytest.mark.parametrize(
    "url, usable",
    [("http://h:0", False), ("http://h:65536", False), ("http://[::1", False), ("http://h:8080", True)],
)
def test_http_url_needs_a_usable_port_and_host(url, usable):
    assert is_http_url(url) is usable
