"""Every output file is written whole by ``corpus.write_files``, and a failed write exits 2.

The writer streams each file to a temporary file and renames it over the
target once all are written, so a failure at any point leaves the old file
as it was and no temporary file behind. In the CLI, an output path that cannot be written (here, a directory
in its place) is a usage failure that names the file, not a traceback.
"""

from __future__ import annotations

import os
import re

import pytest

from absieve.corpus import IoFailure, write_files
from test_cli import invoke, make_workspace


def leftover_temps(directory) -> list:
    return sorted(p.name for p in directory.iterdir() if p.name.endswith(".tmp"))


class TestWriteFile:
    def test_writes_the_lines_as_given(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_bytes(b"old bytes\n")
        write_files({target: iter(["a,b\r\n", "c\n", "{}"])})
        assert target.read_bytes() == b"a,b\r\nc\n{}"
        assert leftover_temps(tmp_path) == []

    def test_failed_rename_keeps_the_old_file_and_removes_the_temp(self, tmp_path, monkeypatch):
        target = tmp_path / "metrics.json"
        target.write_bytes(b"old bytes\n")

        def failing_replace(src, dst):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(IoFailure, match=re.escape(f"cannot write {target}: ") + ".*Permission denied"):
            write_files({target: ["new bytes\n"]})
        assert target.read_bytes() == b"old bytes\n"
        assert leftover_temps(tmp_path) == []

    def test_interrupt_from_the_lines_propagates_and_keeps_the_old_file(self, tmp_path):
        target = tmp_path / "IVM_results.csv"
        target.write_bytes(b"old bytes\r\n")

        def interrupted():
            yield "title,abstract\r\n"
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            write_files({target: interrupted()})
        assert target.read_bytes() == b"old bytes\r\n"
        assert leftover_temps(tmp_path) == []

    def test_missing_directory_is_an_io_failure(self, tmp_path):
        target = tmp_path / "absent" / "estimate.json"
        with pytest.raises(IoFailure, match=re.escape(f"cannot write {target}: ")):
            write_files({target: ["{}\n"]})

    def test_a_directory_in_one_place_changes_no_file(self, tmp_path):
        first, blocked = tmp_path / "IVM_confusion.csv", tmp_path / "metrics.json"
        first.write_bytes(b"old bytes\n")
        blocked.mkdir()
        with pytest.raises(IoFailure, match=re.escape(f"cannot write {blocked}: it is a directory")):
            write_files({first: ["new bytes\n"], blocked: ["{}\n"]})
        assert first.read_bytes() == b"old bytes\n"
        assert blocked.is_dir()
        assert leftover_temps(tmp_path) == []


def assert_exit_two_naming(result, path) -> None:
    assert result.exit_code == 2, result.output
    assert f"cannot write {path}: " in result.output
    assert "Traceback" not in result.output
    assert leftover_temps(path.parent) == []


class TestUnwritableOutputExitsTwo:
    def test_screen_keeps_its_results_when_the_report_cannot_be_written(self, tmp_path):
        config = make_workspace(tmp_path)
        out = tmp_path / "out"
        assert invoke(config, "screen").exit_code == 0
        screened = (out / "IVM_results.csv").read_bytes()
        (out / "run_report.json").unlink()
        (out / "run_report.json").mkdir()
        assert_exit_two_naming(invoke(config, "screen"), out / "run_report.json")
        assert (out / "IVM_results.csv").read_bytes() == screened
        assert not (out / "IVM_results.journal.jsonl").exists()

    def test_evaluate(self, tmp_path):
        config = make_workspace(tmp_path)
        out = tmp_path / "out"
        assert invoke(config, "screen").exit_code == 0
        (out / "metrics.json").mkdir()
        assert_exit_two_naming(invoke(config, "evaluate", "--all"), out / "metrics.json")
        assert not (out / "metrics_table.csv").exists()

    def test_estimate_cost(self, tmp_path):
        config = make_workspace(tmp_path)
        out = tmp_path / "out"
        (out / "estimate.json").mkdir(parents=True)
        assert_exit_two_naming(invoke(config, "estimate-cost"), out / "estimate.json")

    def test_evaluate_replaces_its_files_as_one_set(self, tmp_path):
        config = make_workspace(tmp_path)
        out = tmp_path / "out"
        assert invoke(config, "screen").exit_code == 0
        assert invoke(config, "evaluate").exit_code == 0
        # Row 1's decision flips to included, so every file evaluate writes would change.
        results = out / "IVM_results.csv"
        results.write_bytes(results.read_bytes().replace(b",excluded,", b",included,", 1))
        (out / "metrics.json").unlink()
        (out / "metrics.json").mkdir()
        earlier = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
        assert_exit_two_naming(invoke(config, "evaluate", "--all"), out / "metrics.json")
        assert {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()} == earlier
