from __future__ import annotations

import configparser
import csv
import io
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from xml.etree import ElementTree

import pytest
from click.testing import CliRunner
from hypothesis import given
from hypothesis import strategies as st

import absieve
from absieve import cli
from absieve.cli import main
from absieve.corpus import (
    CriteriaSet,
    Decision,
    ManifestEntry,
    ScreeningManifest,
    ScreeningRecord,
    clean_text,
    fold_journal,
    load_dataset,
)
from absieve.llm import MockBackend
from absieve.prompts import PromptKind
from absieve.runner import RunConfig, eligible_for
from conftest import (
    read_csv_rows,
    reported_unraisable,
    traced_peak,
    write_dataset,
    write_large_results,
    write_manifest,
    write_mock_script,
)

runner = CliRunner()

# Human decisions I,I,E,E with scripted model replies I,E,I,E: rows 1 and 2 disagree.
DEFAULT_ROWS = [
    {"title": "t0", "abstract": "a0", "human_decision": "included"},
    {"title": "t1", "abstract": "a1", "human_decision": "included"},
    {"title": "t2", "abstract": "a2", "human_decision": "excluded"},
    {"title": "t3", "abstract": "a3", "human_decision": "excluded"},
]
DEFAULT_SCRIPT = {"IVM/0": "included", "IVM/1": "excluded", "IVM/2": "included", "IVM/3": "excluded"}


def make_workspace(
    tmp_path: Path,
    datasets: dict[str, list[dict]] | None = None,
    script: dict | None = None,
    runner_options: dict | None = None,
) -> Path:
    datasets = datasets if datasets is not None else {"IVM": DEFAULT_ROWS}
    script = script if script is not None else dict(DEFAULT_SCRIPT)
    data_dir = tmp_path / "data"
    data_dir.mkdir(exist_ok=True)
    manifest = write_manifest(
        tmp_path / "manifest.csv",
        [[name, f"include {name}", f"exclude {name}"] for name in datasets],
    )
    for name, rows in datasets.items():
        write_dataset(data_dir / f"{name}.csv", rows)
    default = script.pop("default", "excluded")
    failures = script.pop("failures", None)
    script_path = write_mock_script(tmp_path / "mock_script.json", script, default, failures)

    options = {"requests_per_minute": 1_000_000, "backoff_base_s": 0.001, "max_retries": 2}
    options.update(runner_options or {})
    runner_section = "\n".join(f"{key} = {value}" for key, value in options.items())
    config = tmp_path / "absieve.ini"
    config.write_text(
        f"""[backend]
mock_script = {script_path}
model = test-model

[runner]
{runner_section}

[paths]
manifest = {manifest}
data_dir = {data_dir}
output_dir = {tmp_path / "out"}
"""
    )
    return config


def invoke(config: Path, *args: str):
    return runner.invoke(main, [*args, "--config", str(config)], catch_exceptions=False)


class TestScreen:
    def test_writes_results_report_and_log(self, tmp_path):
        config = make_workspace(tmp_path)
        result = invoke(config, "screen")
        assert result.exit_code == 0, result.output
        rows = read_csv_rows(tmp_path / "out" / "IVM_results.csv")
        assert [r["decision"] for r in rows] == ["included", "excluded", "included", "excluded"]
        report = json.loads((tmp_path / "out" / "run_report.json").read_text())
        assert report["datasets"]["IVM"]["rows_screened"] == 4
        assert (tmp_path / "out" / "run_log.jsonl").exists()
        assert "IVM: 4 rows" in result.output

    def test_dataset_flag_limits_scope(self, tmp_path):
        config = make_workspace(
            tmp_path,
            datasets={"IVM": DEFAULT_ROWS, "OTHER": [{"title": "x", "abstract": "y"}]},
        )
        result = invoke(config, "screen", "--dataset", "IVM")
        assert result.exit_code == 0
        assert (tmp_path / "out" / "IVM_results.csv").exists()
        assert not (tmp_path / "out" / "OTHER_results.csv").exists()

    def test_resume_dispatches_only_undecided_rows(self, tmp_path):
        config = make_workspace(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        # Row 0 already decided as excluded; the script would say included.
        rows = [dict(r) for r in DEFAULT_ROWS]
        rows[0]["decision"] = "excluded"
        write_dataset(out / "IVM_results.csv", rows)
        result = invoke(config, "screen", "--resume")
        assert result.exit_code == 0
        assert read_csv_rows(out / "IVM_results.csv")[0]["decision"] == "excluded"
        report = json.loads((out / "run_report.json").read_text())
        assert report["datasets"]["IVM"]["rows_skipped_resume"] == 1

    def test_without_resume_flag_starts_from_dataset_file(self, tmp_path):
        config = make_workspace(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        rows = [dict(r) for r in DEFAULT_ROWS]
        rows[0]["decision"] = "excluded"
        write_dataset(out / "IVM_results.csv", rows)
        result = invoke(config, "screen")
        assert result.exit_code == 0
        assert read_csv_rows(out / "IVM_results.csv")[0]["decision"] == "included"

    def test_row_errors_exit_one(self, tmp_path):
        script = dict(DEFAULT_SCRIPT)
        script["failures"] = {"IVM/1": {"status": 500, "count": 99}}
        config = make_workspace(tmp_path, script=script)
        result = invoke(config, "screen")
        assert result.exit_code == 1
        report = json.loads((tmp_path / "out" / "run_report.json").read_text())
        assert report["datasets"]["IVM"]["error_count"] == 1

    def test_unknown_dataset_exits_two(self, tmp_path):
        config = make_workspace(tmp_path)
        result = invoke(config, "screen", "--dataset", "NOPE")
        assert result.exit_code == 2
        assert "NOPE" in result.output

    def test_flag_overrides_config_file(self, tmp_path):
        config = make_workspace(tmp_path)
        other_script = write_mock_script(
            tmp_path / "alt_script.json", {}, default="included"
        )
        result = invoke(config, "screen", "--mock-script", str(other_script))
        assert result.exit_code == 0
        rows = read_csv_rows(tmp_path / "out" / "IVM_results.csv")
        assert {r["decision"] for r in rows} == {"included"}


# Runs ``absieve.cli.main(argv[2:])`` with every mock completion slowed by argv[1] seconds.
SLOW_SCREEN_CHILD = """
import sys, time
from absieve import cli, llm

complete = llm.MockBackend.complete

def slow_complete(self, request):
    time.sleep(float(sys.argv[1]))
    return complete(self, request)

llm.MockBackend.complete = slow_complete
cli.main(sys.argv[2:])
"""

KILL_ROWS = [{"title": f"t{i}", "abstract": f"a{i}"} for i in range(12)]
KILL_SCRIPT = {"IVM/3": "included", "IVM/7": "no idea", "IVM/10": "included", "OTHER/1": "included"}


def _journal_lines(path: Path) -> int:
    return path.read_bytes().count(b"\n") if path.exists() else 0


class TestJournal:
    def test_clean_run_leaves_no_journal(self, tmp_path):
        config = make_workspace(tmp_path)
        assert invoke(config, "screen").exit_code == 0
        assert not list((tmp_path / "out").glob("*.journal.jsonl"))

    def test_non_resume_screen_discards_stale_journal(self, tmp_path):
        config = make_workspace(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        (out / "IVM_results.journal.jsonl").write_text('{"row": 0, "decision": "excluded"}\n')
        assert invoke(config, "screen").exit_code == 0
        assert read_csv_rows(out / "IVM_results.csv")[0]["decision"] == "included"
        assert not (out / "IVM_results.journal.jsonl").exists()

    def test_non_resume_screen_journals_afresh(self, tmp_path, monkeypatch):
        # Every run appends to the journal it finds, so a stale one must be gone
        # before the first call, or a kill now would leave it for --resume to fold.
        config = make_workspace(tmp_path)
        journal = tmp_path / "out" / "IVM_results.journal.jsonl"
        journal.parent.mkdir()
        journal.write_text('{"row": 0, "decision": "excluded"}\n')
        seen = []
        complete = MockBackend.complete

        def watching(self, request):
            seen.append(journal.read_text())
            return complete(self, request)

        monkeypatch.setattr(MockBackend, "complete", watching)
        assert invoke(config, "screen", "--max-in-flight", "1").exit_code == 0
        assert seen[0] == ""

    def test_resume_folds_leftover_journal(self, tmp_path):
        config = make_workspace(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        write_dataset(out / "IVM_results.csv", DEFAULT_ROWS)
        # Row 0 was journaled as excluded; the script would now say included.
        (out / "IVM_results.journal.jsonl").write_text(
            '{"row": 0, "decision": "excluded"}\n{"row": 2, "decision": "error"}\n'
        )
        result = invoke(config, "screen", "--resume")
        assert result.exit_code == 0, result.output
        rows = read_csv_rows(out / "IVM_results.csv")
        assert [r["decision"] for r in rows] == ["excluded", "excluded", "error", "excluded"]
        report = json.loads((out / "run_report.json").read_text())
        assert report["datasets"]["IVM"]["rows_skipped_resume"] == 2
        assert len((out / "run_log.jsonl").read_text().splitlines()) == 2
        assert not (out / "IVM_results.journal.jsonl").exists()

    def test_resume_with_corrupt_journal_exits_two(self, tmp_path):
        config = make_workspace(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        write_dataset(out / "IVM_results.csv", DEFAULT_ROWS)
        (out / "IVM_results.journal.jsonl").write_text('{"row": 9, "decision": "excluded"}\n')
        result = invoke(config, "screen", "--resume")
        assert result.exit_code == 2
        assert "row 9" in result.output

    @pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs SIGKILL")
    @pytest.mark.parametrize("kill_after", [1, 5, 11])
    def test_sigkill_then_resume_matches_uninterrupted(self, tmp_path, kill_after):
        datasets = {"IVM": KILL_ROWS, "OTHER": KILL_ROWS[:4]}
        straight, killed = tmp_path / "straight", tmp_path / "killed"
        straight.mkdir()
        killed.mkdir()
        config = make_workspace(straight, datasets=datasets, script=dict(KILL_SCRIPT))
        assert invoke(config, "screen").exit_code == 0

        config = make_workspace(killed, datasets=datasets, script=dict(KILL_SCRIPT))
        journal = killed / "out" / "IVM_results.journal.jsonl"
        src = str(Path(absieve.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        child = subprocess.Popen(
            [sys.executable, "-c", SLOW_SCREEN_CHILD, "0.05", "screen", "--config", str(config)],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 60
            while _journal_lines(journal) < kill_after:
                assert child.poll() is None, "screen exited before it could be killed"
                assert time.monotonic() < deadline, "journal never reached the kill point"
                time.sleep(0.005)
            child.send_signal(signal.SIGKILL)
        finally:
            child.kill()
            child.wait()
        assert child.returncode == -signal.SIGKILL

        # Every journaled row survives the kill, although no CSV was written yet:
        # the journal extends the dataset file.
        assert not (killed / "out" / "IVM_results.csv").exists()
        manifest = ScreeningManifest(
            tuple(ManifestEntry(name, CriteriaSet("i", "e")) for name in datasets)
        )
        records = load_dataset(killed / "data" / "IVM.csv", "IVM", manifest)
        assert not any(r.model_decision for r in records)
        assert fold_journal(records, journal) >= kill_after
        assert not (killed / "out" / "OTHER_results.csv").exists()

        result = invoke(config, "screen", "--resume")
        assert result.exit_code == 0, result.output
        report = json.loads((killed / "out" / "run_report.json").read_text())
        assert report["datasets"]["IVM"]["rows_skipped_resume"] >= kill_after
        for name in datasets:
            assert (killed / "out" / f"{name}_results.csv").read_bytes() == (
                straight / "out" / f"{name}_results.csv"
            ).read_bytes()
        assert not list((killed / "out").glob("*.journal.jsonl"))

    @pytest.mark.skipif(os.name != "posix", reason="needs POSIX signals")
    @pytest.mark.parametrize("interrupt_after", [1, 5])
    def test_sigint_then_resume_matches_uninterrupted(self, tmp_path, interrupt_after):
        datasets = {"IVM": KILL_ROWS, "OTHER": KILL_ROWS[:4]}
        straight, interrupted = tmp_path / "straight", tmp_path / "interrupted"
        straight.mkdir()
        interrupted.mkdir()
        config = make_workspace(straight, datasets=datasets, script=dict(KILL_SCRIPT))
        assert invoke(config, "screen").exit_code == 0

        config = make_workspace(interrupted, datasets=datasets, script=dict(KILL_SCRIPT))
        out = interrupted / "out"
        src = str(Path(absieve.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        child = subprocess.Popen(
            [sys.executable, "-c", SLOW_SCREEN_CHILD, "0.05", "screen", "--config", str(config)],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 60
            while _journal_lines(out / "IVM_results.journal.jsonl") < interrupt_after:
                assert child.poll() is None, "screen exited before it could be interrupted"
                assert time.monotonic() < deadline, "journal never reached the interrupt point"
                time.sleep(0.005)
            # The coordinator is blocked waiting for a reply; SIGINT must still reach it.
            child.send_signal(signal.SIGINT)
            child.wait(timeout=30)
        finally:
            child.kill()
            child.wait()
        assert child.returncode == 1  # click's "Aborted!"

        # The interrupted run wrote every journaled row into the CSV and dropped the journal.
        decided = [row for row in read_csv_rows(out / "IVM_results.csv") if row["decision"]]
        assert len(decided) >= interrupt_after
        assert not list(out.glob("*.journal.jsonl"))

        result = invoke(config, "screen", "--resume")
        assert result.exit_code == 0, result.output
        for name in datasets:
            assert (out / f"{name}_results.csv").read_bytes() == (
                straight / "out" / f"{name}_results.csv"
            ).read_bytes()

    def _leftover_resume_workspace(self, tmp_path: Path, tail: str) -> tuple[Path, Path, bytes]:
        """A straight screened run, and a workspace holding a CSV with a leftover journal."""
        datasets = {"IVM": KILL_ROWS, "OTHER": KILL_ROWS[:4]}
        straight, killed = tmp_path / "straight", tmp_path / "killed"
        straight.mkdir()
        killed.mkdir()
        config = make_workspace(straight, datasets=datasets, script=dict(KILL_SCRIPT))
        assert invoke(config, "screen").exit_code == 0
        config = make_workspace(killed, datasets=datasets, script=dict(KILL_SCRIPT))
        out = killed / "out"
        out.mkdir()
        start = write_dataset(out / "IVM_results.csv", KILL_ROWS).read_bytes()
        # Rows 0 and 1 as the script decides them, left by a killed run; maybe a torn line after.
        (out / "IVM_results.journal.jsonl").write_text(
            '{"row": 0, "decision": "excluded"}\n{"row": 1, "decision": "excluded"}\n' + tail
        )
        return straight, config, start

    @pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs SIGKILL")
    @pytest.mark.parametrize("tail", ["", '{"row": 2, "deci'], ids=["whole", "torn"])
    @pytest.mark.parametrize("kill_after", [1, 5])
    def test_sigkill_of_a_resume_then_resume_matches_uninterrupted(self, tmp_path, kill_after, tail):
        straight, config, start = self._leftover_resume_workspace(tmp_path, tail)
        out = config.parent / "out"
        journal = out / "IVM_results.journal.jsonl"
        child = _slow_child(config, journal, 2 + kill_after, "screen", "--resume")
        try:
            child.send_signal(signal.SIGKILL)
        finally:
            child.kill()
            child.wait()
        assert child.returncode == -signal.SIGKILL

        # The killed resume appended to the journal under the CSV it read, without rewriting it;
        # a torn last line was cut first, so the journal reads back whole.
        assert (out / "IVM_results.csv").read_bytes() == start
        manifest = ScreeningManifest((ManifestEntry("IVM", CriteriaSet("i", "e")),))
        records = load_dataset(out / "IVM_results.csv", "IVM", manifest)
        assert fold_journal(records, journal) >= 2 + kill_after
        decided = {r.row_index for r in records if r.model_decision}
        killed_calls = [json.loads(line) for line in (out / "run_log.jsonl").read_text().splitlines()]
        assert not {c["row"] for c in killed_calls if c["dataset"] == "IVM"} & {0, 1}

        result = invoke(config, "screen", "--resume")
        assert result.exit_code == 0, result.output
        calls = [json.loads(line) for line in (out / "run_log.jsonl").read_text().splitlines()]
        # No row decided before the rerun is asked again.
        rerun_rows = {c["row"] for c in calls[len(killed_calls):] if c["dataset"] == "IVM"}
        assert not rerun_rows & decided
        for name in ("IVM", "OTHER"):
            assert (out / f"{name}_results.csv").read_bytes() == (
                straight / "out" / f"{name}_results.csv"
            ).read_bytes()
        assert not list(out.glob("*.journal.jsonl"))

    @pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs SIGKILL")
    def test_killed_fresh_screen_leaves_no_stale_dataset_behind(self, tmp_path):
        datasets = {"IVM": KILL_ROWS, "OTHER": KILL_ROWS[:4]}
        straight, killed = tmp_path / "straight", tmp_path / "killed"
        straight.mkdir()
        killed.mkdir()
        config = make_workspace(straight, datasets=datasets, script=dict(KILL_SCRIPT))
        assert invoke(config, "screen").exit_code == 0

        config = make_workspace(killed, datasets=datasets, script=dict(KILL_SCRIPT))
        out = killed / "out"
        older = write_mock_script(killed / "older.json", {}, "included")
        assert invoke(config, "screen", "--mock-script", str(older)).exit_code == 0
        assert (out / "OTHER_results.csv").exists()
        child = _slow_child(config, out / "IVM_results.journal.jsonl", 1, "screen")
        try:
            child.send_signal(signal.SIGKILL)
        finally:
            child.kill()
            child.wait()
        assert child.returncode == -signal.SIGKILL

        # The older run's results went before the first call, not when each dataset's turn came.
        assert not (out / "OTHER_results.csv").exists()
        assert not (out / "IVM_results.csv").exists()
        result = invoke(config, "screen", "--resume")
        assert result.exit_code == 0, result.output
        for name in datasets:
            assert (out / f"{name}_results.csv").read_bytes() == (
                straight / "out" / f"{name}_results.csv"
            ).read_bytes()


# Human decisions alternate I,E; the model excludes all but rows 3 and 10, so
# every row can be explained and rows 0, 2, 3, 4, 6 and 8 reflected on.
ANNOTATE_ROWS = [
    {"title": f"t{i}", "abstract": f"a{i}", "human_decision": "excluded" if i % 2 else "included"}
    for i in range(12)
]
ANNOTATE_SCREEN = {"IVM/3": "included", "IVM/10": "included"}
ANNOTATE_REPLIES = {f"IVM/{i}": f'row {i}: "because", {{it}}\r\nsaid caf\u00e9' for i in range(12)}


def _slow_child(config: Path, journal: Path, lines: int, *args: str) -> subprocess.Popen:
    """Start ``absieve <args>`` with slowed completions; return once ``journal`` holds ``lines`` lines."""
    src = str(Path(absieve.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.Popen(
        [sys.executable, "-c", SLOW_SCREEN_CHILD, "0.05", *args, "--config", str(config)],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 60
        while _journal_lines(journal) < lines:
            assert child.poll() is None, f"{args[0]} exited before its journal reached {lines} lines"
            assert time.monotonic() < deadline, "journal never reached the stop point"
            time.sleep(0.005)
    except BaseException:
        child.kill()
        child.wait()
        raise
    return child


class TestAnnotationJournal:
    def _screened(self, workspace: Path, command: str) -> tuple[Path, list[str]]:
        """A screened workspace; returns its config and the arguments of ``command``."""
        workspace.mkdir()
        config = make_workspace(
            workspace,
            datasets={"IVM": ANNOTATE_ROWS},
            script=dict(ANNOTATE_SCREEN),
            runner_options={"max_in_flight": 1},
        )
        assert invoke(config, "screen").exit_code == 0
        replies = write_mock_script(workspace / "replies.json", ANNOTATE_REPLIES)
        return config, [command, "--dataset", "IVM", "--mock-script", str(replies)]

    @pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs SIGKILL")
    @pytest.mark.parametrize("kill_after", [1, 3])
    @pytest.mark.parametrize("command", ["explain", "reflect"])
    def test_sigkill_then_rerun_matches_uninterrupted(self, tmp_path, command, kill_after):
        straight, args = self._screened(tmp_path / "straight", command)
        assert invoke(straight, *args).exit_code == 0
        config, args = self._screened(tmp_path / "stopped", command)
        out = tmp_path / "stopped" / "out"
        journal = out / "IVM_results.journal.jsonl"
        child = _slow_child(config, journal, kill_after, *args)
        try:
            child.send_signal(signal.SIGKILL)
        finally:
            child.kill()
            child.wait()
        assert child.returncode == -signal.SIGKILL

        # Every journaled annotation survives the kill; the CSV itself holds none yet.
        column = "explanation" if command == "explain" else "reflection"
        manifest = ScreeningManifest((ManifestEntry("IVM", CriteriaSet("i", "e")),))
        records = load_dataset(out / "IVM_results.csv", "IVM", manifest)
        assert not any(getattr(r, column) for r in records)
        assert fold_journal(records, journal) >= kill_after
        assert sum(1 for r in records if getattr(r, column)) >= kill_after

        result = invoke(config, *args)
        assert result.exit_code == 0, result.output
        assert (out / "IVM_results.csv").read_bytes() == (
            tmp_path / "straight" / "out" / "IVM_results.csv"
        ).read_bytes()
        assert not list(out.glob("*.journal.jsonl"))

    @pytest.mark.skipif(os.name != "posix", reason="needs POSIX signals")
    @pytest.mark.parametrize("command", ["explain", "reflect"])
    def test_sigint_writes_finished_annotations(self, tmp_path, command):
        straight, args = self._screened(tmp_path / "straight", command)
        assert invoke(straight, *args).exit_code == 0
        config, args = self._screened(tmp_path / "stopped", command)
        out = tmp_path / "stopped" / "out"
        child = _slow_child(config, out / "IVM_results.journal.jsonl", 2, *args)
        try:
            child.send_signal(signal.SIGINT)
            child.wait(timeout=30)
        finally:
            child.kill()
            child.wait()
        assert child.returncode == 1  # click's "Aborted!"

        column = "explanation" if command == "explain" else "reflection"
        assert sum(1 for row in read_csv_rows(out / "IVM_results.csv") if row[column]) >= 2
        assert not list(out.glob("*.journal.jsonl"))
        assert invoke(config, *args).exit_code == 0
        assert (out / "IVM_results.csv").read_bytes() == (
            tmp_path / "straight" / "out" / "IVM_results.csv"
        ).read_bytes()

    @pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs SIGKILL")
    @pytest.mark.parametrize("command", ["explain", "reflect"])
    def test_torn_leftover_journal_is_cut_then_extended(self, tmp_path, command):
        straight, args = self._screened(tmp_path / "straight", command)
        assert invoke(straight, *args).exit_code == 0
        config, args = self._screened(tmp_path / "stopped", command)
        out = tmp_path / "stopped" / "out"
        journal = out / "IVM_results.journal.jsonl"
        column = "explanation" if command == "explain" else "reflection"
        journal.write_text(f'{{"row": 0, "{column}": "older text"}}\n{{"row": 2, "{column}": "ol')
        start = (out / "IVM_results.csv").read_bytes()
        child = _slow_child(config, journal, 3, *args)
        try:
            child.send_signal(signal.SIGKILL)
        finally:
            child.kill()
            child.wait()
        assert child.returncode == -signal.SIGKILL

        # No write before the first call; the torn bytes were cut before the first append.
        assert (out / "IVM_results.csv").read_bytes() == start
        manifest = ScreeningManifest((ManifestEntry("IVM", CriteriaSet("i", "e")),))
        records = load_dataset(out / "IVM_results.csv", "IVM", manifest)
        assert fold_journal(records, journal) >= 3
        assert journal.read_text().startswith(f'{{"row": 0, "{column}": "older text"}}\n{{"row": ')

        result = invoke(config, *args)
        assert result.exit_code == 0, result.output
        assert (out / "IVM_results.csv").read_bytes() == (
            tmp_path / "straight" / "out" / "IVM_results.csv"
        ).read_bytes()
        assert not list(out.glob("*.journal.jsonl"))


@pytest.fixture
def results_writes(monkeypatch) -> list[Path]:
    """The path of every results CSV written from here on."""
    import absieve.runner

    writes = []
    real_write = absieve.runner.write_results

    def counting_write(records, path):
        writes.append(path)
        real_write(records, path)

    monkeypatch.setattr(absieve.runner, "write_results", counting_write)
    return writes


class TestResultsWrites:
    def test_screen_writes_each_results_file_once(self, tmp_path, results_writes):
        config = make_workspace(tmp_path, datasets={"IVM": DEFAULT_ROWS, "OTHER": DEFAULT_ROWS})
        assert invoke(config, "screen").exit_code == 0
        out = tmp_path / "out"
        assert results_writes == [out / "IVM_results.csv", out / "OTHER_results.csv"]

    @pytest.mark.parametrize("command", ["explain", "reflect"])
    def test_annotation_writes_results_once(self, tmp_path, results_writes, command):
        config = make_workspace(tmp_path)
        assert invoke(config, "screen").exit_code == 0
        results_writes.clear()
        assert invoke(config, command, "--dataset", "IVM").exit_code == 0
        assert results_writes == [tmp_path / "out" / "IVM_results.csv"]

    @pytest.mark.parametrize("command", ["explain", "reflect"])
    def test_leftover_journal_is_written_into_the_csv_first(self, tmp_path, results_writes, command):
        config = make_workspace(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        write_dataset(out / "IVM_results.csv", DEFAULT_ROWS)
        decisions = ["included", "excluded", "included", "excluded"]
        (out / "IVM_results.journal.jsonl").write_text(
            "".join(f'{{"row": {i}, "decision": "{d}"}}\n' for i, d in enumerate(decisions))
        )
        assert invoke(config, command, "--dataset", "IVM").exit_code == 0
        assert results_writes == [out / "IVM_results.csv"]
        assert [r["decision"] for r in read_csv_rows(out / "IVM_results.csv")] == decisions
        assert not (out / "IVM_results.journal.jsonl").exists()

    def test_resume_writes_each_results_file_once(self, tmp_path, results_writes):
        config = make_workspace(tmp_path, datasets={"IVM": DEFAULT_ROWS, "OTHER": DEFAULT_ROWS})
        out = tmp_path / "out"
        out.mkdir()
        write_dataset(out / "IVM_results.csv", DEFAULT_ROWS)
        write_dataset(out / "OTHER_results.csv", DEFAULT_ROWS)
        (out / "IVM_results.journal.jsonl").write_text('{"row": 1, "decision": "excluded"}\n')
        assert invoke(config, "screen", "--resume").exit_code == 0
        assert results_writes == [out / "IVM_results.csv", out / "OTHER_results.csv"]
        assert [r["decision"] for r in read_csv_rows(out / "IVM_results.csv")] == [
            "included", "excluded", "included", "excluded"
        ]


@pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs SIGKILL")
class TestKilledFirstScreen:
    """A first screen killed before any results CSV exists leaves only its journal."""

    def _killed(self, tmp_path: Path) -> tuple[Path, list[ScreeningRecord]]:
        """The config of a workspace in that state, and the records its journal extends."""
        config = make_workspace(
            tmp_path,
            datasets={"IVM": ANNOTATE_ROWS},
            script=dict(ANNOTATE_SCREEN),
            runner_options={"max_in_flight": 1},
        )
        out = tmp_path / "out"
        journal = out / "IVM_results.journal.jsonl"
        child = _slow_child(config, journal, 3, "screen")
        try:
            child.send_signal(signal.SIGKILL)
        finally:
            child.kill()
            child.wait()
        assert child.returncode == -signal.SIGKILL
        assert [p.name for p in out.glob("IVM_results*")] == [journal.name]
        manifest = ScreeningManifest((ManifestEntry("IVM", CriteriaSet("i", "e")),))
        records = load_dataset(tmp_path / "data" / "IVM.csv", "IVM", manifest)
        assert fold_journal(records, journal) >= 3
        return config, records

    @pytest.mark.parametrize("command", ["explain", "reflect"])
    def test_annotation_writes_the_csv_once_from_the_journal(self, tmp_path, results_writes, command):
        config, screened = self._killed(tmp_path)
        out = tmp_path / "out"
        replies = write_mock_script(tmp_path / "replies.json", ANNOTATE_REPLIES)
        result = invoke(config, command, "--dataset", "IVM", "--mock-script", str(replies))
        assert result.exit_code == 0, result.output
        assert results_writes == [out / "IVM_results.csv"]
        assert not list(out.glob("*.journal.jsonl"))

        mode = PromptKind.EXPLAIN if command == "explain" else PromptKind.REFLECT
        column = "explanation" if command == "explain" else "reflection"
        rows = read_csv_rows(out / "IVM_results.csv")
        assert [row["decision"] for row in rows] == [
            r.model_decision.value if r.model_decision else "" for r in screened
        ]
        annotated = [n for n, row in enumerate(rows) if row[column]]
        assert annotated == [r.row_index for r in screened if eligible_for(mode, r)] != []

    def test_evaluate_still_asks_for_a_screen(self, tmp_path):
        config, _ = self._killed(tmp_path)
        result = invoke(config, "evaluate", "--all")
        assert result.exit_code == 2
        assert "results file not found (run `screen` first)" in result.output

    def test_resume_asks_no_journaled_row_again(self, tmp_path):
        config, screened = self._killed(tmp_path)
        log = tmp_path / "out" / "run_log.jsonl"
        killed_calls = len(log.read_text().splitlines())
        assert invoke(config, "screen", "--resume").exit_code == 0
        rerun = [json.loads(line) for line in log.read_text().splitlines()[killed_calls:]]
        decided = {r.row_index for r in screened if r.model_decision}
        assert {c["row"] for c in rerun} == set(range(len(screened))) - decided


class TestExplainReflect:
    @pytest.mark.parametrize("command", ["explain", "reflect"])
    def test_negative_sample_exits_two(self, tmp_path, command):
        config = make_workspace(tmp_path)
        assert invoke(config, "screen").exit_code == 0
        result = invoke(config, command, "--dataset", "IVM", "--sample", "-1")
        assert result.exit_code == 2
        assert "--sample" in result.output

    def test_reflect_fills_both_disagreements(self, tmp_path):
        config = make_workspace(tmp_path)
        assert invoke(config, "screen").exit_code == 0
        result = invoke(
            config, "explain", "--dataset", "IVM", "--mode", "reflect", "--sample", "2"
        )
        assert result.exit_code == 0, result.output
        rows = read_csv_rows(tmp_path / "out" / "IVM_results.csv")
        assert rows[1]["reflection"] != ""
        assert rows[2]["reflection"] != ""
        assert rows[0]["reflection"] == ""

    def test_reflect_command_is_alias(self, tmp_path):
        config = make_workspace(tmp_path)
        invoke(config, "screen")
        result = invoke(config, "reflect", "--dataset", "IVM", "--sample", "2")
        assert result.exit_code == 0
        rows = read_csv_rows(tmp_path / "out" / "IVM_results.csv")
        assert rows[1]["reflection"] != ""

    def test_reflect_with_no_disagreements_exits_two(self, tmp_path):
        script = {"IVM/0": "included", "IVM/1": "included", "IVM/2": "excluded", "IVM/3": "excluded"}
        config = make_workspace(tmp_path, script=script)
        invoke(config, "screen")
        result = invoke(config, "reflect", "--dataset", "IVM")
        assert result.exit_code == 2
        assert "no eligible rows" in result.output

    def test_explain_fills_explanations(self, tmp_path):
        config = make_workspace(tmp_path)
        invoke(config, "screen")
        result = invoke(config, "explain", "--dataset", "IVM")
        assert result.exit_code == 0
        rows = read_csv_rows(tmp_path / "out" / "IVM_results.csv")
        assert all(r["explanation"] != "" for r in rows)

    def test_same_seed_selects_same_rows(self, tmp_path):
        def annotated(seed: int, marker: str) -> list[int]:
            workspace = tmp_path / marker
            workspace.mkdir()
            config = make_workspace(workspace)
            invoke(config, "screen")
            invoke(
                config, "explain", "--dataset", "IVM", "--sample", "1", "--seed", str(seed)
            )
            rows = read_csv_rows(workspace / "out" / "IVM_results.csv")
            return [i for i, r in enumerate(rows) if r["explanation"]]

        assert annotated(7, "first") == annotated(7, "second")

    def test_rows_flag_selects_specific_rows(self, tmp_path):
        config = make_workspace(tmp_path)
        invoke(config, "screen")
        result = invoke(config, "explain", "--dataset", "IVM", "--rows", "0,3")
        assert result.exit_code == 0
        rows = read_csv_rows(tmp_path / "out" / "IVM_results.csv")
        assert rows[0]["explanation"] != ""
        assert rows[3]["explanation"] != ""
        assert rows[1]["explanation"] == ""

    def test_rows_flag_rejects_unknown_indexes(self, tmp_path):
        config = make_workspace(tmp_path)
        invoke(config, "screen")
        result = invoke(config, "explain", "--dataset", "IVM", "--rows", "0,99")
        assert result.exit_code == 2

    def test_missing_results_file_exits_two(self, tmp_path):
        config = make_workspace(tmp_path)
        result = invoke(config, "explain", "--dataset", "IVM")
        assert result.exit_code == 2
        assert "screen" in result.output

    def test_reflect_folds_leftover_journal(self, tmp_path):
        # A killed screen leaves the CSV as written at the start, plus the journal.
        config = make_workspace(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        write_dataset(out / "IVM_results.csv", DEFAULT_ROWS)
        decisions = ["included", "excluded", "included", "excluded"]
        (out / "IVM_results.journal.jsonl").write_text(
            "".join(f'{{"row": {i}, "decision": "{d}"}}\n' for i, d in enumerate(decisions))
        )
        result = invoke(config, "reflect", "--dataset", "IVM")
        assert result.exit_code == 0, result.output
        assert "IVM: 2 annotated" in result.output
        rows = read_csv_rows(out / "IVM_results.csv")
        assert [r["decision"] for r in rows] == decisions
        assert [bool(r["reflection"]) for r in rows] == [False, True, True, False]


class TestEvaluate:
    def test_emits_json_table_confusion_and_svg(self, tmp_path):
        config = make_workspace(tmp_path)
        invoke(config, "screen")
        result = invoke(config, "evaluate", "--dataset", "IVM")
        assert result.exit_code == 0, result.output
        out = tmp_path / "out"

        document = json.loads((out / "metrics.json").read_text())
        assert document["truth_column"] == "human_decision"
        entry = document["datasets"][0]
        assert entry["accuracy"] == pytest.approx(0.5)
        assert entry["confusion"] == {"tp": 1, "fn": 1, "fp": 1, "tn": 1, "dropped": 0}
        assert document["weighted_total"]["accuracy"] == pytest.approx(0.5)
        assert "weight" in document["weighted_total"]["weighting"]

        table = (out / "metrics_table.csv").read_text().splitlines()
        assert table[0] == "Dataset,Accuracy,Sensitivity (Included),Sensitivity (Excluded),Kappa"
        assert table[1].startswith("IVM,0.500,0.500,0.500,")
        assert table[2].startswith("Total (Weighted Average),0.500,0.500,0.500,-")

        confusion = read_csv_rows(out / "IVM_confusion.csv")[0]
        assert confusion["tp"] == "1"
        svg = (out / "IVM_confusion.svg").read_text()
        assert svg.startswith("<svg")
        assert "predicted" in svg

    def test_self_agreement_scores_one(self, tmp_path):
        config = make_workspace(tmp_path)
        invoke(config, "screen")
        result = invoke(
            config,
            "evaluate",
            "--dataset",
            "IVM",
            "--truth",
            "human_decision",
            "--pred",
            "human_decision",
        )
        assert result.exit_code == 0
        document = json.loads((tmp_path / "out" / "metrics.json").read_text())
        assert document["datasets"][0]["accuracy"] == 1.0

    def test_missing_pred_column_exits_two(self, tmp_path):
        config = make_workspace(tmp_path)
        invoke(config, "screen")
        result = invoke(config, "evaluate", "--dataset", "IVM", "--pred", "nonexistent")
        assert result.exit_code == 2
        assert "nonexistent" in result.output

    def test_no_comparable_rows_exits_two(self, tmp_path):
        rows = [{"title": "t", "abstract": "a"}]  # no human decisions anywhere
        config = make_workspace(tmp_path, datasets={"IVM": rows}, script={"default": "included"})
        invoke(config, "screen")
        result = invoke(config, "evaluate", "--dataset", "IVM")
        assert result.exit_code == 2
        assert "no comparable rows" in result.output

    def test_all_datasets_get_weighted_total(self, tmp_path):
        datasets = {
            "A": [
                {"title": "t", "abstract": "x", "human_decision": "included"},
                {"title": "u", "abstract": "x", "human_decision": "excluded"},
            ],
            "B": [
                {"title": "v", "abstract": "x", "human_decision": "excluded"},
                {"title": "w", "abstract": "x", "human_decision": "excluded"},
            ],
        }
        script = {"A/0": "included", "A/1": "excluded", "default": "included"}
        config = make_workspace(tmp_path, datasets=datasets, script=script)
        invoke(config, "screen")
        result = invoke(config, "evaluate", "--all")
        assert result.exit_code == 0
        document = json.loads((tmp_path / "out" / "metrics.json").read_text())
        assert len(document["datasets"]) == 2
        # A is perfect (n=2), B is all wrong (n=2): weighted accuracy 0.5.
        assert document["weighted_total"]["accuracy"] == pytest.approx(0.5)

    def test_unknown_decision_token_is_dropped_not_rejected(self, tmp_path):
        config = make_workspace(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        rows = [dict(r, decision=r["human_decision"]) for r in DEFAULT_ROWS]
        rows[2]["decision"] = "maybe"
        write_dataset(out / "IVM_results.csv", rows)
        result = invoke(config, "evaluate", "--dataset", "IVM", "--pred", "decision")
        assert result.exit_code == 0, result.output
        document = json.loads((out / "metrics.json").read_text())
        assert document["datasets"][0]["confusion"] == {
            "tp": 2, "fn": 0, "fp": 0, "tn": 1, "dropped": 1
        }

    def test_dataset_and_all_are_exclusive(self, tmp_path):
        config = make_workspace(tmp_path)
        result = invoke(config, "evaluate", "--dataset", "IVM", "--all")
        assert result.exit_code == 2

    def test_table_csv_and_stdout_for_two_datasets(self, tmp_path):
        datasets = {
            "IVM": DEFAULT_ROWS,
            "SSRI": [
                {"title": "s0", "abstract": "b0", "human_decision": "included"},
                {"title": "s1", "abstract": "b1", "human_decision": "excluded"},
                {"title": "s2", "abstract": "b2", "human_decision": "excluded"},
                {"title": "s3", "abstract": "b3", "human_decision": ""},
            ],
        }
        script = dict(DEFAULT_SCRIPT, **{"SSRI/0": "included", "SSRI/1": "included"})
        config = make_workspace(tmp_path, datasets=datasets, script=script)
        assert invoke(config, "screen").exit_code == 0
        result = invoke(config, "evaluate", "--all")
        assert result.exit_code == 0, result.output
        # SSRI: tp 1, fp 1, tn 1 and one dropped row; kappa (2/3 - 4/9) / (1 - 4/9) = 0.4.
        # Totals weight IVM by 4 and SSRI by 3: accuracy 4/7, sensitivity (included) 5/7.
        assert (tmp_path / "out" / "metrics_table.csv").read_bytes() == (
            b"Dataset,Accuracy,Sensitivity (Included),Sensitivity (Excluded),Kappa\r\n"
            b"IVM,0.500,0.500,0.500,0.00\r\n"
            b"SSRI,0.667,1.000,0.500,0.40\r\n"
            b"Total (Weighted Average),0.571,0.714,0.500,-\r\n"
        )
        assert result.output == (
            "Dataset                       Accuracy  Sens(Inc)  Sens(Exc)   Kappa\n"
            "IVM                              0.500      0.500      0.500    0.00\n"
            "SSRI                             0.667      1.000      0.500    0.40\n"
            "Total (Weighted Average)         0.571      0.714      0.500       -\n"
            "weighting: size-weighted mean: each dataset contributes with weight n / sum(n), "
            "where n counts its comparable (non-dropped) rows\n"
        )

    def test_every_confusion_svg_is_well_formed_xml(self, tmp_path):
        names = ["IVM", "A&B <x>", "q>r"]
        config = make_workspace(tmp_path, datasets={name: DEFAULT_ROWS for name in names}, script={})
        assert invoke(config, "screen").exit_code == 0
        assert invoke(config, "evaluate", "--all").exit_code == 0
        svgs = sorted((tmp_path / "out").glob("*_confusion.svg"))
        assert len(svgs) == len(names)
        titles = {ElementTree.parse(svg).getroot()[0].text for svg in svgs}
        assert titles == set(names)


@pytest.mark.skipif(os.name != "posix", reason="needs POSIX file modes")
class TestFileModes:
    def test_every_output_follows_the_umask(self, tmp_path):
        config = make_workspace(tmp_path)
        old = os.umask(0o027)
        try:
            assert invoke(config, "screen").exit_code == 0
            assert invoke(config, "explain", "--dataset", "IVM").exit_code == 0
            assert invoke(config, "evaluate", "--all").exit_code == 0
        finally:
            os.umask(old)
        out = tmp_path / "out"
        modes = {path.name: path.stat().st_mode & 0o777 for path in out.iterdir()}
        assert "IVM_results.csv" in modes and "metrics.json" in modes
        assert modes == dict.fromkeys(modes, 0o640)


class TestDatasetNames:
    @pytest.mark.parametrize("command", ["screen", "evaluate"])
    @pytest.mark.parametrize("name", ["../escaped", "..", "sub\\name"])
    def test_name_that_leaves_its_directory_exits_two(self, tmp_path, command, name):
        config = make_workspace(tmp_path)
        assert invoke(config, "screen").exit_code == 0
        # Files the unchecked name would reach, so only the check can stop the command.
        write_dataset(tmp_path / "escaped.csv", DEFAULT_ROWS)
        write_dataset(tmp_path / "escaped_results.csv", [dict(r, decision="included") for r in DEFAULT_ROWS])
        before = sorted(tmp_path.rglob("*"))
        write_manifest(tmp_path / "manifest.csv", [["IVM", "inc", "exc"], [name, "inc", "exc"]])
        result = invoke(config, command, *(["--all"] if command == "evaluate" else []))
        assert result.exit_code == 2
        assert "row 2" in result.output and repr(name) in result.output
        assert sorted(tmp_path.rglob("*")) == before


class TestEstimateCost:
    def test_zero_rows_costs_zero(self, tmp_path):
        config = make_workspace(tmp_path, datasets={"IVM": []})
        result = invoke(config, "estimate-cost")
        assert result.exit_code == 0
        estimate = json.loads((tmp_path / "out" / "estimate.json").read_text())
        assert estimate["cost"] == 0
        assert "$0.0000" in result.output

    def test_two_datasets_sum(self, tmp_path):
        datasets = {
            "A": [{"title": "t", "abstract": "x" * 100}],
            "B": [{"title": "t", "abstract": "y" * 100} for _ in range(2)],
        }
        config = make_workspace(tmp_path, datasets=datasets)
        result = invoke(config, "estimate-cost")
        assert result.exit_code == 0
        estimate = json.loads((tmp_path / "out" / "estimate.json").read_text())
        parts = sum(d["cost"] for d in estimate["per_dataset"])
        assert estimate["cost"] == pytest.approx(parts)
        assert estimate["total_output_tokens"] == 3


class TestJsonArtifacts:
    def test_key_order(self, tmp_path):
        """The JSON files are byte-stable: keys come out in this order at every level."""
        config = make_workspace(tmp_path)
        for command in ("screen", "evaluate", "estimate-cost"):
            assert invoke(config, command).exit_code == 0
        out = tmp_path / "out"

        metrics = json.loads((out / "metrics.json").read_text())
        assert list(metrics) == ["truth_column", "pred_column", "datasets", "weighted_total"]
        entry = metrics["datasets"][0]
        assert list(entry) == [
            "dataset_name",
            "n",
            "n_included",
            "accuracy",
            "sensitivity_included",
            "sensitivity_excluded",
            "kappa",
            "confusion",
            "report",
        ]
        assert list(entry["confusion"]) == ["tp", "fn", "fp", "tn", "dropped"]
        assert list(entry["report"]) == [
            "included",
            "excluded",
            "macro_avg",
            "weighted_avg",
            "zero_division_fields",
        ]
        for name in ("included", "excluded", "macro_avg", "weighted_avg"):
            assert list(entry["report"][name]) == ["precision", "recall", "f1", "support"]
        assert entry["report"]["zero_division_fields"] == []
        assert list(metrics["weighted_total"]) == [
            "n_total",
            "accuracy",
            "sensitivity_included",
            "sensitivity_excluded",
            "kappa",
            "weighting",
        ]

        estimate = json.loads((out / "estimate.json").read_text())
        assert list(estimate) == [
            "per_dataset",
            "total_input_tokens",
            "total_output_tokens",
            "cost",
            "projected_wall_time_s",
        ]
        assert list(estimate["per_dataset"][0]) == [
            "dataset_name",
            "rows",
            "input_tokens",
            "output_tokens",
            "cost",
        ]

        report = json.loads((out / "run_report.json").read_text())
        assert list(report) == ["datasets", "totals"]
        assert list(report["datasets"]["IVM"]) == [
            "rows_total",
            "rows_screened",
            "rows_skipped_resume",
            "included_count",
            "excluded_count",
            "unparseable_count",
            "error_count",
            "empty_abstract_count",
        ]
        assert list(report["totals"]) == [
            "wall_time_s",
            "input_tokens",
            "output_tokens",
            "estimated_cost",
        ]


class TestConfigHandling:
    def test_missing_config_file_exits_two(self, tmp_path):
        result = runner.invoke(
            main, ["screen", "--config", str(tmp_path / "nope.ini")], catch_exceptions=False
        )
        assert result.exit_code == 2
        assert "config file not found" in result.output

    def test_both_backends_configured_exits_two(self, tmp_path):
        config = make_workspace(tmp_path)
        result = invoke(config, "screen", "--base-url", "http://example.invalid")
        assert result.exit_code == 2
        assert "exactly one backend" in result.output

    def test_bad_numeric_field_exits_two(self, tmp_path):
        config = make_workspace(tmp_path)
        result = invoke(config, "screen", "--temperature", "warm")
        assert result.exit_code == 2
        assert "temperature" in result.output

    def test_http_backend_without_credential_exits_two(self, tmp_path, monkeypatch):
        monkeypatch.delenv("ABSIEVE_API_KEY", raising=False)
        config = make_workspace(tmp_path)
        text = config.read_text().replace(
            f"mock_script = {tmp_path / 'mock_script.json'}", "base_url = http://127.0.0.1:9"
        )
        config.write_text(text)
        result = invoke(config, "screen")
        assert result.exit_code == 2
        assert "ABSIEVE_API_KEY" in result.output

    def test_missing_manifest_exits_two(self, tmp_path):
        config = make_workspace(tmp_path)
        (tmp_path / "manifest.csv").unlink()
        result = invoke(config, "screen")
        assert result.exit_code == 2
        assert "manifest" in result.output

    @pytest.mark.parametrize(
        "command,flag,field",
        [
            ("screen", "--temperature", "temperature"),
            ("screen", "--backoff-base", "backoff_base_s"),
            ("estimate-cost", "--price-per-1k-input", "price_per_1k_input"),
        ],
    )
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_value_exits_two(self, tmp_path, command, flag, field, value):
        config = make_workspace(tmp_path)
        result = invoke(config, command, flag, value)
        assert result.exit_code == 2
        assert field in result.output

    @pytest.mark.parametrize(
        "script",
        ["{not json", '{"IVM-0": "included"}', '{"failures": {"IVM/0": {"count": 1}}}'],
        ids=["invalid-json", "bad-key", "failure-without-status"],
    )
    def test_malformed_mock_script_exits_two(self, tmp_path, script):
        config = make_workspace(tmp_path)
        (tmp_path / "mock_script.json").write_text(script)
        result = invoke(config, "screen")
        assert result.exit_code == 2
        assert "backend.mock_script" in result.output

    @pytest.mark.parametrize("value", ["1", "often"])
    def test_ini_checkpoint_every_is_ignored(self, tmp_path, value):
        config = make_workspace(tmp_path, runner_options={"checkpoint_every": value})
        result = invoke(config, "screen")
        assert result.exit_code == 0, result.output
        rows = read_csv_rows(tmp_path / "out" / "IVM_results.csv")
        assert [r["decision"] for r in rows] == ["included", "excluded", "included", "excluded"]

    def test_invalid_runner_value_exits_two(self, tmp_path):
        config = make_workspace(tmp_path, runner_options={"max_in_flight": 0})
        result = invoke(config, "screen")
        assert result.exit_code == 2
        assert "max_in_flight" in result.output

    @pytest.mark.parametrize("command", ["screen", "explain", "estimate-cost"])
    def test_invalid_runner_flag_exits_two_from_each_command(self, tmp_path, command):
        config = make_workspace(tmp_path)
        assert invoke(config, "screen").exit_code == 0
        args = ["--dataset", "IVM"] if command == "explain" else []
        result = invoke(config, command, *args, "--max-in-flight", "0")
        assert result.exit_code == 2
        assert "max_in_flight" in result.output


class TestVersion:
    def test_version_comes_from_the_package_sources(self):
        result = runner.invoke(main, ["--version"])
        assert result.exit_code == 0
        assert result.output.endswith(f", version {absieve.__version__}\n")

# Every setting as the README documents it: INI section, key, override flag and help.
SETTINGS = [
    ("paths", "manifest", "--manifest", "Override paths.manifest."),
    ("paths", "data_dir", "--data-dir", "Override paths.data_dir."),
    ("paths", "output_dir", "--output-dir", "Override paths.output_dir."),
    ("backend", "base_url", "--base-url", "Override backend.base_url."),
    ("backend", "mock_script", "--mock-script", "Override backend.mock_script."),
    ("backend", "model", "--model", "Override backend.model."),
    ("backend", "temperature", "--temperature", "Override backend.temperature."),
    ("backend", "credential_env", "--credential-env", "Environment variable holding the API key."),
    ("runner", "max_in_flight", "--max-in-flight", "Override runner.max_in_flight."),
    ("runner", "requests_per_minute", "--requests-per-minute", "Override runner.requests_per_minute."),
    ("runner", "max_retries", "--max-retries", "Override runner.max_retries."),
    ("runner", "backoff_base_s", "--backoff-base", "Override runner.backoff_base_s (seconds)."),
    ("runner", "price_per_1k_input", "--price-per-1k-input", "Override runner.price_per_1k_input (USD)."),
    ("runner", "price_per_1k_output", "--price-per-1k-output", "Override runner.price_per_1k_output (USD)."),
]
SETTING_IDS = [key for _, key, _, _ in SETTINGS]
RUN_DEFAULTS = vars(RunConfig())

# A valid INI value and a different valid flag value per setting. The float
# settings get integer-looking INI values, so an int conversion would show.
# "{alt}" is a directory with a second manifest, data dir and script per source.
SAMPLES = {
    "manifest": ("{alt}/ini_manifest.csv", "{alt}/flag_manifest.csv"),
    "data_dir": ("{alt}/ini_data", "{alt}/flag_data"),
    "output_dir": ("{alt}/ini_out", "{alt}/flag_out"),
    "base_url": ("http://127.0.0.1:9/ini", "http://127.0.0.1:9/flag"),
    "mock_script": ("{alt}/ini_script.json", "{alt}/flag_script.json"),
    "model": ("ini-model", "flag-model"),
    "temperature": ("1", "0.5"),
    "credential_env": ("INI_KEY", "FLAG_KEY"),
    "max_in_flight": ("3", "7"),
    "requests_per_minute": ("30", "90"),
    "max_retries": ("0", "9"),
    "backoff_base_s": ("2", "0.25"),
    "price_per_1k_input": ("1", "0.125"),
    "price_per_1k_output": ("3", "0.375"),
}

# A value each setting rejects. Any text is a valid model or credential_env;
# a base_url that is not an http(s) URL is tested in TestConfigHandling.
BAD_VALUES = {
    "manifest": "{alt}/missing.csv",
    "data_dir": "{alt}/ini_manifest.csv",
    "output_dir": "{alt}/ini_manifest.csv/out",
    "mock_script": "{alt}/missing.json",
    "temperature": "warm",
    "max_in_flight": "1.5",
    "requests_per_minute": "fast",
    "max_retries": "two",
    "backoff_base_s": "1s",
    "price_per_1k_input": "cheap",
    "price_per_1k_output": "$1",
}

COMMAND_OPTIONS = {
    "screen": [
        (["--dataset"], "Screen a single named dataset."),
        (["--resume"], "Continue from an existing results file."),
    ],
    "explain": [
        (["--dataset"], "Dataset whose results file to annotate."),
        (["--mode"], None),
        (["--sample"], "Annotate K eligible rows, sampled with --seed."),
        (["--rows"], "Comma-separated row indexes to annotate."),
        (["--seed"], "Sampling seed."),
    ],
    "reflect": [
        (["--dataset"], "Dataset whose results file to annotate."),
        (["--sample"], "Annotate K eligible rows, sampled with --seed."),
        (["--rows"], "Comma-separated row indexes to annotate."),
        (["--seed"], "Sampling seed."),
    ],
    "evaluate": [
        (["--dataset"], "Evaluate a single named dataset."),
        (["--all"], "Evaluate every manifest dataset."),
        (["--truth"], "Ground-truth column."),
        (["--pred"], "Predicted column."),
    ],
    "estimate-cost": [],
}


def settings_workspace(tmp_path: Path, ini: dict[str, str]) -> tuple[Path, Path]:
    """A workspace whose INI also sets ``ini`` (key -> value); returns (config, alt dir)."""
    config = make_workspace(tmp_path)
    alt = tmp_path / "alt"
    alt.mkdir()
    for source in ("ini", "flag"):
        write_manifest(alt / f"{source}_manifest.csv", [["IVM", "i", "e"]])
        (alt / f"{source}_data").mkdir()
        write_mock_script(alt / f"{source}_script.json", {})
    parser = configparser.ConfigParser()
    parser.read(config)
    for section, key, _, _ in SETTINGS:
        if key in ini:
            parser.set(section, key, ini[key].format(alt=alt))
            if key == "base_url":
                parser.remove_option("backend", "mock_script")
    with open(config, "w") as fh:
        parser.write(fh)
    return config, alt


@pytest.fixture
def loaded(monkeypatch) -> list:
    """The AppConfig each command builds; the command stops right after building it."""
    seen = []

    def stop(config):
        seen.append(config)
        raise cli.CliFailure("stopped after loading the config")

    monkeypatch.setattr(cli, "_load_manifest", stop)
    return seen


def landed(config, key: str):
    if key in RUN_DEFAULTS:
        return getattr(config.run, key)
    return getattr(config, "manifest_path" if key == "manifest" else key)


def expected(key: str, raw: str, alt: Path):
    if key in RUN_DEFAULTS:
        return type(RUN_DEFAULTS[key])(raw)
    if key in ("base_url", "credential_env"):
        return raw
    return Path(raw.format(alt=alt))


class TestSettings:
    @pytest.mark.parametrize("command", sorted(COMMAND_OPTIONS))
    def test_option_names_order_and_help(self, command):
        config_options = [(["--config", "-c"], "Path to the INI configuration file.")]
        config_options += [([flag], help_text) for _, _, flag, help_text in SETTINGS]
        params = main.commands[command].params
        assert [(p.opts, p.help) for p in params] == config_options + COMMAND_OPTIONS[command]

    @pytest.mark.parametrize("section,key,flag,_help", SETTINGS, ids=SETTING_IDS)
    def test_ini_value_reaches_config_with_default_type(self, tmp_path, loaded, section, key, flag, _help):
        raw = SAMPLES[key][0]
        config, alt = settings_workspace(tmp_path, {key: raw})
        assert invoke(config, "screen").exit_code == 2
        value = landed(loaded[0], key)
        assert value == expected(key, raw, alt)
        if key in RUN_DEFAULTS:
            assert type(value) is type(RUN_DEFAULTS[key])

    @pytest.mark.parametrize("section,key,flag,_help", SETTINGS, ids=SETTING_IDS)
    def test_flag_beats_ini_value(self, tmp_path, loaded, section, key, flag, _help):
        ini_raw, flag_raw = SAMPLES[key]
        config, alt = settings_workspace(tmp_path, {key: ini_raw})
        assert invoke(config, "screen", flag, flag_raw.format(alt=alt)).exit_code == 2
        assert landed(loaded[0], key) == expected(key, flag_raw, alt)

    @pytest.mark.parametrize("section,key,flag,_help", SETTINGS, ids=SETTING_IDS)
    def test_empty_flag_leaves_ini_value(self, tmp_path, loaded, section, key, flag, _help):
        raw = SAMPLES[key][0]
        config, alt = settings_workspace(tmp_path, {key: raw})
        assert invoke(config, "screen", flag, "").exit_code == 2
        assert landed(loaded[0], key) == expected(key, raw, alt)

    @pytest.mark.parametrize("source", ["ini", "flag"])
    @pytest.mark.parametrize(
        "section,key,flag",
        [(section, key, flag) for section, key, flag, _ in SETTINGS if key in BAD_VALUES],
        ids=[key for key in SETTING_IDS if key in BAD_VALUES],
    )
    def test_bad_value_exits_two_and_names_the_field(self, tmp_path, section, key, flag, source):
        config, alt = settings_workspace(tmp_path, {key: BAD_VALUES[key]} if source == "ini" else {})
        args = [flag, BAD_VALUES[key].format(alt=alt)] if source == "flag" else []
        result = invoke(config, "screen", *args)
        assert result.exit_code == 2
        assert f"{section}.{key}" in result.output
        if key in RUN_DEFAULTS:
            kind = type(RUN_DEFAULTS[key]).__name__
            assert f"cannot parse {BAD_VALUES[key]!r} as {kind}" in result.output


def oracle_decision_columns(path: Path, truth: str, pred: str) -> tuple[list, list]:
    """The two decision columns, read with a plain csv loop."""
    with open(path, newline="", encoding="utf-8") as fh:
        table = [row for row in csv.reader(fh) if row]
    keys = [clean_text(name).lower() for name in table[0]]
    tokens = {d.value: d for d in Decision}

    def column(name: str) -> list:
        pos = keys.index(clean_text(name).lower())  # the first of duplicates
        cells = [row[pos] if pos < len(row) else "" for row in table[1:]]
        return [tokens.get(clean_text(cell).lower()) for cell in cells]

    return column(truth), column(pred)


# Duplicates after cleaning and lowercasing: " decision", "DECISION", "decision".
_HEADER_NAMES = ["title", "abstract", "human_decision", "Human_Decision", " decision", "DECISION", "decision", "note"]
_DECISION_SPELLINGS = [
    "included", "excluded", "unparseable", "error", "",
    "Included", " EXCLUDED ", "\tError\r\n", "incl\x00uded", "Excluded\u00e9", "UNPARSEABLE",
    "in cluded", "maybe", "none", "included.",
]


@st.composite
def _decision_table(draw) -> tuple[list[str], list[list[str]], str, str]:
    header = draw(st.lists(st.sampled_from(_HEADER_NAMES), min_size=1, max_size=6))
    # A row without cells is written as a blank line; shorter rows than the header are kept short.
    rows = draw(st.lists(st.lists(st.sampled_from(_DECISION_SPELLINGS), max_size=len(header) + 1), max_size=12))
    return header, rows, draw(st.sampled_from(header)), draw(st.sampled_from(header))


class TestDecisionColumns:
    @given(_decision_table())
    def test_matches_a_plain_csv_loop(self, tmp_path_factory, table):
        header, rows, truth, pred = table
        text = io.StringIO(newline="")
        writer = csv.writer(text)
        writer.writerow(header)
        writer.writerows(rows)
        path = tmp_path_factory.mktemp("d") / "IVM_results.csv"
        path.write_text(text.getvalue(), encoding="utf-8", newline="")
        assert cli._decision_columns(path, truth, pred) == oracle_decision_columns(path, truth, pred)

    def test_spellings_blank_lines_and_one_column_twice(self, tmp_path):
        path = tmp_path / "IVM_results.csv"
        path.write_bytes(
            b"title,Decision,human_decision,DECISION\r\n"
            b"\r\n"
            b"t0, Included ,excluded,excluded\r\n"
            b"t1,maybe,EXCLUDED\r\n"
            b"\r\n"
            b"t2\r\n"
            b"t3,error,\r\n"
        )
        truth, pred = cli._decision_columns(path, "decision", "decision")
        assert truth == pred == [Decision.INCLUDED, None, None, Decision.ERROR]
        assert cli._decision_columns(path, "human_decision", "decision")[0] == [
            Decision.EXCLUDED, Decision.EXCLUDED, None, None
        ]

    def test_missing_truth_column_is_named_before_pred(self, tmp_path):
        path = write_dataset(tmp_path / "IVM_results.csv", DEFAULT_ROWS)
        with pytest.raises(cli.CliFailure, match="'gold'"):
            cli._decision_columns(path, "gold", "guess")
        with pytest.raises(cli.CliFailure, match="'guess'"):
            cli._decision_columns(path, "human_decision", "guess")

    def test_peak_memory_stays_under_1mb_for_a_4mb_file(self, tmp_path):
        path = write_large_results(tmp_path / "IVM_results.csv", rows=2600)
        assert path.stat().st_size >= 4_000_000
        (truth, pred), _, peak = traced_peak(
            lambda: cli._decision_columns(path, "human_decision", "decision")
        )
        assert len(truth) == len(pred) == 2600
        assert peak < 1_000_000, peak

    def test_a_text_column_as_pred_keeps_no_cell(self, tmp_path):
        path = write_large_results(tmp_path / "IVM_results.csv", rows=2600)
        (_, pred), _, peak = traced_peak(lambda: cli._decision_columns(path, "human_decision", "abstract"))
        assert pred == [None] * 2600
        assert peak < 1_000_000, peak

    def test_missing_pred_column_closes_the_results_file(self, tmp_path, corpus_files):
        config = make_workspace(tmp_path)
        invoke(config, "screen")
        corpus_files.clear()
        with reported_unraisable() as reported:
            result = invoke(config, "evaluate", "--dataset", "IVM", "--pred", "nonexistent")
            assert result.exit_code == 2
            assert "missing column 'nonexistent'" in result.output
            # Closed while the result still holds the failure's traceback.
            assert any(Path(fh.name).name == "IVM_results.csv" for fh in corpus_files)
            assert all(fh.closed for fh in corpus_files)
            corpus_files.clear()
            del result
        assert reported == []


class TestMalformedCsv:
    def test_non_utf8_dataset_exits_two_from_screen(self, tmp_path):
        config = make_workspace(tmp_path)
        (tmp_path / "data" / "IVM.csv").write_bytes(b"title,abstract\r\nt0,a0\r\ncaf\xe9,x\r\n")
        result = invoke(config, "screen")
        assert result.exit_code == 2
        assert "IVM.csv line 3: not UTF-8 text" in result.output
        assert "Traceback" not in result.output

    def test_unterminated_quote_exits_two_from_evaluate(self, tmp_path):
        config = make_workspace(tmp_path)
        assert invoke(config, "screen").exit_code == 0
        results = tmp_path / "out" / "IVM_results.csv"
        with open(results, "a", newline="", encoding="ascii") as fh:
            fh.write('t4,"never closed\r\n' + "x" * 140_000 + "\r\n")
        result = invoke(config, "evaluate", "--dataset", "IVM")
        assert result.exit_code == 2
        assert "IVM_results.csv line 7: not a CSV row: field larger than field limit" in result.output
        assert "Traceback" not in result.output


class TestEvaluateValidates:
    @pytest.mark.parametrize("flag,value", [("--temperature", "nan"), ("--max-in-flight", "0")])
    def test_evaluate_exits_two_with_the_message_screen_gives(self, tmp_path, flag, value):
        config = make_workspace(tmp_path)
        assert invoke(config, "screen").exit_code == 0
        screened = invoke(config, "screen", flag, value)
        evaluated = invoke(config, "evaluate", "--all", flag, value)
        assert screened.exit_code == evaluated.exit_code == 2
        assert evaluated.output == screened.output
        assert not (tmp_path / "out" / "metrics.json").exists()


class TestBadInputExitsTwo:
    """Config files, backends and flag combinations that cannot work exit 2, with no traceback."""

    @pytest.mark.parametrize(
        "base_url", ["api.example.invalid", "ftp://api.example.com", "https://", "http://api.example.com:port"]
    )
    def test_base_url_without_http_scheme_and_host_exits_two_before_any_change(
        self, tmp_path, monkeypatch, base_url
    ):
        monkeypatch.setenv("ABSIEVE_API_KEY", "k")
        config = make_workspace(tmp_path)
        assert invoke(config, "screen").exit_code == 0
        results = tmp_path / "out" / "IVM_results.csv"
        screened = results.read_bytes()
        (tmp_path / "out" / "run_log.jsonl").unlink()
        config.write_text(
            config.read_text().replace(
                f"mock_script = {tmp_path / 'mock_script.json'}", f"base_url = {base_url}"
            )
        )
        result = invoke(config, "screen")
        assert result.exit_code == 2
        assert f"backend.base_url must be an http:// or https:// URL with a host, got {base_url!r}" in result.output
        assert not (tmp_path / "out" / "run_log.jsonl").exists()
        assert results.read_bytes() == screened

    def test_config_file_not_utf8_exits_two(self, tmp_path):
        config = make_workspace(tmp_path)
        config.write_bytes(config.read_bytes().replace(b"model = test-model", b"model = caf\xe9"))
        result = invoke(config, "screen")
        assert result.exit_code == 2
        assert f"config file {config} cannot be read: 'utf-8' codec can't decode byte 0xe9" in result.output
        assert not (tmp_path / "out").exists()

    def test_config_path_naming_a_directory_exits_two(self, tmp_path):
        result = runner.invoke(main, ["screen", "--config", str(tmp_path)], catch_exceptions=False)
        assert result.exit_code == 2
        assert f"config file {tmp_path} cannot be read: [Errno 21] Is a directory" in result.output
        assert "exactly one backend" not in result.output

    def test_mock_script_naming_a_directory_exits_two(self, tmp_path):
        config = make_workspace(tmp_path)
        (tmp_path / "scripts").mkdir()
        result = invoke(config, "screen", "--mock-script", str(tmp_path / "scripts"))
        assert result.exit_code == 2
        assert f"backend.mock_script {tmp_path / 'scripts'}: cannot be read: [Errno 21]" in result.output
        assert not (tmp_path / "out" / "run_log.jsonl").exists()

    @pytest.mark.parametrize("command", ["explain", "reflect"])
    def test_rows_with_sample_exits_two(self, tmp_path, command):
        config = make_workspace(tmp_path)
        assert invoke(config, "screen").exit_code == 0
        results = tmp_path / "out" / "IVM_results.csv"
        screened = results.read_bytes()
        log_size = (tmp_path / "out" / "run_log.jsonl").stat().st_size
        result = invoke(config, command, "--dataset", "IVM", "--rows", "1,2", "--sample", "5")
        assert result.exit_code == 2
        assert "--rows and --sample are mutually exclusive" in result.output
        assert results.read_bytes() == screened
        assert (tmp_path / "out" / "run_log.jsonl").stat().st_size == log_size
