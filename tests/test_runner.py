from __future__ import annotations

import json
import sys
import threading
import time
from contextlib import closing

import pytest

from absieve.corpus import (
    CriteriaSet,
    Decision,
    IoFailure,
    ManifestEntry,
    ScreeningManifest,
    ScreeningRecord,
    fold_journal,
    load_dataset,
    write_results,
)
from absieve.llm import (
    CompletionResult,
    FatalBackendError,
    MockBackend,
    MockScript,
    TransientBackendError,
    count_tokens_estimate,
)
from absieve.prompts import PromptKind, build_decision_prompt
from absieve.runner import (
    ConfigInvalid,
    RunConfig,
    _RunLog,
    estimate_cost,
    run_explanations,
    run_screening,
)
from conftest import read_csv_rows, write_dataset

MANIFEST = ScreeningManifest(
    (
        ManifestEntry("D", CriteriaSet("inc", "exc")),
        ManifestEntry("D2", CriteriaSet("inc2", "exc2")),
    )
)
CRITERIA = MANIFEST.criteria_for("D")


def fast_config(**overrides) -> RunConfig:
    config = RunConfig(
        requests_per_minute=1_000_000, backoff_base_s=0.001, max_retries=5, max_in_flight=4
    )
    for key, value in overrides.items():
        setattr(config, key, value)
    return config


def make_records(n: int) -> list[ScreeningRecord]:
    return [ScreeningRecord(i, f"title {i}", f"abstract {i}") for i in range(n)]


def mock(script: dict, delay_s: float = 0.0) -> MockBackend:
    return MockBackend(MockScript.from_dict(script), delay_s=delay_s)


class ScriptedBackend:
    """Plays an explicit call-by-call sequence of texts or exceptions."""

    def __init__(self, sequence):
        self._sequence = list(sequence)
        self._lock = threading.Lock()
        self.calls = 0

    def complete(self, request):
        with self._lock:
            item = self._sequence[min(self.calls, len(self._sequence) - 1)]
            self.calls += 1
        if isinstance(item, BaseException):
            raise item
        return CompletionResult(text=item, input_tokens=1, output_tokens=1, latency_ms=0.0)


class AbortAfter:
    """Lets ``allowed`` calls through, then simulates a hard interrupt."""

    def __init__(self, inner, allowed: int):
        self._inner = inner
        self._allowed = allowed
        self._lock = threading.Lock()

    def complete(self, request):
        with self._lock:
            if self._allowed <= 0:
                raise KeyboardInterrupt
            self._allowed -= 1
        return self._inner.complete(request)


class TestRunScreening:
    def test_script_replay(self, tmp_path):
        backend = mock({"D/0": "included", "D/1": "excluded", "D/2": "excluded"})
        records = make_records(3)
        report = run_screening(MANIFEST, {"D": records}, backend, fast_config(), tmp_path)
        assert [r.model_decision for r in records] == [
            Decision.INCLUDED,
            Decision.EXCLUDED,
            Decision.EXCLUDED,
        ]
        stats = report.datasets["D"]
        assert stats.rows_screened == 3
        assert stats.included_count == 1
        assert stats.excluded_count == 2
        rows = read_csv_rows(tmp_path / "D_results.csv")
        assert [r["decision"] for r in rows] == ["included", "excluded", "excluded"]

    def test_resume_skips_decided_rows(self, tmp_path):
        backend = mock({"default": "excluded"})
        records = make_records(3)
        records[0].model_decision = Decision.INCLUDED
        report = run_screening(MANIFEST, {"D": records}, backend, fast_config(), tmp_path)
        assert backend.call_count == 2
        assert report.datasets["D"].rows_skipped_resume == 1
        assert records[0].model_decision is Decision.INCLUDED

    def test_fully_decided_dataset_calls_backend_zero_times(self, tmp_path):
        backend = mock({"default": "excluded"})
        records = make_records(2)
        for r in records:
            r.model_decision = Decision.EXCLUDED
        run_screening(MANIFEST, {"D": records}, backend, fast_config(), tmp_path)
        assert backend.call_count == 0

    def test_persistent_fault_marks_row_error_and_run_completes(self, tmp_path):
        backend = mock(
            {"default": "included", "failures": {"D/1": {"status": 500, "count": 99}}}
        )
        records = make_records(3)
        report = run_screening(
            MANIFEST, {"D": records}, backend, fast_config(max_retries=2), tmp_path
        )
        assert records[1].model_decision is Decision.ERROR
        assert records[0].model_decision is Decision.INCLUDED
        assert records[2].model_decision is Decision.INCLUDED
        assert report.datasets["D"].error_count == 1
        # 1 initial + 2 retries for the failing row, 1 each for the others.
        assert backend.call_count == 5

    def test_transient_errors_then_success(self, tmp_path):
        backend = mock(
            {"D/0": "included", "failures": {"D/0": {"status": 429, "count": 2}}}
        )
        records = make_records(1)
        run_screening(MANIFEST, {"D": records}, backend, fast_config(max_retries=2), tmp_path)
        assert records[0].model_decision is Decision.INCLUDED
        assert backend.call_count == 3

    def test_fatal_error_marks_row_without_retry(self, tmp_path):
        backend = mock(
            {"default": "included", "failures": {"D/0": {"status": 400, "count": 1}}}
        )
        records = make_records(2)
        report = run_screening(MANIFEST, {"D": records}, backend, fast_config(), tmp_path)
        assert records[0].model_decision is Decision.ERROR
        assert records[1].model_decision is Decision.INCLUDED
        assert report.error_count == 1
        assert backend.call_count == 2

    def test_unparseable_response_reasked_once(self, tmp_path):
        backend = mock({"default": "no idea, sorry"})
        records = make_records(1)
        report = run_screening(MANIFEST, {"D": records}, backend, fast_config(), tmp_path)
        assert records[0].model_decision is Decision.UNPARSEABLE
        assert backend.call_count == 2
        assert report.datasets["D"].unparseable_count == 1

    def test_reask_can_recover_a_decision(self, tmp_path):
        backend = ScriptedBackend(["garbage", "included"])
        records = make_records(1)
        run_screening(MANIFEST, {"D": records}, backend, fast_config(), tmp_path)
        assert records[0].model_decision is Decision.INCLUDED
        assert backend.calls == 2

    def test_reask_failing_transiently_yields_unparseable(self, tmp_path):
        backend = ScriptedBackend(["garbage", TransientBackendError("boom")])
        records = make_records(1)
        run_screening(MANIFEST, {"D": records}, backend, fast_config(), tmp_path)
        assert records[0].model_decision is Decision.UNPARSEABLE
        assert backend.calls == 2

    def test_reask_failing_fatally_yields_error_and_keeps_tokens(self, tmp_path):
        backend = ScriptedBackend(["garbage", FatalBackendError("bad request")])
        records = make_records(1)
        report = run_screening(MANIFEST, {"D": records}, backend, fast_config(), tmp_path)
        assert records[0].model_decision is Decision.ERROR
        assert backend.calls == 2
        # The unreadable first reply was billed and stays in the ledger.
        assert (report.input_tokens, report.output_tokens) == (1, 1)

    def test_per_row_call_budget_ceiling(self, tmp_path):
        # Worst case: max_retries transient errors, then two unreadable answers.
        backend = ScriptedBackend(
            [TransientBackendError("a"), TransientBackendError("b"), "garbage", "garbage"]
        )
        records = make_records(1)
        run_screening(
            MANIFEST, {"D": records}, backend, fast_config(max_retries=2), tmp_path
        )
        assert records[0].model_decision is Decision.UNPARSEABLE
        assert backend.calls == 4  # never more than 1 + max_retries + 1 re-ask

    def test_unknown_dataset_rejected(self, tmp_path):
        from absieve.corpus import UnknownDataset

        with pytest.raises(UnknownDataset):
            run_screening(
                MANIFEST, {"NOPE": make_records(1)}, mock({}), fast_config(), tmp_path
            )

    def test_output_order_independent_of_completion_order(self, tmp_path):
        class SlowFirst:
            def complete(self, request):
                time.sleep(0.05 * (3 - request.row_index))
                return CompletionResult("included", 1, 1, 0.0)

        records = make_records(4)
        run_screening(MANIFEST, {"D": records}, SlowFirst(), fast_config(), tmp_path)
        rows = read_csv_rows(tmp_path / "D_results.csv")
        assert [r["title"] for r in rows] == [f"title {i}" for i in range(4)]

    def test_two_identical_runs_are_byte_identical(self, tmp_path):
        script = {"default": "excluded", "D/3": "included", "D/5": "no clue"}
        for sub in ("a", "b"):
            records = make_records(8)
            run_screening(
                MANIFEST, {"D": records}, mock(script), fast_config(), tmp_path / sub
            )
        assert (tmp_path / "a" / "D_results.csv").read_bytes() == (
            tmp_path / "b" / "D_results.csv"
        ).read_bytes()

    def test_multiple_datasets_processed_in_order(self, tmp_path):
        backend = mock({"default": "excluded"})
        report = run_screening(
            MANIFEST,
            {"D": make_records(2), "D2": make_records(3)},
            backend,
            fast_config(),
            tmp_path,
        )
        assert list(report.datasets) == ["D", "D2"]
        assert (tmp_path / "D_results.csv").exists()
        assert (tmp_path / "D2_results.csv").exists()
        assert backend.call_count == 5

    def test_empty_abstract_rows_screened_and_counted(self, tmp_path):
        records = [ScreeningRecord(0, "only title", ""), ScreeningRecord(1, "t", "a")]
        backend = mock({"default": "excluded"})
        report = run_screening(MANIFEST, {"D": records}, backend, fast_config(), tmp_path)
        assert report.datasets["D"].empty_abstract_count == 1
        assert records[0].model_decision is Decision.EXCLUDED

    def test_report_invariants(self, tmp_path):
        script = {
            "default": "included",
            "D/1": "hmm",
            "failures": {"D/2": {"status": 400, "count": 1}},
        }
        records = make_records(4)
        records[3].model_decision = Decision.EXCLUDED
        report = run_screening(MANIFEST, {"D": records}, mock(script), fast_config(), tmp_path)
        stats = report.datasets["D"]
        assert stats.rows_total == stats.rows_screened + stats.rows_skipped_resume
        assert (
            stats.included_count
            + stats.excluded_count
            + stats.unparseable_count
            + stats.error_count
            == stats.rows_screened
        )

    def test_token_and_cost_ledger(self, tmp_path):
        records = make_records(2)
        backend = mock({"default": "included"})
        config = fast_config(price_per_1k_input=1.0, price_per_1k_output=2.0)
        report = run_screening(MANIFEST, {"D": records}, backend, config, tmp_path)
        expected_in = sum(
            count_tokens_estimate(build_decision_prompt(r, CRITERIA).body) for r in records
        )
        expected_out = 2 * count_tokens_estimate("included")
        assert report.input_tokens == expected_in
        assert report.output_tokens == expected_out
        assert report.estimated_cost == pytest.approx(
            expected_in / 1000 * 1.0 + expected_out / 1000 * 2.0
        )

    def test_run_log_records_every_call(self, tmp_path):
        log_path = tmp_path / "run.jsonl"
        script = {"D/0": "included", "failures": {"D/0": {"status": 429, "count": 1}}}
        run_screening(
            MANIFEST, {"D": make_records(1)}, mock(script), fast_config(), tmp_path, log_path
        )
        lines = [json.loads(line) for line in log_path.read_text().splitlines()]
        assert len(lines) == 2
        assert lines[0]["outcome"] == "transient_error"
        assert lines[1]["outcome"] == "ok"
        assert [line["attempt"] for line in lines] == [1, 2]
        for line in lines:
            assert set(line) == {
                "dataset",
                "row",
                "attempt",
                "latency_ms",
                "input_tokens",
                "output_tokens",
                "outcome",
            }


class OpenSpy:
    """Stands in for ``open`` inside the runner and keeps every file it opened."""

    def __init__(self):
        self.files = []

    def __call__(self, *args, **kwargs):
        fh = open(*args, **kwargs)
        self.files.append((str(args[0]), fh))
        return fh

    def opened(self, path) -> int:
        return sum(1 for name, _ in self.files if name == str(path))

    def all_closed(self) -> bool:
        return all(fh.closed for _, fh in self.files)


class TestRunLog:
    def test_line_bytes(self, tmp_path):
        log_path = tmp_path / "run.jsonl"
        backend = ScriptedBackend(["included"])
        run_screening(MANIFEST, {"D": make_records(1)}, backend, fast_config(), tmp_path, log_path)
        assert log_path.read_bytes() == (
            b'{"attempt": 1, "dataset": "D", "input_tokens": 1, "latency_ms": 0.0, '
            b'"outcome": "ok", "output_tokens": 1, "row": 0}\n'
        )

    def test_runs_append_to_one_log(self, tmp_path):
        log_path = tmp_path / "run.jsonl"
        for _ in range(2):
            run_screening(
                MANIFEST,
                {"D": make_records(3)},
                mock({"default": "excluded"}),
                fast_config(),
                tmp_path,
                log_path,
            )
        assert len(log_path.read_text().splitlines()) == 6

    def test_no_calls_no_log_file(self, tmp_path):
        records = make_records(2)
        for r in records:
            r.model_decision = Decision.EXCLUDED
        log_path = tmp_path / "run.jsonl"
        run_screening(MANIFEST, {"D": records}, mock({}), fast_config(), tmp_path, log_path)
        assert not log_path.exists()

    def test_concurrent_records_stay_whole(self, tmp_path):
        log_path = tmp_path / "run.jsonl"
        threads_n, per_thread = 8, 200
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with _RunLog(log_path) as log:
                threads = [
                    threading.Thread(
                        target=lambda t=t: [log.record(thread=t, n=n) for n in range(per_thread)]
                    )
                    for t in range(threads_n)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                    assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        lines = [json.loads(line) for line in log_path.read_text().splitlines()]
        assert sorted((line["thread"], line["n"]) for line in lines) == [
            (t, n) for t in range(threads_n) for n in range(per_thread)
        ]

    def test_opened_once_per_run_and_closed(self, tmp_path, monkeypatch):
        spy = OpenSpy()
        monkeypatch.setattr("absieve.runner.open", spy, raising=False)
        log_path = tmp_path / "run.jsonl"
        datasets = {"D": make_records(4), "D2": make_records(3)}
        backend = mock({"default": "excluded"})
        run_screening(MANIFEST, datasets, backend, fast_config(), tmp_path, log_path)
        assert spy.opened(log_path) == 1
        assert spy.all_closed()
        assert len(log_path.read_text().splitlines()) == 7

    def test_closed_after_interrupt(self, tmp_path, monkeypatch):
        spy = OpenSpy()
        monkeypatch.setattr("absieve.runner.open", spy, raising=False)
        log_path = tmp_path / "run.jsonl"
        backend = AbortAfter(mock({"default": "excluded"}), allowed=2)
        with pytest.raises(KeyboardInterrupt):
            run_screening(
                MANIFEST, {"D": make_records(5)}, backend, fast_config(max_in_flight=1), tmp_path, log_path
            )
        assert spy.opened(log_path) == 1
        assert spy.all_closed()

    def test_explanations_open_once_and_close(self, tmp_path, monkeypatch):
        spy = OpenSpy()
        monkeypatch.setattr("absieve.runner.open", spy, raising=False)
        records = make_records(3)
        for r in records:
            r.human_decision = r.model_decision = Decision.INCLUDED
        log_path = tmp_path / "run.jsonl"
        run_explanations(
            records, CRITERIA, mock({"default": "why"}), fast_config(), PromptKind.EXPLAIN, "D", log_path
        )
        assert spy.opened(log_path) == 1
        assert spy.all_closed()
        assert len(log_path.read_text().splitlines()) == 3


class TestRateAndConcurrency:
    def test_request_starts_are_spaced(self, tmp_path):
        backend = mock({"default": "excluded"})
        config = fast_config(requests_per_minute=600)  # 0.1s nominal spacing
        run_screening(MANIFEST, {"D": make_records(5)}, backend, config, tmp_path)
        starts = sorted(backend.start_times())
        gaps = [b - a for a, b in zip(starts, starts[1:])]
        assert min(gaps) >= 0.09

    def test_in_flight_never_exceeds_limit(self, tmp_path):
        backend = mock({"default": "excluded"}, delay_s=0.05)
        config = fast_config(max_in_flight=3)
        run_screening(MANIFEST, {"D": make_records(12)}, backend, config, tmp_path)
        assert backend.max_in_flight_observed <= 3
        assert backend.max_in_flight_observed >= 2  # the pool really overlaps calls

    def test_retries_also_pass_through_the_limiter(self, tmp_path):
        script = {"default": "excluded", "failures": {"D/0": {"status": 429, "count": 2}}}
        backend = mock(script)
        config = fast_config(requests_per_minute=600, max_retries=3, backoff_base_s=0.0)
        run_screening(MANIFEST, {"D": make_records(1)}, backend, config, tmp_path)
        starts = sorted(backend.start_times())
        gaps = [b - a for a, b in zip(starts, starts[1:])]
        assert len(starts) == 3
        assert min(gaps) >= 0.09


class TestPulledAheadBound:
    """Only ``2 * max_in_flight`` records may be taken from the rows and not yet handed back."""

    @pytest.fixture
    def largest_gap(self, monkeypatch):
        import absieve.runner

        gaps = []
        real_dispatch = absieve.runner._dispatch

        def counting_dispatch(config, records, fn):
            pulled = 0

            def counted():
                nonlocal pulled
                for record in records:
                    pulled += 1
                    yield record

            yielded = 0
            with closing(real_dispatch(config, counted(), fn)) as replies:
                for item in replies:
                    yielded += 1
                    gaps.append(pulled - yielded)
                    yield item

        monkeypatch.setattr(absieve.runner, "_dispatch", counting_dispatch)
        return lambda: max(gaps)

    def test_screening_pulls_at_most_two_windows_ahead(self, tmp_path, largest_gap):
        config = fast_config(max_in_flight=2)
        records = make_records(50)
        run_screening(MANIFEST, {"D": records}, mock({"default": "excluded"}), config, tmp_path)
        assert all(r.model_decision is Decision.EXCLUDED for r in records)
        assert largest_gap() <= 2 * config.max_in_flight

    def test_explanations_pull_at_most_two_windows_ahead(self, largest_gap):
        config = fast_config(max_in_flight=2)
        records = make_records(50)
        for r in records:
            r.human_decision = r.model_decision = Decision.INCLUDED
        report = run_explanations(
            records, CRITERIA, mock({"default": "why"}), config, PromptKind.EXPLAIN, "D"
        )
        assert report.annotated_count == 50
        assert largest_gap() <= 2 * config.max_in_flight

    def test_every_record_comes_back_once_under_contention(self, largest_gap):
        import absieve.runner

        config = fast_config(max_in_flight=8)  # more workers than cores
        records = make_records(2000)
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            replies = list(absieve.runner._dispatch(config, records, lambda r: r.row_index))
        finally:
            sys.setswitchinterval(previous)
        assert sorted(reply for _, reply in replies) == list(range(2000))
        assert all(record.row_index == reply for record, reply in replies)
        assert largest_gap() <= 2 * config.max_in_flight


class TestCheckpointing:
    def test_interrupt_then_resume_matches_uninterrupted(self, tmp_path):
        script = {"default": "excluded", "D/2": "included", "D/4": "included"}
        n = 6

        straight = tmp_path / "straight"
        records = make_records(n)
        run_screening(MANIFEST, {"D": records}, mock(script), fast_config(), straight)
        expected = (straight / "D_results.csv").read_bytes()

        crashed = tmp_path / "crashed"
        records = make_records(n)
        backend = AbortAfter(mock(script), allowed=2)
        with pytest.raises(KeyboardInterrupt):
            run_screening(
                MANIFEST, {"D": records}, backend, fast_config(max_in_flight=2), crashed
            )
        checkpoint = read_csv_rows(crashed / "D_results.csv")
        assert len(checkpoint) == n  # full table, partially decided
        assert sum(1 for row in checkpoint if row["decision"]) <= 2

        resumed = load_dataset(crashed / "D_results.csv", "D", MANIFEST)
        run_screening(MANIFEST, {"D": resumed}, mock(script), fast_config(), crashed)
        assert (crashed / "D_results.csv").read_bytes() == expected

    def test_checkpoint_every_bounds_loss(self, tmp_path):
        records = make_records(5)
        backend = AbortAfter(mock({"default": "excluded"}), allowed=3)
        with pytest.raises(KeyboardInterrupt):
            run_screening(
                MANIFEST,
                {"D": records},
                backend,
                fast_config(max_in_flight=1, checkpoint_every=1),
                tmp_path,
            )
        decided = [row for row in read_csv_rows(tmp_path / "D_results.csv") if row["decision"]]
        assert len(decided) == 3  # nothing completed was lost at checkpoint_every=1

    def test_interrupt_writes_csv_and_removes_journal(self, tmp_path):
        backend = AbortAfter(mock({"default": "excluded"}), allowed=3)
        with pytest.raises(KeyboardInterrupt):
            run_screening(
                MANIFEST,
                {"D": make_records(5)},
                backend,
                fast_config(max_in_flight=1, checkpoint_every=100),
                tmp_path,
            )
        decided = [row for row in read_csv_rows(tmp_path / "D_results.csv") if row["decision"]]
        assert len(decided) == 3
        assert not (tmp_path / "D_results.journal.jsonl").exists()

    def test_interrupt_on_the_coordinator_stops_dispatch(self, tmp_path, monkeypatch):
        def interrupted(record):
            raise KeyboardInterrupt

        monkeypatch.setattr("absieve.runner.journal_entry", interrupted)
        backend = mock({"default": "excluded"}, delay_s=0.01)
        config = fast_config(max_in_flight=2)
        with pytest.raises(KeyboardInterrupt):
            run_screening(MANIFEST, {"D": make_records(50)}, backend, config, tmp_path)
        calls = backend.call_count
        time.sleep(0.1)
        assert backend.call_count == calls <= 2 * config.max_in_flight
        assert len(read_csv_rows(tmp_path / "D_results.csv")) == 50

    def test_worker_failure_keeps_the_successes_that_finished_first(self, tmp_path, monkeypatch):
        import absieve.runner

        successes_returned = threading.Barrier(4)
        failed = threading.Event()

        class FailsLast:
            def complete(self, request):
                successes_returned.wait(timeout=10)  # all four calls are in flight together
                if request.row_index < 3:
                    return CompletionResult("included", 1, 1, 0.0)
                time.sleep(0.2)  # the three successes reach the dispatcher first
                failed.set()
                raise RuntimeError("worker crashed")

        journaled = []
        real_entry = absieve.runner.journal_entry

        def slow_entry(record):
            # Hold the coordinator at the first row until the failure is queued behind the rest.
            if not journaled:
                assert failed.wait(timeout=10)
                time.sleep(0.1)
            journaled.append(record.row_index)
            return real_entry(record)

        monkeypatch.setattr(absieve.runner, "journal_entry", slow_entry)
        with pytest.raises(RuntimeError, match="worker crashed"):
            run_screening(
                MANIFEST, {"D": make_records(4)}, FailsLast(), fast_config(max_in_flight=4), tmp_path
            )
        assert sorted(journaled) == [0, 1, 2]
        decisions = [row["decision"] for row in read_csv_rows(tmp_path / "D_results.csv")]
        assert decisions == ["included", "included", "included", ""]
        assert not (tmp_path / "D_results.journal.jsonl").exists()

    def test_journal_holds_rows_since_the_last_csv_write(self, tmp_path):
        journal = tmp_path / "D_results.journal.jsonl"
        seen = []

        class Watcher:
            """Reads the journal from inside the run, as a killed process would leave it."""

            def complete(self, request):
                seen.append(journal.read_text().splitlines())
                return CompletionResult("included" if request.row_index == 1 else "excluded", 1, 1, 0.0)

        journal.write_text('{"row": 2, "decision": "error"}\n')  # left by a killed run
        records = make_records(4)
        records[3].model_decision = Decision.EXCLUDED
        assert fold_journal(records, journal) == 1  # as `screen --resume` reads the dataset
        run_screening(MANIFEST, {"D": records}, Watcher(), fast_config(max_in_flight=1), tmp_path)
        assert seen[0] == ['{"row": 2, "decision": "error"}']  # the leftover journal is extended
        assert set(seen[-1]) <= {
            '{"row": 2, "decision": "error"}',
            '{"row": 0, "decision": "excluded"}',
            '{"row": 1, "decision": "included"}',
        }
        assert not journal.exists()

    def test_failed_final_write_leaves_a_closed_full_journal(self, tmp_path, monkeypatch):
        import absieve.runner

        real_write = absieve.runner.write_results
        writes = []

        def fails_first_write(records, path):
            writes.append(path)
            if len(writes) == 1:
                raise IoFailure(f"cannot write {path}: disk full")
            real_write(records, path)

        monkeypatch.setattr(absieve.runner, "write_results", fails_first_write)
        script = {"default": "excluded", "D/3": "included", "D/17": "included"}
        with pytest.raises(IoFailure) as held:
            run_screening(
                MANIFEST,
                {"D": make_records(20)},
                mock(script),
                fast_config(max_in_flight=2, checkpoint_every=1000),
                tmp_path,
            )
        # `held` keeps the exception, and with it the frame that opened the
        # journal, alive: the journal must be complete without garbage collection.
        journal = tmp_path / "D_results.journal.jsonl"
        assert len(journal.read_text().splitlines()) == 20
        recovered = make_records(20)
        assert fold_journal(recovered, journal) == 20
        assert [r.model_decision for r in recovered] == [
            Decision.INCLUDED if i in (3, 17) else Decision.EXCLUDED for i in range(20)
        ]

    def test_leftover_journal_is_cut_at_its_torn_line_then_extended(self, tmp_path, monkeypatch):
        import absieve.runner

        csv_path, journal = tmp_path / "D_results.csv", tmp_path / "D_results.journal.jsonl"
        write_results(make_records(4), csv_path)
        before = csv_path.read_bytes()
        journal.write_text('{"row": 0, "decision": "included"}\n{"row": 1, "deci')
        records = load_dataset(csv_path, "D", MANIFEST)
        assert fold_journal(records, journal) == 1

        def fails(records, path):
            raise IoFailure(f"cannot write {path}: disk full")

        # Any write fails, so the CSV and journal stay as a kill after the last row leaves them.
        monkeypatch.setattr(absieve.runner, "write_results", fails)
        with pytest.raises(IoFailure):
            run_screening(
                MANIFEST, {"D": records}, mock({"default": "excluded"}), fast_config(max_in_flight=1), tmp_path
            )
        assert csv_path.read_bytes() == before  # the journal extends the CSV that was read
        lines = journal.read_text().splitlines()
        assert lines[0] == '{"row": 0, "decision": "included"}'
        assert sorted(lines[1:]) == [f'{{"row": {i}, "decision": "excluded"}}' for i in (1, 2, 3)]
        recovered = load_dataset(csv_path, "D", MANIFEST)
        assert fold_journal(recovered, journal) == 4
        assert [r.model_decision for r in recovered] == [Decision.INCLUDED] + [Decision.EXCLUDED] * 3

    def test_results_csv_without_journal_is_extended_by_a_new_one(self, tmp_path):
        csv_path = tmp_path / "D_results.csv"
        before = write_dataset(csv_path, [{"title": f"t{i}", "abstract": f"a{i}"} for i in range(3)]).read_bytes()
        seen = []

        class Watcher:
            def complete(self, request):
                seen.append(csv_path.read_bytes())
                return CompletionResult("excluded", 1, 1, 0.0)

        records = load_dataset(csv_path, "D", MANIFEST)
        run_screening(MANIFEST, {"D": records}, Watcher(), fast_config(max_in_flight=1), tmp_path)
        assert seen == [before] * 3
        assert [row["decision"] for row in read_csv_rows(csv_path)] == ["excluded"] * 3
        assert not (tmp_path / "D_results.journal.jsonl").exists()


class TestRunExplanations:
    def _annotated_records(self) -> list[ScreeningRecord]:
        records = make_records(3)
        records[0].human_decision = Decision.INCLUDED
        records[0].model_decision = Decision.INCLUDED
        records[1].human_decision = Decision.INCLUDED
        records[1].model_decision = Decision.EXCLUDED
        records[2].model_decision = Decision.INCLUDED  # no human decision
        return records

    def test_reflect_fills_disagreements_only(self, tmp_path):
        records = self._annotated_records()
        backend = mock({"D/1": "the call was wrong because ..."})
        report = run_explanations(
            records, CRITERIA, backend, fast_config(), PromptKind.REFLECT, "D"
        )
        assert records[1].reflection == "the call was wrong because ..."
        assert records[0].reflection is None
        assert report.annotated_count == 1
        assert report.skipped_count == 2

    def test_explain_fills_decided_rows_with_ground_truth(self, tmp_path):
        records = self._annotated_records()
        backend = mock({"D/0": "first rationale", "D/1": "second rationale"})
        report = run_explanations(
            records, CRITERIA, backend, fast_config(), PromptKind.EXPLAIN, "D"
        )
        assert records[0].explanation == "first rationale"
        assert records[1].explanation == "second rationale"
        assert records[2].explanation is None
        assert report.annotated_count == 2
        assert report.skipped_count == 1

    def test_nothing_eligible_returns_without_calls(self):
        records = make_records(2)  # nobody has decisions
        backend = mock({"default": "text"})
        report = run_explanations(
            records, CRITERIA, backend, fast_config(), PromptKind.REFLECT, "D"
        )
        assert report.annotated_count == 0
        assert report.skipped_count == 2
        assert backend.call_count == 0

    def test_backend_failure_counts_as_error(self):
        records = self._annotated_records()
        backend = mock(
            {"default": "fine", "failures": {"D/0": {"status": 400, "count": 1}}}
        )
        report = run_explanations(
            records, CRITERIA, backend, fast_config(), PromptKind.EXPLAIN, "D"
        )
        assert report.error_count == 1
        assert report.annotated_count == 1
        assert records[0].explanation is None

    def test_transient_errors_then_success(self, tmp_path):
        records = self._annotated_records()
        backend = ScriptedBackend(
            [TransientBackendError("a"), TransientBackendError("b"), "a rationale"]
        )
        log_path = tmp_path / "run.jsonl"
        report = run_explanations(
            records[:1], CRITERIA, backend, fast_config(), PromptKind.EXPLAIN, "D", log_path
        )
        assert records[0].explanation == "a rationale"
        assert report.annotated_count == 1
        assert backend.calls == 3
        outcomes = [json.loads(line)["outcome"] for line in log_path.read_text().splitlines()]
        assert outcomes == ["transient_error", "transient_error", "ok"]

    def test_retries_exhausted_counts_as_error(self):
        records = self._annotated_records()
        backend = ScriptedBackend([TransientBackendError("always")])
        report = run_explanations(
            records[:1], CRITERIA, backend, fast_config(max_retries=2), PromptKind.EXPLAIN, "D"
        )
        assert report.error_count == 1
        assert report.annotated_count == 0
        assert records[0].explanation is None
        assert backend.calls == 3

    def test_in_flight_never_exceeds_limit(self):
        records = make_records(12)
        for r in records:
            r.human_decision = r.model_decision = Decision.INCLUDED
        backend = mock({"default": "why"}, delay_s=0.05)
        run_explanations(
            records, CRITERIA, backend, fast_config(max_in_flight=3), PromptKind.EXPLAIN, "D"
        )
        assert backend.max_in_flight_observed <= 3
        assert backend.call_count == 12

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            run_explanations([], CRITERIA, mock({}), fast_config(), PromptKind.DECISION, "D")


class TestEstimateCost:
    def test_empty_dataset_costs_nothing(self):
        estimate = estimate_cost(MANIFEST, {"D": []}, fast_config())
        assert estimate.cost == 0
        assert estimate.total_input_tokens == 0
        assert estimate.projected_wall_time_s == 0

    def test_arithmetic_matches_heuristic(self):
        records = make_records(3)
        config = fast_config(
            requests_per_minute=60, price_per_1k_input=0.0015, price_per_1k_output=0.002
        )
        estimate = estimate_cost(MANIFEST, {"D": records}, config)
        expected_in = sum(
            count_tokens_estimate(build_decision_prompt(r, CRITERIA).body) for r in records
        )
        assert estimate.total_input_tokens == expected_in
        assert estimate.total_output_tokens == 3
        assert estimate.cost == pytest.approx(expected_in / 1000 * 0.0015 + 3 / 1000 * 0.002)
        assert estimate.projected_wall_time_s == pytest.approx(3.0)

    def test_totals_are_sum_of_parts(self):
        estimate = estimate_cost(
            MANIFEST, {"D": make_records(2), "D2": make_records(3)}, fast_config()
        )
        assert estimate.cost == pytest.approx(sum(d.cost for d in estimate.per_dataset))
        assert estimate.total_input_tokens == sum(
            d.input_tokens for d in estimate.per_dataset
        )


class TestRunConfig:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("max_in_flight", 0),
            ("requests_per_minute", 0),
            ("max_retries", -1),
            ("backoff_base_s", -0.5),
            ("temperature", -1.0),
            ("price_per_1k_input", -0.1),
            ("model", ""),
            ("temperature", float("nan")),
            ("temperature", float("inf")),
            ("backoff_base_s", float("nan")),
            ("backoff_base_s", float("inf")),
            ("price_per_1k_input", float("nan")),
            ("price_per_1k_output", float("inf")),
            ("price_per_1k_output", float("-inf")),
        ],
    )
    def test_invalid_values_rejected_by_name(self, field, value):
        config = RunConfig()
        setattr(config, field, value)
        with pytest.raises(ConfigInvalid) as exc:
            config.validate()
        assert field in str(exc.value)
