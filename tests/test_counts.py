"""Exact per-row operation counts of loading, screening and annotating a dataset.

Each count is pinned as at most ``a * n + b`` for a dataset of ``n`` rows and
checked at two sizes, so work that grows per row (a results CSV rewritten
for every row, a cell cleaned twice, a prompt rendered per attempt) fails
here whatever the machine's speed.
"""

from __future__ import annotations

from collections import Counter

import pytest

import absieve.corpus
import absieve.runner
from absieve.corpus import CriteriaSet, ManifestEntry, ScreeningManifest, load_dataset, results_path
from absieve.llm import MockBackend, MockScript
from absieve.prompts import PromptKind
from absieve.runner import RunConfig, run_explanations, run_screening
from conftest import write_dataset
from test_cli import results_writes  # noqa: F401  (a fixture)

MANIFEST = ScreeningManifest((ManifestEntry("D", CriteriaSet("inc", "exc")),))
# Row 0 is asked twice and stays unparseable; row 1 fails once with a 503 first.
SCRIPT = {"default": "included", "D/0": "no idea", "failures": {"D/1": {"status": 503, "count": 1}}}
CONFIG = RunConfig(requests_per_minute=10**9, max_in_flight=2, backoff_base_s=0.0)


class Counts:
    """Calls of the counted functions, and files opened by ``corpus`` and ``runner``."""

    def __init__(self, corpus_files: list):
        self.calls: Counter = Counter()
        self.opened = [corpus_files, []]

    def files(self) -> int:
        return sum(map(len, self.opened))

    def reset(self) -> None:
        self.calls.clear()
        for opened in self.opened:
            opened.clear()


@pytest.fixture
def counts(monkeypatch, corpus_files) -> Counts:
    counts = Counts(corpus_files)

    def count(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            counts.calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(absieve.corpus, "clean_text")
    for name in ("build_decision_prompt", "build_explain_prompt", "journal_entry"):
        count(absieve.runner, name)

    def tracked_open(*args, **kwargs):
        fh = open(*args, **kwargs)
        counts.opened[1].append(fh)
        return fh

    monkeypatch.setattr(absieve.runner, "open", tracked_open, raising=False)
    return counts


def log_lines(path) -> int:
    with open(path, encoding="ascii") as fh:
        return sum(1 for _ in fh)


@pytest.mark.parametrize("n", [500, 5000])
def test_per_row_operation_counts(tmp_path, counts, results_writes, n):  # noqa: F811
    rows = [
        {"title": f"title {i}", "abstract": f"abstract {i}", "human_decision": ("included", "excluded")[i % 2]}
        for i in range(n)
    ]
    source = write_dataset(tmp_path / "D.csv", rows)
    out = tmp_path / "out"
    run_log = out / "run_log.jsonl"
    backend = MockBackend(MockScript.from_dict(SCRIPT))

    counts.reset()
    records = load_dataset(source, "D", MANIFEST)
    # Four text cells per row, and the three header names.
    assert counts.calls["clean_text"] <= 4 * n + 3
    assert counts.files() <= 1

    counts.reset()
    run_screening(MANIFEST, {"D": records}, backend, CONFIG, out, run_log_path=run_log)
    screen_calls = backend.call_count
    assert screen_calls == n + 2  # the re-ask of row 0 and the retry of row 1
    assert counts.calls["clean_text"] <= 4 * n
    assert results_writes == [results_path(out, "D")]
    assert counts.calls["journal_entry"] <= n
    assert log_lines(run_log) == screen_calls
    assert counts.calls["build_decision_prompt"] == n
    assert counts.files() <= 3

    counts.reset()
    results_writes.clear()
    report = run_explanations(
        records,
        MANIFEST.criteria_for("D"),
        backend,
        CONFIG,
        PromptKind.EXPLAIN,
        "D",
        run_log_path=run_log,
        results=(records, results_path(out, "D")),
    )
    explain_calls = backend.call_count - screen_calls
    assert report.annotated_count == explain_calls == n - 1  # every row but the unparseable one
    assert counts.calls["clean_text"] <= 4 * n
    assert results_writes == [results_path(out, "D")]
    assert counts.calls["journal_entry"] <= n
    assert log_lines(run_log) == screen_calls + explain_calls
    assert counts.calls["build_explain_prompt"] == explain_calls
    assert counts.files() <= 3
