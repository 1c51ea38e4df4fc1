"""Shared fixtures, file builders, and the independent metrics oracle."""

from __future__ import annotations

import contextlib
import csv
import gc
import json
import random
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

import absieve.corpus
from absieve.corpus import Decision


def write_manifest(path: Path, entries: list[tuple[str, str, str]], exclusion_header: str = "Exclusion Criteria") -> Path:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["Dataset Name", "Inclusion Criteria", exclusion_header])
        writer.writerows(entries)
    return path


def write_dataset(path: Path, rows: list[dict]) -> Path:
    """Write a dataset CSV; each row dict may carry any of the six columns."""
    columns = ["title", "abstract", "human_decision", "decision", "explanation", "reflection"]
    used = [c for c in columns if any(c in row for row in rows)] or ["title", "abstract"]
    for required in ("abstract", "title"):
        if required not in used:
            used.insert(0, required)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(used)
        for row in rows:
            writer.writerow([row.get(c, "") for c in used])
    return path


def write_mock_script(path: Path, responses: dict[str, str], default: str = "", failures: dict | None = None) -> Path:
    script: dict = dict(responses)
    script["default"] = default
    if failures:
        script["failures"] = failures
    path.write_text(json.dumps(script), encoding="utf-8")
    return path


def read_csv_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def write_large_results(path: Path, rows: int) -> Path:
    """A results CSV of ``rows`` seeded random rows with abstracts of about 1.6 KB."""
    rng = random.Random(0)
    words = ["".join(rng.choices("abcdefghijklmnopqrstuvwxyz", k=rng.randint(2, 9))) for _ in range(300)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["title", "abstract", "human_decision", "decision", "explanation", "reflection"])
        for i in range(rows):
            abstract = " ".join(rng.choices(words, k=266))
            human = rng.choice(["included", "excluded", ""])
            decision = rng.choice(["included", "excluded", "unparseable", "error", ""])
            writer.writerow([f"title {i}", abstract, human, decision, "", ""])
    return path


def traced_peak(fn):
    """``fn()``'s result, the bytes it still holds, and its tracemalloc peak above the start."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held - base, peak - base


@pytest.fixture
def corpus_files(monkeypatch) -> list:
    """Every file ``absieve.corpus`` opens while the test runs, in order."""
    opened = []

    def tracked_open(*args, **kwargs):
        fh = open(*args, **kwargs)
        opened.append(fh)
        return fh

    monkeypatch.setattr(absieve.corpus, "open", tracked_open, raising=False)
    return opened


@contextlib.contextmanager
def reported_unraisable():
    """Collect what is reported as unraisable in the block and in a garbage collection after it.

    ResourceWarning is an error inside, so a file that only a finalizer
    closes is reported here on every Python, with or without ``-X dev``.
    """
    reported: list[str] = []
    hook = sys.unraisablehook
    sys.unraisablehook = lambda args: reported.append(repr(args.exc_value))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            yield reported
            gc.collect()
    finally:
        sys.unraisablehook = hook


def brute_force_metrics(truth: list[Decision | None], pred: list[Decision | None]) -> dict:
    """Recount every metric straight from the label lists, in exact arithmetic.

    Deliberately shares no code with the implementation: counts come from a
    plain loop, ratios from ``Fraction``, so this is a genuinely independent
    oracle for the randomized comparisons.
    """
    decided = (Decision.INCLUDED, Decision.EXCLUDED)
    counts = {"tp": 0, "fn": 0, "fp": 0, "tn": 0, "dropped": 0}
    for t, p in zip(truth, pred):
        if t not in decided or p not in decided:
            counts["dropped"] += 1
        elif t is Decision.INCLUDED and p is Decision.INCLUDED:
            counts["tp"] += 1
        elif t is Decision.INCLUDED and p is Decision.EXCLUDED:
            counts["fn"] += 1
        elif t is Decision.EXCLUDED and p is Decision.INCLUDED:
            counts["fp"] += 1
        else:
            counts["tn"] += 1

    tp, fn, fp, tn = counts["tp"], counts["fn"], counts["fp"], counts["tn"]
    n = tp + fn + fp + tn
    out: dict = dict(counts)
    out["n"] = n
    if n == 0:
        return out

    def ratio(num: int, den: int) -> float | None:
        return None if den == 0 else float(Fraction(num, den))

    out["accuracy"] = float(Fraction(tp + tn, n))
    out["sensitivity_included"] = ratio(tp, tp + fn)
    out["sensitivity_excluded"] = ratio(tn, tn + fp)

    p_observed = Fraction(tp + tn, n)
    p_expected = Fraction(tp + fn, n) * Fraction(tp + fp, n) + Fraction(fp + tn, n) * Fraction(fn + tn, n)
    out["kappa"] = None if p_expected == 1 else float((p_observed - p_expected) / (1 - p_expected))
    out["p_expected_is_one"] = p_expected == 1

    precision_inc = ratio(tp, tp + fp) or 0.0
    recall_inc = ratio(tp, tp + fn) or 0.0
    precision_exc = ratio(tn, tn + fn) or 0.0
    recall_exc = ratio(tn, tn + fp) or 0.0

    def f1(p: float, r: float) -> float:
        return 0.0 if p + r == 0 else 2 * p * r / (p + r)

    out["included"] = {"precision": precision_inc, "recall": recall_inc, "f1": f1(precision_inc, recall_inc), "support": tp + fn}
    out["excluded"] = {"precision": precision_exc, "recall": recall_exc, "f1": f1(precision_exc, recall_exc), "support": fp + tn}
    return out


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one pass/fail line per acceptance criterion at the end of a run."""
    reports = []
    for key in ("passed", "failed"):
        for rep in terminalreporter.stats.get(key, []):
            if getattr(rep, "when", None) == "call" and "test_acceptance" in rep.nodeid:
                reports.append((rep.nodeid.split("::")[-1], rep.passed))
    if not reports:
        return
    terminalreporter.section("acceptance criteria")
    for name, passed in sorted(reports):
        terminalreporter.write_line(f"{name}: {'PASS' if passed else 'FAIL'}")
