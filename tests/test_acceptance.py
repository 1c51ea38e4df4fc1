"""Acceptance suite: every criterion runs offline against the scripted mock.

Each test prints nothing on its own; conftest's terminal summary emits one
PASS/FAIL line per criterion at the end of the run. Run with:

    pytest tests/test_acceptance.py -v
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

from absieve.cli import main
from absieve.corpus import (
    CriteriaSet,
    Decision,
    ManifestEntry,
    ScreeningManifest,
    ScreeningRecord,
    load_dataset,
)
from absieve.llm import MockBackend, MockScript, parse_decision
from absieve.metrics import (
    ConfusionMatrix,
    DatasetMetrics,
    accuracy,
    classification_report,
    cohens_kappa,
    confusion_matrix,
    sensitivity,
    weighted_summary,
)
from absieve.prompts import (
    DECISION_TERMINATOR,
    build_decision_prompt,
    build_explain_prompt,
    build_reflect_prompt,
    load_template,
)
from absieve.runner import RunConfig, estimate_cost, run_screening
from conftest import brute_force_metrics, write_manifest, write_mock_script

cli_runner = CliRunner()

I, E = Decision.INCLUDED, Decision.EXCLUDED


def _write_replica(
    tmp_path: Path,
    name: str,
    n_included: int,
    true_positives: int,
    false_positives: int,
    n_total: int,
) -> Path:
    """Build a synthetic dataset plus a mock script that reproduces the given
    confusion counts, and return the CLI config path."""
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    manifest = write_manifest(tmp_path / "manifest.csv", [[name, "inc", "exc"]])

    lines = ["title,abstract,human_decision"]
    script: dict[str, str] = {}
    for row in range(n_total):
        human = "included" if row < n_included else "excluded"
        lines.append(f"row {row},abstract {row},{human}")
        if row < true_positives:
            script[f"{name}/{row}"] = "included"
        elif n_included <= row < n_included + false_positives:
            script[f"{name}/{row}"] = "included"
    (data_dir / f"{name}.csv").write_text("\n".join(lines) + "\n")
    script_path = write_mock_script(tmp_path / "script.json", script, default="excluded")

    config = tmp_path / "absieve.ini"
    config.write_text(
        f"""[backend]
mock_script = {script_path}
model = replica

[runner]
requests_per_minute = 100000000
max_in_flight = 16
checkpoint_every = 500
backoff_base_s = 0.001

[paths]
manifest = {manifest}
data_dir = {data_dir}
output_dir = {tmp_path / "out"}
"""
    )
    return config


def _screen_and_evaluate(config: Path, name: str) -> dict:
    result = cli_runner.invoke(main, ["screen", "--config", str(config)], catch_exceptions=False)
    assert result.exit_code == 0, result.output
    result = cli_runner.invoke(
        main, ["evaluate", "--dataset", name, "--config", str(config)], catch_exceptions=False
    )
    assert result.exit_code == 0, result.output
    document = json.loads((config.parent / "out" / "metrics.json").read_text())
    return document["datasets"][0]


def test_criterion_1_llm_row_replica(tmp_path):
    """2,870 rows, 23 included; tp=23 fn=0 fp=165 tn=2682; runtime < 60s."""
    started = time.monotonic()
    config = _write_replica(
        tmp_path, "LLM", n_included=23, true_positives=23, false_positives=165, n_total=2870
    )
    entry = _screen_and_evaluate(config, "LLM")
    elapsed = time.monotonic() - started

    assert entry["confusion"] == {"tp": 23, "fn": 0, "fp": 165, "tn": 2682, "dropped": 0}
    assert entry["accuracy"] == pytest.approx(0.9425, abs=0.0005)
    assert entry["sensitivity_included"] == 1.0
    assert entry["sensitivity_excluded"] == pytest.approx(0.9420, abs=0.0005)
    assert entry["kappa"] == pytest.approx(0.207, abs=0.005)
    # Consistent with the reference row 0.943 / 1.000 / 0.942 / 0.21.
    assert round(entry["accuracy"], 3) == 0.943
    assert round(entry["sensitivity_excluded"], 3) == 0.942
    assert round(entry["kappa"], 2) == 0.21
    assert elapsed < 60.0


def test_criterion_2_ivm_row_replica(tmp_path):
    """279 rows, 35 included; tp=24 fn=11 fp=59 tn=185."""
    config = _write_replica(
        tmp_path, "IVM", n_included=35, true_positives=24, false_positives=59, n_total=279
    )
    entry = _screen_and_evaluate(config, "IVM")

    assert entry["confusion"] == {"tp": 24, "fn": 11, "fp": 59, "tn": 185, "dropped": 0}
    assert entry["accuracy"] == pytest.approx(0.748, abs=0.005)
    assert entry["sensitivity_included"] == pytest.approx(0.686, abs=0.001)
    assert entry["sensitivity_excluded"] == pytest.approx(0.756, abs=0.005)


def test_criterion_3_metrics_against_brute_force_oracle():
    """1,000+ randomized label-pair lists agree with an exact recount to 1e-12."""
    rng = random.Random(31415)
    pool = [I, E, Decision.UNPARSEABLE, Decision.ERROR, None]
    checked = 0
    for iteration in range(1100):
        n = rng.randint(1, 200)
        if iteration % 10 == 0:  # degenerate: both raters constant on one class
            constant = rng.choice([I, E])
            truth, pred = [constant] * n, [constant] * n
        elif iteration % 10 == 1:  # truth constant, predictions mixed
            truth = [rng.choice([I, E])] * n
            pred = [rng.choice(pool) for _ in range(n)]
        else:
            truth = [rng.choice(pool) for _ in range(n)]
            pred = [rng.choice(pool) for _ in range(n)]

        oracle = brute_force_metrics(truth, pred)
        cm = confusion_matrix(truth, pred)
        assert cm.to_dict() == {k: oracle[k] for k in ("tp", "fn", "fp", "tn", "dropped")}
        if cm.n == 0:
            continue
        checked += 1
        assert accuracy(cm) == pytest.approx(oracle["accuracy"], abs=1e-12)
        if oracle["sensitivity_included"] is None:
            assert cm.tp + cm.fn == 0
        else:
            assert sensitivity(cm, I) == pytest.approx(oracle["sensitivity_included"], abs=1e-12)
        if oracle["sensitivity_excluded"] is None:
            assert cm.tn + cm.fp == 0
        else:
            assert sensitivity(cm, E) == pytest.approx(oracle["sensitivity_excluded"], abs=1e-12)

        kappa = cohens_kappa(cm)
        if oracle["p_expected_is_one"]:
            assert kappa is None
        else:
            assert kappa == pytest.approx(oracle["kappa"], abs=1e-12)

        report = classification_report(cm)
        for side in ("included", "excluded"):
            stats = getattr(report, side)
            assert stats.precision == pytest.approx(oracle[side]["precision"], abs=1e-12)
            assert stats.recall == pytest.approx(oracle[side]["recall"], abs=1e-12)
            assert stats.f1 == pytest.approx(oracle[side]["f1"], abs=1e-12)
    assert checked >= 1000


def test_criterion_4_prompt_goldens():
    """Rendered prompts are byte-identical to the golden template files."""
    record = ScreeningRecord(0, "Sample title", "Sample abstract")
    criteria = CriteriaSet("inclusion text", "exclusion text")

    decision_body = build_decision_prompt(record, criteria).body
    assert decision_body == load_template("decision").format(
        title="Sample title",
        abstract="Sample abstract",
        inclusion_criteria="inclusion text",
        exclusion_criteria="exclusion text",
    )
    assert (
        'Only type "included" or "excluded" to indicate your decision. '
        "Do not type anything else." in decision_body
    )
    assert decision_body.endswith("\n\nDecision:")

    screening = decision_body[: -len(DECISION_TERMINATOR)]
    explain_body = build_explain_prompt(record, criteria, I, E).body
    assert explain_body == load_template("explain").format(
        screening_prompt=screening, human_decision="included", model_decision="excluded"
    )
    reflect_body = build_reflect_prompt(record, criteria, I, E).body
    assert reflect_body == load_template("reflect").format(
        screening_prompt=screening, human_decision="included", model_decision="excluded"
    )
    assert explain_body.startswith("Explain your reasoning for the decision given")
    assert reflect_body.startswith("Explain your reasoning for why the decision given was incorrect")


def test_criterion_5_parser_property_suite():
    """10,000 decorated labels parse back; both/neither labels are unparseable."""
    rng = random.Random(99)
    quotes = ['"', "'", "`"]
    puncts = ".,:;!"
    whitespace = [" ", "\t", "\n", "  ", " \n "]

    for _ in range(10_000):
        label = rng.choice(["included", "excluded"])
        text = "".join(ch.upper() if rng.random() < 0.5 else ch for ch in label)
        for _ in range(rng.randint(0, 3)):
            style = rng.randrange(3)
            if style == 0:
                quote = rng.choice(quotes)
                text = f"{quote}{text}{quote}"
            elif style == 1:
                text += "".join(rng.choice(puncts) for _ in range(rng.randint(1, 3)))
            else:
                text = rng.choice(whitespace) + text + rng.choice(whitespace)
        assert parse_decision(text) is Decision(label)

    neither = ["", "maybe", "include", "reject this", "no decision possible", "inclusion"]
    for text in neither:
        assert parse_decision(text) is Decision.UNPARSEABLE
    for _ in range(200):
        filler = rng.choice(["and", "then", "but not", "/"])
        first, second = rng.sample(["included", "excluded"], 2)
        assert parse_decision(f"{first} {filler} {second}") is Decision.UNPARSEABLE


MANIFEST = ScreeningManifest((ManifestEntry("D", CriteriaSet("inc", "exc")),))


class _AbortAfter:
    def __init__(self, inner, allowed: int):
        import threading

        self._inner = inner
        self._allowed = allowed
        self._lock = threading.Lock()

    def complete(self, request):
        with self._lock:
            if self._allowed <= 0:
                raise KeyboardInterrupt
            self._allowed -= 1
        return self._inner.complete(request)


@pytest.mark.parametrize("interrupt_after", [1, 5, 9])
def test_criterion_6_resume_idempotence(tmp_path, interrupt_after):
    """Interrupting after k rows and resuming reproduces the uninterrupted file."""
    n = 10
    script = MockScript.from_dict(
        {"default": "excluded", "D/2": "included", "D/6": "included", "D/8": "not sure"}
    )
    config = RunConfig(requests_per_minute=1_000_000, max_in_flight=2, backoff_base_s=0.001)

    def records() -> list[ScreeningRecord]:
        return [ScreeningRecord(i, f"title {i}", f"abstract {i}") for i in range(n)]

    straight_dir = tmp_path / "straight"
    run_screening(MANIFEST, [("D", records())], MockBackend(script), config, straight_dir)
    expected = (straight_dir / "D_results.csv").read_bytes()

    crashed_dir = tmp_path / f"crash_{interrupt_after}"
    backend = _AbortAfter(MockBackend(script), allowed=interrupt_after)
    with pytest.raises(KeyboardInterrupt):
        run_screening(MANIFEST, [("D", records())], backend, config, crashed_dir)

    resumed = load_dataset(crashed_dir / "D_results.csv", "D", MANIFEST)
    assert sum(1 for r in resumed if r.model_decision is not None) <= interrupt_after
    run_screening(MANIFEST, [("D", resumed)], MockBackend(script), config, crashed_dir)
    assert (crashed_dir / "D_results.csv").read_bytes() == expected


def test_criterion_7_throughput_and_inflight_limits(tmp_path):
    """50 rows at 120 requests/minute: spacing >= 0.45s, in-flight <= 4."""
    backend = MockBackend(MockScript.from_dict({"default": "excluded"}), delay_s=0.6)
    config = RunConfig(requests_per_minute=120, max_in_flight=4, backoff_base_s=0.001)
    records = [ScreeningRecord(i, f"title {i}", "abstract") for i in range(50)]
    run_screening(MANIFEST, [("D", records)], backend, config, tmp_path)

    starts = sorted(backend.start_times())
    assert len(starts) == 50
    gaps = [later - earlier for earlier, later in zip(starts, starts[1:])]
    assert min(gaps) >= 0.45
    assert backend.max_in_flight_observed <= 4


def test_criterion_8_cost_estimator():
    """1,000 rows of 2,000-character prompts cost $0.752; zero rows cost $0."""
    config = RunConfig(price_per_1k_input=0.0015, price_per_1k_output=0.002)
    criteria = MANIFEST.criteria_for("D")

    base_length = len(build_decision_prompt(ScreeningRecord(0, "T", ""), criteria).body)
    record = ScreeningRecord(0, "T", "a" * (2000 - base_length))
    assert len(build_decision_prompt(record, criteria).body) == 2000

    rows = [record] * 1000
    estimate = estimate_cost(MANIFEST, [("D", rows)], config)
    assert estimate.total_input_tokens == 500_000
    assert estimate.total_output_tokens == 1000
    assert estimate.cost == pytest.approx(0.752, abs=1e-9)

    empty = estimate_cost(MANIFEST, [("D", [])], config)
    assert empty.cost == 0
    assert empty.projected_wall_time_s == 0


def test_criterion_9_weighted_summary_over_reference_rows():
    """Size-weighting the six reference accuracy rows yields ~0.897, with the
    weighting documented on the summary itself."""
    reference_rows = [  # (name, rows, accuracy) for the six screening datasets
        ("IVM", 279, 0.748),
        ("SSRI", 3989, 0.846),
        ("LPVR", 1456, 0.949),
        ("RAYNAUDS", 942, 0.965),
        ("NOA", 14771, 0.895),
        ("LLM", 2870, 0.943),
    ]

    def row(name: str, n: int, acc: float) -> DatasetMetrics:
        cm = ConfusionMatrix(tp=0, fn=0, fp=0, tn=n)
        return DatasetMetrics(
            dataset_name=name,
            n=n,
            n_included=0,
            accuracy=acc,
            sensitivity_included=None,
            sensitivity_excluded=None,
            kappa=None,
            confusion=cm,
            report=classification_report(cm),
        )

    summary = weighted_summary([row(*entry) for entry in reference_rows])
    assert summary.n_total == 24307
    assert round(summary.accuracy, 3) == 0.897
    assert summary.kappa is None
    assert "weight" in summary.weighting  # the scheme is documented on the output
    assert summary.to_dict()["weighting"] == summary.weighting
