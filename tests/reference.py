"""A plain sequential screener: what every output file of absieve's commands must hold.

From a workspace (``manifest.csv`` and ``data/<name>.csv``) and the mock
backend's script alone, :class:`Reference` works out each command's results
CSVs, run-log lines, report counts and exit code, one row after another,
with no threads and no journal. It reads with ``csv`` and writes with
``csv.writer``. Of absieve it uses only what has its own property or golden
suite: ``clean_text``, ``parse_decision``, the three prompt builders and the
record types. It imports nothing from ``absieve.runner`` and no reader or
writer from ``absieve.corpus``, so a change in how absieve calls, retries,
re-asks, dispatches, journals or writes shows up as a difference from it.

The call contract, per row and per command. Each command builds a fresh
mock backend, so a row's injected failures start over in every command.

* A 429 or 5xx failure is transient and gets a ``transient_error`` line.
  With k of them, k <= ``max_retries`` ends in the scripted reply, and
  k > ``max_retries`` ends the row without a value after
  ``max_retries + 1`` lines.
* Any other status is fatal: one ``fatal_error`` line, and no value.
* A ``screen`` reply that names neither label gets an ``unparseable`` line
  and is asked once more with the same prompt. The mock answers the same,
  so the row gets a second ``unparseable`` line and stays ``unparseable``.
* An ``explain`` or ``reflect`` reply is kept as it came, unless
  ``clean_text`` leaves it empty: then it gets an ``unparseable`` line and
  is asked once more, the mock answers the same, and the row gets a second
  ``unparseable`` line and ends without a value. A row that ends without a
  value keeps the text it held.
* An answered attempt counts ``ceil(len / 4)`` tokens of the prompt and of
  the reply; a failed attempt counts none.
* A command exits 1 when a row it asked ends without a value (``screen``
  marks it ``error``). ``explain`` and ``reflect`` exit 2 with no eligible
  row, and ``evaluate`` when a dataset has no row decided on both sides.
* ``screen --dataset`` screens that dataset alone. ``explain`` and
  ``reflect`` with ``--sample K --seed S`` ask the K eligible rows that
  ``random.Random(S).sample`` picks, all of them when K is not smaller.
  ``evaluate --truth/--pred`` compares the columns whose header names match
  after cleaning and lowercasing; a name that is neither decision column is
  missing from the results CSV, and ``evaluate`` exits 2.

A run-log line is ``(dataset, row, attempt, outcome, input_tokens,
output_tokens)``: the log's ``latency_ms`` is left out.
"""

from __future__ import annotations

import csv
import io
import math
import random
from pathlib import Path
from typing import NamedTuple

from absieve.corpus import DECIDED, CriteriaSet, Decision, ScreeningRecord, clean_text
from absieve.llm import MockScript, parse_decision
from absieve.prompts import build_decision_prompt, build_explain_prompt, build_reflect_prompt

COLUMNS = ("title", "abstract", "human_decision", "decision", "explanation", "reflection")
# The results CSV's two decision columns, by header name, as record fields.
DECISION_FIELDS = {"human_decision": "human_decision", "decision": "model_decision"}


class Command(NamedTuple):
    """What one command must give: its exit code, its sorted run-log lines and, for ``screen``, its report."""

    exit_code: int
    log: list[tuple]
    report: dict | None = None


def _decision(cell: str | None) -> Decision | None:
    cell = clean_text(cell or "").lower()
    return Decision(cell) if cell else None


def _read(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class Reference:
    """The expected state of one workspace, advanced one command at a time as the real CLI is."""

    def __init__(self, workspace: Path, script: MockScript, max_retries: int):
        self.workspace, self.script, self.max_retries = workspace, script, max_retries
        self.criteria = {
            clean_text(row["Dataset Name"]): CriteriaSet(
                clean_text(row["Inclusion Criteria"]), clean_text(row["Exclusion Criteria"])
            )
            for row in _read(workspace / "manifest.csv")
        }
        self.records: dict[str, list[ScreeningRecord]] = {}

    def _ask(self, name: str, row: int, prompt: str, screening: bool) -> tuple[object, list[tuple]]:
        """One row's kept value (``None`` when no call was answered) and its run-log lines."""
        status, failures = self.script.failures.get((name, row), (0, 0))
        if failures and not (status == 429 or status >= 500):
            return None, [(name, row, 1, "fatal_error", 0, 0)]
        attempts = min(failures, self.max_retries + 1)
        lines = [(name, row, n, "transient_error", 0, 0) for n in range(1, attempts + 1)]
        if failures > self.max_retries:
            return None, lines
        text = self.script.responses.get((name, row), self.script.default)
        value = parse_decision(text) if screening else text
        ok = value in DECIDED if screening else clean_text(text) != ""
        outcome, asks = ("ok", 1) if ok else ("unparseable", 2)
        tokens = (math.ceil(len(prompt) / 4), math.ceil(len(text) / 4))
        value = value if ok or screening else None  # an empty annotation is no value; `unparseable` is a decision
        return value, lines + [(name, row, failures + n, outcome, *tokens) for n in range(1, asks + 1)]

    def screen(self, resume: bool = False, dataset: str | None = None) -> Command:
        """``screen``, or with ``dataset``, ``screen --dataset``.

        Each dataset is read afresh from ``data/`` (with ``resume``, as held), then its undecided rows are asked.
        """
        datasets, log = {}, []
        for name, criteria in self.criteria.items():
            if dataset is not None and name != dataset:
                continue
            if not resume or name not in self.records:
                self.records[name] = [
                    ScreeningRecord(n, clean_text(row["title"]), clean_text(row["abstract"]),
                                    _decision(row.get("human_decision")), _decision(row.get("decision")))
                    for n, row in enumerate(_read(self.workspace / "data" / f"{name}.csv"))
                ]
            records = self.records[name]
            pending = [r for r in records if r.model_decision is None]
            for record in pending:
                prompt = build_decision_prompt(record, criteria).body
                value, lines = self._ask(name, record.row_index, prompt, screening=True)
                record.model_decision = Decision.ERROR if value is None else value
                log += lines
            decisions = [r.model_decision for r in pending]
            datasets[name] = {
                "rows_total": len(records),
                "rows_screened": len(pending),
                "rows_skipped_resume": len(records) - len(pending),
                **{f"{d.value}_count": decisions.count(d) for d in Decision},
                "empty_abstract_count": sum(not r.abstract for r in records),
            }
        report = {"datasets": datasets, "input_tokens": sum(x[4] for x in log), "output_tokens": sum(x[5] for x in log)}
        errors = sum(counts["error_count"] for counts in datasets.values())
        return Command(1 if errors else 0, sorted(log), report)

    def annotate(self, name: str, reflect: bool, sample: int | None = None, seed: int = 0) -> Command:
        """``explain`` (or with ``reflect``, ``reflect``) over every eligible row of ``name``, or ``sample`` of them."""
        records, criteria = self.records[name], self.criteria[name]
        if reflect:
            eligible = [r for r in records if r.model_decision in DECIDED and r.human_decision in DECIDED
                        and r.human_decision is not r.model_decision]
        else:
            eligible = [r for r in records if r.model_decision in DECIDED and r.human_decision is not None]
        if not eligible:
            return Command(2, [])
        if sample is not None and sample < len(eligible):
            eligible = random.Random(seed).sample(eligible, sample)
        build, column = (build_reflect_prompt, "reflection") if reflect else (build_explain_prompt, "explanation")
        log, errors = [], 0
        for record in eligible:
            prompt = build(record, criteria, record.human_decision, record.model_decision).body
            value, lines = self._ask(name, record.row_index, prompt, screening=False)
            log += lines
            if value is None:
                errors += 1
            else:
                setattr(record, column, value)
        return Command(1 if errors else 0, sorted(log))

    def columns(
        self, name: str, truth: str = "human_decision", pred: str = "decision"
    ) -> tuple[list[Decision | None], list[Decision | None]]:
        """The ``truth`` and ``pred`` columns that ``evaluate`` compares; both must name a decision column."""
        fields = [DECISION_FIELDS[clean_text(column).lower()] for column in (truth, pred)]
        return tuple([getattr(r, field) for r in self.records[name]] for field in fields)

    def evaluate(self, dataset: str | None = None, truth: str = "human_decision", pred: str = "decision") -> Command:
        """``evaluate``: exit 2 when a column is missing or a dataset has no row decided on both sides."""
        if not all(clean_text(column).lower() in DECISION_FIELDS for column in (truth, pred)):
            return Command(2, [])
        names = self.records if dataset is None else [dataset]
        comparable = (any(t in DECIDED and p in DECIDED for t, p in zip(*self.columns(n, truth, pred))) for n in names)
        return Command(0 if all(comparable) else 2, [])

    def results_csv(self, name: str) -> bytes:
        """The bytes of ``name``'s results CSV."""
        text = io.StringIO()
        writer = csv.writer(text)
        writer.writerow(COLUMNS)
        for r in self.records[name]:
            cells = (r.human_decision, r.model_decision)
            writer.writerow([r.title, r.abstract, *(d.value if d else "" for d in cells),
                             clean_text(r.explanation or ""), clean_text(r.reflection or "")])
        return text.getvalue().encode("ascii")
