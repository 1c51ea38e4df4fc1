"""Concurrent screening loop: rate limiting, retries, checkpointing, cost ledger.

One coordinator walks the datasets in order and dispatches up to
``max_in_flight`` worker calls through a shared rate limiter. Workers only
call the backend and report back; every record mutation, tally, and
checkpoint write happens on the coordinator, so no locking is needed around
the records themselves.

Every call of a command belongs to one run: ``_running`` validates the
config, builds the one rate limiter and opens the one run log, and yields
them with the backend as a ``_Run``, the first argument of every ``_call``.

Screening, explain and reflect share one fill loop, ``_fill``: it asks the
model about the chosen rows, sets one field on each row that finishes,
journals it, and writes the results CSV once. ``_call`` builds each request
and does limiter, backend call, run-log line, transient retry with
full-jitter backoff and fatal stop; each command adds only an "accept this
reply?" hook that triggers its single re-ask. ``_dispatch`` runs a worker
function over the rows on ``max_in_flight`` threads that take rows from one
shared iterator and hand replies back through one completion queue. At most
``2 * max_in_flight`` rows are taken ahead of the caller, and handing a reply
back costs the same however many calls are pending, so the cost per row
stays flat as a dataset grows.

An append-only journal gets one line per finished row, so persisting a row
costs the same at any dataset size, and the results CSV is written in full
(an atomic replace) once, when a fill ends, done or interrupted. A journal
extends the file its run read the records from: the results CSV, or the
dataset file while no results CSV exists yet. A fill folds in any journal
left by a killed run and appends to it, so after an interrupt anywhere a
rerun reaches the same file.
"""

from __future__ import annotations

import json
import math
import queue
import random
import threading
import time
from contextlib import closing, contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Protocol, Sequence

from .corpus import (
    DECIDED,
    CriteriaSet,
    Decision,
    ScreeningManifest,
    ScreeningRecord,
    clean_text,
    journal_entry,
    journal_path,
    results_path,
    write_results,
)
from .llm import (
    CompletionRequest,
    CompletionResult,
    FatalBackendError,
    TransientBackendError,
    count_tokens_estimate,
    parse_decision,
)
from .prompts import (
    PromptKind,
    PromptText,
    build_decision_prompt,
    build_explain_prompt,
    build_reflect_prompt,
)

# The decision reply is a single word by construction; explain/reflect are prose.
DECISION_MAX_TOKENS = 8
NARRATIVE_MAX_TOKENS = 512
MAX_BACKOFF_S = 60.0


class ConfigInvalid(Exception):
    pass


class Backend(Protocol):
    def complete(self, request: CompletionRequest) -> CompletionResult: ...


@dataclass
class RunConfig:
    model: str = "gpt-3.5-turbo"
    temperature: float = 0.0
    max_in_flight: int = 4
    requests_per_minute: int = 60
    max_retries: int = 5
    backoff_base_s: float = 1.0
    price_per_1k_input: float = 0.0015
    price_per_1k_output: float = 0.002

    def validate(self) -> None:
        if not self.model:
            raise ConfigInvalid("model must be non-empty")
        for name in ("max_in_flight", "requests_per_minute"):
            if getattr(self, name) < 1:
                raise ConfigInvalid(f"{name} must be a positive integer")
        if self.max_retries < 0:
            raise ConfigInvalid("max_retries must be >= 0")
        for name in ("temperature", "backoff_base_s", "price_per_1k_input", "price_per_1k_output"):
            # NaN fails every comparison, so this also rejects it.
            if not 0 <= getattr(self, name) < math.inf:
                raise ConfigInvalid(f"{name} must be a finite number >= 0")

    def cost(self, input_tokens: int, output_tokens: int) -> float:
        """USD for the given token counts at this config's per-1k prices."""
        return (
            input_tokens / 1000.0 * self.price_per_1k_input
            + output_tokens / 1000.0 * self.price_per_1k_output
        )


class DatasetStats(NamedTuple):
    rows_total: int
    rows_screened: int
    rows_skipped_resume: int
    included_count: int
    excluded_count: int
    unparseable_count: int
    error_count: int
    empty_abstract_count: int


class RunReport(NamedTuple):
    datasets: dict[str, DatasetStats]
    wall_time_s: float
    input_tokens: int
    output_tokens: int
    estimated_cost: float

    @property
    def error_count(self) -> int:
        return sum(s.error_count for s in self.datasets.values())

    def to_dict(self) -> dict:
        return {
            "datasets": {name: s._asdict() for name, s in self.datasets.items()},
            "totals": {
                "wall_time_s": self.wall_time_s,
                "input_tokens": self.input_tokens,
                "output_tokens": self.output_tokens,
                "estimated_cost": self.estimated_cost,
            },
        }


class RateLimiter:
    """Spaces request starts at least ``60 / requests_per_minute`` apart.

    The next slot is measured from the previous caller's actual start (the
    moment its acquire returned), not from a precomputed reservation. A call
    that starts late under scheduler noise therefore pushes followers back
    instead of letting them compress the observed gap.
    """

    def __init__(self, requests_per_minute: int):
        self._interval = 60.0 / requests_per_minute
        self._lock = threading.Lock()
        self._last_start: float | None = None

    def acquire(self) -> None:
        while True:
            with self._lock:
                now = time.monotonic()
                if self._last_start is None or now >= self._last_start + self._interval:
                    self._last_start = now
                    return
                delay = self._last_start + self._interval - now
            time.sleep(delay)


class _RunLog:
    """Append-only JSONL log, one object per backend call. Thread-safe.

    The file is opened for appending at the first record and stays open,
    line-buffered so every record reaches the file whole, until :meth:`close`
    (or the end of a ``with`` block).
    """

    def __init__(self, path: str | Path | None):
        self._path = Path(path) if path is not None else None
        self._lock = threading.Lock()
        self._fh = None

    def __enter__(self) -> "_RunLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def record(self, **fields) -> None:
        if self._path is None:
            return
        line = json.dumps(fields, sort_keys=True) + "\n"
        with self._lock:
            if self._fh is None:
                self._fh = open(self._path, "a", encoding="ascii", buffering=1)
            self._fh.write(line)

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None


class _Reply(NamedTuple):
    """What one request came to: the kept value and the tokens of every attempt."""

    value: object
    input_tokens: int
    output_tokens: int


class _Run(NamedTuple):
    """What every call of one command shares; made only by :func:`_running`."""

    backend: Backend
    config: RunConfig
    limiter: RateLimiter
    log: _RunLog


@contextmanager
def _running(backend: Backend, config: RunConfig, run_log_path: str | Path | None) -> Iterator[_Run]:
    """Validate ``config`` and yield the command's one run: its rate limiter and its open run log."""
    config.validate()
    with _RunLog(run_log_path) as log:
        yield _Run(backend, config, RateLimiter(config.requests_per_minute), log)


def _call(
    run: _Run,
    dataset_name: str,
    record: ScreeningRecord,
    prompt: PromptText,
    max_output_tokens: int,
    accept: Callable[[str], tuple[object, bool]],
) -> _Reply:
    """Build the request for ``prompt`` and get one reply: call, retry transient errors, re-ask once.

    Every attempt passes through the run's limiter and leaves one run-log line.
    ``accept`` turns a reply's text into ``(value, ok)``. A reply that is not
    ok is asked again once with the very same prompt, so the call budget is 1 + max_retries
    (transient retries) + 1 (the re-ask).

    The returned value is the accepted one; or, when the re-ask also fails
    to give an acceptable reply, the value of the reply last held. It is
    ``None`` when no call succeeded: transient retries ran out, or a fatal
    error came at any point.
    """
    config = run.config
    request = CompletionRequest(
        config.model, prompt, config.temperature, max_output_tokens, dataset_name, record.row_index
    )
    attempt = 0
    retries_used = 0
    reasked = False
    held = None
    input_tokens = output_tokens = 0

    while True:
        attempt += 1
        run.limiter.acquire()
        started = time.monotonic()
        try:
            result = run.backend.complete(request)
        except (TransientBackendError, FatalBackendError) as exc:
            # A failed attempt is logged as a reply without text or tokens.
            result = CompletionResult("", 0, 0, (time.monotonic() - started) * 1000.0)
            outcome = "transient_error" if isinstance(exc, TransientBackendError) else "fatal_error"
        else:
            value, ok = accept(result.text)
            outcome = "ok" if ok else "unparseable"
        input_tokens += result.input_tokens
        output_tokens += result.output_tokens
        run.log.record(
            dataset=dataset_name,
            row=record.row_index,
            attempt=attempt,
            latency_ms=result.latency_ms,
            input_tokens=result.input_tokens,
            output_tokens=result.output_tokens,
            outcome=outcome,
        )
        if outcome == "fatal_error":
            return _Reply(None, input_tokens, output_tokens)
        if outcome == "transient_error":
            if reasked or retries_used >= config.max_retries:
                # The re-ask gets one shot; the reply held is the rejected one, if any.
                return _Reply(held, input_tokens, output_tokens)
            # Full jitter: uniform over (0, base * 2^k], capped to stay polite.
            cap = min(MAX_BACKOFF_S, config.backoff_base_s * (2**retries_used))
            if cap > 0:
                time.sleep(random.uniform(0, cap))
            retries_used += 1
            continue
        if ok or reasked:
            return _Reply(value, input_tokens, output_tokens)
        held, reasked = value, True


def _dispatch(
    config: RunConfig,
    records: Iterable[ScreeningRecord],
    fn: Callable[[ScreeningRecord], _Reply],
) -> Iterator[tuple[ScreeningRecord, _Reply]]:
    """Run ``fn`` on ``max_in_flight`` threads; yield ``(record, reply)`` as each ends.

    Each worker takes the next record from the shared iterator and puts
    ``(record, reply)``, or the exception ``fn`` raised, on one completion
    queue, which this generator drains in the order the calls ended. A
    semaphore of ``2 * max_in_flight`` slots bounds the records taken but not
    yet yielded, so finished replies cannot pile up ahead of the caller.
    A failure is re-raised when the queue reaches it, after every reply that
    finished before it. On any exception, or when the caller closes the
    generator early, the stop event keeps workers from taking another record
    and running calls are waited for.
    """
    source = iter(records)
    taking = threading.Lock()
    window = threading.Semaphore(2 * config.max_in_flight)
    stop = threading.Event()
    finished: queue.SimpleQueue = queue.SimpleQueue()

    def work() -> None:
        try:
            while window.acquire() and not stop.is_set():
                with taking:
                    record = next(source, None)
                if record is None:
                    return
                finished.put((record, fn(record)))
        except BaseException as exc:
            # Re-raised on the coordinator; no worker takes another record.
            stop.set()
            finished.put(exc)
        finally:
            finished.put(None)  # this worker is done

    workers = [threading.Thread(target=work, daemon=True) for _ in range(config.max_in_flight)]
    for worker in workers:
        worker.start()
    running = len(workers)
    try:
        while running:
            item = finished.get()
            if item is None:
                running -= 1
            elif isinstance(item, BaseException):
                raise item
            else:
                window.release()
                yield item
    finally:
        # Done, crash, interrupt or early close: take no new record, wake any
        # worker waiting for a slot, and wait for running calls.
        stop.set()
        for _ in workers:
            window.release()
        for worker in workers:
            worker.join()


def _decided(text: str) -> tuple[Decision, bool]:
    decision = parse_decision(text)
    return decision, decision in DECIDED


def _written(text: str) -> tuple[str | None, bool]:
    """Keep a reply as it came if :func:`clean_text` leaves something of it; else reject it for no value."""
    return (text, True) if clean_text(text) else (None, False)


def _fill(
    run: _Run, name: str, records: Sequence[ScreeningRecord], asked: Iterable[ScreeningRecord], field: str,
    build: Callable[[ScreeningRecord], PromptText], accept: Callable[[str], tuple[object, bool]],
    max_tokens: int, path: Path, failed: object = None,
) -> tuple[int, int, int]:
    """Ask about each ``asked`` row, set and journal ``field`` on it; then write ``records`` to the CSV at ``path``.

    ``field`` is the results column filled: ``decision`` (the record's
    ``model_decision``), ``explanation`` or ``reflection``. A row whose calls
    all fail gets ``failed``; with ``None`` it keeps what it held and gets no
    journal line. Returns the tokens of every attempt and the number of rows
    whose calls all failed.

    Any journal already at ``path`` must be folded into ``records``: it is
    kept, cut after its last newline (a torn last line is one
    ``fold_journal`` ignores), and appended to. Each journal line reaches the
    file as it is written. The journal is closed before the final write, so
    if that fails the journal on disk still holds every finished row for the
    next run.
    """
    input_tokens = output_tokens = failures = 0
    replies = _dispatch(run.config, asked, lambda r: _call(run, name, r, build(r), max_tokens, accept))
    journal_file = journal_path(path)
    try:
        with open(journal_file, "r+b") as leftover:
            leftover.truncate(leftover.read().rfind(b"\n") + 1)
    except FileNotFoundError:
        pass
    journal = open(journal_file, "a", encoding="ascii", buffering=1)
    try:
        with closing(replies):
            for record, reply in replies:
                input_tokens += reply.input_tokens
                output_tokens += reply.output_tokens
                failures += reply.value is None
                value = failed if reply.value is None else reply.value
                if value is not None:
                    setattr(record, "model_decision" if field == "decision" else field, value)
                    journal.write(journal_entry(record, field))
    finally:
        journal.close()
        write_results(records, path)
        journal_file.unlink()
    return input_tokens, output_tokens, failures


def run_screening(
    manifest: ScreeningManifest,
    datasets: Iterable[tuple[str, list[ScreeningRecord]]],
    backend: Backend,
    config: RunConfig,
    output_dir: str | Path,
    run_log_path: str | Path | None = None,
) -> RunReport:
    """Screen every undecided row of every dataset and checkpoint as we go.

    ``datasets`` is an iterable of ``(name, records)`` pairs. Pairs are
    pulled one at a time, as the previous dataset ends, and each dataset is
    released before the next is pulled, so an iterable that reads each
    dataset when pulled holds one dataset at a time (as ``absieve screen``
    does).

    Rows that already carry a model decision are skipped (that is the whole
    resume contract); only a row with no decision is screened, so a row that
    ended ``error`` or ``unparseable`` is never asked again. Results land in
    ``output_dir/<name>_results.csv``, written in full once, when a dataset
    ends or the run is interrupted. Each completed row appends a line to
    ``<name>_results.journal.jsonl`` that reaches the file as it is written,
    so a crash loses no finished row; the journal is removed once the CSV
    holds its rows. Output row order is input row order regardless of
    completion order.

    A journal already at a dataset's path must be folded into its records,
    as ``absieve screen --resume`` reads them: the run appends to it. To
    screen afresh, remove the CSV and its journal first, as ``absieve
    screen`` without ``--resume`` does.
    """
    stats: dict[str, DatasetStats] = {}
    input_tokens = output_tokens = 0
    run_started = time.monotonic()
    with _running(backend, config, run_log_path) as run:
        Path(output_dir).mkdir(parents=True, exist_ok=True)
        for name, records in datasets:
            criteria = manifest.criteria_for(name)
            pending = [r for r in records if r.model_decision is None]
            dataset_input, dataset_output, _ = _fill(
                run, name, records, pending, "decision", lambda record: build_decision_prompt(record, criteria),
                _decided, DECISION_MAX_TOKENS, results_path(output_dir, name), Decision.ERROR,
            )
            input_tokens += dataset_input
            output_tokens += dataset_output
            decisions = [r.model_decision for r in pending]
            stats[name] = DatasetStats(
                rows_total=len(records),
                rows_screened=len(pending),
                rows_skipped_resume=len(records) - len(pending),
                **{f"{d.value}_count": decisions.count(d) for d in Decision},
                empty_abstract_count=sum(1 for r in records if not r.abstract),
            )
            del records, pending  # a `for` keeps them bound while it pulls the next pair

    wall_time_s = time.monotonic() - run_started
    return RunReport(stats, wall_time_s, input_tokens, output_tokens, config.cost(input_tokens, output_tokens))


class ExplainReport(NamedTuple):
    mode: PromptKind
    annotated_count: int
    skipped_count: int
    error_count: int
    input_tokens: int
    output_tokens: int


def _narrative(mode: PromptKind) -> tuple[str, Callable[..., PromptText]]:
    """The column ``mode`` fills and its prompt builder; ``ValueError`` unless it is EXPLAIN or REFLECT."""
    if mode is PromptKind.EXPLAIN:
        return "explanation", build_explain_prompt
    if mode is PromptKind.REFLECT:
        return "reflection", build_reflect_prompt
    raise ValueError(f"mode must be EXPLAIN or REFLECT, got {mode}")


def eligible_for(mode: PromptKind, record: ScreeningRecord) -> bool:
    """Whether ``record`` can be explained (EXPLAIN) or reflected on (REFLECT)."""
    _narrative(mode)  # the one check of the mode
    human, model = record.human_decision, record.model_decision
    if mode is PromptKind.EXPLAIN:
        return model in DECIDED and human is not None
    return model in DECIDED and human in DECIDED and human is not model


def run_explanations(
    records: Sequence[ScreeningRecord],
    criteria: CriteriaSet,
    backend: Backend,
    config: RunConfig,
    mode: PromptKind,
    dataset_name: str,
    run_log_path: str | Path | None = None,
    *,
    results: tuple[Sequence[ScreeningRecord], Path],
) -> ExplainReport:
    """Fill ``explanation`` or ``reflection`` on the given records in place, and persist them.

    EXPLAIN needs a parsed model decision and a recorded human decision;
    REFLECT additionally needs the two to disagree. Rows that do not qualify
    are skipped and counted, never an error. Calls go through the same rate
    limit, retries and backoff as screening. A reply is kept as it came, but
    one that :func:`clean_text` leaves empty (blank, or non-ASCII only) is
    asked again once, as screening asks an unparseable reply again; if that
    reply is empty too, the row is an error and keeps the text it held.

    ``results`` is ``(table, path)``: the dataset the records belong to, with
    any journal at the results CSV ``path`` folded in. Each annotation is
    journaled as screening journals a row, and the table is written to
    ``path`` when the run ends.
    """
    column, build = _narrative(mode)
    eligible = [r for r in records if eligible_for(mode, r)]
    table, path = results
    with _running(backend, config, run_log_path) as run:
        input_tokens, output_tokens, failures = _fill(
            run, dataset_name, table, eligible, column,
            lambda record: build(record, criteria, record.human_decision, record.model_decision),
            _written, NARRATIVE_MAX_TOKENS, path,
        )
    return ExplainReport(
        mode, len(eligible) - failures, len(records) - len(eligible), failures, input_tokens, output_tokens
    )


class DatasetCostEstimate(NamedTuple):
    dataset_name: str
    rows: int
    input_tokens: int
    output_tokens: int
    cost: float


class CostEstimate(NamedTuple):
    per_dataset: tuple[DatasetCostEstimate, ...]
    total_input_tokens: int
    total_output_tokens: int
    cost: float
    projected_wall_time_s: float


def estimate_cost(
    manifest: ScreeningManifest,
    datasets: Iterable[tuple[str, Iterable[ScreeningRecord]]],
    config: RunConfig,
) -> CostEstimate:
    """Project token usage, cost, and wall time for screening ``datasets``.

    ``datasets`` is an iterable of ``(name, records)`` pairs. Records are
    counted as they are iterated and none is kept, so a stream of records
    (:func:`absieve.corpus.iter_records`) is estimated one row at a time, as
    ``absieve estimate-cost`` does.

    Input tokens come from the character-count heuristic over every rendered
    decision prompt; output is one token per row. Projected wall time is a
    lower bound set by the request rate limit alone, ignoring latency.
    """
    config.validate()
    per_dataset = []
    for name, records in datasets:
        criteria = manifest.criteria_for(name)
        rows = input_tokens = 0
        for record in records:
            rows += 1
            input_tokens += count_tokens_estimate(build_decision_prompt(record, criteria).body)
        output_tokens = rows  # one single-word reply per row
        cost = config.cost(input_tokens, output_tokens)
        per_dataset.append(DatasetCostEstimate(name, rows, input_tokens, output_tokens, cost))
    total_rows = sum(d.rows for d in per_dataset)
    return CostEstimate(
        per_dataset=tuple(per_dataset),
        total_input_tokens=sum(d.input_tokens for d in per_dataset),
        total_output_tokens=sum(d.output_tokens for d in per_dataset),
        cost=sum(d.cost for d in per_dataset),
        projected_wall_time_s=total_rows * 60.0 / config.requests_per_minute,
    )
