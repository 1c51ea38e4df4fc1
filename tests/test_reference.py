"""Every file absieve's commands write equals what the sequential reference screener works out.

Hypothesis draws a workspace, a mock script, run settings and flags. The
real CLI then runs in process: ``screen --dataset`` of one dataset (when
drawn), ``screen`` (or a ``screen`` interrupted after k calls, then
``screen --resume``), ``explain`` and ``reflect`` on every dataset (with
``--sample K --seed S`` when drawn), ``evaluate``, and ``evaluate
--dataset`` with ``--truth``/``--pred`` (when drawn). After each command
its results CSVs, run-log lines, report, metrics and exit code are
compared with :mod:`reference`.
"""

from __future__ import annotations

import ast
import csv
import io
import json
import random
import tempfile
import threading
from dataclasses import replace
from pathlib import Path

import click
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from absieve import cli
from absieve.llm import MockBackend, MockScript
import reference
from conftest import brute_force_metrics, read_csv_rows
from reference import Reference
from test_cli import make_workspace

NAMES = ("IVM", "Statins", "PCSK9")
# Non-ASCII, commas, quotes, braces and line breaks: everything clean_text and csv.writer must handle.
ALPHABET = 'ab Z,"\'{}é—“\n\t'
REPLIES = ["included", "excluded", "Included.", " EXCLUDED ", "included or excluded", "no idea", ""]
# Spellings of the two decision columns, and a name that is no column.
COLUMN_NAMES = ["human_decision", "decision", " Decision", "HUMAN_DECISION", "gold"]


def _text(rng: random.Random) -> str:
    return "".join(rng.choices(ALPHABET, k=rng.randint(0, 12)))


def _reply(rng: random.Random) -> str:
    """A bare label, prose around one label, or prose with none."""
    return rng.choice(
        [rng.choice(REPLIES), f"{_text(rng)} {rng.choice(['included', 'excluded'])} {_text(rng)}", _text(rng)]
    )


@st.composite
def workspaces(draw) -> tuple[dict, dict]:
    """Datasets by name (rows as dicts) and the mock script as its JSON holds it.

    Hypothesis draws the shape: which datasets, how many rows, whether they
    carry decisions already. Each row's text, reply and failure come from a
    generator seeded by the drawn seed, the dataset and the row, so a
    failing example shrinks to fewer rows without the rows it keeps changing,
    and an example costs Hypothesis a few dozen choices, not thousands.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    datasets, script = {}, {"default": _reply(random.Random(seed)), "failures": {}}
    for name in draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=3, unique=True)):
        size, with_decisions = draw(st.integers(0, 40)), draw(st.booleans())
        datasets[name] = []
        for n in range(size):
            rng = random.Random(f"{seed}/{name}/{n}")
            row = {"title": rng.choice("ABC") + _text(rng), "abstract": _text(rng)}  # the title never cleans to ""
            row["human_decision"] = rng.choice(["included", "excluded", "", " Included", "error"])
            if with_decisions:
                row["decision"] = rng.choice(["", "", "", "included", "excluded", "unparseable", "error"])
            datasets[name].append(row)
            if rng.random() < 0.8:  # else the script's default reply
                script[f"{name}/{n}"] = _reply(rng)
            status = rng.choice([None, None, None, None, 429, 503, 400])  # most rows fail no call
            if status:
                script["failures"][f"{name}/{n}"] = {"status": status, "count": rng.randint(0, 3)}
    return datasets, script


@st.composite
def optional_flags(draw) -> dict:
    """Optional flags; a dataset is drawn as an index into the workspace's, taken modulo their count."""
    dataset = st.integers(0, len(NAMES) - 1)
    return {
        "screen_one": draw(st.none() | dataset),
        "sample": draw(st.none() | st.integers(0, 8)),
        "seed": draw(st.integers(0, 2**16)),
        "evaluate_one": draw(st.none() | st.tuples(dataset, *[st.sampled_from(COLUMN_NAMES)] * 2)),
    }


def _run(config: Path, *args: str) -> int:
    """Run one CLI command in process; its exit code."""
    try:
        cli.main([*args, "--config", str(config)], standalone_mode=False)
    except SystemExit as exc:
        return exc.code
    except click.ClickException as exc:
        return exc.exit_code
    except click.Abort:
        return 1
    return 0


class _LogTail:
    """The run-log lines appended since the last look, as the reference states them."""

    def __init__(self, path: Path):
        self.path, self.seen = path, 0

    def new(self) -> list[tuple]:
        lines = self.path.read_text().splitlines() if self.path.exists() else []
        entries = [json.loads(line) for line in lines[self.seen :]]
        self.seen = len(lines)
        keys = ("dataset", "row", "attempt", "outcome", "input_tokens", "output_tokens")
        return sorted(tuple(e[k] for k in keys) for e in entries)


def _interrupting(after: int, fired: threading.Event):
    """``MockBackend.complete`` that answers ``after`` calls, then raises ``KeyboardInterrupt`` on every call."""
    complete, lock, left = MockBackend.complete, threading.Lock(), [after]

    def complete_then_interrupt(self, request):
        with lock:
            left[0] -= 1
            if left[0] < 0:
                fired.set()
                raise KeyboardInterrupt
        return complete(self, request)

    return complete_then_interrupt


def _assert_report(out: Path, want) -> None:
    report = json.loads((out / "run_report.json").read_text())
    assert report["datasets"] == want.report["datasets"]
    totals = report["totals"]
    assert (totals["input_tokens"], totals["output_tokens"]) == (want.report["input_tokens"], want.report["output_tokens"])


def _assert_metrics(entry: dict, oracle: dict) -> None:
    assert entry["confusion"] == {k: oracle[k] for k in ("tp", "fn", "fp", "tn", "dropped")}
    assert entry["n"] == oracle["n"]
    for key in ("accuracy", "sensitivity_included", "sensitivity_excluded", "kappa"):
        assert (entry[key] is None) == (oracle[key] is None), key
        if oracle[key] is not None:
            assert entry[key] == pytest.approx(oracle[key], abs=1e-12), key
    for side in ("included", "excluded"):
        got, want = entry["report"][side], oracle[side]
        assert got["support"] == want["support"]
        for key in ("precision", "recall", "f1"):
            assert got[key] == pytest.approx(want[key], abs=1e-12), (side, key)


# No explain phase: after a failure it re-ran the test for a minute and grew to a
# gigabyte while it tried each argument, where shrinking alone takes seconds.
@settings(deadline=None, max_examples=60, phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink])
@given(workspaces(), st.integers(1, 4), st.integers(0, 2), st.booleans(), st.integers(0, 100), optional_flags())
def test_every_command_writes_what_the_reference_works_out(
    workspace, max_in_flight, max_retries, interrupt, percent, flags
):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        datasets, script = workspace
        options = {"requests_per_minute": 100_000_000, "backoff_base_s": 0}
        options.update(max_in_flight=max_in_flight, max_retries=max_retries)
        config = make_workspace(root, datasets, dict(script), options)
        out = root / "out"
        log = _LogTail(out / "run_log.jsonl")
        script = MockScript.from_file(root / "mock_script.json")
        ref = Reference(root, script, max_retries)
        names = list(ref.criteria)

        if flags["screen_one"] is not None:
            one = names[flags["screen_one"] % len(names)]
            want = ref.screen(dataset=one)
            assert _run(config, "screen", "--dataset", one) == want.exit_code
            assert log.new() == want.log
            _assert_report(out, want)
            assert sorted(p.name for p in out.glob("*_results.csv")) == [f"{one}_results.csv"]
            assert (out / f"{one}_results.csv").read_bytes() == ref.results_csv(one)

        want = ref.screen()
        if not interrupt:
            assert _run(config, "screen") == want.exit_code
            assert log.new() == want.log
            _assert_report(out, want)
        else:
            # Interrupted after `percent`% of the calls an uninterrupted screen makes.
            fired = threading.Event()
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(MockBackend, "complete", _interrupting(len(want.log) * percent // 100, fired))
                code = _run(config, "screen")
            if fired.is_set():
                assert code == 1
                assert not (out / "run_report.json").exists()
                assert set(log.new()) <= set(want.log)  # a row cut short logged the first of its lines
            else:
                assert code == want.exit_code
                assert log.new() == want.log
            # Each decision the interrupted run wrote is the reference's; the resume asks exactly the rest.
            resumed = Reference(root, script, max_retries)
            for name in names:
                path = out / f"{name}_results.csv"
                if not path.exists():
                    continue
                rows = read_csv_rows(path)
                expected = list(csv.DictReader(io.StringIO(ref.results_csv(name).decode("ascii"), newline="")))
                assert len(rows) == len(expected)
                for got, row in zip(rows, expected):
                    assert got in (row, {**row, "decision": ""})
                resumed.records[name] = [
                    replace(r, model_decision=r.model_decision if row["decision"] else None)
                    for r, row in zip(ref.records[name], rows)
                ]
            want = resumed.screen(resume=True)
            assert _run(config, "screen", "--resume") == want.exit_code
            assert log.new() == want.log
            _assert_report(out, want)
        for name in names:
            assert (out / f"{name}_results.csv").read_bytes() == ref.results_csv(name), name

        sample = [] if flags["sample"] is None else ["--sample", str(flags["sample"]), "--seed", str(flags["seed"])]
        for name in names:
            for command in ("explain", "reflect"):
                want = ref.annotate(name, reflect=command == "reflect", sample=flags["sample"], seed=flags["seed"])
                assert _run(config, command, "--dataset", name, *sample) == want.exit_code, (command, name)
                assert log.new() == want.log
                assert (out / f"{name}_results.csv").read_bytes() == ref.results_csv(name), (command, name)

        want = ref.evaluate()
        assert _run(config, "evaluate") == want.exit_code
        if want.exit_code == 0:
            document = json.loads((out / "metrics.json").read_text())
            assert [entry["dataset_name"] for entry in document["datasets"]] == names
            for entry, name in zip(document["datasets"], names):
                _assert_metrics(entry, brute_force_metrics(*ref.columns(name)))
        else:
            assert not (out / "metrics.json").exists()

        if flags["evaluate_one"] is not None:
            index, truth, pred = flags["evaluate_one"]
            name, metrics = names[index % len(names)], out / "metrics.json"
            before = metrics.read_bytes() if metrics.exists() else None
            want = ref.evaluate(name, truth, pred)
            assert _run(config, "evaluate", "--dataset", name, "--truth", truth, "--pred", pred) == want.exit_code
            if want.exit_code == 0:
                document = json.loads(metrics.read_text())
                assert (document["truth_column"], document["pred_column"]) == (truth, pred)
                assert [entry["dataset_name"] for entry in document["datasets"]] == [name]
                _assert_metrics(document["datasets"][0], brute_force_metrics(*ref.columns(name, truth, pred)))
            else:
                assert (metrics.read_bytes() if metrics.exists() else None) == before
        assert not [p.name for p in out.iterdir() if p.name.endswith((".journal.jsonl", ".tmp"))]


def test_the_reference_shares_no_runner_thread_reader_or_writer_with_absieve():
    tree = ast.parse(Path(reference.__file__).read_text(encoding="utf-8"))
    froms = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    modules = {node.module for node in froms} | {
        alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names
    }
    names = {alias.name for node in froms for alias in node.names}
    assert not modules & {"absieve.runner", "threading", "concurrent.futures", "multiprocessing"}
    readers_and_writers = {"load_manifest", "load_dataset", "read_rows", "header_index", "read_decision_columns",
                           "write_results", "write_files", "csv_line", "fold_journal", "journal_entry"}
    assert not names & readers_and_writers


def test_corpus_is_the_one_csv_module_and_the_cli_imports_only_its_public_names():
    csv_users, private = set(), []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import) and any(alias.name == "csv" for alias in node.names):
                csv_users.add(path.name)
            elif isinstance(node, ast.ImportFrom):
                if node.module == "csv":
                    csv_users.add(path.name)
                if path.name == "cli.py" and node.module in ("corpus", "absieve.corpus"):
                    private += [alias.name for alias in node.names if alias.name.startswith("_")]
    assert csv_users == {"corpus.py"}
    assert private == []
