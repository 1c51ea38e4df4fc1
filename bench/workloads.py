"""Seeded inputs for every benchmark workload, and the outputs they must produce.

Standard library only, and independent of absieve: text is generated as
tokens joined by whitespace-like separators, so its cleaned form is known by
construction instead of being computed with absieve's ``clean_text``. Every
scripted reply is chosen together with the decision it must parse to, and
confusion counts come from a plain loop here, never from ``absieve.metrics``.

Sizes and fault counts do not depend on the seed; the seed moves only the
text, the labels and which rows carry which fault. So the exact counts a run
reports (calls per row, errors, writes) repeat across seeds.
"""

from __future__ import annotations

import csv
import io
import json
import os
import random
from dataclasses import dataclass

WORKLOADS = ("screen-ckpt", "screen-http", "review-large")

INCLUDED, EXCLUDED = "included", "excluded"
UNPARSEABLE, ERROR = "unparseable", "error"
DECIDED = (INCLUDED, EXCLUDED)
RESULT_COLUMNS = ("title", "abstract", "human_decision", "decision", "explanation", "reflection")

# The stub provider finds the row of a request from this tag in the title.
TAG_PATTERN = r"\b(T\d+x\d{5})\b"

CREDENTIAL_ENV = "ABSIEVE_BENCH_KEY"

_PLAIN = (
    "patients randomized controlled trial cohort placebo dose outcome mortality adverse "
    "events efficacy safety treatment versus group children adults hospital reduction risk "
    "analysis systematic review observational study week follow-up primary secondary "
    "endpoint baseline therapy infection symptoms severity clinical score was were the of "
    "in and with for no significant difference between groups"
).split()
# Tokens that exercise cleaning and CSV quoting: code points above U+007E and
# control characters that are deleted, plus quotes, commas and braces kept.
_NOISY = (
    "naïve", "β-blocker", "café-au-lait", "–", "—", "µg/kg",
    "≥18", "“adjusted”", "don't", '"dose"', "1,000", "{arm}", "[95%", "CI]",
    "p<0.05", "x\x07y", "\x1bcode", "end\x7f", "ﬁbrosis", "10 mg", "a,b,\"c\"",
)
# Each separator holds at least one character that cleaning turns into a space.
_NOISY_SEPARATORS = ("  ", "\t", "\n", "\r\n", " \x0b ", "\x0c", " \t ")

_PROSE = "The abstract does not give enough detail to decide."
_LABEL_FORMS = {
    INCLUDED: ("included", "Included", "INCLUDED.", " included\n", "'included'", "Decision: included"),
    EXCLUDED: ("excluded", "Excluded", "EXCLUDED.", " excluded\n", '"Excluded."', "Decision: excluded"),
}
_HUMAN_FORMS = {
    INCLUDED: ("included", "Included", " INCLUDED "),
    EXCLUDED: ("excluded", "Excluded", "excluded\t"),
}


def clean_token(token: str) -> str:
    """Keep printable ASCII only. Tokens never hold whitespace-like controls."""
    return "".join(ch for ch in token if 0x20 <= ord(ch) <= 0x7E)


class TextGen:
    """Seeded noisy text whose cleaned form is known without cleaning it."""

    def __init__(self, rng: random.Random, noise: float, pool_size: int = 384):
        self.rng = rng
        self.noise = noise
        self.sentences = [self.phrase(rng.randint(8, 22)) for _ in range(pool_size)]

    def _separator(self) -> str:
        return self.rng.choice(_NOISY_SEPARATORS) if self.rng.random() < self.noise else " "

    def phrase(self, n_tokens: int) -> tuple[str, str]:
        raw, clean = [], []
        for i in range(n_tokens):
            if i:
                raw.append(self._separator())
            token = self.rng.choice(_NOISY if self.rng.random() < self.noise else _PLAIN)
            raw.append(token)
            if clean_token(token):
                clean.append(clean_token(token))
        return "".join(raw), " ".join(clean)

    def abstract(self, target_chars: int) -> tuple[str, str]:
        raw, clean, length = [], [], 0
        while length < target_chars:
            sentence_raw, sentence_clean = self.rng.choice(self.sentences)
            if raw:
                raw.append(self._separator())
            raw.append(sentence_raw)
            if sentence_clean:
                clean.append(sentence_clean)
                length += len(sentence_clean) + 1
        # A leading dash that cleaning deletes: every abstract then holds a
        # character outside Latin-1, so its in-memory size does not depend
        # on which sentences the seed happened to pick.
        return self._pad("\u2013 " + "".join(raw)), " ".join(clean)

    def title(self, tag: str) -> tuple[str, str]:
        head_raw, head = self.phrase(self.rng.randint(3, 8))
        tail_raw, tail = self.phrase(self.rng.randint(0, 3))
        raw = f"{head_raw}{self._separator()}({tag}){self._separator()}{tail_raw}"
        return self._pad(raw), " ".join(p for p in (head, f"({tag})", tail) if p)

    def empty_abstract(self) -> tuple[str, str]:
        return self.rng.choice(("", " ", "\té\n", "– \x07")), ""

    def _pad(self, raw: str) -> str:
        if self.rng.random() < self.noise:
            raw = self.rng.choice(_NOISY_SEPARATORS) + raw
        if self.rng.random() < self.noise:
            raw += self.rng.choice(_NOISY_SEPARATORS)
        return raw


@dataclass
class Row:
    tag: str
    raw_title: str
    title: str
    raw_abstract: str
    abstract: str
    human: str = ""  # expected cleaned cell
    raw_human: str = ""
    decision: str = ""
    raw_decision: str = ""
    explanation: str = ""
    reflection: str = ""

    def cells(self) -> list[str]:
        return [self.title, self.abstract, self.human, self.decision, self.explanation, self.reflection]


@dataclass
class Dataset:
    name: str
    index: int
    rows: list[Row]
    inclusion: tuple[str, str]
    exclusion: tuple[str, str]


@dataclass
class Step:
    """One absieve CLI command and the exit code it must end with."""

    label: str
    kind: str  # "screen", "evaluate" or "annotate"
    args: list[str]
    exit_code: int
    round: int = 0
    restore: tuple[str, ...] = ()  # input files copied back before the command


@dataclass
class Plan:
    """Everything one run of a workload needs: files, commands and expectations."""

    files: dict[str, bytes]
    steps: list[Step]
    requests_per_minute: int
    expected_files: dict[str, bytes]
    expected_confusion: dict[str, dict[str, int]]
    rows_decided: int
    rows_annotated: int  # per round
    rows_attempted: int
    rows_failed: int  # rows ending as error or unparseable; annotations never fail
    corpus_rows: int
    stub_schedule: dict | None = None


def _tag(dataset_index: int, row: int) -> str:
    return f"T{dataset_index}x{row:05d}"


def _make_dataset(gen: TextGen, name: str, index: int, n: int, n_empty: int, abstract_chars: int) -> Dataset:
    rng = gen.rng
    empty = set(rng.sample(range(n), n_empty))
    rows = []
    for r in range(n):
        tag = _tag(index, r)
        raw_title, title = gen.title(tag)
        if r in empty:
            raw_abstract, abstract = gen.empty_abstract()
        else:
            raw_abstract, abstract = gen.abstract(rng.randint(abstract_chars - 200, abstract_chars + 200))
        rows.append(Row(tag, raw_title, title, raw_abstract, abstract))
    return Dataset(name, index, rows, gen.phrase(14), gen.phrase(10))


def _set_human(rng: random.Random, row: Row, label: str) -> None:
    row.human = label
    row.raw_human = rng.choice(_HUMAN_FORMS[label]) if label else ""


def _csv_text(header: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _input_csv(ds: Dataset, with_decision: bool, fancy_header: bool) -> bytes:
    header = ["Title", "Abstract", "Human_Decision"] if fancy_header else ["title", "abstract", "human_decision"]
    rows = [[r.raw_title, r.raw_abstract, r.raw_human] for r in ds.rows]
    if with_decision:
        header.append("decision")
        for cells, r in zip(rows, ds.rows):
            cells.append(r.raw_decision)
    text = _csv_text(header, rows)
    # A byte-order mark and capitalised headers on the first dataset only.
    return text.encode("utf-8-sig" if fancy_header else "utf-8")


def results_csv(ds: Dataset) -> bytes:
    return _csv_text(list(RESULT_COLUMNS), [r.cells() for r in ds.rows]).encode("ascii")


def _manifest(datasets: list[Dataset]) -> bytes:
    rows = [[d.name, d.inclusion[0], d.exclusion[0]] for d in datasets]
    return _csv_text(["Dataset Name", "Inclusion Criteria", "Exclusion Criteria"], rows).encode("utf-8")


def _ini(backend: str, runner: dict[str, object]) -> bytes:
    lines = ["[backend]", backend, "model = bench-model", f"credential_env = {CREDENTIAL_ENV}", "", "[runner]"]
    lines += [f"{key} = {value}" for key, value in runner.items()]
    lines += ["", "[paths]", "manifest = manifest.csv", "data_dir = data", "output_dir = out", ""]
    return "\n".join(lines).encode("ascii")


def confusion(ds: Dataset) -> dict[str, int]:
    counts = {"tp": 0, "fn": 0, "fp": 0, "tn": 0, "dropped": 0}
    for r in ds.rows:
        if r.human not in DECIDED or r.decision not in DECIDED:
            counts["dropped"] += 1
        elif r.human == INCLUDED:
            counts["tp" if r.decision == INCLUDED else "fn"] += 1
        else:
            counts["fp" if r.decision == INCLUDED else "tn"] += 1
    return counts


def _sample(rows: list[Row], eligible, k: int, seed: int) -> list[Row]:
    """The CLI's documented ``--sample K --seed S`` selection, in row order."""
    pool = [r for r in rows if eligible(r)]
    if k >= len(pool):
        return pool
    chosen = random.Random(seed).sample(pool, k)
    return sorted(chosen, key=lambda r: int(r.tag[-5:]))


def _explainable(r: Row) -> bool:
    return r.decision in DECIDED and r.human != ""


def _reflectable(r: Row) -> bool:
    return r.decision in DECIDED and r.human in DECIDED and r.human != r.decision


def _assign_labels(rng: random.Random, ds: Dataset, decisions: dict[int, str], disagree: int, include_share: float) -> None:
    """Give each row a model decision and a human label disagreeing on exactly ``disagree`` decided rows."""
    decided = [i for i, d in decisions.items() if d in DECIDED]
    flips = set(rng.sample(decided, disagree))
    for i, row in enumerate(ds.rows):
        row.decision = decisions[i]
        if row.decision in DECIDED:
            human = row.decision
            if i in flips:
                human = EXCLUDED if human == INCLUDED else INCLUDED
        else:
            human = INCLUDED if rng.random() < include_share else EXCLUDED
        _set_human(rng, row, human)


def _annotation_text(gen: TextGen, kind: str, tag: str) -> tuple[str, str]:
    raw, clean = gen.phrase(gen.rng.randint(6, 14))
    lead = f"{kind} for {tag}:"
    return f"{lead} {raw}", f"{lead} {clean}".strip()


def _annotate(gen: TextGen, pairs: list[tuple[Dataset, int]], seed: int) -> tuple[int, dict[tuple[str, str], dict[str, str]]]:
    """Script explain and reflect replies for every eligible row of each ``(dataset, k)``.

    Records the expected text on the rows ``--sample k --seed seed`` picks.
    Returns the rows annotated per pass and the replies by (kind, dataset),
    keyed by row tag.
    """
    annotated, scripts = 0, {}
    for ds, k in pairs:
        for kind, eligible in (("explain", _explainable), ("reflect", _reflectable)):
            replies, texts = {}, {}
            for r in ds.rows:
                if eligible(r):
                    replies[r.tag], texts[r.tag] = _annotation_text(gen, kind, r.tag)
            chosen = _sample(ds.rows, eligible, k, seed)
            for r in chosen:
                setattr(r, "explanation" if kind == "explain" else "reflection", texts[r.tag])
            annotated += len(chosen)
            scripts[(kind, ds.name)] = replies
    return annotated, scripts


def _pipeline(screen: Step, base: list[str], large: Dataset, small: Dataset, k_large: int, k_small: int,
              seed: int, mock: bool, repeats: tuple[int, int, int]) -> list[Step]:
    """The screen, then evaluate, then passes of explain and reflect on the large and small dataset.

    ``repeats`` says how often each stage runs. Repeating a stage leaves the
    same files; a repeated screen first restores the files it resumes from.
    """
    screens, evaluates, passes = repeats
    steps = [screen] + [
        Step(screen.label, screen.kind, screen.args, screen.exit_code, n, screen.restore) for n in range(1, screens)
    ]
    steps += [Step("evaluate", "evaluate", ["evaluate", *base, "--all"], 0, n) for n in range(evaluates)]
    for n in range(passes):
        for ds, k in ((large, k_large), (small, k_small)):
            for kind in ("explain", "reflect"):
                args = [kind, *base, "--dataset", ds.name, "--sample", str(k), "--seed", str(seed)]
                if mock:
                    args += ["--mock-script", f"scripts/{kind}-{ds.name}.json"]
                steps.append(Step(f"{kind}:{ds.name}", "annotate", args, 0, n))
    return steps


def _mock_scripts(scripts: dict[tuple[str, str], dict[str, str]]) -> dict[str, bytes]:
    files = {}
    for (kind, name), replies in scripts.items():
        script = {f"{name}/{int(tag[-5:])}": text for tag, text in replies.items()}
        script["default"] = ""
        files[f"scripts/{kind}-{name}.json"] = json.dumps(script, sort_keys=True).encode("ascii")
    return files


def _failed_rows(datasets: list[Dataset]) -> int:
    return sum(1 for d in datasets for r in d.rows if r.decision in (ERROR, UNPARSEABLE))


# Sizes: (dataset sizes, explain/reflect sample on the large and small
# dataset, (screens, evaluates, explain/reflect passes) per iteration).
# Every command is repeated within an iteration, and iterations are kept
# short, so each timing has eight or more samples spread over a 40 s run.
SIZES = {
    "screen-ckpt": {"full": ((16, 32, 64), 12, 4, (2, 5, 2)), "tiny": ((4, 8, 16), 3, 2, (1, 1, 1))},
    "screen-http": {"full": ((40, 80, 160), 12, 4, (2, 6, 2)), "tiny": ((6, 10, 16), 3, 2, (1, 1, 1))},
    # Six uneven datasets, the reference datasets' sizes scaled to 14,771 rows.
    "review-large": {
        "full": ((170, 2424, 885, 572, 8976, 1744), 24, 6, (2, 4, 1)),
        "tiny": ((12, 40, 20, 16, 60, 30), 4, 2, (2, 1, 1)),
    },
}

ABSTRACT_CHARS = 1600
# screen-ckpt keeps the shipped runner defaults; the limiter is set far above
# the rate the checkpoint-bound coordinator can reach, so it never binds.
UNBOUND_RPM = 6_000_000


def _screen_ckpt(seed: int, tiny: bool) -> Plan:
    rng = random.Random(f"screen-ckpt/{seed}")
    gen = TextGen(rng, noise=0.08)
    sizes, k_large, k_small, repeats = SIZES["screen-ckpt"]["tiny" if tiny else "full"]
    datasets = [
        _make_dataset(gen, f"ck{i + 1}", i + 1, n, max(1, round(0.05 * n)), ABSTRACT_CHARS)
        for i, n in enumerate(sizes)
    ]
    files: dict[str, bytes] = {"manifest.csv": _manifest(datasets)}
    script: dict[str, str] = {}
    for ds in datasets:
        n = len(ds.rows)
        prose = set(rng.sample(range(n), max(1, n // 40)))
        decisions = {}
        for i, row in enumerate(ds.rows):
            if i in prose:
                decisions[i] = UNPARSEABLE
                script[f"{ds.name}/{i}"] = _PROSE
            else:
                decisions[i] = INCLUDED if rng.random() < 0.2 else EXCLUDED
                script[f"{ds.name}/{i}"] = rng.choice(_LABEL_FORMS[decisions[i]])
        _assign_labels(rng, ds, decisions, max(k_small, round(0.1 * n)), 0.2)
        files[f"data/{ds.name}.csv"] = _input_csv(ds, False, ds.index == 1)
    script["default"] = ""
    files["scripts/screen.json"] = json.dumps(script, sort_keys=True).encode("ascii")
    rpm = UNBOUND_RPM
    files["absieve.ini"] = _ini(
        "mock_script = scripts/screen.json",
        {"max_in_flight": max_in_flight(), "requests_per_minute": rpm},
    )

    small, large = datasets[0], datasets[-1]
    annotate_seed = seed % 1000 + 7
    annotated, scripts = _annotate(gen, [(large, k_large), (small, k_small)], annotate_seed)
    files.update(_mock_scripts(scripts))
    base = ["-c", "absieve.ini"]
    screen = Step("screen", "screen", ["screen", *base], 0)
    steps = _pipeline(screen, base, large, small, k_large, k_small, annotate_seed, True, repeats)
    return _plan(files, steps, rpm, datasets, datasets, annotated)


# Fault kinds for screen-http, as the stub's reply to each successive attempt
# (the last entry repeats), the decision the row must end with, and how many
# rows carry the fault in a full-size and a tiny run.
HTTP_FAULTS = {
    "429-then-ok": (["429", "ok"], None, 6, 1),
    "503-twice-then-ok": (["503", "503", "ok"], None, 6, 1),
    "503-exhausts-retries": (["503"], ERROR, 3, 1),
    "400": (["400"], ERROR, 3, 1),
    "malformed-body": (["malformed"], ERROR, 3, 1),
    "prose-then-label": (["prose", "ok"], None, 4, 1),
    "prose-twice": (["prose"], UNPARSEABLE, 4, 1),
}


def _screen_http(seed: int, tiny: bool) -> Plan:
    rng = random.Random(f"screen-http/{seed}")
    gen = TextGen(rng, noise=0.08)
    sizes, k_large, k_small, repeats = SIZES["screen-http"]["tiny" if tiny else "full"]
    datasets = [
        _make_dataset(gen, f"ht{i + 1}", i + 1, n, max(1, round(0.05 * n)), ABSTRACT_CHARS)
        for i, n in enumerate(sizes)
    ]
    files: dict[str, bytes] = {"manifest.csv": _manifest(datasets)}
    every_row = [(d, i) for d in range(len(datasets)) for i in range(sizes[d])]
    n_faulty = sum(f[3 if tiny else 2] for f in HTTP_FAULTS.values())
    faulty = iter(rng.sample(every_row, n_faulty))
    fault_of: dict[tuple[int, int], str] = {}
    for kind, spec in HTTP_FAULTS.items():
        for _ in range(spec[3 if tiny else 2]):
            fault_of[next(faulty)] = kind

    replies: dict[str, str] = {}
    faults: dict[str, list[str]] = {}
    for d, ds in enumerate(datasets):
        decisions = {}
        for i, row in enumerate(ds.rows):
            label = INCLUDED if rng.random() < 0.2 else EXCLUDED
            replies[f"decision/{row.tag}"] = rng.choice(_LABEL_FORMS[label])
            decisions[i] = label
            kind = fault_of.get((d, i))
            if kind:
                actions, outcome, _, _ = HTTP_FAULTS[kind]
                faults[f"decision/{row.tag}"] = actions
                decisions[i] = outcome or label
        _assign_labels(rng, ds, decisions, max(k_small, round(0.1 * len(ds.rows))), 0.2)
        files[f"data/{ds.name}.csv"] = _input_csv(ds, False, ds.index == 1)

    small, large = datasets[0], datasets[-1]
    annotate_seed = seed % 1000 + 11
    annotated, scripts = _annotate(gen, [(large, k_large), (small, k_small)], annotate_seed)
    for (kind, _), texts in scripts.items():
        replies.update({f"{kind}/{tag}": text for tag, text in texts.items()})

    rpm = HTTP_RPM_TINY if tiny else HTTP_RPM
    files["absieve.ini"] = _ini(
        "",
        {
            "max_in_flight": max_in_flight(),
            "requests_per_minute": rpm,
            "backoff_base_s": HTTP_BACKOFF_BASE_S,
            "checkpoint_every": 1_000_000,
        },
    )
    base = ["-c", "absieve.ini"]
    screen = Step("screen", "screen", ["screen", *base], 1)
    steps = _pipeline(screen, base, large, small, k_large, k_small, annotate_seed, False, repeats)
    plan = _plan(files, steps, rpm, datasets, datasets, annotated)
    plan.stub_schedule = {"replies": replies, "faults": faults, "prose": _PROSE, "tag_pattern": TAG_PATTERN}
    return plan


# The limiter interval for screen-http is a few times the local cost of one
# call on the HTTP path (about 1.5 ms on a 2-vCPU machine), so it binds.
HTTP_RPM = 12_000
HTTP_RPM_TINY = 60_000
HTTP_BACKOFF_BASE_S = 0.002


def _review_large(seed: int, tiny: bool) -> Plan:
    rng = random.Random(f"review-large/{seed}")
    gen = TextGen(rng, noise=0.03)
    sizes, k_large, k_small, repeats = SIZES["review-large"]["tiny" if tiny else "full"]
    names = ("ivm", "ssri", "lpvr", "raynauds", "noa", "llm")
    datasets = [
        _make_dataset(gen, names[i], i + 1, n, round(0.05 * n), ABSTRACT_CHARS)
        for i, n in enumerate(sizes)
    ]
    # explain/reflect read and rewrite a whole results file; using the second
    # largest dataset keeps one pass near a second while evaluate reads all of
    # them. The resumed screen works on the median-sized one.
    by_size = sorted(datasets, key=lambda d: len(d.rows))
    small, resumed, large = by_size[0], by_size[2], by_size[-2]
    files: dict[str, bytes] = {"manifest.csv": _manifest(datasets)}
    script: dict[str, str] = {}
    pending_total = 0
    for ds in datasets:
        n = len(ds.rows)
        marks = rng.sample(range(n), 3 * max(1, n // 200) + (max(2, n // 100) if ds is resumed else 0))
        per = max(1, n // 200)
        bad = {i: ERROR for i in marks[:per]} | {i: UNPARSEABLE for i in marks[per:2 * per]}
        no_human = set(marks[2 * per:3 * per])
        pending = set(marks[3 * per:])
        decisions = {i: bad.get(i) or (INCLUDED if rng.random() < 0.15 else EXCLUDED) for i in range(n)}
        _assign_labels(rng, ds, decisions, max(k_small, round(0.1 * n)), 0.15)
        for i, row in enumerate(ds.rows):
            if i in no_human:
                _set_human(rng, row, "")
            if i in pending:
                # Left undecided on disk; the resumed screen decides it.
                script[f"{ds.name}/{i}"] = rng.choice(_LABEL_FORMS[row.decision])
                row.raw_decision = rng.choice(("", " "))
            else:
                row.raw_decision = rng.choice((row.decision, row.decision.capitalize()))
        pending_total += len(pending)
        files[f"out/{ds.name}_results.csv"] = _input_csv(ds, True, False)
    script["default"] = ""
    files["scripts/screen.json"] = json.dumps(script, sort_keys=True).encode("ascii")
    rpm = UNBOUND_RPM
    files["absieve.ini"] = _ini(
        "mock_script = scripts/screen.json",
        {"max_in_flight": max_in_flight(), "requests_per_minute": rpm, "checkpoint_every": 1_000_000},
    )
    annotate_seed = seed % 1000 + 13
    annotated, scripts = _annotate(gen, [(large, k_large), (small, k_small)], annotate_seed)
    files.update(_mock_scripts(scripts))
    base = ["-c", "absieve.ini"]
    args = ["screen", *base, "--dataset", resumed.name, "--resume"]
    screen = Step("screen", "screen", args, 0, restore=(f"out/{resumed.name}_results.csv",))
    steps = _pipeline(screen, base, large, small, k_large, k_small, annotate_seed, True, repeats)
    plan = _plan(files, steps, rpm, datasets, [small, resumed, large], annotated)
    plan.rows_decided = pending_total
    return plan


def _plan(files: dict[str, bytes], steps: list[Step], rpm: int,
          datasets: list[Dataset], written: list[Dataset], annotated: int) -> Plan:
    rows = sum(len(d.rows) for d in datasets)
    failed = _failed_rows(datasets)
    files.setdefault("data/.keep", b"")
    return Plan(
        files=files,
        steps=steps,
        requests_per_minute=rpm,
        expected_files={f"out/{d.name}_results.csv": results_csv(d) for d in written},
        expected_confusion={d.name: confusion(d) for d in datasets},
        rows_decided=rows,
        rows_annotated=annotated,
        rows_attempted=rows + annotated * (1 + max(s.round for s in steps if s.kind == "annotate")),
        rows_failed=failed,
        corpus_rows=rows,
    )


def max_in_flight() -> int:
    """One worker per available core: a closed loop that never oversubscribes."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def build(workload: str, seed: int, tiny: bool = False) -> Plan:
    by_name = {"screen-ckpt": _screen_ckpt, "screen-http": _screen_http, "review-large": _review_large}
    if workload not in by_name:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return by_name[workload](seed, tiny)
