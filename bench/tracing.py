"""In-memory spans around absieve's public functions, installed from outside.

``Tracer.install()`` wraps each traced function once and patches the wrapper
into every absieve module that holds the original by name (for example
``absieve.runner.write_results`` and ``absieve.cli.clean_text``), so calls
made inside absieve are seen too. A span is
``(id, name, start_ns, end_ns, parent_id, thread, key, size, error)``: the
parent is the innermost traced call open on the same thread, ``key`` is the
``dataset/row`` (or dataset) the call works on where the arguments name one,
and ``size`` is a per-function amount of work (characters cleaned, rows
loaded or written). Spans stay in memory until :meth:`Tracer.dump`.

The analysis helpers at the bottom run in the benchmark process on dumped
spans; they import nothing from absieve.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from pathlib import Path

# (module, attribute): public functions, wrapped wherever a module imported them.
FUNCTIONS = (
    ("absieve.corpus", "clean_text"),
    ("absieve.corpus", "load_manifest"),
    ("absieve.corpus", "load_dataset"),
    ("absieve.corpus", "write_results"),
    ("absieve.prompts", "build_decision_prompt"),
    ("absieve.prompts", "build_explain_prompt"),
    ("absieve.prompts", "build_reflect_prompt"),
    ("absieve.llm", "parse_decision"),
    ("absieve.runner", "run_screening"),
    ("absieve.runner", "run_explanations"),
    ("absieve.runner", "estimate_cost"),
    ("absieve.metrics", "confusion_matrix"),
    ("absieve.metrics", "classification_report"),
    ("absieve.metrics", "cohens_kappa"),
    ("absieve.metrics", "weighted_summary"),
)
# (module, class, method): methods wrapped on the class itself.
METHODS = (
    ("absieve.llm", "HttpBackend", "complete"),
    ("absieve.llm", "MockBackend", "complete"),
    ("absieve.runner", "RateLimiter", "acquire"),
)
CLASSMETHODS = (("absieve.metrics", "DatasetMetrics", "from_decisions"),)
COMMANDS = ("screen", "explain", "reflect", "evaluate", "estimate_cost_cmd")
MODULES = ("absieve.corpus", "absieve.prompts", "absieve.llm", "absieve.runner", "absieve.metrics", "absieve.cli")


def _short(module: str, name: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{name}"


def _describe(name: str, args: tuple) -> tuple[str | None, int]:
    """The ``key`` and ``size`` of a call, read from its arguments."""
    if name == "corpus.clean_text":
        return None, len(args[0])
    if name == "corpus.load_dataset":
        return str(args[1]), 0
    if name == "corpus.write_results":
        stem = Path(args[1]).name
        return stem.removesuffix("_results.csv"), len(args[0])
    if name.endswith(".complete"):
        request = args[1]
        return f"{request.dataset_name}/{request.row_index}", 0
    if name.startswith("prompts.build_"):
        return str(args[0].row_index), 0
    if name == "metrics.DatasetMetrics.from_decisions":
        return str(args[0]), len(args[1])
    return None, 0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, name: str, fn, sized_result: bool = False):
        spans, ids, local = self.spans, self._ids, self._local
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                key, size = _describe(name, args)
                if sized_result and error is None:
                    size = len(result)
                spans.append((span_id, name, start, end, parent, threading.get_ident(), key, size, error))
            return result

        return traced

    def install(self) -> None:
        import importlib

        modules = [importlib.import_module(m) for m in MODULES]
        for module_name, attr in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapped = self.wrap(_short(module_name, attr), original, sized_result=attr == "load_dataset")
            for module in modules:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapped)
        for module_name, cls_name, attr in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            name = "llm.complete" if attr == "complete" else f"runner.limiter.{attr}"
            setattr(cls, attr, self.wrap(name, getattr(cls, attr)))
        for module_name, cls_name, attr in CLASSMETHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            function = cls.__dict__[attr].__func__
            traced = self.wrap(f"metrics.{cls_name}.{attr}", lambda *a, **k: function(cls, *a, **k))
            setattr(cls, attr, staticmethod(traced))
        cli = importlib.import_module("absieve.cli")
        for command_name in COMMANDS:
            command = getattr(cli, command_name)
            command.callback = self.wrap(f"cli.{command.name}", command.callback)

    def dump(self, path: str | Path) -> None:
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        threads = sorted({s[5] for s in self.spans})
        tindex = {t: i for i, t in enumerate(threads)}
        rows = [[s[0], index[s[1]], s[2], s[3], s[4], tindex[s[5]], s[6], s[7], s[8]] for s in self.spans]
        Path(path).write_text(json.dumps({"names": names, "spans": rows}, separators=(",", ":")))


# ---- analysis of dumped spans (benchmark side) -------------------------------


class Span(tuple):
    __slots__ = ()
    id = property(lambda s: s[0])
    name = property(lambda s: s[1])
    start = property(lambda s: s[2])
    end = property(lambda s: s[3])
    parent = property(lambda s: s[4])
    thread = property(lambda s: s[5])
    key = property(lambda s: s[6])
    size = property(lambda s: s[7])
    error = property(lambda s: s[8])

    @property
    def ns(self) -> int:
        return self[3] - self[2]


def load(path: str | Path) -> list[Span]:
    data = json.loads(Path(path).read_text())
    names = data["names"]
    return [Span((r[0], names[r[1]], *r[2:])) for r in data["spans"]]


def union_ns(intervals, lo: int | None = None, hi: int | None = None) -> int:
    """Length of the union of ``(start, end)`` intervals, clipped to ``[lo, hi]``."""
    total, cur_start, cur_end = 0, None, None
    for start, end in sorted(intervals):
        if lo is not None:
            start = max(start, lo)
        if hi is not None:
            end = min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_ns(spans: list[Span]) -> dict[int, int]:
    """Each span's duration minus the part of it covered by its child spans."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.ns - union_ns(children.get(s.id, ()), s.start, s.end) for s in spans}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of ``values``."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]
