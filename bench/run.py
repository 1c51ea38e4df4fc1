"""absieve benchmark: run one workload end to end and print its metrics.

Usage (from the repository root)::

    python3 bench/run.py --workload screen-ckpt --seed 1 --seconds 30 --trace 0

Each iteration copies the workload's generated inputs into a fresh
directory and runs the workload's absieve commands there, each one through
``absieve.cli.main([...], standalone_mode=False)`` in a fresh interpreter
(``command.py``). Iterations repeat until ``--seconds`` have passed, and
every iteration's outputs are checked against the generator's expectations
(``workloads.py``). The last line of standard output is one JSON object:
``correct``, ``attempted`` and ``failed`` (commands run, and commands whose
exit code or outputs were wrong) and ``metrics``, each the median over
iterations. ``--trace 0`` reports the end-to-end metrics from untraced
iterations; ``--trace 1`` alternates traced and untraced iterations and
reports the per-layer metrics derived from the traced ones' spans
(``tracing.py``), plus the tracing overhead. ``--tiny`` shrinks every input
for the benchmark's own tests.

Load is a closed loop: one client process with ``max_in_flight`` equal to
the number of available cores, each worker waiting for its reply.
"""

from __future__ import annotations

import argparse
import csv
import http.client
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

COMMAND_TIMEOUT_S = 150
# An iteration is never started past this point, so a run ends well within
# three minutes even when the machine is slow.
LAST_START_S = 120

END_TO_END = {
    "setup_s": "s",
    "screen_rows_per_s": "1/s",
    "floor_ratio": "ratio",
    "evaluate_s": "s",
    "annotate_rows_per_s": "1/s",
    "peak_rss_mb": "MB",
    "failed_row_share": "share",
}
PER_LAYER = {
    "corpus.write_results.calls": "count",
    "corpus.write_results.rows_written_per_row_done": "ratio",
    "corpus.write_results.us_per_row_written": "us",
    "corpus.load_dataset.us_per_row": "us",
    "corpus.clean_text.calls_per_row": "ratio",
    "corpus.clean_text.ns_per_char": "ns",
    "prompts.build_decision_prompt.us_per_call": "us",
    "prompts.build_explain_prompt.us_per_call": "us",
    "prompts.build_reflect_prompt.us_per_call": "us",
    "llm.complete.calls_per_row": "ratio",
    "llm.complete.samples": "count",
    "llm.complete.latency_p50_ms": "ms",
    "llm.complete.latency_p99_ms": "ms",
    "llm.complete.transient_errors": "count",
    "llm.complete.fatal_errors": "count",
    "llm.parse_decision.us_per_call": "us",
    "runner.limiter.wait_s": "s",
    "runner.limiter.wait_p99_ms": "ms",
    "runner.useful_call_ratio": "ratio",
    "runner.run_log.lines_per_row": "ratio",
    "runner.run_log.bytes_per_row": "B/row",
    "runner.coordinator_self_s": "s",
    "runner.local_us_per_row.small": "us",
    "runner.local_us_per_row.large": "us",
    "runner.run_explanations.self_s": "s",
    "metrics.from_decisions.us_per_row": "us",
    "metrics.weighted_summary.us": "us",
    "cli.evaluate.self_s": "s",
    "trace.overhead_share": "share",
}
# Counts fixed by the inputs: every iteration, and every seed, must give the
# same value. A difference marks nondeterminism and fails the run.
EXACT = (
    "corpus.write_results.calls",
    "corpus.write_results.rows_written_per_row_done",
    "corpus.clean_text.calls_per_row",
    "llm.complete.calls_per_row",
    "llm.complete.samples",
    "llm.complete.transient_errors",
    "llm.complete.fatal_errors",
    "runner.run_log.lines_per_row",
    "runner.useful_call_ratio",
)


class Stub:
    """The loopback provider in a child process; stopped even when a run fails."""

    def __init__(self, schedule_path: Path, env: dict[str, str]):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "stub.py"), str(schedule_path)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        line: list[str] = []
        reader = threading.Thread(target=lambda: line.append(self.proc.stdout.readline()), daemon=True)
        reader.start()
        reader.join(10)
        if not line or not line[0].startswith("PORT "):
            self.stop()
            raise RuntimeError("stub provider did not start")
        self.port = int(line[0].split()[1])

    @property
    def base_url(self) -> str:
        return f"http://127.0.0.1:{self.port}"

    def reset(self) -> int:
        """Forget attempt counts; return the completions served since the last reset."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request("POST", "/reset", body=b"{}", headers={"Content-Type": "application/json"})
            return json.loads(conn.getresponse().read())["served"]
        finally:
            conn.close()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(5)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def child_env(work: Path) -> dict[str, str]:
    """A minimal environment: no proxies, a dummy credential, HOME in the checkout."""
    return {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "PYTHONPATH": f"{SRC}{os.pathsep}{BENCH_DIR}",
        "HOME": str(work),
        "LC_ALL": "C.UTF-8",
        workloads.CREDENTIAL_ENV: "bench-dummy-credential",
    }


def run_log_tail(path: Path, offset: int) -> tuple[int, list[dict]]:
    if not path.exists():
        return 0, []
    data = path.read_bytes()[offset:]
    return len(data), [json.loads(line) for line in data.splitlines()]


def run_iteration(plan: workloads.Plan, pristine: Path, it_dir: Path, env: dict, traced: bool,
                  stub: Stub | None) -> list[dict]:
    shutil.copytree(pristine, it_dir)
    log_path = it_dir / "out" / "run_log.jsonl"
    offset = 0
    records = []
    if stub is not None:
        stub.reset()
    for n, step in enumerate(plan.steps):
        for rel in step.restore:
            shutil.copyfile(pristine / rel, it_dir / rel)
        args = step.args + (["--base-url", stub.base_url] if stub is not None else [])
        result = it_dir / f"step{n}.json"
        spec = it_dir / f"step{n}.spec.json"
        spec.write_text(json.dumps({"args": args, "trace": traced, "result": str(result)}))
        with open(it_dir / f"step{n}.log", "wb") as out:
            try:
                subprocess.run(
                    [sys.executable, str(BENCH_DIR / "command.py"), str(spec)],
                    cwd=it_dir, env=env, stdout=out, stderr=subprocess.STDOUT, timeout=COMMAND_TIMEOUT_S,
                )
            except subprocess.TimeoutExpired:
                out.write(b"timed out")
        record = json.loads(result.read_text()) if result.exists() else {"exit_code": None}
        if stub is not None:
            # Every command, a repeated screen too, meets the fault schedule from its first attempt.
            record["served"] = stub.reset()
        size, lines = run_log_tail(log_path, offset)
        offset += size
        record.update(label=step.label, kind=step.kind, round=step.round, log_bytes=size, log=lines)
        outputs = {"screen": "run_report.json", "evaluate": "metrics.json"}
        if step.kind in outputs and (it_dir / "out" / outputs[step.kind]).exists():
            record[step.kind] = json.loads((it_dir / "out" / outputs[step.kind]).read_text())
        if traced and record.get("spans"):
            record["spans"] = tracing.load(record["spans"])
        records.append(record)
    return records


def check(plan: workloads.Plan, it_dir: Path, records: list[dict]) -> list[str]:
    """Compare one iteration's exit codes and outputs with the expectations."""
    problems = []
    for n, (step, record) in enumerate(zip(plan.steps, records)):
        if record["exit_code"] != step.exit_code:
            log = (it_dir / f"step{n}.log").read_text(errors="replace")[-400:]
            problems.append(f"{step.label}: exit code {record['exit_code']}, expected {step.exit_code}: {log}")
    for rel, expected in plan.expected_files.items():
        path = it_dir / rel
        actual = path.read_bytes() if path.exists() else None
        if actual != expected:
            where = "missing" if actual is None else f"differs from byte {_first_difference(actual, expected)}"
            problems.append(f"{rel}: {where}")
    for record in records:
        if record["kind"] == "evaluate":
            got = {d["dataset_name"]: d["confusion"] for d in record.get("evaluate", {}).get("datasets", [])}
            if got != plan.expected_confusion:
                problems.append(f"metrics.json confusion counts {got} != {plan.expected_confusion}")
        if record["kind"] == "screen":
            decided = sum(d["rows_screened"] for d in record.get("screen", {}).get("datasets", {}).values())
            if decided != plan.rows_decided:
                problems.append(f"screen decided {decided} rows, expected {plan.rows_decided}")
    if any(r.get("setup_s") is None for r in records if r["kind"] == "screen"):
        problems.append("screen: no backend call recorded")
    failed = _failed_rows(it_dir, records)
    if failed != plan.rows_failed:
        problems.append(f"{failed} rows or annotations failed, expected {plan.rows_failed}")
    outcomes: dict[str, set] = {}
    for record in records:
        if "served" in record and record["served"] != len(record["log"]):
            problems.append(f"{record['label']}: stub served {record['served']} completions, run log has {len(record['log'])}")
        counts = Counter(line["outcome"] for line in record["log"])
        outcomes.setdefault(record["label"], set()).add(json.dumps(counts, sort_keys=True))
    problems += [f"{label}: repeats logged different outcomes {sorted(seen)}" for label, seen in outcomes.items() if len(seen) > 1]
    return problems


def _first_difference(a: bytes, b: bytes) -> int:
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))


def _step(records: list[dict], label: str) -> dict:
    return next(r for r in records if r["label"] == label)


def _failed_rows(it_dir: Path, records: list[dict]) -> int:
    """Rows ending as error or unparseable, plus annotations whose last call failed."""
    failed = 0
    for path in sorted((it_dir / "out").glob("*_results.csv")):
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = list(csv.reader(fh))
        pos = [c.strip().lower() for c in rows[0]].index("decision")
        failed += sum(1 for row in rows[1:] if row and row[pos].strip().lower() in (workloads.ERROR, workloads.UNPARSEABLE))
    for record in records:
        if record["kind"] == "annotate":
            last = {(line["dataset"], line["row"]): line["outcome"] for line in record["log"]}
            failed += sum(1 for outcome in last.values() if outcome != "ok")
    return failed


def end_to_end(plan: workloads.Plan, it_dir: Path, records: list[dict]) -> dict[str, list[float]]:
    """One iteration's samples of every end-to-end metric."""
    screens = [r for r in records if r["kind"] == "screen"]
    rounds = sorted({r["round"] for r in records if r["kind"] == "annotate"})
    return {
        "setup_s": [r["setup_s"] for r in screens],
        "screen_rows_per_s": [plan.rows_decided / r["wall_s"] for r in screens],
        "floor_ratio": [r["wall_s"] / (len(r["log"]) * 60.0 / plan.requests_per_minute) for r in screens],
        "evaluate_s": [r["wall_s"] for r in records if r["kind"] == "evaluate"],
        "annotate_rows_per_s": [
            plan.rows_annotated / sum(r["wall_s"] for r in records if r["kind"] == "annotate" and r["round"] == n)
            for n in rounds
        ],
        "peak_rss_mb": [max(r["max_rss_kb"] for r in records) * 1024 / 1e6],
        "failed_row_share": [_failed_rows(it_dir, records) / plan.rows_attempted],
    }


def _named(spans, name: str) -> list:
    return [s for s in spans if s.name == name]


def _us_per(spans, per: float) -> float:
    return sum(s.ns for s in spans) / 1e3 / per if per else 0.0


def _self_s(spans, name: str) -> float:
    selfs = tracing.self_ns(spans)
    return sum(selfs[s.id] for s in spans if s.name == name) / 1e9


def _local_us_per_row(spans, report: dict) -> dict[str, float]:
    """Per-row coordinator time on a dataset outside backend calls and limiter waits."""
    busy = [(s.start, s.end) for s in spans if s.name in ("llm.complete", "runner.limiter.acquire")]
    local = {}
    for name, stats in report["datasets"].items():
        writes = [s for s in _named(spans, "corpus.write_results") if s.key == name]
        if not writes or not stats["rows_screened"]:
            continue
        lo, hi = min(s.start for s in writes), max(s.end for s in writes)
        local[name] = ((hi - lo) - tracing.union_ns(busy, lo, hi)) / 1e3 / stats["rows_screened"]
    sizes = {name: report["datasets"][name]["rows_total"] for name in local}
    return {
        "small": local[min(sizes, key=sizes.get)],
        "large": local[max(sizes, key=sizes.get)],
    }


def per_layer(plan: workloads.Plan, records: list[dict]) -> dict[str, float]:
    """Layer metrics from one traced iteration; screen-scoped ones use its first screen."""
    screen = _step(records, "screen")
    evaluates = [r for r in records if r["kind"] == "evaluate"]
    evaluate_spans = [s for r in evaluates for s in r["spans"]]
    every = [s for r in records for s in r["spans"]]
    rows = plan.rows_decided
    writes = _named(screen["spans"], "corpus.write_results")
    written = sum(s.size for s in writes)
    loads = _named(every, "corpus.load_dataset")
    cleans = _named(every, "corpus.clean_text")
    calls = _named(screen["spans"], "llm.complete")
    latencies = [s.ns / 1e6 for s in calls]
    waits = [s.ns / 1e6 for s in _named(screen["spans"], "runner.limiter.acquire")]
    report = screen["screen"]["datasets"]
    useful = sum(d["included_count"] + d["excluded_count"] for d in report.values())
    summaries = _named(evaluate_spans, "metrics.weighted_summary")
    from_decisions = _named(evaluate_spans, "metrics.DatasetMetrics.from_decisions")
    local = _local_us_per_row(screen["spans"], screen["screen"])
    errors = [s.error for s in _named(every, "llm.complete")]
    metrics = {
        "corpus.write_results.calls": len(writes),
        "corpus.write_results.rows_written_per_row_done": written / rows,
        "corpus.write_results.us_per_row_written": _us_per(writes, written),
        "corpus.load_dataset.us_per_row": _us_per(loads, sum(s.size for s in loads)),
        "corpus.clean_text.calls_per_row": len(cleans) / plan.corpus_rows,
        "corpus.clean_text.ns_per_char": sum(s.ns for s in cleans) / max(1, sum(s.size for s in cleans)),
        "llm.complete.calls_per_row": len(calls) / rows,
        "llm.complete.samples": len(calls),
        "llm.complete.latency_p50_ms": tracing.percentile(latencies, 50),
        "llm.complete.latency_p99_ms": tracing.percentile(latencies, 99),
        "llm.complete.transient_errors": errors.count("TransientBackendError"),
        "llm.complete.fatal_errors": errors.count("FatalBackendError"),
        "runner.limiter.wait_s": sum(waits) / 1e3,
        "runner.limiter.wait_p99_ms": tracing.percentile(waits, 99),
        "runner.useful_call_ratio": useful / len(calls),
        "runner.run_log.lines_per_row": len(screen["log"]) / rows,
        "runner.run_log.bytes_per_row": screen["log_bytes"] / rows,
        "runner.coordinator_self_s": _self_s(screen["spans"], "runner.run_screening"),
        "runner.local_us_per_row.small": local["small"],
        "runner.local_us_per_row.large": local["large"],
        "runner.run_explanations.self_s": sum(
            _self_s(r["spans"], "runner.run_explanations") for r in records if r["kind"] == "annotate"
        ),
        "metrics.from_decisions.us_per_row": _us_per(from_decisions, sum(s.size for s in from_decisions)),
        "metrics.weighted_summary.us": _us_per(summaries, len(summaries)),
        "cli.evaluate.self_s": statistics.median(_self_s(r["spans"], "cli.evaluate") for r in evaluates),
    }
    for kind in ("decision", "explain", "reflect"):
        built = _named(every, f"prompts.build_{kind}_prompt")
        metrics[f"prompts.build_{kind}_prompt.us_per_call"] = _us_per(built, len(built))
    parses = _named(every, "llm.parse_decision")
    metrics["llm.parse_decision.us_per_call"] = _us_per(parses, len(parses))
    return metrics


def exact_log_counts(records: list[dict]) -> Counter:
    """Run-log counts every iteration must repeat: lines and outcomes per command."""
    return Counter(f"{record['label']}:{line['outcome']}" for record in records for line in record["log"])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the benchmark's own tests")
    opts = parser.parse_args(argv)
    # Run the clean-up below (stop the stub, remove the work directory) on SIGTERM too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "absieve" / "cli.py").is_file():
        print(f"absieve sources not found under {SRC}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    work = WORK / f"{opts.workload}-{opts.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    stub = None
    try:
        plan = workloads.build(opts.workload, opts.seed, opts.tiny)
        pristine = work / "inputs"
        for rel, data in plan.files.items():
            (pristine / rel).parent.mkdir(parents=True, exist_ok=True)
            (pristine / rel).write_bytes(data)
        env = child_env(work)
        if plan.stub_schedule is not None:
            (work / "schedule.json").write_text(json.dumps(plan.stub_schedule))
            stub = Stub(work / "schedule.json", env)
        # Compile the sources once so no timed command pays for it.
        subprocess.run([sys.executable, "-c", "import absieve.cli"], env=env, cwd=work, check=True)
        return measure(opts, plan, pristine, work, env, stub)
    finally:
        if stub is not None:
            stub.stop()
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def measure(opts, plan: workloads.Plan, pristine: Path, work: Path, env: dict, stub: Stub | None) -> int:
    minimum = {False: 1 if opts.tiny or opts.trace else 2, True: 1 if opts.tiny else 2}
    done: dict[bool, list] = {False: [], True: []}
    walls: dict[bool, list[float]] = {False: [], True: []}
    problems: list[str] = []
    exact_seen: dict[str, set] = {}
    attempted = failed = 0
    started = time.monotonic()
    n = 0
    durations: list[float] = []
    while True:
        traced = bool(opts.trace) and n % 2 == 0
        elapsed = time.monotonic() - started
        short = any(len(done[t]) < minimum[t] for t in ((False, True) if opts.trace else (False,)))
        # Start another iteration only if it is expected to end within --seconds.
        expected_end = elapsed + (statistics.median(durations) if durations else 0)
        if elapsed >= LAST_START_S or (expected_end > opts.seconds and not short):
            break
        iteration_started = time.monotonic()
        it_dir = work / f"it{n}"
        records = run_iteration(plan, pristine, it_dir, env, traced, stub)
        found = check(plan, it_dir, records)
        attempted += len(records)
        failed += min(len(records), len(found))
        problems += [f"iteration {n}: {p}" for p in found]
        if found:
            break
        exact_seen.setdefault("run log", set()).add(json.dumps(exact_log_counts(records), sort_keys=True))
        values = per_layer(plan, records) if traced else end_to_end(plan, it_dir, records)
        if traced:
            for key in EXACT:
                exact_seen.setdefault(key, set()).add(values[key])
        done[traced].append(values)
        walls[traced].append(sum(r["wall_s"] for r in records))
        shown = {k: v if traced else statistics.median(v) for k, v in values.items()}
        print(f"iteration {n} ({'traced' if traced else 'untraced'}): "
              + " ".join(f"{k}={v:.6g}" for k, v in shown.items()), flush=True)
        shutil.rmtree(it_dir, ignore_errors=True)
        durations.append(time.monotonic() - iteration_started)
        n += 1

    for key, values in exact_seen.items():
        if len(values) > 1:
            problems.append(f"nondeterministic {key}: {sorted(values)}")
    if not done[False] or (opts.trace and not done[True]):
        problems.append("no iteration completed")
    print(f"machine: nproc={workloads.max_in_flight()} python={platform.python_version()} "
          f"iterations={n} workload={opts.workload} seed={opts.seed}")
    for problem in problems:
        print(f"FAILED {problem}")
    if problems:
        print(json.dumps({"correct": False, "attempted": max(1, attempted), "failed": max(1, failed), "metrics": {}}))
        return 1

    if opts.trace:
        metrics = {k: statistics.median(v[k] for v in done[True]) for k in PER_LAYER if k != "trace.overhead_share"}
        untraced = statistics.median(walls[False])
        metrics["trace.overhead_share"] = statistics.median(walls[True]) / untraced - 1
        units = PER_LAYER
    else:
        # Samples of every iteration pooled, so short commands repeated many
        # times weigh as much as they were measured.
        metrics = {k: statistics.median(x for v in done[False] for x in v[k]) for k in END_TO_END}
        units = END_TO_END
    result = {k: {"value": metrics[k], "unit": units[k]} for k in units}
    print(json.dumps({"correct": True, "attempted": attempted, "failed": 0, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
