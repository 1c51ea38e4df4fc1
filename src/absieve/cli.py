"""Command-line surface: screen, explain, reflect, evaluate, estimate-cost.

Configuration lives in an INI file with ``[backend]``, ``[runner]`` and
``[paths]`` sections; every field can be overridden by a flag. The API
credential is only ever read from the environment, never from the file.

Exit codes are a stable contract for scripting: 0 success, 1 completed with
per-row errors or stopped by Ctrl-C or SIGTERM, 2 usage or configuration
failure.
"""

from __future__ import annotations

import configparser
import json
import random
import signal
import sys
import threading
from pathlib import Path
from typing import NamedTuple

import click

from . import __version__
from . import metrics as metrics_mod
from .corpus import (
    CorpusError,
    ScreeningManifest,
    ScreeningRecord,
    UnknownDataset,
    check_outputs,
    csv_line,
    data_path,
    fold_journal,
    iter_records,
    journal_path,
    load_dataset,
    load_manifest,
    read_decision_columns,
    results_path,
    write_files,
)
from .llm import API_KEY_ENV, AuthMissing, HttpBackend, MockBackend, MockScript, is_http_url
from .prompts import PromptKind
from .runner import (
    ConfigInvalid,
    RunConfig,
    eligible_for,
    estimate_cost,
    run_explanations,
    run_screening,
)

RUN_LOG_NAME = "run_log.jsonl"
RUN_REPORT_NAME = "run_report.json"
METRICS_JSON_NAME = "metrics.json"
METRICS_TABLE_NAME = "metrics_table.csv"
ESTIMATE_JSON_NAME = "estimate.json"

TABLE_COLUMNS = (
    "Dataset",
    "Accuracy",
    "Sensitivity (Included)",
    "Sensitivity (Excluded)",
    "Kappa",
)


class CliFailure(click.ClickException):
    """Configuration or usage failure; maps to exit status 2."""

    exit_code = 2


class _Main(click.Group):
    """The one place the library's usage and configuration errors become exit 2.

    While a command runs in the main thread, SIGTERM (a plain ``kill``, a CI
    timeout, ``docker stop``) raises :class:`KeyboardInterrupt` as Ctrl-C
    does, so the command writes what it finished and exits 1; the handler it
    replaced is put back after.
    """

    def invoke(self, ctx: click.Context):
        in_main = threading.current_thread() is threading.main_thread()
        previous = signal.signal(signal.SIGTERM, signal.default_int_handler) if in_main else None
        try:
            return super().invoke(ctx)
        except (CorpusError, ConfigInvalid, AuthMissing) as exc:
            raise CliFailure(str(exc))
        finally:
            if in_main:
                # None: the handler was not set from Python, so the default is the best guess.
                signal.signal(signal.SIGTERM, signal.SIG_DFL if previous is None else previous)


class AppConfig(NamedTuple):
    base_url: str | None
    mock_script: Path | None  # set for the mock backend, None for HTTP
    credential_env: str
    run: RunConfig
    manifest_path: Path
    data_dir: Path
    output_dir: Path


# Every setting once, in --help order: INI section, key, override flag, help.
# The flag's parameter is named after the key, so flag and INI value meet by key.
_SETTINGS = (
    ("paths", "manifest", "--manifest", "Override paths.manifest."),
    ("paths", "data_dir", "--data-dir", "Override paths.data_dir."),
    ("paths", "output_dir", "--output-dir", "Override paths.output_dir."),
    ("backend", "base_url", "--base-url", "Override backend.base_url."),
    ("backend", "mock_script", "--mock-script", "Override backend.mock_script."),
    ("backend", "model", "--model", "Override backend.model."),
    ("backend", "temperature", "--temperature", "Override backend.temperature."),
    ("backend", "credential_env", "--credential-env", "Environment variable holding the API key."),
    ("runner", "max_in_flight", "--max-in-flight", "Override runner.max_in_flight."),
    ("runner", "requests_per_minute", "--requests-per-minute", "Override runner.requests_per_minute."),
    ("runner", "max_retries", "--max-retries", "Override runner.max_retries."),
    ("runner", "backoff_base_s", "--backoff-base", "Override runner.backoff_base_s (seconds)."),
    ("runner", "price_per_1k_input", "--price-per-1k-input", "Override runner.price_per_1k_input (USD)."),
    ("runner", "price_per_1k_output", "--price-per-1k-output", "Override runner.price_per_1k_output (USD)."),
)


def load_app_config(options: dict) -> AppConfig:
    """Parse the INI config, apply flag overrides, and validate.

    ``options`` maps ``config_path`` to the INI file, which is popped, and each
    setting's key to its flag value. A flag value wins over the INI value and an
    empty value counts as unset; a :class:`RunConfig` field takes its default's type.
    """
    path = options.pop("config_path")
    parser = configparser.ConfigParser()
    if not path.exists():
        raise CliFailure(f"config file not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise CliFailure(f"config file {path} cannot be read: {exc}")
    except configparser.Error as exc:
        raise CliFailure(f"config file {path}: {exc}")

    run = RunConfig()
    values: dict[str, str | None] = {}
    for section, key, _, _ in _SETTINGS:
        value = options.get(key) or parser.get(section, key, fallback="").strip() or None
        if value is None or key not in vars(run):
            values[key] = value
            continue
        kind = type(getattr(run, key))
        try:
            setattr(run, key, kind(value))
        except ValueError:
            raise CliFailure(f"config field {section}.{key}: cannot parse {value!r} as {kind.__name__}")

    if bool(values["base_url"]) == bool(values["mock_script"]):
        raise CliFailure(
            "exactly one backend must be configured: set either backend.base_url "
            "or backend.mock_script"
        )
    base_url = values["base_url"]
    if base_url and not is_http_url(base_url):
        raise CliFailure(f"backend.base_url must be an http:// or https:// URL with a host, got {base_url!r}")
    for key in ("manifest", "data_dir", "output_dir"):
        if not values[key]:
            raise CliFailure(f"config field paths.{key} is required")

    manifest_path = Path(values["manifest"])
    if not manifest_path.exists():
        raise CliFailure(f"paths.manifest does not exist: {manifest_path}")
    data_path = Path(values["data_dir"])
    if not data_path.is_dir():
        raise CliFailure(f"paths.data_dir is not a directory: {data_path}")
    out_path = Path(values["output_dir"])
    try:
        out_path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliFailure(f"paths.output_dir cannot be created: {exc}")

    mock_path = None
    if values["mock_script"]:
        mock_path = Path(values["mock_script"])
        if not mock_path.exists():
            raise CliFailure(f"backend.mock_script does not exist: {mock_path}")

    run.validate()
    return AppConfig(
        base_url=base_url,
        mock_script=mock_path,
        credential_env=values["credential_env"] or API_KEY_ENV,
        run=run,
        manifest_path=manifest_path,
        data_dir=data_path,
        output_dir=out_path,
    )


def _make_backend(config: AppConfig):
    if config.mock_script is not None:
        try:
            script = MockScript.from_file(config.mock_script)
        except OSError as exc:
            raise CliFailure(f"backend.mock_script {config.mock_script}: cannot be read: {exc}")
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise CliFailure(f"backend.mock_script {config.mock_script}: not a mock script: {exc!r}")
        return MockBackend(script)
    return HttpBackend(config.base_url, api_key_env=config.credential_env)


def _load_manifest(config: AppConfig) -> ScreeningManifest:
    return load_manifest(config.manifest_path)


def _dataset_names(manifest: ScreeningManifest, dataset: str | None) -> list[str]:
    if dataset is None:
        return list(manifest.names())
    if dataset not in manifest:
        raise UnknownDataset(dataset)
    return [dataset]


def _source(config: AppConfig, name: str, resume: bool) -> Path:
    """The file dataset ``name`` is read from: its results CSV on a resume that has one, else its data file."""
    results = results_path(config.output_dir, name)
    source = results if resume and results.exists() else data_path(config.data_dir, name)
    if not source.exists():
        raise CliFailure(f"dataset file not found: {source}")
    return source


def _load_records(
    config: AppConfig, manifest: ScreeningManifest, name: str, resume: bool, keep: bool = True
) -> list[ScreeningRecord]:
    """Read dataset ``name`` as a command reads it; with ``keep`` false, only check it.

    A check raises what a load would, the journal's errors included, and
    returns one placeholder per row that holds no text.
    """
    source = _source(config, name, resume)
    if keep:
        records = load_dataset(source, name, manifest)
    else:
        records = [ScreeningRecord(r.row_index, "") for r in iter_records(source, name, manifest)]
    if resume:
        # Rows a killed run journaled since it read the same source file.
        fold_journal(records, journal_path(results_path(config.output_dir, name)))
    return records


def _results(config: AppConfig, names: list[str]) -> dict[Path, str]:
    """The results CSV of each of ``names``, with what it holds, for :func:`check_outputs`."""
    return {results_path(config.output_dir, name): f"the results of dataset {name!r}" for name in names}


def config_options(command):
    for _, key, flag, help_text in reversed(_SETTINGS):
        command = click.option(flag, key, default=None, help=help_text)(command)
    return click.option(
        "--config",
        "-c",
        "config_path",
        type=click.Path(path_type=Path),
        default=Path("absieve.ini"),
        show_default=True,
        help="Path to the INI configuration file.",
    )(command)


@click.group(cls=_Main)
@click.version_option(__version__)
def main() -> None:
    """Batch title/abstract screening against natural-language criteria."""


@main.command()
@config_options
@click.option("--dataset", default=None, help="Screen a single named dataset.")
@click.option("--resume", is_flag=True, help="Continue from an existing results file.")
def screen(dataset: str | None, resume: bool, **kwargs) -> None:
    """Run the screening loop and write per-dataset results CSVs."""
    config = load_app_config(kwargs)
    manifest = _load_manifest(config)
    names = _dataset_names(manifest, dataset)
    report_path = config.output_dir / RUN_REPORT_NAME
    run_log = config.output_dir / RUN_LOG_NAME
    results = _results(config, names)
    # A resume reads the journals, and that read reports a directory in a journal's place.
    journals = [] if resume else list(map(journal_path, results))
    outputs = {run_log: "the run log", report_path: "the run report", **results}
    check_outputs({**outputs, **dict.fromkeys(journals, "a journal")}, config.data_dir, manifest)
    # Bad input exits 2 before any removal or call. The first dataset is kept, and
    # popped at its turn; each later one is only checked now and read again at its
    # turn. So the run holds one dataset at a time.
    first = {names[0]: _load_records(config, manifest, names[0], resume)}
    for name in names[1:]:
        _load_records(config, manifest, name, resume, keep=False)
    backend = _make_backend(config)
    # A run cut short then leaves no report, rather than the previous run's beside
    # its results. Without --resume the results CSVs and journals go too, so a
    # --resume after a killed run never counts a stale dataset as done, and no stale
    # journal extends a fresh screen. The run log is appended to, never removed.
    for path in [report_path] if resume else [report_path, *results, *journals]:
        path.unlink(missing_ok=True)
    datasets = (
        (name, first.pop(name) if name in first else _load_records(config, manifest, name, resume)) for name in names
    )
    report = run_screening(manifest, datasets, backend, config.run, config.output_dir, run_log_path=run_log)
    write_files({report_path: [json.dumps(report.to_dict(), indent=2), "\n"]})
    for name, stats in report.datasets.items():
        click.echo(
            f"{name}: {stats.rows_total} rows, {stats.rows_screened} screened, "
            f"{stats.rows_skipped_resume} resumed, {stats.included_count} included, "
            f"{stats.excluded_count} excluded, {stats.unparseable_count} unparseable, "
            f"{stats.error_count} errors, {stats.empty_abstract_count} empty abstracts"
        )
    click.echo(
        f"total: {report.input_tokens} input tokens, {report.output_tokens} output tokens, "
        f"estimated cost ${report.estimated_cost:.4f}, wall time {report.wall_time_s:.1f}s"
    )
    if report.error_count:
        sys.exit(1)


def _annotate_command(mode: PromptKind, help_text: str) -> click.Command:
    """Register the command ``mode.value``, which fills ``mode``'s column on rows of one results file."""

    @main.command(mode.value, help=help_text)
    @config_options
    @click.option("--dataset", required=True, help="Dataset whose results file to annotate.")
    @click.option("--sample", type=int, default=None, help="Annotate K eligible rows, sampled with --seed.")
    @click.option("--rows", default=None, help="Comma-separated row indexes to annotate.")
    @click.option("--seed", type=int, default=0, show_default=True, help="Sampling seed.")
    def annotate(dataset: str, sample: int | None, rows: str | None, seed: int, **kwargs) -> None:
        if rows is not None and sample is not None:
            raise CliFailure("--rows and --sample are mutually exclusive")
        config = load_app_config(kwargs)
        manifest = _load_manifest(config)
        _dataset_names(manifest, dataset)
        run_log = config.output_dir / RUN_LOG_NAME
        check_outputs({run_log: "the run log", **_results(config, [dataset])}, config.data_dir, manifest)
        if sample is not None and sample < 0:
            raise CliFailure(f"--sample must be >= 0, got {sample}")
        results = results_path(config.output_dir, dataset)
        # A first screen killed before its dataset ended leaves a journal and no CSV.
        if not (results.exists() or journal_path(results).exists()):
            raise CliFailure(f"results file not found (run `screen` first): {results}")
        # With the journal of a killed run folded in, as `screen --resume` reads it.
        records = _load_records(config, manifest, dataset, resume=True)

        eligible = [r for r in records if eligible_for(mode, r)]
        if rows is not None:
            try:
                wanted = {int(part) for part in rows.split(",") if part.strip()}
            except ValueError:
                raise CliFailure(f"--rows must be a comma-separated list of integers: {rows!r}")
            unknown = wanted - {r.row_index for r in records}
            if unknown:
                raise CliFailure(f"--rows names rows not in the dataset: {sorted(unknown)}")
            if wanted.isdisjoint(r.row_index for r in eligible):
                raise CliFailure(f"no eligible rows for mode {mode.value!r} in --rows selection")
            # Ineligible rows named here are passed on, and counted as skipped.
            chosen = [r for r in records if r.row_index in wanted]
        elif not eligible:
            raise CliFailure(f"no eligible rows for mode {mode.value!r} in {dataset}")
        elif sample is None or sample >= len(eligible):
            chosen = eligible
        else:
            chosen = sorted(random.Random(seed).sample(eligible, sample), key=lambda r: r.row_index)

        report = run_explanations(
            chosen, manifest.criteria_for(dataset), _make_backend(config), config.run, mode, dataset,
            run_log_path=run_log, results=(records, results),
        )
        click.echo(
            f"{dataset}: {report.annotated_count} annotated, {report.skipped_count} skipped, "
            f"{report.error_count} errors ({mode.value})"
        )
        if report.error_count:
            sys.exit(1)

    return annotate


explain = _annotate_command(PromptKind.EXPLAIN, "Ask the model to explain decisions in a results file.")
reflect = _annotate_command(PromptKind.REFLECT, "Ask the model why its disagreeing decisions were incorrect.")


def _format(value: float | None, places: int) -> str:
    return "-" if value is None else f"{value:.{places}f}"


def _confusion_svg(name: str, cm: metrics_mod.ConfusionMatrix) -> str:
    """Render a 2x2 annotated heatmap as a standalone SVG document."""
    counts = [[cm.tp, cm.fn], [cm.fp, cm.tn]]
    peak = max(cm.tp, cm.fn, cm.fp, cm.tn, 1)
    cell, x0, y0 = 120, 150, 70
    title = name.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="420" height="360" '
        'viewBox="0 0 420 360" font-family="monospace" font-size="14">',
        f'<text x="210" y="28" text-anchor="middle" font-size="16">{title}</text>',
        f'<text x="{x0 + cell}" y="52" text-anchor="middle">predicted</text>',
        f'<text x="{x0 + cell // 2}" y="{y0 - 4}" text-anchor="middle">included</text>',
        f'<text x="{x0 + cell + cell // 2}" y="{y0 - 4}" text-anchor="middle">excluded</text>',
        f'<text x="20" y="{y0 + cell}" writing-mode="tb" text-anchor="middle">truth</text>',
        f'<text x="{x0 - 10}" y="{y0 + cell // 2}" text-anchor="end">included</text>',
        f'<text x="{x0 - 10}" y="{y0 + cell + cell // 2}" text-anchor="end">excluded</text>',
    ]
    for r, row in enumerate(counts):
        for c, count in enumerate(row):
            share = count / peak
            # Blend white toward steel blue with the cell's share of the peak count.
            red = round(255 - share * (255 - 70))
            green = round(255 - share * (255 - 114))
            blue = round(255 - share * (255 - 178))
            x, y = x0 + c * cell, y0 + r * cell
            text_fill = "#ffffff" if share > 0.6 else "#000000"
            parts.append(
                f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
                f'fill="rgb({red},{green},{blue})" stroke="#333333"/>'
            )
            parts.append(
                f'<text x="{x + cell // 2}" y="{y + cell // 2 + 5}" '
                f'text-anchor="middle" fill="{text_fill}">{count}</text>'
            )
    parts.append(
        f'<text x="{x0}" y="{y0 + 2 * cell + 30}">n={cm.n}, dropped={cm.dropped}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


@main.command()
@config_options
@click.option("--dataset", default=None, help="Evaluate a single named dataset.")
@click.option("--all", "evaluate_all", is_flag=True, help="Evaluate every manifest dataset.")
@click.option("--truth", default="human_decision", show_default=True, help="Ground-truth column.")
@click.option("--pred", default="decision", show_default=True, help="Predicted column.")
def evaluate(dataset: str | None, evaluate_all: bool, truth: str, pred: str, **kwargs) -> None:
    """Score results files against ground truth and emit metric artifacts."""
    if dataset is not None and evaluate_all:
        raise CliFailure("--dataset and --all are mutually exclusive")
    config = load_app_config(kwargs)
    manifest = _load_manifest(config)
    names = _dataset_names(manifest, dataset)
    # In the order the files are made below.
    outputs = {
        config.output_dir / f"{name}_confusion.{kind}": f"the confusion matrix of dataset {name!r}"
        for name in names
        for kind in ("csv", "svg")
    }
    outputs[config.output_dir / METRICS_JSON_NAME] = "the metrics"
    outputs[config.output_dir / METRICS_TABLE_NAME] = "the metrics table"
    check_outputs(outputs, config.data_dir, manifest)

    per_dataset: list[metrics_mod.DatasetMetrics] = []
    for name in names:
        path = results_path(config.output_dir, name)
        if not path.exists():
            raise CliFailure(f"results file not found (run `screen` first): {path}")
        truth_col, pred_col = read_decision_columns(path, truth, pred)
        try:
            per_dataset.append(metrics_mod.DatasetMetrics.from_decisions(name, truth_col, pred_col))
        except metrics_mod.EmptyMatrix:
            raise CliFailure(f"{name}: no comparable rows between columns {truth!r} and {pred!r}")

    summary = metrics_mod.weighted_summary(per_dataset)
    document = {
        "truth_column": truth,
        "pred_column": pred,
        "datasets": [m.to_dict() for m in per_dataset],
        "weighted_total": summary.to_dict(),
    }
    # Each row is formatted once, for the CSV and the printed table alike. Kappa
    # takes two decimals (JSON keeps full precision); the total's is None, so "-".
    labelled = [(m.dataset_name, m) for m in per_dataset] + [("Total (Weighted Average)", summary)]
    table = [
        (
            label,
            _format(m.accuracy, 3),
            _format(m.sensitivity_included, 3),
            _format(m.sensitivity_excluded, 3),
            _format(m.kappa, 2),
        )
        for label, m in labelled
    ]

    # Written once every dataset is scored, and replaced as one set: a failing
    # dataset, or a directory in a file's place, leaves every earlier file as it was.
    contents = []
    header = csv_line(["dataset", "tp", "fn", "fp", "tn", "dropped", "n"])
    for m in per_dataset:
        name, cm = m.dataset_name, m.confusion
        row = csv_line([name, *map(str, (cm.tp, cm.fn, cm.fp, cm.tn, cm.dropped, cm.n))])
        contents += [[header, row], [_confusion_svg(name, cm)]]
    contents += [[json.dumps(document, indent=2), "\n"], map(csv_line, [TABLE_COLUMNS, *table])]
    write_files(dict(zip(outputs, contents)))

    click.echo(f"{'Dataset':<28} {'Accuracy':>9} {'Sens(Inc)':>10} {'Sens(Exc)':>10} {'Kappa':>7}")
    for label, accuracy, sens_inc, sens_exc, kappa in table:
        click.echo(f"{label:<28} {accuracy:>9} {sens_inc:>10} {sens_exc:>10} {kappa:>7}")
    click.echo(f"weighting: {summary.weighting}")


@main.command("estimate-cost")
@config_options
def estimate_cost_cmd(**kwargs) -> None:
    """Project token usage, cost, and wall time for a full screening run."""
    config = load_app_config(kwargs)
    manifest = _load_manifest(config)
    output = config.output_dir / ESTIMATE_JSON_NAME
    check_outputs({output: "the cost estimate"}, config.data_dir, manifest)
    # Each file is checked and streamed at its turn, in manifest order, and no record is kept.
    datasets = ((name, iter_records(_source(config, name, resume=False), name, manifest)) for name in manifest.names())
    estimate = estimate_cost(manifest, datasets, config.run)
    document = {**estimate._asdict(), "per_dataset": [d._asdict() for d in estimate.per_dataset]}
    write_files({output: [json.dumps(document, indent=2), "\n"]})
    for d in estimate.per_dataset:
        click.echo(
            f"{d.dataset_name}: {d.rows} rows, {d.input_tokens} input tokens, "
            f"{d.output_tokens} output tokens, ${d.cost:.4f}"
        )
    click.echo(
        f"total: {estimate.total_input_tokens} input tokens, "
        f"{estimate.total_output_tokens} output tokens, ${estimate.cost:.4f}, "
        f"projected wall time >= {estimate.projected_wall_time_s:.0f}s "
        f"(rate-limit lower bound)"
    )


if __name__ == "__main__":
    main()
