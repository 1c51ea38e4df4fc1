"""Command-line surface: screen, explain, reflect, evaluate, estimate-cost.

Configuration lives in an INI file with ``[backend]``, ``[runner]`` and
``[paths]`` sections; every field can be overridden by a flag. The API
credential is only ever read from the environment, never from the file.

Exit codes are a stable contract for scripting: 0 success, 1 completed with
per-row errors, 2 usage or configuration failure.
"""

from __future__ import annotations

import configparser
import json
import random
import sys
from contextlib import closing
from pathlib import Path
from typing import NamedTuple

import click

from . import __version__
from . import metrics as metrics_mod
from .corpus import (
    DECISION_CELLS,
    CorpusError,
    Decision,
    ScreeningManifest,
    ScreeningRecord,
    _decision_key,
    clean_text,
    csv_line,
    fold_journal,
    header_index,
    journal_path,
    load_dataset,
    load_manifest,
    read_rows,
    results_path,
)
from .llm import AuthMissing, HttpBackend, MockBackend, MockScript, is_http_url
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
    """The one place the library's usage and configuration errors become exit 2."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (CorpusError, ConfigInvalid, AuthMissing) as exc:
            raise CliFailure(str(exc))


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


def load_app_config(path: Path, overrides: dict[str, str | None]) -> AppConfig:
    """Parse the INI config, apply flag overrides, and validate.

    ``overrides`` maps a setting's key to its flag value. A flag value wins
    over the INI value, and an empty value counts as unset. A setting that
    is a :class:`RunConfig` field is converted to the type of its default.
    """
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
        value = overrides.get(key) or parser.get(section, key, fallback="").strip() or None
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
        credential_env=values["credential_env"] or "ABSIEVE_API_KEY",
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
        raise CliFailure(f"dataset {dataset!r} is not listed in the manifest")
    return [dataset]


def _write_json(path: Path, document: dict) -> None:
    path.write_text(json.dumps(document, indent=2) + "\n", encoding="ascii")


def _load_records(
    config: AppConfig, manifest: ScreeningManifest, name: str, resume: bool
) -> list[ScreeningRecord]:
    results = results_path(config.output_dir, name)
    source = results if resume and results.exists() else config.data_dir / f"{name}.csv"
    if not source.exists():
        raise CliFailure(f"dataset file not found: {source}")
    records = load_dataset(source, name, manifest)
    if resume:
        # Rows a killed run journaled since it read the same source file.
        fold_journal(records, journal_path(results))
    return records


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


def _split_config_kwargs(kwargs: dict) -> AppConfig:
    # What is left after the config path is exactly the flag overrides.
    config_path = kwargs.pop("config_path")
    return load_app_config(config_path, kwargs)


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
    config = _split_config_kwargs(kwargs)
    manifest = _load_manifest(config)
    names = _dataset_names(manifest, dataset)
    datasets = {name: _load_records(config, manifest, name, resume) for name in names}
    backend = _make_backend(config)
    if not resume:
        # Up front, so a --resume after a killed run never counts a stale
        # dataset as done, and no stale journal extends a fresh screen.
        for name in names:
            results = results_path(config.output_dir, name)
            results.unlink(missing_ok=True)
            journal_path(results).unlink(missing_ok=True)
    report = run_screening(
        manifest,
        datasets,
        backend,
        config.run,
        config.output_dir,
        run_log_path=config.output_dir / RUN_LOG_NAME,
    )
    _write_json(config.output_dir / RUN_REPORT_NAME, report.to_dict())
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


def _run_explain(
    dataset: str,
    mode_name: str,
    sample: int | None,
    rows: str | None,
    seed: int,
    kwargs: dict,
) -> None:
    if rows is not None and sample is not None:
        raise CliFailure("--rows and --sample are mutually exclusive")
    config = _split_config_kwargs(kwargs)
    manifest = _load_manifest(config)
    _dataset_names(manifest, dataset)
    if sample is not None and sample < 0:
        raise CliFailure(f"--sample must be >= 0, got {sample}")
    results = results_path(config.output_dir, dataset)
    # A first screen killed before its dataset ended leaves a journal and no CSV.
    if not (results.exists() or journal_path(results).exists()):
        raise CliFailure(f"results file not found (run `screen` first): {results}")
    # With the journal of a killed run folded in, as `screen --resume` reads it.
    records = _load_records(config, manifest, dataset, resume=True)

    mode = PromptKind.EXPLAIN if mode_name == "explain" else PromptKind.REFLECT
    eligible = [r for r in records if eligible_for(mode, r)]
    if rows is not None:
        try:
            wanted = {int(part) for part in rows.split(",") if part.strip()}
        except ValueError:
            raise CliFailure(f"--rows must be a comma-separated list of integers: {rows!r}")
        unknown = wanted - {r.row_index for r in records}
        if unknown:
            raise CliFailure(f"--rows names rows not in the dataset: {sorted(unknown)}")
        chosen = [r for r in records if r.row_index in wanted]
        if not any(eligible_for(mode, r) for r in chosen):
            raise CliFailure(f"no eligible rows for mode {mode_name!r} in --rows selection")
    else:
        if not eligible:
            raise CliFailure(f"no eligible rows for mode {mode_name!r} in {dataset}")
        if sample is None or sample >= len(eligible):
            chosen = eligible
        else:
            chosen = random.Random(seed).sample(eligible, sample)
            chosen.sort(key=lambda r: r.row_index)

    report = run_explanations(
        chosen,
        manifest.criteria_for(dataset),
        _make_backend(config),
        config.run,
        mode,
        dataset,
        run_log_path=config.output_dir / RUN_LOG_NAME,
        results=(records, results),
    )
    click.echo(
        f"{dataset}: {report.annotated_count} annotated, {report.skipped_count} skipped, "
        f"{report.error_count} errors ({mode_name})"
    )
    if report.error_count:
        sys.exit(1)


@main.command()
@config_options
@click.option("--dataset", required=True, help="Dataset whose results file to annotate.")
@click.option(
    "--mode",
    type=click.Choice(["explain", "reflect"]),
    default="explain",
    show_default=True,
)
@click.option("--sample", type=int, default=None, help="Annotate K eligible rows, sampled with --seed.")
@click.option("--rows", default=None, help="Comma-separated row indexes to annotate.")
@click.option("--seed", type=int, default=0, show_default=True, help="Sampling seed.")
def explain(dataset: str, mode: str, sample: int | None, rows: str | None, seed: int, **kwargs) -> None:
    """Ask the model to explain (or reflect on) decisions in a results file."""
    _run_explain(dataset, mode, sample, rows, seed, kwargs)


@main.command()
@config_options
@click.option("--dataset", required=True, help="Dataset whose results file to annotate.")
@click.option("--sample", type=int, default=None, help="Annotate K eligible rows, sampled with --seed.")
@click.option("--rows", default=None, help="Comma-separated row indexes to annotate.")
@click.option("--seed", type=int, default=0, show_default=True, help="Sampling seed.")
def reflect(dataset: str, sample: int | None, rows: str | None, seed: int, **kwargs) -> None:
    """Ask the model why its disagreeing decisions were incorrect."""
    _run_explain(dataset, "reflect", sample, rows, seed, kwargs)


def _decision_columns(
    path: Path, truth_column: str, pred_column: str
) -> tuple[list[Decision | None], list[Decision | None]]:
    """Read two named decision columns from a results CSV, in one pass.

    The file is read as :func:`load_dataset` reads it: header names match
    case-insensitively and the first of duplicate names wins. Both columns
    are found in the header before any row is read (the truth column is
    checked first). Cells that are empty or not a known decision token count
    as missing, which drops the row from the comparison (and shows up in the
    ``dropped`` tally). Only the two decisions of each row are kept.
    """
    header, rows = read_rows(path)
    with closing(rows):
        index = header_index(header, path)
        positions = []
        for name in (truth_column, pred_column):
            pos = index.get(clean_text(name).lower())
            if pos is None:
                raise CliFailure(f"{path}: missing column {name!r}")
            positions.append(pos)
        truth_pos, pred_pos = positions

        truth: list[Decision | None] = []
        pred: list[Decision | None] = []
        for row in rows:
            width = len(row)
            truth.append(DECISION_CELLS.get(_decision_key(row[truth_pos])) if truth_pos < width else None)
            pred.append(DECISION_CELLS.get(_decision_key(row[pred_pos])) if pred_pos < width else None)
    return truth, pred


def _format_ratio(value: float | None) -> str:
    return "-" if value is None else f"{value:.3f}"


def _format_kappa(value: float | None) -> str:
    # Kappa prints with two decimals in the summary table; JSON keeps full precision.
    return "-" if value is None else f"{value:.2f}"


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
    config = _split_config_kwargs(kwargs)
    manifest = _load_manifest(config)
    names = _dataset_names(manifest, dataset)

    per_dataset: list[metrics_mod.DatasetMetrics] = []
    for name in names:
        path = results_path(config.output_dir, name)
        if not path.exists():
            raise CliFailure(f"results file not found (run `screen` first): {path}")
        truth_col, pred_col = _decision_columns(path, truth, pred)
        try:
            per_dataset.append(metrics_mod.DatasetMetrics.from_decisions(name, truth_col, pred_col))
        except metrics_mod.EmptyMatrix:
            raise CliFailure(
                f"{name}: no comparable rows between columns {truth!r} and {pred!r}"
            )

        cm = per_dataset[-1].confusion
        header = csv_line(["dataset", "tp", "fn", "fp", "tn", "dropped", "n"])
        row = csv_line([name, *map(str, (cm.tp, cm.fn, cm.fp, cm.tn, cm.dropped, cm.n))])
        (config.output_dir / f"{name}_confusion.csv").write_text(header + row, encoding="ascii", newline="")
        (config.output_dir / f"{name}_confusion.svg").write_text(
            _confusion_svg(name, cm), encoding="ascii"
        )

    summary = metrics_mod.weighted_summary(per_dataset)

    document = {
        "truth_column": truth,
        "pred_column": pred,
        "datasets": [m.to_dict() for m in per_dataset],
        "weighted_total": summary.to_dict(),
    }
    _write_json(config.output_dir / METRICS_JSON_NAME, document)

    # Each row is formatted once, for the CSV and the printed table alike. The
    # total's kappa is always None, so its cell reads "-".
    labelled = [(m.dataset_name, m) for m in per_dataset] + [("Total (Weighted Average)", summary)]
    table = [
        (
            label,
            _format_ratio(m.accuracy),
            _format_ratio(m.sensitivity_included),
            _format_ratio(m.sensitivity_excluded),
            _format_kappa(m.kappa),
        )
        for label, m in labelled
    ]
    (config.output_dir / METRICS_TABLE_NAME).write_text(
        "".join(map(csv_line, [TABLE_COLUMNS, *table])), encoding="ascii", newline=""
    )

    click.echo(f"{'Dataset':<28} {'Accuracy':>9} {'Sens(Inc)':>10} {'Sens(Exc)':>10} {'Kappa':>7}")
    for label, accuracy, sens_inc, sens_exc, kappa in table:
        click.echo(f"{label:<28} {accuracy:>9} {sens_inc:>10} {sens_exc:>10} {kappa:>7}")
    click.echo(f"weighting: {summary.weighting}")


@main.command("estimate-cost")
@config_options
def estimate_cost_cmd(**kwargs) -> None:
    """Project token usage, cost, and wall time for a full screening run."""
    config = _split_config_kwargs(kwargs)
    manifest = _load_manifest(config)
    datasets = {
        name: _load_records(config, manifest, name, resume=False)
        for name in manifest.names()
    }
    estimate = estimate_cost(manifest, datasets, config.run)
    document = {**estimate._asdict(), "per_dataset": [d._asdict() for d in estimate.per_dataset]}
    _write_json(config.output_dir / ESTIMATE_JSON_NAME, document)
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
