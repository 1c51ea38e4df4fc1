"""Load, clean, and persist the screening manifest and per-dataset record tables.

The on-disk formats are plain CSV:

* manifest: header ``Dataset Name,Inclusion Criteria,Exclusion Criteria``
  (the misspelling ``Excusion Criteria`` is accepted for the last column,
  since it appears in real manifests in the wild);
* dataset: header ``title,abstract`` with optional ``human_decision``,
  ``decision``, ``explanation`` and ``reflection`` columns;
* results: all six columns, always written, in the bytes ``csv.writer``
  writes by default (see :func:`csv_line`);
* journal: ``<name>_results.journal.jsonl`` next to the results file, one
  ``{"row": ..., "<field>": ...}`` JSON line per row decided or annotated
  since the results file was last written, or, before it first is, since
  the dataset file was read (see :func:`fold_journal`).

Every CSV is read here, through :func:`read_rows`, which streams the data
rows one at a time: a reader keeps only what it extracts, so its memory does
not depend on the file's size. Input must be UTF-8 (a BOM is allowed); a file
that is not, or that the csv module cannot parse, raises :class:`MalformedCsv`
naming its path and line. Every output file, the CLI's too, is written whole
by :func:`write_files` (temporary files renamed over the old ones once all
are written); a write that fails raises :class:`IoFailure`. The file rules
live here too: :func:`data_path`, :func:`results_path` and
:func:`journal_path` name a dataset's files, and :func:`check_outputs` is
how a command learns, before it reads or calls anything, that it cannot
write its outputs.

All text passes through :func:`clean_text`, so anything we write back out is
single-line printable ASCII regardless of the input encoding.
"""

from __future__ import annotations

import csv
import enum
import json
import os
import re
from contextlib import closing, suppress
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence


class CorpusError(Exception):
    """Base class for manifest/dataset loading and persistence failures."""


class MissingColumn(CorpusError):
    def __init__(self, column: str, path: str | Path):
        self.column = column
        super().__init__(f"required column {column!r} not found in {path}")


class DuplicateDatasetName(CorpusError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"dataset name {name!r} appears more than once in the manifest")


class EmptyManifest(CorpusError):
    pass


class EmptyField(CorpusError):
    """A field that must be non-empty after cleaning was empty."""


class UnknownDataset(CorpusError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"dataset {name!r} is not listed in the manifest")


class UnparseableDecisionValue(CorpusError):
    def __init__(self, value: str, row: int, column: str):
        self.value = value
        self.row = row
        self.column = column
        super().__init__(
            f"row {row}: cannot parse {value!r} in column {column!r} as a decision"
        )


class IoFailure(CorpusError):
    pass


class OutputClash(CorpusError):
    """An output file that would replace a manifest dataset's data file."""


class MalformedCsv(CorpusError):
    """A CSV file that is not UTF-8 text, or that the csv module cannot parse."""


class InvalidDatasetName(CorpusError):
    """A manifest dataset name that would not stay a single file-name component."""


class JournalCorrupt(CorpusError):
    """A complete journal line that is not a field value for a row of the dataset."""


class Decision(enum.Enum):
    """Outcome of screening one record.

    ``INCLUDED``/``EXCLUDED`` are the two answers the model is asked for;
    ``UNPARSEABLE`` marks a response that named neither or both; ``ERROR``
    marks a row whose backend calls never succeeded.
    """

    INCLUDED = "included"
    EXCLUDED = "excluded"
    UNPARSEABLE = "unparseable"
    ERROR = "error"


# The decided pair: the two real answers, as opposed to a failure to get one.
DECIDED = (Decision.INCLUDED, Decision.EXCLUDED)

# A decision cell as write_results writes it (empty when missing). Readers
# look a cell up here first and clean only the cells they do not find.
DECISION_CELLS: dict[str, Decision | None] = {"": None, **{d.value: d for d in Decision}}


class CriteriaSet(NamedTuple):
    """A dataset's natural-language inclusion and exclusion criteria."""

    inclusion: str
    exclusion: str


class ManifestEntry(NamedTuple):
    dataset_name: str
    criteria: CriteriaSet


class ScreeningManifest(NamedTuple):
    """The manifest's datasets, in file order. One field, so its ``len()`` is 1."""

    entries: tuple[ManifestEntry, ...]

    def names(self) -> tuple[str, ...]:
        return tuple(e.dataset_name for e in self.entries)

    def __contains__(self, name: str) -> bool:
        return any(e.dataset_name == name for e in self.entries)

    def criteria_for(self, name: str) -> CriteriaSet:
        for entry in self.entries:
            if entry.dataset_name == name:
                return entry.criteria
        raise UnknownDataset(name)


@dataclass
class ScreeningRecord:
    """One title/abstract row, its ground truth, and the model's outputs.

    ``row_index`` is the record's 0-based position in the dataset file and is
    stable across save/load cycles, which is what makes resume safe.
    """

    row_index: int
    title: str
    abstract: str = ""
    human_decision: Decision | None = None
    model_decision: Decision | None = None
    explanation: str | None = None
    reflection: str | None = None


# Control characters that mark word boundaries become spaces; every other
# control character, and every code point above tilde, is dropped outright.
_BOUNDARY_CONTROLS = b"\t\n\r\x0b\x0c"
_BOUNDARIES_TO_SPACES = bytes.maketrans(_BOUNDARY_CONTROLS, b" " * len(_BOUNDARY_CONTROLS))
_DELETED_CONTROLS = bytes(c for c in range(0x20) if c not in _BOUNDARY_CONTROLS) + b"\x7f"
_SPACE_RUNS = re.compile("  +")

RESULT_COLUMNS = ("title", "abstract", "human_decision", "decision", "explanation", "reflection")

MANIFEST_NAME_COLUMN = "Dataset Name"
MANIFEST_INCLUSION_COLUMN = "Inclusion Criteria"
MANIFEST_EXCLUSION_COLUMN = "Exclusion Criteria"
# Accepted alias: some manifests carry this misspelling in the header row.
MANIFEST_EXCLUSION_ALIAS = "Excusion Criteria"


def clean_text(raw: str) -> str:
    """Normalize arbitrary text to trimmed, single-spaced printable ASCII.

    Code points above U+007E are deleted (not transliterated). Tab, newline
    and friends turn into spaces so that words separated only by them do not
    fuse; other control characters are deleted. Runs of whitespace collapse
    to one space and the result is trimmed. Idempotent by construction.

    Text that is already clean costs one encode, translate and decode and a
    scan for a double space: the collapse only runs when a double space or an
    edge space is left to remove, and then it is one precompiled regex pass
    and a strip.
    """
    ascii_text = raw.encode("ascii", "ignore").translate(_BOUNDARIES_TO_SPACES, _DELETED_CONTROLS)
    text = ascii_text.decode("ascii")
    # Only the space is left as whitespace, so collapsing space runs and
    # stripping spaces is the whole job. The checks run on the str: on short
    # cells they cost less than on bytes.
    if text[:1] == " " or text[-1:] == " " or "  " in text:
        return _SPACE_RUNS.sub(" ", text).strip(" ")
    return text


def header_index(header: Sequence[str], path: str | Path) -> dict[str, int]:
    """Map lowercased, cleaned header names to their column positions."""
    index: dict[str, int] = {}
    for pos, name in enumerate(header):
        key = clean_text(name).lower()
        if key and key not in index:
            index[key] = pos
    if not index:
        raise EmptyManifest(f"{path}: no header row")
    return index


def _column(index: Mapping[str, int], column: str, path: str | Path, key: str | None = None) -> int:
    """The position of ``column``, whose :func:`header_index` key is ``key`` (by default ``column.lower()``).

    Raises :class:`MissingColumn` naming ``column`` when the header has no such key.
    """
    pos = index.get(column.lower() if key is None else key)
    if pos is None:
        raise MissingColumn(column, path)
    return pos


def _cell(row: Sequence[str], pos: int | None) -> str:
    if pos is None or pos >= len(row):
        return ""
    return row[pos]


def _decision_key(cell: str) -> str:
    """A decision cell's key in DECISION_CELLS: the cell as written, else cleaned and lowercased."""
    return cell if cell in DECISION_CELLS else clean_text(cell).lower()


def _decision_from_cell(raw: str, row: int, column: str) -> Decision | None:
    key = _decision_key(raw)
    if key not in DECISION_CELLS:
        raise UnparseableDecisionValue(raw, row, column)
    return DECISION_CELLS[key]


def read_rows(path: str | Path) -> tuple[list[str], Iterator[list[str]]]:
    """Open a CSV as its header row and a stream of its data rows.

    UTF-8 with an optional BOM; blank lines are skipped. Each data row is
    parsed when the iterator reaches it, so the file never sits in memory
    whole. The iterator is a generator that owns the open file and closes it
    when run out or closed; a reader that may stop early wraps it in
    ``contextlib.closing``. :class:`IoFailure` and :class:`EmptyManifest` (no
    rows) are raised here. :class:`MalformedCsv` names the path and line of
    bytes that are not UTF-8, or of a row the csv module rejects (such as an
    unterminated quote that runs past the field size limit); it is raised
    here or while iterating.
    """
    rows = _stream_rows(path)
    header = next(rows, None)
    if header is None:
        raise EmptyManifest(f"{path}: file is empty")
    return header, rows


def _stream_rows(path: str | Path) -> Iterator[list[str]]:
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            for row in reader:
                if row:
                    yield row
        except csv.Error as exc:
            raise MalformedCsv(f"{path} line {reader.line_num}: not a CSV row: {exc}") from exc
        except UnicodeDecodeError as exc:
            # The text layer decodes ahead of the reader, so find the line itself.
            line = _first_undecodable_line(path)
            raise MalformedCsv(f"{path} line {line}: not UTF-8 text ({exc.reason})") from exc
        except OSError as exc:
            raise IoFailure(f"cannot read {path}: {exc}") from exc


def _first_undecodable_line(path: str | Path) -> int:
    # Lines split as the reader's are; a byte that is not UTF-8 becomes a lone surrogate.
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        for n, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                return n
    return 0


def load_manifest(path: str | Path) -> ScreeningManifest:
    """Read the manifest CSV into a validated :class:`ScreeningManifest`.

    Header names are matched case-insensitively, and the exclusion column is
    found under either its correct spelling or the known misspelled alias.
    A dataset name becomes part of file names (``<name>.csv``,
    ``<name>_results.csv``), so one that is ``.`` or ``..`` or holds a path
    separator raises :class:`InvalidDatasetName`.
    """
    header, rows = read_rows(path)
    with closing(rows):
        index = header_index(header, path)
        # The correct spelling wins; without it, the alias (or None, so still missing) stands in.
        index.setdefault(MANIFEST_EXCLUSION_COLUMN.lower(), index.get(MANIFEST_EXCLUSION_ALIAS.lower()))
        name_pos, incl_pos, excl_pos = (
            _column(index, column, path)
            for column in (MANIFEST_NAME_COLUMN, MANIFEST_INCLUSION_COLUMN, MANIFEST_EXCLUSION_COLUMN)
        )

        entries: list[ManifestEntry] = []
        seen: set[str] = set()
        for n, row in enumerate(rows, start=1):
            name = clean_text(_cell(row, name_pos))
            if not name:
                raise EmptyField(f"{path} row {n}: empty dataset name")
            if name in (".", "..") or "/" in name or "\\" in name:
                raise InvalidDatasetName(
                    f"{path} row {n}: dataset name {name!r} must not be '.' or '..' "
                    "or contain '/' or '\\'"
                )
            if name in seen:
                raise DuplicateDatasetName(name)
            seen.add(name)
            inclusion = clean_text(_cell(row, incl_pos))
            exclusion = clean_text(_cell(row, excl_pos))
            if not inclusion:
                raise EmptyField(f"{path} row {n} ({name}): empty inclusion criteria")
            if not exclusion:
                raise EmptyField(f"{path} row {n} ({name}): empty exclusion criteria")
            entries.append(ManifestEntry(name, CriteriaSet(inclusion, exclusion)))

    if not entries:
        raise EmptyManifest(f"{path}: manifest has a header but no datasets")
    return ScreeningManifest(tuple(entries))


def load_dataset(
    path: str | Path, name: str, manifest: ScreeningManifest
) -> list[ScreeningRecord]:
    """Read a dataset (or results) CSV into records, in file order: :func:`iter_records`, kept."""
    return list(iter_records(path, name, manifest))


def iter_records(path: str | Path, name: str, manifest: ScreeningManifest) -> Iterator[ScreeningRecord]:
    """Stream a dataset (or results) CSV as records, in file order.

    ``name`` must appear in the manifest. Rows with an empty abstract are
    kept; a pre-existing ``decision`` column is parsed into
    ``model_decision`` so a partially screened file can be resumed. Each row
    becomes its record as it is read and is handed on, so a caller that keeps
    no record holds one row at a time. Every error (:class:`UnknownDataset`,
    those of :func:`read_rows`, :class:`MissingColumn`, :class:`EmptyField`,
    :class:`UnparseableDecisionValue`) is raised while iterating, the first at
    the first record asked for. The file is closed when the stream runs out
    or is closed.
    """
    if name not in manifest:
        raise UnknownDataset(name)

    header, rows = read_rows(path)
    with closing(rows):
        index = header_index(header, path)
        title_pos, abstract_pos = _column(index, "title", path), _column(index, "abstract", path)
        human_pos, decision_pos = index.get("human_decision"), index.get("decision")
        explanation_pos, reflection_pos = index.get("explanation"), index.get("reflection")

        for n, row in enumerate(rows):
            title = clean_text(_cell(row, title_pos))
            if not title:
                raise EmptyField(f"{path} row {n}: empty title")
            explanation = clean_text(_cell(row, explanation_pos))
            reflection = clean_text(_cell(row, reflection_pos))
            yield ScreeningRecord(
                row_index=n,
                title=title,
                abstract=clean_text(_cell(row, abstract_pos)),
                human_decision=_decision_from_cell(_cell(row, human_pos), n, "human_decision"),
                model_decision=_decision_from_cell(_cell(row, decision_pos), n, "decision"),
                explanation=explanation or None,
                reflection=reflection or None,
            )


def read_decision_columns(
    path: str | Path, truth_column: str, pred_column: str
) -> tuple[list[Decision | None], list[Decision | None]]:
    """Read two named decision columns from a results CSV, in one pass.

    The file is read as :func:`load_dataset` reads it: header names match
    case-insensitively and the first of duplicate names wins. Both columns
    are found in the header before any row is read (the truth column is
    checked first), and one that is not there raises :class:`MissingColumn`.
    Cells that are empty or not a known decision token count as missing,
    which drops the row from the comparison (and shows up in the
    ``dropped`` tally). Only the two decisions of each row are kept.
    """
    header, rows = read_rows(path)
    with closing(rows):
        index = header_index(header, path)
        truth_pos, pred_pos = (
            _column(index, name, path, key=clean_text(name).lower()) for name in (truth_column, pred_column)
        )

        truth: list[Decision | None] = []
        pred: list[Decision | None] = []
        for row in rows:
            width = len(row)
            truth.append(DECISION_CELLS.get(_decision_key(row[truth_pos])) if truth_pos < width else None)
            pred.append(DECISION_CELLS.get(_decision_key(row[pred_pos])) if pred_pos < width else None)
    return truth, pred


def csv_line(cells: Sequence[str]) -> str:
    """One CSV row as ``csv.writer`` writes it with the default dialect.

    Cells are joined by commas and the line ends in CRLF. A cell holding a
    comma, double quote, CR or LF is wrapped in double quotes, with inner
    double quotes doubled; every other cell is written as it is. Rows hold at
    least two cells: ``csv.writer`` writes a lone empty cell as ``""``.
    """
    return ",".join(map(_csv_cell, cells)) + "\r\n"


def _csv_cell(text: str) -> str:
    if '"' in text:
        return '"' + text.replace('"', '""') + '"'
    if "," in text or "\n" in text or "\r" in text:
        return '"' + text + '"'
    return text


def write_files(files: Mapping[Path, Iterable[str]]) -> None:
    """Write each path's lines as ASCII, replacing the files as one set.

    This is how every output file is made. Each file's lines stream to a
    temporary file in its directory, and only once every temporary file is
    whole are they renamed over their paths, so a crash never leaves a
    truncated file. A path that cannot take the rename (a directory in its
    place) is found before the first rename, so such a failure changes no
    file. Modes follow the umask, as ``open``'s do. On any exception every
    temporary file is removed, and an :class:`OSError` is raised as
    :class:`IoFailure` naming the path it came from.
    """
    temps: dict[Path, str] = {}
    try:
        for path, lines in files.items():
            # Mode 0o666 less the umask, as open() gives (mkstemp's is 0600); 48 random bits keep the name unused.
            tmp_name = str(path.parent / f"{path.name}.{os.urandom(6).hex()}.tmp")
            fd = os.open(tmp_name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            temps[path] = tmp_name
            with os.fdopen(fd, "w", newline="", encoding="ascii") as fh:
                fh.writelines(lines)
        _check_not_directories(temps)
        for path, tmp_name in temps.items():
            os.replace(tmp_name, path)
    except BaseException as exc:
        for tmp_name in temps.values():
            with suppress(OSError):
                os.unlink(tmp_name)
        if isinstance(exc, OSError):
            raise IoFailure(f"cannot write {path}: {exc}") from exc
        raise


def write_results(records: Iterable[ScreeningRecord], path: str | Path) -> None:
    """Write records as a results CSV through :func:`write_files`.

    Rows are emitted in ``row_index`` order with all six columns. Missing
    decisions and annotations become empty cells, and the four text cells
    pass through :func:`clean_text`, so the file is printable ASCII. Each row
    is encoded by :func:`csv_line` and streamed to the file line by line, so
    the bytes equal ``csv.writer``'s and the file never sits in memory whole.
    """
    rows = (
        csv_line(
            (
                clean_text(record.title),
                clean_text(record.abstract),
                record.human_decision.value if record.human_decision else "",
                record.model_decision.value if record.model_decision else "",
                clean_text(record.explanation or ""),
                clean_text(record.reflection or ""),
            )
        )
        for record in sorted(records, key=lambda r: r.row_index)
    )
    write_files({Path(path): chain((csv_line(RESULT_COLUMNS),), rows)})


def _check_not_directories(paths: Iterable[Path]) -> None:
    for path in paths:
        if path.is_dir():
            raise IoFailure(f"cannot write {path}: it is a directory")


def check_outputs(outputs: Mapping[Path, str], data_dir: str | Path, manifest: ScreeningManifest) -> None:
    """Check, before a command reads a dataset, removes a file or calls the model, that it can write ``outputs``.

    ``outputs`` maps each file the command will write to what it holds
    (``"the results of dataset 'A'"``). A file that is a manifest dataset's
    data file, as it can be when the output directory is the data directory,
    raises :class:`OutputClash` naming both; then a directory in a file's
    place raises :class:`IoFailure`, as :func:`write_files` would.
    """
    data_files = {data_path(data_dir, name).resolve(): name for name in manifest.names()}
    for path, holds in outputs.items():
        other = data_files.get(path.resolve())
        if other is not None:
            raise OutputClash(f"cannot write {path}: {holds} would replace the data file of dataset {other!r}")
    _check_not_directories(outputs)


def data_path(data_dir: str | Path, name: str) -> Path:
    """The data file of dataset ``name`` in ``data_dir``."""
    return Path(data_dir) / f"{name}.csv"


def results_path(output_dir: str | Path, name: str) -> Path:
    """The results CSV of dataset ``name`` in ``output_dir``."""
    return Path(output_dir) / f"{name}_results.csv"


def journal_path(results_csv: str | Path) -> Path:
    """The journal that belongs to a results CSV."""
    return Path(results_csv).with_suffix(".journal.jsonl")


def journal_entry(record: ScreeningRecord, field: str = "decision") -> str:
    """One journal line: the record's row index and the value of one field."""
    value = record.model_decision.value if field == "decision" else getattr(record, field)
    return json.dumps({"row": record.row_index, field: value}) + "\n"


def fold_journal(records: Sequence[ScreeningRecord], path: str | Path) -> int:
    """Apply the field values in a journal to ``records`` in place.

    Each complete line sets one field of one row: ``model_decision`` from a
    ``decision``, or the ``explanation`` or ``reflection`` text. A last line
    without its newline was torn by a crash mid-append and is ignored. A
    missing journal folds nothing. Returns the number of lines applied.
    """
    try:
        data = Path(path).read_bytes()
    except FileNotFoundError:
        return 0
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    by_row = {r.row_index: r for r in records}
    lines = data.split(b"\n")[:-1]  # the last piece is empty or torn
    for n, line in enumerate(lines, start=1):
        try:
            entry = json.loads(line)
            row = entry.pop("row")
            ((field, value),) = entry.items()
            if field == "decision":
                field, value = "model_decision", Decision(value)
            elif field not in ("explanation", "reflection") or type(value) is not str:
                raise ValueError(field)
        except (ValueError, KeyError, TypeError, AttributeError):
            raise JournalCorrupt(f"{path} line {n}: not a journal entry: {line[:80]!r}") from None
        if type(row) is not int or row not in by_row:
            raise JournalCorrupt(f"{path} line {n}: row {row!r} is not in the dataset")
        setattr(by_row[row], field, value)
    return len(lines)
