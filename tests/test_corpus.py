from __future__ import annotations

import csv
import dataclasses
import io
import json
import os
import random
import re
import string

import pytest
from hypothesis import given
from hypothesis import strategies as st

from absieve.corpus import (
    CriteriaSet,
    Decision,
    DuplicateDatasetName,
    EmptyField,
    EmptyManifest,
    InvalidDatasetName,
    IoFailure,
    JournalCorrupt,
    MalformedCsv,
    ManifestEntry,
    MissingColumn,
    ScreeningManifest,
    ScreeningRecord,
    UnknownDataset,
    UnparseableDecisionValue,
    clean_text,
    csv_line,
    fold_journal,
    journal_entry,
    journal_path,
    load_dataset,
    load_manifest,
    read_rows,
    write_results,
)
from conftest import (
    read_csv_rows,
    reported_unraisable,
    traced_peak,
    write_dataset,
    write_large_results,
    write_manifest,
)

MANIFEST = ScreeningManifest(
    (ManifestEntry("IVM", CriteriaSet("include trials", "exclude reviews")),)
)


_WHITESPACE_RUN = re.compile(r" +")
_BOUNDARY_CONTROLS = frozenset("\t\n\r\x0b\x0c")


def reference_clean_text(raw: str) -> str:
    """The original per-character clean_text, kept verbatim as an oracle."""
    chars = []
    for ch in raw:
        code = ord(ch)
        if code > 0x7E:
            continue
        if code < 0x20:
            if ch in _BOUNDARY_CONTROLS:
                chars.append(" ")
            continue
        chars.append(ch)
    return _WHITESPACE_RUN.sub(" ", "".join(chars)).strip()


# Weighted toward ASCII so that every control character and DEL turn up often.
_TEXT = st.text(
    alphabet=st.one_of(
        st.characters(max_codepoint=0x9F, exclude_categories=()),
        st.sampled_from("\t\n\r\x0b\x0c\x1c\x1f\x7f \xa0\u2003\u3000"),
        st.characters(exclude_categories=()),
    )
)

# Text that is already clean: printable-ASCII words joined by single spaces,
# weighted toward the characters the CSV writer must quote.
_WORD_CHARS = [chr(c) for c in range(0x21, 0x7F)] + list(',"{}') * 10
_WORD = st.text(alphabet=st.sampled_from(_WORD_CHARS), min_size=1, max_size=10)
_CLEAN_TEXT = st.lists(_WORD, max_size=40).map(" ".join)
# Shorter clean cells, to keep whole tables cheap to generate.
_CLEAN_CELL = st.lists(_WORD, max_size=6).map(" ".join)
_NONEMPTY_CLEAN_CELL = st.lists(_WORD, min_size=1, max_size=6).map(" ".join)
# One defect away from clean, so both clean_text paths are exercised.
_DEFECTS = st.one_of(
    st.sampled_from(["  ", "\t", "\x7f"]),
    st.characters(min_codepoint=0x80, exclude_categories=()),
)


@st.composite
def _near_clean_text(draw) -> str:
    text = draw(_CLEAN_TEXT)
    defect = draw(st.sampled_from(["none", "leading space", "trailing space", "inserted"]))
    if defect == "leading space":
        return " " + text
    if defect == "trailing space":
        return text + " "
    if defect == "inserted":
        pos = draw(st.integers(0, len(text)))
        return text[:pos] + draw(_DEFECTS) + text[pos:]
    return text


class TestCleanText:
    @given(_TEXT)
    def test_matches_reference_loop(self, s):
        assert clean_text(s) == reference_clean_text(s)

    @given(_near_clean_text())
    def test_near_clean_text_matches_reference_loop(self, s):
        assert clean_text(s) == reference_clean_text(s)

    def test_lone_surrogates_deleted(self):
        assert clean_text("a\ud800b \udfff") == reference_clean_text("a\ud800b \udfff") == "ab"

    def test_ascii_fixed_point(self):
        assert clean_text("ivermectin") == "ivermectin"

    def test_deletes_accented_characters(self):
        assert clean_text("naïve") == "nave"

    def test_unicode_hyphen_and_double_space(self):
        assert clean_text("COVID‐19  trial ") == "COVID19 trial"

    def test_tabs_and_newlines_keep_word_boundaries(self):
        assert clean_text("line one\nline\ttwo") == "line one line two"

    def test_other_control_characters_deleted(self):
        assert clean_text("a\x00b\x01c\x7fd") == "abcd"

    @given(st.text())
    def test_idempotent(self, s):
        assert clean_text(clean_text(s)) == clean_text(s)

    @given(st.text())
    def test_output_is_printable_ascii(self, s):
        cleaned = clean_text(s)
        assert all(0x20 <= ord(ch) <= 0x7E for ch in cleaned)
        assert cleaned == cleaned.strip()
        assert "  " not in cleaned


class TestLoadManifest:
    def test_minimal_well_formed(self, tmp_path):
        path = write_manifest(tmp_path / "m.csv", [["IVM", "inc", "exc"]])
        manifest = load_manifest(path)
        assert manifest.names() == ("IVM",)
        assert manifest.criteria_for("IVM") == CriteriaSet("inc", "exc")

    def test_misspelled_exclusion_header_accepted(self, tmp_path):
        spelled = load_manifest(write_manifest(tmp_path / "a.csv", [["IVM", "inc", "exc"]]))
        misspelled = load_manifest(
            write_manifest(
                tmp_path / "b.csv", [["IVM", "inc", "exc"]], exclusion_header="Excusion Criteria"
            )
        )
        assert spelled == misspelled

    def test_headers_match_case_insensitively(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("dataset name,INCLUSION CRITERIA,exclusion criteria\nIVM,inc,exc\n")
        assert load_manifest(path).names() == ("IVM",)

    def test_duplicate_dataset_name(self, tmp_path):
        path = write_manifest(tmp_path / "m.csv", [["IVM", "a", "b"], ["IVM", "c", "d"]])
        with pytest.raises(DuplicateDatasetName):
            load_manifest(path)

    def test_missing_column_named(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("Dataset Name,Inclusion Criteria\nIVM,inc\n")
        with pytest.raises(MissingColumn) as exc:
            load_manifest(path)
        assert "Exclusion Criteria" in str(exc.value)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("")
        with pytest.raises(EmptyManifest):
            load_manifest(path)

    def test_header_only(self, tmp_path):
        path = write_manifest(tmp_path / "m.csv", [])
        with pytest.raises(EmptyManifest):
            load_manifest(path)

    def test_criteria_empty_after_cleaning(self, tmp_path):
        path = write_manifest(tmp_path / "m.csv", [["IVM", "éè", "exc"]])
        with pytest.raises(EmptyField):
            load_manifest(path)

    def test_criteria_text_is_cleaned(self, tmp_path):
        path = write_manifest(tmp_path / "m.csv", [["IVM", "randomiséd  trials", "exc"]])
        assert load_manifest(path).criteria_for("IVM").inclusion == "randomisd trials"

    def test_unknown_dataset_lookup(self, tmp_path):
        manifest = load_manifest(write_manifest(tmp_path / "m.csv", [["IVM", "a", "b"]]))
        with pytest.raises(UnknownDataset):
            manifest.criteria_for("SSRI")

    @pytest.mark.parametrize("name", ["../escaped", "a/b", "/abs", "a\\b", ".", ".."])
    def test_name_that_is_no_single_path_component_is_rejected(self, tmp_path, name):
        path = write_manifest(tmp_path / "m.csv", [["IVM", "a", "b"], [name, "c", "d"]])
        with pytest.raises(InvalidDatasetName, match="row 2"):
            load_manifest(path)

    @pytest.mark.parametrize("name", ["...", ".hidden", "a.b", "A&B <x>", "a..b"])
    def test_other_names_with_dots_are_kept(self, tmp_path, name):
        path = write_manifest(tmp_path / "m.csv", [[name, "c", "d"]])
        assert load_manifest(path).names() == (name,)


class TestLoadDataset:
    def test_titles_only(self, tmp_path):
        path = write_dataset(
            tmp_path / "d.csv",
            [{"title": f"t{i}", "abstract": f"a{i}"} for i in range(3)],
        )
        records = load_dataset(path, "IVM", MANIFEST)
        assert [r.row_index for r in records] == [0, 1, 2]
        assert all(r.model_decision is None for r in records)

    def test_decision_column_parsed_for_resume(self, tmp_path):
        path = write_dataset(
            tmp_path / "d.csv", [{"title": "t", "abstract": "a", "decision": "included"}]
        )
        records = load_dataset(path, "IVM", MANIFEST)
        assert records[0].model_decision is Decision.INCLUDED

    def test_unknown_dataset(self, tmp_path):
        path = write_dataset(tmp_path / "d.csv", [{"title": "t", "abstract": "a"}])
        with pytest.raises(UnknownDataset):
            load_dataset(path, "NOPE", MANIFEST)

    def test_missing_title_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("abstract\nsome text\n")
        with pytest.raises(MissingColumn):
            load_dataset(path, "IVM", MANIFEST)

    def test_unparseable_decision_names_row(self, tmp_path):
        path = write_dataset(
            tmp_path / "d.csv",
            [
                {"title": "t0", "abstract": "a", "decision": "included"},
                {"title": "t1", "abstract": "a", "decision": "maybe"},
            ],
        )
        with pytest.raises(UnparseableDecisionValue) as exc:
            load_dataset(path, "IVM", MANIFEST)
        assert "row 1" in str(exc.value)

    def test_empty_abstract_rows_are_kept(self, tmp_path):
        path = write_dataset(
            tmp_path / "d.csv",
            [{"title": "t0", "abstract": ""}, {"title": "t1", "abstract": "a"}],
        )
        records = load_dataset(path, "IVM", MANIFEST)
        assert len(records) == 2
        assert records[0].abstract == ""

    def test_empty_title_rejected(self, tmp_path):
        path = write_dataset(tmp_path / "d.csv", [{"title": "ÿ", "abstract": "a"}])
        with pytest.raises(EmptyField):
            load_dataset(path, "IVM", MANIFEST)

    def test_human_decision_column(self, tmp_path):
        path = write_dataset(
            tmp_path / "d.csv",
            [{"title": "t", "abstract": "a", "human_decision": "excluded"}],
        )
        assert load_dataset(path, "IVM", MANIFEST)[0].human_decision is Decision.EXCLUDED


def _random_record(rng: random.Random, index: int) -> ScreeningRecord:
    def text(allow_empty: bool = True) -> str:
        alphabet = string.ascii_letters + string.digits + " ,;.\"'{}"
        length = rng.randint(0 if allow_empty else 1, 40)
        return clean_text("".join(rng.choice(alphabet) for _ in range(length)))

    def maybe_decision() -> Decision | None:
        return rng.choice([None, *Decision])

    title = ""
    while not title:
        title = text(allow_empty=False)
    return ScreeningRecord(
        row_index=index,
        title=title,
        abstract=text(),
        human_decision=maybe_decision(),
        model_decision=maybe_decision(),
        explanation=text() or None,
        reflection=text() or None,
    )


def _written_record(titles: st.SearchStrategy[str]) -> st.SearchStrategy[ScreeningRecord]:
    """A record for ``write_results``; ``row_index`` is set by :func:`_indexed`."""
    decisions = st.none() | st.sampled_from(Decision)
    annotations = st.none() | _NONEMPTY_CLEAN_CELL
    return st.builds(
        ScreeningRecord,
        row_index=st.just(0),
        title=titles,
        abstract=_CLEAN_CELL,
        human_decision=decisions,
        model_decision=decisions,
        explanation=annotations,
        reflection=annotations,
    )


def _indexed(records: list[ScreeningRecord]) -> list[ScreeningRecord]:
    for i, record in enumerate(records):
        record.row_index = i
    return records


class TestWriteResults:
    def test_decision_serialized_lowercase(self, tmp_path):
        record = ScreeningRecord(0, "t", "a", model_decision=Decision.EXCLUDED)
        path = tmp_path / "out.csv"
        write_results([record], path)
        assert read_csv_rows(path)[0]["decision"] == "excluded"

    def test_missing_decisions_are_empty_cells(self, tmp_path):
        path = tmp_path / "out.csv"
        write_results([ScreeningRecord(0, "t", "a")], path)
        row = read_csv_rows(path)[0]
        assert row["decision"] == ""
        assert row["human_decision"] == ""
        assert row["explanation"] == ""

    def test_all_six_columns_always_written(self, tmp_path):
        path = tmp_path / "out.csv"
        write_results([ScreeningRecord(0, "t", "a")], path)
        assert list(read_csv_rows(path)[0].keys()) == [
            "title",
            "abstract",
            "human_decision",
            "decision",
            "explanation",
            "reflection",
        ]

    def test_rows_ordered_by_row_index(self, tmp_path):
        records = [ScreeningRecord(i, f"t{i}", "a") for i in (2, 0, 1)]
        path = tmp_path / "out.csv"
        write_results(records, path)
        assert [r["title"] for r in read_csv_rows(path)] == ["t0", "t1", "t2"]

    def test_round_trip_100_random_records(self, tmp_path):
        rng = random.Random(42)
        records = [_random_record(rng, i) for i in range(100)]
        path = tmp_path / "out.csv"
        write_results(records, path)
        assert load_dataset(path, "IVM", MANIFEST) == records

    def test_round_trip_is_stable_on_disk(self, tmp_path):
        rng = random.Random(7)
        records = [_random_record(rng, i) for i in range(20)]
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        write_results(records, first)
        write_results(load_dataset(first, "IVM", MANIFEST), second)
        assert first.read_bytes() == second.read_bytes()

    def test_non_ascii_fields_cleaned_on_write(self, tmp_path):
        record = ScreeningRecord(0, "t", "a", explanation="café  note")
        path = tmp_path / "out.csv"
        write_results([record], path)
        assert read_csv_rows(path)[0]["explanation"] == "caf note"

    @pytest.mark.skipif(os.name != "posix", reason="needs POSIX file modes")
    @pytest.mark.parametrize("umask", [0o022, 0o027, 0o077])
    def test_mode_follows_the_umask_as_for_open(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            write_results([ScreeningRecord(0, "t", "a")], tmp_path / "out.csv")
            (tmp_path / "plain.txt").write_text("x")
        finally:
            os.umask(old)
        mode = (tmp_path / "out.csv").stat().st_mode & 0o777
        assert mode == (tmp_path / "plain.txt").stat().st_mode & 0o777 == 0o666 & ~umask

    def test_atomic_replace_of_existing_file(self, tmp_path):
        path = tmp_path / "out.csv"
        write_results([ScreeningRecord(0, "old", "a")], path)
        write_results([ScreeningRecord(0, "new", "a")], path)
        rows = read_csv_rows(path)
        assert len(rows) == 1
        assert rows[0]["title"] == "new"
        assert not list(tmp_path.glob("*.tmp"))

    @given(st.lists(_written_record(st.one_of(_CLEAN_CELL, _TEXT)), max_size=5), st.randoms())
    def test_bytes_match_csv_writer(self, tmp_path_factory, records, rng):
        ordered = _indexed(records)
        shuffled = ordered[:]
        rng.shuffle(shuffled)
        path = tmp_path_factory.mktemp("w") / "out.csv"
        write_results(shuffled, path)

        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(["title", "abstract", "human_decision", "decision", "explanation", "reflection"])
        for r in ordered:
            writer.writerow(
                [
                    clean_text(r.title),
                    clean_text(r.abstract),
                    r.human_decision.value if r.human_decision else "",
                    r.model_decision.value if r.model_decision else "",
                    clean_text(r.explanation or ""),
                    clean_text(r.reflection or ""),
                ]
            )
        assert path.read_bytes() == expected.getvalue().encode("ascii")

    @given(st.lists(_written_record(_NONEMPTY_CLEAN_CELL), max_size=5))
    def test_round_trip_is_identity_on_clean_text(self, tmp_path_factory, records):
        records = _indexed(records)
        path = tmp_path_factory.mktemp("w") / "out.csv"
        write_results(records, path)
        assert load_dataset(path, "IVM", MANIFEST) == records


class TestCsvLine:
    @given(st.lists(st.text(alphabet=st.sampled_from('ab ,"{}\r\n\t'), max_size=8), min_size=2, max_size=7))
    def test_matches_csv_writer_on_raw_cells(self, cells):
        expected = io.StringIO(newline="")
        csv.writer(expected).writerow(cells)
        assert csv_line(cells) == expected.getvalue()

    def test_quotes_only_cells_that_need_it(self):
        cells = ["plain", "a,b", 'say "hi"', "{x}", "", "two\r\nlines"]
        assert csv_line(cells) == 'plain,"a,b","say ""hi""",{x},,"two\r\nlines"\r\n'


def _decided(n: int) -> list[ScreeningRecord]:
    return [ScreeningRecord(i, f"t{i}", "a", model_decision=Decision.EXCLUDED) for i in range(n)]


class TestJournal:
    def test_path_sits_next_to_results(self, tmp_path):
        assert journal_path(tmp_path / "IVM_results.csv") == tmp_path / "IVM_results.journal.jsonl"

    def test_entry_format(self):
        record = ScreeningRecord(3, "t", model_decision=Decision.UNPARSEABLE)
        assert journal_entry(record) == '{"row": 3, "decision": "unparseable"}\n'

    def test_annotation_entry_format(self):
        record = ScreeningRecord(3, "t", explanation='say "hi",\ncaf\u00e9')
        assert journal_entry(record, "explanation") == '{"row": 3, "explanation": "say \\"hi\\",\\ncaf\\u00e9"}\n'

    def test_each_line_sets_its_own_field(self, tmp_path):
        path = tmp_path / "j.jsonl"
        written = ScreeningRecord(1, "t1", model_decision=Decision.INCLUDED, explanation="why", reflection="")
        path.write_text("".join(journal_entry(written, f) for f in ("decision", "explanation", "reflection")))
        records = [ScreeningRecord(i, f"t{i}") for i in range(2)]
        assert fold_journal(records, path) == 3
        assert records == [ScreeningRecord(0, "t0"), dataclasses.replace(written, title="t1")]

    @given(
        st.sampled_from(["explanation", "reflection"]),
        st.text(alphabet=st.one_of(st.sampled_from(',"{}\r\n\\ '), st.characters(exclude_categories=()))),
    )
    def test_journaled_annotation_writes_like_a_direct_one(self, tmp_path_factory, column, text):
        base = ScreeningRecord(0, "t", "a", Decision.INCLUDED, Decision.EXCLUDED, "old", "old")
        direct = dataclasses.replace(base, **{column: text})
        folded = dataclasses.replace(base)
        work = tmp_path_factory.mktemp("j")
        (work / "j.jsonl").write_text(journal_entry(direct, column), encoding="ascii")
        assert fold_journal([folded], work / "j.jsonl") == 1
        write_results([direct], work / "direct.csv")
        write_results([folded], work / "folded.csv")
        assert (work / "folded.csv").read_bytes() == (work / "direct.csv").read_bytes()

    def test_entries_fold_back_into_records(self, tmp_path):
        path = tmp_path / "j.jsonl"
        written = _decided(3)
        written[1].model_decision = Decision.INCLUDED
        path.write_text("".join(journal_entry(r) for r in written[::-1]))
        records = [ScreeningRecord(i, f"t{i}") for i in range(4)]
        assert fold_journal(records, path) == 3
        assert [r.model_decision for r in records] == [
            Decision.EXCLUDED,
            Decision.INCLUDED,
            Decision.EXCLUDED,
            None,
        ]

    def test_missing_journal_folds_nothing(self, tmp_path):
        records = [ScreeningRecord(0, "t")]
        assert fold_journal(records, tmp_path / "absent.jsonl") == 0
        assert records[0].model_decision is None

    def test_torn_last_line_is_ignored(self, tmp_path):
        path = tmp_path / "j.jsonl"
        entries = "".join(journal_entry(r) for r in _decided(2))
        path.write_text(entries + '{"row": 2, "decision": "excl')
        records = [ScreeningRecord(i, f"t{i}") for i in range(3)]
        assert fold_journal(records, path) == 2
        assert records[2].model_decision is None

    def test_torn_line_that_parses_is_still_ignored(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('{"row": 0, "decision": "included"}')
        records = [ScreeningRecord(0, "t")]
        assert fold_journal(records, path) == 0
        assert records[0].model_decision is None

    @pytest.mark.parametrize("row", [3, -1, "0", True])
    def test_row_outside_dataset_raises(self, tmp_path, row):
        path = tmp_path / "j.jsonl"
        path.write_text(json.dumps({"row": row, "decision": "included"}) + "\n")
        with pytest.raises(JournalCorrupt) as exc:
            fold_journal([ScreeningRecord(i, f"t{i}") for i in range(3)], path)
        assert "line 1" in str(exc.value)

    @pytest.mark.parametrize(
        "line",
        [
            "not json",
            "[0]",
            '{"row": 0}',
            '{"row": 0, "decision": "maybe"}',
            "0",
            '{"row": 0, "verdict": "included"}',
            '{"row": 0, "model_decision": "included"}',
            '{"row": 0, "explanation": 5}',
            '{"row": 0, "reflection": null}',
            '{"row": 0, "decision": "included", "explanation": "why"}',
        ],
    )
    def test_malformed_complete_line_raises(self, tmp_path, line):
        path = tmp_path / "j.jsonl"
        path.write_text(journal_entry(_decided(1)[0]) + line + "\n")
        with pytest.raises(JournalCorrupt) as exc:
            fold_journal([ScreeningRecord(0, "t")], path)
        assert "line 2" in str(exc.value)


class TestReadRows:
    def test_rows_stream_after_the_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"\xef\xbb\xbftitle,abstract\r\n\r\nt0,a0\r\n\r\n\r\nt1,a1\r\n")
        header, rows = read_rows(path)
        assert header == ["title", "abstract"]
        assert not isinstance(rows, list)
        assert next(rows) == ["t0", "a0"]
        assert list(rows) == [["t1", "a1"]]

    def test_running_out_or_closing_the_stream_closes_the_file(self, tmp_path, corpus_files):
        path = write_dataset(tmp_path / "d.csv", [{"title": f"t{i}", "abstract": "a"} for i in range(3)])
        _, rows = read_rows(path)
        assert len(list(rows)) == 3
        _, rows = read_rows(path)
        next(rows)
        rows.close()
        assert len(corpus_files) == 2
        assert all(fh.closed for fh in corpus_files)

    def test_empty_and_missing_files_raise_at_the_header(self, tmp_path, corpus_files):
        (tmp_path / "empty.csv").write_bytes(b"\r\n\r\n")
        with pytest.raises(EmptyManifest, match="empty"):
            read_rows(tmp_path / "empty.csv")
        with pytest.raises(IoFailure, match="nope.csv"):
            read_rows(tmp_path / "nope.csv")
        assert all(fh.closed for fh in corpus_files)

    @pytest.mark.parametrize("end", [b"\r\n", b"\n", b"\r"], ids=["crlf", "lf", "cr"])
    def test_non_utf8_bytes_name_the_path_and_line(self, tmp_path, end):
        path = tmp_path / "d.csv"
        path.write_bytes(end.join([b"title,abstract", b"t0,a0", b't1,"two', b'lines"', b"caf\xe9,x", b"t3,a3", b""]))
        with pytest.raises(MalformedCsv, match=r"d\.csv line 5: not UTF-8 text"):
            load_dataset(path, "IVM", MANIFEST)

    def test_non_utf8_header_raises_before_any_row(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(b"Dataset Name,Inclusion Criteria,Exclusion Crit\xe8ria\r\nIVM,a,b\r\n")
        with pytest.raises(MalformedCsv, match=r"m\.csv line 1: not UTF-8 text"):
            load_manifest(path)

    def test_unterminated_quote_past_the_field_limit_names_the_path_and_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text('title,abstract\r\nt0,"never closed\r\n' + "x" * 140_000 + "\r\n", encoding="ascii")
        with pytest.raises(MalformedCsv, match=r"d\.csv line 3: not a CSV row: field larger than field limit"):
            load_dataset(path, "IVM", MANIFEST)


class TestLoadDatasetStreams:
    def test_peak_memory_is_about_what_the_records_hold(self, tmp_path):
        path = write_large_results(tmp_path / "r.csv", rows=2600)
        assert path.stat().st_size >= 4_000_000
        records, held, peak = traced_peak(lambda: load_dataset(path, "IVM", MANIFEST))
        assert len(records) == 2600
        # Reading all rows before building records would peak at about twice this.
        assert peak <= 1.25 * held, (peak, held)

    def test_empty_title_on_row_3_of_a_large_file_closes_it(self, tmp_path, corpus_files):
        path = write_large_results(tmp_path / "r.csv", rows=2000)
        data = path.read_bytes()
        assert data.count(b"\r\ntitle 3,") == 1
        path.write_bytes(data.replace(b"\r\ntitle 3,", "\r\n\u00ff,".encode("utf-8")))
        with reported_unraisable() as reported:
            with pytest.raises(EmptyField, match="row 3: empty title") as failure:
                load_dataset(path, "IVM", MANIFEST)
            # Closed while the failure still holds the reader's frame.
            assert len(corpus_files) == 1
            assert corpus_files[0].closed
            corpus_files.clear()
            del failure
        assert reported == []
