import io
import sys

import pytest

from chh import (
    InvalidParameterError,
    MalformedLineError,
    TsvTupleSource,
    UnsupportedSourceError,
    exact_chh_multipass,
    parse_tuple_line,
    write_tuples,
)


def test_parse_basic_fields():
    record = parse_tuple_line(b"10.0.0.1\t192.168.1.5\n")
    assert record == (b"10.0.0.1", b"192.168.1.5")


def test_parse_splits_on_first_tab_only():
    assert parse_tuple_line(b"a\tb\tc\n") == (b"a", b"b\tc")


def test_parse_allows_empty_fields():
    assert parse_tuple_line(b"\t\n") == (b"", b"")
    assert parse_tuple_line(b"x\t\n") == (b"x", b"")
    assert parse_tuple_line(b"\ty\n") == (b"", b"y")


def test_parse_strips_only_line_terminator():
    assert parse_tuple_line(b"a \t b\r\n") == (b"a ", b" b")
    assert parse_tuple_line(b"a\tb") == (b"a", b"b")  # no terminator at EOF


def test_parse_missing_tab_reports_line_number():
    with pytest.raises(MalformedLineError) as excinfo:
        parse_tuple_line(b"nodelimiter\n", line_number=17)
    assert excinfo.value.line_number == 17
    assert "17" in str(excinfo.value)


def test_source_roundtrip_and_replay(tmp_path):
    path = tmp_path / "stream.tsv"
    tuples = [(b"a", b"p"), (b"b", b"q"), (b"a", b"r")]
    assert write_tuples(path, tuples) == 3
    source = TsvTupleSource(path)
    assert list(source) == tuples
    assert list(source) == tuples  # replayable
    assert iter(source) is not source


def test_source_lenient_skips_and_counts(tmp_path):
    path = tmp_path / "stream.tsv"
    path.write_bytes(b"a\tp\nbroken\nb\tq\nalso broken\n")
    source = TsvTupleSource(path)
    assert list(source) == [(b"a", b"p"), (b"b", b"q")]
    assert source.skipped_lines == 2
    # the counter resets per pass
    assert list(source) == [(b"a", b"p"), (b"b", b"q")]
    assert source.skipped_lines == 2


def test_source_strict_raises_at_line(tmp_path):
    path = tmp_path / "stream.tsv"
    path.write_bytes(b"a\tp\nbroken\n")
    source = TsvTupleSource(path, strict=True)
    with pytest.raises(MalformedLineError) as excinfo:
        list(source)
    assert excinfo.value.line_number == 2


def test_stdin_source_counts_skips_and_is_single_pass(monkeypatch):
    def feed(data):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))

    feed(b"a\tp\nbroken\nb\tq\n")
    source = TsvTupleSource(None)
    assert list(source) == [(b"a", b"p"), (b"b", b"q")]
    assert source.skipped_lines == 1
    with pytest.raises(UnsupportedSourceError):
        iter(source)

    feed(b"a\tp\n" * 5)
    with pytest.raises(UnsupportedSourceError):
        exact_chh_multipass(TsvTupleSource(None), "0.5", "0.5")


def test_write_rejects_separator_in_fields(tmp_path):
    with pytest.raises(InvalidParameterError):
        write_tuples(tmp_path / "bad.tsv", [(b"a\tb", b"c")])
    with pytest.raises(InvalidParameterError):
        write_tuples(tmp_path / "bad.tsv", [(b"a", b"c\n")])
