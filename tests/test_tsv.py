import io
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chh.tsv
from chh import (
    InconsistentInputError,
    InvalidParameterError,
    MalformedLineError,
    TsvTupleSource,
    UnsupportedSourceError,
    exact_chh_multipass,
    sweep,
    write_tuples,
)
from conftest import read_by_lines


GOOD_PREFIX = b"k\tv\n" * 16  # so the line under test is line 17


@pytest.mark.parametrize(
    "data, expected",
    [
        (b"10.0.0.1\t192.168.1.5\n", [(b"10.0.0.1", b"192.168.1.5")]),
        (b"a\tb\tc\n", [(b"a", b"b\tc")]),
        (b"\t\nx\t\n\ty\n", [(b"", b""), (b"x", b""), (b"", b"y")]),
        (b"a \t b\r\na\tb", [(b"a ", b" b"), (b"a", b"b")]),  # no terminator at EOF
        (b"a\r\tb\rc\r\r\n", [(b"a\r", b"b\rc\r")]),
        (b"nodelimiter\n", None),
    ],
    ids=["basic-fields", "first-tab-only", "empty-fields", "only-line-terminator",
         "lone-cr-is-data", "missing-tab"],
)
def test_source_line_grammar(tmp_path, data, expected):
    path = tmp_path / "stream.tsv"
    path.write_bytes(GOOD_PREFIX + data)
    lenient, strict = TsvTupleSource(path), TsvTupleSource(path, strict=True)
    assert list(lenient)[16:] == (expected or [])
    assert lenient.skipped_lines == (expected is None)
    if expected is None:
        with pytest.raises(MalformedLineError) as excinfo:
            list(strict)
        assert excinfo.value.line_number == 17
        assert str(excinfo.value) == "line 17: no tab separator"
    else:
        assert list(strict)[16:] == expected


def test_source_roundtrip_and_replay(tmp_path):
    path = tmp_path / "stream.tsv"
    tuples = [(b"a", b"p"), (b"b", b"q"), (b"a", b"r")]
    assert write_tuples(path, tuples) == 3
    source = TsvTupleSource(path)
    assert list(source) == tuples
    assert list(source) == tuples  # replayable
    assert iter(source) is not source


class RewrittenSource(TsvTupleSource):
    """A file source whose file is rewritten with ``data`` as pass ``at`` starts."""

    def __init__(self, path, at, data):
        super().__init__(path)
        self.at, self.data, self.started = at, data, 0

    def _blocks(self):
        self.started += 1
        if self.started == self.at:
            self.path.write_bytes(self.data)
        yield from super()._blocks()


# a is heavy and b is heavy with a shed pair summary at phi 0.2/0.5, so
# `exact` reads three passes; the rewrite keeps every line count.
THREE_PASS = b"a\tp\n" * 10 + b"b\tq\nb\tr\nb\tq\n" * 3 + b"c\tp\n"
REWRITTEN = THREE_PASS.replace(b"c\tp", b"c\tq")


def test_a_later_pass_over_other_bytes_with_the_same_count_raises(tmp_path):
    path = tmp_path / "stream.tsv"
    path.write_bytes(THREE_PASS)
    source = TsvTupleSource(path)
    first = list(source)
    path.write_bytes(THREE_PASS)  # the same bytes again
    assert list(source) == first
    path.write_bytes(REWRITTEN)
    with pytest.raises(InconsistentInputError, match="pass 3 read the same number of tuples as pass 1 but other bytes"):
        list(source)


@pytest.mark.parametrize("at", [2, 3])
def test_exact_rejects_a_file_rewritten_between_passes(tmp_path, at):
    path = tmp_path / "stream.tsv"
    path.write_bytes(THREE_PASS)
    source = RewrittenSource(path, None, b"")
    exact_chh_multipass(source, "0.2", "0.5")
    assert source.started == 3
    source = RewrittenSource(path, at, REWRITTEN)
    with pytest.raises(InconsistentInputError, match=f"pass {at} read the same number"):
        exact_chh_multipass(source, "0.2", "0.5")


def test_sweep_rejects_a_file_rewritten_between_passes(tmp_path):
    # (2, 1) cannot be read off (4, 2), which holds 3 primaries, so pass 2
    # feeds it: without the check its row would come from the other stream.
    path = tmp_path / "stream.tsv"
    path.write_bytes(THREE_PASS)
    source = RewrittenSource(path, 2, REWRITTEN)
    with pytest.raises(InconsistentInputError, match="pass 2 read the same number"):
        sweep(source, "0.2", "0.5", [2, 4], [1, 2])


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


field = st.binary(max_size=6).filter(lambda b: not {9, 10, 13} & set(b))


@given(st.lists(st.tuples(field, field), max_size=50))
def test_write_then_read_returns_any_separator_free_stream(tmp_path_factory, tuples):
    path = tmp_path_factory.mktemp("roundtrip") / "stream.tsv"
    assert write_tuples(path, tuples) == len(tuples)
    source = TsvTupleSource(path)
    assert list(source) == tuples
    assert source.skipped_lines == 0


def read_by_blocks(data, strict, block_bytes, path):
    """Read ``data`` with `TsvTupleSource` from a file, or from stdin when ``path`` is None."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(chh.tsv, "BLOCK_BYTES", block_bytes)
        if path is None:
            patch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
        else:
            path.write_bytes(data)
        source = TsvTupleSource(path, strict=strict)
        tuples = []
        try:
            for item in source:
                tuples.append(item)
        except MalformedLineError as exc:
            return tuples, source.skipped_lines, exc.line_number
        return tuples, source.skipped_lines, None


def tsv_line(tabs):
    """Lines of ``tabs`` tabs between fields that may be empty or hold a ``\r``."""
    cell = st.lists(st.sampled_from([b"a", b"b", b"\r"]), max_size=3).map(b"".join)
    return st.lists(cell, min_size=tabs + 1, max_size=tabs + 1).map(b"\t".join)


# Mostly one-tab lines, so that whole blocks of them sit next to blocks that
# hold a line with no tab or with two.
any_tsv_line = st.sampled_from([1] * 8 + [0, 2]).flatmap(tsv_line)
tsv_streams = st.tuples(
    st.lists(st.tuples(any_tsv_line, st.sampled_from([b"\n", b"\n", b"\r\n"])), max_size=60),
    st.one_of(st.just(b""), any_tsv_line),  # a final line with no "\n", or none
).map(lambda parts: b"".join(line + end for line, end in parts[0]) + parts[1])


@settings(max_examples=300)
@given(
    st.one_of(
        st.lists(st.sampled_from([b"a", b"\t", b"\r", b"\n"]), max_size=40).map(b"".join),
        tsv_streams,
    ),
    st.one_of(st.integers(1, 8), st.integers(1, 64), st.just(65536)),
)
@example(b"", 1)
@example(b"\n", 1)
@example(b"\n\n\n", 2)
@example(b"a\tb\r\na\tb\r\n", 4)  # "\r" ends the first block, "\n" starts the next
@example(b"a\r\r\n\tb\r", 3)  # "\r\r" across a block, then a final line ending in "\r"
@example(b"a\tb\r", 8)  # the final line, with no "\n", keeps its "\r"
@example(b"a\tb\n" * 4 + b"c\td\te\n" + b"a\tb\n", 16)  # a clean block, then two tabs
@example(b"a\tb\n" * 4 + b"none\n" + b"a\tb\n", 16)  # a clean block; strict stops at line 5
@example(b"a\tb\r\n" * 6, 9)  # a block of clean lines ends in "\r", the next starts with "\n"
def test_block_reader_matches_line_iteration(tmp_path_factory, data, block_bytes):
    path = tmp_path_factory.mktemp("blocks") / "stream.tsv"
    for strict in (False, True):
        expected = read_by_lines(data, strict)
        assert read_by_blocks(data, strict, block_bytes, path) == expected
        assert read_by_blocks(data, strict, block_bytes, None) == expected


def test_write_rejects_separator_in_fields(tmp_path):
    with pytest.raises(InvalidParameterError):
        write_tuples(tmp_path / "bad.tsv", [(b"a\tb", b"c")])
    with pytest.raises(InvalidParameterError):
        write_tuples(tmp_path / "bad.tsv", [(b"a", b"c\n")])


def write_by_tuples(path, tuples, batch):
    """The per-tuple writer the batched one replaced, as a reference.

    It tests each field with ``in`` and writes every ``batch`` lines.
    """
    count = 0
    lines = []
    with open(path, "wb") as handle:
        for x, y in tuples:
            if b"\t" in x or b"\n" in x or b"\r" in x or b"\t" in y or b"\n" in y or b"\r" in y:
                raise InvalidParameterError(
                    f"tuple fields may not contain tabs or line breaks: ({x!r}, {y!r})"
                )
            lines.append(b"%s\t%s\n" % (x, y))
            count += 1
            if len(lines) >= batch:
                handle.write(b"".join(lines))
                lines.clear()
        handle.write(b"".join(lines))
    return count


def write_outcome(writer, path, tuples):
    """What a writer returns (or the exception it raises) and the bytes it leaves."""
    try:
        result = writer(path, iter(tuples))
    except InvalidParameterError as exc:
        result = (InvalidParameterError, str(exc))
    except Exception as exc:
        result = type(exc)
    return result, path.read_bytes()


clean_bytes = st.binary(max_size=4).filter(lambda b: not {9, 10, 13} & set(b))
any_bytes = st.one_of(
    clean_bytes,
    st.lists(st.sampled_from([b"a", b"\t", b"\n", b"\r"]), min_size=1, max_size=4).map(b"".join),
)
clean_item = st.tuples(st.one_of(clean_bytes, clean_bytes.map(bytearray)), clean_bytes)
any_field = st.one_of(any_bytes, any_bytes.map(bytearray), st.text("a\t", max_size=2))
any_item = st.one_of(
    st.tuples(any_field, any_field),
    st.tuples(any_field, any_field).map(list),
    st.tuples(any_field, any_field, any_field),
    st.tuples(any_field),
)
# Good tuples, then a few of any kind, then good tuples again, so that a bad
# tuple usually follows whole batches.
tuple_streams = st.tuples(
    st.lists(clean_item, max_size=12),
    st.lists(any_item, max_size=3),
    st.lists(clean_item, max_size=6),
).map(lambda parts: [item for part in parts for item in part])


@given(tuple_streams, st.integers(1, 5))
@example([(b"a", b"b")] * 7 + [(b"a\tb", "y")], 3)  # the bad x is found before the str y
@example([(b"a", b"b"), ("x", b"c\n")], 1)  # the str x fails before the bad y is seen
@example([(b"a", b"b"), [b"c", b"d"], (b"e", b"f", b"g")], 2)
@example([(bytearray(b"a\r"), b"b")], 4)
def test_batched_writer_matches_per_tuple_writer(tmp_path_factory, tuples, batch):
    directory = tmp_path_factory.mktemp("write")
    expected = write_outcome(
        lambda path, items: write_by_tuples(path, items, batch), directory / "reference.tsv", tuples
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(chh.tsv, "WRITE_BATCH", batch)
        assert write_outcome(write_tuples, directory / "stream.tsv", tuples) == expected


class BytesOnly:
    """A field that converts to bytes but supports no ``in`` test."""

    def __bytes__(self):
        return b"z"


def test_fields_are_checked_as_the_bytes_they_write(tmp_path):
    # The intended differences from write_by_tuples, whose `in` test compares
    # the needle against a memoryview's ints and so lets a tab through, and
    # raises TypeError for a field without `in` support.
    path = tmp_path / "stream.tsv"
    assert write_by_tuples(path, [(memoryview(b"a\tb"), b"y")], 4096) == 1
    assert list(TsvTupleSource(path)) == [(b"a", b"b\ty")]
    with pytest.raises(InvalidParameterError, match="tabs or line breaks"):
        write_tuples(path, [(memoryview(b"a\tb"), b"y")])
    assert write_tuples(path, [(memoryview(b"a"), b"y")]) == 1
    assert path.read_bytes() == b"a\ty\n"

    with pytest.raises(TypeError):
        write_by_tuples(path, [(BytesOnly(), b"y")], 4096)
    assert write_tuples(path, [(BytesOnly(), b"y")]) == 1
    assert path.read_bytes() == b"z\ty\n"
