import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chh import (
    ChhParams,
    ChhSketch,
    SnapshotFormatError,
    load_sketch,
    save_sketch,
    sketch_from_bytes,
    sketch_to_bytes,
    solve_params,
)
from conftest import random_tuple_stream

pair = st.tuples(st.binary(max_size=3), st.binary(max_size=3))


@given(st.lists(pair, max_size=200), st.integers(1, 4), st.integers(1, 4))
def test_roundtrip_is_bit_identical_and_behaviour_preserving(stream, s1, s2):
    sketch = ChhSketch(ChhParams.from_raw("0.5", "0.5", s1, s2))
    sketch.consume(stream)
    blob = sketch_to_bytes(sketch)
    restored = sketch_from_bytes(blob)

    assert sketch_to_bytes(restored) == blob
    assert restored.report() == sketch.report()
    assert restored.n == sketch.n
    assert restored.entries() == sketch.entries()

    # identical behaviour under further updates
    suffix = [(b"zz", b"w"), (b"", b""), (b"zz", b"w")]
    sketch.consume(suffix)
    restored.consume(suffix)
    assert restored.entries() == sketch.entries()


def test_awkward_keys_survive():
    sketch = ChhSketch(ChhParams.from_raw("0.5", "0.5", 8, 8))
    awkward = [b"", b"\t", b"\n", b"a b", b"\x00\xff", "héllo".encode()]
    for key in awkward:
        sketch.update(key, key[::-1])
    restored = sketch_from_bytes(sketch_to_bytes(sketch))
    for key in awkward:
        assert restored.estimate_primary(key) == sketch.estimate_primary(key)
        assert restored.estimate_pair(key, key[::-1]) == 1


def test_solver_params_roundtrip(tmp_path):
    sketch = ChhSketch(solve_params("0.1", "0.1", "0.05", "0.1"))
    sketch.consume(random_tuple_stream(5, 3000, primaries=600, secondaries=40))
    path = tmp_path / "sketch.snap"
    save_sketch(sketch, path)
    restored = load_sketch(path)
    assert restored.params == sketch.params
    assert restored.report() == sketch.report()
    assert sketch_to_bytes(restored) == path.read_bytes()


@pytest.mark.parametrize(
    "mutate",
    [
        lambda blob: b"garbage\n" + blob,
        lambda blob: blob.replace(b"chh-sketch v1", b"chh-sketch v9"),
        lambda blob: blob[: blob.index(b"end")],
        lambda blob: blob.replace(b"phi1", b"phiX"),
        lambda blob: blob.replace(b"n 4", b"n x"),
        lambda blob: blob.replace(b"s1 2", b"s1 0"),
        lambda blob: blob.replace(b"phi1 1/2", b"phi1 2/1"),
        lambda blob: blob.replace(b"p 62 1 1 1", b"p 61 1 1 1"),  # repeated primary
        lambda blob: blob.replace(b"s 71 1", b"s 70 1"),  # repeated secondary
        lambda blob: blob.replace(  # primaries out of order
            b"p 61 3 3 2\ns 70 2\ns 71 1\np 62 1 1 1\ns 70 1\n",
            b"p 62 1 1 1\ns 70 1\np 61 3 3 2\ns 70 2\ns 71 1\n",
        ),
        lambda blob: blob[: blob.index(b"primaries")] + b"primaries -3\nend\n",
        lambda blob: blob.replace(b"p 62 1 1 1\ns 70 1\n", b"p 62 1 1 -1\n"),
        lambda blob: blob.replace(b"n 4", b"n 1"),  # n below the primary counts
        lambda blob: blob.replace(b"p 61 3 3 2", b"p 61 3 2 2"),  # items_seen < total
        lambda blob: blob.replace(b"s 71 1", b"s 71 0"),  # zero secondary count
        lambda blob: blob.replace(b"n 4", b"n 0_4"),
        lambda blob: blob.replace(b"phi1 1/2", b"phi1 2/4"),  # unreduced fraction
        lambda blob: blob + b"end\n",  # bytes after the end marker
        lambda blob: blob.replace(b"phi1 1/2", b"phi1 1e-5000"),  # exponent form
    ],
)
def test_corrupt_snapshots_rejected(mutate):
    sketch = ChhSketch(ChhParams.from_raw("0.5", "0.5", 2, 2))
    sketch.consume([(b"a", b"p"), (b"a", b"q"), (b"b", b"p"), (b"a", b"p")])
    blob = sketch_to_bytes(sketch)
    bad = mutate(blob)
    assert bad != blob
    with pytest.raises(SnapshotFormatError):
        sketch_from_bytes(bad)


def test_invariant_violating_snapshot_rejected():
    sketch = ChhSketch(ChhParams.from_raw("0.5", "0.5", 2, 2))
    sketch.consume([(b"a", b"p")] * 4)
    blob = sketch_to_bytes(sketch)
    # inner total above the primary count must not load
    bad = blob.replace(b"s 70 4", b"s 70 9")
    assert bad != blob
    with pytest.raises(SnapshotFormatError):
        sketch_from_bytes(bad)


def test_uppercase_hex_rejected():
    sketch = ChhSketch(ChhParams.from_raw("0.5", "0.5", 2, 2))
    sketch.update(b"\xab", b"\xcd")
    blob = sketch_to_bytes(sketch)
    assert b"p ab 1 1 1\ns cd 1\n" in blob
    for bad in (blob.replace(b"p ab", b"p AB"), blob.replace(b"s cd", b"s Cd")):
        with pytest.raises(SnapshotFormatError):
            sketch_from_bytes(bad)


@st.composite
def mutated_snapshots(draw):
    sketch = ChhSketch(ChhParams.from_raw("0.5", "0.5", draw(st.integers(1, 3)), 2))
    sketch.consume(draw(st.lists(pair, max_size=12)))
    blob = sketch_to_bytes(sketch)
    at = draw(st.integers(0, len(blob)))
    kind = draw(st.sampled_from(("insert", "delete", "replace")))
    byte = bytes([draw(st.sampled_from(b"0123456789abcdefABCDEF -+_/\nnpsx\xff"))])
    if kind == "insert":
        return blob[:at] + byte + blob[at:]
    if kind == "delete":
        return blob[:at] + blob[at + 1:]
    return blob[:at] + byte + blob[at + 1:]


@settings(max_examples=400)
@given(mutated_snapshots())
def test_mutated_snapshot_rejected_or_resaved_identically(data):
    try:
        sketch = sketch_from_bytes(data)
    except SnapshotFormatError:
        return
    assert sketch_to_bytes(sketch) == data
