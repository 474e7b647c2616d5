"""The sketch against an eager model written straight from the update rule.

The model keeps ``{x: [count, items_seen, {y: count}]}``, spells out the
snapshot layout itself and evaluates the report thresholds as `Fraction`s,
so any rewrite of the update path, the shed rounds or the report must
reproduce the model's state byte for byte and its report row for row.
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from chh import ChhParams, ChhSketch, sketch_from_bytes, sketch_to_bytes


class ModelSketch:
    def __init__(self, params):
        self.params = params
        self.n = 0
        self.rounds = 0
        self.table = {}

    def update(self, x, y):
        self.n += 1
        if x in self.table:
            entry = self.table[x]
            entry[0] += 1
            entry[1] += 1
            inner = entry[2]
            inner[y] = inner.get(y, 0) + 1
            if len(inner) > self.params.s2:
                # inner shed: every secondary count drops by one, zeros leave
                entry[2] = {s: c - 1 for s, c in inner.items() if c > 1}
            return
        self.table[x] = [1, 1, {y: 1}]
        if len(self.table) > self.params.s1:
            # outer shed: every primary count and its smallest inner key drop by one
            self.rounds += 1
            for entry in self.table.values():
                entry[0] -= 1
                inner = entry[2]
                if inner:
                    least = min(inner)
                    inner[least] -= 1
                    if inner[least] == 0:
                        del inner[least]
            self.table = {d: e for d, e in self.table.items() if e[0] > 0}

    def canonical_bytes(self):
        p = self.params
        lines = [b"chh-sketch v1"]
        for name in ("phi1", "phi2", "eps1", "eps2"):
            value = getattr(p, name)
            lines.append(b"%s %d/%d" % (name.encode(), value.numerator, value.denominator))
        lines += [b"s1 %d" % p.s1, b"s2 %d" % p.s2, b"n %d" % self.n]
        lines.append(b"primaries %d" % len(self.table))
        for d, (count, seen, inner) in sorted(self.table.items()):
            lines.append(b"p %s %d %d %d" % (d.hex().encode(), count, seen, len(inner)))
            for s, c in sorted(inner.items()):
                lines.append(b"s %s %d" % (s.hex().encode(), c))
        lines.append(b"end")
        return b"\n".join(lines) + b"\n"

    def estimate_primary(self, d):
        return self.table[d][0] if d in self.table else 0

    def estimate_pair(self, d, s):
        return self.table[d][2].get(s, 0) if d in self.table else 0

    def report_rows(self):
        p = self.params
        primary_floor = (p.phi1 - Fraction(1, p.s1)) * self.n
        rows = []
        for d, (count, _, inner) in sorted(self.table.items()):
            if count >= primary_floor:
                inner_floor = (p.phi2 - Fraction(1, p.s2)) * count - Fraction(self.n, p.s1)
                heavy = tuple((s, c) for s, c in sorted(inner.items()) if c >= inner_floor)
                rows.append((d, count, heavy))
        return rows


def report_rows(sketch):
    return [(p.key, p.est_count, p.secondaries) for p in sketch.report().primaries]


PRIMARY_KEYS = [b"", b"a", b"ab", b"b", b"c", b"d", b"\xff", b"e"]
SECONDARY_KEYS = [b"", b"p", b"pq", b"q", b"r", b"s", b"\x00", b"t"]
primary_keys = st.sampled_from(PRIMARY_KEYS)
secondary_keys = st.sampled_from(SECONDARY_KEYS)


@settings(max_examples=300)
@given(
    stream=st.lists(st.tuples(primary_keys, secondary_keys), max_size=60),
    s1=st.integers(1, 6),
    s2=st.integers(1, 6),
    cut=st.integers(0, 60),
)
def test_sketch_matches_eager_model_across_save_and_load(stream, s1, s2, cut):
    params = ChhParams.from_raw("1/2", "1/3", s1, s2)
    cut = min(cut, len(stream))
    model = ModelSketch(params)
    sketch = ChhSketch(params)
    for x, y in stream[:cut]:
        sketch.update(x, y)
        model.update(x, y)
        assert sketch_to_bytes(sketch) == model.canonical_bytes()
        assert sketch.outer_sweeps == model.rounds

    loaded = sketch_from_bytes(sketch_to_bytes(sketch))
    assert sketch_to_bytes(loaded) == model.canonical_bytes()
    assert loaded.outer_sweeps == model.rounds
    for x, y in stream[cut:]:
        sketch.update(x, y)
        loaded.update(x, y)
        model.update(x, y)
        expected = model.canonical_bytes()
        assert sketch_to_bytes(sketch) == expected
        assert sketch_to_bytes(loaded) == expected
        assert sketch.outer_sweeps == loaded.outer_sweeps == model.rounds


READS = ("estimates", "report", "bytes")


def check_reads(sketch, model, reads):
    # Every read but estimate_primary settles what it reads, so a checkpoint
    # makes a random subset of the reads, in this order: reading every
    # estimate_pair first would settle each entry before report() sees it.
    if "estimates" in reads:
        for d in PRIMARY_KEYS:
            assert sketch.estimate_primary(d) == model.estimate_primary(d)
        for d in PRIMARY_KEYS:
            for s in SECONDARY_KEYS:
                assert sketch.estimate_pair(d, s) == model.estimate_pair(d, s)
    if "report" in reads:
        assert report_rows(sketch) == model.report_rows()
    if "bytes" in reads:
        assert sketch_to_bytes(sketch) == model.canonical_bytes()


@settings(max_examples=300)
@given(
    stream=st.lists(st.tuples(primary_keys, secondary_keys), max_size=80),
    s1=st.integers(1, 6),
    s2=st.integers(1, 6),
    phi1=st.sampled_from(["1/6", "1/3", "1/2"]),
    data=st.data(),
)
def test_sketch_matches_eager_model_at_sparse_checkpoints(stream, s1, s2, phi1, data):
    # Outer rounds owe inner units until the next read, so units owed across
    # several rounds, hits and reads of other entries must land exactly as
    # the eager round would have applied them.
    checkpoints = data.draw(st.dictionaries(
        st.integers(1, max(len(stream), 1)),
        st.sets(st.sampled_from(READS), min_size=1),
        max_size=4,
    ))
    cut = data.draw(st.integers(0, len(stream)))
    final_reads = data.draw(st.sets(st.sampled_from(READS[:2]))) | {"bytes"}
    params = ChhParams.from_raw(phi1, "1/3", s1, s2)
    model = ModelSketch(params)
    sketches = [ChhSketch(params)]
    for i, (x, y) in enumerate(stream, 1):
        for sketch in sketches:
            sketch.update(x, y)
        model.update(x, y)
        for sketch in sketches:
            check_reads(sketch, model, checkpoints.get(i, ()))
        if i == cut:
            saved = sketch_to_bytes(sketches[0])
            assert saved == model.canonical_bytes()
            sketches.append(sketch_from_bytes(saved))
    for sketch in sketches:
        check_reads(sketch, model, final_reads)


@settings(max_examples=300)
@given(
    stream=st.lists(st.tuples(primary_keys, secondary_keys), max_size=40),
    s1=st.integers(1, 6),
    s2=st.integers(1, 6),
    phi1=st.sampled_from(["1/10", "1/4", "1/3", "1/2", "3/4"]),
    phi2=st.sampled_from(["1/10", "1/4", "1/3", "1/2", "3/4"]),
)
# Primary floors (phi1 - 1/s1) * n of 2 (integer), 7/4 (fraction), -2 (negative).
@example([(b"a", b"p")] * 8, 4, 4, "1/2", "1/2")
@example([(b"a", b"p")] * 4 + [(b"b", b"q")] * 3, 4, 4, "1/2", "1/2")
@example([(b"a", b"p"), (b"b", b"q")] * 4, 2, 2, "1/4", "1/4")
def test_report_thresholds_match_fraction_reference(stream, s1, s2, phi1, phi2):
    params = ChhParams.from_raw(phi1, phi2, s1, s2)
    model = ModelSketch(params)
    sketch = ChhSketch(params)
    for x, y in stream:
        sketch.update(x, y)
        model.update(x, y)
    assert report_rows(sketch) == model.report_rows()
