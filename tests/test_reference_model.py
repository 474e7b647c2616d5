"""The sketch against an eager model written straight from the update rule.

The model keeps ``{x: [count, items_seen, {y: count}]}`` and spells out the
snapshot layout itself, so any rewrite of the update path or the shed rounds
must reproduce the model's state byte for byte.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from chh import ChhParams, ChhSketch, sketch_from_bytes, sketch_to_bytes


class ModelSketch:
    def __init__(self, params):
        self.params = params
        self.n = 0
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


primary_keys = st.sampled_from([b"", b"a", b"ab", b"b", b"c", b"d", b"\xff", b"e"])
secondary_keys = st.sampled_from([b"", b"p", b"pq", b"q", b"r", b"s", b"\x00", b"t"])


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

    loaded = sketch_from_bytes(sketch_to_bytes(sketch))
    assert sketch_to_bytes(loaded) == model.canonical_bytes()
    for x, y in stream[cut:]:
        sketch.update(x, y)
        loaded.update(x, y)
        model.update(x, y)
        expected = model.canonical_bytes()
        assert sketch_to_bytes(sketch) == expected
        assert sketch_to_bytes(loaded) == expected
