import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqlabel import generators as gen
from eqlabel.geometry import signrank_graph
from eqlabel.labeling import (
    MAGIC,
    CostCeilingExceeded,
    LabelError,
    LabelFile,
    build_labels,
    decode_pair,
    measure,
    read_labels,
    _varint,
    serialize_operand,
    write_labels,
)
from eqlabel.protocol import BipartiteProtocol, Run, UnitDiskProtocol


def family_for(g, ceiling=32):
    return build_labels(BipartiteProtocol(g).run, g.n, ceiling=ceiling)


# operand serialization -------------------------------------------------------

operand_tokens = st.recursive(
    st.integers(-(2**80), 2**80) | st.text(max_size=6),
    lambda inner: st.tuples(inner) | st.tuples(inner, inner),
    max_leaves=5,
)


@given(operand_tokens, operand_tokens)
@settings(max_examples=150, deadline=None)
def test_serialization_separates_tokens(a, b):
    if a == b:
        assert serialize_operand(a) == serialize_operand(b)
    else:
        assert serialize_operand(a) != serialize_operand(b)


def test_serialization_type_tags():
    # 1 and "1" and (1,) must all differ
    toks = [1, "1", (1,), (("1",),), -1, 0]
    blobs = [serialize_operand(t) for t in toks]
    assert len(set(blobs)) == len(toks)


def test_serialization_rejects_bool_and_unknown():
    with pytest.raises(LabelError):
        serialize_operand(True)
    with pytest.raises(LabelError):
        serialize_operand(1.5)
    with pytest.raises(LabelError):
        serialize_operand((1, None))


# building and decoding -------------------------------------------------------


def test_round_trip_fixed_families():
    for g in (
        gen.path_graph(6),
        gen.cycle_graph(6),
        gen.random_equivalence(5, 5, 2, seed=3),
        gen.random_connected_bipartite(5, 4, 0.45, seed=6),
    ):
        p = BipartiteProtocol(g)
        fam = family_for(g)
        f = LabelFile(fam.data)
        for u in range(g.n):
            for w in range(g.n):
                assert decode_pair(f, u, w) == p.truth(u, w)


def test_round_trip_from_raw_bytes():
    g = gen.path_graph(5)
    fam = family_for(g)
    assert decode_pair(fam.data, 0, 3) == BipartiteProtocol(g).truth(0, 3)


def test_frozen_family_statistics():
    cases = (
        (gen.path_graph(12), 8, 5, 256),
        (gen.random_equivalence(8, 8, 4, seed=1), 2, 3, 64),
        (gen.cycle_graph(8), 11, 4, 320),
    )
    for g, cost, opw, maxbits in cases:
        fam = family_for(g)
        assert fam.cost == cost
        assert fam.op_width == opw
        assert fam.max_label_bits == maxbits


def test_build_is_deterministic():
    g = gen.random_connected_bipartite(5, 5, 0.4, seed=12)
    assert family_for(g).data == family_for(g).data


def test_label_bits_accounting():
    g = gen.path_graph(6)
    fam = family_for(g)
    assert fam.max_label_bits == max(fam.label_bits(v) for v in range(g.n))
    for v in range(g.n):
        assert fam.label_bits(v) >= 8 * len(fam._records[v])


def test_measure_matches_family_and_file():
    g = gen.cycle_graph(8)
    fam = family_for(g)
    mx, mean, per = measure(fam)
    assert mx == fam.max_label_bits == 320
    assert mean == sum(fam.label_bits(v) for v in range(g.n)) / g.n
    assert per == mx / 3  # ceil(log2 8)
    # the parsed file reports the same sizes as the builder
    assert measure(LabelFile(fam.data)) == (mx, mean, per)


def test_ceiling_enforced():
    g = gen.cycle_graph(8)  # worst cost 11
    with pytest.raises(CostCeilingExceeded) as e:
        family_for(g, ceiling=10)
    assert e.value.cost > e.value.ceiling == 10
    with pytest.raises(ValueError):
        family_for(g, ceiling=0)
    with pytest.raises(ValueError):
        family_for(g, ceiling=256)


def test_builder_rejects_two_faced_transcripts():
    # vertex 0 in role A announces a different first bit per peer: not a
    # one-sided transcript family
    def run_pair(u, w):
        return Run(1, (("bit", w % 2, "A", None, None),), 1)

    with pytest.raises(LabelError):
        build_labels(run_pair, 2)


def test_builder_names_a_deep_conflicting_prefix():
    # both runs agree on the first two transcript bits; vertex 0 in role B
    # then announces a bit that depends on its peer
    def run_pair(u, w):
        return Run(1, (
            ("bit", 1, "A", None, None),
            ("eq", 1, None, "k", "k"),
            ("bit", u % 2, "B", None, None),
        ), 1)

    with pytest.raises(LabelError) as e:
        build_labels(run_pair, 2)
    assert str(e.value) == (
        "vertex 0 role B acts two ways at prefix (1, 1): "
        "('bit', 0) vs ('bit', 1)"
    )


def _one_eq_run(toks):
    # vertex v always supplies toks[v]: one equality, then the output
    def run_pair(u, w):
        a, b = toks[u], toks[w]
        return Run(1, (("eq", 1 if a == b else 0, None, a, b),), 1)

    return run_pair


class _Mimic:
    """Rejected by the serializer, but equal to and printed like ("a", 1)."""

    def __eq__(self, other):
        return other == ("a", 1)

    def __hash__(self):
        return hash(("a", 1))

    def __repr__(self):
        return repr(("a", 1))


def test_operand_memo_is_type_exact():
    # the first token fills the memo; the second is equal to it but of
    # another type somewhere and must still be rejected
    for toks in (
        (("a", 1), ("a", True)),
        (("a", 1), ("a", 1.0)),
        ((("b", 1),), (("b", True),)),
        (("a", 1), _Mimic()),
    ):
        with pytest.raises(LabelError):
            build_labels(_one_eq_run(toks), 2)


def test_operand_memo_serializes_int_subclasses_as_ints():
    class Small(int):
        pass

    plain = build_labels(_one_eq_run((("a", 1), ("a", 2))), 2)
    sub = build_labels(_one_eq_run((("a", Small(1)), ("a", 2))), 2)
    assert sub.data == plain.data


def test_builder_rejects_non_bit_event_values():
    def run_pair(u, w):
        return Run(1, (("eq", 2, None, "k", "k"),), 1)

    with pytest.raises(LabelError):
        build_labels(run_pair, 1)


def test_empty_family():
    fam = build_labels(BipartiteProtocol(gen.path_graph(2)).run, 0)
    assert fam.n == 0
    assert fam.max_label_bits == 0
    assert LabelFile(fam.data).n == 0


# sha256 of the label file image, computed with the compiler that stored
# every transcript prefix as a tuple (the "udg" entry re-pinned for the
# axis-scan unit-disk protocol); the file format must not drift
FROZEN_IMAGES = {
    "cycle": "55281f8db431019d528669d4973d3c6fae5328c263129b575699006b673c2423",
    "connected": "21b5969984a01d99b23a92f0350a7b7a1fad57de97ca5bcf650b1fd43eda9dc4",
    "udg": "0917318f6038257dbca81ec0880fd8f7da668a69f216059d0a65b4c5e4eed27e",
    "signrank3": "50a2ea9223e2e6098f3ddc35b694bcfa8d362b05ba779ef7b9e720f9130a4789",
}


def test_frozen_label_images():
    r = gen.random_udg(20, box=5, radius=2, seed=11)
    families = {
        "cycle": family_for(gen.cycle_graph(8), ceiling=255),
        "connected": family_for(
            gen.random_connected_bipartite(6, 5, 0.4, seed=3), ceiling=255
        ),
        "udg": build_labels(UnitDiskProtocol(r).run, r.n, ceiling=255),
        "signrank3": family_for(
            signrank_graph(*gen.random_signrank3(8, 8, seed=4)), ceiling=255
        ),
    }
    for name, fam in families.items():
        assert hashlib.sha256(fam.data).hexdigest() == FROZEN_IMAGES[name], name


def test_signrank3_labels_round_trip():
    g = signrank_graph(*gen.random_signrank3(8, 8, seed=4))
    p = BipartiteProtocol(g)
    fam = family_for(g, ceiling=255)
    assert fam.cost == 18
    f = LabelFile(fam.data)
    for u in range(g.n):
        for w in range(g.n):
            assert decode_pair(f, u, w) == p.truth(u, w)


def test_udg_labels_round_trip():
    r = gen.random_udg(24, box=6, radius=2, seed=5)
    p = UnitDiskProtocol(r)
    fam = build_labels(p.run, r.n, ceiling=64)
    f = LabelFile(fam.data)
    for i in range(r.n):
        for j in range(r.n):
            assert decode_pair(f, i, j) == p.truth(i, j)


# file format ------------------------------------------------------------------


def test_header_and_file_round_trip(tmp_path):
    g = gen.cycle_graph(6)
    fam = family_for(g)
    path = tmp_path / "labels.bin"
    write_labels(fam, str(path))
    f = read_labels(str(path))
    assert f.n == g.n
    assert f.cost == fam.cost
    assert f.op_width == fam.op_width
    assert path.stat().st_size == len(fam.data)


def test_parse_rejects_corruption():
    g = gen.path_graph(4)
    data = family_for(g).data
    with pytest.raises(LabelError):
        LabelFile(b"WRONGMAG" + data[8:])
    bad_version = bytearray(data)
    bad_version[len(MAGIC)] = 9
    with pytest.raises(LabelError):
        LabelFile(bytes(bad_version))
    with pytest.raises(LabelError):
        LabelFile(data[:-1])  # truncated final record
    with pytest.raises(LabelError):
        LabelFile(data + b"\x00")  # trailing bytes
    for cut in range(len(MAGIC), 19):  # inside the 19-byte header
        with pytest.raises(LabelError):
            LabelFile(data[:cut])


def test_decode_rejects_vertices_out_of_range():
    data = family_for(gen.path_graph(4)).data
    for u, w in ((0, 99), (99, 0), (-1, 0), (0, -1), (4, 0), (0, 4)):
        with pytest.raises(LabelError):
            decode_pair(data, u, w)


def test_label_bits_rejects_vertices_out_of_range():
    fam = family_for(gen.path_graph(4))
    for labels in (fam, LabelFile(fam.data)):
        assert labels.label_bits(3) == fam.label_bits(3)
        for v in (-1, 4, 9):
            with pytest.raises(LabelError):
                labels.label_bits(v)


def test_parse_rejects_tree_deeper_than_cost():
    # a record of all ones nests blank nodes far below the header's cost
    rec = b"\xff" * 1000
    data = MAGIC + bytes((1,)) + (1).to_bytes(8, "little") + bytes((5, 1))
    data += _varint(len(rec)) + rec
    with pytest.raises(LabelError):
        decode_pair(data, 0, 0)


def test_decoder_is_standalone_over_bytes():
    # decoding must not need the graph: only bytes go in
    g = gen.random_connected_bipartite(4, 4, 0.5, seed=2)
    p = BipartiteProtocol(g)
    fam = family_for(g)
    blob = bytes(fam.data)
    del fam, g
    f = LabelFile(blob)
    for u in range(f.n):
        for w in range(f.n):
            assert decode_pair(f, u, w) in (-1, 1)
            assert decode_pair(f, u, w) == p.truth(u, w)


def label_image(cost, width, *records):
    """A label file image from records written as bit strings."""
    data = MAGIC + bytes((1,)) + len(records).to_bytes(8, "little")
    data += bytes((cost, width))
    for bits in records:
        bits += "0" * (-len(bits) % 8)
        rec = int(bits or "0", 2).to_bytes(len(bits) // 8, "big")
        data += _varint(len(rec)) + rec
    return data


def test_bit_collision_names_its_prefix():
    # role A: bit 1, then bit 0 under branch 1; role B: blank root, then
    # bit 1 under branch 1, where A also announces
    data = label_image(2, 1, "0010100000" + "110100100")
    with pytest.raises(LabelError) as e:
        decode_pair(data, 0, 0)
    assert str(e.value) == "bit collision at (1,)"


def test_parse_rejects_a_record_cut_inside_its_tree():
    # three nested blank nodes fill the byte; the third one's child-0 flag
    # lies past the record's end
    data = label_image(5, 1, "11111111")
    with pytest.raises(LabelError) as e:
        decode_pair(data, 0, 0)
    assert str(e.value) == "truncated record"


def test_decoder_fuzz_raises_only_label_errors():
    rng = random.Random(6)
    data = family_for(gen.cycle_graph(6)).data
    mutants = []
    for cost, width in ((0, 1), (2, 0), (0, 0)):  # header bytes 17 and 18
        m = bytearray(data)
        m[17], m[18] = cost, width
        mutants.append(m)
    for _ in range(400):
        m = bytearray(data)
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.2:
                i = rng.choice((17, 18))
            else:
                i = rng.randrange(19, len(m))  # the records
            m[i] ^= 1 << rng.randrange(8)
        mutants.append(m)
    for m in mutants:
        try:
            f = LabelFile(bytes(m))
        except LabelError:
            continue
        for u in range(f.n):
            for w in range(f.n):
                try:
                    assert decode_pair(f, u, w) in (-1, 1)
                except LabelError:
                    pass
    with pytest.raises(LabelError):
        LabelFile(bytes(mutants[1]))  # operand width 0
