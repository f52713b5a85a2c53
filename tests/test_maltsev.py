import itertools
import random

import pytest

from countcsp import (
    MaltsevOp,
    Relation,
    RelationalStructure,
    apply,
    enumerate_maltsev,
    find_maltsev,
    find_maltsev_with_certificate,
    free_entries,
    preserves,
)
from countcsp.fixtures import (
    diagonal_structure,
    disequality_structure,
    or_structure,
    rank_defect_structure,
    xor3_structure,
)
from countcsp.maltsev import POWER_TABLE_MAX_CODES, encode


def minority_table():
    return tuple((x + y + z) % 2 for x in (0, 1) for y in (0, 1) for z in (0, 1))


def test_free_entries_count_and_order():
    fe2 = free_entries(2)
    assert fe2 == [(0, 1, 0), (1, 0, 1)]
    assert len(free_entries(3)) == 3 * 2 * 2
    assert len(free_entries(5)) == 5 * 4 * 4


def test_op_validates_identities():
    op = MaltsevOp(2, minority_table())
    assert op(0, 1, 1) == 0 and op(1, 1, 0) == 0 and op(0, 0, 1) == 1
    bad = list(minority_table())
    bad[0] = 1  # breaks op(0,0,0) == 0
    with pytest.raises(ValueError):
        MaltsevOp(2, tuple(bad))
    with pytest.raises(ValueError):
        MaltsevOp(2, minority_table()[:-1])


def test_apply_is_coordinatewise():
    op = MaltsevOp(2, minority_table())
    assert apply(op, (0, 0, 1), (0, 1, 1), (1, 1, 1)) == (1, 0, 1)


def test_encode_is_big_endian_base_q():
    assert encode((), 3) == 0
    assert encode((1, 0, 2), 3) == 11
    assert encode([1, 1, 0, 1], 2) == 13


def test_power_table_matches_coordinatewise_apply():
    for op, kmax in ((MaltsevOp(2, minority_table()), 6), (find_maltsev(diagonal_structure()), 4)):
        q = op.q
        for k in range(1, kmax + 1):
            table = op.power_table(k)
            words = list(itertools.product(range(q), repeat=k))
            want = bytes(
                encode(apply(op, a, b, c), q) for a in words for b in words for c in words
            )
            assert table == want
            assert op.power_table(k) is table
        # past the byte tables: the same indexing, checked on random triples
        assert q ** (kmax + 1) > POWER_TABLE_MAX_CODES
        rng = random.Random(q)
        for k in (kmax + 1, kmax + 2):
            table = op.power_table(k)
            Q = q**k
            for _ in range(200):
                a, b, c = ([rng.randrange(q) for _ in range(k)] for _ in range(3))
                key = (encode(a, q) * Q + encode(b, q)) * Q + encode(c, q)
                assert table[key] == encode(apply(op, a, b, c), q)
            assert op.power_table(k) is table


def test_xor3_gets_minority():
    op = find_maltsev(xor3_structure())
    assert op is not None
    assert op.table == minority_table()
    assert preserves(op, xor3_structure().relation("XOR3"))


def test_find_matches_enumeration_on_xor3():
    ops = list(enumerate_maltsev(xor3_structure()))
    assert ops, "at least minority exists"
    assert min(op.table for op in ops) == find_maltsev(xor3_structure()).table


def test_or_has_no_maltsev_with_certificate():
    st = or_structure()
    op, viol = find_maltsev_with_certificate(st)
    assert op is None and viol is not None
    rel = st.relation(viol.relation_name)
    assert all(t in rel for t in viol.triple)
    assert viol.image not in rel
    # the image really is forced coordinatewise
    for pos in range(rel.arity):
        a, b, c = (t[pos] for t in viol.triple)
        assert a == b or b == c
        assert viol.image[pos] == (c if a == b else a)
    assert not list(enumerate_maltsev(st))


def test_disequality_has_no_maltsev():
    op, viol = find_maltsev_with_certificate(disequality_structure())
    assert op is None and viol is not None


def test_rank_defect_structure_is_maltsev_preserved():
    st = rank_defect_structure()
    op = find_maltsev(st)
    assert op is not None
    assert preserves(op, st.relation("R"))
    assert preserves(op, st.relation("EQ"))


def test_found_table_is_lexicographically_least():
    # q=2 language preserved by both boolean Mal'tsev completions
    st = RelationalStructure(2, {"D": Relation(2, [(0, 0), (1, 1)])})
    found = find_maltsev(st)
    ops = enumerate_maltsev(st)
    assert found.table == min(op.table for op in ops)


def test_preserves_counterexample():
    op = MaltsevOp(2, minority_table())
    assert not preserves(op, or_structure().relation("OR"))
