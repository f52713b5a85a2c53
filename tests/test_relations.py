import random

import pytest

from countcsp import (
    BlockDecomposition,
    CountMatrix,
    Instance,
    Partition,
    ReconstructionError,
    Relation,
    RelationalStructure,
    UnknownRelationError,
    block_decompose,
    is_rank_one_block,
    is_rectangular,
    pair_matrix,
    project,
    rank_one_identity_holds,
    reconstruct_rank_one,
    support_blocks,
    support_is_rectangular,
)
from countcsp.dichotomy import _PowerSearchContext
from countcsp.maltsev import encode
from helpers import fraction_rank, partition_from_groups, rank_one_block_oracle


def test_relation_dedups_and_sorts():
    r = Relation(2, [(1, 0), (0, 1), (1, 0)])
    assert r.tuples == ((0, 1), (1, 0))
    assert (1, 0) in r and (1, 1) not in r
    assert len(r) == 2


def test_relation_validation():
    with pytest.raises(ValueError):
        Relation(0, [()])
    with pytest.raises(ValueError):
        Relation(2, [(0, 1, 2)])
    with pytest.raises(ValueError):
        Relation(1, [(-1,)])
    with pytest.raises(ValueError):
        Relation(2, [(True, False)])


def test_project_orders_and_dedups():
    r = Relation(3, [(0, 1, 0), (0, 1, 1), (1, 0, 1)])
    assert project(r, (2, 0)).tuples == ((0, 0), (1, 0), (1, 1))
    assert project(r, (1,)).tuples == ((0,), (1,))


def test_block_decompose():
    r = Relation(2, [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)])
    blocks = block_decompose(r).blocks
    assert blocks == ((frozenset({0, 1}), frozenset({0, 1})), (frozenset({2}), frozenset({2})))


def test_block_functions_reject_incomplete_blocks():
    with pytest.raises(ValueError, match="complete blocks"):
        block_decompose(Relation(2, [(0, 0), (0, 1), (1, 1)]))
    with pytest.raises(ValueError, match="complete blocks"):
        support_blocks(_matrix([[1, 1], [0, 1]]))


def test_is_rectangular():
    good = Relation(2, [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)])
    bad = Relation(2, [(0, 0), (0, 1), (1, 0)])
    assert is_rectangular(good)
    assert not is_rectangular(bad)


def test_is_rectangular_left_arity():
    # ((a,b), c) grouping: pairs of first two coordinates against the third
    r = Relation(3, [(0, 0, 0), (0, 0, 1), (1, 1, 0), (1, 1, 1)])
    assert is_rectangular(r, left_arity=2)
    # ((0,0),0), ((0,0),1), ((1,1),0) present but ((1,1),1) missing
    r2 = Relation(3, [(0, 0, 0), (0, 0, 1), (1, 1, 0)])
    assert not is_rectangular(r2, left_arity=2)


def _matrix(data):
    rows = range(len(data))
    cols = range(len(data[0]))
    entries = {
        (r, c): data[r][c] for r in rows for c in cols if data[r][c]
    }
    return CountMatrix(rows, cols, entries)


def test_count_matrix_basics():
    m = _matrix([[2, 0], [0, 3]])
    assert m.get(0, 0) == 2 and m.get(0, 1) == 0
    assert m.total() == 5
    assert m.to_lists() == [[2, 0], [0, 3]]
    with pytest.raises(ValueError):
        CountMatrix([0], [0], {(0, 1): 1})
    with pytest.raises(ValueError):
        CountMatrix([0], [0], {(0, 0): -1})
    with pytest.raises(ValueError, match="entry must be an int"):
        CountMatrix([0], [0], {(0, 0): True})


def test_rank_one_block_examples():
    assert is_rank_one_block(_matrix([[2, 4], [1, 2]]))
    assert is_rank_one_block(_matrix([[2, 4, 0], [1, 2, 0], [0, 0, 7]]))
    assert not is_rank_one_block(_matrix([[2, 1], [1, 1]]))
    # support hole inside a connected component
    assert not is_rank_one_block(_matrix([[1, 1], [1, 0]]))
    # empty matrix is trivially fine
    assert is_rank_one_block(CountMatrix((), (), {}))


def test_identity_alone_is_blind_to_support_defects():
    hole = _matrix([[1, 1], [1, 0]])
    assert rank_one_identity_holds(hole)
    assert not support_is_rectangular(hole)
    assert not is_rank_one_block(hole)


def _random_matrix(rng):
    kind = rng.randrange(3)
    nr = rng.randint(1, 5)
    nc = rng.randint(1, 5)
    if kind == 0:
        data = [[rng.randint(0, 3) for _ in range(nc)] for _ in range(nr)]
    else:
        # plant a block structure from random rank-one blocks
        data = [[0] * nc for _ in range(nr)]
        rows = list(range(nr))
        cols = list(range(nc))
        rng.shuffle(rows)
        rng.shuffle(cols)
        while rows and cols:
            tr = rng.randint(1, len(rows))
            tc = rng.randint(1, len(cols))
            br, rows = rows[:tr], rows[tr:]
            bc, cols = cols[:tc], cols[tc:]
            rv = [rng.randint(1, 4) for _ in br]
            cv = [rng.randint(1, 4) for _ in bc]
            for a, r in enumerate(br):
                for b, c in enumerate(bc):
                    data[r][c] = rv[a] * cv[b]
        if kind == 2 and any(any(row) for row in data):
            # poke one defect into a planted matrix
            while True:
                r = rng.randrange(nr)
                c = rng.randrange(nc)
                if data[r][c]:
                    data[r][c] += rng.choice([-1, 1, 2])
                    data[r][c] = max(data[r][c], 0)
                    break
    return _matrix(data)


def test_rank_one_block_against_oracle_battery():
    rng = random.Random(424242)
    agree_fast = 0
    for _ in range(1000):
        m = _random_matrix(rng)
        expected = rank_one_block_oracle(m)
        assert is_rank_one_block(m) == expected
        combined = support_is_rectangular(m) and rank_one_identity_holds(m)
        assert combined == expected
        agree_fast += 1
    assert agree_fast == 1000


def test_reconstruct_rank_one_round_trip():
    rng = random.Random(7)
    for _ in range(200):
        m = _random_matrix(rng)
        if not is_rank_one_block(m) or not m.total():
            continue
        row_totals = {
            r: sum(m.get(r, c) for c in m.col_labels)
            for r in m.row_labels
            if any(m.get(r, c) for c in m.col_labels)
        }
        col_totals = {
            c: sum(m.get(r, c) for r in m.row_labels)
            for c in m.col_labels
            if any(m.get(r, c) for r in m.row_labels)
        }
        rebuilt = reconstruct_rank_one(support_blocks(m), row_totals, col_totals)
        for r in row_totals:
            for c in col_totals:
                assert rebuilt.get(r, c) == m.get(r, c)


def test_reconstruct_rejects_bad_margins():
    blocks = BlockDecomposition(((frozenset({0, 1}), frozenset({0, 1})),))
    with pytest.raises(ReconstructionError):
        reconstruct_rank_one(blocks, {0: 3, 1: 2}, {0: 3, 1: 3})
    with pytest.raises(ReconstructionError):
        # margins match but force a fractional entry
        reconstruct_rank_one(blocks, {0: 3, 1: 2}, {0: 3, 1: 2})


def test_reconstruct_requires_zero_totals_off_support():
    blocks = BlockDecomposition(((frozenset({0}), frozenset({0})),))
    with pytest.raises(ReconstructionError):
        reconstruct_rank_one(blocks, {0: 2, 1: 1}, {0: 2})
    m = reconstruct_rank_one(blocks, {0: 2, 1: 0}, {0: 2})
    assert m.get(0, 0) == 2


def test_reconstruct_names_a_block_label_with_no_total():
    # a raw KeyError before
    blocks = support_blocks(CountMatrix([0], [0], {(0, 0): 1}))
    with pytest.raises(ReconstructionError, match="row 0 has no total"):
        reconstruct_rank_one(blocks, {}, {0: 1})
    with pytest.raises(ReconstructionError, match="column 0 has no total"):
        reconstruct_rank_one(blocks, {0: 1}, {})


def test_partition():
    p = Partition.from_classes([{2, 1}, {0}])
    assert p.classes == (frozenset({0}), frozenset({1, 2}))
    assert p.representative(2) == 1
    with pytest.raises(ValueError):
        Partition.from_classes([{0, 1}, {1, 2}])
    q = partition_from_groups([{0, 1}, {1, 2}, {5}])
    assert q.classes == (frozenset({0, 1, 2}), frozenset({5}))


def test_structure_reserved_names_and_lookup():
    st = RelationalStructure(2, {"R": Relation(1, [(0,), (1,)])})
    assert st.relation("EQ").tuples == ((0, 0), (1, 1))
    assert st.relation("CONST_1").tuples == ((1,),)
    # one relation per constant per structure, as for EQ; a leading zero
    # still names the same element
    assert st.relation("CONST_1") is st.relation("CONST_1")
    assert st.relation("EQ") is st.relation("EQ")
    assert st.relation("CONST_01").tuples == ((1,),)
    assert st.relation("CONST_0") is not RelationalStructure(2).relation("CONST_0")
    with pytest.raises(KeyError):
        st.relation("CONST_5")
    with pytest.raises(KeyError):
        st.relation("MISSING")
    with pytest.raises(ValueError):
        RelationalStructure(2, {"EQ": Relation(1, [(0,)])})
    with pytest.raises(ValueError):
        RelationalStructure(2, {"CONST_0": Relation(1, [(0,)])})
    with pytest.raises(ValueError):
        RelationalStructure(2, {"R": Relation(1, [])})


@pytest.mark.parametrize("q", [2.0, "2", True, None])
def test_structure_rejects_a_domain_size_that_is_not_an_int(q):
    # 2.0 raised a raw TypeError from range
    with pytest.raises(ValueError, match="domain size must be an int"):
        RelationalStructure(q, {"R": Relation(1, [(0,), (1,)])})


@pytest.mark.parametrize("name", [5, None, ("R",), b"R"])
def test_structure_rejects_a_relation_name_that_is_not_a_str(name):
    # 5 raised a raw TypeError from indexing the name
    with pytest.raises(ValueError, match="bad relation name"):
        RelationalStructure(2, {name: Relation(1, [(0,)])})


R3 = Relation(3, [(0, 1, 0), (1, 0, 1), (1, 1, 1)])


@pytest.mark.parametrize(
    "make, error, match",
    [
        (lambda: pair_matrix(R3, "0", 1), ValueError, "^position i must be an int"),
        (lambda: pair_matrix(R3, True, 0), ValueError, "^position i must be an int"),
        (lambda: pair_matrix(R3, 0, 1.0), ValueError, "^position j must be an int"),
        (lambda: project(R3, ("0",)), ValueError, "^projection index must be an int"),
        (lambda: project(R3, (True,)), ValueError, "^projection index must be an int"),
        (lambda: is_rectangular(R3, "1"), ValueError, "^left arity must be an int"),
        (lambda: RelationalStructure(2).relation(5), UnknownRelationError, "5"),
        (lambda: Instance(3, [("R", 1)]), ValueError, "^scope 1 is not a sequence"),
    ],
    ids=[
        "pair_matrix-str", "pair_matrix-bool", "pair_matrix-float", "project-str",
        "project-bool", "is_rectangular-str", "relation-int-name", "instance-int-scope",
    ],
)
def test_positions_names_and_scopes_raise_typed_errors(make, error, match):
    # each raised a raw TypeError or AttributeError, or (a bool position)
    # silently read position 1
    with pytest.raises(error, match=match):
        make()


def test_structure_keeps_the_declared_domain():
    # elements 1 and 3 are in no relation and stay in the domain
    st = RelationalStructure(4, {"R": Relation(2, [(0, 2), (2, 0)])})
    assert st.domain_size == 4
    assert st.relation("R").tuples == ((0, 2), (2, 0))
    assert st.relation("EQ").tuples == ((0, 0), (1, 1), (2, 2), (3, 3))
    assert st.relation("CONST_3").tuples == ((3,),)
    # relations that use one element of two are accepted
    one = RelationalStructure(2, {"R": Relation(1, [(0,)])})
    assert one.domain_size == 2
    assert one.relation("CONST_1").tuples == ((1,),)


def test_resolve_checks_one_constraint_at_a_time():
    st = RelationalStructure(2, {"R": Relation(2, [(0, 1), (1, 0)])})
    rel = st.relation("R")
    assert st.resolve([("R", (0, 1)), ("EQ", (1, 1)), ("R", (2, 0))]) == [
        (rel, (0, 1)), (st.relation("EQ"), (1, 1)), (rel, (2, 0))
    ]
    with pytest.raises(ValueError, match="^scope length does not match relation arity"):
        st.resolve([("R", (0,)), ("NOPE", (0,))])
    with pytest.raises(UnknownRelationError):
        st.resolve([("NOPE", (0,)), ("R", (0,))])


def test_power_structure_encoding_and_membership():
    st = RelationalStructure(2, {"R": Relation(2, [(0, 1), (1, 0)])})
    ctx = _PowerSearchContext(st, 3)
    assert encode((1, 0, 1), 2) == 5
    assert ctx.digits[5] == (1, 0, 1)
    # (0,1) in each slice: elements 0b010=2 and 0b101=5
    through = {elems for _, elems in ctx.tuples_through(2)}
    assert (2, 5) in through
    assert (2, 4) not in through
    tuples = {elems for x in range(ctx.size) for _, elems in ctx.tuples_through(x)}
    assert len(tuples) == len(st.relation("R")) ** 3
    assert all(
        tuple(ctx.digits[x][d] for x in t) in st.relation("R")
        for t in tuples
        for d in range(3)
    )


def test_fraction_rank_helper():
    assert fraction_rank([[2, 4], [1, 2]]) == 1
    assert fraction_rank([[2, 1], [1, 1]]) == 2
    assert fraction_rank([[0, 0], [0, 0]]) == 0
