"""Property-based checks of the algebraic primitives against brute force."""

from hypothesis import given
from hypothesis import strategies as st

from countcsp import (
    CountMatrix,
    Instance,
    Relation,
    RelationalStructure,
    count,
    find_maltsev,
    is_rank_one_block,
    oracle_count,
    partition_from_groups,
    project,
)
from countcsp.dichotomy import _PowerSearchContext
from countcsp.fixtures import xor3_structure
from countcsp.maltsev import encode

import helpers


XOR3 = xor3_structure()
MIN2 = find_maltsev(XOR3)

rows3 = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)), max_size=12
)


@given(rows3)
def test_relation_tuples_are_sorted_and_unique(rows):
    assert list(Relation(3, rows).tuples) == sorted(set(rows))


@given(rows3, st.lists(st.sampled_from([0, 1, 2]), min_size=1, max_size=3))
def test_project_matches_comprehension(rows, idx):
    got = project(Relation(3, rows), idx)
    assert set(got.tuples) == {tuple(t[i] for i in idx) for t in rows}


@given(st.lists(st.frozensets(st.integers(0, 9)), max_size=8))
def test_partition_from_groups_covers_and_separates(groups):
    part = partition_from_groups(groups)
    ground = set().union(*groups) if groups else set()
    assert set(part.ground) == ground
    seen: set = set()
    for cls in part:
        assert not cls & seen
        seen |= cls
    assert seen == ground
    for g in groups:
        if g:
            assert len({part.representative(v) for v in g}) == 1


@st.composite
def count_matrices(draw):
    nr = draw(st.integers(1, 4))
    nc = draw(st.integers(1, 4))
    entries = {}
    for x in range(nr):
        for y in range(nc):
            v = draw(st.integers(0, 3))
            if v:
                entries[(x, y)] = v
    return CountMatrix(range(nr), range(nc), entries)


@given(count_matrices())
def test_rank_one_block_matches_definitional_oracle(m):
    assert is_rank_one_block(m) == helpers.rank_one_block_oracle(m)


@given(st.integers(2, 5), st.data())
def test_power_encoding_round_trip(q, data):
    k = data.draw(st.integers(1, 5))
    digits = tuple(data.draw(st.integers(0, q - 1)) for _ in range(k))
    x = encode(digits, q)
    assert 0 <= x < q ** k
    assert _PowerSearchContext(RelationalStructure(q), k).digits[x] == digits


@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
        min_size=1,
        max_size=3,
    )
)
def test_count_matches_brute_force_on_parity_instances(scopes):
    inst = Instance(4, [("XOR3", s) for s in scopes])
    assert count(XOR3, MIN2, inst, verify=True) == oracle_count(XOR3, inst)
