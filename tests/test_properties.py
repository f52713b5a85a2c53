"""Property-based checks of the algebraic primitives against brute force."""

import functools
import operator

import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from countcsp import (
    CountMatrix,
    Instance,
    Relation,
    RelationalStructure,
    SectionCache,
    add_constraint,
    build_frame,
    count,
    dump,
    find_maltsev,
    is_rank_one_block,
    oracle_count,
    partition_from_groups,
    project,
)
from countcsp.dichotomy import _PowerSearchContext
from countcsp.fixtures import (
    constants_structure,
    diagonal_structure,
    random_instance,
    xor3_structure,
)
from countcsp.frames import _fix_first, _pair_index
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


@given(st.integers(2, 3), st.integers(1, 3), st.integers(1, 3), st.data())
def test_packed_membership_matches_digitwise_check(q, arity, k, data):
    row = st.tuples(*[st.integers(0, q - 1)] * arity)
    rows = data.draw(st.lists(row, min_size=1, max_size=8))
    assume(len({v for t in rows for v in t}) >= 2)
    ctx = _PowerSearchContext(RelationalStructure(q, {"R": Relation(arity, rows)}), k)
    rel = ctx.rels[0]
    # one base tuple per digit, a member of R or not, read back as columns
    any_row = st.tuples(*[st.integers(0, ctx.q - 1)] * arity)
    per_digit = [data.draw(st.sampled_from(rel.tuples) | any_row) for _ in range(k)]
    image = [encode([t[m] for t in per_digit], ctx.q) for m in range(arity)]
    packed = functools.reduce(operator.and_, (ctx.masks[0][m][e] for m, e in enumerate(image)))
    digitwise = all(tuple(ctx.digits[e][d] for e in image) in rel for d in range(k))
    assert (packed.bit_count() == k) == digitwise


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


SECTION_LANGUAGES = [
    (s, find_maltsev(s))
    for s in (xor3_structure(), diagonal_structure(3), constants_structure())
]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, len(SECTION_LANGUAGES) - 1), st.integers(0, 2**32 - 1))
def test_shared_sections_equal_fresh_ones(k, seed):
    structure, phi = SECTION_LANGUAGES[k]
    inst = random_instance(structure, random.Random(seed), max_vars=5, max_constraints=4)
    frame = build_frame(structure, phi, inst)
    assume(frame.arity >= 2 and not frame.is_empty())
    # one index for every first-coordinate section, values outside the
    # projection included
    index = _pair_index(frame, phi)
    for a in range(structure.domain_size):
        assert dump(_fix_first(frame, phi, a, index)) == dump(_fix_first(frame, phi, a))
    # pinned frames drawn through one cache, which fills as they go
    shared = SectionCache(frame, phi)
    for j in range(frame.arity):
        for a in frame.projection(j):
            pin = Relation(1, [(a,)])
            got = add_constraint(frame, phi, pin, (j,), sections=shared)
            assert dump(got) == dump(add_constraint(frame, phi, pin, (j,)))
