"""Property-based checks of the algebraic primitives against brute force."""

import functools
import itertools
import math
import operator

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from countcsp import (
    CountMatrix,
    Instance,
    Partition,
    Relation,
    RelationalStructure,
    SectionCache,
    add_constraint,
    build_frame,
    count,
    dump,
    enumerate_maltsev,
    find_maltsev,
    find_maltsev_with_certificate,
    is_rank_one_block,
    member,
    oracle_count,
    project,
    span,
)
from countcsp.counting import _congruences, _pair_support
from countcsp.dichotomy import BudgetExhausted, SearchBudget, _PowerSearchContext
from countcsp.fixtures import (
    constants_structure,
    diagonal_structure,
    disequality_structure,
    even_parity4_structure,
    random_instance,
    xor3_structure,
)
from countcsp.frames import _fix_first, _free, _lift, _product, _swap_in
from countcsp.maltsev import encode
from countcsp.relations import _bipartite_blocks

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
    part = helpers.partition_from_groups(groups)
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


@given(st.sets(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=14))
def test_blocks_by_column_set_match_the_union_find(pairs):
    got = _bipartite_blocks(pairs)
    want = helpers.union_find_blocks(pairs)
    complete = all(
        sum(1 for a, _ in pairs if a in rows) == len(rows) * len(cols) for rows, cols in want
    )
    assert (got is None) == (not complete)
    if complete:
        assert got == want


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


boolean_relations = st.integers(1, 3).flatmap(
    lambda k: st.lists(
        st.tuples(*[st.integers(0, 1)] * k), min_size=1, max_size=2**k
    ).map(lambda rows: Relation(k, rows))
)


@given(st.lists(boolean_relations, min_size=1, max_size=2))
def test_search_returns_the_least_enumerated_table(relations):
    structure = RelationalStructure(2, {"R%d" % i: r for i, r in enumerate(relations)})
    op, violation = find_maltsev_with_certificate(structure)
    tables = [o.table for o in enumerate_maltsev(structure)]
    if tables:
        assert violation is None and op.table == min(tables)
        return
    assert op is None
    if violation is not None:
        rel = structure.relation(violation.relation_name)
        assert all(t in rel for t in violation.triple)
        assert violation.image not in rel
        assert violation.image == tuple(
            c if a == b else a for a, b, c in zip(*violation.triple)
        )
        assert all(a == b or b == c for a, b, c in zip(*violation.triple))


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


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 3), st.integers(1, 3), st.integers(1, 3), st.data())
def test_digit_values_factorise_the_packed_check(q, arity, k, data):
    row = st.tuples(*[st.integers(0, q - 1)] * arity)
    rows = data.draw(st.lists(row, min_size=1, max_size=8))
    assume(len({v for t in rows for v in t}) >= 2)
    ctx = _PowerSearchContext(RelationalStructure(q, {"R": Relation(arity, rows)}), k)
    x = data.draw(st.integers(0, ctx.size - 1))
    assume(ctx.tuples_through(x))
    _, elems = data.draw(st.sampled_from(ctx.tuples_through(x)))
    check = ctx._check(x, 0, elems)
    # any images of the other elements, whether or not the image tuple is in R^k
    image = {e: data.draw(st.integers(0, ctx.size - 1)) for e in elems if e != x}
    for f in range(ctx.size):
        image[x] = f
        packed = functools.reduce(
            operator.and_, (ctx.masks[0][m][image[e]] for m, e in enumerate(elems))
        )
        if not check:  # a tuple of x alone that every image passes
            assert packed.bit_count() == ctx.k
            continue
        values, at_x, others = check
        acc = functools.reduce(operator.and_, (t[image[e]] for t, e in others), -1)
        narrowed = all(
            values[acc >> s & values.block] >> ctx.digits[f][d] & 1
            for d, s in enumerate(values.shifts)
        )
        assert (packed.bit_count() == ctx.k) == narrowed


class _FullScanContext(_PowerSearchContext):
    """The sweep's kernels before symmetry orbits, the join and digit
    narrowing: every tuple through x, enumerated by the reference helper,
    is tested for closedness afresh, the elements near x are read off the
    same tuples, and each candidate pool is x's whole occurrence class,
    scanned from its start, every member tested against every closed
    check."""

    def _tuples(self, x):
        return sorted(helpers.power_tuples_through(self.rels, self.q, self.k, x))

    def near(self, x):
        return sorted({e for _, elems in self._tuples(x) for e in elems} - {x})

    def closed_checks(self, x, placed):
        out = []
        for ri, elems in self._tuples(x):
            if placed[-1].issuperset(elems):
                tables = self.masks[ri]
                out.append((
                    None,
                    [tables[m] for m, e in enumerate(elems) if e == x],
                    [(tables[m], e) for m, e in enumerate(elems) if e != x],
                ))
        return out

    def candidates(self, x, checks, assignment, used, fixes, free):
        pool = (fixes[x],) if x in fixes else self.class_members[self.occ_id[x]]
        partial = []
        for _, at_x, others in checks:
            acc = -1
            for table, e in others:
                acc &= table[assignment[e]]
            partial.append((acc, at_x))
        for f in pool:
            if f in used or self.occ_id[f] != self.occ_id[x]:
                continue
            for acc, at_x in partial:
                for table in at_x:
                    acc &= table[f]
                if acc.bit_count() != self.k:
                    break
            else:
                yield f


def _search_outcome(ctx, fixes):
    budget = SearchBudget(300)
    try:
        image = ctx.search(fixes, budget)
    except BudgetExhausted:
        image = "TIMEOUT"
    return image, budget.used


def test_narrowed_pool_keeps_the_closed_checks_it_did_not_read():
    # the product pool replaces a class here with closed checks left unread;
    # both searches spend 167 nodes, and dropping those checks spends 173
    structure = disequality_structure(3)
    fixes = {15: 1, 22: 12}
    got = _search_outcome(_PowerSearchContext(structure, 3), fixes)
    assert got == _search_outcome(_FullScanContext(structure, 3), fixes)


# Searches whose class scans must not start past an unused member. In the
# first the search backtracks past an image that a deeper scan had skipped
# as used, and a scan that kept starting past it finds no automorphism. In
# the second a scan rejects the member right after the used ones, which a
# later scan of the class must still try.
CLASS_SCANS = [
    (
        RelationalStructure(2, {
            "ALL": Relation(2, [(0, 0), (0, 1), (1, 0), (1, 1)]),
            "NEQ": Relation(2, [(0, 1), (1, 0)]),
        }),
        3, {4: 7}, ((1, 2, 3, 0, 7, 4, 5, 6), 52),
    ),
    (
        RelationalStructure(3, {"R": Relation(2, [(0, 2), (1, 1), (1, 2), (2, 0), (2, 1)])}),
        3, {}, (tuple(range(27)), 27),
    ),
]


@pytest.mark.parametrize("structure, k, fixes, outcome", CLASS_SCANS)
def test_a_class_scan_starts_at_its_least_unused_member(structure, k, fixes, outcome):
    assert _search_outcome(_PowerSearchContext(structure, k), fixes) == outcome
    assert _search_outcome(_FullScanContext(structure, k), fixes) == outcome


def _draw_structure(q, data, min_relations=1):
    """1 or 2 drawn relations over q values (or none, with min_relations
    0), each closed under a drawn permutation of its positions, so that
    some have symmetries and the sweep enumerates orbits."""
    relations = {}
    for r in range(data.draw(st.integers(min_relations, 2))):
        arity = data.draw(st.integers(1, 3))
        row = st.tuples(*[st.integers(0, q - 1)] * arity)
        rows = set(data.draw(st.lists(row, min_size=1, max_size=9)))
        perm = data.draw(st.permutations(range(arity)))
        while True:
            grown = rows | {tuple(t[i] for i in perm) for t in rows}
            if grown == rows:
                break
            rows = grown
        relations["R%d" % r] = Relation(arity, rows)
    return RelationalStructure(q, relations)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 3), st.integers(1, 3), st.data())
def test_narrowed_pool_searches_as_the_full_class_scan(q, k, data):
    structure = _draw_structure(q, data)
    assume(len({v for rel in structure.relations.values() for t in rel for v in t}) >= 2)
    size = structure.domain_size ** k
    sources = data.draw(st.lists(st.integers(0, size - 1), max_size=3, unique=True))
    targets = data.draw(
        st.lists(st.integers(0, size - 1), min_size=len(sources), max_size=len(sources), unique=True)
    )
    fixes = dict(zip(sources, targets))
    got = _search_outcome(_PowerSearchContext(structure, k), fixes)
    assert got == _search_outcome(_FullScanContext(structure, k), fixes)
    if isinstance(got[0], tuple):
        assert helpers.is_power_automorphism(structure, k, got[0])


def _orbit_representative(elems, classes, p):
    """elems with its values sorted within each class, p's class without p."""
    out = list(elems)
    for c in classes:
        block = c[1:] if p in c else c
        for m, e in zip(block, sorted(elems[m] for m in block)):
            out[m] = e
    return tuple(out)


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 3), st.integers(1, 3), st.data())
def test_closed_checks_join_the_tuples_whose_elements_are_all_placed(q, k, data):
    structure = _draw_structure(q, data)
    ctx = _PowerSearchContext(structure, k)
    x = data.draw(st.integers(0, ctx.size - 1))
    placed = set(data.draw(st.lists(st.integers(0, ctx.size - 1), max_size=ctx.size))) | {x}
    full = helpers.power_tuples_through(ctx.rels, ctx.q, ctx.k, x)
    # every closed tuple with x at a class's least position, as its orbit's
    # representative; the other tuples through x are permutations of these
    expected = {
        (ri, _orbit_representative(elems, ctx.classes[ri], c[0]))
        for ri, elems in full
        if placed.issuperset(elems)
        for c in ctx.classes[ri]
        if elems[c[0]] == x
    }
    prefixes = [{e - e % w for e in placed} for w in ctx.weights]
    joined = ctx._representatives(x, prefixes)
    assert len(joined) == len(set(joined))
    assert set(joined) == expected
    ctx.closed_checks(x, prefixes)
    assert set(ctx._checks[x]) == expected
    assert ctx.near(x) == sorted({e for _, elems in full for e in elems} - {x})


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 3), st.integers(1, 3), st.data())
def test_masks_and_occurrence_classes_match_their_digitwise_forms(q, k, data):
    structure = _draw_structure(q, data, min_relations=0)
    ctx = _PowerSearchContext(structure, k)
    for ri, rel in enumerate(ctx.rels):
        for m in range(rel.arity):
            for e in range(ctx.size):
                assert ctx.masks[ri][m][e] == sum(
                    1 << d * len(rel) + i
                    for d, v in enumerate(ctx.digits[e])
                    for i, t in enumerate(rel)
                    if t[m] == v
                )
    # x and y share a class iff as many tuples pass through each at every
    # position of every relation; with no relations, one class holds all
    profile = [
        tuple(
            math.prod(sum(t[p] == v for t in rel) for v in ctx.digits[x])
            for rel in ctx.rels
            for p in range(rel.arity)
        )
        for x in range(ctx.size)
    ]
    for x, y in itertools.combinations(range(ctx.size), 2):
        assert (ctx.occ_id[x] == ctx.occ_id[y]) == (profile[x] == profile[y])
    assert sorted(e for members in ctx.class_members for e in members) == list(range(ctx.size))
    for cid, members in enumerate(ctx.class_members):
        assert members == [x for x in range(ctx.size) if ctx.occ_id[x] == cid]
    if not ctx.rels:
        assert ctx.class_members == [list(range(ctx.size))]


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
    # nested sections drawn through one cache, which fills as they go,
    # against sections pinned one coordinate at a time
    shared = SectionCache(frame, phi)
    for prefix in itertools.product(range(structure.domain_size), repeat=2):
        fresh = frame
        for a in prefix:
            fresh = _fix_first(fresh, phi, a)
        assert dump(shared.get(prefix)) == dump(fresh)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, len(SECTION_LANGUAGES) - 1), st.integers(0, 2**32 - 1))
def test_sections_generate_the_tuples_through_their_prefix(k, seed):
    structure, phi = SECTION_LANGUAGES[k]
    inst = random_instance(structure, random.Random(seed), max_vars=5, max_constraints=4)
    frame = build_frame(structure, phi, inst)
    solutions = span(frame, phi)
    sections = SectionCache(frame, phi)
    for m in range(1, min(2, frame.arity) + 1):
        for prefix in itertools.product(range(structure.domain_size), repeat=m):
            section = sections.get(prefix)
            rest = [t[m:] for t in solutions if t[:m] == prefix]
            if section.arity == 0:
                assert section.is_empty() == (not rest)
            else:
                assert span(section, phi) == Relation(section.arity, rest)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, len(SECTION_LANGUAGES) - 1), st.integers(0, 2**32 - 1), st.data())
def test_constraint_order_moves_no_count_or_relation(k, seed, data):
    # build_frame chooses the order in which constraints are added, so a
    # permuted instance has the same count and generated relation
    structure, phi = SECTION_LANGUAGES[k]
    q = structure.domain_size
    inst = random_instance(structure, random.Random(seed), max_vars=5, max_constraints=5)
    permuted = Instance(inst.num_vars, data.draw(st.permutations(inst.constraints)))
    assert count(structure, phi, permuted) == count(structure, phi, inst)
    assert helpers.relation_text(build_frame(structure, phi, permuted), phi, q) == (
        helpers.relation_text(build_frame(structure, phi, inst), phi, q)
    )


ORDER_LANGUAGES = [
    (s, find_maltsev(s))
    for s in (
        xor3_structure(),
        even_parity4_structure(),
        diagonal_structure(3),
        constants_structure(),
        RelationalStructure(3, {"AFF3": Relation(3, [
            t for t in itertools.product(range(3), repeat=3) if sum(t) % 3 == 0
        ])}),
        RelationalStructure(3, {"N": Relation(2, [(0, 0), (0, 1), (1, 2)])}),
    )
]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, len(ORDER_LANGUAGES) - 1), st.integers(0, 2**32 - 1), st.data())
def test_count_is_exact_in_any_constraint_order(k, seed, data):
    # which tails count drops, and when, follows the order the builder adds
    # the constraints in, and that order breaks ties by the instance's own
    structure, phi = ORDER_LANGUAGES[k]
    inst = random_instance(structure, random.Random(seed), max_vars=7, max_constraints=7)
    permuted = Instance(inst.num_vars, data.draw(st.permutations(inst.constraints)))
    assert count(structure, phi, permuted) == count(structure, phi, inst) == (
        oracle_count(structure, inst)
    )


# (factory, one structure that every example shares, its operation): the
# shared structures' relations keep step caches across examples
STEP_LANGUAGES = [
    (factory, shared, find_maltsev(shared))
    for factory in (
        xor3_structure, even_parity4_structure, lambda: diagonal_structure(3),
        constants_structure, helpers.aff3_structure, helpers.n_structure,
    )
    for shared in [factory()]
]


def _dump_count_and_trace(structure, phi, inst, build_first: bool) -> tuple:
    trace: list = []
    if build_first:
        text = dump(build_frame(structure, phi, inst))
    counted = count(structure, phi, inst, trace=trace)
    if not build_first:
        text = dump(build_frame(structure, phi, inst))
    return text, counted, helpers.trace_text(trace)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, len(STEP_LANGUAGES) - 1), st.integers(0, 2**32 - 1), st.booleans())
def test_a_shared_structure_builds_and_counts_as_a_new_one(k, seed, build_first):
    # a frame read off a step cache that earlier examples filled, against
    # the frame built on a new structure, whose relations keep no step yet
    factory, shared, phi = STEP_LANGUAGES[k]
    inst = random_instance(shared, random.Random(seed), max_vars=7, max_constraints=7)
    assert _dump_count_and_trace(shared, phi, inst, build_first) == (
        _dump_count_and_trace(factory(), phi, inst, build_first)
    )


@settings(max_examples=40, deadline=None)
@given(st.integers(0, len(SECTION_LANGUAGES) - 1), st.integers(0, 2**32 - 1), st.data())
def test_add_constraint_keeps_the_tuples_that_satisfy_it(k, seed, data):
    # scopes with gaps, so that both the level walk of the frame up to the
    # scope's last position and the closure it falls back to past q^|J|
    # tuples, in sections pinned on the frame itself, are reached
    structure, phi = SECTION_LANGUAGES[k]
    inst = random_instance(structure, random.Random(seed), max_vars=6, max_constraints=3)
    frame = build_frame(structure, phi, inst)
    assume(not frame.is_empty())
    name = data.draw(st.sampled_from(sorted(structure.relations) + ["EQ", "CONST_0"]))
    relation = structure.relation(name)
    positions = st.integers(0, frame.arity - 1)
    scope = data.draw(st.lists(positions, min_size=relation.arity, max_size=relation.arity))
    assume(len(set(scope)) <= max(scope))
    got = add_constraint(frame, phi, relation, scope)
    assert len(got.rows) <= frame.arity * (structure.domain_size - 1) + 1
    want = [t for t in span(frame, phi) if tuple(t[v] for v in scope) in relation]
    if want:
        assert span(got, phi) == Relation(frame.arity, want)
    else:
        assert got.is_empty()


@settings(max_examples=30, deadline=None)
@given(st.integers(0, len(SECTION_LANGUAGES) - 1), st.integers(0, 2**32 - 1))
def test_lift_extends_exactly_the_prefixes_of_the_relation(k, seed):
    structure, phi = SECTION_LANGUAGES[k]
    inst = random_instance(structure, random.Random(seed), max_vars=5, max_constraints=4)
    frame = build_frame(structure, phi, inst)
    solutions = span(frame, phi)
    for m in range(frame.arity + 1):
        heads = {t[:m] for t in solutions}
        for prefix in itertools.product(range(structure.domain_size), repeat=m):
            lifted = _lift(frame, phi, prefix)
            if prefix in heads:
                assert lifted in solutions and lifted[:m] == prefix
            else:
                assert lifted is None


def pinned_backward(frame, phi, i: int, j: int, support) -> Partition:
    """The backward congruence as congruences built it before reading the
    sections' pair closures: per support block, the shared-prefix classes at
    i of the frame pinned to the block's least column at j."""
    classes: list = []
    for _, cols in _bipartite_blocks(support).blocks:
        pinned = add_constraint(frame, phi, Relation(1, [(min(cols),)]), (j,))
        classes.extend(pinned.position_classes(i))
    return Partition.from_classes(classes)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, len(SECTION_LANGUAGES) - 1), st.integers(0, 2**32 - 1))
def test_classes_from_shared_sections(k, seed):
    structure, phi = SECTION_LANGUAGES[k]
    inst = random_instance(structure, random.Random(seed), max_vars=6, max_constraints=4)
    frame = build_frame(structure, phi, inst)
    assume(frame.arity >= 3 and not frame.is_empty())
    solutions = span(frame, phi)
    # one cache for every pair, in count_frame's order
    shared = SectionCache(frame, phi)
    for i in range(1, frame.arity - 1):
        for j in range(i + 1, frame.arity):
            support = _pair_support(frame, phi, i, j)
            got = _congruences(shared, i, j, support)
            want = helpers.oracle_congruence_pair(solutions, i, j)
            assert got.forward == want.forward
            assert got.backward == want.backward
            assert got.backward == pinned_backward(frame, phi, i, j, support)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, len(SECTION_LANGUAGES) - 1), st.data())
def test_product_generates_the_product_of_its_parts(k, data):
    # 1-3 instance frames and some free coordinates, their positions
    # interleaved at random, over at most 6 coordinates in all
    structure, phi = SECTION_LANGUAGES[k]
    q = structure.domain_size
    m = data.draw(st.integers(1, 3))
    frames_ = []
    for _ in range(m):
        seed = data.draw(st.integers(0, 2**32 - 1))
        inst = random_instance(structure, random.Random(seed), max_vars=6 // m, max_constraints=3)
        frames_.append(build_frame(structure, phi, inst))
    arities = [f.arity for f in frames_]
    arities += [1] * data.draw(st.integers(0, 6 - sum(arities)))
    n = sum(arities)
    order = data.draw(st.permutations(range(n)))
    parts, at = [], 0
    for j, a in enumerate(arities):
        f = frames_[j] if j < m else _free(q)
        parts.append((tuple(sorted(order[at:at + a])), f))
        at += a
    got = _product(parts, n)
    assert got.arity == n
    assert [t for t in itertools.product(range(q), repeat=n) if member(got, phi, t)] == [
        t
        for t in itertools.product(range(q), repeat=n)
        if all(member(f, phi, tuple(t[p] for p in pos)) for pos, f in parts)
    ]
    assert len(got.rows) <= n * (q - 1) + 1


@settings(max_examples=30, deadline=None)
@given(st.integers(0, len(SECTION_LANGUAGES) - 1), st.integers(0, 2**32 - 1))
def test_one_free_part_inserts_a_free_coordinate(k, seed):
    # the rows and witnesses, in order, of the slicing formula that inserted
    # a free coordinate at p before frames were joined by _product
    structure, phi = SECTION_LANGUAGES[k]
    q = structure.domain_size
    inst = random_instance(structure, random.Random(seed), max_vars=5, max_constraints=4)
    frame = build_frame(structure, phi, inst)
    assume(not frame.is_empty())
    n = frame.arity
    for p in range(n + 1):
        got = _product([(tuple(i + (i >= p) for i in range(n)), frame), ((p,), _free(q))], n + 1)
        rows = [r[:p] + (0,) + r[p:] for r in frame.rows]
        witness = [((a, i + (i >= p)), k) for (a, i), k in frame.witness.items()]
        witness.append(((0, p), 0))
        for a in range(1, q):
            witness.append(((a, p), len(rows)))
            rows.append(rows[0][:p] + (a,) + rows[0][p + 1:])
        assert list(got.rows) == rows
        assert list(got.witness.items()) == witness


@settings(max_examples=30, deadline=None)
@given(st.integers(0, len(SECTION_LANGUAGES) - 1), st.integers(0, 2**32 - 1))
def test_swap_in_keeps_the_prefix_and_puts_b_at_i(k, seed):
    structure, phi = SECTION_LANGUAGES[k]
    inst = random_instance(structure, random.Random(seed), max_vars=5, max_constraints=4)
    frame = build_frame(structure, phi, inst)
    assume(not frame.is_empty())
    groups = frame.prefix_groups()
    for t in frame.rows:
        for i in range(frame.arity):
            cls = next(c for c in groups[i].values() if t[i] in c)
            swapped = _swap_in(frame, phi, t, i, cls)
            assert list(swapped) == cls
            for b, u in swapped.items():
                assert member(frame, phi, u)
                assert u[:i] == t[:i] and u[i] == b
