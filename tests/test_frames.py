import hashlib
import inspect
import itertools
import random
import sys

import pytest

from countcsp import (
    Frame,
    Instance,
    MaltsevOp,
    Relation,
    RelationalStructure,
    SectionCache,
    add_constraint,
    build_frame,
    closure_project,
    collapse_scope,
    congruences,
    count,
    count_frame,
    dump,
    enumerate_solutions,
    find_maltsev,
    fix_prefix,
    initial_frame,
    member,
    shrink_to_small,
    span,
)
from countcsp import frames
from countcsp.fixtures import (
    constants_structure,
    diagonal_structure,
    random_instance,
    rank_defect_structure,
    xor3_structure,
)
from helpers import (
    _closure_tuples,
    brute_solutions,
    frame_from_rows,
    naive_maltsev_closure,
    split_frame,
)

XOR3 = xor3_structure()
MIN2 = find_maltsev(XOR3)
DIAG3 = diagonal_structure()
OP3 = find_maltsev(DIAG3)
CONSTS = constants_structure()


def test_initial_frame_shape():
    f = initial_frame(4, 3)
    assert len(f.rows) == 4 * 2 + 1
    assert f.rows[0] == (0, 0, 0, 0)
    assert f.projection(2) == (0, 1, 2)
    assert f.witness_row(2, 3) == (0, 0, 0, 2)
    assert span(f, OP3) == Relation(4, itertools.product(range(3), repeat=4))


def test_span_and_position_classes_raise_typed_errors():
    # the row (1, 1) reaches value 1 at position 1, which has no witness
    f = Frame(2, [(0, 0), (1, 1)], {(0, 0): 0, (1, 0): 1, (0, 1): 0})
    with pytest.raises(ValueError, match="no witness"):
        span(f, MIN2)
    for i in (-1, 2):
        with pytest.raises(ValueError, match="position out of range"):
            f.position_classes(i)


@pytest.mark.parametrize(
    "make, what",
    [
        (lambda: Relation(2.0, [(0, 1)]), "relation arity"),
        (lambda: Relation(True, [(0,)]), "relation arity"),
        (lambda: Relation("2", [(0, 1)]), "relation arity"),
        (lambda: Frame("2", [], {}), "arity"),
        (lambda: Frame(2.0, [], {}), "arity"),
        (lambda: Frame(True, [(0,)], {}), "arity"),
        (lambda: initial_frame(3.0, 2), "n"),
        (lambda: initial_frame(3, True), "q"),
        (lambda: closure_project([(0, 1)], MIN2, (0.5,)), "projection index"),
        (lambda: closure_project([(0, 1)], MIN2, ("1", 0)), "projection index"),
        (lambda: congruences(initial_frame(4, 2), MIN2, 1.0, 2), "position i"),
        (lambda: congruences(initial_frame(4, 2), MIN2, 1, "3"), "position j"),
    ],
)
def test_arities_sizes_and_positions_must_be_ints(make, what):
    # a float, a bool or a str where an int belongs is a ValueError naming
    # the argument, never a raw TypeError or a silently accepted value
    with pytest.raises(ValueError, match="^%s must be an int" % what):
        make()


def test_add_constraint_and_sections_reject_a_malformed_frame():
    # the same frame: its row (1, 1) reaches a value without a witness
    f = Frame(2, [(0, 0), (1, 1)], {(0, 0): 0, (1, 0): 1, (0, 1): 0})
    for relation, scope in (
        (Relation(1, [(0,), (1,)]), (0,)),
        (Relation(2, itertools.product(range(2), repeat=2)), (0, 1)),
    ):
        with pytest.raises(ValueError, match="frame invariants"):
            add_constraint(f, MIN2, relation, scope)
    with pytest.raises(ValueError, match="frame invariants"):
        fix_prefix(f, MIN2, (1,))
    # this one's row (1, 1) reaches 1 at position 0, the scope's last
    # position, where 1 has no witness: the pre-check up to there rejects it
    g = Frame(2, [(0, 0), (1, 1)], {(0, 0): 0, (0, 1): 0, (1, 1): 1})
    with pytest.raises(ValueError, match="frame invariants"):
        add_constraint(g, MIN2, Relation(1, [(0,), (1,)]), (0,))


def test_closure_project_matches_naive_fixpoint():
    # Arity up to 6 reaches projections onto up to six positions (729 at
    # q=3). The reference closes the projected rows, which is the
    # projection of the closure since phi acts coordinatewise; the cubic
    # fixpoint on whole 6-ary rows takes tens of seconds.
    rng = random.Random(11)
    for _ in range(40):
        op = MIN2 if rng.random() < 0.5 else OP3
        q = op.q
        arity = rng.randint(1, 6)
        rows = {
            tuple(rng.randrange(q) for _ in range(arity))
            for _ in range(rng.randint(1, 5))
        }
        idx = tuple(sorted(rng.sample(range(arity), rng.randint(1, arity))))
        got = {tuple(t[i] for i in idx) for t in closure_project(rows, op, idx)}
        assert got == naive_maltsev_closure({tuple(t[i] for i in idx) for t in rows}, op)


def _affine_op(q: int) -> MaltsevOp:
    return MaltsevOp(q, [(x - y + z) % q for x in range(q) for y in range(q) for z in range(q)])


# Projection spaces wider than this get at most two seed rows below.
WIDE = 81


def test_closure_project_matches_tuple_loop():
    # About a third of the cases have more than WIDE projections (q=3 at
    # five indices, q=7 at three, q=10 at two, q=83 at one). A closure's
    # time is cubic in its size, so those get at most two seed rows; two
    # distinct seeds under x - y + z mod 83 still span a line of 83
    # projections, so that operation gets a dozen cases of arity at most 3.
    rng = random.Random(5)
    rd7 = find_maltsev(rank_defect_structure())
    aff10 = _affine_op(10)
    cases = [rng.choice((MIN2, OP3, rd7, aff10)) for _ in range(300)]
    cases += [_affine_op(83)] * 12
    for op in cases:
        q = op.q
        arity = rng.randint(1, 3 if q > WIDE else 7)
        idx = rng.sample(range(arity), rng.randint(1, arity))
        idx.append(rng.choice(idx))
        wide = q ** len(set(idx)) > WIDE
        rows = [
            tuple(rng.randrange(q) for _ in range(arity))
            for _ in range(rng.randint(1, 2 if wide else 12))
        ]
        want = _closure_tuples(rows, op, tuple(sorted(set(idx))))
        assert closure_project(rows, op, idx) == want


def test_closure_project_rejects_indices_outside_the_rows():
    rows = [(0, 0, 0), (1, 1, 0)]
    for idx in ((5,), (-1,), (0, 3), (-2, 1)):
        with pytest.raises(ValueError):
            closure_project(rows, MIN2, idx)
    with pytest.raises(ValueError):
        closure_project(iter(rows), MIN2, (3,))
    assert closure_project(iter(rows), MIN2, (2,)) == [(0, 0, 0)]
    # a seed shorter than the first: index (0,) returned both rows, index
    # (1,) raised a raw IndexError
    for idx in ((0,), (1,)):
        with pytest.raises(ValueError, match="does not have length 2"):
            closure_project([(0, 1), (1,)], MIN2, idx)


def test_closure_project_rejects_seeds_outside_the_domain():
    # a value outside range(q) would read another entry of phi's table
    for rows in ([(0, 3), (1, 1)], [(1, 1), (0, 3)], [(0, 0), (-1, 1)]):
        with pytest.raises(ValueError, match=r"outside range\(2\)"):
            closure_project(rows, MIN2, (0, 1))


def test_closure_results_stay_inside_closure():
    rows = [(0, 0, 0), (1, 1, 0), (0, 1, 1)]
    full = naive_maltsev_closure(rows, MIN2)
    out = closure_project(rows, MIN2, (0, 2))
    assert set(out) <= full


def test_frame_from_rows_full_relation():
    sols = Relation(3, brute_solutions(XOR3, Instance(3, [("XOR3", (0, 1, 2))])))
    f = frame_from_rows(3, sols)
    assert span(f, MIN2) == sols
    for t in itertools.product(range(2), repeat=3):
        assert member(f, MIN2, t) == (t in sols)


def test_frame_from_rows_rejects_non_frame():
    # at the second position the shared-prefix classes chain {0,1} with
    # {1,2} but no single prefix covers {0,1,2}
    with pytest.raises(ValueError):
        frame_from_rows(2, [(0, 0), (0, 1), (1, 1), (1, 2)])


def test_empty_and_trivial_frames():
    f = frame_from_rows(2, [])
    assert f.is_empty()
    assert not member(f, MIN2, (0, 0))
    g = build_frame(XOR3, MIN2, Instance(2, [("EQ", (0, 1)), ("CONST_0", (0,)), ("CONST_1", (1,))]))
    assert g.is_empty()


def test_member_walks_the_witnesses():
    inst = Instance(4, [("XOR3", (0, 1, 2)), ("XOR3", (1, 2, 3))])
    f = build_frame(XOR3, MIN2, inst)
    sols = set(brute_solutions(XOR3, inst))
    for t in itertools.product(range(2), repeat=4):
        assert member(f, MIN2, t) == (t in sols)
    with pytest.raises(ValueError):
        member(f, MIN2, (0, 0))


def test_shrink_keeps_span_and_bounds_size():
    rng = random.Random(3)
    for _ in range(30):
        arity = rng.randint(1, 4)
        rows = {tuple(rng.randrange(2) for _ in range(arity)) for _ in range(rng.randint(1, 6))}
        full = Relation(arity, naive_maltsev_closure(rows, MIN2))
        f = frame_from_rows(arity, full)
        small = shrink_to_small(f, MIN2)
        assert len(small.rows) <= arity * (2 - 1) + 1
        assert span(small, MIN2) == full


def test_fix_prefix_sections():
    f = build_frame(XOR3, MIN2, Instance(3, [("XOR3", (0, 1, 2))]))
    sec = fix_prefix(f, MIN2, (1,))
    assert span(sec, MIN2) == Relation(2, [(0, 1), (1, 0)])
    sec2 = fix_prefix(f, MIN2, (1, 0))
    assert span(sec2, MIN2) == Relation(1, [(1,)])
    # pinning the whole tuple leaves the arity-0 witness of nonemptiness
    sec3 = fix_prefix(f, MIN2, (1, 0, 1))
    assert sec3.arity == 0 and not sec3.is_empty()
    # unreachable prefix gives the empty frame
    g = build_frame(CONSTS, find_maltsev(CONSTS), Instance(2, [("C0", (0,))]))
    assert fix_prefix(g, find_maltsev(CONSTS), (1,)).is_empty()


def test_section_cache_pins_long_prefixes_without_recursion():
    f = initial_frame(60, 2)
    prefix = (0, 1) * 22 + (1,)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 30)
    try:
        sec = SectionCache(f, MIN2).get(prefix)
    finally:
        sys.setrecursionlimit(limit)
    assert dump(sec) == dump(fix_prefix(f, MIN2, prefix))
    assert sec.arity == 15 and len(sec.rows) == 16


def _aff3_frame() -> Frame:
    aff3 = _affine_op(3)
    rel = Relation(3, [t for t in itertools.product(range(3), repeat=3) if sum(t) % 3 == 0])
    st = RelationalStructure(3, {"A": rel})
    return build_frame(st, aff3, Instance(3, [("A", (0, 1, 2))]))


@pytest.mark.parametrize(
    "call",
    [
        lambda f: member(f, MIN2, (1, 2, 0)),
        lambda f: span(f, MIN2),
        lambda f: add_constraint(f, MIN2, Relation(1, [(0,)]), (0,)),
        lambda f: fix_prefix(f, MIN2, (1,)),
        lambda f: count_frame(f, MIN2),
    ],
    ids=["member", "span", "add_constraint", "fix_prefix", "count_frame"],
)
def test_an_operation_over_too_few_elements_is_a_value_error(call):
    # xor3's operation on a frame of aff3: raw IndexErrors, and count_frame
    # blamed a witness row of its own making
    with pytest.raises(ValueError, match="operation is over 2 elements, the frame over at least 3"):
        call(_aff3_frame())


def test_add_constraint_rejects_a_scope_variable_that_is_not_an_int():
    # "a" and 0.0 raised raw TypeErrors, True ran as variable 1
    f = initial_frame(2, 2)
    for scope in (("a",), (0.0,), (True,)):
        with pytest.raises(ValueError, match="scope variable must be an int"):
            add_constraint(f, MIN2, Relation(1, [(0,)]), scope)


def test_collapse_scope():
    rel = XOR3.relation("XOR3")
    collapsed, scope = collapse_scope(rel, (1, 1, 0))
    assert scope == (1, 0)
    assert collapsed.tuples == ((0, 0), (1, 0))
    same, scope2 = collapse_scope(rel, (2, 0, 1))
    assert same is rel and scope2 == (2, 0, 1)
    empty, _ = collapse_scope(Relation(2, [(0, 1), (1, 0)]), (0, 0))
    assert len(empty) == 0


def test_add_constraint_examples():
    n = 3
    f = initial_frame(n, 2)
    g = add_constraint(f, MIN2, XOR3.relation("XOR3"), (0, 1, 2))
    sols = Relation(3, brute_solutions(XOR3, Instance(3, [("XOR3", (0, 1, 2))])))
    assert span(g, MIN2) == sols
    assert len(g.rows) <= n * (2 - 1) + 1
    # equality tautology leaves the relation unchanged
    h = add_constraint(g, MIN2, XOR3.relation("EQ"), (1, 1))
    assert span(h, MIN2) == sols
    # contradiction empties it
    g0 = add_constraint(g, MIN2, Relation(1, [(0,)]), (0,))
    g01 = add_constraint(g0, MIN2, Relation(1, [(1,)]), (0,))
    assert g01.is_empty()


def test_classes_before_the_scope_can_split():
    # XOR3(x0, x1, x2) and x2 = 0 force x1 = x0: a constraint on position 2
    # splits the shared-prefix class at position 1, before its scope
    f = build_frame(XOR3, MIN2, Instance(3, [("XOR3", (0, 1, 2))]))
    assert [sorted(c) for c in f.position_classes(1)] == [[0, 1]]
    g = add_constraint(f, MIN2, XOR3.relation("CONST_0"), (2,))
    assert [sorted(c) for c in g.position_classes(1)] == [[0], [1]]
    assert span(g, MIN2) == Relation(3, [(0, 0, 0), (1, 1, 0)])


def _closures_while(monkeypatch, run):
    """run() and the index tuple of every closure_project call it made."""
    closure = frames.closure_project
    seen = []

    def counted(rows, phi, indices):
        seen.append(tuple(indices))
        return closure(rows, phi, indices)

    with monkeypatch.context() as patch:
        patch.setattr(frames, "closure_project", counted)
        return run(), seen


def test_a_scope_past_the_walk_bound_is_closed(monkeypatch):
    # The EQ(k, m + k) links leave 2^m tuples on positions 0..2m-1, and the
    # level walk of that frame passes 2^3, the bound for XOR3(0, m - 1,
    # 2m - 1), at position 3; so that scope is closed instead, once, in
    # sections pinned on the frame itself: the harvest at the empty prefix
    # both decides emptiness and takes position 0.
    # x_{m-1} = x_{2m-1} makes the XOR3 force x0 = 0.
    m = 8
    links = build_frame(XOR3, MIN2, Instance(2 * m, [("EQ", (k, m + k)) for k in range(m)]))
    xor3 = XOR3.relation("XOR3")
    f, seen = _closures_while(
        monkeypatch, lambda: add_constraint(links, MIN2, xor3, (0, m - 1, 2 * m - 1))
    )
    assert seen.count((0, m - 1, 2 * m - 1)) == 1
    assert count_frame(f, MIN2) == 2 ** (m - 1)


def test_links_beside_a_scope_close_one_index_at_a_time(monkeypatch):
    # built as a whole, the EQ links are components apart from the XOR3
    # until it joins three of them, and the level walk of their product,
    # stopped after the scope's last position, stays within its bound, so
    # nothing is closed over more than one index
    for m in (8, 100):
        links = [("EQ", (k, m + k)) for k in range(m)]
        inst = Instance(2 * m, links + [("XOR3", (0, m - 1, 2 * m - 1))])
        f, seen = _closures_while(monkeypatch, lambda: build_frame(XOR3, MIN2, inst))
        assert all(len(idx) == 1 for idx in seen)
        assert count(XOR3, MIN2, inst) == 2 ** (m - 1)
        if m == 8:  # count_frame over 200 positions takes half a minute
            assert count_frame(f, MIN2) == 2 ** (m - 1)


def test_a_leading_gap_on_q7_is_its_own_component(monkeypatch):
    # EQ(0, 0) leaves position 0 free in front of R(2, 4, 3): built as one
    # frame, the level walk passed 7^3 there and one closure over
    # (0, 1, 2, 3) reached 2,401 codes in 15-19 s
    st = rank_defect_structure()
    op = find_maltsev(st)
    inst = Instance(5, [("EQ", (0, 0)), ("R", (2, 4, 3))])
    f, seen = _closures_while(monkeypatch, lambda: build_frame(st, op, inst))
    assert all(len(idx) == 1 for idx in seen)
    assert count_frame(f, op) == count(st, op, inst)


def test_random_q7_draws_close_no_three_indices(monkeypatch):
    # 60 seeded rank_defect draws: no closure covers 3 or more indices, and
    # small ones generate exactly the oracle's solutions
    st = rank_defect_structure()
    op = find_maltsev(st)
    rng = random.Random(4242)
    for _ in range(60):
        inst = random_instance(st, rng, max_vars=8, max_constraints=6)
        f, seen = _closures_while(monkeypatch, lambda: build_frame(st, op, inst))
        assert all(len(idx) < 3 for idx in seen), inst.constraints
        if inst.num_vars <= 5:
            sols = enumerate_solutions(st, inst)
            if sols:
                assert span(f, op) == Relation(inst.num_vars, sols)
            else:
                assert f.is_empty()


# sha256 of the XOR3 chain's frame dump at n = 10, 20, 40. Building
# connected components apart moved none (one component). They were
# re-recorded when add_constraint came to return the frame its witness walks
# built instead of re-basing it (shrink_to_small): still 3 rows each, other
# rows and witnesses, the same generated relation.
CHAIN_DUMPS = {
    10: "92bec0446a4e2a8de1c4e52356154f0b00bb0c547ce2ee2a7ca55b00670fd29a",
    20: "cfe76b2b3859abb789c5e90389d45fb9db14540245939262ee9734fcab6bbdd0",
    40: "9758ddd0087ce6bb815e0437df0a215842a73ab425b9549e7dea9089533d75ea",
}


@pytest.mark.parametrize("n", sorted(CHAIN_DUMPS))
def test_chain_frame_dumps_are_pinned(n):
    inst = Instance(n, [("XOR3", (i, i + 1, i + 2)) for i in range(n - 2)])
    text = dump(build_frame(XOR3, MIN2, inst))
    assert hashlib.sha256(text.encode()).hexdigest() == CHAIN_DUMPS[n]


def test_add_constraint_random_battery():
    rng = random.Random(2024)
    structures = [(XOR3, MIN2), (DIAG3, OP3), (CONSTS, find_maltsev(CONSTS))]
    for _ in range(60):
        st, op = structures[rng.randrange(3)]
        inst = random_instance(st, rng, max_vars=5, max_constraints=4)
        f = build_frame(st, op, inst)
        sols = brute_solutions(st, inst)
        if not sols:
            assert f.is_empty()
            continue
        assert span(f, op) == Relation(inst.num_vars, sols)
        assert len(f.rows) <= inst.num_vars * (st.domain_size - 1) + 1


def test_split_equals_direct():
    rng = random.Random(55)
    structures = [(XOR3, MIN2), (DIAG3, OP3)]
    for _ in range(40):
        st, op = structures[rng.randrange(2)]
        inst = random_instance(st, rng, max_vars=5, max_constraints=3)
        direct = build_frame(st, op, inst)
        split = split_frame(st, op, inst)
        assert direct.is_empty() == split.is_empty()
        if not direct.is_empty():
            assert span(direct, op) == span(split, op)


def _generated(frame, op, q):
    return [t for t in itertools.product(range(q), repeat=frame.arity) if member(frame, op, t)]


def test_build_frame_handles_any_variable_order():
    # Variables first appear out of order (5, 0, 3, ...), scopes repeat
    # variables, and 1 (middle) and 6 (end) stay untouched.
    cases = [
        (XOR3, MIN2, [("XOR3", (5, 0, 3)), ("XOR3", (4, 4, 0)), ("XOR3", (2, 5, 2))]),
        (XOR3, MIN2, [("XOR3", (5, 0, 3)), ("CONST_1", (3,)), ("EQ", (2, 4))]),
        (DIAG3, OP3, [("DIAG", (5, 0, 3)), ("EQ", (4, 4)), ("DIAG", (2, 2, 5))]),
        (DIAG3, OP3, [("CONST_2", (5,)), ("DIAG", (3, 0, 3)), ("EQ", (2, 4))]),
        # unsatisfiable
        (DIAG3, OP3, [("DIAG", (5, 0, 3)), ("CONST_1", (0,)), ("DIAG", (4, 3, 2)), ("CONST_2", (4,))]),
    ]
    for st, op, cons in cases:
        inst = Instance(7, cons)
        assert inst.constrained_variables() == (0, 2, 3, 4, 5)
        sols = brute_solutions(st, inst)
        for f in (build_frame(st, op, inst), split_frame(st, op, inst)):
            assert f.arity == 7
            assert f.is_empty() == (not sols)
            assert _generated(f, op, st.domain_size) == sols
            assert len(f.rows) <= 7 * (st.domain_size - 1) + 1


def test_build_frame_chooses_the_constraint_order(monkeypatch):
    # the same frame from the same closures: in file order the ascending
    # chain would pin sections far past each new constraint
    calls = [0]
    closure = frames.closure_project

    def counted(*args):
        calls[0] += 1
        return closure(*args)

    monkeypatch.setattr(frames, "closure_project", counted)
    n = 20
    chain = [("XOR3", (i, i + 1, i + 2)) for i in range(n - 2)]
    shuffled = list(chain)
    random.Random(3).shuffle(shuffled)
    runs = []
    for order in (chain, chain[::-1], shuffled):
        calls[0] = 0
        runs.append((dump(build_frame(XOR3, MIN2, Instance(n, order))), calls[0]))
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]


def test_build_frame_without_constraints_is_the_initial_frame():
    for st, op in ((XOR3, MIN2), (DIAG3, OP3)):
        for n in (1, 2, 5):
            f = build_frame(st, op, Instance(n, []))
            assert dump(f) == dump(initial_frame(n, st.domain_size))


def test_instance_validation():
    with pytest.raises(ValueError):
        Instance(2, [("R", ())])
    with pytest.raises(ValueError):
        Instance(2, [("R", (2,))])
    inst = Instance(3, [("R", (0, 0, 2))])
    assert inst.constrained_variables() == (0, 2)


@pytest.mark.parametrize(
    "num_vars, scope",
    [
        (3, ("a", 1, 2)),  # a comparison raised a raw TypeError
        (3, (0.5, 1, 2)),  # accepted, and count gave 4
        (3, (True, 1, 2)),  # accepted as variable 1
        (3, (-1, 1, 2)),
        (3.0, (0, 1, 2)),
        ("3", (0, 1, 2)),
        (True, (0, 0, 0)),
    ],
)
def test_instance_rejects_variables_that_are_not_nonnegative_ints(num_vars, scope):
    with pytest.raises(ValueError):
        Instance(num_vars, [("XOR3", scope)])


def test_dump_format():
    f = build_frame(XOR3, MIN2, Instance(3, [("XOR3", (0, 1, 2))]))
    text = dump(f)
    lines = text.splitlines()
    assert lines[0] == "frame n=3 rows=%d" % len(f.rows)
    assert lines[1] == " ".join(str(v) for v in f.rows[0])
    assert any(line.startswith("witness a=0 i=0 row=") for line in lines)
    # witness lines sorted by position then value
    wit = [line for line in lines if line.startswith("witness")]
    keys = []
    for line in wit:
        parts = dict(p.split("=") for p in line.split()[1:])
        keys.append((int(parts["i"]), int(parts["a"])))
    assert keys == sorted(keys)
