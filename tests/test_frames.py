import inspect
import itertools
import random
import sys

import pytest

from countcsp import (
    Instance,
    Relation,
    SectionCache,
    add_constraint,
    add_constraint_split,
    build_frame,
    closure_project,
    collapse_scope,
    dump,
    find_maltsev,
    fix_prefix,
    frame_from_rows,
    initial_frame,
    member,
    shrink_to_small,
    span,
)
from countcsp.fixtures import (
    constants_structure,
    diagonal_structure,
    random_instance,
    xor3_structure,
)
from countcsp.frames import _closure_tuples
from countcsp.maltsev import POWER_TABLE_MAX_CODES
from helpers import brute_solutions, naive_maltsev_closure

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


def test_closure_project_matches_naive_fixpoint():
    # Arity up to 6 reaches projections too wide for a power table (q=3,
    # five or more indices). The reference closes the projected rows, which
    # is the projection of the closure since phi acts coordinatewise; the
    # cubic fixpoint on whole 6-ary rows takes tens of seconds.
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


def test_closure_project_packed_path_matches_tuple_loop():
    rng = random.Random(5)
    for _ in range(300):
        op = MIN2 if rng.random() < 0.5 else OP3
        q = op.q
        arity = rng.randint(1, 6)
        rows = [
            tuple(rng.randrange(q) for _ in range(arity))
            for _ in range(rng.randint(1, 12))
        ]
        idx = [rng.randrange(arity) for _ in range(rng.randint(1, arity))]
        if q ** len(set(idx)) > POWER_TABLE_MAX_CODES:
            continue
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


def test_section_cache_of_another_frame_is_rejected():
    f = build_frame(XOR3, MIN2, Instance(3, [("XOR3", (0, 1, 2))]))
    pin = Relation(1, [(1,)])
    with pytest.raises(ValueError):
        add_constraint(f, MIN2, pin, (2,), sections=SectionCache(initial_frame(3, 2), MIN2))
    with pytest.raises(ValueError):
        add_constraint(f, MIN2, pin, (2,), sections=SectionCache(f, find_maltsev(XOR3)))
    shared = add_constraint(f, MIN2, pin, (2,), sections=SectionCache(f, MIN2))
    assert dump(shared) == dump(add_constraint(f, MIN2, pin, (2,)))


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
        direct = build_frame(st, op, inst, split=False)
        split = build_frame(st, op, inst, split=True)
        assert direct.is_empty() == split.is_empty()
        if not direct.is_empty():
            assert span(direct, op) == span(split, op)


def test_instance_validation():
    with pytest.raises(ValueError):
        Instance(2, [("R", ())])
    with pytest.raises(ValueError):
        Instance(2, [("R", (2,))])
    inst = Instance(3, [("R", (0, 0, 2))])
    assert inst.constrained_variables() == (0, 2)


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
