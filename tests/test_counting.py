import random

import pytest

from countcsp import (
    Instance,
    NotBalancedError,
    SectionCache,
    UnknownRelationError,
    balance_matrix,
    build_frame,
    congruences,
    count,
    count_frame,
    empty_frame,
    enumerate_solutions,
    find_maltsev,
    initial_frame,
    oracle_congruence_pair,
    oracle_count,
)
from countcsp.fixtures import (
    constants_structure,
    diagonal_structure,
    random_instance,
    rank_defect_structure,
    xor3_structure,
)

import helpers


XOR3 = xor3_structure()
MIN2 = find_maltsev(XOR3)


def _fast_and_oracle(structure, instance):
    phi = find_maltsev(structure)
    return (
        lambda: count(structure, phi, instance),
        lambda: build_frame(structure, phi, instance),
        lambda: oracle_count(structure, instance),
    )


def test_scope_arity_mismatch_is_rejected_everywhere():
    for run in _fast_and_oracle(XOR3, Instance(2, [("XOR3", (0, 1))])):
        with pytest.raises(ValueError, match="scope length does not match relation arity"):
            run()


@pytest.mark.parametrize("name", ["NOPE", "CONST_2", "CONST_x", "CONST_\u00b2"])
def test_unknown_relation_name_is_a_typed_error(name):
    for run in _fast_and_oracle(XOR3, Instance(1, [(name, (0,))])):
        with pytest.raises(UnknownRelationError) as exc:
            run()
        assert isinstance(exc.value, KeyError)
        assert exc.value.args == (name,)
        assert str(exc.value) == "no relation named %r in the structure" % name


def test_count_single_constraint():
    inst = Instance(3, [("XOR3", (0, 1, 2))])
    assert count(XOR3, MIN2, inst) == 4


def test_count_chain():
    # x1+x2+x3 = 0 and x3+x4+x5 = 0 leave x1, x2, x4 free
    inst = Instance(5, [("XOR3", (0, 1, 2)), ("XOR3", (2, 3, 4))])
    assert count(XOR3, MIN2, inst) == 8
    assert oracle_count(XOR3, inst) == 8


def test_unconstrained_variables_factor_out():
    inst = Instance(30, [("XOR3", (4, 9, 17))])
    assert count(XOR3, MIN2, inst) == 4 * 2 ** 27
    assert count(XOR3, MIN2, Instance(6, [])) == 2 ** 6


def test_count_frame_edges():
    assert count_frame(empty_frame(3), MIN2) == 0
    assert count_frame(build_frame(XOR3, MIN2, Instance(0, [])), MIN2) == 1
    one = build_frame(XOR3, MIN2, Instance(1, [("CONST_1", (0,))]))
    assert count_frame(one, MIN2) == 1
    free = build_frame(XOR3, MIN2, Instance(1, []))
    assert count_frame(free, MIN2) == 2


def test_count_matches_oracle_battery():
    rng = random.Random(2024)
    structures = [xor3_structure(), constants_structure(), diagonal_structure()]
    ops = [find_maltsev(st) for st in structures]
    for st, phi in zip(structures, ops):
        for _ in range(40):
            inst = random_instance(st, rng, max_vars=6, max_constraints=5)
            assert count(st, phi, inst, verify=True) == oracle_count(st, inst)


def test_congruences_match_oracle():
    rng = random.Random(77)
    structures = [xor3_structure(), constants_structure(), diagonal_structure()]
    ops = [find_maltsev(st) for st in structures]
    checked = 0
    for st, phi in zip(structures, ops):
        for _ in range(15):
            inst = random_instance(st, rng, max_vars=5, max_constraints=4)
            f = build_frame(st, phi, inst)
            if f.is_empty() or f.arity < 3:
                continue
            sols = enumerate_solutions(st, inst)
            for i in range(1, f.arity - 1):
                for j in range(i + 1, f.arity):
                    got = congruences(f, phi, i, j)
                    want = oracle_congruence_pair(sols, i, j)
                    assert got.forward == want.forward, (inst, i, j)
                    assert got.backward == want.backward, (inst, i, j)
                    checked += 1
    assert checked > 50


def test_congruences_reject_a_cache_of_another_frame():
    f = build_frame(XOR3, MIN2, Instance(3, [("XOR3", (0, 1, 2))]))
    with pytest.raises(ValueError):
        congruences(f, MIN2, 1, 2, sections=SectionCache(initial_frame(3, 2), MIN2))
    got = congruences(f, MIN2, 1, 2, sections=SectionCache(f, MIN2))
    assert [sorted(c) for c in got.forward] == [[0], [1]]
    assert got == congruences(f, MIN2, 1, 2)


def test_trace_stages_match_brute_prefix_counts():
    inst = Instance(4, [("XOR3", (0, 1, 2)), ("XOR3", (1, 2, 3))])
    sols = enumerate_solutions(XOR3, inst)
    trace: list = []
    assert count(XOR3, MIN2, inst, verify=True, trace=trace) == len(sols)
    stages = {(s.i, s.j): s for s in trace}
    n = inst.num_vars
    assert set(stages) == {(i, j) for i in range(n - 1) for j in range(i + 1, n)}
    for (i, j), step in stages.items():
        assert step.counts.values == helpers.brute_prefix_counts(sols, i, j)
        if i == 0:
            assert step.quotient is None and step.congruence is None
        else:
            assert step.quotient is not None
    # quotient margins are the previous-stage counts at the representatives
    step = stages[(1, 3)]
    q = step.quotient
    prev_row = helpers.brute_prefix_counts(sols, 0, 1)
    prev_col = helpers.brute_prefix_counts(sols, 0, 3)
    for r in q.row_labels:
        assert sum(q.get(r, c) for c in q.col_labels) == prev_row[r]
    for c in q.col_labels:
        assert sum(q.get(r, c) for r in q.row_labels) == prev_col[c]


def test_rank_defect_straight_scope_counts():
    st = rank_defect_structure()
    phi = find_maltsev(st)
    inst = Instance(3, [("R", (0, 1, 2))])
    assert count(st, phi, inst) == 5


def test_rank_defect_permuted_scope_is_caught():
    # R(x2, x3, x1) puts the doubled column first; the (1, 2) quotient has
    # margins 3,2 / 3,2 over one block of total 5, so no integral
    # reconstruction exists
    st = rank_defect_structure()
    phi = find_maltsev(st)
    inst = Instance(3, [("R", (1, 2, 0))])
    assert oracle_count(st, inst) == 5
    with pytest.raises(NotBalancedError) as exc:
        count(st, phi, inst)
    assert "reconstruction failed at pair (1, 2)" in str(exc.value)


def test_balance_matrix():
    inst = Instance(3, [("R", (0, 1, 2))])
    m = balance_matrix(rank_defect_structure(), inst, 0, 1)
    assert m.to_lists() == [[2, 1], [1, 1]]
