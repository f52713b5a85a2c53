import pytest

from countcsp import (
    CapExceededError,
    Instance,
    Relation,
    count,
    enumerate_solutions,
    find_maltsev,
    oracle_balance,
    oracle_congruence,
    oracle_congruence_pair,
    oracle_count,
    pair_matrix,
)
from countcsp.fixtures import rank_defect_structure, xor3_structure


def test_enumerate_solutions_xor3():
    st = xor3_structure()
    inst = Instance(3, [("XOR3", (0, 1, 2))])
    sols = enumerate_solutions(st, inst)
    assert sols.tuples == ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0))
    assert oracle_count(st, inst) == 4


def test_enumeration_cap():
    st = xor3_structure()
    inst = Instance(30, [("XOR3", (0, 1, 2))])
    with pytest.raises(CapExceededError):
        enumerate_solutions(st, inst, cap_bits=24)
    with pytest.raises(ValueError):
        enumerate_solutions(st, Instance(0, []))
    small = Instance(16, [("XOR3", (0, 1, 2))])
    assert oracle_count(st, small, cap_bits=16) == 4 * 2 ** 13


@pytest.mark.parametrize("cap", ["x", 2.5, True, None])
@pytest.mark.parametrize("n", [0, 3])
def test_a_cap_that_is_not_an_int_is_a_value_error(cap, n):
    # "x" raised a raw TypeError; 2.5 and True were taken as caps
    inst = Instance(n, [("XOR3", (0, 1, 2))] if n else [])
    with pytest.raises(ValueError, match="enumeration cap must be an int"):
        oracle_count(xor3_structure(), inst, cap_bits=cap)


def test_zero_variable_instance_has_one_assignment():
    st = xor3_structure()
    empty = Instance(0, [])
    assert count(st, find_maltsev(st), empty) == oracle_count(st, empty) == 1


def test_oracle_balance_split():
    rel = xor3_structure().relation("XOR3")
    m = oracle_balance(rel, (1, 1, 1))
    assert m.row_labels == ((0,), (1,))
    assert m.col_labels == ((0,), (1,))
    assert m.to_lists() == [[1, 1], [1, 1]]
    m2 = oracle_balance(rel, (2, 1, 0))
    assert m2.get((0, 1), (1,)) == 1
    with pytest.raises(ValueError):
        oracle_balance(rel, (2, 2, 0))


def test_pair_matrix_rank_defect():
    st = rank_defect_structure()
    m = pair_matrix(st.relation("R"), 0, 1)
    assert m.to_lists() == [[2, 1], [1, 1]]


def test_oracle_congruence():
    # position 1 of XOR3: both values extend the same prefixes
    rel = xor3_structure().relation("XOR3")
    p = oracle_congruence(rel, 1)
    assert p.classes == (frozenset({0, 1}),)
    p0 = oracle_congruence(rel, 0)
    assert p0.classes == (frozenset({0, 1}),)


def test_oracle_congruence_pair():
    rel = xor3_structure().relation("XOR3")
    cp = oracle_congruence_pair(rel, 1, 2)
    assert cp.i == 1 and cp.j == 2
    # fixing a length-2 prefix pins the parity bit: singleton classes
    assert cp.forward.classes == (frozenset({0}), frozenset({1}))
    assert cp.backward.classes == (frozenset({0}), frozenset({1}))
    # a free trailing coordinate merges the forward classes
    free = Relation(3, [(a, a, c) for a in (0, 1) for c in (0, 1)])
    cp2 = oracle_congruence_pair(free, 1, 2)
    assert cp2.forward.classes == (frozenset({0, 1}),)
    assert cp2.backward.classes == (frozenset({0}), frozenset({1}))
    with pytest.raises(ValueError):
        oracle_congruence_pair(rel, 2, 1)
