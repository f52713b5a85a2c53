import hashlib
import itertools
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from countcsp import (
    BudgetExhausted,
    Instance,
    Relation,
    RelationalStructure,
    SearchBudget,
    decide_strong_balance,
    enumerate_solutions,
    find_automorphism,
    patterns,
    refute_balance,
    verdict_to_text,
)
from countcsp.dichotomy import (
    DEFAULT_SWEEP_NODES,
    VERDICT_BALANCED,
    VERDICT_NOT_BALANCED,
    VERDICT_NOT_STRONGLY_RECTANGULAR,
    VERDICT_TIMEOUT,
    _AutomorphismPool,
    _domain_automorphisms,
    _join,
    _PowerSearchContext,
    default_refutation_formulas,
)
from countcsp.fixtures import (
    constants_structure,
    diagonal_structure,
    disequality_structure,
    even_parity4_structure,
    or_structure,
    rank_defect_structure,
    xor3_structure,
)

import helpers


def test_patterns():
    p = patterns(2, 0, 1, 0, 1)
    assert p.fixed_digits == (0, 0, 0, 1, 1, 1)
    assert p.source_digits == (0, 0, 1, 1, 1, 0)
    assert p.target_digits == (1, 1, 0, 0, 0, 1)
    assert (p.fixed, p.source, p.target) == (7, 14, 49)
    assert p.quadruple == (0, 1, 0, 1)
    with pytest.raises(ValueError):
        patterns(2, 0, 1, 0, 2)


def test_find_automorphism_swap():
    # the parity relation with an even number of ones survives the 0/1 swap
    st = even_parity4_structure()
    image = find_automorphism(st, 1, {0: 1})
    assert image == (1, 0)
    assert helpers.is_power_automorphism(st, 1, image)
    # an odd-parity relation does not
    assert find_automorphism(xor3_structure(), 1, {0: 1}) is None
    # constants pin each element in place
    assert find_automorphism(constants_structure(), 1, {0: 1}) is None


def test_find_automorphism_unconstrained():
    st = xor3_structure()
    image = find_automorphism(st, 2)
    assert image is not None
    assert sorted(image) == [0, 1, 2, 3]
    assert helpers.is_power_automorphism(st, 2, image)


def test_find_automorphism_argument_checks():
    st = xor3_structure()
    assert find_automorphism(st, 1, {0: 0, 1: 0}) is None
    with pytest.raises(ValueError):
        find_automorphism(st, 1, {0: 5})
    with pytest.raises(ValueError):
        find_automorphism(st, 0)


@pytest.mark.parametrize("k", [2.0, "2"])
def test_a_power_that_is_not_an_int_is_a_value_error(k):
    # 2.0 raised a raw TypeError
    with pytest.raises(ValueError, match="power must be an int"):
        find_automorphism(xor3_structure(), k)


def test_a_bool_power_is_a_value_error():
    # True ran as the first power
    with pytest.raises(ValueError, match="power must be an int, got True"):
        find_automorphism(xor3_structure(), True)


@pytest.mark.parametrize("fixes", [{"0": 1}, {0.0: 1}, {0: 1.0}, {True: 0}])
def test_a_fixed_element_that_is_not_an_int_is_a_value_error(fixes):
    # str and float elements raised raw TypeErrors, and True ran as 1
    with pytest.raises(ValueError, match="fixed element must be an int"):
        find_automorphism(xor3_structure(), 1, fixes)


@pytest.mark.parametrize("args", [(2, 0, 0, 0.5, 1), (2, 0, 0, True, 0), (2.0, 0, 0, 0, 1)])
def test_a_pattern_value_that_is_not_an_int_is_a_value_error(args):
    # these returned a PatternTriple with float or bool digits
    with pytest.raises(ValueError, match="must be an int"):
        patterns(*args)


def test_relation_free_structure():
    # nothing constrains a relation-free power: the search takes the
    # identity, all elements share one class, and every quadruple balances
    st = RelationalStructure(2, {})
    assert find_automorphism(st, 2) == (0, 1, 2, 3)
    assert find_automorphism(st, 2, {0: 3}) == (3, 0, 1, 2)
    v = decide_strong_balance(st)
    assert (v.kind, v.quadruple, v.quadruples_checked) == (VERDICT_BALANCED, None, 8)


def test_search_budget():
    b = SearchBudget(3)
    b.spend()
    b.spend()
    b.spend()
    with pytest.raises(BudgetExhausted):
        b.spend()
    assert b.used == 4
    with pytest.raises(BudgetExhausted):
        find_automorphism(xor3_structure(), 6, max_nodes=1)


@pytest.mark.parametrize("budget", ["5", True, False, 1.5, None])
def test_a_budget_that_is_not_an_int_is_a_value_error(budget):
    # "5" raised a raw TypeError, True ran with a budget of 1 and 1.5 was
    # accepted
    with pytest.raises(ValueError, match="node budget must be an int"):
        SearchBudget(budget)
    with pytest.raises(ValueError, match="node budget must be an int"):
        decide_strong_balance(xor3_structure(), max_nodes=budget)
    with pytest.raises(ValueError, match="node budget must be an int"):
        find_automorphism(xor3_structure(), 1, max_nodes=budget)


def test_negative_budget_is_a_value_error():
    with pytest.raises(ValueError, match="non-negative, got -5"):
        SearchBudget(-5)
    # rank_defect is decided before the sweep, yet its budget is checked too
    for st in (xor3_structure(), rank_defect_structure()):
        with pytest.raises(ValueError, match="non-negative, got -5"):
            decide_strong_balance(st, max_nodes=-5)
    with pytest.raises(ValueError):
        find_automorphism(xor3_structure(), 1, max_nodes=-1)
    v = decide_strong_balance(xor3_structure(), max_nodes=0)
    assert (v.kind, v.quadruple, v.quadruples_checked) == (VERDICT_TIMEOUT, (0, 0, 0, 1), 1)


def test_refute_balance_rank_defect():
    ref = refute_balance(rank_defect_structure())
    assert ref is not None
    assert ref.formula == "R(x1,x2,x3)"
    assert ref.instance == Instance(3, (("R", (0, 1, 2)),))
    assert ref.variables == (0, 1)
    assert ref.matrix.to_lists() == [[2, 1], [1, 1]]


def test_refute_balance_finds_nothing_on_balanced_languages():
    assert refute_balance(xor3_structure()) is None
    assert refute_balance(constants_structure()) is None


def test_decide_xor3_balanced():
    v = decide_strong_balance(xor3_structure())
    assert v.kind == VERDICT_BALANCED
    assert v.tractable
    assert v.maltsev is not None
    # q = 2: two choices each for a, b and the two ordered pairs c != d
    assert v.quadruples_checked == 8


def test_decide_constants_balanced():
    v = decide_strong_balance(constants_structure())
    assert v.kind == VERDICT_BALANCED
    assert v.tractable


def test_decide_not_strongly_rectangular():
    for st in (or_structure(), disequality_structure()):
        v = decide_strong_balance(st)
        assert v.kind == VERDICT_NOT_STRONGLY_RECTANGULAR
        assert not v.tractable
        assert v.maltsev is None
        assert v.rectangularity_witness is not None


def test_decide_rank_defect_not_balanced():
    v = decide_strong_balance(rank_defect_structure())
    assert v.kind == VERDICT_NOT_BALANCED
    assert not v.tractable
    assert v.maltsev is not None
    assert v.refutation is not None
    assert v.refutation.variables == (0, 1)


def test_decide_timeout():
    v = decide_strong_balance(xor3_structure(), max_nodes=1)
    assert v.kind == VERDICT_TIMEOUT
    assert v.quadruple == (0, 0, 0, 1)
    assert v.quadruples_checked == 1


def test_verdict_text_balanced():
    text = verdict_to_text(decide_strong_balance(xor3_structure()))
    lines = text.splitlines()
    assert lines[0] == "verdict=BALANCED"
    assert "maltsev=" in lines
    table = lines[lines.index("maltsev=") + 1:]
    assert len(table) == 8
    assert table[0] == "0 0 0 -> 0"
    assert table[-1] == "1 1 1 -> 1"


def test_verdict_text_witnesses():
    text = verdict_to_text(decide_strong_balance(rank_defect_structure()))
    assert text.splitlines()[0] == "verdict=NOT_BALANCED"
    assert "witness=formula R(x1,x2,x3) variables x1,x2 matrix [2,1;1,1]" in text
    text = verdict_to_text(decide_strong_balance(or_structure()))
    lines = text.splitlines()
    assert lines[0] == "verdict=NOT_STRONGLY_RECTANGULAR"
    assert lines[1].startswith("witness=relation OR triple ")
    text = verdict_to_text(decide_strong_balance(xor3_structure(), max_nodes=1))
    assert "witness=quadruple a=0 b=0 c=0 d=1" in text


def test_decide_diagonal3_balanced():
    v = decide_strong_balance(diagonal_structure(3))
    assert v.kind == VERDICT_BALANCED
    assert v.quadruples_checked == 54


@pytest.mark.parametrize(
    "make, kind",
    [
        (xor3_structure, VERDICT_BALANCED),
        (constants_structure, VERDICT_BALANCED),
        (or_structure, VERDICT_NOT_STRONGLY_RECTANGULAR),
        (rank_defect_structure, VERDICT_NOT_BALANCED),
    ],
)
def test_an_unused_declared_element_keeps_the_verdict(make, kind):
    # one more domain element, in no relation: the sweep covers it
    st = make()
    widened = RelationalStructure(st.domain_size + 1, st.relations)
    assert decide_strong_balance(widened).kind == kind


def _affine3_structure():
    """x + y + z = 0 (mod 3): affine, hence balanced, but its sweep needs
    far more nodes than the languages above."""
    triples = [t for t in itertools.product(range(3), repeat=3) if sum(t) % 3 == 0]
    return RelationalStructure(3, {"AFF3": Relation(3, triples)})


# (structure, max_nodes or None for the default) -> sha256 of the verdict's
# text, recorded while refute_balance still enumerated every assignment of
# each formula. xor3 and even_parity4 share a Mal'tsev table and a verdict.
VERDICT_DIGESTS = {
    "or": (or_structure, None,
           "097223858ad1e19245402880f21deccc77f8074ee0e64878c40034cbf489c348"),
    "disequality3": (lambda: disequality_structure(3), None,
                     "349e94d02c72fba853a7d186ee90653364ddb6abd6b319695322dbfcf7f02762"),
    "rank_defect": (rank_defect_structure, None,
                    "aec4f1aa8c6c42e17d3d9acb70e2159edfd408fcbbb894265acc54a2aec80262"),
    "constants": (constants_structure, None,
                  "e52ee658e36f367c038b40288a2ed4506e23a97fd0d844d17421fc8750c1677c"),
    "xor3": (xor3_structure, None,
             "9e7a523a02a9a62a4a7ce04a18b0f618ad86a71ff88ca50351e130f302b674c5"),
    "diagonal3": (lambda: diagonal_structure(3), None,
                  "f218cdb66c051516215068052d982c207036f0c62f3633d328f477eaa6c8835f"),
    "even_parity4": (even_parity4_structure, None,
                     "9e7a523a02a9a62a4a7ce04a18b0f618ad86a71ff88ca50351e130f302b674c5"),
    "aff3": (_affine3_structure, 1000,
             "0529a7c99f396f7ac712d82cd5ab2d4d76103020b994cff105573291ee070041"),
}


@pytest.mark.parametrize("name", sorted(VERDICT_DIGESTS))
def test_verdict_text_digests(name):
    make, max_nodes, digest = VERDICT_DIGESTS[name]
    kwargs = {} if max_nodes is None else {"max_nodes": max_nodes}
    text = verdict_to_text(decide_strong_balance(make(), **kwargs))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("name", sorted(VERDICT_DIGESTS))
def test_join_equals_enumeration_on_every_default_formula(name):
    structure = VERDICT_DIGESTS[name][0]()
    for _, inst in default_refutation_formulas(structure):
        assert _join(structure, inst) == enumerate_solutions(structure, inst)


def test_join_with_repeated_and_free_variables():
    st = xor3_structure()
    for inst, size in (
        (Instance(5, [("XOR3", (3, 1, 3)), ("XOR3", (1, 0, 3)), ("EQ", (4, 0))]), 4),
        (Instance(4, [("XOR3", (1, 1, 1))]), 8),
        (Instance(2, []), 4),
    ):
        joined = _join(st, inst)
        assert joined == enumerate_solutions(st, inst)
        assert len(joined) == size


def test_all_equal_arity9_is_balanced_in_seconds():
    # refute_balance used to enumerate each formula's assignments once per
    # variable pair, 2**17 of them per pair for the chained formulas: 86 s
    st = RelationalStructure(2, {"ALLEQ": Relation(9, [(0,) * 9, (1,) * 9])})
    start = time.perf_counter()
    assert decide_strong_balance(st).kind == VERDICT_BALANCED
    assert time.perf_counter() - start < 5


def _sweep(structure, max_nodes=DEFAULT_SWEEP_NODES):
    """decide_strong_balance's sweep with its results kept: per quadruple
    the pattern, the nodes spent and the image table, or "TIMEOUT" or
    None where the decision would stop."""
    ctx = _PowerSearchContext(structure, 6)
    q = structure.domain_size
    out = []
    for a, b, c, d in itertools.product(range(q), repeat=4):
        if c == d:
            continue
        pat = patterns(q, a, b, c, d)
        budget = SearchBudget(max_nodes)
        try:
            image = ctx.search({pat.fixed: pat.fixed, pat.source: pat.target}, budget)
        except BudgetExhausted:
            image = "TIMEOUT"
        out.append((pat, budget.used, image))
        if image in (None, "TIMEOUT"):
            break
    return ctx, out


def _digest(image):
    return hashlib.sha256(repr(image).encode()).hexdigest()[:16]


# Per quadruple: nodes spent and the first 16 hex digits of the SHA-256 of
# repr(image table), recorded with the eager search order and digit-wise
# membership checks that the lazy order and packed masks replaced; diag3's
# with the full-class candidate scan that digit narrowing replaced;
# even_parity4's with every tuple through an element checked, before the
# sweep kept one per symmetry orbit.
SWEEP_PINS = {
    "xor3": [
        ((0, 0, 0, 1), 64, "b686347032762a6e"),
        ((0, 0, 1, 0), 212, "98473c9b4e532f11"),
        ((0, 1, 0, 1), 64, "b686347032762a6e"),
        ((0, 1, 1, 0), 212, "98473c9b4e532f11"),
        ((1, 0, 0, 1), 156, "2991e9de471002a2"),
        ((1, 0, 1, 0), 138, "2991e9de471002a2"),
        ((1, 1, 0, 1), 156, "2991e9de471002a2"),
        ((1, 1, 1, 0), 353, "2991e9de471002a2"),
    ],
    "constants": [
        ((a, b, c, 1 - c), 64, "a9f8eb99f09cc636" if c == 0 else "1ae1244f25e03458")
        for a, b, c in itertools.product((0, 1), repeat=3)
    ],
    "diag3": [
        ((0, 0, 0, 1), 729, "86a10dd21620f3ab"),
        ((0, 0, 0, 2), 729, "f6b0cbe8c5a80f65"),
        ((0, 0, 1, 0), 729, "5924b8ce88bbff5f"),
        ((0, 0, 1, 2), 729, "64ce8227c9eb033b"),
        ((0, 0, 2, 0), 729, "5b5fc3770e57c129"),
        ((0, 0, 2, 1), 729, "0dd515157414bfea"),
        ((0, 1, 0, 1), 729, "86a10dd21620f3ab"),
        ((0, 1, 0, 2), 729, "f6b0cbe8c5a80f65"),
        ((0, 1, 1, 0), 729, "5924b8ce88bbff5f"),
        ((0, 1, 1, 2), 729, "64ce8227c9eb033b"),
        ((0, 1, 2, 0), 729, "5b5fc3770e57c129"),
        ((0, 1, 2, 1), 729, "0dd515157414bfea"),
        ((0, 2, 0, 1), 729, "86a10dd21620f3ab"),
        ((0, 2, 0, 2), 729, "f6b0cbe8c5a80f65"),
        ((0, 2, 1, 0), 729, "5924b8ce88bbff5f"),
        ((0, 2, 1, 2), 729, "64ce8227c9eb033b"),
        ((0, 2, 2, 0), 729, "5b5fc3770e57c129"),
        ((0, 2, 2, 1), 729, "0dd515157414bfea"),
        ((1, 0, 0, 1), 729, "86a10dd21620f3ab"),
        ((1, 0, 0, 2), 729, "46800e73f4810f82"),
        ((1, 0, 1, 0), 729, "5924b8ce88bbff5f"),
        ((1, 0, 1, 2), 729, "64ce8227c9eb033b"),
        ((1, 0, 2, 0), 729, "5730d6f5f06f1bf1"),
        ((1, 0, 2, 1), 729, "0dd515157414bfea"),
        ((1, 1, 0, 1), 729, "86a10dd21620f3ab"),
        ((1, 1, 0, 2), 729, "05fca4bf34c0a808"),
        ((1, 1, 1, 0), 729, "5924b8ce88bbff5f"),
        ((1, 1, 1, 2), 729, "64ce8227c9eb033b"),
        ((1, 1, 2, 0), 729, "04cdabd916af513a"),
        ((1, 1, 2, 1), 729, "0dd515157414bfea"),
        ((1, 2, 0, 1), 729, "86a10dd21620f3ab"),
        ((1, 2, 0, 2), 729, "4754ace4aa56176f"),
        ((1, 2, 1, 0), 729, "5924b8ce88bbff5f"),
        ((1, 2, 1, 2), 729, "64ce8227c9eb033b"),
        ((1, 2, 2, 0), 729, "0cf2a827608aa14f"),
        ((1, 2, 2, 1), 729, "0dd515157414bfea"),
        ((2, 0, 0, 1), 729, "86a10dd21620f3ab"),
        ((2, 0, 0, 2), 729, "f6b0cbe8c5a80f65"),
        ((2, 0, 1, 0), 729, "5924b8ce88bbff5f"),
        ((2, 0, 1, 2), 729, "64ce8227c9eb033b"),
        ((2, 0, 2, 0), 729, "5b5fc3770e57c129"),
        ((2, 0, 2, 1), 729, "0dd515157414bfea"),
        ((2, 1, 0, 1), 729, "86a10dd21620f3ab"),
        ((2, 1, 0, 2), 729, "f6b0cbe8c5a80f65"),
        ((2, 1, 1, 0), 729, "5924b8ce88bbff5f"),
        ((2, 1, 1, 2), 729, "64ce8227c9eb033b"),
        ((2, 1, 2, 0), 729, "5b5fc3770e57c129"),
        ((2, 1, 2, 1), 729, "0dd515157414bfea"),
        ((2, 2, 0, 1), 729, "86a10dd21620f3ab"),
        ((2, 2, 0, 2), 729, "f6b0cbe8c5a80f65"),
        ((2, 2, 1, 0), 729, "5924b8ce88bbff5f"),
        ((2, 2, 1, 2), 729, "64ce8227c9eb033b"),
        ((2, 2, 2, 0), 729, "5b5fc3770e57c129"),
        ((2, 2, 2, 1), 729, "0dd515157414bfea"),
    ],
    "even_parity4": [
        ((0, 0, 0, 1), 64, "b686347032762a6e"),
        ((0, 0, 1, 0), 212, "98473c9b4e532f11"),
        ((0, 1, 0, 1), 64, "b686347032762a6e"),
        ((0, 1, 1, 0), 212, "98473c9b4e532f11"),
        ((1, 0, 0, 1), 156, "2991e9de471002a2"),
        ((1, 0, 1, 0), 92, "2991e9de471002a2"),
        ((1, 1, 0, 1), 156, "2991e9de471002a2"),
        ((1, 1, 1, 0), 92, "2991e9de471002a2"),
    ],
}


SWEEP_STRUCTURES = {
    "xor3": xor3_structure,
    "constants": constants_structure,
    "diag3": lambda: diagonal_structure(3),
    "even_parity4": even_parity4_structure,
}


@pytest.mark.parametrize("name", sorted(SWEEP_PINS))
def test_sweep_steps_and_witnesses(name):
    structure = SWEEP_STRUCTURES[name]()
    _, sweep = _sweep(structure)
    assert [(p.quadruple, used, _digest(image)) for p, used, image in sweep] == SWEEP_PINS[name]
    for pat, _, image in sweep:
        assert image[pat.fixed] == pat.fixed
        assert image[pat.source] == pat.target
    # each distinct image once: even_parity4's 8 quadruples share 3
    for image in {_digest(image): image for _, _, image in sweep}.values():
        assert helpers.is_power_automorphism(structure, 6, image)


# Relations with fewer symmetries: x <= y has none, the cyclic shifts of
# (0, 1, 2) only rotations, which no transposition generates, and PAIRS
# the swaps of positions 0, 3 and of positions 1, 2.
FEWER_SYMMETRIES = {
    "leq": RelationalStructure(2, {"LEQ": Relation(2, [(0, 0), (0, 1), (1, 1)])}),
    "cyclic": RelationalStructure(3, {"CYC": Relation(3, [(0, 1, 2), (1, 2, 0), (2, 0, 1)])}),
    "pairs": RelationalStructure(
        2, {"PAIRS": Relation(4, [(0, 0, 1, 1), (1, 1, 0, 0), (0, 1, 0, 1), (1, 0, 1, 0)])}
    ),
}


@pytest.mark.parametrize(
    "name, classes",
    [
        ("xor3", [[0, 1, 2]]),
        ("aff3", [[0, 1, 2]]),
        ("even_parity4", [[0, 1, 2, 3]]),
        ("leq", [[0], [1]]),
        ("cyclic", [[0], [1], [2]]),
        ("pairs", [[0, 3], [1, 2]]),
    ],
)
def test_tuples_through_cover_every_tuple_by_symmetry(name, classes):
    structure = {
        "xor3": xor3_structure,
        "aff3": _affine3_structure,
        "even_parity4": even_parity4_structure,
    }.get(name, lambda: FEWER_SYMMETRIES[name])()
    ctx = _PowerSearchContext(structure, 6)
    (rel,) = ctx.rels
    assert ctx.classes == [classes]
    # positions share a class iff swapping them maps the relation onto itself
    for i, j in itertools.combinations(range(rel.arity), 2):
        swap = list(range(rel.arity))
        swap[i], swap[j] = j, i
        kept = all(tuple(t[m] for m in swap) in rel for t in rel)
        assert kept == any(i in c and j in c for c in classes)
    within = [
        pi
        for pi in itertools.permutations(range(rel.arity))
        if all(any(i in c and pi[i] in c for c in classes) for i in range(rel.arity))
    ]
    for x in (0, 1, ctx.size // 3, ctx.size - 2, ctx.size - 1):
        reps = ctx.tuples_through(x)
        assert len(set(reps)) == len(reps)
        assert all(x in elems for _, elems in reps)
        full = helpers.power_tuples_through(ctx.rels, ctx.q, ctx.k, x)
        expanded = {(ri, tuple(elems[i] for i in pi)) for ri, elems in reps for pi in within}
        assert expanded == full
        if len(within) == 1:
            assert set(reps) == full
        else:
            assert len(reps) < len(full)


def test_affine3_timeout_is_pinned_and_enumerates_only_reached_elements():
    ctx, sweep = _sweep(_affine3_structure(), max_nodes=1000)
    assert [(p.quadruple, used, image) for p, used, image in sweep] == [
        ((0, 0, 0, 1), 1001, "TIMEOUT")
    ]
    # The search reaches depth 45, so only 46 of the 729 elements have
    # their checks built. It keeps no tuples per element: the other fields
    # that fill lazily are keyed by a relation's positions, and every
    # remaining field is as the context was built.
    assert 0 < len(ctx._checks) < ctx.size // 10
    fresh = _PowerSearchContext(_affine3_structure(), 6)
    grown = ("_checks", "_digit_values", "_orbits")
    assert {n: v for n, v in vars(ctx).items() if n not in grown} == {
        n: v for n, v in vars(fresh).items() if n not in grown
    }


def test_affine_mod5_sweep_peak_rss_under_100mb():
    # the sweep used to keep every tuple through each reached element, 539 MB
    # at this budget; the child reports its verdict and peak RSS in KiB
    script = textwrap.dedent("""
        import itertools, resource
        from countcsp import Relation, RelationalStructure, decide_strong_balance
        rows = [t for t in itertools.product(range(5), repeat=3) if sum(t) % 5 == 0]
        v = decide_strong_balance(RelationalStructure(5, {"AFF": Relation(3, rows)}), 2000)
        print(v.kind, v.quadruple, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    """)
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    verdict, peak = proc.stdout.rsplit(" ", 1)
    assert verdict == "TIMEOUT (0, 0, 0, 1)"
    assert int(peak) < 100 * 1024


def _mod5_structure():
    """x + y = 0 (mod 5): its domain automorphisms are the 8 permutations
    that commute with negation."""
    return RelationalStructure(5, {"NEG": Relation(2, [(x, -x % 5) for x in range(5)])})


@pytest.mark.parametrize(
    "make, size",
    [
        (xor3_structure, 1),
        (constants_structure, 1),
        (even_parity4_structure, 2),
        (lambda: diagonal_structure(3), 6),
        (_affine3_structure, 6),
        (_mod5_structure, 8),
        (lambda: disequality_structure(3), 6),
        *((lambda s=s: s, None) for s in FEWER_SYMMETRIES.values()),
    ],
)
def test_domain_automorphisms_are_every_permutation_keeping_each_relation(make, size):
    structure = make()
    q = structure.domain_size
    brute = [
        sigma
        for sigma in itertools.permutations(range(q))
        if all(
            {tuple(sigma[v] for v in t) for t in rel} == set(rel)
            for rel in structure.relations.values()
        )
    ]
    got = _domain_automorphisms(structure)
    assert got == brute
    assert got[0] == tuple(range(q))
    assert size is None or len(got) == size


def _settlements(monkeypatch, structure):
    """decide_strong_balance's verdict, the maps its sweep searched for, in
    order, and per quadruple that a stored map settled, its pattern and
    settlement record."""
    settled = []
    pools = []
    settle = _AutomorphismPool.settle

    def recording(pool, pat):
        pools.append(pool)
        how = settle(pool, pat)
        if how is not None:
            settled.append((pat, how))
        return how

    monkeypatch.setattr(_AutomorphismPool, "settle", recording)
    verdict = decide_strong_balance(structure)
    return verdict, pools[-1].maps, settled


def _transported(q, maps, how):
    """tau F^e tau^-1 as an image table, rebuilt from a settlement record
    (map index, sigma, swap, inverse): F is the map's table, e is -1 with
    inverse, and tau applies sigma to every digit and then, with swap,
    exchanges coordinates (0,1,2) and (3,4,5)."""
    i, sigma, swap, inverse = how
    f = list(maps[i])
    if inverse:
        for x, y in enumerate(maps[i]):
            f[y] = x
    points = list(itertools.product(range(q), repeat=6))
    index = {digits: x for x, digits in enumerate(points)}
    tau = []
    for digits in points:
        image = tuple(sigma[v] for v in digits)
        tau.append(index[image[3:] + image[:3] if swap else image])
    tau_inv = [0] * len(tau)
    for x, y in enumerate(tau):
        tau_inv[y] = x
    return tuple(tau[f[tau_inv[x]]] for x in range(len(f)))


# language -> searches its sweep runs; the other quadruples are settled by
# maps in hand. Each map settles several quadruples on its own; without
# domain automorphisms diag3 needs 4 searches.
SEARCHES = {"xor3": 2, "constants": 1, "even_parity4": 1, "diag3": 1}


@pytest.mark.parametrize("name", sorted(SWEEP_STRUCTURES))
def test_every_transported_map_is_an_automorphism(monkeypatch, name):
    structure = SWEEP_STRUCTURES[name]()
    q = structure.domain_size
    verdict, maps, settled = _settlements(monkeypatch, structure)
    assert (verdict.kind, verdict.quadruples_checked) == (
        VERDICT_BALANCED, 8 if q == 2 else 54
    )
    assert len(maps) == SEARCHES[name]
    assert len(settled) == verdict.quadruples_checked - len(maps)
    # the maps searched for are the plain sweep's, at the quadruples that
    # no earlier map settles
    _, sweep = _sweep(structure)
    skipped = {pat.quadruple for pat, _ in settled}
    assert maps == [image for pat, _, image in sweep if pat.quadruple not in skipped]
    checked = set()
    for pat, how in settled:
        image = _transported(q, maps, how)
        assert image[pat.fixed] == pat.fixed, (pat.quadruple, how)
        assert image[pat.source] == pat.target, (pat.quadruple, how)
        if image not in checked:
            assert helpers.is_power_automorphism(structure, 6, image), (pat.quadruple, how)
            checked.add(image)
    # inverses settle quadruples everywhere, the coordinate swap on the
    # q = 2 parities, and on diag3 a 3-cycle, which is not its own inverse
    used = [how for _, how in settled]
    assert any(inverse for _, _, _, inverse in used)
    if name in ("xor3", "even_parity4"):
        assert any(swap for _, _, swap, _ in used)
    if name == "diag3":
        assert (1, 2, 0) in {sigma for _, sigma, _, _ in used}


@pytest.mark.parametrize("max_nodes", [0, 1, 63, 64, 200, 211, 352, 353])
def test_maps_in_hand_only_postpone_a_stop_or_settle_it(max_nodes):
    # skipping a quadruple that a stored map settles moves a TIMEOUT later
    # or makes it BALANCED; a stop is never earlier than the plain sweep's
    structure = xor3_structure()
    _, sweep = _sweep(structure, max_nodes)
    plain, _, image = sweep[-1]
    stopped = image in (None, "TIMEOUT")
    v = decide_strong_balance(structure, max_nodes=max_nodes)
    if v.kind == VERDICT_BALANCED:
        assert not stopped or image == "TIMEOUT"
        assert v.quadruples_checked == 8
    else:
        assert stopped
        assert v.quadruples_checked >= len(sweep)
        order = [t for t in itertools.product((0, 1), repeat=4) if t[2] != t[3]]
        assert order.index(v.quadruple) == v.quadruples_checked - 1
        if image is None:
            assert (v.kind, v.quadruple) == (VERDICT_NOT_BALANCED, plain.quadruple)
        else:
            assert v.kind == VERDICT_TIMEOUT
    # the first quadruple is always searched; the second search, at
    # (1, 1, 0, 1), needs 156 nodes
    assert (v.kind, v.quadruple, v.quadruples_checked) == (
        (VERDICT_TIMEOUT, (0, 0, 0, 1), 1) if max_nodes < 64
        else (VERDICT_TIMEOUT, (1, 1, 0, 1), 7) if max_nodes < 156
        else (VERDICT_BALANCED, None, 8)
    )


def test_mod5_is_balanced_in_three_searches(monkeypatch):
    # the plain sweep searches all 500 quadruples, about 2 s each
    start = time.perf_counter()
    verdict, maps, settled = _settlements(monkeypatch, _mod5_structure())
    assert time.perf_counter() - start < 60
    assert (verdict.kind, verdict.quadruples_checked) == (VERDICT_BALANCED, 500)
    assert (len(maps), len(settled)) == (3, 497)
