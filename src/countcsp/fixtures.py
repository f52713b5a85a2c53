"""Built-in example languages and a seeded instance generator.

These power the command-line self-test and the demos, and give tests a
shared vocabulary of known-tractable and known-hard languages.
"""

from __future__ import annotations

import itertools
import random

from .relations import Instance, Relation, RelationalStructure


def xor3_structure() -> RelationalStructure:
    """Boolean even-parity triples; affine, hence balanced."""
    triples = [t for t in itertools.product((0, 1), repeat=3) if sum(t) % 2 == 0]
    return RelationalStructure(2, {"XOR3": Relation(3, triples)})


def even_parity4_structure() -> RelationalStructure:
    """Boolean even-parity quadruples; complement-closed, so the 0/1 swap
    is an automorphism."""
    quads = [t for t in itertools.product((0, 1), repeat=4) if sum(t) % 2 == 0]
    return RelationalStructure(2, {"XOR4": Relation(4, quads)})


def or_structure() -> RelationalStructure:
    """Boolean OR pairs; admits no Mal'tsev operation."""
    return RelationalStructure(2, {"OR": Relation(2, [(0, 1), (1, 0), (1, 1)])})


def constants_structure() -> RelationalStructure:
    """Boolean domain with both constants as explicit unary relations."""
    return RelationalStructure(
        2, {"C0": Relation(1, [(0,)]), "C1": Relation(1, [(1,)])}
    )


def diagonal_structure(q: int = 3) -> RelationalStructure:
    """The all-equal triple relation over a q-element domain; preserved by
    every bijection, and balanced."""
    return RelationalStructure(
        q, {"DIAG": Relation(3, [(a, a, a) for a in range(q)])}
    )


def disequality_structure(q: int = 3) -> RelationalStructure:
    """Binary disequality; for q >= 3 counting its instances counts proper
    q-colourings, a canonical hard case."""
    pairs = [(a, b) for a in range(q) for b in range(q) if a != b]
    return RelationalStructure(q, {"NEQ": Relation(2, pairs)})


def rank_defect_structure() -> RelationalStructure:
    """A seven-element ternary relation that is Mal'tsev-preserved but not
    balanced: its own pairwise count matrix over the first two coordinates
    is [[2,1],[1,1]], which no rank-one block matrix matches."""
    rows = [(0, 0, 2), (0, 1, 3), (1, 0, 4), (1, 1, 5), (0, 0, 6)]
    return RelationalStructure(7, {"R": Relation(3, rows)})


def random_instance(
    structure: RelationalStructure,
    rng: random.Random,
    max_vars: int = 8,
    max_constraints: int = 6,
) -> Instance:
    """Seeded random instance over a structure's relations, equality and one
    constant. Scopes may repeat variables."""
    n = rng.randint(2, max_vars)
    pool = sorted(structure.relations)
    pool.append("EQ")
    pool.append("CONST_%d" % rng.randrange(structure.domain_size))
    constraints = []
    for _ in range(rng.randint(1, max_constraints)):
        name = rng.choice(pool)
        arity = structure.relation(name).arity
        scope = tuple(rng.randrange(n) for _ in range(arity))
        constraints.append((name, scope))
    return Instance(n, constraints)
