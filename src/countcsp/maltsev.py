"""Mal'tsev operations: representation, preservation checks, detection.

A Mal'tsev operation is a ternary operation with phi(a,b,b) = phi(b,b,a) = a.
Those identities pin every table entry whose middle argument repeats an outer
one; only the q(q-1)^2 remaining entries are free. A structure has a Mal'tsev
polymorphism iff some completion of the free entries maps every triple of
tuples of every relation back into the relation, which is what the
backtracking search below decides. It fills the operation's own q^3 table,
indexed by argument code (a*q + b)*q + c, one free entry at a time in code
order, and checks each triple of tuples once every free entry it reads has
a value.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from .relations import Relation, RelationalStructure, _require_int


def encode(digits: Iterable[int], q: int) -> int:
    """Pack a digit string into one integer, base q, most significant first."""
    x = 0
    for d in digits:
        x = x * q + d
    return x


class MaltsevOp:
    """Ternary operation on {0..q-1} stored as a flat table of length q^3,
    indexed by argument code (a*q + b)*q + c. Every caller that applies it
    to tuples, closures included, reads this one table digit by digit.
    The table never changes, so its hash is taken once, at construction:
    frames kept on a relation are keyed by the operation."""

    __slots__ = ("q", "table", "_hash")

    def __init__(self, q: int, table):
        _require_int(q, "domain size")
        table = tuple(table)
        if len(table) != q * q * q:
            raise ValueError("table must have q^3 entries")
        for v in table:
            _require_int(v, "table entry")
            if not 0 <= v < q:
                raise ValueError("table entries are in range(%d), got %d" % (q, v))
        for v, pinned in zip(table, _forced(q)):
            if pinned is not None and v != pinned:
                raise ValueError("table violates the Mal'tsev identities")
        self.q = q
        self.table = table
        self._hash = hash((q, table))

    def __call__(self, a: int, b: int, c: int) -> int:
        """phi(a, b, c); an argument outside range(q), or a float, raises
        ValueError. A float in range gives a float code, which the table
        read rejects with the TypeError caught here."""
        q = self.q
        if 0 <= a < q and 0 <= b < q and 0 <= c < q:
            try:
                return self.table[(a * q + b) * q + c]
            except TypeError:
                pass
        raise ValueError("arguments are in range(%d), got %r" % (q, (a, b, c)))

    def __eq__(self, other):
        return isinstance(other, MaltsevOp) and self.q == other.q and self.table == other.table

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "MaltsevOp(q=%d)" % self.q


def free_entries(q: int):
    """Argument triples not forced by the identities (_forced), in
    lexicographic order. A q that is not an int raises ValueError."""
    _require_int(q, "domain size")
    triples = itertools.product(range(q), repeat=3)
    return [t for t, pinned in zip(triples, _forced(q)) if pinned is None]


def apply(op: MaltsevOp, t1, t2, t3) -> tuple:
    """Coordinatewise application to three equal-length tuples."""
    table, q = op.table, op.q
    return tuple([table[(a * q + b) * q + c] for a, b, c in zip(t1, t2, t3)])


def preserves(op: MaltsevOp, relation: Relation) -> bool:
    """Whether every coordinatewise image of a triple of tuples stays inside.
    A relation with a value outside the operation's domain raises ValueError."""
    tuples = relation.tuples
    reach = max([max(t) for t in tuples], default=-1) + 1
    if reach > op.q:
        raise ValueError(
            "operation is over %d elements, the relation over at least %d" % (op.q, reach)
        )
    for t1 in tuples:
        for t2 in tuples:
            for t3 in tuples:
                if apply(op, t1, t2, t3) not in relation:
                    return False
    return True


@dataclass(frozen=True)
class RectangularityViolation:
    """Three tuples whose image is forced out of the relation by the
    identities alone; no Mal'tsev completion can fix it."""

    relation_name: str
    triple: tuple
    image: tuple


def _forced(q: int) -> list:
    """The q^3 table indexed by argument code (a*q + b)*q + c, holding the
    value the identities pin at each entry and None at every free one."""
    return [
        c if a == b else a if b == c else None
        for a in range(q)
        for b in range(q)
        for c in range(q)
    ]


def find_maltsev_with_certificate(
    structure: RelationalStructure,
) -> tuple[MaltsevOp | None, RectangularityViolation | None]:
    """Search for a Mal'tsev polymorphism of all user relations.

    Returns (op, None) with the lexicographically least table when one
    exists, and (None, violation) otherwise; the violation is a triple whose
    image is already pinned outside its relation when such a triple exists
    (it certifies that some projection pair of the relation is not a disjoint
    union of complete bipartite blocks), else None.

    The search fills the operation's own table. Each triple of tuples that
    reads a free entry is kept once, as its argument codes and its relation,
    and is checked as soon as the largest free code it reads is assigned.

    Equality and singleton relations are preserved by every Mal'tsev table,
    so only user relations constrain the search.
    """
    q = structure.domain_size
    table = _forced(q)
    buckets: list[list] = [[] for _ in table]
    read: set[int] = set()
    for name, rel in structure.relations.items():
        member = rel._set
        tuples = rel.tuples
        for t1 in tuples:
            for t2 in tuples:
                for t3 in tuples:
                    codes = tuple([(a * q + b) * q + c for a, b, c in zip(t1, t2, t3)])
                    free = [code for code in codes if table[code] is None]
                    if free:
                        read.update(free)
                        buckets[max(free)].append((codes, member))
                        continue
                    image = tuple([table[code] for code in codes])
                    if image not in member:
                        return None, RectangularityViolation(name, (t1, t2, t3), image)

    # Depth-first over the free entries some triple reads, in code order;
    # ascending values make the first solution the lexicographically least.
    # An entry's current value is its place in the search, None before it.
    active = sorted(read)
    level = 0
    while level < len(active):
        code = active[level]
        bucket = buckets[code]
        v = 0 if table[code] is None else table[code] + 1
        while v < q:
            table[code] = v
            if all(tuple([table[c] for c in codes]) in member for codes, member in bucket):
                break
            v += 1
        if v < q:
            level += 1
            continue
        table[code] = None
        level -= 1
        if level < 0:
            return None, None

    # Entries no triple reads never affect feasibility; 0 keeps the table
    # lexicographically least.
    return MaltsevOp(q, [0 if v is None else v for v in table]), None


def find_maltsev(structure: RelationalStructure) -> MaltsevOp | None:
    op, _ = find_maltsev_with_certificate(structure)
    return op


def enumerate_maltsev(structure: RelationalStructure):
    """Every Mal'tsev polymorphism, by brute force over all completions.

    Exponential in q(q-1)^2; meant for cross-checking the search at q = 2.
    """
    q = structure.domain_size
    table = _forced(q)
    free = [code for code, v in enumerate(table) if v is None]
    for values in itertools.product(range(q), repeat=len(free)):
        for code, v in zip(free, values):
            table[code] = v
        op = MaltsevOp(q, table)
        if all(preserves(op, rel) for rel in structure.relations.values()):
            yield op
