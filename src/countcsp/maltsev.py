"""Mal'tsev operations: representation, preservation checks, detection.

A Mal'tsev operation is a ternary operation with phi(a,b,b) = phi(b,b,a) = a.
Those identities pin every table entry whose middle argument repeats an outer
one; only the q(q-1)^2 remaining entries are free. A structure has a Mal'tsev
polymorphism iff some completion of the free entries maps every triple of
tuples of every relation back into the relation, which is what the
backtracking search below decides.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping

from .relations import Relation, RelationalStructure

# Largest code space q**k that power_table serves: a table holds Q**3 bytes
# (531,441 at the cap) and every code fits in one byte.
POWER_TABLE_MAX_CODES = 81


def encode(digits: Iterable[int], q: int) -> int:
    """Pack a digit string into one integer, base q, most significant first."""
    x = 0
    for d in digits:
        x = x * q + d
    return x


class MaltsevOp:
    """Ternary operation on {0..q-1} stored as a flat table of length q^3.

    power_table(k) extends it to k-digit codes; the tables are built on
    first use and cached on the operation.
    """

    __slots__ = ("q", "table", "_powers")

    def __init__(self, q: int, table):
        table = tuple(table)
        if len(table) != q * q * q:
            raise ValueError("table must have q^3 entries")
        if any(not 0 <= v < q for v in table):
            raise ValueError("table entry out of range")
        q2 = q * q
        for a in range(q):
            for b in range(q):
                if table[a * q2 + b * q + b] != a or table[b * q2 + b * q + a] != a:
                    raise ValueError("table violates the Mal'tsev identities")
        self.q = q
        self.table = table
        self._powers: dict = {0: bytearray(1)}

    def __call__(self, a: int, b: int, c: int) -> int:
        return self.table[(a * self.q + b) * self.q + c]

    def power_table(self, k: int) -> bytearray | None:
        """The operation acting coordinatewise on k-digit codes (see encode).

        Entry (a*Q + b)*Q + c of the returned table, Q = q**k, is the code
        of the image of the digit strings coded a, b and c. Returns None when
        Q exceeds POWER_TABLE_MAX_CODES. The table is shared by every caller
        and must not be modified.
        """
        t = self._powers.get(k)
        if t is not None:
            return t
        if k < 0:
            raise ValueError("power must be nonnegative")
        q = self.q
        if q**k > POWER_TABLE_MAX_CODES:
            return None
        # Split each code into its leading digit and a (k-1)-digit rest. For
        # fixed a and b the row over c is q blocks, one per leading digit c0
        # of c: the rest table's row for (a_rest, b_rest) with every code
        # shifted by phi(a0, b0, c0) * P. Codes stay below 81, so a byte
        # translation does the shift.
        sub = self.power_table(k - 1)
        P = q ** (k - 1)
        Q = P * q
        shifts = [bytes((x + d * P) & 0xFF for x in range(256)) for d in range(q)]
        shifted = [
            [sub[r * P:(r + 1) * P].translate(s) for s in shifts] for r in range(P * P)
        ]
        t = bytearray(Q * Q * Q)
        pos = 0
        for a0 in range(q):
            for ar in range(P):
                for b0 in range(q):
                    images = self.table[(a0 * q + b0) * q:(a0 * q + b0 + 1) * q]
                    for rows in shifted[ar * P:(ar + 1) * P]:
                        for d in images:
                            t[pos:pos + P] = rows[d]
                            pos += P
        self._powers[k] = t
        return t

    def __eq__(self, other):
        return isinstance(other, MaltsevOp) and self.q == other.q and self.table == other.table

    def __hash__(self):
        return hash((self.q, self.table))

    def __repr__(self):
        return "MaltsevOp(q=%d)" % self.q


def free_entries(q: int):
    """Argument triples not forced by the identities, in lexicographic order."""
    return [
        (a, b, c)
        for a in range(q)
        for b in range(q)
        for c in range(q)
        if b != a and b != c
    ]


def apply(op: MaltsevOp, t1, t2, t3) -> tuple:
    """Coordinatewise application to three equal-length tuples."""
    table, q = op.table, op.q
    return tuple([table[(a * q + b) * q + c] for a, b, c in zip(t1, t2, t3)])


def preserves(op: MaltsevOp, relation: Relation) -> bool:
    """Whether every coordinatewise image of a triple of tuples stays inside."""
    tuples = relation.tuples
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


def _forced(a: int, b: int, c: int) -> int | None:
    if a == b:
        return c
    if b == c:
        return a
    return None


def _completion(q: int, free_values: Mapping) -> MaltsevOp:
    """The operation taking free_values[(a, b, c)] on the free entries and
    the value the identities force everywhere else."""
    table = []
    for a in range(q):
        for b in range(q):
            for c in range(q):
                f = _forced(a, b, c)
                table.append(free_values[(a, b, c)] if f is None else f)
    return MaltsevOp(q, table)


def find_maltsev_with_certificate(
    structure: RelationalStructure,
) -> tuple[MaltsevOp | None, RectangularityViolation | None]:
    """Search for a Mal'tsev polymorphism of all user relations.

    Returns (op, None) with the lexicographically least table when one
    exists, and (None, violation) otherwise; the violation is a triple whose
    image is already pinned outside its relation when such a triple exists
    (it certifies that some projection pair of the relation is not a disjoint
    union of complete bipartite blocks), else None.

    Equality and singleton relations are preserved by every Mal'tsev table,
    so only user relations constrain the search.
    """
    q = structure.domain_size
    free = free_entries(q)
    position = {e: k for k, e in enumerate(free)}
    nfree = len(free)

    # For each triple of relation tuples, record which free entries its image
    # needs; the triple is checked as soon as the last of them is assigned.
    triples = []
    touched: set[int] = set()
    for name, rel in structure.relations.items():
        member = rel._set
        tuples = rel.tuples
        for t1 in tuples:
            for t2 in tuples:
                for t3 in tuples:
                    needed = []
                    fixed: list[int | None] = []
                    for a, b, c in zip(t1, t2, t3):
                        f = _forced(a, b, c)
                        fixed.append(f)
                        if f is None:
                            needed.append(position[(a, b, c)])
                    if not needed:
                        if tuple(fixed) not in member:
                            violation = RectangularityViolation(
                                name, (t1, t2, t3), tuple(fixed)
                            )
                            return None, violation
                        continue
                    cols = tuple(
                        position[(a, b, c)] if f is None else -1
                        for (a, b, c), f in zip(zip(t1, t2, t3), fixed)
                    )
                    triples.append((cols, tuple(fixed), member, needed))
                    touched.update(needed)

    # Entries no triple needs never affect feasibility; pinning them to 0
    # keeps the result lexicographically least and keeps the search from
    # backtracking through them.
    values: list[int] = [0] * nfree
    active = sorted(touched)
    rank = {e: k for k, e in enumerate(active)}
    buckets: list[list] = [[] for _ in active]
    for cols, fixed, member, needed in triples:
        buckets[max(rank[e] for e in needed)].append((cols, fixed, member))

    def check(level: int) -> bool:
        for cols, fixed, member in buckets[level]:
            image = tuple(
                fixed[i] if col < 0 else values[col] for i, col in enumerate(cols)
            )
            if image not in member:
                return False
        return True

    # Depth-first search in index order; ascending values make the first
    # solution the lexicographically least one.
    trail: list[int] = [-1] * len(active)
    level = 0
    while level < len(active):
        v = trail[level] + 1
        placed = False
        while v < q:
            values[active[level]] = v
            trail[level] = v
            if check(level):
                placed = True
                break
            v += 1
        if placed:
            level += 1
            continue
        trail[level] = -1
        values[active[level]] = 0
        level -= 1
        if level < 0:
            return None, None

    return _completion(q, dict(zip(free, values))), None


def find_maltsev(structure: RelationalStructure) -> MaltsevOp | None:
    op, _ = find_maltsev_with_certificate(structure)
    return op


def enumerate_maltsev(structure: RelationalStructure):
    """Every Mal'tsev polymorphism, by brute force over all completions.

    Exponential in q(q-1)^2; meant for cross-checking the search at q = 2.
    """
    q = structure.domain_size
    free = free_entries(q)
    for combo in itertools.product(range(q), repeat=len(free)):
        op = _completion(q, dict(zip(free, combo)))
        if all(preserves(op, rel) for rel in structure.relations.values()):
            yield op
