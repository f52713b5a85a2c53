"""Finite relations, relational structures, instances, and count matrices.

Domains are always {0, ..., q-1}. Relations are finite sets of tuples over
such a domain; count matrices carry exact (arbitrary precision) integer
entries. Everything here is plain combinatorics with no search in it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence


class ReconstructionError(ValueError):
    """Margins handed to reconstruct_rank_one do not describe any rank-one
    block matrix (mismatched block totals or a non-integral entry)."""


RESERVED_EQ = "EQ"
RESERVED_CONST_PREFIX = "CONST_"

_NAME_OK = set("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_")


def _valid_name(name: str) -> bool:
    return bool(name) and not name[0].isdigit() and set(name) <= _NAME_OK


class Relation:
    """An arity-r relation over {0..q-1}: a deduplicated, lexicographically
    sorted tuple set with O(1) membership."""

    __slots__ = ("arity", "tuples", "_set")

    def __init__(self, arity: int, tuples: Iterable[Sequence[int]]):
        if arity < 1:
            raise ValueError("relation arity must be positive")
        seen = set()
        for t in tuples:
            t = tuple(t)
            if len(t) != arity:
                raise ValueError("tuple %r does not have arity %d" % (t, arity))
            for v in t:
                if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                    raise ValueError("domain elements are nonnegative ints, got %r" % (v,))
            seen.add(t)
        self.arity = arity
        self.tuples = tuple(sorted(seen))
        self._set = seen

    def __contains__(self, t) -> bool:
        return tuple(t) in self._set

    def __len__(self) -> int:
        return len(self.tuples)

    def __iter__(self):
        return iter(self.tuples)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Relation)
            and self.arity == other.arity
            and self.tuples == other.tuples
        )

    def __hash__(self) -> int:
        return hash((self.arity, self.tuples))

    def __repr__(self) -> str:
        return "Relation(arity=%d, size=%d)" % (self.arity, len(self.tuples))

    def max_element(self) -> int:
        return max((v for t in self.tuples for v in t), default=-1)


def project(relation: Relation, indices: Sequence[int]) -> Relation:
    """Projection onto the given coordinate positions (0-based), in the
    order given. Duplicate images collapse."""
    idx = tuple(indices)
    if not idx:
        raise ValueError("projection needs at least one index")
    for i in idx:
        if not 0 <= i < relation.arity:
            raise ValueError("index %d out of range for arity %d" % (i, relation.arity))
    return Relation(len(idx), {tuple(t[i] for i in idx) for t in relation.tuples})


@dataclass(frozen=True)
class BlockDecomposition:
    """Connected components of a bipartite edge set, each a (rows, cols) pair.

    Blocks are ordered by their least row label; row sets are pairwise
    disjoint and so are column sets.
    """

    blocks: tuple

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self):
        return iter(self.blocks)


def _bipartite_blocks(pairs: Iterable[tuple]) -> BlockDecomposition:
    """Components of an edge list; accepts any hashable vertex labels."""
    # Tag the two sides so a label may appear on both without merging. Every
    # class holds a row, so its least element (0, least row) orders the blocks.
    blocks = []
    for cls in partition_from_groups(((0, a), (1, b)) for a, b in pairs):
        rows = frozenset(x for side, x in cls if side == 0)
        cols = frozenset(x for side, x in cls if side == 1)
        blocks.append((rows, cols))
    return BlockDecomposition(tuple(blocks))


def _blocks_complete(edges: Iterable[tuple], blocks: BlockDecomposition) -> bool:
    """True iff every block of the edge set is a complete bipartite graph,
    that is, holds |rows|*|cols| of the edges."""
    for rows, cols in blocks:
        if sum(1 for e in edges if e[0] in rows) != len(rows) * len(cols):
            return False
    return True


def block_decompose(relation: Relation) -> BlockDecomposition:
    """Decompose a binary relation, viewed as a bipartite graph, into its
    connected components."""
    if relation.arity != 2:
        raise ValueError("block decomposition applies to binary relations")
    if not relation.tuples:
        raise ValueError("block decomposition needs a nonempty relation")
    return _bipartite_blocks(relation.tuples)


def is_rectangular(relation: Relation, left_arity: int = 1) -> bool:
    """True iff the relation, split into (first left_arity, rest) coordinate
    groups, is a disjoint union of complete bipartite blocks.

    Equivalent to: (a,c), (a,d), (b,c) present implies (b,d) present.
    """
    if not 1 <= left_arity < relation.arity:
        raise ValueError("split must leave both sides nonempty")
    pairs = {(t[:left_arity], t[left_arity:]) for t in relation.tuples}
    return _blocks_complete(pairs, _bipartite_blocks(pairs))


class CountMatrix:
    """Integer matrix with explicit row/column labels and sparse storage.

    Entries are exact Python ints (they can be astronomically large);
    missing entries are zero.
    """

    __slots__ = ("row_labels", "col_labels", "entries")

    def __init__(self, row_labels, col_labels, entries: Mapping):
        self.row_labels = tuple(row_labels)
        self.col_labels = tuple(col_labels)
        rows, cols = set(self.row_labels), set(self.col_labels)
        clean = {}
        for (r, c), v in entries.items():
            if r not in rows or c not in cols:
                raise ValueError("entry (%r, %r) outside declared labels" % (r, c))
            if not isinstance(v, int) or v < 0:
                raise ValueError("entries must be nonnegative integers")
            if v:
                clean[(r, c)] = v
        self.entries = clean

    def get(self, r, c) -> int:
        return self.entries.get((r, c), 0)

    def support(self):
        return set(self.entries)

    def total(self) -> int:
        return sum(self.entries.values())

    def to_lists(self):
        return [[self.get(r, c) for c in self.col_labels] for r in self.row_labels]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CountMatrix)
            and self.row_labels == other.row_labels
            and self.col_labels == other.col_labels
            and self.entries == other.entries
        )

    def __repr__(self) -> str:
        return "CountMatrix(%d x %d)" % (len(self.row_labels), len(self.col_labels))


def support_blocks(matrix: CountMatrix) -> BlockDecomposition:
    """Connected components of the nonzero entries of a matrix."""
    return _bipartite_blocks(matrix.entries.keys())


def support_is_rectangular(matrix: CountMatrix) -> bool:
    return _blocks_complete(matrix.entries, support_blocks(matrix))


def is_rank_one_block(matrix: CountMatrix) -> bool:
    """True iff the nonzero support splits into complete bipartite blocks and
    the submatrix of every block has rank one.

    Within a complete block all entries are positive, so rank one amounts to
    every 2x2 minor vanishing.
    """
    blocks = support_blocks(matrix)
    if not _blocks_complete(matrix.entries, blocks):
        return False
    for rows, cols in blocks:
        rs, cs = sorted(rows), sorted(cols)
        base_r = rs[0]
        base_row = [matrix.get(base_r, c) for c in cs]
        for r in rs[1:]:
            # proportional to the first block row: cross products agree
            first = matrix.get(r, cs[0])
            for k in range(1, len(cs)):
                if matrix.get(r, cs[k]) * base_row[0] != first * base_row[k]:
                    return False
    return True


def rank_one_identity_holds(matrix: CountMatrix) -> bool:
    """Degree-six cross identity over all index quadruples:

        a[i,r]^2 a[j,s]^2 a[i,s] a[j,r] == a[i,s]^2 a[j,r]^2 a[i,r] a[j,s].

    Characterizes rank-one block matrices among matrices whose support is
    already rectangular (both sides vanish whenever a 2x2 submatrix has a
    zero, so this check alone cannot see support defects).
    """
    get = matrix.get
    for i, j in itertools.combinations(matrix.row_labels, 2):
        for r, s in itertools.combinations(matrix.col_labels, 2):
            air, ais, ajr, ajs = get(i, r), get(i, s), get(j, r), get(j, s)
            if air * air * ajs * ajs * ais * ajr != ais * ais * ajr * ajr * air * ajs:
                return False
    return True


def reconstruct_rank_one(
    blocks: BlockDecomposition,
    row_totals: Mapping,
    col_totals: Mapping,
) -> CountMatrix:
    """Rebuild the unique rank-one block matrix with the given support blocks
    and margins: entry = row_total * col_total / block_total.

    Raises ReconstructionError when the margins are inconsistent (a block's
    row and column totals disagree, a zero block total, or a fractional
    entry), which means no such matrix exists.
    """
    entries = {}
    covered_rows: set = set()
    covered_cols: set = set()
    for rows, cols in blocks:
        covered_rows |= rows
        covered_cols |= cols
        rsum = sum(row_totals[r] for r in rows)
        csum = sum(col_totals[c] for c in cols)
        if rsum != csum:
            raise ReconstructionError(
                "block margins disagree: rows sum to %d, columns to %d" % (rsum, csum)
            )
        if rsum <= 0:
            raise ReconstructionError("block total must be positive")
        for r in rows:
            for c in cols:
                q, rem = divmod(row_totals[r] * col_totals[c], rsum)
                if rem:
                    raise ReconstructionError(
                        "entry (%r, %r) is not integral" % (r, c)
                    )
                entries[(r, c)] = q
    for r, v in row_totals.items():
        if r not in covered_rows and v != 0:
            raise ReconstructionError("row %r has total %d but lies in no block" % (r, v))
    for c, v in col_totals.items():
        if c not in covered_cols and v != 0:
            raise ReconstructionError("column %r has total %d but lies in no block" % (c, v))
    return CountMatrix(sorted(row_totals), sorted(col_totals), entries)


@dataclass(frozen=True)
class Partition:
    """Partition of a finite ground set into disjoint classes, stored in the
    canonical order (classes sorted by least element)."""

    classes: tuple

    @staticmethod
    def from_classes(classes: Iterable[Iterable]) -> "Partition":
        frozen = [frozenset(c) for c in classes if c]
        ground: set = set()
        for c in frozen:
            if ground & c:
                raise ValueError("partition classes overlap")
            ground |= c
        return Partition(tuple(sorted(frozen, key=min)))

    @property
    def ground(self) -> frozenset:
        return frozenset(x for c in self.classes for x in c)

    def class_of(self, x) -> frozenset:
        for c in self.classes:
            if x in c:
                return c
        raise KeyError(x)

    def representative(self, x):
        return min(self.class_of(x))

    def __len__(self) -> int:
        return len(self.classes)

    def __iter__(self):
        return iter(self.classes)


@dataclass(frozen=True)
class CongruencePair:
    """The two position congruences attached to a coordinate pair (i, j) of
    a relation: forward partitions the values at j (same length-(i+1)
    prefix), backward partitions the values at i (same length-i prefix and
    same value at j)."""

    i: int
    j: int
    forward: Partition
    backward: Partition


def partition_from_groups(groups: Iterable[Iterable]) -> Partition:
    """Transitive closure of "appear in a common group" via union-find."""
    parent: dict = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for g in groups:
        g = list(g)
        for x in g:
            parent.setdefault(x, x)
        for x in g[1:]:
            rx, r0 = find(x), find(g[0])
            if rx != r0:
                parent[rx] = r0
    out: dict = {}
    for x in parent:
        out.setdefault(find(x), set()).add(x)
    return Partition.from_classes(out.values())


class RelationalStructure:
    """A finite domain {0..q-1} plus named relations (the constraint language).

    The equality relation is always present under the reserved name EQ, and
    singleton relations are reachable as CONST_<a>; neither may be redefined.
    Elements that appear in no user relation are removed at construction and
    the surviving-element map is recorded (no-op when there are no user
    relations, since then nothing constrains usage).
    """

    def __init__(self, domain_size: int, relations: Mapping[str, Relation] | None = None):
        if domain_size < 2:
            raise ValueError("domain size must be at least 2")
        relations = dict(relations or {})
        for name, rel in relations.items():
            if not _valid_name(name):
                raise ValueError("bad relation name %r" % name)
            if name == RESERVED_EQ or name.startswith(RESERVED_CONST_PREFIX):
                raise ValueError("relation name %r is reserved" % name)
            if not isinstance(rel, Relation):
                raise ValueError("relation %r is not a Relation" % name)
            if not rel.tuples:
                raise ValueError("relation %r is empty" % name)
            if rel.max_element() >= domain_size:
                raise ValueError("relation %r uses elements outside the domain" % name)

        self.element_map: dict[int, int] | None = None
        if relations:
            used = sorted({v for rel in relations.values() for t in rel for v in t})
            if len(used) < domain_size:
                if len(used) < 2:
                    raise ValueError("fewer than two domain elements are used")
                remap = {old: new for new, old in enumerate(used)}
                relations = {
                    name: Relation(rel.arity, [tuple(remap[v] for v in t) for t in rel])
                    for name, rel in relations.items()
                }
                self.element_map = remap
                domain_size = len(used)

        self.domain_size = domain_size
        self.relations: dict[str, Relation] = relations
        self._eq = Relation(2, [(a, a) for a in range(domain_size)])

    @property
    def relation_names(self):
        return tuple(self.relations)

    def relation(self, name: str) -> Relation:
        """Resolve a name, including the built-ins EQ and CONST_<a>."""
        if name == RESERVED_EQ:
            return self._eq
        if name.startswith(RESERVED_CONST_PREFIX):
            tail = name[len(RESERVED_CONST_PREFIX):]
            if not tail.isdigit():
                raise KeyError(name)
            a = int(tail)
            if not 0 <= a < self.domain_size:
                raise KeyError(name)
            return Relation(1, [(a,)])
        return self.relations[name]

    def contains(self, name: str, t) -> bool:
        return tuple(t) in self.relation(name)

    def tuples(self, name: str):
        return iter(self.relation(name))

    def language_size(self) -> int:
        """Total tuple-entry count over all relations, equality included."""
        size = sum(len(r) * r.arity for r in self.relations.values())
        return size + 2 * self.domain_size

    def __repr__(self) -> str:
        return "RelationalStructure(q=%d, relations=%s)" % (
            self.domain_size,
            list(self.relations),
        )


class Instance:
    """A conjunctive formula: a variable count and (relation name, scope)
    constraints with 0-based, possibly repeating scope variables."""

    __slots__ = ("num_vars", "constraints")

    def __init__(self, num_vars: int, constraints: Iterable = ()):
        if num_vars < 0:
            raise ValueError("variable count must be nonnegative")
        cons = []
        for name, scope in constraints:
            scope = tuple(scope)
            if not scope:
                raise ValueError("empty scope")
            for v in scope:
                if not 0 <= v < num_vars:
                    raise ValueError("scope variable %d out of range" % v)
            cons.append((str(name), scope))
        self.num_vars = num_vars
        self.constraints = tuple(cons)

    def constrained_variables(self) -> tuple:
        return tuple(sorted({v for _, scope in self.constraints for v in scope}))

    def __eq__(self, other):
        return (
            isinstance(other, Instance)
            and self.num_vars == other.num_vars
            and self.constraints == other.constraints
        )

    def __repr__(self):
        return "Instance(vars=%d, constraints=%d)" % (
            self.num_vars,
            len(self.constraints),
        )
