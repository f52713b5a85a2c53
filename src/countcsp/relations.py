"""Finite relations, relational structures, instances, and count matrices.

Domains are always {0, ..., q-1}. Relations are finite sets of tuples over
such a domain; count matrices carry exact (arbitrary precision) integer
entries. Everything here is plain combinatorics with no search in it.

What depends on the language alone is built once per language, not once
per instance: a structure keeps one Relation per built-in name (EQ and each
CONST_<a>) for as long as it lives. A Relation, never mutated, carries one
slot, _frames, None when built, that this module never reads or writes
again: the frames module owns what it holds, and documents its key and
its memory bound.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence


class ReconstructionError(ValueError):
    """Margins handed to reconstruct_rank_one do not describe any rank-one
    block matrix (mismatched block totals or a non-integral entry)."""


class UnknownRelationError(KeyError):
    """A relation name the structure cannot resolve: not a user relation,
    not EQ, and not CONST_<a> with a inside the domain."""

    def __str__(self) -> str:
        return "no relation named %r in the structure" % self.args[0]


RESERVED_EQ = "EQ"
RESERVED_CONST_PREFIX = "CONST_"

_NAME_OK = set("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_")


def _valid_name(name) -> bool:
    return isinstance(name, str) and bool(name) and not name[0].isdigit() and set(name) <= _NAME_OK


def _require_int(value, what: str) -> None:
    """A ValueError unless value is an int and not a bool: the one int check."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError("%s must be an int, got %r" % (what, value))


def _require_type(value, cls: type, what: str) -> None:
    """A TypeError naming the parameter unless value is a cls: the builder
    entries' one argument-class check."""
    if not isinstance(value, cls):
        got = type(value).__name__
        raise TypeError("%s must be of class %s, got %s" % (what, cls.__name__, got))


class Relation:
    """An arity-r relation over {0..q-1}: a deduplicated, lexicographically
    sorted tuple set with O(1) membership. _frames is None until the
    frames module fills it."""

    __slots__ = ("arity", "tuples", "_set", "_frames")

    def __init__(self, arity: int, tuples: Iterable[Sequence[int]]):
        _require_int(arity, "relation arity")
        if arity < 1:
            raise ValueError("relation arity must be positive")
        seen = set()
        for t in tuples:
            t = tuple(t)
            if len(t) != arity:
                raise ValueError("tuple %r does not have arity %d" % (t, arity))
            for v in t:
                _require_int(v, "domain element")
                if v < 0:
                    raise ValueError("domain elements are nonnegative ints, got %r" % (v,))
            seen.add(t)
        self.arity = arity
        self.tuples = tuple(sorted(seen))
        self._set = seen
        self._frames = None

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
        _require_int(i, "projection index")
        if not 0 <= i < relation.arity:
            raise ValueError("index %d out of range for arity %d" % (i, relation.arity))
    return Relation(len(idx), {tuple(t[i] for i in idx) for t in relation.tuples})


def collapse_scope(relation: Relation, scope: Sequence[int]):
    """Replace repeated scope variables by intersecting with the diagonal:
    the result has distinct variables (in order of first occurrence) and may
    be empty. A relation of another class raises TypeError."""
    _require_type(relation, Relation, "relation")
    scope = tuple(scope)
    if len(scope) != relation.arity:
        raise ValueError("scope length does not match relation arity")
    distinct = tuple(dict.fromkeys(scope))
    if len(distinct) == len(scope):
        return relation, scope
    kept = []
    for t in relation:
        value = dict(zip(scope, t))
        if len(value) == len(set(zip(scope, t))):  # repeated variables agree
            kept.append(tuple(value.values()))
    return Relation(len(distinct), kept), distinct


@dataclass(frozen=True)
class BlockDecomposition:
    """Complete blocks of a bipartite edge set, each a (rows, cols) pair.

    Blocks are ordered by their least row label; row sets are pairwise
    disjoint and so are column sets.
    """

    blocks: tuple

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self):
        return iter(self.blocks)


def _bipartite_blocks(pairs: Iterable[tuple]) -> Optional[BlockDecomposition]:
    """Blocks of an edge list that is a disjoint union of complete bipartite
    blocks, else None; labels must be sortable. A block is the rows that
    share one column set, and the union is disjoint iff no two of these
    column sets meet. Rows are taken sorted, so blocks come by least row."""
    cols_of: dict = {}
    for a, b in pairs:
        cols_of.setdefault(a, set()).add(b)
    rows_of: dict = {}
    for a in sorted(cols_of):
        rows_of.setdefault(frozenset(cols_of[a]), []).append(a)
    if sum(map(len, rows_of)) != len(set().union(*rows_of)):
        return None
    return BlockDecomposition(tuple((frozenset(r), c) for c, r in rows_of.items()))


def block_decompose(relation: Relation) -> BlockDecomposition:
    """Decompose a binary relation, viewed as a bipartite graph, into its
    connected components; raises ValueError unless each is complete."""
    if relation.arity != 2:
        raise ValueError("block decomposition applies to binary relations")
    if not relation.tuples:
        raise ValueError("block decomposition needs a nonempty relation")
    blocks = _bipartite_blocks(relation.tuples)
    if blocks is None:
        raise ValueError("relation is not a disjoint union of complete blocks")
    return blocks


def is_rectangular(relation: Relation, left_arity: int = 1) -> bool:
    """True iff the relation, split into (first left_arity, rest) coordinate
    groups, is a disjoint union of complete bipartite blocks.

    Equivalent to: (a,c), (a,d), (b,c) present implies (b,d) present.
    """
    _require_int(left_arity, "left arity")
    if not 1 <= left_arity < relation.arity:
        raise ValueError("split must leave both sides nonempty")
    pairs = ((t[:left_arity], t[left_arity:]) for t in relation.tuples)
    return _bipartite_blocks(pairs) is not None


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
            _require_int(v, "entry")
            if v < 0:
                raise ValueError("entries must be nonnegative, got %d" % v)
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


def pair_matrix(relation: Relation, i: int, j: int) -> CountMatrix:
    """Count matrix M(x, y) = number of tuples with value x at position i
    and y at position j."""
    _require_int(i, "position i")
    _require_int(j, "position j")
    if not 0 <= i < relation.arity or not 0 <= j < relation.arity or i == j:
        raise ValueError("positions must be distinct and in range")
    entries = Counter((t[i], t[j]) for t in relation)
    rows = sorted({x for (x, _) in entries})
    cols = sorted({y for (_, y) in entries})
    return CountMatrix(rows, cols, entries)


def support_blocks(matrix: CountMatrix) -> BlockDecomposition:
    """Connected components of the nonzero entries of a matrix; a support
    that is not a disjoint union of complete blocks raises ValueError."""
    blocks = _bipartite_blocks(matrix.entries)
    if blocks is None:
        raise ValueError("support is not a disjoint union of complete blocks")
    return blocks


def support_is_rectangular(matrix: CountMatrix) -> bool:
    return _bipartite_blocks(matrix.entries) is not None


def is_rank_one_block(matrix: CountMatrix) -> bool:
    """True iff the nonzero support splits into complete bipartite blocks and
    the submatrix of every block has rank one.

    Within a complete block all entries are positive, so rank one amounts to
    every 2x2 minor vanishing.
    """
    blocks = _bipartite_blocks(matrix.entries)
    if blocks is None:
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

    Raises ReconstructionError when a block's row or column has no total,
    or when the margins are inconsistent (a block's row and column totals
    disagree, a zero block total, or a fractional entry), which means no
    such matrix exists.
    """
    entries = {}
    covered_rows: set = set()
    covered_cols: set = set()
    for rows, cols in blocks:
        for kind, labels, totals in (("row", rows, row_totals), ("column", cols, col_totals)):
            for x in labels:
                if x not in totals:
                    raise ReconstructionError("%s %r has no total" % (kind, x))
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


class RelationalStructure:
    """A finite domain {0..q-1} plus named relations (the constraint language).

    The equality relation is always present under the reserved name EQ, and
    singleton relations are reachable as CONST_<a>; neither may be redefined.
    The domain is the declared one, whether or not every element appears in
    a relation: counts range over it and CONST_<a> names its element a.
    Like EQ, each CONST_<a> is one Relation per structure, built on first
    use, so what it caches serves every instance over the structure.
    """

    def __init__(self, domain_size: int, relations: Mapping[str, Relation] | None = None):
        _require_int(domain_size, "domain size")
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
        self.domain_size = domain_size
        self.relations: dict[str, Relation] = relations
        self._eq = Relation(2, [(a, a) for a in range(domain_size)])
        self._consts: dict = {}

    @property
    def relation_names(self):
        return tuple(self.relations)

    def relation(self, name: str) -> Relation:
        """Resolve a name, including the built-ins EQ and CONST_<a>."""
        if not isinstance(name, str):
            raise UnknownRelationError(name)
        if name == RESERVED_EQ:
            return self._eq
        if name.startswith(RESERVED_CONST_PREFIX):
            tail = name[len(RESERVED_CONST_PREFIX):]
            if not (tail.isascii() and tail.isdigit()) or int(tail) >= self.domain_size:
                raise UnknownRelationError(name)
            a = int(tail)
            const = self._consts.get(a)
            if const is None:
                const = self._consts[a] = Relation(1, [(a,)])
            return const
        if name not in self.relations:
            raise UnknownRelationError(name)
        return self.relations[name]

    def resolve(self, constraints: Iterable) -> list:
        """(relation, scope) per (name, scope) constraint, each name resolved
        once. Constraints are checked one at a time, in order: the first bad
        one raises UnknownRelationError for a name the structure cannot
        resolve, or ValueError for a scope whose length is not its
        relation's arity."""
        relations: dict = {}
        out = []
        for name, scope in constraints:
            relation = relations.get(name)
            if relation is None:
                relation = relations[name] = self.relation(name)
            if len(scope) != relation.arity:
                raise ValueError(
                    "scope length does not match relation arity: %s has arity %d,"
                    " its scope %d variables" % (name, relation.arity, len(scope))
                )
            out.append((relation, scope))
        return out

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
        _require_int(num_vars, "variable count")
        if num_vars < 0:
            raise ValueError("variable count must be nonnegative, got %d" % num_vars)
        cons = []
        for name, scope in constraints:
            if not isinstance(scope, Iterable):
                raise ValueError("scope %r is not a sequence of variables" % (scope,))
            scope = tuple(scope)
            if not scope:
                raise ValueError("empty scope")
            for v in scope:
                _require_int(v, "scope variable")
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
