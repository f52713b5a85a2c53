"""Independent reference implementations used to check the package.

Nothing here imports the fast-path internals beyond public data types; the
point is to recompute expected values a second way. The exceptions are
add_constraint_split and split_frame, a second constraint-addition path that
build_frame's frames are compared against; _closure_tuples, the tuple loop
that closure_project's output order is compared against; frame_from_rows,
which adopts explicit tuple sets as frames; trace_text, the canonical
text that count traces are compared and pinned as; and relation_text, the
canonical text of a generated relation, read through member.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable

from countcsp import (
    BlockDecomposition,
    CountMatrix,
    Frame,
    MaltsevOp,
    Relation,
    add_constraint,
    apply,
    collapse_scope,
    empty_frame,
    initial_frame,
    member,
    partition_from_groups,
    project,
)


def fraction_rank(rows) -> int:
    """Rank over the rationals by Gaussian elimination."""
    m = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        pivot = None
        for r in range(rank, len(m)):
            if m[r][c]:
                pivot = r
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][c]
        m[rank] = [v * inv for v in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][c]:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def rank_one_block_oracle(matrix: CountMatrix) -> bool:
    """Definitional check: connected components of the nonzero support,
    each component's full row-by-column submatrix of rank one. A connected
    rank-one component is automatically complete, so completeness needs no
    separate test."""
    adj_rows: dict = {}
    adj_cols: dict = {}
    for r, c in matrix.support():
        adj_rows.setdefault(r, set()).add(c)
        adj_cols.setdefault(c, set()).add(r)
    seen_rows: set = set()
    for start in adj_rows:
        if start in seen_rows:
            continue
        rows = {start}
        cols = set()
        frontier = [("r", start)]
        while frontier:
            side, x = frontier.pop()
            if side == "r":
                for c in adj_rows[x]:
                    if c not in cols:
                        cols.add(c)
                        frontier.append(("c", c))
            else:
                for r in adj_cols[x]:
                    if r not in rows:
                        rows.add(r)
                        frontier.append(("r", r))
        seen_rows |= rows
        sub = [[matrix.get(r, c) for c in sorted(cols)] for r in sorted(rows)]
        if fraction_rank(sub) != 1:
            return False
    return True


def brute_pair_counts(solutions, i: int, j: int) -> dict:
    out: dict = {}
    for t in solutions:
        key = (t[i], t[j])
        out[key] = out.get(key, 0) + 1
    return out


def brute_prefix_counts(solutions, i: int, j: int) -> dict:
    """values[y] = number of distinct length-(i+1) prefixes among solutions
    taking value y at position j."""
    seen: dict = {}
    for t in solutions:
        seen.setdefault(t[j], set()).add(t[: i + 1])
    return {y: len(p) for y, p in seen.items()}


def trace_text(trace: list) -> str:
    """Canonical text of count(..., trace=) steps: supports, classes,
    quotient entries and stage counts, all sorted."""
    lines = []
    for s in trace:
        parts = [s.i, s.j, sorted(s.support), sorted(s.counts.values.items())]
        if s.congruence is not None:
            parts.append([sorted(c) for c in s.congruence.forward])
            parts.append([sorted(c) for c in s.congruence.backward])
        if s.quotient is not None:
            q = s.quotient
            parts.append((q.row_labels, q.col_labels, sorted(q.entries.items())))
        lines.append(repr(parts))
    return "\n".join(lines) + "\n"


def relation_text(frame, phi, q: int) -> str:
    """The generated relation: every tuple of D^n that member accepts, in
    lexicographic order, after a header with n."""
    lines = ["n=%d" % frame.arity]
    for t in itertools.product(range(q), repeat=frame.arity):
        if member(frame, phi, t):
            lines.append(" ".join(map(str, t)))
    return "\n".join(lines) + "\n"


def naive_maltsev_closure(rows, op) -> set:
    """Fixpoint closure under coordinatewise application, the slow way."""
    current = {tuple(r) for r in rows}
    while True:
        new = set()
        items = sorted(current)
        for a in items:
            for b in items:
                for c in items:
                    t = tuple(op(x, y, z) for x, y, z in zip(a, b, c))
                    if t not in current:
                        new.add(t)
        if not new:
            return current
        current |= new


def brute_solutions(structure, instance):
    q = structure.domain_size
    checks = [(structure.relation(name), scope) for name, scope in instance.constraints]
    return [
        t
        for t in itertools.product(range(q), repeat=instance.num_vars)
        if all(tuple(t[v] for v in scope) in rel for rel, scope in checks)
    ]


def _power_encode(digs, q: int) -> int:
    x = 0
    for d in digs:
        x = x * q + d
    return x


def power_tuples_through(relations, q: int, k: int, x: int) -> set:
    """Every tuple of the k-th power of each relation (in the list's order)
    that contains the encoded element x, as (relation index, element tuple)
    pairs: one base tuple per digit, with x's digit at some position."""
    digits = []
    for _ in range(k):
        x, d = divmod(x, q)
        digits.append(d)
    digits.reverse()
    out = set()
    for ri, rel in enumerate(relations):
        for p in range(rel.arity):
            picks = [[t for t in rel if t[p] == v] for v in digits]
            for choice in itertools.product(*picks):
                out.add((ri, tuple(
                    _power_encode([t[m] for t in choice], q) for m in range(rel.arity)
                )))
    return out


def is_power_automorphism(structure, k: int, mapping) -> bool:
    """Check a candidate map explicitly against every power-relation tuple:
    a bijection of the power domain that maps each tuple of each R^k into
    R^k."""
    q = structure.domain_size
    if sorted(mapping) != list(range(q ** k)):
        return False
    for rel in structure.relations.values():
        # R^k as encoded element tuples, one base tuple per digit, big-endian
        power = [(0,) * rel.arity]
        for _ in range(k):
            power = [tuple(e * q + v for e, v in zip(es, t)) for es in power for t in rel]
        members = set(power)
        if any(tuple(map(mapping.__getitem__, es)) not in members for es in power):
            return False
    return True


def add_constraint_split(frame, phi, relation, scope):
    """Add a constraint through its chain of prefix projections: conjoin the
    projection onto the first k scope variables for k = 1..arity. Generates
    the same relation as add_constraint; the intermediate frames differ."""
    relation, scope = collapse_scope(relation, scope)
    g = frame
    for k in range(1, relation.arity + 1):
        if g.is_empty():
            return empty_frame(frame.arity)
        g = add_constraint(g, phi, project(relation, range(k)), scope[:k])
    return g


def split_frame(structure, phi, instance):
    """Frame of the instance's solution set by a second path: a frame over
    all of its variables from the start, each constraint added through its
    chain of prefix projections (add_constraint_split)."""
    f = initial_frame(instance.num_vars, structure.domain_size)
    for name, scope in instance.constraints:
        f = add_constraint_split(f, phi, structure.relation(name), scope)
    return f


def _maltsev_perms(a: int, b: int, c: int):
    # arrangements of the index multiset {a >= b >= c} whose middle entry
    # differs from both outer ones
    if a == b:
        if b == c:
            return ()
        return ((a, c, a),)
    if b == c:
        return ((b, a, b),)
    return ((a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a))


def _closure_tuples(rows: Iterable[tuple], phi: MaltsevOp, idx: tuple) -> list:
    """closure_project's order reference: the same triple order on projected
    tuples, phi applied digit by digit through op.table; idx is sorted and
    duplicate-free."""
    table = phi.table
    q = phi.q
    full: list = []
    proj: list = []
    seen: set = set()
    for t in rows:
        p = tuple(t[i] for i in idx)
        if p not in seen:
            seen.add(p)
            full.append(tuple(t))
            proj.append(p)
    limit = q ** len(idx)
    j1 = 1
    while j1 < len(proj) < limit:
        for j2 in range(j1 + 1):
            for j3 in range(j2 + 1):
                for k1, k2, k3 in _maltsev_perms(j1, j2, j3):
                    pa, pb, pc = proj[k1], proj[k2], proj[k3]
                    u = tuple(
                        table[(x * q + y) * q + z]
                        for x, y, z in zip(pa, pb, pc)
                    )
                    if u not in seen:
                        seen.add(u)
                        full.append(apply(phi, full[k1], full[k2], full[k3]))
                        proj.append(u)
                        if len(proj) >= limit:
                            return full
        j1 += 1
    return full


def frame_from_rows(arity: int, rows: Iterable[tuple]) -> Frame:
    """Adopt an explicit tuple set as a frame of the relation it generates.

    Valid only when, at every position, each shared-prefix class has some
    single prefix covering all of its values (true for any strongly
    rectangular relation given all of its rows, and for hand-built frames);
    otherwise raises ValueError.
    """
    rows = sorted(set(tuple(r) for r in rows))
    if not rows:
        return empty_frame(arity)
    for r in rows:
        if len(r) != arity:
            raise ValueError("row %r does not have arity %d" % (r, arity))
    index = {r: k for k, r in enumerate(rows)}
    witness: dict = {}
    for i in range(arity):
        by_prefix: dict = {}
        for r in rows:
            by_prefix.setdefault(r[:i], set()).add(r[i])
        classes = partition_from_groups(by_prefix.values())
        for cls in classes:
            cover = sorted(
                prefix for prefix, vals in by_prefix.items() if vals >= cls
            )
            if not cover:
                raise ValueError(
                    "rows are not a frame: no common prefix covers class %s "
                    "at position %d" % (sorted(cls), i)
                )
            v = cover[0]
            for a in cls:
                witness[(a, i)] = index[min(r for r in rows if r[:i] == v and r[i] == a)]
    return Frame(arity, rows, witness)


def union_find_blocks(pairs: Iterable[tuple]) -> BlockDecomposition:
    """relations._bipartite_blocks as a union-find: the connected components
    of an edge list, complete or not; accepts any hashable vertex labels."""
    # Tag the two sides so a label may appear on both without merging. Every
    # class holds a row, so its least element (0, least row) orders the blocks.
    blocks = []
    for cls in partition_from_groups(((0, a), (1, b)) for a, b in pairs):
        rows = frozenset(x for side, x in cls if side == 0)
        cols = frozenset(x for side, x in cls if side == 1)
        blocks.append((rows, cols))
    return BlockDecomposition(tuple(blocks))
