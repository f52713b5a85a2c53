"""Compact generating sets ("frames") for Mal'tsev-closed solution sets.

A constraint formula over a language preserved by a Mal'tsev operation phi
has a solution set R closed under coordinatewise phi. R can be exponentially
large, but it is always generated under phi by a frame: a sub-relation F
that (a) hits every value of every coordinate projection of R, and (b) for
each position i carries, per class of the "shares a length-i prefix in R"
equivalence, witness rows with one common prefix. Frames support linear-time
membership tests and can be rebuilt after conjoining one more constraint,
which is how build_frame processes a whole instance without ever
materializing R.

Positions are 0-based throughout. A frame's witness maps (value, position)
to a row index.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence

from .maltsev import MaltsevOp, apply, encode
from .relations import Instance, Partition, Relation, partition_from_groups, project


class Frame:
    """Rows of a generating sub-relation plus the witness map.

    The empty frame (no rows) generates the empty relation; an arity-0 frame
    with one empty row represents the relation containing the empty tuple.
    """

    __slots__ = ("arity", "rows", "witness")

    def __init__(self, arity: int, rows: Sequence[tuple], witness: Mapping):
        if arity < 0:
            raise ValueError("arity must be nonnegative")
        rows = tuple(tuple(r) for r in rows)
        for r in rows:
            if len(r) != arity:
                raise ValueError("row %r does not have arity %d" % (r, arity))
        witness = dict(witness)
        for (a, i), k in witness.items():
            if not 0 <= i < arity:
                raise ValueError("witness position %d out of range" % i)
            if not 0 <= k < len(rows):
                raise ValueError("witness row index %d out of range" % k)
            if rows[k][i] != a:
                raise ValueError("witness row for (%r, %d) has wrong value" % (a, i))
        self.arity = arity
        self.rows = rows
        self.witness = witness

    def __len__(self) -> int:
        return len(self.rows)

    def is_empty(self) -> bool:
        return not self.rows

    def projection(self, i: int) -> tuple:
        """Sorted values of the generated relation at position i."""
        if not 0 <= i < self.arity:
            raise ValueError("position out of range")
        return tuple(sorted(a for (a, p) in self.witness if p == i))

    def witness_row(self, a: int, i: int) -> tuple:
        return self.rows[self.witness[(a, i)]]

    def prefix_groups(self) -> list:
        """For every position i, a dict from witness-row i-prefix to the
        values at i whose witnesses carry it, in witness-map order; one pass
        over the witness map."""
        groups: list = [{} for _ in range(self.arity)]
        rows = self.rows
        for (a, i), k in self.witness.items():
            groups[i].setdefault(rows[k][:i], []).append(a)
        return groups

    def position_classes(self, i: int) -> Partition:
        """Classes of the shared-prefix equivalence at position i, read off
        the witness map (equivalent values carry identical witness prefixes)."""
        return Partition.from_classes(self.prefix_groups()[i].values())

    def __repr__(self) -> str:
        return "Frame(arity=%d, rows=%d)" % (self.arity, len(self.rows))


def empty_frame(arity: int) -> Frame:
    return Frame(arity, (), {})


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


def closure_project(rows: Iterable[tuple], phi: MaltsevOp, indices) -> list:
    """Close a tuple set under phi, tracking only the projection onto the
    given positions; returns full tuples, one per projection value reached.

    Coordinatewise application commutes with projection, so the loop runs on
    the projected tuples and applies phi to a full carrier only when a new
    projection appears. Seeds are deduplicated on the projection (first one
    kept), and the loop stops early once all q^|indices| projections exist.
    The projection of the result equals the projection of the full closure.

    Projections are packed into base-q codes (maltsev.encode), and phi on
    them is one lookup in phi.power_table(|indices|). When q^|indices|
    exceeds maltsev.POWER_TABLE_MAX_CODES (81) there is no table, and the
    same loop runs on tuples; both give the same list in the same order.
    An index that is negative or not below the first row's length raises
    ValueError.
    """
    idx = tuple(sorted(set(indices)))
    if not idx:
        raise ValueError("need at least one projection index")
    if not isinstance(rows, (list, tuple)):
        rows = list(rows)
    if idx[0] < 0 or (rows and idx[-1] >= len(rows[0])):
        raise ValueError("projection indices %r out of range" % (idx,))
    table = phi.power_table(len(idx))
    if table is None:
        return _closure_tuples(rows, phi, idx)
    q = phi.q
    Q = q ** len(idx)
    full: list = []
    codes: list = []
    seen = bytearray(Q)
    for t in rows:
        c = encode([t[i] for i in idx], q)
        if not seen[c]:
            seen[c] = 1
            full.append(tuple(t))
            codes.append(c)
            if len(codes) == Q:
                return full

    def grow(u: int, k1: int, k2: int, k3: int) -> bool:
        seen[u] = 1
        full.append(apply(phi, full[k1], full[k2], full[k3]))
        codes.append(u)
        return len(codes) == Q

    # The triples j1 >= j2 >= j3 of _closure_tuples, in its order, with the
    # arrangements of _maltsev_perms written out.
    j1 = 1
    while j1 < len(codes):
        x1 = codes[j1]
        for j2 in range(j1):
            x2 = codes[j2]
            for j3 in range(j2):
                x3 = codes[j3]
                u = table[(x1 * Q + x2) * Q + x3]
                if not seen[u] and grow(u, j1, j2, j3):
                    return full
                u = table[(x1 * Q + x3) * Q + x2]
                if not seen[u] and grow(u, j1, j3, j2):
                    return full
                u = table[(x2 * Q + x1) * Q + x3]
                if not seen[u] and grow(u, j2, j1, j3):
                    return full
                u = table[(x2 * Q + x3) * Q + x1]
                if not seen[u] and grow(u, j2, j3, j1):
                    return full
                u = table[(x3 * Q + x1) * Q + x2]
                if not seen[u] and grow(u, j3, j1, j2):
                    return full
                u = table[(x3 * Q + x2) * Q + x1]
                if not seen[u] and grow(u, j3, j2, j1):
                    return full
            u = table[(x2 * Q + x1) * Q + x2]
            if not seen[u] and grow(u, j2, j1, j2):
                return full
        for j3 in range(j1):
            u = table[(x1 * Q + codes[j3]) * Q + x1]
            if not seen[u] and grow(u, j1, j3, j1):
                return full
        j1 += 1
    return full


def _closure_tuples(rows: Iterable[tuple], phi: MaltsevOp, idx: tuple) -> list:
    """closure_project on projected tuples, for projections too wide for a
    power table; idx is sorted and duplicate-free."""
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


def span(frame: Frame, phi: MaltsevOp) -> Relation:
    """Materialize the generated relation. Exponential in general; meant for
    small frames, demos, and tests."""
    if frame.arity < 1:
        raise ValueError("span needs positive arity")
    rows = closure_project(frame.rows, phi, range(frame.arity))
    return Relation(frame.arity, rows)


def initial_frame(n: int, q: int) -> Frame:
    """Frame of the full relation D^n: the all-zero row plus one row per
    (position, nonzero value) pair; size n(q-1)+1."""
    if n < 1 or q < 1:
        raise ValueError("need n >= 1 and q >= 1")
    base = (0,) * n
    rows = [base]
    witness = {(0, i): 0 for i in range(n)}
    for i in range(n):
        for a in range(1, q):
            rows.append(base[:i] + (a,) + base[i + 1:])
            witness[(a, i)] = len(rows) - 1
    return Frame(n, rows, witness)


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


def member(frame: Frame, phi: MaltsevOp, t: Sequence[int]) -> bool:
    """Membership in the generated relation by the witness-walk scan.

    Maintains a generated tuple agreeing with t on a growing prefix; at each
    position the two witness rows of the current value and the target value
    share a prefix exactly when the values are exchangeable there, and one
    phi application swaps the target value in without disturbing the prefix.
    """
    t = tuple(t)
    if len(t) != frame.arity:
        raise ValueError("tuple arity mismatch")
    if not frame.rows:
        return False
    if frame.arity == 0:
        return True
    w = frame.witness
    k = w.get((t[0], 0))
    if k is None:
        return False
    cur = frame.rows[k]
    for i in range(1, frame.arity):
        a = t[i]
        if cur[i] == a:
            continue
        ka = w.get((a, i))
        if ka is None:
            return False
        kc = w.get((cur[i], i))
        if kc is None:
            return False
        wa = frame.rows[ka]
        wc = frame.rows[kc]
        if wa[:i] != wc[:i]:
            return False
        cur = apply(phi, cur, wc, wa)
    return True


def shrink_to_small(frame: Frame, phi: MaltsevOp) -> Frame:
    """Same generated relation, at most n(q-1)+1 rows.

    Picks the first row f and rebases every witness in f's class at each
    position onto f's prefix with one phi application; other classes keep
    their original witnesses.
    """
    if frame.is_empty():
        return frame
    n = frame.arity
    if n == 0:
        return Frame(0, ((),), {})
    f = frame.rows[0]
    rows: list = [f]
    seen: dict = {f: 0}
    witness: dict = {}

    def add(row: tuple) -> int:
        k = seen.get(row)
        if k is None:
            k = len(rows)
            rows.append(row)
            seen[row] = k
        return k

    groups = frame.prefix_groups()
    for i in range(n):
        g = frame.witness_row(f[i], i)
        pivot_prefix = g[:i]
        for prefix, members in groups[i].items():
            if prefix == pivot_prefix:
                for a in sorted(members):
                    if a == f[i]:
                        witness[(a, i)] = 0
                    else:
                        h = frame.witness_row(a, i)
                        witness[(a, i)] = add(apply(phi, f, g, h))
            else:
                for a in sorted(members):
                    witness[(a, i)] = add(frame.witness_row(a, i))
    return Frame(n, rows, witness)


def _pair_index(frame: Frame, phi: MaltsevOp) -> tuple:
    """What every section of one frame reads: per position i >= 1 the (0, i)
    pair closure grouped as a -> {b: the tuple through (a, b)}, plus
    frame.prefix_groups(). Sibling sections share one build."""
    pairs: list = [{} for _ in range(frame.arity)]
    if frame.rows:
        for i in range(1, frame.arity):
            for t in closure_project(frame.rows, phi, (0, i)):
                pairs[i].setdefault(t[0], {})[t[i]] = t
    return pairs, frame.prefix_groups()


def _fix_first(frame: Frame, phi: MaltsevOp, a: int, index: Optional[tuple] = None) -> Frame:
    """Frame for the section "first coordinate pinned to a", one arity lower.

    For each later position, the pair closure with position 0 supplies one
    tuple through (a, b) per reachable value b; a shared-prefix class either
    meets the section wholly or not at all, and one phi application moves
    each class witness onto the prefix of the class's in-section tuple.
    `index` is the frame's _pair_index, built here when not given; callers
    pinning several values of one frame pass one index to all of them.
    """
    n = frame.arity
    if n < 1:
        raise ValueError("nothing to pin in an arity-0 frame")
    if frame.is_empty() or (a, 0) not in frame.witness:
        return empty_frame(n - 1)
    if n == 1:
        return Frame(0, ((),), {})
    pairs, groups = index if index is not None else _pair_index(frame, phi)
    rows: list = []
    seen: dict = {}
    witness: dict = {}
    for i in range(1, n):
        present = pairs[i].get(a, {})
        for members in groups[i].values():
            hit = sorted(b for b in members if b in present)
            if not hit:
                continue
            t_ab = present[hit[0]]
            g = frame.witness_row(hit[0], i)
            for c in sorted(members):
                if c == hit[0]:
                    w = t_ab[1:]
                else:
                    h = frame.witness_row(c, i)
                    w = apply(phi, t_ab, g, h)[1:]
                k = seen.get(w)
                if k is None:
                    k = len(rows)
                    rows.append(w)
                    seen[w] = k
                witness[(c, i - 1)] = k
    return Frame(n - 1, rows, witness)


def fix_prefix(frame: Frame, phi: MaltsevOp, values: Sequence[int]) -> Frame:
    """Frame for the relation with its first len(values) coordinates pinned,
    over the remaining coordinates. Empty iff no extension exists."""
    g = frame
    for a in values:
        g = _fix_first(g, phi, a)
    return g


class SectionCache:
    """Memoized prefix sections of one fixed frame.

    Counting and congruence computations pin many nested prefixes of the
    same frame; caching by prefix builds each section once, and caching the
    pair index of each cached section lets all of its child sections share
    one set of pair closures. One count shares one cache between its
    congruences and their pinned add_constraint calls.
    """

    def __init__(self, frame: Frame, phi: MaltsevOp):
        self.frame = frame
        self.phi = phi
        self._cache: dict = {(): frame}
        self._index: dict = {}

    def get(self, values: Sequence[int]) -> Frame:
        values = tuple(values)
        cache = self._cache
        k = len(values)
        while values[:k] not in cache:
            k -= 1
        f = cache[values[:k]]
        for m in range(k, len(values)):
            index = self._index.get(values[:m])
            if index is None:
                index = self._index[values[:m]] = _pair_index(f, self.phi)
            f = _fix_first(f, self.phi, values[m], index)
            cache[values[:m + 1]] = f
        return f

    def check(self, frame: Frame, phi: MaltsevOp) -> None:
        """Raise ValueError unless this cache holds sections of frame under
        phi."""
        if self.frame is not frame or self.phi is not phi:
            raise ValueError("the section cache was built for another frame or operation")


def collapse_scope(relation: Relation, scope: Sequence[int]):
    """Replace repeated scope variables by intersecting with the diagonal:
    the result has distinct variables (in order of first occurrence) and may
    be empty."""
    scope = tuple(scope)
    if len(scope) != relation.arity:
        raise ValueError("scope length does not match relation arity")
    if len(set(scope)) == len(scope):
        return relation, scope
    distinct: list = []
    for v in scope:
        if v not in distinct:
            distinct.append(v)
    pos = {v: k for k, v in enumerate(distinct)}
    kept = []
    for t in relation:
        img: list = [None] * len(distinct)
        ok = True
        for v, x in zip(scope, t):
            k = pos[v]
            if img[k] is None:
                img[k] = x
            elif img[k] != x:
                ok = False
                break
        if ok:
            kept.append(tuple(img))
    return Relation(len(distinct), kept), tuple(distinct)


def add_constraint(
    frame: Frame,
    phi: MaltsevOp,
    relation: Relation,
    scope,
    sections: Optional[SectionCache] = None,
) -> Frame:
    """Small frame for (generated relation) AND relation(scope variables).

    Per position i: project the current relation onto scope + {i} and filter
    by the constraint to learn which position-i values survive, then pin the
    prefix of a surviving tuple and redo the filtered projection inside that
    section to harvest one whole shared-prefix class of the conjunction with
    common-prefix witnesses. Past the last scope variable the prefix already
    satisfies the constraint, so the class is the frame's own and its
    witnesses come from the frame's witness rows without a section. Repeats
    until every surviving value has a witness, then shrinks.

    `sections` is a SectionCache of this frame and phi to share with other
    callers (ValueError if it belongs to another frame or operation).
    """
    n = frame.arity
    relation, scope = collapse_scope(relation, scope)
    for v in scope:
        if not 0 <= v < n:
            raise ValueError("scope variable %d out of range" % v)
    if sections is not None:
        sections.check(frame, phi)
    if frame.is_empty() or not relation.tuples:
        return empty_frame(n)
    if sections is None:
        sections = SectionCache(frame, phi)
    scope_set = set(scope)
    last = max(scope)
    groups = frame.prefix_groups() if last < n - 1 else None
    rows: list = []
    seen: dict = {}
    witness: dict = {}
    for i in range(n):
        J = sorted(scope_set | {i})
        sat = sorted(
            t
            for t in closure_project(frame.rows, phi, J)
            if tuple(t[v] for v in scope) in relation
        )
        if not sat:
            return empty_frame(n)
        remaining = {t[i] for t in sat}
        while remaining:
            t = next(tt for tt in sat if tt[i] in remaining)
            found: dict = {}
            if i > last:
                g = frame.witness_row(t[i], i)
                for members in groups[i].values():
                    if t[i] in members:
                        for b in members:
                            found[b] = apply(phi, t, g, frame.witness_row(b, i))
                        break
            else:
                sec = sections.get(t[:i])
                Jp = sorted({v - i for v in scope_set if v >= i} | {0})
                prefix = t[:i]
                for s in closure_project(sec.rows, phi, Jp):
                    full = prefix + s
                    if s[0] not in found and tuple(full[v] for v in scope) in relation:
                        found[s[0]] = full
            if t[i] not in found:
                raise ValueError("inputs violate the frame invariants")
            for a in sorted(found):
                w = found[a]
                k = seen.get(w)
                if k is None:
                    k = len(rows)
                    rows.append(w)
                    seen[w] = k
                witness[(a, i)] = k
            remaining -= set(found)
    return shrink_to_small(Frame(n, rows, witness), phi)


def add_constraint_split(frame: Frame, phi: MaltsevOp, relation: Relation, scope) -> Frame:
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


def build_frame(structure, phi: MaltsevOp, instance: Instance, split: bool = False) -> Frame:
    """Small frame for the instance's solution set, built one constraint at
    a time in file order."""
    n = instance.num_vars
    if n == 0:
        return Frame(0, ((),), {})
    f = initial_frame(n, structure.domain_size)
    add = add_constraint_split if split else add_constraint
    for name, scope in instance.constraints:
        f = add(f, phi, structure.relation(name), scope)
        if f.is_empty():
            return f
    return f


def dump(frame: Frame) -> str:
    """Textual form: a header, the rows, then the witness triples.

    Positions are 0-based and row indices refer to the emitted row order.
    """
    lines = ["frame n=%d rows=%d" % (frame.arity, len(frame.rows))]
    for r in frame.rows:
        lines.append(" ".join(str(v) for v in r))
    for (a, i), k in sorted(frame.witness.items(), key=lambda kv: (kv[0][1], kv[0][0])):
        lines.append("witness a=%d i=%d row=%d" % (a, i, k))
    return "\n".join(lines) + "\n"
