"""Compact generating sets ("frames") for Mal'tsev-closed solution sets.

A constraint formula over a language preserved by a Mal'tsev operation phi
has a solution set R closed under coordinatewise phi. R can be exponentially
large, but it is always generated under phi by a frame: a sub-relation F
that (a) hits every value of every coordinate projection of R, and (b) for
each position i carries, per class of the "shares a length-i prefix in R"
equivalence, witness rows with one common prefix. Frames support linear-time
membership tests and can be rebuilt after conjoining one more constraint,
which is how build_frame processes a whole instance without ever
materializing R. Its frame grows as variables appear: a variable no
constraint has touched yet is a free coordinate, which needs no closure, so
build_frame keeps the frame over the touched variables only and inserts a
free coordinate when a constraint first mentions one. It chooses the order
in which constraints are added (fewest distinct variables first, then
highest variable first), whatever order the instance lists them in, so
each addition reaches few positions past its scope. An addition reads
the conjunction only up to its last scope position, off the frame's head
there, a frame of the projection onto those positions: span's level walk
of the head, capped at q^|J| tuples for a scope J, gives the projection
and its classes, and only a walk past the cap pins sections on the head
and closes the scope inside them. The rows it takes are lifted back to
full rows by the witness walk.

Positions are 0-based throughout. A frame's witness maps (value, position)
to a row index.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Mapping, Optional, Sequence

from .maltsev import MaltsevOp, apply, encode
from .relations import Instance, Partition, Relation, collapse_scope


class Frame:
    """Rows of a generating sub-relation plus the witness map.

    The empty frame (no rows) generates the empty relation; an arity-0 frame
    with one empty row represents the relation containing the empty tuple.
    Frames are never mutated, so their shared-prefix groups are computed at
    most once. `rows` may be a dict from row to index built in index order,
    as the frame builders intern their rows.
    """

    __slots__ = ("arity", "rows", "witness", "_groups")

    def __init__(self, arity: int, rows: Iterable[tuple], witness: Mapping):
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
        self._groups = None

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
        over the witness map on the first call, kept for later ones."""
        if self._groups is None:
            groups: list = [{} for _ in range(self.arity)]
            rows = self.rows
            for (a, i), k in self.witness.items():
                groups[i].setdefault(rows[k][:i], []).append(a)
            self._groups = groups
        return self._groups

    def position_classes(self, i: int) -> Partition:
        """Classes of the shared-prefix equivalence at position i, read off
        the witness map (equivalent values carry identical witness prefixes)."""
        if not 0 <= i < self.arity:
            raise ValueError("position out of range")
        return Partition.from_classes(self.prefix_groups()[i].values())

    def __repr__(self) -> str:
        return "Frame(arity=%d, rows=%d)" % (self.arity, len(self.rows))


def empty_frame(arity: int) -> Frame:
    return Frame(arity, (), {})


def closure_project(rows: Iterable[tuple], phi: MaltsevOp, indices) -> list:
    """Close a tuple set under phi, tracking only the projection onto the
    given positions; returns full tuples, one per projection value reached.

    Coordinatewise application commutes with projection, so the loop runs on
    the projected tuples and applies phi to a full carrier only when a new
    projection appears. Seeds are deduplicated on the projection (first one
    kept), and the loop stops early once all q^|indices| projections exist.
    The projection of the result equals the projection of the full closure.

    Projections are packed into base-q codes (maltsev.encode), and phi on
    them is one lookup in phi.power_table(|indices|). Triples of found codes
    are tried in a fixed order: for each newest index j1 = 1, 2, ... and
    each j2 < j1, every j3 < j2 in all six arrangements of (j1, j2, j3),
    then (j2, j1, j2); after the j2 loop, every (j1, j3, j1) with j3 < j1.
    An arrangement whose middle index repeats an outer one is skipped:
    phi(x, x, y) = y and phi(y, x, x) = y find nothing new.
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
    q = phi.q
    Q = q ** len(idx)
    full: list = []
    codes: list = []
    seen: set = set()
    for t in rows:
        c = encode([t[i] for i in idx], q)
        if c not in seen:
            seen.add(c)
            full.append(tuple(t))
            codes.append(c)
            if len(codes) == Q:
                return full

    def grow(u: int, k1: int, k2: int, k3: int) -> bool:
        seen.add(u)
        full.append(apply(phi, full[k1], full[k2], full[k3]))
        codes.append(u)
        return len(codes) == Q

    # the docstring's order; the loop also reaches the codes it appends
    j1 = 1
    while j1 < len(codes):
        x1 = codes[j1]
        for j2 in range(j1):
            x2 = codes[j2]
            for j3 in range(j2):
                x3 = codes[j3]
                u = table[(x1 * Q + x2) * Q + x3]
                if u not in seen and grow(u, j1, j2, j3):
                    return full
                u = table[(x1 * Q + x3) * Q + x2]
                if u not in seen and grow(u, j1, j3, j2):
                    return full
                u = table[(x2 * Q + x1) * Q + x3]
                if u not in seen and grow(u, j2, j1, j3):
                    return full
                u = table[(x2 * Q + x3) * Q + x1]
                if u not in seen and grow(u, j2, j3, j1):
                    return full
                u = table[(x3 * Q + x1) * Q + x2]
                if u not in seen and grow(u, j3, j1, j2):
                    return full
                u = table[(x3 * Q + x2) * Q + x1]
                if u not in seen and grow(u, j3, j2, j1):
                    return full
            u = table[(x2 * Q + x1) * Q + x2]
            if u not in seen and grow(u, j2, j1, j2):
                return full
        for j3 in range(j1):
            u = table[(x1 * Q + codes[j3]) * Q + x1]
            if u not in seen and grow(u, j1, j3, j1):
                return full
        j1 += 1
    return full


def _swap_in(frame: Frame, phi: MaltsevOp, t: tuple, i: int, values) -> dict:
    """The exchange step of every witness walk: each b of `values`, which
    share t[i]'s shared-prefix class at i, mapped to a tuple of the
    generated relation with b at i and t's i-prefix. That is t itself for
    b == t[i], else phi(t, w(t[i]), w(b)) for witness rows w: the two
    witnesses agree on [:i], so phi keeps t there, and at i it gives b."""
    a = t[i]
    g = frame.witness_row(a, i)
    out: dict = {}
    for b in values:
        out[b] = t if b == a else apply(phi, t, g, frame.witness_row(b, i))
    return out


def span(frame: Frame, phi: MaltsevOp) -> Relation:
    """Materialize the generated relation. Exponential in general; meant for
    small frames, demos, and tests.

    Walks the witness map as member does, one position at a time, keeping
    one tuple per distinct prefix: the extensions at i of a prefix carried by
    a tuple t are the shared-prefix class of t[i], and one phi application
    with the witnesses of t[i] and b swaps b in at i without disturbing the
    prefix. That is one phi application per prefix, O(|R| n) in all. Like
    member, it reads the relation off the witness map, so it relies on the
    frame invariants; a value reached without a witness raises ValueError.
    """
    if frame.arity < 1:
        raise ValueError("span needs positive arity")
    return Relation(frame.arity, _levels(frame, phi))


def _levels(frame: Frame, phi: MaltsevOp, cap: Optional[int] = None) -> Optional[list]:
    """span's level walk: the generated relation as a list, one tuple per
    prefix at each level, or None as soon as a level holds more than `cap`
    tuples."""
    level = [frame.witness_row(a, 0) for a in frame.projection(0)]
    for i in range(1, frame.arity):
        class_of = {a: cls for cls in frame.prefix_groups()[i].values() for a in cls}
        nxt = []
        for t in level:
            if (t[i], i) not in frame.witness:
                raise ValueError("no witness for value %r at position %d" % (t[i], i))
            nxt.extend(_swap_in(frame, phi, t, i, class_of[t[i]]).values())
        if cap is not None and len(nxt) > cap:
            return None
        level = nxt
    return level


def _insert_free(frame: Frame, p: int, q: int) -> Frame:
    """Frame of the generated relation with a free coordinate inserted at
    position p (the relation times D, the new factor at p).

    Every row gets 0 at p, and row 0 with a at p is added for each a != 0;
    the witnesses at p are row 0 and these rows, so they share row 0's
    prefix. Later witness positions shift by one and keep their classes,
    because every row has the same value at p. An empty frame stays empty.
    """
    n = frame.arity
    if not 0 <= p <= n:
        raise ValueError("insertion position %d out of range" % p)
    if frame.is_empty():
        return empty_frame(n + 1)
    rows = [r[:p] + (0,) + r[p:] for r in frame.rows]
    base = rows[0]
    witness = {(a, i + (i >= p)): k for (a, i), k in frame.witness.items()}
    witness[(0, p)] = 0
    for a in range(1, q):
        witness[(a, p)] = len(rows)
        rows.append(base[:p] + (a,) + base[p + 1:])
    return Frame(n + 1, rows, witness)


def initial_frame(n: int, q: int) -> Frame:
    """Frame of the full relation D^n: the all-zero row plus one row per
    (position, nonzero value) pair; size n(q-1)+1. It is n free coordinates
    inserted at the end of the arity-0 frame."""
    if n < 1 or q < 1:
        raise ValueError("need n >= 1 and q >= 1")
    f = Frame(0, ((),), {})
    for p in range(n):
        f = _insert_free(f, p, q)
    return f


def _lift(frame: Frame, phi: MaltsevOp, prefix: tuple) -> Optional[tuple]:
    """A tuple of the generated relation that starts with `prefix`, or None
    if there is none: the witness-walk scan.

    Keeps a generated tuple agreeing with the prefix on a growing head; at
    each position the two witness rows of the current value and the target
    value share a prefix exactly when the values are exchangeable there, and
    one phi application swaps the target value in without disturbing the
    head. The empty prefix lifts to the first row.
    """
    if not frame.rows:
        return None
    w = frame.witness
    k = w.get((prefix[0], 0)) if prefix else 0
    if k is None:
        return None
    cur = frame.rows[k]
    for i in range(1, len(prefix)):
        a = prefix[i]
        if cur[i] == a:
            continue
        ka = w.get((a, i))
        kc = w.get((cur[i], i))
        if ka is None or kc is None:
            return None
        wa = frame.rows[ka]
        wc = frame.rows[kc]
        if wa[:i] != wc[:i]:
            return None
        cur = apply(phi, cur, wc, wa)
    return cur


def member(frame: Frame, phi: MaltsevOp, t: Sequence[int]) -> bool:
    """Membership in the generated relation: whether t lifts (_lift) as a
    whole."""
    t = tuple(t)
    if len(t) != frame.arity:
        raise ValueError("tuple arity mismatch")
    return _lift(frame, phi, t) is not None


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
    rows: dict = {f: 0}  # row -> index, in index order
    witness: dict = {}
    groups = frame.prefix_groups()
    for i in range(n):
        pivot_prefix = frame.witness_row(f[i], i)[:i]
        for prefix, members in groups[i].items():
            if prefix == pivot_prefix:
                for a, row in _swap_in(frame, phi, f, i, sorted(members)).items():
                    witness[(a, i)] = rows.setdefault(row, len(rows))
            else:
                for a in sorted(members):
                    witness[(a, i)] = rows.setdefault(frame.witness_row(a, i), len(rows))
    return Frame(n, rows, witness)


def _walk(frame: Frame, phi: MaltsevOp, rows: dict, witness: dict, start: int):
    """Witness every value at positions >= start of a phi-closed part R' of
    the generated relation whose classes there are whole classes of the
    frame. `rows` (a dict used as an ordered set) holds rows of R' that
    witness it below start, so it generates R' there, and its closure onto
    the single index i meets every class of R' at i; each closure tuple
    with an unwitnessed value brings in its frame class by one _swap_in.
    Newest rows go first, as their prefixes are the ones pinned already."""
    groups = frame.prefix_groups()
    for i in range(start, frame.arity):
        for t in closure_project([*reversed(rows)], phi, (i,)):
            if (t[i], i) in witness:
                continue
            k = frame.witness.get((t[i], i))
            if k is None:
                raise ValueError("inputs violate the frame invariants")
            cls = groups[i][frame.rows[k][:i]]
            for b, u in _swap_in(frame, phi, t, i, cls).items():
                witness[(b, i)] = rows.setdefault(u, len(rows))


def _fix_first(frame: Frame, phi: MaltsevOp, a: int) -> Frame:
    """Frame for the section "first coordinate pinned to a", one arity lower.

    The witness walk from a's witness row at position 0, then coordinate 0
    dropped: by add_constraint's argument past a scope, with the constraint
    x0 = a, a later class meets the section wholly or not at all.
    """
    n = frame.arity
    if n < 1:
        raise ValueError("nothing to pin in an arity-0 frame")
    if (a, 0) not in frame.witness:
        return empty_frame(n - 1)
    seed = frame.witness_row(a, 0)
    rows: dict = {seed: 0}  # row -> index, in index order
    witness: dict = {}
    _walk(frame, phi, rows, witness, 1)
    return Frame(n - 1, (r[1:] for r in rows), {(b, i - 1): k for (b, i), k in witness.items()})


def fix_prefix(frame: Frame, phi: MaltsevOp, values: Sequence[int]) -> Frame:
    """Frame for the relation with its first len(values) coordinates pinned,
    over the remaining coordinates. Empty iff no extension exists."""
    return SectionCache(frame, phi).get(values)


class SectionCache:
    """Memoized prefix sections of one fixed frame: the only way a section
    is pinned.

    Counting and congruence computations pin many nested prefixes of the
    same frame; caching by prefix builds each section once, from its parent
    by one witness walk. One count shares one cache among all of its
    congruences, which read both classes off the sections' witness maps;
    add_constraint reads the sections too.
    """

    def __init__(self, frame: Frame, phi: MaltsevOp):
        self.frame = frame
        self.phi = phi
        self._cache: dict = {(): frame}

    def get(self, values: Sequence[int]) -> Frame:
        values = tuple(values)
        cache = self._cache
        f = cache.get(values)
        if f is not None:
            return f
        k = len(values) - 1
        while values[:k] not in cache:
            k -= 1
        f = cache[values[:k]]
        for m in range(k, len(values)):
            f = _fix_first(f, self.phi, values[m])
            cache[values[:m + 1]] = f
        return f


def add_constraint(frame: Frame, phi: MaltsevOp, relation: Relation, scope) -> Frame:
    """Small frame for (generated relation) AND relation(scope variables).

    Up to the last scope variable the conjunction is read off the frame's
    head, its rows cut after that variable and its witnesses up to it: the
    frame invariants at position i concern positions up to i only, so the
    head is a frame of the projection onto those positions. A head row with
    an unwitnessed value raises ValueError. span's level walk of the head,
    kept to the tuples whose scope values satisfy the constraint, is the
    conjunction's projection there; none kept means no solution. At each
    position i the kept tuples with one i-prefix carry a whole class of the
    conjunction (rectangularity), and the walk lists them together, so the
    first kept tuple with each value at i witnesses it, and a class's
    witnesses share a prefix. Every witnessing head row is lifted back to a
    row of the frame by the witness walk (_lift).

    The walk stops once a level holds more than q^|J| tuples, J the scope;
    no level does when J is all of 0..last. Then classes are harvested on
    the head's sections: the filtered closure of the section at a prefix,
    onto its first position and the scope, gives one tuple per value there.
    The harvest at the empty prefix takes all of position 0, or finds no
    solution. At each later position, one-index closures of the rows taken
    so far meet every class of the conjunction (see _walk), and each such
    tuple t with an unwitnessed value t[i] has its prefix pinned and
    harvested, which takes t[i]'s class.

    Past the last scope variable the surviving classes are the frame's own:
    if p.b.. and p.b'.. are in R and p'.b.. satisfies the constraint, so
    does phi(p'.b.., p.b.., p.b'..) = p'.b'... So the rest is _walk,
    without sections. Then shrinks.
    """
    n = frame.arity
    relation, scope = collapse_scope(relation, scope)
    for v in scope:
        if not 0 <= v < n:
            raise ValueError("scope variable %d out of range" % v)
    if frame.is_empty() or not relation.tuples:
        return empty_frame(n)
    J = sorted(scope)
    last = J[-1]
    head = frame
    if last + 1 < n:
        head = Frame(
            last + 1,
            (r[:last + 1] for r in frame.rows),
            {(a, i): k for (a, i), k in frame.witness.items() if i <= last},
        )
    if any((a, i) not in head.witness for r in head.rows for i, a in enumerate(r)):
        raise ValueError("inputs violate the frame invariants")
    rows: dict = {}  # row -> index, in index order
    witness: dict = {}

    def take(h: tuple, i: int) -> None:
        row = h if head is frame else _lift(frame, phi, h)
        if row is None:
            raise ValueError("inputs violate the frame invariants")
        witness[(h[i], i)] = rows.setdefault(row, len(rows))

    try:
        level = _levels(head, phi, phi.q ** len(J))
    except ValueError:
        raise ValueError("inputs violate the frame invariants") from None
    if level is not None:
        kept = [h for h in level if tuple(h[v] for v in scope) in relation]
        if not kept:
            return empty_frame(n)
        for i in range(last + 1):
            for h in kept:
                if (h[i], i) not in witness:
                    take(h, i)
    else:
        sections = SectionCache(head, phi)

        def harvest(prefix: tuple) -> dict:
            # the filtered closure inside the section at prefix, onto its
            # first position and the scope: one tuple per value at len(prefix)
            i = len(prefix)
            found: dict = {}
            Jp = sorted({v - i for v in J if v >= i} | {0})
            for s in closure_project(sections.get(prefix).rows, phi, Jp):
                full = prefix + s
                if s[0] not in found and tuple(full[v] for v in scope) in relation:
                    found[s[0]] = full
            for a in sorted(found):
                take(found[a], i)
            return found

        if not harvest(()):
            return empty_frame(n)
        for i in range(1, last + 1):
            for t in closure_project([*reversed(rows)], phi, (i,)):
                if (t[i], i) not in witness and t[i] not in harvest(t[:i]):
                    raise ValueError("inputs violate the frame invariants")
    _walk(frame, phi, rows, witness, last + 1)
    return shrink_to_small(Frame(n, rows, witness), phi)


def build_frame(structure, phi: MaltsevOp, instance: Instance) -> Frame:
    """Small frame for the instance's solution set, built one constraint at
    a time.

    Every constraint is resolved by structure.resolve before any frame work,
    so the first unknown name (UnknownRelationError) or scope of the wrong
    length (ValueError) raises whatever the other constraints say. The
    constraints then go in fewest distinct variables first, then highest
    variable first, ties in the instance's order: unary constraints and
    folded repeats come first, and a banded instance is added from its high
    end, so each constraint reaches few positions after its scope.

    The frame grows as variables appear: it is kept over the sorted list of
    variables that some constraint has touched so far, starting from the
    arity-0 frame, and a free coordinate is inserted at a variable's sorted
    position when a constraint first mentions it. Each constraint is added
    with its scope renumbered to positions in that list, so no closure or
    section runs over a variable no constraint has reached yet. Variables
    still untouched at the end are inserted the same way. An operation over
    a domain of another size raises ValueError.
    """
    n = instance.num_vars
    q = structure.domain_size
    if phi.q != q:
        raise ValueError(
            "operation is over %d elements, the structure over %d" % (phi.q, q)
        )
    constraints = sorted(
        structure.resolve(instance.constraints),
        key=lambda c: (len(set(c[1])), -max(c[1])),
    )
    touched: list = []
    f = Frame(0, ((),), {})
    for relation, scope in constraints:
        for v in sorted(set(scope)):
            p = bisect_left(touched, v)
            if p == len(touched) or touched[p] != v:
                touched.insert(p, v)
                f = _insert_free(f, p, q)
        pos = {v: k for k, v in enumerate(touched)}
        f = add_constraint(f, phi, relation, tuple(pos[v] for v in scope))
        if f.is_empty():
            return empty_frame(n)
    # all variables below v are in touched by now, so v belongs at position v
    for v in range(n):
        if len(touched) <= v or touched[v] != v:
            touched.insert(v, v)
            f = _insert_free(f, v, q)
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
