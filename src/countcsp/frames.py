"""Compact generating sets ("frames") for Mal'tsev-closed solution sets.

A constraint formula over a language preserved by a Mal'tsev operation phi
has a solution set R closed under coordinatewise phi. R can be exponentially
large, but it is always generated under phi by a frame: a sub-relation F
that (a) hits every value of every coordinate projection of R, and (b) for
each position i carries, per class of the "shares a length-i prefix in R"
equivalence, witness rows with one common prefix. Frames support linear-time
membership tests and can be rebuilt after conjoining one more constraint,
which is how an instance is built without ever materializing R.

A solution set is the product of its connected components' solution sets,
and the frame of a product is its factors' frames side by side (_product),
so count and build_frame share one builder, _component_frames: a variable
is a free coordinate until a constraint mentions it, and each constraint is
added to the product of the components its scope meets and its new
variables, fewest distinct variables first, then highest variable first,
whatever order the instance lists them in, so each addition reaches few
positions past its scope. An addition reads its scope off span's level
walk of the frame, capped at q^|J| tuples for a scope J, and pins sections
on the frame only past the cap. Past the scope, as in every section, its
rows come from one witness walk (_walk), which keeps a frame within
n(q-1)+1 rows by construction: no frame is shrunk after it is built.
For count only, the builder also drops each component's closed tail of
equal class sizes (_closed_tail) before the next constraint meets it, so a
banded instance is built on frames about as wide as its band; build_frame
keeps every position.

Each builder step, one _product of the components a constraint's scope
meets and of its new variables, then one add_constraint, gives a frame
that depends on phi, the relation, the scope positions, the new
component's size and each met component's positions and frame (arity,
rows in order, witness map in order) only. Order counts: the witness
map's order sets the order of later rows through prefix_groups. The
builder keeps each step's frame on the constraint's Relation under that
key (_step_key), and a later step with an equal key, in any instance over
the relation, takes the kept frame and builds nothing; a step that meets
no component is the case of no met frames. Memory is bounded per
relation: its cache (_Steps) holds at most _STEP_BUDGET frame cells, rows
times arity over its keys' frames and its kept frames, dropping its
oldest entries first, and a step whose met frames hold more than
_STEP_SHARE cells is neither looked up nor kept, so a long component is
built as it would be without the cache. The cache lives as long as the
Relation. Frames are never mutated, so a frame may be shared:
build_frame can return one kept this way, as it can return _free(q)'s. A
shared frame's witness map is read-only (_shared), so a caller that tries
to change one gets a TypeError rather than changing every later build
over the relation.

Positions are 0-based throughout. A frame's witness maps (value, position)
to a row index.
"""

from __future__ import annotations

import functools
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence

from .maltsev import MaltsevOp, apply
from .relations import (
    Instance,
    Partition,
    Relation,
    RelationalStructure,
    _require_int,
    _require_type,
    collapse_scope,
)


class Frame:
    """Rows of a generating sub-relation plus the witness map.

    The empty frame (no rows) generates the empty relation; an arity-0 frame
    with one empty row represents the relation containing the empty tuple.
    Frames are never mutated, so their shared-prefix groups are computed at
    most once, and a frame that several builds share has a read-only
    witness map and keeps no groups (_shared). `rows` may be a dict from row to index built in index order,
    as the frame builders intern their rows. `reach` is one more than the
    largest witnessed value: phi must act on range(reach).
    """

    __slots__ = ("arity", "rows", "witness", "reach", "_groups")

    def __init__(self, arity: int, rows: Iterable[tuple], witness: Mapping):
        _require_int(arity, "arity")
        if arity < 0:
            raise ValueError("arity must be nonnegative")
        # tuples built from lists, not generators: tuple(<generator>) sizes
        # its result by resizing, which fills CPython's tuple free lists
        rows = tuple([tuple(r) for r in rows])
        for r in rows:
            if len(r) != arity:
                raise ValueError("row %r does not have arity %d" % (r, arity))
        witness = dict(witness)
        reach = 0
        for (a, i), k in witness.items():
            if not 0 <= i < arity:
                raise ValueError("witness position %d out of range" % i)
            if not 0 <= k < len(rows):
                raise ValueError("witness row index %d out of range" % k)
            if rows[k][i] != a:
                raise ValueError("witness row for (%r, %d) has wrong value" % (a, i))
            if a >= reach:
                reach = a + 1
        self.arity = arity
        self.rows = rows
        self.witness = witness
        self.reach = reach
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
        over the witness map on the first call, kept for later ones unless
        the frame is shared (_shared), as a step cache may keep it as long
        as its relation lives."""
        groups = self._groups
        if groups is None:
            groups = [{} for _ in range(self.arity)]
            rows = self.rows
            for (a, i), k in self.witness.items():
                groups[i].setdefault(rows[k][:i], []).append(a)
            if type(self.witness) is dict:
                self._groups = groups
        return groups

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


def _check_reach(frame: Frame, phi: MaltsevOp) -> None:
    """A ValueError unless phi's domain holds every witnessed value."""
    if frame.reach > phi.q:
        raise ValueError(
            "operation is over %d elements, the frame over at least %d" % (phi.q, frame.reach)
        )


def closure_project(rows: Iterable[tuple], phi: MaltsevOp, indices) -> list:
    """Close a tuple set under phi, tracking only the projection onto the
    given positions; returns full tuples, one per projection value reached.

    Coordinatewise application commutes with projection, so the loop runs on
    the projected tuples, reading phi digit by digit off phi.table, and
    applies phi to a full carrier only when a new projection appears. Seeds
    are deduplicated on the projection (first one kept), and the loop stops
    early once all q^|indices| projections exist, though every seed is
    checked. The projection of the result equals the projection of the
    full closure.

    Triples of found projections are tried in a fixed order: for each newest
    index j1 = 1, 2, ... and each j2 < j1, every j3 < j2 in all six
    arrangements of (j1, j2, j3), then (j2, j1, j2); after the j2 loop,
    every (j1, j3, j1) with j3 < j1. An arrangement whose middle index
    repeats an outer one is skipped: phi(x, x, y) = y and phi(y, x, x) = y
    find nothing new.
    An index that is negative or not below the first row's length, a seed
    of another length than the first, or a seed value outside range(q) at
    an index, raises ValueError.
    """
    idx = set(indices)
    for i in idx:
        _require_int(i, "projection index")
    idx = tuple(sorted(idx))
    if not idx:
        raise ValueError("need at least one projection index")
    if not isinstance(rows, (list, tuple)):
        rows = list(rows)
    n = len(rows[0]) if rows else 0
    if idx[0] < 0 or (rows and idx[-1] >= n):
        raise ValueError("projection indices %r out of range" % (idx,))
    table = phi.table
    q = phi.q
    Q = q ** len(idx)
    domain = frozenset(range(q))
    full: list = []
    proj: list = []
    seen: set = set()
    for t in rows:
        if len(t) != n:
            raise ValueError("seed %r does not have length %d" % (t, n))
        p = tuple([t[i] for i in idx])
        if not domain.issuperset(p):
            raise ValueError("seed %r has a value outside range(%d) at %r" % (t, q, idx))
        if p not in seen:
            seen.add(p)
            full.append(tuple(t))
            proj.append(p)
    if len(proj) == Q:
        return full

    def grow(k1: int, k2: int, k3: int) -> bool:
        u = tuple([table[(x * q + y) * q + z] for x, y, z in zip(proj[k1], proj[k2], proj[k3])])
        if u in seen:
            return False
        seen.add(u)
        full.append(apply(phi, full[k1], full[k2], full[k3]))
        proj.append(u)
        return len(proj) == Q

    # the docstring's order; the loop also reaches the projections it appends
    j1 = 1
    while j1 < len(proj):
        for j2 in range(j1):
            for j3 in range(j2):
                if (
                    grow(j1, j2, j3)
                    or grow(j1, j3, j2)
                    or grow(j2, j1, j3)
                    or grow(j2, j3, j1)
                    or grow(j3, j1, j2)
                    or grow(j3, j2, j1)
                ):
                    return full
            if grow(j2, j1, j2):
                return full
        for j3 in range(j1):
            if grow(j1, j3, j1):
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
    return Relation(frame.arity, _levels(frame, phi, frame.arity))


def _levels(frame: Frame, phi: MaltsevOp, stop: int, cap: Optional[int] = None) -> Optional[list]:
    """span's level walk over positions 0..stop-1: tuples of the generated
    relation, one per stop-prefix, or None once a level holds more than
    `cap` tuples. A value reached without a witness raises ValueError."""
    _check_reach(frame, phi)
    level = [frame.witness_row(a, 0) for a in frame.projection(0)]
    groups = frame.prefix_groups()
    for i in range(1, stop):
        class_of = {a: cls for cls in groups[i].values() for a in cls}
        nxt = []
        for t in level:
            if (t[i], i) not in frame.witness:
                raise ValueError("no witness for (%r, %d): frame invariants violated" % (t[i], i))
            nxt.extend(_swap_in(frame, phi, t, i, class_of[t[i]]).values())
        if cap is not None and len(nxt) > cap:
            return None
        level = nxt
    return level


# One (value, position) tuple per pair, for the witness maps of all shared
# frames: at most q (the largest in use) times the widest shared frame's
# arity, which is at most _STEP_SHARE plus a relation's arity, as a step
# cache keeps no step whose met frames hold more than _STEP_SHARE cells.
_PAIRS: dict = {}


def _shared(frame: Frame) -> Frame:
    """`frame`, its witness map made read-only and its (value, position)
    keys interned, before several builds share it; it keeps no
    prefix_groups from now on."""
    pairs = _PAIRS
    frame.witness = MappingProxyType({pairs.setdefault(ai, ai): k for ai, k in frame.witness.items()})
    frame._groups = None
    return frame


@functools.lru_cache(maxsize=16)
def _free(q: int) -> Frame:
    """Frame of D itself, one free coordinate: one row per value. Frames
    are never mutated, so one frame per q serves every build."""
    return _shared(Frame(1, ((a,) for a in range(q)), {(a, 0): a for a in range(q)}))


def _product(parts: Sequence, n: int) -> Frame:
    """Frame of the product of `parts`, (positions, frame) pairs whose
    ascending positions share out range(n). One part is returned as it is;
    an empty part makes the product empty.

    Row 0 puts every part's row 0 in place. Each later row of a part is
    that row with every other part's row 0 around it, parts in the order
    given, and every witness keeps its row. A class of the product is a
    class of its part, and its witness rows carry the same rows 0
    elsewhere, so they share the product's prefix.
    """
    if len(parts) == 1:
        return parts[0][1]
    if any(f.is_empty() for _, f in parts):
        return empty_frame(n)
    base = [0] * n
    for pos, f in parts:
        for p, a in zip(pos, f.rows[0]):
            base[p] = a
    rows = [tuple(base)]
    witness: dict = {}
    for pos, f in parts:
        index = [0]
        for r in f.rows[1:]:
            row = base[:]
            for p, a in zip(pos, r):
                row[p] = a
            index.append(len(rows))
            rows.append(tuple(row))
        for (a, i), k in f.witness.items():
            witness[(a, pos[i])] = index[k]
    return Frame(n, rows, witness)


def initial_frame(n: int, q: int) -> Frame:
    """Frame of the full relation D^n: the all-zero row plus one row per
    (position, nonzero value) pair; size n(q-1)+1. It is the product of n
    free coordinates."""
    _require_int(n, "n")
    _require_int(q, "q")
    if n < 1 or q < 1:
        raise ValueError("need n >= 1 and q >= 1")
    free = _free(q)
    return _product([((p,), free) for p in range(n)], n)


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
    _check_reach(frame, phi)
    return _lift(frame, phi, t) is not None


def shrink_to_small(frame: Frame, phi: MaltsevOp) -> Frame:
    """Same generated relation, at most n(q-1)+1 rows: the witness walk
    (_walk) from the frame's first row. No builder calls it, as each one
    builds its frame by that walk already."""
    if frame.is_empty():
        return frame
    rows, witness = _walk(frame, phi, {frame.rows[0]: 0}, {}, 0)
    return Frame(frame.arity, rows, witness)


def _walk(frame: Frame, phi: MaltsevOp, rows: dict, witness: dict, start: int) -> tuple:
    """Witness every value at positions >= start of a phi-closed part R' of
    the generated relation whose classes there are whole classes of the
    frame. `rows` (a dict used as an ordered set) holds rows of R' that
    witness it below start (one row will do at start 0), so its closure
    onto the single index i meets every class of R' at i; each closure
    tuple with an unwitnessed value brings in its frame class by one
    _swap_in. Newest rows go first, as their prefixes are pinned already.
    Returns rows and witness, both grown in place.

    This keeps every frame small. The first closure tuple at each position
    is the newest row, whose value _swap_in witnesses by that row itself,
    and each other value takes at most one new row. add_constraint reuses a
    row alike up to its scope's last position (the level walk's first kept
    tuple, or the closure tuple by which the fallback reaches a class). So
    every frame has at most |proj_0| + sum_{i>=1} (|proj_i| - 1) <= n(q-1)+1
    rows."""
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
    return rows, witness


def _fix_first(frame: Frame, phi: MaltsevOp, a: int) -> Frame:
    """Frame for the section "first coordinate pinned to a", one arity lower.

    The witness walk from a's witness row at position 0, then coordinate 0
    dropped: by add_constraint's argument past a scope, with the constraint
    x0 = a, a later class meets the section wholly or not at all. The
    frame has positive arity: SectionCache.get pins no more positions than
    its frame has.
    """
    n = frame.arity
    if (a, 0) not in frame.witness:
        return empty_frame(n - 1)
    rows, witness = _walk(frame, phi, {frame.witness_row(a, 0): 0}, {}, 1)
    return Frame(n - 1, (r[1:] for r in rows), {(b, i - 1): k for (b, i), k in witness.items()})


class SectionCache:
    """Memoized prefix sections of one fixed frame: the only way a section
    is pinned.

    Counting and congruence computations pin many nested prefixes of the
    same frame; caching by prefix builds each section once, from its parent
    by one witness walk. One count shares one cache among all of its
    congruences, which read both classes off the sections' witness maps;
    add_constraint reads the sections too. A frame or phi of another class
    raises TypeError.
    """

    def __init__(self, frame: Frame, phi: MaltsevOp):
        _require_type(frame, Frame, "frame")
        _require_type(phi, MaltsevOp, "phi")
        _check_reach(frame, phi)
        self.frame = frame
        self.phi = phi
        self._cache: dict = {(): frame}

    def get(self, values: Sequence[int]) -> Frame:
        """Frame for the relation with its first len(values) coordinates
        pinned to `values`, over the remaining coordinates; empty iff no
        extension exists. A prefix longer than the frame's arity, or a
        value that is not an int, raises ValueError when first pinned."""
        values = tuple(values)
        cache = self._cache
        f = cache.get(values)
        if f is not None:
            return f
        if len(values) > self.frame.arity:
            raise ValueError(
                "prefix of length %d for a frame of arity %d" % (len(values), self.frame.arity)
            )
        for v in values:
            _require_int(v, "prefix value")
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

    Up to the last scope variable the conjunction is read off the frame
    itself, whose invariants at position i concern positions up to i only;
    a row with an unwitnessed value up to there raises ValueError. span's
    level walk stopped there, kept to the tuples whose scope values
    satisfy the constraint, gives the conjunction's projection, each kept
    tuple a full row of it; none kept means no solution. At each position
    i the kept tuples with one i-prefix carry a whole class of the
    conjunction (rectangularity), and the walk lists them together, so the
    first kept tuple with each value at i witnesses it, and a class's
    witnesses share a prefix.

    The walk stops once a level holds more than q^|J| tuples, J the scope;
    no level does when J is all of 0..last. Then classes are harvested on
    the frame's sections: the filtered closure of the section at a prefix,
    onto its first position and the scope, gives one row per value there.
    The harvest at the empty prefix takes all of position 0, or finds no
    solution. At each later position, one-index closures of the rows taken
    so far meet every class of the conjunction (see _walk), and each such
    tuple t with an unwitnessed value t[i] has its prefix pinned and
    harvested, which takes t[i]'s class and witnesses t[i] by t itself.

    Past the last scope variable the surviving classes are the frame's own:
    if p.b.. and p.b'.. are in R and p'.b.. satisfies the constraint, so
    does phi(p'.b.., p.b.., p.b'..) = p'.b'... So the rest is _walk,
    without sections, and the frame the walks built is returned as it is.
    A frame, phi or relation of another class raises TypeError.
    """
    _require_type(frame, Frame, "frame")
    _require_type(phi, MaltsevOp, "phi")
    _require_type(relation, Relation, "relation")
    n = frame.arity
    relation, scope = collapse_scope(relation, scope)
    for v in scope:
        _require_int(v, "scope variable")
        if not 0 <= v < n:
            raise ValueError("scope variable %d out of range" % v)
    if frame.is_empty() or not relation.tuples:
        return empty_frame(n)
    J = sorted(scope)
    last = J[-1]
    if any((a, i) not in frame.witness for r in frame.rows for i, a in enumerate(r[:last + 1])):
        raise ValueError("inputs violate the frame invariants")
    rows: dict = {}  # row -> index, in index order
    witness: dict = {}
    level = _levels(frame, phi, last + 1, phi.q ** len(J))
    if level is not None:
        kept = [t for t in level if tuple([t[v] for v in scope]) in relation]
        if not kept:
            return empty_frame(n)
        for i in range(last + 1):
            for t in kept:
                if (t[i], i) not in witness:
                    witness[(t[i], i)] = rows.setdefault(t, len(rows))
    else:
        sections = SectionCache(frame, phi)

        def harvest(prefix: tuple, t: Optional[tuple] = None) -> dict:
            # the filtered closure inside the section at prefix, onto its
            # first position and the scope: a row per value there, t for t[i]
            i = len(prefix)
            found: dict = {}
            Jp = sorted({v - i for v in J if v >= i} | {0})
            for s in closure_project(sections.get(prefix).rows, phi, Jp):
                full = prefix + s
                if s[0] not in found and tuple([full[v] for v in scope]) in relation:
                    found[s[0]] = full
            if t is not None and t[i] in found:
                found[t[i]] = t
            for a in sorted(found):
                witness[(a, i)] = rows.setdefault(found[a], len(rows))
            return found

        if not harvest(()):
            return empty_frame(n)
        for i in range(1, last + 1):
            for t in closure_project([*reversed(rows)], phi, (i,)):
                if (t[i], i) not in witness and t[i] not in harvest(t[:i], t):
                    raise ValueError("inputs violate the frame invariants")
    _walk(frame, phi, rows, witness, last + 1)
    return Frame(n, rows, witness)


def _keep(frame: Frame, keep: Sequence[int]) -> Frame:
    """The frame over just the positions `keep`, ascending: its rows cut to
    them, equal cuts merged, and its witnesses there renumbered. The result
    generates the projection onto `keep` whenever every position dropped
    before a kept one has classes of one value (counting._cut) or every
    dropped position comes after the last kept one (a head of the frame)."""
    rows: dict = {}
    index = [rows.setdefault(tuple([r[p] for p in keep]), len(rows)) for r in frame.rows]
    at = {p: k for k, p in enumerate(keep)}
    witness = {(a, at[p]): index[k] for (a, p), k in frame.witness.items() if p in at}
    return Frame(len(keep), rows, witness)


def _closed_tail(frame: Frame, variables: tuple, last: dict, step: int) -> tuple:
    """(keep, c): the frame's positions up to its longest tail whose
    variables are closed (no constraint after `step` mentions them, by
    `last`) and whose shared-prefix classes at each position p have one
    size c_p, and c, the product of those c_p. The classes at p are read
    off the witnesses at p, one lookup per value, not off prefix_groups,
    which groups every position of the frame.

    Every prefix of the generated relation R cut before such a tail has
    exactly c extensions to the whole tail: by rectangularity the values
    that extend a p-prefix form one class at p. So |R| = c * |pr_keep R|,
    for any phi-closed R, balanced or not."""
    rows, witness = frame.rows, frame.witness
    keep = len(variables)
    c = 1
    while keep and last[variables[keep - 1]] < step:
        p = keep - 1
        sizes: dict = {}
        for a in range(frame.reach):
            k = witness.get((a, p))
            if k is not None:
                prefix = rows[k][:p]
                sizes[prefix] = sizes.get(prefix, 0) + 1
        size = set(sizes.values())
        if len(size) != 1:
            break
        c *= size.pop()
        keep -= 1
    return keep, c


# Each relation's step cache holds at most _STEP_BUDGET frame cells (rows
# times arity, over its keys' frames and its frames); a step whose met
# frames hold more than _STEP_SHARE cells is neither looked up nor stored.
_STEP_BUDGET = 1 << 14
_STEP_SHARE = _STEP_BUDGET >> 8


class _Steps:
    """One relation's step cache: key -> (frame, cells), oldest first, and
    the cells of all its entries, never above _STEP_BUDGET."""

    __slots__ = ("entries", "cells")

    def __init__(self):
        self.entries: dict = {}
        self.cells = 0

    def store(self, key: tuple, frame: Frame) -> None:
        """Keep `frame` under `key` (_step_key), read-only (_shared),
        dropping the oldest entries to stay within budget; an entry above it
        is not kept."""
        cells = key[0] + len(frame.rows) * frame.arity
        if cells > _STEP_BUDGET:
            return
        entries = self.entries
        while self.cells + cells > _STEP_BUDGET:
            self.cells -= entries.pop(next(iter(entries)))[1]
        entries[key] = (_shared(frame), cells)
        self.cells += cells


def _step_key(phi: MaltsevOp, at: tuple, n: int, parts: list) -> Optional[tuple]:
    """The step cache's key for adding a constraint at `at` to the product,
    over range(n), of `parts`, the met components' (positions, frame) pairs,
    and a free coordinate at each other position; None when the met frames
    hold more than _STEP_SHARE cells. One flat tuple: the met frames'
    cells, phi, n, the scope positions (as many as the relation's arity),
    then per met component its positions, its rows, and its witness map's
    keys then values, in order."""
    cells = 0
    for _, g in parts:
        cells += len(g.rows) * g.arity
    if cells > _STEP_SHARE:
        return None
    key = [cells, phi, n, *at]
    for p, g in parts:
        key += (p, g.rows, (*g.witness, *g.witness.values()))
    return tuple(key)


def _component_frames(
    structure, phi: MaltsevOp, instance: Instance, drop: bool = False
) -> Optional[tuple]:
    """(components, c): (variables, frame) for each connected component of
    the instance (two constraints meet when their scopes share a variable),
    by least variable, each frame over its variables in ascending order, and
    c = 1; None when some component has no solution.

    Every constraint is resolved by structure.resolve before any frame work,
    so the first unknown name or scope of the wrong length raises whatever
    the other constraints say. The constraints then go in fewest distinct
    variables first, then highest variable first, ties in the instance's
    order, so a banded instance is added from its high end and each
    constraint reaches few positions after its scope. A variable is a free
    coordinate of its own until a constraint mentions it: each constraint
    is added to the product of the components its scope meets, by least
    variable, and of its new variables, ascending. Each such step, one
    that meets no component included, takes its frame from the
    constraint's relation when an earlier step with an equal key kept one
    (_step_key, the module docstring), and otherwise keeps the frame it
    builds, within the relation's budget. An operation over a domain of
    another size raises ValueError.

    With drop=True, before a constraint's product each component it meets
    loses its longest closed tail of equal class sizes (_closed_tail), a
    variable being closed once no constraint still to be added mentions it.
    Later constraints never reach those variables, so the number of
    solutions is c times that of the kept variables: c is q per variable
    no constraint mentions times the product over all dropped tails. The
    components then hold their kept variables only, and a banded instance
    is built on frames about as wide as its band.

    A structure, phi or instance of another class raises TypeError before
    any frame is built or looked up.
    """
    _require_type(structure, RelationalStructure, "structure")
    _require_type(phi, MaltsevOp, "phi")
    _require_type(instance, Instance, "instance")
    q = structure.domain_size
    if phi.q != q:
        raise ValueError(
            "operation is over %d elements, the structure over %d" % (phi.q, q)
        )
    constraints = sorted(
        structure.resolve(instance.constraints),
        key=lambda c: (len(set(c[1])), -max(c[1])),
    )
    dropped = 1
    if drop:
        # variable -> index of the last constraint that mentions it; a
        # variable none mentions is a closed position with one class, D
        last = {v: k for k, (_, scope) in enumerate(constraints) for v in scope}
        dropped = q ** (instance.num_vars - len(last))
    free = _free(q)
    of: dict = {}  # variable -> (variables, frame) of its component
    for step, (relation, scope) in enumerate(constraints):
        met = sorted({id(of[v]): of[v] for v in scope if v in of}.values())
        if drop:
            for m, (vs, g) in enumerate(met):
                if last[vs[-1]] < step:
                    keep, c = _closed_tail(g, vs, last, step)
                    if keep < len(vs):
                        dropped *= c
                        for v in vs[keep:]:
                            del of[v]
                        met[m] = (vs[:keep], _keep(g, range(keep)))
        new = sorted({v for v in scope if v not in of})
        variables = tuple(sorted({v for vs, _ in met for v in vs}.union(new)))
        pos = {v: k for k, v in enumerate(variables)}
        at = tuple([pos[v] for v in scope])
        parts = [(tuple([pos[v] for v in vs]), g) for vs, g in met]
        key = _step_key(phi, at, len(variables), parts)
        steps = relation._frames
        if key is not None and steps is None:
            steps = relation._frames = _Steps()
        hit = None if key is None else steps.entries.get(key)
        if hit is not None:
            f = hit[0]
        else:
            f = _product(parts + [((pos[v],), free) for v in new], len(variables))
            f = add_constraint(f, phi, relation, at)
            if key is not None:
                steps.store(key, f)
        if f.is_empty():
            return None
        component = (variables, f)
        for v in variables:
            of[v] = component
    return sorted({id(c): c for c in of.values()}.values()), dropped


def build_frame(structure, phi: MaltsevOp, instance: Instance) -> Frame:
    """Small frame for the instance's solution set: the product of its
    connected components' frames (_component_frames), by least variable,
    and of one free coordinate per variable no constraint mentions,
    ascending; the empty frame if a component has no solution. Frames are
    never mutated, so the frame returned may be shared with other builds.
    Arguments of another class raise TypeError (_component_frames).
    """
    built = _component_frames(structure, phi, instance)
    n = instance.num_vars
    if built is None:
        return empty_frame(n)
    components, _ = built
    mentioned = {v for variables, _ in components for v in variables}
    free = _free(phi.q)
    return _product(components + [((v,), free) for v in range(n) if v not in mentioned], n)


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
