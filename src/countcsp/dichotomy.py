"""Deciding whether a constraint language supports tractable exact counting.

A language over a finite domain falls on the tractable side iff it is
preserved by a Mal'tsev operation and is balanced: every pairwise
solution-count matrix of every conjunctive formula is a rank-one block
matrix. Balance reduces to a finite automorphism test: for every quadruple
(a, b, c, d) with c != d, the sixth power of the structure must have an
automorphism fixing the pattern (a,a,a,b,b,b) and sending (c,c,d,d,d,c) to
(d,d,c,c,c,d).

The decision procedure runs three stages, cheapest first: Mal'tsev
detection, a direct search for an unbalanced count matrix among small
formulas (a fast disproof), and only then the full automorphism sweep.
Power-structure elements are integers encoding base-q digit strings
(big-endian, maltsev.encode); the power relations are never materialized.
The sweep grows its search order only as deep as the search reaches, and
keeps no tuples per element: a join digit by digit against the elements
placed so far finds each new element's closed tuples, those whose elements
are all placed. A candidate image is checked against a tuple with one AND
of packed per-digit masks, and the closed checks first narrow the values
each digit of the image may take. Each check is built once per context.

Positions are interchangeable when swapping them maps the relation onto
itself. A permutation within these classes maps the power relations onto
themselves too, so the check of the permuted tuple passes exactly when that
of the tuple does. The join takes tuples through an element only at the
least position of each class, one per orbit of its stabiliser: the one
whose values are non-decreasing within each class. That is up to 6 times
fewer checks for XOR3 and 24 for XOR4, with the same nodes and images.

Many quadruples ask the same question. The sweep keeps the image table of
every automorphism it finds, and before searching a quadruple it tries
them: each map and its inverse, conjugated by the swap of coordinates
(0,1,2) with (3,4,5) or not, and then by each permutation of the domain
that maps every relation onto itself. Each try is two table lookups. A
quadruple one of them settles is not searched. Quadruples go in the same
order as without the maps and each search gets the same budget, so a
NOT_BALANCED witness is the same quadruple, and a TIMEOUT can only move to
a later quadruple or become BALANCED. On diag3 one search settles all 54
quadruples, and on x+y=0 (mod 5) three settle all 500.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional

from .maltsev import (
    MaltsevOp,
    RectangularityViolation,
    encode,
    find_maltsev_with_certificate,
)
from .relations import (
    CountMatrix,
    Instance,
    Relation,
    RelationalStructure,
    _require_int,
    collapse_scope,
    is_rank_one_block,
    pair_matrix,
)

VERDICT_BALANCED = "BALANCED"
VERDICT_NOT_BALANCED = "NOT_BALANCED"
VERDICT_NOT_STRONGLY_RECTANGULAR = "NOT_STRONGLY_RECTANGULAR"
VERDICT_TIMEOUT = "TIMEOUT"

DEFAULT_SWEEP_NODES = 200_000
# refute_balance tries this many default formulas
REFUTATION_FORMULAS = 64


class BudgetExhausted(RuntimeError):
    """The automorphism search spent its node allowance."""


class SearchBudget:
    """Deterministic work cap, counted in assignment attempts. A budget of
    0 allows none; a negative one, or one that is not an int (a bool
    included), is a ValueError."""

    __slots__ = ("max_nodes", "used")

    def __init__(self, max_nodes: int):
        _require_int(max_nodes, "node budget")
        if max_nodes < 0:
            raise ValueError("node budget must be non-negative, got %d" % max_nodes)
        self.max_nodes = max_nodes
        self.used = 0

    def spend(self) -> None:
        self.used += 1
        if self.used > self.max_nodes:
            raise BudgetExhausted("node budget of %d exhausted" % self.max_nodes)


@dataclass(frozen=True)
class PatternTriple:
    """The three sixth-power elements whose automorphism behaviour encodes
    one balance quadruple: fixed = (a,a,a,b,b,b), source = (c,c,d,d,d,c),
    target = (d,d,c,c,c,d), as digit strings and encoded elements."""

    quadruple: tuple
    fixed_digits: tuple
    source_digits: tuple
    target_digits: tuple
    fixed: int
    source: int
    target: int


def patterns(q: int, a: int, b: int, c: int, d: int) -> PatternTriple:
    _require_int(q, "domain size")
    for v in (a, b, c, d):
        _require_int(v, "pattern value")
        if not 0 <= v < q:
            raise ValueError("pattern value %d outside the domain" % v)
    fd = (a, a, a, b, b, b)
    sd = (c, c, d, d, d, c)
    td = (d, d, c, c, c, d)
    return PatternTriple(
        (a, b, c, d), fd, sd, td, encode(fd, q), encode(sd, q), encode(td, q)
    )


class _DigitValues(dict):
    """Digit values one closed check allows at x, keyed by a digit block
    of the check's AND of its other positions' masks: the block's bits are
    the base tuples still possible at that digit, and the value is the
    bitmask of the v such that one of them has v at each of x's positions.
    Filled lazily, one block at a time."""

    __slots__ = ("block", "shifts", "values")

    def __init__(self, rel, at: tuple, k: int):
        self.block = (1 << len(rel)) - 1
        self.shifts = [d * len(rel) for d in range(k)]
        # per base tuple: 1 << v if it has v at each of x's positions, else 0
        self.values = [
            1 << t[at[0]] if all(t[m] == t[at[0]] for m in at) else 0 for t in rel
        ]

    def __missing__(self, block: int) -> int:
        mask = 0
        for i, v in enumerate(self.values):
            if block >> i & 1:
                mask |= v
        self[block] = mask
        return mask


class _OrderedPicks(dict):
    """Base tuples for one digit of a join, keyed by the bitmask of the
    position pairs (a, b) whose values so far are equal: those with t[a] <=
    t[b] at each, as multiples by the digits' weights, each with the pairs
    it keeps equal. A pair once strictly increasing stays so. Lazy."""

    __slots__ = ("tuples",)

    def __init__(self, tuples: list, pairs: list, weights: list):
        # per tuple: its multiples, the pairs it keeps equal, those it puts out of order
        self.tuples = [
            ([tuple(w * v for v in t) for w in weights],
             sum(1 << i for i, (a, b) in enumerate(pairs) if t[a] == t[b]),
             sum(1 << i for i, (a, b) in enumerate(pairs) if t[a] > t[b]))
            for t in tuples
        ]

    def __missing__(self, tied: int) -> list:
        kept = self[tied] = [(t, ties) for t, ties, out in self.tuples if not out & tied]
        return kept


def _interchangeable(rel) -> list:
    """rel's positions in classes, each ascending, classes by least
    position: i and j share a class iff swapping them maps rel onto itself.
    That is an equivalence (swap(i, k) is swap(i, j) swap(j, k) swap(i, j)),
    so a position is tested against each class's least member only. Every
    permutation within classes then maps rel onto itself too. Symmetries
    that no transposition generates, such as the rotations of a cyclic
    relation, are not used: finding them all could mean trying every one of
    arity! permutations, as many as a fully symmetric relation has."""
    rows = set(rel)
    classes: list = []
    for i in range(rel.arity):
        for cls in classes:
            j = cls[0]
            if {t[:j] + (t[i],) + t[j + 1:i] + (t[j],) + t[i + 1:] for t in rel} == rows:
                cls.append(i)
                break
        else:
            classes.append([i])
    return classes


class _PowerSearchContext:
    """Shared precomputation for automorphism searches over one power.

    Elements are encoded digit strings. Membership of an image tuple is one
    AND of packed masks: masks[ri][m][e] has bit d*|R|+i set iff digit d of
    e equals R[i][m]. Base tuples are distinct, so each digit block keeps at
    most one bit, and the image lies in R^k iff k bits survive. The masks and
    the occurrence profiles are built digit by digit, one OR or product per
    entry.

    A tuple through x at position p is one base tuple per digit with x's
    digit at p. By the symmetries of the module docstring, tuples through x
    are taken only at the least position p of each class of interchangeable
    positions, one per orbit: the one whose values are non-decreasing within
    each class, p's class without p. No tuple is kept per element: closed
    ones are joined digit by digit (_representatives). Each check is built
    once per (element, tuple), when the tuple is first found closed, and
    shared by every later search; it also narrows x's images digit by digit
    (_DigitValues).
    """

    def __init__(self, structure: RelationalStructure, k: int):
        _require_int(k, "power")
        if k < 1:
            raise ValueError("power must be positive")
        q = self.q = structure.domain_size
        self.k = k
        self.size = q ** k
        self.weights = [q ** (k - 1 - d) for d in range(k)]
        self.digits = list(itertools.product(range(q), repeat=k))
        self.rels = [structure.relations[name] for name in sorted(structure.relations)]
        self.classes = [_interchangeable(rel) for rel in self.rels]
        # slices[ri][p][v]: base tuples of relation ri with value v at p
        self.slices = [
            [[[t for t in rel if t[p] == v] for v in range(q)] for p in range(rel.arity)]
            for rel in self.rels
        ]
        self.masks = []
        for rel in self.rels:
            self.masks.append([])
            for m in range(rel.arity):
                block = [sum(1 << i for i, t in enumerate(rel) if t[m] == v) for v in range(q)]
                table = [0]
                for d in range(k):
                    table = [a | b << d * len(rel) for a in table for b in block]
                self.masks[-1].append(table)
        # occurrence profile: tuples through x at (ri, p) factorize over digits
        counts = []
        for sizes in ([len(ts) for ts in by_val] for per_pos in self.slices for by_val in per_pos):
            table = [1]
            for _ in range(k):
                table = [a * b for a in table for b in sizes]
            counts.append(table)
        profiles: dict = {}
        keys = zip(*counts) if counts else itertools.repeat((), self.size)
        self.occ_id = [profiles.setdefault(key, len(profiles)) for key in keys]
        self.class_members: list = [[] for _ in profiles]
        for x, cid in enumerate(self.occ_id):
            self.class_members[cid].append(x)
        # per relation and class with least position p: the relation, the
        # number of pairs kept non-decreasing, and per value v the base tuples
        # with v at p; for near, per other position m, each v's values at m
        self._orbits = []
        near: dict = {}
        for ri, classes in enumerate(self.classes):
            for cls in classes:
                by_val = self.slices[ri][cls[0]]
                blocks = [c[1:] if c is cls else c for c in classes]
                pairs = [pair for c in blocks for pair in itertools.pairwise(c)]
                picks = [_OrderedPicks(ts, pairs, self.weights) for ts in by_val]
                self._orbits.append((ri, len(pairs), picks))
                for m in range(self.rels[ri].arity):
                    if m != cls[0]:
                        near[tuple(tuple(sorted({t[m] for t in ts})) for ts in by_val)] = None
        self._near_values = list(near)
        # element -> {(relation index, element tuple): check}, filled as found closed
        self._checks: dict = {}
        # (relation index, x's positions) -> _DigitValues
        self._digit_values: dict = {}

    def _representatives(self, x: int, placed: list) -> list:
        """The representatives through x whose elements are all placed, as
        (relation index, element tuple) pairs, picked one digit at a time:
        placed[d] holds each placed element with its digits after d set to
        0, x among them."""
        found: dict = {}
        for ri, npairs, by_val in self._orbits:
            # (elements so far, the pairs they tie), every pair tied at first
            partials = [((0,) * self.rels[ri].arity, (1 << npairs) - 1)]
            for d, (prefixes, v) in enumerate(zip(placed, self.digits[x])):
                partials = [
                    (elems, tied & ties)
                    for old, tied in partials
                    for t, ties in by_val[v][tied]
                    if prefixes.issuperset(elems := tuple(map(operator.add, old, t[d])))
                ]
                if not partials:
                    break
            else:
                # a tuple with x at two classes' least positions comes from both
                found.update(dict.fromkeys((ri, elems) for elems, _ in partials))
        return list(found)

    def tuples_through(self, x: int) -> tuple:
        """One power-relation tuple containing x per symmetry orbit, as
        (relation index, element tuple) pairs: each has x at the least
        position p of a class of interchangeable positions, and its values
        sorted within each class, p's class without p. Permuting the
        representatives within their relation's classes gives every tuple
        containing x."""
        everything = [set(range(0, self.size, w)) for w in self.weights]
        return tuple(self._representatives(x, everything))

    def near(self, x: int) -> list:
        """The elements other than x of the tuples through x, ascending: at a
        position m other than a class's least p, each digit d ranges over the
        values at m of the base tuples with x's digit d at p."""
        out: set = set()
        for values in self._near_values:
            col = [0]
            for v in self.digits[x]:
                col = [a * self.q + u for a in col for u in values[v]]
            out.update(col)
        out.discard(x)
        return sorted(out)

    def closed_checks(self, x: int, placed: list) -> list:
        """Checks for the tuples through x whose elements are all placed
        (placed as _representatives reads it). A check is (digit values, mask
        tables at x's positions, (mask table, element) pairs at the others).
        A tuple of x alone that every image passes yields none."""
        built = self._checks.setdefault(x, {})
        out = []
        for key in self._representatives(x, placed):
            check = built.get(key)
            if check is None:
                check = built[key] = self._check(x, *key)
            if check:
                out.append(check)
        return out

    def _check(self, x: int, ri: int, elems: tuple):
        """The check of one tuple through x, or () when it rejects nothing."""
        at = tuple(m for m, e in enumerate(elems) if e == x)
        values = self._digit_values.get((ri, at))
        if values is None:
            values = self._digit_values[(ri, at)] = _DigitValues(self.rels[ri], at, self.k)
        if len(at) == len(elems) and values[-1] == (1 << self.q) - 1:
            return ()
        tables = self.masks[ri]
        return (
            values,
            [tables[m] for m in at],
            [(tables[m], e) for m, e in enumerate(elems) if e != x],
        )

    def candidates(
        self, x: int, checks: list, assignment: dict, used: set, fixes: Mapping, free: list
    ) -> Iterator[int]:
        """Unused images for x in its occurrence class that pass its closed
        checks, in ascending order. Lazy: the search resumes it only after
        undoing every deeper step, so assignment and used read the same as
        at the first call. free[c] is where a scan of class c starts: each
        member before it is an image of an earlier level. A scan moves it on
        past such images, and puts it back once spent, as the search then
        backtracks.

        Each check's AND over the assigned elements is taken once. In turn,
        they narrow the values each digit of an image may take, until every
        digit has at most one left. When the product of
        those values is smaller than x's class, it is the pool, read in
        lexicographic, hence ascending, order; each of its elements passes
        the checks read so far, so only the rest are tested."""
        k = self.k
        occ_id = self.occ_id
        cid = occ_id[x]
        pool = members = self.class_members[cid]
        partial = []
        for _, at_x, others in checks:
            acc = -1
            for table, e in others:
                acc &= table[assignment[e]]
            partial.append((acc, at_x))
        if x in fixes:
            pool = (fixes[x],)
        elif checks:
            allowed = [(1 << self.q) - 1] * k
            for read, ((values, _, _), (acc, _)) in enumerate(zip(checks, partial), 1):
                block = values.block
                allowed = [
                    a & values[acc >> s & block] for a, s in zip(allowed, values.shifts)
                ]
                if max(map(int.bit_count, allowed)) <= 1:
                    break
            if math.prod(map(int.bit_count, allowed)) < len(pool):
                per_digit = [
                    [w * v for v in range(self.q) if a >> v & 1]
                    for w, a in zip(self.weights, allowed)
                ]
                pool = map(sum, itertools.product(*per_digit))
                partial = partial[read:]
        bound = free[cid]
        if pool is members:
            while free[cid] < len(members) and members[free[cid]] in used:
                free[cid] += 1
            pool = map(members.__getitem__, range(free[cid], len(members)))
        for f in pool:
            if f in used or occ_id[f] != cid:
                continue
            for acc, at_x in partial:
                for table in at_x:
                    acc &= table[f]
                if acc.bit_count() != k:
                    break
            else:
                yield f
        free[cid] = bound

    def search(self, fixes: Mapping, budget: SearchBudget) -> Optional[tuple]:
        """Depth-first search for an automorphism extending `fixes`;
        returns the image table or None. Injectivity plus forward
        preservation on a finite structure already forces a full
        automorphism, so only those two properties are enforced.

        The variable order is breadth-first along shared tuples from the
        fixed elements, then from the least unplaced element, so that by
        assignment time as many tuple partners as possible are pinned. It
        grows, with each depth's closed checks, only when the search first
        reaches that depth; the elements up to it are the placed ones."""
        size = self.size
        order: list = sorted(set(fixes))
        queued = set(order)
        placed: list = [set() for _ in self.weights]
        least = 0
        checks: list = []
        assignment: dict = {}
        used: set = set()
        free = [0] * len(self.class_members)
        iters: list = []
        level = 0
        while True:
            if level == size:
                return tuple(assignment[x] for x in range(size))
            if level == len(checks):
                if level and len(order) < size and self._near_values:
                    for y in self.near(order[level - 1]):
                        if y not in queued:
                            queued.add(y)
                            order.append(y)
                if level == len(order):
                    while least in queued:
                        least += 1
                    queued.add(least)
                    order.append(least)
                for prefixes, w in zip(placed, self.weights):
                    prefixes.add(order[level] - order[level] % w)
                checks.append(self.closed_checks(order[level], placed))
            x = order[level]
            if level == len(iters):
                iters.append(self.candidates(x, checks[level], assignment, used, fixes, free))
            f = next(iters[level], None)
            if f is None:
                iters.pop()
                level -= 1
                if level < 0:
                    return None
                used.discard(assignment.pop(order[level]))
                continue
            budget.spend()
            assignment[x] = f
            used.add(f)
            level += 1


def _domain_automorphisms(structure: RelationalStructure) -> list:
    """Every permutation of the domain that maps each relation onto itself,
    as image tuples in lexicographic order, the identity first. Into is
    enough: a permutation maps a finite relation injectively into itself,
    hence onto. Only a sweep whose power search succeeded asks, so q! stays
    small next to the q^6 elements that search covered."""
    relations = [set(rel) for rel in structure.relations.values()]
    return [
        sigma
        for sigma in itertools.permutations(range(structure.domain_size))
        if all(tuple([sigma[v] for v in t]) in rows for rows in relations for t in rows)
    ]


class _AutomorphismPool:
    """The image tables of the automorphisms the sweep has found, and the
    symmetries that carry each of them to other quadruples.

    Let F be an automorphism of A^6 and tau = sigma pi^s, where sigma is a
    domain automorphism (one that maps every relation onto itself) acting
    digit by digit and pi swaps coordinates (0,1,2) with (3,4,5). Both map
    every power relation onto itself, so G = tau F^e tau^-1 (e = +-1) is an
    automorphism too, and G(x) = y exactly when F^e(tau^-1 x) = tau^-1 y.
    So whether G settles a quadruple is two lookups in F's table, at the
    pattern's elements pulled back by tau: G fixes `fixed` iff F fixes its
    pullback, and G sends `source` to `target` iff F sends the pullback of
    source to that of target (e = 1) or that of target to that of source
    (e = -1). No map is built. The domain automorphisms are found the first
    time a stored map is tried, so a sweep that stops at its first
    quadruple never looks for them."""

    def __init__(self, structure: RelationalStructure):
        self.structure = structure
        self.q = structure.domain_size
        self.maps: list = []
        self._pullbacks: Optional[list] = None

    def settle(self, pat: PatternTriple) -> Optional[tuple]:
        """(map index, sigma, swap, inverse) of the first transport found
        that settles pat, with sigma as an image tuple and swap and inverse
        as booleans; None when no stored map settles it."""
        if not self.maps:
            return None
        if self._pullbacks is None:
            self._pullbacks = [
                (sigma, tuple(sorted(range(self.q), key=sigma.__getitem__)), swap)
                for sigma in _domain_automorphisms(self.structure)
                for swap in (False, True)
            ]
        for sigma, sigma_inv, swap in self._pullbacks:
            pulled = []
            for digits in (pat.fixed_digits, pat.source_digits, pat.target_digits):
                ds = tuple(sigma_inv[v] for v in digits)
                pulled.append(encode(ds[3:] + ds[:3] if swap else ds, self.q))
            fixed, source, target = pulled
            for i, f in enumerate(self.maps):
                if f[fixed] != fixed:
                    continue
                if f[source] == target:
                    return (i, sigma, swap, False)
                if f[target] == source:
                    return (i, sigma, swap, True)
        return None


def find_automorphism(
    structure: RelationalStructure,
    k: int,
    fixes: Optional[Mapping[int, int]] = None,
    max_nodes: int = DEFAULT_SWEEP_NODES,
) -> Optional[tuple]:
    """Automorphism of the k-th power extending the given partial map on
    encoded elements, or None; raises BudgetExhausted past max_nodes."""
    ctx = _PowerSearchContext(structure, k)
    fixes = dict(fixes or {})
    for x, y in fixes.items():
        for v in (x, y):
            _require_int(v, "fixed element")
            if not 0 <= v < ctx.size:
                raise ValueError("fixed element %d outside the power domain" % v)
    if len(set(fixes.values())) != len(fixes):
        return None
    return ctx.search(fixes, SearchBudget(max_nodes))


@dataclass(frozen=True)
class Refutation:
    """A concrete witness that the language is not balanced: a small
    formula, a variable pair, and its pairwise count matrix that is not a
    rank-one block matrix."""

    formula: str
    instance: Instance
    variables: tuple
    matrix: CountMatrix


def default_refutation_formulas(structure: RelationalStructure):
    """Small conjunctive formulas over the user relations: each relation
    alone, then each ordered pair chained through every overlap width.
    Variable scopes are contiguous; names are for display only."""

    def formula(*atoms):
        # atoms are (relation name, first variable of its scope)
        cons = [(name, tuple(range(v, v + arity[name]))) for name, v in atoms]
        desc = " & ".join("%s(x%s)" % (n, ",x".join(str(v + 1) for v in s)) for n, s in cons)
        return desc, Instance(max(s[-1] for _, s in cons) + 1, cons)

    arity = {name: rel.arity for name, rel in sorted(structure.relations.items())}
    for name in arity:
        yield formula((name, 0))
    for n1 in arity:
        for n2 in arity:
            for overlap in range(1, min(arity[n1], arity[n2]) + 1):
                yield formula((n1, 0), (n2, arity[n1] - overlap))


def _join(structure: RelationalStructure, instance: Instance) -> Relation:
    """Solution set of a formula: a hash join of its constraints in order,
    each one's tuples indexed on the variables bound before it, then of the
    whole domain at each variable, which binds those no constraint did."""
    n = instance.num_vars
    domain = Relation(1, [(a,) for a in range(structure.domain_size)])
    joins = structure.resolve(instance.constraints)
    joins += [(domain, (v,)) for v in range(n)]
    bound: set = set()
    rows = [{}]
    for rel, scope in joins:
        rel, scope = collapse_scope(rel, scope)
        shared = sorted(bound.intersection(scope))
        index: dict = {}
        for t in rel:
            value = dict(zip(scope, t))
            index.setdefault(tuple(value[v] for v in shared), []).append(value)
        rows = [{**r, **e} for r in rows for e in index.get(tuple(r[v] for v in shared), ())]
        bound.update(scope)
    return Relation(n, (tuple(r[v] for v in range(n)) for r in rows))


def refute_balance(structure: RelationalStructure) -> Optional[Refutation]:
    """Search small formulas for a pairwise count matrix that is not a
    rank-one block matrix, reading every pair's matrix off the formula's
    joined solution set. Finding one proves the language unbalanced;
    finding none proves nothing."""
    formulas = default_refutation_formulas(structure)
    for desc, inst in itertools.islice(formulas, REFUTATION_FORMULAS):
        solutions = _join(structure, inst)
        for i, j in itertools.combinations(range(inst.num_vars), 2):
            m = pair_matrix(solutions, i, j)
            if not is_rank_one_block(m):
                return Refutation(desc, inst, (i, j), m)
    return None


@dataclass(frozen=True)
class DichotomyVerdict:
    """Outcome of the full decision procedure, with whichever witness the
    deciding stage produced. quadruples_checked counts the sweep's
    quadruples up to where it stopped, that one included: those settled by
    a search and those settled by a map already found alike, so a
    BALANCED sweep checks all q^3(q-1)."""

    kind: str
    maltsev: Optional[MaltsevOp] = None
    rectangularity_witness: Optional[RectangularityViolation] = None
    refutation: Optional[Refutation] = None
    quadruple: Optional[tuple] = None
    quadruples_checked: int = 0

    @property
    def tractable(self) -> bool:
        return self.kind == VERDICT_BALANCED


def decide_strong_balance(
    structure: RelationalStructure,
    max_nodes: int = DEFAULT_SWEEP_NODES,
) -> DichotomyVerdict:
    """Classify a language: BALANCED (counting is tractable),
    NOT_STRONGLY_RECTANGULAR or NOT_BALANCED (counting is as hard as any
    counting problem), or TIMEOUT if some automorphism search exceeds its
    per-quadruple node budget; the witness quadruple is then the first
    searched one that ran out. Deterministic for fixed inputs and budgets;
    a budget SearchBudget rejects is a ValueError whatever the language."""
    SearchBudget(max_nodes)  # rejects a bad budget before any stage runs
    op, violation = find_maltsev_with_certificate(structure)
    if op is None:
        return DichotomyVerdict(
            VERDICT_NOT_STRONGLY_RECTANGULAR, rectangularity_witness=violation
        )
    refutation = refute_balance(structure)
    if refutation is not None:
        return DichotomyVerdict(VERDICT_NOT_BALANCED, maltsev=op, refutation=refutation)
    ctx = _PowerSearchContext(structure, 6)
    pool = _AutomorphismPool(structure)
    q = structure.domain_size
    checked = 0
    for a, b, c, d in itertools.product(range(q), repeat=4):
        if c == d:
            continue
        pat = patterns(q, a, b, c, d)
        checked += 1
        if pool.settle(pat) is not None:
            continue
        fixes = {pat.fixed: pat.fixed, pat.source: pat.target}
        try:
            image = ctx.search(fixes, SearchBudget(max_nodes))
        except BudgetExhausted:
            return DichotomyVerdict(
                VERDICT_TIMEOUT,
                maltsev=op,
                quadruple=(a, b, c, d),
                quadruples_checked=checked,
            )
        if image is None:
            return DichotomyVerdict(
                VERDICT_NOT_BALANCED,
                maltsev=op,
                quadruple=(a, b, c, d),
                quadruples_checked=checked,
            )
        pool.maps.append(image)
    return DichotomyVerdict(VERDICT_BALANCED, maltsev=op, quadruples_checked=checked)


def _matrix_text(matrix: CountMatrix) -> str:
    return "[" + ";".join(
        ",".join(str(v) for v in row) for row in matrix.to_lists()
    ) + "]"


def verdict_to_text(verdict: DichotomyVerdict) -> str:
    """Stable one-block textual form: the verdict line, one witness line
    when a witness exists, then the Mal'tsev table when one was found."""
    lines = ["verdict=%s" % verdict.kind]
    if verdict.rectangularity_witness is not None:
        w = verdict.rectangularity_witness
        lines.append(
            "witness=relation %s triple %s image %s"
            % (
                w.relation_name,
                " ".join(",".join(str(v) for v in t) for t in w.triple),
                ",".join(str(v) for v in w.image),
            )
        )
    if verdict.refutation is not None:
        r = verdict.refutation
        lines.append(
            "witness=formula %s variables x%d,x%d matrix %s"
            % (r.formula, r.variables[0] + 1, r.variables[1] + 1, _matrix_text(r.matrix))
        )
    if verdict.quadruple is not None:
        a, b, c, d = verdict.quadruple
        lines.append("witness=quadruple a=%d b=%d c=%d d=%d" % (a, b, c, d))
    if verdict.maltsev is not None:
        lines.append("maltsev=")
        op = verdict.maltsev
        for x, y, z in itertools.product(range(op.q), repeat=3):
            lines.append("%d %d %d -> %d" % (x, y, z, op(x, y, z)))
    return "\n".join(lines) + "\n"
