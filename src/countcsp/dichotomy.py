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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .maltsev import (
    MaltsevOp,
    RectangularityViolation,
    encode,
    find_maltsev_with_certificate,
)
from .oracle import CapExceededError, balance_matrix
from .relations import CountMatrix, Instance, RelationalStructure, is_rank_one_block

VERDICT_BALANCED = "BALANCED"
VERDICT_NOT_BALANCED = "NOT_BALANCED"
VERDICT_NOT_STRONGLY_RECTANGULAR = "NOT_STRONGLY_RECTANGULAR"
VERDICT_TIMEOUT = "TIMEOUT"

DEFAULT_SWEEP_NODES = 200_000


class BudgetExhausted(RuntimeError):
    """The automorphism search spent its node allowance."""


class SearchBudget:
    """Deterministic work cap, counted in assignment attempts."""

    __slots__ = ("max_nodes", "used")

    def __init__(self, max_nodes: int):
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
    for v in (a, b, c, d):
        if not 0 <= v < q:
            raise ValueError("pattern value %d outside the domain" % v)
    fd = (a, a, a, b, b, b)
    sd = (c, c, d, d, d, c)
    td = (d, d, c, c, c, d)
    return PatternTriple(
        (a, b, c, d), fd, sd, td, encode(fd, q), encode(sd, q), encode(td, q)
    )


class _PowerSearchContext:
    """Shared precomputation for automorphism searches over one power.

    Elements are encoded digit strings. Tuples of a power relation are
    enumerated only through one fixed element: choosing one base tuple per
    digit with the element's digit at a fixed position and reading the
    columns back as encoded elements.
    """

    def __init__(self, structure: RelationalStructure, k: int):
        if k < 1:
            raise ValueError("power must be positive")
        self.q = structure.domain_size
        self.k = k
        self.size = self.q ** k
        self.digits = list(itertools.product(range(self.q), repeat=k))
        self.rels = [structure.relations[name] for name in sorted(structure.relations)]
        self.rel_sets = [rel._set for rel in self.rels]
        # slices[ri][p][v]: base tuples of relation ri with value v at p
        self.slices = []
        for rel in self.rels:
            per_pos = []
            for p in range(rel.arity):
                by_val: dict = {v: [] for v in range(self.q)}
                for t in rel:
                    by_val[t[p]].append(t)
                per_pos.append(by_val)
            self.slices.append(per_pos)
        # occurrence profile: tuples through x at (ri, p) factorize over digits
        profiles: dict = {}
        self.occ_id = []
        self.class_members: list = []
        for x in range(self.size):
            dx = self.digits[x]
            prof = []
            for ri, rel in enumerate(self.rels):
                for p in range(rel.arity):
                    cnt = 1
                    for d in dx:
                        cnt *= len(self.slices[ri][p][d])
                    prof.append(cnt)
            key = tuple(prof)
            cid = profiles.get(key)
            if cid is None:
                cid = len(self.class_members)
                profiles[key] = cid
                self.class_members.append([])
            self.occ_id.append(cid)
            self.class_members[cid].append(x)
        self._through: dict = {}

    def tuples_through(self, x: int) -> tuple:
        """All power-relation tuples containing x, as (relation index,
        element tuple) pairs, deduplicated."""
        cached = self._through.get(x)
        if cached is not None:
            return cached
        dx = self.digits[x]
        found: dict = {}
        for ri, rel in enumerate(self.rels):
            r = rel.arity
            for p in range(r):
                pools = [self.slices[ri][p][d] for d in dx]
                if any(not pool for pool in pools):
                    continue
                for combo in itertools.product(*pools):
                    elems = tuple(
                        encode([base[m] for base in combo], self.q)
                        for m in range(r)
                    )
                    found.setdefault((ri, elems), None)
        out = tuple(found)
        self._through[x] = out
        return out

    def neighbors(self, x: int) -> set:
        out: set = set()
        for _, elems in self.tuples_through(x):
            out.update(elems)
        out.discard(x)
        return out

    def search_order(self, seeds: Iterable[int]) -> list:
        """Whole-domain order: breadth-first along shared tuples starting
        from the seeds, then from the least unvisited element, so that by
        assignment time as many tuple partners as possible are pinned."""
        order: list = []
        visited: set = set()
        queue: list = sorted(set(seeds))
        head = 0
        for s in queue:
            visited.add(s)
        while len(order) < self.size:
            if head == len(queue):
                for x in range(self.size):
                    if x not in visited:
                        visited.add(x)
                        queue.append(x)
                        break
            x = queue[head]
            head += 1
            order.append(x)
            for y in sorted(self.neighbors(x)):
                if y not in visited:
                    visited.add(y)
                    queue.append(y)
        return order

    def candidates(self, x: int, assignment: dict, used: set, fixes: Mapping) -> list:
        if x in fixes:
            pool: Iterable = (fixes[x],)
        else:
            pool = self.class_members[self.occ_id[x]]
        checks = [
            (ri, elems)
            for ri, elems in self.tuples_through(x)
            if all(e == x or e in assignment for e in elems)
        ]
        digits = self.digits
        out: list = []
        for f in pool:
            if f in used or self.occ_id[f] != self.occ_id[x]:
                continue
            ok = True
            for ri, elems in checks:
                img = [f if e == x else assignment[e] for e in elems]
                rel_set = self.rel_sets[ri]
                for d in range(self.k):
                    if tuple(digits[e][d] for e in img) not in rel_set:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                out.append(f)
        return out

    def search(self, fixes: Mapping, budget: SearchBudget) -> Optional[tuple]:
        """Depth-first search for an automorphism extending `fixes`;
        returns the image table or None. Injectivity plus forward
        preservation on a finite structure already forces a full
        automorphism, so only those two properties are enforced."""
        order = self.search_order(fixes.keys())
        assignment: dict = {}
        used: set = set()
        iters: list = []
        level = 0
        while True:
            if level == self.size:
                return tuple(assignment[x] for x in range(self.size))
            if level == len(iters):
                iters.append(iter(self.candidates(order[level], assignment, used, fixes)))
            x = order[level]
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
            if not 0 <= v < ctx.size:
                raise ValueError("fixed element %d outside the power domain" % v)
    targets = list(fixes.values())
    if len(set(targets)) != len(targets):
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

    def described(name: str, offset: int, arity: int) -> str:
        return "%s(%s)" % (name, ",".join("x%d" % (offset + m + 1) for m in range(arity)))

    names = sorted(structure.relations)
    for name in names:
        r = structure.relations[name].arity
        yield (described(name, 0, r), Instance(r, ((name, tuple(range(r))),)))
    for n1 in names:
        r1 = structure.relations[n1].arity
        for n2 in names:
            r2 = structure.relations[n2].arity
            for overlap in range(1, min(r1, r2) + 1):
                nv = r1 + r2 - overlap
                s1 = tuple(range(r1))
                s2 = tuple(range(r1 - overlap, r1 - overlap + r2))
                desc = "%s & %s" % (
                    described(n1, 0, r1),
                    "%s(%s)" % (n2, ",".join("x%d" % (v + 1) for v in s2)),
                )
                yield (desc, Instance(nv, ((n1, s1), (n2, s2))))


def refute_balance(
    structure: RelationalStructure,
    formulas=None,
    max_formulas: int = 64,
    cap_bits: int = 20,
) -> Optional[Refutation]:
    """Search small formulas for a pairwise count matrix that is not a
    rank-one block matrix. Finding one proves the language unbalanced;
    finding none proves nothing."""
    if formulas is None:
        formulas = default_refutation_formulas(structure)
    for desc, inst in itertools.islice(formulas, max_formulas):
        try:
            for i, j in itertools.combinations(range(inst.num_vars), 2):
                m = balance_matrix(structure, inst, i, j, cap_bits=cap_bits)
                if m.total() and not is_rank_one_block(m):
                    return Refutation(desc, inst, (i, j), m)
        except CapExceededError:
            continue
    return None


@dataclass(frozen=True)
class DichotomyVerdict:
    """Outcome of the full decision procedure, with whichever witness the
    deciding stage produced."""

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
    max_formulas: int = 64,
    cap_bits: int = 20,
) -> DichotomyVerdict:
    """Classify a language: BALANCED (counting is tractable),
    NOT_STRONGLY_RECTANGULAR or NOT_BALANCED (counting is as hard as any
    counting problem), or TIMEOUT if some automorphism search exceeds its
    per-quadruple node budget. Deterministic for fixed inputs and budgets."""
    op, violation = find_maltsev_with_certificate(structure)
    if op is None:
        return DichotomyVerdict(
            VERDICT_NOT_STRONGLY_RECTANGULAR, rectangularity_witness=violation
        )
    refutation = refute_balance(structure, max_formulas=max_formulas, cap_bits=cap_bits)
    if refutation is not None:
        return DichotomyVerdict(VERDICT_NOT_BALANCED, maltsev=op, refutation=refutation)
    ctx = _PowerSearchContext(structure, 6)
    q = structure.domain_size
    checked = 0
    for a, b, c, d in itertools.product(range(q), repeat=4):
        if c == d:
            continue
        pat = patterns(q, a, b, c, d)
        fixes = {pat.fixed: pat.fixed, pat.source: pat.target}
        checked += 1
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
        q = op.q
        for x in range(q):
            for y in range(q):
                for z in range(q):
                    lines.append("%d %d %d -> %d" % (x, y, z, op(x, y, z)))
    return "\n".join(lines) + "\n"
