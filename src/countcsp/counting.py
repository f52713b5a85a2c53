"""Exact solution counting through rank-one block reconstruction.

The solution set R of an instance over a Mal'tsev-closed, balanced language
is never materialized. Instead, for every coordinate pair (i, j) with i < j
the count N(i, j)(y) of length-(i+1) prefixes compatible with value y at
position j is computed by a sweep over i:

* the values at j split into classes sharing a compatible (i+1)-prefix, and
  the values at i split into classes sharing an i-prefix and a j-value;
  both are read off the witness maps of prefix sections, with no pair
  closure beyond the stage's own (i, j) support;
* the matrix "number of i-prefixes compatible with the pair (x, y)" is
  constant on class pairs, and the quotient matrix is a rank-one block
  matrix whose row and column sums are the stage-(i-1) counts;
* reconstructing the quotient from its margins and support and summing
  columns yields the stage-i counts.

Everything runs on frames; the only sizes touched are projections onto at
most three coordinates. All arithmetic is exact.

`count` sweeps each connected component of an instance on its own frame,
cut to the positions that earlier ones leave free (_cut), and multiplies
the results. Within a component the coordinate order is the sorted
variable order; frames._component_frames builds the frames and chooses the
order in which constraints are added. While it builds them it drops each
closed tail of equal class sizes, whose size is the product of those class
sizes, so the trace and verify=True cover the kept positions only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .frames import Frame, SectionCache, _component_frames, _keep, closure_project
from .maltsev import MaltsevOp

# Not used here. The benchmark's tracer test reads both names through this
# module, so they stay bound in it.
from .oracle import balance_matrix, enumerate_solutions  # noqa: F401
from .relations import (
    CongruencePair,
    CountMatrix,
    Instance,
    Partition,
    ReconstructionError,
    RelationalStructure,
    _bipartite_blocks,
    _require_int,
    reconstruct_rank_one,
)


class NotBalancedError(RuntimeError):
    """The counting invariants failed: the language admits a Mal'tsev
    operation but some intermediate matrix is not a rank-one block matrix
    with consistent margins. Arguments: what failed, at which `pair` of
    instance variables (0-based), and any detail. text(1) counts from 1."""

    pair = property(lambda self: self.args[1])

    def text(self, base: int = 0) -> str:
        what, (i, j), *detail = self.args
        return ": ".join(["%s at pair (%d, %d)" % (what, i + base, j + base)] + detail)

    __str__ = text


@dataclass(frozen=True)
class PrefixCounts:
    """Stage counts N(i, j): values[y] = number of length-(i+1) prefixes
    (x_0 .. x_i) such that the prefix together with y at position j extends
    to a solution."""

    i: int
    j: int
    values: dict


@dataclass(frozen=True)
class CountStep:
    """One (i, j) stage of the counting sweep, for inspection and tests.

    Base stages (i = 0) carry no congruence or quotient. Positions are
    those of one frame: `variables[p]` is the instance variable at position
    p. count_frame fills tuple(range(arity)) unless told otherwise; count,
    which counts each connected component on its own frame, fills that
    component's sorted variables.
    """

    i: int
    j: int
    support: frozenset
    congruence: Optional[CongruencePair]
    quotient: Optional[CountMatrix]
    counts: PrefixCounts
    variables: tuple


def _pair_support(frame: Frame, phi: MaltsevOp, i: int, j: int) -> dict:
    """The (i, j) pair closure: (x, y) -> a tuple of the generated relation
    with x at i and y at j, one per reachable pair."""
    return {(t[i], t[j]): t for t in closure_project(frame.rows, phi, (i, j))}


def congruences(frame: Frame, phi: MaltsevOp, i: int, j: int) -> CongruencePair:
    """Both coordinate-pair congruences of the generated relation, without
    enumerating it.

    Both are read off the witness maps of prefix sections; frame invariant
    (a) makes a section's witness map list every value of every coordinate
    projection. Take a support tuple t through (x, y), p = t[:i] and
    k = j - i - 1. By rectangularity the forward class of y is the set of
    values at j that extend any compatible (i+1)-prefix, and t[:i+1] is
    one: the values b with (b, k) witnessed in the section at p + (x,).
    The backward class of x is the column of y in the section at p, whose
    row at x is the projection of the section at p + (x,): the values a
    witnessed at 0 in the section at p with (y, k) witnessed in the section
    at p + (a,). Any column gives the same classes: if u = p.x..y,
    v = p.x'..y and s = p'.x..y' lie in R, then so does
    phi(v, u, s) = p'.x'..y', so x' shares every i-prefix and j-value that
    x has.
    """
    _require_int(i, "position i")
    _require_int(j, "position j")
    if not 1 <= i < j <= frame.arity - 1:
        raise ValueError("need 1 <= i < j <= arity-1")
    return _congruences(SectionCache(frame, phi), i, j, _pair_support(frame, phi, i, j))


def _congruences(sections: SectionCache, i: int, j: int, support: dict) -> CongruencePair:
    """congruences for the frame of `sections`, whose sections it reads and
    pins; `support` is the (i, j) _pair_support. Each class test is one
    witness lookup, made only for support pairs whose x or y is not yet in
    a class."""
    get = sections.get
    values = range(sections.phi.q)
    k = j - i - 1
    forward: list = []
    backward: list = []
    rows: set = set()
    cols: set = set()
    for (x, y), t in support.items():
        if x in rows and y in cols:
            continue
        p = t[:i]
        if y not in cols:
            w = get(p + (x,)).witness
            cls = [b for b in values if (b, k) in w]
            forward.append(cls)
            cols.update(cls)
        if x not in rows:
            w = get(p).witness
            cls = [a for a in values if (a, 0) in w and (y, k) in get(p + (a,)).witness]
            backward.append(cls)
            rows.update(cls)
    return CongruencePair(
        i, j, Partition.from_classes(forward), Partition.from_classes(backward)
    )


def count_frame(
    frame: Frame,
    phi: MaltsevOp,
    verify: bool = False,
    trace: Optional[list] = None,
    variables: Optional[tuple] = None,
) -> int:
    """Size of the relation generated by a frame.

    Every stage (i, j) starts from the (i, j) _pair_support; the base
    stages (i = 0) count it, the later ones weight it by the quotient
    reconstructed from the classes that _congruences reads off the witness
    maps of one shared SectionCache's sections, with no pair closures.
    With verify=True the margin constancy the reconstruction relies on is
    re-checked on every congruence class; violations raise
    NotBalancedError, as do inconsistent margins or non-integral
    reconstructed entries. A `trace` list receives one CountStep per
    stage. `variables[p]` names position p in those errors and steps; it
    defaults to tuple(range(arity)), and a tuple of another length raises
    ValueError.
    """
    n = frame.arity
    if variables is None:
        variables = tuple(range(n))
    elif len(variables) != n:
        raise ValueError("%d names in variables, frame arity %d" % (len(variables), n))
    if frame.is_empty():
        return 0
    if n == 0:
        return 1
    if n == 1:
        return len(frame.projection(0))

    sections = SectionCache(frame, phi)
    counts: dict = {}
    for i in range(n - 1):
        for j in range(i + 1, n):
            support = _pair_support(frame, phi, i, j)
            cong = quotient = None
            if i:
                cong = _congruences(sections, i, j, support)
                row_rep = {x: min(c) for c in cong.backward for x in c}
                col_rep = {y: min(c) for c in cong.forward for y in c}
                row_counts = counts[(i - 1, i)]
                col_counts = counts[(i - 1, j)]
                pair = (variables[i], variables[j])
                if verify:
                    for part, stage in ((cong.backward, row_counts), (cong.forward, col_counts)):
                        for cls in part:
                            if len({stage[v] for v in cls}) != 1:
                                raise NotBalancedError(
                                    "stage counts are not constant on a congruence class", pair
                                )
                row_totals = {r: row_counts[r] for r in set(row_rep.values())}
                col_totals = {c: col_counts[c] for c in set(col_rep.values())}
                # The quotient support has one vertex per class; its blocks
                # are its rows grouped by column set, None if not complete.
                blocks = _bipartite_blocks({(row_rep[x], col_rep[y]) for x, y in support})
                if blocks is None:
                    detail = "the quotient support is not a union of complete blocks"
                    raise NotBalancedError("reconstruction failed", pair, detail)
                try:
                    quotient = reconstruct_rank_one(blocks, row_totals, col_totals)
                except ReconstructionError as e:
                    raise NotBalancedError("reconstruction failed", pair, str(e)) from e
            vals: dict = {}
            for x, y in support:
                vals[y] = vals.get(y, 0) + (quotient.get(row_rep[x], col_rep[y]) if i else 1)
            counts[(i, j)] = vals
            if trace is not None:
                tally = PrefixCounts(i, j, dict(vals))
                trace.append(CountStep(i, j, frozenset(support), cong, quotient, tally, variables))
    return sum(counts[(n - 2, n - 1)].values())


def count(
    structure: RelationalStructure,
    phi: MaltsevOp,
    instance: Instance,
    verify: bool = False,
    trace: Optional[list] = None,
) -> int:
    """Number of solutions of the instance, via frames and reconstruction:
    the connected components' frames, built by frames._component_frames
    with drop=True, each over its kept variables in ascending order and cut
    to its free positions (_cut), counted and multiplied by what the build
    set aside: q**free, for the variables no constraint mentions, and the
    product of the class sizes of the closed tails it dropped.

    Every frame is built before any is counted; a component with no
    solution makes the count 0 and leaves the trace empty. A component with
    no free position has one solution and is not swept. The trace lists
    each component's stages over its free positions in turn, components by
    least variable; verify=True checks those stages only. A dropped tail
    has no stage and is not verified: its product is exact for any
    phi-closed solution set, balanced or not. A NotBalancedError names its
    failing pair by instance variables.
    """
    built = _component_frames(structure, phi, instance, drop=True)
    if built is None:
        return 0
    components, total = built
    for variables, frame in components:
        keep, cut = _cut(frame)
        if not keep:
            continue
        steps: Optional[list] = None if trace is None else []
        named = tuple([variables[p] for p in keep])
        total *= count_frame(cut, phi, verify=verify, trace=steps, variables=named)
        if trace is not None:
            trace.extend(steps)
    return total


def _cut(frame: Frame) -> tuple:
    """(keep, cut): the positions of a nonempty frame where some
    shared-prefix class holds more than one value, ascending, and the frame
    over just those positions (frames._keep).

    At any other position p every class is one value, so x_p is a function
    of x_0 .. x_{p-1}. Dropping p is then one-to-one on the generated
    relation, and it keeps the later positions' classes, since prefixes with
    and without p correspond one to one. So the rows and the witness map,
    cut to the kept positions and renumbered, are a frame of a relation of
    the same size, for any phi-closed relation, balanced or not.
    """
    keep = [p for p, g in enumerate(frame.prefix_groups()) if any(len(c) > 1 for c in g.values())]
    if len(keep) == frame.arity:
        return keep, frame
    return keep, _keep(frame, keep)
