"""Exact solution counting through rank-one block reconstruction.

The solution set R of an instance over a Mal'tsev-closed, balanced language
is never materialized. Instead, for every coordinate pair (i, j) with i < j
the count N(i, j)(y) of length-(i+1) prefixes compatible with value y at
position j is computed by a sweep over i:

* the values at j split into classes sharing a compatible (i+1)-prefix, and
  the values at i split into classes sharing an i-prefix and a j-value;
* the matrix "number of i-prefixes compatible with the pair (x, y)" is
  constant on class pairs, and the quotient matrix is a rank-one block
  matrix whose row and column sums are the stage-(i-1) counts;
* reconstructing the quotient from its margins and support and summing
  columns yields the stage-i counts.

Everything runs on frames; the only sizes touched are projections onto at
most three coordinates. All arithmetic is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .frames import Frame, SectionCache, build_frame, closure_project
from .maltsev import MaltsevOp

# Not used here. The benchmark's tracer test reads both names through this
# module, so they stay bound in it.
from .oracle import balance_matrix, enumerate_solutions  # noqa: F401
from .relations import (
    BlockDecomposition,
    CongruencePair,
    CountMatrix,
    Instance,
    Partition,
    ReconstructionError,
    RelationalStructure,
    _bipartite_blocks,
    reconstruct_rank_one,
)


class NotBalancedError(RuntimeError):
    """The counting invariants failed: the language admits a Mal'tsev
    operation but some intermediate matrix is not a rank-one block matrix
    with consistent margins."""


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

    Base stages (i = 0) carry no congruence or quotient.
    """

    i: int
    j: int
    support: frozenset
    congruence: Optional[CongruencePair]
    quotient: Optional[CountMatrix]
    counts: PrefixCounts


def _pair_support(frame: Frame, phi: MaltsevOp, i: int, j: int) -> dict:
    """The (i, j) pair closure: (x, y) -> a tuple of the generated relation
    with x at i and y at j, one per reachable pair."""
    return {(t[i], t[j]): t for t in closure_project(frame.rows, phi, (i, j))}


def congruences(frame: Frame, phi: MaltsevOp, i: int, j: int) -> CongruencePair:
    """Both coordinate-pair congruences of the generated relation, without
    enumerating it.

    Both are read off one section's (i, j) pair closure. For a support
    tuple t through (x, y), the (i, j) projection of the section at t[:i]
    is a union of complete bipartite blocks. The forward class of y is the
    row of x: by rectangularity the class of y is the set of values at j
    that extend any compatible (i+1)-prefix, and t[:i+1] is one. The
    backward class of x is the column of y. Any column gives the same
    classes: if u = p.x..y, v = p.x'..y and s = p'.x..y' lie in R, then so
    does phi(v, u, s) = p'.x'..y', so x' shares every i-prefix and j-value
    that x has.
    """
    if not 1 <= i < j <= frame.arity - 1:
        raise ValueError("need 1 <= i < j <= arity-1")
    return _congruences(SectionCache(frame, phi), i, j, _pair_support(frame, phi, i, j))


def _congruences(sections: SectionCache, i: int, j: int, support: dict) -> CongruencePair:
    """congruences for the frame of `sections`, whose pair closures it reads
    and fills; `support` is the (i, j) _pair_support. One section per
    support pair whose x or y is not yet in a class."""
    forward: list = []
    backward: list = []
    rows: set = set()
    cols: set = set()
    for (x, y), t in support.items():
        if x in rows and y in cols:
            continue
        block = sections.pairs(t[:i])[j - i]
        if y not in cols:
            cls = block[x]
            forward.append(cls)
            cols.update(cls)
        if x not in rows:
            cls = [x2 for x2, ends in block.items() if y in ends]
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
) -> int:
    """Size of the relation generated by a frame.

    With verify=True the margin constancy the reconstruction relies on is
    re-checked on every congruence class; violations raise
    NotBalancedError, as do inconsistent margins or non-integral
    reconstructed entries. A `trace` list receives one CountStep per stage.
    """
    if frame.is_empty():
        return 0
    n = frame.arity
    if n == 0:
        return 1
    if n == 1:
        return len(frame.projection(0))

    sections = SectionCache(frame, phi)
    counts: dict = {}
    # the base stages read the (0, j) closures that the root sections share
    root = sections.pairs(())
    for j in range(1, n):
        vals: dict = {}
        for ends in root[j].values():
            for y in ends:
                vals[y] = vals.get(y, 0) + 1
        counts[(0, j)] = vals
        if trace is not None:
            support = frozenset((x, y) for x, ends in root[j].items() for y in ends)
            trace.append(CountStep(0, j, support, None, None, PrefixCounts(0, j, dict(vals))))

    for i in range(1, n - 1):
        for j in range(i + 1, n):
            support = _pair_support(frame, phi, i, j)
            blocks = _bipartite_blocks(support)
            cong = _congruences(sections, i, j, support)
            row_rep = {x: min(c) for c in cong.backward for x in c}
            col_rep = {y: min(c) for c in cong.forward for y in c}
            row_counts = counts[(i - 1, i)]
            col_counts = counts[(i - 1, j)]
            if verify:
                for part, stage in ((cong.backward, row_counts), (cong.forward, col_counts)):
                    for cls in part:
                        if len({stage[v] for v in cls}) != 1:
                            raise NotBalancedError(
                                "stage counts are not constant on a congruence "
                                "class at pair (%d, %d)" % (i, j)
                            )
            row_totals = {r: row_counts[r] for r in set(row_rep.values())}
            col_totals = {c: col_counts[c] for c in set(col_rep.values())}
            # Every forward and backward class lies inside one support block,
            # and a vertex map keeps a block connected, so the blocks mapped
            # to class representatives are the quotient support's blocks; they
            # stay in least-row order because each representative is its
            # class's least element.
            quotient_blocks = BlockDecomposition(
                tuple(
                    (frozenset(row_rep[x] for x in rows), frozenset(col_rep[y] for y in cols))
                    for rows, cols in blocks
                )
            )
            try:
                quotient = reconstruct_rank_one(quotient_blocks, row_totals, col_totals)
            except ReconstructionError as e:
                raise NotBalancedError(
                    "reconstruction failed at pair (%d, %d): %s" % (i, j, e)
                ) from e
            vals = {}
            for x, y in support:
                vals[y] = vals.get(y, 0) + quotient.get(row_rep[x], col_rep[y])
            counts[(i, j)] = vals
            if trace is not None:
                trace.append(
                    CountStep(
                        i,
                        j,
                        frozenset(support),
                        cong,
                        quotient,
                        PrefixCounts(i, j, dict(vals)),
                    )
                )
    return sum(counts[(n - 2, n - 1)].values())


def count(
    structure: RelationalStructure,
    phi: MaltsevOp,
    instance: Instance,
    verify: bool = False,
    trace: Optional[list] = None,
) -> int:
    """Number of solutions of the instance, via frames and reconstruction.

    Variables mentioned in no constraint contribute a factor q each and are
    stripped before the frame is built; with none left, the frame is the
    arity-0 one, still checked against phi like any other.
    """
    q = structure.domain_size
    used = instance.constrained_variables()
    free = instance.num_vars - len(used)
    remap = {v: k for k, v in enumerate(used)}
    core = Instance(
        len(used),
        tuple(
            (name, tuple(remap[v] for v in scope))
            for name, scope in instance.constraints
        ),
    )
    frame = build_frame(structure, phi, core)
    return (q ** free) * count_frame(frame, phi, verify=verify, trace=trace)

