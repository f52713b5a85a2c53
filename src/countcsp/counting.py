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

from .frames import (
    Frame,
    SectionCache,
    add_constraint,
    build_frame,
    closure_project,
)
from .maltsev import MaltsevOp

# Not used here. The benchmark's tracer test reads both names through this
# module, so they stay bound in it.
from .oracle import balance_matrix, enumerate_solutions  # noqa: F401
from .relations import (
    CongruencePair,
    CountMatrix,
    Instance,
    Partition,
    Relation,
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


def _pair_support(frame: Frame, phi: MaltsevOp, i: int, j: int) -> set:
    return {(t[i], t[j]) for t in closure_project(frame.rows, phi, (i, j))}


def congruences(
    frame: Frame,
    phi: MaltsevOp,
    i: int,
    j: int,
    sections: Optional[SectionCache] = None,
    pinned: Optional[dict] = None,
    support: Optional[set] = None,
) -> CongruencePair:
    """Both coordinate-pair congruences of the generated relation, without
    enumerating it.

    Forward classes come from prefix sections: the class of value b at j is
    the section of b's witness prefix, projected back to position j. For the
    backward side, pinning position j to one column of each support block
    yields a frame of the pinned relation whose witness prefixes group the
    block's row values; distinct blocks contribute disjoint classes.

    `sections` and `pinned` allow callers doing many pairs over one frame to
    share the section cache and the pinned frames (keyed by (j, value)).
    """
    n = frame.arity
    if not 1 <= i < j <= n - 1:
        raise ValueError("need 1 <= i < j <= arity-1")
    if sections is None:
        sections = SectionCache(frame, phi)
    else:
        sections.check(frame, phi)
    if pinned is None:
        pinned = {}
    if support is None:
        support = _pair_support(frame, phi, i, j)

    forward_classes: list = []
    covered: set = set()
    for b in frame.projection(j):
        if b in covered:
            continue
        prefix = frame.witness_row(b, j)[: i + 1]
        cls = sections.get(prefix).projection(j - i - 1)
        forward_classes.append(cls)
        covered.update(cls)

    backward_classes: list = []
    for block_rows, block_cols in _bipartite_blocks(support).blocks:
        a = min(block_cols)
        key = (j, a)
        sub = pinned.get(key)
        if sub is None:
            sub = add_constraint(frame, phi, Relation(1, [(a,)]), (j,), sections=sections)
            pinned[key] = sub
        backward_classes.extend(sub.position_classes(i))

    return CongruencePair(
        i,
        j,
        Partition.from_classes(forward_classes),
        Partition.from_classes(backward_classes),
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

    counts: dict = {}
    for j in range(1, n):
        support = _pair_support(frame, phi, 0, j)
        vals: dict = {}
        for _, y in support:
            vals[y] = vals.get(y, 0) + 1
        counts[(0, j)] = vals
        if trace is not None:
            trace.append(
                CountStep(0, j, frozenset(support), None, None, PrefixCounts(0, j, dict(vals)))
            )

    sections = SectionCache(frame, phi)
    pinned: dict = {}
    for i in range(1, n - 1):
        for j in range(i + 1, n):
            support = _pair_support(frame, phi, i, j)
            cong = congruences(frame, phi, i, j, sections, pinned, support)
            row_rep = {x: cong.backward.representative(x) for x in frame.projection(i)}
            col_rep = {y: cong.forward.representative(y) for y in frame.projection(j)}
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
            quotient_support = {(row_rep[x], col_rep[y]) for (x, y) in support}
            try:
                quotient = reconstruct_rank_one(
                    _bipartite_blocks(quotient_support), row_totals, col_totals
                )
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
    stripped before the frame is built.
    """
    q = structure.domain_size
    used = instance.constrained_variables()
    free = instance.num_vars - len(used)
    if not used:
        return q ** instance.num_vars
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

