"""Brute-force reference implementations.

Everything here enumerates the full assignment space and never touches the
frame machinery, so it can serve as an independent check of the fast path.
All functions refuse instances whose search space exceeds a caller-supplied
cap instead of silently taking forever.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from .relations import (
    CongruencePair,
    CountMatrix,
    Instance,
    Partition,
    Relation,
    RelationalStructure,
    _require_int,
    pair_matrix,
    partition_from_groups,
)


class CapExceededError(RuntimeError):
    """The assignment space q**n is larger than the enumeration cap."""


DEFAULT_CAP_BITS = 24


def enumerate_solutions(
    structure: RelationalStructure,
    instance: Instance,
    cap_bits: int = DEFAULT_CAP_BITS,
) -> Relation:
    """All satisfying assignments of the instance, as an arity-n relation.

    Raises CapExceededError when q**n > 2**cap_bits, ValueError for a
    non-int cap_bits.
    """
    _require_int(cap_bits, "enumeration cap")
    q = structure.domain_size
    n = instance.num_vars
    if n < 1:
        raise ValueError("need at least one variable")
    checks = structure.resolve(instance.constraints)
    if q ** n > 2 ** cap_bits:
        raise CapExceededError(
            "q**n = %d**%d exceeds the %d-bit enumeration cap" % (q, n, cap_bits)
        )
    sols = [
        t
        for t in itertools.product(range(q), repeat=n)
        if all(tuple(t[v] for v in scope) in rel for rel, scope in checks)
    ]
    return Relation(n, sols)


def oracle_count(
    structure: RelationalStructure,
    instance: Instance,
    cap_bits: int = DEFAULT_CAP_BITS,
) -> int:
    """Number of satisfying assignments, by full enumeration. An instance
    over no variables has one, the empty assignment: it holds no constraint,
    since every scope is nonempty. A non-int cap_bits is a ValueError."""
    _require_int(cap_bits, "enumeration cap")
    if instance.num_vars == 0:
        return 1
    return len(enumerate_solutions(structure, instance, cap_bits))


def oracle_balance(relation: Relation, split: Sequence[int]) -> CountMatrix:
    """Count matrix of a relation split into three coordinate groups
    (left, middle, trailing): entry (x, y) counts the tuples whose first
    values equal x and next values equal y, with the trailing group summed
    out. Labels are value tuples."""
    left, middle, rest = split
    for part in (left, middle, rest):
        _require_int(part, "split size")
    if left < 1 or middle < 1 or rest < 0 or left + middle + rest != relation.arity:
        raise ValueError("split %r does not fit arity %d" % (tuple(split), relation.arity))
    entries: dict = {}
    for t in relation:
        key = (t[:left], t[left:left + middle])
        entries[key] = entries.get(key, 0) + 1
    rows = sorted({x for (x, _) in entries})
    cols = sorted({y for (_, y) in entries})
    return CountMatrix(rows, cols, entries)


def oracle_congruence(relation: Relation, i: int) -> Partition:
    """Partition of the position-i values of a relation by "some two tuples
    with equal length-i prefixes take these values at i", closed
    transitively."""
    _require_int(i, "position")
    if not 0 <= i < relation.arity:
        raise ValueError("position out of range")
    groups: dict = {}
    for t in relation:
        groups.setdefault(t[:i], set()).add(t[i])
    return partition_from_groups(groups.values())


def oracle_congruence_pair(relation: Relation, i: int, j: int) -> CongruencePair:
    """Both congruences of a coordinate pair, read off the explicit tuple
    set: forward groups position-j values under equal length-(i+1) prefixes,
    backward groups position-i values under equal length-i prefix plus equal
    position-j value."""
    _require_int(i, "position i")
    _require_int(j, "position j")
    if not 0 <= i < j < relation.arity:
        raise ValueError("need 0 <= i < j < arity")
    fwd: dict = {}
    bwd: dict = {}
    for t in relation:
        fwd.setdefault(t[: i + 1], set()).add(t[j])
        bwd.setdefault((t[:i], t[j]), set()).add(t[i])
    return CongruencePair(
        i,
        j,
        partition_from_groups(fwd.values()),
        partition_from_groups(bwd.values()),
    )


def balance_matrix(
    structure: RelationalStructure,
    instance: Instance,
    i: int,
    j: int,
    cap_bits: int = DEFAULT_CAP_BITS,
) -> CountMatrix:
    """Pairwise solution-count matrix M(x, y) = number of solutions with
    value x at variable i and y at variable j, by full enumeration. A
    reference quantity for tests; the balance refuter joins instead."""
    return pair_matrix(enumerate_solutions(structure, instance, cap_bits), i, j)
