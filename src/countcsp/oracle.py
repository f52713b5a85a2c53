"""Brute-force reference implementations.

Everything here enumerates the full assignment space and never touches the
frame machinery, so it can serve as an independent check of the fast path:
the CLI's `oracle` and `selftest` commands count through it.
All functions refuse instances whose search space exceeds a caller-supplied
cap instead of silently taking forever. Oracles that only the tests read
(balance splits and position congruences of an explicit relation) live
with the tests' other reference implementations.
"""

from __future__ import annotations

import itertools

from .relations import (
    CountMatrix,
    Instance,
    Relation,
    RelationalStructure,
    _require_int,
    pair_matrix,
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
