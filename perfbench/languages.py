"""The benchmark's languages, each defined by linear equations mod p.

Every language used by `chain` and `random_mix` is linear over GF(p): each
relation is the solution set of a few equations mod p. These equations are
the benchmark's own definition of the language. `reference.py` counts
solutions from them, and the benchmark checks at set-up that countcsp's
relations hold exactly the equations' solutions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass


@dataclass(frozen=True)
class Language:
    """One relation given by its equations: each equation is (coefficients
    per relation position, right-hand side), read mod p."""

    p: int
    relation: str
    arity: int
    equations: tuple

    def equations_of(self, name: str) -> tuple:
        """Equations of a relation name, including the built-ins EQ and
        CONST_<a>."""
        if name == self.relation:
            return self.equations
        if name == "EQ":
            return (((1, -1), 0),)
        if name.startswith("CONST_"):
            return (((1,), int(name[len("CONST_"):])),)
        raise KeyError(name)

    def tuples(self) -> set:
        """The relation's tuples: all solutions of its equations."""
        return {
            t
            for t in itertools.product(range(self.p), repeat=self.arity)
            if all(
                sum(c * x for c, x in zip(coeffs, t)) % self.p == rhs % self.p
                for coeffs, rhs in self.equations
            )
        }


LANGUAGES = {
    "xor3": Language(2, "XOR3", 3, (((1, 1, 1), 0),)),
    "aff3": Language(3, "AFF3", 3, (((1, 1, 1), 0),)),
    "diag3": Language(3, "DIAG", 3, (((1, -1, 0), 0), ((0, 1, -1), 0))),
}
