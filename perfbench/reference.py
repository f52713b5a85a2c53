"""Independent solution counts: Gaussian elimination over GF(p).

An instance over a linear language is a linear system mod p; it has no
solution when elimination leaves a row 0 = c with c != 0, and otherwise
p^(n - rank) solutions. Nothing here touches countcsp.
"""

from __future__ import annotations

from languages import LANGUAGES


def linear_count(lang_name: str, n: int, constraints) -> int:
    """Number of solutions of the instance, from the equations that define
    each relation in `languages.LANGUAGES`."""
    lang = LANGUAGES[lang_name]
    p = lang.p
    rows = []
    for name, scope in constraints:
        for coeffs, rhs in lang.equations_of(name):
            row = [0] * (n + 1)
            for v, c in zip(scope, coeffs):
                row[v] = (row[v] + c) % p
            row[n] = rhs % p
            rows.append(row)
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for r in range(len(rows)):
            f = rows[r][col]
            if r != rank and f:
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
    if any(row[n] for row in rows[rank:]):
        return 0
    return p ** (n - rank)


def chain_count(lang_name: str) -> int:
    """Closed form for the chains of `inputs.chain_instances`: XOR3 chains
    leave the first two variables free (p^2), DIAG chains force all
    variables equal (p)."""
    p = LANGUAGES[lang_name].p
    return {"xor3": p ** 2, "diag3": p}[lang_name]
