"""Seeded inputs for the benchmark workloads, independent of countcsp.

Instances are plain tuples `(language, num_vars, constraints)` over the
languages of `languages.py`, with 0-based, possibly repeating scope
variables, so generation never depends on countcsp (in particular not on
`countcsp.fixtures.random_instance`).
"""

from __future__ import annotations

import math
import random

from languages import LANGUAGES, Language
from reference import linear_count

# (language, chain lengths): each chain is R(x_i, x_{i+1}, x_{i+2}) for all i,
# one connected component with no free variable. Lengths span roughly 3x in
# op time per language, enough for a log-log slope.
CHAIN_SIZES = (("xor3", (10, 14, 20)), ("diag3", (5, 7, 10)))

# random_mix is stratified: the slot index k fixes every property that sets
# an instance's cost (language, component sizes, free variables, constraint
# kinds and their order, repeated variables, SAT or UNSAT and where the
# contradiction sits, wide or not), and the seed draws the rest (variable
# labels, scope wiring, constants). Seeds then differ in instances but not
# in the mix, which keeps aggregate timings comparable across seeds.
RANDOM_MIX_INSTANCES = 360
# Component sizes by domain size, cycled per language. A q=3 instance has
# one block of 3 variables: enough for AFF3 and DIAG scopes of three
# distinct variables (a smaller block folds both into equalities), while a
# second q=3 component made those instances cost about 15x more.
BLOCKS = {
    2: ((3, 3), (4, 3), (5, 3), (4, 4)),
    3: ((3,),),
}
# Constraint kinds cycled along each instance's constraints: the language's
# relation (R), EQ (E) or CONST_a (C).
KINDS = "RCRER"
REPEAT_EVERY = 4         # every 4th multi-variable scope repeats a variable
UNSAT_EVERY = 4          # instances k with k % 4 == 1 are UNSAT: a 25% share
WIDE_EVERY = 40          # instances k with k % 40 == 20 are wide
WIDE_MIN_DIGITS = 100


def chain_instances(seed: int) -> list:
    """One chain per (language, length). The seed only permutes each
    constraint's scope, which leaves the solution set alone because XOR3 and
    DIAG are symmetric in their positions."""
    rng = random.Random(seed)
    out = []
    for lang, sizes in CHAIN_SIZES:
        rel = LANGUAGES[lang].relation
        for n in sizes:
            cons = []
            for i in range(n - 2):
                scope = [i, i + 1, i + 2]
                rng.shuffle(scope)
                cons.append((rel, tuple(scope)))
            out.append((lang, n, tuple(cons)))
    return out


def _scope(rng: random.Random, block: list, touched: list, arity: int, repeat: bool) -> tuple:
    # Distinct variables while the block has enough: one already used keeps
    # the component connected, and the others prefer unused ones, so the
    # component covers its block. `repeat` then folds the last position onto
    # the first.
    scope = [rng.choice(touched)] if touched else []
    rest = [v for v in block if v not in scope]
    rng.shuffle(rest)
    rest.sort(key=lambda v: v in touched)
    scope += rest[:arity - len(scope)]
    while len(scope) < arity:
        scope.append(rng.choice(block))
    if repeat and arity > 1:
        scope[-1] = scope[0]
    rng.shuffle(scope)
    return tuple(scope)


def _candidate(rng: random.Random, lang: Language, blocks: tuple, free: int) -> tuple:
    """Components over disjoint blocks of randomly labelled variables, one
    constraint per block variable, plus `free` unconstrained variables."""
    n = sum(blocks) + free
    labels = list(range(n))
    rng.shuffle(labels)
    cons = []
    start = 0
    for size in blocks:
        block = labels[start:start + size]
        start += size
        touched: list = []
        for _ in range(size):
            t = len(cons)
            kind = KINDS[t % len(KINDS)]
            if kind == "R":
                name, arity = lang.relation, lang.arity
            elif kind == "E":
                name, arity = "EQ", 2
            else:
                name, arity = "CONST_%d" % rng.randrange(lang.p), 1
            scope = _scope(rng, block, touched, arity, t % REPEAT_EVERY == 2)
            touched.extend(v for v in scope if v not in touched)
            cons.append((name, scope))
    return n, tuple(cons)


def _contradict(rng: random.Random, lang_name: str, n: int, cons: tuple, pos: int):
    """Insert at `pos` one CONST_a on a variable whose value the
    constraints already force to something else, or None if none is forced."""
    variables = sorted({v for _, scope in cons for v in scope})
    rng.shuffle(variables)
    for v in variables:
        for a in range(LANGUAGES[lang_name].p):
            extra = ("CONST_%d" % a, (v,))
            if linear_count(lang_name, n, cons + (extra,)) == 0:
                return cons[:pos] + (extra,) + cons[pos:]
    return None


def random_mix_instances(seed: int) -> list:
    """RANDOM_MIX_INSTANCES instances cycling through the three languages.
    Instance k is UNSAT when k % UNSAT_EVERY == 1 (a SAT draw plus one
    contradicting constant, at a place fixed by k) and wide (200+ free variables, a count of more
    than WIDE_MIN_DIGITS digits) when k % WIDE_EVERY == 20; every other
    instance is SAT with k // 3 % 4 free variables. Draws are repeated from
    the same stream until the reference count confirms the slot's kind, so
    the output depends on the seed alone."""
    rng = random.Random(seed)
    names = sorted(LANGUAGES)
    out = []
    for k in range(RANDOM_MIX_INSTANCES):
        lang_name = names[k % len(names)]
        lang = LANGUAGES[lang_name]
        shapes = BLOCKS[lang.p]
        blocks = shapes[(k // len(names)) % len(shapes)]
        if k % WIDE_EVERY == 20:
            # p^free alone has more than WIDE_MIN_DIGITS digits
            free = int(WIDE_MIN_DIGITS / math.log10(lang.p)) + 2
        else:
            free = (k // len(names)) % 4
        while True:
            n, cons = _candidate(rng, lang, blocks, free)
            if linear_count(lang_name, n, cons) == 0:
                continue
            if k % UNSAT_EVERY == 1:
                cons = _contradict(rng, lang_name, n, cons, k // UNSAT_EVERY % (len(cons) + 1))
                if cons is None:
                    continue
            break
        out.append((lang_name, n, cons))
    return out
