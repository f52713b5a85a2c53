"""The three workloads: their ops and expected results.

An op is one timed public call into countcsp. Each workload's `ops` turns
the seeded specs from `inputs.py` into ops against the currently imported
countcsp; each op looks its function up through the package at call time,
so the tracer's rebinding is seen. Expected results never come from frames
or counting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import inputs
import reference
from languages import LANGUAGES

AFFINE_TIMEOUT_NODES = 1000


@dataclass
class Op:
    kind: str
    label: str
    call: Callable[[], object]
    expected: object
    repeats: int = 1  # calls per pass; the pass records their median time


def _affine(cc):
    aff = LANGUAGES["aff3"]
    return cc.RelationalStructure(aff.p, {aff.relation: cc.Relation(aff.arity, sorted(aff.tuples()))})


def _structures(cc, names) -> dict:
    """countcsp structures for the named linear languages, checked against
    the benchmark's own equations."""
    from countcsp import fixtures

    build = {
        "xor3": fixtures.xor3_structure,
        "aff3": lambda: _affine(cc),
        "diag3": lambda: fixtures.diagonal_structure(3),
    }
    structures = {name: build[name]() for name in names}
    for name, st in structures.items():
        lang = LANGUAGES[name]
        if set(st.relation(lang.relation).tuples) != lang.tuples():
            raise ValueError("countcsp relation %s differs from its equations" % lang.relation)
    return structures


def _maltsev(cc, structures: dict) -> dict:
    phis = {}
    for name, st in structures.items():
        phi = cc.find_maltsev(st)
        if phi is None:
            raise ValueError("no Mal'tsev operation for %s" % name)
        phis[name] = phi
    return phis


# -- chain -----------------------------------------------------------------

def chain_specs(seed: int) -> list:
    return [(spec, reference.chain_count(spec[0])) for spec in inputs.chain_instances(seed)]


def chain_ops(cc, specs: list) -> list:
    structures = _structures(cc, sorted({spec[0] for spec, _ in specs}))
    phis = _maltsev(cc, structures)
    ops = []
    for (lang, n, cons), expected in specs:
        st, phi = structures[lang], phis[lang]
        inst = cc.Instance(n, cons)
        ops.append(Op(
            "count", "%s n=%d" % (lang, n),
            lambda st=st, phi=phi, inst=inst: cc.count(st, phi, inst),
            expected,
        ))
    return ops


# -- random_mix ------------------------------------------------------------

def random_mix_specs(seed: int) -> list:
    return [
        (spec, reference.linear_count(*spec))
        for spec in inputs.random_mix_instances(seed)
    ]


def _core(cc, cons):
    # The frame of the constrained variables only, as count() builds it:
    # build_frame on a wide instance's 200+ free variables would take hours.
    used = sorted({v for _, scope in cons for v in scope})
    remap = {v: k for k, v in enumerate(used)}
    return cc.Instance(len(used), [(name, tuple(remap[v] for v in scope)) for name, scope in cons])


def random_mix_ops(cc, specs: list) -> list:
    structures = _structures(cc, sorted({spec[0] for spec, _ in specs}))
    phis = _maltsev(cc, structures)
    ops = []
    for k, ((lang, n, cons), expected) in enumerate(specs):
        st, phi = structures[lang], phis[lang]
        inst = cc.Instance(n, cons)
        core = _core(cc, cons)
        label = "#%d %s n=%d core=%d" % (k, lang, n, core.num_vars)
        ops.append(Op(
            "decide", label,
            lambda st=st, phi=phi, core=core: not cc.build_frame(st, phi, core).is_empty(),
            expected > 0,
        ))
        ops.append(Op(
            "count", label,
            lambda st=st, phi=phi, inst=inst: cc.count(st, phi, inst),
            expected,
        ))
    return ops


# -- analyze ---------------------------------------------------------------

# language -> (keyword arguments, expected (verdict, quadruple, quadruples
# checked)). A q=2 sweep checks all 8 quadruples with c != d.
ANALYZE_VERDICTS = {
    "or": ({}, ("NOT_STRONGLY_RECTANGULAR", None, 0)),
    "disequality3": ({}, ("NOT_STRONGLY_RECTANGULAR", None, 0)),
    "rank_defect": ({}, ("NOT_BALANCED", None, 0)),
    "constants": ({}, ("BALANCED", None, 8)),
    "xor3": ({}, ("BALANCED", None, 8)),
    "aff3": ({"max_nodes": AFFINE_TIMEOUT_NODES}, ("TIMEOUT", (0, 0, 0, 1), 1)),
}


# The ops of a few milliseconds or less are called this often per pass: a
# pass takes seconds, so they would otherwise get two or three samples in a
# run. A fixed count, not a time, keeps the traced per-pass counts exact.
ANALYZE_REPEATS = {"or": 20, "disequality3": 20, "rank_defect": 20, "constants": 20}


def analyze_specs(seed: int) -> list:
    """The languages and their order are fixed, so the seed changes
    nothing: the millisecond calls are timed right after the same
    neighbours in every run."""
    return [(name, expected) for name, (_, expected) in ANALYZE_VERDICTS.items()]


def analyze_ops(cc, specs: list) -> list:
    from countcsp import fixtures

    structures = {
        "or": fixtures.or_structure(),
        "disequality3": fixtures.disequality_structure(3),
        "rank_defect": fixtures.rank_defect_structure(),
        "constants": fixtures.constants_structure(),
        "xor3": fixtures.xor3_structure(),
        "aff3": _affine(cc),
    }
    ops = []
    for name, expected in specs:
        st = structures[name]
        kwargs = ANALYZE_VERDICTS[name][0]

        def call(st=st, kwargs=kwargs):
            v = cc.decide_strong_balance(st, **kwargs)
            return (v.kind, v.quadruple, v.quadruples_checked)

        ops.append(Op("analyze", name, call, expected, ANALYZE_REPEATS.get(name, 1)))
    return ops


# name -> (seeded specs with expected results, ops from specs)
WORKLOADS = {
    "chain": (chain_specs, chain_ops),
    "random_mix": (random_mix_specs, random_mix_ops),
    "analyze": (analyze_specs, analyze_ops),
}
