import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from countcsp import (
    Instance,
    NotBalancedError,
    RelationalStructure,
    UnknownRelationError,
    balance_matrix,
    build_frame,
    congruences,
    count,
    count_frame,
    empty_frame,
    enumerate_solutions,
    find_maltsev,
    oracle_count,
)
from countcsp import counting, frames
from countcsp.fixtures import (
    constants_structure,
    diagonal_structure,
    even_parity4_structure,
    random_instance,
    rank_defect_structure,
    xor3_structure,
)

import helpers


XOR3 = xor3_structure()
MIN2 = find_maltsev(XOR3)


def _fast_and_oracle(structure, instance):
    phi = find_maltsev(structure)
    return (
        lambda: count(structure, phi, instance),
        lambda: build_frame(structure, phi, instance),
        lambda: oracle_count(structure, instance),
    )


def test_scope_arity_mismatch_is_rejected_everywhere():
    for run in _fast_and_oracle(XOR3, Instance(2, [("XOR3", (0, 1))])):
        with pytest.raises(ValueError, match="scope length does not match relation arity"):
            run()


@pytest.mark.parametrize("name", ["NOPE", "CONST_2", "CONST_x", "CONST_\u00b2"])
def test_unknown_relation_name_is_a_typed_error(name):
    for run in _fast_and_oracle(XOR3, Instance(1, [(name, (0,))])):
        with pytest.raises(UnknownRelationError) as exc:
            run()
        assert isinstance(exc.value, KeyError)
        assert exc.value.args == (name,)
        assert str(exc.value) == "no relation named %r in the structure" % name


CHAIN3 = Instance(3, [("XOR3", (0, 1, 2))])


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda st, f: count(st, None, CHAIN3), "phi"),
        (lambda st, f: count(st, MIN2, None), "instance"),
        (lambda st, f: count(None, MIN2, CHAIN3), "structure"),
        (lambda st, f: build_frame(st, MIN2, [("XOR3", (0, 1, 2))]), "instance"),
        (lambda st, f: build_frame(st, MIN2.table, CHAIN3), "phi"),
        (lambda st, f: count_frame(None, MIN2), "frame"),
        (lambda st, f: count_frame(f, None), "phi"),
        (lambda st, f: frames.add_constraint(f, MIN2, "XOR3", (0, 1, 2)), "relation"),
        (lambda st, f: frames.add_constraint(f.rows, MIN2, st.relation("XOR3"), (0,)), "frame"),
        (lambda st, f: frames.add_constraint(f, None, st.relation("XOR3"), (0, 1, 2)), "phi"),
    ],
    ids=[
        "count-phi", "count-instance", "count-structure", "build_frame-instance",
        "build_frame-phi", "count_frame-frame", "count_frame-phi", "add_constraint-relation",
        "add_constraint-frame", "add_constraint-phi",
    ],
)
def test_builder_entries_name_an_argument_of_another_class(call, name):
    # a TypeError naming the parameter, raised before any step is looked
    # up: the structure's relations keep no step cache
    st = xor3_structure()
    with pytest.raises(TypeError, match="^%s must be of class " % name):
        call(st, frames.initial_frame(3, 2))
    assert st.relation("XOR3")._frames is None


# CONST_0 and CONST_1 on variable 0: unsatisfiable whatever else is there
UNSAT = [("CONST_0", (0,)), ("CONST_1", (0,))]


@pytest.mark.parametrize(
    "bad, error",
    [
        (("NOPE", (1, 2)), UnknownRelationError),
        (("NOPE", (0, 1)), UnknownRelationError),
        (("XOR3", (1, 2)), ValueError),
        (("XOR3", (0, 1)), ValueError),
    ],
)
@pytest.mark.parametrize("bad_first", [True, False])
def test_malformed_constraints_raise_beside_an_unsatisfiable_one(bad, error, bad_first):
    # every constraint is resolved and arity-checked before any frame work,
    # in the bad constraint's component ((0, 1)) or a later one ((1, 2))
    inst = Instance(3, [bad] + UNSAT if bad_first else UNSAT + [bad])
    for run in _fast_and_oracle(XOR3, inst):
        with pytest.raises(error):
            run()


@pytest.mark.parametrize(
    "constraints, error",
    [
        ([("XOR3", (0, 1)), ("NOPE", (0,))], ValueError),
        ([("NOPE", (0,)), ("XOR3", (0, 1))], UnknownRelationError),
    ],
)
def test_the_first_malformed_constraint_decides_the_error(constraints, error):
    # constraints are resolved one at a time, in order, by the fast path and
    # the oracle alike (RelationalStructure.resolve)
    for run in _fast_and_oracle(XOR3, Instance(3, constraints)):
        with pytest.raises(error):
            run()


def test_operation_over_another_domain_is_rejected():
    # q=2 operation on a q=3 structure (once an IndexError deep in a
    # closure) and q=3 on q=2 (once a frame, then overlapping classes)
    diag3 = diagonal_structure(3)
    cases = [
        (diag3, MIN2, Instance(3, [("DIAG", (0, 1, 2))])),
        (XOR3, find_maltsev(diag3), Instance(3, [("XOR3", (0, 1, 2))])),
    ]
    for st, phi, inst in cases:
        for run in (lambda: build_frame(st, phi, inst), lambda: count(st, phi, inst)):
            with pytest.raises(ValueError, match="operation is over %d elements" % phi.q):
                run()


def test_operation_over_another_domain_is_rejected_without_constraints():
    # no constrained variable once meant q**n without a look at phi
    for n in (0, 3):
        with pytest.raises(ValueError, match="operation is over 2 elements, the structure over 3"):
            count(diagonal_structure(3), find_maltsev(XOR3), Instance(n, []))


def test_count_single_constraint():
    inst = Instance(3, [("XOR3", (0, 1, 2))])
    assert count(XOR3, MIN2, inst) == 4


def test_count_chain():
    # x1+x2+x3 = 0 and x3+x4+x5 = 0 leave x1, x2, x4 free
    inst = Instance(5, [("XOR3", (0, 1, 2)), ("XOR3", (2, 3, 4))])
    assert count(XOR3, MIN2, inst) == 8
    assert oracle_count(XOR3, inst) == 8


def test_unconstrained_variables_factor_out():
    inst = Instance(30, [("XOR3", (4, 9, 17))])
    assert count(XOR3, MIN2, inst) == 4 * 2 ** 27
    assert count(XOR3, MIN2, Instance(6, [])) == 2 ** 6


def test_count_frame_edges():
    assert count_frame(empty_frame(3), MIN2) == 0
    assert count_frame(build_frame(XOR3, MIN2, Instance(0, [])), MIN2) == 1
    one = build_frame(XOR3, MIN2, Instance(1, [("CONST_1", (0,))]))
    assert count_frame(one, MIN2) == 1
    free = build_frame(XOR3, MIN2, Instance(1, []))
    assert count_frame(free, MIN2) == 2


def test_count_matches_oracle_battery():
    rng = random.Random(2024)
    structures = [xor3_structure(), constants_structure(), diagonal_structure()]
    ops = [find_maltsev(st) for st in structures]
    for st, phi in zip(structures, ops):
        for _ in range(40):
            inst = random_instance(st, rng, max_vars=6, max_constraints=5)
            assert count(st, phi, inst, verify=True) == oracle_count(st, inst)


AFF3 = helpers.aff3_structure()
N = helpers.n_structure()


def test_count_matches_oracle_on_seven_languages():
    # dropped tails (equal class sizes) on the affine languages, diag3 and
    # constants; kept ones on N; rank_defect is not balanced, and its
    # forced counts stay exact. q = 7 keeps to 4 variables for the oracle.
    languages = [
        xor3_structure(), even_parity4_structure(), diagonal_structure(3),
        constants_structure(), rank_defect_structure(), AFF3, N,
    ]
    for st in languages:
        phi = find_maltsev(st)
        rng = random.Random(11)
        max_vars = 4 if st.domain_size > 3 else 8
        for _ in range(300):
            inst = random_instance(st, rng, max_vars=max_vars, max_constraints=7)
            want = oracle_count(st, inst)
            assert count(st, phi, inst) == want, inst.constraints
            assert count(st, phi, inst, verify=True) == want, inst.constraints


def _frame_count_and_trace(st, phi, inst, build_first=False) -> tuple:
    trace: list = []
    if build_first:
        text = frames.dump(build_frame(st, phi, inst))
    counted = count(st, phi, inst, trace=trace)
    if not build_first:
        text = frames.dump(build_frame(st, phi, inst))
    return text, counted, trace


def _met_hits(monkeypatch) -> dict:
    # steps that meet a component and are looked up, and those of them
    # that miss: each miss stores its frame, a hit stores nothing
    tally = {"looked_up": 0, "stored": 0}
    met_keys: set = set()
    key_of, store = frames._step_key, frames._Steps.store

    def looked_up(phi, at, n, parts):
        key = key_of(phi, at, n, parts)
        if parts and key is not None:
            tally["looked_up"] += 1
            met_keys.add(key)
        return key

    def stored(self, key, frame):
        tally["stored"] += key in met_keys
        return store(self, key, frame)

    monkeypatch.setattr(frames, "_step_key", looked_up)
    monkeypatch.setattr(frames._Steps, "store", stored)
    return tally


def test_frames_kept_on_relations_change_no_result(monkeypatch):
    # a structure shared by the whole battery keeps its builder steps'
    # frames and its collapsed relations on its relations, and serves
    # count and build_frame in turn: the draws in order, count first, then
    # in reverse, build_frame first. A new structure per draw starts with
    # none, so builds every one
    factories = [
        xor3_structure, lambda: diagonal_structure(3), helpers.aff3_structure,
        even_parity4_structure, constants_structure, rank_defect_structure, helpers.n_structure,
    ]
    tally = _met_hits(monkeypatch)
    for factory in factories:
        shared = factory()
        phi = find_maltsev(shared)
        rng = random.Random(5)
        max_vars = 4 if shared.domain_size > 3 else 7
        draws = [
            random_instance(shared, rng, max_vars=max_vars, max_constraints=7)
            for _ in range(150)
        ]
        for build_first, order in ((False, draws), (True, draws[::-1])):
            for inst in order:
                fresh = _frame_count_and_trace(factory(), phi, inst, build_first)
                assert _frame_count_and_trace(shared, phi, inst, build_first) == fresh, (
                    inst.constraints
                )
        assert shared.relation(shared.relation_names[0])._frames.entries
    # steps that meet a component hit too, not only fresh-variable ones
    assert tally["looked_up"] > tally["stored"] > 0


def test_a_step_that_meets_a_component_is_kept(monkeypatch):
    # XOR3(1, 2, 3) then XOR3(0, 1, 2), and the same shape shifted up one
    # variable: the second build repeats both steps, the later of which
    # meets the component of the first
    st = xor3_structure()
    arities = _add_constraint_arities(monkeypatch)
    first = Instance(4, [("XOR3", (0, 1, 2)), ("XOR3", (1, 2, 3))])
    assert frames.dump(build_frame(st, MIN2, first)).startswith("frame n=4 rows=3")
    assert arities == [3, 4]
    del arities[:]
    shifted = Instance(5, [("XOR3", (1, 2, 3)), ("XOR3", (2, 3, 4))])
    assert frames.dump(build_frame(st, MIN2, shifted)).startswith("frame n=5 rows=4")
    assert arities == []


def test_a_frame_kept_on_a_relation_cannot_be_changed_through_a_build():
    # one fresh-variable constraint and no free variable: build_frame hands
    # back the frame kept on XOR3 itself, and a new free coordinate is
    # _free(2)'s frame; changing either must not reach the next build
    st = xor3_structure()
    inst = Instance(3, [("XOR3", (0, 1, 2))])
    kept = build_frame(st, MIN2, inst)
    assert kept is build_frame(st, MIN2, inst)
    text = frames.dump(kept)
    for f in (kept, build_frame(st, MIN2, Instance(1, []))):
        with pytest.raises(TypeError):
            f.witness[(1, 0)] = 0
        with pytest.raises(TypeError):
            del f.witness[(0, 0)]
    assert frames.dump(build_frame(st, MIN2, inst)) == text
    assert frames.dump(build_frame(xor3_structure(), MIN2, inst)) == text
    assert count(st, MIN2, inst) == 4


def test_step_caches_stay_within_their_budget(monkeypatch):
    # 2,000 distinct seeded instances over each of three languages, each
    # counted and built on one structure, then build_frame of a chain whose
    # frames outgrow the share: every relation's step cache holds its
    # entries' cells (rows times arity of the key's frames and the kept
    # frame), at most _STEP_BUDGET in all, no key whose frames pass
    # _STEP_SHARE and no kept frame's prefix groups; the stream stores more
    # than XOR3's cache keeps
    stored: dict = {}
    store = frames._Steps.store

    def counted(self, key, frame):
        stored[id(self)] = stored.get(id(self), 0) + 1
        return store(self, key, frame)

    monkeypatch.setattr(frames._Steps, "store", counted)
    for factory in (xor3_structure, lambda: diagonal_structure(3), even_parity4_structure):
        st = factory()
        phi = find_maltsev(st)
        rng = random.Random(1)
        seen: set = set()
        while len(seen) < 2000:
            inst = random_instance(st, rng, max_vars=8, max_constraints=7)
            if inst.constraints not in seen:
                seen.add(inst.constraints)
                assert (count(st, phi, inst) == 0) == build_frame(st, phi, inst).is_empty()
        name = st.relation_names[0]
        n = 200
        arity = st.relation(name).arity
        wide = Instance(n, [(name, tuple(range(i, i + arity))) for i in range(n - arity + 1)])
        assert build_frame(st, phi, wide).arity == n
        relations = [st.relation(name), st.relation("EQ")]
        relations += [st.relation("CONST_%d" % a) for a in range(st.domain_size)]
        for relation in relations:
            steps = relation._frames
            total = 0
            for key, (frame, cells) in steps.entries.items():
                parts = key[3 + relation.arity:]
                met = sum(len(p) * len(rows) for p, rows in zip(parts[0::3], parts[1::3]))
                assert key[0] == met <= frames._STEP_SHARE
                assert cells == met + len(frame.rows) * frame.arity
                assert frame._groups is None
                total += cells
            assert steps.cells == total <= frames._STEP_BUDGET
        assert stored[id(st.relation(name)._frames)] > len(st.relation(name)._frames.entries)


def test_the_step_cache_holds_build_frames_peak_rss():
    # build_frame of the XOR3 chain at n = 320 in two children, with the
    # step cache and without it (a negative share: no step is looked up
    # or stored); each reports its peak RSS in KiB. Keeping every step's
    # frame, with no share or budget, took the peak from 17 to 30 MB (CPython 3.11)
    script = textwrap.dedent("""
        import resource, sys
        from countcsp import Instance, build_frame, find_maltsev, frames
        from countcsp.fixtures import xor3_structure
        if sys.argv[1] == "off":
            frames._STEP_SHARE = -1
        st = xor3_structure()
        phi = find_maltsev(st)
        n = 320
        inst = Instance(n, [("XOR3", (i, i + 1, i + 2)) for i in range(n - 2)])
        assert build_frame(st, phi, inst).arity == n
        print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    """)
    peaks = {}
    for cache in ("on", "off"):
        proc = subprocess.run(
            [sys.executable, "-c", script, cache],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src")),
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        peaks[cache] = int(proc.stdout)
    assert peaks["on"] - peaks["off"] < 1024


def _add_constraint_arities(monkeypatch) -> list:
    arities: list = []
    original = frames.add_constraint

    def recorded(frame, *args):
        arities.append(frame.arity)
        return original(frame, *args)

    monkeypatch.setattr(frames, "add_constraint", recorded)
    return arities


def _step_arities(monkeypatch) -> list:
    # every builder step asks for its key with the arity of the product it
    # adds its constraint to, whether the step cache then has the frame
    arities: list = []
    original = frames._step_key

    def recorded(phi, at, n, parts):
        arities.append(n)
        return original(phi, at, n, parts)

    monkeypatch.setattr(frames, "_step_key", recorded)
    return arities


def test_a_banded_count_builds_frames_as_wide_as_its_band(monkeypatch):
    # the XOR3 chain at n = 400 and the wide component XOR3(2k, 2k+1,
    # 2k+2), k < 100: each constraint meets a frame cut after its own
    # scope, so every step's product stays within 4 positions however long
    # the instance; build_frame keeps every position. Each call gets a new
    # structure, whose XOR3 keeps no frame yet: the first two steps of each
    # count build their frames, and every later step repeats the second
    # one's key, so add_constraint runs twice
    steps = _step_arities(monkeypatch)
    arities = _add_constraint_arities(monkeypatch)
    n = 400
    chain = Instance(n, [("XOR3", (i, i + 1, i + 2)) for i in range(n - 2)])
    assert count(xor3_structure(), MIN2, chain) == 4
    assert len(steps) == n - 2 and max(steps) <= 4
    assert arities == [3, 3]
    m = 100
    wide = Instance(2 * m + 1, [("XOR3", (2 * k, 2 * k + 1, 2 * k + 2)) for k in range(m)])
    del steps[:], arities[:]
    assert count(xor3_structure(), MIN2, wide) == 2 ** (m + 1)
    assert len(steps) == m and max(steps) <= 4
    assert arities == [3, 3]
    del steps[:], arities[:]
    chain = Instance(20, [("XOR3", (i, i + 1, i + 2)) for i in range(18)])
    assert build_frame(xor3_structure(), MIN2, chain).arity == 20
    assert steps == arities == list(range(3, 21))


def test_an_n_chain_drops_no_position(monkeypatch):
    # every tail of the N chain has classes of two sizes, so each
    # constraint meets the whole frame built so far. Its solutions are
    # 0..0 followed by 00, 01 or 12: a 1 before the last two positions
    # forces a 2, which no N tuple starts with
    n = 12
    phi = find_maltsev(N)
    chain = Instance(n, [("N", (i, i + 1)) for i in range(n - 1)])
    components, dropped = frames._component_frames(N, phi, chain, drop=True)
    assert dropped == 1
    assert [v for v, _ in components] == [tuple(range(n))]
    # a new structure keeps no frame yet, so every constraint is added;
    # counted again, every step finds its frame in the step cache
    st = helpers.n_structure()
    steps = _step_arities(monkeypatch)
    arities = _add_constraint_arities(monkeypatch)
    assert count(st, phi, chain, verify=True) == 3
    assert steps == arities == list(range(2, n + 1))
    del steps[:], arities[:]
    assert count(st, phi, chain, verify=True) == 3
    assert steps == list(range(2, n + 1)) and arities == []


def test_count_matches_oracle_over_a_declared_unused_element():
    # XOR3 over {0, 1, 2}: element 2 is in no relation but every count,
    # EQ and CONST_2 range over it
    st = RelationalStructure(3, xor3_structure().relations)
    phi = find_maltsev(st)
    rng = random.Random(3)
    for _ in range(200):
        inst = random_instance(st, rng)
        assert count(st, phi, inst) == oracle_count(st, inst), inst.constraints


def test_congruences_match_oracle():
    rng = random.Random(77)
    structures = [xor3_structure(), constants_structure(), diagonal_structure()]
    ops = [find_maltsev(st) for st in structures]
    checked = 0
    for st, phi in zip(structures, ops):
        for _ in range(15):
            inst = random_instance(st, rng, max_vars=5, max_constraints=4)
            f = build_frame(st, phi, inst)
            if f.is_empty() or f.arity < 3:
                continue
            sols = enumerate_solutions(st, inst)
            for i in range(1, f.arity - 1):
                for j in range(i + 1, f.arity):
                    got = congruences(f, phi, i, j)
                    want = helpers.oracle_congruence_pair(sols, i, j)
                    assert got.forward == want.forward, (inst, i, j)
                    assert got.backward == want.backward, (inst, i, j)
                    checked += 1
    assert checked > 50


def test_congruences_of_one_xor3_constraint():
    f = build_frame(XOR3, MIN2, Instance(3, [("XOR3", (0, 1, 2))]))
    got = congruences(f, MIN2, 1, 2)
    assert [sorted(c) for c in got.forward] == [[0], [1]]


def test_trace_stages_match_brute_prefix_counts():
    # every stage, on the uncut frame: count would cut positions 2 and 3,
    # which positions 0 and 1 determine
    inst = Instance(4, [("XOR3", (0, 1, 2)), ("XOR3", (1, 2, 3))])
    sols = enumerate_solutions(XOR3, inst)
    trace: list = []
    assert count_frame(build_frame(XOR3, MIN2, inst), MIN2, verify=True, trace=trace) == len(sols)
    stages = {(s.i, s.j): s for s in trace}
    n = inst.num_vars
    assert set(stages) == {(i, j) for i in range(n - 1) for j in range(i + 1, n)}
    for (i, j), step in stages.items():
        assert step.counts.values == helpers.brute_prefix_counts(sols, i, j)
        if i == 0:
            assert step.quotient is None and step.congruence is None
        else:
            assert step.quotient is not None
    # quotient margins are the previous-stage counts at the representatives
    step = stages[(1, 3)]
    q = step.quotient
    prev_row = helpers.brute_prefix_counts(sols, 0, 1)
    prev_col = helpers.brute_prefix_counts(sols, 0, 3)
    for r in q.row_labels:
        assert sum(q.get(r, c) for c in q.col_labels) == prev_row[r]
    for c in q.col_labels:
        assert sum(q.get(r, c) for r in q.row_labels) == prev_col[c]
    # count's stages are those of the kept positions, and count their
    # solutions' prefixes
    kept: list = []
    assert count(XOR3, MIN2, inst, verify=True, trace=kept) == len(sols)
    assert [(s.i, s.j, s.variables) for s in kept] == [(0, 1, (0, 1))]
    assert kept[0].counts.values == helpers.brute_prefix_counts(sols, 0, 1)


def test_constraint_order_changes_no_count_trace_or_closure(monkeypatch):
    calls = [0]
    closure = frames.closure_project

    def counted(*args):
        calls[0] += 1
        return closure(*args)

    monkeypatch.setattr(frames, "closure_project", counted)
    monkeypatch.setattr(counting, "closure_project", counted)
    n = 20
    chain = [("XOR3", (i, i + 1, i + 2)) for i in range(n - 2)]
    shuffled = list(chain)
    random.Random(11).shuffle(shuffled)
    runs = []
    for order in (chain, chain[::-1], shuffled):
        calls[0] = 0
        trace: list = []
        got = count(XOR3, MIN2, Instance(n, order), trace=trace)
        runs.append((got, helpers.trace_text(trace), calls[0]))
    assert runs[0][0] == 4
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]


# two XOR3 components with interleaved labels and a free variable 4:
# {0, 3, 5, 7} has 4 solutions, {1, 2, 6} with x6 = 1 has 2
LEFT = [("XOR3", (0, 3, 5)), ("XOR3", (3, 5, 7))]
RIGHT = [("XOR3", (1, 2, 6)), ("CONST_1", (6,))]


def _alone(constraints, variables):
    pos = {v: k for k, v in enumerate(variables)}
    scoped = [(name, tuple(pos[v] for v in scope)) for name, scope in constraints]
    return Instance(len(variables), scoped)


def test_components_count_apart():
    inst = Instance(8, [RIGHT[0], LEFT[0], RIGHT[1], LEFT[1]])
    assert count(XOR3, MIN2, inst, verify=True) == 4 * 2 * 2
    assert oracle_count(XOR3, inst) == 16
    # components in order of least variable, each framed and traced as if
    # alone; count_frame sweeps every position of the uncut frames
    components, _ = frames._component_frames(XOR3, MIN2, inst)
    assert [v for v, _ in components] == [(0, 3, 5, 7), (1, 2, 6)]
    trace: list = []
    for variables, frame in components:
        count_frame(frame, MIN2, verify=True, trace=trace, variables=variables)
    alone: list = []
    for constraints, variables in ((LEFT, (0, 3, 5, 7)), (RIGHT, (1, 2, 6))):
        steps: list = []
        count_frame(build_frame(XOR3, MIN2, _alone(constraints, variables)), MIN2, trace=steps)
        alone += [(s, variables) for s in steps]
    assert len(trace) == 6 + 3
    assert helpers.trace_text(trace) == helpers.trace_text([s for s, _ in alone])
    assert [s.variables for s in trace] == [v for _, v in alone]
    # count keeps x0 and x3 of the left component and x1 of the right one,
    # which count_frame counts with no stage
    kept: list = []
    count(XOR3, MIN2, inst, trace=kept)
    assert [(s.i, s.j, s.variables) for s in kept] == [(0, 1, (0, 3))]


def test_unsat_component_gives_zero_and_no_trace():
    inst = Instance(8, LEFT + RIGHT + [("CONST_0", (6,))])
    trace: list = []
    assert count(XOR3, MIN2, inst, trace=trace) == 0
    assert oracle_count(XOR3, inst) == 0
    assert trace == []


def test_count_frame_traces_its_own_positions():
    frame = build_frame(XOR3, MIN2, Instance(4, [("XOR3", (0, 1, 2)), ("XOR3", (1, 2, 3))]))
    trace: list = []
    count_frame(frame, MIN2, trace=trace)
    assert trace and all(s.variables == (0, 1, 2, 3) for s in trace)


def test_rank_defect_straight_scope_counts():
    st = rank_defect_structure()
    phi = find_maltsev(st)
    inst = Instance(3, [("R", (0, 1, 2))])
    assert count(st, phi, inst) == 5


def test_rank_defect_permuted_scope_is_caught():
    # R(x3, x4, x2) puts the doubled column first; the quotient at x3, x4
    # has margins 3,2 / 3,2 over one block of total 5, so no integral
    # reconstruction exists on the uncut frame. x1 is a component of its
    # own, so R's frame has x3, x4 at positions (1, 2), and the error names
    # the variables.
    st = rank_defect_structure()
    phi = find_maltsev(st)
    inst = Instance(4, [("CONST_1", (0,)), ("R", (2, 3, 1))])
    assert oracle_count(st, inst) == 5
    (_, (variables, r_frame)), _ = frames._component_frames(st, phi, inst)
    assert variables == (1, 2, 3)
    with pytest.raises(NotBalancedError) as exc:
        count_frame(r_frame, phi, variables=variables)
    assert "reconstruction failed at pair (2, 3)" in str(exc.value)
    assert exc.value.pair == (2, 3)
    # R's third column determines the other two, so count keeps x2 alone
    # and counts its five values exactly
    assert count(st, phi, inst, verify=True) == 5


# (structure, instance, arities of the frames count_frame sweeps)
DETERMINED = [
    # x0 pinned and x1 equal to it; x2 is free
    (XOR3, Instance(3, [("CONST_0", (0,)), ("EQ", (0, 1))]), []),
    # an aff3 block pinned by CONST and EQ, beside one with two free positions
    (AFF3, Instance(6, [("AFF3", (0, 1, 2)), ("CONST_1", (0,)), ("EQ", (0, 1)),
                        ("AFF3", (3, 4, 5))]), [2]),
]


@pytest.mark.parametrize("structure,inst,swept", DETERMINED, ids=["const_eq", "aff3_pinned"])
def test_a_component_with_no_free_position_is_not_swept(monkeypatch, structure, inst, swept):
    # such a component has one solution; count_frame never sees arity 0
    arities: list = []
    original = counting.count_frame

    def recorded(frame, *args, **kwargs):
        arities.append(frame.arity)
        return original(frame, *args, **kwargs)

    monkeypatch.setattr(counting, "count_frame", recorded)
    phi = find_maltsev(structure)
    trace: list = []
    assert count(structure, phi, inst, verify=True, trace=trace) == oracle_count(structure, inst)
    assert arities == swept
    assert {s.variables for s in trace} <= {(3, 4)}


def test_count_names_a_failing_pair_by_instance_variables(monkeypatch):
    # x1 is a component of its own; x7 is dropped before XOR3(0, 2, 5) is
    # added (no constraint left mentions it, and x3 and x5 determine it),
    # and x5 is cut (x0 and x2 determine it), so the failing stage at kept
    # positions (1, 2) is the pair (2, 3)
    inst = Instance(8, [("XOR3", (0, 2, 5)), ("CONST_1", (1,)), ("XOR3", (3, 5, 7))])
    trace: list = []
    assert count(XOR3, MIN2, inst, verify=True, trace=trace) == oracle_count(XOR3, inst) == 32
    assert [(s.i, s.j) for s in trace] == [(0, 1), (0, 2), (1, 2)]
    assert {s.variables for s in trace} == {(0, 2, 3)}
    monkeypatch.setattr(counting, "_bipartite_blocks", lambda pairs: None)
    with pytest.raises(NotBalancedError) as exc:
        count(XOR3, MIN2, inst)
    assert exc.value.pair == (2, 3)
    # the instance this test pinned before tails were dropped: x4 and x5
    # now go with XOR3(3, 4, 5)'s closed tail, so count's one stage is a
    # base stage and the monkeypatched failure is never reached
    inst = Instance(6, [("XOR3", (0, 2, 3)), ("CONST_1", (1,)), ("XOR3", (3, 4, 5))])
    trace = []
    assert count(XOR3, MIN2, inst, trace=trace) == oracle_count(XOR3, inst) == 8
    assert [(s.i, s.j, s.variables) for s in trace] == [(0, 1, (0, 2))]


def test_non_rectangular_quotient_is_not_balanced(monkeypatch):
    # a quotient support without complete blocks has no rank-one
    # reconstruction; count_frame names the pair instead of failing on None
    monkeypatch.setattr(counting, "_bipartite_blocks", lambda pairs: None)
    inst = Instance(3, [("XOR3", (0, 1, 2))])
    with pytest.raises(NotBalancedError) as exc:
        count_frame(build_frame(XOR3, MIN2, inst), MIN2, variables=(4, 5, 6))
    assert exc.value.pair == (5, 6)
    assert str(exc.value).startswith("reconstruction failed at pair (5, 6): ")


@pytest.mark.parametrize("variables", [(7,), (0, 1), (0, 1, 2, 3)])
def test_variables_of_the_wrong_length_are_rejected(variables):
    # checked before any stage: not an IndexError, nor the rank_defect
    # frame's own NotBalancedError, nor steps that carry the wrong tuple
    st = rank_defect_structure()
    phi = find_maltsev(st)
    frame = build_frame(st, phi, Instance(3, [("R", (1, 2, 0))]))
    with pytest.raises(NotBalancedError, match=r"reconstruction failed at pair \(1, 2\)"):
        count_frame(frame, phi)
    message = "%d names in variables, frame arity 3" % len(variables)
    with pytest.raises(ValueError, match=message):
        count_frame(frame, phi, variables=variables)
    trace: list = []
    balanced = build_frame(XOR3, MIN2, Instance(3, [("XOR3", (0, 1, 2))]))
    with pytest.raises(ValueError, match=message):
        count_frame(balanced, MIN2, trace=trace, variables=variables)
    assert trace == []


def test_balance_matrix():
    inst = Instance(3, [("R", (0, 1, 2))])
    m = balance_matrix(rank_defect_structure(), inst, 0, 1)
    assert m.to_lists() == [[2, 1], [1, 1]]


def test_repeated_counts_hold_their_peak_rss():
    # 2,000 counts of the XOR3 chain at n=20 in a child, which reports its
    # peak RSS in KiB after call 200 and after the last. tuple(<generator>)
    # on count's path sizes each tuple by resizing, which leaves tuples of
    # many sizes in CPython's free lists: building _component_frames'
    # position tuples that way grew the peak by 3.8 MB here.
    script = textwrap.dedent("""
        import resource
        from countcsp import Instance, count, find_maltsev
        from countcsp.fixtures import xor3_structure
        st = xor3_structure()
        phi = find_maltsev(st)
        inst = Instance(20, [("XOR3", (i, i + 1, i + 2)) for i in range(18)])
        for k in range(2000):
            assert count(st, phi, inst) == 4
            if k == 199:
                print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    """)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src")),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    after_200, last = map(int, proc.stdout.split())
    assert last - after_200 < 512
