"""End-to-end acceptance battery.

Nine independent criteria, one test each. Every test prints a single
PASS/FAIL line directly to the terminal (bypassing capture) so a plain
pytest run shows the battery outcome at a glance.
"""

import itertools
import random
import time

import pytest

from countcsp import (
    CountMatrix,
    Instance,
    build_frame,
    cli,
    congruences,
    count_frame,
    decide_strong_balance,
    enumerate_solutions,
    find_maltsev,
    is_rank_one_block,
    member,
    oracle_congruence,
    oracle_congruence_pair,
    oracle_count,
    rank_one_identity_holds,
    reconstruct_rank_one,
    refute_balance,
    span,
    support_is_rectangular,
)
from countcsp.cli import format_instance_text
from countcsp.dichotomy import (
    VERDICT_BALANCED,
    VERDICT_NOT_STRONGLY_RECTANGULAR,
)
from countcsp.fixtures import (
    constants_structure,
    diagonal_structure,
    disequality_structure,
    or_structure,
    random_instance,
    rank_defect_structure,
    xor3_structure,
)
from countcsp.relations import _bipartite_blocks

import helpers


def _criterion(capsys, label, body):
    try:
        detail = body()
    except BaseException as e:
        with capsys.disabled():
            print("[acceptance] %s: FAIL (%s)" % (label, e))
        raise
    with capsys.disabled():
        print("[acceptance] %s: PASS (%s)" % (label, detail))


def _structure_text(st) -> str:
    lines = ["domain %d" % st.domain_size]
    for name in st.relation_names:
        rel = st.relations[name]
        lines.append("relation %s %d %d" % (name, rel.arity, len(rel.tuples)))
        for t in rel.tuples:
            lines.append(" ".join(str(v) for v in t))
    return "\n".join(lines) + "\n"


BALANCED_LANGUAGES = (
    ("xor3", xor3_structure),
    ("constants", constants_structure),
    ("diagonal", diagonal_structure),
)

VERIFY_BITS = 16

_battery: list = []


def _append_case(label, st, phi, inst):
    frame = build_frame(st, phi, inst)
    sols = None
    if st.domain_size ** inst.num_vars <= 2 ** VERIFY_BITS:
        sols = enumerate_solutions(st, inst, cap_bits=VERIFY_BITS)
    _battery.append((label, st, phi, inst, frame, sols))


def _frame_battery():
    """579 frames: random instances over the three tractable fixture
    languages, then over the seven-element language a curated list of
    single-join cases and 60 random instances of up to three variables and
    five constraints. Past three variables a scope can leave a gap before
    its first position, and add_constraint then falls back to closures
    over 7**4 codes, which take seconds to minutes each."""
    if _battery:
        return _battery
    rng = random.Random(4242)
    for label, make in BALANCED_LANGUAGES:
        st = make()
        phi = find_maltsev(st)
        for _ in range(170):
            _append_case(
                label, st, phi, random_instance(st, rng, max_vars=6, max_constraints=5)
            )
    st = rank_defect_structure()
    phi = find_maltsev(st)
    hard = [Instance(3, [("R", p)]) for p in itertools.permutations(range(3))]
    hard += [
        Instance(3, [("R", (0, 1, 2)), ("CONST_0", (0,))]),
        Instance(3, [("R", (0, 1, 2)), ("CONST_2", (2,))]),
        Instance(3, [("R", (0, 1, 2)), ("EQ", (0, 1))]),
    ]
    hard += [random_instance(st, rng, max_vars=3, max_constraints=5) for _ in range(60)]
    for inst in hard:
        _append_case("rankdef", st, phi, inst)
    return _battery


def test_c1_count_equals_oracle_on_random_instances(tmp_path, capsys):
    def body():
        t0 = time.monotonic()
        rng = random.Random(11)
        runs = 0
        for label, make in BALANCED_LANGUAGES:
            st = make()
            spath = tmp_path / (label + ".structure")
            spath.write_text(_structure_text(st))
            ipath = tmp_path / (label + ".instance")
            for _ in range(200):
                inst = random_instance(st, rng, max_vars=8, max_constraints=10)
                ipath.write_text(format_instance_text(inst))
                code = cli.main(["count", str(spath), str(ipath), "--force"])
                out = capsys.readouterr().out
                assert code == 0
                assert int(out) == oracle_count(st, inst, cap_bits=VERIFY_BITS)
                runs += 1
        # the ungated command once: the tractability check itself passes
        spath = tmp_path / "xor3.structure"
        ipath = tmp_path / "gated.instance"
        ipath.write_text("vars 3\nconstraint XOR3 1 2 3\n")
        assert cli.main(["count", str(spath), str(ipath)]) == 0
        assert capsys.readouterr().out == "4\n"
        elapsed = time.monotonic() - t0
        assert runs == 600
        assert elapsed < 120.0
        return "600 instances over 3 languages, every count exact, %.1fs < 120s" % elapsed

    _criterion(capsys, "c1 count==oracle on seeded batteries", body)


def test_c2_seven_element_hard_language(tmp_path, capsys):
    def body():
        t0 = time.monotonic()
        st = rank_defect_structure()
        assert find_maltsev(st) is not None
        ref = refute_balance(st)
        assert ref is not None
        assert ref.matrix.row_labels == (0, 1)
        assert ref.matrix.col_labels == (0, 1)
        assert ref.matrix.to_lists() == [[2, 1], [1, 1]]
        spath = tmp_path / "rankdef.structure"
        spath.write_text(_structure_text(st))
        assert cli.main(["analyze", str(spath)]) == 1
        out = capsys.readouterr().out
        assert out.startswith("SHARP_P_COMPLETE\n")
        elapsed = time.monotonic() - t0
        assert elapsed < 5.0
        return "Mal'tsev found, matrix [[2,1],[1,1]], SHARP_P_COMPLETE, %.2fs < 5s" % elapsed

    _criterion(capsys, "c2 seven-element hard fixture", body)


def test_c3_dichotomy_endpoints(capsys):
    def body():
        t0 = time.monotonic()
        assert decide_strong_balance(or_structure()).kind == VERDICT_NOT_STRONGLY_RECTANGULAR
        assert (
            decide_strong_balance(disequality_structure()).kind
            == VERDICT_NOT_STRONGLY_RECTANGULAR
        )
        v = decide_strong_balance(xor3_structure())
        assert v.kind == VERDICT_BALANCED
        assert v.quadruples_checked == 8
        elapsed = time.monotonic() - t0
        assert elapsed < 300.0
        return (
            "OR and disequality not strongly rectangular; XOR3 balanced after "
            "all 8 quadruples on the 64-element sixth power, %.1fs < 300s" % elapsed
        )

    _criterion(capsys, "c3 dichotomy endpoints", body)


def test_c4_frame_size_and_invariants(capsys):
    def body():
        checked = 0
        verified = 0
        for label, st, phi, inst, frame, sols in _frame_battery():
            n = frame.arity
            assert len(frame) <= n * (st.domain_size - 1) + 1
            checked += 1
            if sols is None:
                continue
            for i in range(n):
                assert frame.projection(i) == tuple(sorted({t[i] for t in sols}))
            for row in frame.rows:
                assert row in sols
            for i in range(n):
                for cls in oracle_congruence(sols, i):
                    prefixes = {frame.witness_row(a, i)[:i] for a in cls}
                    assert len(prefixes) == 1, (label, inst, i, cls)
            verified += 1
        assert checked >= 500
        assert verified >= 500
        return "%d frames within n(q-1)+1, %d verified against enumeration" % (
            checked,
            verified,
        )

    _criterion(capsys, "c4 frame invariants", body)


def test_c5_membership_and_generation(capsys):
    def body():
        member_cases = 0
        closure_cases = 0
        for label, st, phi, inst, frame, sols in _frame_battery():
            if sols is None:
                continue
            q, n = st.domain_size, frame.arity
            in_r = set(sols.tuples)
            for t in itertools.product(range(q), repeat=n):
                assert member(frame, phi, t) == (t in in_r), (label, inst, t)
            member_cases += 1
            if 0 < len(sols) <= 40:
                assert helpers.naive_maltsev_closure(frame.rows, phi) == in_r
                closure_cases += 1
        assert member_cases >= 500
        assert closure_cases >= 40
        return "membership exact on %d full assignment spaces, %d fixpoint closures" % (
            member_cases,
            closure_cases,
        )

    _criterion(capsys, "c5 membership and generation", body)


def _random_count_matrix(rng):
    nr, nc = rng.randint(1, 5), rng.randint(1, 5)
    mode = rng.randrange(3)
    entries: dict = {}
    if mode == 0:
        for x in range(nr):
            for y in range(nc):
                v = rng.randint(0, 4)
                if v:
                    entries[(x, y)] = v
    else:
        rows, cols = list(range(nr)), list(range(nc))
        rng.shuffle(rows)
        rng.shuffle(cols)
        while rows and cols:
            br = [rows.pop() for _ in range(rng.randint(1, len(rows)))]
            bc = [cols.pop() for _ in range(rng.randint(1, len(cols)))]
            rv = {x: rng.randint(1, 2) for x in br}
            cv = {y: rng.randint(1, 2) for y in bc}
            entries.update({(x, y): rv[x] * cv[y] for x in br for y in bc})
            if rng.random() < 0.4:
                break
        if mode == 2 and entries:
            x = rng.randrange(nr)
            y = rng.randrange(nc)
            v = rng.randint(0, 4)
            entries.pop((x, y), None)
            if v:
                entries[(x, y)] = v
    return CountMatrix(range(nr), range(nc), entries)


def _random_rank_one_block_matrix(rng):
    nr, nc = rng.randint(1, 6), rng.randint(1, 6)
    rows, cols = list(range(nr)), list(range(nc))
    rng.shuffle(rows)
    rng.shuffle(cols)
    entries: dict = {}
    while rows and cols:
        br = [rows.pop() for _ in range(rng.randint(1, len(rows)))]
        bc = [cols.pop() for _ in range(rng.randint(1, len(cols)))]
        rv = {x: rng.randint(1, 4) for x in br}
        cv = {y: rng.randint(1, 4) for y in bc}
        entries.update({(x, y): rv[x] * cv[y] for x in br for y in bc})
    return CountMatrix(range(nr), range(nc), entries)


def test_c6_rank_one_block_theory(capsys):
    def body():
        rng = random.Random(66)
        agree = 0
        for _ in range(1000):
            m = _random_count_matrix(rng)
            fast = is_rank_one_block(m)
            assert fast == helpers.rank_one_block_oracle(m)
            assert fast == (support_is_rectangular(m) and rank_one_identity_holds(m))
            agree += 1
        trips = 0
        for _ in range(500):
            m = _random_rank_one_block_matrix(rng)
            support = set(m.support())
            row_totals = {
                x: sum(m.get(x, y) for y in m.col_labels) for x, _ in support
            }
            col_totals = {
                y: sum(m.get(x, y) for x in m.row_labels) for _, y in support
            }
            rec = reconstruct_rank_one(_bipartite_blocks(support), row_totals, col_totals)
            assert set(rec.support()) == support
            for x, y in support:
                assert rec.get(x, y) == m.get(x, y)
            trips += 1
        assert agree == 1000 and trips == 500
        return "1000 classifier agreements, 500 exact reconstruction round-trips"

    _criterion(capsys, "c6 rank-one block theory", body)


def test_c7_congruences_and_stage_matrices(capsys):
    def body():
        pairs = 0
        for label, st, phi, inst, frame, sols in _frame_battery():
            if sols is None or frame.is_empty() or frame.arity < 3:
                continue
            for i in range(1, frame.arity - 1):
                for j in range(i + 1, frame.arity):
                    got = congruences(frame, phi, i, j)
                    want = oracle_congruence_pair(sols, i, j)
                    assert got.forward == want.forward, (label, inst, i, j)
                    assert got.backward == want.backward, (label, inst, i, j)
                    pairs += 1
        stages = 0
        for label, st, phi, inst, frame, sols in _frame_battery():
            if label == "rankdef" or sols is None or frame.is_empty():
                continue
            if frame.arity < 2:
                continue
            trace: list = []
            assert count_frame(frame, phi, verify=True, trace=trace) == len(sols)
            for step in trace:
                i, j = step.i, step.j
                assert step.counts.values == helpers.brute_prefix_counts(sols, i, j)
                if step.quotient is None:
                    continue
                q = step.quotient
                assert is_rank_one_block(q)
                prev_row = helpers.brute_prefix_counts(sols, i - 1, i)
                prev_col = helpers.brute_prefix_counts(sols, i - 1, j)
                for x in q.row_labels:
                    assert sum(q.get(x, y) for y in q.col_labels) == prev_row[x]
                for y in q.col_labels:
                    assert sum(q.get(x, y) for x in q.row_labels) == prev_col[y]
                stages += 1
        assert pairs >= 300
        assert stages >= 200
        return "%d congruence pairs match the oracle, %d stage matrices checked" % (
            pairs,
            stages,
        )

    _criterion(capsys, "c7 congruence and stage-matrix correctness", body)


def test_c8_constraint_addition_paths_agree(capsys):
    def body():
        cases = 0
        spans = 0
        for label, st, phi, inst, frame, sols in _frame_battery():
            if sols is None:
                continue
            other = helpers.split_frame(st, phi, inst)
            assert frame.is_empty() == other.is_empty(), (label, inst)
            if not frame.is_empty():
                # mutual row membership: each closure contains the other's
                # generators, so the generated relations coincide
                for row in frame.rows:
                    assert member(other, phi, row), (label, inst, row)
                for row in other.rows:
                    assert member(frame, phi, row), (label, inst, row)
                if len(sols) <= 150:
                    assert span(frame, phi).tuples == span(other, phi).tuples == sols.tuples
                    spans += 1
            cases += 1
        assert cases >= 500
        return "%d instances, paths identical (%d materialized in full)" % (cases, spans)

    _criterion(capsys, "c8 constraint-addition path equivalence", body)


def test_c9_selftest_determinism(capsys):
    def body():
        assert cli.main(["selftest"]) == 0
        first = capsys.readouterr().out
        assert cli.main(["selftest"]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert first.endswith("selftest ok seed=0 trials=25\n")
        return "two seeded runs byte-identical (%d bytes)" % len(first)

    _criterion(capsys, "c9 selftest determinism", body)
