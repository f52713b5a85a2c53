import hashlib
import itertools
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from countcsp import (
    MaltsevOp,
    Relation,
    RelationalStructure,
    apply,
    enumerate_maltsev,
    find_maltsev,
    find_maltsev_with_certificate,
    free_entries,
    preserves,
)
from countcsp.fixtures import (
    diagonal_structure,
    disequality_structure,
    or_structure,
    rank_defect_structure,
    xor3_structure,
)
from countcsp.maltsev import encode


def minority_table():
    return tuple((x + y + z) % 2 for x in (0, 1) for y in (0, 1) for z in (0, 1))


def test_free_entries_count_and_order():
    fe2 = free_entries(2)
    assert fe2 == [(0, 1, 0), (1, 0, 1)]
    assert len(free_entries(3)) == 3 * 2 * 2
    assert len(free_entries(5)) == 5 * 4 * 4


def test_op_validates_identities():
    op = MaltsevOp(2, minority_table())
    assert op(0, 1, 1) == 0 and op(1, 1, 0) == 0 and op(0, 0, 1) == 1
    bad = list(minority_table())
    bad[0] = 1  # breaks op(0,0,0) == 0
    with pytest.raises(ValueError):
        MaltsevOp(2, tuple(bad))
    with pytest.raises(ValueError):
        MaltsevOp(2, minority_table()[:-1])


@pytest.mark.parametrize("args", [(0, 1.0, 0), (0.5, 0, 1), (0, 1, 1.0)])
def test_op_rejects_float_arguments(args):
    # a float in range made a float table code, and the read raised a raw
    # TypeError ("tuple indices must be integers or slices, not float")
    op = MaltsevOp(2, minority_table())
    with pytest.raises(ValueError, match=r"^arguments are in range\(2\)"):
        op(*args)


@pytest.mark.parametrize("q", [1.5, 2.0, "2"])
def test_free_entries_rejects_a_domain_size_that_is_not_an_int(q):
    # 1.5 raised a raw TypeError from range(1.5)
    with pytest.raises(ValueError, match="domain size must be an int"):
        free_entries(q)


@pytest.mark.parametrize("args", [(0, 0, 5), (0, 1, -1), (2, 0, 0)])
def test_op_rejects_arguments_outside_the_domain(args):
    # (0, 0, 5) and (0, 1, -1) read other table entries, (2, 0, 0) raised
    # a raw IndexError
    op = MaltsevOp(2, minority_table())
    with pytest.raises(ValueError, match=r"^arguments are in range\(2\)"):
        op(*args)


def test_op_rejects_entries_that_are_not_ints():
    # float and bool tables pass the range and identity checks by equality
    for table in ([float(v) for v in minority_table()], [v == 1 for v in minority_table()]):
        with pytest.raises(ValueError):
            MaltsevOp(2, table)


@pytest.mark.parametrize("q", [2.0, "2", True])
def test_op_rejects_a_domain_size_that_is_not_an_int(q):
    # 2.0 raised a raw TypeError from range, "2" one from q * q * q
    with pytest.raises(ValueError, match="domain size must be an int"):
        MaltsevOp(q, minority_table())


def test_apply_is_coordinatewise():
    op = MaltsevOp(2, minority_table())
    assert apply(op, (0, 0, 1), (0, 1, 1), (1, 1, 1)) == (1, 0, 1)


def test_encode_is_big_endian_base_q():
    assert encode((), 3) == 0
    assert encode((1, 0, 2), 3) == 11
    assert encode([1, 1, 0, 1], 2) == 13


def test_xor3_gets_minority():
    op = find_maltsev(xor3_structure())
    assert op is not None
    assert op.table == minority_table()
    assert preserves(op, xor3_structure().relation("XOR3"))


def test_find_matches_enumeration_on_xor3():
    ops = list(enumerate_maltsev(xor3_structure()))
    assert ops, "at least minority exists"
    assert min(op.table for op in ops) == find_maltsev(xor3_structure()).table


def test_or_has_no_maltsev_with_certificate():
    st = or_structure()
    op, viol = find_maltsev_with_certificate(st)
    assert op is None and viol is not None
    rel = st.relation(viol.relation_name)
    assert all(t in rel for t in viol.triple)
    assert viol.image not in rel
    # the image really is forced coordinatewise
    for pos in range(rel.arity):
        a, b, c = (t[pos] for t in viol.triple)
        assert a == b or b == c
        assert viol.image[pos] == (c if a == b else a)
    assert not list(enumerate_maltsev(st))


def test_disequality_has_no_maltsev():
    op, viol = find_maltsev_with_certificate(disequality_structure())
    assert op is None and viol is not None


def test_rank_defect_structure_is_maltsev_preserved():
    st = rank_defect_structure()
    op = find_maltsev(st)
    assert op is not None
    assert preserves(op, st.relation("R"))
    assert preserves(op, st.relation("EQ"))


def test_found_table_is_lexicographically_least():
    # q=2 language preserved by both boolean Mal'tsev completions
    st = RelationalStructure(2, {"D": Relation(2, [(0, 0), (1, 1)])})
    found = find_maltsev(st)
    ops = enumerate_maltsev(st)
    assert found.table == min(op.table for op in ops)


def test_preserves_counterexample():
    op = MaltsevOp(2, minority_table())
    assert not preserves(op, or_structure().relation("OR"))


def test_preserves_rejects_a_relation_over_more_elements():
    # a value the operation's table cannot index is named with both sizes
    op = find_maltsev(xor3_structure())
    with pytest.raises(ValueError, match="over 2 elements, the relation over at least 6"):
        preserves(op, Relation(1, [(5,)]))
    assert preserves(op, Relation(1, [(1,)]))


def _affine3(k):
    rows = [t for t in itertools.product(range(3), repeat=k) if sum(t) % 3 == 0]
    return RelationalStructure(3, {"AFF": Relation(k, rows)})


# sha256 of bytes(op.table) for the search's table, recorded while the
# search still kept its own index of the free entries and per-triple records
TABLE_DIGESTS = {
    "aff3_k2": (lambda: _affine3(2),
                "db8a045ca1d17391c19dbcd4d5facfcc5db1bf3bfc86ea9e8b0995b626c0d6fa"),
    "aff3_k3": (lambda: _affine3(3),
                "2c90e9dc90c0f652ddc244ea0762daa9564c59ff964acb57e963f89cde525006"),
    "aff3_k4": (lambda: _affine3(4),
                "2c90e9dc90c0f652ddc244ea0762daa9564c59ff964acb57e963f89cde525006"),
    "diagonal3": (lambda: diagonal_structure(3),
                  "db8a045ca1d17391c19dbcd4d5facfcc5db1bf3bfc86ea9e8b0995b626c0d6fa"),
    "rank_defect": (rank_defect_structure,
                    "55075ae358714ffc9148248d113b2b876d7178737ea3ad8aa0de85183031cb33"),
}


@pytest.mark.parametrize("name", sorted(TABLE_DIGESTS))
def test_table_digests(name):
    make, digest = TABLE_DIGESTS[name]
    op, violation = find_maltsev_with_certificate(make())
    assert violation is None
    assert hashlib.sha256(bytes(op.table)).hexdigest() == digest


def test_affine_mod3_arity5_search_peak_rss_under_150mb():
    # 81 tuples, 531,441 triples; the child reports its own peak RSS in KiB
    script = textwrap.dedent("""
        import itertools, resource
        from countcsp import Relation, RelationalStructure, find_maltsev
        rows = [t for t in itertools.product(range(3), repeat=5) if sum(t) % 3 == 0]
        assert find_maltsev(RelationalStructure(3, {"AFF": Relation(5, rows)})) is not None
        print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    """)
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 150 * 1024
