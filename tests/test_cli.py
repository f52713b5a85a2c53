import os
import subprocess
import sys
from pathlib import Path

import pytest

from countcsp import cli
from countcsp import counting
from countcsp.cli import (
    CliParseError,
    format_instance_text,
    parse_instance_text,
    parse_structure_text,
    resolve_instance,
)

XOR3_TEXT = """\
# three-bit even parity
domain 2
relation XOR3 3 4
0 0 0
0 1 1
1 0 1
1 1 0
"""

OR_TEXT = """\
domain 2
relation OR 2 3
0 1
1 0
1 1
"""

RANK_DEFECT_TEXT = """\
domain 7
relation R 3 5
0 0 2
0 1 3
1 0 4
1 1 5
0 0 6
"""

XOR_INSTANCE = """\
vars 3
constraint XOR3 1 2 3
"""

XOR_UNSAT = """\
vars 3
constraint XOR3 1 2 3
constraint CONST_1 1
constraint CONST_1 2
constraint CONST_1 3
"""

R_STRAIGHT = """\
vars 3
constraint R 1 2 3
"""

# R's doubled column first, in a component apart from x1's constant
R_PERMUTED = """\
vars 4
constraint CONST_1 1
constraint R 3 4 2
"""


def _file(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_parse_structure_roundtrip():
    st = parse_structure_text(XOR3_TEXT)
    assert st.domain_size == 2
    assert st.relation("XOR3").tuples == ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0))


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("relation R 1 1\n0\n", "missing domain line"),
        ("domain 2\ndomain 2\n", "duplicate domain"),
        ("domain 2\nfrobnicate 3\n", "unknown directive"),
        ("domain 2\nrelation EQ 1 1\n0\n", "reserved"),
        ("domain 2\nrelation R 3 4\n0 0 0\n", "unexpected end of file"),
        ("domain 2\nrelation R 2 1\n0 0 0\n", "expects 2 values"),
        ("domain 2\nrelation R 1 0\n", "positive arity and row count"),
        ("domain 2\nrelation R 1 1\n0\nrelation R 1 1\n1\n", "duplicate relation"),
        ("domain x\n", "expected an integer"),
    ],
)
def test_parse_structure_errors(text, fragment):
    with pytest.raises(CliParseError) as exc:
        parse_structure_text(text)
    assert fragment in str(exc.value)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("constraint R 1\n", "constraint before vars"),
        ("vars 2\nvars 2\n", "duplicate vars"),
        ("vars 0\n", "at least one variable"),
        ("vars 2\nconstraint R 3\n", "out of range"),
        ("vars 2\nconstraint R\n", "usage: constraint"),
        ("", "missing vars line"),
    ],
)
def test_parse_instance_errors(text, fragment):
    with pytest.raises(CliParseError) as exc:
        parse_instance_text(text)
    assert fragment in str(exc.value)


def test_instance_parsing_is_one_based():
    inst = parse_instance_text(XOR_INSTANCE)
    assert inst.num_vars == 3
    assert inst.constraints == (("XOR3", (0, 1, 2)),)
    assert format_instance_text(inst) == XOR_INSTANCE


def test_resolve_instance_checks():
    st = parse_structure_text(XOR3_TEXT)
    with pytest.raises(CliParseError) as exc:
        resolve_instance(st, parse_instance_text("vars 2\nconstraint NOPE 1 2\n"))
    assert "no such relation" in str(exc.value)
    with pytest.raises(CliParseError) as exc:
        resolve_instance(st, parse_instance_text("vars 2\nconstraint XOR3 1 2\n"))
    assert "arity" in str(exc.value)
    resolve_instance(st, parse_instance_text("vars 2\nconstraint EQ 1 2\n"))


def test_python_dash_m_runs_the_cli(tmp_path, capsys):
    s = _file(tmp_path, "s", XOR3_TEXT)
    assert cli.main(["analyze", s]) == 0
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "countcsp", "analyze", s],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == capsys.readouterr().out


def test_analyze_command(tmp_path, capsys):
    s = _file(tmp_path, "s", XOR3_TEXT)
    assert cli.main(["analyze", s]) == 0
    out = capsys.readouterr().out
    assert out.startswith("FP\nverdict=BALANCED\n")

    assert cli.main(["analyze", _file(tmp_path, "r", RANK_DEFECT_TEXT)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("SHARP_P_COMPLETE\nverdict=NOT_BALANCED\n")
    assert "matrix [2,1;1,1]" in out

    assert cli.main(["analyze", _file(tmp_path, "o", OR_TEXT)]) == 1
    out = capsys.readouterr().out
    assert "verdict=NOT_STRONGLY_RECTANGULAR" in out

    assert cli.main(["analyze", s, "--max-nodes", "1"]) == 2
    out = capsys.readouterr().out
    assert out.startswith("TIMEOUT\nverdict=TIMEOUT\n")


def test_decide_command(tmp_path, capsys):
    s = _file(tmp_path, "s", XOR3_TEXT)
    dumpfile = tmp_path / "frame.txt"
    code = cli.main(
        ["decide", s, _file(tmp_path, "i", XOR_INSTANCE), "--dump-frame", str(dumpfile)]
    )
    assert code == 0
    assert capsys.readouterr().out == "SAT\n"
    assert dumpfile.read_text().startswith("frame n=3 rows=")

    # variable 3 of 5 is in no constraint: the frame still spans all five
    gap = "vars 5\nconstraint XOR3 4 1 2\nconstraint XOR3 5 4 4\n"
    code = cli.main(["decide", s, _file(tmp_path, "g", gap), "--dump-frame", str(dumpfile)])
    assert code == 0
    assert capsys.readouterr().out == "SAT\n"
    lines = dumpfile.read_text().splitlines()
    assert lines[0].startswith("frame n=5 rows=")
    witnessed = {int(line.split()[2][2:]) for line in lines if line.startswith("witness")}
    assert witnessed == set(range(5))

    assert cli.main(["decide", s, _file(tmp_path, "u", XOR_UNSAT)]) == 1
    assert capsys.readouterr().out == "UNSAT\n"

    o = _file(tmp_path, "o", OR_TEXT)
    code = cli.main(["decide", o, _file(tmp_path, "oi", "vars 2\nconstraint OR 1 2\n")])
    assert code == 65
    err = capsys.readouterr().err
    assert "no Mal'tsev operation" in err


def test_count_command(tmp_path, capsys):
    s = _file(tmp_path, "s", XOR3_TEXT)
    i = _file(tmp_path, "i", XOR_INSTANCE)
    assert cli.main(["count", s, i]) == 0
    assert capsys.readouterr().out == "4\n"

    r = _file(tmp_path, "r", RANK_DEFECT_TEXT)
    ri = _file(tmp_path, "ri", R_STRAIGHT)
    assert cli.main(["count", r, ri]) == 1
    assert "#P-complete" in capsys.readouterr().err
    assert cli.main(["count", r, ri, "--force"]) == 0
    assert capsys.readouterr().out == "5\n"

    # R's third column determines the other two, so the forced count keeps
    # x2 alone and is exact
    rp = _file(tmp_path, "rp", R_PERMUTED)
    assert cli.main(["count", r, rp, "--force"]) == 0
    assert capsys.readouterr().out == "5\n"

    o = _file(tmp_path, "o", OR_TEXT)
    oi = _file(tmp_path, "oi", "vars 2\nconstraint OR 1 2\n")
    assert cli.main(["count", o, oi, "--force"]) == 65


def test_count_failure_names_file_variables(tmp_path, capsys, monkeypatch):
    # a quotient without complete blocks fails the stage at positions
    # (1, 2) of R's frame; x1 is a component of its own, so the pair is
    # named by file variables, 1-based as in the instance file. The Python
    # API names the same pair (2, 3).
    monkeypatch.setattr(counting, "_bipartite_blocks", lambda pairs: None)
    r = _file(tmp_path, "r", RANK_DEFECT_TEXT)
    ri = _file(tmp_path, "ri", "vars 4\nconstraint CONST_1 1\nconstraint R 2 3 4\n")
    assert cli.main(["count", r, ri, "--force"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "count failed: reconstruction failed at pair (3, 4)" in captured.err


def test_oracle_command(tmp_path, capsys):
    s = _file(tmp_path, "s", XOR3_TEXT)
    i = _file(tmp_path, "i", XOR_INSTANCE)
    assert cli.main(["oracle", s, i]) == 0
    assert capsys.readouterr().out == "4\n"
    assert cli.main(["oracle", s, i, "--cap", "2"]) == 65
    assert "exceeds" in capsys.readouterr().err


def test_cli_error_paths(tmp_path, capsys):
    assert cli.main(["analyze", str(tmp_path / "missing.txt")]) == 64
    assert "cannot read" in capsys.readouterr().err

    s = _file(tmp_path, "s", XOR3_TEXT)
    bad = _file(tmp_path, "bad", "vars 2\nconstraint NOPE 1 2\n")
    assert cli.main(["count", s, bad]) == 64
    assert "no such relation" in capsys.readouterr().err


def test_unwritable_dump_path_is_an_input_error(tmp_path, capsys):
    s = _file(tmp_path, "s", XOR3_TEXT)
    i = _file(tmp_path, "i", XOR_INSTANCE)
    target = tmp_path / "missing" / "f.txt"
    assert cli.main(["decide", s, i, "--dump-frame", str(target)]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write %s: " % target)
    assert not target.parent.exists()


def test_negative_node_budget_is_an_input_error(tmp_path, capsys):
    s = _file(tmp_path, "s", XOR3_TEXT)
    i = _file(tmp_path, "i", XOR_INSTANCE)
    for argv in (["analyze", s], ["count", s, i], ["count", s, i, "--force"]):
        assert cli.main(argv + ["--max-nodes", "-5"]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --max-nodes must be non-negative, got -5\n"
    # a budget of 0 is valid: the sweep runs out of it at once
    assert cli.main(["analyze", s, "--max-nodes", "0"]) == 2
    assert capsys.readouterr().out.startswith("TIMEOUT\n")


def test_negative_trials_or_cap_is_an_input_error(tmp_path, capsys):
    s = _file(tmp_path, "s", XOR3_TEXT)
    i = _file(tmp_path, "i", XOR_INSTANCE)
    cases = [
        (["selftest", "--trials", "-3"], "--trials", -3),
        (["selftest", "--cap", "-1", "--trials", "2"], "--cap", -1),
        (["oracle", s, i, "--cap", "-1"], "--cap", -1),
    ]
    for argv, flag, value in cases:
        assert cli.main(argv) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: %s must be non-negative, got %d\n" % (flag, value)
    # zero trials is valid: nothing is checked
    assert cli.main(["selftest", "--trials", "0"]) == 0
    assert capsys.readouterr().out.endswith("selftest ok seed=0 trials=0\n")


@pytest.mark.parametrize("command", ["count", "oracle"])
@pytest.mark.parametrize(
    "constraints, expected",
    [
        ("constraint R 1\nconstraint CONST_1 1\n", "0\n"),
        ("constraint R 1\nconstraint CONST_2 1\n", "1\n"),
        ("constraint EQ 1 1\n", "3\n"),
    ],
    ids=["const1", "const2", "eq"],
)
def test_counts_range_over_the_declared_domain(tmp_path, capsys, command, constraints, expected):
    # element 1 is in no relation, and stays element 1 of {0, 1, 2}
    s = _file(tmp_path, "s", "domain 3\nrelation R 1 2\n0\n2\n")
    i = _file(tmp_path, "i", "vars 1\n" + constraints)
    assert cli.main([command, s, i]) == 0
    assert capsys.readouterr() == (expected, "")


def test_selftest_deterministic(capsys):
    assert cli.main(["selftest", "--trials", "6"]) == 0
    first = capsys.readouterr().out
    assert cli.main(["selftest", "--trials", "6"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.endswith("selftest ok seed=0 trials=6\n")
    for label in ("xor3", "constants", "diagonal"):
        assert "selftest structure=%s trials=6" % label in first


def test_selftest_catches_a_broken_counter(monkeypatch, capsys):
    monkeypatch.setattr(counting, "count", lambda structure, op, instance: -1)
    assert cli.main(["selftest", "--trials", "2"]) == 1
    out = capsys.readouterr().out
    assert "selftest MISMATCH structure=xor3" in out
    assert "vars " in out
