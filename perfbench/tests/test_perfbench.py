"""Tests of the benchmark itself: metric names, seeded inputs, the
independent reference, failure accounting and the tracer."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import inputs  # noqa: E402
from languages import LANGUAGES  # noqa: E402
from loadclock import LoadClock  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

import countcsp  # noqa: E402
from countcsp import Instance, counting, maltsev, oracle, oracle_count  # noqa: E402
from countcsp.fixtures import xor3_structure  # noqa: E402


def _declared(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _run(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


# -- metric names ------------------------------------------------------------

def test_metric_names_match_benchmark_json():
    assert run.END_TO_END_UNITS == _declared("end_to_end")
    per_layer = dict(tracer.metric_units(), **{"trace.overhead_ratio": "ratio"})
    assert per_layer == _declared("per_layer")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_command_prints_every_declared_metric(trace, kind):
    proc = _run("--workload", "chain", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared(kind)


def test_command_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "chain", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


# -- seeded inputs -----------------------------------------------------------

def test_generation_is_deterministic_per_seed():
    for name, (make_specs, _) in workloads.WORKLOADS.items():
        assert make_specs(5) == make_specs(5), name
    assert workloads.random_mix_specs(5) != workloads.random_mix_specs(6)
    assert inputs.chain_instances(5) != inputs.chain_instances(6)


def test_random_mix_shares():
    specs = workloads.random_mix_specs(2)
    assert len(specs) == inputs.RANDOM_MIX_INSTANCES
    unsat = [k for k, (_, c) in enumerate(specs) if c == 0]
    assert unsat == [k for k in range(len(specs)) if k % inputs.UNSAT_EVERY == 1]
    wide = [k for k, (_, c) in enumerate(specs) if len(str(c)) > inputs.WIDE_MIN_DIGITS]
    assert wide == [k for k in range(len(specs)) if k % inputs.WIDE_EVERY == 20]
    names = {name for (_, _, cons), _ in specs for name, _ in cons}
    assert "EQ" in names and any(n.startswith("CONST_") for n in names)
    assert any(len(set(scope)) < len(scope) for (_, _, cons), _ in specs for _, scope in cons)
    # every relation of arity 3 also meets three distinct variables
    for relation in ("XOR3", "AFF3", "DIAG"):
        assert any(name == relation and len(set(scope)) == 3
                   for (_, _, cons), _ in specs for name, scope in cons), relation


# -- the independent reference -----------------------------------------------

def test_language_equations_match_countcsp_relations():
    structures = workloads._structures(countcsp, sorted(LANGUAGES))
    for name, st in structures.items():
        lang = LANGUAGES[name]
        assert set(st.relation(lang.relation).tuples) == lang.tuples()


def test_linear_count_agrees_with_oracle():
    structures = workloads._structures(countcsp, sorted(LANGUAGES))
    checked = 0
    for seed in (0, 1):
        for lang, n, cons in inputs.random_mix_instances(seed):
            if LANGUAGES[lang].p ** n > 3 ** 9:
                continue
            expected = oracle_count(structures[lang], Instance(n, cons))
            assert reference.linear_count(lang, n, cons) == expected
            checked += 1
    assert checked >= 50


def test_chain_closed_forms():
    for lang, n, cons in inputs.chain_instances(0):
        assert reference.chain_count(lang) == reference.linear_count(lang, n, cons)


# -- failure accounting ------------------------------------------------------

def test_one_failing_op_raises_failed_frac():
    def boom():
        raise ValueError("boom")

    good = [workloads.Op("count", "one", lambda: 1, 1), workloads.Op("count", "two", lambda: 2, 2)]
    tally = run.Tally()
    with LoadClock() as clock:
        run.run_pass(good, tally, clock)
        assert (tally.attempted, tally.failed) == (2, 0)
        run.run_pass(good + [workloads.Op("count", "wrong", lambda: 3, 4)], tally, clock)
        assert (tally.attempted, tally.failed) == (5, 1)
        run.run_pass([workloads.Op("count", "raises", boom, 0)], tally, clock)
        assert (tally.attempted, tally.failed) == (6, 2)


def test_op_repeats_within_a_pass_record_their_median():
    calls = []

    def short():
        calls.append(1)
        time.sleep(0.001 if len(calls) < 3 else 0.05)
        return True

    tally = run.Tally()
    with LoadClock() as clock:
        [(t, raw)] = run.run_pass([workloads.Op("analyze", "short", short, True, 3)], tally, clock)
    assert len(calls) == 3
    assert (tally.attempted, tally.failed) == (3, 0)
    assert 0.001 <= raw < 0.05


def test_load_clock_times_calls_and_keeps_errors():
    def boom():
        raise KeyError("k")

    with LoadClock() as clock:
        start = time.perf_counter()
        result, error, t, raw = clock.timed(lambda: time.sleep(0.1) or 7)
        elapsed = time.perf_counter() - start
        assert (result, error) == (7, None)
        # the calibration samples around and during the call are not its time
        assert 0.05 < raw < elapsed
        assert t > 0
        result, error, _, _ = clock.timed(boom)
        assert result is None and isinstance(error, KeyError)


# -- the tracer --------------------------------------------------------------

def test_tracer_rebinds_every_holder_and_restores():
    original = oracle.enumerate_solutions
    st = xor3_structure()
    inst = Instance(4, [("XOR3", (0, 1, 2)), ("XOR3", (1, 2, 3))])
    tr = tracer.Tracer()
    with tr:
        assert counting.enumerate_solutions is oracle.enumerate_solutions
        assert oracle.enumerate_solutions is not original
        before = tr.snapshot()
        counting.balance_matrix(st, inst, 0, 1)
        counting.count(st, maltsev.find_maltsev(st), inst)
        report = tr.report(before, 1)
    assert oracle.enumerate_solutions is original
    assert counting.enumerate_solutions is original
    assert report["oracle.enumerate_solutions.calls"][0] == 1
    assert report["counting.count.calls"][0] == 1
    assert report["frames.closure_project.calls"][0] > 0
    assert report["maltsev.find_maltsev.calls"][0] == 1


def test_tracer_reports_missing_names_as_absent():
    targets = tracer.TARGETS + (("counting", "no_such_function", "timed"),
                                ("no_such_module", "f", "counted"))
    tr = tracer.Tracer(targets)
    with tr:
        report = tr.report(tr.snapshot(), 1)
    assert report["counting.no_such_function.calls"] == (None, "count")
    assert report["counting.no_such_function.self_s"] == (None, "s")
    assert report["no_such_module.f.calls"] == (None, "count")
    assert report["counting.count.calls"] == (0, "count")


def test_tracer_hook_failure_leaves_the_call_alone():
    class Broken(tracer.Tracer):
        def _on_closure_project(self, st, args, result, dt):
            raise AttributeError("rows")

    st = xor3_structure()
    inst = Instance(3, [("XOR3", (0, 1, 2))])
    tr = Broken()
    with tr:
        before = tr.snapshot()
        assert countcsp.count(st, maltsev.find_maltsev(st), inst) == 4
        report = tr.report(before, 1)
    assert report["frames.closure_project.calls"][0] > 0
    assert report["frames.closure_project.rows_out"] == (None, "count")
