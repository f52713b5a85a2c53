"""Package-level checks: the public name list, the import layering between
modules, unused imports, that phi is applied through its own table alone,
that counting reads sections without pair closures, that constraint names
are resolved in one place, that count and build_frame share one frame
builder, that every frame is built by one witness walk, that one function
tells an int from a bool, that every function the benchmark's tracer wraps
exists, that short traced benchmark runs end in a strict JSON line with
every op correct, and the demos running end to end."""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import countcsp

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
MODULES = sorted(p.stem for p in (SRC / "countcsp").glob("*.py"))

# counting binds two oracle names that the benchmark's tracer test reads
# through it, and calls neither.
PASSTHROUGH = {"balance_matrix", "enumerate_solutions"}


def test_all_lists_api_names_only():
    assert len(set(countcsp.__all__)) == len(countcsp.__all__)
    for name in countcsp.__all__:
        assert not isinstance(getattr(countcsp, name), types.ModuleType), name


def _tree(module: str) -> ast.Module:
    return ast.parse((SRC / "countcsp" / (module + ".py")).read_text())


def _package_imports(module: str) -> dict:
    """{sibling module: names imported from it} over every relative import
    in src/countcsp/<module>.py, function bodies included."""
    out: dict = {}
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                for alias in node.names:
                    out.setdefault(alias.name, set())
            else:
                out.setdefault(node.module, set()).update(a.name for a in node.names)
    return out


def test_the_oracle_depends_on_relations_only():
    assert set(_package_imports("oracle")) <= {"relations"}
    for module in ("dichotomy", "frames", "maltsev", "relations"):
        assert "oracle" not in _package_imports(module), module
    assert _package_imports("counting").get("oracle", set()) <= PASSTHROUGH
    used = {n.id for n in ast.walk(_tree("counting")) if isinstance(n, ast.Name)}
    assert not PASSTHROUGH & used


def test_phi_has_one_table_and_closures_read_it():
    # no power tables on packed codes: closure_project applies phi digit by
    # digit through phi.table
    assert not hasattr(countcsp.MaltsevOp, "power_table")
    defined = {n.id for n in ast.walk(_tree("maltsev")) if isinstance(n, ast.Name)}
    defined |= {n.name for n in ast.walk(_tree("maltsev")) if isinstance(n, ast.ClassDef)}
    assert not {"_WideTable", "POWER_TABLE_MAX_CODES"} & defined
    assert "encode" not in _package_imports("frames").get("maltsev", set())


def _unused_imports(module: str) -> set:
    """Names that src/countcsp/<module>.py binds by an import (future
    features aside) and never reads, neither as a name nor through
    __all__."""
    bound: set = set()
    used: set = set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(e.value for e in node.value.elts)
    return bound - used


def test_no_module_imports_a_name_it_never_uses():
    unused = {m: _unused_imports(m) for m in MODULES}
    unused["counting"] -= PASSTHROUGH
    assert {m: names for m, names in unused.items() if names} == {}


def test_counting_pins_no_frames():
    # congruences read the sections' witness maps, with no pair closures;
    # no count adds a constraint to its frame
    assert "add_constraint" not in _package_imports("counting").get("frames", set())
    assert not hasattr(countcsp.counting, "add_constraint")


def _calls(match) -> list:
    """Qualified names of the functions anywhere in src/countcsp that make
    a call for which match(call node) holds, once per call."""
    out: list = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call) and match(child):
                out.append(".".join(scope))
            visit(child, scope)

    for module in MODULES:
        visit(_tree(module), (module,))
    return out


def _callers(name: str) -> list:
    """Qualified names of the functions anywhere in src/countcsp that call
    `name`, once per call."""
    return _calls(lambda c: name in (getattr(c.func, "id", None), getattr(c.func, "attr", None)))


def test_sections_are_walked_without_a_pair_index():
    # classes come off the sections' witness maps: no pair index exists, a
    # stage's (i, j) support is counting's one closure, and a section is
    # walked from its parent and the pinned value
    tree = _tree("frames")
    functions = {n.name: n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    assert "_pair_index" not in functions
    cache = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "SectionCache")
    names = {n.name for n in cache.body if isinstance(n, ast.FunctionDef)}
    names |= {n.attr for n in ast.walk(cache) if isinstance(n, ast.Attribute)}
    assert not {"pairs", "_pairs"} & names
    callers = _callers("closure_project")
    assert [c for c in callers if c.startswith("counting.")] == ["counting._pair_support"]
    assert [a.arg for a in functions["_fix_first"].args.args] == ["frame", "phi", "a"]


def test_constraint_names_are_resolved_in_one_place():
    # every other module goes through RelationalStructure.resolve, so the
    # fast path, the oracle, the join and the CLI fail alike
    callers = {c.split(".")[0] for c in _callers("relation")}
    assert callers == {"relations", "fixtures"}
    assert {c.split(".")[0] for c in _callers("resolve")} >= {
        "cli", "dichotomy", "frames", "oracle"
    }


def test_count_and_decide_share_one_frame_builder():
    # count and build_frame both take the components' frames from
    # frames._component_frames, and one product joins every frame
    assert {"build_frame", "partition_from_groups"}.isdisjoint(
        _package_imports("counting").get("frames", set())
        | _package_imports("counting").get("relations", set())
    )
    assert sorted(_callers("_component_frames")) == ["counting.count", "frames.build_frame"]
    assert sorted(_callers("_product")) == [
        "frames._component_frames", "frames.build_frame", "frames.initial_frame"
    ]
    tree = _tree("frames")
    assert "_insert_free" not in {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    modules = {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
    modules |= {a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
    assert "bisect" not in modules


def test_every_frame_is_built_by_one_witness_walk():
    # a constraint is read off the frame it is given, with no cut copy of
    # it, and the frame its walks built is the one returned, not re-based:
    # shrink_to_small is that same walk from the first row, and no builder
    # calls it
    assert _callers("_lift") == ["frames.member"]
    assert _callers("shrink_to_small") == []
    functions = {n.name: n for n in _tree("frames").body if isinstance(n, ast.FunctionDef)}

    def called(fn) -> list:
        return [c for c in ast.walk(fn) if isinstance(c, ast.Call)]

    fn = functions["add_constraint"]
    built = [c for c in called(fn) if getattr(c.func, "id", None) == "Frame"]
    returned = [r.value for r in ast.walk(fn) if isinstance(r, ast.Return)]
    assert len(built) == 1 and built[0] in returned
    shrink = functions["shrink_to_small"]
    names = {getattr(c.func, "id", None) or getattr(c.func, "attr", None) for c in called(shrink)}
    assert "_walk" in names and not {"_swap_in", "prefix_groups"} & names
    assert not [n for n in ast.walk(shrink) if isinstance(n, (ast.For, ast.comprehension))]


def _tests_for_bool(call: ast.Call) -> bool:
    if getattr(call.func, "id", None) != "isinstance" or len(call.args) != 2:
        return False
    kinds = call.args[1].elts if isinstance(call.args[1], ast.Tuple) else [call.args[1]]
    return any(getattr(k, "id", None) == "bool" for k in kinds)


def test_one_function_tells_an_int_from_a_bool():
    # every "an int, and not a bool" check goes through _require_int, in
    # relations, the one module the oracle may import
    assert _calls(_tests_for_bool) == ["relations._require_int"]


def test_every_tracer_target_resolves():
    # a target the tracer cannot find is reported as absent (a null metric)
    # instead of failing the benchmark run, so a rename shows here first
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for layer, _, _ in tracer.TARGETS:
        importlib.import_module("countcsp." + layer)
    targets = [(layer, path) for layer, path, _ in tracer.TARGETS]
    assert [t for t in targets if tracer._resolve(*t) is None] == []


def _reject_constant(name):
    raise ValueError("non-finite number %s in the benchmark's JSON line" % name)


def _traced_run(workload: str) -> dict:
    """The last stdout line of a short traced benchmark run, parsed after
    checking that the run exited 0."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", "1"],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1], parse_constant=_reject_constant)


def test_traced_benchmark_run_ends_in_a_strict_json_line():
    # the benchmark reads a run's last line as its result: it must parse
    # without NaN or Infinity, report every op correct and no null metric
    result = _traced_run("analyze")
    assert result["correct"] is True
    assert result["failed"] == 0 < result["attempted"]
    assert result["metrics"]
    assert [k for k, m in result["metrics"].items() if m["value"] is None] == []


def test_traced_random_mix_run_counts_every_op_correctly():
    # random_mix counts components with no free position, each of which
    # count must skip rather than sweep as an arity-0 frame: the tracer
    # fits count_frame's time against the log of its arity
    result = _traced_run("random_mix")
    assert result["correct"] is True
    assert result["failed"] == 0 < result["attempted"]
    # every frame add_constraint returns is within n(q-1)+1 rows, and no
    # builder re-bases a frame through shrink_to_small
    metrics = result["metrics"]
    assert 0 < metrics["frames.frame_rows_fill"]["value"] <= 1
    assert metrics["frames.shrink_to_small.calls"]["value"] == 0


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
