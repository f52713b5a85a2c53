"""Command-line front end.

Subcommands:

* analyze: classify a constraint language (FP / SHARP_P_COMPLETE / TIMEOUT).
* decide: satisfiability of one instance via the frame engine.
* count: exact solution count, guarded by analyze unless --force.
* oracle: brute-force count, for cross-checking.
* selftest: seeded fast-vs-brute-force comparison on built-in languages.

File formats are line-based, with `#` starting a comment. A structure file
holds `domain <q>` and `relation <NAME> <arity> <count>` headers followed by
<count> rows of <arity> integers. An instance file holds `vars <n>` and
`constraint <NAME> <v1> ... <vr>` lines with 1-based variable numbers; the
Python API underneath is 0-based. The names EQ and CONST_<a> are reserved
for the built-in equality and constant relations.

Exit codes: 0 success / SAT / FP, 1 UNSAT / #P-complete / failed check,
2 analysis timeout, 64 unreadable or malformed input, 65 refused
precondition. Results go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

from . import counting, fixtures
from .counting import NotBalancedError
from .dichotomy import (
    DEFAULT_SWEEP_NODES,
    VERDICT_BALANCED,
    VERDICT_TIMEOUT,
    decide_strong_balance,
    verdict_to_text,
)
from .frames import build_frame, dump
from .maltsev import find_maltsev
from .oracle import CapExceededError, oracle_count
from .relations import Instance, Relation, RelationalStructure


class CliParseError(ValueError):
    pass


def _lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def _int(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise CliParseError("line %d: expected an integer, got %r" % (lineno, token))


def parse_structure_text(text: str) -> RelationalStructure:
    domain = None
    relations: dict = {}
    pending = None  # (name, arity, rows still expected, rows)
    for lineno, toks in _lines(text):
        if pending is not None:
            name, arity, left, rows = pending
            if len(toks) != arity:
                raise CliParseError(
                    "line %d: relation %s expects %d values per row" % (lineno, name, arity)
                )
            rows.append(tuple(_int(v, lineno) for v in toks))
            left -= 1
            pending = (name, arity, left, rows) if left else None
            if pending is None:
                relations[name] = (arity, rows, lineno)
            continue
        head = toks[0]
        if head == "domain":
            if len(toks) != 2:
                raise CliParseError("line %d: usage: domain <q>" % lineno)
            if domain is not None:
                raise CliParseError("line %d: duplicate domain line" % lineno)
            domain = _int(toks[1], lineno)
        elif head == "relation":
            if len(toks) != 4:
                raise CliParseError(
                    "line %d: usage: relation <NAME> <arity> <count>" % lineno
                )
            name = toks[1]
            arity = _int(toks[2], lineno)
            count = _int(toks[3], lineno)
            if name in relations:
                raise CliParseError("line %d: duplicate relation %s" % (lineno, name))
            if arity < 1 or count < 1:
                raise CliParseError(
                    "line %d: relation %s needs positive arity and row count"
                    % (lineno, name)
                )
            pending = (name, arity, count, [])
        else:
            raise CliParseError("line %d: unknown directive %r" % (lineno, head))
    if pending is not None:
        raise CliParseError("unexpected end of file inside relation %s" % pending[0])
    if domain is None:
        raise CliParseError("missing domain line")
    try:
        rels = {
            name: Relation(arity, rows)
            for name, (arity, rows, _) in relations.items()
        }
        return RelationalStructure(domain, rels)
    except ValueError as e:
        raise CliParseError(str(e))


def parse_instance_text(text: str) -> Instance:
    num_vars = None
    constraints: list = []
    for lineno, toks in _lines(text):
        head = toks[0]
        if head == "vars":
            if len(toks) != 2:
                raise CliParseError("line %d: usage: vars <n>" % lineno)
            if num_vars is not None:
                raise CliParseError("line %d: duplicate vars line" % lineno)
            num_vars = _int(toks[1], lineno)
            if num_vars < 1:
                raise CliParseError("line %d: need at least one variable" % lineno)
        elif head == "constraint":
            if num_vars is None:
                raise CliParseError("line %d: constraint before vars line" % lineno)
            if len(toks) < 3:
                raise CliParseError(
                    "line %d: usage: constraint <NAME> <v1> ... <vr>" % lineno
                )
            name = toks[1]
            scope = []
            for tok in toks[2:]:
                v = _int(tok, lineno)
                if not 1 <= v <= num_vars:
                    raise CliParseError(
                        "line %d: variable %d out of range 1..%d" % (lineno, v, num_vars)
                    )
                scope.append(v - 1)
            constraints.append((name, tuple(scope)))
        else:
            raise CliParseError("line %d: unknown directive %r" % (lineno, head))
    if num_vars is None:
        raise CliParseError("missing vars line")
    return Instance(num_vars, constraints)


def resolve_instance(structure: RelationalStructure, instance: Instance) -> None:
    """Check every constraint against the structure's relations."""
    for name, scope in instance.constraints:
        try:
            rel = structure.relation(name)
        except KeyError:
            raise CliParseError(
                "constraint %s: no such relation in the structure" % name
            )
        except ValueError as e:
            raise CliParseError("constraint %s: %s" % (name, e))
        if rel.arity != len(scope):
            raise CliParseError(
                "constraint %s: relation has arity %d, scope has %d variables"
                % (name, rel.arity, len(scope))
            )


def _load_structure(path: str) -> RelationalStructure:
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise CliParseError("cannot read %s: %s" % (path, e))
    structure = parse_structure_text(text)
    if structure.element_map:
        print(
            "note: domain renumbered to 0..%d; element map %s"
            % (
                structure.domain_size - 1,
                ",".join(
                    "%d->%d" % (k, v) for k, v in sorted(structure.element_map.items())
                ),
            ),
            file=sys.stderr,
        )
    return structure


def _load_instance(path: str, structure: RelationalStructure) -> Instance:
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise CliParseError("cannot read %s: %s" % (path, e))
    instance = parse_instance_text(text)
    resolve_instance(structure, instance)
    return instance


def format_instance_text(instance: Instance) -> str:
    lines = ["vars %d" % instance.num_vars]
    for name, scope in instance.constraints:
        lines.append("constraint %s %s" % (name, " ".join(str(v + 1) for v in scope)))
    return "\n".join(lines) + "\n"


def cmd_analyze(args) -> int:
    structure = _load_structure(args.structure)
    verdict = decide_strong_balance(structure, max_nodes=args.max_nodes)
    if verdict.kind == VERDICT_BALANCED:
        head, code = "FP", 0
    elif verdict.kind == VERDICT_TIMEOUT:
        head, code = "TIMEOUT", 2
    else:
        head, code = "SHARP_P_COMPLETE", 1
    print(head)
    sys.stdout.write(verdict_to_text(verdict))
    return code


def cmd_decide(args) -> int:
    structure = _load_structure(args.structure)
    instance = _load_instance(args.instance, structure)
    op = find_maltsev(structure)
    if op is None:
        print(
            "refused: the language admits no Mal'tsev operation; "
            "the frame engine does not apply",
            file=sys.stderr,
        )
        return 65
    frame = build_frame(structure, op, instance)
    if args.dump_frame:
        Path(args.dump_frame).write_text(dump(frame))
    if frame.is_empty():
        print("UNSAT")
        return 1
    print("SAT")
    return 0


def cmd_count(args) -> int:
    structure = _load_structure(args.structure)
    instance = _load_instance(args.instance, structure)
    verify = False
    if args.force:
        # skipping the tractability gate: re-check the counting invariants
        # on every stage instead
        verify = True
        op = find_maltsev(structure)
        if op is None:
            print(
                "refused: the language admits no Mal'tsev operation; "
                "nothing to count with",
                file=sys.stderr,
            )
            return 65
    else:
        verdict = decide_strong_balance(structure, max_nodes=args.max_nodes)
        if verdict.kind == VERDICT_TIMEOUT:
            print(
                "refused: language analysis timed out; rerun with a larger "
                "--max-nodes or use --force",
                file=sys.stderr,
            )
            return 2
        if not verdict.tractable:
            print(
                "refused: counting for this language is #P-complete "
                "(verdict %s); use --force to run the counter anyway"
                % verdict.kind,
                file=sys.stderr,
            )
            return 1
        op = verdict.maltsev
    try:
        value = counting.count(structure, op, instance, verify=verify)
    except NotBalancedError as e:
        print("count failed: %s" % e, file=sys.stderr)
        return 1
    print(value)
    return 0


def cmd_oracle(args) -> int:
    structure = _load_structure(args.structure)
    instance = _load_instance(args.instance, structure)
    try:
        value = oracle_count(structure, instance, cap_bits=args.cap)
    except CapExceededError as e:
        print("refused: %s" % e, file=sys.stderr)
        return 65
    print(value)
    return 0


def cmd_selftest(args) -> int:
    rng = random.Random(args.seed)
    suites = [
        ("xor3", fixtures.xor3_structure()),
        ("constants", fixtures.constants_structure()),
        ("diagonal", fixtures.diagonal_structure()),
    ]
    for label, structure in suites:
        op = find_maltsev(structure)
        if op is None:
            print("selftest INTERNAL structure=%s has no Mal'tsev operation" % label)
            return 1
        checked = 0
        skipped = 0
        for _ in range(args.trials):
            instance = fixtures.random_instance(structure, rng)
            try:
                expected = oracle_count(structure, instance, cap_bits=args.cap)
            except CapExceededError:
                skipped += 1
                continue
            got = counting.count(structure, op, instance)
            if got != expected:
                print(
                    "selftest MISMATCH structure=%s expected=%d got=%d"
                    % (label, expected, got)
                )
                sys.stdout.write(format_instance_text(instance))
                return 1
            checked += 1
        print(
            "selftest structure=%s trials=%d checked=%d skipped=%d"
            % (label, args.trials, checked, skipped)
        )
    print("selftest ok seed=%d trials=%d" % (args.seed, args.trials))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="countcsp",
        description="Exact solution counting and tractability analysis "
        "for constraint languages.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="classify a constraint language")
    p.add_argument("structure")
    p.add_argument("--max-nodes", type=int, default=DEFAULT_SWEEP_NODES)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("decide", help="satisfiability of one instance")
    p.add_argument("structure")
    p.add_argument("instance")
    p.add_argument("--dump-frame", metavar="PATH", default=None)
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("count", help="exact solution count")
    p.add_argument("structure")
    p.add_argument("instance")
    p.add_argument("--force", action="store_true")
    p.add_argument("--max-nodes", type=int, default=DEFAULT_SWEEP_NODES)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("oracle", help="brute-force count for cross-checking")
    p.add_argument("structure")
    p.add_argument("instance")
    p.add_argument("--cap", type=int, default=24, help="enumeration cap in bits")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("selftest", help="compare fast and brute-force counts")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=25, help="trials per language")
    p.add_argument("--cap", type=int, default=20)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliParseError as e:
        print("error: %s" % e, file=sys.stderr)
        return 64


if __name__ == "__main__":
    sys.exit(main())
