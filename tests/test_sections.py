"""Prefix sections are built once per count, and neither sharing them,
growing frames as variables appear, nor reading congruences off the
sections' pair closures changes a generated relation, count or trace.

The count-and-trace digests were recorded with a fresh section cache per
pinned add_constraint, pair closures per section and sections past a
constraint's scope, and frames over all n variables from the start; they
held unchanged when congruences stopped pinning a frame per backward block
(one add_constraint call each), when add_constraint closed each
constraint's scope once, when every section came to be pinned through a
SectionCache, count_frame read its base stages off the root pair closures
and the quotient blocks came from the support blocks, and when both
congruences came to be read off one section's (i, j) pair closure. The
relation digests (every tuple of D^n that member accepts) were recorded
with those frames too. The frame-dump digests were re-recorded once
build_frame grew its frames as variables appear: the rows changed, the
relations they generate did not.
"""

import hashlib
import itertools
import random

import pytest

from countcsp import Instance, build_frame, count, dump, find_maltsev, member
from countcsp import counting, frames
from countcsp.fixtures import (
    constants_structure,
    diagonal_structure,
    random_instance,
    xor3_structure,
)

BATTERY = {
    "xor3": xor3_structure(),
    "diag3": diagonal_structure(3),
    "constants": constants_structure(),
}

# language -> SHA-256 of (the frame dumps, the counts and traces, the
# generated relations)
DIGESTS = {
    "xor3": (
        "b078e3bf10c090339b3eeedf3094ee1cb7e4da696f85e73a0b23be84fd1fbae5",
        "940dc6dd2393143fae0792c544cf80493401186081a083a2af1588c0507f016b",
        "250647245648b597d4216ce7bd7ead8cb68457e50e8f6dd1afa9f39884e0206f",
    ),
    "diag3": (
        "90439f4b1892001903afec173db6df9d30f0b53f83726aa6e09f10ae4c343b5a",
        "31803e60785b052c2e363e3f6ce3897edfa30a666d2b8f8702c81c0ca0cb2be0",
        "fe3c1e08771b03c6a24e6a0b478a8a45d37b2ebf06b447ec63a44a4aea8791ab",
    ),
    "constants": (
        "d245bbc05acde567abc8e4a5a305ed611f0aed313251845352f8760327af911d",
        "ccde3132e7e4083f25ba91a426ff15bdc656d7c75733474475b6b5ef91d69523",
        "d7eaa72f5a5b13f7823254cc2cd6d643a6f29c6959c6f65d532243493d51d747",
    ),
}


def trace_text(trace: list) -> str:
    """Canonical text of count(..., trace=) steps: supports, classes,
    quotient entries and stage counts, all sorted."""
    lines = []
    for s in trace:
        parts = [s.i, s.j, sorted(s.support), sorted(s.counts.values.items())]
        if s.congruence is not None:
            parts.append([sorted(c) for c in s.congruence.forward])
            parts.append([sorted(c) for c in s.congruence.backward])
        if s.quotient is not None:
            q = s.quotient
            parts.append((q.row_labels, q.col_labels, sorted(q.entries.items())))
        lines.append(repr(parts))
    return "\n".join(lines) + "\n"


def relation_text(frame, phi, q: int) -> str:
    """The generated relation: every tuple of D^n that member accepts, in
    lexicographic order, after a header with n."""
    lines = ["n=%d" % frame.arity]
    for t in itertools.product(range(q), repeat=frame.arity):
        if member(frame, phi, t):
            lines.append(" ".join(map(str, t)))
    return "\n".join(lines) + "\n"


def battery_digests(structure) -> tuple:
    rng = random.Random(2718)
    phi = find_maltsev(structure)
    frame_hash = hashlib.sha256()
    count_hash = hashlib.sha256()
    relation_hash = hashlib.sha256()
    for _ in range(60):
        inst = random_instance(structure, rng, max_vars=8, max_constraints=7)
        frame = build_frame(structure, phi, inst)
        frame_hash.update(dump(frame).encode())
        relation_hash.update(relation_text(frame, phi, structure.domain_size).encode())
        trace: list = []
        c = count(structure, phi, inst, trace=trace)
        count_hash.update(("%d\n" % c).encode())
        count_hash.update(trace_text(trace).encode())
    return frame_hash.hexdigest(), count_hash.hexdigest(), relation_hash.hexdigest()


@pytest.mark.parametrize("name", sorted(BATTERY))
def test_frames_counts_and_traces_are_pinned(name):
    assert battery_digests(BATTERY[name]) == DIGESTS[name]


def test_one_count_builds_each_section_once(monkeypatch):
    calls = {"closure_project": 0, "_fix_first": 0, "projection": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    closure = counted("closure_project", frames.closure_project)
    monkeypatch.setattr(frames, "closure_project", closure)
    monkeypatch.setattr(counting, "closure_project", closure)
    monkeypatch.setattr(frames, "_fix_first", counted("_fix_first", frames._fix_first))
    monkeypatch.setattr(frames.Frame, "projection", counted("projection", frames.Frame.projection))
    st = xor3_structure()
    n = 20
    inst = Instance(n, [("XOR3", (i, i + 1, i + 2)) for i in range(n - 2)])
    phi = find_maltsev(st)
    assert count(st, phi, inst) == 4
    # Per-call caches make 23,849 closures and 2,002 sections here, frames
    # over all n variables from the start 9,030 closures, a pinned
    # add_constraint per backward block with a closure per scope position
    # 6,163 closures and 597 sections, and base stages that close their own
    # (0, j) pairs 4,813 closures; forward classes from pinned (i+1)-prefix
    # sections and backward ones from each support block's least column
    # 4,794 closures and 595 sections.
    assert calls == {"closure_project": 4644, "_fix_first": 578, "projection": 0}
    # count_frame alone reads both classes off one section's pair closure
    # (the two readings above made 835 closures, 70 sections and 855
    # projection scans), and it pins no frame: it adds no constraint
    frame = build_frame(st, phi, inst)
    calls.update(dict.fromkeys(calls, 0), add_constraint=0)
    pin = counted("add_constraint", frames.add_constraint)
    monkeypatch.setattr(frames, "add_constraint", pin)
    # a counting module that imports add_constraint calls its own binding
    monkeypatch.setattr(counting, "add_constraint", pin, raising=False)
    assert counting.count_frame(frame, phi) == 4
    assert calls == {"closure_project": 685, "_fix_first": 53, "projection": 0, "add_constraint": 0}
