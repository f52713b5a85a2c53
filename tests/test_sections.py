"""Prefix sections are built once per count, and sharing them changes no
frame, count or trace.

The digests below were recorded with a fresh section cache per pinned
add_constraint, pair closures per section and sections past a constraint's
scope; sharing must keep frames, counts and traces byte-identical to that.
"""

import hashlib
import random

import pytest

from countcsp import Instance, build_frame, count, dump, find_maltsev
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

# language -> (SHA-256 of the frame dumps, SHA-256 of the counts and traces)
DIGESTS = {
    "xor3": (
        "b3bfce054344f5a68543980c2975573b419347e37d2a56cc50990c6c26938003",
        "940dc6dd2393143fae0792c544cf80493401186081a083a2af1588c0507f016b",
    ),
    "diag3": (
        "7fbf7be820e49c16646ce87881e9afd40d354bd4afc696ff62bcc5bc09e47a77",
        "31803e60785b052c2e363e3f6ce3897edfa30a666d2b8f8702c81c0ca0cb2be0",
    ),
    "constants": (
        "185c58027d7049def6b1c3d06754b247f061f294277da15e874a0fee8ce6e10f",
        "ccde3132e7e4083f25ba91a426ff15bdc656d7c75733474475b6b5ef91d69523",
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


def battery_digests(structure) -> tuple:
    rng = random.Random(2718)
    phi = find_maltsev(structure)
    frame_hash = hashlib.sha256()
    count_hash = hashlib.sha256()
    for _ in range(60):
        inst = random_instance(structure, rng, max_vars=8, max_constraints=7)
        frame_hash.update(dump(build_frame(structure, phi, inst)).encode())
        trace: list = []
        c = count(structure, phi, inst, trace=trace)
        count_hash.update(("%d\n" % c).encode())
        count_hash.update(trace_text(trace).encode())
    return frame_hash.hexdigest(), count_hash.hexdigest()


@pytest.mark.parametrize("name", sorted(BATTERY))
def test_frames_counts_and_traces_are_pinned(name):
    assert battery_digests(BATTERY[name]) == DIGESTS[name]


def test_one_count_builds_each_section_once(monkeypatch):
    calls = {"closure_project": 0, "_fix_first": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    closure = counted("closure_project", frames.closure_project)
    monkeypatch.setattr(frames, "closure_project", closure)
    monkeypatch.setattr(counting, "closure_project", closure)
    monkeypatch.setattr(frames, "_fix_first", counted("_fix_first", frames._fix_first))
    st = xor3_structure()
    n = 20
    inst = Instance(n, [("XOR3", (i, i + 1, i + 2)) for i in range(n - 2)])
    assert count(st, find_maltsev(st), inst) == 4
    # Per-call caches make 23,849 closures and 2,002 sections here.
    assert calls == {"closure_project": 9030, "_fix_first": 597}
