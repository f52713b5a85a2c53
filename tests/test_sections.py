"""Prefix sections are built once per count, and neither sharing them,
growing frames as variables appear, reading congruences off the sections'
witness maps, nor counting connected components apart in their own
constraint order changes a generated relation or count.

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

When count came to count each connected component on its own frame, the
count-and-trace digest was split in two. The count digest was recorded
before that change and did not move. The trace digest was re-recorded: the
trace of every single-component instance stayed byte-identical, and the
trace of every instance with several components is now the concatenation
of its components' traces, each as the earlier count gave it for that
component alone (relabelled to its sorted variables).

The frame-dump digests were re-recorded a second time when sections and
add_constraint past a constraint's scope came to take their witnesses from
one walk, which closes the rows gathered so far onto one index at a time:
the rows changed; the counts, traces and relations did not.

The xor3 frame-dump digest was re-recorded a third time when build_frame
came to choose the constraint order itself (fewest distinct variables
first, then highest variable first): the battery's instances are now added
in that order, so some rows changed. Pinning add_constraint's sections on
the frame's head, which came with it, moved no dump. The counts, traces
and relations did not move, nor did diag3's and constants' frame dumps.

No digest moved when both congruences came to be read off the sections'
witness maps, with no pair closures per section, and the base stages off
their own (0, j) pair supports, in the one stage loop of count_frame.

The xor3 and diag3 frame-dump digests were re-recorded when add_constraint
came to read its scope off span's level walk of the frame's head, with the
closure and the pinned sections kept only for a walk past q^|J| tuples: the
walk witnesses each class from other rows. The counts, traces and relations
did not move, nor did the constants frame dump.

All three frame-dump digests were re-recorded when build_frame came to
build each connected component on its own frame and join the frames by
one product: of the 180 instances, the dumps of four changed, each with
several components (xor3 draws 10 and 36, diag3 draw 5, constants draw 2,
0-based in the battery's order). The counts, traces and relations did not
move.

No digest moved when add_constraint came to walk and section the frame it
is given, with no head cut after the scope and no witness rows lifted.

When count came to cut each component's frame to its free positions (those
where some shared-prefix class holds more than one value), its traces got
shorter: the trace digest above now pins count_frame's trace of each
component's uncut frame, which is count's trace before the cut and did not
move, and a fifth digest pins count's own trace over the kept positions.
Every diag3 and constants component keeps at most one position, which
count_frame counts with no stage, so their count traces are all empty. The
frame dumps, counts and relations did not move.

The xor3 frame-dump digest was re-recorded when add_constraint came to
return the frame its witness walks built, with no re-basing pass
(shrink_to_small) after it, and the sectioned fallback came to witness each
class's first value by the closure tuple that reaches it: of the 60 xor3
instances the dumps of four changed (draws 1, 17, 20 and 35, 0-based; the
last went from 5 rows to 4). The counts, traces and relations did not
move, nor did diag3's and constants' frame dumps.
"""

import hashlib
import itertools
import random

import pytest

from countcsp import Instance, build_frame, count, dump, find_maltsev
from countcsp import counting, frames
from countcsp.counting import count_frame
from countcsp.fixtures import (
    constants_structure,
    diagonal_structure,
    random_instance,
    xor3_structure,
)

import helpers

BATTERY = {
    "xor3": xor3_structure(),
    "diag3": diagonal_structure(3),
    "constants": constants_structure(),
}

# language -> SHA-256 of (the frame dumps, the counts, count_frame's traces
# of the uncut component frames, the generated relations, count's traces)
DIGESTS = {
    "xor3": (
        "e4ff29fa6ee2dfdd897bccefe0e4a183468ee829997a7e5ae1d39d10f04bc951",
        "d2c4bae7ac83fdb8a618f478c4cdf1e07ba2752d3098befb181ffded30804a5f",
        "37edf06ab81a23e069e9045a4d507cc5e35d8f4f6015658b80d880eed0a1fb5d",
        "250647245648b597d4216ce7bd7ead8cb68457e50e8f6dd1afa9f39884e0206f",
        "9bf97b1bc4bee044922483c356ea81031dd59314fa4568bcf9f96c023762188a",
    ),
    "diag3": (
        "90439f4b1892001903afec173db6df9d30f0b53f83726aa6e09f10ae4c343b5a",
        "ef0ce4de7735847d55613e8b6a188330aa2f64a0c3d280bd1d062542e7ffe4bc",
        "e19eb267e33520da4cfa2237c72daa1ff1d24c9382b0d82aed2bb14a6d8ed2e2",
        "fe3c1e08771b03c6a24e6a0b478a8a45d37b2ebf06b447ec63a44a4aea8791ab",
        "bf97d87a219d375c6d9865bcadd4a7a3cd57c3b46e87e939e4feb35e7e30892f",
    ),
    "constants": (
        "d245bbc05acde567abc8e4a5a305ed611f0aed313251845352f8760327af911d",
        "dedde3cf7b19ee93934a7e8fe93a762e09733c37055092c0948e68b5f59fb794",
        "6bccc470e874940e53d9228d02214d76ae6ebd9a8792ad3b20344aba5cf35cdc",
        "d7eaa72f5a5b13f7823254cc2cd6d643a6f29c6959c6f65d532243493d51d747",
        "bf97d87a219d375c6d9865bcadd4a7a3cd57c3b46e87e939e4feb35e7e30892f",
    ),
}


def battery_digests(structure) -> tuple:
    rng = random.Random(2718)
    phi = find_maltsev(structure)
    frame_hash = hashlib.sha256()
    count_hash = hashlib.sha256()
    trace_hash = hashlib.sha256()
    relation_hash = hashlib.sha256()
    cut_trace_hash = hashlib.sha256()
    for _ in range(60):
        inst = random_instance(structure, rng, max_vars=8, max_constraints=7)
        frame = build_frame(structure, phi, inst)
        frame_hash.update(dump(frame).encode())
        relation_hash.update(helpers.relation_text(frame, phi, structure.domain_size).encode())
        trace: list = []
        c = count(structure, phi, inst, trace=trace)
        count_hash.update(("%d\n" % c).encode())
        cut_trace_hash.update(helpers.trace_text(trace).encode())
        uncut: list = []
        built = frames._component_frames(structure, phi, inst)
        for variables, f in built[0] if built else ():
            count_frame(f, phi, trace=uncut, variables=variables)
        trace_hash.update(helpers.trace_text(uncut).encode())
    hashes = (frame_hash, count_hash, trace_hash, relation_hash, cut_trace_hash)
    return tuple(h.hexdigest() for h in hashes)


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
    # 4,794 closures and 595 sections; both classes read off one section's
    # pair closure 4,644 closures and 578 sections. Adding the constraints in
    # file order pinned sections up to the frame's last position on every
    # add_constraint; highest variable first puts each new variable at
    # position 0. Sections walked from their parents' rows, one index at a
    # time, instead of matched against a shared (0, i) pair index made 1,288
    # closures into 2,061, each onto one index, and pinned the same sections.
    # Pinning add_constraint's sections on the frame's head, cut after the
    # constraint's last scope variable, made 2,061 into 1,602: the same
    # sections, each walked only as far as the harvest reads it. Reading
    # both classes off the sections' witness maps, with no (0, i) pair
    # closures per section, made 1,602 closures into 1,110 and 107 sections
    # into 110: the three new sections pin n - 1 values, the children the
    # last stage (i = n - 2) reads. Reading each constraint's scope off the
    # level walk of the frame's head, with no scope closure and no pinned
    # sections while the walk stays within q^|J| tuples, made 1,110
    # closures into 894 and 110 sections into 56, the ones count_frame
    # pins; each walk reads its frame's values at position 0 (projection)
    # once, on the 18 constraints. Walking the frame itself, with no head
    # cut after the scope, moved none of these counts. Cutting the frame to
    # its free positions before counting made 894 closures into 154 and 56
    # sections into 0: the chain keeps positions 0 and 1, whose one stage
    # is one pair closure, so the other 153 closures are build_frame's.
    # Dropping each closed tail before the next constraint's product made
    # those 153 into 0: every frame ends at the constraint's last scope
    # position, so add_constraint walks nothing past it.
    assert calls == {"closure_project": 1, "_fix_first": 0, "projection": 18}
    # count_frame alone reads both classes off the sections' witness maps,
    # one lookup per class test (the two readings above made 835 closures,
    # 70 sections and 855 projection scans; one section's pair closure 685
    # closures, and with sections walked one index at a time 1,233 closures
    # and 53 sections; witness maps made that 741 and 56), and it pins no
    # frame: it adds no constraint
    frame = build_frame(st, phi, inst)
    calls.update(dict.fromkeys(calls, 0), add_constraint=0)
    pin = counted("add_constraint", frames.add_constraint)
    monkeypatch.setattr(frames, "add_constraint", pin)
    # a counting module that imports add_constraint calls its own binding
    monkeypatch.setattr(counting, "add_constraint", pin, raising=False)
    assert counting.count_frame(frame, phi) == 4
    assert calls == {"closure_project": 741, "_fix_first": 56, "projection": 0, "add_constraint": 0}
