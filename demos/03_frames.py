"""Frames: sub-linear representations of exponentially large solution sets.

A frame keeps at most n(q-1)+1 rows of the solution relation plus a witness
row per (value, position) pair, yet determines the whole relation under the
Mal'tsev operation. One witness walk builds every frame within that bound,
with no pass to shrink it afterwards.

Run:  python3 demos/03_frames.py
"""

import itertools

from countcsp import (
    Instance,
    SectionCache,
    add_constraint,
    build_frame,
    dump,
    find_maltsev,
    initial_frame,
    member,
    span,
)
from countcsp.fixtures import xor3_structure

st = xor3_structure()
phi = find_maltsev(st)

# The initial frame spans the full assignment space D^n with 1 + n(q-1) rows.
f = initial_frame(6, st.domain_size)
print("initial frame rows for n=6:", len(f), "of", 2 ** 6, "assignments")

# Constraints are folded in one at a time; the frame stays small: here 4
# rows generate all 8 solutions (the bound n(q-1)+1 allows 7).
inst = Instance(6, [("XOR3", (0, 1, 2)), ("XOR3", (2, 3, 4)), ("XOR3", (3, 4, 5))])
g = build_frame(st, phi, inst)
print("constrained frame:")
print(dump(g))

rel = span(g, phi)
print("generated relation size:", len(rel), "(frame rows: %d)" % len(g))

# Membership never materializes the relation: it walks the witness rows.
print("member (1,1,0,1,1,0):", member(g, phi, (1, 1, 0, 1, 1, 0)))
print("member (1,1,1,0,1,1):", member(g, phi, (1, 1, 1, 0, 1, 1)))
print("matches the span on all tuples:", all(
    member(g, phi, t) == (t in rel)
    for t in itertools.product(range(2), repeat=6)
))

# Sections: pin a prefix and get a frame of the tail relation.
sec = SectionCache(g, phi).get((1, 0))
print("\nafter pinning x1=1, x2=0 the tail frame spans:", span(sec, phi).tuples)

# add_constraint is the workhorse: here equality of two variables.
h = add_constraint(g, phi, st.relation("EQ"), (0, 5))
print("with x1 = x6 added:", len(span(h, phi)), "solutions")
