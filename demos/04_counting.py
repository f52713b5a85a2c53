"""Exact counting without enumerating a single solution.

The counter sweeps coordinate pairs, quotients each stage's prefix-count
matrix by two congruences, reconstructs the quotient from its margins, and
reads the final count off the last column sums. Everything is exact integer
arithmetic, so astronomically large counts are fine.

Run:  python3 demos/04_counting.py
"""

from countcsp import (
    Instance,
    NotBalancedError,
    build_frame,
    count,
    count_frame,
    find_maltsev,
    oracle_count,
)
from countcsp.fixtures import rank_defect_structure, xor3_structure

st = xor3_structure()
phi = find_maltsev(st)

inst = Instance(4, [("XOR3", (0, 1, 2)), ("XOR3", (1, 2, 3))])
print("fast count:", count(st, phi, inst))
print("brute force:", oracle_count(st, inst))

# Unconstrained variables contribute a factor q each, so counts scale far
# past anything enumerable.
big = Instance(200, [("XOR3", (0, 1, 2))])
print("\n200 variables, one constraint:")
print(" ", count(st, phi, big))

# A trace exposes each stage: the pair support, the two congruences, the
# reconstructed quotient matrix, and the stage counts. count sweeps only the
# positions earlier ones leave free: here x2 and x3 are functions of x0 and
# x1, so its trace has one stage. count_frame sweeps every position of the
# frame it is handed.
trace = []
count(st, phi, inst, verify=True, trace=trace)
print("\ncount keeps variables", trace[0].variables)
frame = build_frame(st, phi, inst)
trace = []
count_frame(frame, phi, verify=True, trace=trace)
for step in trace:
    print(
        "stage (%d,%d): support %d pairs, counts %r"
        % (step.i, step.j, len(step.support), step.counts.values)
    )

# The seven-element language admits a Mal'tsev operation but is not
# balanced. Some frames still count fine; others break the margin
# invariants, and the counter reports that instead of guessing. With the
# doubled column first, the full frame fails, but R's third column
# determines the other two, so count keeps that position alone and is exact.
hard = rank_defect_structure()
hphi = find_maltsev(hard)
permuted = Instance(3, [("R", (1, 2, 0))])
print("\nstraight scope:", count(hard, hphi, Instance(3, [("R", (0, 1, 2))])))
print("permuted scope:", count(hard, hphi, permuted))
try:
    count_frame(build_frame(hard, hphi, permuted), hphi)
except NotBalancedError as e:
    print("permuted scope, every position:", e)
