"""Relations, count matrices, and the rank-one block machinery.

Run:  python3 demos/01_relations.py
"""

from countcsp import (
    CountMatrix,
    Relation,
    RelationalStructure,
    block_decompose,
    is_rank_one_block,
    is_rectangular,
    project,
    rank_one_identity_holds,
    reconstruct_rank_one,
    support_is_rectangular,
)
from countcsp.relations import _bipartite_blocks

# A relation is a finite set of same-length integer tuples; construction
# sorts and deduplicates.
r = Relation(3, [(1, 0, 1), (0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)])
print("tuples:", r.tuples)
print("projection onto (2, 0):", project(r, (2, 0)).tuples)

# Rectangularity of a binary view: if (a,c), (a,d), (b,c) are present then
# (b,d) must be too. Equivalently the support splits into complete blocks.
good = Relation(2, [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)])
bad = Relation(2, [(0, 0), (0, 1), (1, 0)])
print("\ncomplete blocks:", block_decompose(good).blocks)
print("rectangular:", is_rectangular(good), is_rectangular(bad))

# Count matrices carry exact integer entries of any size.
m = CountMatrix([0, 1], [0, 1], {(0, 0): 2, (0, 1): 1, (1, 0): 1, (1, 1): 1})
print("\nmatrix rows:", m.to_lists())
print("is rank-one block:", is_rank_one_block(m))
print("  support rectangular:", support_is_rectangular(m))
print("  degree-six identity:", rank_one_identity_holds(m))

# A genuine rank-one block matrix is pinned down by its support and its
# margins alone; reconstruction recovers it exactly.
ok = CountMatrix([0, 1, 2], [0, 1, 2], {
    (0, 0): 2, (0, 1): 4, (1, 0): 1, (1, 1): 2, (2, 2): 5,
})
print("\nreconstructible:", is_rank_one_block(ok))
support = set(ok.support())
rows = {x: sum(ok.get(x, y) for y in ok.col_labels) for x, _ in support}
cols = {y: sum(ok.get(x, y) for x in ok.row_labels) for _, y in support}
rec = reconstruct_rank_one(_bipartite_blocks(support), rows, cols)
print("round trip:", rec.to_lists() == ok.to_lists())

# Structures bundle a domain with named relations. The domain is the
# declared one: elements 1 and 3 are in no relation, yet EQ and CONST_<a>
# range over all four, and resolve looks up each constraint's relation.
st = RelationalStructure(4, {"D": Relation(2, [(0, 2), (2, 0)])})
print("\ndomain size:", st.domain_size)
print("built-in equality:", st.relation("EQ").tuples)
print("resolved:", st.resolve([("D", (0, 1)), ("CONST_3", (1,))]))
