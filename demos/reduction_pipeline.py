"""Vertex cover to s-diamond-free edge deletion, stage by stage, and back.

The pipeline manufactures triangle-freeness by double subdivision, trades
vertex cover for star-free vertex deletion with pendant leaves, and turns
vertex deletion into edge deletion with one universal vertex.  Solving the
final instance and lifting the solution recovers a vertex cover of the
original graph.
"""

from diamondkernel import (Graph, add_universal, attach_stars, lift_solution,
                           reduce_vc_to_sdfed, solve_branching, subdivide_twice)
from diamondkernel.patterns import is_family_free, iter_sdiamond_occurrences
from diamondkernel.family import FamilySpec

# vertex-cover instance: a 4-cycle, cover number 2
base = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
k = 2
print(f"vertex-cover instance: C4, k={k}")

g1, k1, _ = subdivide_twice(base, k)
print(f"\nafter double subdivision: n={g1.n}, m={g1.m}, budget {k}+{base.m}={k1}")
print("triangle-free:", not any(g1.neighbors(u) & g1.neighbors(v) for u, v in g1.edges()))

s = 1
g2, _ = attach_stars(g1, s)
print(f"after attaching {s} leaf per vertex: n={g2.n}, m={g2.m}")

g3, w = add_universal(g2)
print(f"after the universal vertex {w}: n={g3.n}, m={g3.m}")
print("K4-free:", is_family_free(g3, FamilySpec(clique=4)))

inst, trace = reduce_vc_to_sdfed(base, k, s)
occs = list(iter_sdiamond_occurrences(inst.graph, s))
print(f"\ninduced {s}-diamonds in the reduced graph: {len(occs)}, "
      f"all through {w}: {all(w in o.vertices for o in occs)}")

sol = solve_branching(inst)
print(f"branching solver: feasible={sol.feasible}, deletions={len(sol.delete_set)}")
cover = lift_solution(trace, sol)
print(f"lifted vertex cover of C4: {sorted(cover)} (size {len(cover)} <= {k})")
